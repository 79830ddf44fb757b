# Re-point the repo-root compile_commands.json symlink at the build dir's
# database. Mirrors the configure-time logic in the top-level
# CMakeLists.txt: only a symlink is ever removed — a real file at the link
# path (not ours) is left untouched — and a sanitizer tree (non-empty
# SANITIZE, the tree's VMAT_SANITIZE) leaves the link where it is.
#
# Usage: cmake -DLINK=<link-path> -DDB=<database-path> [-DSANITIZE=<list>]
#              -P refresh_db_link.cmake
if(NOT LINK OR NOT DB)
  message(FATAL_ERROR "refresh_db_link.cmake needs -DLINK= and -DDB=")
endif()
if(SANITIZE)
  message(STATUS "refresh_db_link: sanitizer tree (${SANITIZE}) — "
                 "${LINK} left untouched")
  return()
endif()
if(IS_SYMLINK "${LINK}")
  file(REMOVE "${LINK}")
endif()
if(NOT EXISTS "${LINK}")
  file(CREATE_LINK "${DB}" "${LINK}" SYMBOLIC)
else()
  message(STATUS "refresh_db_link: ${LINK} is a real file (not ours) — "
                 "left untouched")
endif()
