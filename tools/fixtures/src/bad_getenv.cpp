// Fixture: environment reads inside src/ (this file's fixture path contains
// a `src` component, which is what the rule keys on).
#include <cstdlib>

namespace vmat_fixture {

inline bool knob_on() {
  const char* env = std::getenv("VMAT_FIXTURE_KNOB");  // env-knob (line 8)
  return env == nullptr || getenv("VMAT_OTHER") != nullptr;  // (line 9)
}
inline const char* sanctioned() {
  return std::getenv("VMAT_FIXTURE_KNOB");  // vmat-lint: allow(env-knob)
}
inline int my_getenv(int x) { return x; }  // fine: another name
inline int not_a_read() { return my_getenv(3); }

}  // namespace vmat_fixture
