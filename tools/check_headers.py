#!/usr/bin/env python3
"""check-headers: header-hygiene gate for the VMAT public API.

Every header under src/ must compile standalone — `#include "the/header.h"`
as the first line of an otherwise empty translation unit — so that the
umbrella include order in src/vmat.h is never what makes a header build.
It once caught a (since deleted) baseline header that compiled only
through that order: a header that only compiles because a sibling was
included first is a latent breakage for every downstream user who
includes it directly.

Each header is syntax-checked (`-fsyntax-only`) with the same language
standard the build uses. Headers compile in parallel (one job per core by
default).

Exit status: 0 all headers self-contained, 1 failures, 2 usage error.
Output format: one line per failing header, then the compiler diagnostics.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def compile_header(compiler: str, std: str, include_dir: Path,
                   header: str, extra_flags: list[str]) -> tuple[str, str]:
    """Returns (header, diagnostics); diagnostics == "" on success."""
    with tempfile.NamedTemporaryFile(
            mode="w", suffix=".cpp", delete=False) as tu:
        tu.write(f'#include "{header}"\n')
        tu_path = tu.name
    try:
        cmd = [compiler, "-fsyntax-only", f"-std={std}", "-Wall", "-Wextra",
               "-I", str(include_dir), *extra_flags, tu_path]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode == 0:
            return header, ""
        diag = proc.stderr.strip() or proc.stdout.strip() or \
            f"compiler exited {proc.returncode}"
        return header, diag
    finally:
        os.unlink(tu_path)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="check-headers",
        description="Compile every public header standalone.")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--include-dir", default="src",
                    help="public include root, relative to --root "
                         "(default: src)")
    ap.add_argument("--compiler", default=os.environ.get("CXX", "c++"),
                    help="C++ compiler to invoke (default: $CXX or c++)")
    ap.add_argument("--std", default="c++20",
                    help="language standard (default: c++20)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2,
                    help="parallel compile jobs (default: cores)")
    ap.add_argument("--flag", action="append", default=[],
                    help="extra compiler flag (repeatable)")
    ap.add_argument("headers", nargs="*",
                    help="headers to check, relative to the include dir "
                         "(default: every *.h under it)")
    args = ap.parse_args(argv)

    include_dir = Path(args.root) / args.include_dir
    if not include_dir.is_dir():
        print(f"check-headers: no such include dir: {include_dir}",
              file=sys.stderr)
        return 2

    headers = args.headers or sorted(
        p.relative_to(include_dir).as_posix()
        for p in include_dir.rglob("*.h"))
    if not headers:
        print("check-headers: no headers found", file=sys.stderr)
        return 2

    failures: list[tuple[str, str]] = []
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, args.jobs)) as pool:
        for header, diag in pool.map(
                lambda h: compile_header(args.compiler, args.std,
                                         include_dir, h, args.flag),
                headers):
            if diag:
                failures.append((header, diag))

    for header, diag in failures:
        print(f"check-headers: {header} is not self-contained:")
        for line in diag.splitlines():
            print(f"  {line}")
    status = "FAILED" if failures else "ok"
    print(f"check-headers: {len(headers)} header(s), "
          f"{len(failures)} failure(s) — {status}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
