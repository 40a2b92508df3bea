#!/usr/bin/env python3
"""List the bba:: library functions that no tool, bench or example links.

The tree is built in Release with -ffunction-sections -fdata-sections and
-Wl,--gc-sections, so every linked binary keeps only the function sections
something reaches. A function that a src/ library defines out of line
(nm type T or t) but that appears in none of the tool, bench and example
binaries is unlinked. Tests do not count as users: code only a test calls
is exactly what this finds. Only executables of targets the build tree
currently defines are audited: a stale binary that a deleted target left
in a reused tree is reported and skipped.

Not every unlinked function is dead. Each one must be listed in the
allowlist (tools/dead_code_allowlist.txt) under one of three reasons:

  inlined  only inlined into callers in its own file, so the out-of-line
           copy is never reached
  test     a test's independent reference (say, for a faster path)
  api      public API kept on purpose (a round trip, an e2ebench call)

An unlisted unlinked function fails the check. Allowlist entries that are
now linked, or gone, are reported as stale but do not fail it: inlining
varies with the compiler.

Usage:
    tools/dead_code.py [--build-dir DIR] [--no-build] [--allowlist FILE]

Exit status: 0 when every unlinked function is allowlisted, 1 otherwise.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REASONS = ("inlined", "test", "api")
BINARY_DIRS = ("tools", "bench", "examples")
# GCC's partial copies of a function (.cold, .isra.0, .constprop.0, ...)
# count as the function itself.
CLONE = re.compile(r" \[clone [^]]*\]$")


def build(build_dir, jobs):
    cmd = ["cmake", "-B", build_dir, "-S", REPO,
           "-DCMAKE_BUILD_TYPE=Release",
           "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
           "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    build_cmd = ["cmake", "--build", build_dir]
    if jobs:
        build_cmd += ["-j", str(jobs)]
    subprocess.run(build_cmd, check=True, stdout=subprocess.DEVNULL)


def functions(path, types):
    """Demangled bba:: function names defined in `path` with an nm type in
    `types`."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in types and \
                parts[2].startswith("bba::"):
            names.add(CLONE.sub("", parts[2]))
    return names


def libraries(build_dir):
    src = os.path.join(build_dir, "src")
    for root, _, files in os.walk(src):
        for f in sorted(files):
            if f.startswith("libbba_") and f.endswith(".a"):
                yield os.path.join(root, f)


def targets(build_dir):
    """Names of the targets the build tree's generator defines, as its
    `help` target lists them: "... name" (Makefiles) or "name: rule"
    (Ninja)."""
    out = subprocess.run(["cmake", "--build", build_dir, "--target", "help"],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("... "):
            names.add(line[4:].split(" ")[0])
        elif ": " in line:
            names.add(line.split(": ", 1)[0])
    return names


def binaries(build_dir):
    """(current, stale): the executables in the tool, bench and example
    directories, split by whether a target of the build still makes them."""
    defined = targets(build_dir)
    current, stale = [], []
    for sub in BINARY_DIRS:
        d = os.path.join(build_dir, sub)
        for f in sorted(os.listdir(d)):
            path = os.path.join(d, f)
            if os.path.isfile(path) and os.access(path, os.X_OK):
                (current if f in defined else stale).append(path)
    return current, stale


def read_allowlist(path):
    """{symbol: reason}; exits 1 on a malformed line."""
    allowed = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            reason, _, symbol = line.partition(" ")
            symbol = symbol.strip()
            if reason not in REASONS or not symbol:
                sys.exit(f"{path}:{n}: expected '<{'|'.join(REASONS)}> "
                         f"<symbol>', got: {line}")
            allowed[symbol] = reason
    return allowed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO,
                                                        "build-deadcode"))
    ap.add_argument("--no-build", action="store_true",
                    help="audit an existing --build-dir as it is")
    ap.add_argument("--allowlist", default=os.path.join(
        REPO, "tools", "dead_code_allowlist.txt"))
    ap.add_argument("-j", "--jobs", type=int, default=0,
                    help="build parallelism (default: the generator's)")
    args = ap.parse_args()

    if not args.no_build:
        build(args.build_dir, args.jobs)

    defined = set()
    for lib in libraries(args.build_dir):
        defined |= functions(lib, {"T", "t"})
    bins, stale_bins = binaries(args.build_dir)
    for b in stale_bins:
        print(f"skipped stale binary (no target builds it): "
              f"{os.path.relpath(b, args.build_dir)}")
    if not defined or not bins:
        sys.exit(f"{args.build_dir}: no libraries or binaries to audit")
    linked = set()
    for b in bins:
        linked |= functions(b, {"T", "t", "W"})

    unlinked = defined - linked
    allowed = read_allowlist(args.allowlist)
    unlisted = sorted(unlinked - allowed.keys())
    stale = sorted(allowed.keys() - unlinked)
    print(f"{len(defined)} out-of-line bba:: library functions, "
          f"{len(unlinked)} linked by none of {len(bins)} binaries, "
          f"{len(unlinked) - len(unlisted)} of them allowlisted")
    for reason in REASONS:
        n = sum(1 for s in unlinked if allowed.get(s) == reason)
        print(f"  {reason}: {n}")
    for s in stale:
        print(f"stale allowlist entry (linked or gone): {s}")
    for s in unlisted:
        print(f"UNLISTED unlinked function: {s}")
    if unlisted:
        print(f"{len(unlisted)} unlinked function(s) not in "
              f"{os.path.relpath(args.allowlist, REPO)}: delete them, or "
              f"list each with its reason ({', '.join(REASONS)})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
