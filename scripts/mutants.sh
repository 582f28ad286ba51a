#!/usr/bin/env sh
# Standing mutation gate: every row of tests/mutants/rows.txt must be
# killed by the test suite, and by the tests the row names.
#
# Usage: scripts/mutants.sh [build-dir] [--only SUBSTRING]
#
# The working tree (tracked and untracked, not ignored) is copied to
# <build-dir>/mutants/tree and built in <build-dir>/mutants/build, so
# the source tree is never edited and `git status` stays clean.  Each
# row is applied to the copy on its own: the build is rebuilt
# incrementally, the full ctest suite runs, then each named killer
# runs alone, and the file is put back.  The gate fails when a row's
# text is missing or not unique, when a mutant does not compile, when
# ctest passes (the mutant survives), or when a named killer passes.
# --only runs the rows whose name contains SUBSTRING.  MUTANT_JOBS
# sets the build and ctest parallelism (default: up to 4).
set -eu

cd "$(dirname "$0")/.."
BUILD=build
ONLY=""
while [ $# -gt 0 ]; do
    case "$1" in
    --only) ONLY="$2"; shift ;;
    *) BUILD="$1" ;;
    esac
    shift
done

exec python3 - "$BUILD" "$ONLY" <<'PY'
import os
import re
import shutil
import subprocess
import sys
import time

build, only = sys.argv[1], sys.argv[2]
root = os.getcwd()
work = os.path.join(root, build, "mutants")
tree = os.path.join(work, "tree")
bdir = os.path.join(work, "build")
jobs = os.environ.get("MUTANT_JOBS") or str(min(4, os.cpu_count() or 1))
start = time.time()


def run(cmd, cwd=None, timeout=None):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout)


def die(msg):
    print(f"mutants: {msg}", file=sys.stderr)
    sys.exit(1)


def unescape(value):
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n"
                  else m.group(1), value)


def parse_rows(path):
    rows, row = [], None
    for lineno, line in enumerate(open(path), 1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            row = {"name": line[1:-1], "line": lineno}
            rows.append(row)
            continue
        key, sep, value = line.partition(": ")
        if row is None or not sep or key not in (
                "file", "find", "replace", "killer"):
            die(f"{path}:{lineno}: expected `[name]` or `key: value`")
        row[key] = value if key in ("file", "killer") else unescape(value)
    for r in rows:
        for key in ("file", "find", "replace", "killer"):
            if key not in r:
                die(f"{path}:{r['line']}: row '{r['name']}' has no {key}")
        r["killer"] = r["killer"].split()
    return rows


# 1. Copy the working tree, touching only files whose bytes changed,
#    so the copy's build stays incremental across runs.
files = run(["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"]).stdout.split("\0")
for rel in filter(None, files):
    src = os.path.join(root, rel)
    if not os.path.isfile(src):
        continue
    dst = os.path.join(tree, rel)
    with open(src, "rb") as f:
        data = f.read()
    if os.path.isfile(dst):
        with open(dst, "rb") as f:
            if f.read() == data:
                continue
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    with open(dst, "wb") as f:
        f.write(data)

rows = parse_rows(os.path.join(tree, "tests", "mutants", "rows.txt"))
if only:
    rows = [r for r in rows if only in r["name"]]
    if not rows:
        die(f"no row name contains '{only}'")

# 2. Build the unmutated copy; it must pass before any mutant counts.
if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
    done = run(["cmake", "-S", tree, "-B", bdir,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    if done.returncode != 0:
        die("configure failed:\n" + done.stdout[-3000:])


def build_copy():
    return run(["cmake", "--build", bdir, "-j", jobs])


done = build_copy()
if done.returncode != 0:
    die("the unmutated copy does not build:\n" + done.stdout[-3000:])
done = run(["ctest", "-j", jobs, "--timeout", "300"], cwd=bdir)
if done.returncode != 0:
    die("the unmutated copy fails ctest:\n" + done.stdout[-3000:])

# 3. Which binary holds each gtest case; anything else is a ctest name.
cases = {}
tests_dir = os.path.join(bdir, "tests")
for exe in sorted(os.listdir(tests_dir)):
    path = os.path.join(tests_dir, exe)
    if not (exe.startswith("test_") and os.access(path, os.X_OK)
            and os.path.isfile(path)):
        continue
    suite = None
    for line in run([path, "--gtest_list_tests"]).stdout.splitlines():
        if not line.startswith(" "):
            suite = line.strip().rstrip(".").split("/")[-1]
        elif suite:
            case = line.split()[0].split("/")[0]
            cases[f"{suite}.{case}"] = path
ctest_names = set(run(["ctest", "-N"], cwd=bdir).stdout.split())


def killer_fails(name):
    if name in cases:
        s, c = name.split(".")
        flt = f"{s}.{c}:*/{s}.{c}:{s}.{c}/*:*/{s}.{c}/*"
        done = run([cases[name], f"--gtest_filter={flt}"], cwd=bdir,
                   timeout=600)
        return done.returncode != 0
    done = run(["ctest", "-R", f"^{re.escape(name)}$"], cwd=bdir,
               timeout=600)
    return done.returncode != 0


for r in rows:
    for k in r["killer"]:
        if k not in cases and k not in ctest_names:
            die(f"row '{r['name']}': no test named {k}")

# 4. One mutant at a time.
failures = []
for r in rows:
    path = os.path.join(tree, r["file"])
    if not os.path.isfile(path):
        failures.append(f"{r['name']}: no file {r['file']}")
        print(f"FAIL    {r['name']}: no file {r['file']}")
        continue
    with open(path) as f:
        original = f.read()
    count = original.count(r["find"])
    if count != 1:
        what = "missing" if count == 0 else f"found {count} times"
        failures.append(f"{r['name']}: text {what} in {r['file']}")
        print(f"FAIL    {r['name']}: text {what} in {r['file']}")
        continue
    t0 = time.time()
    try:
        with open(path, "w") as f:
            f.write(original.replace(r["find"], r["replace"]))
        done = build_copy()
        if done.returncode != 0:
            verdict = "does not compile"
        else:
            suite = run(["ctest", "-j", jobs, "--timeout", "300"],
                        cwd=bdir)
            failed = re.search(r"(\d+) tests failed", suite.stdout)
            if suite.returncode == 0:
                verdict = "survived ctest"
            else:
                alive = [k for k in r["killer"] if not killer_fails(k)]
                verdict = ("named killer passes: " + " ".join(alive)
                           if alive else None)
    finally:
        with open(path, "w") as f:
            f.write(original)
    secs = time.time() - t0
    if verdict:
        failures.append(f"{r['name']}: {verdict}")
        print(f"FAIL    {r['name']}: {verdict} ({secs:.0f} s)")
    else:
        n = failed.group(1) if failed else "some"
        print(f"killed  {r['name']} ({n} ctest tests failed; "
              f"{' '.join(r['killer'])}) ({secs:.0f} s)", flush=True)

print(f"mutants: {len(rows) - len(failures)} of {len(rows)} killed "
      f"in {time.time() - start:.0f} s")
if failures:
    print("mutants: the gate fails:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
PY
