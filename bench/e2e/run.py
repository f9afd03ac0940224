#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs it.

    python3 bench/e2e/run.py --workload serve_live --seed 1 --seconds 10 --trace 0

Every argument is handed to `bench_e2e` unchanged (see bench/e2e/README.md).
The build goes to `$CARGO_TARGET_DIR/e2e`, or `.bench_build/e2e` at the
repository root when that variable is unset; build output goes to stderr,
so the benchmark's result stays the last line of stdout. Exits non-zero
without a result when the repository sources are missing or the build
fails.
"""

import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2e")


def source_digest():
    """sha256 over the library and tool sources: identifies the code under
    test when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the repository rooted here; "unknown" outside one (an
    enclosing repository's HEAD would name the wrong code)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: repository sources not found next to bench/e2e")
    os.makedirs(out_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("run.py: cmake configure failed")
        cmd = ["cmake", "--build", out_dir, "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed")


def main():
    out_dir = build_dir()
    build(out_dir)
    binary = os.path.join(out_dir, "bench_e2e")
    args = [binary, "--commit=" + git_commit(),
            "--source-digest=" + source_digest(),
            "--results-dir=" + os.path.join(os.path.dirname(out_dir),
                                            "e2e-results")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()
