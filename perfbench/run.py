#!/usr/bin/env python3
"""Builds the serving-stack benchmark from source and runs one workload.

    python3 perfbench/run.py --workload kv_write --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root) as a CMake Release build of perfbench/ against the
library sources in src/. Build output goes to stderr; the benchmark's report
goes to stdout, ending with one JSON line. The exit code is the benchmark's:
non-zero when the build fails or any correctness check fails.
"""
import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out: Path) -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    env = dict(os.environ, TMPDIR=str(out / "tmp"))  # keep compiler scratch in the build tree
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def tree_hash() -> str:
    """Hash of the sources the benchmark builds (the checkout may not be a git repository)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in {".cpp", ".hpp", ".txt", ".py"}:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def fingerprint(out: Path) -> str:
    compiler = "unknown"
    for info in out.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        text = info.read_text()
        ident = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        version = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if ident and version:
            compiler = f"{ident.group(1)}-{version.group(1)}"
    build_type = "unknown"
    cache = out / "CMakeCache.txt"
    if cache.exists():
        match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
        if match:
            build_type = match.group(1)
    return (f"nproc={os.cpu_count()} compiler={compiler} build={build_type} "
            f"git={git_sha()} tree={tree_hash()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [str(out / "perfbench"), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace, "--host", fingerprint(out)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
