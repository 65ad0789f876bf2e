#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload scan-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), stores to a per-process directory beside
it that is removed afterwards, and traced runs leave their span dump in
.bench_build/perfbench-out. The last line of standard output is the
result JSON; the exit code is non-zero when the build, the set-up or any
result check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan-hot", "lookup-cold", "mixed-rw")
TARGETS = ("perfbench_e2e", "perfbench_selftest")
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_root() -> Path:
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root if root.is_absolute() else ROOT / root


def build(build_dir: Path) -> bool:
    """Configures once, then builds the benchmark targets; the log goes to
    build_dir/build.log so standard output stays the benchmark's."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", *TARGETS])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return True
    tail = log_path.read_text(errors="replace").splitlines()[-30:]
    print("perfbench: build failed; see " + str(log_path), file=sys.stderr)
    print("\n".join(tail), file=sys.stderr)
    return False


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own code and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: library sources not found under " + str(ROOT),
              file=sys.stderr)
        return 2
    root = build_root()
    build_dir = root / "perfbench"
    if not build(build_dir):
        return 2

    work_dir = root / "perfbench-work" / str(os.getpid())
    if args.selftest:
        command = [str(build_dir / "perfbench_selftest"),
                   "--work-dir", str(work_dir)]
    else:
        out_dir = root / "perfbench-out"
        out_dir.mkdir(parents=True, exist_ok=True)
        command = [str(build_dir / "perfbench_e2e"),
                   "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace),
                   "--work-dir", str(work_dir),
                   "--out-dir", str(out_dir),
                   "--git-sha", git_sha()]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
