#!/usr/bin/env python3
"""Build and run the ccr-sim benchmark.

    python3 perfbench/run.py --workload sweep|sweep-ref|compile|serve \
        --seed N --seconds S --trace 0|1 [--tiny] [--max-insts N]

Run from the root of a checkout. The first run configures and builds
the simulator libraries and the benchmark program ccr_perfbench
(perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, default .bench_build; later runs only re-check the
build. Build output goes to stderr. The program's stdout is passed
through, so the last line is the JSON result object.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    # The compiler's temporary files stay inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", str(build_dir), "--target", "ccr_perfbench",
            "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return build_dir / "ccr_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "sweep-ref", "compile", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (smoke test)")
    parser.add_argument("--max-insts", type=int, default=0,
                        help="per-run instruction budget (0: default)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    corpus = ROOT / "corpus"
    if not corpus.is_dir():
        fail(f"workload corpus not found at {corpus}")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.max_insts:
        cmd += ["--max-insts", str(args.max_insts)]
    if args.trace:
        cmd += ["--trace-out",
                str(build_dir / f"trace-{args.workload}-{args.seed}.json")]

    env = dict(os.environ, CCR_CORPUS_DIR=str(corpus))
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
