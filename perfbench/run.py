#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload <head|tail|live|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of the repository. Builds the `perfbench` package
(release, offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), then
runs one workload, or all three in turn with `--workload all`. The last
line of standard output of each run is its JSON result. Build output goes
to standard error; a failed build exits non-zero without a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("head", "tail", "live")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def host_fingerprint():
    """CPU model and logical CPU count."""
    model = "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}; nproc {os.cpu_count()}"


def source_id():
    """The git commit when the tree is a git checkout, else a digest of
    the sources the benchmark builds from."""
    def git(*args):
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False
        )
        return out.stdout.strip() if out.returncode == 0 else ""

    try:
        if git("rev-parse", "--show-toplevel") == str(ROOT):
            return "git:" + git("rev-parse", "HEAD")
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", HERE):
        files.extend(
            p for p in top.rglob("*")
            if p.is_file() and "target" not in p.parts and p.suffix in (".rs", ".toml", ".lock", ".py")
        )
    for p in sorted(files):
        if p.is_file():
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"perfbench: build failed with exit code {done.returncode}", file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not build(env):
        return 1
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"
    if not binary.is_absolute():
        binary = Path.cwd() / binary

    host, commit = host_fingerprint(), source_id()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [
            str(binary),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--host", host,
            "--commit", commit,
        ]
        sys.stdout.flush()
        try:
            done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {workload} run failed: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: {workload} run exited with {done.returncode}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
