#!/usr/bin/env python3
"""Build and run the protea performance benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds the benchmark package
(perfbench/Cargo.toml) in release mode from the checkout's own sources into
$CARGO_TARGET_DIR (default: .bench_build), then runs it with the given
arguments plus a revision stamp. Build output goes to stderr; stdout carries
only the benchmark's lines, the last of which is the result object.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# What decides the measured code, hashed into the stamp when the checkout
# is not a git repository.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")
RUN_TIMEOUT_S = 175


def revision():
    """The git commit of the checkout, else a digest of its sources."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file() and "target" not in p.parts
        )
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def main():
    if not (ROOT / "crates").is_dir():
        sys.exit("perfbench: no crates/ beside perfbench/; run from a full source checkout")
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")
    exe = target / "release" / "protea-perfbench"
    try:
        bench = subprocess.run(
            [str(exe), *sys.argv[1:], "--rev", revision()], env=env, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
