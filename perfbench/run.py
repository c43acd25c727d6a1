#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench (Release) in .bench_build/; later runs only re-check the build. The
run prints the host fingerprint and every metric by name and unit, and as its
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list with --trace 0 and its
per_layer list with --trace 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
SPANS_DIR = BUILD_DIR / "spans"

# Set-up is timed this many times per run (the measured run included); the
# reported setup_s is the median.
SETUP_SAMPLES = 21
# Every run must end within this many seconds, the build excepted.
RUN_DEADLINE_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def spawn(extra, timeout):
    """Runs perfbench; returns (returncode, stdout, stderr)."""
    cmd = [str(BINARY), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    return proc.returncode, out, err


def parse(out):
    setup, metrics, info, tally = None, {}, [], None
    for line in out.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "SETUP":
            setup = float(rest)
        elif kind == "METRIC":
            name, value, unit = rest.split(" ")
            metrics[name] = (float(value), unit)
        elif kind == "INFO":
            info.append(rest)
        elif kind == "TALLY":
            attempted, failed = rest.split(" ")
            tally = (int(attempted), int(failed))
    return setup, metrics, info, tally


def source_digest():
    """SHA-256 over the simulator and benchmark sources, for runs outside git."""
    h = hashlib.sha256()
    files = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*"))
             if p.is_file() and "__pycache__" not in p.parts]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    start = time.monotonic()
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    spans = SPANS_DIR / f"{args.workload}-seed{args.seed}.json"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        code, out, err = spawn([*common, "--seconds", "1", "--trace", "0", "--setup-only"],
                               timeout=30)
        if code != 0:
            fail(f"set-up run exited {code}:\n{err}")
        setups.append(parse(out)[0])

    run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans-out", str(spans)]
    code, out, err = spawn(run_args, timeout=RUN_DEADLINE_S - (time.monotonic() - start))
    sys.stderr.write(err)
    if code != 0:
        # An abort (a failed CHECK in the simulator) or a crash: the run failed
        # and has no metrics to report.
        fail(f"workload run exited {code}")
    setup, metrics, info, tally = parse(out)
    if setup is None or tally is None:
        fail("workload run printed no SETUP or TALLY line")
    setups.append(setup)
    metrics["setup_s"] = (statistics.median(setups), "s")
    attempted, failed = tally
    metrics["failed_share"] = (failed / attempted if attempted else 1.0, "share")

    print(f"# perfbench {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# host: nproc {os.cpu_count()}, commit {git_commit()}, "
          f"source sha256 {source_digest()}")
    for line in info:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        print(f"# spans written to {spans.relative_to(ROOT)}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {}
    for m in wanted:
        if m["name"] not in metrics:
            fail(f"metric {m['name']} missing from the workload's output")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            fail(f"metric {m['name']} has unit {unit}, BENCHMARK.json says {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))


if __name__ == "__main__":
    main()
