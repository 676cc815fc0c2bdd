#!/usr/bin/env python3
"""gpuperf benchmark: one command, three workloads, traced per-layer run.

    python3 perfbench/run.py --workload serve-hot|nas-search|dse-sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (Release) against the
library sources in src/ into .bench_build/, takes the start-up samples
in fresh processes, runs the workload, checks its outputs, and prints a
human report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end set, with --trace 1 its
per_layer set.  Provenance, traffic properties and span files go to
.bench_build/results/ and .bench_build/trace/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("serve-hot", "nas-search", "dse-sweep")
# Start-up is ~50 ms, so one sample is noisy; the median of many fresh
# processes is what set-up time is judged on.
SETUP_SAMPLES = 21
RUN_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def invoke(args, timeout):
    """Run the benchmark binary; its last stdout line is a JSON record."""
    proc = subprocess.run(args, capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, args[:2]))} exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    """sha256 over the library sources: identifies the code measured when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()

    # Start-up samples, each in a fresh process.
    setup_args = [str(binary), "setup", "--workload", args.workload]
    if args.trace:
        setup_args.append("--spans")
    samples = [invoke(setup_args, 60) for _ in range(SETUP_SAMPLES)]

    tag = f"{args.workload}-seed{args.seed}"
    trace_dir = ROOT / ".bench_build" / "trace" / tag
    trace_dir.mkdir(parents=True, exist_ok=True)
    run_args = [str(binary), "trace" if args.trace else "run",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--digests", str(HERE / "nas_digests.txt")]
    if args.trace:
        run_args += ["--trace-dir", str(trace_dir)]
    run = invoke(run_args, RUN_TIMEOUT_S)

    measured = dict(run["metrics"])
    for name in samples[0]["metrics"]:
        measured[name] = statistics.median(s["metrics"][name] for s in samples)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"perfbench did not report {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    info = dict((k, v) for k, v in run["info"] if k != "failure")
    failures = [v for k, v in run["info"] if k == "failure"]
    failures += [v for s in samples for k, v in s["info"] if k == "failure"]
    result = {
        "correct": run["correct"] and all(s["correct"] for s in samples),
        "attempted": run["attempted"] + sum(s["attempted"] for s in samples),
        "failed": run["failed"] + sum(s["failed"] for s in samples),
        "metrics": metrics,
    }
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": info.pop("build_type"),
        "compiler": info.pop("compiler"),
        "commit": commit(), "source_sha256": source_digest(),
        "setup_samples": len(samples),
    }
    record = {"provenance": provenance, "result": result,
              "setup_s_samples": [s["metrics"]["setup_s"] for s in samples],
              "details": info, "failures": failures}
    results_dir = ROOT / ".bench_build" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for key, value in provenance.items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for key, value in info.items():
        if not key.endswith(".layers") and not key.startswith("block_"):
            print(f"  {key}: {value}")
    for key, value in info.items():
        if key.endswith(".layers"):
            print(f"  {key} (calls, mean us, p50 us, self us/op):")
            for row in value:
                print(f"    {row['layer']:26s} {row['calls']:8d} "
                      f"{row['mean_us']:10.2f} {row['p50_us']:10.2f} "
                      f"{row['self_us_per_op']:10.2f}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
