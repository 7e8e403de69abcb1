"""Records the perf ledger's baseline: repeated untraced runs and one
traced run of every workload at the default seed, each run's values, and
each metric's median and quartiles.

Run from the repository root:

    python3 bench/perf/baseline.py                 # writes bench/perf/baseline.json
    python3 bench/perf/baseline.py --runs 5 --out /tmp/b.json

Counts (unit "count") must repeat exactly across runs of one seed; the
script lists any that do not. Exempt are the host-speed sample count and the
counts of `serve`, a closed loop that runs for a fixed time.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "bench/perf/Cargo.toml", "--"]
WORKLOADS = ["suite", "sweep", "replay", "serve", "campaign"]
TIMED = {"host.samples"}


def run(workload, seed, seconds, trace):
    """One benchmark run: its result line and its printed metric lines."""
    proc = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    details = {}
    for line in lines[:-1]:
        name, value, unit = line.split()
        if name not in result["metrics"]:
            details[name] = {"value": float(value), "unit": unit}
    return result, details


def summarize(runs):
    """Per metric: every run's value, the median and the quartiles."""
    out = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": runs[0][name]["unit"], "values": values,
                     "median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--out", default="bench/perf/baseline.json")
    args = parser.parse_args()
    doc = {"seed": args.seed, "seconds": args.seconds, "runs": args.runs,
           "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "system": platform.system()},
           "workloads": {}}
    for workload in WORKLOADS:
        untraced = [run(workload, args.seed, args.seconds, 0) for _ in range(args.runs)]
        traced, traced_printed = run(workload, args.seed, args.seconds, 1)
        printed = [p for _, p in untraced]
        for name, m in printed[0].items():
            values = {p[name]["value"] for p in printed}
            timed = workload == "serve" or name in TIMED
            if m["unit"] == "count" and not timed and len(values) > 1:
                print(f"{workload}: count {name} differs across runs: {sorted(values)}")
        doc["workloads"][workload] = {
            "end_to_end": summarize([r["metrics"] for r, _ in untraced]),
            "details": summarize(printed),
            "per_layer": traced["metrics"],
            "traced_details": traced_printed,
        }
        print(f"{workload}: done")
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
