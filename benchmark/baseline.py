#!/usr/bin/env python3
"""Record the benchmark baseline in benchmark/BASELINE.json.

Runs every workload of BENCHMARK.json untraced on ten seeds, twice (two
sets, one after the other, all workloads per set), then untraced on one
fixed seed several times (host noise), then traced on one seed, through
the command BENCHMARK.json names. It records per metric and set the median,
the quartiles (Python's statistics.quantiles(values, n=4)) and the spread
(interquartile range over the median), how far the second set's median of
each gated metric moved from the first's against its bound, the traced
layer split, and the host. Run it from the repository root:

    python3 benchmark/baseline.py [--seeds 1,2,...] [--sets 2]
        [--noise-seed 42] [--noise-runs 5] [--traced-seed 42]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")
FINGERPRINT = re.compile(r"reference fingerprint (\w+)")


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall = time.time() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = {}
    for line in lines[:-1]:
        m = METRIC_LINE.match(line)
        if m and m.group(2) != "n/a":
            report[m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3)}
    notes = [line[2:] for line in lines if line.startswith("# ")]
    return {"seed": seed, "wall_s": round(wall, 1), "result": result,
            "report": report, "notes": notes}


def fingerprint(notes):
    for note in notes:
        m = FINGERPRINT.search(note)
        if m:
            return m.group(1)
    return None


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def shell(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def summarize_runs(runs, gated):
    metrics = {}
    for metric in sorted({k for r in runs for k in r["report"]}):
        values = [r["report"][metric]["value"] for r in runs
                  if metric in r["report"]]
        entry = summary(values)
        entry["unit"] = next(r["report"][metric]["unit"] for r in runs
                             if metric in r["report"])
        if metric in gated:
            entry["bound"] = gated[metric]["bound"]
        metrics[metric] = entry
    return metrics


def run_list(runs):
    return [{"seed": r["seed"], "wall_s": r["wall_s"],
             "fingerprint": fingerprint(r["notes"]),
             "correct": r["result"]["correct"],
             "attempted": r["result"]["attempted"],
             "failed": r["result"]["failed"]} for r in runs]


def agreement(first, second, gated):
    """How far each gated median of the second set moved from the first's,
    signed so that positive is worse, against the metric's bound."""
    out = {}
    for name, spec in gated.items():
        a, b = first[name]["median"], second[name]["median"]
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        out[name] = {"first_median": a, "second_median": b,
                     "worse_by": worse, "bound": spec["bound"],
                     "within_bound": worse <= spec["bound"],
                     "spreads": [first[name]["spread"], second[name]["spread"]]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--noise-seed", type=int, default=42)
    parser.add_argument("--noise-runs", type=int, default=5)
    parser.add_argument("--traced-seed", type=int, default=42)
    parser.add_argument("--out", default="benchmark/BASELINE.json")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")]
    gated = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    def runs_of(name, seed_list, trace, label):
        runs = []
        for seed in seed_list:
            r = run(spec["command"], name, seed, spec["run_seconds"], trace)
            runs.append(r)
            print(f"{label} {name} seed {seed}: {r['wall_s']} s, correct "
                  f"{r['result']['correct']}", file=sys.stderr)
        return runs

    sets = {name: [] for name in names}
    for k in range(args.sets):
        for name in names:
            sets[name].append(runs_of(name, seeds, 0, f"set {k + 1}"))
    noise = {name: runs_of(name, [args.noise_seed] * args.noise_runs, 0,
                           "noise")
             for name in names}

    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        summaries = [summarize_runs(runs, gated) for runs in sets[name]]
        traced = runs_of(name, [args.traced_seed], 1, "traced")[0]
        workloads[name] = {
            "why": w["why"],
            "sets": [{"untraced_runs": run_list(runs), "metrics": summ}
                     for runs, summ in zip(sets[name], summaries)],
            "agreement": (agreement(summaries[0], summaries[1], gated)
                          if len(summaries) > 1 else None),
            "host_noise": {"seed": args.noise_seed,
                           "untraced_runs": run_list(noise[name]),
                           "metrics": {k: v for k, v in
                                       summarize_runs(noise[name],
                                                      gated).items()
                                       if k in gated}},
            "notes_seed": {"seed": sets[name][0][0]["seed"],
                           "notes": sets[name][0][0]["notes"]},
            "traced": {"seed": traced["seed"],
                       "correct": traced["result"]["correct"],
                       "layers": {k: v["value"] for k, v in
                                  traced["result"]["metrics"].items()},
                       "notes": traced["notes"]},
        }

    record = {
        "host": {"nproc": os.cpu_count(), "rustc": shell(["rustc", "-V"]),
                 "git_sha": shell(["git", "rev-parse", "HEAD"]),
                 "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, ensure_ascii=False)
        f.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
