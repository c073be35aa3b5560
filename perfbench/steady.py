#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Runs the command of BENCHMARK.json several times per workload, one seed
per run, and prints every metric by name and unit with the median and
quartiles of its values. An end-to-end metric whose spread (quartile
distance over median) exceeds its bound is flagged FAIL; one above a
third of its bound is flagged WIDE.

`query_p90_ms` is not in BENCHMARK.json, whose metrics apply to every
workload: only `interactive_mix` completes enough queries a run to leave
ten samples beyond its p90. Untraced runs print it as a note, read here
from the run's report file, and it is checked like an end-to-end metric,
with the bound of `query_p50_ms`, on every workload where each run
supported it.

    python3 perfbench/steady.py                     # 10 runs of every workload
    python3 perfbench/steady.py --runs 1            # one pass: every metric once
    python3 perfbench/steady.py --workloads interactive_mix --runs 5
    python3 perfbench/steady.py --compare perfbench/out/steady-old.json

With --compare, a metric whose median is worse than the earlier
report's median by more than its bound is flagged WORSE. The report is
also written as JSON (default perfbench/out/steady.json). Exit status
is 1 when any run fails or any metric is flagged FAIL or WORSE.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


# Tail percentiles printed as notes: (name, unit, metric whose bound and
# direction they take).
TAILS = [("query_p90_ms", "ms", "query_p50_ms")]


def run_once(spec, workload, seed, seconds, trace):
    """The run's metrics, plus its supported tail notes; None if it failed."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        return None
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    report = next(l.removeprefix("# report: ") for l in lines if l.startswith("# report: "))
    notes = json.loads(pathlib.Path(report).read_text())["notes"]
    for name, unit, _ in TAILS:
        value = notes.get(name, "")
        if value.endswith(" " + unit):
            metrics[name] = float(value.removesuffix(" " + unit))
    return metrics


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", type=pathlib.Path)
    ap.add_argument("--out", type=pathlib.Path, default=ROOT / "perfbench" / "out" / "steady.json")
    args = ap.parse_args()

    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        by_name = {m["name"]: m for m in table}
        table = table + [dict(by_name[like], name=name, unit=unit) for name, unit, like in TAILS]
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report, flags, failed_runs = {}, [], 0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in table}
        for seed in seeds:
            result = run_once(spec, workload, seed, args.seconds, args.trace)
            if result is None:
                failed_runs += 1
                flags.append(f"FAIL {workload} seed {seed}: run failed or a result was wrong")
                continue
            for m in table:
                if m["name"] in result:
                    values[m["name"]].append(result[m["name"]])
        runs = len(values[table[0]["name"]])
        report[workload] = {}
        print(f"== {workload} ({runs} runs, seeds {seeds[0]}..{seeds[-1]})")
        print(f"  {'metric':<32} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in table:
            name, bound = m["name"], m.get("bound")
            if len(values[name]) < runs:
                print(f"  {name:<32} {m['unit']:>6}   unsupported on {runs - len(values[name])} of {runs} runs")
                continue
            if not values[name]:
                continue
            s = summarize(values[name])
            flag = ""
            if bound is not None:
                if s["spread"] > bound:
                    flag = "FAIL"
                elif s["spread"] > bound / 3:
                    flag = "WIDE"
            before = earlier.get(workload, {}).get(name)
            if bound is not None and before:
                m0, m1 = before["median"], s["median"]
                worse = (m1 - m0) / m0 if m["better"] == "lower" else (m0 - m1) / m0
                s["worse_than_compared"] = worse
                if worse > bound:
                    flag = (flag + " WORSE").strip()
            if flag:
                flags.append(f"{flag} {workload} {name}: spread {s['spread']:.4f} bound {bound}")
            report[workload][name] = dict(s, unit=m["unit"], bound=bound, flag=flag)
            print(f"  {name:<32} {m['unit']:>6} {s['median']:>14.4f} {s['q1']:>14.4f} "
                  f"{s['q3']:>14.4f} {s['spread']:>8.4f} {bound if bound is not None else '-':>6} {flag}")
    for f in flags:
        print(f)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    summary = {"runs": args.runs, "seeds": seeds, "seconds": args.seconds, "trace": args.trace,
               "workloads": report, "flags": flags, "claim": None}
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"# report: {args.out}")
    hard = failed_runs or any(f.startswith("FAIL") or "WORSE" in f for f in flags)
    return 1 if hard else 0


if __name__ == "__main__":
    sys.exit(main())
