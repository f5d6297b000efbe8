"""Check that the benchmark is steady, the way its bounds are applied.

Run from the root of an arrlcs checkout:

    python3 perfbench/stability.py --seeds 1-10 --sets 2
    python3 perfbench/stability.py --seeds 1-5 --sets 1 --workloads kappa-stream
    python3 perfbench/stability.py --seeds 1 --sets 1 --traced

Each set runs every chosen workload once per seed, untraced.  For each
end-to-end metric the script prints every set's median and its spread (the
distance between the first and third quartile as a share of the median),
and checks the bounds in BENCHMARK.json: every spread except setup_s's
within the bound, and no later set's median worse than the first set's by
more than the bound.  Exact counts (ranks, shapes, entry bit lengths, call
counts) must repeat between runs with the same workload and seed.  With
``--traced`` it also makes one traced run per workload, on the first seed, and prints
the tracing overhead and the share of the traced verdict time spent inside
lcs calls.  All results are written to perfbench/out/stability.json.
Exits with 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    ok = True
    record = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in args.seeds:
                run = bench(workload, seed, spec["run_seconds"], 0)
                if not run["result"]["correct"]:
                    print(f"{workload} seed {seed}: incorrect: {run['report']['problems']}")
                    ok = False
                print(f"{workload} set {k + 1} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in run["result"]["metrics"].items()), flush=True)
                runs.append(run)
            sets.append(runs)
        if len(args.seeds) >= 2:
            ok &= check_bounds(workload, spec["end_to_end"], sets)
        ok &= check_counts(workload, [run for runs in sets for run in runs])
        traced = []
        if args.traced:
            for seed in args.seeds[:1]:
                run = bench(workload, seed, spec["run_seconds"], 1)
                m = run["result"]["metrics"]
                print(f"{workload} traced seed {seed}: verdict p50 {m['trace.verdict_s.p50']['value']:.4f} s, "
                      f"overhead {m['trace.overhead_s']['value']:+.4f} s, lcs share {m['trace.lcs_share']['value']:.3f}")
                traced.append(run)
        record[workload] = {"sets": sets, "traced": traced}
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    (ROOT / "perfbench" / "out" / "stability.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def check_bounds(workload: str, metrics: list[dict], sets: list[list[dict]]) -> bool:
    ok = True
    for m in metrics:
        name, bound = m["name"], m["bound"]
        per_set = [[run["result"]["metrics"][name]["value"] for run in runs] for runs in sets]
        medians = [statistics.median(v) for v in per_set]
        spreads = [spread(v) for v in per_set]
        notes = []
        if name != "setup_s" and max(spreads) > bound:
            notes.append("SPREAD OVER BOUND")
        elif name != "setup_s" and max(spreads) > bound / 3:
            notes.append("spread over a third of the bound")
        for later in medians[1:]:
            change = (later - medians[0]) / medians[0]
            if (change if m["better"] == "lower" else -change) > bound:
                notes.append("MEDIAN WORSE THAN BOUND")
        ok &= not any(n.isupper() for n in notes)
        print(f"{workload:13s} {name:15s} bound {bound:.2f} medians "
              + " ".join(f"{x:.4g}" for x in medians) + " spreads " + " ".join(f"{s:.3f}" for s in spreads)
              + ("  " + "; ".join(notes) if notes else ""))
    return ok


def check_counts(workload: str, runs: list[dict]) -> bool:
    first: dict = {}
    ok = True
    for run in runs:
        counts = run["report"]["counts"]
        seen = first.setdefault(run["seed"], counts)
        if counts != seen:
            diff = sorted(k for k in set(counts) | set(seen) if counts.get(k) != seen.get(k))
            print(f"{workload} seed {run['seed']}: counts differ between runs: {diff}")
            ok = False
    return ok


if __name__ == "__main__":
    sys.exit(main())
