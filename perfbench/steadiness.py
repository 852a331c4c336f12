"""Steadiness report: run each workload N times and show the spread.

    python3 perfbench/steadiness.py --runs 10 --seconds 30
    python3 perfbench/steadiness.py --runs 5 --workloads federated --seed0 11
    python3 perfbench/steadiness.py --compare .perfbench/steady-a.json \\
        .perfbench/steady-b.json

Each run is an untraced run (``--trace 0``) with the next seed. Per metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, and flags an end-to-end metric whose spread exceeds
its bound in BENCHMARK.json (``!!``) or a third of it (``!``). Raw results
go to ``--out``. ``--compare A B`` checks that the medians of set B are
not worse than those of set A by more than each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["exit"] = done.returncode
    result["wall_s"] = time.monotonic() - start
    if done.returncode:
        sys.stderr.write(done.stderr)
    return result


def summarize(results: list[dict]) -> dict[str, dict[str, float]]:
    measured = [r for r in results if r["metrics"]]
    out = {}
    for name, metric in (measured[0]["metrics"] if measured else {}).items():
        values = [r["metrics"][name]["value"] for r in measured]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "unit": metric["unit"],
        }
    return out


def report(workload: str, results: list[dict], bounds: dict[str, float]) -> bool:
    ok = all(r["correct"] and r["exit"] == 0 for r in results)
    walls = [r["wall_s"] for r in results]
    print(f"\n{workload}: {len(results)} runs, all correct: {ok}, "
          f"run wall {min(walls):.1f}-{max(walls):.1f} s")
    print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound")
    for name, row in summarize(results).items():
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "!!" if row["spread"] > bound else "!" if row["spread"] > bound / 3 else ""
        print(f"  {name:<36} {row['median']:>12.6g} {row['q1']:>12.6g} "
              f"{row['q3']:>12.6g} {row['spread']:>8.4f}  "
              f"{'' if bound is None else bound} {flag}")
    return ok


def compare(first: dict, second: dict, metrics: list[dict]) -> bool:
    ok = True
    for workload in first:
        a, b = summarize(first[workload]), summarize(second[workload])
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            ma, mb = a[name]["median"], b[name]["median"]
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            status = "FAIL" if worse > bound else "ok"
            ok &= status == "ok"
            print(f"{workload:<10} {name:<18} {ma:>12.6g} {mb:>12.6g} "
                  f"worse by {worse:+.4f} (bound {bound}) {status}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    bench = spec()
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second, bench["end_to_end"]) else 1
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: dict[str, list[dict]] = {}
    ok = True
    for workload in workloads:
        results[workload] = [
            run_once(workload, args.seed0 + i, seconds)
            for i in range(args.runs)
        ]
        ok &= report(workload, results[workload], bounds)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
