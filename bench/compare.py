"""Compare two result sets of bench/run.py, workload by workload and metric by metric.

    python3 bench/compare.py RESULTS_A RESULTS_B

Each argument is a directory of run records (``*.json``, searched
recursively), as ``bench/run.py --out DIR`` writes them.  A is the base
(the parent commit), B the change.  For every workload and end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles, the
number of pairs B won, and a verdict:

* ``improved``: B won at least nine tenths of the pairs and the medians
  differ by more than A's own quartile spread;
* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and not every run of B beats every run of A;
* ``same``: none of the above.

Runs pair up by seed when both sides ran the same seeds, otherwise in the
order of their seeds.  Traced runs (``--trace 1``) are listed with the
medians of their per-layer metrics, without a verdict.  Records whose
environment differs between the sides (worker count, core count, Python or
numpy version) are flagged, because node counts and times under the
process pool depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from operator import itemgetter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("search_workers", "nproc", "python", "numpy")


def load(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.rglob("*.json")):
        rec = json.loads(path.read_text())
        if isinstance(rec, dict) and "workload" in rec and "metrics" in rec:
            records.append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a: list[dict], b: list[dict]) -> list[tuple[dict, dict]]:
    by_seed_a = {r["seed"]: r for r in a}
    by_seed_b = {r["seed"]: r for r in b}
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if len(common) == min(len(a), len(b)):
        return [(by_seed_a[s], by_seed_b[s]) for s in common]
    by_seed = itemgetter("seed")
    return list(zip(sorted(a, key=by_seed), sorted(b, key=by_seed)))


def verdict(va: list[float], vb: list[float], won: int, n_pairs: int,
            lower: bool, bound: float) -> str:
    q1a, meda, q3a = quartiles(va)
    q1b, medb, q3b = quartiles(vb)
    sign = 1.0 if lower else -1.0
    worse_by = sign * (medb - meda) / meda if meda else 0.0
    all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
    if n_pairs and won >= 0.9 * n_pairs and abs(medb - meda) > q3a - q1a:
        return "improved"
    spread_a = (q3a - q1a) / meda if meda else 0.0
    spread_b = (q3b - q1b) / medb if medb else 0.0
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "same"


def env_differences(a: list[dict], b: list[dict]) -> list[str]:
    out = []
    for key in ENV_KEYS:
        va = sorted({str(r["env"].get(key)) for r in a})
        vb = sorted({str(r["env"].get(key)) for r in b})
        if va != vb or len(va) > 1:
            out.append(f"{key}: A {', '.join(va)} / B {', '.join(vb)}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="base result directory")
    ap.add_argument("b", type=Path, help="changed result directory")
    args = ap.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    recs_a, recs_b = load(args.a), load(args.b)
    if not recs_a or not recs_b:
        print("error: a result directory holds no run records", file=sys.stderr)
        return 2

    status = 0
    for wl in [w["name"] for w in config["workloads"]]:
        a = [r for r in recs_a if r["workload"] == wl and r["trace"] == 0]
        b = [r for r in recs_b if r["workload"] == wl and r["trace"] == 0]
        if not a or not b:
            continue
        print(f"== {wl}: {len(a)} runs in A, {len(b)} in B")
        for diff in env_differences(a, b):
            print(f"   WARNING environment differs, {diff}")
        failed = sum(r["failed"] for r in b) - sum(r["failed"] for r in a)
        if failed > 0:
            print(f"   WARNING B has {failed} more failed operations than A")
            status = 1
        matched = pairs(a, b)
        print(f"   {'metric':<14} {'A q1 / median / q3':>32} {'B q1 / median / q3':>32}"
              f" {'B won':>8}  verdict")
        for m in config["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            won = sum(1 for ra, rb in matched
                      if (rb["metrics"][name]["value"] < ra["metrics"][name]["value"]) == lower
                      and rb["metrics"][name]["value"] != ra["metrics"][name]["value"])
            v = verdict(va, vb, won, len(matched), lower, m["bound"])
            if v == "worse":
                status = 1
            fa = " / ".join(f"{x:.4g}" for x in quartiles(va))
            fb = " / ".join(f"{x:.4g}" for x in quartiles(vb))
            print(f"   {name:<14} {fa:>32} {fb:>32} {won:>3}/{len(matched):<4}  {v}"
                  f"  (bound {m['bound']:.0%}, {m['unit']})")
        ta = [r for r in recs_a if r["workload"] == wl and r["trace"] == 1]
        tb = [r for r in recs_b if r["workload"] == wl and r["trace"] == 1]
        if ta and tb:
            print(f"   per-layer medians, traced runs ({len(ta)} in A, {len(tb)} in B):")
            for m in config["per_layer"]:
                name = m["name"]
                ma = statistics.median(r["metrics"][name]["value"] for r in ta)
                mb = statistics.median(r["metrics"][name]["value"] for r in tb)
                if ma or mb:
                    print(f"     {name:<42} {ma:>12.5g} {mb:>12.5g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
