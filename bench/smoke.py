"""Smoke check of the benchmark itself, kept out of the test suite.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at ``--tiny`` size for one second,
untraced and traced, and fails unless each run exits 0, reports correct
outputs with an error rate of 0, and prints exactly the metric names and
units BENCHMARK.json declares, which must include the names in
``REQUIRED``.  It also checks the traced run's layer counts that the
workloads are built to produce: ``contains_after`` never runs in ``exact``
and runs in ``verify`` and ``greedy``.  Records go to a
temporary directory that is removed afterwards.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the metric names later changes cite; BENCHMARK.json must keep declaring them
REQUIRED = {
    0: ("setup_s", "wall_s", "cpu_s", "op_p90_s", "peak_rss_mb"),
    1: ("containment.contains_after.calls", "containment.contains_after.self_s",
        "containment.contains_after.us_per_call", "containment.contains_after.found_ratio",
        "containment.contains.calls", "containment.contains.self_s",
        "verifier.is_saturated.calls", "verifier.is_saturated.self_s",
        "verifier.nonedges_checked", "verifier.violations",
        "graphs.host_nonedges.self_s", "graphs.with_edge.calls", "graphs.with_edge.self_s",
        "graphs.GraphBuilder.add_edge.calls", "graphs.GraphBuilder.add_edge.self_s",
        "graphs.iso_equivalent.calls", "graphs.iso_equivalent.self_s",
        "search.pattern_edge_masks.self_s", "search.pattern_edge_masks.masks",
        "search.sat_exact.self_s", "search.enumerate_optima.self_s",
        "search.nodes", "search.nodes_per_s", "search.workers",
        "search.sat_greedy.self_s", "search.edges_scanned",
        "serialization.deserialize.self_s", "serialization.bytes_in",
        "serialization.to_json_obj.self_s", "constructions.build.self_s",
        "trace.overhead_s"),
}


def run(workload: str, trace: int, out: Path) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    records = sorted(out.glob(f"{workload}-trace{trace}-*.json"))
    return line, json.loads(records[-1].read_text())


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in config["end_to_end"]},
                1: {m["name"]: m["unit"] for m in config["per_layer"]}}
    problems = [f"BENCHMARK.json does not declare {name}"
                for trace, names in REQUIRED.items() for name in names
                if name not in declared[trace]]
    with tempfile.TemporaryDirectory(dir=ROOT / "bench") as tmp:
        for w in config["workloads"]:
            wl = w["name"]
            for trace in (0, 1):
                line, record = run(wl, trace, Path(tmp))
                got = {name: m["unit"] for name, m in line["metrics"].items()}
                if set(line) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{wl}/{trace}: result keys {sorted(line)}")
                if got != declared[trace]:
                    problems.append(f"{wl}/{trace}: metrics {got} differ from BENCHMARK.json")
                if not line["correct"] or line["failed"] or record["error_rate"] != 0:
                    problems.append(f"{wl}/{trace}: errors {record['errors']}")
                if trace:
                    calls = line["metrics"]["containment.contains_after.calls"]["value"]
                    if (calls == 0) != (wl == "exact"):
                        problems.append(f"{wl}: containment.contains_after.calls = {calls}")
                print(f"{wl} trace={trace}: {len(got)} metrics, "
                      f"{line['attempted']} operations, {line['failed']} failed")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
