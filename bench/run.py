"""Run one benchmark workload of trisat and print its metrics.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports trisat from its
``src/``.  One process, closed loop, one operation at a time: the
workload's fixed batch of operations is repeated until ``--seconds`` would
be exceeded.  Every output is checked after its batch, outside the timed
region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
(environment, per-operation medians, error rate) is written under
``--out``.  The exit code is 0 only when every output was correct.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` half the time runs untraced batches, then one batch runs
with a span around every call into trisat's modules, and the metrics are
the per-layer ones; ``trace.overhead_s`` is the traced batch's wall time
minus the untraced one.  ``--tiny`` shrinks every input, for the smoke
check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import trisat; "
                "print(time.perf_counter() - t)")


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _import_s() -> float:
    """Median time to import trisat in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _environment(workers: int) -> dict:
    # imported only after peak_rss_mb is read: hashlib loads OpenSSL (~3 MB)
    import hashlib

    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
        except OSError:
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "trisat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "search_workers": workers,
        "trisat_threads_env": os.environ.get("TRISAT_THREADS"),
        "machine": platform.machine(),
    }


class Run:
    """Timings and failures of every batch run so far."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.walls: list[list[float]] = [[] for _ in ops]
        self.cpus: list[list[float]] = [[] for _ in ops]
        self.batch_walls: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []
        self._first: list = [None] * len(ops)

    def batch(self, tracer=None) -> tuple[list, float]:
        """Run every operation once; return the outputs and the batch wall time."""
        outs = []
        t_batch = time.perf_counter()
        for k, op in enumerate(self.ops):
            if tracer is not None:
                tracer.current_op = k
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation counts as failed
                out = exc
            t1, c1 = time.perf_counter(), _cpu_s()
            outs.append(out)
            self.walls[k].append(t1 - t0)
            self.cpus[k].append(c1 - c0)
        wall = time.perf_counter() - t_batch
        self.batch_walls.append(wall)
        return outs, wall

    def check(self, outs: list) -> None:
        for k, (op, out) in enumerate(zip(self.ops, outs)):
            self.attempted += 1
            self._check(k, op, out)

    def _check(self, k: int, op, out) -> None:
        from workloads import CheckError

        if isinstance(out, Exception):
            self.errors.append(f"{op.label}: raised {type(out).__name__}: {out}")
            return
        try:
            op.check(out)
            # identical inputs must give identical outputs in every batch
            if self._first[k] is None:
                self._first[k] = out[1]
            elif out[1] != self._first[k]:
                raise CheckError(f"{op.label}: output differs from the first batch")
        except CheckError as exc:
            self.errors.append(str(exc))

    def run_for(self, seconds: float) -> None:
        """Repeat the batch while the next one is expected to end in time."""
        start = time.perf_counter()
        while True:
            self.check(self.batch()[0])
            expected = statistics.median(self.batch_walls)
            if time.perf_counter() - start + expected > seconds:
                return

    def end_to_end(self) -> dict[str, float]:
        pooled = sorted(w for ws in self.walls for w in ws)
        return {
            "wall_s": sum(statistics.median(ws) for ws in self.walls),
            "cpu_s": sum(statistics.median(cs) for cs in self.cpus),
            "op_p50_s": statistics.median(pooled),
            "op_p90_s": statistics.quantiles(pooled, n=10, method="inclusive")[8],
            "peak_rss_mb": _peak_rss_mb(),
        }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every input (smoke check)")
    ap.add_argument("--out", type=Path, default=ROOT / "bench" / "results",
                    help="directory for the run record and spans")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "trisat" / "__init__.py").is_file():
        print(f"error: no trisat sources under {SRC}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in config["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    sys.path.insert(0, str(SRC))
    import_s = _import_s()
    import tracing
    import workloads
    from trisat import search

    make_ops = workloads.WORKLOADS[args.workload]
    gen = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = make_ops(args.seed, args.tiny)
        gen.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(gen)
    workers = search.resolve_workers()

    run = Run(ops)
    extra: dict = {}
    if args.trace:
        # one more, traced, set-up feeds constructions.build.self_s
        setup_tracer, batch_tracer = tracing.Tracer(), tracing.Tracer()
        with setup_tracer.installed():
            run = Run(make_ops(args.seed, args.tiny))
        run.run_for(args.seconds / 2)
        untraced = sum(statistics.median(ws) for ws in run.walls)
        with batch_tracer.installed():
            outs, traced = run.batch(batch_tracer)
        run.check(outs)
        declared = config["per_layer"]
        values = tracing.layer_metrics([m["name"] for m in declared], batch_tracer,
                                       setup_tracer, workers, traced - untraced)
        extra = {"traced_wall_s": traced, "untraced_wall_s": untraced}
    else:
        run.run_for(args.seconds)
        values = run.end_to_end()
        values["setup_s"] = setup_s
        declared = config["end_to_end"]

    failed = len(run.errors)
    metrics = {m["name"]: {"value": values.pop(m["name"]), "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny,
        "env": _environment(workers),
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "error_rate": failed / run.attempted, "errors": run.errors[:20],
        "batches": len(run.batch_walls), "op_samples": sum(len(w) for w in run.walls),
        "setup": {"setup_s": setup_s, "import_s": import_s, "generate_s": gen},
        "ops": {op.label: {"wall_s": statistics.median(w), "cpu_s": statistics.median(c),
                           "samples": len(w)}
                for op, w, c in zip(run.ops, run.walls, run.cpus)},
        "metrics": metrics, "undeclared_metrics": values, **extra,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}"
    if args.trace:
        span_file = args.out / f"{stem}.spans.jsonl.gz"
        setup_tracer.write(span_file, "setup")
        batch_tracer.write(span_file, "batch", mode="at")
        record["span_file"] = span_file.name
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} s (not in BENCHMARK.json, no bound)")
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} "
          f"({failed} of {run.attempted} operations)")
    print(f"{args.workload} batches = {record['batches']}, op samples = {record['op_samples']}, "
          f"workers = {workers}, nproc = {record['env']['nproc']}, seed = {args.seed}")
    for err in run.errors[:5]:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
