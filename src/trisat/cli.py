"""Command-line surface: construct, verify, sat, formula, table.

Machine-readable results go to standard output (JSON, or graph data for
``construct``); human-facing summaries go to standard error.  Exit codes:
0 success (for ``verify``: saturated), 1 verification refuted, 2 usage or
I/O errors.  On error standard output carries at most one JSON error
object; a standard output closed by its reader ends the run with exit
code 2 and no further output.  Integer flags take plain ASCII decimal
digits only, as the edge-list format does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions
from .formulas import evaluate
from .patterns import PatternSpec
from .search import enumerate_optima, sat_exact, sat_exhaustive, sat_greedy
from .serialization import decimal_ints, deserialize, serialize
from .verifier import is_saturated


class _CliError(Exception):
    """A malformed command-line argument."""


def _parse_triple(text: str, what: str) -> tuple[int, int, int]:
    try:
        vals = tuple(decimal_ints([x.strip() for x in text.split(",")]))
    except ValueError:
        vals = ()
    if len(vals) != 3:
        raise _CliError(f"{what} must be three comma-separated decimal integers, got {text!r}")
    return vals


def _parse_int(text: str | None, flag: str) -> int | None:
    """The value of an integer flag, or None when the flag was not given."""
    if text is None:
        return None
    try:
        return decimal_ints([text.strip()])[0]
    except ValueError:
        raise _CliError(f"{flag} must be a decimal integer, got {text!r}") from None


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise _CliError(f"expected k=v, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key in out:
            raise _CliError(f"parameter {key!r} given twice")
        try:
            out[key] = decimal_ints([val.strip()])[0]
        except ValueError:
            raise _CliError(f"parameter {key!r} must be a decimal integer, got {val!r}") from None
    return out


def _emit_error(msg: str) -> int:
    print(json.dumps({"error": msg}))
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _cmd_construct(args) -> int:
    n1, n2, n3 = _parse_triple(args.n, "--n")
    l, m, p = (_parse_int(args.l, "--l"), _parse_int(args.m, "--m"), _parse_int(args.p, "--p"))
    variant = _parse_int(args.variant, "--variant")
    rec = constructions.formula_for(args.construction, n1, n2, n3, l=l, m=m, p=p,
                                    variant=variant)
    g = constructions.build(args.construction, n1, n2, n3, l=l, m=m, p=p,
                            variant=1 if variant is None else variant, force=args.force)
    data = serialize(g, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    match = str(g.num_edges == rec.value).lower()
    print(f"edges={g.num_edges} formula={rec.value} match={match}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    host = _parse_triple(args.host, "--host")
    pat = PatternSpec(*_parse_triple(args.pattern, "--pattern"))
    with open(args.graph, "rb") as fh:
        g = deserialize(fh.read())
    report = is_saturated(g, host, pat)
    print(json.dumps(report.to_json_obj()))
    return 0 if report.is_saturated else 1


def _cmd_sat(args) -> int:
    host = _parse_triple(args.host, "--host")
    pat = PatternSpec(*_parse_triple(args.pattern, "--pattern"))
    budget = _parse_int(args.budget, "--budget")
    trials, seed = _parse_int(args.trials, "--trials"), _parse_int(args.seed, "--seed")
    for flag, value, method in (("--budget", budget, "exact"), ("--trials", trials, "greedy"),
                                ("--seed", seed, "greedy")):
        if value is not None and args.method != method:
            raise _CliError(f"{flag} applies only to --method {method}, not {args.method}")
    if args.method == "exhaustive":
        result = sat_exhaustive(host, pat)
    elif args.method == "exact":
        if args.enumerate:
            result = enumerate_optima(host, pat, node_budget=budget)
        else:
            result = sat_exact(host, pat, node_budget=budget)
    else:
        result = sat_greedy(host, pat, trials=100 if trials is None else trials,
                            seed=0 if seed is None else seed)
    obj = result.to_json_obj()
    if args.enumerate:
        paths = []
        for k, g in enumerate(result.witnesses):
            path = f"{args.witness_prefix}{k:03d}.edges"
            with open(path, "wb") as fh:
                fh.write(serialize(g, "edges"))
            paths.append(path)
        obj["witness_files"] = paths
    print(json.dumps(obj))
    return 0


def _cmd_formula(args) -> int:
    rec = evaluate(args.name, _parse_params(args.params))
    print(json.dumps(rec.to_json_obj()))
    return 0


def _cmd_table(args) -> int:
    from .experiments import run_table
    try:
        with open(args.spec, "r", encoding="ascii") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise _CliError(f"spec {args.spec}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    text = run_table(obj)
    with open(args.out, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({text.count(chr(10)) - 1} rows)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisat",
        description="Saturated subgraphs of complete tripartite hosts: "
                    "construction, verification, bounds, and exact search.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="generate a saturated-subgraph construction")
    c.add_argument("--construction", required=True, choices=constructions.CONSTRUCTION_NAMES)
    c.add_argument("--l")
    c.add_argument("--m")
    c.add_argument("--p")
    c.add_argument("--variant", help="part index for construction 2 (default 1)")
    c.add_argument("--n", required=True, help="host sizes N1,N2,N3")
    c.add_argument("--out", default=None, help="output file (default: stdout)")
    c.add_argument("--format", choices=("json", "edges"), default="edges")
    c.add_argument("--force", action="store_true",
                   help="build outside the guaranteed parameter regime")
    c.set_defaults(fn=_cmd_construct)

    v = sub.add_parser("verify", help="check that a graph is pattern-saturated in its host")
    v.add_argument("--graph", required=True, help="graph file (json or edge-list format)")
    v.add_argument("--host", required=True, help="host sizes N1,N2,N3")
    v.add_argument("--pattern", required=True, help="pattern class sizes L,M,P (P=0 for bipartite)")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("sat", help="compute a saturation number")
    s.add_argument("--host", required=True, help="host sizes N1,N2,N3")
    s.add_argument("--pattern", required=True, help="pattern class sizes L,M,P")
    s.add_argument("--method", choices=("exact", "exhaustive", "greedy"), default="exact")
    s.add_argument("--trials", help="greedy trials (default 100)")
    s.add_argument("--seed", help="greedy seed (default 0)")
    s.add_argument("--budget", help="exact-search node budget")
    s.add_argument("--enumerate", action="store_true",
                   help="write the optima as numbered witness files "
                        "(deduplicated by isomorphism for the exact method)")
    s.add_argument("--witness-prefix", default="witness_",
                   help="file prefix for enumerated witnesses")
    s.set_defaults(fn=_cmd_sat)

    f = sub.add_parser("formula", help="evaluate one closed-form bound")
    f.add_argument("--name", required=True)
    f.add_argument("--params", required=True, help="comma-separated k=v pairs")
    f.set_defaults(fn=_cmd_formula)

    t = sub.add_parser("table", help="run a declarative experiment spec into a CSV")
    t.add_argument("--spec", required=True, help="experiment spec JSON file")
    t.add_argument("--out", required=True, help="output CSV path")
    t.set_defaults(fn=_cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every trisat error is a ValueError, every failed file access an OSError
        try:
            code = args.fn(args)
        except BrokenPipeError:
            raise
        except (_CliError, ValueError, OSError) as exc:
            code = _emit_error(str(exc))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout, so nothing more can reach it; pointing it
        # at the null device keeps the interpreter's final flush from failing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
