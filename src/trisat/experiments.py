"""Declarative experiment runs producing reproducible CSV tables.

An experiment spec is a JSON document::

    {"version": 1,
     "runs": [
       {"action": "construct", "params": {"construction": "1", "l": 1, "m": 1,
                                          "n1": 5, "n2": 5, "n3": 5}},
       {"action": "exact",    "params": {"n1": 2, "n2": 2, "n3": 2,
                                          "pattern": [2, 2, 0]}},
       {"action": "greedy",   "params": {"n1": 5, "n2": 5, "n3": 5,
                                          "pattern": [1, 1, 1],
                                          "trials": 20, "seed": 7}},
       {"action": "compare",  "params": {"construction": "1", "l": 1, "m": 1,
                                          "n1": 3, "n2": 3, "n3": 3,
                                          "trials": 10, "seed": 1}}
     ]}

``parse_spec`` validates the whole spec before anything runs and returns
its runs as a tuple.  Each action's required and optional params are
listed once, in ``_ACTIONS``; unknown fields are rejected.  So is a run's
pattern, and a construction run whose family refuses its parameters,
does not read one of them, or (without ``force``) fails its record's
hypothesis.  Rows come out in spec order under ``CSV_HEADER``, the one
place the columns are named:

    action,params,construction_edges,formula_value,greedy_min,exact_value_or_blank,hypothesis_satisfied

``construct`` fills the construction/formula columns, ``exact`` and
``greedy`` their respective value columns, and ``compare`` builds the
construction and additionally runs greedy (always) and exact (when the
host has at most 16 edges) for the construction's own pattern.  A run
may carry an optional ``out`` path: construction runs write the built
graph there (edge-list format), search runs their result JSON.  These
files are written after the last run succeeds, so a run that raises
leaves none behind.  Given fixed seeds the output is byte-for-byte
reproducible.
"""

from __future__ import annotations

import json

from . import constructions
from .graphs import host_edge_count
from .patterns import PatternSpec
from .search import sat_exact, sat_greedy
from .serialization import serialize

CSV_HEADER = ("action,params,construction_edges,formula_value,greedy_min,"
              "exact_value_or_blank,hypothesis_satisfied")

# action -> (required params, optional params)
_ACTIONS = {
    "construct": ({"construction", "n1", "n2", "n3"}, {"l", "m", "p", "variant", "force"}),
    "exact": ({"n1", "n2", "n3", "pattern"}, {"budget"}),
    "greedy": ({"n1", "n2", "n3", "pattern", "trials", "seed"}, set()),
    "compare": ({"construction", "n1", "n2", "n3", "trials", "seed"},
                {"l", "m", "p", "variant", "force"}),
}


class ExperimentError(ValueError):
    """Malformed experiment specification."""


def parse_spec(obj: object) -> tuple:
    """The spec's runs, in input order, once every one has been validated."""
    if not isinstance(obj, dict):
        raise ExperimentError("spec must be a JSON object")
    unknown = set(obj) - {"version", "runs"}
    if unknown:
        raise ExperimentError(f"unknown top-level fields {sorted(unknown)}")
    if obj.get("version") != 1:
        raise ExperimentError(f"unsupported spec version {obj.get('version')!r}; expected 1")
    runs = obj.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ExperimentError("'runs' must be a nonempty list")
    for k, run in enumerate(runs):
        _validate_run(run, k)
    return tuple(runs)


def _validate_run(run: object, k: int) -> None:
    where = f"runs[{k}]"
    if not isinstance(run, dict):
        raise ExperimentError(f"{where}: must be an object")
    unknown = set(run) - {"action", "params", "out"}
    if unknown:
        raise ExperimentError(f"{where}: unknown fields {sorted(unknown)}")
    if "out" in run and not isinstance(run["out"], str):
        raise ExperimentError(f"{where}: 'out' must be a path string")
    action = run.get("action")
    if action not in _ACTIONS:
        raise ExperimentError(f"{where}: action must be one of {sorted(_ACTIONS)}, got {action!r}")
    params = run.get("params")
    if not isinstance(params, dict):
        raise ExperimentError(f"{where}: 'params' must be an object")
    required, optional = _ACTIONS[action]
    bad = set(params) - required - optional
    if bad:
        raise ExperimentError(f"{where}: unknown params {sorted(bad)} for action {action}")
    missing = required - set(params)
    if missing:
        raise ExperimentError(f"{where}: missing params {sorted(missing)} for action {action}")
    for key, val in params.items():
        if key == "construction":
            if val not in constructions.CONSTRUCTION_NAMES:
                raise ExperimentError(f"{where}: unknown construction {val!r}")
        elif key == "pattern":
            if (not isinstance(val, list) or len(val) != 3
                    or not all(type(x) is int for x in val)):
                raise ExperimentError(f"{where}: pattern must be [l, m, p] integers")
        elif key == "force":
            if not isinstance(val, bool):
                raise ExperimentError(f"{where}: force must be a boolean")
        elif type(val) is not int:
            raise ExperimentError(f"{where}: param {key} must be an integer")
    try:
        if "pattern" in params:
            PatternSpec(*params["pattern"])
        if "construction" in params:
            constructions.admit(
                params["construction"], params["n1"], params["n2"], params["n3"],
                **{k: params.get(k) for k in ("l", "m", "p", "variant")},
                force=params.get("force", False))
    except ValueError as exc:
        raise ExperimentError(f"{where}: {exc}") from None


def _params_token(params: dict) -> str:
    parts = []
    for key in sorted(params):
        val = params[key]
        if isinstance(val, list):
            val = "x".join(str(x) for x in val)
        parts.append(f"{key}={val}")
    return ";".join(parts)


def run_table(spec_obj: object) -> str:
    """Execute a validated spec and render the CSV text (LF line endings).
    The runs' ``out`` files are written only once every run has succeeded."""
    lines = [CSV_HEADER]
    outputs = []  # (path, bytes) in run order
    for run in parse_spec(spec_obj):
        action, params = run["action"], run["params"]
        out_path = run.get("out")
        row = dict.fromkeys(CSV_HEADER.split(",")[2:], "")
        host = (params.get("n1"), params.get("n2"), params.get("n3"))
        if action in ("construct", "compare"):
            which = params["construction"]
            l, m, p = params.get("l"), params.get("m"), params.get("p")
            g = constructions.build(which, *host, l=l, m=m, p=p,
                                    variant=params.get("variant", 1),
                                    force=params.get("force", False))
            row["construction_edges"] = str(g.num_edges)
            rec = constructions.formula_for(which, *host, l=l, m=m, p=p)
            row["formula_value"] = str(rec.value)
            row["hypothesis_satisfied"] = str(rec.hypothesis_satisfied).lower()
            if out_path:
                outputs.append((out_path, serialize(g, "edges")))
            if action == "compare":
                pat = constructions.pattern_for(which, l=l, m=m, p=p)
                res = sat_greedy(host, pat, trials=params["trials"], seed=params["seed"])
                row["greedy_min"] = str(res.value)
                if host_edge_count(host) <= 16:
                    row["exact_value_or_blank"] = str(sat_exact(host, pat).value)
        else:
            pat = PatternSpec(*params["pattern"])
            if action == "exact":
                res = sat_exact(host, pat, node_budget=params.get("budget"))
                if res.status == "complete":
                    row["exact_value_or_blank"] = str(res.value)
            else:
                res = sat_greedy(host, pat, trials=params["trials"], seed=params["seed"])
                row["greedy_min"] = str(res.value)
            if out_path:
                outputs.append((out_path, (json.dumps(res.to_json_obj()) + "\n").encode("ascii")))
        lines.append(",".join([action, _params_token(params), *row.values()]))
    for path, payload in outputs:
        with open(path, "wb") as fh:
            fh.write(payload)
    return "\n".join(lines) + "\n"
