"""Experiment spec validation and table reproducibility."""

import copy
import hashlib
import json
from pathlib import Path

import pytest

from trisat import ConstructionError, SearchError
from trisat.experiments import CSV_HEADER, ExperimentError, parse_spec, run_table

SPEC = json.loads((Path(__file__).parent / "data" / "experiment_spec.json").read_text())


def spec_of(*runs):
    return {"version": 1, "runs": list(runs)}


def test_schema_rejection():
    with pytest.raises(ExperimentError):
        parse_spec({"version": 2, "runs": []})
    with pytest.raises(ExperimentError):
        parse_spec(spec_of({"action": "warp", "params": {}}))
    with pytest.raises(ExperimentError):
        parse_spec(spec_of({"action": "exact", "params": {"n1": 1}}))  # missing
    with pytest.raises(ExperimentError):
        parse_spec(spec_of({"action": "exact",
                            "params": {"n1": 1, "n2": 1, "n3": 1,
                                       "pattern": [1, 1, 1], "bogus": 2}}))
    with pytest.raises(ExperimentError):
        parse_spec(spec_of({"action": "greedy",
                            "params": {"n1": 1, "n2": 1, "n3": 1,
                                       "pattern": [1, 1], "trials": 1, "seed": 0}}))
    with pytest.raises(ExperimentError):  # JSON booleans are not integers
        parse_spec(spec_of({"action": "exact",
                            "params": {"n1": 1, "n2": 1, "n3": 1,
                                       "pattern": [True, True, False]}}))


def test_run_table_reproducible():
    spec = spec_of(
        {"action": "construct", "params": {"construction": "1", "l": 1, "m": 1,
                                           "n1": 4, "n2": 4, "n3": 4}},
        {"action": "exact", "params": {"n1": 2, "n2": 2, "n3": 2,
                                       "pattern": [2, 2, 0]}},
        {"action": "greedy", "params": {"n1": 3, "n2": 3, "n3": 3,
                                        "pattern": [1, 1, 1],
                                        "trials": 4, "seed": 11}},
    )
    text1 = run_table(spec)
    text2 = run_table(spec)
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    construct_row = lines[1].split(",")
    assert construct_row[0] == "construct"
    assert construct_row[2] == construct_row[3] == "18"
    exact_row = lines[2].split(",")
    assert exact_row[5] == "6"
    assert text1.endswith("\n") and "\r" not in text1


def test_run_out_paths_write_artifacts(tmp_path):
    gpath = tmp_path / "g.edges"
    jpath = tmp_path / "r.json"
    spec = spec_of(
        {"action": "construct", "out": str(gpath),
         "params": {"construction": "c4", "n1": 2, "n2": 2, "n3": 2}},
        {"action": "exact", "out": str(jpath),
         "params": {"n1": 2, "n2": 2, "n3": 2, "pattern": [2, 2, 0]}},
    )
    run_table(spec)
    from trisat import deserialize
    assert deserialize(gpath.read_bytes()).num_edges == 6
    import json
    assert json.loads(jpath.read_text())["value"] == 6
    with pytest.raises(ExperimentError):
        parse_spec(spec_of({"action": "exact", "out": 7,
                            "params": {"n1": 1, "n2": 1, "n3": 1,
                                       "pattern": [1, 1, 1]}}))


def test_compare_action_fills_all_columns():
    spec = spec_of({"action": "compare",
                    "params": {"construction": "c4", "n1": 2, "n2": 2, "n3": 2,
                               "trials": 20, "seed": 0}})
    lines = run_table(spec).splitlines()
    row = lines[1].split(",")
    assert row[2] == "6"   # construction edges
    assert row[3] == "6"   # formula
    assert row[4] != "" and int(row[4]) >= 6  # greedy minimum
    assert row[5] == "6"   # exact (host fits the guard)
    assert row[6] == "true"


_FIRST = {"action": "construct",
          "params": {"construction": "c4", "n1": 2, "n2": 2, "n3": 2}}


@pytest.mark.parametrize("bad, why", [
    ({"action": "greedy", "params": {"n1": 3, "n2": 3, "n3": 3, "pattern": [1, 2, 3],
                                     "trials": 1, "seed": 0}}, "l >= m >= p"),
    ({"action": "construct", "params": {"construction": "1", "l": 1, "m": 2,
                                        "n1": 5, "n2": 5, "n3": 5}}, "l >= m >= 1"),
    ({"action": "construct", "params": {"construction": "1", "l": 3, "m": 1,
                                        "n1": 5, "n2": 5, "n3": 5}}, "hypothesis fails"),
    ({"action": "compare", "params": {"construction": "c4", "l": 5, "n1": 2, "n2": 2,
                                      "n3": 2, "trials": 1, "seed": 0}}, "does not read l"),
    ({"action": "construct", "params": {"construction": "1", "l": 1, "m": 1, "p": 7,
                                        "n1": 5, "n2": 5, "n3": 5}}, "does not read p"),
    ({"action": "construct", "params": {"construction": "3", "l": 2, "m": 2, "p": 1,
                                        "variant": 3, "n1": 5, "n2": 5, "n3": 5}},
     "does not read variant"),
    ({"action": "construct", "params": {"construction": "2", "l": 3, "m": 2, "n1": 7,
                                        "n2": 6, "n3": 5, "variant": 7}},
     "variant must be 1, 2 or 3"),
])
def test_invalid_run_refused_before_any_run(tmp_path, bad, why):
    out = tmp_path / "first.edges"
    with pytest.raises(ExperimentError, match=r"^runs\[1\]: .*" + why):
        run_table(spec_of(dict(_FIRST, out=str(out)), bad))
    assert not out.exists()


@pytest.mark.parametrize("bad, error", [
    ({"action": "greedy", "params": {"n1": 2, "n2": 3, "n3": 2, "pattern": [1, 1, 1],
                                     "trials": 1, "seed": 0}}, SearchError),
    ({"action": "exact", "params": {"n1": 2, "n2": 2, "n3": 2, "pattern": [1, 1, 1],
                                    "budget": -1}}, SearchError),
    ({"action": "construct", "params": {"construction": "4", "l": 4, "m": 1,
                                        "n1": 9, "n2": 9, "n3": 9}}, ConstructionError),
])
def test_failing_run_leaves_no_out_file(tmp_path, bad, error):
    # these pass validation and fail only when run; no run's file is written
    # until every run has succeeded
    out = tmp_path / "first.edges"
    with pytest.raises(error):
        run_table(spec_of(dict(_FIRST, out=str(out)), bad))
    assert not out.exists()


def test_force_admits_failed_hypothesis_and_variant_reads():
    forced = {"action": "construct", "params": {"construction": "1", "l": 3, "m": 1,
                                                "n1": 5, "n2": 5, "n3": 5, "force": True}}
    variant = {"action": "construct", "params": {"construction": "2", "l": 2, "m": 2,
                                                 "variant": 3, "n1": 5, "n2": 5, "n3": 5}}
    rows = run_table(spec_of(forced, variant)).splitlines()
    assert [r.split(",")[-1] for r in rows[1:]] == ["false", "true"]


def spec_outcomes_digest() -> str:
    """sha256 over parse_spec's verdict ("ok" or the ExperimentError message)
    on mutations of the golden spec: per run, the action set to each action
    and to "warp"; each param dropped or set to 1.5, True, "3", None or
    [1, 1, 1]; an unknown param; a non-string out.  Then three whole-spec
    mutations: version 2, no runs and an unknown top-level key."""
    specs = []
    for k, run in enumerate(SPEC["runs"]):
        def mutated(edit):
            spec = copy.deepcopy(SPEC)
            edit(spec["runs"][k])
            return spec
        for action in ("construct", "exact", "greedy", "compare", "warp"):
            specs.append(mutated(lambda r: r.update(action=action)))
        for key in run["params"]:
            specs.append(mutated(lambda r: r["params"].pop(key)))
            for val in (1.5, True, "3", None, [1, 1, 1]):
                specs.append(mutated(lambda r: r["params"].update({key: val})))
        specs.append(mutated(lambda r: r["params"].update(bogus=1)))
        specs.append(mutated(lambda r: r.update(out=7)))
    specs += [dict(SPEC, version=2), dict(SPEC, runs=[]), dict(SPEC, extra=1)]
    digest = hashlib.sha256()
    for spec in specs:
        try:
            parse_spec(spec)
            outcome = "ok"
        except ExperimentError as exc:
            outcome = str(exc)
        digest.update(outcome.encode() + b"\n")
    return digest.hexdigest()


def test_spec_validation_outcomes_pinned_by_digest():
    # every accept/reject decision and message of the spec validator
    assert len(SPEC["runs"]) == 10
    assert spec_outcomes_digest() == (
        "be2ef9e830fdbc06eaa17fac7113e1a6aa8022e7f29f7acee755785303ab4f35")
