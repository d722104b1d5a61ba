"""CLI surface: flags, exit codes, output channels, golden table."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trisat import PatternSpec, deserialize, is_saturated
from trisat.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_summary_and_output(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code, stdout, stderr = run(capsys, "construct", "--construction", "1",
                               "--l", "1", "--m", "1", "--n", "4,4,4",
                               "--out", str(out))
    assert code == 0
    assert "edges=18 formula=18 match=true" in stderr
    assert stdout == ""
    g = deserialize(out.read_bytes())
    assert g.num_edges == 18


def test_construct_c4(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code, _, stderr = run(capsys, "construct", "--construction", "c4",
                          "--n", "3,2,2", "--out", str(out))
    assert code == 0 and "edges=7" in stderr


def test_construct_json_format_round_trips(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run(capsys, "construct", "--construction", "5", "--l", "4",
                     "--m", "2", "--p", "1", "--n", "8,8,8",
                     "--format", "json", "--out", str(out))
    assert code == 0
    g = deserialize(out.read_bytes())
    assert g.num_edges == 84
    capsys.readouterr()
    code, _, _ = run(capsys, "verify", "--graph", str(out),
                     "--host", "8,8,8", "--pattern", "4,2,1")
    assert code == 0


def test_construct_invalid_params_exit2(capsys):
    code, stdout, _ = run(capsys, "construct", "--construction", "3",
                          "--l", "2", "--m", "2", "--p", "2", "--n", "5,5,5")
    assert code == 2
    assert json.loads(stdout.strip())["error"]


def test_construct_force_overrides_regime(tmp_path, capsys):
    args = ("construct", "--construction", "1", "--l", "3", "--m", "1",
            "--n", "5,5,5", "--out", str(tmp_path / "g.edges"))
    code, stdout, _ = run(capsys, *args)
    assert code == 2 and "error" in json.loads(stdout)
    code, _, _ = run(capsys, *args, "--force")
    assert code == 0


def test_verify_exit_codes(tmp_path, capsys):
    g = tmp_path / "g.edges"
    run(capsys, "construct", "--construction", "1", "--l", "1", "--m", "1",
        "--n", "5,5,5", "--out", str(g))
    capsys.readouterr()
    code, stdout, _ = run(capsys, "verify", "--graph", str(g),
                          "--host", "5,5,5", "--pattern", "1,1,1")
    assert code == 0
    report = json.loads(stdout)
    assert report["is_saturated"] and report["violating_nonedges"] == []

    host = tmp_path / "host.edges"
    run(capsys, "construct", "--construction", "c4", "--n", "2,2,2",
        "--out", str(host))
    capsys.readouterr()
    code, stdout, _ = run(capsys, "verify", "--graph", str(host),
                          "--host", "2,2,2", "--pattern", "1,1,1")
    assert code == 1  # the three-star contains a triangle
    assert json.loads(stdout)["forbidden_witness"] is not None


def test_verify_truncated_file_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"tripartite 2 2\n")
    code, stdout, _ = run(capsys, "verify", "--graph", str(bad),
                          "--host", "2,2,2", "--pattern", "1,1,1")
    assert code == 2
    assert "error" in json.loads(stdout)


def test_verify_host_size_mismatch_exit2(tmp_path, capsys):
    g = tmp_path / "g.edges"
    g.write_bytes(b"tripartite 2 2 2\n1 1 2 1\n")
    code, stdout, _ = run(capsys, "verify", "--graph", str(g),
                          "--host", "3,2,2", "--pattern", "1,1,1")
    assert code == 2
    assert "error" in json.loads(stdout)


def test_sat_exact_and_exhaustive(capsys):
    code, stdout, _ = run(capsys, "sat", "--host", "2,2,2", "--pattern", "2,2,0",
                          "--method", "exact")
    assert code == 0 and json.loads(stdout)["value"] == 6
    code, stdout, _ = run(capsys, "sat", "--host", "3,2,2", "--pattern", "2,2,0",
                          "--method", "exact")
    assert json.loads(stdout)["value"] == 7
    code, stdout, _ = run(capsys, "sat", "--host", "2,2,2", "--pattern", "1,1,1",
                          "--method", "exhaustive")
    assert json.loads(stdout)["value"] == 6


def test_sat_enumerate_writes_witness_files(tmp_path, capsys):
    prefix = str(tmp_path / "w_")
    code, stdout, _ = run(capsys, "sat", "--host", "2,2,2", "--pattern", "2,2,0",
                          "--method", "exact", "--enumerate",
                          "--witness-prefix", prefix)
    assert code == 0
    obj = json.loads(stdout)
    assert obj["witness_files"]
    for path in obj["witness_files"]:
        g = deserialize(Path(path).read_bytes())
        assert is_saturated(g, (2, 2, 2), PatternSpec(2, 2, 0)).is_saturated


def test_sat_greedy_deterministic(capsys):
    args = ("sat", "--host", "4,4,4", "--pattern", "1,1,1",
            "--method", "greedy", "--trials", "5", "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["trial_values"]


def test_sat_exact_output_is_repeatable(capsys):
    args = ("sat", "--host", "2,2,2", "--pattern", "2,2,0", "--method", "exact")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["value"] == 6


def test_formula_subcommand(capsys):
    code, stdout, _ = run(capsys, "formula", "--name", "sat_lll",
                          "--params", "n1=450,n2=450,n3=450,l=2")
    assert code == 0 and json.loads(stdout)["value"] == 5385
    code, stdout, _ = run(capsys, "formula", "--name", "fjpw",
                          "--params", "k=3,n=200")
    assert json.loads(stdout)["value"] == 1194
    code, stdout, _ = run(capsys, "formula", "--name", "nope", "--params", "n=1")
    assert code == 2 and "error" in json.loads(stdout)


def test_formula_params_reject_repeated_key(capsys):
    code, stdout, _ = run(capsys, "formula", "--name", "sat_lll",
                          "--params", "n1=3,n2=2,n3=2, n1 =4,l=1")
    assert code == 2
    assert "'n1'" in json.loads(stdout)["error"]


def test_table_golden_bytes(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "table", "--spec", str(DATA / "experiment_spec.json"),
                     "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_table.csv").read_bytes()


def test_table_rejects_unknown_fields(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "runs": [
        {"action": "exact", "params": {"n1": 1, "n2": 1, "n3": 1,
                                       "pattern": [1, 1, 1]}, "extra": 1}]}))
    code, stdout, _ = run(capsys, "table", "--spec", str(bad),
                          "--out", str(tmp_path / "t.csv"))
    assert code == 2 and "unknown" in json.loads(stdout)["error"]


def test_usage_error_exit2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sat", "--host", "2,2,2"])  # missing --pattern
    assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["1_0", "+3", "\u0663", " -3", "0x3", "3.0", ""])
@pytest.mark.parametrize("flag", ["--n", "--host", "--pattern", "--params", "--l", "--m", "--p",
                                  "--variant", "--trials", "--seed", "--budget"])
def test_integer_arguments_are_plain_ascii_decimals(tmp_path, capsys, flag, bad):
    # the rule of the edge-list decoder; Python's int() would read 1_0 as 10,
    # +3 as 3 and the Arabic-Indic digit three (U+0663) as 3, and each
    # command below succeeds with 3 in place of the bad field
    construct = ["construct", "--out", str(tmp_path / "g.edges"), "--construction"]
    argv, where = {
        "--n": (construct + ["1", "--l", "1", "--m", "1", "--n", f"{bad},3,3"], "--n"),
        "--host": (["sat", "--method", "greedy", "--trials", "1", "--host", f"{bad},2,2",
                    "--pattern", "1,1,1"], "--host"),
        "--pattern": (["sat", "--method", "greedy", "--trials", "1", "--host", "3,2,2",
                       "--pattern", f"{bad},1,1"], "--pattern"),
        "--params": (["formula", "--name", "fjpw", "--params", f"k=3,n={bad}"],
                     "parameter 'n'"),
        "--l": (construct + ["1", "--l", bad, "--m", "1", "--n", "12,12,12"], "--l"),
        "--m": (construct + ["1", "--l", "3", "--m", bad, "--n", "12,12,12"], "--m"),
        "--p": (construct + ["3", "--l", "4", "--m", "4", "--p", bad, "--n", "12,12,12"],
                "--p"),
        "--variant": (construct + ["2", "--variant", bad, "--l", "2", "--m", "2",
                                   "--n", "8,8,8"], "--variant"),
        "--trials": (["sat", "--method", "greedy", "--trials", bad, "--host", "2,2,2",
                      "--pattern", "1,1,1"], "--trials"),
        "--seed": (["sat", "--method", "greedy", "--trials", "1", "--seed", bad,
                    "--host", "2,2,2", "--pattern", "1,1,1"], "--seed"),
        "--budget": (["sat", "--method", "exact", "--budget", bad, "--host", "2,2,2",
                      "--pattern", "1,1,1"], "--budget"),
    }[flag]
    code, stdout, _ = run(capsys, *argv)
    assert code == 2
    assert where in json.loads(stdout)["error"]


def test_integer_arguments_accept_spaces_around_decimals(capsys):
    code, stdout, _ = run(capsys, "sat", "--host", " 2, 2 ,2", "--pattern", "2,2,0")
    assert code == 0 and json.loads(stdout)["value"] == 6
    code, stdout, _ = run(capsys, "formula", "--name", "fjpw", "--params", "k = 3, n=200")
    assert code == 0 and json.loads(stdout)["value"] == 1194


@pytest.mark.parametrize("method", ["greedy", "exhaustive"])
@pytest.mark.parametrize("budget", ["0", "1000"])
def test_budget_rejected_unless_exact(capsys, method, budget):
    code, stdout, _ = run(capsys, "sat", "--host", "2,2,2", "--pattern", "1,1,1",
                          "--method", method, "--budget", budget)
    assert code == 2
    assert "--budget" in json.loads(stdout)["error"]
    code, _, _ = run(capsys, "sat", "--host", "2,2,2", "--pattern", "1,1,1",
                     "--method", method)
    assert code == 0


@pytest.mark.parametrize("method", ["exact", "exhaustive"])
@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_greedy_flags_rejected_unless_greedy(capsys, method, flag):
    code, stdout, _ = run(capsys, "sat", "--host", "2,2,2", "--pattern", "1,1,1",
                          "--method", method, flag, "3")
    assert code == 2
    assert flag in json.loads(stdout)["error"]


def test_closed_stdout_exits_quietly():
    # the reader is gone before the result is written: no traceback and no
    # error object sent after it, only exit code 2
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    with subprocess.Popen([sys.executable, "-m", "trisat.cli", "sat", "--host", "4,4,4",
                           "--pattern", "1,1,1", "--method", "greedy", "--trials", "3"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert stderr == b""


@pytest.mark.parametrize("argv, unread", [
    (["--construction", "c4", "--n", "3,3,3", "--l", "5"], "l"),
    (["--construction", "1", "--n", "5,5,5", "--l", "1", "--m", "1", "--p", "7"], "p"),
    (["--construction", "3", "--n", "5,5,5", "--l", "2", "--m", "2", "--p", "1",
      "--variant", "3"], "variant"),
])
def test_construct_rejects_unread_params(tmp_path, capsys, argv, unread):
    out = tmp_path / "g.edges"
    code, stdout, _ = run(capsys, "construct", *argv, "--out", str(out))
    assert code == 2
    assert json.loads(stdout)["error"].endswith(f"does not read {unread}")
    assert not out.exists()
    # construction 2 reads its variant
    code, _, _ = run(capsys, "construct", "--construction", "2", "--n", "5,5,5",
                     "--l", "2", "--m", "2", "--variant", "3", "--out", str(out))
    assert code == 0 and out.exists()
