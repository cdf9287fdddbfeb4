import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dipterous.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_all(capsys):
    code, out, _ = run(capsys, "dims", "all", "--max-degree", "4")
    assert code == 0
    assert "dipt" in out and "match=true" in out
    assert "[1, 2, 6, 22]" in out


def test_dims_json_roundtrip(capsys):
    code, out, _ = run(capsys, "dims", "dipt", "--json", "--max-degree", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["dipt"]["dims"] == [1, 2, 6, 22, 90]
    assert payload["dipt"]["match"] is True


def test_dims_unknown_operad_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dims", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["abc", "1/0"])
def test_bad_t_is_usage_error(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["prim", "semiinf", "--t", bad])
    assert exc.value.code == 2
    assert "--t" in capsys.readouterr().err


def test_prim_semiinf(capsys):
    code, out, _ = run(capsys, "prim", "semiinf", "--max-degree", "4")
    assert code == 0
    assert "[1, 1, 3, 11]" in out


def test_prim_semiinf_at_t_zero_counts_forests(capsys):
    # Delta vanishes at t = 0, so the primitives are all of degree n.
    code, out, _ = run(capsys, "prim", "semiinf", "--t", "0", "--max-degree", "5", "--json")
    assert code == 0
    assert json.loads(out)["semiinf"] == {
        "dims": [1, 2, 6, 22, 90],
        "reference": [1, 2, 6, 22, 90],
        "match": True,
    }


def test_prim_hopf_against_oracle(capsys):
    code, out, _ = run(capsys, "prim", "hopf", "--max-degree", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hopf"]["dims"] == [1, 1, 4]
    assert payload["hopf"]["oracle"] == [1, 1, 4]


def test_homology_json(capsys):
    code, out, _ = run(capsys, "homology", "--json", "--weight-cap", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["koszul_ok"] is True
    piece = payload["pieces"][0]
    assert piece == {"arity": 1, "weight": 1, "kernel": 1, "image": 0, "betti": 1}


def test_verify_axioms(capsys):
    code, out, _ = run(capsys, "verify", "axioms")
    assert code == 0
    assert "[pass]" in out and "FAIL" not in out


def test_verify_bialgebra_reports_rigidity_failure(capsys):
    code, out, _ = run(capsys, "verify", "bialgebra")
    assert code == 1
    assert "witness" in out


def test_antipode_degree_one(capsys):
    code, out, _ = run(capsys, "antipode", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["identities_ok"] is True
    assert payload["table"]["[|] @ a"]["S"] == "0 + -[|] @ a"


def test_antipode_degree_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["antipode", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degree" in captured.err and "Traceback" not in captured.err


def test_antipode_degree_above_cap_is_usage_error(capsys):
    code, _, err = run(capsys, "antipode", "7", "--max-degree", "5")
    assert code == 2
    assert "max-degree" in err


def test_dynamics_command(tmp_path, capsys):
    grammar = tmp_path / "sub.grammar"
    grammar.write_text("s -> s a : 1/2\ns -> a s : 1/2\na -> a a : 1\n")
    code, out, _ = run(capsys, "dynamics", str(grammar), "s", "1")
    assert code == 0
    assert "sa : 1/2" in out and "as : 1/2" in out
    assert "mass 1" in out


def test_dynamics_zero_steps(tmp_path, capsys):
    grammar = tmp_path / "sub.grammar"
    grammar.write_text("s -> s s : 1\n")
    code, out, _ = run(capsys, "dynamics", str(grammar), "s", "0")
    assert code == 0
    assert "s : 1" in out


def test_dynamics_non_stochastic_needs_flag(tmp_path, capsys):
    grammar = tmp_path / "free.grammar"
    grammar.write_text("s -> s a : 1/3\n")
    code, _, err = run(capsys, "dynamics", str(grammar), "s", "1")
    assert code == 2
    assert "sum to" in err
    code, out, _ = run(capsys, "dynamics", str(grammar), "s", "1", "--free-weights")
    assert code == 0
    assert "1/3" in out


def test_dynamics_parse_error_carries_line(tmp_path, capsys):
    grammar = tmp_path / "bad.grammar"
    grammar.write_text("s -> a b : 1\noops\n")
    code, _, err = run(capsys, "dynamics", str(grammar), "s", "1")
    assert code == 2
    assert "line 2" in err


def test_dynamics_unknown_start(tmp_path, capsys):
    grammar = tmp_path / "g.grammar"
    grammar.write_text("s -> s s : 1\n")
    code, _, err = run(capsys, "dynamics", str(grammar), "x", "1")
    assert code == 2
    assert "start symbol" in err


def test_dynamics_missing_file(capsys):
    code, _, err = run(capsys, "dynamics", "/nonexistent/g.grammar", "s", "1")
    assert code == 2


def test_dynamics_non_utf8_grammar_is_usage_error(tmp_path, capsys):
    grammar = tmp_path / "binary.grammar"
    grammar.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "dynamics", str(grammar), "s", "1")
    assert code == 2
    assert "cannot read grammar file" in err


def test_dynamics_negative_steps_is_usage_error(tmp_path, capsys):
    grammar = tmp_path / "g.grammar"
    grammar.write_text("s -> s s : 1\n")
    code, out, err = run(capsys, "dynamics", str(grammar), "s", "-3")
    assert code == 2
    assert out == ""
    assert "steps" in err


def test_verify_names_a_clamped_cap(capsys):
    code, out, err = run(capsys, "verify", "bialgebra", "--max-degree", "4")
    assert err == ""
    code_clamped, out_clamped, err = run(capsys, "verify", "bialgebra", "--max-degree", "6")
    assert (code_clamped, out_clamped) == (code, out)
    assert err.count("\n") == 1 and "6" in err and "4" in err


def test_homology_names_the_clamped_homotopy_cap(capsys):
    _, _, err = run(capsys, "homology", "--weight-cap", "4")
    assert err == ""
    _, _, err = run(capsys, "homology", "--weight-cap", "5")
    assert err.count("\n") == 1 and "weight 4" in err and "--weight-cap 5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "all", "--max-degree", "0"],
        ["homology", "--weight-cap", "0"],
        ["dims", "all", "--max-degree", "abc"],
    ],
    ids=["max-degree-0", "weight-cap-0", "max-degree-abc"],
)
def test_bad_cap_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err and "Traceback" not in err


GRAMMAR = str(ROOT / "scripts" / "data" / "substitution.grammar")


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "all", "--t", "1/2"],
        ["dims", "all", "--weight-cap", "3"],
        ["dims", "all", "--seed", "1"],
        ["prim", "semiinf", "--weight-cap", "3"],
        ["homology", "--max-degree", "3"],
        ["homology", "--t", "1/2"],
        ["verify", "axioms", "--t", "1/2"],
        ["verify", "axioms", "--weight-cap", "3"],
        ["verify", "coassoc", "--seed", "1"],
        ["antipode", "1", "--t", "1/2"],
        ["antipode", "1", "--weight-cap", "3"],
        ["dynamics", GRAMMAR, "s", "0", "--max-degree", "3"],
        ["dynamics", GRAMMAR, "s", "0", "--t", "1/2"],
        ["dynamics", GRAMMAR, "s", "0", "--weight-cap", "3"],
        ["dynamics", GRAMMAR, "s", "0", "--seed", "1"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2][1:]}",
)
def test_unread_flag_is_usage_error(capsys, argv):
    # A flag the command does not read would otherwise certify a
    # computation other than the one asked for.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["prim", "semiinf", "--max-degree", "4"],
        ["homology", "--weight-cap", "4"],
        ["antipode", "4", "--max-degree", "4"],
    ],
    ids=["prim", "homology", "antipode"],
)
def test_benchmarked_commands_accept_seed(capsys, argv):
    # The benchmark harness appends --json --seed <n> to each command it runs.
    code, out, _ = run(capsys, *argv, "--json", "--seed", "1")
    assert code == 0
    assert run(capsys, *argv, "--json") == (code, out, "")



def _run_subprocess(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], env=env, stderr=subprocess.PIPE, **kwargs)


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_subprocess(["-m", "dipterous.cli", "dims", "all", "--max-degree", "6"], stdout=write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode == 0


def test_dimension_report_script_runs():
    proc = _run_subprocess(
        [str(ROOT / "scripts" / "dimension_report.py"), "--max-degree", "3"], stdout=subprocess.PIPE
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert "koszul_ok=True" in proc.stdout.decode().splitlines()


def test_dimension_report_rejects_a_degree_below_one():
    proc = _run_subprocess(
        [str(ROOT / "scripts" / "dimension_report.py"), "--max-degree", "0"], stdout=subprocess.PIPE
    )
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert "--max-degree" in err and "Traceback" not in err


def test_run_acceptance_reports_the_one_failing_criterion():
    # Criterion 9 (rigidity) is the documented negative finding; the exit
    # status counts failing criteria.
    proc = _run_subprocess([str(ROOT / "scripts" / "run_acceptance.py")], stdout=subprocess.PIPE)
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "10/11 criteria passed"


def test_json_outputs_are_deterministic(capsys):
    code1, out1, _ = run(capsys, "prim", "semiinf", "--json", "--max-degree", "3")
    code2, out2, _ = run(capsys, "prim", "semiinf", "--json", "--max-degree", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def _floats(node, path="$"):
    """Paths of every float in a parsed JSON document, and of every string
    (a printed coefficient, say) that holds a decimal-point number."""
    if isinstance(node, float):
        return [path]
    if isinstance(node, str):
        return [path] if re.search(r"\d\.\d|\b(inf|nan)\b", node) else []
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _floats(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _floats(v, f"{path}[{i}]")]
    return []


@pytest.mark.parametrize(
    "argv",
    [
        ["antipode", "4", "--max-degree", "4"],
        ["homology", "--weight-cap", "5"],
        ["prim", "both", "--max-degree", "5", "--t", "1/2"],
        ["verify", "all"],
    ],
    ids=["antipode", "homology", "prim", "verify"],
)
def test_json_reports_hold_no_float(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code in (0, 1)
    assert _floats(json.loads(out)) == []
