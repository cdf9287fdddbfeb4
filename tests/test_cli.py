import importlib.util
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


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("t", ["1/2", "-3/7"])
def test_prim_semiinf_at_nonzero_t_matches_t_one(capsys, t, output):
    # Delta_t = t * Delta_1 has the kernel of Delta_1 for every t != 0.
    argv = ["prim", "semiinf", "--max-degree", "6", *output]
    code, out, _ = run(capsys, *argv, f"--t={t}")
    assert (code, out) == run(capsys, *argv, "--t", "1")[:2]


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
def test_negative_t_may_follow_a_space(capsys, output):
    argv = ["prim", "semiinf", "--max-degree", "5", *output]
    spaced = run(capsys, *argv, "--t", "-3/7")
    assert spaced == run(capsys, *argv, "--t=-3/7")
    assert spaced[0] == 0


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


def test_dynamics_negative_weight_needs_flag(tmp_path, capsys):
    # The weights of A sum to 1, but one of them is negative.
    grammar = tmp_path / "negative.grammar"
    grammar.write_text("A -> A A : 3/2\nA -> B B : -1/2\nB -> B B : 1\n")
    code, out, err = run(capsys, "dynamics", str(grammar), "A", "1")
    assert code == 2 and out == ""
    assert err.startswith("grammar error:") and "'A'" in err and ">= 0" in err
    code, out, _ = run(capsys, "dynamics", str(grammar), "A", "1", "--free-weights")
    assert code == 0
    assert "BB : -1/2" in out


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
    with pytest.raises(SystemExit) as exc:
        main(["dynamics", str(grammar), "s", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "steps" in captured.err


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


def test_size_report_counts_every_module():
    proc = _run_subprocess([str(ROOT / "scripts" / "size_report.py")], stdout=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr.decode()
    rows = [line.split() for line in proc.stdout.decode().splitlines()[1:]]
    modules = sorted((ROOT / "src" / "dipterous").glob("*.py"))
    assert [name for name, _, _ in rows] == [path.name for path in modules] + ["total"]
    for (_, lines, _), path in zip(rows, modules):
        assert int(lines) == len(path.read_text().splitlines())
    *body, (_, total_lines, total_tokens) = rows
    assert int(total_lines) == sum(int(lines) for _, lines, _ in body)
    assert int(total_tokens) == sum(int(tokens) for _, _, tokens in body)


def test_size_report_skips_comments_docstrings_and_layout():
    spec = importlib.util.spec_from_file_location("size_report", ROOT / "scripts" / "size_report.py")
    size_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(size_report)
    text = '"""Module."""\n\n# note\ndef f(x):\n    """Doc."""\n    return "s"  # why\n'
    # def f ( x ) : return "s"
    assert size_report.code_tokens(text) == 8


def test_cli_digest_line_hashes_the_outputs_of_one_run(capsys):
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "scripts" / "cli_digest.py")
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    argv = ["dims", "dipt", "--max-degree", "3"]
    line = cli_digest.digest(argv)
    assert re.fullmatch(r"0 [0-9a-f]{64} [0-9a-f]{64} dims dipt --max-degree 3", line)
    code, out, err = run(capsys, *argv)
    sha = cli_digest.sha256
    assert line == f"{code} {sha(out.encode())} {sha(err.encode())} dims dipt --max-degree 3"


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
