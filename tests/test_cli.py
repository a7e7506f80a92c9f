"""CLI behavior: schema, formatting, exit codes, determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quadprimes import arith, cli, ramanujan


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_render_json_float_precision():
    text = cli.render_json({"a": 0.1 + 0.2, "b": [1.0, True, None], "c": Fraction(1, 2)})
    assert '"a": 0.3' in text
    assert '"b": [\n    1,\n    true,\n    null\n  ]' in text
    assert '"c": "1/2"' in text
    # Output must stay valid JSON after the float substitution.
    assert json.loads(text) == {"a": 0.3, "b": [1.0, True, None], "c": "1/2"}


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_render_json_non_finite_floats_parse_strictly():
    payload = {"nan": float("nan"), "inf": [float("inf"), float("-inf")], "v": 0.1}
    text = cli.render_json(payload)
    assert json.loads(text, parse_constant=_reject_constant) == {
        "nan": "nan", "inf": ["inf", "-inf"], "v": 0.1}


def test_render_json_fifteen_significant_digits():
    text = cli.render_json({"v": 15.118680070657573})
    assert '"v": 15.1186800706576' in text


@pytest.mark.parametrize(
    "argv, command, expected_code",
    [
        (["ramanujan", "--q", "12", "--m", "8"], "ramanujan", 0),
        (["verify", "ramanujan", "--q-max", "12", "--m-max", "12"], "verify ramanujan", 0),
        (["verify", "parity", "--x", "16"], "verify parity", 1),
        (["verify", "char", "--x", "16"], "verify char", 1),
        (["verify", "identity", "--q", "4", "--a", "1", "--x", "16"], "verify identity", 1),
        (["verify", "main-term", "--q", "4", "--a", "1", "--x", "16"], "verify main-term", 1),
        (["verify", "error-term", "--q", "4", "--a", "1", "--x", "16"], "verify error-term", 0),
        (["psi2", "--q", "4", "--a", "1", "--x", "100"], "psi2", 0),
        (["count", "--q", "1", "--a", "1", "--n-max", "10"], "count", 0),
        (["constant", "--q", "1", "--a", "1", "--cutoff", "1000"], "constant", 0),
        (["compare", "--q", "4", "--a", "1", "--x-max", "100", "--steps", "1",
          "--cutoff", "1000"], "compare", 0),
    ],
)
def test_json_envelope_on_every_kind(capsys, argv, command, expected_code):
    code, out, err = _run(capsys, argv + ["--output", "json"])
    assert (code, err) == (expected_code, "")
    payload = json.loads(out)
    assert list(payload) == ["command", "inputs", "result", "diagnostics"]
    assert payload["command"] == command


def test_ramanujan_json_schema(capsys):
    code, out, err = _run(capsys, ["ramanujan", "--q", "12", "--m", "8", "--output", "json"])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert list(payload) == ["command", "inputs", "result", "diagnostics"]
    assert payload["command"] == "ramanujan"
    assert payload["result"]["value"] == -2
    assert payload["result"]["methods"] == {"direct": -2, "closed": -2, "divisor": -2}
    assert payload["result"]["methods_agree"] is True


def test_ramanujan_human_output(capsys):
    code, out, _ = _run(capsys, ["ramanujan", "--q", "5", "--m", "1"])
    assert code == 0
    assert "value: -1" in out
    assert "methods_agree: true" in out


def test_psi2_json_values(capsys):
    code, out, _ = _run(capsys, ["psi2", "--q", "4", "--a", "1", "--x", "100", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["psi2"] == 15.1186800706576
    assert payload["result"]["prime_count"] == 4
    assert payload["result"]["n_max"] == 10
    assert "hits" not in payload["result"]
    assert payload["diagnostics"]["admissible"] is True


def test_psi2_collect_hits(capsys):
    code, out, _ = _run(
        capsys,
        ["psi2", "--q", "2", "--a", "3", "--x", "100", "--collect-hits", "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["hits"] == [[1, 5, 5, 1], [5, 53, 53, 1], [7, 101, 101, 1]]


def test_count_lists_primes(capsys):
    code, out, _ = _run(capsys, ["count", "--q", "1", "--a", "1", "--n-max", "10", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["n_values"] == [1, 2, 4, 6, 10]
    assert payload["result"]["primes"] == [2, 5, 17, 37, 101]
    assert payload["result"]["prime_count"] == 5


def test_constant_reports_epsilon_and_other_variant(capsys):
    code, out, _ = _run(
        capsys,
        ["constant", "--q", "1", "--a", "1", "--variant", "paper", "--cutoff", "1000", "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["epsilon"] == "1/2"
    assert payload["diagnostics"]["comparison_variant"] == "hl"
    assert payload["diagnostics"]["difference"] > 0.5


def test_verify_identity_exit_code_and_counterexamples(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "identity", "--q", "4", "--a", "1", "--x", "16", "--output", "json"],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["result"]["cases_run"] == 2
    assert payload["result"]["cases_passed"] == 1
    assert payload["result"]["counterexamples"][0]["inputs"]["check"] == "rhs-exact-equals-lhs"
    assert payload["diagnostics"]["all_passed"] is False


def test_verify_error_term_passes(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "error-term", "--q", "4", "--a", "1", "--x", "16", "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["counterexamples"] == []
    assert payload["diagnostics"]["all_passed"] is True


@pytest.mark.parametrize("suite, expected_code", [("identity", 1), ("error-term", 0)])
def test_verify_runs_where_q_plus_a_is_below_one(capsys, suite, expected_code):
    # (1, -2) is admissible but q n + a = -1 at n = 1: a measured verdict, not exit 2.
    code, out, err = _run(
        capsys, ["verify", suite, "--q", "1", "--a", "-2", "--x", "16", "--output", "json"])
    assert (code, err) == (expected_code, "")
    assert json.loads(out)["result"]["cases_run"] == 2


def test_verify_requires_complete_config(capsys):
    code, out, err = _run(capsys, ["verify", "identity", "--q", "4"])
    assert code == 2
    assert "together" in err


def test_compare_csv_stdout(capsys):
    code, out, _ = _run(
        capsys,
        ["compare", "--q", "4", "--a", "1", "--x-max", "100", "--steps", "1",
         "--cutoff", "1000", "--output", "csv"],
    )
    assert code == 0
    assert out == (
        "x,psi2,conjectured,ratio\n"
        "100,15.1186800706576,6.85226921853142,2.20637566746069\n"
    )


def test_compare_csv_path(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, _, _ = _run(
        capsys,
        ["compare", "--q", "4", "--a", "1", "--x-max", "100", "--steps", "1",
         "--cutoff", "1000", "--csv-path", str(target), "--output", "json"],
    )
    assert code == 0
    content = target.read_text()
    assert content.startswith("x,psi2,conjectured,ratio\n")
    assert content.count("\n") == 2
    assert "\r" not in content
    # --output csv and --csv-path print the same table.
    both = tmp_path / "both.csv"
    code, out, _ = _run(
        capsys,
        ["compare", "--q", "4", "--a", "1", "--x-max", "1000", "--steps", "3",
         "--cutoff", "1000", "--csv-path", str(both), "--output", "csv"],
    )
    assert code == 0
    assert out == both.read_bytes().decode()


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_csv_path_exits_two(tmp_path, capsys, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "table.csv"
    code, out, err = _run(
        capsys, ["compare", "--q", "4", "--a", "1", "--x-max", "100", "--csv-path", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["nope"],
        ["psi2", "--q", "4", "--a", "1"],
        ["psi2", "--q", "4", "--a", "2", "--x", "100"],
        ["constant", "--q", "1", "--a", "1", "--cutoff", "2"],
    ):
        code = cli.run(argv)
        capsys.readouterr()
        assert code == 2, argv


def test_invariant_guard_exits_two(capsys, monkeypatch, cold_ramanujan_memos):
    # A broken totient makes ramanujan_closed's divisibility guard fire; the
    # memos are cold, so phi is read under the patch.
    real_phi = arith.euler_phi
    monkeypatch.setattr(arith, "euler_phi", lambda n: 3 if n == 3 else real_phi(n))
    code, out, err = _run(capsys, ["ramanujan", "--q", "6", "--m", "2"])
    assert code == 2
    assert out == ""
    assert err == "error: phi(6) not divisible by phi(3)\n"


def test_oversized_ramanujan_sweep_refused_before_it_starts(capsys, monkeypatch):
    def never(q, m):
        raise AssertionError("sweep started")

    monkeypatch.setattr(ramanujan, "ramanujan_closed", never)
    code, out, err = _run(capsys, ["verify", "ramanujan", "--q-max", "2000000", "--m-max", "0"])
    assert code == 2
    assert out == "" and err.startswith("error: direct sums capped")


@pytest.mark.parametrize(
    "argv",
    [
        ["ramanujan", "--q", "30", "--m", "7", "--output", "json"],
        ["verify", "parity", "--x", "16", "--output", "json"],
        ["psi2", "--q", "4", "--a", "1", "--x", "1000", "--output", "json"],
        ["count", "--q", "1", "--a", "1", "--n-max", "50"],
        ["constant", "--q", "3", "--a", "2", "--cutoff", "10000", "--output", "json"],
        ["compare", "--q", "4", "--a", "1", "--x-max", "1000", "--steps", "3",
         "--cutoff", "1000", "--output", "csv"],
    ],
)
def test_output_is_deterministic(capsys, argv):
    first_code, first_out, _ = _run(capsys, argv)
    second_code, second_out, _ = _run(capsys, argv)
    assert first_code == second_code
    assert first_out == second_out


# Each request is run in a child interpreter, once per hash seed; the child
# prints every request's exit code and stdout as JSON.
_CHILD_SCRIPT = """
import contextlib, io, json, sys
from quadprimes import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_output_is_byte_identical_across_hash_seeds():
    requests = [
        ["verify", "char", "--x", "36", "--output", "json"],
        ["verify", "identity", "--q", "4", "--a", "1", "--x", "100", "--output", "json"],
        ["constant", "--q", "1", "--a", "1", "--cutoff", "1000", "--output", "json"],
        ["compare", "--q", "4", "--a", "1", "--x-max", "10000", "--steps", "4",
         "--cutoff", "1000", "--output", "csv"],
    ]
    package_root = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root}
        child = subprocess.run([sys.executable, "-c", _CHILD_SCRIPT, json.dumps(requests)],
                               env=env, capture_output=True, check=True)
        runs.append(json.loads(child.stdout))
    first, second = runs
    assert [code for code, _ in first] == [1, 1, 0, 0]
    assert all(out for _, out in first)
    for argv, run_a, run_b in zip(requests, first, second):
        assert run_a == run_b, argv
