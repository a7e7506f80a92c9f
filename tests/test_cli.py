"""CLI behavior: schema, formatting, exit codes, determinism."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quadprimes import (arith, asymptotics, cli, identity, indicator, ramanujan, sieve,
                        verification)


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_render_json_float_precision():
    text = cli.render_json({"a": 0.1 + 0.2, "b": [1.0, True, None], "c": Fraction(1, 2)})
    assert '"a": 0.3' in text
    assert '"b": [\n    1,\n    true,\n    null\n  ]' in text
    assert '"c": "1/2"' in text
    # Output must stay valid JSON with the floats written bare.
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


@pytest.mark.parametrize("payload", [
    {}, [], (), "", 0, None, True, "plain",
    {"a": {}, "b": [], "c": (), "d": [[]], "e": [{}]},
    [[[[]]], ({"k": (1, (2, 3))},), {"deep": {"deeper": {"deepest": [None]}}}],
    {"psi₂ ≈ √x": "é ψ ∑ \U0001f600", "ascii": "café"},
    {"controls": "\x00\x01\x1f\x7f\n\t\r\b\f\"\\/", "\x00key\n": "  "},
    {"big": 2**64 + 1, "neg": -(2**100), "ints": [0, -1, 2**63 - 1, 2**200]},
    {"flags": [True, False, None], "t": True, "f": False, "n": None},
    {1: "int key", "two": 2, -3: [True]},
    {"inputs": {"q": 4, "a": 1, "x": 16}, "result": {"counterexamples": [
        {"inputs": {"check": "rhs-exact-equals-lhs"}, "expected": "1/2", "got": 7}]}},
])
def test_render_json_is_json_dumps_without_floats(payload):
    assert cli.render_json(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("value, numeral", [
    (0.1 + 0.2, "0.3"),
    (15.118680070657573, "15.1186800706576"),
    (1.0, "1"),
    (-0.0, "-0"),
    (1e300, "1e+300"),
    (-2.5e-8, "-2.5e-08"),
    (float("nan"), '"nan"'),
    (float("inf"), '"inf"'),
    (float("-inf"), '"-inf"'),
    (Fraction(1, 2), '"1/2"'),
    (Fraction(-3), '"-3"'),
])
def test_render_json_writes_scalar_numerals(value, numeral):
    # Finite floats are bare, the rest are strings; the text is _scalar's.
    assert numeral.strip('"') == cli._scalar(value)
    assert cli.render_json({"v": value}) == '{\n  "v": ' + numeral + "\n}"
    assert cli.render_json([value, (value,)]) == f"[\n  {numeral},\n  [\n    {numeral}\n  ]\n]"


def test_render_json_leaves_strings_that_look_like_tokens_alone():
    payload = {"a": 1.5, "b": "\x00float0\x00"}
    assert json.loads(cli.render_json(payload)) == payload


@pytest.mark.parametrize("payload", [{"a": object()}, [{1, 2}], {"b": b"bytes"}])
def test_render_json_refuses_what_json_cannot_encode(payload):
    with pytest.raises(TypeError):
        cli.render_json(payload)


def test_render_json_time_is_linear_in_the_floats():
    # 24k floats: a render linear in the floats takes about 0.1 s.
    rows = [{"x": i, "psi2": i / 3, "conjectured": i * 0.7, "ratio": 1 + i / 7}
            for i in range(8000)]
    start = time.perf_counter()
    text = cli.render_json({"rows": rows})
    assert time.perf_counter() - start < 2
    assert json.loads(text)["rows"][7999] == {
        "x": 7999, "psi2": float(format(7999 / 3, ".15g")),
        "conjectured": float(format(7999 * 0.7, ".15g")),
        "ratio": float(format(1 + 7999 / 7, ".15g"))}


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


def test_constant_sieves_the_primes_once(capsys, monkeypatch):
    real_prime_blocks = arith.prime_blocks
    limits = []

    def spy(limit):
        limits.append(limit)
        return real_prime_blocks(limit)

    monkeypatch.setattr(arith, "prime_blocks", spy)
    code, _, err = _run(capsys, ["constant", "--q", "1", "--a", "1", "--cutoff", "100000"])
    assert (code, err) == (0, "")
    assert limits == [100000]


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


@pytest.mark.parametrize("c", ("inf", "nan", "1000000", "100"))
def test_inflated_c_past_the_64_bit_primes_exits_two(capsys, c):
    code, out, err = _run(
        capsys, ["verify", "parity", "--x", "16", "--regime", "inflated", "--c", c])
    assert (code, out) == (2, "")
    assert err.startswith("error: no prime at or above") and "x=16, c=" in err, err


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


def _numeral(value):
    return format(value, ".15g") if isinstance(value, float) else str(value)


def test_long_comparison_renders_json_as_fast_as_csv(capsys):
    # 12,402 rows: JSON must cost about what CSV does, well under a second.
    argv = ["compare", "--q", "4", "--a", "1", "--x-max", "10000000", "--steps", "20000"]
    start = time.perf_counter()
    code, out, err = _run(capsys, argv + ["--output", "json"])
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    rows = json.loads(out)["result"]["rows"]
    code, table, _ = _run(capsys, argv + ["--output", "csv"])
    assert code == 0
    header, *lines = table.splitlines()
    assert header == "x,psi2,conjectured,ratio"
    assert len(rows) == len(lines) > 10000
    assert [",".join(_numeral(v) for v in row.values()) for row in rows] == lines


def test_compare_at_the_rows_cap_answers(capsys):
    # One power per step: a million steps take about 0.2 s.
    argv = ["compare", "--q", "4", "--a", "1", "--x-max", "100",
            "--steps", str(asymptotics.COMPARE_ROWS_MAX), "--cutoff", "1000", "--output", "csv"]
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [str(x) for x in range(1, 101)]


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
    def never(limit):
        raise AssertionError("sweep started")

    monkeypatch.setattr(arith, "mobius_phi_tables", never)
    code, out, err = _run(capsys, ["verify", "ramanujan", "--q-max", "2000000", "--m-max", "0"])
    assert code == 2
    assert out == "" and err.startswith("error: direct sums capped")


def test_oversized_count_refused_before_it_starts(capsys, monkeypatch):
    def never(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr(arith, "is_prime", never)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["count", "--q", "1", "--a", "1", "--n-max", "4000000000"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == "" and err.startswith("error: n_max capped")


def test_parity_sweep_answers_at_1e8(capsys):
    # floor(sqrt(1e8)) = 10^4: 5,000 odd n <= 10^4 fail in linear mode and
    # the 5,000 odd squares in quadratic mode, each by exactly +1.
    start = time.perf_counter()
    code, out, err = _run(capsys, ["verify", "parity", "--x", "100000000", "--output", "json"])
    assert time.perf_counter() - start < 1
    assert code == 1 and err == ""
    rows = json.loads(out)["result"]["counterexamples"]
    assert len(rows) == 10_000
    assert {row["got"] - row["expected"] for row in rows} == {1}


def test_char_sweep_answers_at_1e8(capsys):
    # floor(sqrt(1e8)) = 10^4: the 5,000 odd squares each measure p/(p-1).
    start = time.perf_counter()
    code, out, err = _run(capsys, ["verify", "char", "--x", "100000000", "--output", "json"])
    assert time.perf_counter() - start < 1
    assert code == 1 and err == ""
    rows = json.loads(out)["result"]["counterexamples"]
    assert len(rows) == 5_000
    p = rows[0]["inputs"]["p"]
    assert {row["got"] for row in rows} == {f"{p}/{p - 1}"}


def test_oversized_parity_sweep_refused_before_it_starts(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("row built")

    monkeypatch.setattr(verification, "Counterexample", never)
    monkeypatch.setattr(ramanujan, "parity_sum", never)
    start = time.perf_counter()
    # 1,000,002 possible rows: floor(sqrt(x)) = 1,000,001.
    code, out, err = _run(capsys, ["verify", "parity", "--x", "1000002000001"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == "" and err.startswith("error: parity rows capped")


@pytest.mark.parametrize("argv, message", [
    # 1,000,001 odd squares: floor(sqrt(x)) = 2,000,002.
    (["verify", "char", "--x", "4000008000004"], "error: char rows capped"),
    (["verify", "identity", "--q", "4", "--a", "1", "--x", "1000000000"],
     "error: identity grids capped"),
    (["verify", "main-term", "--q", "4", "--a", "1", "--x", "1000000000"],
     "error: identity grids capped"),
])
def test_oversized_char_and_identity_sweeps_refused_before_they_start(
    capsys, monkeypatch, argv, message
):
    def never(*args, **kwargs):
        raise AssertionError("per-n check ran")

    for name in ("square_char_exp", "square_char_isqrt"):
        monkeypatch.setattr(indicator, name, never)
    monkeypatch.setattr(ramanujan, "shift_sums", never)
    for name in ("lhs_quadratic_psi", "rhs_linear_expansion", "main_term_decomposition"):
        monkeypatch.setattr(identity, name, never)
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == "" and err.startswith(message)


@pytest.mark.parametrize("argv, message", [
    (["psi2", "--q", "4", "--a", "1", "--x", "4000000000000000000"], "error: x capped"),
    (["compare", "--q", "4", "--a", "1", "--x-max", "4000000000000000000", "--steps", "8"],
     "error: x_max capped"),
    (["compare", "--q", "4", "--a", "1", "--x-max", "1000000000000", "--steps", "1000000000000"],
     "error: rows capped"),
    (["compare", "--q", "4", "--a", "1", "--x-max", "100", "--steps", "1000000000000"],
     "error: rows capped"),
    (["compare", "--q", "4", "--a", "1", "--x-max", "100",
      "--steps", str(asymptotics.COMPARE_ROWS_MAX + 1)], "error: rows capped"),
])
def test_oversized_psi2_and_compare_refused_before_they_start(capsys, monkeypatch, argv, message):
    def never(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(arith, "prime_blocks", never)
    monkeypatch.setattr(sieve, "prime_power_values", never)
    monkeypatch.setattr(asymptotics, "_per_value_hits", never)
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == "" and err.startswith(message)


def test_ramanujan_at_the_largest_prime_below_the_direct_cap(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["ramanujan", "--q", "999983", "--m", "5", "--output", "json"])
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "684ea9c4d49d"


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


# The child interpreter runs each request in turn and prints every
# request's exit code and stdout as JSON.
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


def _child_env(**env):
    package_root = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **env, "PYTHONPATH": package_root}


def _fresh_process(requests, **env):
    """Each request's [exit code, stdout], from one new interpreter."""
    child = subprocess.run([sys.executable, "-c", _CHILD_SCRIPT, json.dumps(requests)],
                           env=_child_env(**env), capture_output=True, check=True)
    return json.loads(child.stdout)


# The console script's entry point, run in a new interpreter.
_MAIN = [sys.executable, "-c", "from quadprimes.cli import main; main()"]


def test_factorization_past_64_bits_is_refused_not_run():
    # q is the product of the two largest primes below 2**64: Pollard rho on
    # this 128-bit semiprime would run without a useful bound.
    q = (2**64 - 59) * (2**64 - 83)
    child = subprocess.run([*_MAIN, "ramanujan", "--q", str(q), "--m", "1"], env=_child_env(),
                           capture_output=True, timeout=5)
    assert (child.returncode, child.stdout) == (2, b"")
    assert child.stderr == b"error: factorization supports the 64-bit range only\n"


def test_ramanujan_at_and_past_the_64_bit_edge(capsys):
    # 2**64 has cofactor 1 after trial division, so it is answered; 2**64 + 1
    # has a composite cofactor past the 64-bit contract and is refused.
    code, out, _ = _run(capsys, ["ramanujan", "--q", str(2**64), "--m", "3", "--output", "json"])
    assert code == 0 and json.loads(out)["result"]["value"] == 0
    code, out, err = _run(capsys, ["ramanujan", "--q", str(2**64 + 1), "--m", "3"])
    assert (code, out) == (2, "") and err.startswith("error:")


def test_closed_stdout_exits_two_without_a_traceback():
    # The report, about 110 KB, outgrows a 64 KB pipe buffer, so the write
    # meets the closed read end whatever the timing.
    argv = ["count", "--q", "1", "--a", "1", "--n-max", "50000", "--output", "json"]
    child = subprocess.Popen([*_MAIN, *argv], env=_child_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert child.stdout.read(10) == b'{\n  "comma'
        child.stdout.close()
        assert child.wait(timeout=30) == 2
        assert child.stderr.read() == b""
    finally:
        child.kill()
        child.stderr.close()


def test_small_output_through_a_pipe_exits_zero():
    argv = ["count", "--q", "1", "--a", "1", "--n-max", "10", "--output", "json"]
    child = subprocess.run([*_MAIN, *argv], env=_child_env(), capture_output=True, timeout=30)
    assert (child.returncode, child.stderr) == (0, b"")
    assert json.loads(child.stdout)["result"]["prime_count"] == 5


def test_output_is_byte_identical_across_hash_seeds():
    requests = [
        ["verify", "char", "--x", "36", "--output", "json"],
        ["verify", "identity", "--q", "4", "--a", "1", "--x", "100", "--output", "json"],
        ["constant", "--q", "1", "--a", "1", "--cutoff", "1000", "--output", "json"],
        ["compare", "--q", "4", "--a", "1", "--x-max", "10000", "--steps", "4",
         "--cutoff", "1000", "--output", "csv"],
    ]
    first, second = (_fresh_process(requests, PYTHONHASHSEED=seed) for seed in ("0", "4242"))
    assert [code for code, _ in first] == [1, 1, 0, 0]
    assert all(out for _, out in first)
    for argv, run_a, run_b in zip(requests, first, second):
        assert run_a == run_b, argv


def test_parser_is_built_once_and_left_unchanged(capsys, monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    valid = ["verify", "identity", "--q", "4", "--a", "1", "--x", "16", "--output", "json"]
    try:
        assert _run(capsys, ["psi2", "--q", "4", "--a", "1"])[0] == 2
        code, out, _ = _run(capsys, ["--help"])
        assert code == 0 and out.startswith("usage: quadprimes")
        code, out, _ = _run(capsys, valid)
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert [[code, out]] == _fresh_process([valid])


@pytest.mark.parametrize("suite, expected_code, digest", [
    ("identity", 1, "420e617fb54e63d1"),
    ("main-term", 0, "6d187c0f84a077b6"),
    ("error-term", 0, "83b3cf4d81b24a04"),
])
def test_verify_at_the_top_of_the_64_bit_range(capsys, suite, expected_code, digest):
    # q*x + a = 2**64 - 14: the exact paths weigh values up to the top of
    # the 64-bit range, with the same bytes as the per-value route gave.
    argv = ["verify", suite, "--q", "1152921504606846975", "--a", "2", "--x", "16",
            "--output", "json"]
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 5
    assert (code, err) == (expected_code, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
