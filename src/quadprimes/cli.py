"""Command-line front end.

Each subcommand's handler calls the library and returns what it measured:
inputs, result, diagnostics and an exit code.  `run` alone owns the rest:
it wraps those in the one report envelope (command, inputs, result,
diagnostics), renders it as JSON, human text or, for `compare`, CSV, and
maps errors to exit codes.  Output is deterministic: floats are rendered
with 15 significant digits, dict key order is fixed by construction, and CSV
uses LF line endings, so identical argv yields byte-identical bytes.

Exit codes: 0 success (verifications all passing), 1 verification
counterexample, 2 usage, capacity or output-file error, or a standard output
that its reader closed.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Any, Optional

from . import asymptotics, identity, ramanujan, verification
from .errors import CapacityError, LemmaCounterexample, PrecisionError

FLOAT_FORMAT = ".15g"


def _scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    if value is None:
        return "-"
    return str(value)


def render_json(payload: Any) -> str:
    """`json.dumps(payload, indent=2)`, with the scalars written as `_scalar` writes them.

    One walk writes the layout.  Ints, bools and finite floats are bare, the
    floats at 15 significant digits; nan, inf, -inf and Fractions have no JSON
    numeral, so they are strings, as the human output prints them.  Dict keys
    are str()'d; strings, None and anything else go to json.dumps, which
    raises TypeError on what it cannot encode.
    """
    return _json(payload, "")


def _json(value: Any, pad: str) -> str:
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{inner}{json.dumps(str(k))}: {_json(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    if isinstance(value, int) or isinstance(value, float) and math.isfinite(value):
        return _scalar(value)
    if isinstance(value, (float, Fraction)):
        return json.dumps(_scalar(value))
    return json.dumps(value)


def _human_lines(obj: Any, indent: int = 0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, dict) and value:
                yield f"{pad}{key}:"
                yield from _human_lines(value, indent + 1)
            elif isinstance(value, (list, tuple)) and value:
                if all(not isinstance(i, (dict, list, tuple)) for i in value):
                    yield f"{pad}{key}: [" + ", ".join(_scalar(i) for i in value) + "]"
                else:
                    yield f"{pad}{key}:"
                    yield from _human_lines(value, indent + 1)
            else:
                yield f"{pad}{key}: {_scalar(value)}"
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            if isinstance(item, dict):
                yield pad + ", ".join(f"{k}={_scalar(v)}" for k, v in item.items())
            elif isinstance(item, (list, tuple)):
                yield pad + ", ".join(_scalar(i) for i in item)
            else:
                yield pad + _scalar(item)


def _comparison_csv(rows: list[dict[str, Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["x", "psi2", "conjectured", "ratio"])
    writer.writerows([_scalar(value) for value in row.values()] for row in rows)
    return buffer.getvalue()


# What a handler measured: inputs, result, diagnostics and the exit code.
Report = tuple[dict[str, Any], dict[str, Any], dict[str, Any], int]


def _cmd_ramanujan(args: argparse.Namespace) -> Report:
    methods: dict[str, int] = {}
    if args.q <= ramanujan.DIRECT_Q_CAP:
        methods["direct"] = ramanujan.ramanujan_direct(args.q, args.m)
    methods["closed"] = ramanujan.ramanujan_closed(args.q, args.m)
    methods["divisor"] = ramanujan.ramanujan_divisor(args.q, args.m)
    agree = len(set(methods.values())) == 1
    return (
        {"q": args.q, "m": args.m},
        {"value": methods["closed"], "methods": methods, "methods_agree": agree},
        {},
        0 if agree else 1,
    )


def _single_config(args: argparse.Namespace) -> Optional[list[tuple[int, int, int]]]:
    given = (args.q, args.a, args.x)
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise ValueError("--q, --a and --x must be given together")
    return [(args.q, args.a, args.x)]


def _cmd_verify(args: argparse.Namespace) -> Report:
    if args.suite == "ramanujan":
        inputs: dict[str, Any] = {"q_max": args.q_max, "m_max": args.m_max}
        report = verification.verify_ramanujan(args.q_max, args.m_max)
    elif args.suite == "parity":
        inputs = {"x": args.x, "regime": args.regime, "c": args.c}
        report = verification.verify_parity(args.x, args.regime, args.c)
    elif args.suite == "char":
        inputs = {"x": args.x, "regime": args.regime, "c": args.c}
        report = verification.verify_char(args.x, args.regime, args.c)
    else:
        configs = _single_config(args)
        inputs = {
            "configs": configs if configs is not None else "default grid",
            "regime": args.regime,
            "c": args.c,
        }
        suite_fn = {
            "identity": verification.verify_identity,
            "main-term": verification.verify_main_term,
            "error-term": verification.verify_error_term,
        }[args.suite]
        report = suite_fn(configs, regime=args.regime, c=args.c)
    result = {
        "suite": report.suite,
        "cases_run": report.cases_run,
        "cases_passed": report.cases_passed,
        "counterexamples": [
            {"inputs": ce.inputs, "expected": ce.expected, "got": ce.actual}
            for ce in report.counterexamples
        ],
    }
    return inputs, result, {"all_passed": report.all_passed}, 0 if report.all_passed else 1


def _cmd_psi2(args: argparse.Namespace) -> Report:
    spec = identity.check_admissible(args.q, args.a)
    result = asymptotics.psi2_count(spec, args.x, collect_hits=args.collect_hits)
    body: dict[str, Any] = {
        "psi2": result.psi_value,
        "prime_count": result.prime_count,
        "n_max": result.n_max,
    }
    if result.hits is not None:
        body["hits"] = [list(hit) for hit in result.hits]
    return {"q": args.q, "a": args.a, "x": args.x}, body, {"admissible": spec.admissible}, 0


def _cmd_count(args: argparse.Namespace) -> Report:
    spec = identity.check_admissible(args.q, args.a)
    result = asymptotics.count_primes_poly(spec, args.n_max)
    assert result.hits is not None
    body = {
        "prime_count": result.prime_count,
        "n_values": [hit[0] for hit in result.hits],
        "primes": [hit[1] for hit in result.hits],
        "psi_value": result.psi_value,
    }
    inputs = {"q": args.q, "a": args.a, "n_max": args.n_max}
    return inputs, body, {"admissible": spec.admissible}, 0


def _cmd_constant(args: argparse.Namespace) -> Report:
    spec = identity.check_admissible(args.q, args.a)
    other_variant = "paper" if args.variant == "hl" else "hl"
    report, other = asymptotics.euler_products(spec, args.cutoff, (args.variant, other_variant))
    return (
        {"q": args.q, "a": args.a, "variant": args.variant, "cutoff": args.cutoff},
        {
            "estimate": report.estimate,
            "epsilon": report.epsilon,
            "trace": [[p, value] for p, value in report.trace],
        },
        {
            "comparison_variant": other_variant,
            "comparison_estimate": other.estimate,
            "difference": abs(report.estimate - other.estimate),
        },
        0,
    )


def _cmd_compare(args: argparse.Namespace) -> Report:
    spec = identity.check_admissible(args.q, args.a)
    rows = asymptotics.compare_asymptotic(spec, args.x_max, args.steps, args.cutoff)
    result = {"rows": [{"x": row.x, "psi2": row.psi2, "conjectured": row.conjectured,
                        "ratio": row.ratio} for row in rows]}
    if args.csv_path:
        with open(args.csv_path, "w", newline="") as handle:
            handle.write(_comparison_csv(result["rows"]))
    inputs = {"q": args.q, "a": args.a, "x_max": args.x_max, "steps": args.steps,
              "cutoff": args.cutoff}
    return inputs, result, {"csv_path": args.csv_path}, 0


def _add_output_flag(parser: argparse.ArgumentParser, extra: tuple[str, ...] = ()) -> None:
    parser.add_argument(
        "--output",
        choices=("human", "json") + extra,
        default="human",
        help="report format (default: human)",
    )


def _add_context_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--regime", choices=("minimal", "inflated"), default="minimal",
                        help="how far above x the modulus prime sits")
    parser.add_argument("--c", type=float, default=1.0,
                        help="growth exponent constant for the inflated regime")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadprimes",
        description="Ramanujan sums, square indicators, and prime counts over q*n^2 + a.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_ram = sub.add_parser("ramanujan", help="evaluate c_q(m) by all methods")
    p_ram.add_argument("--q", type=int, required=True)
    p_ram.add_argument("--m", type=int, required=True)
    _add_output_flag(p_ram)
    p_ram.set_defaults(handler=_cmd_ramanujan)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    vsub = p_verify.add_subparsers(dest="suite", required=True)

    v_ram = vsub.add_parser("ramanujan", help="three-way c_q(m) agreement")
    v_ram.add_argument("--q-max", type=int, default=200)
    v_ram.add_argument("--m-max", type=int, default=200)
    _add_output_flag(v_ram)
    v_ram.set_defaults(handler=_cmd_verify)

    for name, help_text in (
        ("parity", "sign and sum values of c_N at shifted arguments"),
        ("char", "exponential-sum square indicator vs integer root"),
    ):
        v = vsub.add_parser(name, help=help_text)
        v.add_argument("--x", type=int, required=True)
        _add_context_flags(v)
        _add_output_flag(v)
        v.set_defaults(handler=_cmd_verify)

    for name, help_text in (
        ("identity", "quadratic sum equals its linear expansion"),
        ("main-term", "off-diagonal main term vanishes"),
        ("error-term", "error-term split reconciliation and bound"),
    ):
        v = vsub.add_parser(name, help=help_text)
        v.add_argument("--q", type=int)
        v.add_argument("--a", type=int)
        v.add_argument("--x", type=int)
        _add_context_flags(v)
        _add_output_flag(v)
        v.set_defaults(handler=_cmd_verify)

    p_psi2 = sub.add_parser("psi2", help="weighted prime-power count over q*n^2 + a")
    p_psi2.add_argument("--q", type=int, required=True)
    p_psi2.add_argument("--a", type=int, required=True)
    p_psi2.add_argument("--x", type=int, required=True)
    p_psi2.add_argument("--collect-hits", action="store_true")
    _add_output_flag(p_psi2)
    p_psi2.set_defaults(handler=_cmd_psi2)

    p_count = sub.add_parser("count", help="primes of the form q*n^2 + a up to n_max")
    p_count.add_argument("--q", type=int, required=True)
    p_count.add_argument("--a", type=int, required=True)
    p_count.add_argument("--n-max", type=int, required=True)
    _add_output_flag(p_count)
    p_count.set_defaults(handler=_cmd_count)

    p_const = sub.add_parser("constant", help="truncated Euler product density constant")
    p_const.add_argument("--q", type=int, required=True)
    p_const.add_argument("--a", type=int, required=True)
    p_const.add_argument("--variant", choices=("hl", "paper"), default="hl")
    p_const.add_argument("--cutoff", type=int, default=asymptotics.DEFAULT_EULER_CUTOFF)
    _add_output_flag(p_const)
    p_const.set_defaults(handler=_cmd_constant)

    p_cmp = sub.add_parser("compare", help="psi2 against the conjectured sqrt(x) curve")
    p_cmp.add_argument("--q", type=int, required=True)
    p_cmp.add_argument("--a", type=int, required=True)
    p_cmp.add_argument("--x-max", type=int, required=True)
    p_cmp.add_argument("--steps", type=int, default=8)
    p_cmp.add_argument("--cutoff", type=int, default=asymptotics.DEFAULT_EULER_CUTOFF)
    p_cmp.add_argument("--csv-path", help="also write the table to this file")
    _add_output_flag(p_cmp, extra=("csv",))
    p_cmp.set_defaults(handler=_cmd_compare)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Built on the first request, not at import, then reused: parsing, a
    # usage error and --help all leave the parser as it was.
    return build_parser()


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs, result, diagnostics, code = args.handler(args)
    except (ValueError, ArithmeticError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LemmaCounterexample, PrecisionError) as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return 1
    if args.output == "csv":
        sys.stdout.write(_comparison_csv(result["rows"]))
        return code
    command = f"verify {args.suite}" if args.subcommand == "verify" else args.subcommand
    payload = {"command": command, "inputs": inputs, "result": result, "diagnostics": diagnostics}
    print(render_json(payload) if args.output == "json" else "\n".join(_human_lines(payload)))
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: an output error.  Point stdout at devnull
        # so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
