"""The operations each benchmark workload runs, and the digests that check them.

An operation is a ``(label, thunk)`` pair.  Every thunk reaches the library
through module attributes (``verification.verify_ramanujan``), looked up when
the thunk runs, never through the names ``quadprimes/__init__.py`` re-exports:
those are bound at import time and would bypass the tracer's wrappers.

``suites``, ``identity`` and ``scale`` run fixed inputs (the acceptance gate's
and the sizes named in README.md), so the seed does not change them.
``cli_mix`` sends a fixed sequence of requests from ``cli_catalogue()``; the
seed picks each one's output format.  Every request a pass can send has a
recorded reference, so any seed's requests are checked.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from fractions import Fraction
from typing import Any, Callable

from quadprimes import asymptotics, cli, identity, verification

WORKLOADS = ("suites", "identity", "scale", "cli_mix")

Operation = tuple[str, Callable[[], Any]]

# Requests per cli_mix pass.  The mix is synthetic: there is no usage data to
# weight it by, so every request kind (each subcommand, and each suite of
# ``verify``) gets the same number of requests, and about one request in ten
# must be refused with exit 2.  Every parameter that sets a request's cost or
# memory (x, q, a, cutoff, regime, ...), and the order, is the same for every
# seed; the seed picks only each request's output format.  So every seed
# sends the same work, and the latencies and the peak memory move with the
# program, not with the seed.
REQUESTS_PER_KIND = 25
REFUSED_PER_PASS = 30

_FORMATS = ("human", "json")
_PAIRS = ((4, 1), (2, 1), (3, 2), (5, 2), (8, 3), (2, 3), (6, 1))


def suites_ops() -> list[Operation]:
    """Acceptance criteria 1-3 with the gate's inputs."""
    v = verification
    ops: list[Operation] = [("verify_ramanujan(300, 300)", lambda: v.verify_ramanujan(300, 300))]
    ops += [(f"verify_parity({x})", lambda x=x: v.verify_parity(x))
            for x in (9, 16, 25, 100, 121, 144)]
    ops += [(f"verify_char({x})", lambda x=x: v.verify_char(x)) for x in (16, 100, 144, 1296)]
    ops.append(("verify_liouville(100000)", lambda: v.verify_liouville(10**5)))
    return ops


def identity_ops() -> list[Operation]:
    """Identity, main-term and error-term suites: default grid, x = 1e4, float path."""
    v = verification
    at_cap = [(q, a, identity.ERROR_TERM_X_CAP) for q, a in verification.IDENTITY_PAIRS]
    ops: list[Operation] = []
    for grid_label, configs in (("default grid", None), ("pairs at x=10000", at_cap)):
        for name in ("verify_identity", "verify_main_term", "verify_error_term"):
            ops.append((f"{name}({grid_label})",
                        lambda name=name, configs=configs: getattr(v, name)(configs)))
    ops.append(("verify_identity([(4, 1, 1024)])", lambda: v.verify_identity([(4, 1, 1024)])))
    return ops


def scale_ops() -> list[Operation]:
    """psi2 at 1e10, both Euler-product variants at 3e6, an 8-step comparison at 1e9.

    A pass takes about 2 s, so a 30 s run holds a dozen passes; at ten
    times these sizes a run held three.  The Euler products stay about a
    quarter of the pass.
    """
    a = asymptotics
    quartic = identity.check_admissible(4, 1)
    gaussian = identity.check_admissible(1, 1)
    return [
        ("psi2_count(4n^2+1, 10**10)", lambda: a.psi2_count(quartic, 10**10)),
        ("bateman_horn_constant(n^2+1, 3*10**6, hl)",
         lambda: a.bateman_horn_constant(gaussian, 3 * 10**6, "hl")),
        ("bateman_horn_constant(n^2+1, 3*10**6, paper)",
         lambda: a.bateman_horn_constant(gaussian, 3 * 10**6, "paper")),
        ("compare_asymptotic(4n^2+1, 10**9, 8)",
         lambda: a.compare_asymptotic(quartic, 10**9, 8)),
    ]


def _argv(*parts: Any) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


Entry = tuple[tuple[str, ...], ...]


def _outputs(*parts: Any, formats: tuple[str, ...] = _FORMATS) -> Entry:
    """One catalogue entry: the same request in each output format."""
    return tuple(_argv(*parts, "--output", o) for o in formats)


def cli_catalogue() -> dict[str, list[Entry]]:
    """The requests cli_mix picks from: kind -> entries, ordered by the
    parameter that sets most of their cost.

    An entry holds one request in its output-format variants; they differ in
    nothing that sets the cost.
    """
    cat: dict[str, list[Entry]] = {}
    cat["ramanujan"] = [_outputs("ramanujan", "--q", q, "--m", m)
                        for q in (1, 2, 6, 12, 30, 64, 97, 210, 360, 1000)
                        for m in (-15, -8, -1, 0, 7, 12, 30, 210)]
    cat["verify-ramanujan"] = [_outputs("verify", "ramanujan", "--q-max", q, "--m-max", m)
                               for q in (5, 10, 20, 30) for m in (5, 10, 20, 30)]
    cat["verify-parity"] = [_outputs("verify", "parity", "--x", x, "--regime", r)
                            for x in (9, 16, 25, 49, 64, 100, 121, 144, 225, 256, 361, 400)
                            for r in ("minimal", "inflated")]
    cat["verify-char"] = [_outputs("verify", "char", "--x", x, "--regime", r)
                          for x in (16, 24, 36, 64, 80, 100, 144, 196, 256, 288, 324, 400)
                          for r in ("minimal", "inflated")]
    suite_x = {"identity": (16, 36, 64, 100, 144, 196, 256, 324, 400),
               "main-term": (16, 64, 144, 256, 400),
               "error-term": (16, 64, 144, 256, 400)}
    for suite, xs in suite_x.items():
        cat[f"verify-{suite}"] = [_outputs("verify", suite, "--q", q, "--a", a, "--x", x)
                                  for x in xs for q, a in _PAIRS]
    cat["psi2"] = [_outputs("psi2", "--q", q, "--a", a, "--x", 10**k, *hits)
                   for k in (4, 5, 6, 7, 8) for q, a in _PAIRS
                   for hits in ((), ("--collect-hits",))]
    cat["count"] = [_outputs("count", "--q", q, "--a", a, "--n-max", n)
                    for n in (10, 100, 500, 2000)
                    for q, a in ((1, 1), (4, 1), (2, 1), (1, 2), (3, 2), (1, 4))]
    cat["constant"] = [_outputs("constant", "--q", q, "--a", a, "--variant", v, "--cutoff", 10**k)
                       for k in (3, 4, 5, 6) for q, a in ((1, 1), (4, 1), (2, 1), (3, 2))
                       for v in ("hl", "paper")]
    cat["compare"] = [_outputs("compare", "--q", q, "--a", a, "--x-max", 10**k, "--steps", s,
                               "--cutoff", 10**c, formats=("human", "json", "csv"))
                      for k in (4, 6, 8) for c in (3, 4, 5)
                      for q, a in ((4, 1), (2, 1), (3, 2)) for s in (2, 4, 8)]
    cat["refused"] = [
        # inadmissible pairs: gcd(a, q) > 1, or q + a even
        *(_outputs("psi2", "--q", q, "--a", a, "--x", 10**6)
          for q, a in ((1, 1), (3, 3), (2, 2), (3, 1))),
        *(_outputs("compare", "--q", q, "--a", a, "--x-max", 10**6, formats=("csv",))
          for q, a in ((1, 1), (3, 3))),
        *((_argv("verify", "identity", "--q", 1, "--a", 1, "--x", x),) for x in (16, 100)),
        # odd floor(sqrt(x))
        *(_outputs("verify", "char", "--x", x)
          for x in (9, 25, 49, 81, 121, 169, 225, 289, 361)),
        *((_argv("verify", suite, "--q", 4, "--a", 1, "--x", x),)
          for suite in ("identity", "main-term", "error-term") for x in (9, 25, 121)),
        # out-of-range or incomplete arguments
        (_argv("verify", "main-term", "--q", 4, "--a", 1),),
        (_argv("verify", "error-term", "--q", 4, "--a", 1, "--x", 10404),),
        (_argv("verify", "ramanujan", "--q-max", 0),),
        (_argv("verify", "parity", "--x", 2),),
        (_argv("constant", "--q", 1, "--a", 1, "--cutoff", 2),),
        (_argv("constant", "--q", 1, "--a", 1, "--cutoff", 10**9),),
        (_argv("compare", "--q", 4, "--a", 1, "--x-max", 10**4, "--steps", 0),),
        (_argv("psi2", "--q", 4, "--a", 1, "--x", 0),),
        (_argv("count", "--q", 1, "--a", 1, "--n-max", 0),),
        # grammar errors caught by argparse
        (_argv("ramanujan", "--q", 3),),
        (_argv("psi2", "--q", 4, "--a", 1, "--x", "1e6"),),
        (_argv("verify", "nosuch"),),
        (_argv("compare", "--q", 4, "--a", 1, "--x-max", 100, "--output", "xml"),),
    ]
    return cat


def cli_requests() -> list[tuple[str, ...]]:
    """Every request a cli_mix pass can send, each output format separately."""
    return [argv for entry in sorted(set(cli_mix_entries())) for argv in entry]


def cli_mix_quotas() -> dict[str, int]:
    """Requests per kind in one cli_mix pass."""
    return {kind: REFUSED_PER_PASS if kind == "refused" else REQUESTS_PER_KIND
            for kind in cli_catalogue()}


def cli_mix_entries() -> list[Entry]:
    """The entries every cli_mix pass sends: each kind's quota, spaced evenly over its list."""
    catalogue = cli_catalogue()
    return [catalogue[kind][i * len(catalogue[kind]) // quota]
            for kind, quota in cli_mix_quotas().items() for i in range(quota)]


def cli_mix_requests(seed: int) -> list[tuple[str, ...]]:
    """The seed's request sequence: the entries in one fixed shuffled order,
    each in an output format the seed picks.

    The order is the same for every seed because requests share the
    library's caches within a pass, so the order sets how much work each
    request does.
    """
    entries = cli_mix_entries()
    random.Random(0).shuffle(entries)
    rng = random.Random(seed)
    return [rng.choice(entry) for entry in entries]


def run_cli(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """One in-process CLI request with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_label(argv: tuple[str, ...]) -> str:
    return "cli:" + " ".join(argv)


def operations(workload: str, seed: int) -> list[Operation]:
    if workload == "cli_mix":
        return [(cli_label(argv), lambda argv=argv: run_cli(argv))
                for argv in cli_mix_requests(seed)]
    builders = {"suites": suites_ops, "identity": identity_ops, "scale": scale_ops}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return [(f"{workload}:{label}", thunk) for label, thunk in builders[workload]()]


def _canonical(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj):
        return {f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return repr(obj)  # round-trips exactly
    return obj


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(label: str, result: Any) -> tuple[int, str]:
    """(exit status, digest) of one operation's result.

    CLI requests give their exit code and a digest of stdout and stderr.
    Library calls give status 0 and a digest of every field of the returned
    report or value, floats at full precision.
    """
    if label.startswith("cli:"):
        code, out, err = result
        return code, _sha(out + "\0" + err)
    return 0, _sha(json.dumps(_canonical(result), sort_keys=True))
