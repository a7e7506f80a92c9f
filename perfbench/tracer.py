"""Per-layer call counts and self times, from wrappers installed on the library.

``Tracer.install()`` replaces the public functions listed in ``LAYERS`` with
wrappers by setting the module attributes (``quadprimes.arith.is_prime`` and
so on).  Calls made inside the library resolve those names through the
module, so they pass through the wrappers too.

Counts and self times are aggregated online: ``scale`` makes about 640 000
``integer_root`` calls a pass, and keeping a span per call would distort the peak
memory the benchmark reports.  Individual spans are kept only at the layer
boundary, where an operation of the workload enters the library.

Self time is a call's duration minus the durations of the wrapped calls made
inside it.  For the ``iter_primes`` generator the timed span is each step of
the iteration, not the call that creates the generator.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
from typing import Any, Callable, Optional

LAYERS: dict[str, tuple[str, ...]] = {
    "arith": ("is_prime", "prime_power_base", "integer_root", "jacobi", "iter_primes",
              "factorize", "mobius", "euler_phi", "liouville", "von_mangoldt",
              "next_prime_above"),
    "ramanujan": ("ramanujan_direct", "ramanujan_closed", "ramanujan_divisor", "parity_sum"),
    "indicator": ("square_char_exp_value", "square_char_liouville", "square_char_isqrt"),
    "identity": ("lhs_quadratic_psi", "rhs_linear_expansion", "main_term_decomposition",
                 "error_term_decomposition", "error_term_total", "make_context"),
    "asymptotics": ("psi2_count", "count_primes_poly", "linear_psi_odd",
                    "bateman_horn_constant", "compare_asymptotic"),
    "verification": ("verify_ramanujan", "verify_parity", "verify_char", "verify_liouville",
                     "verify_identity", "verify_main_term", "verify_error_term"),
    "cli": ("run", "build_parser", "render_json"),
}

GENERATORS = {"arith.iter_primes"}

# Named extras beyond <layer>.<function>.calls and .self_s, with their units.
EXTRAS: dict[str, str] = {
    "arith.integer_root.exact_frac": "ratio",
    "arith.factor_cache.hit_ratio": "ratio",
    "identity.rhs_linear_expansion.float_runs": "count",
    "asymptotics.psi2_count.n_scanned": "count",
    "asymptotics.compare_asymptotic.rescan_ratio": "ratio",
    **{f"verification.{name}.cases": "count" for name in LAYERS["verification"]},
    "cli.render_json.bytes": "bytes",
}


def function_keys() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


class Tracer:
    """Wraps the functions in LAYERS; one instance per traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {key: 0 for key in function_keys()}
        self.self_s: dict[str, float] = {key: 0.0 for key in function_keys()}
        self.counters: dict[str, float] = {
            "integer_root.exact": 0, "psi2.n_scanned": 0, "rhs.float_runs": 0,
            "compare.child_scanned": 0, "compare.n_at_x_max": 0, "render_json.bytes": 0,
            **{f"{name}.cases": 0 for name in LAYERS["verification"]},
        }
        # Each open frame is [wrapped-child time, key]; the top is the caller.
        self.stack: list[list[Any]] = []
        # (operation index, key, start, end) for calls entered from outside the library.
        self.spans: list[tuple[int, str, float, float]] = []
        self.op = -1
        # Time spent in hooks inside an open span, charged to no function.
        self.nested_hook_s = 0.0
        self._saved: list[tuple[Any, str, Callable[..., Any]]] = []

    def install(self) -> None:
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"quadprimes.{layer}")
            for name in names:
                original = getattr(module, name)
                key = f"{layer}.{name}"
                wrapper = (self._wrap_generator if key in GENERATORS else self._wrap)(key, original)
                self._saved.append((module, name, original))
                setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        hook = _HOOKS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, key]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[key] += 1
                self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    spans.append((self.op, key, start, end))
            if hook is not None:
                # The hook is tracing overhead: keep its time out of the
                # caller's self time, as the wrapped call's own time is.
                hook_start = clock()
                hook(self, args, kwargs, result)
                if stack:
                    hook_s = clock() - hook_start
                    stack[-1][0] += hook_s
                    self.nested_hook_s += hook_s
            return result

        return wrapper

    def _wrap_generator(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack, calls, self_s = self.stack, self.calls, self.self_s
        clock = time.perf_counter

        def step(inner: Any) -> Any:
            frame = [0.0, key]
            stack.append(frame)
            start = clock()
            try:
                return next(inner)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            inner = fn(*args, **kwargs)

            def timed() -> Any:
                while True:
                    try:
                        value = step(inner)
                    except StopIteration:
                        return
                    yield value

            return timed()

        return wrapper

    def parent(self) -> Optional[str]:
        return self.stack[-1][1] if self.stack else None

    def metrics(self, factor_cache_info: Any) -> dict[str, float]:
        """Every per-layer metric of this pass, by name."""
        out: dict[str, float] = {}
        for key in function_keys():
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        c = self.counters
        roots = self.calls["arith.integer_root"]
        out["arith.integer_root.exact_frac"] = c["integer_root.exact"] / roots if roots else 0.0
        lookups = factor_cache_info.hits + factor_cache_info.misses
        out["arith.factor_cache.hit_ratio"] = factor_cache_info.hits / lookups if lookups else 0.0
        out["identity.rhs_linear_expansion.float_runs"] = c["rhs.float_runs"]
        out["asymptotics.psi2_count.n_scanned"] = c["psi2.n_scanned"]
        at_max = c["compare.n_at_x_max"]
        out["asymptotics.compare_asymptotic.rescan_ratio"] = (
            c["compare.child_scanned"] / at_max if at_max else 0.0)
        for name in LAYERS["verification"]:
            out[f"verification.{name}.cases"] = c[f"{name}.cases"]
        out["cli.render_json.bytes"] = c["render_json.bytes"]
        return out


def _odd_count(n_max: int) -> int:
    return (n_max + 1) // 2


def _integer_root(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    bound = dict(zip(("n", "k"), args), **kwargs)
    if result ** bound["k"] == bound["n"]:
        tracer.counters["integer_root.exact"] += 1


def _psi2_count(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    scanned = _odd_count(result.n_max)
    tracer.counters["psi2.n_scanned"] += scanned
    if tracer.parent() == "asymptotics.compare_asymptotic":
        tracer.counters["compare.child_scanned"] += scanned


def _compare_asymptotic(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["compare.n_at_x_max"] += _odd_count(math.isqrt(result[-1].x))


def _rhs_linear_expansion(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result[1] is not None:
        tracer.counters["rhs.float_runs"] += 1


def _render_json(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["render_json.bytes"] += len(result.encode())


def _cases(name: str) -> Callable[[Tracer, tuple, dict, Any], None]:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counters[f"{name}.cases"] += result.cases_run
    return hook


_HOOKS: dict[str, Callable[[Tracer, tuple, dict, Any], None]] = {
    "arith.integer_root": _integer_root,
    "asymptotics.psi2_count": _psi2_count,
    "asymptotics.compare_asymptotic": _compare_asymptotic,
    "identity.rhs_linear_expansion": _rhs_linear_expansion,
    "cli.render_json": _render_json,
    **{f"verification.{name}": _cases(name) for name in LAYERS["verification"]},
}
