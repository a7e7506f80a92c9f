"""Polynomial preconditions: one guard per entry point, and the module graph they keep."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import quadprimes
from quadprimes import arith, asymptotics, identity, poly

PACKAGE = Path(quadprimes.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def _imports(module: str) -> tuple[set[str], set[tuple[str, str]]]:
    """Sibling modules `module` imports, and the (sibling, name) pairs it
    takes or reads with an underscore name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    siblings: set[str] = set()
    private: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                siblings.update(alias.name for alias in node.names)
            else:
                siblings.add(node.module)
                private.update((node.module, alias.name) for alias in node.names
                               if alias.name.startswith("_"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            private.add((node.value.id, node.attr))
    return siblings, private


def test_module_graph():
    graph = {module: _imports(module) for module in MODULES}
    for module, (_, private) in graph.items():
        assert not private, (module, sorted(private))
    # The scale path stays independent of the identity path it cross-checks.
    assert not graph["asymptotics"][0] & {"identity", "indicator"}
    assert "indicator" not in graph["identity"][0]
    assert "poly" in graph["asymptotics"][0] and "poly" in graph["identity"][0]
    # The sieve is a layer under both routes it serves.
    assert graph["sieve"][0] == {"arith", "poly"}


def test_identity_reexports_the_polynomial_record():
    assert identity.check_admissible is poly.check_admissible
    assert identity.PolynomialSpec is poly.PolynomialSpec
    assert quadprimes.check_admissible is poly.check_admissible


ENTRY_POINTS = {
    "lhs_quadratic_psi": ("x", lambda spec, bound: identity.lhs_quadratic_psi(spec, bound)),
    "psi2_count": ("x", lambda spec, bound: asymptotics.psi2_count(spec, bound)),
    "compare_asymptotic": (
        "x_max", lambda spec, bound: asymptotics.compare_asymptotic(spec, bound, 1, cutoff=100)),
    "linear_psi_odd": ("X", lambda spec, bound: asymptotics.linear_psi_odd(spec, bound)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_preconditions(entry):
    name, call = ENTRY_POINTS[entry]
    inadmissible = poly.check_admissible(3, 3)
    with pytest.raises(ValueError, match=r"^\(q=3, a=3\) is not admissible: gcd"):
        call(inadmissible, 100)
    with pytest.raises(ValueError, match=rf"^{name} must be >= 1$"):
        call(poly.check_admissible(4, 1), 0)
    with pytest.raises(OverflowError, match="exceeds 64-bit range"):
        call(poly.check_admissible(2**40, 1), 2**25)
    # Admissibility is reported first when the bound is wrong too.
    with pytest.raises(ValueError, match="is not admissible"):
        call(inadmissible, 0)


def test_count_primes_poly_takes_only_the_range_guard():
    # t^2 + 1 is inadmissible (q + a even) but countable: n = 1, 2, 4, 6, 10.
    gaussian = poly.check_admissible(1, 1)
    assert not gaussian.admissible
    assert asymptotics.count_primes_poly(gaussian, 10).prime_count == 5
    for n_max in (0, -3):
        with pytest.raises(ValueError, match=r"^n_max must be >= 1$"):
            asymptotics.count_primes_poly(gaussian, n_max)
    # q * n_max^2 = 2**66: the range is taken on f(n_max), not on n_max.
    with pytest.raises(OverflowError, match=r"at t = 67108864$"):
        asymptotics.count_primes_poly(poly.check_admissible(2**40, 1), 2**13)
    assert asymptotics.count_primes_poly(poly.check_admissible(2**40, 1), 2**11).n_max == 2**11


def test_require_range_edges():
    spec = poly.check_admissible(2, -1)
    poly.require_range(spec, (arith.U64_MAX + 1) // 2, "x")
    with pytest.raises(OverflowError):
        poly.require_range(spec, (arith.U64_MAX + 1) // 2 + 1, "x")


def test_lambda_weight_reads_zero_below_one():
    for value in (0, -1, -2**63):
        assert poly.lambda_weight(value) == 0.0
    for value in range(1, 200):
        assert poly.lambda_weight(value) == arith.von_mangoldt(value), value
