import ast
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cwclifford.core import (DIM_LIMITS, Multivector, _rows_gp,
                             _rows_norm_squared, _rows_of, _rows_scaled,
                             _rows_sum, blade_from_indices, blade_indices, blade_mul,
                             blade_square_sign, gp, grade, grade_involution,
                             grade_project, involute, left_contract,
                             random_multivector, reversal, threshold,
                             trace_pairing, volume_element)
from cwclifford.errors import (DimensionMismatch, DimensionTooLarge,
                               InputError, NotGradeOne)


def e(n, mu):
    return Multivector.basis_vector(n, mu)


def test_blade_mul_examples():
    # e1*e1 = -1, anticommutation, absorption
    assert blade_mul(0b1, 0b1) == (0, -1)
    assert blade_mul(0b01, 0b10) == (0b11, 1)
    assert blade_mul(0b10, 0b01) == (0b11, -1)
    assert blade_mul(0b11, 0b10) == (0b01, -1)


def test_blade_helpers():
    assert blade_from_indices([1, 3]) == 0b101
    assert blade_indices(0b101) == (1, 3)
    with pytest.raises(ValueError):
        blade_from_indices([2, 2])


def test_generator_relations_exact():
    for n in range(1, 7):
        for mu in range(1, n + 1):
            for nu in range(1, n + 1):
                lhs = gp(e(n, mu), e(n, nu)) + gp(e(n, nu), e(n, mu))
                want = Multivector.scalar(n, -2.0) if mu == nu else \
                    Multivector.zero(n)
                assert lhs == want


def test_gp_simple_products():
    n = 2
    one = Multivector.unit(n)
    a = one + e(n, 1)
    b = one - e(n, 1)
    assert gp(a, b) == Multivector.scalar(n, 2.0)
    g12 = Multivector.blade(n, 0b11)
    assert gp(g12, g12) == Multivector.scalar(n, -1.0)


def test_gp_associative_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = random_multivector(rng, 5, 8)
        b = random_multivector(rng, 5, 8)
        c = random_multivector(rng, 5, 8)
        lhs = gp(gp(a, b), c)
        rhs = gp(a, gp(b, c))
        assert (lhs - rhs).is_zero(1e-12 * (1 + a.norm() * b.norm() * c.norm()))


def test_gp_distributive_random():
    rng = np.random.default_rng(7)
    a = random_multivector(rng, 4, 6)
    b = random_multivector(rng, 4, 6)
    c = random_multivector(rng, 4, 6)
    assert (gp(a, b + c) - gp(a, b) - gp(a, c)).is_zero(1e-12)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gp(Multivector.unit(2), Multivector.unit(3))


def test_grade_project():
    n = 2
    a = e(n, 1) + Multivector.blade(n, 0b11)
    assert grade_project(a, 1) == e(n, 1)
    assert grade_project(Multivector.scalar(n, 5.0), 0) == Multivector.scalar(n, 5.0)
    assert grade_project(gp(e(n, 1), e(n, 1)), 1) == Multivector.zero(n)


def test_grade_projections_sum_to_identity():
    rng = np.random.default_rng(3)
    a = random_multivector(rng, 4, 10)
    total = Multivector.zero(4)
    for k in range(5):
        total = total + grade_project(a, k)
    assert total == a


def test_involutions_examples():
    n = 2
    assert involute(e(n, 1), "grade") == -e(n, 1)
    g12 = Multivector.blade(n, 0b11)
    assert involute(g12, "grade") == g12
    assert involute(g12, "reverse") == -g12
    with pytest.raises(ValueError):
        involute(g12, "conjugate")


def test_involution_properties_random():
    rng = np.random.default_rng(11)
    a = random_multivector(rng, 4, 8)
    b = random_multivector(rng, 4, 8)
    assert grade_involution(grade_involution(a)) == a
    assert reversal(reversal(a)) == a
    # grade involution is an automorphism
    assert (grade_involution(gp(a, b))
            - gp(grade_involution(a), grade_involution(b))).is_zero(1e-12)
    # reversal is an antiautomorphism
    assert (reversal(gp(a, b)) - gp(reversal(b), reversal(a))).is_zero(1e-12)


def test_volume_element():
    v2 = volume_element(2)
    assert v2 == Multivector.blade(2, 0b11, 1j)
    v3 = volume_element(3)
    assert v3 == Multivector.blade(3, 0b111, -1.0)
    v4 = volume_element(4)
    assert v4 == Multivector.blade(4, 0b1111, -1.0)
    for n in range(1, 11):
        v = volume_element(n)
        assert gp(v, v) == Multivector.unit(n)


def test_left_contract():
    n = 3
    g12 = Multivector.blade(n, 0b011)
    assert left_contract(e(n, 1), g12) == e(n, 2)
    assert left_contract(e(n, 3), g12) == Multivector.zero(n)
    with pytest.raises(NotGradeOne):
        left_contract(g12, g12)


def test_contraction_is_half_s_map_for_even_blades():
    # s_{c,c}(v) = 2 v | c when c is a blade of even grade
    from cwclifford.qpair import s_map
    rng = np.random.default_rng(5)
    for n, mask in ((4, 0b0011), (5, 0b11110), (6, 0b110011)):
        c = Multivector.blade(n, mask, complex(rng.standard_normal()))
        v = random_multivector(rng, n, 3, grades=[1])
        assert (s_map(c, c, v) - 2 * left_contract(v, c)).is_zero(1e-12)


def test_trace_pairing():
    n = 3
    assert trace_pairing(Multivector.blade(n, 0b011),
                         Multivector.blade(n, 0b101)) == 0
    assert trace_pairing(Multivector.unit(n), Multivector.unit(n)) == 1
    assert trace_pairing(e(n, 1), e(n, 1)) == -1


def test_blade_square_sign_vs_closed_form():
    # never used in code, but the closed form (-1)^(k(k+1)/2) must agree
    for n in (1, 3, 6):
        for mask in range(1, 1 << n):
            k = grade(mask)
            assert blade_square_sign(mask) == (-1) ** ((k * (k + 1) // 2) % 2)


# -- the product kernel against the per-bit reference ----------------------

def reference_blade_mul(i, j):
    """Move the generators of j into i one at a time, lowest first: one swap
    per generator of the product above e_mu, one -1 per contraction."""
    sign = 1
    acc = i
    rest = j
    while rest:
        low = rest & -rest
        mu = low.bit_length() - 1
        if (acc >> (mu + 1)).bit_count() & 1:
            sign = -sign
        if acc & low:
            sign = -sign
        acc ^= low
        rest ^= low
    return acc, sign


def reference_gp(a, b):
    out = {}
    for i, x in a.terms():
        for j, y in b.terms():
            k, s = reference_blade_mul(i, j)
            out[k] = out.get(k, 0j) + s * x * y
    return Multivector(a.dim, out)


def bits(a):
    """The terms of a, with every float spelled out (signed zeros too)."""
    return sorted((m, c.real.hex(), c.imag.hex()) for m, c in a.terms())


def test_blade_mul_matches_reference_exhaustive_n8():
    for i in range(1 << 8):
        for j in range(1 << 8):
            assert blade_mul(i, j) == reference_blade_mul(i, j), (i, j)


def test_blade_mul_matches_reference_random_n12():
    rng = np.random.default_rng(12)
    for i, j in rng.integers(0, 1 << 12, size=(20000, 2)).tolist():
        assert blade_mul(i, j) == reference_blade_mul(i, j), (i, j)


def test_gp_matches_reference_product_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for _ in range(4):
            a = random_multivector(rng, n, int(rng.integers(1, 24)))
            b = random_multivector(rng, n, int(rng.integers(1, 24)))
            assert bits(gp(a, b)) == bits(reference_gp(a, b)), n


def test_subtraction_is_adding_the_negation_bit_for_bit():
    rng = np.random.default_rng(6)
    zeros = [complex(0.0, -0.0), complex(-0.0, 1.5), complex(2.5, -0.0)]
    for n in (2, 4, 9):
        for _ in range(10):
            # signed zeros on overlapping blades 0-3, kept as given
            a = Multivector(n, {**dict(random_multivector(rng, n, 6).terms()),
                                **dict(zip(range(3), zeros))})
            b = Multivector(n, {**dict(random_multivector(rng, n, 6).terms()),
                                **dict(zip(range(1, 4), zeros))})
            assert bits(a - b) == bits(a + (-b))
            assert bits(a - a) == []
    with pytest.raises(DimensionMismatch):
        Multivector.unit(2) - Multivector.unit(3)


def row_terms(table, k):
    """Row k of a row table as a Multivector's terms in dict order, and its
    largest coefficient size."""
    lo, hi = table.ptr[k], table.ptr[k + 1]
    return ([(int(m), complex(r, i)) for m, r, i in zip(
        table.blade[lo:hi], table.re[lo:hi], table.im[lo:hi])],
        float(table.top[k]))


def dict_terms(a):
    return list(a.terms()), a._top


def test_row_kernels_match_the_multivector_arithmetic():
    """gp, sums, scalar multiples and norms of many elements at once give
    the values (a zero's sign aside), dict order and cuts of Multivector."""
    rng = np.random.default_rng(11)
    for n in (2, 4, 7):
        xs = [random_multivector(rng, n, int(rng.integers(0, 16)))
              * float(10.0 ** rng.integers(-6, 7)) for _ in range(24)]
        table = _rows_of(xs)
        ia, ib = (x.ravel() for x in np.indices((len(xs), len(xs))))
        f = rng.standard_normal(len(ia))
        for out, build in (
                (_rows_gp(table, ia, table, ib, n), lambda a, b, _: gp(a, b)),
                (_rows_sum(table, ia, table, ib, 1.0, True, n),
                 lambda a, b, _: a + b),
                (_rows_sum(table, ia, table, ib, -1.0, True, n),
                 lambda a, b, _: a - b),
                (_rows_scaled(table, ia, f), lambda a, b, c: a * complex(c))):
            for k in range(len(ia)):
                assert row_terms(out, k) == dict_terms(
                    build(xs[ia[k]], xs[ib[k]], f[k])), (n, k)
        many = _rows_gp(table, ia, table, ib, n)
        assert _rows_norm_squared(many).tolist() == [
            gp(xs[i], xs[j]).norm() ** 2 for i, j in zip(ia, ib)]


def test_non_finite_coefficients_raise():
    with pytest.raises(OverflowError):
        Multivector(2, {1: float("nan")})
    with pytest.raises(OverflowError):
        Multivector(2, {3: complex(0.0, float("-inf"))})
    with pytest.raises(OverflowError):
        Multivector(1, {0: float("inf")})
    with pytest.raises(OverflowError):   # inf - inf no longer vanishes
        Multivector(1, {0: 1e308}) - Multivector(1, {0: -1e308})
    c = Multivector(2, {1: 1e200, 2: 1e200})
    with pytest.raises(OverflowError):   # -inf scalar and a NaN e_{1,2}
        gp(c, c)


def test_zero_is_one_instance_per_dimension():
    assert Multivector.zero(3) is Multivector.zero(3)
    assert Multivector.zero(3) is not Multivector.zero(4)
    assert Multivector.zero(4) == Multivector(4, {}) and not list(
        Multivector.zero(4).terms())
    assert Multivector.zero(3) + e(3, 1) == e(3, 1)
    assert Multivector.zero(3).is_zero()
    with pytest.raises(DimensionTooLarge):
        Multivector.zero(13)


@st.composite
def multivectors(draw, dim=3):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mask = draw(st.integers(0, (1 << dim) - 1))
        coeff = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        terms[mask] = terms.get(mask, 0) + coeff
    return Multivector(dim, terms)


@settings(max_examples=60, deadline=None)
@given(multivectors(), multivectors(), multivectors())
def test_associativity_property(a, b, c):
    assert (gp(gp(a, b), c) - gp(a, gp(b, c))).is_zero(1e-9)


@settings(max_examples=60, deadline=None)
@given(multivectors(), multivectors())
def test_reversal_antihomomorphism_property(a, b):
    assert (reversal(gp(a, b)) - gp(reversal(b), reversal(a))).is_zero(1e-9)


def test_readme_dimension_limits_match_core():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Dimension limits", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (\d+)-(\d+) \|", section, re.M)
    assert {key: (int(lo), int(hi)) for key, lo, hi in rows} == DIM_LIMITS


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0, -1e-9])
def test_threshold_refuses_a_factor_that_is_not_finite_and_positive(factor):
    with pytest.raises(InputError, match="tolerance factor"):
        threshold(factor, 1.0)


def test_threshold_is_the_factor_times_the_norm_without_a_floor():
    assert threshold(1e-9, 4.0) == 4e-9
    assert threshold(1e-9, 0.0) == 0.0


def test_pruning_is_relative_to_the_operands():
    # raw terms: relative to the largest coefficient, whatever its size
    tiny = Multivector(2, {0b00: 1e-20, 0b01: 1e-34, 0b10: 1e-33})
    assert dict(tiny.terms()) == {0b00: 1e-20, 0b10: 1e-33}
    # a sum cuts at PRUNE_EPS times its operands' largest coefficient, so
    # what is rounding of the operands goes, though it is large in the sum
    a = Multivector(2, {0b00: 1.0, 0b01: 1e-13})
    b = Multivector(2, {0b00: 1.0, 0b01: 1e-13 - 2e-27})
    assert (a - b).is_zero()
    assert not Multivector(2, {0b01: 2e-27}).is_zero()
    # a product at PRUNE_EPS max |a| max |b|
    x = Multivector(2, {0b00: 1.0, 0b01: 1e8})
    y = Multivector(2, {0b00: 1e-6, 0b10: 1e3})
    assert gp(x, y).coefficient(0b00) == 0 and \
        gp(x, y).coefficient(0b01) == 1e2


def test_pickle_keeps_every_term():
    a = random_multivector(np.random.default_rng(5), 6, 9) + \
        Multivector.blade(6, 0b11, 1e-15)
    back = pickle.loads(pickle.dumps(a))
    assert back == a and back._top == a._top


def test_small_float_literals_live_in_the_tolerance_table():
    """Every float literal below 1e-6 in the package is a constant of the
    tolerance table of core (module-level names ending in _TOL or _EPS), so
    the tolerance policy stays in one place."""
    package = Path(__file__).parents[1] / "src" / "cwclifford"
    table, strays = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in tree.body:
            names = [t.id for t in getattr(node, "targets", ())
                     if isinstance(t, ast.Name)]
            if any(name.endswith(("_TOL", "_EPS")) for name in names):
                assert path.name == "core.py", f"{path.name} defines {names}"
                table.update(names)
                allowed.update(map(id, ast.walk(node)))
        strays += [f"{path.name}:{node.lineno}: {node.value!r}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, (float, complex))
                   and 0 < abs(node.value) < 1e-6 and id(node) not in allowed]
    assert not strays
    assert table == {"PRUNE_EPS", "ORTHOGONALITY_TOL", "ORACLE_TOL",
                     "CHECK_TOL", "CLUSTER_TOL"}
