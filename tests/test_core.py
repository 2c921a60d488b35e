import ast
import math
import operator
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cwclifford import core
from cwclifford.core import (_GP_BLOCK, DIM_LIMITS, PRUNE_EPS, Multivector,
                             _cut_rows, _element, _kept, _rows_fold, _rows_gp,
                             _rows_norm, _rows_of, _rows_scaled, _rows_sum,
                             _volume_twist,
                             blade_from_indices, blade_indices, blade_mul,
                             blade_square_sign, gp, grade, grade_involution,
                             random_multivector, threshold, verdict_threshold,
                             volume_element)
from cwclifford.cw import CWElement, _element_norms
from cwclifford.errors import DimensionMismatch, DimensionTooLarge, InputError


def e(n, mu):
    return Multivector.basis_vector(n, mu)


def grade_project(a, k):
    """Keep exactly the blades of grade k."""
    return Multivector(a.dim,
                       {m: c for m, c in a.terms() if grade(m) == k})


def reversal(a):
    """The antiautomorphism fixing V: grade-k terms pick up
    (-1)^(k(k-1)/2), which is -1 for k = 2, 3 mod 4."""
    return Multivector(a.dim, {m: -c if grade(m) % 4 >= 2 else c
                               for m, c in a.terms()})


def left_contract(v, a):
    """Interior product v | a for a grade-1 element v."""
    if v.dim != a.dim:
        raise DimensionMismatch(f"dimensions differ: {v.dim} vs {a.dim}")
    out = {}
    for gmask, gcoeff in v.terms():
        if grade(gmask) != 1:
            raise ValueError("left_contract needs a pure grade-1 argument")
        for mask, c in a.terms():
            if mask & gmask:
                below = (mask & (gmask - 1)).bit_count()
                key = mask ^ gmask
                out[key] = out.get(key, 0j) + (-1) ** below * gcoeff * c
    return Multivector(a.dim, out)


def trace_pairing(a, b):
    """Normalized trace form <a, b>: the scalar part of a * reversal(b).

    Distinct blades pair to zero; <Gamma_I, Gamma_I> = (-1)^grade(I), so the
    pairing has unit magnitude on the blade basis.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    rev = reversal(b)
    return sum((x * rev.coefficient(m) * blade_square_sign(m)
                for m, x in a.terms()), 0j)


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
    assert grade_involution(e(n, 1)) == -e(n, 1)
    g12 = Multivector.blade(n, 0b11)
    assert grade_involution(g12) == g12
    assert reversal(g12) == -g12


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


def test_volume_twist_is_the_product_with_the_volume_element():
    """_volume_twist(x) is gp(volume_element(n), x) bit for bit: the same
    coefficient bits in the same dict order, and the same _top, on every
    blade for n = 1..12 and on random elements of any scale, among them
    elements holding terms below PRUNE_EPS times their largest, which the
    product cuts."""
    rng = np.random.default_rng(25)
    for n in range(1, 13):
        vol = volume_element(n)
        xs = [Multivector.blade(n, j) for j in range(1 << n)]
        for _ in range(40):
            x, y = (random_multivector(rng, n, int(rng.integers(0, 30)))
                    for _ in range(2))
            wide = _element(n, {m: z * 10.0 ** -rng.integers(0, 20)
                                for m, z in x.terms()}, 0.0)
            xs += [x * float(10.0 ** rng.integers(-300, 301)), gp(x, y), wide]
        for x in xs:
            got, want = _volume_twist(x), gp(vol, x)
            assert [(m, z.real.hex(), z.imag.hex()) for m, z in got.terms()] \
                == [(m, z.real.hex(), z.imag.hex()) for m, z in want.terms()]
            assert got._top == want._top and got.dim == n


def test_left_contract():
    n = 3
    g12 = Multivector.blade(n, 0b011)
    assert left_contract(e(n, 1), g12) == e(n, 2)
    assert left_contract(e(n, 3), g12) == Multivector.zero(n)
    with pytest.raises(ValueError):
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


def test_gp_leaves_no_negative_zero():
    """One multiply per term product, (-x or x) * y, may give a zero part a
    negative sign where sign * x * y does not; the sums from 0j erase it."""
    rng = np.random.default_rng(9)
    parts = [0.0, -0.0, 1.5, -2.0, 0.25]
    for n in (1, 3, 6):
        for _ in range(40):
            a, b = (Multivector(n, {
                int(m): complex(*rng.choice(parts, 2)) or 1.0
                for m in rng.integers(0, 1 << n, 5)}) for _ in range(2))
            assert bits(gp(a, b)) == bits(reference_gp(a, b))
            for _, z in gp(a, b).terms():
                assert math.copysign(1.0, z.real) == 1.0 or z.real != 0.0
                assert math.copysign(1.0, z.imag) == 1.0 or z.imag != 0.0


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


def unsummed(a, sign, b):
    """The terms of a, then of sign b, uncut, and their largest size."""
    return (list(a.terms()) + [(m, sign * z) for m, z in b.terms()],
            max(a._top, b._top))


def test_row_kernels_match_the_multivector_arithmetic():
    """gp, sums, scalar multiples and norms of many elements at once give
    the values (a zero's sign aside), dict order and cuts of Multivector.
    _collect groups by a stable sort of the row-blade keys alone; the last
    two tables give it a few full rows at n = 8, whose keys fill the table
    of all keys, and many one- and two-term rows, whose keys are sparse in
    it.  A fold of adjacent rows is their sum or difference where summed,
    elsewhere (one row empty) the two rows' terms uncut."""
    rng = np.random.default_rng(11)
    for n, size, low, high in ((2, 24, 0, 16), (4, 24, 0, 16), (7, 24, 0, 16),
                               (8, 3, 256, 257), (8, 48, 1, 3)):
        xs = [random_multivector(rng, n, int(rng.integers(low, high)))
              * float(10.0 ** rng.integers(-6, 7)) for _ in range(size)]
        table = _rows_of(xs)
        ia, ib = (x.ravel() for x in np.indices((len(xs), len(xs))))
        f = rng.standard_normal(len(ia))
        for out, build in (
                (_rows_gp(table, ia, table, ib, n), lambda a, b, _: gp(a, b)),
                (_rows_sum(table, ia, table, ib, 1.0, n),
                 lambda a, b, _: a + b),
                (_rows_sum(table, ia, table, ib, -1.0, n),
                 lambda a, b, _: a - b),
                (_rows_scaled(table, ia, f), lambda a, b, c: a * complex(c))):
            for k in range(len(ia)):
                assert row_terms(out, k) == dict_terms(
                    build(xs[ia[k]], xs[ib[k]], f[k])), (n, k)
        side_by_side = _rows_of([xs[k] for k in np.stack((ia, ib), 1).flat])
        empty = np.array([not x._terms for x in xs])
        summed = (rng.random(len(ia)) < 0.5) | ~(empty[ia] | empty[ib])
        for sign, op in ((1.0, operator.add), (-1.0, operator.sub)):
            out = _rows_fold(side_by_side, sign, summed, n)
            for k, (a, b) in enumerate(zip(ia, ib)):
                a, b = xs[a], xs[b]
                assert row_terms(out, k) == (dict_terms(op(a, b)) if summed[k]
                                             else unsummed(a, sign, b)), (n, k)
        # a table of no rows stands for the empty row -1
        out = _rows_sum(table, ia, _rows_of([]), np.full(len(ia), -1), -1.0,
                        n)
        for k in range(len(ia)):
            assert row_terms(out, k) == dict_terms(xs[ia[k]] - Multivector(n))
        many = _rows_gp(table, ia, table, ib, n)
        prods = [gp(xs[i], xs[j]) for i, j in zip(ia, ib)]
        assert _rows_norm(many).tolist() == [x.norm() for x in prods]
        # four products a CWElement, as its norm sums their squares
        whole = len(prods) // 4 * 4
        assert _element_norms(_rows_norm(many)[:whole]).tolist() == [
            CWElement(*prods[k:k + 4]).norm() for k in range(0, whole, 4)]
    # gp(a, b) leaves 1.5e-14 e_1 - 1.5e-14 e_2 beside 2 e_{1,2}, above gp's
    # cut and below a sum's: a fold keeps them unsummed and cuts them summed
    a = Multivector(4, {0b00: 1.0, 0b11: 1.0, 0b01: 1.5e-14})
    b = Multivector(4, {0b00: 1.0, 0b11: 1.0})
    ab, zero = gp(a, b), Multivector.zero(4)
    assert len((ab + zero)._terms) == len(ab._terms) - 2 == 1
    table = _rows_of([ab, zero, zero, ab])
    for sign, op in ((1.0, operator.add), (-1.0, operator.sub)):
        kept = _rows_fold(table, sign, np.array([False, False]), 4)
        cut = _rows_fold(table, sign, np.array([True, True]), 4)
        assert row_terms(kept, 0) == unsummed(ab, sign, zero)
        assert row_terms(kept, 1) == unsummed(zero, sign, ab)
        assert row_terms(cut, 0) == dict_terms(op(ab, zero))
        assert row_terms(cut, 1) == dict_terms(op(zero, ab))
        # a table of no rows, and one of empty rows
        none = _rows_fold(_rows_of([]), sign, np.zeros(0, bool), 4)
        assert none.ptr.tolist() == [0] and len(none.top) == 0
        for summed in (False, True):
            empty = _rows_fold(_rows_of([zero] * 4), sign,
                               np.full(2, summed), 4)
            assert empty.ptr.tolist() == [0, 0, 0]
            assert empty.top.tolist() == [0.0, 0.0]


def test_cut_rows_takes_each_rows_top_before_the_cut():
    """A row that keeps its largest size reads it bit for bit; a row whose
    largest size sits exactly at its cut comes back empty with top 0.0.
    Each row is compared with the element the same cut builds (_element;
    with own, the cut raised to PRUNE_EPS times the row's largest size, as
    the raw-terms constructor raises it), under a scalar, a per-row and an
    own cut, both as a row table (_cut_rows) and laid out as dense
    (rows, 2^n) parts (_kept), which keep the element's coefficients at
    its blades and 0.0 elsewhere, with their sizes, whose largest is the
    row's top.  A NaN or infinite entry or cut raises
    OverflowError in both."""
    rng = np.random.default_rng(29)
    n = 4
    count = rng.integers(0, 7, 40)
    count[:3] = [1, 4, 0]
    ptr = np.concatenate(([0], count.cumsum()))
    row = np.arange(len(count)).repeat(count)
    blade = np.concatenate([rng.permutation(1 << n)[:k] for k in count])
    z = (rng.standard_normal(ptr[-1]) + 1j * rng.standard_normal(ptr[-1])) \
        * 10.0 ** rng.integers(-18, 3, ptr[-1])
    size = abs(z)
    top = np.array([size[a:b].max(initial=0.0)
                    for a, b in zip(ptr[:-1], ptr[1:])])
    # per row: no cut, its largest size exactly, its smallest size, 1e-9
    pick = rng.integers(0, 4, len(count))
    pick[:3] = [1, 1, 2]
    low = np.array([size[a:b].min(initial=0.0)
                    for a, b in zip(ptr[:-1], ptr[1:])])
    per_row = np.choose(pick, [np.zeros(len(count)), top, low,
                               np.full(len(count), 1e-9)])
    dense = np.zeros((len(count), 1 << n), complex)
    dense[row, blade] = z
    emptied = 0
    for cut, own in ((top[1], False), (0.0, False), (per_row, False),
                     (0.0, True), (per_row, True)):
        out = _cut_rows(ptr, row, blade, z.real.copy(), z.imag.copy(), cut,
                        own)
        re, im, kept = _kept(dense.real, dense.imag, cut, own)
        for k in range(len(count)):
            c = cut[k] if np.ndim(cut) else cut
            if own:
                c = max(c, PRUNE_EPS * top[k])
            want = _element(n, dict(zip(blade[ptr[k]:ptr[k + 1]].tolist(),
                                        z[ptr[k]:ptr[k + 1]])), c)
            assert row_terms(out, k) == dict_terms(want), (cut, own, k)
            assert [(re[k, m], im[k, m]) for m in range(1 << n)] == [
                (want.coefficient(m).real, want.coefficient(m).imag)
                for m in range(1 << n)], (cut, own, k)
            assert kept[k].tolist() == np.hypot(re[k], im[k]).tolist()
            assert kept[k].max() == want._top, (cut, own, k)
            emptied += top[k] > 0.0 and top[k] == c
    assert emptied >= 5   # each cut empties a row at its largest size
    entry = row[7], blade[7]    # entry 7 in the dense layout
    for bad in (math.nan, math.inf):
        for k in range(3):      # an entry's real or imaginary part, the cut
            parts = [z.real.copy(), z.imag.copy(), per_row.copy()]
            parts[k][7] = bad
            re, im = dense.real.copy(), dense.imag.copy()
            re[entry], im[entry] = parts[0][7], parts[1][7]
            with pytest.raises(OverflowError):
                _cut_rows(ptr, row, blade, *parts)
            with pytest.raises(OverflowError):
                _kept(re, im, parts[2])


def test_rows_gp_sums_a_row_above_the_block_in_blocks_of_left_terms():
    """A row of more than _GP_BLOCK term products goes in blocks of its left
    terms, its sums carried uncut from block to block by _gp_sums; it
    still gives gp's values (a zero's sign aside), dict order and cut, the
    order taken from where each blade first appears.  The rows: full
    and near-full elements at n = 8-10, a 4096-term element at n = 12 on
    either side (4 left terms per block, or 5), a real full element at
    n = 8 times its reversal, whose terms of grade 2, 3, 6 and 7 cancel
    across blocks to rounding and are cut, and rows of at most a block
    between them."""
    rng = np.random.default_rng(17)
    for n, ka, kb in ((8, 256, 256), (10, 300, 60), (12, 4096, 5)):
        a, b = random_multivector(rng, n, ka), random_multivector(rng, n, kb)
        real = Multivector(n, {m: z.real for m, z in b.terms()})
        xs = [a, b, real, e(n, 1), reversal(real)]
        table = _rows_of(xs)
        ia, ib = np.array([0, 3, 1, 2, 3]), np.array([1, 0, 0, 4, 1])
        assert ka * kb > _GP_BLOCK
        out = _rows_gp(table, ia, table, ib, n)
        for k in range(len(ia)):
            assert row_terms(out, k) == dict_terms(gp(xs[ia[k]], xs[ib[k]]))
        if n == 8:
            assert len(gp(real, reversal(real))._terms) == 256 - 120


def test_rows_gp_carries_a_big_rows_sums_in_gp_sums_alone(monkeypatch):
    """A single row of more than _GP_BLOCK term products takes its sums
    from _gp_sums, the one carried summation of the row kernels, and makes
    no _collect call, so no second carried summation comes back."""
    calls = []
    for name in ("_gp_sums", "_collect"):
        monkeypatch.setattr(core, name, lambda *args, f=getattr(core, name),
                            name=name: calls.append(name) or f(*args))
    rng = np.random.default_rng(3)
    a, b = random_multivector(rng, 8, 200), random_multivector(rng, 8, 100)
    assert len(a._terms) * len(b._terms) > _GP_BLOCK
    table = _rows_of([a, b])
    out = _rows_gp(table, np.array([0]), table, np.array([1]), 8)
    assert calls == ["_gp_sums"]
    assert row_terms(out, 0) == dict_terms(gp(a, b))


def test_norm_sums_the_squares_in_order():
    """1e16 + 1 + 1 is 1e16 in order; a compensated sum (math.fsum, or sum
    from Python 3.12 on) is 1e16 + 2.  The row kernels sum in order."""
    a = Multivector(2, {0: 1e8, 1: 1.0, 2: 1.0})
    squares = [abs(z) ** 2 for _, z in a.terms()]
    assert math.fsum(squares) == 1e16 + 2
    assert a.norm() == 1e8 != math.fsum(squares) ** 0.5
    z = Multivector.zero(2)
    assert _rows_norm(_rows_of([a])).tolist() == [a.norm()]
    assert _element_norms(_rows_norm(_rows_of([a, z, z, a]))).tolist() == [
        CWElement(a, z, z, a).norm()]


def test_norm_scales_squares_past_the_double_range():
    """A square of 1e200, or a sum of squares of 1e154, overflows; norm()
    sums those scaled by the largest size, as the row form does not."""
    assert Multivector(2, {1: 1e200, 2: -1e200j}).norm() == \
        pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
    a = Multivector(2, {0: 1e154, 3: 1e154})
    assert a.norm() == pytest.approx(math.sqrt(2) * 1e154, rel=1e-15)
    with pytest.raises(OverflowError):
        _rows_norm(_rows_of([Multivector(2, {1: 1e200})]))


def test_norm_scales_squares_below_the_normal_range():
    """Squares of 1e-200 underflow to 0, so the norm of a nonzero element
    read 0; norm() and the row form sum such rows scaled by the largest
    size, bit for bit alike, and keep the plain sum's bits elsewhere."""
    tiny = [Multivector(2, {1: 1e-200, 2: -1e-200j}),
            Multivector(3, {0: 3e-170, 5: 4e-170}),
            Multivector(3, {1: 1e-160, 6: 1e-300}),
            Multivector(1, {0: 5e-324})]
    assert tiny[0].norm() == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15,
                                             abs=0)
    assert tiny[1].norm() == pytest.approx(5e-170, rel=1e-15, abs=0)
    assert tiny[3].norm() == 5e-324
    rng = np.random.default_rng(13)
    plain = [random_multivector(rng, 4, 6) * float(10.0 ** k)
             for k in (-150, -8, 0, 8, 150)]
    for a in plain:
        total = 0.0
        for _, z in a.terms():
            total += abs(z) ** 2
        assert a.norm() == total ** 0.5
    rows = tiny + [Multivector.zero(3)] + plain
    assert _rows_norm(_rows_of(rows)).tolist() == [x.norm() for x in rows]
    # the element norms of CW block matrices: squares of block norms near
    # 1e-200 read 0 too, and a row of them is summed scaled as well
    z = Multivector.zero(2)
    blocks = [(tiny[0], z, Multivector(2, {3: 2e-200}), z),
              (z, z, z, Multivector(2, {0: 3e-201, 1: 4e-201})),
              (tiny[0], Multivector(2, {0: 1.0}), z, tiny[0]),
              (z, z, z, z)]
    elements = [CWElement(*x) for x in blocks]
    norms = _element_norms(np.array([[y.norm() for y in x] for x in blocks]))
    assert norms.tolist() == [x.norm() for x in elements]
    assert norms[0] == pytest.approx(math.sqrt(6) * 1e-200, rel=1e-15, abs=0)
    assert norms[1] == pytest.approx(5e-201, rel=1e-15, abs=0)
    assert norms[2] == 1.0 and norms[3] == 0.0


def test_element_norms_overflow_where_the_square_does():
    """A finite block norm whose square overflows raises, as ** does; an
    infinite block norm gives an infinite element norm, as norm() does."""
    with pytest.raises(OverflowError):
        _element_norms(np.array([1e160, 0.0, 0.0, 0.0]))
    with pytest.raises(OverflowError):
        (1e160) ** 2
    assert _element_norms(np.array([[1.0, math.inf, 0.0, 2.0],
                                    [1e150, 1e150, 0.0, 0.0]])).tolist() == [
        math.inf, CWElement(*(Multivector.scalar(1, x) for x in (
            1e150, 1e150, 0.0, 0.0))).norm()]


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


def test_basis_vectors_are_one_instance_per_dimension_and_index():
    assert e(3, 2) is e(3, 2) and e(3, 2) is not e(4, 2)
    assert e(3, 2) == Multivector(3, {0b010: 1.0})
    assert [e(12, mu)._terms for mu in range(1, 13)] == [
        {1 << k: 1 + 0j} for k in range(12)]
    for dim, mu in ((3, 0), (3, 4), (0, 1), (-1, 1)):
        with pytest.raises(DimensionMismatch):
            Multivector.basis_vector(dim, mu)
    with pytest.raises(DimensionTooLarge):
        Multivector.basis_vector(13, 1)


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


def test_verdict_threshold_is_the_threshold_unless_it_underflows():
    """factor size^degree bit for bit; a positive size whose threshold is
    subnormal, or whose size^degree underflows to 0, is refused, and size 0
    is accepted unless the data is nonzero."""
    rng = np.random.default_rng(29)
    for size in 10.0 ** rng.uniform(-140, 140, 40):
        for degree in (0.5, 1, 2):
            assert verdict_threshold(1e-9, size, degree) == \
                threshold(1e-9, size ** degree) == 1e-9 * size ** degree
    assert verdict_threshold(1.0, sys.float_info.min) == sys.float_info.min
    for factor, size, degree in ((1e-9, 1e-300, 1), (1e-9, 1e-150, 2),
                                 (1e-9, 1e-170, 2), (1e-300, 1e-10, 1)):
        with pytest.raises(InputError, match="smallest normal double"):
            verdict_threshold(factor, size, degree)
    assert verdict_threshold(1e-9, 0.0) == verdict_threshold(
        1e-9, 0.0, 2) == verdict_threshold(1e-9, 0.0, nonzero=False) == 0.0
    # a size of squares that underflows to 0 on nonzero data
    with pytest.raises(InputError, match="smallest normal double"):
        verdict_threshold(1e-9, 1e-170 ** 2, nonzero=True)
    assert verdict_threshold(1e-9, 1.0, nonzero=True) == 1e-9
    with pytest.raises(InputError, match="tolerance factor"):
        verdict_threshold(0.0, 1.0)


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
