import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cwclifford.cli import main
from cwclifford.core import (CLUSTER_TOL, PRUNE_EPS, Multivector,
                             blade_square_sign, gp, grade, random_multivector,
                             volume_element)
from cwclifford import qpair
from cwclifford.errors import (AnticommutationViolated,
                               CoefficientConstraintViolated,
                               IllegalParityPattern, InputError, OddDimension,
                               OddMultiplicity, ParityMismatch)
from cwclifford.gammarep import build_rep, extract_component, represent
from cwclifford.qpair import (SymmetricMap, _generalized_elements,
                              classify_family, extract_B,
                              linear_pair_from_parts, make_generalized,
                              make_linear, make_monomial, make_pseudo_monomial,
                              q_map, rotate_multivector, s_map,
                              skew_to_bivector)
from cwclifford.textio import load_b_file, load_params_file


def e(n, mu):
    return Multivector.basis_vector(n, mu)


def oracle_q_matrix(c, d):
    """Independent matrix-representation route to q restricted to V."""
    n = c.dim
    rep = build_rep(n, "faithful")
    a = represent(c, rep)
    b = represent(d, rep)
    m = np.zeros((n, n), dtype=complex)
    for mu in range(n):
        x = rep.blade_matrix(1 << mu)
        q = a @ a @ x + x @ b @ b - 2 * a @ x @ b
        for nu in range(n):
            m[nu, mu] = extract_component(q, 1 << nu, rep)
    return m


# -- the maps -----------------------------------------------------------------

def test_s_map_scalar_kills():
    n = 3
    alpha = Multivector.scalar(n, 1.7)
    x = Multivector.blade(n, 0b101, 2.0)
    assert s_map(alpha, alpha, x).is_zero()


def test_s_map_bivector_is_endomorphism_action():
    n = 3
    skew = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    a = skew_to_bivector(skew, n)
    for mu in range(n):
        img = s_map(a, a, e(n, mu + 1))
        want = Multivector.from_vector(n, skew[:, mu])
        assert (img - want).is_zero(1e-12)


def test_q_is_s_squared_and_sum_rule():
    rng = np.random.default_rng(0)
    n = 5
    for _ in range(10):
        a1, b1, a2, b2, x = (random_multivector(rng, n, 5) for _ in range(5))
        assert (s_map(a1, b1, s_map(a1, b1, x)) - q_map(a1, b1, x)).is_zero(1e-12)
        lhs = q_map(a1 + a2, b1 + b2, x)
        rhs = (q_map(a1, b1, x) + q_map(a2, b2, x)
               + s_map(a1, b1, s_map(a2, b2, x))
               + s_map(a2, b2, s_map(a1, b1, x)))
        assert (lhs - rhs).is_zero(1e-12 * (1 + lhs.norm()))


def test_q_scalar_pair():
    n = 3
    x = random_multivector(np.random.default_rng(1), n, 4)
    q = q_map(Multivector.scalar(n, 2.0), Multivector.scalar(n, -1.0), x)
    assert (q - 9.0 * x).is_zero(1e-12)


def test_q_rank_one_constant_fixed_by_oracle():
    # q_{w,-w} is -4 w w^t for a unit vector, not w w^t
    n = 3
    w = e(n, 1)
    assert (q_map(w, -1 * w, e(n, 1)) + 4 * e(n, 1)).is_zero(1e-14)
    assert q_map(w, -1 * w, e(n, 2)).is_zero()
    m = oracle_q_matrix(w, -1 * w)
    assert np.allclose(m, np.diag([-4.0, 0.0, 0.0]))


# -- verification -------------------------------------------------------------

def test_extract_b_monomial_example():
    pair = extract_B(Multivector.blade(3, 0b001, 2.0),
                     Multivector.blade(3, 0b001, 1.0))
    assert pair.verified
    assert np.allclose(pair.B.entries, np.diag([-1.0, -9.0, -9.0]))
    assert np.allclose(oracle_q_matrix(pair.c, pair.d),
                       np.diag([-1.0, -9.0, -9.0]))


def test_extract_b_not_closed():
    pair = extract_B(e(3, 1), e(3, 2))
    assert pair.status == "not-closed-in-V"
    assert pair.offgrade_residual > 1.0


def test_extract_b_scalar_pair():
    pair = extract_B(Multivector.zero(3), Multivector.scalar(3, 1.5))
    assert pair.verified
    assert np.allclose(pair.B.entries, 2.25 * np.eye(3))


def test_extract_b_not_symmetric():
    rng = np.random.default_rng(2)
    a0 = rng.standard_normal((4, 4))
    a0 -= a0.T
    a1 = rng.standard_normal((4, 4))
    a1 -= a1.T
    amv = skew_to_bivector(a0 + 1j * a1, 4)
    assert extract_B(amv, amv).status == "not-symmetric"


def test_scalar_gauge_invariance():
    rng = np.random.default_rng(3)
    pair = make_monomial(4, 0b0011, 1.3, -0.4)
    for _ in range(5):
        alpha = float(rng.standard_normal())
        shift = Multivector.scalar(4, alpha)
        shifted = extract_B(pair.c + shift, pair.d + shift)
        assert shifted.verified
        assert np.max(np.abs(shifted.B.entries - pair.B.entries)) < 1e-9


def test_volume_twist_even_dimension():
    # for parity-homogeneous verified pairs, (-vol*c, vol*d) is verified
    # with the map scaled by (-1)^deg c
    n = 4
    vol = volume_element(n)
    for pair, parity in ((make_monomial(n, 0b0011, 1.5, 0.25), 0),
                        (make_monomial(n, 0b0111, 0.5, 1.25), 1)):
        twisted = extract_B(-1 * gp(vol, pair.c), gp(vol, pair.d))
        assert twisted.verified
        assert np.max(np.abs(pair.B.entries
                             - (-1.0) ** parity * twisted.B.entries)) < 1e-9


def test_volume_twist_odd_dimension():
    n = 5
    vol = volume_element(n)
    pair = make_monomial(n, 0b00011, 0.7, -1.1)
    twisted = extract_B(gp(vol, pair.c), gp(vol, pair.d))
    assert twisted.verified
    assert np.max(np.abs(pair.B.entries - twisted.B.entries)) < 1e-9


# -- constructors -------------------------------------------------------------

def test_make_monomial_examples():
    pair = make_monomial(3, 0b001, 2.0, 1.0)
    assert np.allclose(pair.B.entries, np.diag([-1.0, -9.0, -9.0]))
    zero = make_monomial(3, 0b001, 0.0, 0.0)
    assert zero.verified and np.allclose(zero.B.entries, 0.0)
    degen = make_monomial(4, 0b0011, 1.0, 1.0)
    assert np.allclose(degen.B.entries, np.diag([-4.0, -4.0, 0.0, 0.0]))
    assert np.allclose(oracle_q_matrix(degen.c, degen.d), degen.B.entries)


def test_make_monomial_spectrum_vs_oracle_random():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        for mask in range(1 << n):
            alpha, beta = rng.standard_normal(2)
            pair = make_monomial(n, mask, alpha, beta)
            assert pair.verified
            sig = blade_square_sign(mask)
            eps = (-1) ** grade(mask)
            on_val = sig * (alpha + eps * beta) ** 2
            off_val = sig * (alpha - eps * beta) ** 2
            want = np.diag([on_val if (mask >> mu) & 1 else off_val
                            for mu in range(n)])
            assert np.max(np.abs(pair.B.entries - want)) < 1e-9
            assert np.max(np.abs(oracle_q_matrix(pair.c, pair.d) - want)) < 1e-9


def test_make_pseudo_monomial_even():
    pair = make_pseudo_monomial(4, 0b0011, "even", 1.3, -0.7, sign=1)
    sig = blade_square_sign(0b0011)
    want = np.diag([4 * sig * 1.3 ** 2] * 2 + [4 * sig * 0.7 ** 2] * 2)
    assert np.allclose(pair.B.entries, want)
    flipped = make_pseudo_monomial(4, 0b0011, "even", 1.3, -0.7, sign=-1)
    assert np.allclose(np.diag(flipped.B.entries),
                       [4 * sig * 0.7 ** 2] * 2 + [4 * sig * 1.3 ** 2] * 2)


def test_make_pseudo_monomial_odd():
    alpha, beta, phi = 0.9, 0.4, 0.3
    pair = make_pseudo_monomial(4, 0b0001, "odd", alpha, beta, phi=phi)
    sig = -1
    want = np.diag([sig * (alpha - beta) ** 2 * np.cos(2 * phi)]
                   + [sig * (alpha + beta) ** 2 * np.cos(2 * phi)] * 3)
    assert np.allclose(pair.B.entries, want)
    assert np.allclose(oracle_q_matrix(pair.c, pair.d), want, atol=1e-10)


def test_pseudo_monomial_odd_phi_zero_is_monomial():
    pair = make_pseudo_monomial(4, 0b0001, "odd", 0.9, 0.4, phi=0.0)
    mono = make_monomial(4, 0b0001, 0.9, 0.4)
    assert (pair.c - mono.c).is_zero(1e-14)
    assert (pair.d - mono.d).is_zero(1e-14)


def test_pseudo_monomial_rejections():
    with pytest.raises(OddDimension):
        make_pseudo_monomial(3, 0b001, "odd", 1.0, 1.0)
    with pytest.raises(ParityMismatch):
        make_pseudo_monomial(4, 0b0001, "even", 1.0, 1.0)
    with pytest.raises(ParityMismatch):
        make_pseudo_monomial(4, 0b0011, "odd", 1.0, 1.0)


def test_make_linear_examples():
    pair = make_linear(SymmetricMap.from_matrix(-4.0 * np.eye(2)))
    assert pair.c == Multivector.blade(2, 0b11, -1.0)
    assert np.allclose(pair.B.entries, -4.0 * np.eye(2))
    pos = make_linear(SymmetricMap.from_matrix(4.0 * np.eye(2)))
    assert np.allclose(pos.B.entries, 4.0 * np.eye(2))
    zero = make_linear(SymmetricMap.from_matrix(np.zeros((3, 3))))
    assert zero.c.is_zero() and np.allclose(zero.B.entries, 0.0)


def test_make_linear_random_and_rejection():
    rng = np.random.default_rng(5)
    for n, spec in ((4, [3.0, 3.0, -2.0, -2.0]), (6, [1.0, 1.0, 0.0, 0.0, -5.0, -5.0])):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = q @ np.diag(spec) @ q.T
        pair = make_linear(SymmetricMap.from_matrix(b))
        assert pair.verified
        assert np.max(np.abs(pair.B.entries - b)) < 1e-9
    with pytest.raises(OddMultiplicity):
        make_linear(SymmetricMap.from_diagonal([2.0, 2.0, 3.0]))


def test_linear_pair_from_parts():
    # block-disjoint skew parts anticommute and are accepted
    a0 = np.zeros((4, 4))
    a0[0, 1], a0[1, 0] = 1.5, -1.5
    a1 = np.zeros((4, 4))
    a1[2, 3], a1[3, 2] = 0.5, -0.5
    pair = linear_pair_from_parts(a0, a1)
    assert pair.verified
    rng = np.random.default_rng(6)
    b0 = rng.standard_normal((4, 4))
    b0 -= b0.T
    b1 = rng.standard_normal((4, 4))
    b1 -= b1.T
    with pytest.raises(AnticommutationViolated):
        linear_pair_from_parts(b0, b1)


def test_make_generalized_examples():
    pair = make_generalized(4, [0b0011, 0b1100], [1.0, 2.0])
    assert np.allclose(pair.B.entries, np.diag([-4.0, -4.0, -16.0, -16.0]))
    # odd dimension with exactly one odd part is legal
    pair5 = make_generalized(5, [0b00011, 0b01100, 0b10000], [1.0, 2.0, 3.0])
    assert pair5.verified
    with pytest.raises(CoefficientConstraintViolated):
        make_generalized(4, [0b0001, 0b0010, 0b1100], [1.0, 1.0, 1.0])
    with pytest.raises(IllegalParityPattern):
        make_generalized(6, [1, 2, 4, 0b111000], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(IllegalParityPattern):   # a hat in odd dimension
        make_generalized(3, [1, 0b110], [1.0, 1.0], [0.0, 0.5])
    with pytest.raises(CoefficientConstraintViolated):   # plain and hat
        make_generalized(4, [0b0011, 0b1100], [1.0, 0.5], [0.25, 0.0])


def test_make_generalized_spectra_vs_oracle():
    rng = np.random.default_rng(7)
    # hom-p case 1: even parts, one plain and one volume-twisted
    pair = make_generalized(6, [0b000011, 0b001100, 0b110000],
                            [1.2, 0.0, -0.8], [0.0, 0.7, 0.0])
    assert pair.verified
    assert np.max(np.abs(oracle_q_matrix(pair.c, pair.d)
                         - pair.B.entries)) < 1e-9
    # hom-p case 2: two odd parts with the cross constraint
    c0, c1, h0 = 1.1, 0.6, 0.9
    pair2 = make_generalized(6, [1, 2, 0b001100, 0b110000],
                             [c0, c1, 0.8, -1.3], [h0, c0 * c1 / h0, 0, 0])
    assert pair2.verified
    want = np.diag([-4 * (c0 ** 2 - h0 ** 2),
                    -4 * (c1 ** 2 - (c0 * c1 / h0) ** 2),
                    -4 * 0.8 ** 2, -4 * 0.8 ** 2,
                    -4 * 1.3 ** 2, -4 * 1.3 ** 2])
    assert np.max(np.abs(pair2.B.entries - want)) < 1e-9


def test_make_generalized_degenerate_inputs():
    zero = make_generalized(4, [], [])
    assert zero.verified and zero.c.is_zero()
    allzero = make_generalized(4, [0b0011, 0b1100], [0.0, 0.0])
    assert allzero.verified and np.allclose(allzero.B.entries, 0.0)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for idx in range(len(smaller)):
            yield smaller[:idx] + [[first] + smaller[idx]] + smaller[idx + 1:]
        yield [[first]] + smaller


def _role_patterns(n):
    """Partitions into >= 2 parts with at most two odd parts, each with every
    per-part role: N(one), P(lain), H(at) or B(oth)."""
    for partition in _set_partitions(list(range(n))):
        masks = [sum(1 << i for i in part) for part in partition]
        if len(masks) >= 2 and sum(grade(m) % 2 for m in masks) <= 2:
            for roles in itertools.product("NPHB", repeat=len(masks)):
                yield masks, roles


def _check_pattern(n, masks, roles, rng):
    """make_generalized against the oracle spectrum of the template pair."""
    def draw(keep):
        return [float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
                if r in keep else 0.0 for r in roles]
    coeffs, hats = draw("PB"), draw("HB")
    spectrum = np.zeros(n)
    for mask, ca, ha in zip(masks, coeffs, hats):
        sig = blade_square_sign(mask)
        val = 4 * sig * (ca * ca - ha * ha) if grade(mask) % 2 \
            else 4 * sig * (ca * ca + ha * ha)
        for mu in range(n):
            if (mask >> mu) & 1:
                spectrum[mu] = val
    c, d = _generalized_elements(n, masks, coeffs, hats)
    pair = extract_B(c, d)
    spectral = pair.verified and \
        np.max(np.abs(oracle_q_matrix(c, d) - np.diag(spectrum))) < 1e-9
    try:
        make_generalized(n, masks, coeffs, hats)
        accepted = True
    except (IllegalParityPattern, CoefficientConstraintViolated):
        accepted = False
    # With every part carrying a coefficient the rule is exact.  An empty
    # part can make a rejected pattern another partition's legal one, which
    # the classifier then finds.
    if "N" not in roles:
        assert accepted == spectral, (n, masks, roles)
    assert spectral or not accepted, (n, masks, roles)
    if spectral and set(roles) != {"N"}:   # the zero pair has no support
        assert "generalized-monomial" in classify_family(pair), (n, masks, roles)


def test_generalized_rule_matches_oracle_exhaustive():
    rng = np.random.default_rng(11)
    checked = 0
    for n in range(2, 6):
        for masks, roles in _role_patterns(n):
            _check_pattern(n, masks, roles, rng)
            checked += 1
    assert checked == 1760


def test_generalized_rule_matches_oracle_sampled_n6():
    rng = np.random.default_rng(12)
    patterns = list(_role_patterns(6))
    for idx in rng.choice(len(patterns), size=200, replace=False):
        _check_pattern(6, *patterns[idx], rng)


def test_classify_generalized_support_bound_n12():
    # two odd parts with plain and hat coefficients and five even parts:
    # 9 support blades, the most a legal pattern has at n = 12
    n = 12
    masks = [0b1, 0b10] + [0b11 << k for k in range(2, n, 2)]
    c0, c1, h0 = 1.1, 0.6, 0.9
    pair = make_generalized(n, masks, [c0, c1, 0.8, -1.3, 0.5, 1.7, -0.4],
                            [h0, c0 * c1 / h0, 0, 0, 0, 0, 0])
    support = {m for m, _ in pair.c.terms()} | {m for m, _ in pair.d.terms()}
    assert len(support) == n // 2 + 3
    assert "generalized-monomial" in classify_family(pair)


def summed_generalized_elements(dim, partition, coeffs, hat_coeffs):
    """The reference generalized pair: part by part, Multivector sums of
    the plain blades and their gp products with the volume element."""
    vol = volume_element(dim)
    c = d = Multivector.zero(dim)
    for mask, ca, ha in zip(partition, coeffs, hat_coeffs):
        gi = Multivector.blade(dim, mask)
        eps = (-1) ** grade(mask)
        c = c + ca * gi + ha * gp(vol, gi)
        d = d + (eps * ca) * gi - (eps * ha) * gp(vol, gi)
    return c, d


def test_one_pass_generalized_elements_match_the_part_sums():
    """Bits and dict order of the reference on 2000 random partitions at
    n = 2..10, coefficients zero, real, imaginary or complex.  Where some
    coefficient is at most PRUNE_EPS times another, the reference cuts it
    before the parts sum and the one pass after: the pairs then agree to
    2 PRUNE_EPS times the largest coefficient."""
    def terms(x):
        return [(m, z.real.hex(), z.imag.hex()) for m, z in x.terms()]

    rng = np.random.default_rng(2410)
    for trial in range(2000):
        n = int(rng.integers(2, 11))
        cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(1, n)),
                                  replace=False))
        parts = [sum(1 << int(i) for i in part)
                 for part in np.split(rng.permutation(n), cuts)]
        z = rng.standard_normal((2, len(parts), 2)) @ [1, 1j]
        kind = rng.integers(0, 4, z.shape)
        z = np.where(kind == 0, 0, np.where(kind == 1, z.real, np.where(
            kind == 2, 1j * z.imag, z)))
        tiny = trial % 4 == 0
        if tiny:
            z *= 10.0 ** rng.integers(-18, 1, z.shape)
        coeffs, hats = z.tolist()
        got = _generalized_elements(n, parts, coeffs, hats)
        want = summed_generalized_elements(n, parts, coeffs, hats)
        for x, y in zip(got, want):
            if tiny:
                top = max(map(abs, coeffs + hats))
                assert (x - y).is_zero(2 * PRUNE_EPS * top), (n, parts)
            else:
                assert terms(x) == terms(y) and x._top == y._top, (n, parts)


def test_constructors_form_no_product_outside_extract_b(gp_calls,
                                                        monkeypatch):
    """The pseudo-monomial and generalized constructors twist by the
    volume element with no gp; their only products are extract_B's."""
    def extract(c, d, *args, f=qpair.extract_B):
        start = len(gp_calls)
        pair = f(c, d, *args)
        del gp_calls[start:]
        return pair

    monkeypatch.setattr(qpair, "extract_B", extract)
    for n in (2, 4, 6, 12):
        make_pseudo_monomial(n, 0b11, "even", 0.7, 1.2, sign=-1)
        make_pseudo_monomial(n, 0b1, "odd", 0.7, 1.2, phi=0.4, psi=0.3)
    make_generalized(4, [0b0001, 0b1110], [1, 2], [2, 1])
    make_generalized(6, [0b11, 0b1100, 0b110000], [1, 0, 2], [0, 1.5, 0])
    make_generalized(5, [0b00011, 0b01100, 0b10000], [1.0, 2.0, 3.0])
    assert gp_calls == []


def test_classification_forms_no_product(gp_calls):
    """classify_family reads every template off the pair's coefficients:
    the generalized fit twists by relabels and rebuilds with none."""
    vol = volume_element(4)
    pairs = [make_monomial(3, 0b001, 2.0, 1.0),
             make_pseudo_monomial(4, 0b0011, "even", 0.7, 1.2),
             make_pseudo_monomial(6, 0b000111, "odd", 0.7, 1.2, phi=0.4),
             make_generalized(4, [0b0001, 0b1110], [1, 2], [2, 1]),
             make_generalized(5, [0b00011, 0b01100, 0b10000], [1.0, 2, 3]),
             extract_B(Multivector.blade(4, 0b0011, 1.1) + 0.4 * vol,
                       Multivector.blade(4, 0b0011, 0.7) - 0.4 * vol)]
    del gp_calls[:]
    tags = [classify_family(pair) for pair in pairs]
    assert gp_calls == []
    assert tags == [["monomial"],
                    ["pseudo-monomial-even", "linear", "generalized-monomial"],
                    ["pseudo-monomial-odd", "generalized-monomial"],
                    ["pseudo-monomial-odd", "generalized-monomial"],
                    ["generalized-monomial"], ["other"]]


# -- classification -----------------------------------------------------------

def test_classify_examples():
    assert classify_family(make_monomial(3, 0b001, 2.0, 1.0)) == ["monomial"]
    # bivector pair: linear, and generalized when the 2-blades cover V
    pair = linear_pair_from_parts(
        np.array([[0, 2.0, 0, 0], [-2.0, 0, 0, 0],
                  [0, 0, 0, 1.0], [0, 0, -1.0, 0]]), np.zeros((4, 4)))
    tags = classify_family(pair)
    assert "linear" in tags and "generalized-monomial" in tags
    assert tags[0] != "monomial"
    two_odd = make_generalized(4, [0b0001, 0b1110], [1, 2], [2, 1])
    assert classify_family(two_odd) == ["pseudo-monomial-odd",
                                        "generalized-monomial"]


def test_classify_other():
    # a blade-plus-volume pair with unequal leading coefficients is verified
    # but sits outside every named family
    n = 4
    vol = volume_element(n)
    c = Multivector.blade(n, 0b0011, 1.1) + 0.4 * vol
    d = Multivector.blade(n, 0b0011, 0.7) - 0.4 * vol
    pair = extract_B(c, d)
    assert pair.verified
    assert classify_family(pair) == ["other"]


def test_classify_requires_verified():
    pair = extract_B(e(3, 1), e(3, 2))
    with pytest.raises(InputError):
        classify_family(pair)


def test_classify_gauge_shift():
    base = make_monomial(4, 0b0011, 1.5, 0.5)
    shift = Multivector.scalar(4, 0.75)
    pair = extract_B(base.c + shift, base.d + shift)
    assert "monomial" in classify_family(pair)


def test_classify_pseudo_types():
    even = make_pseudo_monomial(4, 0b0011, "even", 1.3, -0.7)
    assert classify_family(even)[0] == "pseudo-monomial-even"
    odd = make_pseudo_monomial(4, 0b0001, "odd", 0.9, 0.4, phi=0.3)
    assert classify_family(odd) == ["pseudo-monomial-odd", "generalized-monomial"]


def s_map_is_linear(c, d, tol):
    """Linearity by its definition, s_{c,d}(e_mu) = c e_mu - e_mu d in V
    for every mu, from gp products: the reference for qpair._is_linear."""
    n = c.dim
    return all(grade(mask) == 1 or abs(z) <= tol
               for mu in range(1, n + 1)
               for mask, z in s_map(c, d, e(n, mu)).terms())


def test_linearity_by_parity_is_the_s_map_definition():
    """_is_linear reads s(e_mu)'s off-grade coefficients off the pair; on
    linear, nearly linear and random pairs of n = 1-10 it gives the
    verdict of the gp products, at a tolerance on either side of a
    residual as well."""
    rng = np.random.default_rng(31)
    for n in range(1, 11):
        vectors = random_multivector(rng, n, 3, grades=[1])
        bivectors = random_multivector(rng, n, 4, grades=[2])
        pairs = [(bivectors, bivectors), (vectors, -vectors),
                 (bivectors + 1e-6 * vectors, bivectors),
                 (Multivector.scalar(n, 2.0), Multivector.scalar(n, 2.0))]
        pairs += [(random_multivector(rng, n, k), random_multivector(rng, n, k))
                  for k in (1, 3, 6)]
        for c, d in pairs:
            for tol in (1e-9, 1e-7, 1e-5, 10.0):
                assert qpair._is_linear(c, d, tol) == s_map_is_linear(c, d,
                                                                     tol)
        # the nearly linear pair changes verdict between the tolerances
        c, d = pairs[2]
        assert not qpair._is_linear(c, d, 1e-7) and qpair._is_linear(c, d,
                                                                     1e-5)


# -- identities ---------------------------------------------------------------

def transpose_relation_check(c, d):
    """Max residual of the component symmetry between q_{c,d} and q_{d,c}
    over the full blade basis.

    With true blade coefficients the relation carries the sign
    (-1)^(k(k+1)/2 + l(l+1)/2) for grades k, l (an extra (-1)^(k+l)
    relative to the unsigned-orthogonality derivation).
    """
    n = c.dim
    size = 1 << n
    q_cd = [q_map(c, d, Multivector.blade(n, i)) for i in range(size)]
    q_dc = [q_map(d, c, Multivector.blade(n, j)) for j in range(size)]
    worst = 0.0
    for i in range(size):
        ki = grade(i)
        for j in range(size):
            kj = grade(j)
            sign = -1 if ((ki * (ki + 1) // 2) + (kj * (kj + 1) // 2)) % 2 else 1
            worst = max(worst, abs(q_cd[i].coefficient(j) -
                                   sign * q_dc[j].coefficient(i)))
    return worst


def test_transpose_relation():
    rng = np.random.default_rng(8)
    for n in (3, 4):
        c = random_multivector(rng, n, 5)
        d = random_multivector(rng, n, 5)
        assert transpose_relation_check(c, d) < 1e-10
    c = Multivector.blade(4, 0b0011, 1.3)
    d = Multivector.blade(4, 0b0011, -0.2)
    assert transpose_relation_check(c, d) < 1e-12
    # c = d reduces to a symmetry of q_{c,c}
    assert transpose_relation_check(c, c) < 1e-12


def test_rotate_multivector_is_algebra_map():
    rng = np.random.default_rng(9)
    n = 4
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = random_multivector(rng, n, 6)
    b = random_multivector(rng, n, 6)
    ra, rb = rotate_multivector(a, q), rotate_multivector(b, q)
    assert (rotate_multivector(gp(a, b), q) - gp(ra, rb)).is_zero(1e-10)


def chain_rotation(a, r):
    """The rotation as the gp chain of the generator images, term by term:
    the per-term product the compound-matrix rotation replaces, kept as its
    reference."""
    n = a.dim
    images = [Multivector.from_vector(n, r[:, mu]) for mu in range(n)]
    out = Multivector.zero(n)
    for mask, coeff in a.terms():
        word = Multivector.scalar(n, coeff)
        for mu in range(n):
            if (mask >> mu) & 1:
                word = gp(word, images[mu])
        out = out + word
    return out


def _max_coefficient_gap(a, b):
    masks = {m for m, _ in a.terms()} | {m for m, _ in b.terms()}
    return max((abs(a.coefficient(m) - b.coefficient(m)) for m in masks),
               default=0.0)


@pytest.mark.parametrize("n", range(1, 11))
def test_rotation_matches_the_gp_chain(n):
    rng = np.random.default_rng(300 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    swap = np.eye(n)[::-1] * rng.choice([-1.0, 1.0], n)   # a signed permutation
    for r in (q, swap, np.eye(n)):
        for a in (random_multivector(rng, n, 1),
                  random_multivector(rng, n, 12),
                  random_multivector(rng, n, 6, grades=[n // 2]),
                  Multivector.scalar(n, 0.5 - 2j), Multivector.zero(n)):
            got = rotate_multivector(a, r)
            assert _max_coefficient_gap(got, chain_rotation(a, r)) \
                <= 1e-14 * a.norm()
    # a whole dense element, where the chain is still quick
    if n <= 8:
        a = random_multivector(rng, n, 1 << n)
        got = rotate_multivector(a, q)
        assert _max_coefficient_gap(got, chain_rotation(a, q)) \
            <= 1e-14 * a.norm()


@pytest.mark.parametrize("n", [8, 12])
def test_rotation_is_an_algebra_map_on_dense_elements(n):
    rng = np.random.default_rng(400 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = random_multivector(rng, n, 1 << n)
    # at n = 12 b stays in grades 0-2, so that gp(ra, rb) takes no more than
    # 4096 x 79 blade pairs
    b = (random_multivector(rng, n, 1 << n) if n <= 8 else
         random_multivector(rng, n, 6, grades=[0, 1, 2]))
    ra, rb = rotate_multivector(a, q), rotate_multivector(b, q)
    gap = _max_coefficient_gap(rotate_multivector(gp(a, b), q), gp(ra, rb))
    assert gap <= 1e-12 * a.norm() * b.norm()
    # the rotation back undoes it
    assert _max_coefficient_gap(rotate_multivector(ra, q.T), a) \
        <= 1e-12 * a.norm()


@pytest.mark.parametrize("bad, why", [
    (np.eye(3), "4 x 4"),
    (np.eye(4)[:, :3], "4 x 4"),
    (np.eye(4).ravel(), "4 x 4"),
    (np.where(np.eye(4) == 1, np.nan, 0.0), "finite"),
    (np.diag([1.0, 1.0, np.inf, 1.0]), "finite"),
    (1.001 * np.eye(4), "not orthogonal"),
    (np.eye(4) + np.triu(np.ones((4, 4)), 1), "not orthogonal"),
    (np.eye(4) + 1e-10 * np.ones((4, 4)), "not orthogonal"),
    (np.zeros((4, 4)), "not orthogonal"),
], ids=["3x3", "4x3", "flat", "nan", "inf", "scaled", "shear", "1e-10",
        "zero"])
def test_rotation_refuses_what_is_not_an_orthogonal_n_by_n_matrix(bad, why):
    a = random_multivector(np.random.default_rng(5), 4, 6)
    with pytest.raises(InputError, match=why):
        rotate_multivector(a, bad)


def test_rotation_accepts_orthogonality_up_to_its_bound():
    a = random_multivector(np.random.default_rng(6), 4, 6)
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))
    near = q + 1e-14 * np.ones((4, 4))
    assert np.max(np.abs(near.T @ near - np.eye(4))) <= qpair.ORTHOGONALITY_TOL
    assert _max_coefficient_gap(rotate_multivector(a, near),
                                chain_rotation(a, near)) <= 1e-12


def test_symmetric_map_clustering():
    b = SymmetricMap.from_diagonal([2.0, 2.0 + 1e-12, -1.0])
    assert [s.multiplicity for s in b.eigenspaces] == [1, 2]
    assert b.distinct_count() == 2
    lone = SymmetricMap.from_diagonal([3.0, 3.0, 3.0])
    assert len(lone.eigenspaces) == 1


def test_symmetric_map_rejects_non_finite_entries():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(InputError):
            SymmetricMap.from_matrix([[1.0, 0.0], [0.0, bad]])


@pytest.mark.parametrize("build", [
    lambda: SymmetricMap.from_matrix(np.zeros((0, 0))),
    lambda: SymmetricMap.from_diagonal([]),
], ids=["matrix", "diagonal"])
def test_symmetric_map_rejects_an_empty_map(build):
    with pytest.raises(InputError, match="nonempty"):
        build()


GOLDEN = Path(__file__).parent / "golden" / "inputs"


def eager_spectrum(entries):
    """The spectrum as from_matrix once built it up front: eigh of the
    symmetrized entries, then runs of eigenvalues within CLUSTER_TOL
    max |lambda| of their neighbour, each an eigenspace at its mean."""
    m = np.array(entries, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    tol = CLUSTER_TOL * np.max(np.abs(vals))
    spaces, start = [], 0
    for i in range(1, len(m) + 1):
        if i == len(m) or vals[i] - vals[i - 1] > tol:
            spaces.append((float(np.mean(vals[start:i])), i - start,
                           vecs[:, start:i].tobytes(),
                           tuple(range(start, i)), (1 << i) - (1 << start)))
            start = i
    return vals.tobytes(), vecs.tobytes(), spaces


def golden_maps():
    """Every B of the golden inputs: the b files and the params files."""
    return [load_b_file(str(path))[1] for path in [
        *sorted(GOLDEN.glob("b_*.json")), GOLDEN / "readme_b.json"]] + [
        load_params_file(str(path))[1]
        for path in sorted(GOLDEN.glob("*params*.json"))]


def clustered_maps():
    """Random B = Q diag Q^T at n = 1..12, Q orthogonal, with eigenvalues
    in clusters whose members lie within 1e-12 relative of each other."""
    rng = np.random.default_rng(23)
    for n in range(1, 13):
        for _ in range(3):
            values = np.repeat(rng.uniform(-9.0, 9.0, n), rng.integers(1, 4, n))
            values = values[:n] * (1.0 + 1e-12 * rng.standard_normal(n))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            yield q @ np.diag(values) @ q.T


def test_the_spectrum_built_on_first_use_is_the_eager_one_bit_for_bit():
    maps = golden_maps() + list(clustered_maps())
    assert len(maps) == 7 + 5 + 36
    assert any(len(eager_spectrum(m)[2]) < len(m) for m in maps)
    for m in maps:
        b = SymmetricMap.from_matrix(m)
        vals, vecs, spaces = eager_spectrum(m)
        assert b.eigenvalues.tobytes() == vals
        assert b.eigenvectors.tobytes() == vecs
        assert [(s.value, s.multiplicity, s.basis.tobytes(), s.positions,
                 s.mask) for s in b.eigenspaces] == spaces
        assert b.eigenvalues is b.eigenvalues


def count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: calls.append(m) or eigh(m))
    return calls


@pytest.mark.parametrize("name", ["readme_mono", "pair_gen4", "pair_gen5",
                                  "pair_rot8_mono"])
def test_verify_reads_no_spectrum(monkeypatch, capsys, name):
    calls = count_eigh(monkeypatch)
    assert main(["verify", "--pair", str(GOLDEN / f"{name}.json")]) == 0
    assert '"status": "verified"' in capsys.readouterr().out
    assert calls == []


def test_extract_b_on_family_pairs_reads_no_spectrum(monkeypatch):
    target = SymmetricMap.from_diagonal([-1.0, -1.0, -4.0, -4.0])
    assert target.eigenspaces       # make_linear reads the target's
    calls = count_eigh(monkeypatch)
    pairs = [make_monomial(3, 0b011, 1.3, -0.4),
             make_pseudo_monomial(4, 0b0011, "even", 1.1, 0.7),
             make_pseudo_monomial(4, 0b0111, "odd", 0.9, 0.4, phi=0.3),
             make_linear(target),
             make_generalized(5, [0b00011, 0b01100, 0b10000], [1.0, 2.0, 3.0])]
    pairs += [extract_B(pair.c, pair.d) for pair in pairs]
    assert all(pair.verified for pair in pairs)
    assert calls == []
    assert pairs[0].B.eigenspaces and len(calls) == 1


@pytest.mark.parametrize("entries, why", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "square"),
    ([1.0, 2.0], "square"),
    ([[1.0, 0.0], [0.0, np.nan]], "finite"),
    ([[1.0, 1e308], [1e308, np.inf]], "finite"),
    ([[1.0, 2.0], [2.0 + 1e-6, 1.0]], "not symmetric"),
])
def test_from_matrix_refuses_bad_entries_at_once(monkeypatch, entries, why):
    calls = count_eigh(monkeypatch)
    with pytest.raises(InputError, match=why):
        SymmetricMap.from_matrix(entries)
    # a valid map validates without eigh, and is symmetrized at once
    b = SymmetricMap.from_matrix([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
    assert b.entries[0, 1] == b.entries[1, 0] and calls == []


def test_extract_b_raises_when_q_overflows():
    # every input square is finite, q(e_1) is not
    c = Multivector(3, {0b001: 1e154, 0b110: 1e154})
    d = Multivector.blade(3, 0b001, 1e154)
    with pytest.raises(OverflowError):
        extract_B(c, d)


@pytest.mark.parametrize("build", [
    lambda: make_generalized(4, [0b0011, 0b1100], [1 + 1j, 0.5]),
    lambda: make_monomial(3, 0b011, 1 + 1j, 0.3),
    lambda: make_pseudo_monomial(4, 0b0011, "even", 1 + 1j, 0.5),
    lambda: make_pseudo_monomial(4, 0b0001, "odd", 1 + 1j, 0.5),
], ids=["generalized", "monomial", "pseudo-even", "pseudo-odd"])
def test_constructors_leave_unverified_pairs_untagged(build):
    pair = build()
    assert pair.status == "not-symmetric"
    assert pair.family is None and pair.tags == ()


def test_eigenbasis_memo_rotates_each_pair_once(monkeypatch):
    from cwclifford.omega import classify_distinguished, omega_in_soB
    rotated = []
    rotate = qpair.rotate_multivector
    monkeypatch.setattr(qpair, "rotate_multivector",
                        lambda a, r: rotated.append(a) or rotate(a, r))
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    base = make_monomial(4, 0b0011, 1.0, 0.5)
    c, d = rotate(base.c, q), rotate(base.d, q)
    b = extract_B(c, d).B
    first = b.adapt_to_eigenbasis(c, d)
    assert len(rotated) == 2
    # an equal pair gets the same objects back; the omega checks reuse them.
    # Equal may still differ in the sign of a zero, which the rotation drops
    copy = Multivector(4, {m: complex(z.real, -0.0) for m, z in c.terms()})
    again = b.adapt_to_eigenbasis(copy, d)
    assert again[0] is first[0] and again[1] is first[1]
    bits = [sorted((m, z.real.hex(), z.imag.hex()) for m, z in x.terms())
            for x in (first[0], rotate(copy, b.eigenvectors.T))]
    assert bits[0] == bits[1]
    assert omega_in_soB(c, d, b)["holds"]
    assert classify_distinguished(c, d, b)["match"]
    assert len(rotated) == 2
    # a different pair, or the same one swapped, is rotated afresh
    r = b.eigenvectors.T
    other = c + Multivector.blade(4, 0b0101, 0.25)
    for pair in ((other, d), (d, c), (c, d)):
        got = b.adapt_to_eigenbasis(*pair)
        assert got == (rotate(pair[0], r), rotate(pair[1], r))
    assert len(rotated) == 2 + 6
    # a diagonal B rotates nothing
    diag = SymmetricMap.from_diagonal([1.0, 1.0, 2.0, 2.0])
    assert diag.adapt_to_eigenbasis(c, d) == (c, d) and len(rotated) == 8


# -- both q-restriction paths against the per-mu q_map loop -------------------

def reference_q_restriction(c, d):
    """q restricted to V by q_map, six gp products per mu, the public
    definition both paths of q_restriction_matrix must match bit for bit;
    also the images q(e_mu) as lists of terms (blade, real and imaginary
    part in hex) in dict order, and their largest coefficient sizes."""
    n = c.dim
    m = np.zeros((n, n), dtype=complex)
    offgrade = 0.0
    images = []
    for mu in range(n):
        qv = q_map(c, d, e(n, mu + 1))
        images.append(([(mask, z.real.hex(), z.imag.hex())
                        for mask, z in qv.terms()], qv._top))
        for mask, coeff in qv.terms():
            if grade(mask) == 1:
                m[mask.bit_length() - 1, mu] = coeff
            else:
                offgrade = max(offgrade, abs(coeff))
    return m, offgrade, images


def q_row_images(c, d):
    """The images q(e_mu) of qpair._q_parity as reference_q_restriction
    lists them, the terms in blade order: X[mu - 1, K] is the coefficient
    of Gamma_(K ^ m_mu); "0.0 +" turns a negative zero into gp's positive
    one, the one difference the kernel allows."""
    re, im, top = qpair._q_parity(c, d)
    return [(sorted((int(k) ^ 1 << mu, (0.0 + x[k]).hex(),
                     (0.0 + y[k]).hex())
                    for k in np.flatnonzero((x != 0.0) | (y != 0.0))),
             float(t)) for mu, (x, y, t) in enumerate(zip(re, im, top))]


def q_restriction_on(c, d, dense):
    """q_restriction_matrix with the parity form (dense) or the gp loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qpair, "_dense_pair", lambda c, d: dense)
        return qpair.q_restriction_matrix(c, d)


def assert_dense_matches_reference(c, d):
    want_m, want_off, want_images = reference_q_restriction(c, d)
    assert q_row_images(c, d) == [(sorted(terms), top)
                                  for terms, top in want_images]
    # signed zeros included
    for got_m, got_off in (q_restriction_on(c, d, True),
                           q_restriction_on(c, d, False),
                           qpair.q_restriction_matrix(c, d)):
        assert got_m.tobytes() == want_m.tobytes()
        assert repr(got_off) == repr(want_off)
    return want_m


def _real(a):
    return Multivector(a.dim, {m: z.real for m, z in a.terms()})


def _reordered(a):
    """An equal element whose terms come in the opposite order, so its
    products round differently."""
    return Multivector(a.dim, dict(reversed(list(a.terms()))))


@pytest.mark.parametrize("n", range(1, 13))
def test_dense_q_restriction_matches_reference_on_random_pairs(
        n, monkeypatch):
    dense = []
    monkeypatch.setattr(qpair, "_q_parity",
                        lambda c, d, f=qpair._q_parity:
                        dense.append(n) or f(c, d))
    rng = np.random.default_rng(100 + n)
    # below and above the dispatch rule |c| |d| > max(64, 2^(n - 2))
    above = min(1 << n, math.isqrt(max(64, 1 << n >> 2)) + 1)
    for kc, kd in ((1, 1), (2, 3), (above - 1, above + 1)):
        assert_dense_matches_reference(random_multivector(rng, n, kc),
                                       random_multivector(rng, n, kd))
    # two direct calls per pair (its images, the forced parity form), and the
    # public function's for the last pair, which lies above the rule from
    # n = 4 on (at n <= 3, |c| |d| <= 64)
    assert len(dense) == 2 * 3 + (n > 3)
    if n > 10:
        return          # the reference loop takes seconds at n = 11-12
    c = random_multivector(rng, n, above)
    d = random_multivector(rng, n, above)
    bivector = random_multivector(rng, n, above, grades=[2]) if n > 1 else c
    # cancelling pairs (c = d, c = -d, real and imaginary coefficients),
    # equal pairs that round apart, and a tiny factor: each prunes at a
    # different step; one-term factors with a real and an imaginary
    # coefficient leave products with a zero part unsummed
    for pair in ((c, d), (c, c), (c, -c), (_real(c), -_real(d)),
                 (_real(c), _real(c)), (1j * _real(c), -1j * _real(d)),
                 (c, _reordered(c)), (c, -_reordered(c)),
                 (bivector, _reordered(bivector)),
                 (1e-8 * c, d), (c, 1e-8 * d), (1j * e(n, 1), e(n, 1))):
        assert_dense_matches_reference(*pair)


def rotated_hits(n):
    """The search hits of diag(-1 x n // 2, -4 x the rest) rotated by a
    random orthogonal matrix (seed n)."""
    from cwclifford.search import search_pairs_for_B
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    half = n // 2
    b = q @ np.diag([-1.0] * half + [-4.0] * (n - half)) @ q.T
    return search_pairs_for_B(SymmetricMap.from_matrix(0.5 * (b + b.T)))


@pytest.mark.parametrize("n", range(4, 11))
def test_dense_q_restriction_matches_reference_on_rotated_search_hits(n):
    hits = rotated_hits(n)
    assert hits
    # the reference loop takes about a second per hit at n = 9-10
    for hit in hits[:1] if n >= 9 else hits:
        want_m = assert_dense_matches_reference(hit.pair.c, hit.pair.d)
        assert hit.pair.q_matrix.tobytes() == want_m.tobytes()


def test_dense_q_restriction_of_252_term_elements_is_memory_bounded():
    """The first rotated hit at n = 10 carries 252 terms on each side, so
    c^2 and the cross table c_I d_J are 63,504 term products each.  Formed
    whole, one such table peaked at 6.3 MB traced; in blocks of left terms
    (and of mu) of at most _GP_BLOCK = 16,384 products the dense path
    peaks at about 2.6 MB.  The bound is 4 MB."""
    pair = rotated_hits(10)[0].pair
    assert len(pair.c._terms) == len(pair.d._terms) == 252
    assert qpair._dense_pair(pair.c, pair.d)
    tracemalloc.start()
    try:
        qpair.q_restriction_matrix(pair.c, pair.d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_dense_q_restriction_raises_where_the_reference_overflows():
    c = Multivector(3, {0b001: 1e154, 0b110: 1e154})
    d = Multivector.blade(3, 0b001, 1e154)
    dense = random_multivector(np.random.default_rng(3), 3, 6)
    for pair in ((c, d), (1e154 * dense, 1e154 * dense)):
        with pytest.raises(OverflowError):
            reference_q_restriction(*pair)
        for dense in (True, False):
            with pytest.raises(OverflowError):
                q_restriction_on(*pair, dense)
        with pytest.raises(OverflowError):
            extract_B(*pair)


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0, -1.0])
def test_extract_b_refuses_a_bad_tolerance_factor(factor):
    # the off-grade residual of this pair is 4: a NaN threshold passed it
    c = Multivector(3, {0b001: 1.0, 0b110: 0.5})
    assert extract_B(c, c).status == "not-closed-in-V"
    with pytest.raises(InputError, match="tolerance factor"):
        extract_B(c, c, tol_factor=factor)


def test_dense_q_restriction_matches_reference_when_a_square_vanishes():
    """c = u + i v with u, v orthogonal vectors of equal length squares to
    rounding only, which the cut of gp(c, c) drops whole."""
    rng = np.random.default_rng(11)
    for n in (4, 6, 8):
        u = rng.standard_normal(n)
        v = np.empty(n)
        v[0::2], v[1::2] = -u[1::2], u[0::2]
        c = Multivector.from_vector(n, u + 1j * v)
        assert gp(c, c).is_zero()
        for d in (random_multivector(rng, n, 8), 1e-3 * c, c):
            assert_dense_matches_reference(c, d)
            assert_dense_matches_reference(d, c)
