import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from cwclifford import omega, qpair
from cwclifford.core import (CHECK_TOL, Multivector, gp, grade,
                             random_multivector, threshold, volume_element)
from cwclifford.errors import DimensionMismatch, InputError, NotSoBInvariant
from cwclifford.omega import (classify_distinguished, closing_identities,
                              is_sob_invariant_structural, omega_in_soB,
                              omega_tensor)
from cwclifford.search import search_pairs_for_B
from cwclifford.qpair import (SymmetricMap, extract_B, make_generalized,
                              make_linear, make_monomial,
                              make_pseudo_monomial, rotate_multivector,
                              s_map, skew_to_bivector)


def e(n, mu):
    return Multivector.basis_vector(n, mu)


def test_tensor_vanishes_for_equal_scalars():
    n = 3
    alpha = Multivector.scalar(n, 1.3)
    assert omega_tensor(alpha, alpha).max_norm() == 0.0


def test_tensor_antisymmetry_storage():
    rng = np.random.default_rng(0)
    c, d = random_multivector(rng, 3, 4), random_multivector(rng, 3, 4)
    om = omega_tensor(c, d)
    assert (om.entry(2, 1) + om.entry(1, 2)).is_zero()
    assert om.entry(1, 1).is_zero()


def test_homogeneous_entry_formula():
    # both inside: -2((-1)^k c + d) G_I G_{mu nu}; split pair: zero
    n = 4
    mask = 0b0111
    k = grade(mask)
    ci, di = 0.8, -1.3
    om = omega_tensor(Multivector.blade(n, mask, ci),
                      Multivector.blade(n, mask, di))
    g12 = gp(e(n, 1), e(n, 2))
    want = -2 * ((-1) ** k * ci + di) * gp(Multivector.blade(n, mask), g12)
    assert (om.entry(1, 2) - want).is_zero(1e-12)
    # mu inside, nu outside
    assert om.entry(3, 4).is_zero(1e-12)
    # both outside: 2((-1)^k c - d) G_I G_{mu nu}
    om2 = omega_tensor(Multivector.blade(n, 0b0011, ci),
                       Multivector.blade(n, 0b0011, di))
    g34 = gp(e(n, 3), e(n, 4))
    want2 = 2 * (ci - di) * gp(Multivector.blade(n, 0b0011), g34)
    assert (om2.entry(3, 4) - want2).is_zero(1e-12)


def basis_formula(c, d, mu, nu):
    """Omega_{mu nu} = e_mu c e_nu - e_nu c e_mu - (e_{mu nu} d + d e_{mu nu})."""
    n = c.dim
    gm, gn = e(n, mu), e(n, nu)
    gmn = gp(gm, gn)
    return (gp(gm, gp(c, gn)) - gp(gn, gp(c, gm)) - gp(gmn, d)
            - gp(d, gmn))


def test_basis_formula_matches_bilinear():
    """omega_tensor's s_{d,c}(e_nu) e_mu + e_mu s_{c,d}(e_nu) against the
    basis formula."""
    rng = np.random.default_rng(1)
    for n in (3, 4, 5, 6):
        c = random_multivector(rng, n, 6)
        d = random_multivector(rng, n, 6)
        om = omega_tensor(c, d)
        for mu in range(1, n + 1):
            for nu in range(mu + 1, n + 1):
                want = basis_formula(c, d, mu, nu)
                assert (om.entry(mu, nu) - want).is_zero(1e-12)


def _vanishing_template(n, rng):
    alpha = complex(rng.standard_normal(), rng.standard_normal())
    v = random_multivector(rng, n, 2, grades=[1])
    c = Multivector.scalar(n, alpha) + v
    d = Multivector.scalar(n, alpha) - 1 * v
    if n % 2 == 0:
        beta = complex(rng.standard_normal(), rng.standard_normal())
        vc = np.array(v.vector_components())
        wc = rng.standard_normal(n).astype(complex)
        wc -= (vc @ wc) / (vc @ vc) * vc
        w = Multivector.from_vector(n, wc)
        vol = volume_element(n)
        c = c + gp(Multivector.scalar(n, beta) + w, vol)
        d = d - 1 * gp(Multivector.scalar(n, beta) - 1 * w, vol)
    return c, d


def test_vanishing_templates():
    rng = np.random.default_rng(2)
    for n in (3, 4, 5, 6):
        for _ in range(10):
            c, d = _vanishing_template(n, rng)
            assert omega_tensor(c, d).max_norm() < 1e-12


def test_nontemplate_pairs_do_not_vanish():
    rng = np.random.default_rng(3)
    for n in (3, 4):
        for _ in range(100):
            c = random_multivector(rng, n, 4)
            d = random_multivector(rng, n, 4)
            assert omega_tensor(c, d).max_norm() > 1e-6


def test_membership_examples():
    # generalized pair on the eigenspace partition passes
    pair = make_generalized(4, [0b0011, 0b1100], [1.0, 2.0])
    out = omega_in_soB(pair.c, pair.d, pair.B)
    assert out["holds"]
    # crossing monomials fail between the two eigenspaces; the offending
    # entry pairs the first basis direction with the second eigenspace
    b = SymmetricMap.from_diagonal([1.0, 2.0, 2.0])
    out = omega_in_soB(e(3, 1), e(3, 2), b)
    assert not out["holds"]
    assert out["worst_entry"] == (1, 3) and out["worst_norm"] > 1.0
    # B proportional to the identity holds vacuously
    lone = SymmetricMap.from_diagonal([5.0, 5.0, 5.0])
    rng = np.random.default_rng(4)
    out = omega_in_soB(random_multivector(rng, 3, 5),
                       random_multivector(rng, 3, 5), lone)
    assert out["holds"] and out["worst_entry"] is None


def test_membership_forward_direction_constructors():
    rng = np.random.default_rng(5)
    pairs = [
        make_monomial(4, 0b0011, 1.3, -0.4),
        make_monomial(5, 0b00111, 0.9, 0.2),
        make_pseudo_monomial(4, 0b0011, "even", 1.1, 0.7),
        make_pseudo_monomial(6, 0b000001, "odd", 1.2, 0.4, phi=0.35),
        make_generalized(5, [0b00011, 0b01100, 0b10000], [1.0, 2.0, 3.0]),
        make_linear(SymmetricMap.from_diagonal([4.0, 4.0, -1.0, -1.0])),
    ]
    for pair in pairs:
        assert pair.verified
        assert omega_in_soB(pair.c, pair.d, pair.B)["holds"]


def is_sob_invariant_commutator(x, b):
    """so_B(V) invariance in any basis: x commutes with every so_B
    generator, the check the support test stands in for."""
    cut = threshold(CHECK_TOL, x.norm())
    for h in b.sob_basis():
        a = skew_to_bivector(h, b.n)
        if (gp(a, x) - gp(x, a)).norm() > cut:
            return False
    return True


def test_structural_invariance_and_fallback():
    b = SymmetricMap.from_diagonal([2.0, 2.0, 7.0])
    inv = Multivector.blade(3, 0b011, 1.5) + Multivector.unit(3)
    assert is_sob_invariant_structural(inv, b)
    assert is_sob_invariant_commutator(inv, b)
    notinv = Multivector.basis_vector(3, 1)
    assert not is_sob_invariant_structural(notinv, b)
    assert not is_sob_invariant_commutator(notinv, b)


def test_classify_distinguished_templates():
    # one eigenvalue: any scalar + volume combination matches
    rng = np.random.default_rng(6)
    lone = SymmetricMap.from_diagonal([3.0] * 4)
    vol = volume_element(4)
    c = Multivector.scalar(4, 1.2) + 0.4 * vol
    d = Multivector.scalar(4, -0.3) + 2.2 * vol
    out = classify_distinguished(c, d, lone)
    assert out["match"] and out["template"] == "kl2"
    # two eigenvalues: the middle sectors are free
    b2 = SymmetricMap.from_diagonal([1.0, 1.0, 4.0, 4.0])
    pair = make_pseudo_monomial(4, 0b0011, "even", 0.9, 1.3)
    out = classify_distinguished(pair.c, pair.d, pair.B)
    assert out["match"] and out["template"] == "gl2"
    # arbitrary extra freedom in the middle sector still matches gl2
    c = Multivector.blade(4, 0b0011, 1.7) + Multivector.blade(4, 0b1100, 0.2)
    d = Multivector.blade(4, 0b0011, -0.9) + Multivector.blade(4, 0b1100, 2.2)
    out = classify_distinguished(c, d, b2)
    assert out["match"] and out["template"] == "gl2"
    # more than two eigenvalues: only the fixed sign pattern passes
    pair = make_generalized(5, [0b00011, 0b01100, 0b10000], [1.0, 2.0, 3.0])
    out = classify_distinguished(pair.c, pair.d, pair.B)
    assert out["match"] and out["template"] == "gr2"
    bad_d = pair.d + Multivector.blade(5, 0b00011, 0.5)
    out = classify_distinguished(pair.c, bad_d, pair.B)
    assert not out["match"]
    assert not omega_in_soB(pair.c, bad_d, pair.B)["holds"]


def test_classify_distinguished_forms_no_product(gp_calls):
    """The match reads entries of Omega, a relabel: no gp call."""
    vol = volume_element(4)
    lone = SymmetricMap.from_diagonal([3.0] * 4)
    pair = make_generalized(5, [0b00011, 0b01100, 0b10000], [1.0, 2.0, 3.0])
    del gp_calls[:]                   # extract_B's
    for c, d, b in ((Multivector.scalar(4, 1.2) + 0.4 * vol,
                     Multivector.scalar(4, -0.3) + 2.2 * vol, lone),
                    (pair.c, pair.d, pair.B)):
        assert classify_distinguished(c, d, b)["match"]
    b3 = SymmetricMap.from_diagonal([1.0, 2.0, 3.0])
    out = classify_distinguished(e(3, 1), e(3, 1), b3)
    assert out == {"template": None, "match": False}
    assert gp_calls == []


def test_classify_distinguished_requires_invariance():
    b = SymmetricMap.from_diagonal([1.0, 1.0, 4.0])
    with pytest.raises(NotSoBInvariant):
        classify_distinguished(e(3, 1), e(3, 1), b)


def test_classify_distinguished_rotated_basis():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    base = make_generalized(4, [0b0011, 0b1100], [1.0, 2.0])
    c = rotate_multivector(base.c, q)
    d = rotate_multivector(base.d, q)
    pair = extract_B(c, d)
    assert pair.verified
    out = classify_distinguished(c, d, pair.B)
    assert out["match"] and out["template"] == "gl2"
    assert omega_in_soB(c, d, pair.B)["holds"]


def test_membership_matches_templates_sectorwise():
    # per-sector exhaustive check of the constraint table for 3 clusters
    rng = np.random.default_rng(8)
    n = 5
    b = SymmetricMap.from_diagonal([1.0, 1.0, 2.0, 2.0, 5.0])
    masks = [0b00011, 0b01100, 0b10000]
    vol_sectors = {}
    for subset in range(1 << 3):
        m = 0
        for idx in range(3):
            if (subset >> idx) & 1:
                m |= masks[idx]
        vol_sectors[m] = bin(subset).count("1")
    r = 3
    for mask, t in vol_sectors.items():
        if mask == 0:
            continue
        sign = (-1) ** grade(mask)
        cval = complex(rng.standard_normal())
        # template-consistent d coefficient for this sector
        if t >= 2:
            dval = -sign * cval
        else:
            dval = sign * cval
        c = Multivector.blade(n, mask, cval)
        d = Multivector.blade(n, mask, dval)
        expected = not (2 <= t <= r - 2 and abs(cval) > 0)
        got = omega_in_soB(c, d, b)["holds"]
        assert got == expected, (mask, t)
        # a violated relation must fail whenever the sector is constrained
        if t >= 2 or r - t >= 2:
            dbad = dval + 0.7
            got_bad = omega_in_soB(c, Multivector.blade(n, mask, dbad), b)["holds"]
            assert not got_bad, (mask, t)


def test_closing_identities():
    pair = make_monomial(3, 0b001, 2.0, 1.0)
    out = closing_identities(pair.c, pair.d, pair.B)
    assert out["four-term"] < 1e-9 and out["anticommutator"] < 1e-9
    # scalar pair: the anticommutator identity recovers the squared scalar
    spair = extract_B(Multivector.scalar(3, 1.5), Multivector.zero(3))
    out = closing_identities(spair.c, spair.d, spair.B)
    assert out["four-term"] < 1e-12 and out["anticommutator"] < 1e-12
    # unclassified pairs just get their residuals reported
    rng = np.random.default_rng(9)
    c = random_multivector(rng, 3, 4)
    d = random_multivector(rng, 3, 4)
    out = closing_identities(c, d, SymmetricMap.from_diagonal([1.0, 1.0, 1.0]))
    assert set(out) == {"four-term", "anticommutator"}


# -- the closing identities against the gp loop -------------------------------

def reference_closing_identities(c, d, b):
    """The two closing residuals by the gp loop over (mu, nu), kept as the
    reference the parity loops of `closing_identities` must match."""
    n = c.dim
    gens = [e(n, mu) for mu in range(1, n + 1)]
    sdc = [s_map(d, c, g) for g in gens]
    scd = [s_map(c, d, g) for g in gens]
    prods = [[gp(x, y) for y in scd] for x in sdc]
    r_four = r_anti = 0.0
    for mu in range(n):
        gm = gens[mu]
        for nu in range(n):
            left, right = gp(sdc[nu], gm), gp(gm, scd[nu])
            four = gp(d, left) + gp(d, right) - gp(left, d) - gp(right, d)
            r_four = max(r_four, four.norm())
            anti = 0.5 * (prods[nu][mu] + prods[mu][nu])
            target = Multivector.scalar(n, complex(b.entries[mu, nu]))
            r_anti = max(r_anti, (anti - target).norm())
    return {"four-term": r_four, "anticommutator": r_anti}


def assert_closing_matches_reference(c, d, b):
    want = reference_closing_identities(c, d, b)
    bound = 1e-12 * (1 + c.norm() ** 2 + d.norm() ** 2) ** 2
    got = closing_identities(c, d, b)
    assert set(got) == set(want)
    for key in want:
        assert abs(got[key] - want[key]) <= bound, (key, got, want)
    return want


@pytest.fixture
def closing_arrays(monkeypatch):
    """The pairs closing_identities sums in arrays, recorded."""
    seen = []
    monkeypatch.setattr(omega, "_closing_arrays", lambda c, d, *rest, f=omega
                        ._closing_arrays: seen.append((c, d)) or f(c, d, *rest))
    return seen


@pytest.mark.parametrize("n", range(1, 11))
def test_closing_identities_match_reference_on_random_pairs(
        n, closing_arrays):
    rng = np.random.default_rng(200 + n)
    b = SymmetricMap.from_matrix(np.diag(rng.uniform(-2.0, 2.0, n)))
    # sparse pairs at every n; up to n = 8 also pairs of more than
    # max(64, 2^(n - 2)) term products, the dense pairs
    above = min(1 << n, math.isqrt(max(64, 1 << n >> 2)) + 1)
    sizes = ((1, 1), (2, 3), (4, 2)) + (((above - 1, above + 1),)
                                        if n <= 8 else ())
    worst = 0.0
    for kc, kd in sizes:
        c = random_multivector(rng, n, kc)
        d = random_multivector(rng, n, kd)
        want = assert_closing_matches_reference(c, d, b)
        worst = max(worst, *want.values())
    # random pairs are far from closing: the residuals are of order one
    assert worst > 0.1
    # the pair above the rule, from n = 4 on, takes the arrays
    assert len(closing_arrays) == (3 < n <= 8)


@pytest.mark.parametrize("n", range(4, 9))
def test_closing_identities_match_reference_on_rotated_search_hits(
        n, closing_arrays):
    from cwclifford.search import search_pairs_for_B
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    half = n // 2
    m = q @ np.diag([-1.0] * half + [-4.0] * (n - half)) @ q.T
    b = SymmetricMap.from_matrix(0.5 * (m + m.T))
    hits = search_pairs_for_B(b)
    assert hits
    # the reference loop takes about 0.4 s per hit at n = 8
    chosen = hits[:1] if n >= 7 else hits
    for hit in chosen:
        want = assert_closing_matches_reference(hit.pair.c, hit.pair.d, b)
        assert want["four-term"] < 1e-9
    # a perturbed hit is far from closing; the parity loops still agree
    c, d = chosen[0].pair.c, chosen[0].pair.d
    bad = d + Multivector.blade(n, 0b11, 0.5)
    assert max(assert_closing_matches_reference(c, bad, b).values()) > 0.1
    # from n = 5 on every hit lies above the rule, and so does the
    # perturbed one; at n = 4 the hits have 6 x 6 terms
    assert len(closing_arrays) == (len(chosen) + 1) * (n > 4)


@pytest.mark.parametrize("n", [9, 10])
def test_closing_identities_match_reference_on_sparse_family_pairs(n):
    """Family pairs of a few terms at the sizes past the rotated hits: a
    closing pair, and the same pair with one blade of d moved."""
    parts = [0b11 << 2 * k for k in range(n // 2)] + [1 << n - 1] * (n % 2)
    pair = make_generalized(n, parts,
                            [1.0 + 0.5 * k for k in range(len(parts))])
    assert pair.verified
    want = assert_closing_matches_reference(pair.c, pair.d, pair.B)
    assert max(want.values()) < 1e-9
    bad = pair.d + Multivector.blade(n, 0b101, 0.5)
    assert max(assert_closing_matches_reference(pair.c, bad, pair.B)
               .values()) > 0.1


def test_closing_identities_raise_where_the_reference_overflows(
        closing_arrays):
    rng = np.random.default_rng(3)
    # 6 x 6 terms at n = 3 take the dict loops, 12 x 12 at n = 4 the
    # arrays; at 1e154 the cut is finite and the products overflow, at
    # 1e160 the cut overflows too
    for n, terms, scale in ((3, 6, 1e160), (4, 12, 1e154), (4, 12, 1e160)):
        c = scale * random_multivector(rng, n, terms)
        d = scale * random_multivector(rng, n, terms)
        b = SymmetricMap.from_diagonal([1.0] * n)
        for closing in (reference_closing_identities, closing_identities):
            with pytest.raises(OverflowError):
                closing(c, d, b)
    assert len(closing_arrays) == 2


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0, -1.0])
def test_membership_refuses_a_bad_tolerance_factor(factor):
    b = SymmetricMap.from_diagonal([-1.0, -4.0, -4.0])
    c, d = Multivector.blade(3, 0b001, 1.5), Multivector.blade(3, 0b010, 0.5)
    assert not omega_in_soB(c, d, b)["holds"]
    with pytest.raises(InputError, match="tolerance factor"):
        omega_in_soB(c, d, b, tol=factor)


# -- membership on the crossing entries against the full tensor --------------

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def reference_omega_entries(c, d, pairs):
    """The entries Omega_{mu nu} = s_{d,c}(e_nu) e_mu + e_mu s_{c,d}(e_nu)
    on the given 1-based (mu, nu), by gp products of the s-images (the
    basis formula by the Clifford relation), in the order given: the
    reference the parity relabel of `omega` must match bit for bit."""
    n = c.dim
    sdc = {nu: s_map(d, c, e(n, nu)) for _, nu in pairs}
    scd = {nu: s_map(c, d, e(n, nu)) for _, nu in pairs}
    return {(mu, nu): gp(sdc[nu], e(n, mu)) + gp(e(n, mu), scd[nu])
            for mu, nu in pairs}


def bits(x):
    """The terms of x in order, each coefficient's parts as .hex()."""
    return [(m, z.real.hex(), z.imag.hex()) for m, z in x.terms()]


def assert_entries_are_the_reference(got, want):
    """Equal keys, term order, coefficient bits and norm bits; no
    coefficient holds a negative zero, as none of gp's does."""
    assert list(got) == list(want)
    for at, entry in want.items():
        assert bits(got[at]) == bits(entry), at
        assert got[at].norm().hex() == entry.norm().hex()
        assert got[at]._top == entry._top
        assert not any(part.startswith("-0x0.0") for _, re, im in
                       bits(got[at]) for part in (re, im))


def reference_omega_in_soB(c, d, b, tol=CHECK_TOL):
    """Membership by the full tensor in the eigenbasis, skipping the entries
    inside one eigenspace, with the entries of `reference_omega_entries`:
    the loop `omega_in_soB` replaces, kept as the reference it must match
    bit for bit."""
    cut = threshold(tol, c.norm() + d.norm())
    c2, d2 = b.adapt_to_eigenbasis(c, d)
    triangle = [(mu, nu) for mu in range(1, b.n + 1)
                for nu in range(mu + 1, b.n + 1)]
    worst, worst_at = 0.0, None
    for (mu, nu), entry in reference_omega_entries(c2, d2, triangle).items():
        both = (1 << (mu - 1)) | (1 << (nu - 1))
        if any(both & space.mask == both for space in b.eigenspaces):
            continue
        norm = entry.norm()
        if norm > worst:
            worst, worst_at = norm, (mu, nu)
    return {"holds": worst <= cut, "worst_norm": worst, "threshold": cut,
            "worst_entry": worst_at}


def assert_tensor_is_the_reference(c, d):
    n = c.dim
    triangle = [(mu, nu) for mu in range(1, n + 1)
                for nu in range(mu + 1, n + 1)]
    assert_entries_are_the_reference(omega_tensor(c, d).entries,
                                     reference_omega_entries(c, d, triangle))


def clustered_b(rng, sizes, rotated):
    """B with one eigenvalue per cluster size, ascending, so that the first
    size is the first block of the eigenbasis; rotated by a random Q."""
    values = np.repeat(-4.0 * np.arange(len(sizes), 0, -1) - 1.0, sizes)
    m = np.diag(values)
    if rotated:
        q, _ = np.linalg.qr(rng.standard_normal((len(values),) * 2))
        m = q @ m @ q.T
        m = 0.5 * (m + m.T)
    b = SymmetricMap.from_matrix(m)
    assert [s.multiplicity for s in b.eigenspaces] == list(sizes)
    return b


def cluster_sizes(n, r):
    """A split of n into r nonempty clusters, the larger ones first."""
    return [n // r + (i < n % r) for i in range(r)]


@pytest.mark.parametrize("n", range(1, 9))
def test_membership_matches_the_full_tensor_on_random_pairs(n):
    rng = np.random.default_rng(900 + n)
    pairs = [(random_multivector(rng, n, kc), random_multivector(rng, n, kd))
             for kc in range(1, 7) for kd in (kc, 7 - kc)]
    # a pair on which every entry has one norm, so that ties decide
    # worst_entry
    pairs.append((Multivector.scalar(n, 1.5), Multivector.scalar(n, -0.5)))
    for r in range(1, min(n, 3) + 1):
        for rotated in (False, True):
            b = clustered_b(rng, cluster_sizes(n, r), rotated)
            for c, d in pairs:
                want = reference_omega_in_soB(c, d, b)
                assert omega_in_soB(c, d, b) == want, (r, rotated)
                assert want["holds"] == (r == 1 or want["worst_norm"] == 0)


def test_membership_matches_the_full_tensor_on_structured_pairs():
    rng = np.random.default_rng(11)
    pairs = [make_monomial(4, 0b0011, 1.3, -0.4),
             make_pseudo_monomial(4, 0b0011, "even", 1.1, 0.7),
             make_generalized(5, [0b00011, 0b01100, 0b10000],
                              [1.0, 2.0, 3.0])]
    for pair in pairs:
        n = pair.B.n
        for b in [pair.B] + [clustered_b(rng, cluster_sizes(n, r), rot)
                             for r in (2, 3) for rot in (False, True)]:
            want = reference_omega_in_soB(pair.c, pair.d, b)
            assert omega_in_soB(pair.c, pair.d, b) == want
    # the crossing monomials tie on two entries; the first in (mu, nu)
    # order is reported, as before
    b = SymmetricMap.from_diagonal([1.0, 2.0, 2.0])
    want = reference_omega_in_soB(e(3, 1), e(3, 2), b)
    assert omega_in_soB(e(3, 1), e(3, 2), b) == want
    assert want["worst_entry"] == (1, 3)


@pytest.mark.parametrize("pair_file, b_file", [
    ("readme_mono", "readme_b"), ("pair_not_invariant3", "readme_b"),
    ("pair_rot4", "b_rot4_22"), ("pair_gen4", "b_rot4_22"),
    ("pair_gen5", "b_diag5_122"), ("pair_rot8_mono", "b_rot8_44")])
def test_membership_matches_the_full_tensor_on_golden_inputs(pair_file,
                                                             b_file):
    from cwclifford.textio import load_b_file, load_pair_file
    _, c, d = load_pair_file(str(GOLDEN_INPUTS / f"{pair_file}.json"))
    _, entries = load_b_file(str(GOLDEN_INPUTS / f"{b_file}.json"))
    for tol in (CHECK_TOL, 1e-300, 1.0):
        want = reference_omega_in_soB(c, d, SymmetricMap.from_matrix(entries),
                                      tol)
        got = omega_in_soB(c, d, SymmetricMap.from_matrix(entries), tol)
        assert got == want
    b = SymmetricMap.from_matrix(entries)
    assert_tensor_is_the_reference(c, d)
    assert_tensor_is_the_reference(*b.adapt_to_eigenbasis(c, d))


@pytest.mark.parametrize("n", range(1, 11))
def test_tensor_is_the_product_form_bit_for_bit(n):
    """omega_tensor's relabel gives the entries of the s-image products:
    on random pairs, on pairs whose coefficients nearly cancel in
    sigma c_J - d_J, on negated pairs (negative zero parts), and on sums
    that keep a coefficient below PRUNE_EPS times their largest, which a
    product with a generator drops."""
    rng = np.random.default_rng(1100 + n)
    for kc, kd in ((1, 1), (3, 2), (6, 6), (0, 4)):
        c = random_multivector(rng, n, kc) if kc else Multivector.zero(n)
        d = random_multivector(rng, n, kd)
        near = Multivector(n, {m: z * (1 + 1e-15) for m, z in c.terms()})
        for cc, dd in ((c, d), (c, near), (c, -near), (-c, -d), (d, c)):
            assert_tensor_is_the_reference(cc, dd)
    x = Multivector(n, {0: 1.0, 1: complex(1.0, -0.0)})
    y = Multivector(n, {0: -1.0, 1: complex(-1.0, 0.0)})
    # the sum's cut is relative to its operands, 1 each, its largest is 2
    small = Multivector.unit(n) + Multivector(n, {0: 1.0, 1: 1.5e-14})
    assert min(abs(z) for _, z in small.terms()) <= 1e-14 * small._top
    for cc, dd in ((x, y), (-x, y), (small, x), (x, small), (small, -small)):
        assert_tensor_is_the_reference(cc, dd)


def _count_products(monkeypatch):
    """Count the `gp` calls of the omega and qpair layers (s_map is in
    qpair)."""
    calls = []

    def counted(a, b, f=gp):
        calls.append(a.dim)
        return f(a, b)

    monkeypatch.setattr(omega, "gp", counted)
    monkeypatch.setattr(qpair, "gp", counted)
    return calls


@pytest.mark.parametrize("n", range(1, 9))
def test_membership_forms_only_the_crossing_products(n, monkeypatch):
    rng = np.random.default_rng(1000 + n)
    c, d = random_multivector(rng, n, 4), random_multivector(rng, n, 4)
    calls = _count_products(monkeypatch)
    # one eigenvalue, in the standard and in a rotated eigenbasis
    for rotated in (False, True):
        out = omega_in_soB(c, d, clustered_b(rng, [n], rotated))
        assert out["holds"] and out["worst_entry"] is None
    assert calls == []
    # clusters (k, n - k) and three clusters: Omega is a relabel of the
    # pair's terms, with no product
    for sizes in [[k, n - k] for k in range(1, n)] + [cluster_sizes(n, 3)] * (
            n >= 3):
        b = clustered_b(rng, sizes, False)
        assert b.eigenbasis_is_identity
        got = omega_in_soB(c, d, b)
        assert calls == []
        assert got == reference_omega_in_soB(c, d, b)
        del calls[:]


def template_pair(rng, masks, fitted):
    """A random pair on the unions of the eigenspace masks, the scalar
    always among them, in the eigenbasis.  Fitted, every sector meets the
    template read off Omega: inside two eigenspaces d_M = -(-1)^|M| c_M,
    outside two d_M = (-1)^|M| c_M, so that no entry crosses two."""
    r, c, d = len(masks), {}, {}
    for subset in range(1 << r):
        if subset and rng.random() < 0.3:
            continue
        inside = subset.bit_count()
        mask = sum(m for i, m in enumerate(masks) if subset >> i & 1)
        sign = (-1.0) ** grade(mask)
        c[mask], d[mask] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if fitted and inside >= 2 and r - inside >= 2:
            del c[mask], d[mask]
        elif fitted and inside >= 2:
            d[mask] = -sign * c[mask]
        elif fitted and r - inside >= 2:
            d[mask] = sign * c[mask]
    n = masks[-1].bit_length()
    return Multivector(n, c), Multivector(n, d)


@pytest.mark.parametrize("n", range(2, 9))
def test_template_match_is_omega_membership(n):
    """classify_distinguished's match is omega_in_soB's verdict bit for bit
    on so_B-invariant pairs, for 1 to n eigenspaces, in the identity and a
    rotated eigenbasis: random pairs, pairs meeting the templates (residual
    0 in the identity basis) and those pairs with d's scalar moved so that
    every crossing entry of Omega is 0.5, 1 and 2 times the threshold."""
    rng = np.random.default_rng(950 + n)
    for r, rotated in itertools.product(range(1, n + 1), (False, True)):
        b = clustered_b(rng, cluster_sizes(n, r), rotated)
        masks = [space.mask for space in b.eigenspaces]
        template = ("kl2", "gl2", "gr2")[min(r, 3) - 1]
        for fitted, k in ((False, 0.0), (True, 0.0), (True, 0.5),
                          (True, 1.0), (True, 2.0)):
            c, d = template_pair(rng, masks, fitted)
            # each crossing entry holds 2 delta Gamma_{mu nu}
            delta = 0.5 * k * threshold(CHECK_TOL, c.norm() + d.norm())
            d = d + Multivector.scalar(n, delta)
            if rotated:
                c, d = (rotate_multivector(x, b.eigenvectors) for x in (c, d))
            membership = omega_in_soB(c, d, b)
            out = classify_distinguished(c, d, b)
            assert out["match"] is membership["holds"]
            assert out["template"] == (template if out["match"] else None)
            if fitted and k == 0.0 and not rotated:
                assert membership["worst_norm"] == 0.0
            if fitted and (k <= 0.5 or r == 1):
                assert out["match"]
            if k == 2.0 and r > 1:
                assert not out["match"]


@pytest.mark.parametrize("rotated", [False, True])
def test_a_pair_of_mixed_dimension_is_a_dimension_mismatch(rotated):
    b = clustered_b(np.random.default_rng(12), [1, 2], rotated)
    c3 = Multivector.scalar(3, 1.0) + e(3, 1)
    d4 = Multivector.scalar(4, 1.0)
    c4 = Multivector.scalar(4, 2.0)
    for c, d in ((c3, d4), (d4, c3), (c4, d4)):
        for check in (omega_in_soB, classify_distinguished):
            with pytest.raises(DimensionMismatch):
                check(c, d, b)


def test_a_pair_whose_threshold_underflows_is_refused():
    """c = lam (e_1 + 0.5 e_{2,3}), d = lam e_2 is not in so_B at scale 1.
    At lam = 1e-200 every norm read 0, and the pair passed with threshold
    0; now it fails as at scale 1.  At 1e-300 the degree-one threshold is
    below the smallest normal double, and both checks refuse the pair."""
    b = SymmetricMap.from_diagonal([-1.0, -9.0, -9.0])
    c = Multivector(3, {0b001: 1.0, 0b110: 0.5})
    d = e(3, 2)
    one = omega_in_soB(c, d, b)
    for lam in (1e-200, 1e-290):
        got = omega_in_soB(lam * c, lam * d, b)
        assert not got["holds"] and got["worst_entry"] == one["worst_entry"]
        assert got["worst_norm"] == pytest.approx(lam * one["worst_norm"],
                                                   rel=1e-12, abs=0)
        assert got["threshold"] == pytest.approx(lam * one["threshold"],
                                                  rel=1e-12, abs=0)
    for check in (omega_in_soB, classify_distinguished):
        with pytest.raises(InputError, match="smallest normal double"):
            check(1e-300 * c, 1e-300 * d, b)
    zero = Multivector.zero(3)
    assert omega_in_soB(zero, zero, b)["holds"]
    assert classify_distinguished(zero, zero, b)["match"]


def test_the_shared_basis_vectors_stay_unchanged():
    """The pair layer takes every e_mu from Multivector.basis_vector, one
    shared instance per (n, mu); a search, verify, omega and closing pass
    over dense and sparse pairs leaves each of them as built."""
    def basis():
        return {(n, mu): (Multivector.basis_vector(n, mu), [
            (m, z.real.hex(), z.imag.hex()) for m, z in
            Multivector.basis_vector(n, mu).terms()])
            for n in range(1, 13) for mu in range(1, n + 1)}

    before = basis()
    assert all(terms == [(1 << mu - 1, "0x1.0000000000000p+0", "0x0.0p+0")]
               for (_, mu), (_, terms) in before.items())
    targets = [clustered_b(np.random.default_rng(4), [3, 3], True),
               SymmetricMap.from_diagonal([-1.0, -1.0, -4.0, -4.0, -9.0]),
               SymmetricMap.from_diagonal([-2.0] * 6)]
    dense = False
    for b in targets:
        for hit in search_pairs_for_B(b):
            c, d = hit.pair.c, hit.pair.d
            dense |= qpair._dense_pair(c, d)
            pair = extract_B(c, d)
            qpair.classify_family(pair)
            omega_in_soB(c, d, b)
            try:
                classify_distinguished(c, d, b)
            except NotSoBInvariant:
                pass
            closing_identities(c, d, b)
    assert dense
    after = basis()
    assert all(after[k][0] is x and after[k][1] == terms
               for k, (x, terms) in before.items())
