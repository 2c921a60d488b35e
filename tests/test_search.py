import numpy as np
import pytest

from cwclifford.core import Multivector, blade_square_sign
from cwclifford.errors import DimensionTooLarge
from cwclifford.qpair import (SymmetricMap, extract_B, make_generalized,
                              make_linear, make_monomial, make_pseudo_monomial)
from cwclifford.search import (circle_coefficients, enumerate_two_monomial_cases,
                               instantiate_two_monomial, line_coefficients,
                               search_pairs_for_B, shape_masks, sign_system)

# the eight parity classes of the full four-row system, subscripts (K,I,J)
ALLE = {
    (0, 0, 0): [[1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1], [1, 1, 1, 1]],
    (0, 0, 1): [[1, 1, -1, -1], [1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1]],
    (0, 1, 0): [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]],
    (0, 1, 1): [[0, 0, -1, -1], [0, 0, 1, 1], [0, 0, 1, -1], [0, 0, -1, 1]],
    (1, 0, 0): [[1, -1, -1, 1], [1, -1, 1, -1], [1, 1, 1, 1], [1, 1, -1, -1]],
    (1, 0, 1): [[0, 0, -1, 1], [0, 0, 1, -1], [0, 0, 1, 1], [0, 0, -1, -1]],
    (1, 1, 0): [[0, 0, -1, 1], [0, 0, 1, -1], [0, 0, 1, 1], [0, 0, -1, -1]],
    (1, 1, 1): [[0, 0, -1, -1], [0, 0, 1, 1], [0, 0, 1, -1], [0, 0, -1, 1]],
}


def _size(parity):
    return 1 if parity else 2


def test_sign_systems_match_reference_tables():
    for (pk, pi, pj), want in ALLE.items():
        got = sign_system(_size(pi), _size(pj), _size(pk), 1)
        assert got == want, (pk, pi, pj)
        # complement absent drops the third row
        got = sign_system(_size(pi), _size(pj), _size(pk), 0)
        assert got == [want[0], want[1], want[3]], (pk, pi, pj)


def test_enumerate_bounds():
    with pytest.raises(DimensionTooLarge):
        enumerate_two_monomial_cases(1)
    with pytest.raises(DimensionTooLarge):
        enumerate_two_monomial_cases(7)


def _index(cases):
    return {(s.case, s.sizes["I"], s.sizes["J"], s.sizes["K"]): s for s in cases}


def test_enumerate_n4_spot_checks():
    idx = _index(enumerate_two_monomial_cases(4))
    # generic 1a shapes stay monomial-only
    assert idx[("1a", 1, 1, 1)].verdict == "monomial-only"
    # 1b with even grade product carries the bar pair
    s = idx[("1b", 1, 2, 0)]
    assert s.verdict == "non-monomial" and "d=c_bar" in s.templates
    # 1b with both grades odd is monomial-only
    assert idx[("1b", 1, 1, 0)].verdict == "monomial-only"
    # 2b even type: both signs of (c, +-c)
    s = idx[("2b", 2, 2, 0)]
    assert {"d=c", "d=-c"} <= set(s.templates)
    # 2b odd type: the circle family
    s = idx[("2b", 1, 3, 0)]
    assert "circle" in s.templates
    # 4a with both even: beta-flip family
    s = idx[("4a", 0, 2, 2)]
    assert "beta-flip" in s.templates
    # 4b: both branches
    s = idx[("4b", 0, 4, 0)]
    assert "alpha-equal" in s.templates and "beta-flip" in s.templates
    # no folds in even dimension
    assert all(s.fold is None for s in idx.values())


def test_enumerate_n5_folds():
    idx = _index(enumerate_two_monomial_cases(5))
    s = idx[("2b", 1, 4, 0)]
    assert s.verdict == "non-monomial" and s.fold == "monomial"
    s = idx[("2b", 2, 3, 0)]
    assert s.fold == "monomial"
    s = idx[("4a", 0, 2, 3)]
    assert s.fold == "3b" if s.verdict == "non-monomial" else True
    s = idx[("4b", 0, 5, 0)]
    assert s.fold == "scalars" if s.verdict == "non-monomial" else True
    # 2a folds onto 1b when a region has odd grade
    s = idx[("2a", 1, 2, 2)]
    if s.verdict == "non-monomial":
        assert s.fold == "1b"


def test_single_element_condition():
    rng = np.random.default_rng(0)
    for n in (3, 4, 5):
        for s in enumerate_two_monomial_cases(n):
            i, j, k = s.sizes["I"], s.sizes["J"], s.sizes["K"]
            if i == 0:
                continue
            a, b = rng.standard_normal(2)
            c, _ = instantiate_two_monomial(n, i, j, k, (a, b, 0.0, 0.0))
            pair = extract_B(c, Multivector.zero(n))
            if s.admits_single:
                assert pair.verified, (n, i, j, k)
                mi, mj, mk = shape_masks(i, j, k)
                sig_ik = blade_square_sign(mi | mk)
                sig_jk = blade_square_sign(mj | mk)
                want = (sig_ik * a ** 2 + sig_jk * b ** 2) * np.eye(n)
                assert np.max(np.abs(pair.B.entries - want)) < 1e-9
            else:
                assert not pair.verified, (n, i, j, k)


def test_template_instantiations_verify():
    rng = np.random.default_rng(1)
    for n in (4, 5, 6):
        for s in enumerate_two_monomial_cases(n):
            i, j, k = s.sizes["I"], s.sizes["J"], s.sizes["K"]
            if s.verdict == "monomial-only":
                coeffs = tuple(rng.standard_normal(4))
                c, d = instantiate_two_monomial(n, i, j, k, coeffs)
                assert not extract_B(c, d).verified, (n, s.case, i, j, k)
                continue
            for lam, mu in s.lines:
                c, d = instantiate_two_monomial(
                    n, i, j, k, line_coefficients(lam, mu, rng))
                assert extract_B(c, d).verified, (n, s.case, i, j, k, lam, mu)
            if "circle" in s.templates:
                c, d = instantiate_two_monomial(n, i, j, k,
                                                circle_coefficients(rng))
                assert extract_B(c, d).verified, (n, s.case, i, j, k)


def test_search_examples():
    hits = search_pairs_for_B(SymmetricMap.from_diagonal([-1.0, -9.0, -9.0]))
    monos = [h for h in hits if h.family == "monomial"]
    assert len(monos) == 1
    pair = monos[0].pair
    assert (pair.c - Multivector.blade(3, 0b001, 2.0)).is_zero(1e-12)
    assert (pair.d - Multivector.blade(3, 0b001, 1.0)).is_zero(1e-12)
    # identity multiple: the scalar pair appears
    hits = search_pairs_for_B(SymmetricMap.from_diagonal([2.0, 2.0, 2.0]))
    assert any(h.family == "monomial" and h.parameters["blade"] == []
               for h in hits)
    # three distinct eigenvalues in n=3: nothing fits
    assert search_pairs_for_B(SymmetricMap.from_diagonal([1.0, 2.0, 3.0])) == []


def test_search_all_pairs_verify():
    rng = np.random.default_rng(2)
    specs = [
        [-4.0, -4.0, -16.0, -16.0],
        [-1.0, -4.0, -4.0, -4.0],
        [-1.0, 2.0, 5.0, 5.0],
        [3.0, 3.0, 3.0, 3.0],
        [2.0, 2.0, -1.0, -1.0, 7.0],
    ]
    for spec in specs:
        b = SymmetricMap.from_diagonal(spec)
        for hit in search_pairs_for_B(b):
            assert hit.pair.verified
            assert hit.b_residual <= 1e-9 * max(1.0, np.max(np.abs(spec)))


def test_search_rotated_basis():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    b = SymmetricMap.from_matrix(q @ np.diag([-4.0, -4.0, -16.0, -16.0]) @ q.T)
    hits = search_pairs_for_B(b)
    assert hits
    for hit in hits:
        assert np.max(np.abs(hit.pair.B.entries - b.entries)) < 1e-8


def test_search_round_trips():
    rng = np.random.default_rng(4)
    # monomial round trip
    pair = make_monomial(4, 0b0011, 1.7, 0.6)
    hits = search_pairs_for_B(pair.B, "monomial")
    assert any(h.family == "monomial" for h in hits)
    # pseudo-monomial even round trip
    pair = make_pseudo_monomial(4, 0b0011, "even", 1.1, 0.3)
    hits = search_pairs_for_B(pair.B, "pseudo-monomial")
    assert any(h.family == "pseudo-monomial-even" for h in hits)
    # pseudo-monomial odd round trip
    pair = make_pseudo_monomial(4, 0b0001, "odd", 1.4, 0.5, phi=0.4)
    hits = search_pairs_for_B(pair.B, "pseudo-monomial")
    assert any(h.family == "pseudo-monomial-odd" for h in hits)
    # linear round trip
    pair = make_linear(SymmetricMap.from_diagonal([2.0, 2.0, -3.0, -3.0]))
    hits = search_pairs_for_B(pair.B, "linear")
    assert any(h.family == "linear" for h in hits)
    # generalized round trip
    pair = make_generalized(6, [0b000011, 0b001100, 0b110000], [1.0, 2.0, 3.0])
    hits = search_pairs_for_B(pair.B, "generalized")
    assert any(h.family == "generalized-monomial" for h in hits)


def test_generalized_guard_odd_multiplicities():
    # three odd-multiplicity clusters violate the parity rule
    b = SymmetricMap.from_diagonal([1.0, 2.0, 3.0, 4.0, 4.0])
    assert search_pairs_for_B(b, "generalized") == []


def test_linear_search_drops_what_clustering_alone_makes_even():
    """An eigenvalue zero to CLUSTER_TOL but not to CHECK_TOL, or a cluster
    spread that wide, gets a linear pair for the clustered spectrum; the
    search drops it as no hit, as for every other family, and keeps the hit
    where the spread is within CHECK_TOL."""
    for values in ([1e-8, -9.0, -9.0], [-4.0, -4.0 - 5e-8, -9.0, -9.0]):
        assert search_pairs_for_B(SymmetricMap.from_diagonal(values),
                                  "linear") == []
    hits = search_pairs_for_B(SymmetricMap.from_diagonal([1e-10, -9.0, -9.0]),
                              "linear")
    assert [h.family for h in hits] == ["linear"]
    assert hits[0].b_residual <= 1e-10


def test_dim3_linear_pairs_boundary():
    # in dimension 3 linear pairs only realize multiples of the identity or
    # degenerate maps with one multiplicity-two nonzero eigenvalue
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = float(rng.standard_normal()) or 1.0
        pair = make_linear(SymmetricMap.from_diagonal([lam, lam, 0.0]))
        assert pair.verified
        spaces = sorted((abs(s.value), s.multiplicity)
                        for s in pair.B.eigenspaces)
        nonzero = [(v, m) for v, m in spaces if v > 1e-9]
        assert len(nonzero) == 1 and nonzero[0][1] == 2
    scalar_pair = extract_B(Multivector.zero(3),
                            Multivector.scalar(3, 1.3))
    assert scalar_pair.verified
    assert scalar_pair.B.distinct_count() == 1
