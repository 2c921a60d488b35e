import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from cwclifford.core import (CHECK_TOL, PRUNE_EPS, Multivector, gp,
                             grade_involution, random_multivector,
                             threshold, volume_element)
from cwclifford import cw
from cwclifford.cw import (SQRT2, _combine, _structure_constants,
                           CliffordMap, CliffordMapParams, CWAlgebraElement,
                           CWElement, build_flat_rep_alphanotzero,
                           build_flat_rep_alphazero, catalog_projector,
                           check_restriction, curvature, curvature_sweep,
                           cw_bracket, cw_to_matrix, flatness_report,
                           generators, half_spinor_projector,
                           validate_simple_map, w_basis, x_projector_element)
from cwclifford.errors import (ConstraintViolated, DimensionMismatch,
                               InputError, NotAProjector, NotInSoB,
                               OddDimension, PairNotAssociatedToMinusB)
from cwclifford.gammarep import build_rep
from cwclifford.qpair import (SymmetricMap, make_generalized,
                              make_monomial, q_map, s_map, skew_to_bivector)
from cwclifford.textio import load_params_file


def rand_params(rng, n, b=None):
    if b is None:
        b = SymmetricMap.from_diagonal(rng.standard_normal(n))
    return CliffordMapParams(b, *(random_multivector(rng, n, 5)
                                  for _ in range(5)))


# -- Lie algebra --------------------------------------------------------------

def test_bracket_examples():
    n = 3
    b = SymmetricMap.from_diagonal([2.0, 3.0, 4.0])
    em = CWAlgebraElement.e_minus(n)
    e1 = CWAlgebraElement.basis_vector(n, 1)
    out = cw_bracket(em, e1, b)
    assert np.allclose(out.vstar, [1, 0, 0]) and out.norm() == 1.0
    e1s = CWAlgebraElement.basis_covector(n, 1)
    out = cw_bracket(e1s, em, b)
    assert np.allclose(out.v, [2.0, 0, 0])
    assert out.xplus == 0 and not np.any(out.vstar)
    # [v*, w] = -<Bv, w> e_+
    out = cw_bracket(e1s, e1, b)
    assert out.xplus == -2.0 and not np.any(out.v)
    # e_+ is central
    ep = CWAlgebraElement.e_plus(n)
    for other in (em, e1, e1s):
        assert cw_bracket(ep, other, b).norm() == 0.0


def test_bracket_jacobi_random():
    rng = np.random.default_rng(0)
    n = 4
    b = SymmetricMap.from_diagonal([2.0, 2.0, -1.0, -1.0])
    def rand_elem():
        h = sum(rng.standard_normal() * hb for hb in b.sob_basis())
        return CWAlgebraElement(n, h, rng.standard_normal(n),
                                rng.standard_normal(n),
                                float(rng.standard_normal()),
                                float(rng.standard_normal()))
    for _ in range(15):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        j = (cw_bracket(cw_bracket(x, y, b), z, b)
             + cw_bracket(cw_bracket(y, z, b), x, b)
             + cw_bracket(cw_bracket(z, x, b), y, b))
        assert j.norm() < 1e-12 * (1 + x.norm() * y.norm() * z.norm())


@pytest.mark.parametrize("mu", [0, -1, 4])
def test_basis_index_outside_range_is_rejected(mu):
    for make in (CWAlgebraElement.basis_vector,
                 CWAlgebraElement.basis_covector):
        with pytest.raises(DimensionMismatch):
            make(3, mu)
    assert list(CWAlgebraElement.basis_vector(3, 3).v) == [0.0, 0.0, 1.0]
    assert list(CWAlgebraElement.basis_covector(3, 1).vstar) == [1.0, 0.0, 0.0]


def test_bracket_rejects_rotations_outside_sob():
    n = 3
    b = SymmetricMap.from_diagonal([1.0, 2.0, 3.0])
    h = np.array([[0.0, 1.0, 0], [-1.0, 0, 0], [0, 0, 0.0]])
    with pytest.raises(NotInSoB):
        cw_bracket(CWAlgebraElement.rotation(n, h),
                   CWAlgebraElement.e_minus(n), b)


# -- block endomorphisms ------------------------------------------------------

def from_graded(r2, a):
    """Embedding of the graded tensor r (x) a; the parity twist puts bar(a)
    in the first column."""
    ab = grade_involution(a)
    return CWElement(r2[0, 0] * ab, r2[0, 1] * a, r2[1, 0] * ab, r2[1, 1] * a)


_GAMMA_PLUS = np.array([[0.0, SQRT2], [0.0, 0.0]])
_GAMMA_MINUS = np.array([[0.0, 0.0], [-SQRT2, 0.0]])
_ID2 = np.eye(2)


def clw_generator_eplus(n):
    return from_graded(_GAMMA_PLUS, Multivector.unit(n))


def clw_generator_eminus(n):
    return from_graded(_GAMMA_MINUS, Multivector.unit(n))


def clw_generator_vector(n, mu):
    return from_graded(_ID2, Multivector.basis_vector(n, mu))


def test_clw_generators_satisfy_relations():
    n = 3
    gens = [clw_generator_eplus(n), clw_generator_eminus(n)] \
        + [clw_generator_vector(n, mu) for mu in range(1, n + 1)]
    metric = np.zeros((n + 2, n + 2))
    metric[0, 1] = metric[1, 0] = 1.0
    metric[2:, 2:] = np.eye(n)
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            anti = gi * gj + gj * gi
            want = CWElement.diagonal(Multivector.unit(n)) * complex(
                -2 * metric[i, j])
            assert (anti - want).norm() < 1e-12


def full_block_product(x, y):
    return CWElement(gp(x.p, y.p) + gp(x.q, y.r), gp(x.p, y.q) + gp(x.q, y.s),
                     gp(x.r, y.p) + gp(x.s, y.r), gp(x.r, y.q) + gp(x.s, y.s))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_block_product_matches_all_eight_products(n):
    rng = np.random.default_rng(30 + n)
    z = Multivector.zero(n)

    def rand_blocks():
        return CWElement(*(random_multivector(rng, n, 3)
                           if rng.random() < 0.6 else z for _ in range(4)))
    for _ in range(60):
        x, y = rand_blocks(), rand_blocks()
        assert x * y == full_block_product(x, y)
        assert CWElement.zero(n) * x == full_block_product(CWElement.zero(n), x)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_block_multiplication_matches_big_matrices(n):
    rng = np.random.default_rng(1)
    rep = build_rep(n, "faithful")
    for _ in range(5):
        x = CWElement(*(random_multivector(rng, n, 4) for _ in range(4)))
        y = CWElement(*(random_multivector(rng, n, 4) for _ in range(4)))
        err = np.max(np.abs(cw_to_matrix(x * y, rep)
                            - cw_to_matrix(x, rep) @ cw_to_matrix(y, rep)))
        assert err < 1e-10


# -- Clifford maps ------------------------------------------------------------

def test_map_images_match_blocks():
    n = 3
    rng = np.random.default_rng(2)
    params = rand_params(rng, n)
    rho = CliffordMap(params)
    img = rho(CWAlgebraElement.basis_covector(n, 1))
    want = (1.0 / np.sqrt(2)) * Multivector.from_vector(
        n, params.b_map.entries[:, 0])
    assert (img.q - want).is_zero(1e-12)
    assert img.p.is_zero() and img.r.is_zero() and img.s.is_zero()
    em = rho(CWAlgebraElement.e_minus(n))
    assert (em.p - grade_involution(params.c)).is_zero(1e-12)
    assert (em.s - params.d).is_zero(1e-12)


def test_vstar_equivariance_structure():
    # [rho(v*), rho(e+)] = 0 and [rho(v*), rho(e-)] = rho(Bv) always hold;
    # [rho(v*), rho(w)] = -<Bv,w> rho(e+) is exactly the sandwich condition
    rng = np.random.default_rng(3)
    n = 3
    for _ in range(5):
        params = rand_params(rng, n)
        rho = CliffordMap(params)
        for mu in range(1, n + 1):
            vs = CWAlgebraElement.basis_covector(n, mu)
            assert curvature(rho, vs, CWAlgebraElement.e_plus(n)).norm() < 1e-12
            assert curvature(rho, vs, CWAlgebraElement.e_minus(n)).norm() < 1e-12
    # with the sandwich condition satisfied the (v*, w) curvature vanishes
    a = Multivector.scalar(3, -0.6)
    b = Multivector.scalar(3, 0.6)
    params = CliffordMapParams(SymmetricMap.from_diagonal([1.0, 2.0, 3.0]),
                               a, b, random_multivector(rng, 3, 4),
                               random_multivector(rng, 3, 4),
                               random_multivector(rng, 3, 4))
    rho = CliffordMap(params)
    for mu in range(1, 4):
        for nu in range(1, 4):
            r = curvature(rho, CWAlgebraElement.basis_covector(3, mu),
                          CWAlgebraElement.basis_vector(3, nu))
            assert r.norm() < 1e-12


def reference_simple_map(params):
    """Rows 24/24a as gp loops: the symmetrized sandwiches of bar(b)
    between two generators, and a minus their trace over n."""
    n = params.n
    a, bbar = params.a, grade_involution(params.b)
    gens = [Multivector.basis_vector(n, mu) for mu in range(1, n + 1)]
    bg = [gp(bbar, g) for g in gens]      # bar(b) e_mu, once per index
    res24 = 0.0
    for mu in range(n):
        for nu in range(mu, n):
            sym = 0.5 * (gp(gens[mu], bg[nu]) + gp(gens[nu], bg[mu]))
            if mu == nu:
                sym = sym - a
            res24 = max(res24, sym.norm())
    acc = Multivector.zero(n)
    for mu in range(n):
        acc = acc + gp(gens[mu], bg[mu])
    res24a = (a - (1.0 / n) * acc).norm()
    return {"24": res24, "24a": res24a}


GOLDEN_PARAMS = sorted((Path(__file__).parent / "golden" / "inputs").glob(
    "*params*.json"))


@pytest.mark.parametrize("path", GOLDEN_PARAMS, ids=lambda p: p.stem)
def test_simple_map_rows_are_the_reference_on_golden_params(path):
    dim, b, f = load_params_file(str(path))
    params = CliffordMapParams(SymmetricMap.from_matrix(b), f["a"], f["b"],
                               f["c"], f["d"], f["e"])
    got, want = validate_simple_map(params), reference_simple_map(params)
    assert {k: v.hex() for k, v in got.items()} == \
        {k: v.hex() for k, v in want.items()}


def test_simple_map_rows_match_the_reference_on_random_params(gp_calls):
    """Row 24 keeps the reference's bits; row 24a, the closed-form trace,
    sums each coefficient once where the reference adds n sandwiches, and
    agrees to 1e-15 max(1, |ref|).  No gp call."""
    rng = np.random.default_rng(24)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        params = CliffordMapParams(
            SymmetricMap.from_diagonal(rng.standard_normal(n)),
            *(random_multivector(rng, n, int(rng.integers(0, 12)))
              * float(10.0 ** rng.integers(-3, 4)) for _ in range(5)))
        start = len(gp_calls)
        got = validate_simple_map(params)
        assert len(gp_calls) == start
        want = reference_simple_map(params)
        assert got["24"].hex() == want["24"].hex()
        assert abs(got["24a"] - want["24a"]) <= 1e-15 * max(1.0, want["24a"])


def test_simple_map_rows_vanish_exactly_on_the_compatible_maps():
    """bar(b) = beta, with a = -beta, for odd n, and bar(b) = beta + gamma
    vol, with a = -beta + gamma vol, for even n give rows of exactly 0."""
    rng = np.random.default_rng(241)
    for n in range(1, 9):
        for _ in range(20):
            beta, gamma = rng.standard_normal(2) @ [[1, 1j], [1, -1j]] \
                * 10.0 ** rng.integers(-8, 9, 2)
            bbar = Multivector.scalar(n, beta)
            a = Multivector.scalar(n, -beta)
            if n % 2 == 0:
                bbar = bbar + gamma * volume_element(n)
                a = a + gamma * volume_element(n)
            z = Multivector.zero(n)
            params = CliffordMapParams(
                SymmetricMap.from_diagonal(rng.standard_normal(n)), a,
                grade_involution(bbar), z, z, z)
            assert validate_simple_map(params) == {"24": 0.0, "24a": 0.0}


def test_validate_simple_map():
    n = 3
    zero = Multivector.zero(n)
    b = SymmetricMap.from_diagonal([1.0, 1.0, 1.0])
    alpha = 0.8
    good = CliffordMapParams(b, Multivector.scalar(n, alpha),
                             Multivector.scalar(n, -alpha), zero, zero, zero)
    out = validate_simple_map(good)
    assert out.keys() == {"24", "24a"}
    assert out["24"] < 1e-14 and out["24a"] < 1e-14
    n = 4
    zero4 = Multivector.zero(4)
    b4 = SymmetricMap.from_diagonal([1.0] * 4)
    beta = -0.3
    bbar = Multivector.scalar(4, 0.5) + beta * volume_element(4)
    avec = -1 * (Multivector.scalar(4, 0.5) - beta * volume_element(4))
    good4 = CliffordMapParams(b4, avec, grade_involution(bbar),
                              zero4, zero4, zero4)
    out = validate_simple_map(good4)
    assert out["24"] < 1e-14 and out["24a"] < 1e-14
    bad = CliffordMapParams(b4, zero4, Multivector.basis_vector(4, 1),
                            zero4, zero4, zero4)
    out = validate_simple_map(bad)
    assert out["24"] > 0.1 and out["24a"] > 0.1


def test_curvature_spin_only_map():
    n = 3
    zero = Multivector.zero(n)
    b = SymmetricMap.from_diagonal([1.0, 2.0, 3.0])
    rho = CliffordMap(CliffordMapParams(b, zero, zero, zero, zero, zero))
    r = curvature(rho, CWAlgebraElement.e_minus(n),
                  CWAlgebraElement.basis_vector(n, 1))
    want = rho(CWAlgebraElement.basis_covector(n, 1))
    assert (r + want).norm() < 1e-14
    assert r.norm() > 0.1


def test_curvature_center_pair_closed_form():
    # with a = alpha, b = -alpha (odd n) the (e-, e+) curvature is
    # -2 alpha^2 (sigma (x) 1) + alpha Gamma_+ (x) (bar c - d)
    rng = np.random.default_rng(4)
    n = 3
    alpha = 0.9
    c, d, e_el = (random_multivector(rng, n, 5) for _ in range(3))
    params = CliffordMapParams(SymmetricMap.from_diagonal([1.0, 2.0, 3.0]),
                               Multivector.scalar(n, alpha),
                               Multivector.scalar(n, -alpha), c, d, e_el)
    rho = CliffordMap(params)
    r = curvature(rho, CWAlgebraElement.e_minus(n), CWAlgebraElement.e_plus(n))
    sigma = np.array([[-1.0, 0.0], [0.0, 1.0]])
    want = from_graded(sigma, Multivector.scalar(n, -2 * alpha ** 2)) \
        + from_graded(np.array([[0.0, np.sqrt(2)], [0.0, 0.0]]),
                      alpha * (grade_involution(c) - d))
    assert (r - want).norm() < 1e-12
    assert r.norm() > 0.1


def reference_flatness_report(params):
    """The flatness rows as gp loops over the obstruction terms."""
    n = params.n
    a = params.a
    bbar = grade_involution(params.b)
    cbar = grade_involution(params.c)
    d, e = params.d, params.e

    gens = [Multivector.basis_vector(n, mu) for mu in range(1, n + 1)]
    s = [s_map(cbar, d, g) for g in gens]
    rows = {}
    rows["23-1"] = (gp(cbar, a) - gp(a, d)).norm()
    rows["23-2"] = max(gp(a, bbar).norm(), gp(bbar, a).norm())
    val = reference_simple_map(params)
    rows["24"] = float(val["24"])
    rows["24a"] = float(val["24a"])
    bg = [gp(bbar, g) for g in gens]
    bs = [gp(bbar, x) for x in s]
    r251 = r252 = 0.0
    for mu in range(n):
        for nu in range(mu + 1, n):
            gm, gn = gens[mu], gens[nu]
            anti = 0.5 * (gp(gm, bg[nu]) - gp(gn, bg[mu]))
            r251 = max(r251, gp(bbar, anti).norm(), gp(anti, bbar).norm())
            mix = 0.5 * (gp(gm, bs[nu]) - gp(gn, bs[mu])
                         - gp(s[mu], bg[nu]) + gp(s[nu], bg[mu]))
            r252 = max(r252, mix.norm())
    rows["25-1"] = r251
    rows["25-2"] = r252
    mixed = gp(bbar, cbar) + gp(d, bbar)
    r261 = r262 = r27 = 0.0
    ebbar = gp(e, bbar)
    bbare = gp(bbar, e)
    bm = params.b_map.entries
    for mu in range(n):
        gm = gens[mu]
        r261 = max(r261, (gp(gm, mixed) - 2 * gp(cbar, gp(gm, bbar))).norm(),
                   (gp(mixed, gm) - 2 * gp(bbar, gp(gm, d))).norm())
        r262 = max(r262, gp(bbar, gp(gm, bbar)).norm())
        bv = Multivector.from_vector(n, bm[:, mu])
        r27 = max(r27, (q_map(cbar, d, gm)
                        + 2 * (gp(ebbar, gm) + gp(gm, bbare)) + bv).norm())
    rows["26-1"] = r261
    rows["26-2"] = r262
    rows["27"] = r27
    return rows


def assert_report_matches_reference(params):
    report = flatness_report(params)
    want = reference_flatness_report(params)
    assert list(report) == list(want)
    for key, value in want.items():
        assert type(report[key]) is float
        assert abs(report[key] - value) <= 1e-14 * max(1.0, abs(value)), key
    return report


def test_flatness_report_matches_curvature():
    # 200 random draws across n <= 5: the per-equation residual rows are
    # exactly the curvature obstruction on the matching basis pairs
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        draws = []
        for _ in range(25):
            b = SymmetricMap.from_diagonal(rng.standard_normal(n))
            draws.append(rand_params(rng, n, b))                   # generic
            zero = Multivector.zero(n)
            draws.append(CliffordMapParams(b, zero, zero,
                                           random_multivector(rng, n, 4),
                                           random_multivector(rng, n, 4),
                                           random_multivector(rng, n, 4)))
        for params in draws:
            rho = CliffordMap(params)
            report = assert_report_matches_reference(params)
            w_rows = max(report[k] for k in
                         ("23-1", "23-2", "25-1", "25-2", "26-1", "26-2", "27"))
            w_curv = curvature_sweep(rho)
            assert (w_rows < 1e-9) == (w_curv < 1e-9)
            # the 24-rows are the covector part of the sweep
            vs_curv = 0.0
            for mu in range(1, n + 1):
                for nu in range(1, n + 1):
                    vs_curv = max(vs_curv, curvature(
                        rho, CWAlgebraElement.basis_covector(n, mu),
                        CWAlgebraElement.basis_vector(n, nu)).norm())
            assert (report["24"] < 1e-9) == (vs_curv < 1e-9)
    # n = 1 has no (e_mu, e_nu) pair: its rows read 0.0
    report = assert_report_matches_reference(rand_params(rng, 1))
    assert report["25-1"] == report["25-2"] == 0.0 < report["27"]


def test_flatness_report_reads_the_sweep(monkeypatch):
    """The report forms no product of its own: every gp call is one of its
    map's images.  validate_simple_map, which reads rows 24/24a by parity,
    makes none, so the report makes as many calls as the images alone."""
    params = rand_params(np.random.default_rng(17), 4)
    calls = []
    monkeypatch.setattr(cw, "gp", lambda a, b: calls.append(1) or gp(a, b))
    dataclasses.replace(params).images
    validate_simple_map(params)
    own = len(calls)
    flatness_report(params)
    assert len(calls) == 2 * own


def test_flat_reports_are_zero_for_flat_family():
    rng = np.random.default_rng(6)
    pair = make_generalized(5, [0b00011, 0b01100, 0b10000], [1.0, 2.0, 3.0])
    b = SymmetricMap.from_matrix(-pair.B.entries)
    rho = build_flat_rep_alphazero(grade_involution(pair.c), pair.d,
                                   random_multivector(rng, 5, 4), b)
    report = flatness_report(rho.params)
    assert max(report.values()) < 1e-12
    assert curvature_sweep(rho) < 1e-12


def test_alphazero_free_parameter_and_rejection():
    rng = np.random.default_rng(7)
    pair = make_monomial(3, 0b001, 2.0, 1.0)
    b = SymmetricMap.from_matrix(-pair.B.entries)
    c = grade_involution(pair.c)
    for _ in range(3):
        e_el = random_multivector(rng, 3, 5)
        rho = build_flat_rep_alphazero(c, pair.d, e_el, b)
        assert curvature_sweep(rho) < 1e-12
    with pytest.raises(PairNotAssociatedToMinusB):
        build_flat_rep_alphazero(
            c, pair.d, Multivector.zero(3),
            SymmetricMap.from_matrix(-1.01 * pair.B.entries))


def test_alphanotzero_special_choices_and_random():
    n, lam = 4, 0.7
    z = Multivector.zero(n)
    rho1 = build_flat_rep_alphanotzero(-lam, 1.0, 0.0, lam, z, z, z, z, sign=1)
    assert curvature_sweep(rho1) < 1e-12
    rho2 = build_flat_rep_alphanotzero(0.0, 0.0, 0.0, lam, z, z, z, z, sign=-1)
    assert curvature_sweep(rho2) < 1e-12
    rng = np.random.default_rng(8)
    for sign in (1, -1):
        for alpha, beta in ((0.8, -0.3), (0.5, -3.0), (1.1, 0.2)):
            kappa = complex(np.sqrt(complex(2 * (alpha * beta + lam))))
            pi_a = half_spinor_projector(n, sign)
            pi_b = half_spinor_projector(n, -sign)
            c_off = random_multivector(rng, n, 5)
            d_off = random_multivector(rng, n, 5)
            cblk = gp(pi_a, gp(c_off, pi_b))
            dblk = gp(pi_b, gp(d_off, pi_a))
            e_off = -(kappa / (2 * alpha)) * cblk + (kappa / (2 * alpha)) * dblk
            e_pp = gp(pi_a, gp(random_multivector(rng, n, 3), pi_a))
            rho = build_flat_rep_alphanotzero(
                alpha, beta, float(rng.standard_normal()), lam, e_pp,
                c_off, d_off, e_off, sign=sign)
            assert curvature_sweep(rho) < 1e-9


def test_alphanotzero_rejections():
    n, lam = 4, 0.7
    z3 = Multivector.zero(3)
    with pytest.raises(OddDimension):
        build_flat_rep_alphanotzero(1.0, 1.0, 0.0, lam, z3, z3, z3, z3)
    rng = np.random.default_rng(9)
    z = Multivector.zero(n)
    c_off = random_multivector(rng, n, 5)
    with pytest.raises(ConstraintViolated):
        build_flat_rep_alphanotzero(0.8, -0.3, 0.0, lam, z, c_off, z, z)


def test_nonsimple_invariance():
    # parameters built from eigenspace volume blades commute with so_B
    pair = make_generalized(4, [0b0011, 0b1100], [1.0, 2.0])
    b = SymmetricMap.from_matrix(-pair.B.entries)
    rho = build_flat_rep_alphazero(grade_involution(pair.c), pair.d,
                                   Multivector.blade(4, 0b0011, 0.3), b)
    em = CWAlgebraElement.e_minus(4)
    for h in b.sob_basis():
        r = rho(CWAlgebraElement.rotation(4, h)).commutator(rho(em))
        assert r.norm() < 1e-12
    assert curvature_sweep(rho, extended=True) < 1e-9
    # a non-invariant c breaks the extended sweep
    rng = np.random.default_rng(10)
    bad = CliffordMapParams(b, Multivector.zero(4), Multivector.zero(4),
                            Multivector.basis_vector(4, 1),
                            Multivector.zero(4), Multivector.zero(4))
    rho_bad = CliffordMap(bad)
    worst = 0.0
    for h in b.sob_basis():
        worst = max(worst, rho_bad(CWAlgebraElement.rotation(4, h))
                    .commutator(rho_bad(em)).norm())
    assert worst > 0.1


# -- restrictions -------------------------------------------------------------

def test_restriction_rejects_non_projector():
    n = 3
    rng = np.random.default_rng(11)
    rho = CliffordMap(rand_params(rng, n))
    bad = CWElement.diagonal(Multivector.unit(n)) * 0.5
    with pytest.raises(NotAProjector):
        check_restriction(rho, bad)


def test_sigma_minus_slot_for_alphazero_maps():
    # the e- action survives on the first slot; with b = 0 it is invariant
    rng = np.random.default_rng(12)
    n = 3
    zero = Multivector.zero(n)
    params = CliffordMapParams(SymmetricMap.from_diagonal([1.0, 2.0, 2.0]),
                               zero, zero, random_multivector(rng, n, 4),
                               random_multivector(rng, n, 4),
                               random_multivector(rng, n, 4))
    rho = CliffordMap(params)
    out = check_restriction(rho, catalog_projector("sigma-", n))
    assert out["invariant"] and out["representation"]


def test_x_projector_idempotent():
    x = x_projector_element(4, 0b0001, 0b1110, 1)
    assert (gp(x, x) - x).is_zero(1e-12)
    x2 = x_projector_element(4, 0b0001, 0b0010, -1)
    assert (gp(x2, x2) - x2).is_zero(1e-12)
    with pytest.raises(InputError):
        x_projector_element(4, 0b0011, 0b0010, 1)


def test_catalog_names():
    for name in ("sigma-", "sigma+"):
        p = catalog_projector(name, 3)
        assert (p * p - p).norm() < 1e-12
    for name in ("sv+s-", "sv+s+", "s-w", "s+w", "sigma-pi+", "sigma+pi-"):
        p = catalog_projector(name, 4)
        assert (p * p - p).norm() < 1e-12
    p = catalog_projector("x+:1;2,3,4", 4)
    assert (p * p - p).norm() < 1e-12
    with pytest.raises(InputError):
        catalog_projector("nope", 4)
    with pytest.raises(InputError):
        catalog_projector("sv+s-", 3)


def test_w_basis_size():
    assert len(w_basis(4)) == 6


# -- the shared bracket-defect loop against the per-pair definitions ----------

def reference_sweep(rho, extended=False):
    gens = w_basis(rho.n)
    if extended:
        gens = generators(rho.n) + [CWAlgebraElement.rotation(rho.n, h)
                                    for h in rho.params.b_map.sob_basis()]
    return max(curvature(rho, x, y).norm()
               for i, x in enumerate(gens) for y in gens[i + 1:])


def reference_restriction(rho, proj):
    gens = generators(rho.n)
    images = [rho(x) for x in gens]
    compressed = [proj * img * proj for img in images]
    inv_res = max((img * proj - proj * img * proj).norm() for img in images)
    rep_res = 0.0
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            lhs = compressed[i].commutator(compressed[j])
            rhs = proj * rho(cw_bracket(gens[i], gens[j], rho.params.b_map)) * proj
            rep_res = max(rep_res, (lhs - rhs).norm())
    return inv_res, rep_res


def _maps(n, rng):
    """Random maps over a diagonal B, a rotated B with a repeated eigenvalue
    and B = -1.4 I, where all of so(n) enters, and at even n an alpha != 0
    flat map with that B."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.repeat(rng.standard_normal((n + 1) // 2), 2)[:n]   # repeated
    b_maps = [SymmetricMap.from_diagonal(rng.standard_normal(n)),
              SymmetricMap.from_matrix(q @ np.diag(vals) @ q.T),
              SymmetricMap.from_matrix(-1.4 * np.eye(n))]
    if n >= 3:                                          # a 3-cluster
        vals = rng.standard_normal(n)
        vals[:3] = vals[0]
        b_maps.append(SymmetricMap.from_matrix(q @ np.diag(vals) @ q.T))
    maps = [CliffordMap(rand_params(rng, n, b)) for b in b_maps]
    if n % 2 == 0:
        z = Multivector.zero(n)
        maps.append(build_flat_rep_alphanotzero(
            0.8, -0.3, 0.4, 0.7, random_multivector(rng, n, 3), z, z, z))
    return maps


def _check_against_reference(rho):
    n = rho.n
    for x, img in zip(generators(n), rho.params.images, strict=True):
        assert (img - rho(x)).is_zero()
    assert curvature_sweep(rho) == reference_sweep(rho)
    assert curvature_sweep(rho, extended=True) == \
        reference_sweep(rho, extended=True)
    for name in ["sigma-", "x+:1;2"] + (["s+w"] if n % 2 == 0 else []):
        proj = catalog_projector(name, n)
        out = check_restriction(rho, proj)
        assert (out["invariance_residual"], out["representation_residual"]) \
            == reference_restriction(rho, proj)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bracket_defect_loop_matches_reference(n):
    for rho in _maps(n, np.random.default_rng(20 + n)):
        _check_against_reference(rho)


@pytest.mark.parametrize("block", [1, float("inf")], ids=["pair", "all"])
def test_bracket_defect_pass_is_blocked_without_changing_a_bit(block,
                                                               monkeypatch):
    """One pair at a time, and every pair at once."""
    monkeypatch.setattr(cw, "_GP_BLOCK", block)
    for n in (3, 4):
        for rho in _maps(n, np.random.default_rng(30 + n)):
            _check_against_reference(rho)


def test_extended_sweep_takes_a_near_degenerate_cluster():
    """-1 and -1 - 5e-9 share an eigenspace to CLUSTER_TOL, so its rotation
    enters so_B(V) although it commutes with B only to about 5e-9, beyond
    h_image's check to CHECK_TOL; the sweep takes its own rotations without
    that check, and a caller's rotation is still checked."""
    b = SymmetricMap.from_diagonal([-1.0, -1.0 - 5e-9, -4.0, -4.0])
    assert [s.multiplicity for s in b.eigenspaces] == [2, 2]
    rho = CliffordMap(rand_params(np.random.default_rng(40), 4, b))
    plain = curvature_sweep(rho)
    extended = curvature_sweep(rho, extended=True)
    assert np.isfinite(extended) and extended >= plain > 0.1
    with pytest.raises(NotInSoB):
        rho.h_image(b.sob_basis()[1])


@pytest.mark.parametrize("scale", [1e150, 1e160])
def test_bracket_defect_overflows_where_the_loop_does(scale):
    n = 4
    z = Multivector.zero(n)
    c = Multivector.blade(n, 0b0001, scale)
    e = Multivector.blade(n, 0b0011, scale)
    rho = CliffordMap(CliffordMapParams(
        SymmetricMap.from_diagonal([1.0, 2.0, 3.0, 4.0]), z, z, c, c, e))
    for extended in (False, True):
        with pytest.raises(OverflowError):
            curvature_sweep(rho, extended=extended)
    proj = catalog_projector("sigma+", n)
    if scale == 1e160:
        with pytest.raises(OverflowError):
            check_restriction(rho, proj)
    else:
        out = check_restriction(rho, proj)
        residuals = (out["invariance_residual"],
                     out["representation_residual"])
        assert residuals == reference_restriction(rho, proj)
        assert np.isfinite(residuals).all()


def test_block_products_and_norms_match_the_cwelement_arithmetic():
    rng = np.random.default_rng(12)
    n = 4
    z = Multivector.zero(n)
    xs = [CWElement(*(random_multivector(rng, n, int(rng.integers(0, 6)))
                      for _ in range(4))) for _ in range(10)]
    # gp(a, b) leaves 1.5e-14 e_1 - 1.5e-14 e_2 beside 2 e_{1,2}, above gp's
    # cut and below a sum's, so a block of one product must not be cut again
    a = Multivector(n, {0b00: 1.0, 0b11: 1.0, 0b01: 1.5e-14})
    b = Multivector(n, {0b00: 1.0, 0b11: 1.0})
    xs += [CWElement(a, z, z, z), CWElement(b, z, z, z)]
    ix, iy = (x.ravel() for x in np.indices((len(xs), len(xs))))
    prods = cw._block_mul(cw._element_rows(xs), ix, cw._element_rows(xs), iy,
                          n)
    assert cw._element_rows([xs[-2] * xs[-1]]).ptr[1] == 3
    for k, (i, j) in enumerate(zip(ix, iy)):
        want = xs[i] * xs[j]
        for block, x in enumerate((want.p, want.q, want.r, want.s)):
            lo, hi = prods.ptr[4 * k + block:4 * k + block + 2]
            assert [(int(m), complex(r, c)) for m, r, c in zip(
                prods.blade[lo:hi], prods.re[lo:hi], prods.im[lo:hi])] \
                == list(x.terms()), (i, j, block)
            assert prods.top[4 * k + block] == x._top
    assert cw._element_norms(cw._rows_norm(prods)).tolist() == [
        (xs[i] * xs[j]).norm() for i, j in zip(ix, iy)]


# -- the bracket images read from the structure constants ---------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_bracket_images_match_rho_of_cw_bracket(n):
    rng = np.random.default_rng(40 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = rng.standard_normal(n)
    vals[:3] = vals[0]                                  # a 3-cluster
    diagonal = SymmetricMap.from_diagonal(rng.standard_normal(n))
    for b in (diagonal, SymmetricMap.from_matrix(q @ np.diag(vals) @ q.T),
              SymmetricMap.from_matrix(-1.4 * np.eye(n))):   # alpha != 0
        rho = CliffordMap(rand_params(rng, n, b))
        rotations = b.sob_basis()
        gens = generators(n) + [CWAlgebraElement.rotation(n, h)
                                for h in rotations]
        chains = (np.concatenate(x) for x in zip(
            _structure_constants(n, b.entries), cw._rotation_constants(
                n, np.array(rotations).reshape(-1, n, n))))
        images = [*rho.params.images, *map(rho.h_image, rotations)]
        table = {}
        for i, j, k, f in zip(*chains):
            table.setdefault((int(i), int(j)), []).append((f, images[k]))
        # the rotation x rotation pairs, which the sweep skips, are
        # test_the_spin_lift_is_a_homomorphism's
        for i, x in enumerate(gens[:2 * n + 2]):
            for j in range(i + 1, len(gens)):
                bracket = cw_bracket(x, gens[j], b)
                if (i, j) in table:
                    assert _combine(n, table[i, j]) == rho(bracket)
                else:
                    assert bracket.norm() == 0.0
        if b is not diagonal:               # some [e_mu, h] is nonzero
            assert max(j for i, j in table) >= 2 * n + 2


@pytest.mark.parametrize("n", range(2, 13))
def test_the_spin_lift_is_a_homomorphism(n):
    """[rho(h), rho(h')] = rho([h, h']) on rotations, which is why the
    extended sweep skips the rotation x rotation pairs: exactly on the
    basis E_mu nu = e_mu e_nu^T - e_nu e_mu^T of so(n), and within
    threshold(CHECK_TOL, |h| |h'|) on sob_basis() of a rotated B with a
    3-cluster.  The defects from h_image and cw_bracket are those of the
    sweep's own images (_rotation_rows) through _defect_norms, bit for
    bit."""
    rng = np.random.default_rng(90 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = rng.standard_normal(n)
    vals[:3] = vals[0]
    rotated = SymmetricMap.from_matrix(q @ np.diag(vals) @ q.T)
    eye, z = np.eye(n), Multivector.zero(n)
    basis = [np.outer(eye[a], eye[b]) - np.outer(eye[b], eye[a])
             for a, b in zip(*np.triu_indices(n, 1))]
    for b, rotations, exact in ((SymmetricMap.from_matrix(-1.4 * eye),
                                 basis, True),
                                (rotated, rotated.sob_basis(), False)):
        rho = CliffordMap(CliffordMapParams(b, z, z, z, z, z))
        x = [CWAlgebraElement.rotation(n, h) for h in rotations]
        images = [rho.h_image(h) for h in rotations]
        i, j = np.triu_indices(len(x), 1)
        brackets = [cw_bracket(x[s], x[t], b) for s, t in zip(i, j)]
        want = [(images[s].commutator(images[t]) - rho(y)).norm()
                for s, t, y in zip(i, j, brackets)]
        for s, t, norm in zip(i, j, want):
            assert norm <= (0.0 if exact else threshold(
                CHECK_TOL, x[s].norm() * x[t].norm())), (s, t)
        if n < 3:       # so(2) has one rotation, and no pair
            continue
        assert any(y.h.any() for y in brackets)
        at = np.full((len(x),) * 2, -1)
        at[i, j] = np.arange(len(i))
        assert cw._element_norms(cw._defect_norms(
            cw._rotation_rows(np.array(rotations), n), (i, j),
            cw._rotation_rows(np.array([y.h for y in brackets]), n), at,
            n)).tolist() == want


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0, -1.0])
def test_restriction_refuses_a_bad_tolerance_factor(factor):
    rho = CliffordMap(rand_params(np.random.default_rng(7), 3))
    proj = catalog_projector("sigma+", 3)
    assert not check_restriction(rho, proj)["invariant"]
    with pytest.raises(InputError, match="tolerance factor"):
        check_restriction(rho, proj, tol=factor)


@pytest.mark.parametrize("name, dim", [("x+:1;2", 3), ("x+:5;6", 6),
                                       ("s+w", 6)])
def test_restriction_rejects_a_projector_of_another_dimension(name, dim):
    rho = CliffordMap(rand_params(np.random.default_rng(13), 4))
    with pytest.raises(DimensionMismatch):
        check_restriction(rho, catalog_projector(name, dim))


# -- the CW table of a map ----------------------------------------------------

def _rotation_stacks(n, rng):
    """sob_basis() stacks for a rotated B with a 3-cluster, B = -1.4 I and,
    at n = 4, a cluster joined to CLUSTER_TOL."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = rng.standard_normal(n)
    vals[:3] = vals[0]
    b_maps = [SymmetricMap.from_matrix(q @ np.diag(vals) @ q.T),
              SymmetricMap.from_matrix(-1.4 * np.eye(n))]
    if n == 4:
        b_maps.append(SymmetricMap.from_diagonal([-1.0, -1.0 - 5e-9, -4.0,
                                                  -4.0]))
    for b in b_maps:
        yield np.array(b.sob_basis(), dtype=float).reshape(-1, n, n)


def test_commutator_cuts_at_the_product_cut():
    """[h, k] without the entries at most PRUNE_EPS max |h| max |k|, for k
    of scales 1e-12 to 1e12, and 0.1 h, whose commutator with h is
    rounding only and is cut to zero."""
    rng = np.random.default_rng(61)
    n = 4
    a = rng.standard_normal((n, n))
    h = a - a.T
    assert (h @ (0.1 * h) - (0.1 * h) @ h).any()
    assert not cw._commutator(h, 0.1 * h).any()
    for x, e in zip(rng.standard_normal((5, n, n)), (-12, -3, 0, 3, 12)):
        k = (x - x.T) * 10.0 ** e
        raw = h @ k - k @ h
        cut = PRUNE_EPS * np.max(np.abs(h)) * np.max(np.abs(k))
        got = cw._commutator(h, k)
        assert got.any() and got.tobytes() == np.where(
            np.abs(raw) <= cut, 0.0, raw).tobytes()


def assert_same_rows(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_rotation_rows_are_the_diagonal_bivector_images(n):
    stacks = list(_rotation_stacks(n, np.random.default_rng(60 + n)))
    # an entry at PRUNE_EPS times the largest one goes by the raw-terms cut
    tiny = np.zeros((1, n, n))
    tiny[0, 0, 1], tiny[0, 0, -1] = 1.0, PRUNE_EPS
    stacks.append(tiny - tiny.transpose(0, 2, 1))
    assert n < 3 or len(stacks[0]) > 1      # a stack of several rotations
    for h in stacks:
        assert_same_rows(cw._rotation_rows(h, n), cw._element_rows(
            [CWElement.diagonal(skew_to_bivector(x, n)) for x in h]))
    if n >= 3:
        assert np.diff(cw._rotation_rows(stacks[-1], n).ptr).tolist() == \
            [1, 0, 0, 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_table_serves_every_call_in_any_order(n, monkeypatch):
    """Restriction, extended and plain sweep, restriction again: each as the
    per-pair loop gives it, from one table, and no rotation image is built
    as a Multivector."""
    built = []
    element_rows = cw._element_rows
    monkeypatch.setattr(cw, "_element_rows",
                        lambda xs: built.append(xs) or element_rows(xs))

    def refuse(*args):
        raise AssertionError("a rotation image built one by one")
    name = "x+:1;2" if n > 2 else "sigma-"
    for rho in _maps(n, np.random.default_rng(50 + n)):
        proj = catalog_projector(name, n)
        want = reference_restriction(rho, proj)
        sweeps = reference_sweep(rho, extended=True), reference_sweep(rho)
        with monkeypatch.context() as m:
            m.setattr(cw, "skew_to_bivector", refuse)
            m.setattr(CWElement, "diagonal", refuse)
            out = check_restriction(rho, proj)
            table = rho.params.cw_table
            assert (curvature_sweep(rho, extended=True),
                    curvature_sweep(rho)) == sweeps
            again = check_restriction(rho, proj)
        for x in (out, again):
            assert (x["invariance_residual"],
                    x["representation_residual"]) == want
        assert rho.params.cw_table is table
        assert sum(xs is rho.params.images for xs in built) == 1


def test_the_table_is_read_only():
    params = rand_params(np.random.default_rng(14), 3)
    table = params.cw_table
    arrays = (*table.images, *table.rhs, table.at)
    assert len(arrays) == 11
    for x in (*arrays, params.ww_norms):
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0


def test_the_map_is_immutable():
    """The frozen params own the images and table, built from them once; a
    map holds nothing derived, so rebinding its params rebinds all."""
    rng = np.random.default_rng(16)
    rho = CliffordMap(rand_params(rng, 3))
    curvature_sweep(rho)
    with pytest.raises(TypeError):
        rho.params.images[0] = rho.params.images[0] * 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.params.a = rho.params.b
    for name in ("images", "cw_table"):
        assert not hasattr(rho, name)
        with pytest.raises(AttributeError):
            setattr(rho, name, getattr(rho.params, name))
    other = CliffordMap(rand_params(rng, 4))
    rho.params = other.params
    for extended in (False, True):
        assert curvature_sweep(rho, extended) == \
            curvature_sweep(CliffordMap(other.params), extended) == \
            reference_sweep(other, extended)


def test_params_refuse_an_element_of_another_dimension():
    params = rand_params(np.random.default_rng(18), 3)
    for name in ("a", "b", "c", "d", "e"):
        with pytest.raises(DimensionMismatch, match=f"parameter {name} "):
            dataclasses.replace(params, **{name: Multivector.unit(4)})


@pytest.mark.parametrize("n", [1, 3, 4])
def test_report_and_plain_sweep_share_one_w_pass(n, monkeypatch):
    """The report on rho.params, then the plain sweep, as the CLI and the
    benchmark call them: one table and one W x W defect pass per map."""
    calls = []
    for name in ("_defect_norms", "_element_rows", "_structure_constants"):
        def counted(*args, name=name, f=getattr(cw, name)):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(cw, name, counted)
    rho = CliffordMap(rand_params(np.random.default_rng(19 + n), n))
    report = flatness_report(rho.params)
    sweep = curvature_sweep(rho)
    assert sorted(calls) == ["_defect_norms", "_element_rows",
                             "_structure_constants"]
    assert report == assert_report_matches_reference(rho.params)
    assert sweep == reference_sweep(rho)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_sweeps_pass_each_pair_once_in_three_kernel_calls(n, monkeypatch):
    """Report, plain and extended sweep on one map make one W x W defect
    pass; the extended pass takes only the C(len(at), 2) - C(n + 2, 2)
    - C(r, 2) pairs past it, r the number of rotations, none of them a
    rotation x rotation pair.  Each block of pairs makes one _rows_gp, two
    _rows_fold calls (the blocks of both products, then their difference)
    and at most one _rows_sum (- R_ij) before its norms."""
    monkeypatch.setattr(cw, "_GP_BLOCK", 64)   # several blocks a pass
    passes, active = [], []

    def defect_norms(gens, pairs, rhs, at, n, f=cw._defect_norms):
        active.append([])
        out = f(gens, pairs, rhs, at, n)
        passes.append((pairs, len(at), active.pop()))
        return out
    monkeypatch.setattr(cw, "_defect_norms", defect_norms)
    for name in ("_rows_gp", "_rows_fold", "_rows_sum", "_rows_norm"):
        def counted(*args, name=name, f=getattr(cw, name)):
            if active:
                active[-1].append(name)
            return f(*args)
        monkeypatch.setattr(cw, name, counted)
    block = ["_rows_gp", "_rows_fold", "_rows_fold"]
    for rho in _maps(n, np.random.default_rng(80 + n)):
        passes.clear()
        flatness_report(rho.params)
        assert curvature_sweep(rho) == reference_sweep(rho)
        assert curvature_sweep(rho, extended=True) == \
            reference_sweep(rho, extended=True)
        (ww, w_size, _), (past, size, _) = passes
        assert w_size == 2 * n + 2
        assert np.array_equal(ww, np.triu_indices(n + 2, 1))
        r = size - (2 * n + 2)
        assert len(past[0]) == math.comb(size, 2) - math.comb(n + 2, 2) \
            - math.comb(r, 2)
        assert (past[0] < past[1]).all() and (past[1] >= n + 2).all()
        assert (past[0] < 2 * n + 2).all()
        assert len(set(zip(*past))) == len(past[0])
        for _, _, calls in passes:
            ends = [k for k, name in enumerate(calls) if name == "_rows_norm"]
            assert len(ends) > 1 and ends[-1] == len(calls) - 1
            for start, end in zip([0] + [k + 1 for k in ends], ends):
                assert calls[start:end] in (block, block + ["_rows_sum"])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_extended_sweep_forms_only_rotation_chains(n, monkeypatch):
    """Once the table is built, the extended sweep reads the brackets of
    the W and V* generators from it and forms only those with a rotation."""
    def refuse(*args):
        raise AssertionError("the W and V* chains formed again")
    for rho in _maps(n, np.random.default_rng(70 + n)):
        want = reference_sweep(rho, extended=True)
        rho.params.cw_table
        with monkeypatch.context() as m:
            m.setattr(cw, "_structure_constants", refuse)
            assert curvature_sweep(rho, extended=True) == want


def test_idempotence_test_is_the_cwelement_arithmetic():
    """NotAProjector at exactly the tolerance factors where
    |P P - P| > threshold(tol, |P|^2) in the CWElement arithmetic."""
    rng = np.random.default_rng(15)
    n = 4
    rho = CliffordMap(rand_params(rng, n))
    for name in ("sv+s-", "s+w", "x+:1;2,3", "x-:2;4"):
        p = catalog_projector(name, n)
        noise = CWElement(*(1e-6 * random_multivector(rng, n, 3)
                            for _ in range(4)))
        for proj in (p * (1 + 1e-9), p + noise):
            res = (proj * proj - proj).norm()
            norm2 = proj.norm() ** 2
            factor = res / norm2
            for tol in (factor, *(np.nextafter(factor, k * np.inf)
                                  for k in (-1, 1)), 2 * factor):
                if res > threshold(tol, norm2):
                    with pytest.raises(NotAProjector):
                        check_restriction(rho, proj, tol)
                else:
                    check_restriction(rho, proj, tol)


# -- the dense oracle at n = 9-12 ---------------------------------------------

def dense_residuals(rho, gens, rep, proj=None):
    """The largest |[X_i, X_j] - rho([x_i, x_j])| over the pairs of gens, X
    the dense block matrix of rho(x) (with proj, of P rho(x) P, and then
    also the largest |X P - P X P|), as Frobenius norms over
    sqrt(rep_dim): the coefficient norms in the faithful representation,
    whose blade matrices are unitary and trace-orthogonal."""
    b = rho.params.b_map
    images = [cw_to_matrix(rho(x), rep) for x in gens]
    p = None if proj is None else cw_to_matrix(proj, rep)
    inv = 0.0
    if p is not None:
        inv = max(np.linalg.norm(x @ p - p @ x @ p) for x in images)
        images = [p @ x @ p for x in images]
    worst = 0.0
    for i, x in enumerate(gens):
        for j in range(i + 1, len(gens)):
            rhs = cw_to_matrix(rho(cw_bracket(x, gens[j], b)), rep)
            if p is not None:
                rhs = p @ rhs @ p
            lhs = images[i] @ images[j] - images[j] @ images[i]
            worst = max(worst, np.linalg.norm(lhs - rhs))
    root = np.sqrt(rep.rep_dim)
    return inv / root, worst / root


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_dense_oracle_decides_the_cw_verdicts_past_eight(n):
    """The gamma-matrix oracle (cw_to_matrix, cw_bracket) over every pair,
    the rotation x rotation pairs the extended sweep skips included.  The
    alpha = 0 flat family reads flat, a map perturbed from it not flat,
    and at n = 10 and 12 the alpha != 0 flat family flat, by the library
    and by the oracle; the plain and extended sweep maxima agree with the
    dense ones to 1e-10 of the map's norm, and so do the restriction
    residuals of sigma+, sigma- and, at even n, the half-spinor s+w, on
    the last map, with their verdicts.  The extended check takes the maps
    whose B has 2-clusters only; B = -1.4 I brings all C(n, 2)
    rotations."""
    rng = np.random.default_rng(900 + n)
    rep = build_rep(n, "faithful")
    parts = [0b11 << 2 * k for k in range(n // 2)] + [1 << n - 1] * (n % 2)
    pair = make_generalized(n, parts, rng.uniform(0.5, 2.0, len(parts)))
    flat = build_flat_rep_alphazero(
        grade_involution(pair.c), pair.d, random_multivector(rng, n, 4),
        SymmetricMap.from_matrix(-pair.B.entries))
    perturbed = CliffordMap(dataclasses.replace(
        flat.params, d=flat.params.d + 0.1 * random_multivector(rng, n, 3)))
    maps = [(flat, True), (perturbed, False)]
    if n % 2 == 0:
        z = Multivector.zero(n)
        maps.append((build_flat_rep_alphanotzero(
            0.8, -0.3, 0.4, 0.7, random_multivector(rng, n, 3), z, z, z),
            True))
    for rho, is_flat in maps:
        cut, scale = rho.params.threshold(CHECK_TOL), rho.params.norm()
        rotations = rho.params.b_map.sob_basis()
        sweeps = [(curvature_sweep(rho), w_basis(n))]
        if len(rotations) < n:
            sweeps.append((curvature_sweep(rho, extended=True),
                           generators(n) + [CWAlgebraElement.rotation(n, h)
                                            for h in rotations]))
        for got, gens in sweeps:
            dense = dense_residuals(rho, gens, rep)[1]
            assert abs(got - dense) <= 1e-10 * scale, (got, dense)
            assert (got <= cut) == (dense <= cut)
        assert (sweeps[0][0] <= cut) == is_flat
    for name in ["sigma+", "sigma-"] + ["s+w"] * (n % 2 == 0):
        proj = catalog_projector(name, n)
        out = check_restriction(rho, proj)
        inv, rep_res = dense_residuals(rho, generators(n), rep, proj)
        for key, got, dense in (
                ("invariant", out["invariance_residual"], inv),
                ("representation", out["representation_residual"],
                 rep_res)):
            assert abs(got - dense) <= 1e-10 * scale, (name, got, dense)
            assert out[key] == (dense <= out["threshold"]), name
