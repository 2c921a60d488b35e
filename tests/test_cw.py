import numpy as np
import pytest

from cwclifford.core import (Multivector, gp, grade_involution,
                             random_multivector, volume_element)
from cwclifford import cw
from cwclifford.cw import (_combine, _structure_constants, CliffordMap,
                           CliffordMapParams, CWAlgebraElement, CWElement,
                           build_flat_rep_alphanotzero,
                           build_flat_rep_alphazero, catalog_projector,
                           check_restriction, clw_generator_eminus,
                           clw_generator_eplus, clw_generator_vector,
                           curvature, curvature_sweep, cw_bracket,
                           cw_to_matrix, flatness_report, generators,
                           half_spinor_projector, validate_simple_map, w_basis,
                           x_projector_element)
from cwclifford.errors import (ConstraintViolated, DimensionMismatch,
                               InputError, NotAProjector, NotInSoB,
                               OddDimension, PairNotAssociatedToMinusB)
from cwclifford.gammarep import build_rep
from cwclifford.qpair import (SymmetricMap, make_generalized,
                              make_monomial)


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
            want = CWElement.identity(n) * complex(-2 * metric[i, j])
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


def test_validate_simple_map():
    n = 3
    zero = Multivector.zero(n)
    b = SymmetricMap.from_diagonal([1.0, 1.0, 1.0])
    alpha = 0.8
    good = CliffordMapParams(b, Multivector.scalar(n, alpha),
                             Multivector.scalar(n, -alpha), zero, zero, zero)
    out = validate_simple_map(good)
    assert out["passes"] and out["24"] < 1e-14
    n = 4
    zero4 = Multivector.zero(4)
    b4 = SymmetricMap.from_diagonal([1.0] * 4)
    beta = -0.3
    bbar = Multivector.scalar(4, 0.5) + beta * volume_element(4)
    avec = -1 * (Multivector.scalar(4, 0.5) - beta * volume_element(4))
    good4 = CliffordMapParams(b4, avec, grade_involution(bbar),
                              zero4, zero4, zero4)
    assert validate_simple_map(good4)["passes"]
    bad = CliffordMapParams(b4, zero4, Multivector.basis_vector(4, 1),
                            zero4, zero4, zero4)
    assert not validate_simple_map(bad)["passes"]
    assert validate_simple_map(bad)["24"] > 0.1


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
    want = CWElement.from_graded(sigma, Multivector.scalar(n, -2 * alpha ** 2)) \
        + CWElement.from_graded(np.array([[0.0, np.sqrt(2)], [0.0, 0.0]]),
                                alpha * (grade_involution(c) - d))
    assert (r - want).norm() < 1e-12
    assert r.norm() > 0.1


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
            report = flatness_report(params)
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
    bad = CWElement.identity(n) * 0.5
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
    for x, img in zip(generators(n), rho.images, strict=True):
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
    monkeypatch.setattr(cw, "_DEFECT_BLOCK", block)
    for n in (3, 4):
        for rho in _maps(n, np.random.default_rng(30 + n)):
            _check_against_reference(rho)


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
    assert cw._element_norms(prods).tolist() == [
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
        chains, commutators = _structure_constants(
            n, b.entries, np.array(rotations).reshape(-1, n, n), len(gens))
        images = rho.images + [rho.h_image(h)
                               for h in rotations + list(commutators)]
        table = {}
        for i, j, k, f in zip(*chains):
            table.setdefault((int(i), int(j)), []).append((f, images[k]))
        for i, x in enumerate(gens):
            for j in range(i + 1, len(gens)):
                bracket = cw_bracket(x, gens[j], b)
                if (i, j) in table:
                    assert _combine(n, table[i, j]) == rho(bracket)
                else:
                    assert bracket.norm() == 0.0
        if n >= 3 and b is not diagonal:    # some [h, h'] is nonzero
            assert len(commutators)


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0, -1.0])
def test_restriction_refuses_a_bad_tolerance_factor(factor):
    rho = CliffordMap(rand_params(np.random.default_rng(7), 3))
    proj = catalog_projector("sigma+", 3)
    assert not check_restriction(rho, proj)["invariant"]
    with pytest.raises(InputError, match="tolerance factor"):
        check_restriction(rho, proj, tol=factor)
