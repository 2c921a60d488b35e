"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line on success; pytest reports any failure
with the offending assertion.
"""

import time

import numpy as np
import pytest

from cwclifford.core import (Multivector, blade_square_sign, gp, grade,
                             grade_involution, random_multivector,
                             volume_element)
from cwclifford.cw import (CliffordMap, CliffordMapParams,
                           build_flat_rep_alphanotzero,
                           build_flat_rep_alphazero, catalog_projector,
                           check_restriction, curvature_sweep,
                           flatness_report, half_spinor_projector)
from cwclifford.errors import (AnticommutationViolated, OddDimension,
                               OddMultiplicity)
from cwclifford.gammarep import build_rep, extract_component, represent
from cwclifford.omega import (classify_distinguished, closing_identities,
                              omega_in_soB, omega_tensor)
from cwclifford.qpair import (SymmetricMap, extract_B,
                              linear_pair_from_parts, make_generalized,
                              make_linear, make_monomial, make_pseudo_monomial)
from cwclifford.search import (circle_coefficients, enumerate_two_monomial_cases,
                               instantiate_two_monomial, line_coefficients,
                               search_pairs_for_B, shape_masks)


def report(name):
    print(f"[acceptance] {name}: PASS")


def test_criterion_1_clifford_relations():
    start = time.perf_counter()
    for n in range(1, 11):
        for mu in range(1, n + 1):
            for nu in range(mu, n + 1):
                emu = Multivector.basis_vector(n, mu)
                enu = Multivector.basis_vector(n, nu)
                lhs = gp(emu, enu) + gp(enu, emu)
                want = Multivector.scalar(n, -2.0) if mu == nu else \
                    Multivector.zero(n)
                assert lhs == want
        vol = volume_element(n)
        assert gp(vol, vol) == Multivector.unit(n)
    rng = np.random.default_rng(2024)
    for n in range(1, 11):
        for _ in range(500):
            a = random_multivector(rng, n, 6)
            b = random_multivector(rng, n, 6)
            c = random_multivector(rng, n, 6)
            diff = gp(gp(a, b), c) - gp(a, gp(b, c))
            assert diff.is_zero(1e-12 * (1 + a.norm() * b.norm() * c.norm()))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    report("criterion 1 (Clifford relations, volume squares, associativity)")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for n in range(2, 9):
        rep = build_rep(n, "faithful")
        for _ in range(500):
            a = random_multivector(rng, n, 6)
            b = random_multivector(rng, n, 6)
            lhs = represent(gp(a, b), rep)
            rhs = represent(a, rep) @ represent(b, rep)
            err = np.linalg.norm(lhs - rhs)
            assert err <= 1e-10 * max(a.norm() * b.norm(), 1.0)
    for n in range(1, 7):
        rep = build_rep(n, "faithful")
        for mask in range(1 << n):
            m = rep.blade_matrix(mask)
            for other in range(1 << n):
                got = extract_component(m, other, rep)
                want = 1.0 if other == mask else 0.0
                assert abs(got - want) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    report("criterion 2 (matrix oracle equivalence and extraction round trip)")


def test_criterion_3_monomial_eigenvalues():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for mask in range(1 << n):
            for _ in range(20):
                alpha, beta = rng.standard_normal(2)
                pair = make_monomial(n, mask, alpha, beta)
                assert pair.verified
                sig = blade_square_sign(mask)
                eps = (-1) ** grade(mask)
                on_val = sig * (alpha + eps * beta) ** 2
                off_val = sig * (alpha - eps * beta) ** 2
                want = np.diag([on_val if (mask >> mu) & 1 else off_val
                                for mu in range(n)])
                assert np.max(np.abs(pair.B.entries - want)) <= 1e-9
    report("criterion 3 (monomial spectra with multiplicities, n <= 6)")


def _expected_table1(case, parities, n):
    """Expected verdicts per the published case table; returns
    (verdict, required template names, fold target)."""
    pk, pi, pj = parities
    bi = (-1) ** (pi + pk)
    bj = (-1) ** (pj + pk)
    if case == "1a":
        return "monomial-only", set(), None
    if case == "1b":
        if pi * pj == 1:
            return "monomial-only", set(), None
        return "non-monomial", {("line", (bi, bj))}, None
    if case == "2a":
        if pi + pj + pk <= 1:
            fold = "1b" if n % 2 else None
            return "non-monomial", {("line", (-bi, -bj))}, fold
        return "monomial-only", set(), None
    if case == "2b":
        if (pi, pj) == (0, 0):
            return "non-monomial", {("line", (1, 1)), ("line", (-1, -1))}, None
        if (pi, pj) == (1, 1):
            return "non-monomial", {("name", "circle")}, None
        return "non-monomial", {("name", "volume-fold")}, "monomial"
    if case == "3a":
        if pk * pj == 1:
            return "monomial-only", set(), None
        return "non-monomial", {("line", (bi, -bj))}, None
    if case == "3b":
        return "non-monomial", {("name", "alpha-equal")}, None
    if case == "4a":
        if (pk, pj) == (1, 1):
            return "monomial-only", set(), None
        if n % 2:
            # d = (a' - (-1)^dim b G_J) G_K keeps b in odd dimension
            return "non-monomial", {("name", "beta-equal")}, "3b"
        return "non-monomial", {("name", "beta-flip")}, None
    if case == "4b":
        if n % 2:
            return "non-monomial", {("name", "alpha-equal"),
                                    ("name", "beta-equal")}, "scalars"
        return "non-monomial", {("name", "alpha-equal"),
                                ("name", "beta-flip")}, None
    raise AssertionError(case)


def test_criterion_4_case_tables():
    rng = np.random.default_rng(4)
    for n in (4, 5, 6):
        for shape in enumerate_two_monomial_cases(n):
            i, j, k = shape.sizes["I"], shape.sizes["J"], shape.sizes["K"]
            verdict, needs, fold = _expected_table1(shape.case,
                                                    shape.parities, n)
            assert shape.verdict == verdict, (n, shape.case, i, j, k)
            assert shape.fold == fold, (n, shape.case, i, j, k)
            for kind, what in needs:
                if kind == "line":
                    assert what in [tuple(l) for l in shape.lines], \
                        (n, shape.case, i, j, k, what, shape.lines)
                else:
                    assert what in shape.templates, \
                        (n, shape.case, i, j, k, what, shape.templates)
            # instantiation check: named solutions verify, generic shapes not
            if shape.verdict == "monomial-only":
                coeffs = tuple(rng.standard_normal(4))
                c, d = instantiate_two_monomial(n, i, j, k, coeffs)
                assert not extract_B(c, d).verified, (n, shape.case, i, j, k)
            else:
                for lam, mu in shape.lines:
                    c, d = instantiate_two_monomial(
                        n, i, j, k, line_coefficients(lam, mu, rng))
                    assert extract_B(c, d).verified, \
                        (n, shape.case, i, j, k, lam, mu)
                if "circle" in shape.templates:
                    c, d = instantiate_two_monomial(n, i, j, k,
                                                    circle_coefficients(rng))
                    assert extract_B(c, d).verified
            # the degenerate single-element rule
            if i > 0:
                a, b = rng.standard_normal(2)
                c, _ = instantiate_two_monomial(n, i, j, k, (a, b, 0.0, 0.0))
                single = extract_B(c, Multivector.zero(n))
                assert single.verified == shape.admits_single, \
                    (n, shape.case, i, j, k)
    # Table 2 eigenvalue formulas via extract_B on instantiated pairs
    for n in (4, 6):
        for mask in range(1, (1 << n) - 1):
            kgrade = grade(mask)
            sig = blade_square_sign(mask)
            alpha, beta = rng.standard_normal(2)
            if kgrade % 2 == 0:
                for sign, on_c, off_c in ((1, alpha, beta), (-1, beta, alpha)):
                    pair = make_pseudo_monomial(n, mask, "even", alpha, beta,
                                                sign=sign)
                    want = np.diag([4 * sig * on_c ** 2 if (mask >> mu) & 1
                                    else 4 * sig * off_c ** 2
                                    for mu in range(n)])
                    assert np.max(np.abs(pair.B.entries - want)) <= 1e-9
            else:
                phi = float(rng.uniform(0.1, 0.6))
                pair = make_pseudo_monomial(n, mask, "odd", alpha, beta,
                                            phi=phi)
                cos2 = np.cos(2 * phi)
                want = np.diag([sig * (alpha - beta) ** 2 * cos2
                                if (mask >> mu) & 1
                                else sig * (alpha + beta) ** 2 * cos2
                                for mu in range(n)])
                assert np.max(np.abs(pair.B.entries - want)) <= 1e-9
    report("criterion 4 (case taxonomy and pseudo-monomial spectra)")


def test_criterion_5_linear_family():
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(2, 9))
        values = []
        while len(values) < n:
            if n - len(values) >= 2 and rng.random() < 0.8:
                lam = float(rng.standard_normal())
                values += [lam, lam]
            else:
                values.append(0.0)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = SymmetricMap.from_matrix(q @ np.diag(values) @ q.T)
        pair = make_linear(b)
        assert pair.verified
        assert np.max(np.abs(pair.B.entries - b.entries)) <= 1e-9
    with pytest.raises(OddMultiplicity):
        make_linear(SymmetricMap.from_diagonal([1.0, 1.0, 2.0]))
    a0 = np.zeros((4, 4))
    a0[0, 1], a0[1, 0] = 1.0, -1.0
    a1 = np.zeros((4, 4))
    a1[1, 2], a1[2, 1] = 1.0, -1.0
    with pytest.raises(AnticommutationViolated):
        linear_pair_from_parts(a0, a1)
    report("criterion 5 (linear family, anticommutation enforced)")


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for idx in range(len(smaller)):
            yield smaller[:idx] + [[first] + smaller[idx]] + smaller[idx + 1:]
        yield [[first]] + smaller


def test_criterion_6_generalized_family():
    rng = np.random.default_rng(6)
    checked = 0
    for n in range(2, 7):
        for partition in _set_partitions(list(range(1, n + 1))):
            if len(partition) < 2:
                continue
            masks = [sum(1 << (idx - 1) for idx in part) for part in partition]
            odd = [m for m in masks if grade(m) % 2]
            legal = (len(odd) == 0
                     or (len(odd) == 1 and n % 2 == 1)
                     or (len(odd) == 2 and n % 2 == 0))
            coeffs = [complex(x) for x in rng.standard_normal(len(masks))]
            if not legal:
                with pytest.raises(Exception) as err:
                    make_generalized(n, masks, coeffs)
                assert err.type.__name__ in ("IllegalParityPattern",
                                             "CoefficientConstraintViolated")
                continue
            hats = [0j] * len(masks)
            if len(odd) == 2:
                i0, i1 = (masks.index(m) for m in odd)
                hats[i0] = complex(rng.standard_normal())
                hats[i1] = coeffs[i0] * coeffs[i1] / hats[i0]
            pair = make_generalized(n, masks, coeffs, hats)
            assert pair.verified
            want = np.zeros((n, n), dtype=complex)
            for mask, ca, ha in zip(masks, coeffs, hats):
                sig = blade_square_sign(mask)
                val = 4 * sig * (ca * ca - ha * ha) if grade(mask) % 2 \
                    else 4 * sig * (ca * ca + ha * ha)
                for mu in range(n):
                    if (mask >> mu) & 1:
                        want[mu, mu] = val
            assert np.max(np.abs(pair.B.entries - want)) <= 1e-9
            checked += 1
    assert checked > 100
    report("criterion 6 (generalized family over all legal partitions)")


def _random_flat_pair(rng, n):
    kind = rng.integers(0, 4)
    if kind == 0:
        mask = int(rng.integers(0, 1 << n))
        return make_monomial(n, mask, *rng.standard_normal(2))
    if kind == 1 and n % 2 == 0:
        mask = int(rng.integers(1, (1 << n) - 1))
        if grade(mask) % 2 == 0:
            return make_pseudo_monomial(n, mask, "even",
                                        *rng.standard_normal(2),
                                        sign=int(rng.choice([1, -1])))
        return make_pseudo_monomial(n, mask, "odd", *rng.standard_normal(2),
                                    phi=float(rng.uniform(0.1, 0.6)))
    if kind == 2:
        values = []
        while len(values) < n:
            if n - len(values) >= 2:
                lam = float(rng.standard_normal())
                values += [lam, lam]
            else:
                values.append(0.0)
        return make_linear(SymmetricMap.from_diagonal(values))
    mask = (1 << n) - 1
    split = int(rng.integers(1, n))
    m1 = (1 << split) - 1
    masks = [m1, mask ^ m1]
    odd = [m for m in masks if grade(m) % 2]
    if (len(odd) == 1 and n % 2 == 0) or len(odd) == 2 and n % 2:
        return make_monomial(n, 0, *rng.standard_normal(2))
    if len(odd) == 2:
        c0, c1, h0 = rng.standard_normal(3)
        return make_generalized(n, masks, [c0, c1], [h0, c0 * c1 / h0])
    return make_generalized(n, masks, list(rng.standard_normal(2)))


def test_criterion_7_flatness():
    rng = np.random.default_rng(7)
    count = 0
    while count < 50:
        n = int(rng.integers(2, 6))
        pair = _random_flat_pair(rng, n)
        if not pair.verified:
            continue
        b = SymmetricMap.from_matrix(-pair.B.entries)
        e_el = random_multivector(rng, n, 5)
        rho = build_flat_rep_alphazero(grade_involution(pair.c), pair.d,
                                       e_el, b)
        assert curvature_sweep(rho) <= 1e-9
        rows = flatness_report(rho.params)
        assert max(rows.values()) <= 1e-9
        count += 1
    # nonzero center action: the two special parameter choices
    n, lam = 4, 0.7
    z = Multivector.zero(n)
    assert curvature_sweep(build_flat_rep_alphanotzero(
        -lam, 1.0, 0.0, lam, z, z, z, z, sign=1)) <= 1e-9
    assert curvature_sweep(build_flat_rep_alphanotzero(
        0.0, 0.0, 0.0, lam, z, z, z, z, sign=-1)) <= 1e-9
    # twenty random constrained draws
    for trial in range(20):
        n = int(rng.choice([2, 4]))
        lam = float(rng.standard_normal())
        alpha = float(rng.standard_normal()) or 0.5
        beta = float(rng.standard_normal())
        sign = int(rng.choice([1, -1]))
        kappa = complex(np.sqrt(complex(2 * (alpha * beta + lam))))
        pi_a = half_spinor_projector(n, sign)
        pi_b = half_spinor_projector(n, -sign)
        cblk = gp(pi_a, gp(random_multivector(rng, n, 4), pi_b))
        dblk = gp(pi_b, gp(random_multivector(rng, n, 4), pi_a))
        e_off = -(kappa / (2 * alpha)) * cblk + (kappa / (2 * alpha)) * dblk
        e_pp = gp(pi_a, gp(random_multivector(rng, n, 3), pi_a))
        rho = build_flat_rep_alphanotzero(
            alpha, beta, float(rng.standard_normal()), lam, e_pp,
            cblk, dblk, e_off, sign=sign)
        assert curvature_sweep(rho) <= 1e-9
    # odd dimension rejected
    z3 = Multivector.zero(3)
    with pytest.raises(OddDimension):
        build_flat_rep_alphanotzero(1.0, 0.0, 0.0, 0.5, z3, z3, z3, z3)
    # a nonzero center action over a non-scalar map is never flat
    n = 4
    pi_p = half_spinor_projector(n, 1)
    pi_m = half_spinor_projector(n, -1)
    bad_b = SymmetricMap.from_diagonal([-1.4, -1.4, -2.8, -2.8])
    params = CliffordMapParams(
        bad_b, 0.7 * pi_p, -0.7 * pi_m,
        grade_involution(-np.sqrt(2 * 0.7) * pi_m), np.sqrt(2 * 0.7) * pi_m,
        Multivector.zero(n))
    assert curvature_sweep(CliffordMap(params)) > 1e-3
    report("criterion 7 (flat families, constraints, rejections)")


def test_criterion_8_restrictions():
    rng = np.random.default_rng(8)
    # odd dimension: the chiral slot is a representation for any map of the
    # trivial-center form, invariance failing whenever B acts
    for n in (3, 5):
        for _ in range(10):
            b = SymmetricMap.from_diagonal(rng.standard_normal(n))
            zero = Multivector.zero(n)
            params = CliffordMapParams(b, zero, zero,
                                       random_multivector(rng, n, 4),
                                       random_multivector(rng, n, 4),
                                       random_multivector(rng, n, 4))
            rho = CliffordMap(params)
            out = check_restriction(rho, catalog_projector("sigma+", n))
            assert out["representation"]
            assert not out["invariant"]
    # even dimension: S(V) + half-spinor reduction holds iff the d-offblock
    # vanishes
    n = 4
    pi_p = half_spinor_projector(n, 1)
    pi_m = half_spinor_projector(n, -1)
    held = failed = 0
    for _ in range(20):
        pair = _random_flat_pair(rng, n)
        if not pair.verified:
            continue
        b = SymmetricMap.from_matrix(-pair.B.entries)
        rho = build_flat_rep_alphazero(grade_involution(pair.c), pair.d,
                                       random_multivector(rng, n, 3), b)
        offblock = gp(pi_p, gp(pair.d, pi_m)).norm()
        out = check_restriction(rho, catalog_projector("sv+s-", n))
        assert out["representation"] == (offblock <= 1e-9), pair.family
        held += out["representation"]
        failed += not out["representation"]
    assert held and failed
    # non-canonical kernel projectors: the algebraic vanishing criterion
    shapes = [(4, 1, 3, 0), (4, 1, 1, 2), (5, 1, 1, 1), (4, 2, 1, 0)]
    for n, i, j, k in shapes:
        mi, mj, mk = shape_masks(i, j, k)
        gij = gp(Multivector.blade(n, mi), Multivector.blade(n, mj))
        i_ij = 1.0 if gp(gij, gij).scalar_part.real > 0 else 1j
        sj = blade_square_sign(mj)
        parity = (-1) ** ((i * j + (i + j) * k) % 2)
        xplus = catalog_projector(
            f"x+:{','.join(str(t + 1) for t in range(i))};"
            f"{','.join(str(i + t + 1) for t in range(j))}", n)
        xp_el = xplus.s
        xm_el = Multivector.unit(n) - xp_el
        for _ in range(20):
            a, bcoef = rng.standard_normal(2)
            good = complex(i_ij * sj * rng.standard_normal())
            bad = complex(rng.standard_normal() * (1 + 1j))
            for ap, bp, expect in (
                    (good, complex(good / (i_ij * sj)), True),
                    (bad, complex(rng.standard_normal()), parity == 1)):
                c, d = instantiate_two_monomial(n, i, j, k, (a, bcoef, ap, bp))
                vanish = gp(xm_el, gp(d, xp_el)).norm() <= 1e-9
                assert vanish == expect, (n, i, j, k, ap, bp)
    # and the representation statement itself, on the real-conditioned shape
    n, i, j, k = 4, 1, 3, 0
    mi, mj, mk = shape_masks(i, j, k)
    gij = gp(Multivector.blade(n, mi), Multivector.blade(n, mj))
    sj = blade_square_sign(mj)
    proj = catalog_projector("x+:1;2,3,4", n)
    xp_el = proj.s
    xm_el = Multivector.unit(n) - xp_el
    held = failed = 0
    for _ in range(20):
        a, bcoef, bp = rng.standard_normal(3)
        conditioned = rng.random() < 0.5
        ap = sj * bp if conditioned else float(rng.standard_normal())
        c, d = instantiate_two_monomial(n, i, j, k, (a, bcoef, ap, bp))
        bdiag = []
        for mu in range(1, n + 1):
            emu = Multivector.basis_vector(n, mu)
            qv = gp(gp(c, c), emu) + gp(emu, gp(d, d)) - 2 * gp(c, gp(emu, d))
            block = gp(qv, xp_el)
            val = -2 * gp(-1 * emu, block).scalar_part
            bdiag.append(val.real)
        params = CliffordMapParams(
            SymmetricMap.from_diagonal(bdiag), Multivector.zero(n),
            Multivector.zero(n), grade_involution(c), d, Multivector.zero(n))
        rho = CliffordMap(params)
        out = check_restriction(rho, proj)
        vanish = gp(xm_el, gp(d, xp_el)).norm() <= 1e-9
        assert out["representation"] == vanish
        held += out["representation"]
        failed += not out["representation"]
    assert held and failed
    report("criterion 8 (canonical and non-canonical restrictions)")


def test_criterion_9_omega_classification():
    rng = np.random.default_rng(9)
    # forward direction: every constructor family on an eigenspace partition
    pairs = [
        make_monomial(4, 0b0011, 1.3, -0.4),
        make_monomial(6, 0b000111, 0.9, 0.2),
        make_pseudo_monomial(4, 0b0011, "even", 1.1, 0.7),
        make_pseudo_monomial(6, 0b000001, "odd", 1.2, 0.4, phi=0.35),
        make_generalized(5, [0b00011, 0b01100, 0b10000], [1.0, 2.0, 3.0]),
        make_generalized(6, [0b000011, 0b001100, 0b110000], [1.0, 2.0, 3.0]),
        make_linear(SymmetricMap.from_diagonal([4.0, 4.0, -1.0, -1.0])),
        extract_B(Multivector.scalar(3, 1.5), Multivector.zero(3)),
    ]
    for pair in pairs:
        assert pair.verified
        assert omega_in_soB(pair.c, pair.d, pair.B)["holds"]
        out = classify_distinguished(pair.c, pair.d, pair.B)
        assert out["match"]
        assert closing_identities(pair.c, pair.d, pair.B)["four-term"] <= 1e-9
        assert closing_identities(pair.c, pair.d,
                                  pair.B)["anticommutator"] <= 1e-9
    # reverse direction: per-sector sweep over invariant ansatz supports for
    # 2- and 3-cluster patterns, n <= 5
    for n, spec in ((3, [1.0, 2.0, 2.0]), (4, [1.0, 1.0, 3.0, 3.0]),
                    (4, [1.0, 2.0, 3.0, 3.0]), (5, [1.0, 1.0, 2.0, 2.0, 5.0]),
                    (5, [1.0, 1.0, 1.0, 4.0, 4.0])):
        b = SymmetricMap.from_diagonal(spec)
        masks = []
        for space in b.eigenspaces:
            m = 0
            for pos in space.positions:
                m |= 1 << pos
            masks.append(m)
        r = len(masks)
        for subset in range(1, 1 << r):
            mask = 0
            members = 0
            for idx in range(r):
                if (subset >> idx) & 1:
                    mask |= masks[idx]
                    members += 1
            t = members
            sign = (-1) ** grade(mask)
            cval = complex(rng.standard_normal())
            if t >= 2:
                dgood = -sign * cval
            else:
                dgood = sign * cval
            c = Multivector.blade(n, mask, cval)
            d = Multivector.blade(n, mask, dgood)
            constrained_to_zero = 2 <= t <= r - 2
            assert omega_in_soB(c, d, b)["holds"] == (not constrained_to_zero)
            if t >= 2 or r - t >= 2:
                dbad = Multivector.blade(n, mask, dgood + 0.7)
                assert not omega_in_soB(c, dbad, b)["holds"]
        # random multi-sector draws: membership agrees with the template fit
        for _ in range(40):
            terms_c, terms_d = {}, {}
            for subset in range(1 << r):
                mask = 0
                for idx in range(r):
                    if (subset >> idx) & 1:
                        mask |= masks[idx]
                if rng.random() < 0.5:
                    terms_c[mask] = complex(rng.standard_normal())
                if rng.random() < 0.5:
                    terms_d[mask] = complex(rng.standard_normal())
            c = Multivector(n, terms_c)
            d = Multivector(n, terms_d)
            member = omega_in_soB(c, d, b)["holds"]
            fit = classify_distinguished(c, d, b)["match"]
            assert member == fit
    # the vanishing templates give an identically zero tensor
    for n in (3, 4, 5, 6):
        for _ in range(5):
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
            assert omega_tensor(c, d).max_norm() <= 1e-12
    report("criterion 9 (membership, templates, closing identities)")


def test_criterion_10_dim3():
    rng = np.random.default_rng(10)
    def is_identity_multiple(b):
        return b.distinct_count() == 1
    def is_degenerate_rank2(b):
        values = sorted((s.value, s.multiplicity) for s in b.eigenspaces)
        nonzero = [(v, m) for v, m in values if abs(v) > 1e-8]
        zero = [(v, m) for v, m in values if abs(v) <= 1e-8]
        return len(zero) >= 1 and len(nonzero) == 1 and nonzero[0][1] == 2
    nonempty_seen = 0
    for trial in range(200):
        kind = trial % 10
        if kind < 7:
            m = rng.standard_normal((3, 3))
            b = SymmetricMap.from_matrix(0.5 * (m + m.T))
        elif kind < 9:
            lam = float(rng.standard_normal()) or 1.0
            b = SymmetricMap.from_matrix(lam * np.eye(3))
        else:
            lam = float(rng.standard_normal()) or 1.0
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            b = SymmetricMap.from_matrix(q @ np.diag([lam, lam, 0.0]) @ q.T)
        hits = search_pairs_for_B(b, "all")
        if hits:
            nonempty_seen += 1
            assert is_identity_multiple(b) or is_degenerate_rank2(b), \
                (trial, b.eigenvalues)
    assert nonempty_seen >= 40
    report("criterion 10 (dimension-3 realizability boundary)")
