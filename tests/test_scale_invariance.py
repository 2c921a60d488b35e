"""Verdicts do not depend on the overall scale of the input.

The relation q_{c,d}|_V = B is homogeneous: (lam c, lam d) realizes
lam^2 B.  Every check compares its residual with core.threshold(factor,
norm), the norm being homogeneous in the data, and coefficients are pruned
relative to their operands, so statuses, memberships, search families and
the plain cw-flat verdict are the same for every lam in [1e-8, 1e8] (drawn
log-uniform); a Clifford map scales as a..e -> lam a..lam e, B -> lam^2 B.
extract_B and search are driven down to lam = 1e-170, plain cw-flat and
the cw-restrict verdicts down to 1e-160, and omega membership and the
template match down to 1e-300, where a threshold falls below the smallest
normal double: there they keep the verdict or refuse the input, and only
such an input.
"""

import contextlib
import io
import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cwclifford import cli
from cwclifford.core import CHECK_TOL, Multivector
from cwclifford.cw import CliffordMapParams
from cwclifford.errors import InputError
from cwclifford.omega import classify_distinguished, omega_in_soB
from cwclifford.qpair import (SymmetricMap, extract_B, make_generalized,
                              make_linear, make_monomial, make_pseudo_monomial)
from cwclifford.search import search_pairs_for_B
from cwclifford.textio import load_params_file, multivector_to_text

LAMBDAS = st.floats(-8.0, 8.0).map(lambda x: 10.0 ** x)


def down_to(exponent):
    """lam in [10^exponent, 1e8], drawn log-uniform."""
    return st.floats(exponent, 8.0).map(lambda x: 10.0 ** x)


def _rotated(n, values):
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    b = q @ np.diag(values) @ q.T
    return 0.5 * (b + b.T)


TARGETS = [np.diag(v) for v in ([-1.0, -4.0, -4.0], [-1.0, -1.0, -4.0, -4.0],
                                [-1.0, -2.0, -2.0, -3.0, -3.0],
                                [-2.0] * 6, [0.0, 0.0, -1.0, -1.0])] + [
    _rotated(4, [-1.0, -1.0, -4.0, -4.0]),
    _rotated(6, [-1.0] * 3 + [-4.0] * 3)]

FAMILY = [
    make_monomial(3, 0b011, 1.3, -0.4),
    make_pseudo_monomial(4, 0b0011, "even", 1.1, 0.7),
    make_pseudo_monomial(4, 0b0111, "odd", 0.9, 0.4, phi=0.3),
    make_linear(SymmetricMap.from_diagonal([-1.0, -1.0, -4.0, -4.0])),
    make_generalized(5, [0b00011, 0b01100, 0b10000], [1.0, 2.0, 3.0]),
    make_generalized(6, [0b000111, 0b111000], [1.0, 0.6], [0.5, 1.2]),
] + [hit.pair for hit in search_pairs_for_B(
    SymmetricMap.from_matrix(TARGETS[-1]))]


@st.composite
def sparse_pairs(draw):
    n = draw(st.integers(2, 6))

    def element():
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            mask = draw(st.integers(0, (1 << n) - 1))
            terms[mask] = complex(draw(st.floats(-2.0, 2.0)),
                                  draw(st.sampled_from([0.0, 0.5, -1.5])))
        return Multivector(n, terms)

    return element(), element()


def underflows(size, degree=2):
    """Whether a threshold CHECK_TOL size^degree, size being the largest
    input number, falls below the smallest normal double."""
    return CHECK_TOL * size ** degree < sys.float_info.min


def largest(c, d):
    """The largest coefficient size of the pair."""
    return max(abs(z) for x in (c, d) for _, z in x.terms())


def extracted(c, d):
    """extract_B's pair, or None where it refuses a nonzero pair whose
    threshold underflows; an accepted nonzero pair has a normal one."""
    try:
        pair = extract_B(c, d)
    except InputError:
        assert underflows(largest(c, d))
        return None
    assert pair.threshold >= sys.float_info.min or c.is_zero() and d.is_zero()
    return pair


def assert_scales(c, d, lam):
    """extract_B keeps the status and B(lam c, lam d) = lam^2 B(c, d), or
    refuses the pair, at either scale, for an underflowing threshold."""
    pair, scaled = extracted(c, d), extracted(lam * c, lam * d)
    if pair is None or scaled is None:
        return
    assert scaled.status == pair.status
    if pair.verified:
        err = np.max(np.abs(scaled.B.entries - lam ** 2 * pair.B.entries))
        assert err <= scaled.threshold


def test_family_pairs_cover_the_dense_path():
    assert all(pair.verified for pair in FAMILY)
    assert max(len(list(p.c.terms())) for p in FAMILY) == 20


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILY), down_to(-170.0))
def test_extract_b_scales_on_family_pairs(pair, lam):
    assert_scales(pair.c, pair.d, lam)


@settings(max_examples=150, deadline=None)
@given(sparse_pairs(), down_to(-170.0))
@example((Multivector.zero(2), Multivector(2, {0: 7.335802597946378e-162})),
         10.0)
def test_extract_b_scales_on_random_sparse_pairs(pair, lam):
    """The example's threshold underflowed to 0 at both scales, and the
    pair passed as verified with B = diag(q), off by 5.4e-323 after
    scaling."""
    assert_scales(*pair, lam)


def test_pair_with_an_underflowing_threshold_is_refused():
    """At scale 1 this pair is not closed in V; at 1e-170 q and the
    threshold underflowed to 0, and it read as verified."""
    c = Multivector(3, {0b001: 1.0, 0b011: 1.0})
    d = Multivector(3, {0b110: 1.0})
    assert extract_B(c, d).status == "not-closed-in-V"
    with pytest.raises(InputError, match="smallest normal double"):
        extract_B(1e-170 * c, 1e-170 * d)
    assert extract_B(0 * c, 0 * d).verified


def test_family_pairs_are_sob_invariant():
    """classify_distinguished takes every FAMILY pair: each is a sum of
    products of eigenspace volumes in the eigenbasis of its B."""
    assert all(classify_distinguished(p.c, p.d, p.B)["match"] for p in FAMILY)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FAMILY), sparse_pairs(), down_to(-300.0))
@example(FAMILY[0], (Multivector.zero(2),
                     Multivector(2, {0: 1.1125369292536007e-308})), 1.0)
def test_omega_membership_does_not_depend_on_scale(family, sparse, lam):
    """B scales to lam^2 B down to where that underflows (lam about 1e-150)
    and stays B below: membership and the template match read only its
    eigenspaces, the same for every positive multiple.  A refusal is
    accepted only where the degree-one threshold falls below the smallest
    normal double; the example's sparse pair is refused at scale 1."""
    for c, d, b in ((family.c, family.d, family.B.entries),
                    (*sparse, np.diag(np.arange(sparse[0].dim) // 2 - 3.0))):
        checks = [omega_in_soB] + [classify_distinguished] * (c is family.c)
        try:
            want = [check(c, d, SymmetricMap.from_matrix(b))
                    for check in checks]
        except InputError:
            assert underflows(largest(c, d), 1)
            continue
        try:
            got = [check(lam * c, lam * d, SymmetricMap.from_matrix(
                lam ** 2 * b if lam > 1e-150 else b)) for check in checks]
        except InputError:
            assert lam * want[0]["threshold"] < 1.01 * sys.float_info.min
            continue
        assert got[0]["holds"] == want[0]["holds"]
        assert got[0]["threshold"] == pytest.approx(
            lam * want[0]["threshold"], rel=1e-12, abs=0)
        assert got[1:] == want[1:]


# below about 1e-162, lam^2 B underflows to the zero map, another input
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(TARGETS), down_to(-160.0))
def test_search_finds_the_same_families_at_every_scale(b, lam):
    def families(entries):
        try:
            hits = search_pairs_for_B(SymmetricMap.from_matrix(entries))
        except InputError:
            assert underflows(np.max(np.abs(entries)) ** 0.5)
            return None
        return [hit.family for hit in hits]

    got = families(lam ** 2 * b)
    assert got is None or got == families(b)


def test_search_refuses_a_map_whose_hit_threshold_underflows():
    """Its constructors refuse every pair realizing 1e-300 B; the search
    refuses B rather than find no hit."""
    b = SymmetricMap.from_matrix(1e-300 * TARGETS[0])
    with pytest.raises(InputError, match="smallest normal double"):
        search_pairs_for_B(b)
    assert search_pairs_for_B(SymmetricMap.from_matrix(0 * TARGETS[0]))


@pytest.mark.parametrize("exponent", range(-8, 9))
def test_unclosed_pair_is_unclosed_at_every_scale(exponent):
    """c = d = lam (e_1 + 0.5 e_{2,3}) has the off-grade residual 4 lam^2;
    with an absolute floor it passed as verified for lam <= 1e-5, and an
    absolute pruning cutoff read its residual as 0 from lam = 1e-7."""
    lam = 10.0 ** exponent
    c = Multivector(3, {0b001: lam, 0b110: 0.5 * lam})
    pair = extract_B(c, c)
    assert pair.status == "not-closed-in-V"
    assert pair.offgrade_residual == pytest.approx(4 * lam ** 2, rel=1e-12,
                                                     abs=0)
    assert pair.threshold == pytest.approx(5e-9 * lam ** 2, rel=1e-12,
                                             abs=0)


def test_small_pair_keeps_its_small_map():
    """c = d = 1e-8 e_1 realizes diag(0, -4e-16, -4e-16); an absolute
    pruning cutoff of 1e-14 read it as B = 0."""
    c = Multivector(3, {0b001: 1e-8})
    pair = extract_B(c, c)
    assert pair.verified
    assert np.allclose(pair.B.entries, np.diag([0.0, -4e-16, -4e-16]),
                       rtol=1e-12, atol=0.0)


def _row24_map():
    """c = d = A, the linear pair of diag(1, 1, 4, 4), on B = diag(-1, -1,
    -4, -4) with a = 1e-3 and b = e = 0: the sweep and every report row
    read 0 but rows 24 and 24a, which read 1e-3, of degree one."""
    z, lin = Multivector.zero(4), make_linear(
        SymmetricMap.from_diagonal([1.0, 1.0, 4.0, 4.0])).c
    return 4, np.diag([-1.0, -1.0, -4.0, -4.0]), {
        "a": Multivector.scalar(4, 1e-3), "b": z, "c": lin, "d": lin, "e": z}


def _norm_underflow_map():
    """B = 0, c = d = e_1 and e = 0.5 e_{1,2}: not flat (curvature_max
    2.83), and max(|a|..|e|)^2 + max |B| underflows to 0 on it below about
    lam = 1e-162, where cw-flat read "flat": true against a threshold of 0."""
    z = Multivector.zero(2)
    e1 = Multivector.basis_vector(2, 1)
    return 2, np.zeros((2, 2)), {"a": z, "b": z, "c": e1, "d": e1,
                                 "e": Multivector.blade(2, 0b11, 0.5)}


CW_MAPS = [load_params_file(str(path)) for path in sorted(
    (Path(__file__).parent / "golden" / "inputs").glob("*params*.json"))] + [
    _row24_map(), _norm_underflow_map()]
ROW_24, NORM_UNDERFLOW = 5, 6


def run_scaled(argv, k, lam):
    """The stdout of the command argv on CW_MAPS[k] scaled by lam, or None
    where it refuses the map (exit 2, one error line)."""
    dim, b, fields = CW_MAPS[k]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.json"
        path.write_text(json.dumps({
            "dim": dim, "B": (lam ** 2 * b).ravel().tolist(),
            **{name: multivector_to_text(lam * x)
               for name, x in fields.items()}}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--params", str(path)])
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
        assert len(err.getvalue().splitlines()) == 1
        return None
    assert code == 0
    return json.loads(out.getvalue())


def refusable(k, lam):
    """Whether the threshold CHECK_TOL params.norm() of CW_MAPS[k] scaled
    by lam falls below the smallest normal double."""
    _, b, fields = CW_MAPS[k]
    params = CliffordMapParams(SymmetricMap.from_matrix(lam ** 2 * b), **{
        name: lam * x for name, x in fields.items()})
    return underflows(params.norm(), 1)


def cw_flat(k, lam):
    """The stdout of plain cw-flat on CW_MAPS[k] scaled by lam."""
    out = run_scaled(["cw-flat"], k, lam)
    assert out is not None
    return out


unscaled = lru_cache(cw_flat)


def test_cw_maps_take_both_verdicts():
    assert len(CW_MAPS) == 7
    assert sorted(unscaled(k, 1.0)["flat"] for k in range(7)) == \
        [False, False, False, True, True, True, True]


# below about 1e-162, lam^2 B underflows to the zero map, another input
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(CW_MAPS))), down_to(-160.0))
@example(0, 1e-160)
@example(1, 1e-160)
@example(NORM_UNDERFLOW, 1e-170)
def test_plain_cw_flat_verdict_does_not_depend_on_scale(k, lam):
    """In [1e-8, 1e8] the map is always taken; below, it is refused only
    where its threshold underflows.  The squares of block norms below
    about 2e-162 read 0, and the flat maps params_alphanz4.json and
    params_flat6_rot33.json read not flat at 1e-160."""
    out = run_scaled(["cw-flat"], k, lam)
    if out is None:
        assert lam < 1e-8 and refusable(k, lam)
        return
    assert out["flat"] == unscaled(k, 1.0)["flat"]


GOLDEN_MAPS = range(ROW_24)
ANY_N = ("sigma-", "sigma+", "x+:1;2,3", "x-:1,3;2")
EVEN_N = ("sv+s-", "sv+s+", "s-w", "s+w", "sigma-pi+", "sigma-pi-",
          "sigma+pi+", "sigma+pi-")
RESTRICTIONS = [(k, name) for k in GOLDEN_MAPS
                for name in ANY_N + EVEN_N * (CW_MAPS[k][0] % 2 == 0)]


@lru_cache
def restriction(k, name, lam):
    """The (invariant, representation) verdicts of cw-restrict with the
    projector name on CW_MAPS[k] scaled by lam, or None where it refuses."""
    out = run_scaled(["cw-restrict", "--projector", name], k, lam)
    return out and (out["invariant"], out["representation"])


def test_restrictions_take_both_verdicts():
    verdicts = [restriction(k, name, 1.0) for k, name in RESTRICTIONS]
    assert len(verdicts) == 52
    assert {v for pair in verdicts for v in pair} == {False, True}


# below about 1e-162, lam^2 B underflows to the zero map, another input
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RESTRICTIONS),
       st.floats(-160.0, 0.0).map(lambda x: 10.0 ** x))
@example((3, "sigma+"), 1e-100)      # params_rot4_perturbed.json
def test_restriction_verdicts_do_not_depend_on_scale(case, lam):
    """The squares of block norms below about 2e-162 read 0, and both
    residuals with them: params_rot4_perturbed.json with sigma+ read
    "representation": true from lam = 1e-81 on, against a threshold of 0 at
    1e-160.  A refusal is accepted only where the threshold underflows."""
    got = restriction(*case, lam)
    if got is None:
        assert refusable(case[0], lam)
        return
    assert got == restriction(*case, 1.0)


@pytest.mark.parametrize("exponent", range(-8, 9))
def test_row_24_defect_is_not_flat_at_every_scale(exponent):
    """Rows 24/24a are compared with threshold_24 = tol sqrt(norm), of
    degree one as they are; against the degree-two threshold this map read
    flat from lam = 1e6."""
    lam = 10.0 ** exponent
    out = cw_flat(ROW_24, lam)
    assert out["curvature_max"] == 0.0 and not out["flat"]
    assert out["report"]["24"] == pytest.approx(1e-3 * lam, rel=1e-12,
                                                     abs=0)
    assert out["threshold_24"] ** 2 == pytest.approx(1e-9 * out["threshold"],
                                                     rel=1e-12)


@pytest.mark.parametrize("lam", [1e-8, 1e-100, 1e-150, 1e-162, 1e-170,
                                 1e-200])
def test_a_map_whose_norm_underflows_keeps_its_verdicts_or_is_refused(lam):
    """The map is nonzero at every lam here, so a refusal is accepted where
    its threshold underflows, the norm's underflow to 0 included; from
    about 1e-162 on it must be refused."""
    got = (run_scaled(["cw-flat"], NORM_UNDERFLOW, lam),
           restriction(NORM_UNDERFLOW, "sigma+", lam))
    if lam < 1e-162:
        assert got == (None, None)
    for out, want in zip(got, (unscaled(NORM_UNDERFLOW, 1.0)["flat"],
                               restriction(NORM_UNDERFLOW, "sigma+", 1.0))):
        if out is None:
            assert refusable(NORM_UNDERFLOW, lam)
        else:
            assert (out if isinstance(out, tuple) else out["flat"]) == want
