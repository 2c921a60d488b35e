import dataclasses

import numpy as np
import pytest

from cwclifford.core import Multivector, gp, random_multivector, volume_element
from cwclifford.errors import AmbiguousOddIrreducible, DimensionTooLarge
from cwclifford.gammarep import (GammaRep, build_rep, extract_component,
                                 multivector_from_matrix, represent)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("kind", ["irreducible", "faithful"])
def test_generator_relations(n, kind):
    rep = build_rep(n, kind)
    eye = np.eye(rep.rep_dim)
    for i in range(n):
        for j in range(n):
            anti = rep.matrices[i] @ rep.matrices[j] \
                + rep.matrices[j] @ rep.matrices[i]
            want = -2 * eye if i == j else 0 * eye
            assert np.max(np.abs(anti - want)) < 1e-12


def test_rep_dims():
    assert build_rep(4, "irreducible").rep_dim == 4
    assert build_rep(4, "faithful").rep_dim == 4
    assert build_rep(5, "irreducible").rep_dim == 4
    assert build_rep(5, "faithful").rep_dim == 8


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        build_rep(13)
    with pytest.raises(DimensionTooLarge):
        build_rep(0)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_odd_irreducible_volume_is_identity(n):
    rep = build_rep(n, "irreducible")
    gv = represent(volume_element(n), rep)
    assert np.max(np.abs(gv - np.eye(rep.rep_dim))) < 1e-12


@pytest.mark.parametrize("n", [1, 3, 5])
def test_odd_faithful_is_injective(n):
    rep = build_rep(n, "faithful")
    flat = np.array([rep.blade_matrix(m).reshape(-1) for m in range(1 << n)])
    assert np.linalg.matrix_rank(flat) == 1 << n


def test_odd_irreducibles_differ_by_volume_sign():
    # flipping the sign of the represented volume element gives the twin
    # irreducible: same even subalgebra, negated odd generator images
    n = 5
    rep = build_rep(n, "irreducible")
    twin = [-m for m in rep.matrices]
    for i in range(n):
        for j in range(n):
            anti = twin[i] @ twin[j] + twin[j] @ twin[i]
            want = -2 * np.eye(rep.rep_dim) if i == j else 0 * anti
            assert np.max(np.abs(anti - want)) < 1e-12
    vol = volume_element(n)
    gv = np.zeros((rep.rep_dim, rep.rep_dim), dtype=complex)
    for mask, coeff in vol.terms():
        prod = np.eye(rep.rep_dim, dtype=complex)
        for mu in range(n):
            if (mask >> mu) & 1:
                prod = prod @ twin[mu]
        gv += coeff * prod
    assert np.max(np.abs(gv + np.eye(rep.rep_dim))) < 1e-12


def test_represent_is_homomorphism():
    rng = np.random.default_rng(0)
    for n in range(2, 9):
        rep = build_rep(n, "faithful")
        for _ in range(10):
            a = random_multivector(rng, n, 6)
            b = random_multivector(rng, n, 6)
            lhs = represent(gp(a, b), rep)
            rhs = represent(a, rep) @ represent(b, rep)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(
                a.norm() * b.norm(), 1.0)


def test_represent_unit_and_volume():
    rep = build_rep(4)
    assert np.max(np.abs(represent(Multivector.unit(4), rep)
                         - np.eye(4))) == 0


def test_extract_component_examples():
    rep = build_rep(2)
    m = represent(Multivector.blade(2, 0b11, 3.0), rep)
    assert abs(extract_component(m, 0b11, rep) - 3.0) < 1e-12
    assert abs(extract_component(np.eye(2, dtype=complex), 0, rep) - 1.0) < 1e-12


def test_extraction_round_trip():
    rng = np.random.default_rng(1)
    for n, kind in ((4, "faithful"), (5, "faithful"), (6, "irreducible")):
        rep = build_rep(n, kind)
        a = random_multivector(rng, n, 12)
        m = represent(a, rep)
        back = multivector_from_matrix(m, rep)
        assert (a - back).is_zero(1e-10)


def test_odd_irreducible_extraction_refused():
    rep = build_rep(3, "irreducible")
    with pytest.raises(AmbiguousOddIrreducible):
        extract_component(np.eye(2, dtype=complex), 0b1, rep)


def dense_blade(rep, mask):
    """Gamma_mask as the product of its generator matrices, lowest first."""
    out = np.eye(rep.rep_dim, dtype=complex)
    for mu in reversed(range(rep.dim_v)):
        if (mask >> mu) & 1:
            out = rep.matrices[mu] @ out
    return out


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", ["irreducible", "faithful"])
def test_blades_are_monomial_and_kept_as_flat_index_and_phase(n, kind):
    """Every blade matrix has one nonzero per row, drawn from {+-1, +-i}
    with no negative zero part, equal to the product of its generators;
    the cache holds the flat indices and phases, not the dense matrix."""
    rep = build_rep(n, kind)
    rng = np.random.default_rng(n)
    masks = range(1 << n) if n <= 6 else rng.integers(0, 1 << n, 24).tolist()
    units = {complex(1), complex(-1), 1j, -1j}
    for mask in masks:
        mat = rep.blade_matrix(mask)
        assert (mat == dense_blade(rep, mask)).all()
        rows, cols = np.nonzero(mat)
        assert (rows == np.arange(rep.rep_dim)).all()
        assert set(mat[rows, cols].tolist()) <= units
        assert not np.signbit(mat.view(float)[mat.view(float) == 0]).any()
        at, phase = rep._blade_cache[mask]
        assert (at == rows * rep.rep_dim + cols).all()
        assert (phase == mat[rows, cols]).all()
    sizes = {a.nbytes + b.nbytes for a, b in rep._blade_cache.values()}
    assert sizes == {rep.rep_dim * (8 + 16)}


@pytest.mark.parametrize("n", [1, 2, 5, 8, 11, 12])
def test_represent_is_the_sum_of_dense_blades_bit_for_bit(n):
    """represent gives the bits of sum_terms coeff * blade matrix, added in
    term order from zero, for raw, product and negated elements."""
    rng = np.random.default_rng(40 + n)
    rep = build_rep(n, "faithful")
    a = random_multivector(rng, n, 8)
    for x in (a, gp(a, a), -a, Multivector.zero(n),
              Multivector(n, {0: complex(1.0, -0.0), 1: -1e-300j})):
        want = np.zeros((rep.rep_dim, rep.rep_dim), dtype=complex)
        for mask, coeff in x.terms():
            want += coeff * dense_blade(rep, mask)
        assert represent(x, rep).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_build_rep_shares_one_read_only_rep_per_dimension_and_kind(n):
    rep = build_rep(n)
    assert build_rep(n, "faithful") is rep and build_rep(n) is rep
    assert build_rep(np.int64(n)) is rep
    irreducible = build_rep(n, "irreducible")
    assert irreducible is build_rep(n, "irreducible") and irreducible is not rep
    assert irreducible.kind == "irreducible" and rep.kind == "faithful"
    represent(random_multivector(np.random.default_rng(n), n, 4), rep)
    assert rep._blade_cache
    for m in rep.matrices:
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
    for at, phase in rep._blade_cache.values():
        for x in (at, phase):
            with pytest.raises(ValueError):
                x[0] = x[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.rep_dim = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.matrices = ()


def test_reps_compare_and_hash_by_identity():
    """A representation holds arrays, so == and hash go by identity: a rep
    keys a dict, and a twin built from copies of its fields is another rep,
    which == tells apart without comparing arrays."""
    rep = build_rep(4)
    assert {rep: "faithful"}[build_rep(4)] == "faithful"
    assert hash(rep) == hash(build_rep(4))
    assert build_rep(4) == build_rep(4)
    assert build_rep(4) != build_rep(4, "irreducible")
    twin = GammaRep(rep.dim_v, rep.kind,
                    tuple(m.copy() for m in rep.matrices), rep.rep_dim)
    assert twin != rep and not twin == rep
    assert len({rep, twin, build_rep(4, "irreducible")}) == 3


def test_build_rep_checks_its_arguments():
    with pytest.raises(ValueError, match="unknown representation kind"):
        build_rep(4, "spinor")
    with pytest.raises(TypeError):
        build_rep(4.0)
