"""Dense gamma-matrix representations, the brute-force oracle.

Generators are built recursively from tensor products of the three
anti-Hermitian 2x2 matrices i*sigma_k, so that every represented generator
squares to -identity.  For odd n the extra generator is a multiple of the
product of the even ones, with the sign chosen so the represented complex
volume element is +identity in the irreducible representation; the faithful
representation for odd n is the irreducible representation of dimension
n+1 restricted to the first n generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .core import Multivector, _check_dim, grade
from .errors import AmbiguousOddIrreducible, DimensionMismatch

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _kron_chain(factors) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def _pair_generators(m: int):
    """2m anticommuting generators on 2^m, each squaring to -1."""
    gens = []
    for k in range(m):
        pre = [_SIGMA3] * k
        post = [_I2] * (m - k - 1)
        gens.append(_kron_chain(pre + [1j * _SIGMA1] + post))
        gens.append(_kron_chain(pre + [1j * _SIGMA2] + post))
    return gens


@dataclass
class GammaRep:
    """A concrete matrix representation of the Clifford algebra.  Every
    blade matrix is monomial, one phase of {+-1, +-i} per row; the cache
    keeps the flat (row-major) indices and phases of those entries, built
    as the lowest generator times the rest, with no negative zero part."""

    dim_v: int
    kind: str  # "irreducible" or "faithful"
    matrices: Tuple[np.ndarray, ...]
    rep_dim: int
    _blade_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False)

    def _monomial(self, mask: int) -> Tuple[np.ndarray, np.ndarray]:
        out = self._blade_cache.get(mask)
        if out is None:
            size, low = self.rep_dim, mask & -mask
            starts = np.arange(0, size * size, size)      # of the rows
            if mask == 0:
                out = starts + np.arange(size), np.ones(size, complex)
            else:
                g = self.matrices[low.bit_length() - 1].ravel()
                at = np.flatnonzero(g)
                col = at - starts
                rest, phase = self._monomial(mask ^ low)
                out = starts + rest[col] % size, 0j + g[at] * phase[col]
            self._blade_cache[mask] = out
        return out

    def blade_matrix(self, mask: int) -> np.ndarray:
        """The dense matrix of Gamma_mask, formed on each call."""
        at, phase = self._monomial(mask)
        out = np.zeros(self.rep_dim ** 2, dtype=complex)
        out[at] = phase
        return out.reshape(self.rep_dim, self.rep_dim)


def build_rep(n: int, kind: str = "faithful") -> GammaRep:
    if kind not in ("irreducible", "faithful"):
        raise ValueError(f"unknown representation kind {kind!r}")
    _check_dim("algebra", n)
    if n % 2 == 0:
        mats = _pair_generators(n // 2)
        return GammaRep(n, kind, tuple(mats), 1 << (n // 2))
    m = (n - 1) // 2
    mats = _pair_generators(m)
    prod = np.eye(1 << m, dtype=complex)
    for g in mats:
        prod = prod @ g
    # sign fixed so the represented complex volume element is +identity
    mats.append(-(1j ** (m + 1)) * prod)
    if kind == "irreducible":
        return GammaRep(n, "irreducible", tuple(mats), 1 << m)
    # faithful: block-diagonal sum of the two irreducibles, which differ by
    # the sign of the odd generator (hence of the represented volume element)
    zero = np.zeros((1 << m, 1 << m), dtype=complex)
    doubled = []
    for idx, g in enumerate(mats):
        twin = -g if idx == n - 1 else g
        doubled.append(np.block([[g, zero], [zero, twin]]))
    return GammaRep(n, "faithful", tuple(doubled), 1 << (m + 1))


def represent(a: Multivector, rep: GammaRep) -> np.ndarray:
    """Algebra homomorphism into rep_dim x rep_dim complex matrices: each
    blade adds coefficient times phase at its entries, in term order."""
    if a.dim != rep.dim_v:
        raise DimensionMismatch(
            f"multivector dim {a.dim} does not match representation dim {rep.dim_v}")
    out = np.zeros(rep.rep_dim ** 2, dtype=complex)
    for mask, coeff in a.terms():
        at, phase = rep._monomial(mask)
        out[at] += coeff * phase
    return out.reshape(rep.rep_dim, rep.rep_dim)


def extract_component(m: np.ndarray, mask: int, rep: GammaRep) -> complex:
    """Coefficient of Gamma_mask recovered from a represented matrix.

    Uses the trace formula with prefactor (-1)^(k(k+1)/2), the trace of the
    product summed elementwise in O(rep_dim^2); requires a faithful
    representation when dim_v is odd, otherwise Gamma_mask and its volume
    dual represent the same matrix and the answer is ambiguous.
    """
    if rep.dim_v % 2 == 1 and rep.kind == "irreducible":
        raise AmbiguousOddIrreducible(
            "component extraction needs the faithful representation for odd n")
    k = grade(mask)
    pref = -1 if (k * (k + 1) // 2) % 2 else 1
    trace = np.einsum("ij,ji->", m, rep.blade_matrix(mask))
    return pref * complex(trace) / rep.rep_dim


def multivector_from_matrix(m: np.ndarray, rep: GammaRep) -> Multivector:
    """Full inverse of represent (faithful reps only for odd n)."""
    terms = {}
    for mask in range(1 << rep.dim_v):
        terms[mask] = extract_component(m, mask, rep)
    return Multivector(rep.dim_v, terms)
