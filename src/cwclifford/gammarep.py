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
    """A concrete matrix representation of the Clifford algebra."""

    dim_v: int
    kind: str  # "irreducible" or "faithful"
    matrices: Tuple[np.ndarray, ...]
    rep_dim: int
    _blade_cache: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def blade_matrix(self, mask: int) -> np.ndarray:
        cached = self._blade_cache.get(mask)
        if cached is not None:
            return cached
        if mask == 0:
            mat = np.eye(self.rep_dim, dtype=complex)
        else:
            low = mask & -mask
            mat = self.matrices[low.bit_length() - 1] @ self.blade_matrix(mask ^ low)
        self._blade_cache[mask] = mat
        return mat


def build_rep(n: int, kind: str = "faithful") -> GammaRep:
    if kind not in ("irreducible", "faithful"):
        raise ValueError(f"unknown representation kind {kind!r}")
    _check_dim("gamma representation", n)
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
    """Algebra homomorphism into rep_dim x rep_dim complex matrices."""
    if a.dim != rep.dim_v:
        raise DimensionMismatch(
            f"multivector dim {a.dim} does not match representation dim {rep.dim_v}")
    out = np.zeros((rep.rep_dim, rep.rep_dim), dtype=complex)
    for mask, coeff in a.terms():
        out += coeff * rep.blade_matrix(mask)
    return out


def extract_component(m: np.ndarray, mask: int, rep: GammaRep) -> complex:
    """Coefficient of Gamma_mask recovered from a represented matrix.

    Uses the trace formula with prefactor (-1)^(k(k+1)/2); requires a
    faithful representation when dim_v is odd, otherwise Gamma_mask and its
    volume dual represent the same matrix and the answer is ambiguous.
    """
    if rep.dim_v % 2 == 1 and rep.kind == "irreducible":
        raise AmbiguousOddIrreducible(
            "component extraction needs the faithful representation for odd n")
    k = grade(mask)
    pref = -1 if (k * (k + 1) // 2) % 2 else 1
    return pref * complex(np.trace(m @ rep.blade_matrix(mask))) / rep.rep_dim


def multivector_from_matrix(m: np.ndarray, rep: GammaRep) -> Multivector:
    """Full inverse of represent (faithful reps only for odd n)."""
    terms = {}
    for mask in range(1 << rep.dim_v):
        terms[mask] = extract_component(m, mask, rep)
    return Multivector(rep.dim_v, terms)
