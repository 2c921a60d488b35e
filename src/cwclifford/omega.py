"""The rotation-valued obstruction tensor attached to a pair (c, d).

On an orthonormal basis the tensor is

    Omega_{mu nu} = Gamma_mu c Gamma_nu - Gamma_nu c Gamma_mu
                    - (Gamma_{mu nu} d + d Gamma_{mu nu}),

antisymmetric in (mu, nu).  It lies in so_B(V) tensor the algebra exactly
when every entry crossing two different eigenspaces of B vanishes; for
pairs invariant under so_B(V) this singles out three coefficient templates
depending on how many distinct eigenvalues B has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .core import Multivector, gp, grade, volume_element
from .errors import DimensionMismatch, NotSoBInvariant
from .qpair import (SymmetricMap, rotate_multivector, s_map,
                    skew_to_bivector)

MEMBERSHIP_TOL = 1e-9


@dataclass
class OmegaTensor:
    """Strictly upper-triangular storage; the lower half is minus the upper."""

    dim: int
    entries: Dict[Tuple[int, int], Multivector]

    def entry(self, mu: int, nu: int) -> Multivector:
        if mu == nu:
            return Multivector.zero(self.dim)
        if mu < nu:
            return self.entries[(mu, nu)]
        return -self.entries[(nu, mu)]

    def max_norm(self) -> float:
        return max((e.norm() for e in self.entries.values()), default=0.0)


def omega_bilinear(c: Multivector, d: Multivector, v: Multivector,
                   w: Multivector) -> Multivector:
    """Bilinear form of the tensor; sign fixed to match the basis formula."""
    return -(gp(s_map(d, c, v), w) + gp(w, s_map(c, d, v)))


def omega_tensor(c: Multivector, d: Multivector) -> OmegaTensor:
    if c.dim != d.dim:
        raise DimensionMismatch("pair elements live in different dimensions")
    n = c.dim
    entries = {}
    for mu in range(1, n + 1):
        gm = Multivector.basis_vector(n, mu)
        for nu in range(mu + 1, n + 1):
            gn = Multivector.basis_vector(n, nu)
            gmn = gp(gm, gn)
            entries[(mu, nu)] = (gp(gm, gp(c, gn)) - gp(gn, gp(c, gm))
                                 - gp(gmn, d) - gp(d, gmn))
    return OmegaTensor(n, entries)


def _adapt_to_eigenbasis(c: Multivector, d: Multivector, b: SymmetricMap):
    """Rotate the pair into the eigenbasis of B; eigenspace index sets
    become contiguous position blocks there."""
    if b.eigenbasis_is_identity:
        return c, d
    r = b.eigenvectors
    return (rotate_multivector(c, r.T), rotate_multivector(d, r.T))


def omega_in_soB(c: Multivector, d: Multivector, b: SymmetricMap,
                 tol: float = MEMBERSHIP_TOL) -> Dict[str, object]:
    """Whether Omega_{c,d} lies in so_B(V) tensor the algebra.

    Rotates into the eigenbasis of B first, then requires every
    eigenspace-crossing entry to vanish.
    """
    if c.dim != b.n:
        raise DimensionMismatch("pair and symmetric map dimensions differ")
    c2, d2 = _adapt_to_eigenbasis(c, d, b)
    omega = omega_tensor(c2, d2)
    scale = 1.0 + c.norm() + d.norm()
    worst = 0.0
    worst_at = None
    for (mu, nu), entry in omega.entries.items():
        both = (1 << (mu - 1)) | (1 << (nu - 1))
        if any(both & space.mask == both for space in b.eigenspaces):
            continue
        norm = entry.norm()
        if norm > worst:
            worst, worst_at = norm, (mu, nu)
    return {"holds": worst <= tol * scale, "worst_norm": worst,
            "worst_entry": worst_at}


def is_sob_invariant_structural(x: Multivector, b: SymmetricMap) -> bool:
    """Support test: only products of eigenspace volume blades allowed."""
    allowed = _allowed_masks(b)
    return all(mask in allowed for mask, _ in x.terms())


def is_sob_invariant_commutator(x: Multivector, b: SymmetricMap,
                                tol: float = 1e-10) -> bool:
    """Fallback for non-adapted bases: commute with every so_B generator."""
    scale = 1.0 + x.norm()
    for h in b.sob_basis():
        a = skew_to_bivector(h, b.n)
        if (gp(a, x) - gp(x, a)).norm() > tol * scale:
            return False
    return True


def _allowed_masks(b: SymmetricMap) -> Dict[int, Tuple[int, ...]]:
    """All unions of eigenspace blocks, mapped to the cluster subsets."""
    out: Dict[int, Tuple[int, ...]] = {}
    for subset in range(1 << len(b.eigenspaces)):
        mask = 0
        members = []
        for idx, space in enumerate(b.eigenspaces):
            if (subset >> idx) & 1:
                mask |= space.mask
                members.append(idx)
        out[mask] = tuple(members)
    return out


def classify_distinguished(c: Multivector, d: Multivector, b: SymmetricMap,
                           tol: float = MEMBERSHIP_TOL) -> Dict[str, object]:
    """Template matching for so_B-invariant pairs.

    The per-sector constraints are read off the homogeneous entry formula:
    a sector touching t of the r eigenspaces must satisfy
    d_M = -(-1)^grade c_M when two eigenspaces sit inside it (t >= 2) and
    d_M = +(-1)^grade c_M when two sit outside (t <= r - 2); both force the
    sector to vanish.  Templates by eigenvalue count: one (scalar and
    volume sectors free), two (the middle sectors free as well), more than
    two (everything constrained).  For odd dimensions the volume-twisted
    copy of the pair is accepted too.
    """
    if c.dim != b.n:
        raise DimensionMismatch("pair and symmetric map dimensions differ")
    c2, d2 = _adapt_to_eigenbasis(c, d, b)
    allowed = _allowed_masks(b)
    for x in (c2, d2):
        if not is_sob_invariant_structural(x, b):
            raise NotSoBInvariant(
                "pair is not invariant under the rotations preserving B")
    r = len(b.eigenspaces)
    template = "kl2" if r == 1 else ("gl2" if r == 2 else "gr2")

    def fit(cc: Multivector, dd: Multivector):
        scale = 1.0 + cc.norm() + dd.norm()
        coeffs = {}
        for mask, members in allowed.items():
            t = len(members)
            cm = cc.coefficient(mask)
            dm = dd.coefficient(mask)
            sign = (-1) ** grade(mask)
            if t >= 2 and abs(dm + sign * cm) > tol * scale:
                return None
            if r - t >= 2 and abs(dm - sign * cm) > tol * scale:
                return None
            if abs(cm) > tol * scale or abs(dm) > tol * scale:
                coeffs[mask] = (cm, dm)
        return coeffs

    fitted = fit(c2, d2)
    twisted = False
    if fitted is None and b.n % 2 == 1:
        vol = volume_element(b.n)
        fitted = fit(gp(vol, c2), gp(vol, d2))
        twisted = fitted is not None
    if fitted is None:
        return {"template": None, "match": False}
    return {"template": template, "match": True, "twisted": twisted,
            "coefficients": fitted}


def closing_identities(c: Multivector, d: Multivector,
                       b: SymmetricMap) -> Dict[str, float]:
    """Max residuals of the two closing algebraic identities.

    The anticommutator identity is normalized with the factor 1/2 fixed by
    direct evaluation on monomial pairs.
    """
    n = c.dim
    gens = [Multivector.basis_vector(n, mu) for mu in range(1, n + 1)]
    sdc = [s_map(d, c, g) for g in gens]
    scd = [s_map(c, d, g) for g in gens]
    r_four = 0.0
    r_anti = 0.0
    for mu in range(n):
        for nu in range(n):
            gm = gens[mu]
            four = (gp(d, gp(sdc[nu], gm)) + gp(d, gp(gm, scd[nu]))
                    - gp(gp(sdc[nu], gm), d) - gp(gp(gm, scd[nu]), d))
            r_four = max(r_four, four.norm())
            anti = 0.5 * (gp(sdc[nu], scd[mu]) + gp(sdc[mu], scd[nu]))
            target = Multivector.scalar(n, complex(b.entries[mu, nu]))
            r_anti = max(r_anti, (anti - target).norm())
    return {"four-term": r_four, "anticommutator": r_anti}
