"""The rotation-valued obstruction tensor attached to a pair (c, d).

On an orthonormal basis the tensor is

    Omega_{mu nu} = Gamma_mu c Gamma_nu - Gamma_nu c Gamma_mu
                    - (Gamma_{mu nu} d + d Gamma_{mu nu}),

antisymmetric in (mu, nu).  As Gamma_nu Gamma_mu = -Gamma_mu Gamma_nu for
mu != nu, it equals, with s_{a,b}(x) = a x - x b,

    Omega_{mu nu} = s_{d,c}(e_nu) e_mu + e_mu s_{c,d}(e_nu),

the one form evaluated here, for the tensor and both closing identities.
It lies in so_B(V) tensor the algebra exactly when every entry crossing two
different eigenspaces of B vanishes; for pairs invariant under so_B(V) this
singles out three coefficient templates depending on how many distinct
eigenvalues B has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .core import (CHECK_TOL, Multivector, _rows_cat, _rows_gp, _rows_norm,
                   _rows_of, _rows_scaled, _rows_sum, gp, grade, threshold,
                   volume_element)
from .errors import DimensionMismatch, NotSoBInvariant
from .qpair import SymmetricMap, _dense_pair, _pair_threshold, s_map


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


def _omega_parts(c: Multivector, d: Multivector, pairs):
    """The entries Omega_{mu nu} = s_{d,c}(e_nu) e_mu + e_mu s_{c,d}(e_nu) on
    the given 1-based (mu, nu), keyed and ordered as given, and the s-images
    s_{d,c}(e_nu) and s_{c,d}(e_nu) for only the nu those pairs use, keyed
    by nu."""
    gens = {mu: Multivector.basis_vector(c.dim, mu)
            for mu in {i for pair in pairs for i in pair}}
    used = dict.fromkeys(nu for _, nu in pairs)
    sdc = {nu: s_map(d, c, gens[nu]) for nu in used}
    scd = {nu: s_map(c, d, gens[nu]) for nu in used}
    entries = {(mu, nu): gp(sdc[nu], gens[mu]) + gp(gens[mu], scd[nu])
               for mu, nu in pairs}
    return sdc, scd, entries


def _triangle(n: int):
    """The 1-based (mu, nu), mu < nu, in lexicographic order."""
    return [(mu, nu) for mu in range(1, n + 1) for nu in range(mu + 1, n + 1)]


def omega_tensor(c: Multivector, d: Multivector) -> OmegaTensor:
    if c.dim != d.dim:
        raise DimensionMismatch("pair elements live in different dimensions")
    return OmegaTensor(c.dim, _omega_parts(c, d, _triangle(c.dim))[2])


def omega_in_soB(c: Multivector, d: Multivector, b: SymmetricMap,
                 tol: float = CHECK_TOL) -> Dict[str, object]:
    """Whether Omega_{c,d} lies in so_B(V) tensor the algebra.

    Rotates into the eigenbasis of B first, then requires every
    eigenspace-crossing entry to vanish to threshold(tol, |c| + |d|), Omega
    being linear in the pair.  Only those entries are formed, in (mu, nu)
    order, with the s-images they use; none for a B with one eigenvalue.
    Raises InputError on a nonzero pair whose threshold underflows.
    """
    if not c.dim == d.dim == b.n:
        raise DimensionMismatch("pair and symmetric map dimensions differ")
    cut = _pair_threshold(tol, c, d, 1)
    owner = {p: k for k, space in enumerate(b.eigenspaces)
             for p in space.positions}
    crossing = [(mu, nu) for mu, nu in _triangle(b.n)
                if owner[mu - 1] != owner[nu - 1]]
    c2, d2 = b.adapt_to_eigenbasis(c, d)
    worst = 0.0
    worst_at = None
    for at, entry in _omega_parts(c2, d2, crossing)[2].items():
        norm = entry.norm()
        if norm > worst:
            worst, worst_at = norm, at
    return {"holds": worst <= cut, "worst_norm": worst, "threshold": cut,
            "worst_entry": worst_at}


def is_sob_invariant_structural(x: Multivector, b: SymmetricMap) -> bool:
    """Support test: only products of eigenspace volume blades allowed."""
    allowed = _allowed_masks(b)
    return all(mask in allowed for mask, _ in x.terms())


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
                           tol: float = CHECK_TOL) -> Dict[str, object]:
    """Template matching for so_B-invariant pairs.

    The per-sector constraints are read off the homogeneous entry formula:
    a sector touching t of the r eigenspaces must satisfy
    d_M = -(-1)^grade c_M when two eigenspaces sit inside it (t >= 2) and
    d_M = +(-1)^grade c_M when two sit outside (t <= r - 2); both force the
    sector to vanish.  Templates by eigenvalue count: one (scalar and
    volume sectors free), two (the middle sectors free as well), more than
    two (everything constrained).  For odd dimensions the volume-twisted
    copy of the pair is accepted too.  Coefficients count as zero to
    threshold(tol, |c| + |d|); raises InputError on a nonzero pair whose
    threshold underflows.
    """
    if not c.dim == d.dim == b.n:
        raise DimensionMismatch("pair and symmetric map dimensions differ")
    _pair_threshold(tol, c, d, 1)
    c2, d2 = b.adapt_to_eigenbasis(c, d)
    allowed = _allowed_masks(b)
    if any(mask not in allowed for x in (c2, d2) for mask, _ in x.terms()):
        raise NotSoBInvariant(
            "pair is not invariant under the rotations preserving B")
    r = len(b.eigenspaces)
    template = "kl2" if r == 1 else ("gl2" if r == 2 else "gr2")

    def fit(cc: Multivector, dd: Multivector):
        cut = threshold(tol, cc.norm() + dd.norm())
        coeffs = {}
        for mask, members in allowed.items():
            t = len(members)
            cm = cc.coefficient(mask)
            dm = dd.coefficient(mask)
            sign = (-1) ** grade(mask)
            if t >= 2 and abs(dm + sign * cm) > cut:
                return None
            if r - t >= 2 and abs(dm - sign * cm) > cut:
                return None
            if abs(cm) > cut or abs(dm) > cut:
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


def _closing_rows(c: Multivector, d: Multivector, b: np.ndarray):
    """Entry norms of the two closing identities of (c, d) on the triangle.

    With s_{a,b}(x) = a x - x b and Omega_{mu nu} = s_{d,c}(e_nu) e_mu
    + e_mu s_{c,d}(e_nu), returns two float64 arrays: the norms of the
    anticommutator residual (s_{d,c}(e_nu) s_{c,d}(e_mu)
    + s_{d,c}(e_mu) s_{c,d}(e_nu)) / 2 - b[mu - 1, nu - 1] over mu <= nu and
    of the four-term residual d Omega_{mu nu} - Omega_{mu nu} d over mu < nu,
    each in the order of np.triu_indices.  Each step is one row-kernel call
    over all entries, bit for bit the gp loop of `closing_identities`.
    """
    n, m = c.dim, c.dim ** 2
    mu = np.arange(n)
    at_c, at_d, at_e = 0 * mu, 0 * mu + 1, mu + 2
    # rows c, d, e_1 .. e_n
    pool = _rows_of([c, d] + [Multivector.basis_vector(n, k)
                              for k in range(1, n + 1)])
    # rows d e_nu, c e_nu, e_nu c, e_nu d
    ends = _rows_gp(pool, np.concatenate((at_d, at_c, at_e, at_e)), pool,
                    np.concatenate((at_e, at_e, at_c, at_d)), n)
    # rows s_{d,c}(e_nu), s_{c,d}(e_nu), then the pool
    both = np.arange(2 * n)
    s = _rows_cat(_rows_sum(ends, both, ends, 2 * n + both, -1.0, True, n),
                  pool)
    lo, hi = np.triu_indices(n)               # mu <= nu
    mu, nu = lo[lo < hi], hi[lo < hi]         # mu < nu
    t, a = len(mu), len(lo)
    # row x n + y: s_{d,c}(e_x) s_{c,d}(e_y); then s_{d,c}(e_nu) e_mu and
    # e_mu s_{c,d}(e_nu)
    x, y = np.divmod(np.arange(m), n)
    at_e = 2 * n + 2 + mu
    prods = _rows_gp(s, np.concatenate((x, nu, at_e)), s,
                     np.concatenate((n + y, at_e, n + nu)), n)
    # rows Omega_{mu nu}, twice the anticommutator, then the pool
    tri = np.arange(t)
    sums = _rows_cat(_rows_sum(
        prods, np.concatenate((m + tri, hi * n + lo)), prods,
        np.concatenate((m + t + tri, lo * n + hi)), 1.0, True, n), pool)
    at_d = np.full(t, t + a + 1)
    # rows d Omega, Omega d, the anticommutator, b[mu, nu]
    table = _rows_cat(
        _rows_gp(sums, np.concatenate((at_d, tri)), sums,
                 np.concatenate((tri, at_d)), n),
        _rows_scaled(sums, t + np.arange(a), np.full(a, 0.5)),
        _rows_of([Multivector.scalar(n, v) for v in b[lo, hi]]))
    # rows [d, Omega], then the anticommutator residuals
    res = _rows_sum(table, np.concatenate((tri, 2 * t + np.arange(a))), table,
                    np.concatenate((t + tri, 2 * t + a + np.arange(a))), -1.0,
                    True, n)
    norms = _rows_norm(res)
    return norms[t:], norms[:t]


def closing_identities(c: Multivector, d: Multivector,
                       b: SymmetricMap) -> Dict[str, float]:
    """Max residuals of the two closing identities: |d Omega_{mu nu}
    - Omega_{mu nu} d| over mu < nu (Omega is antisymmetric, zero on the
    diagonal) and the anticommutator residual, symmetric, over mu <= nu,
    normalized with the factor 1/2 fixed by direct evaluation on monomial
    pairs.  Dense pairs (`qpair._dense_pair`) take the row form
    `_closing_rows` above, the others the gp loop below, bit for bit.
    """
    if not c.dim == d.dim == b.n:
        raise DimensionMismatch("pair and symmetric map dimensions differ")
    if _dense_pair(c, d):
        anti, four = _closing_rows(c, d, b.entries)
        return {"four-term": float(four.max(initial=0.0)),
                "anticommutator": float(anti.max())}
    n = c.dim
    sdc, scd, omega = _omega_parts(c, d, _triangle(n))
    # the n^2 products need the s-images at nu = 1 too, which no mu < nu uses
    e1 = Multivector.basis_vector(n, 1)
    sdc[1], scd[1] = s_map(d, c, e1), s_map(c, d, e1)
    at = range(1, n + 1)
    prods = [[gp(sdc[x], scd[y]) for y in at] for x in at]
    r_four = max(((gp(d, x) - gp(x, d)).norm() for x in omega.values()),
                 default=0.0)
    r_anti = max((0.5 * (prods[nu][mu] + prods[mu][nu])
                  - Multivector.scalar(n, complex(b.entries[mu, nu]))).norm()
                 for mu in range(n) for nu in range(mu, n))
    return {"four-term": r_four, "anticommutator": r_anti}
