"""The rotation-valued obstruction tensor attached to a pair (c, d).

On an orthonormal basis, antisymmetric in (mu, nu),

    Omega_{mu nu} = Gamma_mu c Gamma_nu - Gamma_nu c Gamma_mu
                    - (Gamma_{mu nu} d + d Gamma_{mu nu}).

By the bitmap sign rule of `core`, e_mu Gamma_J = sigma_mu(J) Gamma_J e_mu
with sigma_mu(J) = (-1)^|J - {mu}|: in each sandwich a blade J meeting
{mu, nu} an odd number of times cancels and any other doubles, so

    Omega_{mu nu} = sum_J 2 (sigma_mu(J) c_J - d_J) Gamma_J Gamma_{mu nu},

a relabel with no product.  It lies in so_B(V) tensor the algebra exactly
when every entry crossing two eigenspaces of B vanishes; for pairs
invariant under so_B(V) this singles out three coefficient templates
depending on how many distinct eigenvalues B has.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Tuple

import numpy as np

from .core import (_GP_BLOCK, CHECK_TOL, PRUNE_EPS, Multivector, _cross,
                   _element, _kept, _pair_rows, _Rows, _sandwich, _sign_mask,
                   _sign_tables, _signed, gp, verdict_threshold)
from .errors import DimensionMismatch, NotSoBInvariant
from .qpair import SymmetricMap, _dense_pair


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


def _pair_terms(c: Multivector, d: Multivector):
    """(J, w(J), |J| mod 2, c_J, d_J) for the blades of d, then those of c
    that d lacks; a coefficient at most PRUNE_EPS times its element's
    largest reads 0, as gp with a generator drops it."""
    cs, ds = ({j: z for j, z in x._terms.items()
               if abs(z) > PRUNE_EPS * x._top} for x in (c, d))
    return [(j, _sign_mask(j), j.bit_count() & 1, cs.pop(j, 0j), z)
            for j, z in ds.items()] + [
        (j, _sign_mask(j), j.bit_count() & 1, z, 0j) for j, z in cs.items()]


def _omega_terms(terms, m: int, low: int, cut: float) -> Dict[int, complex]:
    """The terms of Omega_{mu nu}, m the mask of {mu, nu} and low that of
    mu, a J with |sigma_mu(J) c_J - d_J| at most cut left out; summed from
    0j, as gp sums, so that no coefficient holds a negative zero."""
    out = {}
    for j, w, odd, zc, zd in terms:
        if (j & m).bit_count() & 1:
            continue
        flip = odd ^ (j & low != 0)           # sigma_mu(J) = -1
        z = zc + zd if flip else zc - zd
        if abs(z) > cut:
            neg = flip ^ (m & w).bit_count() & 1
            out[j ^ m] = 0j + (-2.0 if neg else 2.0) * z
    return out


def _omega_entries(c: Multivector, d: Multivector, pairs):
    """Omega_{mu nu} on the given 1-based (mu, nu), in their order, with the
    bits of s_{d,c}(e_nu) e_mu + e_mu s_{c,d}(e_nu), s_{a,b}(x) = a x - x b."""
    terms, cut = _pair_terms(c, d), PRUNE_EPS * max(c._top, d._top)
    return {(mu, nu): _element(c.dim, _omega_terms(
        terms, (1 << mu - 1) | (1 << nu - 1), 1 << mu - 1, cut), 0.0)
        for mu, nu in pairs}


def omega_tensor(c: Multivector, d: Multivector) -> OmegaTensor:
    if c.dim != d.dim:
        raise DimensionMismatch("pair elements live in different dimensions")
    return OmegaTensor(c.dim, _omega_entries(
        c, d, combinations(range(1, c.dim + 1), 2)))


def omega_in_soB(c: Multivector, d: Multivector, b: SymmetricMap,
                 tol: float = CHECK_TOL) -> Dict[str, object]:
    """Whether Omega_{c,d} lies in so_B(V) tensor the algebra.

    Rotates into the eigenbasis of B first, then requires every
    eigenspace-crossing entry to vanish to threshold(tol, |c| + |d|), Omega
    being linear in the pair.  Only those entries are formed, in (mu, nu)
    order; none for a B with one eigenvalue.
    Raises InputError on a nonzero pair whose threshold underflows.
    """
    if not c.dim == d.dim == b.n:
        raise DimensionMismatch("pair and symmetric map dimensions differ")
    cut = verdict_threshold(tol, c.norm() + d.norm())
    owner = {p: k for k, space in enumerate(b.eigenspaces)
             for p in space.positions}
    crossing = [(mu, nu) for mu, nu in combinations(range(1, b.n + 1), 2)
                if owner[mu - 1] != owner[nu - 1]]
    c2, d2 = b.adapt_to_eigenbasis(c, d)
    worst = 0.0
    worst_at = None
    for at, entry in _omega_entries(c2, d2, crossing).items():
        norm = entry.norm()
        if norm > worst:
            worst, worst_at = norm, at
    return {"holds": worst <= cut, "worst_norm": worst, "threshold": cut,
            "worst_entry": worst_at}


def is_sob_invariant_structural(x: Multivector, b: SymmetricMap) -> bool:
    """Support test in the eigenbasis of B: every blade meets each
    eigenspace in none or all of it, a product of eigenspace volumes."""
    masks = [space.mask for space in b.eigenspaces]
    return all(j & m in (0, m) for j, _ in x.terms() for m in masks)


def classify_distinguished(c: Multivector, d: Multivector, b: SymmetricMap,
                           tol: float = CHECK_TOL) -> Dict[str, object]:
    """Template matching for so_B-invariant pairs: the match is membership
    of Omega in so_B(V) tensor the algebra, the template named by the
    eigenvalue count of B: one (kl2), two (gl2), more (gr2).

    Every blade of an invariant pair is a union of eigenspace blocks, so
    the index pairs crossing the same two eigenspaces give entries with one
    list of coefficient sizes; the first position of each eigenspace stands
    for it, and the verdict is `omega_in_soB`'s bit for bit.  Raises
    NotSoBInvariant off that support and InputError on a nonzero pair whose
    threshold underflows.
    """
    if not c.dim == d.dim == b.n:
        raise DimensionMismatch("pair and symmetric map dimensions differ")
    cut = verdict_threshold(tol, c.norm() + d.norm())
    c2, d2 = b.adapt_to_eigenbasis(c, d)
    if not all(is_sob_invariant_structural(x, b) for x in (c2, d2)):
        raise NotSoBInvariant(
            "pair is not invariant under the rotations preserving B")
    firsts = [space.positions[0] + 1 for space in b.eigenspaces]
    match = all(entry.norm() <= cut for entry in _omega_entries(
        c2, d2, combinations(firsts, 2)).values())
    r = len(firsts)
    template = "kl2" if r == 1 else ("gl2" if r == 2 else "gr2")
    return {"template": template if match else None, "match": match}


def _pairs(dl, terms: dict, anticommute: int, out: dict) -> dict:
    """Adds d_A X_B Gamma_A Gamma_B to out over the blades A of d (its
    _signed terms dl) and B of X (terms) that commute (anticommute = 0) or
    anticommute (1), by the parity of |A| |B| + |A & B|."""
    get = out.get
    items = [(k, k.bit_count() & 1, z) for k, z in terms.items()]
    for a, w, ga, za in dl:
        for k, gk, z in items:
            if ((ga & gk) ^ (a & k).bit_count()) & 1 == anticommute:
                p = -za * z if (k & w).bit_count() & 1 else za * z
                out[a ^ k] = get(a ^ k, 0j) + p
    return out


def closing_identities(c: Multivector, d: Multivector,
                       b: SymmetricMap) -> Dict[str, float]:
    """Max residuals of the two closing identities, |d Omega_{xy}
    - Omega_{xy} d| over x < y and, over x <= y, with T_x = d e_x - e_x c
    and S_y = c e_y - e_y d,

        (T_x S_y + T_y S_x) / 2 - b_xy = (d K + K d - L) / 2
                                         + delta_xy d^2 - b_xy,

    K = e_x c e_y + e_y c e_x and L the same of c^2, relabels by the parity
    rule (`_sandwich`).  d K + K d keeps the blade pairs of d and K that
    commute, at twice their product, d Omega - Omega d those that
    anticommute; only c^2 and d^2 take a gp.  Coefficients at most
    PRUNE_EPS max |c_J, d_J|^2 are cut.  A dense pair (`_dense_pair`) sums
    in arrays (`_closing_arrays`), the others in the dict loops below.
    """
    if not c.dim == d.dim == b.n:
        raise DimensionMismatch("pair and symmetric map dimensions differ")
    n, top = c.dim, max(c._top, d._top)
    cut = PRUNE_EPS * top * top
    if _dense_pair(c, d):
        return _closing_arrays(c, d, b, cut)
    d2, cl, sq, dl = gp(d, d), _signed(c), _signed(gp(c, c)), _signed(d)
    terms, entries = _pair_terms(c, d), b.entries.tolist()
    anti = four = 0.0
    for x in range(n):
        low = 1 << x
        for y in range(x, n):
            m = low | 1 << y if y > x else 0
            out = _sandwich(sq, low, m, -1.0 if m else 1.0,
                            {} if m else dict(d2._terms))
            _pairs(dl, _sandwich(cl, low, m, 2.0 if m else -2.0, {}), 0, out)
            out[0] = out.get(0, 0j) - entries[x][y]
            anti = max(anti, _element(n, out, cut).norm())
            if m:
                omega = _omega_terms(terms, m, low, PRUNE_EPS * top)
                half = _element(n, _pairs(dl, omega, 1, {}), 0.5 * cut)
                four = max(four, 2.0 * half.norm())
    return {"four-term": four, "anticommutator": anti}


@np.errstate(over="ignore", invalid="ignore")   # _kept raises on it
def _closing_arrays(c: Multivector, d: Multivector, b: SymmetricMap,
                    cut: float) -> Dict[str, float]:
    """closing_identities for all x <= y at once, to rounding.

    Row p of the (pairs, 2^n) arrays k and omega holds the coefficients of
    K and Omega_{xy} (none for x = y) at the blades J ^ m, J the column and
    m the mask of {x, y}: K on the J meeting m once, Omega on the others.
    The cross table of d by their terms (`_cross`) gives each d_A X_B
    Gamma_A Gamma_B; a commuting pair counts for the first identity where
    X_B is a term of K, an anticommuting one for the second where it is a
    term of Omega.  np.bincount sums them per (identity, pair, blade) after
    L, delta_xy d^2 and -b_xy, in blocks of about _GP_BLOCK products;
    then each identity's cut, norm and max."""
    n, size = c.dim, 1 << c.dim
    w, flip = _sign_tables(n)
    x, y = np.triu_indices(n)
    pairs, low = len(x), (1 << x)[:, None]
    m = np.where(y > x, 1 << x | 1 << y, 0)[:, None]
    # c^2 and d^2 before gp's cut, whose terms at most PRUNE_EPS |c|^2 or
    # PRUNE_EPS |d|^2 move a residual by less than its rounding
    pool, (_, at), kept, (sq_re, sq_im) = _pair_rows(c, d)
    dense, held = np.zeros((2, size), complex), np.zeros((2, size), bool)
    term = np.arange(2).repeat(np.diff(pool.ptr)), pool.blade
    dense.real[term], dense.imag[term], held[term] = pool.re, pool.im, kept
    blade = np.arange(size)
    sign = flip[(blade & ~low) ^ (m & w)]        # of e_x Gamma_J e_y
    once = (m == 0) | (flip[blade & m] < 0)      # J meets m once, or x = y
    k = np.where(once, np.where(m, 2.0, -2.0) * sign, 0.0) * dense[0]
    # 2 rho (sigma_x(J) c_J - d_J), rho sigma_x(J) = sign, of the terms
    # of c and d that _pair_terms keeps
    zc, zd = np.where(held, dense, 0.0)
    z = flip[blade & ~low] * zc - zd
    top = max(c._top, d._top)
    omega = np.where(~once & (np.abs(z) > PRUNE_EPS * top),
                     2.0 * flip[m & w] * z, 0.0)
    p, j = np.nonzero(k + omega)
    kind, z = ~once[p, j], (k + omega)[p, j]     # kind: a term of Omega
    terms = _Rows(np.array([0, len(p)]), j ^ m[p, 0], z.real, z.imag,
                  np.zeros(1))
    c2, d2 = sq_re + 1j * sq_im
    first = np.where(once, np.where(m, -1.0, 1.0) * sign, 0.0) * c2
    first[m[:, 0] == 0] += d2
    first[np.arange(pairs), m[:, 0]] -= b.entries[x, y]
    out = np.zeros((2, 2 * pairs * size))
    out[:, :pairs * size] = first.real.ravel(), first.imag.ravel()
    a = pool.blade[at, None]
    step = max(1, _GP_BLOCK // max(1, len(at)))
    for s in range(0, len(p), step):
        e = np.arange(s, min(s + step, len(p)))
        product, re, im = _cross(pool, at, terms, e, n)
        bb = terms.blade[e]
        anti = flip[a & bb] * np.where((flip[a] < 0) & (flip[bb] < 0),
                                       -1.0, 1.0) < 0
        keep = anti == kind[e]
        key = ((kind[e] * pairs + p[e]) * size + (product ^ m[p[e], 0]))
        for part, v in zip(out, (re, im)):
            part += np.bincount(key[keep], v[keep], part.size)
    kept = _kept(*out.reshape(2, 2 * pairs, size),
                 np.repeat([cut, 0.5 * cut], pairs))[2]
    anti, four = np.hypot.reduce(kept, axis=1).reshape(2, pairs).max(
        1).tolist()
    return {"four-term": 2.0 * four, "anticommutator": anti}
