"""Cahen-Wallach Lie algebra, Clifford maps, curvature and restrictions.

The solvable Lorentzian symmetric space attached to a symmetric map B has
Lie algebra V* + V + R e_+ + R e_-, with e_+ central, [v*, w] = -<Bv, w> e_+,
[v*, e_-] = Bv and [e_-, w] = w*.  Spinors form pairs over the Clifford
module of V, so endomorphisms of the spinor module are 2x2 block matrices
[[p, q], [r, s]] with Clifford-algebra blocks; the parity twist of the
graded tensor product is applied once at embedding time, after which block
multiplication is plain matrix multiplication over the algebra.

A Clifford map is determined by five algebra elements (a, b, c, d, e) and B:

    rho(v*)  = [[0, Bv/sqrt2], [0, 0]]
    rho(e+)  = [[0, sqrt2 a], [0, 0]]
    rho(e-)  = [[bar c, sqrt2 e], [sqrt2 bar b, d]]
    rho(w)   = [[w bar b, -s_{bar c, d}(w)/sqrt2], [0, -bar b w]]

and acts on rotations commuting with B through the usual bivector
identification, block-diagonally.  The curvature of the associated
invariant connection on basis pairs is [rho(x), rho(y)] - rho([x, y]).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import inf
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from .core import (_DBL_MIN, _GP_BLOCK, CHECK_TOL, PRUNE_EPS, Multivector,
                   _cut_rows, _Rows, _rows_cat, _rows_fold, _rows_gp,
                   _rows_norm, _rows_of, _rows_scaled, _rows_sum, _sandwich,
                   _signed, blade_from_indices, blade_mul, blade_square_sign,
                   gp, grade_involution, threshold, verdict_threshold,
                   volume_element)
from .errors import (ConstraintViolated, DimensionMismatch, InputError,
                     NotAProjector, NotInSoB, OddDimension,
                     PairNotAssociatedToMinusB)
from .qpair import SymmetricMap, extract_B, s_map, skew_to_bivector

SQRT2 = float(np.sqrt(2.0))


# -- the Lie algebra ---------------------------------------------------------

@dataclass
class CWAlgebraElement:
    """Element h + v* + v + x+ e_+ + x- e_-; v* is stored by its V preimage."""

    n: int
    h: np.ndarray
    vstar: np.ndarray
    v: np.ndarray
    xplus: float
    xminus: float

    @staticmethod
    def zero(n: int) -> "CWAlgebraElement":
        return CWAlgebraElement(n, np.zeros((n, n)), np.zeros(n), np.zeros(n),
                                0.0, 0.0)

    @staticmethod
    def e_plus(n: int) -> "CWAlgebraElement":
        return replace(CWAlgebraElement.zero(n), xplus=1.0)

    @staticmethod
    def e_minus(n: int) -> "CWAlgebraElement":
        return replace(CWAlgebraElement.zero(n), xminus=1.0)

    @staticmethod
    def vector(n: int, components) -> "CWAlgebraElement":
        return replace(CWAlgebraElement.zero(n),
                       v=np.asarray(components, dtype=float))

    @staticmethod
    def basis_vector(n: int, mu: int) -> "CWAlgebraElement":
        return CWAlgebraElement.vector(n, _unit_components(n, mu))

    @staticmethod
    def covector(n: int, components) -> "CWAlgebraElement":
        return replace(CWAlgebraElement.zero(n),
                       vstar=np.asarray(components, dtype=float))

    @staticmethod
    def basis_covector(n: int, mu: int) -> "CWAlgebraElement":
        return CWAlgebraElement.covector(n, _unit_components(n, mu))

    @staticmethod
    def rotation(n: int, h) -> "CWAlgebraElement":
        return replace(CWAlgebraElement.zero(n), h=np.asarray(h, dtype=float))

    def __add__(self, other: "CWAlgebraElement") -> "CWAlgebraElement":
        return CWAlgebraElement(self.n, self.h + other.h,
                                self.vstar + other.vstar, self.v + other.v,
                                self.xplus + other.xplus,
                                self.xminus + other.xminus)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.h ** 2) + np.sum(self.vstar ** 2)
                             + np.sum(self.v ** 2) + self.xplus ** 2
                             + self.xminus ** 2))


def _unit_components(n: int, mu: int) -> np.ndarray:
    """Components of the 1-based basis vector e_mu of R^n."""
    if not 1 <= mu <= n:
        raise DimensionMismatch(f"index {mu} is outside 1..{n}")
    return np.eye(n)[mu - 1]


def _check_sob(h: np.ndarray, b: np.ndarray) -> None:
    if np.max(np.abs(h @ b - b @ h)) > \
            threshold(CHECK_TOL, np.max(np.abs(h)) * np.max(np.abs(b))):
        raise NotInSoB("rotation block must commute with the symmetric map")


def _commutator(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """hk - kh without the entries at most PRUNE_EPS max |h| max |k|, the
    cut of a product, so a bracket that vanishes leaves no rounding."""
    out = h @ k - k @ h
    out[np.abs(out) <= PRUNE_EPS * np.max(np.abs(h)) * np.max(np.abs(k))] = 0
    return out


def cw_bracket(x: CWAlgebraElement, y: CWAlgebraElement,
               b: SymmetricMap) -> CWAlgebraElement:
    """Lie bracket on so_B(V) + V* + V + R+ + R-."""
    if x.n != y.n or x.n != b.n:
        raise DimensionMismatch("bracket arguments live in different dimensions")
    bm = b.entries
    for h in (x.h, y.h):
        if np.any(h):
            _check_sob(h, bm)
    h = _commutator(x.h, y.h)
    vstar = (x.xminus * y.v - y.xminus * x.v
             + x.h @ y.vstar - y.h @ x.vstar)
    v = (y.xminus * (bm @ x.vstar) - x.xminus * (bm @ y.vstar)
         + x.h @ y.v - y.h @ x.v)
    xplus = float(-(bm @ x.vstar) @ y.v + (bm @ y.vstar) @ x.v)
    return CWAlgebraElement(x.n, h, vstar, v, xplus, 0.0)


# -- block endomorphisms of the spinor module --------------------------------

@dataclass
class CWElement:
    """Block matrix [[p, q], [r, s]] over the Clifford algebra of V."""

    p: Multivector
    q: Multivector
    r: Multivector
    s: Multivector

    @property
    def dim(self) -> int:
        return self.p.dim

    @staticmethod
    def zero(n: int) -> "CWElement":
        z = Multivector.zero(n)
        return CWElement(z, z, z, z)

    @staticmethod
    def diagonal(x: Multivector) -> "CWElement":
        z = Multivector.zero(x.dim)
        return CWElement(x, z, z, x)

    def __add__(self, other: "CWElement") -> "CWElement":
        return CWElement(self.p + other.p, self.q + other.q,
                         self.r + other.r, self.s + other.s)

    def __sub__(self, other: "CWElement") -> "CWElement":
        return CWElement(self.p - other.p, self.q - other.q,
                         self.r - other.r, self.s - other.s)

    def __neg__(self) -> "CWElement":
        return CWElement(-self.p, -self.q, -self.r, -self.s)

    def __mul__(self, other):
        if isinstance(other, CWElement):
            return CWElement(
                gp(self.p, other.p) + gp(self.q, other.r),
                gp(self.p, other.q) + gp(self.q, other.s),
                gp(self.r, other.p) + gp(self.s, other.r),
                gp(self.r, other.q) + gp(self.s, other.s))
        return CWElement(self.p * other, self.q * other,
                         self.r * other, self.s * other)

    def __rmul__(self, scalar) -> "CWElement":
        return self.__mul__(scalar)

    def commutator(self, other: "CWElement") -> "CWElement":
        return self * other - other * self

    def norm(self) -> float:
        return float(_element_norms(np.array(
            [x.norm() for x in (self.p, self.q, self.r, self.s)]))[0])

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(x.is_zero(tol) for x in (self.p, self.q, self.r, self.s))


def _combine(n: int, terms) -> CWElement:
    """Sum of coeff * image over (coeff, image) pairs with coeff nonzero."""
    out = CWElement.zero(n)
    for coeff, img in terms:
        if coeff:
            out = out + img * complex(coeff)
    return out


def cw_to_matrix(x: CWElement, rep) -> np.ndarray:
    """Bridge to the dense representation of the big Clifford algebra."""
    from .gammarep import represent
    return np.block([[represent(x.p, rep), represent(x.q, rep)],
                     [represent(x.r, rep), represent(x.s, rep)]])


# -- Clifford maps -----------------------------------------------------------

@dataclass(frozen=True)
class CliffordMapParams:
    """A Clifford map's data, and the owner of its images, CW table and
    W x W curvature, built on first use; frozen, so none goes stale."""

    b_map: SymmetricMap
    a: Multivector
    b: Multivector
    c: Multivector
    d: Multivector
    e: Multivector

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e"):
            if getattr(self, name).dim != self.n:
                raise DimensionMismatch(f"parameter {name} has the wrong dimension")

    @property
    def n(self) -> int:
        return self.b_map.n

    def norm(self) -> float:
        """The homogeneous norm of the map's data, of degree two: B weighs
        as a square of a, b, c, d and e, as q_{c,d} = B does."""
        top = max(getattr(self, k).norm() for k in ("a", "b", "c", "d", "e"))
        return top ** 2 + float(np.max(np.abs(self.b_map.entries)))

    def threshold(self, tol: float, degree: float = 1) -> float:
        """verdict_threshold(tol, self.norm(), degree) for the map's
        verdicts, nonzero data refused where the norm underflows to 0."""
        return verdict_threshold(tol, self.norm(), degree, nonzero=not all(
            getattr(self, k).is_zero() for k in ("a", "b", "c", "d", "e"))
            or bool(np.any(self.b_map.entries)))

    @cached_property
    def images(self) -> tuple:
        """images[i] is the image of generators(n)[i]."""
        n, z = self.n, Multivector.zero(self.n)
        cbar, bbar = grade_involution(self.c), grade_involution(self.b)
        basis = [Multivector.basis_vector(n, mu) for mu in range(1, n + 1)]
        return (
            CWElement(cbar, SQRT2 * self.e, SQRT2 * bbar, self.d),
            CWElement(z, SQRT2 * self.a, z, z),
            *(CWElement(gp(gm, bbar), (-1.0 / SQRT2) * s_map(cbar, self.d, gm),
                        z, -gp(bbar, gm)) for gm in basis),
            *(CWElement(z, (1.0 / SQRT2) * Multivector.from_vector(n, col),
                        z, z) for col in self.b_map.entries.T))

    @cached_property
    def cw_table(self) -> "_CWTable":
        """The CW table of the map, read-only."""
        images = _element_rows(self.images)
        rhs, pi, pj = _chain_sums(images, _structure_constants(
            self.n, self.b_map.entries), self.n)
        at = np.full((len(self.images),) * 2, -1)
        at[pi, pj] = np.arange(len(pi))
        for x in (*images, *rhs, at):
            x.setflags(write=False)
        return _CWTable(images, rhs, at)

    @cached_property
    def ww_norms(self) -> np.ndarray:
        """The _defect_norms of the W x W pairs, read-only."""
        t = self.cw_table
        norms = _defect_norms(t.images, np.triu_indices(self.n + 2, 1),
                              t.rhs, t.at, self.n)
        norms.setflags(write=False)
        return norms


def generators(n: int) -> List[CWAlgebraElement]:
    """e-, e+, e_1..e_n, e*_1..e*_n: the order of CliffordMapParams.images."""
    return w_basis(n) + [CWAlgebraElement.basis_covector(n, mu)
                         for mu in range(1, n + 1)]


class CliffordMap:
    """A Clifford map x -> rho(x), read off its params, which own its
    images and CW table; rebinding params rebinds both."""

    __slots__ = ("params",)

    def __init__(self, params: CliffordMapParams):
        self.params = params

    @property
    def n(self) -> int:
        return self.params.n

    def h_image(self, h: np.ndarray) -> CWElement:
        _check_sob(h, self.params.b_map.entries)
        return CWElement.diagonal(skew_to_bivector(h, self.n))

    def __call__(self, x: CWAlgebraElement) -> CWElement:
        if x.n != self.n:
            raise DimensionMismatch("element dimension does not match the map")
        out = _combine(self.n, zip((x.xminus, x.xplus, *x.v, *x.vstar),
                                   self.params.images))
        if np.any(x.h):
            out = out + self.h_image(x.h)
        return out


def validate_simple_map(params: CliffordMapParams) -> Dict[str, float]:
    """Residuals of the compatibility conditions tying a to bar(b), rows
    24 and 24a of the flatness report, with no verdict: the caller compares
    them with its own threshold.

    The symmetrized sandwich of bar(b) between two generators must be
    g_{mu nu} a, a relabel by the parity rule (`_sandwich`); tracing gives
    a = (1/n) sum_mu e_mu bar(b) e_mu, with e_mu Gamma_J e_mu = -(-1)^|J|
    (n - 2|J|) Gamma_J summed.  Both vanish exactly when bar(b) is a scalar
    (odd n) or scalar plus volume element (even n) with the matching a.
    """
    n, a = params.n, params.a
    terms, res24 = _signed(grade_involution(params.b)), 0.0
    for x in range(n):
        for y in range(x, n):
            # (e_x bbar e_y + e_y bbar e_x) / 2, less a where x = y
            m = 1 << x | 1 << y if y > x else 0
            sym = Multivector(n, _sandwich(terms, 1 << x, m,
                                           1.0 if m else -1.0, {}))
            res24 = max(res24, (sym if m else sym - a).norm())
    trace = Multivector(n, {j: ((1 - 2 * odd) * (2 * j.bit_count() - n) / n)
                            * z for j, _, odd, z in terms})
    return {"24": res24, "24a": (a - trace).norm()}


def curvature(rho: CliffordMap, x: CWAlgebraElement,
              y: CWAlgebraElement) -> CWElement:
    """[rho(x), rho(y)] - rho([x, y]); zero on all pairs means flat."""
    bracket = cw_bracket(x, y, rho.params.b_map)
    return rho(x).commutator(rho(y)) - rho(bracket)


def w_basis(n: int) -> List[CWAlgebraElement]:
    return ([CWAlgebraElement.e_minus(n), CWAlgebraElement.e_plus(n)]
            + [CWAlgebraElement.basis_vector(n, mu) for mu in range(1, n + 1)])


# the two factors of each output block p, q, r, s of a CWElement product,
# blocks numbered 0-3 in that order
_LEFT = np.array([0, 1, 0, 1, 2, 3, 2, 3])
_RIGHT = np.array([0, 2, 1, 3, 0, 2, 1, 3])


def _element_rows(elements: Sequence[CWElement]) -> _Rows:
    """The row table of CWElements: element k is rows 4k..4k+3, p q r s."""
    return _rows_of([x for e in elements for x in (e.p, e.q, e.r, e.s)])


def _rotation_rows(h: np.ndarray, n: int) -> _Rows:
    """_element_rows of CWElement.diagonal(skew_to_bivector(h_t, n)) over
    the stack h, (t, n, n), in one step: blocks p and s hold -h_t[mu, nu] / 2
    on e_mu e_nu for mu < nu, cut as raw terms, and q and r are empty."""
    mu, nu = np.triu_indices(n, 1)
    count = np.tile([len(mu), 0, 0, len(mu)], len(h))
    row = np.arange(len(count)).repeat(count)
    re = (-0.5 * h[:, mu, nu]).repeat(2, axis=0).ravel()
    return _cut_rows(np.concatenate(([0], count.cumsum())), row, np.tile(
        (1 << mu) | (1 << nu), 2 * len(h)), re, np.zeros_like(re), 0.0,
        own=True)


def _blocks(k: np.ndarray) -> np.ndarray:
    """The rows of the elements k; element -1 gives the empty row -1."""
    return np.where(k[:, None] < 0, -1, 4 * k[:, None] + np.arange(4)).ravel()


def _block_mul(x: _Rows, ix: np.ndarray, y: _Rows, iy: np.ndarray,
               n: int) -> _Rows:
    """Element k is x[ix[k]] * y[iy[k]], as CWElement.__mul__ forms it;
    for ix and iy of shape (k, s), row (k, block, s) is that block of
    x[ix[k, s]] * y[iy[k, s]].  Every block is the sum of its two gp rows,
    formed empty or not."""
    shape = (len(ix), 1, -1, 1)         # (k, block, s, half)
    left = (4 * ix.reshape(shape) + _LEFT.reshape(4, 1, 2)).ravel()
    right = (4 * iy.reshape(shape) + _RIGHT.reshape(4, 1, 2)).ravel()
    return _rows_fold(_rows_gp(x, left, y, right, n), 1.0, n)


@np.errstate(over="ignore")     # an infinite norm is a result, as in norm()
def _element_norms(block_norms: np.ndarray) -> np.ndarray:
    """The norm of every element from the norms of its blocks p, q, r, s,
    four a row: the squares as ** forms them, summed in order.  A nonzero
    row whose sum is below the smallest normal double is summed scaled by
    its largest block norm, as Multivector.norm sums it.  Raises
    OverflowError where ** does, on the square of a finite norm."""
    norms = block_norms.reshape(-1, 4)
    sq = np.float_power(norms, 2)
    if ((sq == inf) & (norms < inf)).any():
        raise OverflowError("a squared norm is not finite")
    total = ((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3]
    top = norms.max(axis=1)
    low = (total < _DBL_MIN) & (top > 0)
    if not low.any():
        return np.sqrt(total)
    sq = np.float_power(norms[low] / top[low, None], 2)
    total[low] = ((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3]
    out = np.sqrt(total)
    out[low] *= top[low]
    return out


def _chains(parts):
    """The chains (i, j, k, f) of the parts (i, j, k, f): i, j and k
    broadcast to the shape of f, all flattened, where f is nonzero."""
    i, j, k, f = (np.concatenate(x) for x in zip(*(
        [(np.zeros(f.shape, np.intp) + x).ravel() for x in p[:3]]
        + [f.ravel()] for *p, f in parts)))
    keep = f != 0
    return tuple(x[keep] for x in (i, j, k, f))


def _structure_constants(n: int, bm: np.ndarray):
    """The nonzero brackets [x_i, x_j], i < j, over the generators x of
    generators(n) as chains (i, j, k, f), each pair's a run with k
    ascending: rho([x_i, x_j]) sums f images[k] over the chain of (i, j),
    in the order and with the coefficients of rho(cw_bracket(x_i, x_j, B)).

    The structure constants are [e-, e_mu] = e*_mu, [e-, e*_mu] = -B e_mu
    and [e_mu, e*_nu] = B_{mu nu} e+; e+ is central and all other pairs
    commute.
    """
    vec, cov, mu = 2, n + 2, np.arange(n)   # first index of each kind
    return _chains([(0, vec + mu, cov + mu, np.ones(n)),
                    (0, cov + mu[:, None], vec + mu, -bm.T),
                    (vec + mu[:, None], cov + mu, 1, bm)])


def _rotation_constants(n: int, rotations: np.ndarray):
    """The chains, as _structure_constants gives them, of the nonzero
    brackets of a vector or covector with a rotation over generators(n) +
    rotations, (r, n, n): [e_mu, h] = -h e_mu and [e*_mu, h] = -h e*_mu."""
    vec, cov, rot = 2, n + 2, 2 * n + 2     # first index of each kind
    mu, r = np.arange(n), np.arange(len(rotations))
    hk = -rotations.transpose(2, 0, 1)     # [mu, r, k] = -h_r[k, mu]
    return _chains([(vec + mu[:, None, None], rot + r[:, None], vec + mu, hk),
                    (cov + mu[:, None, None], rot + r[:, None], cov + mu, hk)])


def _chain_sums(sources: _Rows, chains, n: int):
    """The elements _combine sums from the chains over the elements of
    sources, one per pair (pi, pj) of the chains, and those pairs."""
    i, j, k, f = chains
    new = np.ones(len(i), bool)
    new[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
    start = new.nonzero()[0]
    pair = new.cumsum() - 1
    step = np.arange(len(i)) - start[pair]
    # the first sum is 0 + f image, cut as f image is
    out = _rows_scaled(sources, _blocks(k[start]), f[start].repeat(4))
    rows = np.arange(4 * len(start))
    for s in range(1, int(step.max(initial=0)) + 1):
        at = step == s
        term = np.full(len(start), -1)
        term[pair[at]] = np.arange(at.sum())
        out = _rows_sum(out, rows, _rows_scaled(
            sources, _blocks(k[at]), f[at].repeat(4)), _blocks(term), 1.0, n)
    return out, i[start], j[start]


class _CWTable(NamedTuple):
    """The image rows of generators(n), the rho-sums of their nonzero
    brackets and the pair table: the sum of [x_i, x_j] is element at[i, j]
    of rhs, -1 where the bracket is zero."""
    images: _Rows
    rhs: _Rows
    at: np.ndarray


def _defect_norms(gens: _Rows, pairs, rhs: _Rows, at: np.ndarray,
                  n: int) -> np.ndarray:
    """The norms of the blocks p, q, r, s of [X_i, X_j] - R_ij, one row
    for each pair (i, j) of pairs, X_i element i of gens and R_ij element
    at[i, j] of rhs, the empty row -1 where at[i, j] < 0: rho(0) = 0, which
    curvature subtracts too.

    Every pair is one array pass, a block of pairs at a time, each block
    about _GP_BLOCK term products and product rows, the bound _rows_gp
    applies to the same products: the 16 products of X_i X_j and X_j X_i
    as rows (pair, block, side, half), folded into the blocks of each side
    and then into their difference, then R_ij and the block norms, each
    bit for bit as the CWElement arithmetic forms it.
    """
    i, j = pairs
    count = (gens.ptr[1:] - gens.ptr[:-1]).reshape(-1, 4)
    # a pair's share: its term products and its 16 product rows, every
    # one formed, empty or not
    cost = count[:, _LEFT] @ count[:, _RIGHT].T + 8
    blocks = (cost[i, j] + cost[j, i]).cumsum() // _GP_BLOCK
    norms = []
    for part in np.split(np.arange(len(i)), np.diff(blocks).nonzero()[0] + 1):
        x, y = i[part], j[part]
        defect = _rows_fold(_block_mul(gens, np.stack((x, y), 1), gens,
                                       np.stack((y, x), 1), n), -1.0, n)
        defect = _rows_sum(defect, np.arange(4 * len(part)), rhs,
                           _blocks(at[x, y]), -1.0, n)
        norms.append(_rows_norm(defect).reshape(-1, 4))
    return np.concatenate(norms)


def curvature_sweep(rho: CliffordMap, extended: bool = False) -> float:
    """Max curvature norm over W x W basis pairs (optionally all generators).

    The extended sweep adds the pairs with a V* generator and those of a W
    or V* generator with a rotation h of sob_basis(), whose image is
    diag(h~, h~), h~ the bivector of h.  It skips the rotation x rotation
    pairs: h -> h~ is the spin lift of so(n), a Lie algebra homomorphism,
    so [rho(h), rho(h')] - rho([h, h']) holds none of a..e and B and
    vanishes for every map."""
    n, params = rho.n, rho.params
    if not extended:
        return float(_element_norms(params.ww_norms).max(initial=0.0))
    t = params.cw_table
    rotations = np.array(params.b_map.sob_basis(),
                         dtype=float).reshape(-1, n, n)
    # the sweep's own rotations span so_B(V) for eigenvalues clustered to
    # CLUSTER_TOL, so they can miss h_image's check of a caller's rotation
    images = _rows_cat(t.images, _rotation_rows(rotations, n))
    # the pairs with a rotation; the table holds the others
    rhs, pi, pj = _chain_sums(images, _rotation_constants(n, rotations), n)
    at = np.pad(t.at, (0, len(rotations)), constant_values=-1)
    at[pi, pj] = len(t.rhs.top) // 4 + np.arange(len(pi))
    i, j = np.triu_indices(len(at), 1)
    # ww_norms holds the W x W pairs; no rotation x rotation pair
    new = (j >= n + 2) & (i < 2 * n + 2)
    norms = _defect_norms(images, (i[new], j[new]), _rows_cat(t.rhs, rhs),
                          at, n)
    return max(float(_element_norms(norms).max(initial=0.0)),
               curvature_sweep(rho))


def flatness_report(params: CliffordMapParams) -> Dict[str, float]:
    """Per-equation max residuals of the flatness obstructions.

    Rows 23, 25, 26 and 27 are read off the norms of the curvature blocks
    [[p, q], [r, s]] on the W x W pairs, as curvature_sweep forms them:

        pair            blocks                         rows
        (e-, e+)        p = -2 a bbar, s = 2 bbar a,    23-1 = |q|/sqrt2
                        q = sqrt2 (bar c a - a d)       23-2 = max(|p|, |s|)/2
        (e_mu, e_nu)    p = 2 A bbar, s = 2 bbar A,     25-1 = max(|p|, |s|)/2
                        q = -sqrt2 M                    25-2 = |q|/sqrt2
        (e-, e_mu)      p = 2 bar c e_mu bbar - e_mu m, 26-1 = max(|p|, |s|)
                        s = 2 bbar e_mu d - m e_mu,     26-2 = |r|/(2 sqrt2)
                        r = 2 sqrt2 bbar e_mu bbar,     27 = sqrt2 |q|
                        |q| = |q_{bar c, d}(e_mu) + B e_mu
                               + 2 (e bbar e_mu + e_mu bbar e)|/sqrt2

    with mu < nu, m = bbar bar c + d bbar, s_mu = s_{bar c, d}(e_mu),
    A = (e_mu bbar e_nu - e_nu bbar e_mu)/2 and M = (e_mu bbar s_nu
    - e_nu bbar s_mu - s_mu bbar e_nu + s_nu bbar e_mu)/2; each row is the
    max over its pairs, 0.0 over none (n = 1 has no (e_mu, e_nu)).  Rows
    24/24a are the Clifford-map compatibility conditions of
    validate_simple_map: the (V*, V) blocks are -sqrt2 sum_l B_lk times
    the row-24 terms, which a singular B does not give back.
    """
    p, q, r, s = params.ww_norms.T
    i, j = np.triu_indices(params.n + 2, 1)
    ps = np.maximum(p, s)
    vv, ev = i >= 2, (i == 0) & (j >= 2)     # (e_mu, e_nu), (e-, e_mu)
    val = validate_simple_map(params)
    return {"23-1": float(q[0] / SQRT2), "23-2": float(ps[0] / 2),
            "24": float(val["24"]), "24a": float(val["24a"]),
            "25-1": float(ps[vv].max(initial=0.0) / 2),
            "25-2": float(q[vv].max(initial=0.0) / SQRT2),
            "26-1": float(ps[ev].max()),
            "26-2": float(r[ev].max() / (2 * SQRT2)),
            "27": float(SQRT2 * q[ev].max())}


# -- the two flat families ---------------------------------------------------

def build_flat_rep_alphazero(c: Multivector, d: Multivector, e: Multivector,
                             b: SymmetricMap) -> CliffordMap:
    """Flat map with trivial center action: (bar c, d) must represent -B."""
    pair = extract_B(grade_involution(c), d)
    if not pair.verified or np.max(np.abs(pair.B.entries + b.entries)) > \
            threshold(CHECK_TOL, np.max(np.abs(b.entries))):
        raise PairNotAssociatedToMinusB(
            "the pair (bar c, d) must be verified and represent -B")
    n = c.dim
    zero = Multivector.zero(n)
    return CliffordMap(CliffordMapParams(b, zero, zero, c, d, e))


def half_spinor_projector(n: int, sign: int) -> Multivector:
    """(1 + sign*volume)/2 on the Clifford module of V (n even)."""
    if n % 2:
        raise OddDimension("half-spinor projectors need an even dimension")
    return 0.5 * Multivector.unit(n) + (0.5 * sign) * volume_element(n)


def build_flat_rep_alphanotzero(alpha: complex, beta: complex, rho0: complex,
                                lam: float, e_pp: Multivector,
                                c_offdiag: Multivector, d_offdiag: Multivector,
                                e_offdiag: Multivector,
                                sign: int = 1) -> CliffordMap:
    """Flat map with nontrivial center action; forces B = -2 lam * identity.

    The off-diagonal half-spinor blocks of c, d, e must satisfy the linear
    relation tying them together; everything is assembled through the
    general Clifford-map form, so flatness follows from the block identities.
    """
    n = e_pp.dim
    if n % 2:
        raise OddDimension("a nonzero center action needs an even dimension")
    if sign not in (1, -1):
        raise InputError("sign selects the half-spinor branch, +1 or -1")
    pi_a = half_spinor_projector(n, sign)
    pi_b = half_spinor_projector(n, -sign)
    kappa = complex(np.sqrt(complex(2.0 * (alpha * beta + lam))))

    cblk = gp(pi_a, gp(c_offdiag, pi_b))
    dblk = gp(pi_b, gp(d_offdiag, pi_a))
    e_up = gp(pi_a, gp(e_offdiag, pi_b))
    e_dn = gp(pi_b, gp(e_offdiag, pi_a))
    epp = gp(pi_a, gp(e_pp, pi_a))

    worst = 0.0
    for mu in range(1, n + 1):
        gm = Multivector.basis_vector(n, mu)
        res = kappa * (gp(cblk, gm) - gp(gm, dblk)) \
            + 2 * alpha * (gp(e_up, gm) + gp(gm, e_dn))
        worst = max(worst, res.norm())
    if worst > threshold(CHECK_TOL, abs(alpha) ** 2 + abs(kappa) ** 2 + max(
            x.norm() for x in (cblk, dblk, e_up, e_dn)) ** 2):
        raise ConstraintViolated(
            f"off-diagonal blocks violate the linear relation by {worst:.3e}")

    unit = Multivector.unit(n)
    a = alpha * pi_a
    b = -alpha * pi_b
    cbar_full = rho0 * unit - kappa * pi_b + cblk
    c_full = grade_involution(cbar_full)
    d_full = rho0 * unit + kappa * pi_b + dblk
    e_full = beta * pi_b + e_up + e_dn + epp
    b_map = SymmetricMap.from_matrix(-2.0 * lam * np.eye(n))
    return CliffordMap(CliffordMapParams(b_map, a, b, c_full, d_full, e_full))


# -- restrictions of the spinor module ---------------------------------------

def check_restriction(rho: CliffordMap, proj: CWElement,
                      tol: float = CHECK_TOL) -> Dict[str, object]:
    """Invariance and compressed-representation tests for a projector.

    invariant: rho(x) maps the range of the projector into itself for every
    generator.  representation: the compressed maps P rho(.) P form a
    representation of the Lie algebra on the range, i.e.
    [P rho(x) P, P rho(y) P] = P rho([x, y]) P for all generator pairs.
    Both residuals meet threshold(tol, the norm of the map's data).
    Raises InputError on a nonzero map whose threshold underflows.
    """
    if proj.dim != rho.n:
        raise DimensionMismatch("projector and map differ in dimension")
    cut = rho.params.threshold(tol)
    n, m, t = rho.n, 2 * rho.n + 2, rho.params.cw_table
    table = _rows_cat(_element_rows([proj]), t.images, t.rhs)  # P, X_k, R_t
    inner = np.arange(1, m + len(t.rhs.top) // 4 + 1)
    once = np.zeros(len(inner), np.intp)
    # P X_k, P R_t, X_k P and P P, then P X_k P and P R_t P
    first = _block_mul(table, np.concatenate((once, inner[:m], [0])), table,
                       np.concatenate((inner, once[:m], [0])), n)
    rows = np.arange(4 * m)
    idem = _rows_sum(first, 4 * (len(inner) + m) + rows[:4], table, rows[:4],
                     -1.0, n)                          # P P - P
    if _element_norms(_rows_norm(idem))[0] > threshold(tol, proj.norm() ** 2):
        raise NotAProjector("the supplied block matrix is not idempotent")
    second = _block_mul(first, inner - 1, table, once, n)
    inv_res = float(_element_norms(_rows_norm(_rows_sum(
        first, rows + 4 * len(inner), second, rows, -1.0, n))).max())
    rep_res = float(_element_norms(_defect_norms(
        second, np.triu_indices(m, 1), second,
        np.where(t.at < 0, -1, t.at + m), n)).max(initial=0.0))
    return {"invariant": inv_res <= cut,
            "representation": rep_res <= cut,
            "invariance_residual": inv_res,
            "representation_residual": rep_res, "threshold": cut}


def x_projector_element(n: int, mask_i: int, mask_j: int,
                        sign: int = 1) -> Multivector:
    """Projector (1 +- i_IJ Gamma_I Gamma_J)/2 on the Clifford module of V."""
    if mask_i & mask_j:
        raise InputError("the two index sets must be disjoint")
    gij = Multivector.blade(n, *blade_mul(mask_i, mask_j))   # Gamma_I Gamma_J
    unit_factor = 1.0 if blade_square_sign(mask_i ^ mask_j) > 0 else 1j
    return 0.5 * Multivector.unit(n) + (0.5 * sign * unit_factor) * gij


# the blocks p and s of the named projectors: "1" the unit, "0" zero, and
# "+" or "-" the half-spinor projector (1 +- volume)/2
_CATALOG = {"sigma-": "10", "sigma+": "01", "sv+s-": "1-", "sv+s+": "1+",
            "s-w": "+-", "s+w": "-+", "sigma-pi+": "+0", "sigma-pi-": "-0",
            "sigma+pi+": "0+", "sigma+pi-": "0-"}


def catalog_projector(name: str, n: int) -> CWElement:
    """Named restriction projectors for the CLI and tests.

    sigma-/sigma+ cut out the two halves of the two-dimensional factor;
    sv+s-/sv+s+ keep the full first half plus one chirality of the second
    (n even); s-w/s+w are the half-spinor modules of the big algebra; and
    x+:<I>;<J> / x-:<I>;<J> build the non-canonical kernel projectors from
    two disjoint index sets (e.g. "x+:1,2;3").
    """
    z = Multivector.zero(n)
    if name in _CATALOG:
        if n % 2 and _CATALOG[name].strip("01"):
            raise InputError(f"projector {name!r} needs an even dimension")
        p, s = (Multivector.unit(n) if b == "1" else z if b == "0" else
                half_spinor_projector(n, int(b + "1")) for b in _CATALOG[name])
        return CWElement(p, z, z, s)
    if name.startswith("x+:") or name.startswith("x-:"):
        sign = 1 if name[1] == "+" else -1
        try:
            mask_i, mask_j = (
                blade_from_indices(int(t) for t in part.split(",") if t)
                for part in name[3:].split(";"))
        except ValueError as exc:
            raise InputError(f"cannot parse X projector spec {name!r}") from exc
        x = x_projector_element(n, mask_i, mask_j, sign)
        return CWElement(Multivector.unit(n), z, z, x)
    raise InputError(f"unknown projector name {name!r}")
