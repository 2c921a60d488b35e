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
from typing import Dict, List, Sequence

import numpy as np

from .core import (CHECK_TOL, PRUNE_EPS, Multivector, _Rows, _rows_cat,
                   _rows_gp, _rows_norm_squared, _rows_of, _rows_scaled,
                   _rows_sum, blade_from_indices, gp, grade_involution,
                   threshold, volume_element)
from .errors import (ConstraintViolated, DimensionMismatch, InputError,
                     NotAProjector, NotInSoB, OddDimension,
                     PairNotAssociatedToMinusB)
from .qpair import (SymmetricMap, extract_B, q_map, s_map,
                    skew_to_bivector)

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
    def identity(n: int) -> "CWElement":
        one = Multivector.unit(n)
        z = Multivector.zero(n)
        return CWElement(one, z, z, one)

    @staticmethod
    def diagonal(x: Multivector) -> "CWElement":
        z = Multivector.zero(x.dim)
        return CWElement(x, z, z, x)

    @staticmethod
    def from_graded(r2: np.ndarray, a: Multivector) -> "CWElement":
        """Embedding of the graded tensor r (x) a; the parity twist puts
        bar(a) in the first column."""
        ab = grade_involution(a)
        return CWElement(r2[0, 0] * ab, r2[0, 1] * a,
                         r2[1, 0] * ab, r2[1, 1] * a)

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
                _block(self.p, other.p, self.q, other.r),
                _block(self.p, other.q, self.q, other.s),
                _block(self.r, other.p, self.s, other.r),
                _block(self.r, other.q, self.s, other.s))
        return CWElement(self.p * other, self.q * other,
                         self.r * other, self.s * other)

    def __rmul__(self, scalar) -> "CWElement":
        return self.__mul__(scalar)

    def commutator(self, other: "CWElement") -> "CWElement":
        return self * other - other * self

    def norm(self) -> float:
        return float(np.sqrt(self.p.norm() ** 2 + self.q.norm() ** 2
                             + self.r.norm() ** 2 + self.s.norm() ** 2))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(x.is_zero(tol) for x in (self.p, self.q, self.r, self.s))


def _block(a: Multivector, b: Multivector, c: Multivector,
           d: Multivector) -> Multivector:
    """a b + c d, calling gp only on products whose factors both have terms."""
    ab = not (a.is_zero() or b.is_zero())
    cd = not (c.is_zero() or d.is_zero())
    if ab and cd:
        return gp(a, b) + gp(c, d)
    if ab:
        return gp(a, b)
    if cd:
        return gp(c, d)
    return Multivector.zero(a.dim)


def _combine(n: int, terms) -> CWElement:
    """Sum of coeff * image over (coeff, image) pairs with coeff nonzero."""
    out = CWElement.zero(n)
    for coeff, img in terms:
        if coeff:
            out = out + img * complex(coeff)
    return out


_GAMMA_PLUS = np.array([[0.0, SQRT2], [0.0, 0.0]])
_GAMMA_MINUS = np.array([[0.0, 0.0], [-SQRT2, 0.0]])
_ID2 = np.eye(2)


def clw_generator_eplus(n: int) -> CWElement:
    return CWElement.from_graded(_GAMMA_PLUS, Multivector.unit(n))


def clw_generator_eminus(n: int) -> CWElement:
    return CWElement.from_graded(_GAMMA_MINUS, Multivector.unit(n))


def clw_generator_vector(n: int, mu: int) -> CWElement:
    return CWElement.from_graded(_ID2, Multivector.basis_vector(n, mu))


def cw_to_matrix(x: CWElement, rep) -> np.ndarray:
    """Bridge to the dense representation of the big Clifford algebra."""
    from .gammarep import represent
    return np.block([[represent(x.p, rep), represent(x.q, rep)],
                     [represent(x.r, rep), represent(x.s, rep)]])


# -- Clifford maps -----------------------------------------------------------

@dataclass
class CliffordMapParams:
    b_map: SymmetricMap
    a: Multivector
    b: Multivector
    c: Multivector
    d: Multivector
    e: Multivector

    @property
    def n(self) -> int:
        return self.b_map.n

    def norm(self) -> float:
        """The homogeneous norm of the map's data, of degree two: B weighs
        as a square of a, b, c, d and e, as q_{c,d} = B does."""
        top = max(getattr(self, k).norm() for k in ("a", "b", "c", "d", "e"))
        return top ** 2 + float(np.max(np.abs(self.b_map.entries)))


def generators(n: int) -> List[CWAlgebraElement]:
    """e-, e+, e_1..e_n, e*_1..e*_n: the order of CliffordMap.images."""
    return w_basis(n) + [CWAlgebraElement.basis_covector(n, mu)
                         for mu in range(1, n + 1)]


class CliffordMap:
    """A Clifford map as a finite table of images of basis elements.

    ``images[i]`` is the image of ``generators(n)[i]``.
    """

    def __init__(self, params: CliffordMapParams):
        n = params.n
        for name in ("a", "b", "c", "d", "e"):
            if getattr(params, name).dim != n:
                raise DimensionMismatch(f"parameter {name} has the wrong dimension")
        self.params = params
        self.n = n
        z = Multivector.zero(n)
        cbar = grade_involution(params.c)
        bbar = grade_involution(params.b)
        basis = [Multivector.basis_vector(n, mu) for mu in range(1, n + 1)]
        bm = params.b_map.entries
        self.images = (
            [CWElement(cbar, SQRT2 * params.e, SQRT2 * bbar, params.d),
             CWElement(z, SQRT2 * params.a, z, z)]
            + [CWElement(gp(gm, bbar),
                         (-1.0 / SQRT2) * s_map(cbar, params.d, gm),
                         z, -gp(bbar, gm)) for gm in basis]
            + [CWElement(z, (1.0 / SQRT2) * Multivector.from_vector(n, bm[:, k]),
                         z, z) for k in range(n)])

    def h_image(self, h: np.ndarray) -> CWElement:
        _check_sob(h, self.params.b_map.entries)
        return CWElement.diagonal(skew_to_bivector(h, self.n))

    def __call__(self, x: CWAlgebraElement) -> CWElement:
        if x.n != self.n:
            raise DimensionMismatch("element dimension does not match the map")
        out = _combine(self.n, zip((x.xminus, x.xplus, *x.v, *x.vstar),
                                   self.images))
        if np.any(x.h):
            out = out + self.h_image(x.h)
        return out


def validate_simple_map(params: CliffordMapParams) -> Dict[str, object]:
    """Residuals of the compatibility conditions tying a to bar(b).

    The symmetrized sandwich of bar(b) between two generators must be
    g_{mu nu} a; tracing gives a = (1/n) sum Gamma^mu bar(b) Gamma_mu.
    Both vanish exactly when bar(b) is a scalar (odd n) or scalar plus
    volume element (even n) with the matching a.
    """
    n = params.n
    a, bbar = params.a, grade_involution(params.b)
    gens = [Multivector.basis_vector(n, mu) for mu in range(1, n + 1)]
    bg = [gp(bbar, g) for g in gens]      # bar(b) e_mu, once per index
    res24 = 0.0
    for mu in range(n):
        for nu in range(mu, n):
            sym = 0.5 * (gp(gens[mu], bg[nu]) + gp(gens[nu], bg[mu]))
            if mu == nu:
                sym = sym - a
            res24 = max(res24, sym.norm())
    acc = Multivector.zero(n)
    for mu in range(n):
        acc = acc + gp(gens[mu], bg[mu])
    res24a = (a - (1.0 / n) * acc).norm()
    cut = threshold(CHECK_TOL, a.norm() + bbar.norm())
    return {"24": res24, "24a": res24a,
            "passes": res24 <= cut and res24a <= cut}


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

# term products and product rows formed at once by the bracket-defect pass
_DEFECT_BLOCK = 1 << 12


def _element_rows(elements: Sequence[CWElement]) -> _Rows:
    """The row table of CWElements: element k is rows 4k..4k+3, p q r s."""
    return _rows_of([x for e in elements for x in (e.p, e.q, e.r, e.s)])


def _blocks(k: np.ndarray) -> np.ndarray:
    """The rows of the elements k; element -1 gives the empty row -1."""
    return np.where(k[:, None] < 0, -1, 4 * k[:, None] + np.arange(4)).ravel()


def _block_mul(x: _Rows, ix: np.ndarray, y: _Rows, iy: np.ndarray,
               n: int) -> _Rows:
    """Element k is x[ix[k]] * y[iy[k]], as CWElement.__mul__ forms it."""
    left = (4 * ix[:, None] + _LEFT).ravel()
    right = (4 * iy[:, None] + _RIGHT).ravel()
    full = (x.ptr[left + 1] > x.ptr[left]) & (y.ptr[right + 1] > y.ptr[right])
    # gp only where both factors have terms, as _block calls it
    at = np.where(full, full.cumsum() - 1, -1)
    prods = _rows_gp(x, left[full], y, right[full], n)
    return _rows_sum(prods, at[::2], prods, at[1::2], 1.0,
                     full[::2] & full[1::2], n)


@np.errstate(over="ignore")     # an infinite norm is a result, as in norm()
def _element_norms(x: _Rows) -> np.ndarray:
    """CWElement.norm of every element, bit for bit."""
    sq = _rows_norm_squared(x).reshape(-1, 4)
    return np.sqrt(((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3])


def _structure_constants(n: int, bm: np.ndarray, rotations: np.ndarray,
                         size: int):
    """The nonzero brackets [x_i, x_j], i < j < size, over the generators x
    of generators(n) + rotations, (r, n, n), and the nonzero [h, h'].

    The structure constants on these generators are [e-, e_mu] = e*_mu,
    [e-, e*_mu] = -B e_mu, [e_mu, e*_nu] = B_{mu nu} e+, [e_mu, h] = -h e_mu,
    [e*_mu, h] = -h e*_mu and [h, h'] = hh' - h'h; e+ is central and all
    other pairs commute.  Returns the chains (i, j, k, f), each pair's a
    run with k ascending, and the commutators, (c, n, n).  rho([x_i, x_j])
    sums f images[k] over the chain of (i, j), in the order and with the
    coefficients of rho(cw_bracket(x_i, x_j, B)), where images holds the
    images of generators(n) + rotations + commutators.
    """
    vec, cov, rot = 2, n + 2, 2 * n + 2    # first index of each kind
    mu, r = np.arange(n), np.arange(len(rotations))
    hk = -rotations.transpose(2, 0, 1)     # [mu, r, k] = -h_r[k, mu]
    # the nonzero [h_r, h_s], r < s, cut as _commutator cuts them
    top = np.abs(rotations).max(axis=(1, 2))
    pairs, comm = [np.zeros((2, 0), np.intp)], [np.zeros((0, n, n))]
    for t, h in enumerate(rotations):
        c = h @ rotations[t + 1:] - rotations[t + 1:] @ h
        c[np.abs(c) <= (PRUNE_EPS * top[t] * top[t + 1:])[:, None, None]] = 0
        s = c.any(axis=(1, 2)).nonzero()[0]
        pairs.append(np.stack((np.full(len(s), t), t + 1 + s)))
        comm.append(c[s])
    (rr, ss), comm = np.concatenate(pairs, axis=1), np.concatenate(comm)
    parts = [(0, vec + mu, cov + mu, np.ones(n)),
             (0, cov + mu[:, None], vec + mu, -bm.T),
             (vec + mu[:, None], cov + mu, 1, bm),
             (vec + mu[:, None, None], rot + r[:, None], vec + mu, hk),
             (cov + mu[:, None, None], rot + r[:, None], cov + mu, hk),
             (rot + rr, rot + ss, rot + len(r) + np.arange(len(rr)),
              np.ones(len(rr)))]
    # (i, j, k) broadcast to the shape of f, all flattened
    i, j, k, f = (np.concatenate(x) for x in zip(*(
        [(np.zeros(f.shape, np.intp) + x).ravel() for x in p[:3]]
        + [f.ravel()] for *p, f in parts)))
    keep = (f != 0) & (j < size)
    return tuple(x[keep] for x in (i, j, k, f)), comm


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
            sources, _blocks(k[at]), f[at].repeat(4)), _blocks(term), 1.0,
            True, n)
    return out, i[start], j[start]


def _pair_table(size: int, pi: np.ndarray, pj: np.ndarray,
                offset: int) -> np.ndarray:
    """The element of pair (i, j), offset + t for the pair (pi[t], pj[t]),
    as a (size, size) table, -1 elsewhere."""
    at = np.full((size, size), -1)
    at[pi, pj] = offset + np.arange(len(pi))
    return at


def _bracket_defect(gens: _Rows, size: int, rhs: _Rows, at: np.ndarray,
                    n: int) -> float:
    """max |[X_i, X_j] - R_ij| over i < j < size, X_i element i of gens and
    R_ij element at[i, j] of rhs, zero where at[i, j] < 0.

    Every pair is one array pass, a block of pairs at a time: the products
    X_i X_j and X_j X_i, their difference, then R_ij and the norm, each bit
    for bit as the CWElement arithmetic forms it.
    """
    i, j = np.triu_indices(size, 1)
    count = (gens.ptr[1:] - gens.ptr[:-1]).reshape(-1, 4)
    # a pair's share: its term products and its 16 products' rows
    cost = count[:, _LEFT] @ count[:, _RIGHT].T + 8
    blocks = (cost[i, j] + cost[j, i]).cumsum() // _DEFECT_BLOCK
    worst = 0.0
    for part in np.split(np.arange(len(i)), np.diff(blocks).nonzero()[0] + 1):
        x, y = i[part], j[part]
        prods = _block_mul(gens, np.concatenate((x, y)), gens,
                           np.concatenate((y, x)), n)
        rows = np.arange(4 * len(part))
        defect = _rows_sum(prods, rows, prods, rows + len(rows), -1.0, True,
                           n)
        image = at[x, y]
        if (image >= 0).any():
            defect = _rows_sum(defect, rows, rhs, _blocks(image), -1.0, True,
                               n)
        worst = max(worst, float(_element_norms(defect).max()))
    return worst


def curvature_sweep(rho: CliffordMap, extended: bool = False) -> float:
    """Max curvature norm over W x W basis pairs (optionally all generators)."""
    n = rho.n
    rotations = np.array(rho.params.b_map.sob_basis() if extended else [],
                         dtype=float).reshape(-1, n, n)
    size = len(rho.images) + len(rotations) if extended else n + 2
    chains, commutators = _structure_constants(
        n, rho.params.b_map.entries, rotations, size)
    images = _element_rows(rho.images + [
        rho.h_image(h) for h in (*rotations, *commutators)])
    rhs, pi, pj = _chain_sums(images, chains, n)
    return _bracket_defect(images, size, rhs, _pair_table(size, pi, pj, 0),
                           n)


def flatness_report(params: CliffordMapParams) -> Dict[str, float]:
    """Per-equation max residuals of the flatness obstructions.

    Rows 23-1/23-2 correspond to the (e-, e+) curvature blocks, 25-* to
    (V, V), 26-* and 27 to (e-, V); rows 24/24a are the Clifford-map
    compatibility conditions (the (V*, V) part of the sweep).
    """
    n = params.n
    a = params.a
    bbar = grade_involution(params.b)
    cbar = grade_involution(params.c)
    d, e = params.d, params.e

    gens = [Multivector.basis_vector(n, mu) for mu in range(1, n + 1)]
    s = [s_map(cbar, d, g) for g in gens]
    rows: Dict[str, float] = {}
    rows["23-1"] = (gp(cbar, a) - gp(a, d)).norm()
    rows["23-2"] = max(gp(a, bbar).norm(), gp(bbar, a).norm())
    val = validate_simple_map(params)
    rows["24"] = float(val["24"])
    rows["24a"] = float(val["24a"])
    # bbar e_mu and bbar s(e_mu), formed once per index
    bg = [gp(bbar, g) for g in gens]
    bs = [gp(bbar, x) for x in s]
    r251 = r252 = 0.0
    for mu in range(n):
        for nu in range(mu + 1, n):
            gm, gn = gens[mu], gens[nu]
            anti = 0.5 * (gp(gm, bg[nu]) - gp(gn, bg[mu]))
            r251 = max(r251, gp(bbar, anti).norm(), gp(anti, bbar).norm())
            mix = 0.5 * (gp(gm, bs[nu]) - gp(gn, bs[mu])
                         - gp(s[mu], bg[nu]) + gp(s[nu], bg[mu]))
            r252 = max(r252, mix.norm())
    rows["25-1"] = r251
    rows["25-2"] = r252
    mixed = gp(bbar, cbar) + gp(d, bbar)
    r261 = r262 = r27 = 0.0
    ebbar = gp(e, bbar)
    bbare = gp(bbar, e)
    bm = params.b_map.entries
    for mu in range(n):
        gm = gens[mu]
        r261 = max(r261, (gp(gm, mixed) - 2 * gp(cbar, gp(gm, bbar))).norm(),
                   (gp(mixed, gm) - 2 * gp(bbar, gp(gm, d))).norm())
        r262 = max(r262, gp(bbar, gp(gm, bbar)).norm())
        bv = Multivector.from_vector(n, bm[:, mu])
        r27 = max(r27, (q_map(cbar, d, gm)
                        + 2 * (gp(ebbar, gm) + gp(gm, bbare)) + bv).norm())
    rows["26-1"] = r261
    rows["26-2"] = r262
    rows["27"] = r27
    return rows


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
    """
    cut = threshold(tol, rho.params.norm())
    if (proj * proj - proj).norm() > threshold(tol, proj.norm() ** 2):
        raise NotAProjector("the supplied block matrix is not idempotent")
    n, m = rho.n, len(rho.images)
    images = _element_rows(rho.images)
    chains, _ = _structure_constants(n, rho.params.b_map.entries,
                                     np.zeros((0, n, n)), m)
    rhs, pi, pj = _chain_sums(images, chains, n)
    table = _rows_cat(_element_rows([proj]), images, rhs)   # P, X_k, R_t
    inner = np.arange(1, m + len(pi) + 1)
    once = np.zeros(len(inner), np.intp)
    # P X_k, P R_t and X_k P, then P X_k P and P R_t P
    first = _block_mul(table, np.concatenate((once, inner[:m])), table,
                       np.concatenate((inner, once[:m])), n)
    second = _block_mul(first, inner - 1, table, once, n)
    rows = np.arange(4 * m)
    inv_res = float(_element_norms(_rows_sum(
        first, rows + 4 * len(inner), second, rows, -1.0, True, n)).max())
    rep_res = _bracket_defect(second, m, second,
                              _pair_table(m, pi, pj, m), n)
    return {"invariant": inv_res <= cut,
            "representation": rep_res <= cut,
            "invariance_residual": inv_res,
            "representation_residual": rep_res, "threshold": cut}


def x_projector_element(n: int, mask_i: int, mask_j: int,
                        sign: int = 1) -> Multivector:
    """Projector (1 +- i_IJ Gamma_I Gamma_J)/2 on the Clifford module of V."""
    if mask_i & mask_j:
        raise InputError("the two index sets must be disjoint")
    gij = gp(Multivector.blade(n, mask_i), Multivector.blade(n, mask_j))
    sq = gp(gij, gij).scalar_part
    unit_factor = 1.0 if sq.real > 0 else 1j
    return 0.5 * Multivector.unit(n) + (0.5 * sign * unit_factor) * gij


def catalog_projector(name: str, n: int) -> CWElement:
    """Named restriction projectors for the CLI and tests.

    sigma-/sigma+ cut out the two halves of the two-dimensional factor;
    sv+s-/sv+s+ keep the full first half plus one chirality of the second
    (n even); s-w/s+w are the half-spinor modules of the big algebra; and
    x+:<I>;<J> / x-:<I>;<J> build the non-canonical kernel projectors from
    two disjoint index sets (e.g. "x+:1,2;3").
    """
    one = Multivector.unit(n)
    z = Multivector.zero(n)
    if name == "sigma-":
        return CWElement(one, z, z, z)
    if name == "sigma+":
        return CWElement(z, z, z, one)
    if name in ("sv+s-", "sv+s+", "s-w", "s+w", "sigma-pi+", "sigma-pi-",
                "sigma+pi+", "sigma+pi-"):
        if n % 2:
            raise InputError(f"projector {name!r} needs an even dimension")
        pip = half_spinor_projector(n, 1)
        pim = half_spinor_projector(n, -1)
        table = {
            "sv+s-": CWElement(one, z, z, pim),
            "sv+s+": CWElement(one, z, z, pip),
            "s-w": CWElement(pip, z, z, pim),
            "s+w": CWElement(pim, z, z, pip),
            "sigma-pi+": CWElement(pip, z, z, z),
            "sigma-pi-": CWElement(pim, z, z, z),
            "sigma+pi+": CWElement(z, z, z, pip),
            "sigma+pi-": CWElement(z, z, z, pim),
        }
        return table[name]
    if name.startswith("x+:") or name.startswith("x-:"):
        sign = 1 if name[1] == "+" else -1
        try:
            mask_i, mask_j = (
                blade_from_indices(int(t) for t in part.split(",") if t)
                for part in name[3:].split(";"))
        except ValueError as exc:
            raise InputError(f"cannot parse X projector spec {name!r}") from exc
        x = x_projector_element(n, mask_i, mask_j, sign)
        return CWElement(one, z, z, x)
    raise InputError(f"unknown projector name {name!r}")
