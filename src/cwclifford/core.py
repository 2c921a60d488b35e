"""Sparse complex Clifford algebra over a Euclidean vector space.

Basis blades are bitmasks: bit ``mu`` set means the generator ``e_{mu+1}``
is a factor, with factors always kept in ascending index order.  Every
generator squares to ``-1``; the defining relation is

    v w + w v = -2 g(v, w)

with ``g`` positive definite.  Coefficients are complex doubles, blade
reordering signs are exact integers, and coefficients at the rounding
level of the data they came from are dropped (``PRUNE_EPS``, relative) so
sparse tables stay clean.  A NaN or infinite coefficient raises
OverflowError instead of being stored or dropped.

Blade products use the bitmap sign rule (Dorst, Fontijne and Mann,
*Geometric Algebra for Computer Science*, 2007, ch. 19): Gamma_i Gamma_j =
(-1)^popcount(j & w(i)) Gamma_(i XOR j), where bit mu of w(i) is bit mu of
i XOR the parity of the bits of i above mu.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf
from itertools import chain
from typing import Dict, Iterable, Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import (DimensionMismatch, DimensionTooLarge, InputError,
                     NotGradeOne)

# The dimension limits on n = dim V, stated once; error messages quote them.
DIM_LIMITS = {
    "algebra": (1, 12),               # Multivector, gammarep.build_rep
    "search": (1, 10),                # search.search_pairs_for_B
    "case sweep": (2, 6),             # search.enumerate_two_monomial_cases
    "transpose sweep": (1, 6),        # qpair.transpose_relation_check
}
MIN_DIM, MAX_DIM = DIM_LIMITS["algebra"]

# The tolerance table, every relative factor of the package stated once.  A
# check compares its residual with threshold(factor, norm).
PRUNE_EPS = 1e-14           # coefficient cuts of products, sums, raw terms
ORTHOGONALITY_TOL = 1e-12   # exact identities: rotations, skew parts, patterns
ORACLE_TOL = 1e-10          # the default --tol of rep-check
CHECK_TOL = 1e-9            # the default --tol of every other verdict
CLUSTER_TOL = 1e-8          # eigenvalue clusters and zero eigenvalues


def threshold(factor: float, norm: float) -> float:
    """factor * norm, the absolute threshold a check applies to a residual of
    data with the homogeneous norm norm, such as (|c| + |d|)^2 for q_{c,d}.
    No absolute floor, so verdicts do not depend on the scale of the data.
    Raises InputError unless factor is finite and positive."""
    if not 0.0 < factor < inf:
        raise InputError(f"tolerance factor {factor!r} is not finite and "
                         "positive")
    return factor * norm


def _check_dim(limit: str, n: int) -> None:
    """Raise DimensionTooLarge unless n lies inside DIM_LIMITS[limit]."""
    low, high = DIM_LIMITS[limit]
    if not low <= n <= high:
        raise DimensionTooLarge(
            f"the {limit} supports {low} <= n <= {high}, got n = {n}")


def blade_from_indices(indices: Iterable[int]) -> int:
    """Bitmask of a blade given 1-based generator indices."""
    mask = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"generator indices are 1-based, got {i}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i} in blade")
        mask |= bit
    return mask


def blade_indices(mask: int) -> Tuple[int, ...]:
    """Ascending 1-based generator indices of a blade mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def grade(mask: int) -> int:
    return mask.bit_count()


def _sign_mask(i: int) -> int:
    """w(i): bit mu is bit mu of i XOR the parity of the bits of i above mu.

    Bit mu of i counts one contraction (each generator squares to -1), the
    parity above counts the swaps that carry e_mu past i; masks below 2^16.
    """
    m = i >> 1
    m ^= m >> 1
    m ^= m >> 2
    m ^= m >> 4
    m ^= m >> 8
    return i ^ m


def blade_mul(i: int, j: int) -> Tuple[int, int]:
    """Product of basis blades: Gamma_i Gamma_j = sign * Gamma_(i XOR j)."""
    return i ^ j, -1 if (j & _sign_mask(i)).bit_count() & 1 else 1


def blade_square_sign(mask: int) -> int:
    """sigma_I with Gamma_I^2 = sigma_I * 1, computed via blade_mul."""
    out, sign = blade_mul(mask, mask)
    assert out == 0
    return sign


class Multivector:
    """Element of the complex Clifford algebra, stored as mask -> coefficient.

    Values are immutable after construction; all operations return new
    instances and are pure.  Built from raw terms, an element drops every
    coefficient of size at most PRUNE_EPS times its largest one; `gp` and
    sums cut relative to their operands instead.
    """

    __slots__ = ("dim", "_terms", "_top")

    def __init__(self, dim: int, terms: Dict[int, complex] | None = None):
        if not (MIN_DIM <= dim <= MAX_DIM):
            _check_dim("algebra", dim)
        self.dim = dim
        clean: Dict[int, complex] = {}
        top, low = 0.0, inf
        if terms:
            end = 1 << dim
            for mask, coeff in terms.items():
                if not (0 <= mask < end):
                    raise DimensionMismatch(
                        f"blade {mask:#x} does not fit dimension {dim}")
                z = complex(coeff)
                size = abs(z)
                if 0.0 < size < inf:
                    clean[mask] = z
                    if size > top:
                        top = size
                    if size < low:
                        low = size
                elif size != 0.0:
                    raise OverflowError(
                        f"coefficient {z} of blade {mask:#x} is not finite")
        # the cut needs the largest size, so a second pass runs only when the
        # smallest one is at or below it
        cut = PRUNE_EPS * top
        if low <= cut:
            clean = {m: z for m, z in clean.items() if abs(z) > cut}
        self._terms = clean
        self._top = top

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Multivector":
        """The zero element, one shared instance per dimension."""
        if not (MIN_DIM <= dim <= MAX_DIM):
            _check_dim("algebra", dim)
        return _ZEROS[dim]

    @staticmethod
    def unit(dim: int) -> "Multivector":
        return Multivector(dim, {0: 1.0})

    @staticmethod
    def scalar(dim: int, value: complex) -> "Multivector":
        return Multivector(dim, {0: value})

    @staticmethod
    def basis_vector(dim: int, mu: int) -> "Multivector":
        """e_mu, 1-based."""
        if not (1 <= mu <= dim):
            raise DimensionMismatch(f"e_{mu} does not exist in dimension {dim}")
        return Multivector(dim, {1 << (mu - 1): 1.0})

    @staticmethod
    def blade(dim: int, mask: int, coeff: complex = 1.0) -> "Multivector":
        return Multivector(dim, {mask: coeff})

    @staticmethod
    def from_vector(dim: int, components) -> "Multivector":
        """Grade-1 element with the given components (length dim)."""
        return Multivector(dim, {1 << k: components[k] for k in range(dim)})

    # -- inspection ----------------------------------------------------------

    def terms(self) -> Iterator[Tuple[int, complex]]:
        return iter(self._terms.items())

    def coefficient(self, mask: int) -> complex:
        return self._terms.get(mask, 0j)

    @property
    def scalar_part(self) -> complex:
        return self._terms.get(0, 0j)

    def norm(self) -> float:
        return sum(abs(c) ** 2 for c in self._terms.values()) ** 0.5

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not self._terms
        return all(abs(c) <= tol for c in self._terms.values())

    def vector_components(self):
        """Components of the grade-1 part as a length-dim list."""
        out = [0j] * self.dim
        for mask, c in self._terms.items():
            if grade(mask) == 1:
                out[mask.bit_length() - 1] = c
        return out

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Multivector") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        out = dict(self._terms)
        for mask, c in other._terms.items():
            out[mask] = out.get(mask, 0j) + c
        ta, tb = self._top, other._top
        return _element(self.dim, out, PRUNE_EPS * (ta if ta > tb else tb))

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        out = dict(self._terms)
        for mask, c in other._terms.items():
            out[mask] = out.get(mask, 0j) - c
        ta, tb = self._top, other._top
        return _element(self.dim, out, PRUNE_EPS * (ta if ta > tb else tb))

    def __neg__(self) -> "Multivector":
        return Multivector(self.dim, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return gp(self, other)
        return Multivector(self.dim,
                           {m: c * other for m, c in self._terms.items()})

    def __rmul__(self, scalar) -> "Multivector":
        return self.__mul__(scalar)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self):
        return hash((self.dim, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        from .textio import multivector_to_text
        return f"Multivector({self.dim}, {multivector_to_text(self)!r})"


_new = object.__new__


def _element(dim: int, terms: Dict[int, complex], cut: float) -> Multivector:
    """The Multivector of terms (complex, masks in range) without the
    coefficients of size at most cut, which it keeps the largest size of
    as _top; raises OverflowError on a NaN or infinite coefficient or cut."""
    if not cut < inf:
        raise OverflowError("a coefficient is not finite")
    clean = {}
    top = 0.0
    for mask, z in terms.items():
        size = abs(z)
        if cut < size < inf:
            clean[mask] = z
            if size > top:
                top = size
        elif not size <= cut:
            raise OverflowError(
                f"coefficient {z} of blade {mask:#x} is not finite")
    out = _new(Multivector)
    out.dim = dim
    out._terms = clean
    out._top = top
    return out


# products formed at once by _dense_gp, in float64 elements per array
_DENSE_BLOCK = 1 << 13

# Multivector values are immutable (only construction assigns _terms), so one
# zero per dimension can be shared
_ZEROS = {n: Multivector(n) for n in range(MIN_DIM, MAX_DIM + 1)}


def gp(a: Multivector, b: Multivector) -> Multivector:
    """Geometric (Clifford) product, the bilinear extension of blade_mul."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    out: Dict[int, complex] = {}
    get, terms = out.get, b._terms.items()
    for i, x in a._terms.items():
        w = _sign_mask(i)
        for j, y in terms:
            k = i ^ j
            s = -1 if (j & w).bit_count() & 1 else 1
            out[k] = get(k, 0j) + s * x * y
    return _element(a.dim, out, PRUNE_EPS * a._top * b._top)


def _dense(a: Multivector):
    """Real and imaginary coefficient arrays of a over all 2^n blades."""
    re = np.zeros(1 << a.dim)
    im = np.zeros(1 << a.dim)
    for mask, z in a._terms.items():
        re[mask] = z.real
        im[mask] = z.imag
    return re, im


def _prune_dense(re: np.ndarray, im: np.ndarray, cut=0.0,
                 own: bool = False) -> np.ndarray:
    """Zero in place, row by row, what a Multivector built at the same point
    drops, raise on what it refuses, and return the largest coefficient
    size of each row after the cut, as a column.

    cut broadcasts against the rows; own adds the cut of raw terms, PRUNE_EPS
    times the largest coefficient of the row.  The largest coefficient
    survives any cut below it, so a cut followed by the raw-terms cut is one
    pass with own.
    """
    size = np.hypot(re, im)           # abs(complex) is hypot
    top = size.max(axis=-1, keepdims=True)
    if not (top < inf).all():         # the maximum keeps a NaN
        raise OverflowError("a dense coefficient is not finite")
    if own:
        cut = np.maximum(cut, PRUNE_EPS * top)
    small = size <= cut
    if small.any():
        np.putmask(re, small, 0.0)
        np.putmask(im, small, 0.0)
    return np.where(top > cut, top, 0.0)


def _dense_gp(a: Multivector, yr: np.ndarray, yi: np.ndarray, w, flip,
              ytop, own: bool = False):
    """gp(a, y) for every row y of the dense (yr, yi), bit for bit, and the
    largest coefficient size of each result row.

    The products of a's terms with their partners in y are formed as arrays,
    a block of terms at a time, then summed one term after another in a's
    dict order, gp's outer loop: each output blade sums its partners in
    gp's order, and a partner missing from y adds a signed zero, which
    leaves the sum unchanged.  The complex product stays real arithmetic:
    numpy's complex multiply may fuse multiply-adds.  Each row is pruned at
    gp's cut, PRUNE_EPS times the largest coefficients of a and of the row,
    ytop (a column of the rows' largest sizes), and with own at the cut of
    raw terms as well.
    """
    blades = np.arange(yr.shape[-1])
    masks = np.fromiter(a._terms, dtype=np.int64, count=len(a._terms))
    coeffs = np.fromiter(a._terms.values(), dtype=complex,
                         count=len(a._terms))
    tr = np.zeros(yr.shape)
    ti = np.zeros(yr.shape)
    block = max(1, _DENSE_BLOCK // yr.size)
    for start in range(0, len(masks), block):
        i = masks[start:start + block, None]
        x = coeffs[start:start + block, None]
        j = i ^ blades                        # the partner of each output
        s = flip[j & w[i]]
        sxr, sxi = s * x.real, s * x.imag
        ur, ui = yr[..., j], yi[..., j]
        pr = sxr * ur - sxi * ui
        pi = sxr * ui + sxi * ur
        for t in range(len(j)):
            tr += pr[..., t, :]
            ti += pi[..., t, :]
    return tr, ti, _prune_dense(tr, ti, PRUNE_EPS * a._top * ytop, own)


@lru_cache(maxsize=None)
def _sign_tables(n: int):
    """Read-only sign tables of dimension n for the dense passes.

    w[x] = w(x) over all 2^n blades; flip[x] = (-1)^popcount(x);
    partner[mu, k] = k XOR e_mu (0-based mu); left[mu, k] and right[mu, k]
    are the signs of e_mu Gamma_j and of Gamma_j e_mu for j = partner[mu, k],
    so row mu of e_mu x (of x e_mu) is left (right) times x[partner].
    """
    blades = np.arange(1 << n)
    w = _sign_mask(blades)
    # bit 0 of w(x) is the parity of x
    flip = 1.0 - 2.0 * (w & 1)
    gens = 1 << np.arange(n)
    partner = blades ^ gens[:, None]
    left = flip[partner & w[gens][:, None]]
    right = flip[w[partner] & gens[:, None]]
    tables = (w, flip, partner, left, right)
    for t in tables:
        t.setflags(write=False)
    return tables


@np.errstate(over="ignore", invalid="ignore")  # _prune_dense raises on it
def q_basis_images(a: Multivector, b: Multivector):
    """q(e_mu) = a^2 e_mu + e_mu b^2 - 2 a e_mu b for every mu at once.

    Returns float64 arrays (re, im) of shape (n, 2^n); row mu - 1 holds the
    blade coefficients of q(e_mu), bit for bit those of the gp loop
    gp(gp(a, a), e_mu) + gp(e_mu, gp(b, b)) - 2 gp(a, gp(e_mu, b)).  a^2, b^2
    and a (e_mu b) are dense passes over a's and b's terms (`_dense_gp`);
    e_mu b, a^2 e_mu and e_mu b^2 are signed permutations.  Coefficients are
    pruned wherever the gp loop builds a Multivector, at the same cuts:
    a product of e_mu with x cuts x at its own largest coefficient, so
    a^2, b^2 and b are pruned that way before their permutations.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    w, flip, partner, left, right = _sign_tables(a.dim)
    ar, ai = _dense(a)
    br, bi = _dense(b)
    a2r, a2i, top_a2 = _dense_gp(a, ar, ai, w, flip, a._top, own=True)
    b2r, b2i, top_b2 = _dense_gp(b, br, bi, w, flip, b._top, own=True)
    top_b = _prune_dense(br, bi, own=True)
    # a^2 e_mu + e_mu b^2; "0.0 +" turns a sum of two negative zeros into
    # the positive zero that gp's "0j +" leaves
    sr = 0.0 + (right * a2r[partner] + left * b2r[partner])
    si = 0.0 + (right * a2i[partner] + left * b2i[partner])
    top_s = _prune_dense(sr, si, PRUNE_EPS * np.maximum(top_a2, top_b2))
    # 2 a (e_mu b), built from raw terms; the sign of a zero in e_mu b never
    # reaches the sums
    tr, ti, _ = _dense_gp(a, left * br[partner], left * bi[partner], w, flip,
                          top_b)
    tr *= 2.0
    ti *= 2.0
    top = np.maximum(top_s, _prune_dense(tr, ti, own=True))
    re = sr - tr
    im = si - ti
    _prune_dense(re, im, PRUNE_EPS * top)
    return re, im


@np.errstate(over="ignore", invalid="ignore")  # _prune_dense raises on it
def closing_residuals(c: Multivector, d: Multivector, b: np.ndarray):
    """Entry norms of the two closing identities of (c, d) for every (mu, nu).

    Returns two (n, n) float64 arrays holding, at [nu - 1, mu - 1], the
    norms of the anticommutator residual
    (s_{d,c}(e_nu) s_{c,d}(e_mu) + s_{d,c}(e_mu) s_{c,d}(e_nu)) / 2
    - b[mu - 1, nu - 1] and of the four-term residual [d, X] with
    X = s_{d,c}(e_nu) e_mu + e_mu s_{c,d}(e_nu), where
    s_{a,b}(x) = a x - x b.  The s rows are signed permutations of c
    and d; the n^2 products are n `_dense_gp` passes, one per s_{d,c}(e_nu);
    d X is one pass over all n^2 rows and X d another, through
    rev(X d) = rev(d) rev(X).  Rows are cut relative to the data they came
    from, as the products and sums of the gp loop of
    `omega.closing_identities` cut theirs; values agree with it up to
    rounding.
    """
    if c.dim != d.dim:
        raise DimensionMismatch(f"dimensions differ: {c.dim} vs {d.dim}")
    n = c.dim
    w, flip, partner, left, right = _sign_tables(n)
    cr, ci = _dense(c)
    dr, di = _dense(d)
    # row nu: d e_nu - e_nu c and c e_nu - e_nu d, cut like their sums
    sdc_r = right * dr[partner] - left * cr[partner]
    sdc_i = right * di[partner] - left * ci[partner]
    scd_r = right * cr[partner] - left * dr[partner]
    scd_i = right * ci[partner] - left * di[partner]
    cut = PRUNE_EPS * max(c._top, d._top)
    top_dc = _prune_dense(sdc_r, sdc_i, cut)
    top_cd = _prune_dense(scd_r, scd_i, cut)

    # [nu, mu] = s_{d,c}(e_nu) s_{c,d}(e_mu); the identity symmetrizes it
    prods = [_dense_gp(_from_row(n, sdc_r[nu], sdc_i[nu]), scd_r, scd_i,
                       w, flip, top_cd) for nu in range(n)]
    pr, pi, top = (np.array([p[k] for p in prods]) for k in range(3))
    ar = 0.5 * (pr + pr.transpose(1, 0, 2))
    ai = 0.5 * (pi + pi.transpose(1, 0, 2))
    top = np.maximum(np.maximum(top, top.transpose(1, 0, 2)),
                     np.abs(b)[..., None])
    ar[..., 0] -= b
    _prune_dense(ar, ai, PRUNE_EPS * top)

    # [nu, mu] = X_{mu nu}: e_mu sits at partner[mu] of each s row
    xr = right * sdc_r[:, partner] + left * scd_r[:, partner]
    xi = right * sdc_i[:, partner] + left * scd_i[:, partner]
    top = np.maximum(top_dc, top_cd)[:, None]
    top = _prune_dense(xr, xi, PRUNE_EPS * top)
    dxr, dxi, top_dx = _dense_gp(d, xr, xi, w, flip, top)
    rev = _reversal_signs(n)
    xdr, xdi, top_xd = _dense_gp(reversal(d), rev * xr, rev * xi, w, flip,
                                 top)
    top = np.maximum(top_dx, top_xd)
    fr = dxr - rev * xdr
    fi = dxi - rev * xdi
    _prune_dense(fr, fi, PRUNE_EPS * top)
    return _row_norms(ar, ai), _row_norms(fr, fi)


def _from_row(n: int, re: np.ndarray, im: np.ndarray) -> Multivector:
    """The Multivector of one dense coefficient row."""
    return Multivector(n, {int(k): complex(re[k], im[k])
                           for k in np.flatnonzero((re != 0) | (im != 0))})


@lru_cache(maxsize=None)
def _reversal_signs(n: int) -> np.ndarray:
    """(-1)^(k(k-1)/2) for the grade k of every blade, read-only."""
    k = np.array([grade(m) for m in range(1 << n)])
    signs = 1.0 - 2.0 * ((k * (k - 1) // 2) & 1)
    signs.setflags(write=False)
    return signs


def _row_norms(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.sqrt((re * re + im * im).sum(axis=-1))


# -- sparse row tables: many elements at once, bit for bit ------------------
#
# A row table holds Multivectors as rows of terms in their dict order: row k
# is entries ptr[k]:ptr[k + 1] of blade, re and im, and top[k] is its _top.
# The kernels below build what gp, a sum, the raw-terms constructor and
# norm build, row by row, with the same values, dict order and cuts, and
# raise OverflowError where those do.  Row -1 of every table is an empty
# row.

class _Rows(NamedTuple):
    ptr: np.ndarray
    blade: np.ndarray
    re: np.ndarray
    im: np.ndarray
    top: np.ndarray


def _rows_of(elements: Sequence[Multivector]) -> _Rows:
    """The row table of elements, one row each."""
    ptr = np.zeros(len(elements) + 1, np.intp)
    np.fromiter((len(x._terms) for x in elements), np.intp,
                len(elements)).cumsum(out=ptr[1:])
    z = np.fromiter(chain.from_iterable(x._terms.values() for x in elements),
                    complex, ptr[-1])
    return _Rows(ptr, np.fromiter(chain.from_iterable(
        x._terms for x in elements), np.intp, ptr[-1]), z.real.copy(),
        z.imag.copy(), np.fromiter((x._top for x in elements), float,
                                   len(elements)))


def _rows_cat(*tables: _Rows) -> _Rows:
    """The rows of tables, one after another."""
    ends = np.cumsum([t.ptr[-1] for t in tables]) - [t.ptr[-1] for t in tables]
    return _Rows(np.concatenate([tables[0].ptr[:1]] + [
        t.ptr[1:] + end for t, end in zip(tables, ends)]),
        *(np.concatenate(x) for x in list(zip(*tables))[1:]))


def _counts(a: _Rows, ia: np.ndarray) -> np.ndarray:
    """The number of terms of the rows ia, 0 for row -1."""
    return np.append(a.ptr[1:] - a.ptr[:-1], 0)[ia]


def _spread(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[k], start[k] + 1, ..., start[k] + count[k] - 1 for each k."""
    end = count.cumsum()
    return np.arange(end[-1] if len(end) else 0) + (start - end + count
                                                    ).repeat(count)


def _row_max(ptr: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The largest size of each row, 0.0 for an empty one."""
    out = np.zeros(len(ptr) - 1)
    full = ptr[1:] > ptr[:-1]
    if full.any():
        out[full] = np.maximum.reduceat(size, ptr[:-1][full])
    return out


def _cut_rows(ptr, row, blade, re, im, cut, own: bool = False) -> _Rows:
    """The row table of entries grouped by row without the coefficients of
    size at most cut[row] and, with own, at most PRUNE_EPS times their row's
    largest one (the raw-terms cut)."""
    size = np.hypot(re, im)           # abs(complex) is hypot
    if not (size < inf).all() or not np.all(cut < inf):
        raise OverflowError("a coefficient is not finite")
    if own:
        cut = np.maximum(cut, PRUNE_EPS * _row_max(ptr, size))
    keep = size > (cut[row] if np.ndim(cut) else cut)
    kept = np.zeros(len(keep) + 1, np.intp)
    keep.cumsum(out=kept[1:])
    ptr = kept[ptr]
    size = size[keep]
    return _Rows(ptr, blade[keep], re[keep], im[keep], _row_max(ptr, size))


def _collect(count, row, blade, re, im, cut, dim: int,
             unique: bool) -> _Rows:
    """The row table of the sums of the entries (count per row, in row
    order) that share a row and a blade, as a dict built entry by entry
    sums them: from 0.0 in entry order, each blade where it first appears;
    then cut as _cut_rows.  unique says that no two entries share both."""
    ptr = np.zeros(len(count) + 1, np.intp)
    if not unique:
        key = row * (1 << dim) + blade
        order = key.argsort(kind="stable")
        ordered = key[order]
        new = np.empty(len(key), bool)
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        group = np.empty(len(key), np.intp)
        group[order] = new.cumsum() - 1
        first = np.zeros(len(key), bool)
        first[order[new]] = True
        del key, order, ordered, new
        first = first.nonzero()[0]
        g = group[first]
        row, blade = row[first], blade[first]
        re, im = np.bincount(group, re)[g], np.bincount(group, im)[g]
        count = np.bincount(row, minlength=len(count))
    count.cumsum(out=ptr[1:])
    return _cut_rows(ptr, row, blade, re, im, cut)


@np.errstate(over="ignore", invalid="ignore")   # _cut_rows raises on it
def _rows_gp(a: _Rows, ia: np.ndarray, b: _Rows, ib: np.ndarray,
             dim: int) -> _Rows:
    """Row k is gp(a[ia[k]], b[ib[k]]), bit for bit: the term pairs in gp's
    loop order, each product as real arithmetic, sign times x times y."""
    w, flip = _sign_tables(dim)[:2]
    na, nb = _counts(a, ia), _counts(b, ib)
    count = na * nb
    row = np.arange(len(ia)).repeat(count)
    i, j = np.divmod(_spread(np.zeros_like(count), count), nb[row])
    i += a.ptr[ia][row]
    j += b.ptr[ib][row]
    s = flip[b.blade[j] & w[a.blade[i]]]
    xr, xi = s * a.re[i], s * a.im[i]
    yr, yi = b.re[j], b.im[j]
    blade = a.blade[i] ^ b.blade[j]
    re, im = xr * yr - xi * yi, xr * yi + xi * yr
    del i, j, s, xr, xi, yr, yi       # before the grouping pass
    return _collect(count, row, blade, re, im,
                    PRUNE_EPS * a.top[ia] * b.top[ib], dim,
                    not ((na > 1) & (nb > 1)).any())


@np.errstate(over="ignore", invalid="ignore")   # _cut_rows raises on it
def _rows_sum(a: _Rows, ia: np.ndarray, b: _Rows, ib: np.ndarray,
              sign: float, summed, dim: int) -> _Rows:
    """Row k is a[ia[k]] + sign b[ib[k]] as Multivector's + or - builds it
    where summed[k]; elsewhere the two rows' terms uncut, which is the
    nonempty one of them."""
    na, nb = _counts(a, ia), _counts(b, ib)
    count = na + nb
    cut = np.where(summed, PRUNE_EPS * np.maximum(
        np.append(a.top, 0.0)[ia], np.append(b.top, 0.0)[ib]), 0.0)
    pool = a if b is a else _rows_cat(a, b)
    # each row's terms of a, then its terms of b
    row = np.arange(len(ia)).repeat(count)
    at = _spread(np.zeros_like(count), count)
    in_b = at >= na[row]
    at += np.where(in_b, (pool.ptr[ib + (0 if b is a else len(a.top))]
                          - na)[row], a.ptr[ia][row])
    re, im = pool.re[at], pool.im[at]
    if sign != 1.0:
        re[in_b] *= sign
        im[in_b] *= sign
    return _collect(count, row, pool.blade[at], re, im, cut, dim,
                    not ((na > 0) & (nb > 0)).any())


@np.errstate(over="ignore", invalid="ignore")   # _cut_rows raises on it
def _rows_scaled(a: _Rows, ia: np.ndarray, factor: np.ndarray) -> _Rows:
    """Row k is a[ia[k]] * complex(factor[k]) for real factors, as the
    raw-terms constructor builds it."""
    count = _counts(a, ia)
    ptr = np.zeros(len(ia) + 1, np.intp)
    count.cumsum(out=ptr[1:])
    at = _spread(a.ptr[ia], count)
    factor = factor.repeat(count)
    return _cut_rows(ptr, np.arange(len(ia)).repeat(count), a.blade[at],
                     a.re[at] * factor, a.im[at] * factor, 0.0, own=True)


@np.errstate(over="ignore", invalid="ignore")
def _rows_norm_squared(a: _Rows) -> np.ndarray:
    """x.norm() ** 2 for every row x, bit for bit: Python sums floats in
    order (before 3.12), and its ** calls libm pow, as np.float_power does;
    np.power and x * x may round differently.  Raises OverflowError where
    ** does, on the square of a finite number."""
    sq = np.float_power(np.hypot(a.re, a.im), 2)
    if not (sq < inf).all():
        raise OverflowError("a squared coefficient size is not finite")
    n_rows = len(a.top)
    norm = np.float_power(np.bincount(
        np.arange(n_rows).repeat(a.ptr[1:] - a.ptr[:-1]), sq,
        minlength=n_rows), 0.5)
    out = np.float_power(norm, 2)
    if ((out == inf) & (norm < inf)).any():
        raise OverflowError("a squared norm is not finite")
    return out


def grade_project(a: Multivector, k: int) -> Multivector:
    """Keep exactly the blades of grade k."""
    return Multivector(a.dim,
                       {m: c for m, c in a._terms.items() if grade(m) == k})


def involute(a: Multivector, kind: str) -> Multivector:
    """The two standard involutions.

    kind="grade": the automorphism extending v -> -v (grade-k terms pick up
    (-1)^k); kind="reverse": the antiautomorphism fixing V (factor
    (-1)^(k(k-1)/2)).
    """
    if kind == "grade":
        return Multivector(a.dim, {m: c if grade(m) % 2 == 0 else -c
                                   for m, c in a._terms.items()})
    if kind == "reverse":
        out = {}
        for m, c in a._terms.items():
            k = grade(m)
            out[m] = -c if (k * (k - 1) // 2) % 2 else c
        return Multivector(a.dim, out)
    raise ValueError(f"unknown involution kind {kind!r}")


def grade_involution(a: Multivector) -> Multivector:
    return involute(a, "grade")


def reversal(a: Multivector) -> Multivector:
    return involute(a, "reverse")


def volume_element(n: int) -> Multivector:
    """The complex volume element i^((n+1)//2) * Gamma_{1..n}; squares to 1."""
    if n < 1:
        raise DimensionMismatch("volume element needs n >= 1")
    return Multivector.blade(n, (1 << n) - 1, 1j ** ((n + 1) // 2))


def left_contract(v: Multivector, a: Multivector) -> Multivector:
    """Interior product v | a for a grade-1 element v."""
    if v.dim != a.dim:
        raise DimensionMismatch(f"dimensions differ: {v.dim} vs {a.dim}")
    out: Dict[int, complex] = {}
    for gmask, gcoeff in v.terms():
        if grade(gmask) != 1:
            raise NotGradeOne("left_contract needs a pure grade-1 argument")
        for mask, c in a.terms():
            if mask & gmask:
                below = (mask & (gmask - 1)).bit_count()
                s = -1 if below % 2 else 1
                key = mask ^ gmask
                out[key] = out.get(key, 0j) + s * gcoeff * c
    return Multivector(a.dim, out)


def trace_pairing(a: Multivector, b: Multivector) -> complex:
    """Normalized trace form <a, b>: the scalar part of a * reversal(b).

    Distinct blades pair to zero; <Gamma_I, Gamma_I> = (-1)^grade(I), so the
    pairing has unit magnitude on the blade basis.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    out = 0j
    for m, x in a.terms():
        y = b.coefficient(m)
        if y:
            k = grade(m)
            rev = -1 if (k * (k - 1) // 2) % 2 else 1
            out += x * (rev * y) * blade_square_sign(m)
    return out


def random_multivector(rng, dim: int, n_terms: int = 8,
                       grades: Iterable[int] | None = None) -> Multivector:
    """Sparse random element with standard-normal complex coefficients."""
    masks = list(range(1 << dim))
    if grades is not None:
        allowed = set(grades)
        masks = [m for m in masks if grade(m) in allowed]
    k = min(n_terms, len(masks))
    chosen = rng.choice(len(masks), size=k, replace=False)
    terms = {}
    for idx in chosen:
        terms[masks[idx]] = complex(rng.standard_normal(),
                                    rng.standard_normal())
    return Multivector(dim, terms)
