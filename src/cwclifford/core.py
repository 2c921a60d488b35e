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

import sys
from functools import lru_cache
from math import inf
from itertools import chain
from typing import Dict, Iterable, Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, DimensionTooLarge, InputError

# The dimension limits on n = dim V, stated once; error messages quote them.
DIM_LIMITS = {
    "algebra": (1, 12),               # Multivector, gammarep.build_rep
    "search": (1, 10),                # search.search_pairs_for_B
    "case sweep": (2, 6),             # search.enumerate_two_monomial_cases
}
MIN_DIM, MAX_DIM = DIM_LIMITS["algebra"]

# The tolerance table, every relative factor of the package stated once.  A
# check compares its residual with threshold(factor, norm).
PRUNE_EPS = 1e-14           # coefficient cuts of products, sums, raw terms
ORTHOGONALITY_TOL = 1e-12   # exact identities: rotations, skew parts, patterns
ORACLE_TOL = 1e-10          # the default --tol of rep-check
CHECK_TOL = 1e-9            # the default --tol of every other verdict
CLUSTER_TOL = 1e-8          # eigenvalue clusters and zero eigenvalues

_DBL_MIN = sys.float_info.min   # the smallest normal double


def threshold(factor: float, norm: float) -> float:
    """factor * norm, the absolute threshold a check applies to a residual of
    data with the homogeneous norm norm, such as (|c| + |d|)^2 for q_{c,d}.
    No absolute floor, so verdicts do not depend on the scale of the data.
    Raises InputError unless factor is finite and positive."""
    if not 0.0 < factor < inf:
        raise InputError(f"tolerance factor {factor!r} is not finite and "
                         "positive")
    return factor * norm


def verdict_threshold(factor: float, size: float, degree: float = 1,
                      nonzero: bool | None = None) -> float:
    """threshold(factor, size ** degree) for a verdict of that degree in data
    of the size size.  Raises InputError where nonzero data gives a
    threshold below the smallest normal double, where the residual's
    products underflow too and the verdict would compare zeros.  The data
    is nonzero where size > 0 unless nonzero says otherwise, as it must
    where a size formed of squares underflows to 0 on nonzero data."""
    cut = threshold(factor, size ** degree)
    if (size > 0 if nonzero is None else nonzero) and cut < _DBL_MIN:
        raise InputError(f"the threshold {cut:.3e} of nonzero data is below "
                         "the smallest normal double: the data or the "
                         "tolerance factor is too small")
    return cut


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


def _signed(x: Multivector):
    """(J, w(J), |J| mod 2, x_J) for the terms of x, in order."""
    return [(j, _sign_mask(j), j.bit_count() & 1, z)
            for j, z in x._terms.items()]


def _sandwich(terms, low: int, m: int, scale: float, out: dict) -> dict:
    """Adds scale sigma_x(J) X_J Gamma_J Gamma_m to out for the _signed
    terms of X whose blade meets m, the mask of {x, y}, once, or for all
    of them when m = 0 (x = y); low is the mask of e_x.  So scale 2 (x < y)
    or -2 (x = y) gives e_x X e_y + e_y X e_x, by the parity rule
    e_x Gamma_J = sigma_x(J) Gamma_J e_x, sigma_x(J) = (-1)^|J - {x}|."""
    get = out.get
    for j, w, odd, z in terms:
        if m and not (j & m).bit_count() & 1:
            continue
        neg = odd ^ (j & low != 0) ^ (m & w).bit_count() & 1
        out[j ^ m] = get(j ^ m, 0j) + (-scale if neg else scale) * z
    return out


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
        """e_mu, 1-based, one shared instance per (dim, mu)."""
        if not (1 <= mu <= dim):
            raise DimensionMismatch(f"e_{mu} does not exist in dimension {dim}")
        if dim > MAX_DIM:
            _check_dim("algebra", dim)
        return _BASIS[dim][mu - 1]

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
        # in order: sum() compensates from Python 3.12 on, the row kernels
        # do not; squares whose sum leaves the normal double range (past
        # the overflow, or below the smallest normal double) are summed
        # scaled by the largest size instead
        total = 0.0
        try:
            for c in self._terms.values():
                total += abs(c) ** 2
        except OverflowError:
            total = inf
        if _DBL_MIN <= total < inf or not self._terms:
            return total ** 0.5
        top = self._top
        total = 0.0
        for c in self._terms.values():
            total += (abs(c) / top) ** 2
        return top * total ** 0.5

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


# Multivector values are immutable (only construction assigns _terms), so one
# zero and one e_mu per dimension can be shared
_ZEROS = {n: Multivector(n) for n in range(MIN_DIM, MAX_DIM + 1)}
_BASIS = {n: tuple(Multivector(n, {1 << k: 1.0}) for k in range(n))
          for n in range(MIN_DIM, MAX_DIM + 1)}


def gp(a: Multivector, b: Multivector) -> Multivector:
    """Geometric (Clifford) product, the bilinear extension of blade_mul.

    Each term product is one complex multiply, (-x or x) * y by the sign of
    blade_mul; it differs from sign * x * y only in the sign of a zero part,
    which the sums from 0j erase, so no coefficient holds a negative zero."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    out: Dict[int, complex] = {}
    get, terms = out.get, b._terms.items()
    for i, x in a._terms.items():
        w, minus = _sign_mask(i), -x
        for j, y in terms:
            k = i ^ j
            out[k] = get(k, 0j) + (minus if (j & w).bit_count() & 1 else x) * y
    return _element(a.dim, out, PRUNE_EPS * a._top * b._top)


# -- sparse row tables: many elements at once, bit for bit ------------------
#
# A row table holds Multivectors as rows of terms in their dict order: row k
# is entries ptr[k]:ptr[k + 1] of blade, re and im, and top[k] is its _top.
# The kernels below build what gp, a sum, the raw-terms constructor and
# norm build, row by row, with the same values (a zero's sign aside), dict
# order and cuts, and raise OverflowError where those do.  Row -1 of every
# table is an empty row.

# term products formed at once, a bound on the memory of _rows_gp,
# _cross_sums, the blocks of omega._closing_arrays and the pair blocks of
# cw._defect_norms
_GP_BLOCK = 1 << 14


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


def _extent(a: _Rows, ia: np.ndarray):
    """(start, count) of the rows ia; row -1 counts 0, not 0 - ptr[-1]."""
    start = a.ptr[ia]
    return start, np.maximum(a.ptr[ia + 1] - start, 0)


def _spread(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[k], start[k] + 1, ..., start[k] + count[k] - 1 for each k."""
    end = count.cumsum()
    return np.arange(end[-1] if len(end) else 0) + (start - end + count
                                                    ).repeat(count)


def _row_max(ptr: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The largest size of each row, 0.0 for an empty one."""
    out = np.zeros(len(ptr) - 1)
    if len(size):
        full = ptr[1:] > ptr[:-1]
        out[full] = np.maximum.reduceat(size, ptr[:-1][full])
    return out


def _cut_rows(ptr, row, blade, re, im, cut, own: bool = False) -> _Rows:
    """The row table of entries grouped by row without the coefficients of
    size at most cut[row] and, with own, at most PRUNE_EPS times their row's
    largest one (the raw-terms cut).  Where nothing is cut the table
    shares the arrays given, which no kernel writes into."""
    size = np.hypot(re, im)           # abs(complex) is hypot
    # a NaN anywhere makes the largest NaN, which fails the test too
    if not (size.max(initial=0.0) < inf and np.max(cut, initial=0.0) < inf):
        raise OverflowError("a coefficient is not finite")
    top = _row_max(ptr, size)
    if own:
        cut = np.maximum(cut, PRUNE_EPS * top)
    keep = size > (cut[row] if np.ndim(cut) else cut)
    if keep.all():
        return _Rows(ptr, blade, re, im, top)
    # a row keeps its largest size unless the cut empties it
    top[top <= cut] = 0.0
    kept = np.zeros(len(keep) + 1, np.intp)
    keep.cumsum(out=kept[1:])
    return _Rows(kept[ptr], blade[keep], re[keep], im[keep], top)


def _kept(re: np.ndarray, im: np.ndarray, cut, own: bool = False):
    """(re, im, size): the dense (rows, 2^n) parts without the entries of
    size at most the cut of their row and, with own, at most PRUNE_EPS
    times the row's largest size (the raw-terms cut), 0.0 in their place,
    and the sizes np.hypot gives the kept parts: the cuts of _cut_rows on
    a dense table, raising OverflowError where it does."""
    size = np.hypot(re, im)
    top = size.max(1)
    if not (top.max(initial=0.0) < inf and np.max(cut) < inf):
        raise OverflowError("a coefficient is not finite")
    if own:
        cut = np.maximum(cut, PRUNE_EPS * top)
    keep = size > np.reshape(cut, (-1, 1))
    return (np.where(keep, re, 0.0), np.where(keep, im, 0.0),
            np.where(keep, size, 0.0))


def _collect(count, row, blade, re, im, cut, dim: int,
             unique: bool) -> _Rows:
    """The row table of the sums of the entries (count per row, in row
    order) that share a row and a blade, as a dict built entry by entry
    sums them: from 0.0 in entry order, each blade where it first appears;
    then cut as _cut_rows.  unique says that no two entries share both.

    The groups are the keys row 2^dim + blade; a stable sort of the keys
    finds the first entry of each, and np.bincount sums each group in
    entry order."""
    ptr = np.zeros(len(count) + 1, np.intp)
    if not unique:
        key = row * (1 << dim) + blade
        order = key.argsort(kind="stable")
        ordered = key[order]
        new = np.empty(len(key), bool)
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        key[order] = new.cumsum() - 1     # the key of a group is its rank
        first = np.zeros(len(key), bool)
        first[order[new]] = True
        del order, ordered, new
        first = first.nonzero()[0]
        g = key[first]
        row, blade = row[first], blade[first]
        re, im = np.bincount(key, re)[g], np.bincount(key, im)[g]
        count = np.bincount(row, minlength=len(count))
    count.cumsum(out=ptr[1:])
    return _cut_rows(ptr, row, blade, re, im, cut)


@lru_cache(maxsize=None)
def _sign_tables(n: int):
    """Read-only sign tables of dimension n: w[x] = w(x) over all 2^n blades
    and flip[x] = (-1)^popcount(x)."""
    w = _sign_mask(np.arange(1 << n))
    flip = 1.0 - 2.0 * (w & 1)        # bit 0 of w(x) is the parity of x
    w.setflags(write=False)
    flip.setflags(write=False)
    return w, flip


def _products(a: _Rows, i: np.ndarray, b: _Rows, j: np.ndarray, dim: int):
    """Blades, real and imaginary parts of the term products a[i] b[j], each
    as gp forms it: one complex multiply (-x or x) * y in real arithmetic."""
    w, flip = _sign_tables(dim)
    s = flip[b.blade[j] & w[a.blade[i]]]
    xr, xi = s * a.re[i], s * a.im[i]
    yr, yi = b.re[j], b.im[j]
    return a.blade[i] ^ b.blade[j], xr * yr - xi * yi, xr * yi + xi * yr


def _cross(a: _Rows, i: np.ndarray, b: _Rows, j: np.ndarray, dim: int):
    """The cross table of the entries i of a by the entries j of b: the
    blades, real and imaginary parts of their term products as _products
    forms them, as (len(i), len(j)) arrays whose rows run in gp's loop
    order."""
    shape = len(i), len(j)
    return [x.reshape(shape) for x in _products(
        a, i.repeat(len(j)), b, np.tile(j, len(i)), dim)]


@np.errstate(over="ignore", invalid="ignore")   # the caller's cut raises
def _cross_sums(a: _Rows, i: np.ndarray, b: _Rows, j: np.ndarray,
                sign_i: np.ndarray, sign_j: np.ndarray, dim: int):
    """The real and imaginary parts, (2, rows, 2^dim), of the sums over the
    cross table of a[i] by b[j] of sign_i[k, I] sign_j[k, J] a_I b_J,
    row k of each at the blade I ^ J, for the rows k of the sign arrays.
    Each blade sums from 0.0 in gp's loop order, so a row of ones gives
    gp's sums before its cut.  The table goes in blocks of left terms and
    the signed products in blocks of rows, of about _GP_BLOCK entries, a
    blade's running sum carried in before its next products."""
    rows, size = len(sign_i), 1 << dim
    sums = np.zeros((2, rows * size))
    if not len(i) * len(j):
        return sums.reshape(2, rows, size)
    step_i = min(len(i), max(1, _GP_BLOCK // len(j)))
    step_k = max(1, min(rows, _GP_BLOCK // (step_i * len(j))))
    for s in range(0, len(i), step_i):
        blade, re, im = _cross(a, i[s:s + step_i], b, j, dim)
        for k in range(0, rows, step_k):
            sign = sign_i[k:k + step_k, s:s + step_i, None] * \
                sign_j[k:k + step_k, None, :]
            key = (np.arange(len(sign))[:, None, None] * size + blade).ravel()
            out = sums[:, k * size:(k + len(sign)) * size]
            if s:
                key = np.concatenate((np.arange(out.shape[1]), key))
            for part, x in zip(out, (re, im)):
                x = (sign * x).ravel()
                part[:] = np.bincount(key, np.concatenate((part, x)) if s
                                      else x, part.size)
    return sums.reshape(2, rows, size)


def _gp_sums(a: _Rows, i: np.ndarray, b: _Rows, j: np.ndarray, dim: int):
    """(2, 1, 2^dim): the sums gp forms of the entries i of a by the
    entries j of b, before its cut (`_cross_sums` with rows of ones)."""
    return _cross_sums(a, i, b, j, np.ones((1, len(i))), np.ones((1, len(j))),
                       dim)


# the last pair _pair_rows built, and its table: (c, d, table)
_pair_memo: tuple = (None, None, None)


def _pair_rows(c: Multivector, d: Multivector):
    """(pool, (ci, di), kept, squares) of a dense pair: pool the row table
    of [c, d], ci and di the entries of c and of d in it, kept whether each
    entry's size is above PRUNE_EPS times its element's largest (the cut
    of its product with a generator), and squares the (2, 2, 2^n) real and
    imaginary parts of c^2 and d^2 before gp's cut.

    The arrays are read-only.  The last pair built is remembered (compared
    with is, the memo replaced as one tuple), so asking again for the same
    two objects, as extract_B and closing_identities do, returns the same
    table without building it."""
    global _pair_memo
    memo = _pair_memo
    if memo[0] is c and memo[1] is d:
        return memo[2]
    pool = _rows_of([c, d])
    at = [np.arange(pool.ptr[k], pool.ptr[k + 1]) for k in (0, 1)]
    kept = np.hypot(pool.re, pool.im) > PRUNE_EPS * pool.top.repeat(
        np.diff(pool.ptr))
    table = pool, at, kept, np.concatenate(
        [_gp_sums(pool, x, pool, x, c.dim) for x in at], 1)
    for x in (*pool, *at, *table[2:]):
        x.setflags(write=False)
    _pair_memo = c, d, table
    return table


@np.errstate(over="ignore", invalid="ignore")   # _cut_rows raises on it
def _rows_gp(a: _Rows, ia: np.ndarray, b: _Rows, ib: np.ndarray,
             dim: int) -> _Rows:
    """Row k is gp(a[ia[k]], b[ib[k]]), bit for bit: the term pairs in gp's
    loop order.  Rows go in blocks of about _GP_BLOCK term products; a row
    of more takes its sums from _gp_sums, cut once at the end."""
    (sa, na), (sb, nb) = _extent(a, ia), _extent(b, ib)
    count = na * nb
    cut = PRUNE_EPS * a.top[ia] * b.top[ib]
    if count.sum() > _GP_BLOCK:
        # a new block where the running count passes a multiple of
        # _GP_BLOCK, and after each row of more
        at = np.flatnonzero(np.diff(count.cumsum() // _GP_BLOCK)
                            | (count[:-1] > _GP_BLOCK)) + 1
        if len(at):
            return _rows_cat(*(_rows_gp(a, x, b, y, dim) for x, y in
                               zip(np.split(ia, at), np.split(ib, at))))
        if len(ia) == 1:
            # gp's sums, carried by _gp_sums, at the blades in dict order:
            # where each first appears in gp's loop order
            i = np.arange(sa[0], sa[0] + na[0])
            j = np.arange(sb[0], sb[0] + nb[0])
            first = np.full(1 << dim, count[0])
            step = max(1, _GP_BLOCK // len(j))
            for s in range(0, len(i), step):
                blade = (a.blade[i[s:s + step], None] ^ b.blade[j]).ravel()
                np.minimum.at(first, blade, np.arange(s * len(j), s * len(j)
                                                      + len(blade)))
            blade = first.argsort()[:np.count_nonzero(first < count[0])]
            return _cut_rows(np.array([0, len(blade)]), 0 * blade, blade,
                             *_gp_sums(a, i, b, j, dim)[:, 0, blade], cut)
    row = np.arange(len(ia)).repeat(count)
    i, j = np.divmod(_spread(np.zeros_like(count), count), nb[row])
    i += sa[row]                      # in place: a fresh array costs more
    j += sb[row]
    blade, re, im = _products(a, i, b, j, dim)
    del i, j                          # before the grouping pass
    return _collect(count, row, blade, re, im, cut, dim,
                    not ((na > 1) & (nb > 1)).any())


@np.errstate(over="ignore", invalid="ignore")   # _cut_rows raises on it
def _rows_fold(t: _Rows, sign: float, dim: int) -> _Rows:
    """Row k is t[2k] + sign t[2k + 1] as Multivector's + or - builds it.
    The terms of row k are those of rows 2k and 2k + 1, in place and in
    order."""
    each = t.ptr[1:] - t.ptr[:-1]
    na, nb = each[::2], each[1::2]
    count = na + nb
    cut = PRUNE_EPS * np.maximum(t.top[::2], t.top[1::2])
    re, im = t.re, t.im
    if sign != 1.0:
        factor = np.where(np.arange(len(each)) & 1, sign, 1.0).repeat(each)
        re, im = re * factor, im * factor
    return _collect(count, np.arange(len(count)).repeat(count), t.blade, re,
                    im, cut, dim, not ((na > 0) & (nb > 0)).any())


def _rows_sum(a: _Rows, ia: np.ndarray, b: _Rows, ib: np.ndarray,
              sign: float, dim: int) -> _Rows:
    """Row k is a[ia[k]] + sign b[ib[k]], the _rows_fold of the two rows
    gathered side by side, each from the table it lies in."""
    count = np.empty(2 * len(ia), np.intp)
    (sa, count[::2]), (sb, count[1::2]) = _extent(a, ia), _extent(b, ib)
    ptr = np.zeros(len(count) + 1, np.intp)
    count.cumsum(out=ptr[1:])
    top = np.empty(len(count))
    blade = np.empty(ptr[-1], np.intp)
    re, im = np.empty(ptr[-1]), np.empty(ptr[-1])
    for side, t, rows, start in ((0, a, ia, sa), (1, b, ib, sb)):
        n = count[side::2]
        at = _spread(start, n)
        to = at + (ptr[side:-1:2] - start).repeat(n)
        blade[to], re[to], im[to] = t.blade[at], t.re[at], t.im[at]
        top[side::2] = np.append(t.top, 0.0)[rows]      # row -1 is empty
    return _rows_fold(_Rows(ptr, blade, re, im, top), sign, dim)


@np.errstate(over="ignore", invalid="ignore")   # _cut_rows raises on it
def _rows_scaled(a: _Rows, ia: np.ndarray, factor: np.ndarray) -> _Rows:
    """Row k is a[ia[k]] * complex(factor[k]) for real factors, as the
    raw-terms constructor builds it."""
    start, count = _extent(a, ia)
    ptr = np.zeros(len(ia) + 1, np.intp)
    count.cumsum(out=ptr[1:])
    at = _spread(start, count)
    factor = factor.repeat(count)
    return _cut_rows(ptr, np.arange(len(ia)).repeat(count), a.blade[at],
                     a.re[at] * factor, a.im[at] * factor, 0.0, own=True)


@np.errstate(over="ignore", invalid="ignore")
def _rows_norm(a: _Rows) -> np.ndarray:
    """x.norm() for every row x, bit for bit: norm sums in order, as
    np.bincount does, and ** calls libm pow, as np.float_power does;
    np.power and x * x may round differently.  A nonempty row whose sum is
    below the smallest normal double is summed scaled by its largest size,
    as norm() sums it.  Raises OverflowError where ** does, on the square of
    a finite number, where norm() sums scaled."""
    size = np.hypot(a.re, a.im)
    sq = np.float_power(size, 2)
    if not (sq < inf).all():
        raise OverflowError("a squared coefficient size is not finite")
    n_rows = len(a.top)
    count = a.ptr[1:] - a.ptr[:-1]
    row = np.arange(n_rows).repeat(count)
    total = np.bincount(row, sq, minlength=n_rows)
    # a row sums below the normal range only if each of its squares does
    if sq.min(initial=inf) >= _DBL_MIN:
        return np.float_power(total, 0.5)
    low = (total < _DBL_MIN) & (count > 0)
    top = _row_max(a.ptr, size)
    total[low] = np.bincount(row, np.float_power(size / top[row], 2),
                             minlength=n_rows)[low]
    out = np.float_power(total, 0.5)
    out[low] *= top[low]
    return out


def grade_involution(a: Multivector) -> Multivector:
    """The automorphism extending v -> -v: grade-k terms pick up (-1)^k."""
    return Multivector(a.dim, {m: -c if grade(m) % 2 else c
                               for m, c in a._terms.items()})


def volume_element(n: int) -> Multivector:
    """The complex volume element i^((n+1)//2) * Gamma_{1..n}; squares to 1."""
    if n < 1:
        raise DimensionMismatch("volume element needs n >= 1")
    return Multivector.blade(n, (1 << n) - 1, 1j ** ((n + 1) // 2))


def _volume_twist(x: Multivector) -> Multivector:
    """gp(volume_element(n), x) bit for bit as a relabel, vol Gamma_J =
    zeta_J Gamma_(J^c): one complex multiply per term, as gp forms it."""
    n, full = x.dim, (1 << x.dim) - 1
    v, w = complex(1j ** ((n + 1) // 2)), _sign_mask(full)
    return _element(n, {full ^ j: 0j + (-v if (j & w).bit_count() & 1 else v)
                        * z for j, z in x._terms.items()}, PRUNE_EPS * x._top)


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
