"""Sparse complex Clifford algebra over a Euclidean vector space.

Basis blades are bitmasks: bit ``mu`` set means the generator ``e_{mu+1}``
is a factor, with factors always kept in ascending index order.  Every
generator squares to ``-1``; the defining relation is

    v w + w v = -2 g(v, w)

with ``g`` positive definite.  Coefficients are complex doubles, blade
reordering signs are exact integers, and stored coefficients below
``PRUNE_EPS`` are dropped so sparse tables stay clean.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from .errors import DimensionMismatch, DimensionTooLarge, NotGradeOne

# The dimension limits on n = dim V, stated once; error messages quote them.
DIM_LIMITS = {
    "algebra": (1, 12),               # Multivector
    "gamma representation": (1, 10),  # gammarep.build_rep
    "search": (1, 10),                # search.search_pairs_for_B
    "case sweep": (2, 6),             # search.enumerate_two_monomial_cases
    "transpose sweep": (1, 6),        # qpair.transpose_relation_check
}
MIN_DIM, MAX_DIM = DIM_LIMITS["algebra"]
PRUNE_EPS = 1e-14


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


def blade_mul(i: int, j: int) -> Tuple[int, int]:
    """Product of basis blades: Gamma_i Gamma_j = sign * Gamma_(i XOR j).

    The sign is the reordering parity times one factor -1 per contracted
    index (each generator squares to -1).
    """
    sign = 1
    acc = i
    rest = j
    while rest:
        low = rest & -rest
        mu = low.bit_length() - 1
        if (acc >> (mu + 1)).bit_count() & 1:
            sign = -sign
        if acc & low:
            sign = -sign
        acc ^= low
        rest ^= low
    return acc, sign


def blade_square_sign(mask: int) -> int:
    """sigma_I with Gamma_I^2 = sigma_I * 1, computed via blade_mul."""
    out, sign = blade_mul(mask, mask)
    assert out == 0
    return sign


class Multivector:
    """Element of the complex Clifford algebra, stored as mask -> coefficient.

    Values are immutable after construction; all operations return new
    instances and are pure.
    """

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Dict[int, complex] | None = None):
        if not (MIN_DIM <= dim <= MAX_DIM):
            _check_dim("algebra", dim)
        self.dim = dim
        clean: Dict[int, complex] = {}
        if terms:
            top = 1 << dim
            for mask, coeff in terms.items():
                if not (0 <= mask < top):
                    raise DimensionMismatch(
                        f"blade {mask:#x} does not fit dimension {dim}")
                z = complex(coeff)
                if abs(z) > PRUNE_EPS:
                    clean[mask] = z
        self._terms = clean

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Multivector":
        return Multivector(dim, {})

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
        return Multivector(self.dim, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

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


def gp(a: Multivector, b: Multivector) -> Multivector:
    """Geometric (Clifford) product, the bilinear extension of blade_mul."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    out: Dict[int, complex] = {}
    for i, x in a._terms.items():
        for j, y in b._terms.items():
            k, s = blade_mul(i, j)
            out[k] = out.get(k, 0j) + s * x * y
    return Multivector(a.dim, out)


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
