"""Quadratic Clifford pairs: the maps s and q, verification, constructors.

A pair (c, d) is verified when x -> c^2 x + x d^2 - 2 c x d maps the
grade-1 subspace to itself and restricts there to a real symmetric
endomorphism B.  Constructors for the monomial, pseudo-monomial, linear
and generalized-monomial families attach their closed-form spectra and
check them against direct evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (CHECK_TOL, CLUSTER_TOL, ORTHOGONALITY_TOL, PRUNE_EPS,
                   Multivector, _check_dim, blade_square_sign, gp, grade,
                   q_basis_images, threshold, volume_element)
from .errors import (AnticommutationViolated, CoefficientConstraintViolated,
                     DimensionMismatch, IllegalParityPattern, InputError,
                     OddDimension, OddMultiplicity, ParityMismatch,
                     PredictionMismatch)

STATUS_VERIFIED = "verified"
STATUS_NOT_CLOSED = "not-closed-in-V"
STATUS_NOT_SYMMETRIC = "not-symmetric"

FAMILY_ORDER = ("monomial", "pseudo-monomial-even", "pseudo-monomial-odd",
                "linear", "generalized-monomial", "other")


def s_map(a: Multivector, b: Multivector, x: Multivector) -> Multivector:
    """x -> a x - x b, the square root of q."""
    return gp(a, x) - gp(x, b)


def q_map(a: Multivector, b: Multivector, x: Multivector) -> Multivector:
    """x -> a^2 x + x b^2 - 2 a x b."""
    return gp(gp(a, a), x) + gp(x, gp(b, b)) - 2 * gp(a, gp(x, b))


# -- symmetric maps ----------------------------------------------------------

@dataclass
class Eigenspace:
    value: float
    multiplicity: int
    basis: np.ndarray          # n x multiplicity, orthonormal columns
    positions: Tuple[int, ...]  # column indices in the sorted eigenbasis
    mask: int                   # the positions as a blade bitmask


@dataclass
class SymmetricMap:
    """Real symmetric matrix with a clustered eigenspace decomposition."""

    n: int
    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigenspaces: List[Eigenspace]
    # the last pair adapt_to_eigenbasis rotated, and its rotation
    _rotated: Optional[tuple] = field(default=None, init=False, repr=False,
                                      compare=False)

    @staticmethod
    def from_matrix(entries) -> "SymmetricMap":
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise InputError("symmetric map entries must form a nonempty "
                             "square matrix")
        if not np.isfinite(m).all():
            raise InputError("symmetric map entries must be finite")
        n = m.shape[0]
        if np.max(np.abs(m - m.T)) > threshold(CHECK_TOL, np.max(np.abs(m))):
            raise InputError("matrix is not symmetric")
        m = 0.5 * (m + m.T)
        vals, vecs = np.linalg.eigh(m)
        tol = threshold(CLUSTER_TOL, np.max(np.abs(vals)))
        spaces: List[Eigenspace] = []
        start = 0
        for i in range(1, n + 1):
            if i == n or vals[i] - vals[i - 1] > tol:
                block = vecs[:, start:i]
                spaces.append(Eigenspace(
                    value=float(np.mean(vals[start:i])),
                    multiplicity=i - start,
                    basis=block,
                    positions=tuple(range(start, i)),
                    mask=(1 << i) - (1 << start)))
                start = i
        return SymmetricMap(n, m, vals, vecs, spaces)

    @staticmethod
    def from_diagonal(values) -> "SymmetricMap":
        return SymmetricMap.from_matrix(np.diag(np.asarray(values, dtype=float)))

    @cached_property
    def eigenbasis_is_identity(self) -> bool:
        """True when the eigenbasis is the standard basis (no rotation), to
        the rounding level of its unit columns."""
        return bool(np.max(np.abs(self.eigenvectors - np.eye(self.n)))
                    <= PRUNE_EPS)

    def adapt_to_eigenbasis(self, c: Multivector, d: Multivector):
        """The pair rotated into the eigenbasis; eigenspace index sets become
        contiguous position blocks there.

        The last pair rotated is remembered (compared with ==), so asking
        again for an equal pair returns the same objects without rotating.
        """
        if self.eigenbasis_is_identity:
            return c, d
        memo = self._rotated
        if memo is not None and memo[0] == c and memo[1] == d:
            return memo[2], memo[3]
        r = self.eigenvectors
        rotated = (rotate_multivector(c, r.T), rotate_multivector(d, r.T))
        self._rotated = (c, d) + rotated
        return rotated

    def nonzero_eigenspaces(self) -> List[Eigenspace]:
        """The eigenspaces whose eigenvalue is not zero to CLUSTER_TOL."""
        cut = threshold(CLUSTER_TOL, np.max(np.abs(self.eigenvalues)))
        return [s for s in self.eigenspaces if abs(s.value) > cut]

    def distinct_count(self) -> int:
        return len(self.eigenspaces)

    def is_multiple_of_identity(self) -> bool:
        return len(self.eigenspaces) == 1

    def sob_basis(self) -> List[np.ndarray]:
        """Elementary rotations of each eigenspace, spanning so_B(V)."""
        out = []
        for space in self.eigenspaces:
            basis = space.basis
            for i in range(space.multiplicity):
                for j in range(i + 1, space.multiplicity):
                    u, w = basis[:, i], basis[:, j]
                    out.append(np.outer(u, w) - np.outer(w, u))
        return out

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.entries @ v


# -- verification ------------------------------------------------------------

@dataclass
class QuadraticPair:
    c: Multivector
    d: Multivector
    status: str
    B: Optional[SymmetricMap] = None
    family: Optional[str] = None
    tags: Tuple[str, ...] = ()
    q_matrix: Optional[np.ndarray] = None      # complex, columns q(e_mu)
    offgrade_residual: float = 0.0
    threshold: float = 0.0     # the absolute threshold the residuals met
    predicted_diagonal: Optional[np.ndarray] = None

    @property
    def verified(self) -> bool:
        return self.status == STATUS_VERIFIED


def _dense_pair(c: Multivector, d: Multivector) -> bool:
    """Whether per-pair work on (c, d) goes through the dense passes.

    The rule, |c| |d| > max(16, 2^n) in term counts, serves the q-restriction
    and the closing identities.  It sits at the q-restriction's measured
    crossover; for the closing identities it keeps the few-term family pairs
    on the gp loop, which beats the dense passes on them at n = 7-8.  The
    crossover tables are in the CHANGES.md entries of the dense
    q-restriction and of the dense closing identities.
    """
    return len(c._terms) * len(d._terms) > max(16, 1 << c.dim)


def _dense_q_restriction(c: Multivector, d: Multivector):
    """q_restriction_matrix from one dense pass (core.q_basis_images)."""
    re, im = q_basis_images(c, d)
    gens = 1 << np.arange(c.dim)
    m = np.zeros((c.dim, c.dim), dtype=complex)
    m.real = re[:, gens].T
    m.imag = im[:, gens].T
    re[:, gens] = 0.0
    im[:, gens] = 0.0
    return m, float(np.hypot(re, im).max())


def q_restriction_matrix(c: Multivector, d: Multivector):
    """Matrix of q on V (column mu holds q(e_mu)) plus the off-grade residual."""
    if c.dim != d.dim:
        raise DimensionMismatch("pair elements live in different dimensions")
    n = c.dim
    if _dense_pair(c, d):   # both paths give the same bits
        return _dense_q_restriction(c, d)
    m = np.zeros((n, n), dtype=complex)
    offgrade = 0.0
    for mu in range(n):
        qv = q_map(c, d, Multivector.basis_vector(n, mu + 1))
        for mask, coeff in qv.terms():
            if grade(mask) == 1:
                m[mask.bit_length() - 1, mu] = coeff
            else:
                offgrade = max(offgrade, abs(coeff))
    return m, offgrade


def extract_B(c: Multivector, d: Multivector,
              tol_factor: float = CHECK_TOL) -> QuadraticPair:
    """Verify the pair and extract its symmetric map, status-encoded.

    The residuals meet threshold(tol_factor, (|c| + |d|)^2), q being
    quadratic in the pair.  Raises InputError on a factor that is not
    finite and positive, OverflowError when q overflows on the pair.
    """
    tol = threshold(tol_factor, (c.norm() + d.norm()) ** 2)
    m, offgrade = q_restriction_matrix(c, d)
    if not (np.isfinite(m).all() and math.isfinite(offgrade)):
        raise OverflowError("q is not finite on this pair")
    status, b = STATUS_VERIFIED, None
    if offgrade > tol:
        status = STATUS_NOT_CLOSED
    elif np.max(np.abs(m.imag)) > tol or np.max(np.abs(m - m.T)) > tol:
        status = STATUS_NOT_SYMMETRIC
    else:
        b = SymmetricMap.from_matrix(0.5 * (m.real + m.real.T))
    return QuadraticPair(c, d, status, B=b, q_matrix=m,
                         offgrade_residual=offgrade, threshold=tol)


def _check_prediction(pair: QuadraticPair, predicted: np.ndarray,
                      what: str) -> None:
    """Constructors promise a diagonal q|_V; enforce it on the raw matrix,
    to the threshold the pair was verified against."""
    m = pair.q_matrix
    off = m - np.diag(np.diag(m))
    err = max(np.max(np.abs(np.diag(m) - predicted)), np.max(np.abs(off)),
              pair.offgrade_residual)
    if err > pair.threshold:
        raise PredictionMismatch(f"{what}: predicted spectrum off by {err:.3e}")
    pair.predicted_diagonal = predicted


# -- constructors ------------------------------------------------------------

def _tagged(pair: QuadraticPair, family: str) -> QuadraticPair:
    """Name the constructor's family on the pair, only if it verifies."""
    if pair.verified:
        pair.family = family
        pair.tags = (family,)
    return pair


def make_monomial(dim: int, mask: int, alpha: complex,
                  beta: complex) -> QuadraticPair:
    """Pair (alpha Gamma_I, beta Gamma_I) with its closed-form spectrum."""
    c = Multivector.blade(dim, mask, alpha)
    d = Multivector.blade(dim, mask, beta)
    sig = blade_square_sign(mask)
    eps = (-1) ** grade(mask)
    on_val = sig * (alpha + eps * beta) ** 2
    off_val = sig * (alpha - eps * beta) ** 2
    predicted = np.array([on_val if (mask >> mu) & 1 else off_val
                          for mu in range(dim)], dtype=complex)
    pair = extract_B(c, d)
    _check_prediction(pair, predicted, "monomial")
    return _tagged(pair, "monomial")


def make_pseudo_monomial(dim: int, mask: int, kind: str, alpha: complex,
                         beta: complex, sign: int = 1, phi: float = 0.0,
                         psi: float = 0.0) -> QuadraticPair:
    """Pseudo-monomial pair on Gamma_I and the volume element, dim even.

    kind="even" takes (alpha + beta vol) Gamma_I with d = sign * c and needs
    grade(I) even; kind="odd" takes the circle family
    (alpha (cos(phi) e^{i psi} + sin(phi) vol) Gamma_I,
     beta (cos(phi) e^{i psi} - sin(phi) vol) Gamma_I) and needs grade(I) odd.
    """
    if dim % 2:
        raise OddDimension("pseudo-monomial pairs need an even dimension")
    k = grade(mask)
    vol = volume_element(dim)
    gi = Multivector.blade(dim, mask)
    sig = blade_square_sign(mask)
    if kind == "even":
        if k % 2:
            raise ParityMismatch("even type needs a blade of even grade")
        if sign not in (1, -1):
            raise InputError("sign must be +1 or -1")
        c = alpha * gi + beta * gp(vol, gi)
        d = sign * c
        on_val = 4 * sig * (alpha ** 2 if sign == 1 else beta ** 2)
        off_val = 4 * sig * (beta ** 2 if sign == 1 else alpha ** 2)
    elif kind == "odd":
        if k % 2 == 0:
            raise ParityMismatch("odd type needs a blade of odd grade")
        ph = complex(np.cos(phi) * np.exp(1j * psi))
        sh = complex(np.sin(phi))
        c = alpha * (ph * gi + sh * gp(vol, gi))
        d = beta * (ph * gi - sh * gp(vol, gi))
        factor = ph * ph - sh * sh       # cos(2 phi) when psi = 0
        on_val = sig * (alpha - beta) ** 2 * factor
        off_val = sig * (alpha + beta) ** 2 * factor
    else:
        raise InputError(f"unknown pseudo-monomial kind {kind!r}")
    predicted = np.array([on_val if (mask >> mu) & 1 else off_val
                          for mu in range(dim)], dtype=complex)
    pair = extract_B(c, d)
    _check_prediction(pair, predicted, f"pseudo-monomial-{kind}")
    return _tagged(pair, f"pseudo-monomial-{kind}")


def skew_to_bivector(s: np.ndarray, dim: int) -> Multivector:
    """Identify a (complex) skew matrix with a grade-2 element."""
    return Multivector(dim, {(1 << mu) | (1 << nu): -0.5 * s[mu, nu]
                             for mu in range(dim) for nu in range(mu + 1, dim)})


def make_linear(b: SymmetricMap) -> QuadraticPair:
    """Linear pair (A, A) realizing B; every nonzero eigenvalue must have
    even multiplicity.  Negative eigenvalues become real rotation blocks of
    the square root, positive ones imaginary blocks."""
    n = b.n
    delta = np.zeros((n, n), dtype=complex)
    for space in b.nonzero_eigenspaces():
        if space.multiplicity % 2:
            raise OddMultiplicity(
                f"eigenvalue {space.value} has odd multiplicity {space.multiplicity}")
        lam = np.sqrt(abs(space.value))
        unit = lam if space.value < 0 else 1j * lam
        pos = space.positions
        for j in range(0, len(pos), 2):
            p, q = pos[j], pos[j + 1]
            delta[p, q] = unit
            delta[q, p] = -unit
    v = b.eigenvectors
    a_skew = v @ delta @ v.T
    a_mv = skew_to_bivector(a_skew, n)
    pair = extract_B(a_mv, a_mv)
    if not pair.verified or np.max(np.abs(pair.B.entries - b.entries)) > \
            threshold(CHECK_TOL, np.max(np.abs(b.entries))):
        raise PredictionMismatch("linear pair does not reproduce the target map")
    return _tagged(pair, "linear")


def linear_pair_from_parts(a0: np.ndarray, a1: np.ndarray) -> QuadraticPair:
    """Pair (A, A) with A = A0 + i A1; the parts must anticommute."""
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    n = a0.shape[0]
    top = max(np.max(np.abs(a0)), np.max(np.abs(a1)))
    skew = threshold(ORTHOGONALITY_TOL, top)
    if np.max(np.abs(a0 + a0.T)) > skew or np.max(np.abs(a1 + a1.T)) > skew:
        raise InputError("linear pair parts must be skew-symmetric")
    if np.max(np.abs(a0 @ a1 + a1 @ a0)) > threshold(CHECK_TOL, top ** 2):
        raise AnticommutationViolated(
            "real and imaginary parts must anticommute as endomorphisms")
    a_mv = skew_to_bivector(a0 + 1j * a1, n)
    return _tagged(extract_B(a_mv, a_mv), "linear")


def _generalized_elements(dim: int, partition: Sequence[int],
                          coeffs: Sequence[complex],
                          hat_coeffs: Sequence[complex]):
    vol = volume_element(dim)
    c = Multivector.zero(dim)
    d = Multivector.zero(dim)
    for mask, ca, ha in zip(partition, coeffs, hat_coeffs):
        gi = Multivector.blade(dim, mask)
        eps = (-1) ** grade(mask)
        c = c + ca * gi + ha * gp(vol, gi)
        d = d + (eps * ca) * gi - (eps * ha) * gp(vol, gi)
    return c, d


def generalized_pattern_error(dim: int, parts: Sequence[int],
                              coeffs: Sequence[complex],
                              hats: Sequence[complex],
                              tol: float) -> Optional[InputError]:
    """The legal-pattern rule of `make_generalized`, stated once.

    Returns the error an illegal pattern raises, None for a legal one.  A
    coefficient counts as nonzero above tol, and the cross constraint, of
    degree two, holds to tol times the largest coefficient.
    """
    odd = [i for i, mask in enumerate(parts) if grade(mask) % 2]
    if len(odd) > 2:
        return IllegalParityPattern("more than two odd parts never verify")
    if dim % 2:
        if any(abs(h) > tol for h in hats):
            return IllegalParityPattern(
                "volume-twisted coefficients are not available in odd dimension")
        return None
    if not odd:
        if any(abs(ca) > tol and abs(h) > tol for ca, h in zip(coeffs, hats)):
            return CoefficientConstraintViolated(
                "a part carries a plain or a hat coefficient, never both")
        return None
    if any(abs(h) > tol for i, h in enumerate(hats) if i not in odd):
        return CoefficientConstraintViolated(
            "even parts must have vanishing hat coefficients here")
    i0, i1 = odd
    top = max(abs(x) for x in list(coeffs) + list(hats))
    if abs(coeffs[i0] * coeffs[i1] - hats[i0] * hats[i1]) > tol * top:
        return CoefficientConstraintViolated(
            "odd parts need c_0 c_1 = hat_c_0 hat_c_1")
    return None


def make_generalized(dim: int, partition: Sequence[int],
                     coeffs: Sequence[complex],
                     hat_coeffs: Optional[Sequence[complex]] = None) -> QuadraticPair:
    """Generalized-monomial pair on a disjoint blade partition of V.

    The sign pattern of d is fixed internally: each plain summand carries
    (-1)^grade, each volume-twisted (hat) summand the opposite sign.  A
    pattern is legal when it has at most two odd parts, no hat coefficients
    in odd dimension, a plain or a hat coefficient (never both) on each part
    when no part is odd, and, with two odd parts, hats only on those two and
    c_0 c_1 = hat_c_0 hat_c_1 (`generalized_pattern_error`, to
    ORTHOGONALITY_TOL relative to the largest coefficient).
    """
    partition = list(partition)
    coeffs = [complex(x) for x in coeffs]
    if hat_coeffs is None:
        hat_coeffs = [0j] * len(partition)
    hat_coeffs = [complex(x) for x in hat_coeffs]
    if len(coeffs) != len(partition) or len(hat_coeffs) != len(partition):
        raise InputError("coefficient lists must match the partition length")
    if not partition:
        return _tagged(extract_B(Multivector.zero(dim), Multivector.zero(dim)),
                       "generalized-monomial")
    union = 0
    for mask in partition:
        if mask == 0:
            raise InputError("partition parts must be nonempty blades")
        if mask & union:
            raise IllegalParityPattern("partition parts must be disjoint")
        union |= mask
    if union != (1 << dim) - 1:
        raise IllegalParityPattern("partition must cover all generators")
    if len(partition) < 2:
        raise InputError("a generalized pair needs at least two parts")
    tol = threshold(ORTHOGONALITY_TOL, max(map(abs, coeffs + hat_coeffs)))
    err = generalized_pattern_error(dim, partition, coeffs, hat_coeffs, tol)
    if err is not None:
        raise err

    c, d = _generalized_elements(dim, partition, coeffs, hat_coeffs)
    predicted = np.zeros(dim, dtype=complex)
    for mask, ca, ha in zip(partition, coeffs, hat_coeffs):
        sig = blade_square_sign(mask)
        val = 4 * sig * (ca * ca - ha * ha) if grade(mask) % 2 else \
            4 * sig * (ca * ca + ha * ha)
        for mu in range(dim):
            if (mask >> mu) & 1:
                predicted[mu] = val
    pair = extract_B(c, d)
    _check_prediction(pair, predicted, "generalized-monomial")
    return _tagged(pair, "generalized-monomial")


# -- classification ----------------------------------------------------------

def _gauge_strip(c: Multivector, d: Multivector):
    s = d.scalar_part
    shift = Multivector.scalar(c.dim, s)
    return c - shift, d - shift


def _is_monomial(c: Multivector, d: Multivector, tol: float) -> bool:
    """(c - s, d - s) = (alpha Gamma_M, beta Gamma_M) over the scalar gauge:
    one non-scalar blade at most, and equal scalars when there is one."""
    support = ({m for m, _ in c.terms()} | {m for m, _ in d.terms()}) - {0}
    return not support or (len(support) == 1
                           and abs(c.scalar_part - d.scalar_part) <= tol)


def _is_linear(c: Multivector, d: Multivector, tol: float) -> bool:
    """Definition of linearity: s_{c,d} maps V into V."""
    n = c.dim
    for mu in range(1, n + 1):
        img = s_map(c, d, Multivector.basis_vector(n, mu))
        for mask, coeff in img.terms():
            if grade(mask) != 1 and abs(coeff) > tol:
                return False
    return True


def _volume_transfer(dim: int, mask: int) -> complex:
    """zeta with vol * Gamma_mask = zeta * Gamma_complement."""
    full = (1 << dim) - 1
    prod = gp(volume_element(dim), Multivector.blade(dim, mask))
    return prod.coefficient(full ^ mask)


def _pseudo_form(c: Multivector, d: Multivector, tol: float):
    n = c.dim
    if n % 2:
        return None
    support = {m for m, _ in c.terms()} | {m for m, _ in d.terms()}
    if not support or 0 in support:
        return None
    full = (1 << n) - 1
    if full in support:
        return None
    masks = sorted(support, key=lambda m: (grade(m), m))
    base = masks[0]
    if any(m not in (base, full ^ base) for m in masks):
        return None
    k = grade(base)
    if k % 2 == 0:
        if (c - d).is_zero(tol) or (c + d).is_zero(tol):
            return "pseudo-monomial-even"
        return None
    ac, bc = c.coefficient(base), c.coefficient(full ^ base)
    ad, bdc = d.coefficient(base), d.coefficient(full ^ base)
    # of degree two: tol times the largest coefficient
    if abs(ac * bdc + ad * bc) <= tol * max(map(abs, (ac, bc, ad, bdc))):
        return "pseudo-monomial-odd"
    return None


def _generalized_form(c: Multivector, d: Multivector, tol: float):
    """Fit the generalized-monomial template; returns the partition or None.

    Each support blade m is a part itself or the volume twist of the part
    full ^ m; the generators left over form one more part.  With
    vol Gamma_P = zeta_P Gamma_{P^c} and eps_P = (-1)^grade(P), every part
    has the closed-form coefficients c_P = (c[P] + eps_P d[P]) / 2 and
    hat_c_P = (c[P^c] - eps_P d[P^c]) / (2 zeta_P), 0 in odd dimension.  A
    fit counts when it is a legal pattern and rebuilds (c, d).
    """
    n = c.dim
    full = (1 << n) - 1
    support = {m for m, _ in c.terms()} | {m for m, _ in d.terms()}
    # Legal patterns have at most n // 2 + 1 parts (even parts have grade >= 2),
    # one blade each plus a hat blade on at most two odd parts: n // 2 + 3.
    if not support or 0 in support or full in support or len(support) > n // 2 + 3:
        return None
    choices = {frozenset()}
    for m in support:
        choices = {parts | {p} for parts in choices for p in (m, full ^ m)
                   if p in parts or not any(p & q for q in parts)}
    for chosen in choices:
        leftover = full ^ sum(chosen)   # the parts are disjoint: sum is union
        parts = sorted(chosen) + ([leftover] if leftover else [])
        eps = [(-1) ** grade(p) for p in parts]
        coeffs = [(c.coefficient(p) + e * d.coefficient(p)) / 2
                  for p, e in zip(parts, eps)]
        hats = [0j] * len(parts) if n % 2 else [
            (c.coefficient(full ^ p) - e * d.coefficient(full ^ p))
            / (2 * _volume_transfer(n, p)) for p, e in zip(parts, eps)]
        if generalized_pattern_error(n, parts, coeffs, hats, tol) is None:
            ct, dt = _generalized_elements(n, parts, coeffs, hats)
            if (c - ct).is_zero(tol) and (d - dt).is_zero(tol):
                return tuple(parts)
    return None


def classify_family(pair: QuadraticPair) -> List[str]:
    """All family tags matching the verified pair, most specific first."""
    if not pair.verified:
        raise InputError("classification needs a verified pair")
    # the templates compare coefficients, of degree one in the pair
    tol = threshold(CHECK_TOL, pair.c.norm() + pair.d.norm())
    c, d = _gauge_strip(pair.c, pair.d)
    tags = []
    if _is_monomial(c, d, tol):
        tags.append("monomial")
    pseudo = _pseudo_form(c, d, tol)
    if pseudo is not None:
        tags.append(pseudo)
    if _is_linear(c, d, tol):
        tags.append("linear")
    if _generalized_form(c, d, tol) is not None:
        tags.append("generalized-monomial")
    if not tags:
        tags = ["other"]
    tags.sort(key=FAMILY_ORDER.index)
    pair.tags = tuple(tags)
    pair.family = tags[0]
    return tags


# -- identities --------------------------------------------------------------

def transpose_relation_check(c: Multivector, d: Multivector) -> float:
    """Max residual of the component symmetry between q_{c,d} and q_{d,c}.

    With true blade coefficients the relation carries the sign
    (-1)^(k(k+1)/2 + l(l+1)/2) for grades k, l (an extra (-1)^(k+l)
    relative to the unsigned-orthogonality derivation).
    """
    n = c.dim
    _check_dim("transpose sweep", n)
    size = 1 << n
    q_cd = [q_map(c, d, Multivector.blade(n, i)) for i in range(size)]
    q_dc = [q_map(d, c, Multivector.blade(n, j)) for j in range(size)]
    worst = 0.0
    for i in range(size):
        ki = grade(i)
        for j in range(size):
            kj = grade(j)
            sign = -1 if ((ki * (ki + 1) // 2) + (kj * (kj + 1) // 2)) % 2 else 1
            worst = max(worst, abs(q_cd[i].coefficient(j) -
                                   sign * q_dc[j].coefficient(i)))
    return worst


def rotate_multivector(a: Multivector, r: np.ndarray) -> Multivector:
    """Algebra map induced by an orthogonal change of basis e_mu -> r[:, mu].

    Gamma_I goes to the product of the images of its generators.  For an
    orthogonal r these are orthonormal, so the product is their wedge,
    sum over |J| = |I| of det(r[J, I]) Gamma_J: column I of the |I|-th
    compound matrix of r.  The minors are built grade by grade by Laplace
    expansion along the last column, det(r[J, I]) = sum over t of
    (-1)^(t + k - 1) r[J_t, I_top] det(r[J - J_t, I - I_top]), only for the
    columns I in the support of a and their prefixes; the largest array is
    one grade's (|J|, columns) table, at most 924 x 924 at n = 12.
    Raises InputError unless r is a finite n x n matrix with
    max |r^T r - I| at most ORTHOGONALITY_TOL (r has unit columns).
    """
    n = a.dim
    r = np.asarray(r, dtype=float)
    if r.shape != (n, n):
        raise InputError(f"a rotation of dimension {n} must be {n} x {n}, "
                         f"got shape {r.shape}")
    if not np.isfinite(r).all():
        raise InputError("rotation entries must be finite")
    deviation = float(np.max(np.abs(r.T @ r - np.eye(n))))
    if not deviation <= ORTHOGONALITY_TOL:
        raise InputError(f"rotation is not orthogonal: max |r^T r - I| = "
                         f"{deviation:.3e} > {ORTHOGONALITY_TOL:g}")
    support: List[dict] = [{} for _ in range(n + 1)]
    for mask, z in a._terms.items():
        support[grade(mask)][mask] = z
    # the columns each grade needs: the support, closed under dropping the
    # top generator
    needed = [set(terms) for terms in support]
    top_grade = max((k for k in range(n + 1) if needed[k]), default=0)
    for k in range(top_grade, 1, -1):
        needed[k - 1].update(m ^ (1 << (m.bit_length() - 1))
                             for m in needed[k])
    out_r = np.zeros(1 << n)
    out_i = np.zeros(1 << n)
    z = a.scalar_part
    out_r[0], out_i[0] = z.real, z.imag
    minors = np.ones((1, 1))          # grade 0: det of the empty matrix
    where = {0: 0}
    for k in range(1, top_grade + 1):
        rows, row_masks, below, signs = _grade_table(n, k)
        cols = sorted(needed[k])
        tops = [m.bit_length() - 1 for m in cols]
        # r[:, I_top] and the grade k - 1 minors on the columns I - I_top
        rt = r[:, tops]
        sub = minors[:, [where[m ^ (1 << t)] for m, t in zip(cols, tops)]]
        minors = np.einsum("t,jtc,jtc->jc", signs, rt[rows], sub[below])
        where = {m: i for i, m in enumerate(cols)}
        if support[k]:
            sel = minors[:, [where[m] for m in support[k]]]
            x = np.array(list(support[k].values()))
            out_r[row_masks] += sel @ x.real
            out_i[row_masks] += sel @ x.imag
    masks = np.flatnonzero((out_r != 0.0) | (out_i != 0.0))
    coeffs = np.empty(len(masks), dtype=complex)
    coeffs.real, coeffs.imag = out_r[masks], out_i[masks]
    return Multivector(n, dict(zip(masks.tolist(), coeffs.tolist())))


@lru_cache(maxsize=None)
def _grade_table(n: int, k: int):
    """The blades of grade k as ascending 0-based positions (lexicographic),
    their masks, below[j, t], the index among the grade k - 1 blades of
    blade j without its position t, and the cofactor signs (-1)^(t + k - 1)
    down a last column; read-only."""
    def positions(g):
        combos = list(itertools.combinations(range(n), g))
        return np.array(combos, dtype=np.intp).reshape(len(combos), g)

    rows = positions(k)
    masks = (1 << rows).sum(axis=1)
    rank = np.zeros(1 << n, dtype=np.intp)
    rank[(1 << positions(k - 1)).sum(axis=1)] = np.arange(math.comb(n, k - 1))
    below = rank[masks[:, None] ^ (1 << rows)]
    signs = np.where(np.arange(k) % 2 == (k - 1) % 2, 1.0, -1.0)
    tables = (rows, masks, below, signs)
    for t in tables:
        t.setflags(write=False)
    return tables
