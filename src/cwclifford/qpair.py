"""Quadratic Clifford pairs: the maps s and q, verification, constructors.

A pair (c, d) is verified when x -> c^2 x + x d^2 - 2 c x d maps the
grade-1 subspace to itself and restricts there to a real symmetric
endomorphism B.  Constructors for the monomial, pseudo-monomial, linear
and generalized-monomial families attach their closed-form spectra and
check them against direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (Multivector, _check_dim, blade_square_sign, gp, grade,
                   volume_element)
from .errors import (AnticommutationViolated, CoefficientConstraintViolated,
                     DimensionMismatch, IllegalParityPattern, InputError,
                     OddDimension, OddMultiplicity, ParityMismatch,
                     PredictionMismatch)

VERIFY_TOL_FACTOR = 1e-9
CLUSTER_TOL = 1e-8

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


def verify_tolerance(c: Multivector, d: Multivector,
                     factor: float = VERIFY_TOL_FACTOR) -> float:
    return factor * (1.0 + c.norm() * d.norm())


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

    @staticmethod
    def from_matrix(entries, cluster_tol: float = CLUSTER_TOL) -> "SymmetricMap":
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("symmetric map entries must form a square matrix")
        n = m.shape[0]
        scale = 1.0 + np.max(np.abs(m))
        if np.max(np.abs(m - m.T)) > 1e-9 * scale:
            raise InputError("matrix is not symmetric")
        m = 0.5 * (m + m.T)
        vals, vecs = np.linalg.eigh(m)
        tol = cluster_tol * max(np.max(np.abs(vals)), 1e-300) if np.any(vals) else cluster_tol
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
        """True when the eigenbasis is the standard basis (no rotation)."""
        return bool(np.max(np.abs(self.eigenvectors - np.eye(self.n))) <= 1e-14)

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
    predicted_diagonal: Optional[np.ndarray] = None

    @property
    def verified(self) -> bool:
        return self.status == STATUS_VERIFIED


def q_restriction_matrix(c: Multivector, d: Multivector):
    """Matrix of q on V (column mu holds q(e_mu)) plus the off-grade residual."""
    if c.dim != d.dim:
        raise DimensionMismatch("pair elements live in different dimensions")
    n = c.dim
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
              tol_factor: float = VERIFY_TOL_FACTOR) -> QuadraticPair:
    """Verify the pair and extract its symmetric map, status-encoded."""
    m, offgrade = q_restriction_matrix(c, d)
    tol = verify_tolerance(c, d, tol_factor)
    if offgrade > tol:
        return QuadraticPair(c, d, STATUS_NOT_CLOSED, q_matrix=m,
                             offgrade_residual=offgrade)
    if np.max(np.abs(m.imag)) > tol or np.max(np.abs(m - m.T)) > tol:
        return QuadraticPair(c, d, STATUS_NOT_SYMMETRIC, q_matrix=m,
                             offgrade_residual=offgrade)
    b = SymmetricMap.from_matrix(0.5 * (m.real + m.real.T))
    return QuadraticPair(c, d, STATUS_VERIFIED, B=b, q_matrix=m,
                         offgrade_residual=offgrade)


def _check_prediction(pair: QuadraticPair, predicted: np.ndarray,
                      what: str) -> None:
    """Constructors promise a diagonal q|_V; enforce it on the raw matrix."""
    tol = verify_tolerance(pair.c, pair.d)
    m = pair.q_matrix
    off = m - np.diag(np.diag(m))
    err = max(np.max(np.abs(np.diag(m) - predicted)), np.max(np.abs(off)),
              pair.offgrade_residual)
    if err > tol:
        raise PredictionMismatch(f"{what}: predicted spectrum off by {err:.3e}")
    pair.predicted_diagonal = predicted


# -- constructors ------------------------------------------------------------

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
    pair.family = "monomial"
    pair.tags = ("monomial",)
    return pair


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
    pair.family = f"pseudo-monomial-{kind}"
    pair.tags = (pair.family,)
    return pair


def skew_to_bivector(s: np.ndarray, dim: int) -> Multivector:
    """Identify a (complex) skew matrix with a grade-2 element."""
    terms = {}
    for mu in range(dim):
        for nu in range(mu + 1, dim):
            coeff = -0.5 * s[mu, nu]
            if coeff:
                terms[(1 << mu) | (1 << nu)] = terms.get((1 << mu) | (1 << nu), 0j) + coeff
    return Multivector(dim, terms)


def make_linear(b: SymmetricMap) -> QuadraticPair:
    """Linear pair (A, A) realizing B; every nonzero eigenvalue must have
    even multiplicity.  Negative eigenvalues become real rotation blocks of
    the square root, positive ones imaginary blocks."""
    n = b.n
    scale = max(np.max(np.abs(b.eigenvalues)), 1.0)
    delta = np.zeros((n, n), dtype=complex)
    for space in b.eigenspaces:
        if abs(space.value) <= CLUSTER_TOL * scale:
            continue
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
            verify_tolerance(a_mv, a_mv) + 1e-9 * scale:
        raise PredictionMismatch("linear pair does not reproduce the target map")
    pair.family = "linear"
    pair.tags = ("linear",)
    return pair


def linear_pair_from_parts(a0: np.ndarray, a1: np.ndarray) -> QuadraticPair:
    """Pair (A, A) with A = A0 + i A1; the parts must anticommute."""
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    n = a0.shape[0]
    scale = 1.0 + max(np.max(np.abs(a0)), np.max(np.abs(a1))) ** 2
    if np.max(np.abs(a0 + a0.T)) > 1e-12 * scale or \
       np.max(np.abs(a1 + a1.T)) > 1e-12 * scale:
        raise InputError("linear pair parts must be skew-symmetric")
    if np.max(np.abs(a0 @ a1 + a1 @ a0)) > 1e-9 * scale:
        raise AnticommutationViolated(
            "real and imaginary parts must anticommute as endomorphisms")
    a_mv = skew_to_bivector(a0 + 1j * a1, n)
    pair = extract_B(a_mv, a_mv)
    pair.family = "linear"
    pair.tags = ("linear",)
    return pair


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


def make_generalized(dim: int, partition: Sequence[int],
                     coeffs: Sequence[complex],
                     hat_coeffs: Optional[Sequence[complex]] = None) -> QuadraticPair:
    """Generalized-monomial pair on a disjoint blade partition of V.

    The sign pattern of d is fixed internally: each plain summand carries
    (-1)^grade, each volume-twisted summand the opposite sign.  Legal parity
    patterns: all parts even; exactly one odd part (odd dimension, no
    volume-twisted coefficients); or exactly two odd parts (even dimension)
    with hat coefficients vanishing on the even parts and
    c_0 c_1 = hat_c_0 hat_c_1 across the two odd ones.
    """
    partition = list(partition)
    coeffs = [complex(x) for x in coeffs]
    if hat_coeffs is None:
        hat_coeffs = [0j] * len(partition)
    hat_coeffs = [complex(x) for x in hat_coeffs]
    if len(coeffs) != len(partition) or len(hat_coeffs) != len(partition):
        raise InputError("coefficient lists must match the partition length")
    if not partition:
        pair = extract_B(Multivector.zero(dim), Multivector.zero(dim))
        pair.family = "generalized-monomial"
        pair.tags = (pair.family,)
        return pair
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

    odd = [i for i, mask in enumerate(partition) if grade(mask) % 2]
    if len(odd) == 0:
        pass
    elif len(odd) == 1:
        if dim % 2 == 0:
            raise IllegalParityPattern("one odd part forces an odd dimension")
        if any(abs(h) > 0 for h in hat_coeffs):
            raise IllegalParityPattern(
                "volume-twisted coefficients are not available in odd dimension")
    elif len(odd) == 2:
        if dim % 2:
            raise IllegalParityPattern("two odd parts force an even dimension")
        for i, h in enumerate(hat_coeffs):
            if i not in odd and abs(h) > 0:
                raise CoefficientConstraintViolated(
                    "even parts must have vanishing hat coefficients here")
        i0, i1 = odd
        if abs(coeffs[i0] * coeffs[i1] - hat_coeffs[i0] * hat_coeffs[i1]) > 1e-12 * (
                1.0 + max(abs(x) for x in coeffs + hat_coeffs) ** 2):
            raise CoefficientConstraintViolated(
                "odd parts need c_0 c_1 = hat_c_0 hat_c_1")
    else:
        raise IllegalParityPattern("more than two odd parts never verify")

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
    pair.family = "generalized-monomial"
    pair.tags = (pair.family,)
    return pair


# -- classification ----------------------------------------------------------

def _gauge_strip(c: Multivector, d: Multivector):
    s = d.scalar_part
    shift = Multivector.scalar(c.dim, s)
    return c - shift, d - shift


def _single_blade(a: Multivector):
    terms = list(a.terms())
    if not terms:
        return 0, 0j
    if len(terms) == 1:
        return terms[0]
    return None


def _monomial_form(c: Multivector, d: Multivector, tol: float):
    """Fit (c - s, d - s) = (alpha Gamma_M, beta Gamma_M) over the scalar gauge."""
    gc, gd = c.scalar_part, d.scalar_part
    cp = c - Multivector.scalar(c.dim, gc)
    dp = d - Multivector.scalar(c.dim, gd)
    if cp.is_zero() and dp.is_zero():
        return 0, gc - gd, 0j
    if cp.is_zero():
        sd = _single_blade(dp)
        if sd is not None and abs(gc - gd) <= tol:
            return sd[0], 0j, sd[1]
        return None
    if dp.is_zero():
        sc = _single_blade(cp)
        if sc is not None and abs(gc - gd) <= tol:
            return sc[0], sc[1], 0j
        return None
    sc = _single_blade(cp)
    sd = _single_blade(dp)
    if sc is None or sd is None:
        return None
    (mc, ac), (md, bd) = sc, sd
    if mc != md or abs(gc - gd) > tol:
        return None
    return mc, ac, bd


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
            return "pseudo-monomial-even", base
        return None
    ac, bc = c.coefficient(base), c.coefficient(full ^ base)
    ad, bdc = d.coefficient(base), d.coefficient(full ^ base)
    scale = 1.0 + max(abs(ac), abs(bc), abs(ad), abs(bdc)) ** 2
    if abs(ac * bdc + ad * bc) <= tol * scale:
        return "pseudo-monomial-odd", base
    return None


def _generalized_form(c: Multivector, d: Multivector, tol: float):
    """Fit the generalized-monomial template; returns the partition or None.

    Each support blade is either a part itself or the volume twist of the
    complementary part; all consistent assignments are tried and the
    template d is rebuilt from the fitted coefficients for comparison.
    """
    n = c.dim
    full = (1 << n) - 1
    support = sorted({m for m, _ in c.terms()} | {m for m, _ in d.terms()},
                     key=lambda m: (grade(m), m))
    if not support or 0 in support or full in support or len(support) > 10:
        return None

    def assignments(idx, parts):
        if idx == len(support):
            yield dict(parts)
            return
        m = support[idx]
        for part, role in ((m, "plain"), (full ^ m, "hat")):
            if role == "hat" and n % 2:
                continue
            taken = parts.get(part)
            if any(p != part and (p & part) for p in parts):
                continue
            if taken is not None and role in taken:
                continue
            entry = dict(taken or {})
            entry[role] = m
            parts[part] = entry
            ok = all(not (part & p) or p == part for p in parts)
            if ok:
                yield from assignments(idx + 1, parts)
            if taken is None:
                del parts[part]
            else:
                parts[part] = taken
        return

    for assign in assignments(0, {}):
        union = 0
        for p in assign:
            union |= p
        leftover = full ^ union
        parts = sorted(assign) + ([leftover] if leftover else [])
        if len(parts) < 2:
            continue
        coeffs, hats = [], []
        for mask in parts:
            roles = assign.get(mask, {})
            ca = c.coefficient(roles["plain"]) if "plain" in roles else 0j
            ha = c.coefficient(roles["hat"]) / _volume_transfer(n, mask) \
                if "hat" in roles else 0j
            coeffs.append(ca)
            hats.append(ha)
        odd = [m for m in parts if grade(m) % 2]
        if len(odd) > 2 or (len(odd) % 2) != (n % 2):
            continue
        if n % 2 and any(abs(h) > 0 for h in hats):
            continue
        if len(odd) == 2:
            bad = False
            for mask, h in zip(parts, hats):
                if grade(mask) % 2 == 0 and abs(h) > tol:
                    bad = True
            i0, i1 = (parts.index(m) for m in odd)
            scale = 1.0 + max(abs(x) for x in coeffs + hats) ** 2
            if abs(coeffs[i0] * coeffs[i1] - hats[i0] * hats[i1]) > tol * scale:
                bad = True
            if bad:
                continue
        ct, dt = _generalized_elements(n, parts, coeffs, hats)
        if (c - ct).is_zero(tol) and (d - dt).is_zero(tol):
            return tuple(parts)
    return None


def classify_family(pair: QuadraticPair) -> List[str]:
    """All family tags matching the verified pair, most specific first."""
    if not pair.verified:
        raise InputError("classification needs a verified pair")
    tol = verify_tolerance(pair.c, pair.d)
    c, d = _gauge_strip(pair.c, pair.d)
    tags = []
    if _monomial_form(c, d, tol) is not None:
        tags.append("monomial")
    pseudo = _pseudo_form(c, d, tol)
    if pseudo is not None:
        tags.append(pseudo[0])
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
    """Algebra map induced by an orthogonal change of basis e_mu -> r[:, mu]."""
    n = a.dim
    images = [Multivector.from_vector(n, r[:, mu]) for mu in range(n)]
    out = Multivector.zero(n)
    for mask, coeff in a.terms():
        word = Multivector.scalar(n, coeff)
        for mu in range(n):
            if (mask >> mu) & 1:
                word = gp(word, images[mu])
        out = out + word
    return out
