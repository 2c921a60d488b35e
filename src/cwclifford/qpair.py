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
                   Multivector, _cross_sums, _element, _kept, _pair_rows,
                   _sign_tables, _volume_twist, blade_square_sign, gp, grade,
                   threshold, verdict_threshold)
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
    """Real symmetric matrix with a clustered eigenspace decomposition.

    from_matrix validates and symmetrizes the entries up front; the spectrum
    (eigenvalues, eigenvectors, eigenspaces) comes from one eigh and one
    clustering pass on first use, so a map whose spectrum no caller reads,
    such as the B of most verified pairs, costs only its validation."""

    n: int
    entries: np.ndarray
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
        if np.max(np.abs(m - m.T)) > threshold(CHECK_TOL, np.max(np.abs(m))):
            raise InputError("matrix is not symmetric")
        return SymmetricMap(m.shape[0], 0.5 * (m + m.T))

    @cached_property
    def _spectrum(self) -> Tuple[np.ndarray, np.ndarray, List[Eigenspace]]:
        """eigh of the entries, eigenvalues within CLUSTER_TOL max |lambda|
        of their neighbour clustered into eigenspaces."""
        n = self.n
        vals, vecs = np.linalg.eigh(self.entries)
        tol = threshold(CLUSTER_TOL, np.max(np.abs(vals)))
        spaces: List[Eigenspace] = []
        start = 0
        for i in range(1, n + 1):
            if i == n or vals[i] - vals[i - 1] > tol:
                spaces.append(Eigenspace(
                    value=float(np.mean(vals[start:i])),
                    multiplicity=i - start,
                    basis=vecs[:, start:i],
                    positions=tuple(range(start, i)),
                    mask=(1 << i) - (1 << start)))
                start = i
        return vals, vecs, spaces

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._spectrum[1]

    @property
    def eigenspaces(self) -> List[Eigenspace]:
        return self._spectrum[2]

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
    """Whether q_restriction_matrix reads q(e_mu) off the parity form
    `_q_parity`, not `q_map`, and closing_identities sums in arrays, not
    dict loops: |c| |d| > max(64, 2^(n - 2)) in term counts.  The arrays
    have a fixed cost of about n 2^n (q) and n^2 2^n (closing) entries per
    call; measured per call on random pairs of k x k terms, dict form
    against arrays, in microseconds (CHANGES.md): q 339 / 243 and closing
    342 / 307 at n = 4, k = 8; q 1059 / 354 and closing 1507 / 1355 at
    n = 8, k = 8; closing 4180 / 3966 at n = 9, k = 12 and 8003 / 8087 at
    n = 10, k = 16; q 6613 / 7188 at n = 12, k = 12."""
    return len(c._terms) * len(d._terms) > max(64, 1 << c.dim >> 2)


@lru_cache(maxsize=None)
def _e_signs(n: int):
    """Read-only (n, 2^n) sign tables of the blades x of dimension n:
    Gamma_x e_mu = right[mu - 1, x] Gamma_(x ^ m_mu) and e_mu Gamma_x =
    left[mu - 1, x] Gamma_(x ^ m_mu), m_mu the mask of e_mu, which are
    blade_mul's signs flip[m_mu & w(x)] and flip[x & (2 m_mu - 1)]."""
    w, flip = _sign_tables(n)
    bit = 1 << np.arange(n)[:, None]
    tables = flip[bit & w], flip[(2 * bit - 1) & np.arange(1 << n)]
    for t in tables:
        t.setflags(write=False)
    return tables


@np.errstate(over="ignore", invalid="ignore")   # _kept raises on it
def _q_parity(c: Multivector, d: Multivector):
    """(re, im, top): q(e_mu) = sum_K X[mu - 1, K] Gamma_(K ^ m_mu), m_mu
    the mask of e_mu, X as (n, 2^n) real and imaginary parts, with the
    values of `q_map`'s terms (a zero's sign aside) and 0.0 where it has
    none, and each image's largest size; raises OverflowError where
    `q_map` does.

    By the parity rule, X_mu = c^2 + eps_mu(d^2) - 2 c eps_mu(d) with
    eps_mu(x) = e_mu x e_mu^-1 a resigning of the terms of x: the products
    of c^2 e_mu, e_mu d^2 and c (e_mu d) are those of c^2, d^2 and the
    cross table c_I d_J, the same for every mu, signed by `_e_signs`.  The
    cross table is formed once and summed for every mu in gp's loop order
    (`_cross_sums`); each of q_map's cuts is made on these sums: e_mu d at
    PRUNE_EPS |d|, c^2 e_mu at PRUNE_EPS |c^2|, e_mu d^2 at PRUNE_EPS
    |d^2|, c (e_mu d) at PRUNE_EPS |c| |d|, 2 c (e_mu d) by the raw-terms
    cut, the sum of the first two and then the difference at PRUNE_EPS
    times their operands' largest size."""
    n = c.dim
    right, left = _e_signs(n)
    pool, (ci, dj), kept, squares = _pair_rows(c, d)
    # c^2 and d^2 at gp's cut, then at those of c^2 e_mu and e_mu d^2
    sq_re, sq_im, sq_size = _kept(
        *squares, [PRUNE_EPS * x._top * x._top for x in (c, d)], own=True)
    dj = dj[kept[dj]]
    cross = _kept(*_cross_sums(pool, ci, pool, dj, right[:, pool.blade[ci]],
                               left[:, pool.blade[dj]], n),
                  PRUNE_EPS * c._top * d._top)
    twice = _kept(2.0 * cross[0], 2.0 * cross[1], 0.0, own=True)
    s = _kept(right * sq_re[0] + left * sq_re[1],
              right * sq_im[0] + left * sq_im[1], PRUNE_EPS * sq_size.max())
    re, im, size = _kept(s[0] - twice[0], s[1] - twice[1],
                         PRUNE_EPS * np.maximum(s[2].max(1), twice[2].max(1)))
    return re, im, size.max(1)


def q_restriction_matrix(c: Multivector, d: Multivector):
    """Matrix of q on V (column mu holds q(e_mu)) plus the off-grade residual.

    A dense pair (`_dense_pair`) takes q(e_mu) from `_q_parity`, the
    others from the gp loop below; both give the same bits."""
    if c.dim != d.dim:
        raise DimensionMismatch("pair elements live in different dimensions")
    n = c.dim
    m = np.zeros((n, n), dtype=complex)
    if _dense_pair(c, d):
        re, im, _ = _q_parity(c, d)
        # q(e_mu) has e_nu at K = m_mu | m_nu and e_mu at K = 0
        mu = np.arange(n)
        at = mu[:, None], (1 << mu)[:, None] | (1 << mu)
        at[1][mu, mu] = 0
        # "0.0 +" turns a negative zero into gp's positive one
        m.real[:], m.imag[:] = 0.0 + re[at].T, 0.0 + im[at].T
        size = np.hypot(re, im)
        size[at] = 0.0
        return m, float(size.max())
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
    finite and positive and on a nonzero pair whose threshold falls below
    the smallest normal double, where q underflows;
    OverflowError when q overflows on the pair.
    """
    tol = verdict_threshold(tol_factor, c.norm() + d.norm(), 2)
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


# -- constructors ------------------------------------------------------------

def _tagged(pair: QuadraticPair, family: str) -> QuadraticPair:
    """Name the constructor's family on the pair, only if it verifies."""
    if pair.verified:
        pair.family = family
        pair.tags = (family,)
    return pair


def _constructed(c: Multivector, d: Multivector, family: str,
                 spectrum) -> QuadraticPair:
    """The verified, tagged pair of a constructor that promises a diagonal
    q|_V: spectrum lists (blade mask, value) parts, the value sitting at
    every generator of the mask.  The promise is enforced on the raw
    matrix, to the threshold the pair was verified against."""
    pair = extract_B(c, d)
    predicted = np.zeros(c.dim, dtype=complex)
    for mask, value in spectrum:
        predicted[(mask >> np.arange(c.dim)) & 1 == 1] = value
    m = pair.q_matrix
    off = m - np.diag(np.diag(m))
    err = max(np.max(np.abs(np.diag(m) - predicted)), np.max(np.abs(off)),
              pair.offgrade_residual)
    if err > pair.threshold:
        raise PredictionMismatch(f"{family}: predicted spectrum off by {err:.3e}")
    pair.predicted_diagonal = predicted
    return _tagged(pair, family)


def make_monomial(dim: int, mask: int, alpha: complex,
                  beta: complex) -> QuadraticPair:
    """Pair (alpha Gamma_I, beta Gamma_I) with its closed-form spectrum."""
    c = Multivector.blade(dim, mask, alpha)
    d = Multivector.blade(dim, mask, beta)
    sig = blade_square_sign(mask)
    eps = (-1) ** grade(mask)
    full = (1 << dim) - 1
    return _constructed(c, d, "monomial",
                        [(mask, sig * (alpha + eps * beta) ** 2),
                         (full ^ mask, sig * (alpha - eps * beta) ** 2)])


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
    gi = Multivector.blade(dim, mask)
    vg = _volume_twist(gi)
    sig = blade_square_sign(mask)
    if kind == "even":
        if k % 2:
            raise ParityMismatch("even type needs a blade of even grade")
        if sign not in (1, -1):
            raise InputError("sign must be +1 or -1")
        c = alpha * gi + beta * vg
        d = sign * c
        on_val = 4 * sig * (alpha ** 2 if sign == 1 else beta ** 2)
        off_val = 4 * sig * (beta ** 2 if sign == 1 else alpha ** 2)
    elif kind == "odd":
        if k % 2 == 0:
            raise ParityMismatch("odd type needs a blade of odd grade")
        ph = complex(np.cos(phi) * np.exp(1j * psi))
        sh = complex(np.sin(phi))
        c = alpha * (ph * gi + sh * vg)
        d = beta * (ph * gi - sh * vg)
        factor = ph * ph - sh * sh       # cos(2 phi) when psi = 0
        on_val = sig * (alpha - beta) ** 2 * factor
        off_val = sig * (alpha + beta) ** 2 * factor
    else:
        raise InputError(f"unknown pseudo-monomial kind {kind!r}")
    return _constructed(c, d, f"pseudo-monomial-{kind}",
                        [(mask, on_val), (((1 << dim) - 1) ^ mask, off_val)])


def skew_to_bivector(s: np.ndarray, dim: int) -> Multivector:
    """Identify a (complex) skew matrix with a grade-2 element."""
    return Multivector(dim, {(1 << mu) | (1 << nu): -0.5 * s[mu, nu]
                             for mu in range(dim) for nu in range(mu + 1, dim)})


def make_linear(b: SymmetricMap) -> QuadraticPair:
    """Linear pair (A, A) realizing B; every nonzero eigenvalue must have
    even multiplicity.  Negative eigenvalues become real rotation blocks of
    the square root, positive ones imaginary blocks.  The pair realizes B's
    clustered spectrum, each eigenspace at its mean value and those zero to
    CLUSTER_TOL at 0, so its map may differ from B by about CLUSTER_TOL
    max |B|; search_pairs_for_B drops such a pair as no hit."""
    n = b.n
    delta = np.zeros((n, n), dtype=complex)
    spectrum = np.zeros(n)
    for space in b.nonzero_eigenspaces():
        if space.multiplicity % 2:
            raise OddMultiplicity(
                f"eigenvalue {space.value} has odd multiplicity {space.multiplicity}")
        lam = np.sqrt(abs(space.value))
        unit = lam if space.value < 0 else 1j * lam
        pos = space.positions
        spectrum[list(pos)] = space.value
        for j in range(0, len(pos), 2):
            p, q = pos[j], pos[j + 1]
            delta[p, q] = unit
            delta[q, p] = -unit
    v = b.eigenvectors
    a_skew = v @ delta @ v.T
    a_mv = skew_to_bivector(a_skew, n)
    pair = extract_B(a_mv, a_mv)
    predicted = (v * spectrum) @ v.T
    if not pair.verified or np.max(np.abs(pair.B.entries - predicted)) > \
            threshold(CHECK_TOL, np.max(np.abs(b.entries))):
        raise PredictionMismatch("linear pair does not reproduce its spectrum")
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
    """c = sum_P c_P Gamma_P + hat_c_P vol Gamma_P and d = sum_P eps_P (c_P
    Gamma_P - hat_c_P vol Gamma_P), eps_P = (-1)^grade(P), in one pass with
    no product (vol Gamma_P by `_volume_twist`); a term at most PRUNE_EPS
    times the largest coefficient is cut."""
    c, d, top = {}, {}, 0.0
    for mask, ca, ha in zip(partition, coeffs, hat_coeffs):
        (twin, zeta), = _volume_twist(Multivector.blade(dim, mask)).terms()
        eps = (-1) ** grade(mask)
        top = max(top, abs(ca), abs(ha))
        for k, zc, zd in ((mask, ca, eps * ca),
                          (twin, zeta * ha, -zeta * (eps * ha))):
            if zc:
                c[k], d[k] = c.get(k, 0j) + zc, d.get(k, 0j) + zd
    cut = PRUNE_EPS * top
    return _element(dim, c, cut), _element(dim, d, cut)


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
    return _constructed(c, d, "generalized-monomial", [
        (mask, 4 * blade_square_sign(mask)
         * (ca * ca - ha * ha if grade(mask) % 2 else ca * ca + ha * ha))
        for mask, ca, ha in zip(partition, coeffs, hat_coeffs)])


# -- classification ----------------------------------------------------------

def _gauge_strip(c: Multivector, d: Multivector):
    shift = Multivector.scalar(c.dim, d.scalar_part)
    return c - shift, d - shift


def _is_monomial(c: Multivector, d: Multivector, support,
                 tol: float) -> bool:
    """(c - s, d - s) = (alpha Gamma_M, beta Gamma_M) over the scalar gauge:
    one non-scalar blade at most, and equal scalars when there is one."""
    blades = support - {0}
    return not blades or (len(blades) == 1
                          and abs(c.scalar_part - d.scalar_part) <= tol)


def _is_linear(c: Multivector, d: Multivector, tol: float) -> bool:
    """Definition of linearity: s_{c,d} maps V into V, with no product, as
    s(e_mu) = sum_J (c_J - sigma_mu(J) d_J) Gamma_J e_mu (`_sandwich`)."""
    cs, ds = c._terms, d._terms
    for j in cs.keys() | ds.keys():
        zc, zd, odd = cs.get(j, 0j), ds.get(j, 0j), j.bit_count() & 1
        for mu in range(c.dim):
            k = j ^ 1 << mu
            if (k & (k - 1) or not k) and abs(
                    zc + zd if odd ^ (j >> mu & 1) else zc - zd) > tol:
                return False
    return True


def _pseudo_form(c: Multivector, d: Multivector, support, tol: float):
    full = (1 << c.dim) - 1
    if c.dim % 2 or not support or 0 in support or full in support:
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


def _generalized_form(c: Multivector, d: Multivector, support,
                      tol: float):
    """Fit the generalized-monomial template; returns the partition or None.

    Each support blade m is a part itself or the volume twist of the part
    full ^ m; the generators left over form one more part.  With eps_P =
    (-1)^grade(P), every part has the closed-form coefficients c_P = (c[P]
    + eps_P d[P]) / 2 and hat_c_P = ((vol c)[P] - eps_P (vol d)[P]) / 2, 0
    in odd dimension (`_volume_twist`; vol^2 = 1).  A fit counts when it is
    a legal pattern and rebuilds (c, d); neither forms a product.
    """
    n = c.dim
    full = (1 << n) - 1
    # Legal patterns have at most n // 2 + 1 parts (even parts have grade >= 2),
    # one blade each plus a hat blade on at most two odd parts: n // 2 + 3.
    if not support or 0 in support or full in support or len(support) > n // 2 + 3:
        return None
    tc, td = _volume_twist(c), _volume_twist(d)
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
            (tc.coefficient(p) - e * td.coefficient(p)) / 2
            for p, e in zip(parts, eps)]
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
    tol = verdict_threshold(CHECK_TOL, pair.c.norm() + pair.d.norm())
    c, d = _gauge_strip(pair.c, pair.d)
    # the blades of the stripped pair, which the templates fit
    support = {m for m, _ in c.terms()} | {m for m, _ in d.terms()}
    tags = []
    if _is_monomial(c, d, support, tol):
        tags.append("monomial")
    pseudo = _pseudo_form(c, d, support, tol)
    if pseudo is not None:
        tags.append(pseudo)
    if _is_linear(c, d, tol):
        tags.append("linear")
    if _generalized_form(c, d, support, tol) is not None:
        tags.append("generalized-monomial")
    if not tags:
        tags = ["other"]
    tags.sort(key=FAMILY_ORDER.index)
    pair.tags = tuple(tags)
    pair.family = tags[0]
    return tags


# -- change of basis ---------------------------------------------------------

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
