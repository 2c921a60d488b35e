"""Constructive search for pairs realizing a target map, and the exhaustive
two-monomial case analysis.

The two-monomial ansatz c = (alpha G_I + beta G_J) G_K,
d = (alpha' G_I + beta' G_J) G_K closes on V exactly when the coefficient
products (ab, a'b', ab', a'b) solve a small homogeneous sign system whose
rows depend only on which index regions are populated and on the grade
parities.  Solving those systems exactly over the rationals reproduces the
case taxonomy of the non-monomial families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (CHECK_TOL, Multivector, _check_dim, blade_indices,
                   blade_square_sign, gp, grade, verdict_threshold)
from .errors import InputError

if TYPE_CHECKING:   # search_pairs_for_B imports qpair when it runs
    from .qpair import QuadraticPair, SymmetricMap

ANSAETZE = ("monomial", "pseudo-monomial", "linear", "generalized", "all")


# -- exact linear algebra over Q ----------------------------------------------

def _rref(rows: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Q of rows with 4 columns, and the
    pivot columns (their count is the rank)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: List[int] = []
    for col in range(4):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def _nullspace(rows: Sequence[Sequence[int]]) -> List[Tuple[Fraction, ...]]:
    m, pivots = _rref(rows)
    basis = []
    free = [cidx for cidx in range(4) if cidx not in pivots]
    for fc in free:
        vec = [Fraction(0)] * 4
        vec[fc] = Fraction(1)
        for idx, pc in enumerate(pivots):
            vec[pc] = -m[idx][fc]
        basis.append(tuple(vec))
    return basis


# the coefficient-product templates, (ab, a'b', ab', a'b) each
_TEMPLATES = {
    "alpha-equal": ((1, 0, 0, 1), (0, 1, 1, 0)),
    "beta-flip": ((1, 0, -1, 0), (0, 1, 0, -1)),
    "beta-equal": ((1, 0, 1, 0), (0, 1, 0, 1)),
    "circle": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, -1)),
    "volume-fold": ((1, -1, 0, 0), (0, 0, 1, -1)),
}
# templates named only when they span the whole kernel
_SPANNING = ("circle", "volume-fold")


# -- the sign systems ---------------------------------------------------------

_THETA_ROWS = ((1, -1, 1), (-1, 1, 1), (1, 1, 1), (1, 1, -1))


def sign_system(i: int, j: int, k: int, comp: int) -> List[List[int]]:
    """Rows of the closure system for the populated index regions.

    Row order: mu in J, mu in I, mu outside everything, mu in K (present
    rows only).  Columns order the products (ab, a'b', ab', a'b); entries
    are divided by the common factor 2.
    """
    pi, pj, pk = i % 2, j % 2, k % 2
    a2 = ((-1) ** (pj * pk) + (-1) ** (pi * pk + pi * pj)) // 2
    present = (j > 0, i > 0, comp > 0, k > 0)
    rows = []
    for (ti, tj, tk), here in zip(_THETA_ROWS, present):
        if not here:
            continue
        rows.append([
            a2,
            a2 * (-1) ** (pi + pj) * ti * tj,
            (-1) ** ((pj + 1) * (pk + 1)) * tj * tk,
            (-1) ** ((pi + 1) * (pk + 1) + pi * pj) * ti * tk,
        ])
    return rows


def _case_label(i: int, j: int, k: int, comp: int) -> str:
    if i > 0:
        if k > 0:
            return "1a" if comp else "2a"
        return "1b" if comp else "2b"
    if k > 0:
        return "3a" if comp else "4a"
    return "3b" if comp else "4b"


_FOLD_TARGET = {"2a": "1b", "2b": "monomial", "4a": "3b", "4b": "scalars"}


def _line_names(lam: int, mu: int, i: int, j: int, k: int) -> List[str]:
    names = []
    bi = (-1) ** ((i + k) % 2)
    bj = (-1) ** ((j + k) % 2)
    if (lam, mu) == (bi, bj):
        names.append("d=c_bar")
    if (lam, mu) == (-bi, -bj):
        names.append("d=-c_bar")
    if (lam, mu) == (bi, -bj):
        names.append("d=c_bar_flipJ")
    if (lam, mu) == (-bi, bj):
        names.append("d=-c_bar_flipJ")
    if (lam, mu) == (1, 1):
        names.append("d=c")
    if (lam, mu) == (-1, -1):
        names.append("d=-c")
    return names


def _classify_kernel(rows, kernel, i, j, k):
    """The verdict, the lines and the template names of a shape.  kernel is
    the null space of the integer sign rows, so vectors lie in it when every
    row annihilates them, and independent ones span it when there are
    len(kernel) of them."""
    def inside(*vectors) -> bool:
        return all(sum(r * v for r, v in zip(row, vec)) == 0
                   for row in rows for vec in vectors)

    if all(vec[2] == vec[3] == 0 for vec in kernel):
        return "monomial-only", [], []
    lines: List[Tuple[int, int]] = []
    names: List[str] = []
    for lam in (1, -1):
        for mu in (1, -1):
            if inside((1, lam * mu, mu, lam)):
                lines.append((lam, mu))
                names += [name for name in _line_names(lam, mu, i, j, k)
                          if name not in names]
    names += [name for name, vectors in _TEMPLATES.items()
              if inside(*vectors)
              and (name not in _SPANNING or len(vectors) == len(kernel))]
    return "non-monomial", lines, names


@dataclass
class ShapeCase:
    case: str
    sizes: Dict[str, int]
    parities: Tuple[int, int, int]
    rows: List[List[int]]
    kernel: List[Tuple[int, ...]]
    verdict: str
    lines: List[Tuple[int, int]]
    templates: List[str]
    fold: Optional[str]
    single_condition: int
    admits_single: bool


def _integerize(vec: Sequence[Fraction]) -> Tuple[int, ...]:
    den = 1
    for x in vec:
        den = den * x.denominator // math.gcd(den, x.denominator)
    return tuple(int(x * den) for x in vec)


def enumerate_two_monomial_cases(n: int) -> List[ShapeCase]:
    """Exhaustive sweep of two-monomial shapes, n inside the case-sweep
    limit of core.DIM_LIMITS.

    Shapes are canonicalized so that grade(I) <= grade(J) and an empty slot
    is always I; pairs with both slots empty are a single monomial and are
    skipped.  Complement-free shapes in odd dimension fold onto smaller
    cases through the (then central) volume element.
    """
    _check_dim("case sweep", n)
    out: List[ShapeCase] = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                comp = n - i - j - k
                if j == 0 or (i > 0 and i > j):
                    continue
                rows = sign_system(i, j, k, comp)
                kernel = _nullspace(rows)
                verdict, lines, templates = _classify_kernel(rows, kernel,
                                                              i, j, k)
                fold = None
                if verdict == "non-monomial" and comp == 0 and n % 2 == 1:
                    fold = _FOLD_TARGET[_case_label(i, j, k, comp)]
                cond = (-1) ** ((i * j + (i + j) * k) % 2)
                out.append(ShapeCase(
                    case=_case_label(i, j, k, comp),
                    sizes={"I": i, "J": j, "K": k, "complement": comp},
                    parities=(k % 2, i % 2, j % 2),
                    rows=rows,
                    kernel=[_integerize(v) for v in kernel],
                    verdict=verdict,
                    lines=lines,
                    templates=templates,
                    fold=fold,
                    single_condition=cond,
                    admits_single=cond == -1,
                ))
    out.sort(key=lambda s: (s.case, s.sizes["I"], s.sizes["J"], s.sizes["K"]))
    return out


def shape_masks(i: int, j: int, k: int) -> Tuple[int, int, int]:
    """A labeled representative: I gets the lowest indices, then J, then K."""
    mask_i = (1 << i) - 1
    mask_j = ((1 << j) - 1) << i
    mask_k = ((1 << k) - 1) << (i + j)
    return mask_i, mask_j, mask_k


def instantiate_two_monomial(n: int, i: int, j: int, k: int,
                             coefficients) -> Tuple[Multivector, Multivector]:
    """Build ((a G_I + b G_J) G_K, (a' G_I + b' G_J) G_K) for the shape."""
    mask_i, mask_j, mask_k = shape_masks(i, j, k)
    a, b, ap, bp = coefficients
    gk = Multivector.blade(n, mask_k)
    c = gp(a * Multivector.blade(n, mask_i) + b * Multivector.blade(n, mask_j), gk)
    d = gp(ap * Multivector.blade(n, mask_i) + bp * Multivector.blade(n, mask_j), gk)
    return c, d


def line_coefficients(lam: int, mu: int, rng):
    a, b = rng.standard_normal(2)
    return a, b, lam * a, mu * b


def circle_coefficients(rng):
    a, b, bp = rng.standard_normal(3)
    return a, b, -a * bp / b, bp


# -- search for pairs realizing a target map ----------------------------------

@dataclass
class SearchHit:
    family: str
    pair: QuadraticPair
    parameters: Dict[str, object] = field(default_factory=dict)
    b_residual: float = 0.0


def _z2_canonical(alpha: complex, beta: complex) -> Tuple[complex, complex]:
    """Quotient the square symmetry: nonnegative real part first, then
    nonnegative imaginary part."""
    if alpha.real < 0 or (alpha.real == 0 and alpha.imag < 0):
        return -alpha, -beta
    return alpha, beta


def search_pairs_for_B(b: SymmetricMap, ansatz: str = "all") -> List[SearchHit]:
    """Pairs realizing B, one canonical representative per family found.

    The search works in the eigenbasis of B (index-set shapes are read off
    the eigenvalue multiplicities) and rotates the results back, so every
    returned pair verifies against B itself.  Empty output is a valid
    answer: it means no family of the requested ansatz fits the eigenvalue
    structure.  Raises InputError on a nonzero B whose hit threshold,
    CHECK_TOL max |B|, falls below the smallest normal double.
    """
    from .qpair import (extract_B, make_generalized, make_linear,
                        make_monomial, make_pseudo_monomial,
                        rotate_multivector)
    if ansatz not in ANSAETZE:
        raise InputError(f"unknown ansatz {ansatz!r}; pick one of {ANSAETZE}")
    n = b.n
    _check_dim("search", n)
    hits: List[SearchHit] = []
    rot = b.eigenvectors
    masks = [space.mask for space in b.eigenspaces]
    values = [space.value for space in b.eigenspaces]
    cut = verdict_threshold(CHECK_TOL, np.max(np.abs(b.entries)))
    r = len(b.eigenspaces)

    def emit(family: str, builder, parameters: Dict[str, object],
             rotate: bool = True) -> None:
        try:
            pair = builder()
        except InputError:
            return
        if not pair.verified:
            return
        if rotate and not b.eigenbasis_is_identity:
            pair = extract_B(rotate_multivector(pair.c, rot),
                             rotate_multivector(pair.d, rot))
            if not pair.verified:
                return
        residual = float(np.max(np.abs(pair.B.entries - b.entries)))
        if residual > cut:
            return
        pair.family = family
        hits.append(SearchHit(family, pair, parameters, residual))

    if ansatz in ("monomial", "all"):
        if r == 1:
            lam = values[0]
            alpha = complex(np.sqrt(lam + 0j))
            emit("monomial", lambda a=alpha: make_monomial(n, 0, a, 0.0),
                 {"blade": [], "alpha": str(alpha), "beta": "0"})
            if n % 2 == 0:
                full = (1 << n) - 1
                af = complex(np.sqrt(lam / blade_square_sign(full) + 0j))
                emit("monomial", lambda a=af: make_monomial(n, full, a, 0.0),
                     {"blade": list(blade_indices(full)), "alpha": str(af),
                      "beta": "0"})
        elif r == 2:
            if n % 2 == 0:
                choices = (0, 1)
            else:
                choices = (0,) if b.eigenspaces[0].multiplicity <= n // 2 else (1,)
            for which in choices:
                mask = masks[which]
                sig = blade_square_sign(mask)
                u = complex(np.sqrt(values[which] / sig + 0j))
                v = complex(np.sqrt(values[1 - which] / sig + 0j))
                eps = (-1) ** grade(mask)
                alpha, beta = _z2_canonical(0.5 * (u + v), eps * 0.5 * (u - v))
                emit("monomial",
                     lambda m=mask, a=alpha, bb=beta: make_monomial(n, m, a, bb),
                     {"blade": list(blade_indices(mask)), "alpha": str(alpha),
                      "beta": str(beta)})
    if ansatz in ("pseudo-monomial", "all") and n % 2 == 0 and r == 2:
        for which in (0, 1):
            mask = masks[which]
            sig = blade_square_sign(mask)
            lam_on, lam_off = values[which], values[1 - which]
            if grade(mask) % 2 == 0:
                alpha = complex(np.sqrt(lam_on / (4 * sig) + 0j))
                beta = complex(np.sqrt(lam_off / (4 * sig) + 0j))
                emit("pseudo-monomial-even",
                     lambda m=mask, a=alpha, bb=beta:
                     make_pseudo_monomial(n, m, "even", a, bb, sign=1),
                     {"blade": list(blade_indices(mask)), "alpha": str(alpha),
                      "beta": str(beta), "family_parameter": "sign in {+1,-1}"})
            else:
                phi = np.pi / 6.0
                cos2 = np.cos(2 * phi)
                sm = complex(np.sqrt(lam_on / (sig * cos2) + 0j))
                sp = complex(np.sqrt(lam_off / (sig * cos2) + 0j))
                alpha, beta = 0.5 * (sp + sm), 0.5 * (sp - sm)
                emit("pseudo-monomial-odd",
                     lambda m=mask, a=alpha, bb=beta, p=phi:
                     make_pseudo_monomial(n, m, "odd", a, bb, phi=p),
                     {"blade": list(blade_indices(mask)), "alpha": str(alpha),
                      "beta": str(beta), "phi": phi, "psi": 0.0,
                      "family_parameter": "circle in phi"})
    if ansatz in ("linear", "all"):
        if all(s.multiplicity % 2 == 0 for s in b.nonzero_eigenspaces()):
            emit("linear", lambda: make_linear(b),
                 {"construction": "rotation blocks on the eigenspaces"},
                 rotate=False)
    if ansatz in ("generalized", "all") and r >= 2:
        # make_generalized rejects the illegal parity patterns (InputError)
        odd_clusters = [idx for idx, m in enumerate(masks) if grade(m) % 2]
        coeffs = [0j] * r
        hats = [0j] * r
        for idx in range(r):
            sig = blade_square_sign(masks[idx])
            coeffs[idx] = complex(np.sqrt(values[idx] / (4 * sig) + 0j))
        if len(odd_clusters) == 2:
            # split each odd eigenvalue as c^2 - hat^2 with hat = s * c,
            # s and 1/s on the two parts so the cross constraint holds
            for idx, s_split in zip(odd_clusters, (2.0, 0.5)):
                sig = blade_square_sign(masks[idx])
                u = values[idx] / (4 * sig)
                cval = complex(np.sqrt(u / (1 - s_split ** 2) + 0j))
                coeffs[idx] = cval
                hats[idx] = s_split * cval
        emit("generalized-monomial",
             lambda ms=tuple(masks), cs=tuple(coeffs), hs=tuple(hats):
             make_generalized(n, list(ms), list(cs), list(hs)),
             {"partition": [list(blade_indices(m)) for m in masks],
              "coefficients": [str(x) for x in coeffs],
              "hat_coefficients": [str(x) for x in hats]})
    return hits
