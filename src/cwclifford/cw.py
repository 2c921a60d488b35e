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

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .core import Multivector, gp, grade_involution, volume_element
from .errors import (ConstraintViolated, DimensionMismatch, InputError,
                     NotAProjector, NotInSoB, OddDimension,
                     PairNotAssociatedToMinusB)
from .qpair import (SymmetricMap, extract_B, q_map, s_map,
                    skew_to_bivector)

SQRT2 = float(np.sqrt(2.0))
FLAT_TOL = 1e-9


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
        x = CWAlgebraElement.zero(n)
        return CWAlgebraElement(n, x.h, x.vstar, x.v, 1.0, 0.0)

    @staticmethod
    def e_minus(n: int) -> "CWAlgebraElement":
        x = CWAlgebraElement.zero(n)
        return CWAlgebraElement(n, x.h, x.vstar, x.v, 0.0, 1.0)

    @staticmethod
    def vector(n: int, components) -> "CWAlgebraElement":
        x = CWAlgebraElement.zero(n)
        return CWAlgebraElement(n, x.h, x.vstar,
                                np.asarray(components, dtype=float), 0.0, 0.0)

    @staticmethod
    def basis_vector(n: int, mu: int) -> "CWAlgebraElement":
        comp = np.zeros(n)
        comp[mu - 1] = 1.0
        return CWAlgebraElement.vector(n, comp)

    @staticmethod
    def covector(n: int, components) -> "CWAlgebraElement":
        x = CWAlgebraElement.zero(n)
        return CWAlgebraElement(n, x.h, np.asarray(components, dtype=float),
                                x.v, 0.0, 0.0)

    @staticmethod
    def basis_covector(n: int, mu: int) -> "CWAlgebraElement":
        comp = np.zeros(n)
        comp[mu - 1] = 1.0
        return CWAlgebraElement.covector(n, comp)

    @staticmethod
    def rotation(n: int, h) -> "CWAlgebraElement":
        x = CWAlgebraElement.zero(n)
        return CWAlgebraElement(n, np.asarray(h, dtype=float), x.vstar, x.v,
                                0.0, 0.0)

    def __add__(self, other: "CWAlgebraElement") -> "CWAlgebraElement":
        return CWAlgebraElement(self.n, self.h + other.h,
                                self.vstar + other.vstar, self.v + other.v,
                                self.xplus + other.xplus,
                                self.xminus + other.xminus)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.h ** 2) + np.sum(self.vstar ** 2)
                             + np.sum(self.v ** 2) + self.xplus ** 2
                             + self.xminus ** 2))


def _check_sob(h: np.ndarray, b: np.ndarray) -> None:
    scale = 1.0 + np.max(np.abs(h)) * (1.0 + np.max(np.abs(b)))
    if np.max(np.abs(h @ b - b @ h)) > 1e-9 * scale:
        raise NotInSoB("rotation block must commute with the symmetric map")


def cw_bracket(x: CWAlgebraElement, y: CWAlgebraElement,
               b: SymmetricMap) -> CWAlgebraElement:
    """Lie bracket on so_B(V) + V* + V + R+ + R-."""
    if x.n != y.n or x.n != b.n:
        raise DimensionMismatch("bracket arguments live in different dimensions")
    bm = b.entries
    for h in (x.h, y.h):
        if np.any(h):
            _check_sob(h, bm)
    h = x.h @ y.h - y.h @ x.h
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
        return self + (-other)

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
        return float(np.sqrt(self.p.norm() ** 2 + self.q.norm() ** 2
                             + self.r.norm() ** 2 + self.s.norm() ** 2))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(x.is_zero(tol) for x in (self.p, self.q, self.r, self.s))


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


class CliffordMap:
    """A Clifford map as a finite table of images of basis elements."""

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
        self.img_eplus = CWElement(z, SQRT2 * params.a, z, z)
        self.img_eminus = CWElement(cbar, SQRT2 * params.e,
                                    SQRT2 * bbar, params.d)
        self.img_v = []
        self.img_vstar = []
        bm = params.b_map.entries
        for mu in range(1, n + 1):
            gm = Multivector.basis_vector(n, mu)
            self.img_v.append(CWElement(
                gp(gm, bbar), (-1.0 / SQRT2) * s_map(cbar, params.d, gm),
                z, -gp(bbar, gm)))
            bv = Multivector.from_vector(n, bm[:, mu - 1])
            self.img_vstar.append(CWElement(z, (1.0 / SQRT2) * bv, z, z))

    def h_image(self, h: np.ndarray) -> CWElement:
        _check_sob(h, self.params.b_map.entries)
        return CWElement.diagonal(skew_to_bivector(h, self.n))

    def __call__(self, x: CWAlgebraElement) -> CWElement:
        if x.n != self.n:
            raise DimensionMismatch("element dimension does not match the map")
        out = self.img_eplus * complex(x.xplus) + self.img_eminus * complex(x.xminus)
        for mu in range(self.n):
            if x.v[mu]:
                out = out + self.img_v[mu] * complex(x.v[mu])
            if x.vstar[mu]:
                out = out + self.img_vstar[mu] * complex(x.vstar[mu])
        if np.any(x.h):
            out = out + self.h_image(x.h)
        return out


def validate_simple_map(params: CliffordMapParams,
                        tol: float = FLAT_TOL) -> Dict[str, object]:
    """Residuals of the compatibility conditions tying a to bar(b).

    The symmetrized sandwich of bar(b) between two generators must be
    g_{mu nu} a; tracing gives a = (1/n) sum Gamma^mu bar(b) Gamma_mu.
    Both vanish exactly when bar(b) is a scalar (odd n) or scalar plus
    volume element (even n) with the matching a.
    """
    n = params.n
    a, bbar = params.a, grade_involution(params.b)
    res24 = 0.0
    for mu in range(1, n + 1):
        gm = Multivector.basis_vector(n, mu)
        for nu in range(mu, n + 1):
            gn = Multivector.basis_vector(n, nu)
            sym = 0.5 * (gp(gm, gp(bbar, gn)) + gp(gn, gp(bbar, gm)))
            if mu == nu:
                sym = sym - a
            res24 = max(res24, sym.norm())
    acc = Multivector.zero(n)
    for mu in range(1, n + 1):
        gm = Multivector.basis_vector(n, mu)
        acc = acc + gp(gm, gp(bbar, gm))
    res24a = (a - (1.0 / n) * acc).norm()
    scale = 1.0 + a.norm() + bbar.norm()
    return {"24": res24, "24a": res24a,
            "passes": res24 <= tol * scale and res24a <= tol * scale}


def curvature(rho: CliffordMap, x: CWAlgebraElement,
              y: CWAlgebraElement) -> CWElement:
    """[rho(x), rho(y)] - rho([x, y]); zero on all pairs means flat."""
    bracket = cw_bracket(x, y, rho.params.b_map)
    return rho(x).commutator(rho(y)) - rho(bracket)


def w_basis(n: int) -> List[CWAlgebraElement]:
    return ([CWAlgebraElement.e_minus(n), CWAlgebraElement.e_plus(n)]
            + [CWAlgebraElement.basis_vector(n, mu) for mu in range(1, n + 1)])


def curvature_sweep(rho: CliffordMap, extended: bool = False) -> float:
    """Max curvature norm over W x W basis pairs (optionally all generators)."""
    n = rho.n
    elements = w_basis(n)
    if extended:
        elements = elements + [CWAlgebraElement.basis_covector(n, mu)
                               for mu in range(1, n + 1)]
        elements = elements + [CWAlgebraElement.rotation(n, h)
                               for h in rho.params.b_map.sob_basis()]
    worst = 0.0
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            worst = max(worst, curvature(rho, elements[i], elements[j]).norm())
    return worst


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

    def s(x):
        return s_map(cbar, d, x)

    gens = [Multivector.basis_vector(n, mu) for mu in range(1, n + 1)]
    rows: Dict[str, float] = {}
    rows["23-1"] = (gp(cbar, a) - gp(a, d)).norm()
    rows["23-2"] = max(gp(a, bbar).norm(), gp(bbar, a).norm())
    val = validate_simple_map(params)
    rows["24"] = float(val["24"])
    rows["24a"] = float(val["24a"])
    r251 = r252 = 0.0
    for mu in range(n):
        for nu in range(mu + 1, n):
            gm, gn = gens[mu], gens[nu]
            anti = 0.5 * (gp(gm, gp(bbar, gn)) - gp(gn, gp(bbar, gm)))
            r251 = max(r251, gp(bbar, anti).norm(), gp(anti, bbar).norm())
            mix = 0.5 * (gp(gm, gp(bbar, s(gn))) - gp(gn, gp(bbar, s(gm)))
                         - gp(s(gm), gp(bbar, gn)) + gp(s(gn), gp(bbar, gm)))
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


def flatness_scale(params: CliffordMapParams) -> float:
    norms = [getattr(params, k).norm() for k in ("a", "b", "c", "d", "e")]
    return 1.0 + max(norms) ** 2 + float(np.max(np.abs(params.b_map.entries)))


# -- the two flat families ---------------------------------------------------

def build_flat_rep_alphazero(c: Multivector, d: Multivector, e: Multivector,
                             b: SymmetricMap,
                             tol: float = FLAT_TOL) -> CliffordMap:
    """Flat map with trivial center action: (bar c, d) must represent -B."""
    pair = extract_B(grade_involution(c), d)
    scale = 1.0 + float(np.max(np.abs(b.entries)))
    if not pair.verified or \
            np.max(np.abs(pair.B.entries + b.entries)) > tol * scale:
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
                                e_offdiag: Multivector, sign: int = 1,
                                tol: float = FLAT_TOL) -> CliffordMap:
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

    scale = 1.0 + max(x.norm() for x in (cblk, dblk, e_up, e_dn)) ** 2 \
        + abs(alpha) ** 2 + abs(kappa) ** 2
    worst = 0.0
    for mu in range(1, n + 1):
        gm = Multivector.basis_vector(n, mu)
        res = kappa * (gp(cblk, gm) - gp(gm, dblk)) \
            + 2 * alpha * (gp(e_up, gm) + gp(gm, e_dn))
        worst = max(worst, res.norm())
    if worst > tol * scale:
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
                      tol: float = FLAT_TOL) -> Dict[str, object]:
    """Invariance and compressed-representation tests for a projector.

    invariant: rho(x) maps the range of the projector into itself for every
    generator.  representation: the compressed maps P rho(.) P form a
    representation of the Lie algebra on the range, i.e.
    [P rho(x) P, P rho(y) P] = P rho([x, y]) P for all generator pairs.
    """
    n = rho.n
    if (proj * proj - proj).norm() > tol * (1.0 + proj.norm() ** 2):
        raise NotAProjector("the supplied block matrix is not idempotent")
    gens = w_basis(n) + [CWAlgebraElement.basis_covector(n, mu)
                         for mu in range(1, n + 1)]
    images = [rho(x) for x in gens]
    compressed = [proj * img * proj for img in images]
    scale = 1.0 + max(img.norm() for img in images) ** 2
    inv_res = max((img * proj - proj * img * proj).norm() for img in images)
    rep_res = 0.0
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            lhs = compressed[i].commutator(compressed[j])
            rhs = proj * rho(cw_bracket(gens[i], gens[j], rho.params.b_map)) * proj
            rep_res = max(rep_res, (lhs - rhs).norm())
    return {"invariant": inv_res <= tol * scale,
            "representation": rep_res <= tol * scale,
            "invariance_residual": inv_res,
            "representation_residual": rep_res}


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
        body = name[3:]
        try:
            parts = body.split(";")
            mask_i = sum(1 << (int(t) - 1) for t in parts[0].split(",") if t)
            mask_j = sum(1 << (int(t) - 1) for t in parts[1].split(",") if t)
        except (IndexError, ValueError) as exc:
            raise InputError(f"cannot parse X projector spec {name!r}") from exc
        x = x_projector_element(n, mask_i, mask_j, sign)
        return CWElement(one, z, z, x)
    raise InputError(f"unknown projector name {name!r}")
