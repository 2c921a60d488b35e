"""Dense gamma-matrix cross-checks used by the output checks.

Everything here runs outside the timed and traced part of a job, except
``q_images``, which the ``pairs-rotated`` jobs also use for their timed
cross-check.  The
matrices come from the library's faithful gamma representation, in which
the 2^n blade matrices are unitary and trace-orthogonal, so a matrix's
Frobenius norm divided by sqrt(rep_dim) equals the coefficient norm of the
multivector (or block matrix) it represents.
"""

from __future__ import annotations

import numpy as np

from cwclifford.cw import cw_bracket, cw_to_matrix
from cwclifford.gammarep import build_rep, extract_component, represent


def q_images(cm, dm, gens):
    """Matrices of q_{c,d}(e_mu) = c^2 e_mu + e_mu d^2 - 2 c e_mu d, given
    the matrices of c, d and of the generators e_mu."""
    return [cm @ cm @ x + x @ dm @ dm - 2 * cm @ x @ dm for x in gens]


class Oracle:
    """Faithful representations cached per dimension (n <= 10)."""

    def __init__(self):
        self._reps = {}

    def rep(self, n: int):
        rep = self._reps.get(n)
        if rep is None:
            rep = self._reps[n] = build_rep(n, "faithful")
        return rep

    def q_matrix(self, c, d):
        """Grade-1 matrix of q_{c,d} (column mu = q(e_mu)) and the largest
        coefficient norm of an off-grade part, from dense products."""
        n = c.dim
        rep = self.rep(n)
        cm, dm = represent(c, rep), represent(d, rep)
        gens = [rep.blade_matrix(1 << mu) for mu in range(n)]
        root = np.sqrt(rep.rep_dim)
        m = np.zeros((n, n), dtype=complex)
        offgrade = 0.0
        for mu, q in enumerate(q_images(cm, dm, gens)):
            col = [extract_component(q, 1 << nu, rep) for nu in range(n)]
            m[:, mu] = col
            rest = q - sum(z * g for z, g in zip(col, gens))
            offgrade = max(offgrade, float(np.linalg.norm(rest)) / root)
        return m, offgrade

    def pair_verdict(self, c, d):
        """('verified' | 'not-closed-in-V' | 'not-symmetric', B or None).

        The cut between zero and nonzero residuals sits at 1e-7 of the
        pair's scale; random inputs land many orders of magnitude away from
        it on either side."""
        m, offgrade = self.q_matrix(c, d)
        cut = 1e-7 * (1.0 + c.norm() * d.norm())
        if offgrade > cut:
            return "not-closed-in-V", None
        if np.max(np.abs(m.imag)) > cut or np.max(np.abs(m - m.T)) > cut:
            return "not-symmetric", None
        return "verified", m.real

    def restriction_residuals(self, rho, proj, generators):
        """Invariance and representation residuals of a projector, in
        dense block matrices, for the generator list check_restriction uses."""
        rep = self.rep(rho.n)
        root = np.sqrt(rep.rep_dim)
        p = cw_to_matrix(proj, rep)
        images = [cw_to_matrix(rho(x), rep) for x in generators]
        inv = max(np.linalg.norm(img @ p - p @ img @ p) for img in images)
        comp = [p @ img @ p for img in images]
        worst = 0.0
        for i in range(len(generators)):
            for j in range(i + 1, len(generators)):
                br = cw_bracket(generators[i], generators[j], rho.params.b_map)
                rhs = p @ cw_to_matrix(rho(br), rep) @ p
                lhs = comp[i] @ comp[j] - comp[j] @ comp[i]
                worst = max(worst, np.linalg.norm(lhs - rhs))
        scale = 1.0 + max(np.linalg.norm(img) / root for img in images) ** 2
        return float(inv) / root, float(worst) / root, scale
