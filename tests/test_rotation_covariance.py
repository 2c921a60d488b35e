"""An orthogonal change of basis changes no verdict.

The Cahen-Wallach space of B depends on B only up to an orthogonal change
of basis.  Rotating the data by R in SO(n), the algebra elements through
`rotate_multivector` and B to R B R^T, must keep the `verify` status, the
`omega` membership, the plain and extended `cw-flat` verdicts and the
`cw-restrict` verdicts of the named catalog projectors, which are built
from 1 and the volume element, both fixed by SO(n).  A rotation spreads a
one-blade element over every blade of its grade, so the same check runs
the gp loop on the family pair and the parity form (`qpair._dense_pair`) on
its rotation, up to n = 12.  Family tags and the x+-:I;J projectors depend
on the basis and are left out.
"""

import contextlib
import io
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from cwclifford import cli
from cwclifford.core import Multivector
from cwclifford.omega import omega_in_soB
from cwclifford.qpair import (SymmetricMap, _dense_pair, extract_B,
                              make_generalized, make_linear, make_monomial,
                              make_pseudo_monomial, rotate_multivector)
from cwclifford.textio import load_params_file, multivector_to_text

CATALOG = ["sigma-", "sigma+", "sv+s-", "sv+s+", "s-w", "s+w", "sigma-pi+",
           "sigma-pi-", "sigma+pi+", "sigma+pi-"]
PARAMS = sorted((Path(__file__).parent / "golden" / "inputs").glob(
    "*params*.json"))


def rotation(n, seed):
    """A random R in SO(n)."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def family_pairs(n):
    """Pairs of each family that exists in dimension n, and one pair that
    is not closed in V; their blades have a grade of at most 3 or at least
    n - 3, so that a rotated element has at most 2 C(12, 3) = 440 terms."""
    full = (1 << n) - 1
    grade = 2 if n == 3 else 3
    pairs = [make_monomial(n, full ^ (full >> grade), 1.3, -0.4),
             make_generalized(n, [0b11, full ^ 0b11], [1.0, 1.6])]
    if n % 2 == 0:
        pairs += [make_pseudo_monomial(n, 0b11, "even", 1.1, 0.7),
                  make_pseudo_monomial(n, 0b111, "odd", 0.9, 0.4, phi=0.3),
                  make_linear(SymmetricMap.from_diagonal(
                      [-1.0, -1.0] + [-4.0] * (n - 2)))]
    unclosed = Multivector(n, {0b001: 1.0, 0b110: 0.5})
    return pairs + [extract_B(unclosed, unclosed)]


PAIRS = [pair for n in range(3, 13) for pair in family_pairs(n)]


@lru_cache(maxsize=None)
def rotated(k):
    """PAIRS[k], its R and extract_B's pair of its rotation."""
    pair = PAIRS[k]
    r = rotation(pair.c.dim, k)
    return pair, r, extract_B(rotate_multivector(pair.c, r),
                              rotate_multivector(pair.d, r))


def test_the_pairs_cover_both_paths_and_statuses():
    assert {PAIRS[k].status for k in range(len(PAIRS))} == {
        "verified", "not-closed-in-V"}
    assert not any(_dense_pair(p.c, p.d) for p in PAIRS)
    dense = [rotated(k)[2] for k in range(len(PAIRS))]
    assert sum(_dense_pair(p.c, p.d) for p in dense) >= 10
    assert max(len(p.c._terms) for p in dense) == 440


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_verify_status_and_map_are_covariant(k):
    """q_{Rc,Rd}(R x) = R q_{c,d}(x): the status is kept, and the map is
    R B R^T to the threshold q's residuals meet, CHECK_TOL (|c| + |d|)^2,
    R keeping |c| and |d|."""
    pair, r, turned = rotated(k)
    assert turned.status == pair.status
    if pair.verified:
        err = np.max(np.abs(turned.B.entries - r @ pair.B.entries @ r.T))
        assert err <= turned.threshold


def membership(k):
    """The omega verdicts of PAIRS[k] and its rotation, on its own map
    when it verifies and on diag(-3, -3, -2, -2, ...)."""
    pair, r, turned = rotated(k)
    n = pair.c.dim
    maps = [np.diag(np.arange(n) // 2 - 3.0)] + (
        [pair.B.entries] if pair.verified else [])
    def holds(c, d, b):
        return omega_in_soB(c, d, SymmetricMap.from_matrix(b))["holds"]

    return [(holds(pair.c, pair.d, b), holds(turned.c, turned.d, r @ b @ r.T))
            for b in maps]


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_omega_membership_is_covariant(k):
    for want, got in membership(k):
        assert got == want


def test_omega_takes_both_verdicts():
    assert {want for k in range(0, len(PAIRS), 3)
            for want, _ in membership(k)} == {True, False}


@lru_cache(maxsize=None)
def verdict(path, argv, turn):
    """The exit code and the verdicts of a cw command on the params file,
    its data rotated by a random R when turn is set."""
    dim, b, fields = load_params_file(str(path))
    if turn:
        r = rotation(dim, PARAMS.index(path))
        b = r @ b @ r.T
        fields = {name: rotate_multivector(x, r) for name, x in fields.items()}
    with tempfile.TemporaryDirectory() as tmp:
        params = Path(tmp) / "params.json"
        params.write_text(json.dumps({
            "dim": dim, "B": b.ravel().tolist(),
            **{name: multivector_to_text(x) for name, x in fields.items()}}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([argv[0], "--params", str(params), *argv[1:]])
    if code:
        return code, None
    doc = json.loads(out.getvalue())
    return (code, doc.get("flat"), doc.get("invariant"),
            doc.get("representation"))


COMMANDS = [("cw-flat",), ("cw-flat", "--extended")] + [
    ("cw-restrict", "--projector", name) for name in CATALOG]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("path", PARAMS, ids=lambda p: p.stem)
def test_cw_verdicts_are_covariant(path, argv):
    assert verdict(path, argv, True) == verdict(path, argv, False)


def test_cw_commands_take_every_verdict():
    flat = {verdict(p, argv, False)[1] for p in PARAMS
            for argv in COMMANDS[:2]}
    restrict = {verdict(p, argv, False)[2:] for p in PARAMS
                for argv in COMMANDS[2:]}
    assert flat == {True, False}
    assert {(True, True), (False, True), (False, False)} <= restrict
