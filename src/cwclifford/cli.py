"""Command-line front end: JSON in, deterministic JSON out.

Exit codes: 0 the computation ran (whatever the verdict), 2 malformed
input, 3 an internal tolerance check failed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import cw, omega, search, textio
from .core import gp, random_multivector
from .errors import InputError, InternalToleranceError, NotSoBInvariant
from .gammarep import build_rep, represent
from .qpair import SymmetricMap, classify_family, extract_B


def _cmd_verify(args) -> dict:
    dim, c, d = textio.load_pair_file(args.pair)
    pair = extract_B(c, d, tol_factor=args.tol)
    out = {
        "dim": dim,
        "status": pair.status,
        "offgrade_residual": pair.offgrade_residual,
        "B": None,
        "family": None,
        "tags": [],
    }
    if pair.verified:
        out["B"] = [float(x) for x in pair.B.entries.reshape(-1)]
        out["tags"] = classify_family(pair)
        out["family"] = pair.family
    return out


def _cmd_search(args) -> dict:
    dim, entries = textio.load_b_file(args.b)
    b = SymmetricMap.from_matrix(entries)
    hits = search.search_pairs_for_B(b, args.ansatz)
    return {
        "dim": dim,
        "ansatz": args.ansatz,
        "results": [{
            "family": hit.family,
            "c": textio.multivector_to_text(hit.pair.c),
            "d": textio.multivector_to_text(hit.pair.d),
            "B_check_residual": hit.b_residual,
            "parameters": hit.parameters,
        } for hit in hits],
    }


def _load_params(path: str) -> cw.CliffordMapParams:
    dim, bmat, fields = textio.load_params_file(path)
    return cw.CliffordMapParams(SymmetricMap.from_matrix(bmat), fields["a"],
                                fields["b"], fields["c"], fields["d"],
                                fields["e"])


def _cmd_cw_flat(args) -> dict:
    params = _load_params(args.params)
    rho = cw.CliffordMap(params)
    report = cw.flatness_report(params)
    sweep = cw.curvature_sweep(rho, extended=args.extended)
    scale = cw.flatness_scale(params)
    return {
        "dim": params.n,
        "report": report,
        "curvature_max": sweep,
        "flat": bool(sweep <= args.tol * scale
                     and all(v <= args.tol * scale for v in report.values())),
    }


def _cmd_cw_restrict(args) -> dict:
    params = _load_params(args.params)
    rho = cw.CliffordMap(params)
    proj = cw.catalog_projector(args.projector, params.n)
    result = cw.check_restriction(rho, proj, tol=args.tol)
    result["projector"] = args.projector
    result["dim"] = params.n
    return result


def _cmd_omega(args) -> dict:
    dim, c, d = textio.load_pair_file(args.pair)
    bdim, entries = textio.load_b_file(args.b)
    if bdim != dim:
        raise InputError("pair and symmetric-map dimensions differ")
    b = SymmetricMap.from_matrix(entries)
    membership = omega.omega_in_soB(c, d, b, tol=args.tol)
    out = {
        "dim": dim,
        "holds": membership["holds"],
        "worst_norm": membership["worst_norm"],
        "worst_entry": list(membership["worst_entry"])
        if membership["worst_entry"] else None,
        "sob_invariant": True,
        "template": None,
        "template_match": False,
    }
    try:
        verdict = omega.classify_distinguished(c, d, b, tol=args.tol)
        out["template"] = verdict["template"]
        out["template_match"] = verdict["match"]
    except NotSoBInvariant:
        out["sob_invariant"] = False
    return out


def _cmd_rep_check(args) -> dict:
    rep = build_rep(args.dim, "faithful")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        a = random_multivector(rng, args.dim, 8)
        b = random_multivector(rng, args.dim, 8)
        lhs = represent(gp(a, b), rep)
        rhs = represent(a, rep) @ represent(b, rep)
        err = float(np.linalg.norm(lhs - rhs))
        scale = max(a.norm() * b.norm(), 1e-300)
        worst = max(worst, err / scale)
    out = {"dim": args.dim, "trials": args.trials, "max_error": worst,
           "tolerance": args.tol}
    if worst > args.tol:
        raise InternalToleranceError(
            f"representation homomorphism violated: {worst:.3e} > {args.tol:.3e}")
    return out


def _cmd_enumerate(args) -> dict:
    cases = search.enumerate_two_monomial_cases(args.dim)
    return {
        "dim": args.dim,
        "shapes": [{
            "case": s.case,
            "sizes": s.sizes,
            "parities_kij": list(s.parities),
            "rows": s.rows,
            "kernel": [list(v) for v in s.kernel],
            "verdict": s.verdict,
            "lines": [list(line) for line in s.lines],
            "templates": s.templates,
            "fold": s.fold,
            "single_element_condition": s.single_condition,
            "admits_single_nonmonomial": s.admits_single,
        } for s in cases],
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwclifford",
        description="Quadratic Clifford pairs and flat spinor connections "
                    "on Cahen-Wallach spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p, default=1e-9):
        p.add_argument("--tol", type=float, default=default,
                       help="verification tolerance (default %(default)g)")

    p = sub.add_parser("verify", help="verify a pair and extract its map")
    p.add_argument("--pair", required=True, help="pair.json input file")
    add_tol(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search pairs realizing a target map")
    p.add_argument("--b", required=True, help="b.json input file")
    p.add_argument("--ansatz", default="all", choices=search.ANSAETZE)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("cw-flat", help="flatness report and curvature sweep")
    p.add_argument("--params", required=True, help="params.json input file")
    p.add_argument("--extended", action="store_true",
                   help="include covectors and rotations in the sweep")
    add_tol(p)
    p.set_defaults(func=_cmd_cw_flat)

    p = sub.add_parser("cw-restrict", help="restriction checks for a projector")
    p.add_argument("--params", required=True, help="params.json input file")
    p.add_argument("--projector", required=True,
                   help="catalog name, e.g. sigma+, sv+s-, x+:1;2")
    add_tol(p)
    p.set_defaults(func=_cmd_cw_restrict)

    p = sub.add_parser("omega", help="membership and template classification")
    p.add_argument("--pair", required=True, help="pair.json input file")
    p.add_argument("--b", required=True, help="b.json input file")
    add_tol(p)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("rep-check", help="matrix-representation oracle")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_tol(p, default=1e-10)
    p.set_defaults(func=_cmd_rep_check)

    p = sub.add_parser("enumerate-cases", help="two-monomial case analysis")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalToleranceError as exc:
        print(f"tolerance breach: {exc}", file=sys.stderr)
        return 3
    print(textio.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
