"""Fuzzing the `omega` subcommand from the golden inputs.

Each example takes a golden pair file and a symmetric-map file, changes one
thing (a coefficient, a B entry, or an overall scale of the pair or of B),
may set `--tol` to a hostile or extreme value, and drives `cli.main`.  The
exit-code contract must hold: 0 (computed), 2 (bad input) or 3 (tolerance
breach); on 0 stdout is JSON with only finite numbers; and the same input
gives the same stdout.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from cwclifford.cli import main
from cwclifford.textio import _format_coeff, _parse_coeff

INPUTS = Path(__file__).parent / "golden" / "inputs"
# each pair file with a B file of its dimension, so that every pair can
# reach exit 0: b_rot4_22 and b_rot8_44, and two more golden B files for
# the dimensions 3 and 5 they do not cover
PARTNER = {"pair_gen4": "b_rot4_22", "pair_rot4": "b_rot4_22",
           "pair_rot8_mono": "b_rot8_44", "pair_gen5": "b_diag5_122",
           "pair_not_invariant3": "readme_b"}
B_FILES = sorted(set(PARTNER.values()))
TOLS = ["0", "-1", "nan", "inf", "1e-300"]
SCALES = [0.0, -1.0, 1e-300, 1e-160, 1e-8, 1e8, 1e160, 1e300, math.pi]


def load(name):
    return json.loads((INPUTS / f"{name}.json").read_text())


def values():
    """Any double, the hostile ones included, the extreme decades, and
    ordinary ones."""
    return st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from(SCALES), st.floats(-10.0, 10.0))


def coefficients():
    """Coefficient literals of the text grammar: real, imaginary, complex,
    finite or not."""
    return st.one_of(
        values().map(repr),
        values().map(lambda x: f"{x!r}i"),
        st.tuples(values(), values()).map(
            lambda z: f"({z[0]!r}{'-' if z[1] < 0 else '+'}{abs(z[1])!r}i)"))


def scaled(text, factor):
    """The term list with every coefficient multiplied by factor."""
    terms = []
    for term in text.split(" + "):
        coeff, blade = term.rsplit(" e_", 1)
        terms.append(f"{_format_coeff(_parse_coeff(coeff) * factor)} e_{blade}")
    return " + ".join(terms)


@st.composite
def omega_inputs(draw):
    name = draw(st.sampled_from(sorted(PARTNER)))
    pair = load(name)
    b = load(draw(st.one_of(st.just(PARTNER[name]),
                            st.sampled_from(B_FILES))))
    kind = draw(st.sampled_from(["coeff", "entry", "scale-pair", "scale-b"]))
    if kind == "coeff":
        side = draw(st.sampled_from(["c", "d"]))
        terms = pair[side].split(" + ")
        at = draw(st.integers(0, len(terms) - 1))
        blade = terms[at].rsplit(" e_", 1)[1]
        terms[at] = f"{draw(coefficients())} e_{blade}"
        pair[side] = " + ".join(terms)
    elif kind == "entry":
        n = b["dim"]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        value = draw(values())
        b["entries"][i * n + j] = value
        if draw(st.booleans()):
            b["entries"][j * n + i] = value
    elif kind == "scale-pair":
        factor = draw(values())
        pair["c"], pair["d"] = scaled(pair["c"], factor), \
            scaled(pair["d"], factor)
    else:
        factor = draw(values())
        b["entries"] = [factor * x for x in b["entries"]]
    return pair, b, draw(st.one_of(st.none(), st.sampled_from(TOLS)))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an option value
            code = exc.code
    return code, out.getvalue()


def finite_numbers(doc):
    if isinstance(doc, dict):
        return all(finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(finite_numbers(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def refuse_constant(name):
    raise ValueError(f"non-finite literal {name} in the report")


@settings(max_examples=150, deadline=None)
@given(omega_inputs())
def test_omega_keeps_the_exit_code_contract(case):
    pair, b, tol = case
    with tempfile.TemporaryDirectory() as tmp:
        pair_path, b_path = Path(tmp) / "pair.json", Path(tmp) / "b.json"
        pair_path.write_text(json.dumps(pair))
        b_path.write_text(json.dumps(b))
        argv = ["omega", "--pair", str(pair_path), "--b", str(b_path)]
        if tol is not None:
            argv.append(f"--tol={tol}")
        code, out = run(argv)
        event(f"exit {code}")  # the shares: --hypothesis-show-statistics
        assert code in (0, 2, 3)
        if code == 0:
            assert finite_numbers(json.loads(out,
                                             parse_constant=refuse_constant))
        else:
            assert out == ""
        assert run(argv) == (code, out)
