"""Fuzzing the `verify`, `search`, `omega`, `cw-flat` and `cw-restrict`
subcommands from the golden inputs.

Each example takes a golden input (a pair file, a symmetric-map file of
n <= 6 or both, or a Clifford-map params file), changes one thing (a
coefficient, a B entry, a duplicated term of the pair, or an overall scale
of the pair, of a..e or of B), may set `--tol` to a hostile or extreme
value, and drives `cli.main`; `search` takes any of its ansatz names, and
a params file goes to
`cw-flat`, with or without `--extended`, or to `cw-restrict` with a catalog
projector or an X-projector spec whose index sets may overlap, be empty or
leave 1..n.  The exit-code contract must hold: 0 (computed), 2 (bad input)
or 3 (tolerance breach); on 0 stdout is JSON with only finite numbers; and
the same input gives the same stdout.  On 0 `omega`'s verdicts follow
from what it prints: `holds` is `worst_norm <= threshold`, `template_match`
is `sob_invariant` and `holds`, and `template` is null without a match.
Exit 3 is an overflow of a check of degree k in the input numbers, so it
is allowed only where some input number reaches `overflow_bound`, and
never for `omega` or `search`.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from cwclifford.cli import main
from cwclifford.errors import InputError
from cwclifford.textio import (_format_coeff, _parse_coeff,
                               multivector_from_text)

INPUTS = Path(__file__).parent / "golden" / "inputs"
# each pair file with a B file of its dimension, so that every pair can
# reach exit 0: b_rot4_22 and b_rot8_44, and two more golden B files for
# the dimensions 3 and 5 they do not cover
PARTNER = {"pair_gen4": "b_rot4_22", "pair_rot4": "b_rot4_22",
           "pair_rot8_mono": "b_rot8_44", "pair_gen5": "b_diag5_122",
           "pair_not_invariant3": "readme_b"}
B_FILES = sorted(set(PARTNER.values()))
PAIRS = sorted(p.stem for p in INPUTS.glob("pair_*.json")) + ["readme_mono"]
SEARCH_B = ["b_diag5_113", "b_diag5_122", "b_diag6_15", "b_rot4_22",
            "readme_b"]
ANSATZE = ["monomial", "pseudo-monomial", "linear", "generalized", "all"]
PARAMS = sorted(p.stem for p in INPUTS.glob("params_*.json")) + [
    "readme_params"]
CATALOG = ["sigma-", "sigma+", "sv+s-", "sv+s+", "s-w", "s+w", "sigma-pi+",
           "sigma-pi-", "sigma+pi+", "sigma+pi-"]
TOLS = ["0", "-1", "nan", "inf", "1e-300"]
# the degree of each command's checks in the input numbers; omega and
# search have none that may overflow
DEGREE = {"verify": 2, "cw-flat": 4, "cw-restrict": 4}
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


def new_coefficient(draw, text):
    """The term list with one coefficient replaced by any literal."""
    terms = text.split(" + ")
    at = draw(st.integers(0, len(terms) - 1))
    blade = terms[at].rsplit(" e_", 1)[1]
    terms[at] = f"{draw(coefficients())} e_{blade}"
    return " + ".join(terms)


def duplicated_term(draw, text):
    """The term list with one of its blades again, under its own or any
    coefficient literal."""
    terms = text.split(" + ")
    coeff, blade = draw(st.sampled_from(terms)).rsplit(" e_", 1)
    coeff = draw(st.one_of(st.just(coeff), coefficients()))
    return f"{text} + {coeff} e_{blade}"


def new_entry(draw, entries, n):
    """One entry of the n x n matrix, mirrored or not, set to any value."""
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    value = draw(values())
    entries[i * n + j] = value
    if draw(st.booleans()):
        entries[j * n + i] = value


@st.composite
def omega_inputs(draw):
    name = draw(st.sampled_from(sorted(PARTNER)))
    pair = load(name)
    b = load(draw(st.one_of(st.just(PARTNER[name]),
                            st.sampled_from(B_FILES))))
    kind = draw(st.sampled_from(["coeff", "entry", "scale-pair", "scale-b"]))
    if kind == "coeff":
        side = draw(st.sampled_from(["c", "d"]))
        pair[side] = new_coefficient(draw, pair[side])
    elif kind == "entry":
        new_entry(draw, b["entries"], b["dim"])
    elif kind == "scale-pair":
        factor = draw(values())
        pair["c"], pair["d"] = scaled(pair["c"], factor), \
            scaled(pair["d"], factor)
    else:
        factor = draw(values())
        b["entries"] = [factor * x for x in b["entries"]]
    return pair, b, draw(st.one_of(st.none(), st.sampled_from(TOLS)))


@st.composite
def verify_inputs(draw):
    pair = load(draw(st.sampled_from(PAIRS)))
    kind = draw(st.sampled_from(["coeff", "duplicate", "scale"]))
    side = draw(st.sampled_from(["c", "d"]))
    if kind == "coeff":
        pair[side] = new_coefficient(draw, pair[side])
    elif kind == "duplicate":
        pair[side] = duplicated_term(draw, pair[side])
    else:
        factor = draw(values())
        pair["c"], pair["d"] = scaled(pair["c"], factor), \
            scaled(pair["d"], factor)
    return pair, draw(st.one_of(st.none(), st.sampled_from(TOLS)))


@st.composite
def search_inputs(draw):
    b = load(draw(st.sampled_from(SEARCH_B)))
    if draw(st.booleans()):
        new_entry(draw, b["entries"], b["dim"])
    else:
        factor = draw(values())
        b["entries"] = [factor * x for x in b["entries"]]
    return b, draw(st.sampled_from(ANSATZE))


@st.composite
def x_specs(draw):
    """X-projector specs x+:I;J and x-:I;J; the index sets may overlap, be
    empty or hold indices outside 1..n."""
    sets = st.lists(st.integers(-1, 9), max_size=4).map(
        lambda s: ",".join(map(str, s)))
    return f"x{draw(st.sampled_from('+-'))}:{draw(sets)};{draw(sets)}"


@st.composite
def params_inputs(draw):
    doc = load(draw(st.sampled_from(PARAMS)))
    kind = draw(st.sampled_from(["coeff", "entry", "scale-map", "scale-b"]))
    if kind == "coeff":
        field = draw(st.sampled_from("abcde"))
        doc[field] = new_coefficient(draw, doc[field])
    elif kind == "entry":
        new_entry(draw, doc["B"], doc["dim"])
    elif kind == "scale-map":
        factor = draw(values())
        for field in "abcde":
            doc[field] = scaled(doc[field], factor)
    else:
        factor = draw(values())
        doc["B"] = [factor * x for x in doc["B"]]
    command = draw(st.one_of(
        st.just(["cw-flat"]), st.just(["cw-flat", "--extended"]),
        st.tuples(st.just("cw-restrict"), st.just("--projector"),
                  st.one_of(st.sampled_from(CATALOG), x_specs())).map(list)))
    return doc, command, draw(st.one_of(st.none(), st.sampled_from(TOLS)))


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


def largest(doc):
    """The largest magnitude among an input document's matrix entries and
    element coefficients (a repeated blade's terms summed); an element the
    parser refuses counts 0, its input exits 2."""
    sizes = [0.0]
    for value in doc.values():
        if isinstance(value, str):
            try:
                terms = multivector_from_text(value, doc["dim"]).terms()
            except InputError:
                continue
            sizes += [abs(z) for _, z in terms]
        elif isinstance(value, list):
            sizes += [abs(x) for x in value]
    return max(sizes)


def overflow_bound(degree, dim):
    """A residual of degree k in the input numbers sums at most (2^n)^k
    products of k of them, so it is finite while they stay below
    DBL_MAX^(1/k) / 2^n."""
    return sys.float_info.max ** (1 / degree) / 2 ** dim


def assert_contract(argv, tol, *docs):
    if tol is not None:
        argv.append(f"--tol={tol}")
    code, out = run(argv)
    event(f"exit {code}")  # the shares: --hypothesis-show-statistics
    assert code in (0, 2, 3)
    if code == 3:
        assert argv[0] in DEGREE, argv
        assert any(largest(doc) >= overflow_bound(DEGREE[argv[0]], doc["dim"])
                   for doc in docs), argv
    if code == 0:
        assert finite_numbers(json.loads(out, parse_constant=refuse_constant))
    else:
        assert out == ""
    assert run(argv) == (code, out)
    return code, out


@settings(max_examples=150, deadline=None)
@given(omega_inputs())
def test_omega_keeps_the_exit_code_contract(case):
    pair, b, tol = case
    with tempfile.TemporaryDirectory() as tmp:
        pair_path, b_path = Path(tmp) / "pair.json", Path(tmp) / "b.json"
        pair_path.write_text(json.dumps(pair))
        b_path.write_text(json.dumps(b))
        code, out = assert_contract(["omega", "--pair", str(pair_path),
                                     "--b", str(b_path)], tol, pair, b)
    if code == 0:  # printed floats round-trip, so the comparisons are exact
        doc = json.loads(out)
        assert doc["holds"] == (doc["worst_norm"] <= doc["threshold"])
        assert doc["template_match"] == (doc["sob_invariant"] and doc["holds"])
        assert (doc["template"] is None) == (not doc["template_match"])


@settings(max_examples=150, deadline=None)
@given(params_inputs())
def test_cw_commands_keep_the_exit_code_contract(case):
    doc, command, tol = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.json"
        path.write_text(json.dumps(doc))
        assert_contract([command[0], "--params", str(path), *command[1:]],
                        tol, doc)


@settings(max_examples=150, deadline=None)
@given(verify_inputs())
def test_verify_keeps_the_exit_code_contract(case):
    pair, tol = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.json"
        path.write_text(json.dumps(pair))
        assert_contract(["verify", "--pair", str(path)], tol, pair)


@settings(max_examples=150, deadline=None)
@given(search_inputs())
def test_search_keeps_the_exit_code_contract(case):
    b, ansatz = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.json"
        path.write_text(json.dumps(b))
        assert_contract(["search", "--b", str(path), "--ansatz", ansatz], None,
                        b)
