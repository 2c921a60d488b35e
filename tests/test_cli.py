import json

import numpy as np
import pytest

from cwclifford.cli import main
from cwclifford.textio import multivector_to_text
from cwclifford.core import Multivector, grade_involution
from cwclifford.qpair import make_monomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_pair(path, dim, c, d):
    path.write_text(json.dumps({
        "dim": dim,
        "c": multivector_to_text(c),
        "d": multivector_to_text(d),
    }))


def write_b(path, dim, entries):
    path.write_text(json.dumps({
        "dim": dim,
        "entries": [float(x) for x in np.asarray(entries).reshape(-1)],
    }))


def test_verify_monomial(tmp_path, capsys):
    pair_file = tmp_path / "mono.json"
    write_pair(pair_file, 3, Multivector.blade(3, 0b001, 2.0),
               Multivector.blade(3, 0b001, 1.0))
    code, out, _ = run(capsys, "verify", "--pair", str(pair_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "verified"
    assert doc["family"] == "monomial"
    assert np.allclose(np.array(doc["B"]).reshape(3, 3),
                       np.diag([-1.0, -9.0, -9.0]))


def test_verify_not_closed(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    write_pair(pair_file, 3, Multivector.basis_vector(3, 1),
               Multivector.basis_vector(3, 2))
    code, out, _ = run(capsys, "verify", "--pair", str(pair_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "not-closed-in-V" and doc["B"] is None


def test_verify_deterministic_output(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    write_pair(pair_file, 4, Multivector.blade(4, 0b0011, 1.0 / 3.0),
               Multivector.blade(4, 0b0011, -2.0 / 7.0))
    code, out1, _ = run(capsys, "verify", "--pair", str(pair_file))
    code, out2, _ = run(capsys, "verify", "--pair", str(pair_file))
    assert out1 == out2


def test_verify_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "verify", "--pair", str(bad))
    assert code == 2 and "error" in err


def test_search_cli(tmp_path, capsys):
    b_file = tmp_path / "b.json"
    write_b(b_file, 3, np.diag([-1.0, -9.0, -9.0]))
    code, out, _ = run(capsys, "search", "--b", str(b_file),
                       "--ansatz", "monomial")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]
    assert doc["results"][0]["family"] == "monomial"
    assert doc["results"][0]["B_check_residual"] <= 1e-9


def test_cw_flat_cli(tmp_path, capsys):
    pair = make_monomial(3, 0b001, 2.0, 1.0)
    params = tmp_path / "params.json"
    zero = multivector_to_text(Multivector.zero(3))
    params.write_text(json.dumps({
        "dim": 3,
        "B": [float(x) for x in (-pair.B.entries).reshape(-1)],
        "a": zero,
        "b": zero,
        "c": multivector_to_text(grade_involution(pair.c)),
        "d": multivector_to_text(pair.d),
        "e": "0.5 e_{2,3}",
    }))
    code, out, _ = run(capsys, "cw-flat", "--params", str(params))
    assert code == 0
    doc = json.loads(out)
    assert doc["flat"] is True
    assert doc["curvature_max"] <= 1e-9
    assert all(v <= 1e-9 for v in doc["report"].values())
    code, out, _ = run(capsys, "cw-flat", "--params", str(params), "--extended")
    assert json.loads(out)["flat"] is True


def test_cw_restrict_cli(tmp_path, capsys):
    pair = make_monomial(3, 0b001, 2.0, 1.0)
    params = tmp_path / "params.json"
    zero = multivector_to_text(Multivector.zero(3))
    params.write_text(json.dumps({
        "dim": 3,
        "B": [float(x) for x in (-pair.B.entries).reshape(-1)],
        "a": zero,
        "b": zero,
        "c": multivector_to_text(grade_involution(pair.c)),
        "d": multivector_to_text(pair.d),
        "e": zero,
    }))
    code, out, _ = run(capsys, "cw-restrict", "--params", str(params),
                       "--projector", "sigma+")
    assert code == 0
    doc = json.loads(out)
    assert doc["representation"] is True
    code, _, err = run(capsys, "cw-restrict", "--params", str(params),
                       "--projector", "bogus")
    assert code == 2 and "unknown projector" in err


def test_omega_cli(tmp_path, capsys):
    pair = make_monomial(3, 0b001, 2.0, 1.0)
    pair_file = tmp_path / "pair.json"
    write_pair(pair_file, 3, pair.c, pair.d)
    b_file = tmp_path / "b.json"
    write_b(b_file, 3, pair.B.entries)
    code, out, _ = run(capsys, "omega", "--pair", str(pair_file),
                       "--b", str(b_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["template"] == "gl2" and doc["template_match"] is True


def test_rep_check_cli(capsys):
    code, out, _ = run(capsys, "rep-check", "--dim", "5", "--trials", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_error"] < 1e-10
    # an absurd tolerance trips the internal breach path
    code, _, err = run(capsys, "rep-check", "--dim", "5", "--trials", "5",
                       "--tol", "1e-30")
    assert code == 3 and "tolerance breach" in err


def test_enumerate_cli(capsys):
    code, out, _ = run(capsys, "enumerate-cases", "--dim", "4")
    assert code == 0
    doc = json.loads(out)
    cases = {s["case"] for s in doc["shapes"]}
    assert {"1a", "1b", "2b", "3a", "3b", "4a", "4b"} <= cases
    code, out2, _ = run(capsys, "enumerate-cases", "--dim", "4")
    assert out == out2
    code, _, err = run(capsys, "enumerate-cases", "--dim", "9")
    assert code == 2


PAIR_OK = {"dim": 2, "c": "1.0 e_{1}", "d": "0.5 e_{1}"}
B_OK = {"dim": 2, "entries": [-1.0, 0.0, 0.0, -4.0]}
PARAMS_OK = {"dim": 2, "B": [1.0, 0.0, 0.0, 4.0], "a": "0 e_{}",
             "b": "0 e_{}", "c": "1.0 e_{1}", "d": "0.5 e_{1}", "e": "0 e_{}"}


@pytest.mark.parametrize("command, flag, doc", [
    ("verify", "--pair", {**PAIR_OK, "dim": True}),
    ("search", "--b", {"dim": True, "entries": [-1.0]}),
    ("cw-flat", "--params", {**PARAMS_OK, "dim": True, "B": [1.0]}),
    ("search", "--b", {**B_OK, "entries": [-1.0, 0.0, 0.0, "x"]}),
    ("search", "--b", {**B_OK, "entries": [-1.0, 0.0, 0.0, [-4.0]]}),
    ("search", "--b", {**B_OK, "entries": [-1.0, 0.0, 0.0, True]}),
    ("cw-flat", "--params", {**PARAMS_OK, "B": [1.0, 0.0, 0.0, "4"]}),
    ("cw-flat", "--params", {**PARAMS_OK, "B": [1.0, 0.0, 0.0, [4.0]]}),
    ("search", "--b", {**B_OK, "entries": [-1.0, 0.0, 0.0, float("nan")]}),
    ("search", "--b", {**B_OK, "entries": [-1.0, 0.0, 0.0, float("inf")]}),
    ("search", "--b", {**B_OK, "entries": [-1.0, 0.0, 0.0, -10 ** 400]}),
    ("cw-flat", "--params", {**PARAMS_OK, "B": [1.0, 0.0, 0.0, float("nan")]}),
    ("cw-flat", "--params", {**PARAMS_OK, "B": [float("-inf"), 0.0, 0.0, 4.0]}),
    ("verify", "--pair", {**PAIR_OK, "c": "inf e_{1}"}),
    ("verify", "--pair", {**PAIR_OK, "c": "nan e_{1}"}),
    ("verify", "--pair", {**PAIR_OK, "c": "1e400 e_{1}"}),
    ("verify", "--pair", {**PAIR_OK, "d": "1e400i e_{1}"}),
    ("cw-flat", "--params", {**PARAMS_OK, "e": "nan e_{1,2}"}),
    ("verify", "--pair", {**PAIR_OK, "c": 1.0}),
], ids=["pair-dim-true", "b-dim-true", "params-dim-true", "entries-string",
        "entries-nested", "entries-bool", "B-string", "B-nested",
        "entries-nan", "entries-infinity", "entries-huge-int", "B-nan",
        "B-infinity", "coeff-inf", "coeff-nan", "coeff-1e400",
        "coeff-imaginary-1e400", "params-coeff-nan", "coeff-not-a-string"])
def test_hostile_input_is_exit_2(tmp_path, capsys, command, flag, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, flag, str(path))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_rep_check_rejects_trials_below_one(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["rep-check", "--dim", "3", "--trials", trials])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "--trials" in out.err
