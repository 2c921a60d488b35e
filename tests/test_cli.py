import json

import numpy as np
import pytest

from cwclifford import cli
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


def test_cw_flat_extended_cli_on_a_near_degenerate_b(tmp_path, capsys):
    """-1 and -1 - 5e-9 form one eigenspace; the extended sweep takes its
    rotation as a symmetry instead of refusing it as a bad input."""
    params = tmp_path / "params.json"
    b = np.diag([-1.0, -1.0 - 5e-9, -4.0, -4.0])
    params.write_text(json.dumps({**PARAMS_OK, "dim": 4,
                                  "B": b.ravel().tolist()}))
    for flags in ((), ("--extended",)):
        code, out, err = run(capsys, "cw-flat", "--params", str(params),
                             *flags)
        assert (code, err) == (0, "")
        assert json.loads(out)["flat"] is False


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
    # a B of another dimension is bad input, refused by omega_in_soB
    write_b(b_file, 4, np.eye(4))
    code, out, err = run(capsys, "omega", "--pair", str(pair_file),
                         "--b", str(b_file))
    assert code == 2 and out == ""
    assert err == "error: pair and symmetric map dimensions differ\n"


def test_omega_cli_on_squares_past_the_double_range(tmp_path, capsys):
    """Each coefficient squares to a finite double, the norms' sums of
    squares do not: omega computes, where its norms overflowed (exit 3)."""
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps({
        "dim": 4, "c": "1.3e154 e_{1} + 1.3e154 e_{2} + 1e154 e_{3,4}",
        "d": "1.3e154 e_{1,2} + 1e154 e_{3}"}))
    b_file = tmp_path / "b.json"
    write_b(b_file, 4, np.diag([-1.0, -1.0, -4.0, -4.0]))
    code, out, _ = run(capsys, "omega", "--pair", str(pair_file),
                       "--b", str(b_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is False and doc["sob_invariant"] is False
    assert 1e154 < doc["worst_norm"] < 1e155


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
PARAMS_N3 = {**PARAMS_OK, "dim": 3,
             "B": [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0]}
PARAMS_TINY = {**PARAMS_OK, "B": [1e-300, 0.0, 0.0, 4e-300],
               "c": "1e-150 e_{1}", "d": "5e-151 e_{1}"}
# max |c|^2 + max |B| underflows to 0 on a nonzero map, which at scale 1
# (c = d = e_1, e = 0.5 e_{1,2}) reads not flat
PARAMS_NORM_UNDERFLOWS = {**PARAMS_OK, "B": [0.0, 0.0, 0.0, 0.0],
                          "c": "1e-170 e_{1}", "d": "1e-170 e_{1}",
                          "e": "5e-171 e_{1,2}"}


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
    ("verify", "--pair", {"dim": 3, "c": "1e200 e_{1}", "d": "1.0 e_{1}"}),
    ("search", "--b", {"dim": 2, "entries": [1e308, 0, 0, -1e308]}),
    ("cw-restrict --projector x+:1,1;3", "--params", PARAMS_N3),
    ("cw-restrict --projector x+:1;2;3", "--params", PARAMS_N3),
    ("verify", "--pair", {**PAIR_OK, "c": "1e154 e_{1} + 1e154 e_{1}"}),
    ("verify", "--pair", {**PAIR_OK, "c": "1_0 e_{1}"}),
    ("verify", "--pair", {**PAIR_OK, "c": "\u0661 e_{1}"}),
    ("verify", "--pair", {**PAIR_OK, "c": "1 e_{1,,2}"}),
    ("verify", "--pair", {**PAIR_OK, "c": "1 e_{1 2}"}),
    # q and the threshold underflow to 0: this read as a verified pair,
    # where at scale 1 it is not closed in V
    ("verify", "--pair", {"dim": 3, "c": "1e-170 e_{1} + 1e-170 e_{1,2}",
                          "d": "1e-170 e_{2,3}"}),
    ("search", "--b", {**B_OK, "entries": [-1e-300, 0.0, 0.0, -4e-300]}),
    # every norm underflowed to 0: this read "holds": true with threshold 0
    # at scale 1e-200, where at scale 1 it is false; 1e-200 now computes
    # false, and at 1e-300 the degree-one threshold underflows
    ("omega --b {b}", "--pair", {"dim": 3,
                                 "c": "1e-300 e_{1} + 5e-301 e_{2,3}",
                                 "d": "1e-300 e_{2}"}),
    # the threshold 1e-9 (max |c|^2 + max |B|) is 5e-309, subnormal: the
    # squares of the block norms read 0, and with them curvature_max and
    # the representation residual, which read "representation": true
    ("cw-flat", "--params", PARAMS_TINY),
    ("cw-restrict --projector sigma+", "--params", PARAMS_TINY),
    # the threshold was 0, and cw-flat read "flat": true
    ("cw-flat", "--params", PARAMS_NORM_UNDERFLOWS),
    ("cw-restrict --projector sigma+", "--params", PARAMS_NORM_UNDERFLOWS),
], ids=["pair-dim-true", "b-dim-true", "params-dim-true", "entries-string",
        "entries-nested", "entries-bool", "B-string", "B-nested",
        "entries-nan", "entries-infinity", "entries-huge-int", "B-nan",
        "B-infinity", "coeff-inf", "coeff-nan", "coeff-1e400",
        "coeff-imaginary-1e400", "params-coeff-nan", "coeff-not-a-string",
        "coeff-square-overflows", "entries-square-overflows",
        "x-projector-repeated-index", "x-projector-three-lists",
        "repeated-blade-sum-square-overflows", "coeff-underscore",
        "coeff-arabic-indic-digit", "empty-index-slot", "index-slot-two-numbers",
        "pair-threshold-underflows", "b-hit-threshold-underflows",
        "omega-threshold-underflows", "cw-flat-threshold-underflows",
        "cw-restrict-threshold-underflows", "cw-flat-norm-underflows",
        "cw-restrict-norm-underflows"])
def test_hostile_input_is_exit_2(tmp_path, capsys, command, flag, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    b = tmp_path / "b.json"       # the {b} of a command, a valid map
    b.write_text(json.dumps({"dim": 3, "entries": [-1, 0, 0, 0, -9, 0, 0, 0,
                                                   -9]}))
    code, out, err = run(capsys, *command.format(b=b).split(), flag, str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command, flag, doc", [
    # q overflows to inf although every input square is finite
    ("verify", "--pair", {"dim": 3, "c": "1e154 e_{1} + 1e154 e_{2,3}",
                          "d": "1e154 e_{1}"}),
    # a norm of the curvature overflows inside the sweep
    ("cw-flat", "--params", {**PARAMS_OK, "c": "1e150 e_{1}",
                             "d": "1e150 e_{1}", "e": "1e150 e_{1,2}"}),
], ids=["verify-q-overflows", "cw-flat-norm-overflows"])
def test_overflow_is_exit_3(tmp_path, capsys, command, flag, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, flag, str(path))
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("tolerance breach: ")


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_report_is_exit_3(capsys, monkeypatch, value):
    monkeypatch.setattr(cli, "_cmd_enumerate", lambda args: {"worst": value})
    code, out, err = run(capsys, "enumerate-cases", "--dim", "4")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("tolerance breach: ")


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_rep_check_rejects_trials_below_one(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["rep-check", "--dim", "3", "--trials", trials])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "--trials" in out.err


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_rep_check_rejects_a_negative_seed(capsys, seed):
    # numpy's generator refuses a negative seed with a ValueError
    with pytest.raises(SystemExit) as exc:
        main(["rep-check", "--dim", "4", "--seed", seed])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "--seed: must be at least 0" in out.err


def test_unknown_ansatz_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(B_OK))
    code, out, err = run(capsys, "search", "--b", str(path), "--ansatz", "bogus")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "'bogus'" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--pair", "pair.json", "--tol", "abc"],
    ["rep-check", "--dim", "3", "--trials", "x"],
    ["rep-check", "--dim", "3", "--trials", "2.5"]])
def test_unparsable_numbers_get_the_range_message(tmp_path, capsys,
                                                  monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pair.json").write_text(json.dumps(PAIR_OK))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "_positive" not in out.err
    assert f"{argv[-2]}: must be" in out.err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", [
    "verify --pair pair.json", "cw-flat --params params.json",
    "cw-restrict --params params.json --projector sigma+",
    "omega --pair pair.json --b b.json", "rep-check --dim 3"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, monkeypatch,
                                         command, tol):
    monkeypatch.chdir(tmp_path)
    for name, doc in (("pair.json", PAIR_OK), ("b.json", B_OK),
                      ("params.json", PARAMS_OK)):
        (tmp_path / name).write_text(json.dumps(doc))
    assert run(capsys, *command.split())[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--tol", tol])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "--tol" in out.err
