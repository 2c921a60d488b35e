"""The package resolves its names on first use, and each subcommand imports
only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cwclifford

INPUTS = Path(__file__).parent / "golden" / "inputs"
SRC = str(Path(cwclifford.__file__).resolve().parents[1])

# the names the package exports, by home module
EXPORTS = {
    "core": "Multivector blade_from_indices blade_indices blade_mul "
            "blade_square_sign gp grade grade_involution "
            "random_multivector volume_element",
    "gammarep": "GammaRep build_rep extract_component represent",
    "qpair": "QuadraticPair SymmetricMap classify_family extract_B "
             "linear_pair_from_parts make_generalized make_linear "
             "make_monomial make_pseudo_monomial q_map s_map",
    "cw": "CliffordMap CliffordMapParams CWAlgebraElement CWElement "
          "build_flat_rep_alphanotzero build_flat_rep_alphazero "
          "catalog_projector check_restriction curvature curvature_sweep "
          "cw_bracket flatness_report validate_simple_map",
    "omega": "OmegaTensor classify_distinguished closing_identities "
             "omega_in_soB omega_tensor",
    "search": "enumerate_two_monomial_cases search_pairs_for_B",
}
NAMES = [(home, name) for home, names in EXPORTS.items()
         for name in names.split()]

# run in a fresh interpreter: import the package (no argv) or run the CLI,
# then print the exit code and the numpy and cwclifford modules loaded
CHILD = """
import json, sys
argv = json.loads(sys.argv[1])
if argv:
    from cwclifford import cli
    code = cli.main(argv)
else:
    import cwclifford
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "numpy" or m.startswith("cwclifford."))]))
"""


def loaded_after(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)],
                          capture_output=True, text=True, cwd=INPUTS, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    return {m.removeprefix("cwclifford.") for m in modules}


def test_import_loads_no_submodule_and_no_numpy():
    assert loaded_after([]) == set()


@pytest.mark.parametrize("argv, absent", [
    (["verify", "--pair", "readme_mono.json"],
     {"cw", "search", "omega", "gammarep"}),
    (["rep-check", "--dim", "3", "--trials", "2"],
     {"qpair", "cw", "search", "omega"}),
    (["cw-flat", "--params", "readme_params.json"],
     {"search", "omega", "gammarep"}),
    (["enumerate-cases", "--dim", "4"],
     {"qpair", "cw", "omega", "gammarep"}),
    (["search", "--b", "readme_b.json"],
     {"cw", "omega", "gammarep"}),
    (["omega", "--pair", "readme_mono.json", "--b", "readme_b.json"],
     {"cw", "search", "gammarep"}),
    (["cw-restrict", "--params", "readme_params.json", "--projector",
      "sigma+"],
     {"search", "omega", "gammarep"}),
], ids=["verify", "rep-check", "cw-flat", "enumerate-cases", "search",
        "omega", "cw-restrict"])
def test_subcommand_imports_only_its_modules(argv, absent):
    loaded = loaded_after(argv)
    assert "numpy" in loaded and not absent & loaded


def test_exports_are_the_home_module_objects():
    assert len(NAMES) == 45
    for home, name in NAMES:
        module = importlib.import_module(f"cwclifford.{home}")
        assert getattr(cwclifford, name) is getattr(module, name), name


def test_dir_lists_every_export():
    assert {name for _, name in NAMES} <= set(dir(cwclifford))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cwclifford.no_such_name
    assert not hasattr(cwclifford, "ANSAETZE")
