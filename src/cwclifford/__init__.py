"""Quadratic Clifford pairs and invariant spinor connections on
Cahen-Wallach spaces.  Each exported name resolves on first use (PEP 562),
so ``import cwclifford`` loads no submodule and no numpy."""

from importlib import import_module

# exported name -> home module
_EXPORTS = {name: home for home, names in (
    ("core", "Multivector blade_from_indices blade_indices blade_mul "
             "blade_square_sign gp grade grade_involution "
             "random_multivector volume_element"),
    ("gammarep", "GammaRep build_rep extract_component represent"),
    ("qpair", "QuadraticPair SymmetricMap classify_family extract_B "
              "linear_pair_from_parts make_generalized make_linear "
              "make_monomial make_pseudo_monomial q_map s_map"),
    ("cw", "CliffordMap CliffordMapParams CWAlgebraElement CWElement "
           "build_flat_rep_alphanotzero build_flat_rep_alphazero "
           "catalog_projector check_restriction curvature curvature_sweep "
           "cw_bracket flatness_report validate_simple_map"),
    ("omega", "OmegaTensor classify_distinguished closing_identities "
              "omega_in_soB omega_tensor"),
    ("search", "enumerate_two_monomial_cases search_pairs_for_B"),
) for name in names.split()}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
