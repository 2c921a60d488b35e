"""Quadratic Clifford pairs and invariant spinor connections on
Cahen-Wallach spaces."""

from .core import (Multivector, blade_from_indices, blade_indices, blade_mul,
                   blade_square_sign, gp, grade, grade_involution,
                   grade_project, involute, left_contract, random_multivector,
                   reversal, trace_pairing, volume_element)
from .gammarep import GammaRep, build_rep, extract_component, represent
from .qpair import (QuadraticPair, SymmetricMap, classify_family, extract_B,
                    linear_pair_from_parts, make_generalized, make_linear,
                    make_monomial, make_pseudo_monomial, q_map, s_map,
                    transpose_relation_check)
from .cw import (CliffordMap, CliffordMapParams, CWAlgebraElement, CWElement,
                 build_flat_rep_alphanotzero, build_flat_rep_alphazero,
                 catalog_projector, check_restriction, curvature,
                 curvature_sweep, cw_bracket, flatness_report,
                 validate_simple_map)
from .omega import (OmegaTensor, classify_distinguished, closing_identities,
                    omega_in_soB, omega_tensor)
from .search import enumerate_two_monomial_cases, search_pairs_for_B

__version__ = "0.1.0"
