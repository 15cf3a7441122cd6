"""Symmetric tensor powers, crossed products, and induced representations of
finite-dimensional C*-algebras, with brute-force verification tools."""

from .algebra import (FdCStarAlgebra, Representation, SymmetricPowerBasis,
                      algebra_from_json, algebra_to_json, element_from_json,
                      element_to_json,
                      generated_star_algebra, make_algebra, power_map,
                      power_map_differential, square_map_multiplicativity,
                      symmetric_power_basis, symmetric_power_count,
                      symmetrize, tensor_algebra, tensor_power)
from .classify import (IrrepDescriptor, RealizedIrrep, enumerate_sn_irreps,
                       homogeneous_components, intertwining_cocycle,
                       isotropy_group, non_schur_weyl_witness,
                       realize_sn_irrep, schur_weyl_injectivity_check,
                       schur_weyl_rep, wedderburn_crosscheck)
from .crossed import (CovariantPair, CrossedElement, GroupAction,
                      action_from_json, block_permutation_action, convolve,
                      corner_embedding, corner_projection, crossed_unit,
                      fixed_point_algebra, group_average_projection,
                      integrated_form, involution, spatial_pair,
                      tensor_permutation_action, trivial_action)
from .errors import BudgetError, DegenerateDrawError
from .groups import (FiniteGroup, ProjectiveRep, Subgroup, UnitaryRep,
                     cyclic_group, factor_permutation_index, group_from_json,
                     group_to_json, isotypic_projection, partitions, permutation_rep,
                     regular_rep, sn_irrep, ssyt_count, symmetric_group,
                     trivial_subgroup, whole_subgroup, young_subgroup)
from .induction import (InducedRep, commutant_restriction,
                        fixed_point_unitary, induce)
from .linalg import (DEFAULT_TOL, direct_sum, eig_hermitian, is_projection,
                     kron, nullspace, op_norm)
from .structure import (SpannedAlgebra, WedderburnReport, commutant,
                        commutant_dimension, equivalent, ergodic_bound_check,
                        essential_subspace, intertwiner_space, is_factor,
                        is_irreducible, minimal_central_projections,
                        quasi_equivalent, spanned_algebra)

__version__ = "0.1.0"
