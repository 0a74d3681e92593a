"""Exact Hochschild cohomology of bound quiver algebras and their split
extensions: quivers in, dimensions, projection morphisms and verified
identities out.  Everything is exact over Q (or a prime field)."""

from .algebra import (
    AdmissibilityError, AlgElement, Algebra, algebra_morphism, build_algebra,
    center_basis, is_triangular, multiply, system_of_relations,
)
from .algfile import (
    BUNDLED, AlgebraFileError, emit_algebra_file, load_algebra_file,
    load_bundled, parse_algebra_file,
)
from .bimodule import (
    Bimodule, bimodules_isomorphic, dual_bimodule, hom_bimodule,
    is_symmetric_over_center, pullback_bimodule, regular_bimodule,
    sub_bimodule, tensor_over, zero_bimodule,
)
from .cohomology import (
    BAR_CAP, CapExceeded, Cochain, CohomologySpace, bar_apply, bar_differential,
    bracket1, cup, der0_basis, derivation_from_arrow_values, hh,
    hh1_via_derivations, is_derivation,
)
from .extcohom import (
    DerivationAction, check_chain_map, check_projection1_surjective_for_ext,
    ext_dual_bimodule,
)
from .extension import (
    ProjectionMatrix, SplitExtensionData, check_cup_compatibility,
    check_derivation_splitting, check_growth_bound, check_kernel_sequence,
    check_projection_chain_identity, check_surjectivity_witness,
    extension_from_maps, inflation_retraction, project_cochain,
    projection_morphism, split_extension, tensor_symmetrization,
    trivial_extension, zero_pairing_morphisms,
)
from .linalg import (
    Mat, PrimeField, QQ, Rationals, kernel_basis, rank, solve,
)
from .minres import (
    ChainSets, PartialResolution, build_partial_resolution, chain_paths,
    hh_via_resolution,
)
from .quiver import (
    Arrow, Path, PathSum, Presentation, Quiver, RelationSyntaxError, compose,
    parse_relation, paths_up_to,
)
from .relext import (
    Potential, crosscheck_with_trivial_extension, cyclic_derivative,
    keller_potential, relation_extension_algebra, relation_extension_quiver,
)
from .verification import run_blocks

__version__ = "0.1.0"
