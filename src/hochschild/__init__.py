"""Exact Hochschild cohomology of bound quiver algebras and their split
extensions: quivers in, dimensions, projection morphisms and verified
identities out.  Everything is exact over Q (or a prime field).

Importing the package runs none of its modules.  Each submodule is
registered in `sys.modules` through `importlib.util.LazyLoader`, so it runs
when one of its attributes is first read, and the names below are served
from their home modules by `__getattr__`.  A run compiles only the modules
it uses, which is most of its start-up when no bytecode is cached.
"""

import importlib.util
import sys

# home module -> the names the package exports from it.  Registered in this
# order, every module before the ones it imports from: code that scans
# `sys.modules` and rebinds a function wherever it is bound (the
# benchmark's tracer) loads each module before its dependencies are
# rebound, so the module binds the original and the scan finds it.
_EXPORTS = {
    "verification": ("run_blocks",),
    "relext": (
        "Potential", "crosscheck_with_trivial_extension", "cyclic_derivative",
        "keller_potential", "relation_extension_algebra",
        "relation_extension_quiver",
    ),
    "extcohom": (
        "DerivationAction", "check_chain_map",
        "check_projection1_surjective_for_ext", "ext_dual_bimodule",
    ),
    "extension": (
        "ProjectionMatrix", "SplitExtensionData", "check_cup_compatibility",
        "check_derivation_splitting", "check_growth_bound",
        "check_kernel_sequence", "check_projection_chain_identity",
        "check_surjectivity_witness", "extension_from_maps",
        "inflation_retraction", "project_cochain", "projection_morphism",
        "split_extension", "tensor_symmetrization", "trivial_extension",
        "zero_pairing_morphisms",
    ),
    "minres": (
        "ChainSets", "PartialResolution", "build_partial_resolution",
        "chain_paths", "hh_via_resolution",
    ),
    "cohomology": (
        "BAR_CAP", "CapExceeded", "Cochain", "CohomologySpace", "bar_apply",
        "bar_differential", "bracket1", "cup", "der0_basis",
        "derivation_from_arrow_values", "hh", "hh1_via_derivations",
        "is_derivation",
    ),
    "algfile": (
        "BUNDLED", "AlgebraFileError", "emit_algebra_file",
        "load_algebra_file", "load_bundled", "parse_algebra_file",
    ),
    "bimodule": (
        "Bimodule", "bimodules_isomorphic", "dual_bimodule", "hom_bimodule",
        "is_symmetric_over_center", "pullback_bimodule", "regular_bimodule",
        "sub_bimodule", "tensor_over", "zero_bimodule",
    ),
    "algebra": (
        "AdmissibilityError", "AlgElement", "Algebra", "algebra_morphism",
        "build_algebra", "center_basis", "is_triangular", "multiply",
        "system_of_relations",
    ),
    "quiver": (
        "Arrow", "Path", "PathSum", "Presentation", "Quiver",
        "RelationSyntaxError", "compose", "parse_relation", "paths_up_to",
    ),
    "linalg": (
        "Mat", "PrimeField", "QQ", "Rationals", "kernel_basis", "rank",
        "solve",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)
__version__ = "0.1.0"

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_module] = \
        importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name):
    # read from the home module on every access and never stored here, so
    # a function rebound there (and restored) is what the package gives
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)


def __dir__():
    return sorted({*globals(), *__all__})
