"""The package's exports and start-up: `import hochschild` runs none of its
modules, every exported name resolves to its home module's object, and a
command runs only the modules it uses."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import hochschild

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")

EXPORTS = {
    "AdmissibilityError", "AlgElement", "Algebra", "algebra_morphism",
    "build_algebra", "center_basis", "is_triangular", "multiply",
    "system_of_relations", "BUNDLED", "AlgebraFileError", "emit_algebra_file",
    "load_algebra_file", "load_bundled", "parse_algebra_file", "Bimodule",
    "bimodules_isomorphic", "dual_bimodule", "hom_bimodule",
    "is_symmetric_over_center", "pullback_bimodule", "regular_bimodule",
    "sub_bimodule", "tensor_over", "zero_bimodule", "BAR_CAP", "CapExceeded",
    "Cochain", "CohomologySpace", "bar_apply", "bar_differential", "bracket1",
    "cup", "der0_basis", "derivation_from_arrow_values", "hh",
    "hh1_via_derivations", "is_derivation", "DerivationAction",
    "check_chain_map", "check_projection1_surjective_for_ext",
    "ext_dual_bimodule", "ProjectionMatrix", "SplitExtensionData",
    "check_cup_compatibility", "check_derivation_splitting",
    "check_growth_bound", "check_kernel_sequence",
    "check_projection_chain_identity", "check_surjectivity_witness",
    "extension_from_maps", "inflation_retraction", "project_cochain",
    "projection_morphism", "split_extension", "tensor_symmetrization",
    "trivial_extension", "zero_pairing_morphisms", "Mat", "PrimeField", "QQ",
    "Rationals", "kernel_basis", "rank", "solve", "ChainSets",
    "PartialResolution", "build_partial_resolution", "chain_paths",
    "hh_via_resolution", "Arrow", "Path", "PathSum", "Presentation", "Quiver",
    "RelationSyntaxError", "compose", "parse_relation", "paths_up_to",
    "Potential", "crosscheck_with_trivial_extension", "cyclic_derivative",
    "keller_potential", "relation_extension_algebra",
    "relation_extension_quiver", "run_blocks",
}


def fresh_python(code, *argv):
    """Run code in a new interpreter with ./src first on the path; its
    last stderr line, read as JSON."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


# ran(): the hochschild modules that have run.  Under LazyLoader a
# registered module becomes a plain module when its code runs
PRELUDE = f"""
import importlib.util, json, sys, types

def ran():
    return sorted(n for n, m in sys.modules.items() if
                  n.startswith("hochschild.") and type(m) is types.ModuleType)

def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", {SPANS!r})
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans
"""


def test_all_is_the_exported_names():
    assert set(hochschild.__all__) == EXPORTS
    assert len(hochschild.__all__) == len(EXPORTS)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_is_its_home_modules_object(name):
    got = getattr(hochschild, name)
    homes = [module for module in sys.modules
             if module.startswith("hochschild.")
             and getattr(sys.modules[module], name, None) is got
             and name in vars(sys.modules[module])]
    assert homes
    if inspect.isfunction(got) or inspect.isclass(got):
        assert got.__module__ in homes
        assert getattr(importlib.import_module(got.__module__), name) is got


def test_dir_lists_every_export():
    assert EXPORTS <= set(dir(hochschild))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from hochschild import *", namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(hochschild, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hochschild.no_such_name
    assert not hasattr(hochschild, "_check_multiplicative")
    with pytest.raises(ImportError):
        exec("from hochschild import no_such_name", {})


def test_import_runs_no_module_and_registers_the_traced_ones():
    # the benchmark's tracer reads `sys.modules["hochschild.<module>"]`,
    # not the package, so every module it names must be a key there after
    # a bare import, though none of them has run
    got = fresh_python(PRELUDE + """
import hochschild
named = {"hochschild." + t[0] for t in load_spans().TARGETS}
print(json.dumps([ran(), sorted(named - set(sys.modules))]), file=sys.stderr)
""")
    assert got == [[], []]


def command_ran(*argv):
    return fresh_python(PRELUDE + """
from hochschild import cli
cli.main(sys.argv[1:])
print(json.dumps(ran()), file=sys.stderr)
""", *argv)


def bundled(name):
    return os.path.join(ROOT, "src", "hochschild", "data", f"{name}.json")


EXTENSION_CODE = {"hochschild.verification", "hochschild.extension",
                  "hochschild.extcohom", "hochschild.relext"}


def test_hh_runs_no_extension_code():
    ran = set(command_ran("hh", bundled("ex3_5_C")))
    assert not ran & EXTENSION_CODE
    assert {"hochschild.cohomology", "hochschild.cli"} <= ran


@pytest.mark.parametrize("argv", [
    ("phi", bundled("ex3_5_C")),
    ("relext", bundled("ex5_9_C")),
    ("hh", bundled("ex5_9_C"), "--module", "ext:2"),
], ids=lambda argv: argv[0])
def test_only_verify_paper_runs_the_suite(argv):
    assert "hochschild.verification" not in command_ran(*argv)


def test_verify_paper_runs_the_suite():
    assert "hochschild.verification" in command_ran("verify-paper", "--only",
                                                    "ex3_5")


def test_tracer_after_a_bare_import_restores_every_binding():
    # the tracer loads the modules as it scans `sys.modules`; each must
    # bind the original functions, so that inside the tracer no module
    # holds an unwrapped target and after it none holds a wrapper
    got = fresh_python(PRELUDE + """
import hochschild
spans = load_spans()

def bound(objects):
    ids = {id(f) for f in objects}
    return sorted(f"{n}.{k}" for n, m in list(sys.modules.items())
                  if n.startswith("hochschild") for k, v in vars(m).items()
                  if id(v) in ids)

with spans.Tracer(hochschild):
    wrappers = [getattr(sys.modules["hochschild." + m], a)
                for m, a, *_ in spans.TARGETS if "." not in a]
    unwrapped = bound(f.__wrapped__ for f in wrappers)
print(json.dumps([unwrapped, bound(wrappers)]), file=sys.stderr)
""")
    assert got == [[], []]
