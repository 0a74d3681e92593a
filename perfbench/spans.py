"""Per-layer spans for a traced benchmark pass.

`Tracer` wraps the public functions and methods of each hochschild module
from outside the package.  Modules bind names with `from .linalg import
...`, so every `hochschild.*` module attribute that holds a wrapped
function is rebound while the tracer is active, and restored when it
exits.  Each call records a span (layer, start, end, parent) in memory;
a layer's self time is its spans' durations minus their children's.
Counts (matrix shapes, nnz, kernel sizes, which engine answered `hh`)
are read from arguments and return values.  Per-scalar and per-matvec
functions are deliberately not wrapped: their call counts would make the
wrapper cost swamp the work.
"""

import functools
import sys
import time
from collections import Counter

BLOCK_NAMES = ("ex3_5", "ex3_8", "kernel_forms", "relext", "surjectivity",
               "identities", "oracles")

# (metric, unit) in the order BENCHMARK.json lists them.  Times are self
# time unless the name is a verification block or a trace total.
PER_LAYER = (
    [("algebra.build.self_s", "s"), ("algebra.build.calls", "count"),
     ("algebra.build.dim_sum", "count"),
     ("bimodule.construct.self_s", "s"), ("bimodule.construct.calls", "count"),
     ("bimodule.checked.calls", "count"),
     ("cohomology.bar.self_s", "s"), ("cohomology.bar.calls", "count"),
     ("cohomology.bar.rows", "count"), ("cohomology.bar.nnz", "count"),
     ("cohomology.normalized.self_s", "s"),
     ("cohomology.normalized.calls", "count"),
     ("cohomology.normalized.builds", "count"),
     ("cohomology.normalized.cols", "count"),
     ("cohomology.normalized.nnz", "count"),
     ("cohomology.hh.self_s", "s"), ("cohomology.hh.calls", "count"),
     ("cohomology.hh.cache_hit_frac", "ratio"),
     ("cohomology.hh.answered_bar", "count"),
     ("cohomology.hh.answered_normalized", "count"),
     ("cohomology.hh.refused", "count")]
    + [(f"cohomology.{part}.{stat}", unit)
       for part in ("class_coords", "transport", "cup")
       for stat, unit in (("self_s", "s"), ("calls", "count"))]
    + [("linalg.kernel.self_s", "s"), ("linalg.kernel.calls", "count"),
       ("linalg.kernel.nnz_in", "count"), ("linalg.kernel.nnz_out", "count"),
       ("linalg.kernel.pivots", "count")]
    + [(f"linalg.{part}.{stat}", unit)
       for part in ("echelon", "matmul", "solve_rank")
       for stat, unit in (("self_s", "s"), ("calls", "count"))]
    + [(f"extension.{part}.{stat}", unit)
       for part in ("build", "projection", "checks")
       for stat, unit in (("self_s", "s"), ("calls", "count"))]
    + [(f"extcohom.{part}.{stat}", unit)
       for part in ("ext_bimodule", "checks")
       for stat, unit in (("self_s", "s"), ("calls", "count"))]
    + [(f"minres.{part}.{stat}", unit)
       for part in ("resolution", "hh")
       for stat, unit in (("self_s", "s"), ("calls", "count"))]
    + [("relext.self_s", "s")]
    + [(f"verification.block.{name}_s", "s") for name in BLOCK_NAMES]
    + [("verification.self_s", "s"), ("verification.checks", "count"),
       ("verification.checks_failed", "count"),
       ("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"),
       ("trace.unattributed_s", "s")]
)


def _calls(layer):
    def count(c, args, kwargs, result, exc):
        c[layer + ".calls"] += 1
    return count


def _time_only(c, args, kwargs, result, exc):
    pass


def _count_build(c, args, kwargs, result, exc):
    c["algebra.build.calls"] += 1
    if result is not None:
        c["algebra.build.dim_sum"] += result.dim


def _count_bimodule(c, args, kwargs, result, exc):
    # Bimodule.__init__(self, algebra, dim, left, right, labels, product, check)
    c["bimodule.construct.calls"] += 1
    if kwargs.get("check", args[7] if len(args) > 7 else True):
        c["bimodule.checked.calls"] += 1


def _count_bar(c, args, kwargs, result, exc):
    c["cohomology.bar.calls"] += 1
    if result is not None:
        c["cohomology.bar.rows"] += result.rows
        c["cohomology.bar.nnz"] += result.nnz()


def _count_normalized_build(c, args, kwargs, result, exc):
    c["cohomology.normalized.builds"] += 1


def _count_normalized(c, args, kwargs, result, exc):
    c["cohomology.normalized.calls"] += 1
    if result is not None:
        c["cohomology.normalized.cols"] += result.cols
        c["cohomology.normalized.nnz"] += result.nnz()


def _count_kernel(c, args, kwargs, result, exc):
    c["linalg.kernel.calls"] += 1
    if result is not None:
        m = args[0]
        c["linalg.kernel.nnz_in"] += m.nnz()
        c["linalg.kernel.nnz_out"] += sum(len(v) for v in result)
        c["linalg.kernel.pivots"] += m.cols - len(result)


# (module, attribute or Class.method, layer, counter); "hh" is counted by
# the tracer itself, which remembers the spaces it has seen.
TARGETS = [
    ("algebra", "build_algebra", "algebra.build", _count_build),
    ("bimodule", "Bimodule.__init__", "bimodule.construct", _count_bimodule),
    ("bimodule", "regular_bimodule", "bimodule.construct", _time_only),
    ("bimodule", "dual_bimodule", "bimodule.construct", _time_only),
    ("cohomology", "bar_differential", "cohomology.bar", _count_bar),
    ("cohomology", "NormalizedComplex.__init__", "cohomology.normalized",
     _count_normalized_build),
    ("cohomology", "NormalizedComplex.differential", "cohomology.normalized",
     _count_normalized),
    ("cohomology", "hh", "cohomology.hh", None),
    ("cohomology", "CohomologySpace.class_coords", "cohomology.class_coords",
     _calls("cohomology.class_coords")),
    ("cohomology", "transport", "cohomology.transport",
     _calls("cohomology.transport")),
    ("cohomology", "cup", "cohomology.cup", _calls("cohomology.cup")),
    ("linalg", "kernel_basis_sparse", "linalg.kernel", _count_kernel),
    ("linalg", "echelon_basis", "linalg.echelon", _calls("linalg.echelon")),
    ("linalg", "Mat.matmul", "linalg.matmul", _calls("linalg.matmul")),
    ("linalg", "solve", "linalg.solve_rank", _calls("linalg.solve_rank")),
    ("linalg", "rank", "linalg.solve_rank", _calls("linalg.solve_rank")),
    ("minres", "build_partial_resolution", "minres.resolution",
     _calls("minres.resolution")),
    ("minres", "hh_via_resolution", "minres.hh", _calls("minres.hh")),
    ("relext", "relation_extension_algebra", "relext", _time_only),
    ("relext", "crosscheck_with_trivial_extension", "relext", _time_only),
    ("extcohom", "ext_dual_bimodule", "extcohom.ext_bimodule",
     _calls("extcohom.ext_bimodule")),
] + [
    ("extension", name, "extension.build", _calls("extension.build"))
    for name in ("split_extension", "trivial_extension", "extension_from_maps")
] + [
    ("extension", "projection_morphism", "extension.projection",
     _calls("extension.projection")),
] + [
    ("extension", name, "extension.checks", _calls("extension.checks"))
    for name in ("check_cup_compatibility", "check_derivation_splitting",
                 "check_growth_bound", "check_kernel_sequence",
                 "check_projection_chain_identity",
                 "check_surjectivity_witness")
] + [
    ("extcohom", name, "extcohom.checks", _calls("extcohom.checks"))
    for name in ("check_chain_map", "check_projection1_surjective_for_ext")
]


class Patch:
    """Rebinds package functions while active and restores them on exit.

    Modules bind names with `from .linalg import ...`, so a function is
    replaced in every `hochschild.*` module attribute that holds it.
    """

    def __init__(self, package):
        self.package = package
        self._undo = []

    def __exit__(self, *exc_info):
        self._restore()

    def _function(self, module, attr):
        return getattr(sys.modules[f"{self.package.__name__}.{module}"], attr)

    def _rebind(self, original, wrapper):
        prefix = self.package.__name__
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == prefix
                                   or name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append(
                        (functools.partial(setattr, mod), attr, original))
                    setattr(mod, attr, wrapper)

    def _restore(self):
        while self._undo:
            put, name, original = self._undo.pop()
            put(name, original)


# Functions at whose every return an untraced verify-paper pass may be
# cut: called throughout it, in an order fixed by its input.
CHECKPOINTS = (("cohomology", "hh"), ("cohomology", "bar_differential"),
               ("linalg", "kernel_basis_sparse"))


class Checkpoints(Patch):
    """A call of mark() at every return of the CHECKPOINTS functions, so
    that a pass the benchmark cannot split itself can be cut all the
    same.  Costs one call of mark() per checkpoint call.

    Use as `with Checkpoints(hochschild, mark): ...`.
    """

    def __init__(self, package, mark):
        super().__init__(package)
        self.mark = mark

    def __enter__(self):
        try:
            for module, attr in CHECKPOINTS:
                original = self._function(module, attr)
                self._rebind(original, self._wrap(original))
        except BaseException:
            self._restore()
            raise
        return self

    def _wrap(self, fn):
        mark = self.mark

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                mark()

        return marked


class Tracer(Patch):
    """Spans and counts for the calls made while the tracer is active.

    Use as `with Tracer(hochschild) as t: ...`; read `t.metrics(wall)`
    afterwards.  One tracer serves one pass: `hh` cache hits are detected
    by a space being returned twice within it.
    """

    def __init__(self, package):
        super().__init__(package)
        self.spans = []       # [layer, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._spaces = {}     # id -> space, kept alive so ids stay unique

    # -- installation ------------------------------------------------------

    def __enter__(self):
        try:
            for module, attr, layer, counter in TARGETS:
                self._install(module, attr, layer, counter or self._count_hh)
            blocks = sys.modules[self.package.__name__ + ".verification"].BLOCKS
            for name in BLOCK_NAMES:
                wrapper = self._wrap(blocks[name], "verification.block." + name,
                                     _time_only)
                self._rebind(blocks[name], wrapper)
                self._undo.append((blocks.__setitem__, name, blocks[name]))
                blocks[name] = wrapper
        except BaseException:
            self._restore()
            raise
        return self

    def _install(self, module, attr, layer, counter):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = self._function(module, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((functools.partial(setattr, cls), meth, original))
            setattr(cls, meth, self._wrap(original, layer, counter))
        else:
            original = self._function(module, attr)
            self._rebind(original, self._wrap(original, layer, counter))

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, layer, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                counter(counts, args, kwargs, result, exc)
                stack.pop()
                span[2] = clock()

        return traced

    def _count_hh(self, c, args, kwargs, result, exc):
        c["cohomology.hh.calls"] += 1
        if isinstance(exc, self.package.CapExceeded):
            c["cohomology.hh.refused"] += 1
        elif result is not None:
            if id(result) in self._spaces:
                c["cohomology.hh.cache_hits"] += 1
            else:
                self._spaces[id(result)] = result
                c["cohomology.hh.answered_" + result.backend] += 1

    # -- results ---------------------------------------------------------------

    def metrics(self, wall_s):
        """Every PER_LAYER metric for a pass of wall_s; the run-level ones
        (trace.overhead_frac, verification.checks*) are 0, for the caller
        to fill in."""
        child = [0.0] * len(self.spans)
        rooted = 0.0
        for layer, start, end, parent in self.spans:
            if parent < 0:
                rooted += end - start
            else:
                child[parent] += end - start
        self_s, total_s = Counter(), Counter()
        for i, (layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
            total_s[layer] += end - start
        out = {name: 0 for name, _ in PER_LAYER}
        out.update((name, value) for name, value in self.counts.items()
                   if name in out)
        for layer, value in self_s.items():
            if layer.startswith("verification.block."):
                out[layer + "_s"] = total_s[layer]
                out["verification.self_s"] += value
            else:
                out[layer + ".self_s"] = value
        calls = self.counts["cohomology.hh.calls"]
        out["cohomology.hh.cache_hit_frac"] = (
            self.counts["cohomology.hh.cache_hits"] / calls if calls else 0.0)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - rooted
        return out
