"""The bundled verification suite: every finite computation the library
was built to replicate, one named block per theme.

Blocks: ex3_5, ex3_8, kernel_forms, relext, surjectivity, identities,
oracles.  Each check reports a name, a verdict and small data; nothing is
skipped silently.  All results are deterministic, so two runs produce
byte-identical reports.
"""

import functools
import os
import time

from .algebra import algebra_morphism, build_algebra
from .algfile import BUNDLED, input_hash, load_bundled
from .bimodule import (
    bimodules_isomorphic, dual_bimodule, hom_bimodule, regular_bimodule,
)
from .cohomology import (
    bar_square_vanishes, bracket1, derivation_from_arrow_values, hh,
    hh1_via_derivations, transport,
)
from .extcohom import (
    check_chain_map, check_projection1_surjective_for_ext, ext_dual_bimodule,
)
from .extension import (
    check_cup_compatibility, check_derivation_splitting, check_growth_bound,
    check_kernel_sequence, check_projection_chain_identity, extension_from_maps,
    projection_morphism, projection_respects_representatives,
    symmetrization_kernel_coefficients, trivial_extension,
    zero_pairing_coefficients, zero_pairing_morphisms,
)
from .linalg import QQ, axpy, same_subspace
from .minres import hh_via_resolution
from .relext import crosscheck_with_trivial_extension, relation_extension_algebra

BLOCK_NAMES = ["ex3_5", "ex3_8", "kernel_forms", "relext", "surjectivity",
               "identities", "oracles"]

CORPUS = ["ex3_5_C", "ex3_5_B", "ex3_8_C", "ex3_8_B", "ex5_9_C", "square"]


class Suite:
    """Cached builders shared across blocks of one verification run.

    Each bundled algebra, each presented extension and each trivial
    extension of a bundled algebra is built once per run, so a block
    reads the cohomology spaces, ranks, representatives and bar-formula
    kernels that an earlier block cached on the same objects.  The
    extensions by E_0 and E_1 are the exception: one check reads each,
    so they are built for it and not kept, where they would hold their
    cohomology spaces through the identities block for nothing.
    """

    UNKEPT = ("E_0", "E_1")

    def __init__(self):
        self._algebras = {}
        self._presented = {}
        self._extensions = {}

    def algebra(self, name):
        got = self._algebras.get(name)
        if got is None:
            got = self._algebras[name] = build_algebra(load_bundled(name)[1])
        return got

    def extension(self, name, kind):
        """The trivial extension of the bundled algebra name by its dual
        bimodule (kind "dual"), its regular bimodule ("regular") or
        E_m = Ext^m_C(DC, C) ("E_0", "E_1", "E_2")."""
        got = self._extensions.get((name, kind))
        if got is None:
            C = self.algebra(name)
            if kind == "dual":
                module = dual_bimodule(C)
            elif kind == "regular":
                module = regular_bimodule(C)
            elif kind in ("E_0", "E_1", "E_2"):
                module = ext_dual_bimodule(C, int(kind[2:]))
            else:
                raise ValueError(kind)
            got = trivial_extension(C, module)
            if kind not in self.UNKEPT:
                self._extensions[(name, kind)] = got
        return got

    def presented_extension(self, which):
        """The two split extensions given by explicit algebra maps, and
        those maps (p, q) of the given B."""
        got = self._presented.get(which)
        if got is not None:
            return got
        if which == "ex3_5":
            c = self.algebra("ex3_5_C")
            b = self.algebra("ex3_5_B")
            cq, bq = c.presentation.quiver, b.presentation.quiver
            p = algebra_morphism(b, c, {
                "a0": c.element_from_path(cq.path("alpha0")),
                "a1": c.element_from_path(cq.path("alpha1")),
                "abar0": c.element_from_path(cq.path("alpha1")),
                "abar1": c.element_from_path(cq.path("alpha0")).scaled(-1),
            })
            q = algebra_morphism(c, b, {
                "alpha0": b.element_from_path(bq.path("a0")),
                "alpha1": b.element_from_path(bq.path("a1")),
            })
        elif which == "ex3_8":
            c = self.algebra("ex3_8_C")
            b = self.algebra("ex3_8_B")
            cq, bq = c.presentation.quiver, b.presentation.quiver
            p = algebra_morphism(b, c, {
                "alpha": c.element_from_path(cq.path("alpha")),
                "beta": c.element_from_path(cq.path("beta")),
                "gamma": c.element_from_path(cq.path("gamma")),
                "eps": c.element({}),
            })
            q = algebra_morphism(c, b, {
                "alpha": b.element_from_path(bq.path("alpha")),
                "beta": b.element_from_path(bq.path("beta")),
                "gamma": b.element_from_path(bq.path("gamma")),
            })
        else:
            raise ValueError(which)
        got = self._presented[which] = (extension_from_maps(c, b, p, q),
                                         (p, q))
        return got

    def outer_derivations_ex3_5(self):
        b = self.algebra("ex3_5_B")
        q = b.presentation.quiver

        def elem(*names):
            return b.element_from_path(q.path(*names))

        u0 = derivation_from_arrow_values(
            b, {"a0": elem("a0"), "a1": elem("a1")})
        u1 = derivation_from_arrow_values(
            b, {"abar0": elem("a1"), "abar1": elem("a0").scaled(-1)})
        v0 = derivation_from_arrow_values(
            b, {"a0": elem("abar1"), "a1": elem("abar0").scaled(-1)})
        v1 = derivation_from_arrow_values(
            b, {"abar0": elem("abar0").scaled(-1),
                "abar1": elem("abar1").scaled(-1)})
        return u0, u1, v0, v1


def _check(name, ok, **data):
    out = {"name": name, "pass": bool(ok)}
    out.update(data)
    out["_at"] = time.monotonic()  # when the check was made; run_blocks pops it
    return out


def _dims_check(name, got, want):
    return _check(name, list(got) == list(want), got=list(got),
                  expected=list(want))


# ---------------------------------------------------------------------------


def block_ex3_5(suite):
    checks = []
    ext, (p, q) = suite.presented_extension("ex3_5")
    C, B = ext.C, ext.B
    regC, regB = regular_bimodule(C), regular_bimodule(B)
    q_t = q.transpose()

    def project(f):
        """phi^1 on a cochain of the given B, through the given maps."""
        return transport(f, C, regC, q_t, p)

    # counted as representatives, which live on the normalized complex;
    # the check names keep "via bar" so that stdout stays byte-identical
    checks.append(_dims_check("dim hh^1(C) via bar",
                              [len(hh(C, regC, 1).representatives)], [1]))
    checks.append(_dims_check("dim hh^1(B) via bar",
                              [len(hh(B, regB, 1).representatives)], [4]))
    checks.append(_dims_check("dim hh^1(C) via derivations",
                              [hh1_via_derivations(C, regC).dim], [1]))
    # on the bundled B, whose derivation space block_oracles reads too;
    # phi^1 needs the classes of the rebuilt one, so "via bar" stays there
    given = suite.algebra("ex3_5_B")
    checks.append(_dims_check(
        "dim hh^1(B) via derivations",
        [hh1_via_derivations(given, regular_bimodule(given)).dim], [4]))
    phi1 = projection_morphism(ext, 1)
    checks.append(_check("phi^1 rank 1 and surjective",
                         phi1.rank == 1 and phi1.surjective,
                         rank=phi1.rank, surjective=phi1.surjective))
    u0, u1, v0, v1 = suite.outer_derivations_ex3_5()
    cq = C.presentation.quiver
    xi = derivation_from_arrow_values(C, {
        "alpha0": C.element_from_path(cq.path("alpha0")),
        "alpha1": C.element_from_path(cq.path("alpha1"))})
    HC = phi1.target
    xi_class = HC.class_coords(xi)
    got_u0 = HC.class_coords(project(u0))
    got_v0 = HC.class_coords(project(v0))
    checks.append(_check(
        "phi^1 sends the u0 and -v0 classes to the nonzero xi class",
        any(xi_class) and got_u0 == xi_class
        and got_v0 == tuple(QQ.neg(c) for c in xi_class)))
    checks.append(_check(
        "phi^1 kills the u1 and v1 classes",
        HC.class_is_zero(project(u1))
        and HC.class_is_zero(project(v1))))
    bracket_image = project(bracket1(u0, v0))
    image_bracket = bracket1(project(u0), project(v0))
    checks.append(_check(
        "bracket compatibility fails: [u0,v0] projects to a nonzero class "
        "while the bracket of the projections is a coboundary",
        (not HC.class_is_zero(bracket_image))
        and HC.class_is_zero(image_bracket)))
    verdict = bimodules_isomorphic(ext.E, dual_bimodule(C))
    checks.append(_check("ker p is isomorphic to the dual bimodule",
                         verdict.verdict == "yes", verdict=verdict.verdict))
    return checks


def block_ex3_8(suite):
    checks = []
    ext, _ = suite.presented_extension("ex3_8")
    C, B = ext.C, ext.B
    regC, regB = regular_bimodule(C), regular_bimodule(B)
    checks.append(_dims_check("dim hh^1(C)",
                              [len(hh(C, regC, 1).representatives)], [2]))
    checks.append(_dims_check("dim hh^1(B)",
                              [len(hh(B, regB, 1).representatives)], [3]))
    checks.append(_dims_check("dim hh^1(C) via derivations",
                              [hh1_via_derivations(C, regC).dim], [2]))
    given = suite.algebra("ex3_8_B")  # as in block_ex3_5
    checks.append(_dims_check(
        "dim hh^1(B) via derivations",
        [hh1_via_derivations(given, regular_bimodule(given)).dim], [3]))
    phi1 = projection_morphism(ext, 1)
    checks.append(_check("phi^1 has rank 1 and is not surjective",
                         phi1.rank == 1 and not phi1.surjective,
                         rank=phi1.rank, surjective=phi1.surjective))
    return checks


def block_kernel_forms(suite):
    checks = []
    ext, _ = suite.presented_extension("ex3_5")
    esp = zero_pairing_morphisms(ext.E)
    checks.append(_dims_check("dim of the zero-pairing space", [len(esp)], [1]))
    seq = check_kernel_sequence(ext)
    degree1 = [c for c in seq["checks"] if c["name"] == "degree 1 sequence"]
    checks.append(_check("kernel sequence 4 = 2 + 1 + 1",
                         seq["pass"] and degree1
                         and degree1[0]["dims"] == [4, 2, 1, 1],
                         dims=degree1[0]["dims"] if degree1 else None))
    homs = hom_bimodule(ext.E, regular_bimodule(ext.C))
    a = zero_pairing_coefficients(ext.E, homs)
    b = symmetrization_kernel_coefficients(ext.E, homs)
    checks.append(_check(
        "kernel of id(x)f + f(x)id equals the zero-pairing space",
        same_subspace(a, b, QQ) and len(a) == 1))
    return checks


def block_relext(suite):
    checks = []
    _, pres = load_bundled("ex5_9_C")
    rext, algebra_b = relation_extension_algebra(pres)
    C = suite.algebra("ex5_9_C")
    new = [(n, rext.quiver.arrow_by_name[n].source,
            rext.quiver.arrow_by_name[n].target) for n, _ in rext.new_arrows]
    checks.append(_check("one new arrow 3 -> 1",
                         new == [("rel0", "3", "1")], new_arrows=new))
    checks.append(_check("potential is the single cycle alpha*beta*rel0",
                         rext.potential.cycles() ==
                         [("alpha", "beta", "rel0")]))
    words = sorted(tuple(p.arrows) for r in rext.relations for p in r.paths())
    checks.append(_check(
        "relations are the three derivatives plus the square generator",
        words == [("alpha", "beta"), ("beta", "rel0"),
                  ("rel0", "alpha"), ("rel0", "gamma", "rel0")],
        relations=[list(w) for w in words]))
    e2 = ext_dual_bimodule(C, 2)
    checks.append(_check("dim B = 10 = 6 + dim E_2 with dim E_2 = 4",
                         algebra_b.dim == 10 and C.dim == 6 and e2.dim == 4,
                         dims=[algebra_b.dim, C.dim, e2.dim]))
    regC = regular_bimodule(C)
    # counted as representatives, which later checks read anyway; the
    # dims of B below stay ranks, since its representatives are never built
    checks.append(_dims_check(
        "hh^0..hh^3 of C",
        [len(hh(C, regC, n).representatives) for n in range(4)],
        [1, 1, 1, 0]))
    regB = regular_bimodule(algebra_b)
    checks.append(_dims_check("hh^0..hh^2 of B",
                              [hh(algebra_b, regB, n).dim for n in range(3)],
                              [2, 2, 2]))
    ext = suite.extension("ex5_9_C", "E_2")
    phi1 = projection_morphism(ext, 1)
    seq = check_kernel_sequence(ext)
    degree1 = [c for c in seq["checks"] if c["name"] == "degree 1 sequence"]
    checks.append(_check("phi^1 surjective with kernel identity 2 = 1 + 0 + 1",
                         phi1.surjective and seq["pass"] and degree1
                         and degree1[0]["dims"] == [2, 1, 0, 1],
                         dims=degree1[0]["dims"] if degree1 else None))
    phi2 = projection_morphism(ext, 2)
    checks.append(_check("phi^2 is the zero map", phi2.matrix.is_zero(),
                         rank=phi2.rank, dims=[phi2.source.dim,
                                               phi2.target.dim]))
    checks.append(_check("zero-pairing space of E_2 vanishes",
                         zero_pairing_morphisms(e2) == []))
    checks.append(_dims_check("hh^1(C, E_2)", [hh(C, e2, 1).dim], [0]))
    checks.append(_dims_check("dim End(E_2)", [len(hom_bimodule(e2, e2))], [1]))
    gb = check_growth_bound(ext)
    checks.append(_check("growth bound with equality", gb["pass"]
                         and gb.get("equality_holds"), gap=gb["gap"]))
    from .minres import chain_paths
    chains_b = chain_paths(algebra_b)
    got_g2 = sorted(p.arrows for p in chains_b.relations)
    got_g3 = sorted(p.arrows for p in chains_b.overlaps)
    checks.append(_check(
        "resolution chain sets match the expected lists",
        got_g2 == [("alpha", "beta"), ("beta", "rel0"), ("rel0", "alpha"),
                   ("rel0", "gamma", "rel0")]
        and got_g3 == [("alpha", "beta", "rel0"),
                       ("beta", "rel0", "alpha"),
                       ("beta", "rel0", "gamma", "rel0"),
                       ("rel0", "alpha", "beta"),
                       ("rel0", "gamma", "rel0", "alpha"),
                       ("rel0", "gamma", "rel0", "gamma", "rel0")],
        g2=[list(w) for w in got_g2], g3=[list(w) for w in got_g3]))
    # against the normalized representatives: hh's dims of a monomial
    # algebra are read off the resolution itself
    for name, alg in (("C", C), ("B", algebra_b)):
        reg = regular_bimodule(alg)
        ok = all(hh_via_resolution(alg, n).dim ==
                 len(hh(alg, reg, n).vectors()) for n in (0, 1, 2))
        checks.append(_check(f"resolution dims equal bar dims for {name}", ok))
    crosscheck = crosscheck_with_trivial_extension(pres)
    checks.append(_check("Jacobian route matches the trivial extension",
                         crosscheck["pass"],
                         dims=[crosscheck["dim_B"], crosscheck["dim_C"],
                               crosscheck["dim_E2"]]))
    return checks


def block_surjectivity(suite):
    checks = []
    for name in CORPUS:
        C = suite.algebra(name)
        for kind in ("dual", "regular"):
            ext = suite.extension(name, kind)
            ok = True
            ranks = []
            for n in (0, 1, 2):
                phi = projection_morphism(ext, n)
                ranks.append(phi.rank)
                ok = ok and phi.surjective
            checks.append(_check(
                f"phi^0..phi^2 surjective for {name} |x {kind}", ok,
                ranks=ranks))
        for m in (0, 1, 2):
            report = check_projection1_surjective_for_ext(
                C, m, functools.partial(suite.extension, name, f"E_{m}"))
            checks.append(_check(
                f"phi^1 surjective with witness for {name} |x ext^{m}",
                report["pass"], dim_E=report["dim_E"]))
    return checks


def _identity_extensions(suite):
    """The extensions the identity suites run over: the two presented
    ones, the relation extension, and every dual/regular trivial
    extension of the corpus."""
    out = [("ex3_5 presented", suite.presented_extension("ex3_5")[0]),
           ("ex3_8 presented", suite.presented_extension("ex3_8")[0]),
           ("ex5_9 relation extension", suite.extension("ex5_9_C", "E_2"))]
    for name in CORPUS:
        for kind in ("dual", "regular"):
            out.append((f"{name} |x {kind}", suite.extension(name, kind)))
    return out


def _cup_bound(ext):
    """Largest total degree whose class spaces stay under the bar cap."""
    from .cohomology import BAR_CAP
    bound = 3
    while bound > 1 and ext.B.dim ** (bound + 1) * ext.B.dim > BAR_CAP:
        bound -= 1
    return bound


def _anticommute(space, s, f, t, g):
    """f u g + g u f has class 0 in space, for vectors f, g of the
    normalized complex in degrees s, t."""
    nc, field = space.complex, space.algebra.field
    total = nc.cup(s, f, t, g)
    axpy(field, total, field.one, nc.cup(t, g, s, f))
    return space.vector_coords(total) == {}


def block_identities(suite):
    checks = []
    # b o b = 0 through degree 3 on every corpus algebra, both coefficient
    # choices
    for name in CORPUS:
        A = suite.algebra(name)
        ok = all(bar_square_vanishes(A, module, 3)
                 for module in (regular_bimodule(A), dual_bimodule(A)))
        checks.append(_check(f"b o b = 0 through degree 3 on {name}", ok))
    exts = _identity_extensions(suite)
    for label, ext in exts:
        ok = all(check_projection_chain_identity(ext, n, trials=20)["holds"]
                 for n in (0, 1, 2))
        checks.append(_check(
            f"projection chain identity on 20 random cochains, {label}", ok))
    for label, ext in exts:
        bound = _cup_bound(ext)
        report = check_cup_compatibility(ext, bound)
        checks.append(_check(
            f"cup compatibility through total degree {bound}, {label}",
            report["holds"], pairs=report["pairs"]))
    for label, ext in exts:
        ok = projection_respects_representatives(ext, 1, trials=3)
        checks.append(_check(
            f"phi^1 independent of representatives, {label}", ok))
    # the chain-map identity for the derivation action
    for name in CORPUS:
        C = suite.algebra(name)
        reps = hh(C, regular_bimodule(C), 1).representatives
        ok = True
        modes = set()
        for zeta in reps:
            for m in (0, 1):
                report = check_chain_map(C, m, zeta)
                ok = ok and report["holds"]
                modes.add(report["mode"])
        checks.append(_check(
            f"derivation action is a chain map on {name}", ok,
            modes=sorted(modes)))
    # derivation splittings on every trivial extension, once each: the
    # per-algebra line reads the reports of its dual and regular ones
    splits = {label: check_derivation_splitting(ext)["pass"]
              for label, ext in exts if ext.is_trivial}
    for name in CORPUS:
        checks.append(_check(
            f"derivation splittings for the trivial extensions of {name}",
            splits[f"{name} |x dual"] and splits[f"{name} |x regular"]))
    for label, ok in splits.items():
        checks.append(_check(f"derivation splittings, {label}", ok))
    # graded commutativity of the cup product on sampled class pairs, on
    # representative vectors
    for label, ext in exts[:3]:
        B = ext.B
        regB = regular_bimodule(B)
        h1 = hh(B, regB, 1)
        h2 = hh(B, regB, 2)
        ok = True
        for f in h1.vectors():
            for g in h1.vectors():
                if not _anticommute(h2, 1, f, 1, g):
                    ok = False
        for f in h1.vectors()[:2]:
            for g in h2.vectors()[:2]:
                if not _anticommute(hh(B, regB, 3), 1, f, 2, g):
                    ok = False
        checks.append(_check(f"graded commutativity of cup, {label}", ok))
    return checks


def block_oracles(suite):
    checks = []
    # "via bar" and "equals bar" in the names below mean hh, which runs on
    # the normalized complex; the names stay so that stdout stays
    # byte-identical
    for name in CORPUS:
        A = suite.algebra(name)
        ok = True
        for module in (regular_bimodule(A), dual_bimodule(A)):
            if hh1_via_derivations(A, module).dim != hh(A, module, 1).dim:
                ok = False
        checks.append(_check(
            f"hh^1 via derivations equals hh^1 via bar on {name}", ok))
    for label in ("ex3_5", "ex3_8"):
        ext, _ = suite.presented_extension(label)
        EB = ext.E_as_B_bimodule()
        ok = hh1_via_derivations(ext.B, EB).dim == hh(ext.B, EB, 1).dim
        checks.append(_check(
            f"hh^1(B, E) via derivations equals bar, {label}", ok))
    for name in CORPUS:
        A = suite.algebra(name)
        if any(len(r.terms) > 1 for r in A.presentation.relations):
            continue  # the resolution route needs monomial relations
        reg = regular_bimodule(A)
        ok = all(hh_via_resolution(A, n).dim ==
                 len(hh(A, reg, n).vectors()) for n in (0, 1, 2))
        checks.append(_check(
            f"resolution dims equal bar dims on {name}", ok))
    return checks


BLOCKS = {
    "ex3_5": block_ex3_5,
    "ex3_8": block_ex3_8,
    "kernel_forms": block_kernel_forms,
    "relext": block_relext,
    "surjectivity": block_surjectivity,
    "identities": block_identities,
    "oracles": block_oracles,
}


def normalize_block_name(name):
    return name.replace(".", "_").replace("-", "_")


def run_blocks(only=None, timings=None):
    """Run the suite (or one block); returns the canonical report body.

    With a list for timings, one (block name, seconds, [seconds per
    check]) is appended per block; a check's time is the time since the
    previous check of its block was made (since the block began, for the
    first).  The report itself carries no times.
    """
    suite = Suite()
    names = BLOCK_NAMES
    if only is not None:
        wanted = normalize_block_name(only)
        if wanted not in BLOCKS:
            raise ValueError(f"unknown block {only!r}; "
                             f"choose from {', '.join(BLOCK_NAMES)}")
        names = [wanted]
    blocks = []
    all_pass = True
    for name in names:
        start = time.monotonic()
        try:
            checks = BLOCKS[name](suite)
        except Exception as exc:  # a crash is a named failure, not a crash
            tb = exc.__traceback__
            while tb.tb_next is not None:  # to the frame that raised
                tb = tb.tb_next
            where = (f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:"
                     f"{tb.tb_lineno}")
            checks = [_check(f"block {name} raised {type(exc).__name__}",
                             False, error=f"{where}: {exc}")]
        seconds = time.monotonic() - start
        check_seconds = []
        prev = start
        for check in checks:
            at = check.pop("_at", prev)
            check_seconds.append(at - prev)
            prev = at
        if timings is not None:
            timings.append((name, seconds, check_seconds))
        block_pass = all(c["pass"] for c in checks)
        all_pass = all_pass and block_pass
        blocks.append({"name": name, "pass": block_pass, "checks": checks})
    bundle_hash = input_hash({name: _bundle(name) for name in BUNDLED})
    return {"blocks": blocks, "pass": all_pass, "input_hash": bundle_hash}


def _bundle(name):
    data, _ = load_bundled(name)
    return data
