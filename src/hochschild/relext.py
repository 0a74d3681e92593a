"""Relation extensions presented by quivers with potential.

For a triangular algebra C = kQ/I of global dimension at most two (the
bound is asserted by the caller, not checked), the trivial extension
B = C |x Ext^2(DC, C) has the same vertices, one new arrow y -> x per
relation x -> y in a minimal system, and is presented by the cyclic
derivatives of the potential W = sum rho_i alpha_i together with the
square of the new-arrow ideal.

The square is generated by the paths c = new * (old path) * new.  Each
is kept unless the relations accepted before it imply it, that is unless
c lies in I + J^(L+1), with I their ideal, J the arrow ideal and
L = len(c) + 2.  The test is a normal form modulo the reduced Gröbner
basis of I + J^(L+1) (`algebra._GroebnerBasis`), generated by the
relations and every path of length L + 1.  Every longer path contains
one of those, so the completion meets no tip longer than L + 1.
"""

from dataclasses import dataclass, field as dc_field

from .algebra import (
    AdmissibilityError, _GroebnerBasis, _presentation, _word_key, _words,
    build_algebra, system_of_relations,
)
from .quiver import Arrow, Path, PathSum, Presentation, Quiver, paths_up_to

_PATH_GUARD = 500_000  # a padding path space past this is hopeless


class Potential:
    """A linear combination of cycles, stored up to cyclic rotation.

    Each cycle is keyed by its lexicographically least rotation.
    """

    def __init__(self, quiver, terms=None, field=None):
        from .linalg import QQ
        self.quiver = quiver
        self.field = field or QQ
        self.terms = {}
        for cyc, c in (terms or {}).items():
            self.add_cycle(cyc, c)

    @staticmethod
    def canonical_rotation(names):
        rotations = [tuple(names[i:]) + tuple(names[:i])
                     for i in range(len(names))]
        return min(rotations)

    def add_cycle(self, names, coeff):
        names = tuple(names)
        path = self.quiver.path(*names)
        if path.source != path.target:
            raise ValueError(f"{'*'.join(names)} is not a cycle")
        coeff = self.field.of(coeff)
        key = self.canonical_rotation(names)
        cur = self.terms.get(key)
        total = self.field.add(cur, coeff) if cur is not None else coeff
        if total:
            self.terms[key] = total
        elif key in self.terms:
            del self.terms[key]

    def cycles(self):
        return sorted(self.terms)

    def is_zero(self):
        return not self.terms

    def label(self):
        from .quiver import format_linear_combination
        pairs = [(self.terms[c], "*".join(c)) for c in self.cycles()]
        return format_linear_combination(pairs, self.field)

    def __repr__(self):
        return f"Potential({self.label()})"


def cyclic_derivative(potential, arrow_name):
    """Sum over the occurrences of the arrow of the rotated remainders.

    Rotation-invariant by construction; the sum runs over the positions
    where the cycle letter equals the arrow.
    """
    quiver = potential.quiver
    field = potential.field
    terms = []
    for cyc in potential.cycles():
        coeff = potential.terms[cyc]
        for i, name in enumerate(cyc):
            if name != arrow_name:
                continue
            tail = cyc[i + 1:] + cyc[:i]
            if tail:
                path = quiver.path(*tail)
            else:
                arrow = quiver.arrow_by_name[arrow_name]
                path = quiver.trivial_path(arrow.target)
            terms.append((path, coeff))
    return PathSum(terms, field)


@dataclass
class RelationExtensionPresentation:
    """Everything the Jacobian route produces for one algebra."""

    base: object                  # the input presentation of C
    quiver: Quiver                # Q_B
    new_arrows: list              # [(arrow name, relation PathSum)]
    potential: Potential
    jacobian_relations: list      # cyclic derivatives, nonzero ones
    square_generators: list       # accepted generators of J
    implied_square_generators: list = dc_field(default_factory=list)

    @property
    def relations(self):
        return self.jacobian_relations + self.square_generators


def relation_extension_quiver(source):
    """Q_B plus the new arrows, one per relation of a minimal system.

    source is a presentation of C, or an algebra built from one (which
    spares building C again), as for `system_of_relations`.
    """
    quiver = _presentation(source).quiver
    if not quiver.is_acyclic():
        raise ValueError("relation extensions need a triangular algebra")
    rels = system_of_relations(source)
    arrows = list(quiver.arrows)
    new = []
    for k, rho in enumerate(rels):
        x, y = rho.endpoints()
        name = f"rel{k}"
        arrows.append(Arrow(name, y, x))
        new.append((name, rho))
    return Quiver(quiver.vertices, arrows), new


def keller_potential(quiver_b, new_arrows, field=None):
    """W = sum over relations rho_i of rho_i * alpha_i."""
    from .linalg import QQ
    w = Potential(quiver_b, field=field or QQ)
    for name, rho in new_arrows:
        for path, coeff in rho.terms.items():
            w.add_cycle(path.arrows + (name,), coeff)
    return w


def _old_paths_between(quiver):
    """All paths using only old arrows, grouped by (source, target)."""
    cap = len(quiver.arrows) + 1
    by_ends = {}
    for p in paths_up_to(quiver, cap):
        by_ends.setdefault((p.source, p.target), []).append(p)
    return by_ends


def relation_extension_algebra(source):
    """The Jacobian-plus-square presentation of B, and B itself.

    source is as for `relation_extension_quiver`.  Relations: every
    nonzero cyclic derivative of the Keller potential, plus generators of
    the square of the new-arrow ideal, realized as the paths
    new * (old path) * new; generators already inside the ideal of the
    accepted relations (see the module docstring) are reported, not
    repeated.
    """
    presentation = _presentation(source)
    field = presentation.field
    quiver_b, new_arrows = relation_extension_quiver(source)
    w = keller_potential(quiver_b, new_arrows, field=field)
    jacobian = []
    for arrow in quiver_b.arrows:
        d = cyclic_derivative(w, arrow.name)
        if not d.is_zero():
            jacobian.append(d)

    new_names = [name for name, _ in new_arrows]
    old_by_ends = _old_paths_between(presentation.quiver)
    candidates = []
    for n1 in new_names:
        a1 = quiver_b.arrow_by_name[n1]
        for n2 in new_names:
            a2 = quiver_b.arrow_by_name[n2]
            if a1.target == a2.source:
                candidates.append(Path(a1.source, a2.target, (n1, n2)))
            for mid in old_by_ends.get((a1.target, a2.source), ()):
                if mid.is_trivial:
                    continue
                candidates.append(Path(a1.source, a2.target,
                                       (n1,) + mid.arrows + (n2,)))
    candidates.sort(key=Path.sort_key)

    # the generators of J^(L+1), each path of length L + 1 a monomial,
    # for every candidate length
    longest = len(candidates[-1]) + 3 if candidates else 0
    paths = paths_up_to(quiver_b, longest)
    if len(paths) > _PATH_GUARD:
        raise AdmissibilityError(
            f"path space exceeds {_PATH_GUARD} paths at length {longest}")
    padding = {}
    for p in paths:
        padding.setdefault(len(p), []).append({p.arrows: field.one})

    key = _word_key(quiver_b, "lex")
    words = _words(Presentation(quiver_b, field, jacobian))
    accepted, implied = [], []
    for cand in candidates:
        top = len(cand) + 3
        gb = _GroebnerBasis(field, key, words + padding.get(top, []), top)
        ps = PathSum({cand: field.one}, field)
        if gb.reduce({cand.arrows: field.one}):
            accepted.append(ps)
            words.append({cand.arrows: field.one})
        else:
            implied.append(ps)

    algebra_b = build_algebra(Presentation(quiver_b, field,
                                           jacobian + accepted))
    data = RelationExtensionPresentation(
        base=presentation, quiver=quiver_b, new_arrows=new_arrows,
        potential=w, jacobian_relations=jacobian,
        square_generators=accepted, implied_square_generators=implied)
    return data, algebra_b


def crosscheck_with_trivial_extension(presentation):
    """The Jacobian route against the Ext route, dimension for dimension.

    Builds B both as kQ_B / (dW + J) and as C |x Ext^2(DC, C), compares
    dimensions and quiver counts, and runs the kernel-sequence and
    growth-bound verifiers on the trivial extension.
    """
    from .extcohom import ext_dual_bimodule
    from .extension import (check_growth_bound, check_kernel_sequence,
                            trivial_extension)
    C = build_algebra(presentation)
    data, algebra_b = relation_extension_algebra(C)
    e2 = ext_dual_bimodule(C, 2)
    report = {
        "dim_C": C.dim,
        "dim_E2": e2.dim,
        "dim_B": algebra_b.dim,
        "dim_match": algebra_b.dim == C.dim + e2.dim,
        "vertices_match":
            sorted(data.quiver.vertices) == sorted(presentation.quiver.vertices),
        "new_arrow_count": len(data.new_arrows),
        "gldim_le_2_asserted": True,
    }
    if e2.dim:
        ext = trivial_extension(C, e2)
        report["kernel_sequence"] = check_kernel_sequence(ext)
        report["growth_bound"] = check_growth_bound(ext)
        report["pass"] = (report["dim_match"] and report["vertices_match"]
                          and report["kernel_sequence"]["pass"]
                          and report["growth_bound"]["pass"])
    else:
        report["pass"] = report["dim_match"] and report["vertices_match"]
    return report
