"""Split and trivial extensions B of C by E, and the projection morphisms.

B is C (+) E with product (c,e)(c',e') = (cc', ce' + ec' + ee'), in one
layout: C's basis first, then E's, with p, q, i the coordinate
projection, section and inclusion.  C and E determine it: B's table is
`E.extension_structure()`, the algebra that E's bimodule certificate
checks, so B runs no check of its own (`SplitExtensionData`).  A B
presented with its own maps p and q is rebuilt in that layout as
C (+) ker p (`extension_from_maps`); it is isomorphic to the given B by
[q | i], and a cochain of the given B projects by `transport` with the
given maps.  The degree-n projection
morphism maps the class of f to the class of p o f o q^{(x)n}; it is an
algebra morphism for the cup product, and its rank decides surjectivity.

phi^n and its cup compatibility are computed on the normalized complexes
of the regular bimodules: `normalized_projection` is f -> p o f o q^{(x)n}
as a matrix N^n(B) -> N^n(C), built once per degree and kept on the
extension, and products are `NormalizedComplex.cup`.  The chain identity
and the perturbations below degree 2 keep the cochain route, on purpose:
they run on cochains outside the normalized complex.
"""

import itertools
import random
from dataclasses import dataclass

from .algebra import Algebra, _check_multiplicative
from .bimodule import (
    Bimodule, hom_bimodule, is_symmetric_over_center, peirce_regrade,
    pullback_bimodule, regular_bimodule, sub_bimodule, tensor_over,
)
from .cohomology import (
    BAR_CAP, Cochain, _bar_apply_within, _normalized_complex, bar_apply, hh,
    random_cochain, random_normalized_vector, transport,
)
from .linalg import Mat, axpy, dense, kernel_basis_sparse, rank, scale


class SplitExtensionData:
    """The algebra B = C (+) E, C's basis first and then E's, with the
    coordinate maps p: B -> C, q: C -> B and i: E -> B, so that every
    instance has this one layout.  Make one by trivial_extension,
    split_extension or extension_from_maps; for a presented algebra the
    last gives a B isomorphic to it by [q | i], and cochains of the
    presented algebra project by `transport` with its given maps."""

    def __init__(self, C, E):
        """B from E's table alone, with no certificate of its own.

        B's structure constants are `E.extension_structure()`, with C's
        idempotents and Peirce tags followed by E's: the algebra that
        `Bimodule._check_axioms` certifies, at any size, so B's algebra
        axioms are exactly E's bimodule certificate.  An E that is not
        Peirce-graded is first replaced by its graded twin, which becomes
        self.E and which E's certificate covers (`sub_bimodule`).  Every
        E that reaches here from the package is certified or valid by
        construction: the dual, file and Ext bimodules are certified when
        built; the regular bimodule is C's own table, so its
        conditions are C's associativity and unit; trivial_extension's
        product-free copy keeps the actions of such an E, and with no
        product the product conditions read 0 = 0; and extension_from_maps
        takes E = ker p inside B pulled back along q, which its map
        checks make a bimodule (see there).  A caller who builds E with
        check=False vouches for it.

        The conditions on p, q and i hold by this layout: p o q = id_C;
        p and q are multiplicative and p is unital, since B's products of
        C-indices are C's, every product with an E-index lands in E's
        indices and B's idempotents are C's; i(E) = ker p with i of rank
        dim E; and i(a) i(b) = i(ab), as E's product sits at E's indices.
        """
        E = peirce_regrade(E)[0]
        field = C.field
        nC, nE = C.dim, E.dim
        one = field.one
        self.C = C
        self.E = E
        self.B = Algebra(field, [*C.labels, *(f"[{l}]" for l in E.labels)],
                         E.extension_structure(), C.idempotents,
                         C.peirce + E.peirce, check=False)
        nB = self.B.dim
        self.p = Mat(nC, nB, field, {j: {j: one} for j in range(nC)})
        self.q = Mat(nB, nC, field, {j: {j: one} for j in range(nC)})
        self.i = Mat(nB, nE, field, {j: {nC + j: one} for j in range(nE)})
        # the slot maps of `transport`, transposed once per extension
        self.p_t = self.p.transpose()
        self.q_t = self.q.transpose()
        self._E_as_B = None
        self._C_as_B = None
        # degree -> normalized_projection; Mats only, so no cycle back here
        self._projections = {}

    @property
    def is_trivial(self):
        """E^2 = 0: E carries no nonzero product."""
        return not any((self.E.product or {}).values())

    # -- derived bimodules -----------------------------------------------------

    def E_as_B_bimodule(self):
        """E with the B-action through i: E is an ideal of B, valid as
        B's regular bimodule is (`sub_bimodule`)."""
        if self._E_as_B is None:
            ambient = regular_bimodule(self.B)
            vectors = [dict(self.i.column(j)) for j in range(self.E.dim)]
            self._E_as_B = sub_bimodule(ambient, vectors,
                                        labels=list(self.E.labels))
        return self._E_as_B

    def C_as_B_bimodule(self):
        """C as a B-bimodule through p, which is an algebra map by the
        layout, so the pullback needs no certificate."""
        if self._C_as_B is None:
            self._C_as_B = pullback_bimodule(self.B, self.p,
                                             regular_bimodule(self.C),
                                             check=False)
        return self._C_as_B

    def __repr__(self):
        kind = "trivial" if self.is_trivial else "split"
        return (f"SplitExtensionData({kind}: dim C={self.C.dim}, "
                f"dim E={self.E.dim})")


def split_extension(C, E):
    """B = C (+) E with the product of E folded in; E.product required."""
    if E.product is None:
        raise ValueError("split extension needs a bimodule with a product "
                         "(use trivial_extension for E^2 = 0)")
    return SplitExtensionData(C, E)


def trivial_extension(C, E):
    """B = C |x E: the split extension with E^2 = 0.

    Only the bimodule structure of E enters; a product carried by E (the
    regular bimodule, say) is deliberately forgotten.
    """
    if E.product is None or any(E.product.values()):
        E = Bimodule(C, E.dim, E.left, E.right, labels=E.labels,
                     product={}, check=False)
    return SplitExtensionData(C, E)


def extension_from_maps(C, B, p, q):
    """The split extension of C by E = ker p, for a presented algebra B
    with algebra maps p: B -> C and q: C -> B, p o q = id.

    The given maps are checked: p o q = id_C, p and q multiplicative and
    unital, or ValueError.  E's basis is the deterministic kernel basis
    of p (or its graded twin, see `SplitExtensionData`), with C acting
    through q and the product taken from B.  The checks make E a
    bimodule: B pulled back along a multiplicative, unital q is one, and
    `sub_bimodule` restricts it to ker p, which the actions and the
    product keep as p is multiplicative.  For a multiplicative q, q(1)
    acts as the identity on ker p exactly when q(1) = 1, as q(1) q(c) =
    q(c) and B = q(C) + ker p.
    The result is C (+) E in the one layout: its B is isomorphic to the
    given one by [q | i], i the basis of E as vectors of the given B, and
    its p, q and i are the coordinate maps.  A cochain f of the given B
    projects to C by transport(f, C, regular_bimodule(C), q.transpose(),
    p), with the given maps.
    """
    if p.matmul(q) != Mat.identity(C.dim, C.field):
        raise ValueError("p o q is not the identity of C")
    _check_multiplicative(p, B, C)
    _check_multiplicative(q, C, B)
    if dict(p.matvec(B.unit_coords())) != C.unit_coords():
        raise ValueError("p does not preserve the unit")
    if dict(q.matvec(C.unit_coords())) != B.unit_coords():
        raise ValueError("q does not preserve the unit, so C's unit is not "
                         "a two-sided identity on ker p")
    ambient_c = pullback_bimodule(C, q, regular_bimodule(B), check=False)
    return SplitExtensionData(C, sub_bimodule(ambient_c,
                                              kernel_basis_sparse(p)))


# ---------------------------------------------------------------------------
# the projection morphisms


@dataclass
class ProjectionMatrix:
    """phi^n in the deterministic class bases of hh^n(B) and hh^n(C)."""

    degree: int
    matrix: Mat
    source: object  # CohomologySpace of B
    target: object  # CohomologySpace of C

    @property
    def rank(self):
        return rank(self.matrix)

    @property
    def surjective(self):
        return self.rank == self.target.dim

    @property
    def kernel_dim(self):
        return self.source.dim - self.rank

    def report(self):
        return {
            "degree": self.degree,
            "matrix": self.matrix.to_strings(),
            "rank": self.rank,
            "surjective": self.surjective,
            "surjectivity_criterion":
                "rank of the class matrix equals the target dimension",
            "kernel_dim": self.kernel_dim,
            "dim_source": self.source.dim,
            "dim_target": self.target.dim,
            "source_representatives": [
                rep.matrix().to_strings()
                for rep in self.source.representatives],
            "target_representatives": [
                rep.matrix().to_strings()
                for rep in self.target.representatives],
        }


def project_cochain(ext, f):
    """p o f o q^{(x)n} as a cochain over C with regular coefficients."""
    return transport(f, ext.C, regular_bimodule(ext.C), ext.q_t, ext.p)


def inflate_cochain(ext, f):
    """f o p^{(x)n} as a cochain over B with coefficients C-via-p."""
    ident = Mat.identity(ext.C.dim, ext.C.field)
    return transport(f, ext.B, ext.C_as_B_bimodule(), ext.p_t, ident)


def normalized_projection(ext, n):
    """P^n: N^n(B) -> N^n(C), f -> p o f o q^{(x)n}, as a Mat on the rows
    of the normalized complexes of the regular bimodules.

    B is C (+) E with C's basis first, and p and q are the coordinate
    maps, so column (chain, m) of N^n(B) is the unit vector at (chain, m)
    of N^n(C) when every slot of chain and m are below dim C, and 0
    otherwise.  A key outside N^n(C) raises AssertionError.  `transport`
    stays the general reference.  Built once per (ext, n) and kept on ext.
    """
    got = ext._projections.get(n)
    if got is not None:
        return got
    C = ext.C
    d = C.dim
    flat, pos_b = _normalized_complex(ext.B, regular_bimodule(ext.B)).basis(n)
    pos_c = _normalized_complex(C, regular_bimodule(C)).index(n)
    cols = {}
    for j, (chain, m) in enumerate(flat):
        if m >= d or any(s >= d for s in chain):
            continue
        key = 0
        for s in chain:
            key = key * d + s
        key = key * d + m
        row = pos_c.get(key)
        if row is None:
            raise AssertionError(
                f"P^{n} left the normalized complex of C at key {key}")
        cols[j] = {row: C.field.one}
    got = ext._projections[n] = Mat(len(pos_c), len(pos_b), C.field, cols)
    return got


def projection_morphism(ext, n, cap=BAR_CAP):
    """The matrix of [f] -> [p f q^{(x)n}] on class bases: the class of
    P^n v for each representative vector v of hh^n(B)."""
    HB = hh(ext.B, regular_bimodule(ext.B), n, cap=cap)
    HC = hh(ext.C, regular_bimodule(ext.C), n, cap=cap)
    P = normalized_projection(ext, n)
    entries = {}
    # representatives first: building them fills the rank cache that
    # HB.dim reads, where reading dim first would pay a rank sweep too
    for j, vec in enumerate(HB.vectors()):
        found = HC.vector_coords(P.matvec(vec))
        if found is None:
            raise AssertionError(f"P^{n} sent a cocycle to a non-cocycle")
        for r in sorted(found):
            entries[(r, j)] = found[r]
    matrix = Mat.from_entries(HC.dim, HB.dim, ext.C.field, entries)
    return ProjectionMatrix(n, matrix, HB, HC)


def projection_respects_representatives(ext, n, trials=5, seed=1):
    """Perturbing each representative by a coboundary leaves phi^n alone.

    From degree 2 on the representative is a vector of N^n(B), perturbed
    by d^{n-1} of a random vector of N^{n-1}(B).  Below degree 2 the
    coboundary is b^n of an arbitrary cochain, which leaves the normalized
    complex; class coordinates take it back.
    """
    base = projection_morphism(ext, n)
    HB, HC = base.source, base.target
    regB = regular_bimodule(ext.B)
    field = ext.B.field
    nc = HB.complex
    P = normalized_projection(ext, n) if n > 1 else None
    rng = random.Random(seed)
    for j in range(HB.dim):
        want = tuple(base.matrix.entry(r, j) for r in range(HC.dim))
        f = HB.representative(j) if P is None else HB.vectors()[j]
        for _ in range(trials):
            if P is None:
                g = random_cochain(ext.B, regB, n - 1, rng=rng)
                shifted = f.add(bar_apply(ext.B, regB, n - 1, g))
                got = HC.class_coords(project_cochain(ext, shifted))
            else:
                # d^{n-1}'s rows are flat bar keys, named through index(n)
                shifted = dict(f)
                pos = nc.index(n)
                boundary = nc.differential(n - 1).matvec(
                    random_normalized_vector(nc, n - 1, rng))
                axpy(field, shifted, field.one,
                     {pos[k]: v for k, v in boundary.items()})
                found = HC.vector_coords(P.matvec(shifted))
                got = None if found is None else dense(found, HC.dim, field)
            if got != want:
                return False
    return True


def _projected_bar(ext, n):
    """f -> p b_B(f) q^{(x)(n+1)} for degree-n cochains f over B.

    The projection reads b_B(f) only on tensors of C-indices, the support
    of q, and only at C-indices, the support of p, so b_B is evaluated
    there alone (`_bar_apply_within`: C is a subalgebra of B).
    """
    inside = list(range(ext.C.dim))
    b_B = _bar_apply_within(ext.B, regular_bimodule(ext.B), n, inside,
                            inside)
    return lambda f: project_cochain(ext, b_B(f))


def check_projection_chain_identity(ext, n, trials=20, seed=11):
    """b_C(p f q^{(x)n}) == p b_B(f) q^{(x)(n+1)} on pseudorandom cochains."""
    regB = regular_bimodule(ext.B)
    regC = regular_bimodule(ext.C)
    rng = random.Random(seed)
    rhs_of = _projected_bar(ext, n)
    checked = 0
    for _ in range(trials):
        f = random_cochain(ext.B, regB, n, rng=rng)
        lhs = bar_apply(ext.C, regC, n, project_cochain(ext, f))
        rhs = rhs_of(f)
        if lhs != rhs:
            return {"holds": False, "checked": checked}
        checked += 1
    return {"holds": True, "checked": checked}


def check_cup_compatibility(ext, max_total_degree):
    """phi is an algebra morphism: phi(x u y) = phi(x) u phi(y), classwise,
    over all basis class pairs with total degree within the bound.

    On vectors: P^{s+t}(f u g) - P^s f u P^t g must have class 0, for the
    representative vectors f, g of hh^s(B), hh^t(B).
    """
    regB = regular_bimodule(ext.B)
    regC = regular_bimodule(ext.C)
    field = ext.C.field
    degrees = range(max_total_degree + 1)
    HB = {s: hh(ext.B, regB, s) for s in degrees}
    HC = {s: hh(ext.C, regC, s) for s in degrees}
    pairs = 0
    # unit goes to unit
    unit_b = Cochain.from_values(ext.B, regB, 0, {(): ext.B.unit_coords()})
    unit_c = Cochain.from_values(ext.C, regC, 0, {(): ext.C.unit_coords()})
    if HC[0].class_coords(project_cochain(ext, unit_b)) != \
            HC[0].class_coords(unit_c):
        return {"holds": False, "pairs": 0, "failed": "unit"}
    P = {s: normalized_projection(ext, s) for s in degrees}
    nc_b, nc_c = HB[0].complex, HC[0].complex
    # each representative is projected once and reused in every pair
    reps = {s: HB[s].vectors() for s in degrees}
    projected = {s: [P[s].matvec(f) for f in reps[s]] for s in degrees}
    minus = field.of(-1)
    for s in degrees:
        for t in range(max_total_degree + 1 - s):
            for f, pf in zip(reps[s], projected[s]):
                for g, pg in zip(reps[t], projected[t]):
                    diff = P[s + t].matvec(nc_b.cup(s, f, t, g))
                    axpy(field, diff, minus, nc_c.cup(s, pf, t, pg))
                    # a zero difference has class 0 without a lookup
                    if diff and HC[s + t].vector_coords(diff) != {}:
                        return {"holds": False, "pairs": pairs,
                                "failed": (s, t)}
                    pairs += 1
    return {"holds": True, "pairs": pairs}


def inflation_retraction(ext, n):
    """Matrices of the split pair hh^n(C) -> hh^n(B, C) -> hh^n(C).

    The embedding sends [f] to [f p^{(x)n}]; the retraction sends [g] to
    [g q^{(x)n}]; their composite is the identity.  In degree 0 the
    embedding is onto.
    """
    regC = regular_bimodule(ext.C)
    CasB = ext.C_as_B_bimodule()
    HC = hh(ext.C, regC, n)
    HBC = hh(ext.B, CasB, n)
    field = ext.C.field
    sigma_entries = {}
    for j in range(HC.dim):
        g = inflate_cochain(ext, HC.representative(j))
        for r, v in enumerate(HBC.class_coords(g)):
            if v:
                sigma_entries[(r, j)] = v
    sigma = Mat.from_entries(HBC.dim, HC.dim, field, sigma_entries)
    nu_entries = {}
    ident = Mat.identity(ext.C.dim, field)
    for j in range(HBC.dim):
        g = transport(HBC.representative(j), ext.C, regC, ext.q_t, ident)
        for r, v in enumerate(HC.class_coords(g)):
            if v:
                nu_entries[(r, j)] = v
    nu = Mat.from_entries(HC.dim, HBC.dim, field, nu_entries)
    retraction_ok = nu.matmul(sigma) == Mat.identity(HC.dim, field)
    return {"sigma": sigma, "nu": nu, "retraction_identity": retraction_ok,
            "dim_hh_C": HC.dim, "dim_hh_B_C": HBC.dim}


# ---------------------------------------------------------------------------
# the kernel of phi^1: bimodule morphisms with vanishing pairing


def pairing_defect(E, f):
    """The map E (x) E -> E, x (x) y -> f(x).y + x.f(y), for f: E -> C.

    Returns the flat vector over (pair index, E coordinate); f is
    identified with its matrix in the bimodule bases.
    """
    field = E.field
    out = {}
    for a in range(E.dim):
        fa = f.column(a)
        for b in range(E.dim):
            vec = dict(E.left_of(fa).matvec({b: field.one}))
            axpy(field, vec, field.one,
                 E.right_of(f.column(b)).matvec({a: field.one}))
            for k, v in vec.items():
                out[(a * E.dim + b) * E.dim + k] = v
    return out


def _combine_homs(E, homs, coeff_vectors):
    field = E.field
    out = []
    for coeffs in coeff_vectors:
        f = Mat.zero(E.algebra.dim, E.dim, field)
        for k, c in coeffs.items():
            f = f.add(homs[k], c)
        out.append(f)
    return out


def zero_pairing_coefficients(E, homs):
    """Kernel of the pairing defect over the Hom basis (coefficient vectors)."""
    field = E.field
    cols = {k: pairing_defect(E, h) for k, h in enumerate(homs)}
    cols = {k: col for k, col in cols.items() if col}
    m = Mat(E.dim * E.dim * E.dim, len(homs), field, cols)
    return kernel_basis_sparse(m)


def zero_pairing_morphisms(E):
    """Basis of the bimodule morphisms f: E -> C with f(x)y + xf(y) = 0.

    This is the kernel of the degree-(1,0) connecting map; inside B the
    condition reads q f(x) . y + x . q f(y) = 0.
    """
    homs = hom_bimodule(E, regular_bimodule(E.algebra))
    if not homs:
        return []
    return _combine_homs(E, homs, zero_pairing_coefficients(E, homs))


def tensor_symmetrization(E, f, tensor=None):
    """id (x) f + f (x) id as a matrix E (x)_C E -> E; its kernel over
    Hom(E, C) recovers the zero-pairing space."""
    T = tensor if tensor is not None else tensor_over(E, E)
    e_space, f_space = T.pair_space
    if e_space is not E or f_space is not E:
        raise ValueError("tensor does not match the bimodule")
    field = E.field
    cols = {}
    for t, idx in enumerate(T.rep_indices):
        a, b = divmod(idx, E.dim)
        vec = dict(E.right_of(f.column(b)).matvec({a: field.one}))
        axpy(field, vec, field.one,
             E.left_of(f.column(a)).matvec({b: field.one}))
        if vec:
            cols[t] = vec
    return Mat(E.dim, T.dim, field, cols)


def symmetrization_kernel_coefficients(E, homs):
    """Coefficient vectors over the Hom basis of ker(id(x)f + f(x)id)."""
    field = E.field
    T = tensor_over(E, E)
    cols = {}
    for k, h in enumerate(homs):
        m = tensor_symmetrization(E, h, tensor=T)
        col = {}
        for j, colj in m.columns_items():
            for r, v in colj.items():
                col[j * E.dim + r] = v
        if col:
            cols[k] = col
    mat = Mat(T.dim * E.dim, len(homs), field, cols)
    return kernel_basis_sparse(mat)


# ---------------------------------------------------------------------------
# theorem-level verifiers


def check_kernel_sequence(ext):
    """Dimension bookkeeping of the two short exact sequences

    0 -> hh^0(B,E) -> HH^0(B) -> HH^0(C) -> 0
    0 -> hh^1(B,E) (+) {zero-pairing} -> HH^1(B) -> HH^1(C) -> 0

    The second is checked only when phi^1 is surjective; a non-symmetric E
    is reported as a failed hypothesis, never silently skipped.
    """
    report = {"checks": []}
    if not is_symmetric_over_center(ext.E):
        report["hypothesis_fails"] = "E is not symmetric over the centre"
        return report
    EB = ext.E_as_B_bimodule()
    phi0 = projection_morphism(ext, 0)
    hh0BE = hh(ext.B, EB, 0)
    ok0 = phi0.surjective and \
        phi0.source.dim == hh0BE.dim + phi0.target.dim
    report["checks"].append({
        "name": "degree 0 sequence",
        "pass": ok0,
        "dims": [phi0.source.dim, hh0BE.dim, phi0.target.dim],
    })
    phi1 = projection_morphism(ext, 1)
    report["phi1_surjective"] = phi1.surjective
    if phi1.surjective:
        hh1BE = hh(ext.B, EB, 1)
        esp = zero_pairing_morphisms(ext.E)
        ok1 = phi1.source.dim == hh1BE.dim + len(esp) + phi1.target.dim
        report["checks"].append({
            "name": "degree 1 sequence",
            "pass": ok1,
            "dims": [phi1.source.dim, hh1BE.dim, len(esp), phi1.target.dim],
        })
    report["pass"] = all(c["pass"] for c in report["checks"])
    return report


def check_derivation_splitting(ext):
    """Both splittings of the derivation spaces of a trivial extension:

    Der_0(B, E) = Der_0(C, E) (+) End_{C-C}(E)
    hh^1(B, E)  = hh^1(C, E)  (+) End_{C-C}(E)
    """
    if not ext.is_trivial:
        raise ValueError("derivation splitting needs a trivial extension")
    from .cohomology import der0_basis
    EB = ext.E_as_B_bimodule()
    end_dim = len(hom_bimodule(ext.E, ext.E))
    der_b = len(der0_basis(ext.B, EB))
    der_c = len(der0_basis(ext.C, ext.E))
    hh1_b = hh(ext.B, EB, 1).dim
    hh1_c = hh(ext.C, ext.E, 1).dim
    return {
        "der0_split": der_b == der_c + end_dim,
        "hh1_split": hh1_b == hh1_c + end_dim,
        "dims": {"der0_B_E": der_b, "der0_C_E": der_c,
                 "hh1_B_E": hh1_b, "hh1_C_E": hh1_c,
                 "end_E": end_dim},
        "pass": der_b == der_c + end_dim and hh1_b == hh1_c + end_dim,
    }


def check_growth_bound(ext):
    """dim HH^1(B) - dim HH^1(C) >= 1 for nonzero E (one summand at least),
    with the equality diagnostics when the three vanishing conditions hold."""
    if ext.E.dim == 0:
        raise ValueError("growth bound needs a nonzero bimodule")
    if not is_symmetric_over_center(ext.E):
        return {"hypothesis_fails": "E is not symmetric over the centre"}
    phi1 = projection_morphism(ext, 1)
    if not phi1.surjective:
        return {"hypothesis_fails": "phi^1 is not surjective"}
    gap = phi1.source.dim - phi1.target.dim
    esp = len(zero_pairing_morphisms(ext.E))
    hh1_ce = hh(ext.C, ext.E, 1).dim
    end_dim = len(hom_bimodule(ext.E, ext.E))
    equality_expected = hh1_ce == 0 and esp == 0 and end_dim == 1
    out = {
        "gap": gap,
        "bound_holds": gap >= 1,
        "hh1_C_E": hh1_ce,
        "zero_pairing_dim": esp,
        "end_dim": end_dim,
        "equality_expected": equality_expected,
        "pass": gap >= 1,
    }
    if equality_expected:
        out["pass"] = out["pass"] and gap == 1
        out["equality_holds"] = gap == 1
    return out


def _alpha_component(alpha, E, n, pos):
    """The component of the witness on C^{(x)pos} (x) E (x) C^{(x)n-1-pos}."""
    if isinstance(alpha, Mat):
        if n != 1:
            raise ValueError("a single matrix witness only makes sense for n=1")
        return alpha
    return alpha[(pos, n - 1 - pos)]


def check_surjectivity_witness(ext, n, zeta, alpha):
    """Evaluate the three surjectivity conditions of a witness alpha.

    zeta is a degree-n cocycle on C (regular coefficients); alpha maps the
    one-E-factor component space to E, given either as a single matrix
    (n = 1) or as {(p, q): matrix} per component.  All three conditions
    say that the vertical differential of the zero-extended alpha equals
    the cup pairing of the identity with zeta.

    alpha is zero-extended to a degree-n cochain on B with regular
    coefficients and values in i(E), and the conditions are read off its
    bar differential at the tuples with one E slot.  There no E.E product
    arises, and the terms where E would act on E meet alpha on a pure-C
    tuple, where it is 0, so the bar differential is the vertical one.
    """
    C, E, B = ext.C, ext.E, ext.B
    field = C.field
    if zeta.degree != n:
        raise ValueError("witness degree mismatch")
    if not bar_apply(C, regular_bimodule(C), n, zeta).is_zero():
        raise ValueError("zeta is not a cocycle")
    d = C.dim
    values = {}
    for pos in range(n):
        comp = _alpha_component(alpha, E, n, pos)
        for col, (pre, e, post) in enumerate(itertools.product(
                itertools.product(range(d), repeat=pos), range(E.dim),
                itertools.product(range(d), repeat=n - 1 - pos))):
            values[pre + (d + e,) + post] = ext.i.matvec(comp.column(col))
    regB = regular_bimodule(B)
    image = bar_apply(B, regB, n, Cochain.from_values(B, regB, n, values))

    sign = field.one if (n + 1) % 2 == 0 else field.of(-1)
    conditions = {"c1": True, "c2": True, "c3": True}
    for theta in range(E.dim):
        evec = {theta: field.one}
        for tup in itertools.product(range(d), repeat=n):
            zeta_val = zeta.value(tup)
            # (C1): theta at the front
            want = E.right_of(zeta_val).matvec(evec)
            if image.value((d + theta,) + tup) != ext.i.matvec(want):
                conditions["c1"] = False
            # (C2): theta at the back, sign (-1)^{n+1}
            want = scale(field, E.left_of(zeta_val).matvec(evec), sign)
            if image.value(tup + (d + theta,)) != ext.i.matvec(want):
                conditions["c2"] = False
            # (C3): theta strictly inside, the value must vanish
            for pos in range(1, n):
                if image.value(tup[:pos] + (d + theta,) + tup[pos:]):
                    conditions["c3"] = False
    conditions["pass"] = all(conditions.values())
    return conditions
