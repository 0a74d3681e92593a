"""Split and trivial extensions B of C by E, and the projection morphisms.

B is C (+) E with product (c,e)(c',e') = (cc', ce' + ec' + ee'); p, q, i
are the projection, section and inclusion.  The degree-n projection
morphism maps the class of f to the class of p o f o q^{(x)n}; it is an
algebra morphism for the cup product, and its rank decides surjectivity.
"""

import itertools
import random
from dataclasses import dataclass

from .algebra import Algebra
from .bimodule import (
    Bimodule, hom_bimodule, is_symmetric_over_center, peirce_regrade,
    pullback_bimodule, regular_bimodule, sub_bimodule, tensor_over,
)
from .cohomology import (
    Cochain, bar_apply, cup, hh, random_cochain,
    random_normalized_cochain, transport,
)
from .linalg import Mat, axpy, kernel_basis_sparse, rank, scale


class SplitExtensionData:
    """The algebra B = C (+) E together with the maps p, q, i tying it to
    C and E.  Use trivial_extension / split_extension / extension_from_maps."""

    def __init__(self, C, E, B, p, q, i, is_trivial, idempotent_compatible):
        self.C = C
        self.E = E
        self.B = B
        self.p = p
        self.q = q
        self.i = i
        # the slot maps of `transport`, transposed once per extension
        self.p_t = p.transpose()
        self.q_t = q.transpose()
        self.is_trivial = is_trivial
        self.idempotent_compatible = idempotent_compatible
        self._E_as_B = None
        self._C_as_B = None
        self._verify()

    # -- derived bimodules -----------------------------------------------------

    def E_as_B_bimodule(self):
        """E with the B-action through i (E is an ideal of B)."""
        if self._E_as_B is None:
            ambient = regular_bimodule(self.B)
            vectors = [dict(self.i.column(j)) for j in range(self.E.dim)]
            self._E_as_B = sub_bimodule(ambient, vectors,
                                        labels=list(self.E.labels))
        return self._E_as_B

    def C_as_B_bimodule(self):
        """C as a B-bimodule through p."""
        if self._C_as_B is None:
            self._C_as_B = pullback_bimodule(self.B, self.p,
                                             regular_bimodule(self.C))
        return self._C_as_B

    # -- invariants ------------------------------------------------------------

    def _verify(self):
        C, B, p, q, i = self.C, self.B, self.p, self.q, self.i
        if p.matmul(q) != Mat.identity(C.dim, C.field):
            raise ValueError("p o q is not the identity of C")
        _check_multiplicative(p, B, C)
        _check_multiplicative(q, C, B)
        if dict(p.matvec(B.unit_coords())) != C.unit_coords():
            raise ValueError("p does not preserve the unit")
        # i embeds E as the kernel of p, and i(E) i(E) matches the product
        if p.matmul(i).nnz() != 0:
            raise ValueError("i(E) does not lie in ker p")
        if rank(i) != self.E.dim or self.E.dim != B.dim - C.dim:
            raise ValueError("i is not an isomorphism onto ker p")
        for a in range(self.E.dim):
            ia = i.column(a)
            for b in range(self.E.dim):
                prod = B.multiply_coords(ia, i.column(b))
                want = i.matvec(self.E.multiply({a: B.field.one},
                                                {b: B.field.one})) \
                    if self.E.product is not None else {}
                if prod != want:
                    raise ValueError("i does not respect the product on E")
        if self.is_trivial and self.E.product:
            for key, val in self.E.product.items():
                if val:
                    raise ValueError("trivial extension with nonzero product")

    def __repr__(self):
        kind = "trivial" if self.is_trivial else "split"
        return (f"SplitExtensionData({kind}: dim C={self.C.dim}, "
                f"dim E={self.E.dim})")


def _check_multiplicative(m, src, tgt):
    for a in range(src.dim):
        ma = m.column(a)
        for b in range(src.dim):
            lhs = m.matvec(src.structure.get((a, b), {}))
            rhs = tgt.multiply_coords(ma, m.column(b))
            if lhs != rhs:
                raise ValueError("map is not an algebra morphism")


def _idempotent_compatible(ext_p, ext_q, B, C):
    b_idem = {idx: name for name, idx in B.idempotents}
    c_idem = {idx: name for name, idx in C.idempotents}
    for _, e in B.idempotents:
        col = ext_p.column(e)
        if col and not (len(col) == 1 and next(iter(col)) in c_idem
                        and next(iter(col.values())) == B.field.one):
            return False
    for _, e in C.idempotents:
        col = ext_q.column(e)
        if not (len(col) == 1 and next(iter(col)) in b_idem
                and next(iter(col.values())) == B.field.one):
            return False
    return True


def split_extension(C, E):
    """B = C (+) E with the product of E folded in; E.product required."""
    if E.product is None:
        raise ValueError("split extension needs a bimodule with a product "
                         "(use trivial_extension for E^2 = 0)")
    return _build_extension(C, E, trivial=not any(E.product.values())
                            if E.product else True)


def trivial_extension(C, E):
    """B = C |x E: the split extension with E^2 = 0.

    Only the bimodule structure of E enters; a product carried by E (the
    regular bimodule, say) is deliberately forgotten.
    """
    if E.product is None or any(E.product.values()):
        E = Bimodule(C, E.dim, E.left, E.right, labels=E.labels,
                     product={}, check=False)
    return _build_extension(C, E, trivial=True)


def _build_extension(C, E, trivial):
    # an E that is not Peirce-graded is replaced by its graded twin, which
    # becomes ext.E, so that B is Peirce-graded
    E = peirce_regrade(E)[0]
    field = C.field
    nC, nE = C.dim, E.dim
    dim = nC + nE
    labels = list(C.labels) + [f"[{l}]" for l in E.labels]
    structure = {}
    for (a, b), prod in C.structure.items():
        structure[(a, b)] = dict(prod)
    for a in range(nC):
        for b in range(nE):
            col = E.left[a].column(b)
            if col:
                structure[(a, nC + b)] = {nC + k: v for k, v in col.items()}
            col = E.right[a].column(b)
            if col:
                structure[(nC + b, a)] = {nC + k: v for k, v in col.items()}
    if E.product:
        for (a, b), prod in E.product.items():
            if prod:
                structure[(nC + a, nC + b)] = {nC + k: v
                                               for k, v in prod.items()}
    idempotents = [(name, idx) for name, idx in C.idempotents]
    peirce = list(C.peirce) + list(E.peirce)
    B = Algebra(field, labels, structure, idempotents, peirce,
                check=dim <= 40)
    p = Mat(nC, dim, field, {j: {j: field.one} for j in range(nC)})
    q = Mat(dim, nC, field, {j: {j: field.one} for j in range(nC)})
    i = Mat(dim, nE, field, {j: {nC + j: field.one} for j in range(nE)})
    return SplitExtensionData(C, E, B, p, q, i, trivial,
                              _idempotent_compatible(p, q, B, C))


def extension_from_maps(C, B, p, q):
    """Split extension data from a presented B with explicit p and q.

    E is ker p with its C-actions through q; the basis of E is the
    deterministic kernel basis of p.
    """
    field = C.field
    kernel = kernel_basis_sparse(p)
    ambient_c = pullback_bimodule(C, q, regular_bimodule(B), check=False)
    E = sub_bimodule(ambient_c, kernel)
    i = Mat(B.dim, len(kernel), field, dict(enumerate(kernel)))
    trivial = not any(E.product.values()) if E.product else True
    return SplitExtensionData(C, E, B, p, q, i, trivial,
                              _idempotent_compatible(p, q, B, C))


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

    def report(self, include_representatives=True):
        field = self.matrix.field

        def strings(m):
            return [[field.to_str(m.entry(r, c)) for c in range(m.cols)]
                    for r in range(m.rows)]

        out = {
            "degree": self.degree,
            "matrix": strings(self.matrix),
            "rank": self.rank,
            "surjective": self.surjective,
            "surjectivity_criterion":
                "rank of the class matrix equals the target dimension",
            "kernel_dim": self.kernel_dim,
            "dim_source": self.source.dim,
            "dim_target": self.target.dim,
        }
        if include_representatives:
            out["source_representatives"] = [
                strings(rep.matrix()) for rep in self.source.representatives]
            out["target_representatives"] = [
                strings(rep.matrix()) for rep in self.target.representatives]
        return out


def project_cochain(ext, f):
    """p o f o q^{(x)n} as a cochain over C with regular coefficients."""
    return transport(f, ext.C, regular_bimodule(ext.C), ext.q_t, ext.p)


def inflate_cochain(ext, f):
    """f o p^{(x)n} as a cochain over B with coefficients C-via-p."""
    ident = Mat.identity(ext.C.dim, ext.C.field)
    return transport(f, ext.B, ext.C_as_B_bimodule(), ext.p_t, ident)


def projection_morphism(ext, n, cap=None):
    """The matrix of [f] -> [p f q^{(x)n}] on class bases."""
    kwargs = {} if cap is None else {"cap": cap}
    HB = hh(ext.B, regular_bimodule(ext.B), n, **kwargs)
    HC = hh(ext.C, regular_bimodule(ext.C), n, **kwargs)
    entries = {}
    # representatives first: building them fills the rank cache that
    # HB.dim reads, where reading dim first would pay a rank sweep too
    for j, rep in enumerate(HB.representatives):
        g = project_cochain(ext, rep)
        for r, v in enumerate(HC.class_coords(g)):
            if v:
                entries[(r, j)] = v
    matrix = Mat.from_entries(HC.dim, HB.dim, ext.C.field, entries)
    return ProjectionMatrix(n, matrix, HB, HC)


def projection_respects_representatives(ext, n, trials=5, seed=1):
    """Perturbing each representative by a coboundary leaves phi^n alone.

    Below degree 2 the coboundary is b^1 of an arbitrary cochain, which
    leaves the normalized complex; class coordinates take it back.
    """
    base = projection_morphism(ext, n)
    HB, HC = base.source, base.target
    regB = regular_bimodule(ext.B)
    rng = random.Random(seed)
    for j in range(HB.dim):
        f = HB.representative(j)
        for _ in range(trials):
            if n > 1:
                g = random_normalized_cochain(ext.B, regB, n - 1, rng=rng)
            else:
                g = random_cochain(ext.B, regB, n - 1, rng=rng)
            shifted = f.add(bar_apply(ext.B, regB, n - 1, g))
            got = HC.class_coords(project_cochain(ext, shifted))
            want = tuple(base.matrix.entry(r, j) for r in range(HC.dim))
            if got != want:
                return False
    return True


def check_projection_chain_identity(ext, n, trials=20, seed=11):
    """b_C(p f q^{(x)n}) == p b_B(f) q^{(x)(n+1)} on pseudorandom cochains."""
    regB = regular_bimodule(ext.B)
    regC = regular_bimodule(ext.C)
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        f = random_cochain(ext.B, regB, n, rng=rng)
        lhs = bar_apply(ext.C, regC, n, project_cochain(ext, f))
        rhs = project_cochain(ext, bar_apply(ext.B, regB, n, f))
        if lhs != rhs:
            return {"holds": False, "checked": checked}
        checked += 1
    return {"holds": True, "checked": checked}


def check_cup_compatibility(ext, max_total_degree, cap=None):
    """phi is an algebra morphism: phi(x u y) = phi(x) u phi(y), classwise,
    over all basis class pairs with total degree within the bound."""
    kwargs = {} if cap is None else {"cap": cap}
    regB = regular_bimodule(ext.B)
    regC = regular_bimodule(ext.C)
    HB = {s: hh(ext.B, regB, s, **kwargs)
          for s in range(max_total_degree + 1)}
    HC = {s: hh(ext.C, regC, s, **kwargs)
          for s in range(max_total_degree + 1)}
    pairs = 0
    # each representative is projected once and reused in every pair
    reps = {s: HB[s].representatives for s in HB}
    projected = {s: [project_cochain(ext, f) for f in reps[s]] for s in HB}
    # unit goes to unit
    unit_b = Cochain.from_values(ext.B, regB, 0, {(): ext.B.unit_coords()})
    unit_c = Cochain.from_values(ext.C, regC, 0, {(): ext.C.unit_coords()})
    if HC[0].class_coords(project_cochain(ext, unit_b)) != \
            HC[0].class_coords(unit_c):
        return {"holds": False, "pairs": 0, "failed": "unit"}
    for s in range(max_total_degree + 1):
        for t in range(max_total_degree + 1 - s):
            for f, pf in zip(reps[s], projected[s]):
                for g, pg in zip(reps[t], projected[t]):
                    lhs = project_cochain(ext, cup(f, g))
                    rhs = cup(pf, pg)
                    diff = lhs.add(rhs, ext.C.field.of(-1))
                    if not HC[s + t].class_is_zero(diff):
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


def zero_pairing_morphisms(E, hom_basis=None):
    """Basis of the bimodule morphisms f: E -> C with f(x)y + xf(y) = 0.

    This is the kernel of the degree-(1,0) connecting map; inside B the
    condition reads q f(x) . y + x . q f(y) = 0.
    """
    homs = hom_basis if hom_basis is not None \
        else hom_bimodule(E, regular_bimodule(E.algebra))
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
    This reads B in the layout `trivial_extension` and `split_extension`
    build: C's basis, then E's, with q and i the coordinate inclusions.
    Any other layout raises ValueError.
    """
    C, E, B = ext.C, ext.E, ext.B
    field = C.field
    if zeta.degree != n:
        raise ValueError("witness degree mismatch")
    if not bar_apply(C, regular_bimodule(C), n, zeta).is_zero():
        raise ValueError("zeta is not a cocycle")
    d = C.dim
    if any(ext.q.column(j) != {j: field.one} for j in range(d)) \
            or any(ext.i.column(k) != {d + k: field.one}
                   for k in range(E.dim)):
        raise ValueError("the witness check needs B laid out as C's basis "
                         "then E's, with q and i the coordinate inclusions")
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
