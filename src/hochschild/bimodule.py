"""Bimodules over a fixed algebra, by explicit left/right action matrices.

Carrying action matrices (rather than presentations) lets trivial
extensions, duals, kernels of algebra maps, tensor products and Ext
bimodules compose without any symbolic machinery.  The axioms, and those
of a product on the module, are one certificate: A (+) M, with the actions
and the product as structure constants, must be an associative unital
algebra, which `Algebra` checks (see `Bimodule._check_axioms`).
"""

import itertools
import random
from dataclasses import dataclass

from .algebra import Algebra, center_basis
from .linalg import (
    Mat, SubspaceCoords, axpy, echelon_basis, kernel_basis_sparse, rank,
    reduce_mod,
)


class Bimodule:
    """A vector space with commuting left/right actions of one algebra.

    left[i], right[i] are dim x dim Mats for the i-th algebra basis vector;
    product, when present, is a structure-constant map (i, j) -> {k: c}
    making the space an associative algebra-without-unit compatible with
    the actions (the input data of a split extension).  Together they are
    the structure constants of A (+) M (`extension_structure`), and with
    check on that is certified to be an associative unital algebra.
    """

    def __init__(self, algebra, dim, left, right, labels=None, product=None,
                 check=True):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = dim
        self.left = left
        self.right = right
        self.labels = labels or [f"x{i}" for i in range(dim)]
        self.product = product
        self.peirce = self._peirce_tags()
        if check:
            self._check_axioms()

    # -- structure -----------------------------------------------------------

    def left_of(self, coords):
        """Action matrix of an algebra element given by sparse coords."""
        out = Mat.zero(self.dim, self.dim, self.field)
        for i, c in coords.items():
            out = out.add(self.left[i], c)
        return out

    def right_of(self, coords):
        out = Mat.zero(self.dim, self.dim, self.field)
        for i, c in coords.items():
            out = out.add(self.right[i], c)
        return out

    def multiply(self, a, b):
        if self.product is None:
            raise ValueError("bimodule carries no product")
        out = {}
        field = self.field
        for i, ci in a.items():
            for j, cj in b.items():
                prod = self.product.get((i, j))
                if prod:
                    axpy(field, out, field.mul(ci, cj), prod)
        return out

    def is_graded(self):
        return all(t is not None for t in self.peirce)

    def _peirce_tags(self):
        """(x, y) with e_x . v_i . e_y = v_i for each basis vector, or None.

        e_x applied to the unit vector v_i is column i of its action
        matrix; a Mat keeps no zero entries, so the column is compared
        with v_i as it is.
        """
        tags = []
        idems = self.algebra.idempotents
        for i in range(self.dim):
            v = {i: self.field.one}
            tag = None
            for (x, xi) in idems:
                if self.left[xi].column(i) != v:
                    continue
                for (y, yi) in idems:
                    if self.right[yi].column(i) == v:
                        tag = (x, y)
                        break
                break
            tags.append(tag)
        return tags

    def extension_structure(self):
        """Structure constants of A (+) M, A's basis first: A's product, the
        left actions at (a, dim A + b), the right actions at (dim A + b, a)
        and M's product, when there is one, at (dim A + a, dim A + b)."""
        n = self.algebra.dim
        structure = {key: dict(prod)
                     for key, prod in self.algebra.structure.items()}
        for a in range(n):
            for b in range(self.dim):
                col = self.left[a].column(b)
                if col:
                    structure[(a, n + b)] = {n + k: v for k, v in col.items()}
                col = self.right[a].column(b)
                if col:
                    structure[(n + b, a)] = {n + k: v for k, v in col.items()}
        for (a, b), prod in (self.product or {}).items():
            if prod:
                structure[(n + a, n + b)] = {n + k: v for k, v in prod.items()}
        return structure

    def _check_axioms(self):
        """Certify the bimodule, and its product if any, as the algebra
        axioms of A (+) M.

        Expand (xy)z = x(yz) on basis triples by the summand of each
        factor.  AAA is A's associativity; AAM is (ab)m = a(bm), the left
        action; MAA is (ma)b = m(ab), the right action; AMA is
        (am)b = a(mb), the commuting of the two.  MMM is associativity of
        M's product, AMM is (am)n = a(mn) and MMA is (mn)a = m(na), the
        product as a left and a right module morphism, and MAM is
        (ma)n = m(an), its balance over A; without a product the last four
        read 0 = 0.  The unit of A (+) M is the sum of A's idempotents, so
        its two-sided identity on M is exactly unital actions.  M's Peirce
        tags are read off the actions, so they pass; a tag of None is not
        checked.
        """
        alg = self.algebra
        try:
            Algebra(self.field, [*alg.labels, *self.labels],
                    self.extension_structure(), alg.idempotents,
                    alg.peirce + self.peirce)
        except ValueError as exc:
            raise ValueError(f"bimodule axioms fail in A (+) M, A's basis "
                             f"first: {exc}") from None

    def __repr__(self):
        return f"Bimodule(dim={self.dim} over {self.algebra!r})"


def zero_bimodule(algebra):
    return Bimodule(algebra, 0, [Mat.zero(0, 0, algebra.field)] * algebra.dim,
                    [Mat.zero(0, 0, algebra.field)] * algebra.dim, labels=[],
                    product={}, check=False)


def regular_bimodule(algebra):
    """The algebra acting on itself on both sides, with its multiplication.

    One instance per algebra, so cochains built at different times share it.
    """
    got = getattr(algebra, "_regular_bimodule", None)
    if got is not None:
        return got
    field = algebra.field
    dim = algebra.dim
    left = [Mat(dim, dim, field, algebra.left_mult(i)) for i in range(dim)]
    right = [Mat(dim, dim, field, algebra.right_mult(i)) for i in range(dim)]
    out = Bimodule(algebra, dim, left, right, labels=list(algebra.labels),
                   product=algebra.structure, check=False)
    algebra._regular_bimodule = out
    return out


def dual_bimodule(algebra):
    """The dual space with (f.c)(x) = f(cx) and (c.f)(x) = f(xc)."""
    got = getattr(algebra, "_dual_bimodule", None)
    if got is not None:
        return got
    field = algebra.field
    dim = algebra.dim
    left = [Mat(dim, dim, field, algebra.right_mult(i)).transpose()
            for i in range(dim)]
    right = [Mat(dim, dim, field, algebra.left_mult(i)).transpose()
             for i in range(dim)]
    labels = [f"{l}^*" for l in algebra.labels]
    out = Bimodule(algebra, dim, left, right, labels=labels, product={})
    algebra._dual_bimodule = out
    return out


def sub_bimodule(ambient, vectors, labels=None):
    """Restrict a bimodule to the span of the given independent vectors.

    The family must be closed under both actions, and under the product
    when there is one: `coords` raises ValueError on an image outside the
    span.  The given vectors become the basis, so callers control the
    presentation of the sub-bimodule.

    The result runs no certificate; the ambient's covers it.  Closure
    makes A (+) span a subalgebra of A (+) ambient that contains its unit,
    the sum of A's idempotents, and the result's actions and product are
    the ambient's, written in the given basis.  So each condition of
    `Bimodule._check_axioms` (the idempotents orthogonal, the unit a
    two-sided identity, associativity on every basis triple) holds on the
    span because it holds in A (+) ambient, and the Peirce tags are read
    off the restricted actions as for every bimodule.  A certified ambient,
    or one valid by construction, gives a valid result; a caller whose
    ambient is neither vouches for it.
    """
    field = ambient.field
    vecs = [dict(v) for v in vectors]
    coords = SubspaceCoords(field, vecs)
    dim = len(vecs)
    left, right = [], []
    for i in range(ambient.algebra.dim):
        lcols, rcols = {}, {}
        for j, v in enumerate(vecs):
            img = ambient.left[i].matvec(v)
            c = coords.coords(img)
            if c:
                lcols[j] = c
            img = ambient.right[i].matvec(v)
            c = coords.coords(img)
            if c:
                rcols[j] = c
        left.append(Mat(dim, dim, field, lcols))
        right.append(Mat(dim, dim, field, rcols))
    product = None
    if ambient.product is not None:
        product = {}
        for a in range(dim):
            for b in range(dim):
                prod = ambient.multiply(vecs[a], vecs[b])
                c = coords.coords(prod)  # raises if the span is not closed
                if c:
                    product[(a, b)] = c
    return Bimodule(ambient.algebra, dim, left, right, labels=labels,
                    product=product, check=False)


def peirce_regrade(module):
    """A Peirce-graded twin of module, with the coordinate maps to and
    from it.

    The idempotents are orthogonal and sum to 1, so the module is the
    direct sum of its blocks e_x M e_y.  The twin's basis is, block after
    block in idempotent order, the echelon basis of the image of
    left[e_x] right[e_y], so it is deterministic.  Returns (twin, S, T)
    with S the coordinate map module -> twin and T its inverse; a graded
    module comes back as it is, with S = T = None.
    """
    if module.is_graded():
        return module, None, None
    field = module.field
    idems = [xi for _, xi in module.algebra.idempotents]
    vectors = []
    for x in idems:
        for y in idems:
            block = module.left[x].matmul(module.right[y])
            vectors += echelon_basis([c for _, c in block.columns_items()],
                                     field)
    coords = SubspaceCoords(field, vectors)
    dim = module.dim
    to_twin = Mat(dim, dim, field, {m: coords.coords({m: field.one})
                                    for m in range(dim)})
    from_twin = Mat(dim, dim, field, dict(enumerate(vectors)))
    return sub_bimodule(module, vectors), to_twin, from_twin


def pullback_bimodule(src_algebra, morphism, bimod, check=True):
    """View a bimodule over the target of an algebra morphism as one over
    the source (actions through the morphism matrix)."""
    left, right = [], []
    for i in range(src_algebra.dim):
        img = morphism.column(i)
        left.append(bimod.left_of(img))
        right.append(bimod.right_of(img))
    return Bimodule(src_algebra, bimod.dim, left, right,
                    labels=list(bimod.labels), product=bimod.product,
                    check=check)


def tensor_over(e, f):
    """E (x)_C F: the k-tensor product modulo x.c (x) y - x (x) c.y."""
    if e.algebra is not f.algebra:
        raise ValueError("bimodules over different algebras")
    field = e.field
    n = e.dim * f.dim

    def pair(i, j):
        return i * f.dim + j

    gens = []
    for c in range(e.algebra.dim):
        rc = e.right[c]
        lc = f.left[c]
        for i in range(e.dim):
            rci = rc.column(i)
            for j in range(f.dim):
                vec = {}
                for r, v in rci.items():
                    vec[pair(r, j)] = v
                for s, v in lc.column(j).items():
                    cur = vec.get(pair(i, s))
                    w = field.sub(cur, v) if cur is not None else field.neg(v)
                    if w:
                        vec[pair(i, s)] = w
                    elif pair(i, s) in vec:
                        del vec[pair(i, s)]
                if vec:
                    gens.append(vec)
    # the complement: the pair coordinates that lead no echelon row
    echelon = echelon_basis(gens, field)
    leads = {min(row) for row in echelon}
    rep_indices = [k for k in range(n) if k not in leads]
    dim = len(rep_indices)
    labels = [f"{e.labels[idx // f.dim]}(x){f.labels[idx % f.dim]}"
              for idx in rep_indices]
    pos = {k: t for t, k in enumerate(rep_indices)}

    def class_sparse(vec):
        red = reduce_mod(vec, echelon, field)
        return {pos[k]: v for k, v in red.items()}

    left, right = [], []
    for c in range(e.algebra.dim):
        lcols, rcols = {}, {}
        for t, idx in enumerate(rep_indices):
            i, j = divmod(idx, f.dim)
            lvec = {}
            for r, v in e.left[c].column(i).items():
                lvec[pair(r, j)] = v
            col = class_sparse(lvec)
            if col:
                lcols[t] = col
            rvec = {}
            for s, v in f.right[c].column(j).items():
                rvec[pair(i, s)] = v
            col = class_sparse(rvec)
            if col:
                rcols[t] = col
        left.append(Mat(dim, dim, field, lcols))
        right.append(Mat(dim, dim, field, rcols))
    out = Bimodule(e.algebra, dim, left, right, labels=labels, product=None)
    out.pair_space = (e, f)
    out.rep_indices = rep_indices
    return out


def hom_bimodule(e, f):
    """Basis of bimodule morphisms E -> F as matrices, deterministic."""
    if e.algebra is not f.algebra:
        raise ValueError("bimodules over different algebras")
    field = e.field
    n_unknowns = e.dim * f.dim

    def unknown(r, s):
        # g_{r s}, column-major like everything else
        return s * f.dim + r

    cols = {}
    block = e.dim * f.dim
    base = 0
    for c in range(e.algebra.dim):
        for (ae, af) in ((e.left[c], f.left[c]), (e.right[c], f.right[c])):
            # (g o a_E - a_F o g)_{r s} = 0; equation row = base + s*f.dim + r
            for s, col_as in ae.columns_items():
                for t, v in col_as.items():
                    for r in range(f.dim):
                        col = cols.setdefault(unknown(r, t), {})
                        key = base + s * f.dim + r
                        w = field.add(col.get(key, field.zero), v)
                        if w:
                            col[key] = w
                        elif key in col:
                            del col[key]
            for u, col_au in af.columns_items():
                for r, v in col_au.items():
                    for s in range(e.dim):
                        col = cols.setdefault(unknown(u, s), {})
                        key = base + s * f.dim + r
                        w = field.sub(col.get(key, field.zero), v)
                        if w:
                            col[key] = w
                        elif key in col:
                            del col[key]
            base += block
    data = {u: col for u, col in cols.items() if col}
    m = Mat(base, n_unknowns, field, data)
    out = []
    for vec in kernel_basis_sparse(m):
        entries = {}
        for idx, v in vec.items():
            s, r = divmod(idx, f.dim)
            entries[(r, s)] = v
        out.append(Mat.from_entries(f.dim, e.dim, field, entries))
    return out


def is_symmetric_over_center(e):
    """True iff the left and right actions agree on every central element."""
    for z in center_basis(e.algebra):
        if e.left_of(z.coords) != e.right_of(z.coords):
            return False
    return True


@dataclass
class IsoVerdict:
    verdict: str  # "yes" | "no" | "inconclusive"
    witness: object = None  # invertible morphism matrix when verdict == "yes"

    def __bool__(self):
        return self.verdict == "yes"


_COEFF_BOUND = 3
_ENUM_LIMIT = 20_000
_RANDOM_DRAWS = 50


def bimodules_isomorphic(e, f):
    """Bounded search for an invertible bimodule morphism.

    "no" only on dimension mismatch or zero Hom; otherwise integer
    combinations of the Hom basis up to the coefficient bound, then seeded
    pseudorandom draws, reporting "inconclusive" on exhaustion.
    """
    if e.dim != f.dim:
        return IsoVerdict("no")
    if e.dim == 0:
        return IsoVerdict("yes", Mat.zero(0, 0, e.field))
    homs = hom_bimodule(e, f)
    if not homs:
        return IsoVerdict("no")
    field = e.field

    def combine(coeffs):
        m = Mat.zero(f.dim, e.dim, field)
        for c, h in zip(coeffs, homs):
            if c:
                m = m.add(h, field.of(c))
        return m

    k = len(homs)
    if (2 * _COEFF_BOUND + 1) ** k <= _ENUM_LIMIT:
        for coeffs in itertools.product(range(-_COEFF_BOUND, _COEFF_BOUND + 1),
                                        repeat=k):
            if not any(coeffs):
                continue
            m = combine(coeffs)
            if rank(m) == e.dim:
                return IsoVerdict("yes", m)
    rng = random.Random(20240917)
    for _ in range(_RANDOM_DRAWS):
        coeffs = [rng.randint(-9, 9) for _ in range(k)]
        if not any(coeffs):
            continue
        m = combine(coeffs)
        if rank(m) == e.dim:
            return IsoVerdict("yes", m)
    return IsoVerdict("inconclusive")
