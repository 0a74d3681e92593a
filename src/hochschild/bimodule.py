"""Bimodules over a fixed algebra, by explicit left/right action matrices.

Carrying action matrices (rather than presentations) lets trivial
extensions, duals, kernels of algebra maps, tensor products and Ext
bimodules compose without any symbolic machinery.
"""

import itertools
import random
from dataclasses import dataclass

from .algebra import center_basis
from .linalg import (
    Mat, SubspaceCoords, axpy, echelon_basis, kernel_basis_sparse,
    quotient_data, rank,
)


class Bimodule:
    """A vector space with commuting left/right actions of one algebra.

    left[i], right[i] are dim x dim Mats for the i-th algebra basis vector;
    product, when present, is a structure-constant map (i, j) -> {k: c}
    making the space an associative algebra-without-unit compatible with
    the actions (the input data of a split extension).
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
        tags = []
        idems = self.algebra.idempotents
        for i in range(self.dim):
            v = {i: self.field.one}
            tag = None
            for (x, xi) in idems:
                lv = self.left[xi].matvec(v)
                if lv != v:
                    continue
                for (y, yi) in idems:
                    if self.right[yi].matvec(v) == v:
                        tag = (x, y)
                        break
                break
            tags.append(tag)
        return tags

    def _check_axioms(self):
        field = self.field
        dim_a = self.algebra.dim
        idem = Mat.zero(self.dim, self.dim, field)
        idem_r = Mat.zero(self.dim, self.dim, field)
        for _, xi in self.algebra.idempotents:
            idem = idem.add(self.left[xi])
            idem_r = idem_r.add(self.right[xi])
        ident = Mat.identity(self.dim, field)
        if idem != ident or idem_r != ident:
            raise ValueError("actions are not unital")
        for i in range(dim_a):
            li, ri = self.left[i], self.right[i]
            for j in range(dim_a):
                prod = self.algebra.structure.get((i, j), {})
                lprod = Mat.zero(self.dim, self.dim, field)
                rprod = Mat.zero(self.dim, self.dim, field)
                for k, c in prod.items():
                    lprod = lprod.add(self.left[k], c)
                    rprod = rprod.add(self.right[k], c)
                if self.left[i].matmul(self.left[j]) != lprod:
                    raise ValueError(f"left action not multiplicative at {(i, j)}")
                # (x*b_i)*b_j = x*(b_i b_j): right matrices anti-compose
                if self.right[j].matmul(self.right[i]) != rprod:
                    raise ValueError(f"right action not multiplicative at {(i, j)}")
                if li.matmul(self.right[j]) != self.right[j].matmul(li):
                    raise ValueError(f"left/right actions do not commute at {(i, j)}")
        if self.product is not None:
            self._check_product()

    def _check_product(self):
        """Associativity, left and right module morphism, and balance over
        the algebra, on every basis triple.

        Both sides of each identity are summed from the nonzero structure
        constants and action columns only, so the cost follows nnz rather
        than dim^3; a triple missing from both sides is zero on both.
        """
        field = self.field
        acts = range(self.algebra.dim)
        prods = [(key, p) for key, p in sorted(self.product.items()) if p]
        # l -> [(k, x_l x_k)], [(i, x_i x_l)], [(c, c.x_l)], [(c, x_l.c)]
        starting, ending, lefts, rights = {}, {}, {}, {}
        for (i, j), p in prods:
            starting.setdefault(i, []).append((j, p))
            ending.setdefault(j, []).append((i, p))
        for c in acts:
            for l, col in self.left[c].columns_items():
                lefts.setdefault(l, []).append((c, col))
            for l, col in self.right[c].columns_items():
                rights.setdefault(l, []).append((c, col))

        def spread(table, vec):
            # {k: sum_l vec_l table[l][k]} without zero vectors
            out = {}
            for l, c in vec.items():
                for k, w in table.get(l, ()):
                    axpy(field, out.setdefault(k, {}), c, w)
            return [(k, w) for k, w in out.items() if w]

        def check(lhs, rhs, message):
            if dict(lhs) != dict(rhs):
                raise ValueError(message)

        # keys (i, j, k): (x_i x_j) x_k = x_i (x_j x_k)
        check((((i, j, k), v) for (i, j), p in prods
               for k, v in spread(starting, p)),
              (((i, j, k), v) for (j, k), p in prods
               for i, v in spread(ending, p)),
              "product is not associative")
        # keys (c, i, j) from here on
        # c.(x_i x_j) = (c.x_i) x_j
        check((((c, i, j), v) for (i, j), p in prods
               for c, v in spread(lefts, p)),
              (((c, i, j), v) for c in acts
               for i, col in self.left[c].columns_items()
               for j, v in spread(starting, col)),
              "product is not a left module morphism")
        # (x_i x_j).c = x_i (x_j.c)
        check((((c, i, j), v) for (i, j), p in prods
               for c, v in spread(rights, p)),
              (((c, i, j), v) for c in acts
               for j, col in self.right[c].columns_items()
               for i, v in spread(ending, col)),
              "product is not a right module morphism")
        # (x_i.c) x_j = x_i (c.x_j)
        check((((c, i, j), v) for c in acts
               for i, col in self.right[c].columns_items()
               for j, v in spread(starting, col)),
              (((c, i, j), v) for c in acts
               for j, col in self.left[c].columns_items()
               for i, v in spread(ending, col)),
              "product is not balanced over the algebra")

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

    The family must be closed under both actions; the given vectors become
    the basis, so callers control the presentation of the sub-bimodule.
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
                    product=product)


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
    quot = quotient_data(gens, n, field)
    dim = quot.dim
    labels = []
    for idx in quot.rep_indices:
        labels.append(f"{e.labels[idx // f.dim]}(x){f.labels[idx % f.dim]}")

    pos = {k: t for t, k in enumerate(quot.rep_indices)}

    def class_sparse(vec):
        red = quot.reduce(vec)
        return {pos[k]: v for k, v in red.items()}

    left, right = [], []
    for c in range(e.algebra.dim):
        lcols, rcols = {}, {}
        for t, idx in enumerate(quot.rep_indices):
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
    out.rep_indices = list(quot.rep_indices)
    out.class_sparse = class_sparse
    out.pair_index = pair
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
