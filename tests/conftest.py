"""Shared corpus: the six bundled algebras, built once per session; the
presented split extension of the Nakayama pair; presentations of the
generated families (loops, truncated polynomials, quantum planes, cyclic
Nakayama, hereditary A_n, commutative ladders, seeded random monomial)
and a twisted, non-Peirce-graded regular module; the per-term check of
the normalized differential, reference of its closure certificate, and
its rows renamed to those of the next degree; the dense bimodule
certificate, reference of `Bimodule._check_axioms`; the algebra
certificate of a split extension and the conditions on its maps,
references of `SplitExtensionData`'s layout; the all-Fraction Q
field; the truncated span, reference of build_algebra's row walk and of
relext's square-generator test; the forward-row reference of the kernel
sweep; the hypothesis profile of the suite."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import settings

from hochschild.algebra import (
    AdmissibilityError, Algebra, _check_multiplicative, algebra_morphism,
    build_algebra,
)
from hochschild.bimodule import Bimodule, peirce_regrade, regular_bimodule
from hochschild.cohomology import Cochain, _bar_column
from hochschild.extension import extension_from_maps
from hochschild.linalg import (
    QQ, Mat, Rationals, Sweep, axpy, echelon_basis, rank, reduce_mod,
)
from hochschild.minres import NotExact, PartialResolution
from hochschild.quiver import (
    Path, PathSum, Presentation, Quiver, compose, parse_relation, paths_up_to,
)
from hochschild.relext import _PATH_GUARD

# Property tests draw the same examples on every run, and a fixed number
# of them, so the suite stays deterministic and its wall time steady.
settings.register_profile("suite", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("suite")


class FractionRationals(Rationals):
    """Q with every scalar held as a Fraction, integral or not."""

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        return Fraction(x)

    def add(self, a, b):
        return Fraction(a + b)

    def sub(self, a, b):
        return Fraction(a - b)

    def mul(self, a, b):
        return Fraction(a * b)

    def inv(self, a):
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def addmul(self, a, c, b):
        return Fraction(a + c * b)


class _TruncatedIdeal:
    """Span of the relation ideal inside paths of length <= L, which is
    the ideal of the completed path algebra read modulo paths longer than
    L: the reference, by linear algebra alone, of `build_algebra` (the row
    walk) and of relext's square-generator test, which asks the same
    membership of a Gröbner basis of I + J^(L+1).

    `rows[lead]` is the span's canonical RREF row with that lead
    coordinate: 1 at its lead and 0 at every other lead.  A coordinate is
    the reverse of the path order, so the leads land on the latest paths
    and the earliest paths leading no row form the quotient basis.
    """

    def __init__(self, presentation, L, order="lex"):
        self.field = presentation.field
        self.L = L
        paths = paths_up_to(presentation.quiver, L)
        if len(paths) > _PATH_GUARD:
            raise AdmissibilityError(
                f"truncated path space exceeds {_PATH_GUARD} paths at L={L}")
        self.paths = paths
        if order == "lex":
            ordered = paths
        elif order == "revlex":
            by_len = {}
            for p in paths:
                by_len.setdefault(len(p), []).append(p)
            ordered = []
            for ln in sorted(by_len):
                ordered.extend(sorted(by_len[ln], key=Path.sort_key, reverse=True))
        else:
            raise ValueError(order)
        self.ordered = ordered
        n = len(ordered)
        self.coord = {p: n - 1 - i for i, p in enumerate(ordered)}
        self.from_coord = {c: p for p, c in self.coord.items()}
        self.gen_vectors = []          # the truncated products u*r*v
        self._build_generators(presentation)
        self.rows = {min(row): row
                     for row in echelon_basis(self.gen_vectors, self.field)}

    def _build_generators(self, presentation):
        by_source = {}
        by_target = {}
        for p in self.paths:
            by_source.setdefault(p.source, []).append(p)
            by_target.setdefault(p.target, []).append(p)
        for rel in presentation.relations:
            src, tgt = rel.endpoints()
            minlen = min(len(p) for p in rel.terms)
            for u in by_target.get(src, []):
                if len(u) + minlen > self.L:
                    continue
                for v in by_source.get(tgt, []):
                    if len(u) + minlen + len(v) > self.L:
                        continue
                    vec = {}
                    for term, c in rel.terms.items():
                        w = compose(compose(u, term), v)
                        if len(w) <= self.L:
                            cur = vec.get(self.coord[w])
                            c2 = self.field.add(cur, c) if cur is not None else c
                            if c2:
                                vec[self.coord[w]] = c2
                            else:
                                del vec[self.coord[w]]
                    if vec:
                        self.gen_vectors.append(vec)

    def normal_form(self, path):
        """{path: scalar}, the normal form of a path of length <= L: the
        path itself when it leads no row, else minus the rest of its row
        (what reducing the path by every row gives, since no other row
        meets the rest)."""
        c = self.coord[path]
        row = self.rows.get(c)
        if row is None:
            return {path: self.field.one}
        neg, from_coord = self.field.neg, self.from_coord
        return {from_coord[k]: neg(v) for k, v in row.items() if k != c}


def row_walk_contains(ideal, path):
    """Whether a path lies in the truncated span, by reducing it over every
    row in lead order, as build_algebra did before it read pivot rows."""
    field = ideal.field
    echelon = [ideal.rows[lead] for lead in sorted(ideal.rows)]
    return not reduce_mod({ideal.coord[path]: field.one}, echelon, field)


def row_walk_algebra(presentation, order="lex"):
    """(nilpotency, basis paths, structure) of build_algebra as the row
    walk computed it: the least L whose length-L paths all reduce to zero,
    and every product of basis paths of length <= L reduced by
    `reduce_mod` over the rows in lead order, pairs in basis order."""
    field = presentation.field
    L = 1
    while True:
        L += 1
        ideal = _TruncatedIdeal(presentation, L, order=order)
        if all(row_walk_contains(ideal, p) for p in ideal.paths if len(p) == L):
            break
    echelon = [ideal.rows[lead] for lead in sorted(ideal.rows)]
    leads = {ideal.from_coord[min(row)] for row in echelon}
    basis = sorted((p for p in ideal.ordered if p not in leads and len(p) < L),
                   key=Path.sort_key)
    index = {p: i for i, p in enumerate(basis)}
    structure = {}
    for p1 in basis:
        for p2 in basis:
            w = compose(p1, p2)
            if w is None or len(w) > L:
                continue
            red = reduce_mod({ideal.coord[w]: field.one}, echelon, field)
            if red:
                structure[(index[p1], index[p2])] = {
                    index[ideal.from_coord[c]]: v for c, v in red.items()}
    return L, basis, structure


def forward_kernel(m):
    """kernel_basis_sparse as it swept before it renumbered rows: columns
    in forward order, each fed with its own row indices."""
    field = m.field
    sweep = Sweep(field)
    out = []
    for j in range(m.cols):
        lead, vec, track = sweep.reduce(m.column(j), {j: field.one})
        if lead is None:
            out.append(field.normalized(track, track[j]))
        else:
            sweep.adopt(lead, vec, track)
    return out


def same_vectors(got, want):
    """Equal lists of sparse vectors, scalar types included."""
    return got == want and all(type(a[k]) is type(b[k])
                               for a, b in zip(got, want) for k in a)


def structure_entries(structure):
    """A structure table with its key orders and scalar types spelled out,
    so that == compares them too."""
    return [(ij, [(k, type(v), v) for k, v in prod.items()])
            for ij, prod in structure.items()]


def nakayama_c_presentation(field=QQ):
    q = Quiver(["0", "1"], [("alpha0", "0", "1"), ("alpha1", "1", "0")])
    rels = [parse_relation(s, q, field)
            for s in ("alpha0*alpha1", "alpha1*alpha0")]
    return Presentation(q, field, rels)


def nakayama_b_presentation(field=QQ):
    q = Quiver(["0", "1"], [
        ("a0", "0", "1"), ("abar1", "0", "1"),
        ("a1", "1", "0"), ("abar0", "1", "0"),
    ])
    rels = [parse_relation(s, q, field) for s in (
        "a0*a1", "a1*a0", "abar0*abar1", "abar1*abar0",
        "a0*abar0 - abar1*a1", "a1*abar1 - abar0*a0",
    )]
    return Presentation(q, field, rels)


def presented_nakayama_extension(c, b):
    """The split extension of the Nakayama algebra c by ker p inside b
    (the bundled ex3_5 pair), given by explicit algebra maps p and q."""
    return extension_from_maps(c, b, *presented_nakayama_maps(c, b))


def presented_nakayama_maps(c, b):
    """The algebra maps p: b -> c and q: c -> b of the ex3_5 pair."""
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
    return p, q


def diagonal_maps():
    """C = k, B = k x k, p the first coordinate and q(1) = e_0 + e_1: a
    section that sends the idempotent of C to no idempotent of B's basis.
    Returns (C, B, p, q)."""
    C = build_algebra(family_presentation(["0"], [], []))
    B = build_algebra(family_presentation(["0", "1"], [], []))
    return (C, B, Mat(1, 2, QQ, {0: {0: 1}}),
            Mat(2, 1, QQ, {0: {0: 1, 1: 1}}))


def kite_c_presentation():
    # hereditary: 1 -> 2, 1 -> 3 -> 2
    q = Quiver(["1", "2", "3"], [
        ("alpha", "1", "2"), ("beta", "1", "3"), ("gamma", "3", "2"),
    ])
    return Presentation(q, relations=[])


def kite_b_presentation():
    # the kite with a loop eps on 2, eps^2 = 0 and alpha*eps = beta*gamma*eps
    q = Quiver(["1", "2", "3"], [
        ("alpha", "1", "2"), ("beta", "1", "3"), ("gamma", "3", "2"),
        ("eps", "2", "2"),
    ])
    rels = [parse_relation(s, q) for s in
            ("eps*eps", "alpha*eps - beta*gamma*eps")]
    return Presentation(q, relations=rels)


def triangle_c_presentation():
    # 1 -> 2 -> 3 with shortcut 1 -> 3, bound by alpha*beta = 0
    q = Quiver(["1", "2", "3"], [
        ("alpha", "1", "2"), ("beta", "2", "3"), ("gamma", "1", "3"),
    ])
    return Presentation(q, relations=[parse_relation("alpha*beta", q)])


def triangle_b_presentation():
    # relation extension of the triangle, written out by hand
    q = Quiver(["1", "2", "3"], [
        ("alpha", "1", "2"), ("beta", "2", "3"), ("gamma", "1", "3"),
        ("delta", "3", "1"),
    ])
    rels = [parse_relation(s, q) for s in
            ("delta*alpha", "alpha*beta", "beta*delta", "delta*gamma*delta")]
    return Presentation(q, relations=rels)


def square_presentation():
    # commutative-square shape bound by the two zero relations
    q = Quiver(["1", "2", "3", "4"], [
        ("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"), ("d", "3", "4"),
    ])
    rels = [parse_relation(s, q) for s in ("a*c", "b*d")]
    return Presentation(q, relations=rels)


def family_presentation(vertices, arrows, relations, field=QQ):
    quiver = Quiver(vertices, arrows)
    return Presentation(quiver, field, [
        parse_relation(text, quiver, field) for text in relations])


def loops_presentation(m, field=QQ):
    """m loops at one vertex, every product of two killed."""
    arrows = [(f"x{i}", "0", "0") for i in range(m)]
    rels = [f"x{i}*x{j}" for i in range(m) for j in range(m)]
    return family_presentation(["0"], arrows, rels, field)


def truncated_presentation(length, field=QQ):
    """k[x]/(x^length)."""
    return family_presentation(["0"], [("x", "0", "0")],
                               ["*".join("x" * length)], field)


def quantum_plane_presentation(q, field=QQ):
    """k<x, y>/(x^2, y^2, xy - q yx)."""
    sign = "-" if q > 0 else "+"
    return family_presentation(["0"], [("x", "0", "0"), ("y", "0", "0")],
                               ["x*x", "y*y", f"x*y {sign} {abs(q)}*y*x"],
                               field)


def cyclic_nakayama_presentation(n, length, field=QQ):
    """An oriented n-cycle with every path of the given length killed."""
    arrows = [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]
    rels = ["*".join(f"a{(i + k) % n}" for k in range(length))
            for i in range(n)]
    return family_presentation([str(i) for i in range(n)], arrows, rels,
                               field)


def hereditary_arrows(n, shortcut=False):
    """Vertices and arrows of linear A_n, with an arrow from the first
    vertex to the last if shortcut."""
    vertices = [str(i) for i in range(n)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
    if shortcut:
        arrows.append(("s", "0", str(n - 1)))
    return vertices, arrows


def hereditary_presentation(n, shortcut=False, field=QQ):
    return family_presentation(*hereditary_arrows(n, shortcut), [], field)


def commutative_ladder_presentation(m, field=QQ):
    """Two rows of m vertices, arrows along the rows and down the rungs,
    every square commuting: the incidence algebra of the poset 2 x m."""
    vertices = [f"{i}_{j}" for i in range(2) for j in range(m)]
    arrows = [(f"h{i}_{j}", f"{i}_{j}", f"{i}_{j + 1}")
              for i in range(2) for j in range(m - 1)]
    arrows += [(f"v{j}", f"0_{j}", f"1_{j}") for j in range(m)]
    rels = [f"h0_{j}*v{j + 1} - v{j}*h1_{j}" for j in range(m - 1)]
    return family_presentation(vertices, arrows, rels, field)


def random_monomial_presentation(seed, field=QQ):
    """Eight random arrows between six vertices, each from a lower vertex
    to a higher one, and each path of length 2 or 3 a relation with
    probability 0.4, so some relations contain others."""
    rng = random.Random(seed)
    arrows = []
    for k in range(8):
        s = rng.randrange(5)
        arrows.append((f"a{k}", str(s), str(rng.randrange(s + 1, 6))))
    quiver = Quiver([str(v) for v in range(6)], arrows)
    return Presentation(quiver, field, [
        PathSum({p: 1}, field) for p in paths_up_to(quiver, 3)
        if len(p) >= 2 and rng.random() < 0.4])


def twisted_regular(alg):
    """The regular bimodule conjugated by a change of basis that mixes an
    idempotent coordinate with a radical one: no longer Peirce-graded."""
    reg = regular_bimodule(alg)
    d = alg.dim
    field = alg.field
    radical = alg.radical_indices[0]
    s = Mat.from_entries(d, d, field, {**{(i, i): 1 for i in range(d)},
                                       (0, radical): 1})
    s_inv = Mat.from_entries(d, d, field, {**{(i, i): 1 for i in range(d)},
                                           (0, radical): -1})
    return Bimodule(alg, d, [s_inv.matmul(reg.left[i]).matmul(s)
                             for i in range(d)],
                    [s_inv.matmul(reg.right[i]).matmul(s) for i in range(d)])


def reference_normalized_basis(algebra, graded, n):
    """[(chain, m)] of the normalized complex in degree n, by brute force:
    the tuples of radical indices, in lexicographic order, whose Peirce
    blocks compose, each with the m of the graded twin in the block of
    its ends (a diagonal block in degree 0), ascending."""
    peirce = algebra.peirce
    out = []
    for chain in itertools.product(algebra.radical_indices, repeat=n):
        if any(peirce[x][1] != peirce[y][0] for x, y in zip(chain, chain[1:])):
            continue
        for m, (a, b) in enumerate(graded.peirce):
            if ((a, b) == (peirce[chain[0]][0], peirce[chain[-1]][1])
                    if chain else a == b):
                out.append((chain, m))
    return out


def reference_normalized_differential(algebra, module, n):
    """d^n of the normalized complex on the rows of N^{n+1}, assembled
    with the per-term check `NormalizedComplex._certify` replaced: each
    term `_bar_column` emits is placed by a row index of the brute-force
    degree-(n+1) basis, and a term at a key outside it raises
    AssertionError naming its decoded (chain, m)."""
    graded = peirce_regrade(module)[0]
    dm = graded.dim
    up = Cochain(algebra, graded, n + 1)
    rows = {up.encode(chain) * dm + m: k for k, (chain, m) in
            enumerate(reference_normalized_basis(algebra, graded, n + 1))}
    column = _bar_column(algebra, graded, n, args=algebra.radical_indices)
    basis = reference_normalized_basis(algebra, graded, n)
    cols = {}
    for j, (chain, m) in enumerate(basis):
        col = {}
        for key, v in column(up.encode(chain), chain, m).items():
            if key not in rows:
                t, m_out = divmod(key, dm)
                raise AssertionError(f"differential left the subcomplex at "
                                     f"{up.decode(t)}, {m_out}")
            col[rows[key]] = v
        if col:
            cols[j] = col
    return Mat(len(rows), len(basis), algebra.field, cols)


def differential_on_rows(nc, n):
    """nc.differential(n) with its rows, flat bar keys of degree n + 1,
    renamed to the rows of N^{n+1} by nc.index(n + 1): the matrix
    N^n -> N^{n+1}.  A key outside the index raises AssertionError."""
    d = nc.differential(n)
    pos = nc.index(n + 1)
    cols = {}
    for j, col in d.columns_items():
        outside = [k for k in col if k not in pos]
        if outside:
            raise AssertionError(f"differential left the subcomplex at flat "
                                 f"key {outside[0]}")
        cols[j] = {pos[k]: v for k, v in col.items()}
    return Mat(len(pos), d.cols, d.field, cols)


def reference_bimodule_check(module):
    """The bimodule certificate `Bimodule._check_axioms` replaced: unital
    actions, then on every pair of algebra basis vectors multiplicative
    left and right actions that commute (dense `Mat.matmul`), then, for a
    module with a product, associativity, left and right module morphism
    and balance on every basis triple.  Raises ValueError on the first
    failure."""
    field = module.field
    dim_a = module.algebra.dim
    idem = Mat.zero(module.dim, module.dim, field)
    idem_r = Mat.zero(module.dim, module.dim, field)
    for _, xi in module.algebra.idempotents:
        idem = idem.add(module.left[xi])
        idem_r = idem_r.add(module.right[xi])
    ident = Mat.identity(module.dim, field)
    if idem != ident or idem_r != ident:
        raise ValueError("actions are not unital")
    for i in range(dim_a):
        li = module.left[i]
        for j in range(dim_a):
            prod = module.algebra.structure.get((i, j), {})
            lprod = Mat.zero(module.dim, module.dim, field)
            rprod = Mat.zero(module.dim, module.dim, field)
            for k, c in prod.items():
                lprod = lprod.add(module.left[k], c)
                rprod = rprod.add(module.right[k], c)
            if li.matmul(module.left[j]) != lprod:
                raise ValueError(f"left action not multiplicative at {(i, j)}")
            # (x*b_i)*b_j = x*(b_i b_j): right matrices anti-compose
            if module.right[j].matmul(module.right[i]) != rprod:
                raise ValueError(
                    f"right action not multiplicative at {(i, j)}")
            if li.matmul(module.right[j]) != module.right[j].matmul(li):
                raise ValueError(
                    f"left/right actions do not commute at {(i, j)}")
    if module.product is not None:
        _reference_product_check(module)


def _reference_product_check(module):
    """Associativity, left and right module morphism, and balance over
    the algebra, on every basis triple, each side summed from the nonzero
    structure constants and action columns only."""
    field = module.field
    acts = range(module.algebra.dim)
    prods = [(key, p) for key, p in sorted(module.product.items()) if p]
    # l -> [(k, x_l x_k)], [(i, x_i x_l)], [(c, c.x_l)], [(c, x_l.c)]
    starting, ending, lefts, rights = {}, {}, {}, {}
    for (i, j), p in prods:
        starting.setdefault(i, []).append((j, p))
        ending.setdefault(j, []).append((i, p))
    for c in acts:
        for l, col in module.left[c].columns_items():
            lefts.setdefault(l, []).append((c, col))
        for l, col in module.right[c].columns_items():
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
           for i, col in module.left[c].columns_items()
           for j, v in spread(starting, col)),
          "product is not a left module morphism")
    # (x_i x_j).c = x_i (x_j.c)
    check((((c, i, j), v) for (i, j), p in prods
           for c, v in spread(rights, p)),
          (((c, i, j), v) for c in acts
           for j, col in module.right[c].columns_items()
           for i, v in spread(ending, col)),
          "product is not a right module morphism")
    # (x_i.c) x_j = x_i (c.x_j)
    check((((c, i, j), v) for c in acts
           for i, col in module.right[c].columns_items()
           for j, v in spread(starting, col)),
          (((c, i, j), v) for c in acts
           for j, col in module.left[c].columns_items()
           for i, v in spread(ending, col)),
          "product is not balanced over the algebra")


def certified_extension_algebra(C, E):
    """B = C (+) E certified as an algebra of its own, at any size: E's
    graded twin, then `Algebra` with its check on E's table, with C's
    idempotents and the Peirce tags of C and E.  `SplitExtensionData`
    builds the same B unchecked and relies on E's certificate; this is
    the certificate of B that it no longer runs.  Returns B."""
    E = peirce_regrade(E)[0]
    return Algebra(C.field, [*C.labels, *(f"[{l}]" for l in E.labels)],
                   E.extension_structure(), C.idempotents,
                   C.peirce + E.peirce)


def check_split_conditions(ext):
    """The conditions on p, q and i that hold by the coordinate layout of
    a split extension: p o q = id_C, p and q multiplicative, p unital,
    i(E) inside ker p, i an isomorphism onto it, and i respecting E's
    product.  Raises ValueError on the first that fails."""
    C, B, E, p, q, i = ext.C, ext.B, ext.E, ext.p, ext.q, ext.i
    if p.matmul(q) != Mat.identity(C.dim, C.field):
        raise ValueError("p o q is not the identity of C")
    _check_multiplicative(p, B, C)
    _check_multiplicative(q, C, B)
    if dict(p.matvec(B.unit_coords())) != C.unit_coords():
        raise ValueError("p does not preserve the unit")
    if p.matmul(i).nnz() != 0:
        raise ValueError("i(E) does not lie in ker p")
    if rank(i) != E.dim or E.dim != B.dim - C.dim:
        raise ValueError("i is not an isomorphism onto ker p")
    one = B.field.one
    for a in range(E.dim):
        for b in range(E.dim):
            want = {} if E.product is None else \
                i.matvec(E.multiply({a: one}, {b: one}))
            if B.multiply_coords(i.column(a), i.column(b)) != want:
                raise ValueError("i does not respect the product on E")


def assert_broken_copies_refused(res, n, top):
    """`certify` accepts res cut at P^top, and refuses that copy with the
    sign of one term of d^n flipped, or with the last summand of P^n
    dropped together with the terms of d^{n+1} that land in it."""
    def copy():
        return PartialResolution(
            res.algebra, res.chains,
            {k: list(res.summands[k]) for k in range(top + 1)},
            {k: [list(g) for g in res.terms[k]] for k in range(top + 1)})

    copy().certify()
    flipped = copy()
    y, u, v, c = flipped.terms[n][0][-1]
    flipped.terms[n][0][-1] = (y, u, v, res.algebra.field.neg(c))
    with pytest.raises(AssertionError, match=r"d\^\d o d\^\d is not zero"):
        flipped.certify()
    dropped = copy()
    last = len(dropped.summands[n]) - 1
    del dropped.summands[n][last], dropped.terms[n][last]
    dropped.terms[n + 1] = [[t for t in g if t[0] != last]
                            for g in dropped.terms[n + 1]]
    with pytest.raises(AssertionError) as caught:
        dropped.certify()
    assert isinstance(caught.value, NotExact) or re.match(
        r"d\^\d o d\^\d is not zero", str(caught.value))


PRESENTATIONS = {
    "nakayama_c": nakayama_c_presentation,
    "nakayama_b": nakayama_b_presentation,
    "kite_c": kite_c_presentation,
    "kite_b": kite_b_presentation,
    "triangle_c": triangle_c_presentation,
    "triangle_b": triangle_b_presentation,
    "square": square_presentation,
}


@pytest.fixture(scope="session")
def corpus():
    return {name: build_algebra(make()) for name, make in PRESENTATIONS.items()}


@pytest.fixture(scope="session")
def nakayama_c(corpus):
    return corpus["nakayama_c"]


@pytest.fixture(scope="session")
def nakayama_b(corpus):
    return corpus["nakayama_b"]


@pytest.fixture(scope="session")
def kite_c(corpus):
    return corpus["kite_c"]


@pytest.fixture(scope="session")
def kite_b(corpus):
    return corpus["kite_b"]


@pytest.fixture(scope="session")
def triangle_c(corpus):
    return corpus["triangle_c"]


@pytest.fixture(scope="session")
def triangle_b(corpus):
    return corpus["triangle_b"]


@pytest.fixture(scope="session")
def square(corpus):
    return corpus["square"]


def peirce_matvec_tags(module):
    """The Peirce tag of each basis vector of a bimodule, found by applying
    the idempotent actions to it: the rule Bimodule._peirce_tags keeps."""
    tags = []
    for i in range(module.dim):
        v = {i: module.field.one}
        tag = None
        for x, xi in module.algebra.idempotents:
            if module.left[xi].matvec(v) != v:
                continue
            for y, yi in module.algebra.idempotents:
                if module.right[yi].matvec(v) == v:
                    tag = (x, y)
                    break
            break
        tags.append(tag)
    return tags


@pytest.fixture(scope="session")
def instrumented_run():
    """One in-process verify-paper run, `verification.run_blocks()`, with
    every spy the run-wide tests read installed for that run only.

    Its records: `report`; `extensions`, block name -> the extensions
    `SplitExtensionData.__init__` built in it; `chained`, id -> extension
    for each extension the projection chain identity read; `resolutions`,
    the algebra of each `PartialResolution` made; `spaces` and `asked`,
    (algebra id, n) of each resolution space built and of each
    `hh_via_resolution` request of the blocks; `peirce`, per bimodule
    made, its `_peirce_tags` and the matvec rule's tags; `kernels`, each
    matrix given to `kernel_basis_sparse` with the kernel returned; `subs`,
    each bimodule `sub_bimodule` returned.
    """
    import sys
    from types import SimpleNamespace

    import hochschild.bimodule as bimodule
    import hochschild.extension as extension
    import hochschild.linalg as linalg
    import hochschild.minres as minres
    import hochschild.verification as verification

    rec = SimpleNamespace(extensions={}, chained={}, resolutions=[],
                          spaces=[], asked=[], peirce=[], kernels=[],
                          subs=[])
    current = []
    real_init = extension.SplitExtensionData.__init__
    real_chain = verification.check_projection_chain_identity
    real_post_init = minres.PartialResolution.__post_init__
    real_space, real_hh = minres.CohomologySpace, minres.hh_via_resolution
    real_tags = Bimodule._peirce_tags
    real_kernel = linalg.kernel_basis_sparse
    real_sub = bimodule.sub_bimodule

    def init(ext, *args, **kwargs):
        real_init(ext, *args, **kwargs)
        rec.extensions.setdefault(current[-1], []).append(ext)

    def chain(ext, n, **kwargs):
        rec.chained[id(ext)] = ext
        return real_chain(ext, n, **kwargs)

    def post_init(res):
        rec.resolutions.append(res.algebra)
        real_post_init(res)

    def space(res, n, *args, **kwargs):
        rec.spaces.append((id(res.algebra), n))
        return real_space(res, n, *args, **kwargs)

    def hh_via_resolution(algebra, n, resolution=None):
        rec.asked.append((id(algebra), n))
        return real_hh(algebra, n, resolution)

    def tags(module):
        got = real_tags(module)
        rec.peirce.append((got, peirce_matvec_tags(module)))
        return got

    def kernel(m):
        rec.kernels.append((m, real_kernel(m)))
        return rec.kernels[-1][1]

    def sub(ambient, vectors, labels=None):
        rec.subs.append(real_sub(ambient, vectors, labels))
        return rec.subs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extension.SplitExtensionData, "__init__", init)
        mp.setattr(verification, "check_projection_chain_identity", chain)
        mp.setattr(minres.PartialResolution, "__post_init__", post_init)
        mp.setattr(minres, "CohomologySpace", space)
        mp.setattr(verification, "hh_via_resolution", hh_via_resolution)
        mp.setattr(Bimodule, "_peirce_tags", tags)
        # the submodules only: the package serves its exports from them
        for name, module in list(sys.modules.items()):
            if not name.startswith("hochschild."):
                continue
            for attr, real, spy in (
                    ("kernel_basis_sparse", real_kernel, kernel),
                    ("sub_bimodule", real_sub, sub)):
                if getattr(module, attr, None) is real:
                    mp.setattr(module, attr, spy)
        for name, run in list(verification.BLOCKS.items()):
            def entered(suite, name=name, run=run):
                current.append(name)
                return run(suite)
            mp.setitem(verification.BLOCKS, name, entered)
        rec.report = verification.run_blocks()
    return rec
