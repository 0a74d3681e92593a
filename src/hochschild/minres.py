"""Partial minimal projective bimodule resolution for monomial algebras.

P^0 is indexed by vertices, P^1 by arrows, P^2 by the relation paths and
P^3 by their overlaps; the differentials are

    d1(e (x) e) = a (x) e - e (x) a
    d2(e (x) e) = sum over arrow positions of prefix (x) suffix
    d3(e (x) e) = (e (x) e).tail - head.(e (x) e)

for an overlap  x = r1 * tail = head * r2.  This is a second, bar-free
route to hh^0..hh^2 used to cross-check the cochain engine.

Each d^n is the A-A-bilinear extension of the images of the summand
generators e_a (x) e_b, kept in `PartialResolution.terms`.
`PartialResolution.certify` checks mu o d^1, d^1 o d^2 and d^2 o d^3 on
the generators alone, which is enough (its docstring gives the
argument), and exactness at P^0 and P^1 from the ranks of d^1 and d^2,
the only differentials it builds as matrices over the basis b_i (x) b_j.

The resolution is also the complex Hom_{A-A}(P^*, A) that the route
reads: in degree n a vector lives on the Hom blocks (+) e_a A e_b over
the summands of P^n (`PartialResolution._hom_blocks`), and its
differential in degree n is Hom(d^{n+1}, A).  `hh_via_resolution` takes
kernel modulo image of it with `cohomology.CohomologySpace`, as every
engine does, one space per degree kept on the resolution; its
representatives are Hom-block vectors, since no cochain maps into it.
"""

from dataclasses import dataclass
from itertools import product

from .algebra import system_of_relations
from .bimodule import regular_bimodule
from .cohomology import CohomologySpace, RankedComplex
from .linalg import Mat, axpy, rank


class NotMonomial(ValueError):
    pass


def _monomial_relations(algebra):
    if algebra.presentation is None:
        raise ValueError("resolution needs a presented algebra")
    rels = system_of_relations(algebra)
    paths = []
    for r in rels:
        if len(r.terms) != 1:
            raise NotMonomial("a relation has more than one term")
        (path,) = r.terms
        paths.append(path)
    paths.sort(key=lambda p: p.sort_key())
    return paths


@dataclass
class ChainSets:
    """g^0..g^3 of the minimal-resolution combinatorics."""

    vertices: list   # trivial paths
    arrows: list     # arrow paths
    relations: list  # the monomial relations
    overlaps: list   # paths carrying a prefix relation and an overlapping
                     # suffix relation, minimal among their prefixes


def chain_paths(algebra):
    """The four chain sets; relations must be monomial."""
    quiver = algebra.presentation.quiver
    relations = _monomial_relations(algebra)
    vertices = [quiver.trivial_path(v) for v in sorted(quiver.vertices)]
    arrows = [quiver.arrow_path(a.name) for a in quiver.arrows]
    arrows.sort(key=lambda p: p.sort_key())
    overlaps = []
    for r1 in relations:
        candidates = []
        for r2 in relations:
            top = min(len(r1), len(r2))
            for ell in range(1, top + 1):
                if r1.arrows[-ell:] == r2.arrows[:ell] and len(r2) > ell:
                    candidates.append((r1.arrows + r2.arrows[ell:], r2, ell))
        # keep the minimal ones: no accepted overlap is a proper prefix
        candidates.sort(key=lambda t: (len(t[0]), t[0]))
        kept = []
        for word, _, _ in candidates:
            if any(word[:len(k)] == k for k in kept):
                continue
            kept.append(word)
            overlaps.append(quiver.path(*word))
    overlaps.sort(key=lambda p: p.sort_key())
    return ChainSets(vertices, arrows, relations, overlaps)


@dataclass
class PartialResolution(RankedComplex):
    """Summand data and differentials of P^3 -> P^2 -> P^1 -> P^0 -> A,
    and the complex Hom_{A-A}(P^*, A) of degrees 0..3 that
    `CohomologySpace` reads (no `project`: its vectors are not cochains).
    """

    algebra: object
    chains: ChainSets
    summands: dict   # n -> [(source idempotent, target idempotent)]
    terms: dict      # n -> [per generator: list of (y_index, u, v, coeff)]

    backend = "resolution"

    def __post_init__(self):
        self._hom = {}   # n -> Hom(d^{n+1}, A)
        self._blocks = {}
        self._spaces = {}  # n -> CohomologySpace, see hh_via_resolution
        self.ranks = {}
        # basis indices of A by target and by source, for _sides
        self._by_target, self._by_source = {}, {}
        for i, (x, y) in enumerate(self.algebra.peirce):
            self._by_target.setdefault(y, []).append(i)
            self._by_source.setdefault(x, []).append(i)

    @property
    def module(self):
        """The coefficients, A as a bimodule over itself."""
        return regular_bimodule(self.algebra)

    def _hom_blocks(self, n):
        """Coordinates (summand, basis index) of Hom_{A-A}(P^n, A) =
        (+) e_a A e_b over the summands, built once per n."""
        got = self._blocks.get(n)
        if got is None:
            by_block = {}
            for m, tag in enumerate(self.algebra.peirce):
                by_block.setdefault(tag, []).append(m)
            got = self._blocks[n] = [
                (s_idx, m) for s_idx, tag in enumerate(self.summands[n])
                for m in by_block.get(tag, ())]
        return got

    def dim(self, n):
        return len(self._hom_blocks(n))

    def differential(self, n):
        """Hom(d^{n+1}, A): Hom(P^n, A) -> Hom(P^{n+1}, A), built once
        per n."""
        got = self._hom.get(n)
        if got is None:
            got = self._hom[n] = _hom_differential(self, n + 1)
        return got

    def embed(self, n, vec):
        return dict(vec)

    def _sides(self, a, b):
        """Basis indices i with t(b_i) = a, and j with s(b_j) = b."""
        return self._by_target.get(a, []), self._by_source.get(b, [])

    def projective_basis(self, n):
        """Concrete basis (summand, i, j) of P^n: u (x) v with t(u) = a,
        s(v) = b."""
        return [(s_idx, i, j)
                for s_idx, (a, b) in enumerate(self.summands[n])
                for i, j in product(*self._sides(a, b))]

    def _image(self, n, pos, terms):
        """sum coeff * u (x) v over terms (y_index, u, v, coeff) of d^n, as
        a vector on the concrete basis pos of P^{n-1}."""
        field = self.algebra.field
        col = {}
        for y_idx, u, v, coeff in terms:
            for bi, cu in u.items():
                for bj, cv in v.items():
                    key = pos.get((y_idx, bi, bj))
                    if key is None:
                        raise AssertionError(
                            f"d^{n} left the basis of P^{n - 1} at "
                            f"{(y_idx, bi, bj)}")
                    w = field.add(col.get(key, field.zero),
                                  field.mul(field.mul(cu, cv), coeff))
                    if w:
                        col[key] = w
                    elif key in col:
                        del col[key]
        return col

    def differential_matrix(self, n):
        """d^n: P^n -> P^{n-1} on the concrete bases.

        The column at b_i (x) b_j of a summand is sum coeff * b_i u (x)
        v b_j over its terms.  b_i u and v b_j are read from the algebra's
        multiplication tables once per term, and each summand's columns
        are written in one pass over its terms, at base + i_pos *
        len(rights) + j_pos.
        """
        A = self.algebra
        field = A.field
        left, right = A._mult_tables()
        pos = {t: k for k, t in enumerate(self.projective_basis(n - 1))}
        cols = {}
        base = 0
        for s_idx, (a, b) in enumerate(self.summands[n]):
            lefts, rights = self._sides(a, b)
            width = len(rights)
            block = {}
            for y_idx, u, v, coeff in self.terms[n][s_idx]:
                us = [(p, _times(field, left[i], u))
                      for p, i in enumerate(lefts)]
                vs = [(q, _times(field, right[j], v))
                      for q, j in enumerate(rights)]
                vs = [(q, vj) for q, vj in vs if vj]
                for p, ui in us:
                    for q, vj in (vs if ui else ()):
                        col = block.setdefault(base + p * width + q, {})
                        for bi, cu in ui.items():
                            for bj, cv in vj.items():
                                key = pos.get((y_idx, bi, bj))
                                if key is None:
                                    raise AssertionError(
                                        f"d^{n} left the basis of P^{n - 1} "
                                        f"at {(y_idx, bi, bj)}")
                                w = field.add(
                                    col.get(key, field.zero),
                                    field.mul(field.mul(cu, cv), coeff))
                                if w:
                                    col[key] = w
                                elif key in col:
                                    del col[key]
            for c in sorted(block):
                if block[c]:
                    cols[c] = block[c]
            base += len(lefts) * width
        return Mat(len(pos), base, field, cols)

    def certify(self):
        """Raise AssertionError unless P^3 -> P^2 -> P^1 -> P^0 -> A is a
        complex, exact at P^0 and P^1.

        The compositions are checked on the summand generators only:
        mu(u (x) v) = uv summed over the terms of each d^1(e_a (x) e_b),
        and the concrete d^{n-1} applied to each d^n(e_a (x) e_b) for n =
        2, 3.  That is enough.  The column of d^n at b_i (x) b_j of a
        summand is sum coeff * b_i u (x) v b_j over its terms, the
        A-A-bilinear extension of the generator's image, and it is
        bilinear because A is associative (certified when A is built);
        mu is bilinear for the same reason.  A composite of bilinear maps
        is bilinear, and b_i (x) b_j = b_i . (e_a (x) e_b) . b_j, so a
        composite that kills every generator is zero.  Exactness needs the
        ranks of d^1 and d^2, so those two are built as matrices; d^3 is
        not.
        """
        A = self.algebra
        field = A.field
        for x, terms in enumerate(self.terms[1]):
            out = {}
            for _, u, v, coeff in terms:
                axpy(field, out, coeff, A.multiply_coords(u, v))
            if out:
                raise AssertionError(
                    f"augmentation does not kill d^1 of generator {x}")
        d = {1: self.differential_matrix(1), 2: self.differential_matrix(2)}
        for n in (2, 3):
            pos = {t: k for k, t in enumerate(self.projective_basis(n - 1))}
            for x, terms in enumerate(self.terms[n]):
                if d[n - 1].matvec(self._image(n, pos, terms)):
                    raise AssertionError(
                        f"d^{n - 1} o d^{n} is not zero on generator {x}")
        # d^n has one row per basis vector of P^{n-1}
        rank1 = rank(d[1])
        if rank1 != d[1].rows - A.dim:
            raise AssertionError("resolution is not exact at P^0")
        if rank(d[2]) != d[2].rows - rank1:
            raise AssertionError("resolution is not exact at P^1")


def _times(field, table, x):
    """sum of x[m] * table[m]: a basis vector times the element x, read
    from the basis vector's row of a multiplication table."""
    out = {}
    for m, c in x.items():
        prod = table.get(m)
        if prod:
            axpy(field, out, c, prod)
    return out


def build_partial_resolution(algebra):
    """P^0..P^3 with their differentials, certified by
    `PartialResolution.certify`: the compositions vanish on the summand
    generators, which suffices because each d^n is the A-A-bilinear
    extension of its generator images, and the ranks of d^1 and d^2 give
    exactness at P^0 and P^1."""
    chains = chain_paths(algebra)
    A = algebra
    field = A.field
    quiver = A.presentation.quiver

    summands = {
        0: [(p.source, p.target) for p in chains.vertices],
        1: [(p.source, p.target) for p in chains.arrows],
        2: [(p.source, p.target) for p in chains.relations],
        3: [(p.source, p.target) for p in chains.overlaps],
    }

    basis_index = {p: k for k, p in enumerate(A.basis_paths or ())}
    elems = {}  # one coordinate dict per path, shared by the terms

    def elem(path):
        got = elems.get(path)
        if got is None:
            k = basis_index.get(path)
            got = elems[path] = {k: field.one} if k is not None else \
                dict(A.element_from_path(path).coords)
        return got

    def word_path(word, vertex):
        return quiver.path(*word) if word else quiver.trivial_path(vertex)

    terms = {0: [[] for _ in chains.vertices], 1: [], 2: [], 3: []}
    arrow_pos = {p.arrows[0]: k for k, p in enumerate(chains.arrows)}
    vertex_pos = {p.source: k for k, p in enumerate(chains.vertices)}
    rel_pos = {p.arrows: k for k, p in enumerate(chains.relations)}

    for p in chains.arrows:
        a_elem = elem(p)
        terms[1].append([
            (vertex_pos[p.target], a_elem,
             elem(quiver.trivial_path(p.target)), field.one),
            (vertex_pos[p.source], elem(quiver.trivial_path(p.source)),
             a_elem, field.of(-1)),
        ])

    for p in chains.relations:
        word = p.arrows
        terms[2].append([
            (arrow_pos[name], elem(word_path(word[:k], p.source)),
             elem(word_path(word[k + 1:], p.target)), field.one)
            for k, name in enumerate(word)])

    for p in chains.overlaps:
        word = p.arrows
        r1 = next(r for r in chains.relations
                  if word[:len(r.arrows)] == r.arrows)
        r2 = next(r for r in chains.relations
                  if word[-len(r.arrows):] == r.arrows)
        tail = word_path(word[len(r1.arrows):], p.target)
        head = word_path(word[:-len(r2.arrows)], p.source)
        terms[3].append([
            (rel_pos[r1.arrows], elem(quiver.trivial_path(r1.source)),
             elem(tail), field.one),
            (rel_pos[r2.arrows], elem(head),
             elem(quiver.trivial_path(r2.target)), field.of(-1)),
        ])

    res = PartialResolution(A, chains, summands, terms)
    res.certify()
    return res


def _hom_differential(resolution, n):
    """Hom(P^{n-1}, A) -> Hom(P^n, A) induced by d^n."""
    A = resolution.algebra
    field = A.field
    src = resolution._hom_blocks(n - 1)
    tgt = resolution._hom_blocks(n)
    tgt_pos = {t: k for k, t in enumerate(tgt)}
    # the terms of d^n grouped by the summand y of P^{n-1} they land in
    by_target = {}
    for x_idx, lst in enumerate(resolution.terms[n]):
        for y_idx, u, v, coeff in lst:
            by_target.setdefault(y_idx, []).append((x_idx, u, v, coeff))
    cols = {}
    for col_idx, (y_idx, m) in enumerate(src):
        col = {}
        for x_idx, u, v, coeff in by_target.get(y_idx, ()):
            val = A.multiply_coords(A.multiply_coords(u, {m: field.one}), v)
            for m2, c in val.items():
                key = tgt_pos.get((x_idx, m2))
                if key is None:
                    raise AssertionError(
                        f"Hom(d^{n}, A) left the Hom blocks at "
                        f"{(x_idx, m2)}")
                w = field.add(col.get(key, field.zero),
                              field.mul(coeff, c))
                if w:
                    col[key] = w
                elif key in col:
                    del col[key]
        if col:
            cols[col_idx] = col
    return Mat(len(tgt), len(src), field, cols)


def _partial_resolution(algebra):
    """build_partial_resolution(algebra), built once per algebra."""
    res = getattr(algebra, "_partial_resolution", None)
    if res is None:
        res = algebra._partial_resolution = build_partial_resolution(algebra)
    return res


def hh_via_resolution(algebra, n, resolution=None):
    """hh^n(A) for n <= 2 from the partial minimal resolution (built once
    per algebra unless one is passed), with its representatives built;
    one space per degree, kept on the resolution."""
    if n not in (0, 1, 2):
        raise ValueError("the partial resolution reaches degree 2 only")
    res = resolution if resolution is not None else \
        _partial_resolution(algebra)
    space = res._spaces.get(n)
    if space is None:
        space = res._spaces[n] = CohomologySpace(res, n)
        space.vectors()
    return space
