"""Partial minimal projective bimodule resolution for monomial algebras.

P^0 is indexed by vertices, P^1 by arrows, P^2 by the relation paths and
P^3 by their overlaps; the differentials are

    d1(e (x) e) = a (x) e - e (x) a
    d2(e (x) e) = sum over arrow positions of prefix (x) suffix
    d3(e (x) e) = (e (x) e).tail - head.(e (x) e)

for an overlap  x = r1 * tail = head * r2.  This is a second, bar-free
route to hh^0..hh^2 used to cross-check the cochain engine.
"""

from dataclasses import dataclass

from .algebra import system_of_relations
from .linalg import Mat, kernel_basis_sparse, quotient_basis, rank


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
            overlaps.append(_mk_path(quiver, word))
    overlaps.sort(key=lambda p: p.sort_key())
    return ChainSets(vertices, arrows, relations, overlaps)


def _mk_path(quiver, word):
    p = quiver.arrow_path(word[0])
    for name in word[1:]:
        from .quiver import compose
        p = compose(p, quiver.arrow_path(name))
    return p


@dataclass
class PartialResolution:
    """Summand data and differentials of P^3 -> P^2 -> P^1 -> P^0 -> A."""

    algebra: object
    chains: ChainSets
    summands: dict   # n -> [(source idempotent, target idempotent)]
    terms: dict      # n -> [per generator: list of (y_index, u, v, coeff)]

    def __post_init__(self):
        self._hom = {}   # n -> Hom(d^n, A)

    def hom_differential(self, n):
        """Hom(P^{n-1}, A) -> Hom(P^n, A), built once per n."""
        got = self._hom.get(n)
        if got is None:
            got = self._hom[n] = _hom_differential(self, n)
        return got

    def projective_basis(self, n):
        """Concrete basis (summand, i, j) of P^n: u (x) v with t(u) = a,
        s(v) = b."""
        A = self.algebra
        out = []
        for s_idx, (a, b) in enumerate(self.summands[n]):
            lefts = [i for i, t in enumerate(A.peirce) if t[1] == a]
            rights = [j for j, t in enumerate(A.peirce) if t[0] == b]
            for i in lefts:
                for j in rights:
                    out.append((s_idx, i, j))
        return out

    def differential_matrix(self, n):
        """d^n: P^n -> P^{n-1} on the concrete bases."""
        A = self.algebra
        field = A.field
        src = self.projective_basis(n)
        tgt = self.projective_basis(n - 1)
        pos = {t: k for k, t in enumerate(tgt)}
        cols = {}
        for col_idx, (s_idx, i, j) in enumerate(src):
            col = {}
            for (y_idx, u, v, coeff) in self.terms[n][s_idx]:
                ui = A.multiply_coords({i: field.one}, u)
                vj = A.multiply_coords(v, {j: field.one})
                for bi, cu in ui.items():
                    for bj, cv in vj.items():
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
            if col:
                cols[col_idx] = col
        return Mat(len(tgt), len(src), field, cols)

    def augmentation_matrix(self):
        """P^0 -> A, e_x (x) e_x -> e_x."""
        A = self.algebra
        field = A.field
        src = self.projective_basis(0)
        cols = {}
        for col_idx, (s_idx, i, j) in enumerate(src):
            prod = A.multiply_coords({i: field.one}, {j: field.one})
            if prod:
                cols[col_idx] = prod
        return Mat(A.dim, len(src), field, cols)


def build_partial_resolution(algebra):
    """P^0..P^3 with differentials; certifies d o d = 0 and exactness at
    P^0 and P^1 against the multiplication augmentation."""
    chains = chain_paths(algebra)
    A = algebra
    field = A.field

    summands = {
        0: [(p.source, p.target) for p in chains.vertices],
        1: [(p.source, p.target) for p in chains.arrows],
        2: [(p.source, p.target) for p in chains.relations],
        3: [(p.source, p.target) for p in chains.overlaps],
    }

    def elem(path):
        return dict(A.element_from_path(path).coords)

    terms = {0: [[] for _ in chains.vertices], 1: [], 2: [], 3: []}
    arrow_pos = {p.arrows[0]: k for k, p in enumerate(chains.arrows)}
    vertex_pos = {p.source: k for k, p in enumerate(chains.vertices)}
    rel_pos = {p.arrows: k for k, p in enumerate(chains.relations)}
    quiver = A.presentation.quiver

    for p in chains.arrows:
        name = p.arrows[0]
        e_src = {idx: field.one for n2, idx in A.idempotents if n2 == p.source}
        e_tgt = {idx: field.one for n2, idx in A.idempotents if n2 == p.target}
        a_elem = elem(p)
        terms[1].append([
            (vertex_pos[p.target], a_elem, e_tgt, field.one),
            (vertex_pos[p.source], e_src, a_elem, field.of(-1)),
        ])

    for p in chains.relations:
        lst = []
        word = p.arrows
        for k, name in enumerate(word):
            prefix = (quiver.trivial_path(p.source) if k == 0
                      else _mk_path(quiver, word[:k]))
            suffix = (quiver.trivial_path(p.target) if k == len(word) - 1
                      else _mk_path(quiver, word[k + 1:]))
            lst.append((arrow_pos[name], elem(prefix), elem(suffix),
                        field.one))
        terms[2].append(lst)

    for p in chains.overlaps:
        word = p.arrows
        r1 = next(r for r in chains.relations
                  if word[:len(r.arrows)] == r.arrows)
        r2 = next(r for r in chains.relations
                  if word[-len(r.arrows):] == r.arrows)
        tail = word[len(r1.arrows):]
        head = word[:-len(r2.arrows)]
        tail_p = (_mk_path(quiver, tail) if tail
                  else quiver.trivial_path(p.target))
        head_p = (_mk_path(quiver, head) if head
                  else quiver.trivial_path(p.source))
        terms[3].append([
            (rel_pos[r1.arrows], elem(quiver.trivial_path(r1.source)),
             elem(tail_p), field.one),
            (rel_pos[r2.arrows], elem(head_p),
             elem(quiver.trivial_path(r2.target)), field.of(-1)),
        ])

    res = PartialResolution(A, chains, summands, terms)
    d1 = res.differential_matrix(1)
    d2 = res.differential_matrix(2)
    d3 = res.differential_matrix(3)
    aug = res.augmentation_matrix()
    if not d1.matmul(d2).is_zero() or not d2.matmul(d3).is_zero():
        raise AssertionError("resolution differentials do not compose to zero")
    if not aug.matmul(d1).is_zero():
        raise AssertionError("augmentation does not kill the image of d1")
    if rank(d1) != len(res.projective_basis(0)) - A.dim:
        raise AssertionError("resolution is not exact at P^0")
    if rank(d2) != len(res.projective_basis(1)) - rank(d1):
        raise AssertionError("resolution is not exact at P^1")
    return res


@dataclass
class ResolutionCohomology:
    degree: int
    dim: int
    representatives: list  # sparse vectors over the Hom-block coordinates
    block_index: list      # [(chain path, M index)] describing coordinates


def _hom_blocks(resolution, n):
    """Coordinates of Hom_{A-A}(P^n, A) = (+) e_a A e_b over the summands."""
    A = resolution.algebra
    flat = []
    for s_idx, (a, b) in enumerate(resolution.summands[n]):
        for m, tag in enumerate(A.peirce):
            if tag == (a, b):
                flat.append((s_idx, m))
    return flat


def _hom_differential(resolution, n):
    """Hom(P^{n-1}, A) -> Hom(P^n, A) induced by d^n."""
    A = resolution.algebra
    field = A.field
    src = _hom_blocks(resolution, n - 1)
    tgt = _hom_blocks(resolution, n)
    tgt_pos = {t: k for k, t in enumerate(tgt)}
    cols = {}
    for col_idx, (y_idx, m) in enumerate(src):
        col = {}
        for x_idx, lst in enumerate(resolution.terms[n]):
            for (y2, u, v, coeff) in lst:
                if y2 != y_idx:
                    continue
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
    per algebra unless one is passed)."""
    if n not in (0, 1, 2):
        raise ValueError("the partial resolution reaches degree 2 only")
    res = resolution if resolution is not None else \
        _partial_resolution(algebra)
    boundaries = [] if n == 0 else [
        c for _, c in res.hom_differential(n).columns_items()]
    reps, _ = quotient_basis(
        algebra.field, kernel_basis_sparse(res.hom_differential(n + 1)),
        boundaries)
    chain_list = {0: res.chains.vertices, 1: res.chains.arrows,
                  2: res.chains.relations, 3: res.chains.overlaps}[n]
    blocks = [(chain_list[s_idx], m) for (s_idx, m) in _hom_blocks(res, n)]
    return ResolutionCohomology(n, len(reps), reps, blocks)


def hom_complex_ranks(resolution):
    """Kernel and image dimensions of the Hom-complex differentials."""
    out = {}
    for n in (1, 2, 3):
        d = resolution.hom_differential(n)
        r = rank(d)
        out[n] = {"cols": d.cols, "rank": r, "kernel": d.cols - r}
    return out
