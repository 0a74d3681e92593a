"""Projective bimodule resolutions, certified, and the complex
Hom_{A-A}(P^*, A) that a resolution route reads.

`BardzellResolution` builds Bardzell's minimal resolution of a monomial
algebra (*J. Algebra* 188, 1997), `KoszulResolution` Priddy's complex
A (x)_E K_n (x)_E A of a quadratic one, K_n the intersection of the
V^i R V^j in V^{(x)n}; both one degree at a time, as far as asked.
`hh` reads the dims of the regular bimodule off the one that applies,
where it is certified exact (`resolution_route`); `hh_via_resolution`
reads Bardzell's too, one instance kept on the algebra for both.

Each d^n is the A-A-bilinear extension of the images of the summand
generators e_a (x) e_b, kept in `PartialResolution.terms`.
`PartialResolution.certify` checks mu o d^1 and each d^{n-1} o d^n on
the generators alone, by bilinear products of their terms, and exactness
at every P^n below the top from the ranks of d^n and d^{n+1} on the
one-sided complex P^* (x)_A A/J; its docstring gives both arguments.  No
matrix is built over the bimodule basis b_i (x) b_j.

The resolution is also the complex Hom_{A-A}(P^*, A) that the route
reads: in degree n a vector lives on the Hom blocks (+) e_a A e_b over
the summands of P^n (`PartialResolution._hom_blocks`), and its
differential in degree n is Hom(d^{n+1}, A).  `hh_via_resolution` takes
kernel modulo image of it with `cohomology.CohomologySpace`, as every
engine does, one space per degree kept on the resolution; its
representatives are Hom-block vectors, since no cochain maps into it.
"""

from collections import namedtuple
from dataclasses import dataclass

from .algebra import system_of_relations
from .bimodule import regular_bimodule
from .cohomology import CohomologySpace, RankedComplex
from .linalg import Mat, SubspaceCoords, axpy, kernel_basis_sparse, rank


class NotMonomial(ValueError):
    pass


class NotExact(AssertionError):
    """A complex that `PartialResolution.certify` found not exact."""


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
    return paths


# AP_0..AP_3 of Bardzell's resolution as paths: the vertices, the
# arrows, the monomial relations and their overlaps
ChainSets = namedtuple("ChainSets", "vertices arrows relations overlaps")


def chain_paths(algebra):
    """AP_0..AP_3 of the algebra's Bardzell resolution (the one kept on
    it); relations must be monomial."""
    res = _partial_resolution(algebra)
    return ChainSets(*([p for p, _ in res.chains[n]] for n in range(4)))


@dataclass
class PartialResolution(RankedComplex):
    """Summand data and differentials of P^top -> ... -> P^0 -> A, and
    the complex Hom_{A-A}(P^*, A) that `CohomologySpace` reads (no
    `project`: its vectors are not cochains).  chains is n -> AP_n of
    the Bardzell resolution, each chain with the length of its prefix
    chain; None for the Koszul one.
    """

    algebra: object
    chains: dict
    summands: dict   # n -> [(source idempotent, target idempotent)]
    terms: dict      # n -> [per generator: list of (y_index, u, v, coeff)]

    backend = "resolution"

    def __post_init__(self):
        self._hom = {}   # n -> Hom(d^{n+1}, A)
        self._blocks = {}
        self._spaces = {}  # n -> CohomologySpace, see hh_via_resolution
        self.ranks = {}
        # n -> rank of d^n (x)_A A/J; d^0 is the augmentation onto A/J
        self._sided = {0: len(self.algebra.idempotents)}
        self.exact_to = -1   # exact at P^0..P^exact_to, certified
        self.stuck = False   # certify found a P^n not exact

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

    def _one_sided(self, n):
        """d^n (x)_A A/J: P^n (x)_A A/J -> P^{n-1} (x)_A A/J.

        A e_a (x) e_b A (x)_A A/J is A e_a (x) k e_b, with the basis
        (summand s, i) over the b_i with t(b_i) = a_s.  The column at
        (s, i) is sum c * eps(v) * b_i u over the terms (y, u, v, c) of
        d^n(e_a (x) e_b), at (y, .), where eps(v) is v's coefficient on
        its vertex idempotent: only terms whose right factor is not in J
        survive.
        """
        A = self.algebra
        field = A.field
        by_target = {}
        for i, (_, t) in enumerate(A.peirce):
            by_target.setdefault(t, []).append(i)
        idem = [k for _, k in A.idempotents]

        def basis(m):
            return [(s, i) for s, (a, _) in enumerate(self.summands[m])
                    for i in by_target.get(a, ())]

        # per summand, the terms whose right factor has a vertex part
        kept = [[(y, u, field.mul(c, v[k])) for y, u, v, c in terms
                 for k in idem if k in v] for terms in self.terms[n]]
        pos = {t: k for k, t in enumerate(basis(n - 1))}
        src = basis(n)
        cols = {}
        for col_idx, (s, i) in enumerate(src):
            col = {}
            for y, u, c in kept[s]:
                image = {}
                for m, w in A.multiply_coords({i: field.one}, u).items():
                    if (y, m) not in pos:
                        raise AssertionError(
                            f"d^{n} left the basis of P^{n - 1} at {(y, m)}")
                    image[pos[(y, m)]] = w
                axpy(field, col, c, image)
            if col:
                cols[col_idx] = col
        return Mat(len(pos), len(src), field, cols)

    def _composes(self, n):
        """Raise AssertionError unless mu o d^1 (n = 1) or d^{n-1} o d^n
        kills every generator of P^n."""
        A = self.algebra
        field = A.field
        times = _memo_product(A)
        for x, terms in enumerate(self.terms[n]):
            out = {}
            for y, u, v, c in terms:
                if n == 1:
                    axpy(field, out, c, times(u, v))
                    continue
                for z, u2, v2, c2 in self.terms[n - 1][y]:
                    right = times(v2, v)
                    for i, ci in times(u, u2).items():
                        axpy(field, out, field.mul(field.mul(c, c2), ci),
                             {(z, i, j): cj for j, cj in right.items()})
            if out:
                raise AssertionError(
                    f"augmentation does not kill d^1 of generator {x}"
                    if n == 1 else
                    f"d^{n - 1} o d^{n} is not zero on generator {x}")

    def certify(self, start=1):
        """Raise AssertionError unless P^top -> ... -> P^0 -> A is a
        complex, exact at P^0..P^{top-1}; NotExact if only exactness
        fails.  Degrees below start are taken as certified by an earlier
        call, so a resolution extended by one degree certifies that one.

        The compositions are checked on the summand generators only:
        mu(u (x) v) = uv summed over the terms of each d^1(e_a (x) e_b),
        and for n >= 2 each term (y, u, v, c) of d^n(e_a (x) e_b) and
        each term (z, u', v', c') of d^{n-1}(g_y) add c c' (u u') (x)
        (v' v) at summand z of P^{n-2}, collected on the basis (z, i, j)
        of b_i (x) b_j.  That is enough.  d^n sends b_i (x) b_j of a
        summand to sum coeff * b_i u (x) v b_j over its terms, the
        A-A-bilinear extension of the generator's image, and it is
        bilinear because A is associative (certified when A is built);
        mu is bilinear for the same reason.  A composite of bilinear maps
        is bilinear, and b_i (x) b_j = b_i . (e_a (x) e_b) . b_j, so a
        composite that kills every generator is zero.

        Exactness is read on P^* (x)_A A/J -> A/J (`_one_sided`).  Each
        P^n and A are projective right modules, and J is nilpotent.
        Filter the augmented complex C by the subcomplexes C J^k.  Since
        projectives are flat, each layer C J^k / C J^{k+1} is
        C (x)_A J^k/J^{k+1}, a sum of copies of the C (x)_A S_v, which are
        summands of C (x)_A A/J.  If C (x)_A A/J is exact at a position,
        so is every layer, and the long exact sequences of 0 -> C J^{k+1}
        -> C J^k -> layer -> 0, from J^N = 0 down to k = 0, show that C
        is exact there.  Conversely, C exact at A, P^0, ..., P^n is split
        exact there as a complex of right projectives, and a right-split
        exact complex stays exact under (x)_A A/J.  So the check has the
        strength of the ranks over b_i (x) b_j.  A (x)_A A/J = A/J has
        dimension |Q_0| and mu (x) A/J is onto, so with rank d^0 = |Q_0|
        exactness at P^n reads rank d^n + rank d^{n+1} = rows of
        P^n (x)_A A/J.  d^1 has one row per basis vector of A.
        """
        degrees = range(start, max(self.summands) + 1)
        for n in degrees:
            self._composes(n)
        for n in degrees:
            d = self._one_sided(n)
            self._sided[n] = rank(d)
            if self._sided[n - 1] + self._sided[n] != d.rows:
                raise NotExact(f"resolution is not exact at P^{n - 1}")
        self.exact_to = max(self.summands) - 1

    def reach(self, n):
        """Whether P^0..P^n are certified exact, extending the complex
        one degree at a time (`_extend`) while each new position is
        exact."""
        while self.exact_to < n and not self.stuck:
            self._extend(max(self.summands) + 1)
        return self.exact_to >= n


class BardzellResolution(PartialResolution):
    """Bardzell's minimal resolution of a monomial algebra, built one
    degree at a time by `reach`.

    A chain of AP_n is a path w with the length pl of its prefix chain
    in AP_{n-1}: AP_0 is the vertices and AP_1 the arrows (pl = 0).  For
    each w of AP_n (n >= 1), AP_{n+1} has the paths w[:p] + r, r a
    relation, pl <= p < len(w) and w[p:] a proper prefix of r, that have
    no other such path as a proper prefix, each with pl = len(w); so AP_2
    is the relations.  Each degree is sorted by `Path.sort_key`.  The
    differentials are Skoeldberg's (*Proc. AMS* 127, 1999):

        d^1(e (x) e) = a (x) e - e (x) a,
        d^n(e (x) e) = e (x) w[pl:] - w[:j] (x) e     (n odd, n >= 3),
        d^n(e (x) e) = sum over w = L q R of L (x) R  (n even),

    at the summands of the prefix w[:pl] and the suffix w[j:] in AP_{n-1}
    (n odd), of each chain q of AP_{n-1} met in w (n even); terms with a
    factor zero in A are dropped.  It resolves every monomial algebra,
    so a failed certificate raises.
    """

    def __init__(self, algebra):
        A = algebra
        quiver = A.presentation.quiver
        # proper prefix of a relation -> relations; word -> coordinates
        self._prefixes, self._elems = {}, {}
        for r in _monomial_relations(A):
            for k in range(1, len(r)):
                self._prefixes.setdefault(r.arrows[:k], []).append(r.arrows)
        self._basis = {p.arrows or p.source: k
                       for k, p in enumerate(A.basis_paths)}
        vertices = [quiver.trivial_path(v) for v in sorted(quiver.vertices)]
        arrows = sorted((quiver.arrow_path(a.name) for a in quiver.arrows),
                        key=lambda p: p.sort_key())
        super().__init__(A, {0: [(p, 0) for p in vertices],
                             1: [(p, 0) for p in arrows]}, {}, {})
        pos = {p.source: k for k, p in enumerate(vertices)}
        self.summands = {n: [(p.source, p.target) for p, _ in self.chains[n]]
                         for n in (0, 1)}
        self.terms = {0: [[] for _ in vertices], 1: [[
            (pos[p.target], self._elem(p.arrows), self._elem(p.target),
             A.field.one),
            (pos[p.source], self._elem(p.source), self._elem(p.arrows),
             A.field.of(-1))] for p in arrows]}
        self.certify()

    def _elem(self, key):
        """The coordinates of the path with word key (its vertex if it is
        trivial), one dict per path, shared by the terms: in a monomial
        algebra a path is a basis vector or zero."""
        got = self._elems.get(key)
        if got is None:
            k = self._basis.get(key)
            got = self._elems[key] = {} if k is None else \
                {k: self.algebra.field.one}
        return got

    def _extend(self, n):
        """Build AP_n, P^n and d^n from AP_{n-1}, then certify them."""
        quiver, field = self.algebra.presentation.quiver, self.algebra.field
        prev = self.chains[n - 1]
        pos = {w.arrows: k for k, (w, _) in enumerate(prev)}
        chains = []
        for w, pl in prev:
            word = w.arrows
            found = [word[:p] + r for p in range(pl, len(word))
                     for r in self._prefixes.get(word[p:], ())]
            chains += [(quiver.path(*c), len(word)) for c in found
                       if not any(len(o) < len(c) and c[:len(o)] == o
                                  for o in found)]
        chains.sort(key=lambda t: t[0].sort_key())
        terms = []
        for w, pl in chains:
            word, s, t = w.arrows, w.source, w.target
            if n % 2:
                j = next(j for j in range(1, len(word)) if word[j:] in pos)
                gen = [(pos[word[:pl]], self._elem(s), self._elem(word[pl:]),
                        field.one),
                       (pos[word[j:]], self._elem(word[:j]), self._elem(t),
                        field.of(-1))]
            else:
                gen = [(pos[word[i:j]], self._elem(word[:i] or s),
                        self._elem(word[j:] or t), field.one)
                       for i in range(len(word))
                       for j in range(i + 1, len(word) + 1)
                       if word[i:j] in pos]
            terms.append([g for g in gen if g[1] and g[2]])
        self.chains[n], self.terms[n] = chains, terms
        self.summands[n] = [(w.source, w.target) for w, _ in chains]
        self.certify(start=n)


def build_partial_resolution(algebra):
    """Bardzell's resolution of a monomial algebra through P^3, certified
    exact at P^0, P^1 and P^2 (`PartialResolution.certify`); `reach`
    extends it."""
    res = BardzellResolution(algebra)
    res.reach(2)
    return res


def _memo_product(A):
    """A.multiply_coords, kept per pair of factors by identity: the
    factors of the terms are dicts shared among them, alive while the
    caller reads them, and each product is a fresh dict, kept too."""
    memo = {}

    def times(a, b):
        key = (id(a), id(b))
        got = memo.get(key)
        if got is None:
            got = memo[key] = A.multiply_coords(a, b)
        return got

    return times


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
    times = _memo_product(A)
    basis = [{m: field.one} for m in range(A.dim)]
    cols = {}
    for col_idx, (y_idx, m) in enumerate(src):
        col = {}
        for x_idx, u, v, coeff in by_target.get(y_idx, ()):
            val = times(times(u, basis[m]), v)
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
    """hh^n(A) on Bardzell's resolution, extended through P^{n+1}: the
    one kept on the algebra, which `hh`'s dims share, unless one is
    passed.  Its representatives are built; one space per degree, kept
    on the resolution."""
    if n < 0:
        raise ValueError(f"negative degree {n}")
    res = resolution if resolution is not None else \
        _partial_resolution(algebra)
    space = res._spaces.get(n)
    if space is None:
        res.reach(n)
        space = res._spaces[n] = CohomologySpace(res, n)
        space.vectors()
    return space


class KoszulResolution(PartialResolution):
    """Priddy's complex A (x)_E K_n (x)_E A of a presented algebra whose
    relations are all quadratic, built one degree at a time by `reach`.

    V is the arrow span, R = ker(V (x)_E V -> A) the span of the
    relations, K_0 = E, K_1 = V and K_n = (K_{n-1} (x) V) n (V^{n-2} (x)
    R), so K_n is the kernel of K_{n-1} (x) V -> V^{n-2} (x) A, x (x) a
    -> (all but the last two arrows) (x) their product in A.  It is
    taken block by Peirce block, each basis vector a combination of
    pairs (g, a), g a basis vector of K_{n-1}, and kept as a vector on
    the paths of length n, a path coded in base |Q_1| over the arrow
    order, first arrow most significant.  Its differential is

        d_n(1 (x) x (x) 1) = sum_a a (x) x_a (x) 1
                             + (-1)^n sum_(g, a) c_(g,a) 1 (x) g (x) a,

    with x = sum_a a x_a split after its first arrow, each x_a read in
    the basis of K_{n-1}.  It is a complex for every quadratic
    algebra, and a resolution where the algebra is Koszul; `certify`
    decides it degree by degree.
    """

    backend = "koszul"

    def __init__(self, algebra):
        A = algebra
        quiver = A.presentation.quiver
        paths = sorted((quiver.arrow_path(a.name) for a in quiver.arrows),
                       key=lambda p: p.sort_key())
        index = A._arrow_indices()
        vertices = sorted(quiver.vertices)
        self._idem = {v: {k: A.field.one} for v, k in A.idempotents}
        self._arrows = [({index[p.arrows[0]]: A.field.one}, p.source,
                         p.target) for p in paths]
        self._paths = {1: [{k: A.field.one} for k in range(len(paths))]}
        pos = {v: k for k, v in enumerate(vertices)}
        super().__init__(A, None, {
            0: [(v, v) for v in vertices],
            1: [(s, t) for _, s, t in self._arrows]}, {
            0: [[] for _ in vertices],
            1: [[(pos[t], a, self._idem[t], A.field.one),
                 (pos[s], self._idem[s], a, A.field.of(-1))]
                for a, s, t in self._arrows]})
        self._certify_top(1)

    def _certify_top(self, n):
        try:
            self.certify(start=n)
        except NotExact:
            self.stuck = True

    def _extend(self, n):
        """Build K_n, P^n and d^n from K_{n-1}, then certify them."""
        A = self.algebra
        field = A.field
        arrows, width = self._arrows, len(self._arrows)
        prev = self._paths[n - 1]
        from_vertex = {}
        for a, (_, s, _) in enumerate(arrows):
            from_vertex.setdefault(s, []).append(a)
        pairs = {}  # block (s, t) -> [(g, a)]
        for g, (s, u) in enumerate(self.summands[n - 1]):
            for a in from_vertex.get(u, ()):
                pairs.setdefault((s, arrows[a][2]), []).append((g, a))
        times = _memo_product(A)
        split = SubspaceCoords(field, prev)
        weight = width ** (n - 1)  # of a path's first arrow in its code
        sign = field.of(-1 if n % 2 else 1)
        summands, terms, paths = [], [], []
        for (s, t), block in sorted(pairs.items()):
            cols = {}
            for j, (g, a) in enumerate(block):
                col = {}
                for code, c in prev[g].items():
                    head, last = divmod(code, width)
                    axpy(field, col, c, {
                        head * A.dim + k: w for k, w in
                        times(arrows[last][0], arrows[a][0]).items()})
                if col:
                    cols[j] = col
            for x in kernel_basis_sparse(
                    Mat(weight // width * A.dim, len(block), field, cols)):
                path, firsts, gen, lasts = {}, {}, [], []
                for j, c in x.items():
                    g, a = block[j]
                    axpy(field, path, c, {code * width + a: w
                                          for code, w in prev[g].items()})
                    lasts.append((g, self._idem[s], arrows[a][0],
                                  field.mul(sign, c)))
                for code, c in path.items():
                    first, rest = divmod(code, weight)
                    firsts.setdefault(first, {})[rest] = c
                for first, rest in sorted(firsts.items()):
                    found = split.find(rest)
                    if found is None:
                        raise AssertionError(
                            f"K_{n} does not lie in V (x) K_{n - 1}")
                    gen += [(g, arrows[first][0], self._idem[t], c)
                            for g, c in found.items()]
                summands.append((s, t))
                terms.append(gen + lasts)
                paths.append(path)
        self.summands[n], self.terms[n], self._paths[n] = \
            summands, terms, paths
        self._certify_top(n)


def _koszul_resolution(algebra):
    """The KoszulResolution of algebra, built once per algebra."""
    res = getattr(algebra, "_koszul_resolution", None)
    if res is None:
        res = algebra._koszul_resolution = KoszulResolution(algebra)
    return res


def resolution_route(algebra, module, n):
    """None unless module is the regular bimodule of a presented algebra
    with J^2 != 0 (else the normalized complex is no bigger); else a
    function giving the resolution that answers the dim of hh^n: the
    Koszul one for quadratic relations, if exact through P^n, Bardzell's
    for monomial ones, None for others."""
    pres = algebra.presentation
    if pres is None or algebra.nilpotency <= 2 \
            or module is not getattr(algebra, "_regular_bimodule", None):
        return None
    quadratic = all(len(p) == 2 for r in pres.relations for p in r.terms)

    def resolution():
        try:
            res = _koszul_resolution(algebra) if quadratic else \
                _partial_resolution(algebra)
        except NotMonomial:
            return None
        return res if res.reach(n) else None

    return resolution
