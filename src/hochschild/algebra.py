"""Finite-dimensional algebras from bound-quiver presentations.

`build_algebra` reads kQ/I off the reduced Gröbner basis of I for a
length-first path order: the basis is the normal words (the paths with no
tip inside), and structure constants are the normal forms of products of
basis paths, which for monomial relations are the concatenation or zero.
The nilpotency bound certifies that I is admissible; input that is not is
refused with AdmissibilityError.  A presented algebra's associativity is
checked with the idempotents and arrows as middle factors only (Light's
test), after certifying that they generate.

Abstract algebras (split extensions, trivial extensions by arbitrary
bimodules) are first-class: anything with structure constants and a
complete list of orthogonal idempotents feeds the cohomology engine.
"""

import heapq

from .linalg import (
    Mat, Sweep, axpy, echelon_basis, kernel_basis_sparse, scale,
)
from .quiver import Path


class AdmissibilityError(ValueError):
    pass


DEFAULT_CAP = 30


class AlgElement:
    """An element of an Algebra in basis coordinates (sparse dict)."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = {k: v for k, v in coords.items() if v}

    def __add__(self, other):
        self._check(other)
        out = dict(self.coords)
        axpy(self.algebra.field, out, self.algebra.field.one, other.coords)
        return AlgElement(self.algebra, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coords)
        axpy(self.algebra.field, out, self.algebra.field.of(-1), other.coords)
        return AlgElement(self.algebra, out)

    def __mul__(self, other):
        self._check(other)
        return AlgElement(self.algebra,
                          self.algebra.multiply_coords(self.coords, other.coords))

    def scaled(self, c):
        return AlgElement(self.algebra,
                          scale(self.algebra.field, self.coords, self.algebra.field.of(c)))

    def is_zero(self):
        return not self.coords

    def dense(self):
        f = self.algebra.field
        out = [f.zero] * self.algebra.dim
        for k, v in self.coords.items():
            out[k] = v
        return tuple(out)

    def _check(self, other):
        if other.algebra is not self.algebra:
            raise ValueError("elements of different algebras")

    def __eq__(self, other):
        return isinstance(other, AlgElement) and other.algebra is self.algebra \
            and other.coords == self.coords

    def __repr__(self):
        alg = self.algebra
        bits = [f"{alg.field.to_str(v)}*{alg.labels[k]}"
                for k, v in sorted(self.coords.items())]
        return "AlgElement(" + (" + ".join(bits) or "0") + ")"


class Algebra:
    """Finite-dimensional associative algebra by structure constants.

    idempotents: list of (name, basis_index) for a complete set of
    orthogonal idempotents whose sum is the unit.  peirce[i] is the
    (source, target) idempotent pair of basis vector i when the basis is
    Peirce-homogeneous (always the case for everything built here).
    """

    def __init__(self, field, labels, structure, idempotents, peirce,
                 presentation=None, basis_paths=None, nilpotency=None,
                 check=True):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.structure = structure  # (i, j) -> {k: scalar}
        self.idempotents = list(idempotents)
        self.peirce = list(peirce)
        self.presentation = presentation
        self.basis_paths = basis_paths
        self.nilpotency = nilpotency
        self._tables = None  # (left, right) columns, built together
        idem = set(idx for _, idx in self.idempotents)
        self.radical_indices = [i for i in range(self.dim) if i not in idem]
        if check:
            self._check_axioms()

    # -- construction helpers ------------------------------------------------

    def unit_coords(self):
        return {idx: self.field.one for _, idx in self.idempotents}

    def unit(self):
        return AlgElement(self, self.unit_coords())

    def element(self, coords):
        if isinstance(coords, dict):
            return AlgElement(self, {k: self.field.of(v) for k, v in coords.items()})
        if len(coords) != self.dim:
            raise ValueError("coordinate vector has wrong length")
        return AlgElement(self, {i: self.field.of(v)
                                 for i, v in enumerate(coords) if self.field.of(v)})

    def basis_element(self, i):
        return AlgElement(self, {i: self.field.one})

    def idempotent(self, name):
        for n, idx in self.idempotents:
            if n == name:
                return AlgElement(self, {idx: self.field.one})
        raise ValueError(f"no idempotent named {name!r}")

    def multiply_coords(self, a, b):
        out = {}
        structure = self.structure
        field = self.field
        for i, ci in a.items():
            for j, cj in b.items():
                prod = structure.get((i, j))
                if prod:
                    axpy(field, out, field.mul(ci, cj), prod)
        return out

    def _mult_tables(self):
        """Sparse columns of left and right multiplication by every basis
        vector, from one pass over the nonzero structure constants in key
        order, so each table's columns come in increasing index order."""
        if self._tables is None:
            left = {i: {} for i in range(self.dim)}
            right = {i: {} for i in range(self.dim)}
            structure = self.structure
            for i, j in sorted(k for k, p in structure.items() if p):
                left[i][j] = dict(structure[(i, j)])
                right[j][i] = dict(structure[(i, j)])
            self._tables = left, right
        return self._tables

    def left_mult(self, i):
        """Sparse columns of left multiplication by basis vector i."""
        return self._mult_tables()[0][i]

    def right_mult(self, i):
        """Sparse columns of right multiplication by basis vector i."""
        return self._mult_tables()[1][i]

    def element_from_path(self, path):
        """Image of a quiver path in the algebra (needs provenance)."""
        if self.presentation is None:
            raise ValueError("algebra has no presentation")
        if path.is_trivial:
            return self.idempotent(path.source)
        out = self.idempotent(path.source)
        arrow_index = self._arrow_indices()
        for name in path.arrows:
            idx = arrow_index.get(name)
            if idx is None:
                raise ValueError(f"arrow {name!r} is not a basis element")
            out = out * self.basis_element(idx)
        return out

    def _arrow_indices(self):
        idx = getattr(self, "_arrow_idx", None)
        if idx is None:
            idx = {}
            for i, p in enumerate(self.basis_paths or []):
                if len(p) == 1:
                    idx[p.arrows[0]] = i
            self._arrow_idx = idx
        return idx

    # -- checks ----------------------------------------------------------------

    def _check_axioms(self):
        field = self.field
        # idempotents orthogonal, unit acts as identity
        for n1, i1 in self.idempotents:
            for n2, i2 in self.idempotents:
                prod = self.structure.get((i1, i2), {})
                want = {i1: field.one} if i1 == i2 else {}
                if prod != want:
                    raise ValueError(f"idempotents {n1!r},{n2!r} not orthogonal")
        # the unit is the sum of the idempotents, so 1.b_j and b_j.1 are
        # sums of structure constants, gathered in the one pass over the
        # nonzero products that also indexes them for associativity
        structure = self.structure
        idem = [idx for _, idx in self.idempotents]
        is_idem = set(idem)
        by_left = {}   # i -> [(j, b_i b_j)], nonzero products
        by_right = {}  # j -> [(i, b_i b_j)]
        unit_left = {}   # j -> the nonzero e b_j
        unit_right = {}  # i -> the nonzero b_i e
        for (i, j), prod in structure.items():
            if prod:
                by_left.setdefault(i, []).append((j, prod))
                by_right.setdefault(j, []).append((i, prod))
                if i in is_idem:
                    unit_left.setdefault(j, []).append(prod)
                if j in is_idem:
                    unit_right.setdefault(i, []).append(prod)

        def unit_times(prods):
            if len(prods) == 1:
                return prods[0]
            out = {}
            for p in prods:
                axpy(field, out, field.one, p)
            return out

        for j in range(self.dim):
            b = {j: field.one}
            if unit_times(unit_left.get(j, ())) != b or \
               unit_times(unit_right.get(j, ())) != b:
                raise ValueError("unit is not a two-sided identity")
        # associativity: (b_i b_j) b_k = b_i (b_j b_k).  The middle factors
        # s with (x s) y = x (s y) for all x, y form a subalgebra (Light's
        # test), so when the idempotents and arrows generate, they suffice
        # as middle factors; an algebra with no basis paths keeps them all.
        # Both bracketings vanish unless b_i b_j or b_j b_k is nonzero, so
        # per middle factor j only the nonzero products through j are
        # expanded
        middles = range(self.dim)
        if self.basis_paths is not None:
            self._check_generation()
            middles = sorted(is_idem | set(self._arrow_indices().values()))
        for j in middles:
            left = {}   # (i, k) -> (b_i b_j) b_k
            for i, ij in by_right.get(j, ()):
                for m, c in ij.items():
                    for k, mk in by_left.get(m, ()):
                        axpy(field, left.setdefault((i, k), {}), c, mk)
            right = {}  # (i, k) -> b_i (b_j b_k)
            for k, jk in by_left.get(j, ()):
                for m, c in jk.items():
                    for i, im in by_right.get(m, ()):
                        axpy(field, right.setdefault((i, k), {}), c, im)
            for i, k in sorted(left.keys() | right.keys()):
                if left.get((i, k), {}) != right.get((i, k), {}):
                    raise ValueError(
                        f"associativity fails on basis triple {(i, j, k)}")
        # Peirce tags: e_x b e_y = b exactly when e_x b = b = b e_y, since
        # the idempotents are orthogonal and the product associative
        named = dict(self.idempotents)
        for i, tag in enumerate(self.peirce):
            if tag is None:
                continue
            x, y = tag
            for v in tag:
                if v not in named:
                    raise ValueError(f"no idempotent named {v!r}")
            b = {i: field.one}
            if structure.get((named[x], i)) != b or \
               structure.get((i, named[y])) != b:
                raise ValueError(f"bad Peirce tag for basis vector {i}")

    def _check_generation(self):
        """Raise unless every basis path of length >= 2 is its first arrow
        times the rest, so that the idempotents and arrows generate."""
        if len(self.basis_paths) != self.dim:
            raise ValueError("one basis path per basis vector is needed")
        index = {p.arrows: k for k, p in enumerate(self.basis_paths)
                 if p.arrows}
        for k, p in enumerate(self.basis_paths):
            if len(p) < 2:
                continue
            pair = (index.get(p.arrows[:1]), index.get(p.arrows[1:]))
            if self.structure.get(pair) != {k: self.field.one}:
                raise ValueError(f"basis vector {k} is not its first arrow "
                                 "times the rest")

    def is_peirce_graded(self):
        return all(t is not None for t in self.peirce)

    def radical_complement_closed(self):
        """No product of two non-idempotent basis vectors hits an idempotent."""
        idem = {idx for _, idx in self.idempotents}
        for i in self.radical_indices:
            for j in self.radical_indices:
                prod = self.structure.get((i, j))
                if prod and any(k in idem for k in prod):
                    return False
        return True

    def __repr__(self):
        return f"Algebra(dim={self.dim} over {self.field!r})"


# ---------------------------------------------------------------------------
# bound quiver -> algebra


def _word_key(quiver, order):
    """Sort key of arrow words in the path order `build_algebra` uses:
    length first, then the arrow names as `Path.sort_key` compares them
    ("lex") or the reverse of that ("revlex").  Both are admissible
    orders: a product of words keeps the order of its factors."""
    if order not in ("lex", "revlex"):
        raise ValueError(order)
    sign = 1 if order == "lex" else -1
    rank = {name: sign * k
            for k, name in enumerate(sorted(quiver.arrow_by_name))}
    return lambda word: (len(word), [rank[a] for a in word])


def _contains(word, sub):
    n = len(sub)
    return any(word[s:s + n] == sub for s in range(len(word) - n + 1))


class _GroebnerBasis:
    """The reduced Gröbner basis of the two-sided ideal of kQ that the
    polynomials {arrow word: scalar} generate, for the order of `key`.

    `tails[tip]` is the normal form of the tip, so the basis element is
    tip - tail: monic, no tip inside another tip, every tail normal.
    Polynomials that are all monomials are their own basis once the words
    containing another are dropped, with no linear algebra.  Otherwise
    Buchberger's completion runs on the overlaps of tips, shortest overlap
    first from a heap, skipping overlaps of two monomials (Green,
    *Noncommutative Gröbner bases, and projective resolutions*, 1999); a
    tip longer than cap ends it with AdmissibilityError.
    """

    def __init__(self, field, key, polys, cap):
        self.field, self.key = field, key
        self.tails = {}
        self.lengths = []  # the tip lengths, ascending
        if all(len(p) == 1 for p in polys):
            for (word,) in sorted(polys, key=lambda p: len(next(iter(p)))):
                if self.find(word) is None:
                    self._adopt(word, {})
        else:
            self._complete(polys, cap)
        self.monomial = not any(self.tails.values())
        self.homogeneous = all(len(w) == len(tip)
                               for tip, tail in self.tails.items()
                               for w in tail)

    def _adopt(self, tip, tail):
        self.tails[tip] = tail
        if len(tip) not in self.lengths:
            self.lengths = sorted(self.lengths + [len(tip)])

    def find(self, word):
        """(start, tip) of the leftmost tip inside word, or None."""
        tails, size = self.tails, len(word)
        for s in range(size):
            for n in self.lengths:
                if s + n > size:
                    break
                if word[s:s + n] in tails:
                    return s, word[s:s + n]
        return None

    def ends_in_tip(self, word):
        tails = self.tails
        return any(word[-n:] in tails for n in self.lengths if n <= len(word))

    def reduce(self, poly):
        """The normal form of {word: scalar}, terms in decreasing order."""
        field, tails = self.field, self.tails
        poly = dict(poly)
        out = {}
        while poly:
            word = max(poly, key=self.key)
            c = poly.pop(word)
            hit = self.find(word)
            if hit is None:
                out[word] = c
                continue
            s, tip = hit
            u, v = word[:s], word[s + len(tip):]
            axpy(field, poly, c, {u + w + v: d for w, d in tails[tip].items()})
        return out

    def _complete(self, polys, cap):
        field, tails = self.field, self.tails
        # smallest tip first, from the end of the list
        pending = sorted(polys, key=lambda p: max(map(self.key, p)),
                         reverse=True)
        pairs = []  # heap of (overlap length, tip, tip, shared length)
        while pending or pairs:
            if not pending:
                _, a, b, k = heapq.heappop(pairs)
                if a in tails and b in tails:
                    # (a - tail_a) v - u (b - tail_b) with a v = u b
                    u, v = a[:len(a) - k], b[k:]
                    s = {u + w: d for w, d in tails[b].items()}
                    axpy(field, s, field.of(-1),
                         {w + v: d for w, d in tails[a].items()})
                    pending.append(s)
                continue
            poly = self.reduce(pending.pop())
            if not poly:
                continue
            tip = next(iter(poly))
            if len(tip) > cap:
                raise AdmissibilityError(
                    f"Gröbner completion met a tip longer than {cap}: "
                    "either the ideal is not admissible or the cap is too "
                    "small")
            scale_by = field.neg(field.inv(poly.pop(tip)))
            # tips that contain the new one leave, and come back reduced
            for old in [t for t in tails if _contains(t, tip)]:
                back = {old: field.one}
                axpy(field, back, field.of(-1), tails.pop(old))
                pending.append(back)
            self.lengths = sorted({len(t) for t in tails})
            self._adopt(tip, scale(field, poly, scale_by))
            for old, tail in tails.items():
                if old != tip and any(_contains(w, tip) for w in tail):
                    tails[old] = self.reduce(tail)
            for old in tails:
                if not tails[tip] and not tails[old]:
                    continue  # two monomials: their overlap reduces to zero
                for a, b in dict.fromkeys([(tip, old), (old, tip)]):
                    for k in range(1, min(len(a), len(b))):
                        if a[len(a) - k:] == b[:k]:
                            heapq.heappush(pairs,
                                           (len(a) + len(b) - k, a, b, k))


def _words(presentation):
    """The relations as {arrow word: scalar}."""
    return [{p.arrows: c for p, c in r.terms.items()}
            for r in presentation.relations]


def build_algebra(presentation, cap=DEFAULT_CAP, order="lex"):
    """Concrete algebra for a bound-quiver presentation kQ/I.

    The basis is the normal words of the reduced Gröbner basis of I in
    the path order of `order` (see `_word_key`), grown arrow by arrow from
    the vertices: a word is dropped as soon as a tip is its suffix.  A
    product of basis paths is their concatenation, looked up among the
    basis words, and reduced only when it is not normal; for monomial
    relations that reduction is zero, with no linear algebra.

    The nilpotency is the least L >= 2 at which every path of length L
    reduces to zero.  With homogeneous relations that is one more than the
    longest basis word; otherwise the powers of the arrow span are swept
    until they vanish, which can take longer.  kQ/I must be admissible:
    AdmissibilityError is raised when no L <= cap certifies it.  So the
    loop x with relation x*x - x*x*x, whose kQ/I = k[x]/(x^2 - x^3) is
    k[x]/(x^2) x k, is refused rather than read in the completed path
    algebra, where 1 - x is a unit and the quotient is k[x]/(x^2).
    """
    for r in presentation.relations:
        if not r.is_relation_form():
            raise ValueError("relations must lie in the square of the arrow ideal")
    quiver, field = presentation.quiver, presentation.field
    one = field.one
    gb = _GroebnerBasis(field, _word_key(quiver, order), _words(presentation),
                        cap)
    refused = AdmissibilityError(
        f"no nilpotency bound found with L <= {cap}: "
        "either the ideal is not admissible or the cap is too small")

    basis = [quiver.trivial_path(v) for v in sorted(quiver.vertices)]
    layer = basis
    while layer:
        grown = sorted((p.arrows + (a.name,), p.source, a.target)
                       for p in layer for a in quiver.arrows_from(p.target)
                       if not gb.ends_in_tip(p.arrows + (a.name,)))
        if grown and len(grown[0][0]) >= cap:
            raise refused
        layer = [Path(s, t, word) for word, s, t in grown]
        basis.extend(layer)
    index = {p.arrows: k for k, p in enumerate(basis) if p.arrows}

    by_source = {}
    for j, p in enumerate(basis):
        by_source.setdefault(p.source, []).append((j, p.arrows))
    forms = {}  # non-normal product word -> its coordinates
    structure = {}
    for i, p1 in enumerate(basis):
        w1 = p1.arrows
        for j, w2 in by_source[p1.target]:
            if not w1 or not w2:
                structure[(i, j)] = {j if not w1 else i: one}
                continue
            w = w1 + w2
            k = index.get(w)
            if k is not None:
                structure[(i, j)] = {k: one}
            elif not gb.monomial:
                got = forms.get(w)
                if got is None:
                    # coordinates in increasing path order
                    got = forms[w] = {index[x]: c for x, c in
                                      reversed(gb.reduce({w: one}).items())}
                if got:
                    structure[(i, j)] = got

    idempotents = [(p.source, k) for k, p in enumerate(basis) if not p.arrows]
    peirce = [(p.source, p.target) for p in basis]
    labels = [p.label() for p in basis]
    algebra = Algebra(field, labels, structure, idempotents, peirce,
                      presentation=presentation, basis_paths=basis,
                      nilpotency=max(2, len(basis[-1]) + 1))
    if not gb.homogeneous:
        # the products of L arrows span the L-th power of the arrow ideal;
        # sweep the powers until one vanishes
        arrows = [{index[(a.name,)]: one} for a in quiver.arrows]
        level, nilpotency = arrows, 1
        while level:
            nilpotency += 1
            if nilpotency > cap:
                raise refused
            level = echelon_basis([algebra.multiply_coords(v, a)
                                   for v in level for a in arrows], field)
        algebra.nilpotency = nilpotency
    return algebra


def multiply(a, b):
    """Bilinear product of two AlgElements of the same algebra."""
    return a * b


def center_basis(algebra):
    """Basis of the centre {z : zb = bz for all basis b}; this is hh^0."""
    field = algebra.field
    dim = algebra.dim
    # unknown z = sum z_i b_i; one equation block per basis b_j
    data = {}
    for i in range(dim):
        col = {}
        for j in range(dim):
            diff = dict(algebra.structure.get((i, j), {}))
            axpy(field, diff, field.of(-1), algebra.structure.get((j, i), {}))
            for r, v in diff.items():
                col[j * dim + r] = v
        if col:
            data[i] = col
    m = Mat(dim * dim, dim, field, data)
    return [algebra.element(vec) for vec in kernel_basis_sparse(m)]


def is_triangular(algebra):
    """True iff the provenance quiver is acyclic."""
    if algebra.presentation is None:
        raise ValueError("algebra has no presentation")
    return algebra.presentation.quiver.is_acyclic()


def _presentation(source):
    """source itself, or the presentation the algebra source was built
    from."""
    if not isinstance(source, Algebra):
        return source
    if source.presentation is None:
        raise ValueError("algebra has no presentation")
    return source.presentation


def system_of_relations(source, cap=DEFAULT_CAP):
    """Deterministic minimal generating set of the relation ideal.

    source is a presentation, or an algebra built from one (which spares
    building it again; cap is then unused).  Lifts a basis of
    I/(J*I + I*J), J the arrow ideal, preferring the input relations as
    lifts while they stay independent; works per (source, target) graded
    piece in vertex order.  The input relations span that quotient, so the
    lifts are the relations independent of the ones before them modulo
    J*I + I*J, read from normal forms modulo its reduced Gröbner basis.
    For monomial relations no such basis is needed: the lifts are the
    relations containing no other relation as a proper subword (the tips
    of the basis of I), each kept at its first occurrence.
    """
    presentation = _presentation(source)
    algebra = source if isinstance(source, Algebra) else \
        build_algebra(source, cap=cap)
    quiver, field = presentation.quiver, presentation.field
    key = _word_key(quiver, "lex")
    rels = _words(presentation)
    pieces = sorted({r.endpoints() for r in presentation.relations})
    chosen = []
    if all(len(poly) == 1 for poly in rels):
        # J*I + I*J is spanned by the paths with a relation as a proper
        # subword, so a relation lies outside it exactly when its word is
        # a tip of the basis of I; a repeated word is dependent
        tips = set(_GroebnerBasis(field, key, rels, cap).tails)
        for piece in pieces:
            for rel, (word,) in zip(presentation.relations, rels):
                if rel.endpoints() == piece and word in tips:
                    tips.remove(word)
                    chosen.append(rel)
        return chosen
    # J*I + I*J is generated by a*r and r*a, a an arrow and r a relation
    padded = []
    for rel, poly in zip(presentation.relations, rels):
        src, tgt = rel.endpoints()
        for a in quiver.arrows:
            if a.target == src:
                padded.append({(a.name,) + w: c for w, c in poly.items()})
            if a.source == tgt:
                padded.append({w + (a.name,): c for w, c in poly.items()})
    # it contains every path longer than the nilpotency bound, so its
    # reduced basis has tips at most one longer; the completion gets room
    # for padded relations longer than that
    longest = max((len(w) for poly in padded for w in poly), default=0)
    gb = _GroebnerBasis(field, key, padded, algebra.nilpotency + longest)
    for piece in pieces:
        sweep = Sweep(field)
        for rel, poly in zip(presentation.relations, rels):
            if rel.endpoints() == piece and \
               sweep.insert(gb.reduce(poly)) is not None:
                chosen.append(rel)
    return chosen


def algebra_morphism(source, target, arrow_images):
    """Matrix of the algebra morphism sending each arrow to a given element.

    source must carry a presentation; arrow_images maps arrow names to
    AlgElements of target; idempotents go to same-named idempotents.
    Raises when a defining relation is not sent to zero.
    """
    if source.presentation is None:
        raise ValueError("source algebra has no presentation")
    field = source.field
    images = []
    for p in source.basis_paths:
        if p.is_trivial:
            images.append(target.idempotent(p.source))
        else:
            img = target.idempotent(p.source)
            for name in p.arrows:
                img = img * arrow_images[name]
            images.append(img)
    # relations must die
    for rel in source.presentation.relations:
        acc = AlgElement(target, {})
        for term, c in rel.terms.items():
            img = target.idempotent(term.source)
            for name in term.arrows:
                img = img * arrow_images[name]
            acc = acc + img.scaled(c)
        if not acc.is_zero():
            raise ValueError(f"relation {rel.label()} is not sent to zero")
    entries = {}
    for j, img in enumerate(images):
        for r, v in img.coords.items():
            entries[(r, j)] = v
    m = Mat.from_entries(target.dim, source.dim, field, entries)
    # multiplicativity on all basis pairs (catches non-basis-path subtleties)
    _check_multiplicative(m, source, target)
    return m


def _check_multiplicative(m, src, tgt):
    """Raise unless the matrix m: src -> tgt sends every product of two
    basis vectors to the product of their images."""
    for a in range(src.dim):
        ma = m.column(a)
        for b in range(src.dim):
            lhs = m.matvec(src.structure.get((a, b), {}))
            rhs = tgt.multiply_coords(ma, m.column(b))
            if lhs != rhs:
                raise ValueError("map is not an algebra morphism")
