"""Finite-dimensional algebras from bound-quiver presentations.

`build_algebra` works in the truncated path space: for growing L it spans
the ideal by all truncated products u*r*v and stops at the least L for
which every path of length L falls into that span.  The quotient basis is
the set of paths not leading any ideal element, which for all the worked
examples is a monomial basis.  Structure constants come from reducing
products of basis paths.

Abstract algebras (split extensions, trivial extensions by arbitrary
bimodules) are first-class: anything with structure constants and a
complete list of orthogonal idempotents feeds the cohomology engine.
"""

from .linalg import (
    Mat, Sweep, axpy, echelon_basis, kernel_basis_sparse, reduce_mod, scale,
)
from .quiver import Path, PathSum, compose, paths_up_to


class AdmissibilityError(ValueError):
    pass


DEFAULT_CAP = 30
_PATH_GUARD = 500_000  # truncated path space growing past this is hopeless


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
        self._left = {}
        self._right = {}
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

    def left_mult(self, i):
        """Sparse columns of left multiplication by basis vector i."""
        m = self._left.get(i)
        if m is None:
            m = {j: dict(self.structure.get((i, j), {})) for j in range(self.dim)
                 if self.structure.get((i, j))}
            self._left[i] = m
        return m

    def right_mult(self, i):
        m = self._right.get(i)
        if m is None:
            m = {j: dict(self.structure.get((j, i), {})) for j in range(self.dim)
                 if self.structure.get((j, i))}
            self._right[i] = m
        return m

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
        # sums of structure constants
        structure = self.structure
        idem = [idx for _, idx in self.idempotents]

        def unit_times(prods):
            prods = [p for p in prods if p]
            if len(prods) == 1:
                return prods[0]
            out = {}
            for p in prods:
                axpy(field, out, field.one, p)
            return out

        for j in range(self.dim):
            b = {j: field.one}
            if unit_times(structure.get((e, j)) for e in idem) != b or \
               unit_times(structure.get((j, e)) for e in idem) != b:
                raise ValueError("unit is not a two-sided identity")
        # associativity on all basis triples: (b_i b_j) b_k and b_i (b_j b_k)
        # both vanish unless b_i b_j or b_j b_k is nonzero, so per middle
        # factor j only the nonzero products through j are expanded
        by_left = {}   # i -> [(j, b_i b_j)], nonzero products
        by_right = {}  # j -> [(i, b_i b_j)]
        for (i, j), prod in self.structure.items():
            if prod:
                by_left.setdefault(i, []).append((j, prod))
                by_right.setdefault(j, []).append((i, prod))
        for j in range(self.dim):
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


class _TruncatedIdeal:
    """Echelon span of the relation ideal inside paths of length <= L."""

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
        self.index = {p: i for i, p in enumerate(ordered)}
        # elimination coordinate: reverse of the path order, so pivots land on
        # the latest paths and the earliest surviving paths form the basis
        n = len(ordered)
        self.coord = {p: n - 1 - i for p, i in self.index.items()}
        self.from_coord = {c: p for p, c in self.coord.items()}
        self.gen_vectors = []          # plain ideal generators u*r*v
        self.gen_meta = []             # (len(u) + len(v), (source, target))
        self._build_generators(presentation)
        self.echelon = echelon_basis(self.gen_vectors, self.field)
        self.pivot_paths = {self.from_coord[min(row)] for row in self.echelon}

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
                        self.gen_meta.append((len(u) + len(v), (u.source, v.target)))

    def path_sum_vector(self, ps):
        vec = {}
        for p, c in ps.terms.items():
            if len(p) > self.L:
                continue
            cur = vec.get(self.coord[p])
            c2 = self.field.add(cur, c) if cur is not None else c
            if c2:
                vec[self.coord[p]] = c2
            elif self.coord[p] in vec:
                del vec[self.coord[p]]
        return vec

    def reduce_path_sum(self, ps):
        """Normal form of a path sum as a PathSum on surviving paths."""
        vec = reduce_mod(self.path_sum_vector(ps), self.echelon, self.field)
        return PathSum({self.from_coord[c]: v for c, v in vec.items()}, self.field)

    def contains(self, ps):
        return self.reduce_path_sum(ps).is_zero()

    def all_length_paths_contained(self, length):
        for p in self.paths:
            if len(p) == length:
                if reduce_mod({self.coord[p]: self.field.one},
                              self.echelon, self.field):
                    return False
        return True


def build_algebra(presentation, cap=DEFAULT_CAP, order="lex"):
    """Concrete algebra for a bound-quiver presentation.

    Certifies admissibility by locating the least L <= cap with every
    length-L path inside the truncated ideal span, and records that L as
    the nilpotency bound.
    """
    for r in presentation.relations:
        if not r.is_relation_form():
            raise ValueError("relations must lie in the square of the arrow ideal")
    last = None
    for L in range(2, cap + 1):
        ideal = _TruncatedIdeal(presentation, L, order=order)
        if ideal.all_length_paths_contained(L):
            last = ideal
            break
    if last is None:
        raise AdmissibilityError(
            f"no nilpotency bound found with L <= {cap}: "
            "either the ideal is not admissible or the cap is too small")
    basis = [p for p in last.ordered
             if p not in last.pivot_paths and len(p) < last.L]
    basis.sort(key=Path.sort_key)
    index = {p: i for i, p in enumerate(basis)}
    # sanity: all trivial paths and all arrows survive in an admissible quotient
    for v in presentation.quiver.vertices:
        if presentation.quiver.trivial_path(v) not in index:
            raise AdmissibilityError("a trivial path died; presentation inconsistent")

    field = presentation.field
    structure = {}
    for p1 in basis:
        i = index[p1]
        for p2 in basis:
            w = compose(p1, p2)
            if w is None:
                continue
            j = index[p2]
            if len(w) > last.L:
                # contains a length-L subpath, hence lies in the ideal
                continue
            red = last.reduce_path_sum(PathSum({w: field.one}, field))
            coords = {index[p]: c for p, c in red.terms.items()}
            if coords:
                structure[(i, j)] = coords

    idempotents = [(v, index[presentation.quiver.trivial_path(v)])
                   for v in sorted(presentation.quiver.vertices)]
    peirce = [(p.source, p.target) for p in basis]
    labels = [p.label() for p in basis]
    algebra = Algebra(field, labels, structure, idempotents, peirce,
                      presentation=presentation, basis_paths=basis,
                      nilpotency=last.L)
    # the certified ideal, kept for system_of_relations, which reads it in
    # lex order
    algebra._lex_ideal = last if order == "lex" else None
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


def system_of_relations(source, cap=DEFAULT_CAP):
    """Deterministic minimal generating set of the relation ideal.

    source is a presentation, or an algebra built from one (which spares
    building it again; cap is then unused).  Lifts a basis of
    I/(J*I + I*J), J the arrow ideal, preferring the input relations as
    lifts while they stay independent; works per (source, target) graded
    piece in vertex order.
    """
    if isinstance(source, Algebra):
        algebra, presentation = source, source.presentation
        if presentation is None:
            raise ValueError("algebra has no presentation")
    else:
        algebra, presentation = build_algebra(source, cap=cap), source
    ideal = getattr(algebra, "_lex_ideal", None) or \
        _TruncatedIdeal(presentation, algebra.nilpotency)
    field = presentation.field

    # span of J*I + I*J in the truncated model: padded generators suffice,
    # because the truncation kernel I n (kQ+)^{L+1} already lies in J*I
    top = [v for v, (pad, _) in zip(ideal.gen_vectors, ideal.gen_meta) if pad >= 1]
    top_ech = echelon_basis(top, field)

    # I/(J*I + I*J) is spanned by the classes of the input relations, so a
    # minimal generating set is an independent subset of them, per piece
    pieces = sorted({r.endpoints() for r in presentation.relations})
    chosen = []
    for piece in pieces:
        sweep = Sweep(field)
        for row in top_ech:
            sweep.insert(row)
        for rel in presentation.relations:
            if rel.endpoints() != piece:
                continue
            if sweep.insert(ideal.path_sum_vector(rel)) is not None:
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
    from .linalg import Mat
    entries = {}
    for j, img in enumerate(images):
        for r, v in img.coords.items():
            entries[(r, j)] = v
    m = Mat.from_entries(target.dim, source.dim, field, entries)
    # multiplicativity on all basis pairs (catches non-basis-path subtleties)
    for i in range(source.dim):
        for j in range(source.dim):
            prod = source.structure.get((i, j), {})
            lhs = m.matvec(dict(prod))
            rhs = target.multiply_coords(images[i].coords, images[j].coords)
            if lhs != rhs:
                raise ValueError("arrow images do not define a morphism")
    return m
