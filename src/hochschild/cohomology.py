"""Hochschild cohomology hh^n(A, M) on the idempotent-normalized complex.

Cochains in degree n are linear maps A^{(x)n} -> M stored sparsely in the
tensor-product bases.  The bar formula is written once, in `_bar_column`:
`bar_differential` and `bar_apply` evaluate it on the literal bar
complex, the reference for b o b = 0, inner derivations, the
surjectivity witness (`extension`) and the tests, and every
`NormalizedComplex` restricts it to radical arguments.  `extcohom`
computes E_m = Ext^m_C(DC, C) as a `CohomologySpace` of the
`NormalizedComplex` with coefficients C (x)_k C.

`hh` takes kernel modulo image of one complex per space, in every degree
and on every input: the subcomplex of idempotent-normalized cochains,
maps vanishing whenever an argument is one of the orthogonal
idempotents, supported on composable radical tuples with matching value
blocks.  For a separable span of idempotents that subcomplex is the
S-relative bar complex and its inclusion is a quasi-isomorphism, so
dimensions and classes agree, and its representatives are genuine bar
cocycles.  The algebra must be Peirce-graded with radical products off
the idempotents, or `NormalizedComplex` raises ValueError.  The module
need not be: the complex is assembled on its graded twin
(`bimodule.peirce_regrade`), and its cochains go in and come out in the
module's own basis.

That complex holds the dims, the representatives, `is_cocycle` and the
class coordinates, so `hh` builds no bar matrix in any degree.  A
cochain given in degree 0 or 1 need not be normalized: a cocycle outside
the complex is first moved into it by a coboundary (`_normalize_degree1`,
one sweep of its system per module; in degree 0 every cocycle already
lies in the diagonal blocks), and `bar_apply` tells a non-cocycle.  From
degree 2 on a cochain outside it is refused.

The complex indexes cochains by the flat bar key tensor_index * dim M + m
that `_bar_column` emits, mapped to a row with one dict.  It caches its
differentials and their ranks on the module, so hh^{n+1} reuses the
matrix and the rank hh^n needed.  The column kernel of `_bar_column` is
cached there too, once per degree and argument set, so the many
`bar_apply` calls of a verification run set it up once.  A
`CohomologySpace` is rank-first: dim hh^n = dim C^n - rank d^n -
rank d^{n-1}, from untracked sweeps (`linalg.rank`), with no kernel
basis.  Representatives and class coordinates are built on first use,
from `linalg.quotient_basis` and `linalg.SubspaceCoords`, and from then
on dim is their count; `CohomologySpace.vector_coords` gives the class
of a vector of the complex, `class_coords` that of a cochain.

Everything is deterministic: fixed basis orders and a fixed pivot rule.
"""

import itertools
import random

from .bimodule import peirce_regrade, regular_bimodule
from .linalg import (
    Mat, SubspaceCoords, Sweep, axpy, dense, kernel_basis_sparse,
    quotient_basis, rank, scale,
)

BAR_CAP = 2_000_000          # max (dim A)^(n+1) * dim M


class CapExceeded(ValueError):
    pass


def _check_cap(algebra, module, n, cap):
    quantity = algebra.dim ** (n + 1) * module.dim
    if quantity > cap:
        raise CapExceeded(
            f"bar complex at degree {n} needs {quantity} rows > cap {cap}; "
            "for monomial algebras the minimal-resolution route goes further")


class Cochain:
    """A linear map A^{(x)n} -> M, sparse over the tensor bases.

    data maps a tensor index (mixed-radix over basis indices, first slot
    most significant) to the sparse value vector in M.
    """

    __slots__ = ("algebra", "module", "degree", "data")

    def __init__(self, algebra, module, degree, data=None):
        self.algebra = algebra
        self.module = module
        self.degree = degree
        self.data = data if data is not None else {}

    # -- tensor index helpers -------------------------------------------------

    def encode(self, slots):
        idx = 0
        d = self.algebra.dim
        for s in slots:
            idx = idx * d + s
        return idx

    def decode(self, idx):
        d = self.algebra.dim
        out = []
        for _ in range(self.degree):
            idx, r = divmod(idx, d)
            out.append(r)
        return tuple(reversed(out))

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_values(cls, algebra, module, degree, values):
        """values: mapping tuple-of-basis-indices -> sparse M vector."""
        c = cls(algebra, module, degree)
        for slots, vec in values.items():
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                c.data[c.encode(slots)] = vec
        return c

    def value(self, slots):
        return self.data.get(self.encode(slots), {})

    def vec(self):
        """Flat sparse vector; coordinate = tensor_index * dim M + m."""
        dm = self.module.dim
        out = {}
        for t, col in self.data.items():
            base = t * dm
            for m, v in col.items():
                out[base + m] = v
        return out

    @classmethod
    def from_vec(cls, algebra, module, degree, flat):
        dm = module.dim
        c = cls(algebra, module, degree)
        for k, v in flat.items():
            if v:
                t, m = divmod(k, dm)
                c.data.setdefault(t, {})[m] = v
        return c

    def matrix(self):
        """The (dim M) x (dim A)^n matrix of the map."""
        entries = {}
        for t, col in self.data.items():
            for m, v in col.items():
                entries[(m, t)] = v
        return Mat.from_entries(self.module.dim, self.algebra.dim ** self.degree,
                                self.algebra.field, entries)

    def add(self, other, c=None):
        field = self.algebra.field
        c = field.one if c is None else field.of(c)
        data = {t: dict(col) for t, col in self.data.items()}
        for t, col in other.data.items():
            dst = data.setdefault(t, {})
            axpy(field, dst, c, col)
            if not dst:
                del data[t]
        return Cochain(self.algebra, self.module, self.degree, data)

    def scaled(self, c):
        field = self.algebra.field
        c = field.of(c)
        data = {}
        for t, col in self.data.items():
            sc = scale(field, col, c)
            if sc:
                data[t] = sc
        return Cochain(self.algebra, self.module, self.degree, data)

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        return isinstance(other, Cochain) and self.degree == other.degree \
            and self.algebra is other.algebra and self.module is other.module \
            and self.data == other.data

    def __repr__(self):
        return (f"Cochain(degree={self.degree}, support={len(self.data)} "
                f"tensors over dim {self.algebra.dim})")


def _factorizations(algebra):
    """fact[k] = [(i, j, c)] with c the coefficient of basis k in b_i b_j."""
    fact = getattr(algebra, "_bar_fact", None)
    if fact is None:
        fact = {}
        for (i, j), prod in sorted(algebra.structure.items()):
            for k, c in prod.items():
                fact.setdefault(k, []).append((i, j, c))
        algebra._bar_fact = fact
    return fact


def _bar_column(algebra, module, n, args=None):
    """The column kernel of b^{n+1}, the one place the bar formula lives.

    Returns column(t_idx, slots, m): the sparse image, in flat coordinates
    tensor_index * dim M + m, of the cochain sending the tensor t_idx
    (basis indices slots) to e_m and every other tensor to 0.  With args
    (a list of basis indices) the image is restricted to tensors of
    arguments from args: the normalized and Ext complexes pass the
    radical indices.

    Each kernel is built once per (n, args) and cached on the module, so
    its signed factorization tables and action lists are set up once per
    run, not once per `bar_apply`.
    """
    cache = getattr(module, "_bar_columns", None)
    if cache is None:
        cache = module._bar_columns = {}
    key = (n, None if args is None else tuple(args))
    column = cache.get(key)
    if column is None:
        column = cache[key] = _column_kernel(algebra, module, n, args)
    return column


def _column_kernel(algebra, module, n, args):
    field = algebra.field
    d = algebra.dim
    dm = module.dim
    add, neg, zero = field.add, field.neg, field.zero
    top = d ** n
    # signs: (-1)^{p+1} on the contraction at slot p, (-1)^{n+1} on the
    # right action
    fact = _factorizations(algebra)
    if args is None:
        args = range(d)
    else:
        keep = set(args)
        fact = {k: [(x, y, c) for x, y, c in lst if x in keep and y in keep]
                for k, lst in fact.items()}
    neg_fact = {k: [(x, y, neg(c)) for x, y, c in lst]
                for k, lst in fact.items()}
    contractions = [(d ** (n - 1 - p), neg_fact if p % 2 == 0 else fact)
                    for p in range(n)]
    # per value index m: (key offset, column) of the nonzero actions on e_m
    lefts = [[(c0 * top * dm, col) for c0 in args
              if (col := module.left[c0].column(m))] for m in range(dm)]
    rights = [[(cn * dm, {k: neg(v) for k, v in col.items()}
                if n % 2 == 0 else col) for cn in args
               if (col := module.right[cn].column(m))] for m in range(dm)]

    def column(t_idx, slots, m):
        col = {}
        # c_0 . f(...): distinct keys, written first
        base = t_idx * dm
        for offset, lcol in lefts[m]:
            for m2, v in lcol.items():
                col[offset + base + m2] = v
        # inner contractions: slots[p] -> (x, y)
        for p, (span, signed_fact) in enumerate(contractions):
            high = t_idx // (span * d) * d
            low = t_idx % span
            for (x, y, c) in signed_fact.get(slots[p], ()):
                key = (((high + x) * d + y) * span + low) * dm + m
                w = add(col.get(key, zero), c)
                if w:
                    col[key] = w
                elif key in col:
                    del col[key]
        # f(...) . c_n
        base = t_idx * d * dm
        for offset, rcol in rights[m]:
            for m2, v in rcol.items():
                key = base + offset + m2
                w = add(col.get(key, zero), v)
                if w:
                    col[key] = w
                elif key in col:
                    del col[key]
        return col

    return column


def bar_differential(algebra, module, n, cap=BAR_CAP):
    """Matrix of b^{n+1}: Hom(A^{(x)n}, M) -> Hom(A^{(x)n+1}, M).

    Flat coordinates are tensor_index * dim M + m on both sides.
    """
    _check_cap(algebra, module, n, cap)
    d = algebra.dim
    dm = module.dim
    column = _bar_column(algebra, module, n)
    cols = {}
    for t_idx, slots in enumerate(itertools.product(range(d), repeat=n)):
        for m in range(dm):
            col = column(t_idx, slots, m)
            if col:
                cols[t_idx * dm + m] = col
    return Mat((d ** (n + 1)) * dm, (d ** n) * dm, algebra.field, cols)


def bar_apply(algebra, module, n, f):
    """b^{n+1}(f) for a degree-n cochain f, as a Cochain.

    Builds only the columns of b^{n+1} in f's support, and no matrix, so
    the bar cap does not apply.
    """
    _check_shape(f, algebra, module, n)
    field = algebra.field
    column = _bar_column(algebra, module, n)
    out = {}
    for t_idx, vals in f.data.items():
        slots = f.decode(t_idx)
        for m, c in vals.items():
            axpy(field, out, c, column(t_idx, slots, m))
    return Cochain.from_vec(algebra, module, n + 1, out)


def _subcomplex_differential(algebra, module, n, basis, pos):
    """b^{n+1} on a subcomplex of cochains with radical arguments.

    basis lists the subcomplex's basis in degree n as pairs (chain, m):
    the cochain sending the tensor of the radical indices in chain to
    e_m.  pos maps the flat bar key tensor_index * dim M + m of each
    degree-(n+1) basis pair to its row; a term at a key outside pos
    raises AssertionError.
    """
    tensors = Cochain(algebra, module, n + 1)  # for its index helpers
    column = _bar_column(algebra, module, n, args=algebra.radical_indices)
    row = pos.get
    cols = {}
    for j, (chain, m) in enumerate(basis):
        col = {}
        for key, v in column(tensors.encode(chain), chain, m).items():
            k = row(key)
            if k is None:
                t, m_out = divmod(key, module.dim)
                raise AssertionError(f"differential left the subcomplex at "
                                     f"{tensors.decode(t)}, {m_out}")
            col[k] = v
        if col:
            cols[j] = col
    return Mat(len(pos), len(basis), algebra.field, cols)


# ---------------------------------------------------------------------------
# the complex hh works on


class NormalizedComplex:
    """Cochains vanishing on idempotent arguments, graded by Peirce blocks.

    Basis in degree n: (w_1..w_n, m) with w_i radical basis indices forming
    a composable chain and m a basis vector of the graded twin M' of the
    module (`peirce_regrade`) in the block e_{source} M' e_{target}.  The
    restricted bar formula on M' is the differential; products of radical
    basis vectors never hit idempotents (certified on the algebra), so the
    formula closes.  A module that is Peirce-graded is its own twin;
    otherwise `embed` and `project` carry values through the coordinate
    maps, so cochains in and out are in the module's own basis.

    The basis is indexed by its flat bar key tensor_index * dim M + m, the
    coordinate `_bar_column` emits and `Cochain.vec` uses: `basis(n)` gives
    the pairs in row order and pos = {flat key: row}.  A key is in pos
    exactly when its arguments are radical, its chain composable and its
    value in the right Peirce block, so assembling a differential and
    projecting a cochain of a graded module are one lookup per term, with
    no decoding.  rank d^n is computed once per degree and cached in ranks,
    which `CohomologySpace.vectors` also fills.
    """

    def __init__(self, algebra, module):
        if not algebra.is_peirce_graded():
            raise ValueError("hh needs a Peirce-graded algebra: every basis "
                             "vector in one block e_x A e_y")
        if not algebra.radical_complement_closed():
            raise ValueError("hh needs radical products that stay in the "
                             "radical: a product of two non-idempotent basis "
                             "vectors hits an idempotent")
        self.algebra = algebra
        self.module = module
        self.graded, self.to_graded, self.from_graded = peirce_regrade(module)
        self.r = list(algebra.radical_indices)
        self.src = {i: algebra.peirce[i][0] for i in self.r}
        self.tgt = {i: algebra.peirce[i][1] for i in self.r}
        self.by_src = {}
        for i in self.r:
            self.by_src.setdefault(self.src[i], []).append(i)
        self.m_blocks = {}
        for m, tag in enumerate(self.graded.peirce):
            self.m_blocks.setdefault(tag, []).append(m)
        self._chains = {}
        self._index = {}
        self._diff = {}
        self.ranks = {}

    def chains(self, n):
        """Composable radical index tuples of length n, lexicographic."""
        got = self._chains.get(n)
        if got is not None:
            return got
        if n == 0:
            out = [()]
        else:
            out = []
            prev = self.chains(n - 1)
            if n == 1:
                out = [(i,) for i in self.r]
            else:
                for chain in prev:
                    for nxt in self.by_src.get(self.tgt[chain[-1]], ()):
                        out.append(chain + (nxt,))
        self._chains[n] = out
        return out

    def value_indices(self, chain):
        if chain:
            tag = (self.src[chain[0]], self.tgt[chain[-1]])
            return self.m_blocks.get(tag, [])
        # degree 0: all diagonal blocks, in basis order
        out = []
        for m, tag in enumerate(self.graded.peirce):
            if tag[0] == tag[1]:
                out.append(m)
        return out

    def basis(self, n):
        """([(chain, m)] in row order, {flat bar key: row}), cached."""
        got = self._index.get(n)
        if got is not None:
            return got
        encode = Cochain(self.algebra, self.graded, n).encode
        dm = self.graded.dim
        flat = []
        pos = {}
        for chain in self.chains(n):
            base = encode(chain) * dm
            for m in self.value_indices(chain):
                pos[base + m] = len(flat)
                flat.append((chain, m))
        self._index[n] = (flat, pos)
        return self._index[n]

    def dim(self, n):
        return len(self.basis(n)[0])

    def differential(self, n):
        """Matrix N^n -> N^{n+1} of the restricted bar differential."""
        got = self._diff.get(n)
        if got is None:
            got = self._diff[n] = _subcomplex_differential(
                self.algebra, self.graded, n, self.basis(n)[0],
                self.basis(n + 1)[1])
        return got

    def rank(self, n):
        got = self.ranks.get(n)
        if got is None:
            got = self.ranks[n] = rank(self.differential(n))
        return got

    def embed(self, n, nvec):
        """A normalized vector as a full Cochain in the module's basis."""
        flat, _ = self.basis(n)
        values = {}
        for k, v in nvec.items():
            chain, m = flat[k]
            values.setdefault(chain, {})[m] = v
        if self.from_graded is not None:
            values = {chain: self.from_graded.matvec(vec)
                      for chain, vec in values.items()}
        return Cochain.from_values(self.algebra, self.module, n, values)

    def project(self, cochain):
        """N-coordinates of a normalized cochain, or None if not normalized."""
        _, pos = self.basis(cochain.degree)
        dm = self.module.dim
        to_graded = self.to_graded
        out = {}
        for t, col in cochain.data.items():
            if to_graded is not None:
                col = to_graded.matvec(col)
            base = t * dm
            for m, v in col.items():
                row = pos.get(base + m)
                if row is None:
                    return None
                out[row] = v
        return out


def _normalized_complex(algebra, module):
    nc = getattr(module, "_normalized_complex", None)
    if nc is None:
        nc = NormalizedComplex(algebra, module)
        module._normalized_complex = nc
    return nc


# ---------------------------------------------------------------------------
# cohomology spaces


class CohomologySpace:
    """hh^n as kernel modulo image of a `NormalizedComplex`: dim,
    representative cocycles and class coordinates.

    The space lives on complex_: its dim, representatives, `is_cocycle`
    and class coordinates all come from that complex.  Until the
    representatives exist, dim is dim C^n - rank d^n - rank d^{n-1} from
    the complex's cached ranks.  `vectors` builds the representatives and
    the class-coordinate sweep on first use, and from then on dim is their
    count.  A space whose dim is all that is read does no kernel or
    quotient work.  In degrees 0 and 1, `is_cocycle` and `class_coords`
    also take a cochain outside the complex; from degree 2 on they refuse
    it.
    """

    # one complex serves every space; perfbench/spans.py still counts the
    # answers of hh by this name
    backend = "normalized"

    def __init__(self, complex_, degree):
        self.complex = complex_
        self.algebra = complex_.algebra
        self.module = complex_.module
        self.degree = degree
        # built now, so that a subcomplex that does not close raises here
        complex_.differential(degree)
        if degree:
            complex_.differential(degree - 1)
        self._reps_vecs = None
        self._classes = None

    def _rank_dim(self):
        n = self.degree
        ranks = self.complex.rank(n) + (self.complex.rank(n - 1) if n else 0)
        return self.complex.dim(n) - ranks

    @property
    def dim(self):
        if self._reps_vecs is not None:
            return len(self._reps_vecs)
        return self._rank_dim()

    def _cocycle_matrix(self):
        return self.complex.differential(self.degree)

    def vectors(self):
        """The representatives as vectors of the complex.

        The first call builds them and the class-coordinate sweep, and
        records rank d^n and rank d^{n-1} from that work in the complex's
        rank cache where they are not there yet.  Their count is checked
        against the dim from those ranks.
        """
        if self._reps_vecs is not None:
            return self._reps_vecs
        n = self.degree
        field = self.algebra.field
        cocycles = self._cocycle_matrix()
        cycles = kernel_basis_sparse(cocycles)
        boundaries = [] if n == 0 else [
            c for _, c in self.complex.differential(n - 1).columns_items()]
        reps, cob = quotient_basis(field, cycles, boundaries)
        ranks = self.complex.ranks
        ranks.setdefault(n, cocycles.cols - len(cycles))
        if n:
            ranks.setdefault(n - 1, len(cob))
        want = self._rank_dim()
        if len(reps) != want:
            raise AssertionError(
                f"hh^{n} on the normalized complex: {len(reps)} "
                f"representatives but dim {want} from its ranks")
        try:
            self._classes = SubspaceCoords(field, reps, modulo=cob)
        except ValueError:
            raise AssertionError("representatives are not independent") \
                from None
        self._reps_vecs = reps
        return reps

    @property
    def representatives(self):
        return [self.complex.embed(self.degree, r) for r in self.vectors()]

    def representative(self, i):
        return self.complex.embed(self.degree, self.vectors()[i])

    def _vec(self, cochain):
        """The cochain as a vector of the complex, or None for a degree-0
        or degree-1 cochain that is outside it and not a cocycle."""
        _check_shape(cochain, self.algebra, self.module, self.degree)
        vec = self.complex.project(cochain)
        if vec is not None:
            return vec
        if self.degree > 1:
            raise ValueError(
                "cochain is not idempotent-normalized; reduce it modulo "
                "coboundaries in the full complex first")
        if not bar_apply(self.algebra, self.module, self.degree,
                         cochain).is_zero():
            return None
        if self.degree == 1:
            cochain = _normalize_degree1(self.algebra, self.module, cochain)
        vec = self.complex.project(cochain)
        if vec is None:
            raise AssertionError(
                f"a {self.degree}-cocycle escaped the normalized complex")
        return vec

    def is_cocycle(self, cochain):
        vec = self._vec(cochain)
        return vec is not None and not self._cocycle_matrix().matvec(vec)

    def vector_coords(self, vec):
        """Sparse class coordinates of a vector of the complex, or None if
        it is not a cocycle."""
        if self._cocycle_matrix().matvec(vec):
            return None
        self.vectors()
        found = self._classes.find(vec)
        if found is None:
            raise AssertionError("cocycle escaped span of classes")
        return found

    def class_coords(self, cochain):
        """Coordinates of [cochain] in the representative basis."""
        vec = self._vec(cochain)
        found = None if vec is None else self.vector_coords(vec)
        if found is None:
            raise ValueError("not a cocycle")
        return dense(found, self.dim, self.algebra.field)

    def class_is_zero(self, cochain):
        return all(not c for c in self.class_coords(cochain))

    def __repr__(self):
        return (f"CohomologySpace(n={self.degree}, dim={self.dim}, "
                f"backend={self.backend})")


def _idempotent_system(algebra, module):
    """(matrix, sweep) of x -> ((L_e - R_e) x)_e over the idempotents e,
    rows e * dim M + m, built once per module next to its complexes.

    `inner_normalized_span` takes the matrix's kernel; `_normalize_degree1`
    solves with the sweep, whose columns went in in index order, so that
    its solutions are those of `linalg.solve`.
    """
    got = getattr(module, "_idempotent_system", None)
    if got is not None:
        return got
    field = algebra.field
    dm = module.dim
    cols = {}
    for m in range(dm):
        col = {}
        for _, e in algebra.idempotents:
            diff = dict(module.left[e].column(m))
            axpy(field, diff, field.of(-1), module.right[e].column(m))
            for m2, v in diff.items():
                col[e * dm + m2] = v
        if col:
            cols[m] = col
    sweep = Sweep(field)
    for m, col in cols.items():
        sweep.insert(col, {m: field.one})
    got = module._idempotent_system = (
        Mat(algebra.dim * dm, dm, field, cols), sweep)
    return got


def _normalize_degree1(algebra, module, cocycle):
    """The 1-cocycle minus a coboundary b^1(x), vanishing on idempotents.

    A 1-cocycle that vanishes on the idempotents lies in the normalized
    complex: x solves (L_e - R_e) x = cocycle(e) for every idempotent e.
    """
    field = algebra.field
    dm = module.dim
    idem = [idx for _, idx in algebra.idempotents]
    if all(not cocycle.value((e,)) for e in idem):
        return cocycle
    b = {}
    for e in idem:
        for m, v in cocycle.value((e,)).items():
            b[e * dm + m] = v
    x = _idempotent_system(algebra, module)[1].solution(b)
    if x is None:
        raise AssertionError("1-cocycle cannot be normalized")
    x = Cochain.from_vec(algebra, module, 0, x)
    return cocycle.add(bar_apply(algebra, module, 0, x), field.of(-1))


def hh(algebra, module, n, cap=BAR_CAP):
    """The n-th Hochschild cohomology of algebra with coefficients module."""
    if n < 0:
        raise ValueError(f"negative degree {n}")
    cache = getattr(module, "_hh_cache", None)
    if cache is None:
        cache = module._hh_cache = {}
    got = cache.get((n, cap))
    if got is not None:
        return got
    _check_cap(algebra, module, n, cap)
    space = cache[(n, cap)] = CohomologySpace(
        _normalized_complex(algebra, module), n)
    return space


def _check_shape(cochain, algebra, module, n):
    if cochain.algebra is not algebra or cochain.module is not module \
            or cochain.degree != n:
        raise ValueError("cochain does not live in this space")


# ---------------------------------------------------------------------------
# derivations


def der0_basis(algebra, module):
    """Normalized derivations: d(bb') = b.d(b') + d(b).b', d(e) = 0."""
    field = algebra.field
    d = algebra.dim
    dm = module.dim
    cols = {u: {} for u in range(d * dm)}

    def unknown(s, r):
        return s * dm + r

    row_base = 0
    for _, e in algebra.idempotents:
        for r in range(dm):
            cols[unknown(e, r)][row_base + r] = field.one
        row_base += dm
    for i in range(d):
        li = module.left[i]
        for j in range(d):
            rj = module.right[j]
            # d(b_i b_j) - b_i.d(b_j) - d(b_i).b_j = 0
            for k, c in algebra.structure.get((i, j), {}).items():
                for r in range(dm):
                    col = cols[unknown(k, r)]
                    col[row_base + r] = field.add(col.get(row_base + r,
                                                          field.zero), c)
            for m, colm in li.columns_items():
                for r, v in colm.items():
                    col = cols[unknown(j, m)]
                    w = field.sub(col.get(row_base + r, field.zero), v)
                    if w:
                        col[row_base + r] = w
                    elif row_base + r in col:
                        del col[row_base + r]
            for m, colm in rj.columns_items():
                for r, v in colm.items():
                    col = cols[unknown(i, m)]
                    w = field.sub(col.get(row_base + r, field.zero), v)
                    if w:
                        col[row_base + r] = w
                    elif row_base + r in col:
                        del col[row_base + r]
            row_base += dm
    data = {u: {k: v for k, v in col.items() if v} for u, col in cols.items()}
    data = {u: col for u, col in data.items() if col}
    m = Mat(row_base, d * dm, field, data)
    return [Cochain.from_vec(algebra, module, 1, v)
            for v in kernel_basis_sparse(m)]


def inner_normalized_span(algebra, module):
    """Spanning vectors of the normalized inner derivations [x, -]: b^1(x)
    by `bar_apply` for x with e.x = x.e for all idempotents e, so this
    route shares no matrix with the normalized complex."""
    out = []
    for x in kernel_basis_sparse(_idempotent_system(algebra, module)[0]):
        x = Cochain.from_vec(algebra, module, 0, x)
        v = bar_apply(algebra, module, 0, x).vec()
        if v:
            out.append(v)
    return out


class DerivationCohomology:
    """hh^1 as normalized derivations modulo normalized inner derivations."""

    def __init__(self, algebra, module):
        self.algebra = algebra
        self.module = module
        field = algebra.field
        self.derivations = der0_basis(algebra, module)
        self._reps_vecs, cob = quotient_basis(
            field, [d.vec() for d in self.derivations],
            inner_normalized_span(algebra, module))
        self._classes = SubspaceCoords(field, self._reps_vecs, modulo=cob)

    @property
    def dim(self):
        return len(self._reps_vecs)

    @property
    def representatives(self):
        return [Cochain.from_vec(self.algebra, self.module, 1, v)
                for v in self._reps_vecs]

    def class_coords(self, cochain):
        found = self._classes.find(cochain.vec())
        if found is None:
            raise ValueError("not a normalized derivation class")
        return dense(found, self.dim, self.algebra.field)


def hh1_via_derivations(algebra, module):
    return DerivationCohomology(algebra, module)


# ---------------------------------------------------------------------------
# products


def cup(f, g):
    """Cup product of cochains with coefficients in a product bimodule."""
    if f.module is not g.module or f.algebra is not g.algebra:
        raise ValueError("cochains over different coefficients")
    module = f.module
    if module.product is None:
        raise ValueError("coefficient bimodule lacks a product")
    field = f.algebra.field
    s, t = f.degree, g.degree
    shift = f.algebra.dim ** t
    out = Cochain(f.algebra, module, s + t)
    for u, colf in f.data.items():
        for v, colg in g.data.items():
            val = module.multiply(colf, colg)
            if not val:
                continue
            key = u * shift + v
            dst = out.data.setdefault(key, {})
            axpy(field, dst, field.one, val)
            if not dst:
                del out.data[key]
    return out


def is_derivation(cochain):
    """Leibniz rule for a degree-1 cochain with coefficients in a bimodule."""
    if cochain.degree != 1:
        return False
    alg, module = cochain.algebra, cochain.module
    field = alg.field
    for i in range(alg.dim):
        di = cochain.value((i,))
        for j in range(alg.dim):
            dj = cochain.value((j,))
            want = dict(module.left[i].matvec(dj))
            axpy(field, want, field.one, module.right[j].matvec(di))
            got = {}
            for k, c in alg.structure.get((i, j), {}).items():
                axpy(field, got, c, cochain.value((k,)))
            if want != got:
                return False
    return True


def bracket1(d1, d2):
    """Commutator of two derivations A -> A (regular coefficients)."""
    if d1.degree != 1 or d2.degree != 1:
        raise ValueError("bracket is defined on degree-1 cochains")
    if d1.module.dim != d1.algebra.dim or d1.module is not d2.module:
        raise ValueError("bracket needs regular coefficients")
    if not (is_derivation(d1) and is_derivation(d2)):
        raise ValueError("bracket inputs must be derivations")
    field = d1.algebra.field
    out = Cochain(d1.algebra, d1.module, 1)
    for i in range(d1.algebra.dim):
        # d1(d2(b_i)) - d2(d1(b_i))
        acc = {}
        for k, v in d2.value((i,)).items():
            axpy(field, acc, v, d1.value((k,)))
        for k, v in d1.value((i,)).items():
            axpy(field, acc, field.neg(v), d2.value((k,)))
        if acc:
            out.data[i] = acc
    return out


def class_equal(f, g, space=None):
    """True iff f - g is a coboundary (both must be cocycles)."""
    if space is None:
        space = hh(f.algebra, f.module, f.degree)
    diff = f.add(g, f.algebra.field.of(-1))
    return space.class_is_zero(diff)


def derivation_from_arrow_values(algebra, values):
    """The normalized derivation with prescribed values on arrows.

    values maps arrow names to AlgElements; the map extends by the Leibniz
    rule along each basis path and must respect the relations (checked).
    """
    reg = regular_bimodule(algebra)
    out = Cochain(algebra, reg, 1)
    for i, path in enumerate(algebra.basis_paths):
        if path.is_trivial:
            continue
        arrows = path.arrows
        total = None
        for pos, name in enumerate(arrows):
            img = values.get(name)
            if img is None or img.is_zero():
                continue
            prefix = algebra.element_from_path(
                algebra.presentation.quiver.path(*arrows[:pos])) \
                if pos else algebra.idempotent(path.source)
            suffix = algebra.element_from_path(
                algebra.presentation.quiver.path(*arrows[pos + 1:])) \
                if pos + 1 < len(arrows) else algebra.idempotent(path.target)
            term = prefix * img * suffix
            total = term if total is None else total + term
        if total is not None and not total.is_zero():
            out.data[i] = dict(total.coords)
    if not is_derivation(out):
        raise ValueError("arrow values do not extend to a derivation")
    return out


# ---------------------------------------------------------------------------
# helpers used across the verification suite


def random_cochain(algebra, module, n, rng=None, seed=0, density=6):
    """Deterministic pseudorandom cochain (not normalized, not a cocycle)."""
    rng = rng or random.Random(seed)
    d = algebra.dim
    dm = module.dim
    total = d ** n
    out = Cochain(algebra, module, n)
    for _ in range(density + n * density):
        t = rng.randrange(total)
        m = rng.randrange(dm)
        c = rng.randint(-4, 4)
        if not c:
            continue
        dst = out.data.setdefault(t, {})
        cur = dst.get(m)
        v = algebra.field.of(c) if cur is None else algebra.field.add(
            cur, algebra.field.of(c))
        if v:
            dst[m] = v
        else:
            del dst[m]
        if not dst:
            del out.data[t]
    return out


def random_normalized_cochain(algebra, module, n, rng=None, seed=0, density=6):
    """Deterministic pseudorandom cochain inside the normalized subcomplex."""
    rng = rng or random.Random(seed)
    nc = _normalized_complex(algebra, module)
    flat, _ = nc.basis(n)
    out = {}
    if not flat:
        return Cochain(algebra, module, n)
    for _ in range(density + n * density):
        k = rng.randrange(len(flat))
        c = rng.randint(-4, 4)
        if not c:
            continue
        cur = out.get(k)
        v = algebra.field.of(c) if cur is None else algebra.field.add(
            cur, algebra.field.of(c))
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return nc.embed(n, out)


def transport(cochain, new_algebra, new_module, slot_t, value_map):
    """The cochain value_map o f o slot_map^{(x)n} over a new algebra.

    slot_t is the transpose of slot_map, a Mat (new algebra dim) x (old
    algebra dim) whose column s is row s of slot_map, taken once by the
    caller (`SplitExtensionData` keeps those of p and q); value_map: Mat
    (new module dim) x (old module dim).
    """
    n = cochain.degree
    field = new_algebra.field
    out = Cochain(new_algebra, new_module, n)
    for t, col in cochain.data.items():
        slots = cochain.decode(t)
        options = []
        ok = True
        for s in slots:
            opt = list(slot_t.column(s).items())
            if not opt:
                ok = False
                break
            options.append(opt)
        if not ok:
            continue
        val = value_map.matvec(col)
        if not val:
            continue
        for combo in itertools.product(*options):
            coeff = field.one
            idx = 0
            for (u, c) in combo:
                coeff = field.mul(coeff, c)
                idx = idx * new_algebra.dim + u
            dst = out.data.setdefault(idx, {})
            axpy(field, dst, coeff, val)
            if not dst:
                del out.data[idx]
    return out
