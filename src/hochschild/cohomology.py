"""Hochschild cohomology hh^n(A, M) on the idempotent-normalized complex.

Cochains in degree n are linear maps A^{(x)n} -> M stored sparsely in the
tensor-product bases.  The bar formula is written once, in `_bar_column`:
`bar_differential` and `bar_apply` evaluate it on the literal bar
complex, the reference for b o b = 0 (`bar_square_vanishes`), inner
derivations, the surjectivity witness (`extension`) and the tests;
`_bar_apply_within` evaluates it only where a check reads it, on
tensors of arguments that span a subalgebra; and every
`NormalizedComplex` restricts it to radical arguments.  `extcohom`
computes E_m = Ext^m_C(DC, C) as a `CohomologySpace` of the
`NormalizedComplex` with coefficients C (x)_k C.

`hh` takes its representatives, in every degree and on every input,
from one complex per space: the subcomplex of idempotent-normalized
cochains, maps vanishing whenever an argument is one of the orthogonal
idempotents, supported on composable radical tuples with matching value
blocks.  Its dims come from that complex too, except for the regular
bimodule of a presented algebra with J^2 != 0 and quadratic or monomial
relations: there a dim read before any representative comes from the
Koszul resolution wherever it is certified exact, or from Bardzell's
(`minres.resolution_route`), and `vectors` checks the representatives'
count against it.  For a separable span of idempotents that subcomplex
is the S-relative bar complex and its inclusion is a
quasi-isomorphism, so dimensions and
classes agree, and its representatives are genuine bar cocycles.  The
algebra must be Peirce-graded with radical products off the
idempotents, or `NormalizedComplex` raises ValueError.  The module need
not be: the complex is assembled on its graded twin
(`bimodule.peirce_regrade`), and its cochains go in and come out in the
module's own basis.

That complex holds the representatives, `is_cocycle` and the class
coordinates, so `hh` builds no bar matrix in any degree.  A
cochain given in degree 0 or 1 need not be normalized: a cocycle outside
the complex is first moved into it by a coboundary (`_normalize_degree1`,
one sweep of its system per module; in degree 0 every cocycle already
lies in the diagonal blocks), and `bar_apply` tells a non-cocycle.  From
degree 2 on a cochain outside it is refused.

The complex indexes cochains by the flat bar key tensor_index * dim M + m
that `_bar_column` emits, mapped to a row with one dict built from the
chains' tensor indices; its (chain, m) pairs are built only when asked
for, so the top degree of a request, which is only rows, has none.  It
caches its differentials and their ranks on the module, so hh^{n+1}
reuses the matrix and the rank hh^n needed.  The column kernel of
`_bar_column` is cached there too, once per degree and argument set, so
the many `bar_apply` calls of a verification run set it up once.  It
forms a term's key with one addition from a per-slot table, and stores a
term at a new key as it is: only a repeated key is added up.

`CohomologySpace` is the one object that turns a complex into dims,
representatives and class coordinates, for every engine: the normalized
complex, the two-term `DerivationComplex` (derivations modulo inner
derivations, `hh1_via_derivations`) and the Hom complexes of the
Bardzell and Koszul resolutions (`minres.PartialResolution`), which
also give `hh` its dims where they apply.  Its docstring names what it
reads of a complex.
It is rank-first: dim hh^n = dim C^n - rank d^n - rank d^{n-1}, from
untracked sweeps (`linalg.rank`) cached by `RankedComplex`, with no
kernel basis.  Representatives and class coordinates are built on first
use, from `linalg.quotient_basis` and `linalg.SubspaceCoords`, and from
then on dim is their count;
`CohomologySpace.vector_coords` gives the class of a vector of the
complex, `class_coords` that of a cochain.

Products and projections of classes are formed on vectors of the complex:
`NormalizedComplex.cup` is the cup product N^s x N^t -> N^{s+t}, and
`extension.normalized_projection` the matrix of f -> p o f o q^{(x)n}.
`cup` and `transport` stay the cochain forms, which the tests hold them
to.

Everything is deterministic: fixed basis orders and a fixed pivot rule.
"""

import functools
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
            f"degree {n} refused: the bar complex size (dim A)^(n+1) * "
            f"dim M = {quantity} exceeds the cap {cap}")


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


def _bar_column(algebra, module, n, args=None, values=None):
    """The column kernel of b^{n+1}, the one place the bar formula lives.

    Returns column(t_idx, slots, m): the sparse image, in flat coordinates
    tensor_index * dim M + m, of the cochain sending the tensor t_idx
    (basis indices slots) to e_m and every other tensor to 0.  With args
    (a list of basis indices) the image is restricted to tensors of
    arguments from args: the normalized and Ext complexes pass the
    radical indices.  With values (a list of module indices) it is
    restricted to terms whose value index is in values: the action
    columns are filtered once, and the contractions, which keep m, are
    skipped for m outside.

    Each kernel is built once per (n, args, values) and cached on the
    module, so its signed factorization tables and action lists are set
    up once per run, not once per `bar_apply`.
    """
    cache = getattr(module, "_bar_columns", None)
    if cache is None:
        cache = module._bar_columns = {}
    key = (n, None if args is None else tuple(args),
           None if values is None else tuple(values))
    column = cache.get(key)
    if column is None:
        column = cache[key] = _column_kernel(algebra, module, n, args,
                                             values)
    return column


def _column_kernel(algebra, module, n, args, values=None):
    field = algebra.field
    d = algebra.dim
    dm = module.dim
    add, neg = field.add, field.neg
    top = d ** n
    fact = _factorizations(algebra)
    keep = None if args is None else set(args)
    if args is None:
        args = range(d)
    # b_x b_y = c b_k + ..., as k -> [(x * d + y, c)] over the arguments
    pairs = {}
    for k, lst in fact.items():
        terms = [(x * d + y, c) for x, y, c in lst
                 if keep is None or x in keep and y in keep]
        if terms:
            pairs[k] = terms
    neg_pairs = {k: [(xy, neg(c)) for xy, c in lst]
                 for k, lst in pairs.items()}
    # contraction at slot p, sign (-1)^{p+1}: the term of slot value k
    # lands at key t // (span d) * (d d span dm) + t % span * dm + m + delta,
    # with span = d^(n-1-p) and, per slot value, a table of
    # (delta, c) = ((x * d + y) * span * dm, signed c)
    contractions = []
    for p in range(n):
        span = d ** (n - 1 - p)
        step = span * dm
        contractions.append((span * d, d * d * step, span, {
            k: [(xy * step, c) for xy, c in lst]
            for k, lst in (neg_pairs if p % 2 == 0 else pairs).items()}))
    # per value index m: (key offset, column) of the nonzero actions on e_m,
    # in args order; read off the actions' nonzero columns, cut to values.
    # The right action carries the sign (-1)^{n+1}
    inner = None if values is None else set(values)
    lefts = [[] for _ in range(dm)]
    rights = [[] for _ in range(dm)]
    for c in args:
        for m, col in module.left[c].columns_items():
            if inner is not None:
                col = {k: v for k, v in col.items() if k in inner}
            if col:
                lefts[m].append((c * top * dm, col))
        for m, col in module.right[c].columns_items():
            if inner is not None:
                col = {k: v for k, v in col.items() if k in inner}
            if col:
                rights[m].append((c * dm, {k: neg(v) for k, v in col.items()}
                                  if n % 2 == 0 else col))

    def column(t_idx, slots, m):
        # c_0 . f(...): distinct keys, written first
        base = t_idx * dm
        col = {offset + base + m2: v
               for offset, lcol in lefts[m] for m2, v in lcol.items()}
        # inner contractions slots[p] -> (x, y), which keep m, then
        # f(...) . c_n.  Every term is nonzero, so a new key takes its term
        # as it is; only a repeated key is added up, and dropped if it
        # cancels
        for s, (sd, big, span, table) in zip(
                slots, contractions if inner is None or m in inner else ()):
            terms = table.get(s)
            if terms:
                base = t_idx // sd * big + t_idx % span * dm + m
                for delta, c in terms:
                    key = base + delta
                    if key in col:
                        w = add(col[key], c)
                        if w:
                            col[key] = w
                        else:
                            del col[key]
                    else:
                        col[key] = c
        base = t_idx * d * dm
        for offset, rcol in rights[m]:
            for m2, v in rcol.items():
                key = base + offset + m2
                if key in col:
                    w = add(col[key], v)
                    if w:
                        col[key] = w
                    else:
                        del col[key]
                else:
                    col[key] = v
        return col

    return column


def bar_differential(algebra, module, n, cap=BAR_CAP):
    """Matrix of b^{n+1}: Hom(A^{(x)n}, M) -> Hom(A^{(x)n+1}, M).

    Flat coordinates are tensor_index * dim M + m on both sides.
    """
    _check_cap(algebra, module, n, cap)
    return _bar_columns(algebra, module, n,
                        range(algebra.dim ** n * module.dim))


def _bar_columns(algebra, module, n, keys):
    """The matrix of b^{n+1} with only its columns at the flat keys given;
    every other column is left empty.  Each key is decoded into its
    slots, once per run of consecutive keys of one tensor."""
    d = algebra.dim
    dm = module.dim
    column = _bar_column(algebra, module, n)
    decode = Cochain(algebra, module, n).decode
    cols = {}
    t_prev = None
    for key in keys:
        t_idx, m = divmod(key, dm)
        if t_idx != t_prev:
            slots, t_prev = decode(t_idx), t_idx
        col = column(t_idx, slots, m)
        if col:
            cols[key] = col
    return Mat((d ** (n + 1)) * dm, (d ** n) * dm, algebra.field, cols)


def bar_square_vanishes(algebra, module, top):
    """b^{n+1} o b^n = 0 for n = 1..top, on the literal bar complex.

    Below the top the factors are full matrices, since each is the next
    product's right factor.  Of b^{top+1} only the columns at the rows
    b^top reaches are built: the product reads no other column, so it is
    the same matrix.
    """
    prev = bar_differential(algebra, module, 0)
    for n in range(1, top + 1):
        if n < top:
            nxt = bar_differential(algebra, module, n)
        else:
            _check_cap(algebra, module, n, BAR_CAP)
            reached = set()
            for _, col in prev.columns_items():
                reached.update(col)
            nxt = _bar_columns(algebra, module, n, sorted(reached))
        if not nxt.matmul(prev).is_zero():
            return False
        prev = nxt
    return True


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


def _bar_apply_within(algebra, module, n, args, values=None):
    """f -> b^{n+1}(f) on the tensors with every slot in args, 0 elsewhere,
    and, with values, at the value indices in values alone.

    The basis vectors at args must span a subalgebra, as C does in
    C (+) E.  A term of b^{n+1}(f) copies every input slot but one, which
    a contraction replaces by a pair x, y with the slot in the support of
    b_x b_y.  With x and y in args that support lies in args, so an input
    tensor with a slot outside args reaches no tensor of arguments, and is
    skipped.  The restricted kernel `_bar_column(..., args=args,
    values=values)` is evaluated on the rest, and forms no term at a
    value outside values.
    """
    field = algebra.field
    inside = set(args)
    column = _bar_column(algebra, module, n, args=args, values=values)

    def apply(f):
        _check_shape(f, algebra, module, n)
        out = {}
        for t_idx, vals in f.data.items():
            slots = f.decode(t_idx)
            if inside.issuperset(slots):
                for m, c in vals.items():
                    axpy(field, out, c, column(t_idx, slots, m))
        return Cochain.from_vec(algebra, module, n + 1, out)

    return apply


def _subcomplex_differential(algebra, module, n, basis, keys, pos):
    """b^{n+1} on a subcomplex of cochains with radical arguments.

    basis lists the subcomplex's basis in degree n as pairs (chain, m):
    the cochain sending the tensor of the radical indices in chain to
    e_m.  keys holds their flat bar keys tensor_index * dim M + m in the
    same order.  pos maps the flat bar key of each degree-(n+1) basis
    pair to its row; a term at a key outside pos raises AssertionError.
    """
    column = _bar_column(algebra, module, n, args=algebra.radical_indices)
    dm = module.dim
    row = pos.get
    cols = {}
    for j, ((chain, m), key) in enumerate(zip(basis, keys)):
        image = column(key // dm, chain, m)
        col = {row(k): v for k, v in image.items()}
        if None in col:
            t, m_out = divmod(next(k for k in image if k not in pos), dm)
            raise AssertionError(
                f"differential left the subcomplex at "
                f"{Cochain(algebra, module, n + 1).decode(t)}, {m_out}")
        if col:
            cols[j] = col
    return Mat(len(pos), len(basis), algebra.field, cols)


# ---------------------------------------------------------------------------
# complexes


class RankedComplex:
    """The rank cache every complex shares: rank d^n is swept once per
    degree (`linalg.rank`, untracked) and kept in ranks, which
    `CohomologySpace.vectors` also fills from its kernel and quotient
    work.  A subclass sets ranks = {} and defines differential(n)."""

    def rank(self, n):
        got = self.ranks.get(n)
        if got is None:
            got = self.ranks[n] = rank(self.differential(n))
        return got


class NormalizedComplex(RankedComplex):
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
    coordinate `_bar_column` emits and `Cochain.vec` uses: `index(n)` is
    pos = {flat key: row}, and `basis(n)` gives the pairs in row order
    with it.  A key is in pos exactly when its arguments are radical, its
    chain composable and its value in the right Peirce block, so
    assembling a differential and projecting a cochain of a graded module
    are one lookup per term, with no decoding.
    """

    backend = "normalized"

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
        self._keys = {}
        self._flat = {}
        self._diff = {}
        self.ranks = {}

    def chains(self, n):
        """Composable radical index tuples of length n, lexicographic."""
        return self._chained(n)[0]

    def _chained(self, n):
        """(chains(n), their tensor indices), built together: the index
        of chain + (i,) is that of chain times dim A plus i."""
        got = self._chains.get(n)
        if got is not None:
            return got
        if n <= 1:
            got = ([()], [0]) if n == 0 else ([(i,) for i in self.r], self.r)
        else:
            d = self.algebra.dim
            chains, tensors = [], []
            for chain, t in zip(*self._chained(n - 1)):
                t *= d
                for nxt in self.by_src.get(self.tgt[chain[-1]], ()):
                    chains.append(chain + (nxt,))
                    tensors.append(t + nxt)
            got = (chains, tensors)
        self._chains[n] = got
        return got

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

    def index(self, n):
        """{flat bar key: row} of the degree-n basis, in row order, cached.

        Built from the chains' tensor indices, with no (chain, m) pair
        list: the top degree of a request is only ever rows.
        """
        got = self._index.get(n)
        if got is None:
            dm = self.graded.dim
            keys = [t * dm + m for chain, t in zip(*self._chained(n))
                    for m in self.value_indices(chain)]
            got = self._index[n] = dict(zip(keys, range(len(keys))))
        return got

    def keys(self, n):
        """The flat bar keys of the degree-n basis, in row order, cached."""
        got = self._keys.get(n)
        if got is None:
            got = self._keys[n] = list(self.index(n))
        return got

    def basis(self, n):
        """([(chain, m)] in row order, {flat bar key: row}), cached."""
        flat = self._flat.get(n)
        if flat is None:
            flat = self._flat[n] = [(chain, m) for chain in self.chains(n)
                                    for m in self.value_indices(chain)]
        return flat, self.index(n)

    def dim(self, n):
        return len(self.index(n))

    def differential(self, n):
        """Matrix N^n -> N^{n+1} of the restricted bar differential."""
        got = self._diff.get(n)
        if got is None:
            got = self._diff[n] = _subcomplex_differential(
                self.algebra, self.graded, n, *self.basis(n),
                self.index(n + 1))
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
        pos = self.index(cochain.degree)
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

    def cup(self, s, f, t, g):
        """The cup product N^s x N^t -> N^{s+t} of vectors of the complex,
        for coefficients with a product; `cup` on the embedded cochains,
        projected back.

        Row i of f (chain w, value m) and row j of g (chain w', value m')
        give the tensor w w' and the value m m'.  The chains compose
        exactly when the target block of m is the source block of m';
        otherwise m m' = 0, since the product is balanced.  A composing
        pair gives one structure-constant product, each of whose terms
        lies at key (t1 * d^t + t2) * dm + m'' of N^{s+t}, t1 and t2 the
        chains' tensor indices; a key outside the index raises
        AssertionError.
        """
        product = self.graded.product
        if product is None:
            raise ValueError("coefficient bimodule lacks a product")
        field = self.algebra.field
        mul, add = field.mul, field.add
        dm = self.graded.dim
        shift = self.algebra.dim ** t
        tags = self.graded.peirce
        keys_f, keys_g = self.keys(s), self.keys(t)
        pos = self.index(s + t)
        by_source = {}
        for j, c in g.items():
            t2, m2 = divmod(keys_g[j], dm)
            by_source.setdefault(tags[m2][0], []).append((t2, m2, c))
        out = {}
        for i, cf in f.items():
            t1, m1 = divmod(keys_f[i], dm)
            for t2, m2, cg in by_source.get(tags[m1][1], ()):
                prod = product.get((m1, m2))
                if not prod:
                    continue
                c = mul(cf, cg)
                base = (t1 * shift + t2) * dm
                for m, v in prod.items():
                    row = pos.get(base + m)
                    if row is None:
                        raise AssertionError(
                            f"cup product left the subcomplex at key "
                            f"{base + m} in degree {s + t}")
                    w = mul(c, v)
                    cur = out.get(row)
                    if cur is None:
                        out[row] = w
                    else:
                        w = add(cur, w)
                        if w:
                            out[row] = w
                        else:
                            del out[row]
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
    """Kernel modulo image of a complex in one degree: dim, representative
    cocycles and class coordinates.  It is the one place any engine turns
    a complex into these.

    A complex gives `algebra` and `module` (the coefficients), `backend`
    (the engine's name), `dim(n)` (the size of C^n), `differential(n)`
    (the matrix C^n -> C^{n+1}), `rank(n)` with its cache `ranks`
    (`RankedComplex`), `embed(n, vec)` (a vector of C^n as the caller's
    object) and, where cochains of the module map into it,
    `project(cochain)` (its vector, or None if it lies outside).  Three
    complexes do: the `NormalizedComplex` of `hh` and of E_m, the
    two-term `DerivationComplex` of `hh1_via_derivations`, and
    `minres.PartialResolution`.

    Until the representatives exist, dim is dim C^n - rank d^n -
    rank d^{n-1} from cached ranks: those of the complex, or, when the
    constructor is given dims, a function called on the first dim read,
    those of the complex it returns (`hh` passes the Koszul or Bardzell
    resolution this way, `minres.resolution_route`; None keeps the
    complex's own).  So `dim` is answered by that resolution, and no
    differential of the complex is built until the representatives
    are.  `vectors` builds the representatives on the complex on first
    use, checks their count against the ranks of both complexes, and
    from then on dim is their count; the class-coordinate sweep is built
    on the first class asked for.  A space whose dim is all that is read
    does no kernel or quotient work.
    On the normalized complex, in degrees 0 and 1, `is_cocycle` and
    `class_coords` also take a cochain outside it; from degree 2 on they
    refuse it.
    """

    def __init__(self, complex_, degree, dims=None):
        self.complex = complex_
        self.algebra = complex_.algebra
        self.module = complex_.module
        self.degree = degree
        self._dims = dims
        self._dims_complex = complex_
        if dims is None:
            # built now, so that a subcomplex that does not close raises
            # here
            complex_.differential(degree)
            if degree:
                complex_.differential(degree - 1)
        self._reps_vecs = None
        self._boundaries = None

    @property
    def backend(self):
        return self.complex.backend

    def _rank_dim(self, complex_):
        n = self.degree
        ranks = complex_.rank(n) + (complex_.rank(n - 1) if n else 0)
        return complex_.dim(n) - ranks

    @property
    def dim(self):
        if self._reps_vecs is not None:
            return len(self._reps_vecs)
        if self._dims is not None:
            self._dims_complex = self._dims() or self.complex
            self._dims = None
        return self._rank_dim(self._dims_complex)

    def _cocycle_matrix(self):
        return self.complex.differential(self.degree)

    def vectors(self):
        """The representatives as vectors of the complex.

        The first call builds them, the kernel of d^n modulo the image of
        d^{n-1} (`linalg.quotient_basis`, the only caller), and records
        rank d^n and rank d^{n-1} from that work in the complex's rank
        cache where they are not there yet.  Their count is checked
        against the dim from those ranks.
        """
        if self._reps_vecs is not None:
            return self._reps_vecs
        n = self.degree
        cocycles = self._cocycle_matrix()
        cycles = kernel_basis_sparse(cocycles)
        boundaries = [] if n == 0 else [
            c for _, c in self.complex.differential(n - 1).columns_items()]
        reps, self._boundaries = quotient_basis(self.algebra.field, cycles,
                                                boundaries)
        ranks = self.complex.ranks
        ranks.setdefault(n, cocycles.cols - len(cycles))
        if n:
            ranks.setdefault(n - 1, len(self._boundaries))
        for complex_ in (self.complex, self._dims_complex):
            want = self._rank_dim(complex_)
            if len(reps) != want:
                source = "its ranks" if complex_ is self.complex else \
                    f"the {complex_.backend} complex"
                raise AssertionError(
                    f"hh^{n} on the {self.backend} complex: {len(reps)} "
                    f"representatives but dim {want} from {source}")
        self._reps_vecs = reps
        return reps

    @functools.cached_property
    def _classes(self):
        """The class-coordinate sweep: the representatives modulo the
        boundaries' echelon."""
        reps = self.vectors()
        try:
            return SubspaceCoords(self.algebra.field, reps,
                                  modulo=self._boundaries)
        except ValueError:
            raise AssertionError("representatives are not independent") \
                from None

    @property
    def representatives(self):
        return [self.complex.embed(self.degree, r) for r in self.vectors()]

    def representative(self, i):
        return self.complex.embed(self.degree, self.vectors()[i])

    def _vec(self, cochain):
        """The cochain as a vector of the complex, or None for a degree-0
        or degree-1 cochain that is outside it and not a cocycle."""
        if not hasattr(self.complex, "project"):
            raise TypeError(f"the {self.backend} complex takes no cochains")
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
    # the cap only gates, so it is checked on every call and the space is
    # cached by degree alone
    _check_cap(algebra, module, n, cap)
    cache = getattr(module, "_hh_cache", None)
    if cache is None:
        cache = module._hh_cache = {}
    got = cache.get(n)
    if got is not None:
        return got
    from .minres import resolution_route
    space = cache[n] = CohomologySpace(
        _normalized_complex(algebra, module), n,
        resolution_route(algebra, module, n))
    return space


def _check_shape(cochain, algebra, module, n):
    if cochain.algebra is not algebra or cochain.module is not module \
            or cochain.degree != n:
        raise ValueError("cochain does not live in this space")


# ---------------------------------------------------------------------------
# derivations


def _leibniz_system(algebra, module):
    """The matrix whose kernel is the normalized derivations: one block of
    rows asks d(e) = 0 per idempotent e, one asks d(bb') = b.d(b') +
    d(b).b' per pair of basis vectors; column s * dim M + r is the
    unknown d(b_s)_r, the flat degree-1 key."""
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
    return Mat(row_base, d * dm, field, data)


def der0_basis(algebra, module):
    """Normalized derivations: d(bb') = b.d(b') + d(b).b', d(e) = 0."""
    return [Cochain.from_vec(algebra, module, 1, v)
            for v in kernel_basis_sparse(_leibniz_system(algebra, module))]


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


class DerivationComplex(RankedComplex):
    """hh^1 as normalized derivations modulo normalized inner derivations:
    a complex of two terms, on the flat degree-1 keys s * dim M + r.

    d^1 is the Leibniz system (`_leibniz_system`), so Z^1 is the
    normalized derivations; C^0 has one basis vector per spanning vector
    of `inner_normalized_span`, and d^0 has those vectors as columns.
    Every degree-1 cochain is a vector of C^1, so `project` takes any.
    """

    backend = "derivations"

    def __init__(self, algebra, module):
        self.algebra = algebra
        self.module = module
        self.ranks = {}
        inner = inner_normalized_span(algebra, module)
        self._diff = {
            0: Mat(algebra.dim * module.dim, len(inner), algebra.field,
                   dict(enumerate(inner))),
            1: _leibniz_system(algebra, module)}

    def dim(self, n):
        return self._diff[n].cols

    def differential(self, n):
        return self._diff[n]

    def embed(self, n, vec):
        return Cochain.from_vec(self.algebra, self.module, n, vec)

    def project(self, cochain):
        return cochain.vec()


def hh1_via_derivations(algebra, module):
    """hh^1(algebra, module) as the `CohomologySpace` of the derivation
    complex: a route that shares no matrix with the normalized complex.
    Built once per module, as `hh` is."""
    space = getattr(module, "_derivation_space", None)
    if space is None:
        space = module._derivation_space = CohomologySpace(
            DerivationComplex(algebra, module), 1)
    return space


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


def random_normalized_vector(complex_, n, rng):
    """Deterministic pseudorandom vector of a complex in degree n: 6 (n + 1)
    draws, as `random_cochain` makes."""
    return random_vector(complex_.algebra.field, complex_.dim(n),
                         6 * (n + 1), rng)


def random_vector(field, size, draws, rng):
    """Deterministic pseudorandom sparse vector of length size: each of
    the draws picks an index, then a coefficient in -4..4, and adds it.
    Nothing is drawn when size is 0."""
    out = {}
    if not size:
        return out
    for _ in range(draws):
        k = rng.randrange(size)
        c = rng.randint(-4, 4)
        if not c:
            continue
        cur = out.get(k)
        v = field.of(c) if cur is None else field.add(cur, field.of(c))
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def transport(cochain, new_algebra, new_module, slot_t, value_map):
    """The cochain value_map o f o slot_map^{(x)n} over a new algebra.

    slot_t is the transpose of slot_map, a Mat (new algebra dim) x (old
    algebra dim) whose column s is row s of slot_map, taken once by the
    caller (`SplitExtensionData` keeps those of p and q); value_map: Mat
    (new module dim) x (old module dim).
    """
    n = cochain.degree
    field = new_algebra.field
    d_old, d_new = cochain.algebra.dim, new_algebra.dim
    # slot value -> its options [(new index, coefficient)], read once
    table = {s: list(col.items()) for s, col in slot_t.columns_items() if col}
    out = Cochain(new_algebra, new_module, n)
    for t, col in cochain.data.items():
        # decode last slot first, and stop at a slot with no option
        options = []
        for _ in range(n):
            t, s = divmod(t, d_old)
            opt = table.get(s)
            if opt is None:
                break
            options.append(opt)
        if len(options) < n:
            continue
        val = value_map.matvec(col)
        if not val:
            continue
        for combo in itertools.product(*reversed(options)):
            coeff = field.one
            idx = 0
            for (u, c) in combo:
                coeff = field.mul(coeff, c)
                idx = idx * d_new + u
            dst = out.data.setdefault(idx, {})
            axpy(field, dst, coeff, val)
            if not dst:
                del out.data[idx]
    return out
