"""Hochschild cohomology hh^n(A, M) from the bar complex.

Cochains in degree n are linear maps A^{(x)n} -> M stored sparsely in the
tensor-product bases.  Degrees 0 and 1 are computed on the literal bar
complex.  From degree 2 on, sizes explode ((dim A)^{n+1} * dim M rows),
so the engine switches to the subcomplex of idempotent-normalized
cochains: maps vanishing whenever an argument is one of the orthogonal
idempotents, supported on composable radical tuples with matching value
blocks.  For a separable span of idempotents that subcomplex is the
S-relative bar complex and its inclusion is a quasi-isomorphism, so
dimensions and classes agree; representatives produced there are genuine
bar cocycles (and are verified to be).

Everything is deterministic: fixed basis orders, fixed pivot rule, and
degree-1 representatives are normalized to vanish on idempotents so that
their cup products stay inside the normalized subcomplex.
"""

import itertools
import random

from .linalg import (
    Mat, Sweep, axpy, echelon_basis, kernel_basis_sparse, scale, solve,
)

BAR_CAP = 2_000_000          # max (dim A)^(n+1) * dim M
FULL_DEGREE1_LIMIT = 4096    # full bar complex at degree 1 while dim Hom(A,M) fits


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


def _bar_column(algebra, module, n):
    """The column kernel of b^{n+1}, the one place the bar formula lives.

    Returns column(t_idx, slots, m): the sparse image, in flat coordinates
    tensor_index * dim M + m, of the cochain sending the tensor t_idx
    (basis indices slots) to e_m and every other tensor to 0.
    """
    field = algebra.field
    d = algebra.dim
    dm = module.dim
    add, neg, zero = field.add, field.neg, field.zero
    top = d ** n
    # signs: (-1)^{p+1} on the contraction at slot p, (-1)^{n+1} on the
    # right action
    fact = _factorizations(algebra)
    neg_fact = {k: [(x, y, neg(c)) for x, y, c in lst]
                for k, lst in fact.items()}
    contractions = [(d ** (n - 1 - p), neg_fact if p % 2 == 0 else fact)
                    for p in range(n)]
    # per value index m: (key offset, column) of the nonzero actions on e_m
    lefts = [[(c0 * top * dm, col) for c0 in range(d)
              if (col := module.left[c0].column(m))] for m in range(dm)]
    rights = [[(cn * dm, {k: neg(v) for k, v in col.items()}
                if n % 2 == 0 else col) for cn in range(d)
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


# ---------------------------------------------------------------------------
# the idempotent-normalized subcomplex


class NormalizedComplex:
    """Cochains vanishing on idempotent arguments, graded by Peirce blocks.

    Basis in degree n: (w_1..w_n, m) with w_i radical basis indices forming
    a composable chain and m an M-basis vector in the block
    e_{source} M e_{target}.  The restricted bar formula is the
    differential; products of radical basis vectors never hit idempotents
    (certified on the algebra), so the formula closes.
    """

    def __init__(self, algebra, module):
        if not algebra.is_peirce_graded() or not module.is_graded():
            raise ValueError("normalized complex needs Peirce-graded data")
        if not algebra.radical_complement_closed():
            raise ValueError("radical products leave the graded complement")
        self.algebra = algebra
        self.module = module
        self.field = algebra.field
        self.r = list(algebra.radical_indices)
        self.src = {i: algebra.peirce[i][0] for i in self.r}
        self.tgt = {i: algebra.peirce[i][1] for i in self.r}
        self.by_src = {}
        for i in self.r:
            self.by_src.setdefault(self.src[i], []).append(i)
        self.m_blocks = {}
        for m, tag in enumerate(module.peirce):
            self.m_blocks.setdefault(tag, []).append(m)
        self._chains = {}
        self._index = {}
        self._diff = {}

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
        for m, tag in enumerate(self.module.peirce):
            if tag[0] == tag[1]:
                out.append(m)
        return out

    def basis(self, n):
        """[(chain, m)] plus index maps, cached."""
        got = self._index.get(n)
        if got is not None:
            return got
        flat = []
        pos = {}
        for chain in self.chains(n):
            for m in self.value_indices(chain):
                pos[(chain, m)] = len(flat)
                flat.append((chain, m))
        self._index[n] = (flat, pos)
        return self._index[n]

    def dim(self, n):
        return len(self.basis(n)[0])

    def differential(self, n):
        """Matrix N^n -> N^{n+1} of the restricted bar differential."""
        got = self._diff.get(n)
        if got is not None:
            return got
        field = self.field
        module = self.module
        flat_n, _ = self.basis(n)
        _, pos_out = self.basis(n + 1)
        fact = _factorizations(self.algebra)
        rset = set(self.r)
        minus_one = field.of(-1)
        cols = {}
        for src_idx, (chain, m) in enumerate(flat_n):
            col = {}

            def put(chain_out, m_out, v):
                key = pos_out.get((chain_out, m_out))
                if key is None:
                    raise AssertionError(
                        f"normalized differential left its block at "
                        f"{chain_out}, {m_out}")
                w = field.add(col.get(key, field.zero), v)
                if w:
                    col[key] = w
                elif key in col:
                    del col[key]

            head = self.src[chain[0]] if chain else None
            mvec = {m: field.one}
            # w_0 . f(...)
            for w0 in self.r:
                if chain and self.tgt[w0] != head:
                    continue
                for m2, v in module.left[w0].matvec(mvec).items():
                    put((w0,) + chain, m2, v)
            # contractions inside the chain
            for p in range(len(chain)):
                sign = field.one if (p + 1) % 2 == 0 else minus_one
                for (x, y, c) in fact.get(chain[p], ()):
                    if x not in rset or y not in rset:
                        continue
                    put(chain[:p] + (x, y) + chain[p + 1:], m,
                        field.mul(sign, c))
            # f(...) . w_n
            sign = field.one if (n + 1) % 2 == 0 else minus_one
            tail = self.tgt[chain[-1]] if chain else None
            for wn in self.r:
                if chain and self.src[wn] != tail:
                    continue
                for m2, v in module.right[wn].matvec(mvec).items():
                    put(chain + (wn,), m2, field.mul(sign, v))
            if col:
                cols[src_idx] = col
        out = Mat(self.dim(n + 1), self.dim(n), field, cols)
        self._diff[n] = out
        return out

    def embed(self, n, nvec):
        """A normalized vector as a full Cochain."""
        flat, _ = self.basis(n)
        values = {}
        for k, v in nvec.items():
            chain, m = flat[k]
            values.setdefault(chain, {})[m] = v
        return Cochain.from_values(self.algebra, self.module, n, values)

    def project(self, cochain):
        """N-coordinates of a normalized cochain, or None if not normalized."""
        _, pos = self.basis(cochain.degree)
        rset = set(self.r)
        out = {}
        for t, col in cochain.data.items():
            slots = cochain.decode(t)
            if any(s not in rset for s in slots):
                return None
            ok = all(self.tgt[slots[i]] == self.src[slots[i + 1]]
                     for i in range(len(slots) - 1))
            if not ok:
                return None
            for m, v in col.items():
                key = pos.get((slots, m))
                if key is None:
                    return None
                out[key] = v
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
    """dim, representative cocycles and class-membership machinery for one
    hh^n(A, M)."""

    def __init__(self, algebra, module, degree, backend, reps_vecs,
                 coboundary_echelon, to_cochain, from_cochain, cocycle_matrix):
        self.algebra = algebra
        self.module = module
        self.degree = degree
        self.backend = backend
        self._reps_vecs = reps_vecs
        self._cob = coboundary_echelon
        self._to_cochain = to_cochain
        self._from_cochain = from_cochain
        self._cocycle_matrix = cocycle_matrix
        field = algebra.field
        self._sweep = Sweep(field)
        for row in coboundary_echelon:
            self._sweep.insert(dict(row), {})
        for i, v in enumerate(reps_vecs):
            lead, _ = self._sweep.insert(dict(v), {i: field.one})
            if lead is None:
                raise AssertionError("representatives are not independent")

    @property
    def dim(self):
        return len(self._reps_vecs)

    @property
    def representatives(self):
        return [self._to_cochain(v) for v in self._reps_vecs]

    def representative(self, i):
        return self._to_cochain(self._reps_vecs[i])

    def is_cocycle(self, cochain):
        vec = self._from_cochain(cochain)
        return not self._cocycle_matrix.matvec(vec)

    def class_coords(self, cochain):
        """Coordinates of [cochain] in the representative basis."""
        field = self.algebra.field
        vec = self._from_cochain(cochain)
        if self._cocycle_matrix.matvec(vec):
            raise ValueError("not a cocycle")
        lead, _, track = self._sweep.reduce(dict(vec), {})
        if lead is not None:
            raise AssertionError("cocycle escaped span of classes")
        out = [field.zero] * self.dim
        for i, c in track.items():
            out[i] = field.neg(c)
        return tuple(out)

    def class_is_zero(self, cochain):
        return all(not c for c in self.class_coords(cochain))

    def cochain_from_class(self, coords):
        out = Cochain(self.algebra, self.module, self.degree)
        for i, c in enumerate(coords):
            if c:
                out = out.add(self.representative(i), c)
        return out

    def __repr__(self):
        return (f"CohomologySpace(n={self.degree}, dim={self.dim}, "
                f"backend={self.backend})")


def _select_reps(field, kernel_vecs, cob_echelon):
    """Echelon-reduce kernel vectors against the coboundary space."""
    sweep = Sweep(field)
    for row in cob_echelon:
        sweep.insert(dict(row))
    reps = []
    for z in kernel_vecs:
        lead, vec, _ = sweep.reduce(dict(z), None)
        if lead is None:
            continue
        inv = field.inv(vec[lead])
        vec = scale(field, vec, inv)
        sweep.pivots[lead] = (vec, None)
        reps.append(vec)
    return reps


def _normalize_degree1(algebra, module, rep_vec):
    """Subtract a coboundary so the 1-cocycle vanishes on idempotents."""
    field = algebra.field
    dm = module.dim
    idem = [idx for _, idx in algebra.idempotents]
    if all(not any(rep_vec.get(e * dm + m) for m in range(dm)) for e in idem):
        return rep_vec
    # want x in M with (L_e - R_e) x = rep(e) for every idempotent e;
    # equation rows are indexed e*dm + m2
    cols = {}
    for e in idem:
        left = module.left[e]
        right = module.right[e]
        for m in range(dm):
            col = cols.setdefault(m, {})
            diff = dict(left.column(m))
            axpy(field, diff, field.of(-1), right.column(m))
            for m2, v in diff.items():
                col[e * dm + m2] = v
    b = {}
    for e in idem:
        for m in range(dm):
            v = rep_vec.get(e * dm + m)
            if v:
                b[e * dm + m] = v
    m_rows = algebra.dim * dm  # generous bound; rows indexed e*dm+m
    matrix = Mat(m_rows, dm, field, {m: c for m, c in cols.items() if c})
    x = solve(matrix, b)
    if x is None:
        raise AssertionError("1-cocycle cannot be normalized")
    # rep' = rep - b^1(x)
    b1 = bar_differential(algebra, module, 0)
    correction = b1.matvec({m: v for m, v in enumerate(x) if v})
    out = dict(rep_vec)
    axpy(field, out, field.of(-1), correction)
    return out


def hh(algebra, module, n, cap=BAR_CAP):
    """The n-th Hochschild cohomology of algebra with coefficients module."""
    cache = getattr(module, "_hh_cache", None)
    if cache is None:
        cache = module._hh_cache = {}
    got = cache.get((n, cap))
    if got is not None:
        return got
    _check_cap(algebra, module, n, cap)
    field = algebra.field
    full_size = (algebra.dim ** n) * module.dim
    use_full = n == 0 or (n == 1 and full_size <= FULL_DEGREE1_LIMIT)
    if not use_full:
        try:
            nc = _normalized_complex(algebra, module)
        except ValueError:
            nc = None
        if nc is None:
            use_full = True  # small enough or fail in bar_differential's cap

    if use_full:
        bn1 = bar_differential(algebra, module, n, cap=cap)
        kernel = kernel_basis_sparse(bn1)
        if n == 0:
            cob = []
        else:
            bn = bar_differential(algebra, module, n - 1, cap=cap)
            cob = echelon_basis(list(dict(c) for _, c in bn.columns_items()),
                                field)
        reps = _select_reps(field, kernel, cob)
        if n == 1:
            reps = [_normalize_degree1(algebra, module, r) for r in reps]

        def to_cochain(vec):
            return Cochain.from_vec(algebra, module, n, vec)

        def from_cochain(c):
            _check_shape(c, algebra, module, n)
            return c.vec()

        space = CohomologySpace(algebra, module, n, "bar", reps, cob,
                                to_cochain, from_cochain, bn1)
    else:
        dn1 = nc.differential(n)
        kernel = kernel_basis_sparse(dn1)
        dn = nc.differential(n - 1)
        cob = echelon_basis(list(dict(c) for _, c in dn.columns_items()), field)
        reps = _select_reps(field, kernel, cob)

        def to_cochain(vec):
            return nc.embed(n, vec)

        def from_cochain(c):
            _check_shape(c, algebra, module, n)
            vec = nc.project(c)
            if vec is None:
                raise ValueError(
                    "cochain is not idempotent-normalized; reduce it modulo "
                    "coboundaries in the full complex first")
            return vec

        space = CohomologySpace(algebra, module, n, "normalized", reps, cob,
                                to_cochain, from_cochain, dn1)
    cache[(n, cap)] = space
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
    """Spanning vectors of the normalized inner derivations [x, -]."""
    field = algebra.field
    dm = module.dim
    idem = [idx for _, idx in algebra.idempotents]
    # x must satisfy e.x = x.e for all idempotents e
    cols = {}
    for m in range(dm):
        col = {}
        xvec = {m: field.one}
        for e in idem:
            diff = dict(module.left[e].matvec(xvec))
            axpy(field, diff, field.of(-1), module.right[e].matvec(xvec))
            for r, v in diff.items():
                col[e * dm + r] = v
        if col:
            cols[m] = col
    diag = kernel_basis_sparse(Mat(algebra.dim * dm, dm, field, cols))
    b1 = bar_differential(algebra, module, 0)
    out = []
    for x in diag:
        v = b1.matvec(x)
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
        inner = inner_normalized_span(algebra, module)
        self._cob = echelon_basis(inner, field)
        reps = _select_reps(field, [d.vec() for d in self.derivations],
                            self._cob)
        self._reps_vecs = reps
        self._sweep = Sweep(field)
        for row in self._cob:
            self._sweep.insert(dict(row), {})
        for i, v in enumerate(reps):
            self._sweep.insert(dict(v), {i: field.one})

    @property
    def dim(self):
        return len(self._reps_vecs)

    @property
    def representatives(self):
        return [Cochain.from_vec(self.algebra, self.module, 1, v)
                for v in self._reps_vecs]

    def class_coords(self, cochain):
        field = self.algebra.field
        lead, _, track = self._sweep.reduce(dict(cochain.vec()), {})
        if lead is not None:
            raise ValueError("not a normalized derivation class")
        out = [field.zero] * self.dim
        for i, c in track.items():
            out[i] = field.neg(c)
        return tuple(out)


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
    from .bimodule import regular_bimodule
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


def transport(cochain, new_algebra, new_module, slot_map, value_map):
    """The cochain value_map o f o slot_map^{(x)n} over a new algebra.

    slot_map: Mat (old algebra dim) x (new algebra dim); value_map: Mat
    (new module dim) x (old module dim).
    """
    n = cochain.degree
    field = new_algebra.field
    slot_t = slot_map.transpose()
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
