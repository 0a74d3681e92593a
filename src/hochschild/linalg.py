"""Exact sparse linear algebra over Q and over prime fields.

Everything downstream (algebras, bimodules, cohomology) reduces to ranks,
kernels, solves and quotients computed here.  Vectors are sparse dicts
``{index: scalar}`` internally; the public operations return dense tuples,
which is what small hand-checked examples want.  Scalars over Q are plain
ints when integral and `fractions.Fraction` otherwise (the two compare and
hash alike, and print alike through `str`); over GF(p) they are ints in
``[0, p)``.

Elimination (`Sweep`) is fraction-free: over Q a vector entering it has its
denominators cleared, pivots are primitive integer vectors whose leads are
left as they are, and reduction cross-multiplies, so the loop runs on plain
ints.  Over GF(p) the same sweep keeps lead-1 pivots.  Every result that
leaves this module (kernel vectors, RREF rows, representatives,
coordinates, solutions) is divided once on the way out, through `Fraction`
over Q, and is equal in value and scalar type to what lead-1 elimination
gives.

Pivoting is deterministic: smallest column index first, then smallest row
index (`kernel_basis_sparse` numbers its rows in the order its columns meet
them; its output does not depend on that order).  Repeated calls on equal
inputs give identical output.
"""

import re
from fractions import Fraction
from math import gcd, lcm


class FieldMismatch(ValueError):
    pass


def _normal(x):
    """An integral rational as an int, any other as a Fraction."""
    return x.numerator if x.denominator == 1 else x


class Rationals:
    """The field Q.  A scalar is an int when integral, else a Fraction:
    almost every scalar met is an integer, and int arithmetic is several
    times faster than Fraction arithmetic."""

    tag = "Q"

    zero = 0
    one = 1

    def of(self, x):
        """Coerce an int, Fraction or 'a/b' string."""
        if type(x) is int:
            return x
        return _normal(x if type(x) is Fraction else Fraction(x))

    # add, sub, mul and addmul return an int result as it is; only a
    # Fraction result goes through _normal

    def add(self, a, b):
        x = a + b
        return x if type(x) is int else _normal(x)

    def sub(self, a, b):
        x = a - b
        return x if type(x) is int else _normal(x)

    def mul(self, a, b):
        x = a * b
        return x if type(x) is int else _normal(x)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("division by zero in Q")
        return _normal(Fraction(1) / a)

    def div(self, a, b):
        # through Fraction: int / int would give a float
        return _normal(Fraction(a) / b)

    def addmul(self, a, c, b):
        # a + c*b in one call; the elimination hot path.
        x = a + c * b
        return x if type(x) is int else _normal(x)

    def to_str(self, a):
        return str(a)

    # -- elimination ring of `Sweep`: the integers --

    def integral(self, vec, track):
        """Copies of vec and track, both times the one factor that clears
        their denominators, with int entries."""
        entries = [*vec.values(), *track.values()] if track else vec.values()
        for v in entries:
            if type(v) is not int:
                d = lcm(*[v.denominator for v in entries])
                return (_times(vec, d),
                        None if track is None else _times(track, d))
        return dict(vec), None if track is None else dict(track)

    @staticmethod
    def combine(dst, m, c, src):
        """dst <- m*dst - c*src in place, dropping zeros."""
        if m != 1:
            for k in dst:
                dst[k] *= m
        get = dst.get
        for k, v in src.items():
            w = get(k, 0) - c * v
            if w:
                dst[k] = w
            else:
                del dst[k]

    @staticmethod
    def primitive(lead, vec, track):
        """vec and track divided by the gcd of all their entries, signed
        so that the lead is positive."""
        g = gcd(*vec.values(), *track.values()) if track \
            else gcd(*vec.values())
        if vec[lead] < 0:
            g = -g
        if g == 1:
            return vec, track
        return ({k: v // g for k, v in vec.items()},
                track and {k: v // g for k, v in track.items()})

    def normalized(self, vec, d):
        """vec / d as field scalars: the one division on the way out."""
        of = self.of
        if d == 1:
            return {k: of(v) for k, v in vec.items()}
        return {k: of(v // d if v % d == 0 else Fraction(v, d))
                for k, v in vec.items()}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """GF(p); scalars are ints reduced mod p."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.tag = f"Fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        p = self.p
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return (x.numerator % p) * pow(den, p - 2, p) % p
        return int(x) % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def addmul(self, a, c, b):
        return (a + c * b) % self.p

    def to_str(self, a):
        return str(a % self.p)

    # -- elimination ring of `Sweep`: the field itself, lead-1 pivots --

    def integral(self, vec, track):
        return dict(vec), None if track is None else dict(track)

    def combine(self, dst, m, c, src):
        """dst <- dst - c*src in place, dropping zeros; m is 1, because
        every pivot has lead 1."""
        p = self.p
        get = dst.get
        for k, v in src.items():
            w = (get(k, 0) - c * v) % p
            if w:
                dst[k] = w
            else:
                del dst[k]

    def primitive(self, lead, vec, track):
        """vec and track scaled to lead 1."""
        a = vec[lead]
        if a == 1:
            return vec, track
        inv = self.inv(a)
        return scale(self, vec, inv), track and scale(self, track, inv)

    def normalized(self, vec, d):
        d %= self.p
        return dict(vec) if d == 1 else scale(self, vec, self.inv(d))

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.tag)


QQ = Rationals()

_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_scalar(field, text):
    """The scalar that text writes as an optional sign, ASCII digits and
    an optional /digits: the one grammar of relation coefficients and of
    bimodule-file entries.  ValueError on any other text, and
    ZeroDivisionError on a denominator that is zero in the field."""
    m = _SCALAR.fullmatch(text)
    if m is None:
        raise ValueError(f"{text!r} is not an integer or a fraction of "
                         "integers")
    num, den = m.groups()
    den = field.of(int(den or 1))
    if not den:
        raise ZeroDivisionError(f"zero denominator in {text}")
    return field.div(field.of(int(num)), den)


def field_from_tag(tag):
    if tag == "Q":
        return QQ
    if tag.startswith("Fp:"):
        digits = tag[3:]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"field tag {tag!r}: the modulus after Fp: "
                             "must be decimal digits")
        return PrimeField(int(digits))
    raise ValueError(f"unknown field tag {tag!r}")


# ---------------------------------------------------------------------------
# sparse vectors


def axpy(field, dst, c, src):
    """dst += c * src, in place, dropping zeros."""
    addmul = field.addmul
    mul = field.mul
    get = dst.get
    for k, v in src.items():
        cur = get(k)
        if cur is None:
            w = mul(c, v)
            if w:
                dst[k] = w
        else:
            w = addmul(cur, c, v)
            if w:
                dst[k] = w
            else:
                del dst[k]


def scale(field, vec, c):
    mul = field.mul
    return {k: mul(c, v) for k, v in vec.items()}


def _times(vec, d):
    """An int-valued copy of vec times d, d a common denominator."""
    return {k: v.numerator * (d // v.denominator) for k, v in vec.items()}


def dense(vec, n, field):
    out = [field.zero] * n
    for k, v in vec.items():
        out[k] = v
    return tuple(out)


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Sparse matrix, column-major.  Treat as immutable after construction."""

    __slots__ = ("rows", "cols", "field", "_cols")

    def __init__(self, rows, cols, field, cols_data=None):
        self.rows = rows
        self.cols = cols
        self.field = field
        self._cols = cols_data if cols_data is not None else {}

    @classmethod
    def from_entries(cls, rows, cols, field, entries):
        """entries: mapping (row, col) -> scalar-like."""
        data = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            v = field.of(v)
            if v:
                data.setdefault(c, {})[r] = v
        return cls(rows, cols, field, data)

    @classmethod
    def from_rows(cls, rows_list, field):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        data = {}
        for r, row in enumerate(rows_list):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = field.of(v)
                if v:
                    data.setdefault(c, {})[r] = v
        return cls(rows, cols, field, data)

    @classmethod
    def identity(cls, n, field):
        return cls(n, n, field, {j: {j: field.one} for j in range(n)})

    @classmethod
    def zero(cls, rows, cols, field):
        return cls(rows, cols, field, {})

    def column(self, j):
        return self._cols.get(j, {})

    def columns_items(self):
        return self._cols.items()

    def entry(self, r, c):
        return self._cols.get(c, {}).get(r, self.field.zero)

    def nnz(self):
        return sum(len(col) for col in self._cols.values())

    def is_zero(self):
        return not any(self._cols.values())

    def matvec(self, vec):
        """Apply to a sparse vector (dict over column indices)."""
        out = {}
        for j, c in vec.items():
            col = self._cols.get(j)
            if col:
                axpy(self.field, out, c, col)
        return out

    def apply(self, seq):
        """Apply to a dense sequence; returns a dense tuple."""
        if len(seq) != self.cols:
            raise ValueError("shape mismatch")
        vec = {i: self.field.of(v) for i, v in enumerate(seq) if v}
        return dense(self.matvec(vec), self.rows, self.field)

    def matmul(self, other):
        if other.rows != self.cols:
            raise ValueError("shape mismatch in matmul")
        if other.field != self.field:
            raise FieldMismatch("mixed fields in matmul")
        data = {}
        for j, col in other._cols.items():
            out = self.matvec(col)
            if out:
                data[j] = out
        return Mat(self.rows, other.cols, self.field, data)

    def transpose(self):
        data = {}
        for j, col in self._cols.items():
            for r, v in col.items():
                data.setdefault(r, {})[j] = v
        return Mat(self.cols, self.rows, self.field, data)

    def add(self, other, c=None):
        """self + c*other (c defaults to 1)."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        c = self.field.one if c is None else c
        data = {j: dict(col) for j, col in self._cols.items()}
        for j, col in other._cols.items():
            dst = data.setdefault(j, {})
            axpy(self.field, dst, c, col)
            if not dst:
                del data[j]
        return Mat(self.rows, self.cols, self.field, data)

    def scaled(self, c):
        data = {}
        for j, col in self._cols.items():
            sc = scale(self.field, col, c)
            if sc:
                data[j] = sc
        return Mat(self.rows, self.cols, self.field, data)

    def to_dense(self):
        out = [[self.field.zero] * self.cols for _ in range(self.rows)]
        for j, col in self._cols.items():
            for r, v in col.items():
                out[r][j] = v
        return out

    def to_strings(self):
        """The dense rows, each entry as the field writes it."""
        to_str = self.field.to_str
        return [[to_str(v) for v in row] for row in self.to_dense()]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.field == other.field and self._cols == other._cols

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field!r}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# elimination

# track key of the vector being solved for in `find` and `solve`; the keys
# of real tracks are column or vector indices, never negative
_QUERY = -1


class Sweep:
    """Incremental echelon of sparse vectors with combination tracking.

    Pivots are keyed by leading (smallest) index; a vector is reduced
    against existing pivots until its lead is fresh or it vanishes.  The
    pivot set after feeding columns left to right is exactly the RREF
    pivot-column set, which is what makes kernel output canonical.

    The sweep is fraction-free.  A vector entering it is scaled, track
    included, into the field's elimination ring (`field.integral`: over Q
    its denominators are cleared, so every scalar inside is an int).  A
    pivot keeps its lead as it is and is only made primitive when adopted
    (`field.primitive`: over Q the content of vector and track together is
    divided out; over GF(p) the lead is scaled to 1).  Reducing against a
    pivot p with lead L cross-multiplies,

        vec <- (p[L]/g) vec - (vec[L]/g) p,    g = gcd(vec[L], p[L]),

    and does the same to the track, so every vector met is a nonzero
    multiple of the one lead-1 pivots would give: the same leads are met
    and the same entries vanish.  What leaves the sweep is divided once
    (`field.normalized`), which makes the public results equal, in value,
    scalar type and key order, to those of lead-1 elimination.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # lead index -> (primitive vector, track)

    def reduce(self, vec, track=None):
        """(lead, vec, track): copies of vec and track in the elimination
        ring, reduced until the lead is fresh (lead None: vec vanished)."""
        field = self.field
        combine = field.combine
        pivots = self.pivots
        vec, track = field.integral(vec, track)
        while vec:
            lead = min(vec)
            hit = pivots.get(lead)
            if hit is None:
                return lead, vec, track
            pvec, ptrack = hit
            a = vec[lead]
            b = pvec[lead]
            g = gcd(a, b)
            m = b // g
            c = a // g
            combine(vec, m, c, pvec)
            if track is not None:
                combine(track, m, c, ptrack or {})
        return None, vec, track

    def adopt(self, lead, vec, track=None):
        """Adopt a reduced vector (from `reduce`) as the pivot at lead."""
        self.pivots[lead] = self.field.primitive(lead, vec, track)

    def insert(self, vec, track=None):
        """Reduce and adopt as a new pivot; returns the lead, or None if
        vec is dependent."""
        lead, vec, track = self.reduce(vec, track)
        if lead is not None:
            self.adopt(lead, vec, track)
        return lead

    def row(self, lead):
        """The pivot vector at lead, scaled to lead 1."""
        vec = self.pivots[lead][0]
        return self.field.normalized(vec, vec[lead])

    def solution(self, vec):
        """{key: c} with vec = sum of c times the vector inserted with
        track {key: 1} (modulo those inserted with an empty track), or None
        if vec is outside the span."""
        lead, _, track = self.reduce(vec, {_QUERY: self.field.one})
        if lead is not None:
            return None
        # 0 = track[_QUERY] * vec + sum of track[key] * vector[key]
        return self.field.normalized(track, -track.pop(_QUERY))

    def rref(self):
        """[(lead, row)], leads ascending: the reduced row echelon basis of
        the span, each row primitive and zero at every other lead.  The
        back reduction cross-multiplies too; rows are not normalized."""
        field = self.field
        combine = field.combine
        reduced = {}
        for lead in sorted(self.pivots, reverse=True):
            vec = dict(self.pivots[lead][0])
            for other, ovec in reduced.items():
                a = vec.get(other)
                if a is not None:
                    b = ovec[other]
                    g = gcd(a, b)
                    combine(vec, b // g, a // g, ovec)
            reduced[lead] = field.primitive(lead, vec, None)[0]
        return sorted(reduced.items())

    @property
    def rank(self):
        return len(self.pivots)


def rank(m):
    """Rank over the matrix's field.

    The columns go into the sweep last to first.  Rank does not depend on
    the order, only the work does, and no other output comes from this
    sweep; every other sweep here keeps forward column order, because its
    output (the RREF-canonical kernel, representatives, solutions) depends
    on it.  `kernel_basis_sparse` alone renumbers its rows.
    """
    sweep = Sweep(m.field)
    # last to first: on the 107 normalized differentials of the hh_deep
    # benchmark ladder, 16,292 reduction steps and 104,371 combined entries
    # in place of 22,412 and 337,440
    for j in range(m.cols - 1, -1, -1):
        col = m.column(j)
        if col:
            sweep.insert(col)
    return sweep.rank


def kernel_basis_sparse(m):
    """Right null space basis as sparse dicts, RREF-canonical order.

    The track of a column that sweeps to zero is a multiple of the kernel
    vector with coefficient 1 at that (free) column and RREF coefficients
    elsewhere; dividing by its entry at the free column gives that vector.

    Rows are renumbered as the columns are fed: the first column to meet a
    row numbers it, below every number given before (latest first).  So a
    column that meets a new row leads there at once, is adopted with no
    reduction step, and is never met by the columns before it.  The result
    does not depend on the row order.  Columns still go in forward order,
    and column j is a pivot exactly when it is independent of the columns
    before it, so the free columns are the same for any row order.  The
    track of a free column j is supported on j and the pivot columns
    before it, and the kernel vector with 1 at j and that support is
    unique, because those pivot columns are independent.  Only the
    fill-in changes: over the 201 kernels of one verify-paper run the
    reduction steps combine 150,439 pivot entries in place of 516,154.
    """
    field = m.field
    sweep = Sweep(field)
    one = field.one
    number = {}
    out = []
    for j in range(m.cols):
        col = {}
        for r, v in m.column(j).items():
            k = number.get(r)
            if k is None:
                k = number[r] = -len(number)
            col[k] = v
        lead, vec, track = sweep.reduce(col, {j: one})
        if lead is None:
            out.append(field.normalized(track, track[j]))
        else:
            sweep.adopt(lead, vec, track)
    return out


def kernel_basis(m):
    """Kernel basis as dense tuples (deterministic; see module docstring)."""
    return [dense(v, m.cols, m.field) for v in kernel_basis_sparse(m)]


def echelon_basis(vectors, field):
    """Canonical RREF basis of the span of sparse vectors."""
    sweep = Sweep(field)
    for v in vectors:
        if v:
            sweep.insert(v)
    return [field.normalized(row, row[lead]) for lead, row in sweep.rref()]


def quotient_basis(field, cycles, boundaries):
    """Representatives of span(cycles) modulo span(boundaries).

    Each cycle in turn is reduced against the boundaries' RREF and the
    representatives kept so far; a survivor is scaled to lead 1 and kept.
    The boundaries' primitive RREF rows become the pivots the cycles meet
    as they are.  Returns (reps, boundary_rref), the RREF scaled to lead 1.
    """
    sweep = Sweep(field)
    for v in boundaries:
        if v:
            sweep.insert(v)
    rref = sweep.rref()
    sweep.pivots = {lead: (row, None) for lead, row in rref}
    reps = []
    for z in cycles:
        lead = sweep.insert(z)
        if lead is not None:
            reps.append(sweep.row(lead))
    return reps, [field.normalized(row, row[lead]) for lead, row in rref]


class SubspaceCoords:
    """Coordinates with respect to a fixed independent family of vectors,
    modulo the span of an echelon list (empty by default)."""

    def __init__(self, field, vectors, modulo=()):
        self.field = field
        self.vectors = vectors
        self.sweep = Sweep(field)
        for row in modulo:
            self.sweep.insert(row, {})
        for j, v in enumerate(vectors):
            if self.sweep.insert(v, {j: field.one}) is None:
                raise ValueError("vectors are dependent")

    def find(self, vec):
        """{j: c} with vec = sum c_j vectors[j] modulo the span, or None."""
        return self.sweep.solution(vec)

    def coords(self, vec):
        out = self.find(vec)
        if out is None:
            raise ValueError("vector outside the subspace")
        return out


def reduce_mod(vec, echelon, field):
    """Normal form of a sparse vector modulo an RREF list."""
    vec = dict(vec)
    for row in echelon:
        lead = min(row)
        c = vec.get(lead)
        if c is not None:
            axpy(field, vec, field.neg(c), row)
    return vec


def solve(m, b):
    """Some x with m*x = b, or None.  b is a dense sequence or sparse dict."""
    field = m.field
    if isinstance(b, dict):
        bvec = b
    else:
        if len(b) != m.rows:
            raise ValueError("shape mismatch in solve")
        bvec = {i: field.of(v) for i, v in enumerate(b) if field.of(v)}
    sweep = Sweep(field)
    one = field.one
    for j in range(m.cols):
        col = m.column(j)
        if col:
            sweep.insert(col, {j: one})
        # an identically zero column can never be a pivot; skip
    x = sweep.solution(bvec)
    return None if x is None else dense(x, m.cols, field)


def same_subspace(vectors_a, vectors_b, field):
    """Exact equality of spans via canonical echelon bases."""
    return echelon_basis(vectors_a, field) == echelon_basis(vectors_b, field)
