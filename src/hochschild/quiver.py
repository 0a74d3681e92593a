"""Quivers, paths, linear combinations of paths, bound-quiver presentations.

Composition convention, fixed once for the whole library: in the word
``a*b`` the path ``a`` is traversed first, so the composite exists when
``target(a) == source(b)``.  Every action convention downstream follows
from this single choice.
"""

import re
from dataclasses import dataclass, field as dc_field

from .linalg import QQ, parse_scalar


class RelationSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """A finite quiver: named vertices and named arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        self.arrows = []
        seen = set(self.vertices)
        byname = {}
        for a in arrows:
            if not isinstance(a, Arrow):
                a = Arrow(*a)
            if a.name in byname or a.name in seen:
                raise ValueError(f"duplicate name {a.name!r}")
            if a.source not in self.vertices or a.target not in self.vertices:
                raise ValueError(f"arrow {a.name!r} has unknown endpoint")
            byname[a.name] = a
            self.arrows.append(a)
        self.arrow_by_name = byname
        self._out = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._out[a.source].append(a)

    def arrows_from(self, v):
        return self._out[v]

    def trivial_path(self, v):
        if v not in self._out:
            raise ValueError(f"unknown vertex {v!r}")
        return Path(v, v, ())

    def arrow_path(self, name):
        a = self.arrow_by_name.get(name)
        if a is None:
            raise ValueError(f"unknown arrow {name!r}")
        return Path(a.source, a.target, (name,))

    def path(self, *arrow_names):
        """Path from a sequence of arrow names; raises if not composable."""
        if not arrow_names:
            raise ValueError("empty path needs a vertex; use trivial_path")
        p = self.arrow_path(arrow_names[0])
        for name in arrow_names[1:]:
            q = compose(p, self.arrow_path(name))
            if q is None:
                raise ValueError(f"non-composable word {'*'.join(arrow_names)}")
            p = q
        return p

    def is_acyclic(self):
        state = {}  # 0 = in progress, 1 = done

        def visit(v):
            state[v] = 0
            for a in self._out[v]:
                w = a.target
                s = state.get(w)
                if s == 0:
                    return False
                if s is None and not visit(w):
                    return False
            state[v] = 1
            return True

        return all(visit(v) for v in self.vertices if v not in state)

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


@dataclass(frozen=True)
class Path:
    """A path in a quiver; empty arrow tuple means the trivial path e_source."""

    source: str
    target: str
    arrows: tuple = ()

    def __len__(self):
        return len(self.arrows)

    @property
    def is_trivial(self):
        return not self.arrows

    def label(self):
        return "*".join(self.arrows) if self.arrows else f"e_{self.source}"

    def sort_key(self):
        # length first, then arrow names, then source (separates trivial paths)
        return (len(self.arrows), self.arrows, self.source)

    def __repr__(self):
        return f"Path({self.label()}: {self.source}->{self.target})"


def format_linear_combination(pairs, field):
    """Render (coefficient, word) pairs in the relation grammar: unit
    coefficients are dropped and signs become separators."""
    bits = []
    for k, (c, word) in enumerate(pairs):
        s = field.to_str(c)
        neg = s.startswith("-")
        mag = s[1:] if neg else s
        term = word if mag == "1" else f"{mag}*{word}"
        if k == 0:
            bits.append(("-" if neg else "") + term)
        else:
            bits.append(("- " if neg else "+ ") + term)
    return " ".join(bits) if bits else "0"


def compose(p1, p2):
    """p1 then p2, or None when the endpoints do not match."""
    if p1.target != p2.source:
        return None
    return Path(p1.source, p2.target, p1.arrows + p2.arrows)


class PathSum:
    """Formal linear combination of paths; zero coefficients are dropped."""

    def __init__(self, terms, field=QQ):
        self.field = field
        self.terms = {}
        for p, c in (terms.items() if isinstance(terms, dict) else terms):
            c = field.of(c)
            if not c:
                continue
            cur = self.terms.get(p)
            c = field.add(cur, c) if cur is not None else c
            if c:
                self.terms[p] = c
            else:
                del self.terms[p]

    def is_zero(self):
        return not self.terms

    def paths(self):
        return sorted(self.terms, key=Path.sort_key)

    def is_relation_form(self):
        """All terms parallel and of length >= 2."""
        if not self.terms:
            return False
        ends = {(p.source, p.target) for p in self.terms}
        return len(ends) == 1 and all(len(p) >= 2 for p in self.terms)

    def endpoints(self):
        ends = {(p.source, p.target) for p in self.terms}
        if len(ends) != 1:
            raise ValueError("terms are not parallel")
        return next(iter(ends))

    def scaled(self, c):
        c = self.field.of(c)
        return PathSum({p: self.field.mul(c, v) for p, v in self.terms.items()},
                       self.field)

    def __add__(self, other):
        terms = dict(self.terms)
        out = PathSum(terms, self.field)
        for p, c in other.terms.items():
            cur = out.terms.get(p)
            c = self.field.add(cur, c) if cur is not None else c
            if c:
                out.terms[p] = c
            else:
                del out.terms[p]
        return out

    def __eq__(self, other):
        return isinstance(other, PathSum) and self.field == other.field \
            and self.terms == other.terms

    def label(self):
        pairs = [(self.terms[p], p.label()) for p in self.paths()]
        return format_linear_combination(pairs, self.field)

    def __repr__(self):
        return f"PathSum({self.label()})"


@dataclass
class Presentation:
    """A quiver with a field and a list of relation-form PathSums."""

    quiver: Quiver
    field: object = QQ
    relations: list = dc_field(default_factory=list)

    def __post_init__(self):
        for r in self.relations:
            if not isinstance(r, PathSum) or not r.is_relation_form():
                raise ValueError(
                    "relations must be parallel path sums of length >= 2")


def paths_up_to(quiver, length):
    """All paths of length <= length, ordered by (length, arrow names).

    Trivial paths come first, ordered by source vertex name.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    out = [quiver.trivial_path(v) for v in sorted(quiver.vertices)]
    layer = list(out)
    for _ in range(length):
        nxt = []
        for p in layer:
            for a in quiver.arrows_from(p.target):
                nxt.append(Path(p.source, a.target, p.arrows + (a.name,)))
        layer = nxt
        out.extend(sorted(layer, key=Path.sort_key))
        if not layer:
            break
    return out


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[*/+-])")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise RelationSyntaxError(f"bad character at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_relation(text, quiver, field=QQ):
    """Parse `term (+|- term)*` with term `[coeff*]arrow(*arrow)+`.

    Rejects non-parallel terms and words of length < 2; whitespace is
    insignificant; coefficients are integers or integer fractions.
    """
    ps = parse_path_sum(text, quiver, field)
    if ps.is_zero():
        raise RelationSyntaxError(f"relation {text!r} is zero")
    if not ps.is_relation_form():
        ends = {(p.source, p.target) for p in ps.terms}
        if len(ends) > 1:
            raise RelationSyntaxError(f"terms of {text!r} are not parallel")
        raise RelationSyntaxError(f"relation {text!r} has a path of length < 2")
    return ps


def parse_path_sum(text, quiver, field=QQ):
    """Parse a linear combination of arrow words (any length >= 1)."""
    tokens = _tokenize(text)
    if not tokens:
        raise RelationSyntaxError("empty relation")
    terms = []
    i = 0
    sign = 1
    if tokens[0] in "+-":
        sign = -1 if tokens[0] == "-" else 1
        i = 1
    while i < len(tokens):
        i, path, coeff = _parse_term(tokens, i, quiver, field)
        terms.append((path, field.mul(field.of(sign), coeff)))
        if i == len(tokens):
            break
        if tokens[i] not in "+-":
            raise RelationSyntaxError(f"expected + or - near {tokens[i]!r}")
        sign = -1 if tokens[i] == "-" else 1
        i += 1
        if i == len(tokens):
            raise RelationSyntaxError("dangling sign")
    return PathSum(terms, field)


def _parse_term(tokens, i, quiver, field):
    coeff = field.one
    if tokens[i].isdigit():
        text = tokens[i]
        i += 1
        if i < len(tokens) and tokens[i] == "/":
            if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                raise RelationSyntaxError("bad fraction coefficient")
            text += "/" + tokens[i + 1]
            i += 2
        try:
            coeff = parse_scalar(field, text)
        except ZeroDivisionError:
            raise RelationSyntaxError(
                f"zero denominator in coefficient {text}") from None
        if i >= len(tokens) or tokens[i] != "*":
            raise RelationSyntaxError("coefficient must be followed by *")
        i += 1
    names = []
    while True:
        if i >= len(tokens) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tokens[i]):
            raise RelationSyntaxError("expected an arrow name")
        names.append(tokens[i])
        i += 1
        if i < len(tokens) and tokens[i] == "*":
            i += 1
            continue
        break
    path = None
    for name in names:
        if name not in quiver.arrow_by_name:
            raise RelationSyntaxError(f"unknown arrow {name!r}")
        nxt = quiver.arrow_path(name)
        path = nxt if path is None else compose(path, nxt)
        if path is None:
            raise RelationSyntaxError(f"non-composable word {'*'.join(names)}")
    return i, path, coeff
