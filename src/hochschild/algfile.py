"""JSON algebra files: the input format of the command line.

    {"field": "Q" | "Fp:<prime>",
     "vertices": ["1", ...],
     "arrows": [{"name": "alpha", "from": "1", "to": "2"}, ...],
     "relations": ["alpha*beta", "a*c - 2*b*d", ...]}

A bimodule file supplies explicit action matrices over the basis order of
an already-built algebra:

    {"dimension": n,
     "left":  [matrix, ...one per algebra basis vector...],
     "right": [matrix, ...],
     "labels": [...optional...]}

with matrices as nested lists of exact rational strings.
"""

import hashlib
import json
from importlib import resources

from .bimodule import Bimodule
from .linalg import Mat, field_from_tag
from .quiver import Presentation, Quiver, parse_relation

BUNDLED = ["ex3_5_C", "ex3_5_B", "ex3_8_C", "ex3_8_B", "ex5_9_C", "square"]


class AlgebraFileError(ValueError):
    pass


def canonical_bytes(data):
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n") \
        .encode()


def input_hash(data):
    return hashlib.sha256(canonical_bytes(data)).hexdigest()


def parse_algebra_file(data, expect_field=None):
    """Validate and build the presentation described by a JSON object."""
    try:
        field_tag = data["field"]
        vertices = data["vertices"]
        arrows = data["arrows"]
        relations = data.get("relations", [])
    except (KeyError, TypeError) as exc:
        raise AlgebraFileError(f"missing key in algebra file: {exc}")
    if expect_field is not None and field_tag != expect_field:
        raise AlgebraFileError(
            f"file is over {field_tag!r} but {expect_field!r} was requested")
    if not isinstance(field_tag, str):
        raise AlgebraFileError(f"field tag must be a string, not {field_tag!r}")
    field = field_from_tag(field_tag)
    try:
        quiver = Quiver(vertices, [(a["name"], a["from"], a["to"])
                                   for a in arrows])
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraFileError(f"bad quiver data: {exc}")
    if not isinstance(relations, list) \
            or not all(isinstance(text, str) for text in relations):
        raise AlgebraFileError("relations must be a list of strings")
    rels = [parse_relation(text, quiver, field) for text in relations]
    return Presentation(quiver, field, rels)


def load_algebra_file(path, expect_field=None):
    with open(path) as fh:
        data = json.load(fh)
    return data, parse_algebra_file(data, expect_field=expect_field)


def load_bundled(name):
    if name not in BUNDLED:
        raise AlgebraFileError(f"no bundled algebra named {name!r}")
    text = resources.files("hochschild.data").joinpath(f"{name}.json") \
        .read_text()
    data = json.loads(text)
    return data, parse_algebra_file(data)


def emit_algebra_file(presentation):
    """The JSON object describing a presentation (relations re-serialized)."""
    quiver = presentation.quiver
    relations = [r.label() for r in presentation.relations]
    return {
        "field": presentation.field.tag,
        "vertices": list(quiver.vertices),
        "arrows": [{"name": a.name, "from": a.source, "to": a.target}
                   for a in quiver.arrows],
        "relations": relations,
    }


def parse_bimodule_file(data, algebra):
    try:
        dim = data["dimension"]
        left = data["left"]
        right = data["right"]
    except (KeyError, TypeError) as exc:
        raise AlgebraFileError(f"missing key in bimodule file: {exc}")
    if type(dim) is not int or dim < 0:
        raise AlgebraFileError("bimodule dimension must be a non-negative "
                               f"integer, not {dim!r}")
    if not isinstance(left, list) or not isinstance(right, list) \
            or len(left) != algebra.dim or len(right) != algebra.dim:
        raise AlgebraFileError("need one action matrix per algebra basis vector")
    field = algebra.field

    def mat(rows):
        if not isinstance(rows, list) or len(rows) != dim \
                or not all(isinstance(r, list) and len(r) == dim
                           for r in rows):
            raise AlgebraFileError("action matrix has the wrong shape")
        try:
            return Mat.from_rows([[field.of(v) for v in row] for row in rows],
                                 field)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise AlgebraFileError(f"bad action matrix entry: {exc}")

    labels = data.get("labels")
    if labels is not None and (
            not isinstance(labels, list) or len(labels) != dim
            or not all(isinstance(label, str) for label in labels)):
        raise AlgebraFileError("labels must be a list of one string per "
                               "basis vector")
    return Bimodule(algebra, dim, [mat(m) for m in left],
                    [mat(m) for m in right], labels=labels, product=None)


def load_bimodule_file(path, algebra):
    with open(path) as fh:
        data = json.load(fh)
    return parse_bimodule_file(data, algebra)

