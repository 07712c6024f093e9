"""Reading and writing complexes as versioned JSON documents.

The document stores the maximal cells only (cubical corner arrays in bit
order, simplicial facet vertex lists) plus optional topology metadata.
Serialization is deterministic down to the byte: cells are written in the
builder's sorted order with a fixed key order and fixed indentation.

Schema problems raise :class:`ParseError` with a position; documents that
are well-formed but fail complex validation or contradict their topology
tag raise :class:`ValidationFailed`.
"""

from __future__ import annotations

import json

from .complexes import (
    ComplexError,
    CubicalCell,
    CubicalComplex,
    SimplicialComplex,
    ValidationFailed,
    _check_corners,
)
from .generators import GeneratedComplex, as_generated, check_topology_metadata

__all__ = ["FORMAT_VERSION", "ParseError", "to_document", "serializes", "serialize", "parses", "parse"]

FORMAT_VERSION = "1"


class ParseError(ValueError):
    """A document that does not match the schema, with a best-effort position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None, where: str | None = None):
        self.line = line
        self.column = column
        self.where = where
        prefix = ""
        if line is not None:
            prefix = f"line {line}, column {column}: " if column is not None else f"line {line}: "
        elif where:
            prefix = f"{where}: "
        super().__init__(prefix + message)


def to_document(x) -> dict:
    """Plain-data form of a complex with its metadata."""
    gc = as_generated(x)
    C = gc.complex
    doc: dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "kind": C.kind,
        "dim": C.dim,
    }
    if gc.topology != "none":
        doc["topology"] = gc.topology
    if gc.polytopal:
        doc["polytopal"] = True
    if gc.provenance:
        doc["provenance"] = gc.provenance
    doc["cells"] = [list(cell.corners) for cell in C.cells]
    return doc


def serializes(x) -> str:
    return json.dumps(to_document(x), indent=2) + "\n"


def serialize(x, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serializes(x))


def _need(doc: dict, field: str, types):
    if field not in doc:
        raise ParseError(f"missing field {field!r}")
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ParseError(f"field {field!r} has the wrong type, got {type(value).__name__}")
    return value


_KNOWN_FIELDS = {"format_version", "kind", "dim", "cells", "topology", "polytopal", "provenance"}


def parses(text: str) -> GeneratedComplex:
    """Parse a document string into a validated complex with metadata."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from None
    except RecursionError:
        raise ParseError("the document nests arrays or objects too deeply") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParseError("a number has too many digits to read") from None
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - _KNOWN_FIELDS)
    if unknown:
        raise ParseError(f"unknown field {unknown[0]!r}")
    version = _need(doc, "format_version", str)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}")
    kind = _need(doc, "kind", str)
    if kind not in ("cubical", "simplicial"):
        raise ParseError(f"kind must be 'cubical' or 'simplicial', got {kind!r}")
    dim = _need(doc, "dim", int)
    raw_cells = _need(doc, "cells", list)
    topology = "none"
    if "topology" in doc:
        topology = _need(doc, "topology", str)
    polytopal = False
    if "polytopal" in doc:
        polytopal = doc["polytopal"]
        if not isinstance(polytopal, bool):
            raise ParseError("field 'polytopal' must be a boolean")
    provenance = ""
    if "provenance" in doc:
        provenance = _need(doc, "provenance", str)

    def cells():  # one at a time, so a builder meets a bad cell in document order
        for idx, raw in enumerate(raw_cells):
            where = f"cells[{idx}]"
            if not isinstance(raw, list) or not raw:
                raise ParseError("each cell is a nonempty list of vertex ids", where=where)
            n = len(raw)
            try:
                if kind == "cubical" and not n & (n - 1):
                    raw = CubicalCell(n.bit_length() - 1, tuple(raw))
                elif kind == "cubical":
                    _check_corners(raw)  # an id error wins over the corner count
                    raise ValueError(f"a cubical cell needs a power-of-two corner count, got {n}")
            except ValueError as e:
                raise ParseError(str(e), where=where) from None
            yield raw  # from_facets gates a simplicial facet and names its position

    try:
        if kind == "cubical":
            C = CubicalComplex.from_cells(cells()) if raw_cells else CubicalComplex.empty()
        else:
            C = SimplicialComplex.from_facets(cells()) if raw_cells else SimplicialComplex.empty()
    except ValueError as e:
        if hasattr(e, "facet"):
            raise ParseError(str(e), where=f"cells[{e.facet}]") from None
        if not isinstance(e, ComplexError):
            raise
        raise ValidationFailed(f"cells do not form a complex: {e}") from e
    if C.dim != dim:
        raise ValidationFailed(f"declared dim {dim} but the cells span dim {C.dim}")
    gc = GeneratedComplex(C, topology, provenance, polytopal)
    check_topology_metadata(gc)
    return gc


def parse(path) -> GeneratedComplex:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}") from None
    return parses(text)
