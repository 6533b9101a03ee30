"""JSON interchange: rationals as strings, structure constants, subspaces, forms.

File indices are 1-based; internal indices are 0-based. Rationals are strings
"p" or "p/q" with q > 0 (floats are rejected so nothing ever rounds).
Dimensions and indices must have type `int` exactly: `bool` is a subclass of
`int`, and JSON `true` must not pass for 1.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .liealg import LieAlgebra
from .linalg import Matrix, Subspace

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class InputError(ValueError):
    """Malformed input file or value."""


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise InputError(f"not a rational: {value!r} (use 'p' or 'p/q')")
        num, _, den = text.partition("/")
        if den:
            if int(den) == 0:
                raise InputError(f"zero denominator in {value!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    raise InputError(f"not a rational: {value!r} (floats are not accepted)")


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vector_to_json(vec) -> list[str]:
    return [format_rational(x) for x in vec]


def vector_from_json(values, length: int | None = None) -> tuple[Fraction, ...]:
    vec = tuple(parse_rational(v) for v in values)
    if length is not None and len(vec) != length:
        raise InputError(f"expected vector of length {length}, got {len(vec)}")
    return vec


def algebra_to_json(g: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(g.brackets):
        terms = [
            {"k": k + 1, "c": format_rational(c)}
            for k, c in sorted(g.brackets[(i, j)].items())
        ]
        brackets.append({"i": i + 1, "j": j + 1, "terms": terms})
    return {"dim": g.dim, "labels": list(g.labels), "brackets": brackets}


def _list_of(value, kind: type, what: str) -> list:
    """value as a list of `kind` (dict or list) entries, else InputError."""
    if not isinstance(value, list) or not all(isinstance(x, kind) for x in value):
        raise InputError(f"{what} must be a list of {'objects' if kind is dict else 'lists'}")
    return value


def algebra_from_json(obj, check: bool = True) -> LieAlgebra:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise InputError("structure-constant JSON needs at least a 'dim' field")
    dim = obj["dim"]
    if type(dim) is not int or dim < 0:
        raise InputError(f"bad dimension {dim!r}")
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != dim):
        raise InputError(f"expected a list of {dim} labels, got {labels!r}")
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in _list_of(obj.get("brackets", []), dict, "'brackets'"):
        i, j = entry.get("i"), entry.get("j")
        if type(i) is not int or type(j) is not int:
            raise InputError(f"bracket entry {entry!r} needs integer 'i' and 'j'")
        if not (1 <= i < j <= dim):
            raise InputError(f"bracket pair ({i},{j}) must satisfy 1 <= i < j <= {dim}")
        if (i - 1, j - 1) in table:
            raise InputError(f"duplicate bracket entry for ({i},{j})")
        terms: dict[int, Fraction] = {}
        for term in _list_of(entry.get("terms", []), dict, f"'terms' of bracket ({i},{j})"):
            k = term.get("k")
            if type(k) is not int or not 1 <= k <= dim:
                raise InputError(f"bracket target index {k!r} out of range 1..{dim}")
            if k - 1 in terms:
                raise InputError(f"duplicate target {k} in bracket ({i},{j})")
            c = parse_rational(term.get("c", "1"))
            if c:
                terms[k - 1] = c
        if terms:
            table[(i - 1, j - 1)] = terms
    try:
        return LieAlgebra(dim, table, labels, check=check)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def load_algebra(text: str, check: bool = True) -> LieAlgebra:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return algebra_from_json(obj, check=check)


def subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient,
        "vectors": [vector_to_json(row) for row in s.rows],
    }


def subspace_from_json(obj) -> Subspace:
    if not isinstance(obj, dict) or "ambient_dim" not in obj:
        raise InputError("subspace JSON needs 'ambient_dim' and 'vectors'")
    ambient = obj["ambient_dim"]
    if type(ambient) is not int or ambient < 0:
        raise InputError(f"bad ambient dimension {ambient!r}")
    entries = _list_of(obj.get("vectors", []), list, "'vectors'")
    return Subspace.spanned_by(ambient, [vector_from_json(v, ambient) for v in entries])


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [vector_to_json(row) for row in m.rows]


def matrix_from_json(rows, size: int | None = None) -> Matrix:
    parsed = [vector_from_json(r, size) for r in rows]
    if size is None and parsed:
        size = len(parsed[0])
    return Matrix.from_rows(parsed, size or 0)
