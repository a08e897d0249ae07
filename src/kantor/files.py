"""JSON file format for algebras.

Schema::

    {
      "name": "T13",
      "dim": 3,
      "basis": ["e1", "e2", "e3"],          # optional, defaults to e1..en
      "params": ["alpha"],                   # optional
      "constraints": ["a*b"],                # optional monomials in the params
      "table": [ {"i": 1, "j": 2, "k": 2, "coeff": "1/2"}, ... ]
    }

Indices are 1-based JSON integers and omitted entries are zero, matching
the customary way multiplication tables are printed.  Coefficient strings
use the canonical polynomial syntax and may only mention declared
parameters.  Each constraint is a single monomial of positive degree in
the parameters: identities are checked modulo the ideal they generate.
Rendering is canonical: sorted table entries, canonical coefficient
strings.
"""

from __future__ import annotations

import json
from typing import Dict

from .algebra import Algebra, Multiplication
from .errors import IndexOutOfRange, ParseError, UndeclaredParam
from .identities import _monomial_generators
from .poly import Poly, parse_poly


def _is_int(value) -> bool:
    """A JSON integer; ``json`` reads ``true`` and ``false`` as bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_algebra(text: str) -> Algebra:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")

    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("must be a string", field="name")
    dim = data.get("dim")
    if not _is_int(dim) or dim < 1:
        raise ParseError("must be a positive integer", field="dim")

    basis = data.get("basis", [f"e{i + 1}" for i in range(dim)])
    if not isinstance(basis, list) or len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise ParseError(f"must be a list of {dim} strings", field="basis")

    params = data.get("params", [])
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise ParseError("must be a list of strings", field="params")

    texts = data.get("constraints", [])
    if not isinstance(texts, list) or not all(isinstance(c, str) for c in texts):
        raise ParseError("must be a list of strings", field="constraints")
    constraints = []
    for idx, c in enumerate(texts):
        try:
            poly = parse_poly(c, allowed=params)
            _monomial_generators([poly])
        except (ParseError, ValueError) as exc:
            raise ParseError(str(exc), field=f"constraints[{idx}]") from None
        constraints.append(poly)

    table = data.get("table", [])
    if not isinstance(table, list):
        raise ParseError("must be a list of entries", field="table")
    entries: Dict = {}
    for idx, row in enumerate(table):
        where = f"table[{idx}]"
        if not isinstance(row, dict):
            raise ParseError("entry must be an object", field=where)
        index = [row.get(name) for name in ("i", "j", "k")]
        if not all(_is_int(v) for v in index):
            raise ParseError("entry needs integer i, j, k", field=where)
        i, j, k = index
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise IndexOutOfRange(f"{where}: ({i},{j},{k}) out of range for dim {dim}")
        coeff = row.get("coeff", "1")
        if _is_int(coeff):
            coeff = str(coeff)
        if not isinstance(coeff, str):
            raise ParseError("coeff must be a string or integer", field=where)
        try:
            poly = parse_poly(coeff, allowed=params)
        except ParseError:
            try:
                parse_poly(coeff)
            except ParseError as exc:
                raise ParseError(str(exc), field=where) from None
            raise UndeclaredParam(f"{where}: coefficient {coeff!r} uses undeclared names")
        entries[(i, j, k)] = entries.get((i, j, k), Poly.zero()) + poly

    mult = Multiplication.from_table(dim, entries)
    return Algebra(name or "anonymous", mult, labels=tuple(basis), params=tuple(params),
                   constraints=tuple(constraints))


def render_algebra(algebra: Algebra) -> str:
    data = {
        "name": algebra.name,
        "dim": algebra.dim,
        "basis": list(algebra.labels),
        "params": sorted(algebra.params),
        "constraints": [str(c) for c in algebra.constraints],
        "table": [
            {"i": i, "j": j, "k": k, "coeff": str(coeff)}
            for (i, j, k), coeff in sorted(algebra.mult.table().items())
        ],
    }
    return json.dumps(data, indent=2) + "\n"
