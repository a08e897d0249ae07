"""The algebra U(n) of bilinear multiplications under the Kantor bracket.

U(n) is spanned by the elementary multiplications a(i,j)^k defined by
a(i,j)^k(v_t, v_l) = delta_it delta_jl v_k.  The bracket of two elements
is their Kantor product with respect to a reference vector, decomposed
back into elementary multiplications; the reference vector defaults to
the first basis vector v_1, which is the choice that reproduces the
classical U(2) table.  ``un_table`` builds each elementary tensor and the
nonzero entries of its operator x -> a(u, x) once, n^3 of each, and lets
every operator act on every tensor: n^4 ``multiply`` calls in all.  Each
bracket goes from the contraction's entry map (``product._act``) straight
to its ``UnElement``, through ``UnElement._from_entries``: no tensor is
built in between and nothing is checked twice.  An operator that is zero
(u_i = 0 for a(i,j)^k) gives zero rows, all one shared zero element,
without acting.  The public constructor ``UnElement(n, coeffs)`` still
checks every index and coerces every coefficient; either way ``coeffs``
holds nonzero values in sorted index order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .algebra import Element, Multiplication, render_combination
from .errors import DimMismatch, IndexOutOfRange
from .poly import Poly, _coerce_strict
from .product import _act, _sparse, kantor_product, left_operator

Index = Tuple[int, int, int]


def elementary(i: int, j: int, k: int, n: int) -> Multiplication:
    """The elementary multiplication a(i,j)^k on an n-dimensional space."""
    if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
        raise IndexOutOfRange(f"({i},{j},{k}) out of range for U({n})")
    return Multiplication.from_table(n, {(i, j, k): 1})


def _index_order(idx: Index):
    i, j, k = idx
    return (k, i, j)


class UnElement:
    """A finite combination of elementary multiplications."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Dict[Index, Poly] | None = None):
        cleaned: Dict[Index, Poly] = {}
        for idx, value in (coeffs or {}).items():
            i, j, k = idx
            if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
                raise IndexOutOfRange(f"{idx} out of range for U({n})")
            poly = _coerce_strict(value)
            if not poly.is_zero():
                cleaned[idx] = poly
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", dict(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("UnElement is immutable")

    @staticmethod
    def basis(i: int, j: int, k: int, n: int) -> "UnElement":
        return UnElement(n, {(i, j, k): Poly.const(1)})

    @staticmethod
    def _from_entries(n: int, entries: Dict[Index, Poly]) -> "UnElement":
        """The element with these in-range, 0-based entries, trusted as they are.

        Keys are made 1-based and sorted and zero values dropped, as
        ``UnElement(n, m.table())`` would, but nothing is checked again.
        """
        element = object.__new__(UnElement)
        object.__setattr__(element, "n", n)
        object.__setattr__(element, "coeffs", {
            (i + 1, j + 1, k + 1): value
            for (i, j, k), value in sorted(entries.items())
            if not value.is_zero()
        })
        return element

    @staticmethod
    def from_mult(m: Multiplication) -> "UnElement":
        return UnElement._from_entries(m.dim, m.entries)

    def to_mult(self) -> Multiplication:
        return Multiplication.from_table(self.n, dict(self.coeffs))

    def __add__(self, other: "UnElement") -> "UnElement":
        if self.n != other.n:
            raise DimMismatch("U(n) elements of different n")
        out = dict(self.coeffs)
        for idx, value in other.coeffs.items():
            out[idx] = out.get(idx, Poly.zero()) + value
        return UnElement(self.n, out)

    def scale(self, factor) -> "UnElement":
        return UnElement(self.n, {idx: value * factor for idx, value in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, UnElement) and self.n == other.n and self.coeffs == other.coeffs

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        return render_combination(
            (self.coeffs[(i, j, k)], f"a({i},{j})^{k}")
            for i, j, k in sorted(self.coeffs, key=_index_order)
        )

    def __repr__(self) -> str:
        return f"UnElement({self})"


def _reference_vector(n: int, u: Element | None) -> Element:
    """The reference vector of U(n): u itself, or v_1 when it is omitted."""
    if u is None:
        return Element.basis(n, 0)
    if u.dim != n:
        raise DimMismatch("reference vector has the wrong dimension")
    return u


def un_bracket(x: UnElement, y: UnElement, u: Element | None = None) -> UnElement:
    """Kantor bracket of two U(n) elements; u defaults to v_1."""
    if x.n != y.n:
        raise DimMismatch("U(n) elements of different n")
    u = _reference_vector(x.n, u)
    product = kantor_product(x.to_mult(), y.to_mult(), u)
    return UnElement.from_mult(product)


def basis_indices(n: int) -> List[Index]:
    """All elementary indices, ordered by (superscript, subscripts)."""
    return sorted(
        ((i, j, k) for i in range(1, n + 1) for j in range(1, n + 1) for k in range(1, n + 1)),
        key=_index_order,
    )


def un_table(n: int, u: Element | None = None) -> List[Tuple[Index, Index, UnElement]]:
    """All n^6 brackets of elementary multiplications, in deterministic order."""
    u = _reference_vector(n, u)
    indices = basis_indices(n)
    tensors = [elementary(*idx, n) for idx in indices]
    zero, rows = UnElement(n), []
    for first, x in zip(indices, tensors):
        sparse = _sparse(left_operator(x, u))
        if any(sparse[0]):
            rows.extend(
                (first, second, UnElement._from_entries(n, _act(sparse, y)))
                for second, y in zip(indices, tensors)
            )
        else:
            rows.extend((first, second, zero) for second in indices)
    return rows


def render_un_table(rows: Sequence[Tuple[Index, Index, UnElement]]) -> str:
    lines = []
    for first, second, value in rows:
        fi, fj, fk = first
        si, sj, sk = second
        lines.append(f"[a({fi},{fj})^{fk}, a({si},{sj})^{sk}] = {value}")
    return "\n".join(lines)
