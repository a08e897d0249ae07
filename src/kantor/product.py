"""The Kantor product and square of multiplications.

For multiplications A, B on the same space and a fixed vector u, the
(left) Kantor product is the bilinear product

    [[A, B]](x, y) = A(u, B(x, y)) - B(A(u, x), y) - B(x, A(u, y)),

and the Kantor square is the special case B = A.  The right product is
the mirror form

    [[A, B]]_r(x, y) = A(B(x, y), u) - B(A(x, u), y) - B(x, A(y, u)),

which agrees with the left square exactly on weakly associative algebras.

With L the matrix of x -> A(u, x), so that A(u, e_i) = sum_k L_ik e_k, the
left product is the action of L on the tensor of B:

    [[A, B]]_ij^k = sum_m B_ij^m L_mk - sum_m L_im B_mj^k - sum_m L_jm B_im^k.

``left_operator`` builds L with n calls of ``multiply`` on basis vectors
made once per dimension, and ``act`` walks the nonzero entries B_ij^m
once, so each costs a few polynomial products.  A caller pairing one L
with many B (``un_table``) finds L's nonzero entries once with ``_sparse``
and calls ``_act``, which returns the bare entry map (0-based keys, values
possibly zero) for the caller to wrap; ``act`` wraps it as a tensor.
-B_ij^m is formed only when a column of L meets i or j.  In this row
convention a matrix D is a derivation of B iff ``act(D, B)`` is zero.

``kantor_product`` runs over the integers: with D_A * A and D_B * B cleared
of denominators, it divides their product by D_A * D_B once.

When no u is supplied, a symbolic vector with fresh coordinates (u1, ...,
un by default) is used, so the resulting tensor stays linear in the
u-coordinates.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence, Tuple

from .algebra import Element, Multiplication, _clear_denominators, _from_entries, multiply
from .errors import DimMismatch
from .poly import Poly, sum_of_products


def symbolic_vector(dim: int, avoid=()) -> Element:
    """A symbolic vector whose coordinate names avoid the given set."""
    avoid = set(avoid)
    prefix = "u"
    while any(f"{prefix}{i + 1}" in avoid for i in range(dim)):
        prefix = {"u": "v", "v": "w"}.get(prefix, prefix + "u")
    return Element.symbolic(prefix, dim)


def _resolve_u(a: Multiplication, b: Multiplication, u: Element | None) -> Element:
    if u is None:
        return symbolic_vector(a.dim, a.names() | b.names())
    if u.dim != a.dim:
        raise DimMismatch("reference vector has the wrong dimension")
    return u


@functools.lru_cache(maxsize=None)
def _basis(n: int) -> Tuple[Element, ...]:
    """e_1, ..., e_n; elements are immutable, so one tuple serves every call."""
    return tuple(Element.basis(n, i) for i in range(n))


def left_operator(a: Multiplication, u: Element) -> List[Tuple[Poly, ...]]:
    """The rows of L, the matrix of x -> a(u, x): row i holds a(u, e_i)."""
    return [multiply(a, u, e).coords for e in _basis(a.dim)]


def _sparse(lu: Sequence[Sequence[Poly]]):
    """L's nonzero entries: rows[m] holds the (k, L_mk), cols[i] the (r, L_ri)."""
    n = len(lu)
    rows = [[(k, c) for k, c in enumerate(lu[m]) if not c.is_zero()] for m in range(n)]
    cols = [[(r, lu[r][i]) for r in range(n) if not lu[r][i].is_zero()] for i in range(n)]
    return rows, cols


def act(lu: Sequence[Sequence[Poly]], b: Multiplication) -> Multiplication:
    """The tensor (x, y) -> L(b(x, y)) - b(Lx, y) - b(x, Ly), for L with rows ``lu``."""
    return _from_entries(b.dim, _act(_sparse(lu), b))


def _act(sparse, b: Multiplication) -> Dict[Tuple[int, int, int], Poly]:
    """``act``'s entries for L given by ``_sparse``: 0-based keys, values possibly zero.

    One walk over B collects each entry's pairs ``(B_ij^m, L_mk)`` and
    ``(-B_ij^m, L_ri)``; each entry is then one ``sum_of_products`` call.
    """
    rows, cols = sparse
    out = {}
    for (i, j, m), entry in b.entries.items():
        for k, c in rows[m]:
            out.setdefault((i, j, k), []).append((entry, c))
        if cols[i] or cols[j]:
            neg = -entry
            for r, c in cols[i]:
                out.setdefault((r, j, m), []).append((neg, c))
            for r, c in cols[j]:
                out.setdefault((i, r, m), []).append((neg, c))
    return {key: sum_of_products(pairs) for key, pairs in out.items()}


def kantor_product(a: Multiplication, b: Multiplication, u: Element | None = None) -> Multiplication:
    """The left Kantor product [[a, b]] with respect to u (symbolic if omitted)."""
    if a.dim != b.dim:
        raise DimMismatch("multiplications act on different dimensions")
    u = _resolve_u(a, b, u)
    cleared_a, da = _clear_denominators(a)
    # A square clears its table once, a fast path worth 9% of a dense ``kantor_square``.
    cleared_b, db = (cleared_a, da) if b is a else _clear_denominators(b)
    product = act(left_operator(cleared_a, u), cleared_b)
    d = da * db
    if d == 1:
        return product
    return _from_entries(product.dim, {key: e / d for key, e in product.entries.items()})


def kantor_square(a: Multiplication, u: Element | None = None) -> Multiplication:
    """The Kantor square [[a, a]] with respect to u (symbolic if omitted)."""
    return kantor_product(a, a, u)


def right_kantor_product(a: Multiplication, b: Multiplication, u: Element | None = None) -> Multiplication:
    """The mirror (right) Kantor product with respect to u.

    Reversing every product turns the right form into the left one, so
    [[a, b]]_r = [[a^op, b^op]]^op; ``opposite`` keeps the entries, and
    with them the dimension check and the symbolic-u naming.
    """
    return kantor_product(a.opposite(), b.opposite(), u).opposite()
