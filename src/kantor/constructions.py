"""Builders for derived two-product structures.

Covers the sum product of a commutative piece and a bracket, the bracket
attached to a derivation of a commutative associative algebra (which
always yields a transposed Poisson pair), and the Kantor pair of a
two-product algebra: both mixed Kantor products taken with one reference
vector.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from .algebra import Element, Multiplication, multiply
from .errors import DimMismatch, NotCommutativeAssociative, NotDerivation
from .identities import builtin, check_identity
from .product import _resolve_u, act, kantor_product


def sum_product(dot: Multiplication, bracket: Multiplication) -> Multiplication:
    """Entrywise sum of the two structure tensors."""
    return dot + bracket


def bracket_from_derivation(
    dot: Multiplication, derivation: Sequence[Sequence[Fraction]]
) -> Multiplication:
    """The bracket [x, y] = x D(y) - D(x) y for a derivation D of ``dot``.

    ``dot`` must be commutative and associative, and D must satisfy
    D(xy) = D(x) y + x D(y) on all basis pairs; both are verified.
    """
    n = dot.dim
    if len(derivation) != n or any(len(row) != n for row in derivation):
        raise DimMismatch("derivation matrix has the wrong shape")
    verdict = check_identity(dot, builtin("commutative") + builtin("associative"))
    if not verdict.holds:
        raise NotCommutativeAssociative(
            f"product is not commutative-associative: {[str(p) for p in verdict.obstructions]}"
        )

    basis = [Element.basis(n, i) for i in range(n)]
    # d_of[i] = D(e_i), column i of D: the rows of D in row convention.
    d_of = [Element([row[i] for row in derivation]) for i in range(n)]
    failures = act([d.coords for d in d_of], dot).entries
    if failures:
        i, j, _ = next(iter(failures))
        raise NotDerivation(f"fails the derivation law on (e{i + 1}, e{j + 1})")

    tensor = []
    for i in range(n):
        plane = []
        for j in range(n):
            value = multiply(dot, basis[i], d_of[j]) - multiply(dot, d_of[i], basis[j])
            plane.append(list(value.coords))
        tensor.append(plane)
    return Multiplication(tensor)


def kantor_pair(
    dot: Multiplication, circ: Multiplication, u: Element | None = None
) -> Tuple[Multiplication, Multiplication]:
    """The pair ([[circ, dot]], [[dot, circ]]) with one reference vector.

    When u is omitted a single symbolic vector is shared by both products.
    """
    u = _resolve_u(dot, circ, u)
    return kantor_product(circ, dot, u), kantor_product(dot, circ, u)
