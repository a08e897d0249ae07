"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of ``Fraction``.  ``rref`` works on
sparse rows, each a map from its nonzero columns to ``Fraction`` entries,
and pivots each column on the shortest pending row that has a nonzero
there, so that elimination touches few entries (Markowitz, "The
elimination form of the inverse", Management Science 3, 1957).  The
reduced row echelon form of a matrix is unique, so neither the sparse
storage nor the pivot choice can change a result.  The elimination core
(``_eliminate``) takes the sparse rows; ``rref`` is a dense wrapper over
it.  On top of the core sits ``solve_linear``, which takes polynomial
equations that are affine in a designated unknown set and returns the
full solution space with pivot unknowns expressed as affine polynomials
in the free ones.  It drops exact duplicate equations (they span nothing
new) and builds each sparse row straight from the equation's terms.

``rref``, ``nullspace`` and ``mat_inverse`` take any exact scalars
(``poly._as_coeff``) and reject a float with ``TypeError``: its binary
value is not the decimal one written.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import InconsistentSystem, NonlinearInput, SingularMatrix
from .poly import Poly, _as_coeff, substitute_each, sum_of_products

Vector = List[Fraction]
Matrix = List[List[Fraction]]


SparseRow = Dict[int, Fraction]


def _eliminate(pending: List[SparseRow], ncols: int) -> Tuple[List[SparseRow], List[int]]:
    """The nonzero rows of the reduced row echelon form and their pivot columns.

    ``pending`` holds sparse rows without zero entries; it is consumed.
    """
    pending = [row for row in pending if row]
    reduced: List[SparseRow] = []
    pivots: List[int] = []
    for col in range(ncols):
        if not pending:
            break
        candidates = [i for i, row in enumerate(pending) if col in row]
        if not candidates:
            continue
        pivot = pending.pop(min(candidates, key=lambda i: len(pending[i])))
        inv = pivot[col]
        if inv != 1:
            pivot = {c: x / inv for c, x in pivot.items()}
        for row in reduced + pending:
            factor = row.get(col)
            if factor is None:
                continue
            for c, x in pivot.items():
                value = row.get(c, 0) - factor * x
                if value:
                    row[c] = value
                else:
                    del row[c]
        pending = [row for row in pending if row]
        reduced.append(pivot)
        pivots.append(col)
    return reduced, pivots


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form (zero rows last, as many rows as given) and the pivot columns."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced, pivots = _eliminate(
        [{c: x for c, x in enumerate(map(Fraction, map(_as_coeff, row))) if x} for row in rows], ncols
    )
    zero = Fraction(0)
    dense = [[row.get(c, zero) for c in range(ncols)] for row in reduced]
    return dense + [[zero] * ncols for _ in range(len(rows) - len(dense))], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[Vector]:
    """A basis of the right kernel of the matrix (``ncols`` unknowns)."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: List[Vector] = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pcol in zip(reduced, pivots):
            vec[pcol] = -row[free]
        basis.append(vec)
    return basis


def mat_identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != k:
        raise ValueError("matrix shape mismatch")
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def mat_inverse(a: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise SingularMatrix("matrix is not square")
    reduced, pivots = rref([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return [row[n:] for row in reduced[:n]]


def mat_vec_poly(a: Sequence[Sequence[Fraction]], v: Sequence[Poly]) -> List[Poly]:
    """Rational matrix applied to a vector of polynomials."""
    return [
        sum_of_products((entry, Poly.const(coeff)) for coeff, entry in zip(row, v) if coeff)
        for row in a
    ]


@dataclass(frozen=True)
class LinearSolution:
    """Affine solution space of a linear system.

    ``assignments`` maps each pivot unknown to an affine polynomial in the
    free unknowns; every unknown not listed there is free.
    """

    unknowns: Tuple[str, ...]
    assignments: Dict[str, Poly]
    free: Tuple[str, ...]

    def substitute(self, p: Poly) -> Poly:
        return p.substitute(self.assignments)


def solve_linear(system: Sequence[Poly], unknowns: Sequence[str]) -> LinearSolution:
    """Solve polynomial equations that are affine in ``unknowns``.

    Coefficients must be rational (no other indeterminates may appear);
    the full affine solution space is returned.  Raises
    :class:`NonlinearInput` for degree >= 2 or foreign symbols and
    :class:`InconsistentSystem` when no solution exists.
    """
    unknowns = list(unknowns)
    ncols = len(unknowns)
    index = {((name, 1),): i for i, name in enumerate(unknowns)}
    index[()] = ncols
    # Exact duplicates add nothing to the row space; keep first occurrences.
    system = list(dict.fromkeys(system))
    rows: List[SparseRow] = []
    for p in system:
        row = {}
        for mono, coeff in p.monomials():
            col = index.get(mono)
            if col is None:
                if len(mono) != 1 or mono[0][1] != 1:
                    raise NonlinearInput(f"not affine in the unknowns: {p}")
                raise NonlinearInput(f"foreign symbol {mono[0][0]!r} in {p}")
            row[col] = Fraction(coeff)
        rows.append(row)

    reduced, pivots = _eliminate(rows, ncols + 1)
    if pivots and pivots[-1] == ncols:
        raise InconsistentSystem("system has no solution")

    assignments: Dict[str, Poly] = {}
    for row, pcol in zip(reduced, pivots):
        # A reduced row is zero in every other pivot column: the rest is free.
        terms = {(): -row[ncols]} if ncols in row else {}
        for col in sorted(row):
            if col != pcol and col != ncols:
                terms[((unknowns[col], 1),)] = -row[col]
        assignments[unknowns[pcol]] = Poly(terms)
    free = tuple(name for name in unknowns if name not in assignments)

    if not all(p.is_zero() for p in substitute_each(system, assignments)):
        raise AssertionError("linear solve failed to satisfy the system")
    return LinearSolution(tuple(unknowns), assignments, free)
