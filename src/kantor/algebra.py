"""Finite-dimensional algebras given by structure constants.

A ``Multiplication`` is the rank-3 tensor ``c[i][j][k]`` holding the
coefficient of ``e_k`` in ``e_i * e_j``; entries are polynomials, so one
representation covers rational tables, parameterized families, and the
symbolic output of the Kantor constructions.  The tensor is sparse: only
its nonzero entries are stored, keyed by 0-based ``(i, j, k)`` in
increasing index order, and an omitted entry is zero; ``rows`` holds the
same entries grouped by product.  ``Element`` is a coordinate vector of
polynomials over the same basis.  Every x*y is one kernel, ``_product``:
it looks each pair of nonzero coordinates up in ``rows`` and does not
multiply by the basis vectors' shared coordinate ``_ONE``.  ``multiply``
wraps it for elements; the identity checker calls it on sparse tables.

Subspace computations (annihilator, nucleus, centralizer, derived series)
work over the rationals only: callers substitute parameters first.  Doing
exact linear algebra over a polynomial ring would need case analysis,
which is the classifier's job, not this module's.  The annihilator,
nucleus and centralizer are each the kernel of one linear map, evaluated
with ``multiply`` on the basis vectors (``_kernel``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import linsolve
from .errors import DimMismatch, SymbolicEntries
from .poly import Poly, _as_coeff, _from_normalized, parse_poly, substitute_each, sum_of_products

_ZERO = Poly.zero()
_ONE = Poly.const(1)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    if isinstance(value, str):
        return parse_poly(value)
    raise TypeError(f"cannot use {value!r} as a structure constant")


def render_combination(terms: Iterable[Tuple[Poly, str]]) -> str:
    """Print ``c1*l1 + c2*l2 ...`` over the nonzero coefficients, or ``0``."""
    pieces = []
    for coeff, label in terms:
        if coeff.is_zero():
            continue
        if coeff == 1:
            body = label
        elif coeff == -1:
            body = f"-{label}"
        elif coeff.is_constant() or len(coeff.terms) == 1:
            body = f"{coeff}*{label}"
        else:
            body = f"({coeff})*{label}"
        pieces.append(body)
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


class Element:
    """A vector of polynomial coordinates over a fixed basis."""

    __slots__ = ("dim", "coords")

    def __init__(self, coords: Sequence[Poly]):
        coords = tuple(coords)
        # Most callers pass Polys already; coerce only when one is not.
        for c in coords:
            if type(c) is not Poly:
                coords = tuple(map(_as_poly, coords))
                break
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dim", len(coords))

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @staticmethod
    def zero(dim: int) -> "Element":
        return Element([Poly.zero()] * dim)

    @staticmethod
    def basis(dim: int, index: int) -> "Element":
        return Element([_ONE if i == index else _ZERO for i in range(dim)])

    @staticmethod
    def symbolic(prefix: str, dim: int) -> "Element":
        return Element([Poly.var(f"{prefix}{i + 1}") for i in range(dim)])

    def __add__(self, other: "Element") -> "Element":
        if self.dim != other.dim:
            raise DimMismatch("element dimensions differ")
        return Element([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Element") -> "Element":
        if self.dim != other.dim:
            raise DimMismatch("element dimensions differ")
        return Element([a - b for a, b in zip(self.coords, other.coords)])

    def scale(self, factor) -> "Element":
        return Element([c * factor for c in self.coords])

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.coords == other.coords

    __hash__ = None

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def is_rational(self) -> bool:
        return all(c.is_constant() for c in self.coords)

    def rational_coords(self) -> Tuple[Fraction, ...]:
        if not self.is_rational():
            raise SymbolicEntries(f"element has symbolic coordinates: {self}")
        return tuple(c.constant_value() for c in self.coords)

    def substitute(self, bindings) -> "Element":
        return Element(substitute_each(self.coords, bindings))

    def names(self) -> set:
        out = set()
        for c in self.coords:
            out |= c.names()
        return out

    def render(self, labels: Sequence[str] | None = None) -> str:
        labels = labels or [f"e{i + 1}" for i in range(self.dim)]
        return render_combination(zip(self.coords, labels))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Element({self})"


class Multiplication:
    """Structure tensor of a bilinear product on an n-dimensional space.

    Only the nonzero entries are stored: ``entries`` maps a 0-based
    ``(i, j, k)`` to the coefficient of ``e_k`` in ``e_i * e_j``, in
    increasing index order, and ``rows`` maps each ``(i, j)`` with
    ``e_i * e_j != 0`` to ``{k: coefficient}``, in the same order.  Every
    tensor is built by ``_from_entries``, which keeps both; ``Multiplication(c)``
    reads the dense form ``c[i][j][k]``.
    """

    __slots__ = ("dim", "entries", "rows")

    def __new__(cls, c: Sequence[Sequence[Sequence[object]]]) -> "Multiplication":
        dim = len(c)
        if any(len(plane) != dim or any(len(row) != dim for row in plane) for plane in c):
            raise DimMismatch("structure tensor must be n x n x n")
        return _from_entries(dim, {
            (i, j, k): _as_poly(value)
            for i, plane in enumerate(c)
            for j, row in enumerate(plane)
            for k, value in enumerate(row)
        })

    def __setattr__(self, name, value):
        raise AttributeError("Multiplication is immutable")

    @staticmethod
    def zero(dim: int) -> "Multiplication":
        return _from_entries(dim, {})

    @staticmethod
    def from_table(dim: int, entries: Dict[Tuple[int, int, int], object]) -> "Multiplication":
        """Build a tensor from a sparse table with 1-based indices."""
        out: Dict[Tuple[int, int, int], Poly] = {}
        for (i, j, k), value in entries.items():
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise DimMismatch(f"index ({i},{j},{k}) out of range for dim {dim}")
            key = (i - 1, j - 1, k - 1)
            out[key] = out.get(key, _ZERO) + _as_poly(value)
        return _from_entries(dim, out)

    def entry(self, i: int, j: int, k: int) -> Poly:
        return self.entries.get((i, j, k), _ZERO)

    def row(self, i: int, j: int) -> Element:
        """The product ``e_i * e_j`` (0-based indices)."""
        row = self.rows.get((i, j), {})
        return Element([row.get(k, _ZERO) for k in range(self.dim)])

    def table(self) -> Dict[Tuple[int, int, int], Poly]:
        """Nonzero entries, 1-based, sorted by index."""
        return {(i + 1, j + 1, k + 1): value for (i, j, k), value in self.entries.items()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multiplication)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.entries

    def is_rational(self) -> bool:
        return all(e.is_constant() for e in self.entries.values())

    def names(self) -> set:
        out = set()
        for e in self.entries.values():
            out |= e.names()
        return out

    def substitute(self, bindings) -> "Multiplication":
        return _from_entries(
            self.dim, dict(zip(self.entries, substitute_each(self.entries.values(), bindings)))
        )

    def __add__(self, other: "Multiplication") -> "Multiplication":
        if self.dim != other.dim:
            raise DimMismatch("tensor dimensions differ")
        out = dict(self.entries)
        for key, value in other.entries.items():
            out[key] = out.get(key, _ZERO) + value
        return _from_entries(self.dim, out)

    def __neg__(self) -> "Multiplication":
        return self.scale(-1)

    def scale(self, factor) -> "Multiplication":
        return _from_entries(self.dim, {key: e * factor for key, e in self.entries.items()})

    def opposite(self) -> "Multiplication":
        """The tensor of the reversed product ``x *op y = y * x``."""
        return _from_entries(self.dim, {(j, i, k): e for (i, j, k), e in self.entries.items()})

    def render(self, labels: Sequence[str] | None = None, opsym: str = "*") -> str:
        labels = labels or [f"e{i + 1}" for i in range(self.dim)]
        lines = [f"{labels[i]} {opsym} {labels[j]} = "
                 + render_combination((c, labels[k]) for k, c in row.items())
                 for (i, j), row in self.rows.items()]
        return "\n".join(lines) if lines else "(all products zero)"

    def __repr__(self) -> str:
        return f"Multiplication(dim={self.dim})"


def _from_entries(dim: int, entries: Dict[Tuple[int, int, int], Poly]) -> Multiplication:
    """The tensor with these 0-based entries: zeros dropped, keys in index order."""
    kept, rows = {}, {}
    for key in sorted(entries):
        value = entries[key]
        if value.terms:
            kept[key] = value
            i, j, k = key
            rows.setdefault((i, j), {})[k] = value
    m = object.__new__(Multiplication)
    object.__setattr__(m, "dim", dim)
    object.__setattr__(m, "entries", kept)
    object.__setattr__(m, "rows", rows)
    return m


def _clear_denominators(m: Multiplication) -> Tuple[Multiplication, int]:
    """``(d * m, d)`` with d the lcm of m's coefficient denominators (m itself if d = 1).

    Each coefficient is scaled in integers, so ``d * m`` is built without a ``Fraction``.
    """
    d = 1
    for entry in m.entries.values():
        for coeff in entry.terms.values():
            if type(coeff) is not int:
                d = lcm(d, coeff.denominator)
    if d == 1:
        return m, d
    scaled = {
        key: _from_normalized({mono: c * d if type(c) is int else c.numerator * (d // c.denominator)
                               for mono, c in entry.terms.items()})
        for key, entry in m.entries.items()
    }
    return _from_entries(m.dim, scaled), d


def _product(rows, x, y) -> Dict[int, Poly]:
    """The nonzero ``(x*y)_k`` by k, for the tensor with ``rows``.

    ``x`` and ``y`` yield ``(index, coordinate)`` pairs, y once per nonzero
    x_i; zero coordinates are skipped.  Each (x*y)_k is one ``sum_of_products``.
    """
    pairs: Dict[int, List[Tuple[Poly, Poly]]] = {}
    for i, xi in x:
        if xi.terms:
            for j, yj in y:
                row = yj.terms and rows.get((i, j))
                if row:
                    factor = yj if xi is _ONE else xi if yj is _ONE else xi * yj
                    for k, c in row.items():
                        pairs.setdefault(k, []).append((factor, c))
    return {k: v for k, p in pairs.items() if (v := sum_of_products(p)).terms}


def multiply(m: Multiplication, x: Element, y: Element) -> Element:
    """Evaluate the product ``(x*y)_k = sum_ij x_i y_j c[i][j][k]`` with ``_product``."""
    if not (m.dim == x.dim == y.dim):
        raise DimMismatch("dimensions of multiplication and elements differ")
    out = _product(m.rows, enumerate(x.coords), tuple(enumerate(y.coords)))
    product = object.__new__(Element)  # its coordinates are Polys already
    object.__setattr__(product, "coords", tuple([out.get(k, _ZERO) for k in range(m.dim)]))
    object.__setattr__(product, "dim", m.dim)
    return product


@dataclass(frozen=True)
class Subspace:
    """A rational subspace, stored with a canonical reduced basis.

    ``basis`` is in reduced row echelon form: each row leads with a 1 in
    its pivot column, and every other row is 0 there.  ``from_vectors``,
    ``zero`` and ``full`` build it so; ``contains`` relies on it, and
    equality of subspaces is equality of these bases.
    """

    ambient: int
    basis: Tuple[Tuple[Fraction, ...], ...]

    @staticmethod
    def from_vectors(ambient: int, vectors: Sequence[Sequence[Fraction]]) -> "Subspace":
        if any(len(v) != ambient for v in vectors):
            raise DimMismatch(f"vectors must have {ambient} coordinates")
        reduced, pivots = linsolve.rref(vectors)
        return Subspace(ambient, tuple(tuple(row) for row in reduced[: len(pivots)]))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, tuple(map(tuple, linsolve.mat_identity(ambient))))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence[Fraction]) -> bool:
        """Whether ``vector`` reduces to zero against the reduced basis."""
        if len(vector) != self.ambient:
            raise DimMismatch(f"vector must have {self.ambient} coordinates")
        v = list(map(_as_coeff, vector))
        for row in self.basis:
            factor = v[next(i for i, x in enumerate(row) if x)]
            if factor:
                v = [a - factor * b for a, b in zip(v, row)]
        return not any(v)

    def basis_elements(self) -> Tuple[Element, ...]:
        return tuple(Element([Poly.const(x) for x in row]) for row in self.basis)

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(v) for v in self.basis)


@dataclass(frozen=True)
class Algebra:
    """A named multiplication with basis labels and declared parameters."""

    name: str
    mult: Multiplication
    labels: Tuple[str, ...] = ()
    params: Tuple[str, ...] = ()
    constraints: Tuple[Poly, ...] = ()

    def __post_init__(self):
        labels = self.labels or tuple(f"e{i + 1}" for i in range(self.mult.dim))
        object.__setattr__(self, "labels", tuple(labels))
        if len(self.labels) != self.mult.dim:
            raise DimMismatch("label count must equal the dimension")
        used = self.mult.names()
        undeclared = used - set(self.params)
        if undeclared:
            raise ValueError(f"undeclared parameters in table: {sorted(undeclared)}")

    @property
    def dim(self) -> int:
        return self.mult.dim


def _require_rational(m: Multiplication):
    if not m.is_rational():
        raise SymbolicEntries("operation needs a parameter-free multiplication")


def _kernel(m: Multiplication, image: Callable[[Element], List[Element]]) -> Subspace:
    """The kernel of the linear map ``v -> image(v)``, evaluated once per basis vector."""
    _require_rational(m)
    n = m.dim
    columns = [[c for w in image(Element.basis(n, i)) for c in w.rational_coords()] for i in range(n)]
    return Subspace.from_vectors(n, linsolve.nullspace(list(zip(*columns)), n))


def annihilator(m: Multiplication) -> Subspace:
    """The space of v with ``v*e_j = e_j*v = 0`` for every basis vector."""
    basis = [Element.basis(m.dim, j) for j in range(m.dim)]
    return _kernel(m, lambda v: [w for e in basis for w in (multiply(m, v, e), multiply(m, e, v))])


def centralizer(m: Multiplication, x: Element) -> Subspace:
    """The space ``{y : x*y = y*x = 0}`` for a rational element x."""
    if not x.is_rational():
        raise SymbolicEntries("centralizer needs a rational element")
    return _kernel(m, lambda y: [multiply(m, x, y), multiply(m, y, x)])


def nucleus(m: Multiplication) -> Subspace:
    """Elements associating with all basis pairs in every slot."""
    basis = [Element.basis(m.dim, i) for i in range(m.dim)]

    def associator(x, y, z) -> Element:
        return multiply(m, multiply(m, x, y), z) - multiply(m, x, multiply(m, y, z))

    return _kernel(m, lambda v: [
        associator(*args) for a in basis for b in basis for args in ((v, a, b), (a, v, b), (a, b, v))
    ])


def _product_space(m: Multiplication, left: Subspace, right: Subspace) -> Subspace:
    vectors = []
    for u in left.basis_elements():
        for v in right.basis_elements():
            vectors.append(multiply(m, u, v).rational_coords())
    return Subspace.from_vectors(m.dim, vectors)


def derived_indices(m: Multiplication) -> Tuple[Optional[int], Optional[int]]:
    """Solvability and nilpotency indices (``None`` when a series stabilizes).

    Derived series: ``A(0) = A``, ``A(s+1) = A(s) * A(s)``; the solvability
    index is the first s with ``A(s) = 0``.  Nilpotency uses the filtration
    ``A^1 = A``, ``A^k = sum_{p+q=k} A^p * A^q`` (which covers every
    bracketing by induction) and reports the first k with ``A^k = 0``.
    """
    _require_rational(m)
    n = m.dim

    solvability = None
    current = Subspace.full(n)
    for step in range(1, n + 2):
        nxt = _product_space(m, current, current)
        if nxt.dim == 0:
            solvability = step
            break
        if nxt.dim == current.dim and nxt <= current:
            break
        current = nxt

    nilpotency = None
    powers = {1: Subspace.full(n)}
    k = 1
    while True:
        k += 1
        pieces = [_product_space(m, powers[p], powers[k - p]) for p in range(1, k)]
        space = Subspace.from_vectors(n, [v for piece in pieces for v in piece.basis])
        if space.dim == 0:
            nilpotency = k
            break
        if space.dim == powers[k - 1].dim:
            break
        powers[k] = space
    return solvability, nilpotency


def apply_basis_change(m: Multiplication, matrix: Sequence[Sequence[Fraction]]) -> Multiplication:
    """The same product expressed in the new basis ``e*_i = sum_j M[j][i] e_j``."""
    n = m.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimMismatch("basis-change matrix has the wrong shape")
    inverse = linsolve.mat_inverse(matrix)
    columns = [Element([Poly.const(matrix[j][i]) for j in range(n)]) for i in range(n)]
    tensor = []
    for i in range(n):
        plane = []
        for j in range(n):
            product = multiply(m, columns[i], columns[j])
            plane.append(linsolve.mat_vec_poly(inverse, list(product.coords)))
        tensor.append(plane)
    return Multiplication(tensor)


def verify_isomorphism(
    matrix: Sequence[Sequence[Fraction]], a: Multiplication, b: Multiplication
) -> bool:
    """True iff the basis change by ``matrix`` carries ``a`` onto ``b``.

    Concretely: the linear map sending basis vector i of ``b`` to column i
    of ``matrix`` (in the basis of ``a``) is then an algebra isomorphism
    from ``b`` to ``a``.
    """
    if a.dim != b.dim:
        raise DimMismatch("algebras have different dimensions")
    return apply_basis_change(a, matrix) == b
