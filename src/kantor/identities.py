"""Polynomial identities in one or several multiplications, checked exactly.

A ``Term`` is a binary product tree over numbered variables; an
``IdentitySpec`` is a rational linear combination of such trees.  The
checker substitutes a generic element (fresh symbolic coordinates) for
every variable and expands: over the rationals a polynomial vanishes
identically iff all its coefficients vanish, so this is a complete
decision procedure, including for non-multilinear identities such as the
Jordan identity.

The expansion runs over the integers.  Each slot's tensor is scaled once
by D_s, the lcm of its coefficient denominators, and each term of a spec
by the powers of D_s its products lack, so the whole expansion is one
constant prod_s D_s^top_s times the rational one.  What the checkers
return is divided back by that constant, so the obstructions are those of
the rational expansion, while the coefficients inside it stay integers
whenever the spec's are.

A variable occurring once in every term is *linear*: the coefficient of
its generic coordinate i is the spec evaluated at e_i (linearization, as
in Zhevlakov et al., *Rings That Are Nearly Associative*, ch. 1), so only
repeated variables stay generic.  Each product-tree shape, such as
Jacobi's (xy)z, (zx)y and (yz)x, is evaluated once into a table from basis
index tuples to nonzero values; its terms read it with indices permuted.
Two leaves read the tensor's ``rows``; larger shapes use ``algebra._product``.

A spec may be unchanged when its linear variables are renamed, as Jacobi is
under x -> y -> z -> x.  Basis tuples in one orbit of that symmetry group
then give equal coefficients, so only one representative per orbit is
expanded: the member whose readable generic monomial is least, which is
where ``check_identity`` keeps their common obstructions anyway.

Each spec computes its layout (linear variables, shapes, symmetry group and
products per slot) once, on first use, and carries it.  Both checkers expand
through one entry, ``_expansions``, which checks the multiplications and
clears their denominators once per call.  A ``Verdict`` holds the
obstructions undivided with their common factor and divides them back only
when ``obstructions`` is first read.

The ``builtin`` registry returns, for each named variety, the tuple of
identity specs that define it (several for bundled definitions such as
``mock_lie`` = commutative + Jacobi).  Two-slot names follow a fixed slot
convention: slot 0 is the plain/juxtaposition product, slot 1 the
decorated one (bracket or circle).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple, Union

# multiply is unused here; benchmarks/test_smoke.py:63 asserts identities.multiply is traced.
from .algebra import _ONE, Multiplication, Subspace, _clear_denominators, _product, multiply
from .errors import DimMismatch, IndexOutOfRange, SlotMismatch, SymbolicCoefficient, UnknownIdentity
from .poly import Monomial, Poly, sum_of_products


class Term:
    """Node of a binary product tree."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    index: int


@dataclass(frozen=True)
class App(Term):
    slot: int
    left: Term
    right: Term


def _nodes(term: Term) -> Iterator[Term]:
    """The term's nodes, each product before its sides: the leaves come left to right."""
    yield term
    if isinstance(term, App):
        yield from _nodes(term.left)
        yield from _nodes(term.right)


@dataclass(frozen=True)
class _Generic(Term):
    """A shape's leaf for a variable that stays a generic element."""

    index: int


@dataclass(frozen=True)
class IdentitySpec:
    """``sum c * term`` over variables in ``range(nvars)`` and slots in ``range(nslots)``."""

    name: str
    nvars: int
    nslots: int
    terms: Tuple[Tuple[Fraction, Term], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError(f"identity {self.name!r} has no terms")
        for node in (node for _, term in self.terms for node in _nodes(term)):
            if isinstance(node, App):
                if not 0 <= node.slot < self.nslots:
                    raise SlotMismatch(f"{self.name!r}: slot {node.slot} not in range({self.nslots})")
            elif not 0 <= node.index < self.nvars:
                raise IndexOutOfRange(f"{self.name!r}: variable {node.index} not in range({self.nvars})")

    @functools.cached_property
    def _layout(self):
        """``(linear, shapes, layouts, group, degrees)``: the variables occurring once in
        every term, the distinct shapes, per term ``(s, perm)``: its shape is ``shapes[s]``,
        with ``linear[i]`` at position ``perm[i]``, the symmetry group of the linear
        variables, and per slot each term's number of products of that slot.  Jacobi's
        (zx)y is (v0 v1) v2, perm (1, 2, 0).  Kept on the spec from its first use, outside
        the fields that ``==``, ``hash`` and ``repr`` read.

        The group holds each permutation sigma that maps the multiset of
        ``(coeff, s, perm)`` onto itself through perm -> perm o sigma: renaming the linear
        variables by sigma leaves the spec unchanged, sign included.  Such a sigma takes
        the first term to one of the same coefficient and shape, so those are the only
        candidates.  Jacobi's group is cyclic of order 3; ``commutative``'s is trivial.
        """
        nodes = [list(_nodes(term)) for _, term in self.terms]
        leaves = [[node.index for node in term if isinstance(node, Var)] for term in nodes]
        linear = tuple(v for v in sorted(set(leaves[0])) if all(vs.count(v) == 1 for vs in leaves))
        shapes: Dict[Term, int] = {}
        layouts = []
        for _, term in self.terms:
            order: List[int] = []
            shape = _shape(term, linear, order)
            layouts.append((shapes.setdefault(shape, len(shapes)), tuple(map(order.index, linear))))
        signature = [(c, s, perm) for (c, _), (s, perm) in zip(self.terms, layouts)]
        c0, s0, p0 = signature[0]
        candidates = [tuple(map(p0.index, p)) for c, s, p in signature if (c, s) == (c0, s0)]
        signature.sort()
        group = tuple(
            sigma for sigma in candidates
            if sorted((c, s, tuple(p[j] for j in sigma)) for c, s, p in signature) == signature
        )
        degrees = tuple(tuple(sum(isinstance(node, App) and node.slot == slot for node in term)
                              for term in nodes) for slot in range(self.nslots))
        return linear, tuple(shapes), tuple(layouts), group, degrees


@dataclass(frozen=True)
class Verdict:
    """Whether identities hold, and the obstructions if they do not.

    ``check_identity`` hands over each spec's obstructions undivided, with
    the spec's common factor; they are divided back, and repeats across a
    bundle dropped, on the first read of ``obstructions``, so a caller
    reading only ``holds`` never divides.
    """

    holds: bool
    obstructions: Tuple[Poly, ...]

    @classmethod
    def _lazy(cls, undivided: List[Tuple[Tuple[Poly, ...], int]]) -> "Verdict":
        """The verdict on ``(obstructions, common factor)`` per spec, ``obstructions`` unset."""
        verdict = object.__new__(cls)
        object.__setattr__(verdict, "holds", not any(polys for polys, _ in undivided))
        object.__setattr__(verdict, "_undivided", undivided)
        return verdict

    def __getattr__(self, name):
        # Reached only for an unset attribute: the obstructions of a lazy verdict.
        undivided = self.__dict__.get("_undivided")
        if name != "obstructions" or undivided is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        divided = [p if c == 1 else p / c for polys, c in undivided for p in polys]
        object.__setattr__(self, name, tuple(dict.fromkeys(divided)))
        self.__dict__.pop("_undivided", None)
        return self.obstructions


SpecOrBundle = Union[IdentitySpec, Sequence[IdentitySpec]]


# -- spec construction helpers ----------------------------------------------

_X, _Y, _Z, _T = Var(0), Var(1), Var(2), Var(3)

Lin = List[Tuple[Fraction, Term]]


def _one(term: Term) -> Lin:
    return [(Fraction(1), term)]


def _scale(c, lin: Lin) -> Lin:
    c = Fraction(c)
    return [(c * coeff, term) for coeff, term in lin]


def _add(*parts: Lin) -> Lin:
    out: Lin = []
    for part in parts:
        out.extend(part)
    return out


def _sub(a: Lin, b: Lin) -> Lin:
    return _add(a, _scale(-1, b))


def _ap(slot: int, left: Lin, right: Lin) -> Lin:
    return [
        (cl * cr, App(slot, tl, tr))
        for cl, tl in left
        for cr, tr in right
    ]


def _mk(name: str, nvars: int, lin: Lin, nslots: int = 1) -> IdentitySpec:
    merged: Dict[Term, Fraction] = {}
    for coeff, term in lin:
        merged[term] = merged.get(term, Fraction(0)) + coeff
    return IdentitySpec(name, nvars, nslots, tuple((c, t) for t, c in merged.items() if c))


def _associator(x: Lin, y: Lin, z: Lin, slot: int = 0) -> Lin:
    return _sub(_ap(slot, _ap(slot, x, y), z), _ap(slot, x, _ap(slot, y, z)))


def _jacobiator(x: Lin, y: Lin, z: Lin, slot: int = 0) -> Lin:
    return _add(
        _ap(slot, _ap(slot, x, y), z),
        _ap(slot, _ap(slot, z, x), y),
        _ap(slot, _ap(slot, y, z), x),
    )


def reslot(spec: IdentitySpec, nslots: int, mapping: Dict[int, int]) -> IdentitySpec:
    """Reindex the multiplication slots of a spec inside a larger slot set."""

    def walk(term: Term) -> Term:
        if isinstance(term, Var):
            return term
        return App(mapping[term.slot], walk(term.left), walk(term.right))

    terms = tuple((c, walk(t)) for c, t in spec.terms)
    return IdentitySpec(spec.name, spec.nvars, nslots, terms)


def _build_registry() -> Dict[str, Tuple[IdentitySpec, ...]]:
    x, y, z, t = _one(_X), _one(_Y), _one(_Z), _one(_T)
    m = lambda a, b: _ap(0, a, b)

    commutative = _mk("commutative", 2, _sub(m(x, y), m(y, x)))
    anticommutative = _mk("anticommutative", 2, _add(m(x, y), m(y, x)))
    associative = _mk("associative", 3, _associator(x, y, z))
    anti_associative = _mk("anti_associative", 3, _add(m(m(x, y), z), m(x, m(y, z))))
    flexible = _mk("flexible", 2, _sub(m(m(x, y), x), m(x, m(y, x))))
    middle_commutative = _mk("middle_commutative", 3, _sub(m(m(x, y), z), m(z, m(y, x))))
    pseudo_flexible = _mk("pseudo_flexible", 2, _sub(m(x, m(x, y)), m(m(y, x), x)))
    weakly_associative = _mk(
        "weakly_associative",
        3,
        _sub(_add(_associator(x, y, z), _associator(y, z, x)), _associator(y, x, z)),
    )
    left_symmetric = _mk("left_symmetric", 3, _sub(_associator(x, y, z), _associator(y, x, z)))
    right_symmetric = _mk("right_symmetric", 3, _sub(_associator(x, y, z), _associator(x, z, y)))
    right_commutative = _mk("right_commutative", 3, _sub(m(m(x, y), z), m(m(x, z), y)))
    left_commutative = _mk("left_commutative", 3, _sub(m(x, m(y, z)), m(y, m(x, z))))
    right_leibniz = _mk(
        "right_leibniz", 3, _sub(m(m(x, y), z), _add(m(m(x, z), y), m(x, m(y, z))))
    )
    right_zinbiel = _mk(
        "right_zinbiel", 3, _sub(m(m(x, y), z), _add(m(x, m(y, z)), m(x, m(z, y))))
    )
    jacobi = _mk("jacobi", 3, _jacobiator(x, y, z))
    xx = m(x, x)
    jordan = _mk("jordan", 2, _sub(m(m(xx, y), x), m(xx, m(y, x))))
    almost_jordan = _mk(
        "almost_jordan",
        2,
        _sub(
            _add(_scale(2, m(m(m(y, x), x), x)), m(y, m(xx, x))),
            _scale(3, m(m(y, xx), x)),
        ),
    )
    binary_lie_j = _mk(
        "binary_lie_jacobiator",
        2,
        _add(m(m(m(x, y), x), y), m(m(y, m(x, y)), x), m(m(x, y), m(x, y))),
    )
    almost_lie_2_j = _mk("jacobiator_times_t", 4, _ap(0, _jacobiator(x, y, z), t))
    two_sided_zero = _mk("squares_annihilate_left", 3, _ap(0, _add(m(x, y), m(y, x)), z))
    left_alternative = _mk("left_alternative", 2, _sub(m(xx, y), m(x, m(x, y))))
    right_alternative = _mk("right_alternative", 2, _sub(m(m(y, x), x), m(y, xx)))
    assoc_alt_12 = _mk("associator_alternating_12", 3, _add(_associator(x, y, z), _associator(y, x, z)))
    assoc_cyclic = _mk("associator_cyclic", 3, _sub(_associator(x, y, z), _associator(y, z, x)))

    # Two-slot specs: slot 0 carries the plain product, slot 1 the bracket
    # or circle product.
    d = lambda a, b: _ap(0, a, b)
    s = lambda a, b: _ap(1, a, b)
    leibniz_rule = _mk(
        "leibniz_rule", 3, _sub(s(x, d(y, z)), _add(d(s(x, y), z), d(y, s(x, z)))), nslots=2
    )
    dual_leibniz_rule = _mk(
        "dual_leibniz_rule",
        3,
        _sub(_scale(2, d(z, s(x, y))), _add(s(d(z, x), y), s(x, d(z, y)))),
        nslots=2,
    )
    nva = _mk("novikov_poisson_nva", 3, _sub(s(x, d(y, z)), d(s(x, y), z)), nslots=2)
    nvb = _mk(
        "novikov_poisson_nvb",
        3,
        _sub(
            _sub(s(d(x, y), z), d(x, s(y, z))),
            _sub(s(d(x, z), y), d(x, s(z, y))),
        ),
        nslots=2,
    )
    prelie_poisson_1 = _mk(
        "prelie_poisson_1", 3, _sub(s(d(x, y), z), d(x, s(y, z))), nslots=2
    )
    prelie_poisson_2 = _mk(
        "prelie_poisson_2",
        3,
        _sub(
            _sub(d(s(x, y), z), d(s(y, x), z)),
            _sub(s(x, d(y, z)), s(y, d(x, z))),
        ),
        nslots=2,
    )
    postlie_2 = _mk(
        "postlie_2", 3, _sub(d(s(x, y), z), _sub(d(x, d(y, z)), d(y, d(x, z)))), nslots=2
    )
    postlie_3 = _mk(
        "postlie_3", 3, _sub(d(x, s(y, z)), _add(s(d(x, y), z), s(y, d(x, z)))), nslots=2
    )

    def on_dot(spec: IdentitySpec) -> IdentitySpec:
        return reslot(spec, 2, {0: 0})

    def on_second(spec: IdentitySpec) -> IdentitySpec:
        return reslot(spec, 2, {0: 1})

    # A commutative associative product in slot 0 and a Lie bracket in slot 1.
    dot = (on_dot(commutative), on_dot(associative))
    bracket = (on_second(anticommutative), on_second(jacobi))
    registry = {spec.name: (spec,) for spec in (
        commutative, anticommutative, associative, anti_associative, flexible,
        middle_commutative, pseudo_flexible, weakly_associative, left_symmetric,
        right_symmetric, right_commutative, left_commutative, right_leibniz, right_zinbiel,
        jacobi, jordan, almost_jordan, left_alternative, right_alternative, leibniz_rule,
        dual_leibniz_rule, nva, nvb, prelie_poisson_1, prelie_poisson_2, postlie_2, postlie_3,
    )}
    registry.update({
        "right_novikov": (right_commutative, left_symmetric),
        "left_novikov": (left_commutative, right_symmetric),
        "mock_lie": (commutative, jacobi),
        "binary_lie": (anticommutative, binary_lie_j),
        "almost_lie_1": (middle_commutative, jacobi),
        "almost_lie_2": (anticommutative, almost_lie_2_j),
        "two_sided_leibniz": (middle_commutative, jacobi, two_sided_zero),
        "alternative": (left_alternative, right_alternative),
        "quasi_commutative_associative": (middle_commutative, associative),
        "quasi_commutative_alternative": (middle_commutative, assoc_alt_12, assoc_cyclic),
        "quasi_commutative_jordan": (middle_commutative, jordan),
        "noncommutative_jordan": (flexible, jordan),
        "transposed_poisson": (*dot, *bracket, dual_leibniz_rule),
        "poisson": (*dot, *bracket, leibniz_rule),
        "generic_poisson": (on_second(anticommutative), leibniz_rule),
        "left_novikov_poisson": (*dot, on_second(left_commutative), on_second(right_symmetric), nva, nvb),
        "right_prelie_poisson": (*dot, on_second(left_symmetric), prelie_poisson_1, prelie_poisson_2),
    })
    return registry


_REGISTRY = _build_registry()


def builtin(name: str) -> Tuple[IdentitySpec, ...]:
    """The identity bundle registered under ``name`` (often a single spec)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownIdentity(f"no identity named {name!r}") from None


def builtin_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# -- the checker -------------------------------------------------------------

def fresh_generic_names(nvars: int, dim: int, avoid: Iterable[str]) -> List[List[str]]:
    """Coordinate names for generic elements, disjoint from ``avoid``."""
    avoid = set(avoid)
    prefix = "x"
    while any(f"{prefix}{v + 1}_{i + 1}" in avoid for v in range(nvars) for i in range(dim)):
        prefix += "x"
    return [[f"{prefix}{v + 1}_{i + 1}" for i in range(dim)] for v in range(nvars)]


def _shape(term: Term, linear: Tuple[int, ...], order: List[int]) -> Term:
    """The term with its linear variables numbered by position, listed in ``order``."""
    if isinstance(term, Var):
        if term.index not in linear:
            return _Generic(term.index)
        order.append(term.index)
        return Var(len(order) - 1)
    return App(term.slot, _shape(term.left, linear, order), _shape(term.right, linear, order))


@functools.lru_cache(maxsize=1 << 10)
def _representatives(linear: Tuple[int, ...], group, dim: int) -> FrozenSet[Tuple[int, ...]]:
    """The basis index tuples of the linear variables that stand for their orbit.

    The orbit of ``at`` is ``at o sigma`` over the group, and every member gives the
    same values.  Its representative is the member whose readable generic monomial is
    least: the one at which ``check_identity`` keeps their common obstructions,
    compared as the sorted names ``fresh_generic_names`` gives the linear variables
    there (their common prefix does not change the order).  Keyed by the linear
    variables and the group, not by the terms, which are slower to hash.
    """
    names = fresh_generic_names(max(linear) + 1, dim, ())
    rows = [names[v] for v in linear]

    def monomial(at) -> List[str]:
        return sorted(row[i] for row, i in zip(rows, at))

    return frozenset(
        at for at in itertools.product(range(dim), repeat=len(linear))
        # group[0] is the identity
        if all(monomial(at) <= monomial([at[s] for s in sigma]) for sigma in group[1:])
    )


def _table(shape: Term, tensors, dim: int, names) -> Dict[Tuple[int, ...], Dict[int, Poly]]:
    """The shape's nonzero values ``{k: coordinate}`` by the basis index at each linear
    position.  Slot s is ``tensors[s]``: a two-leaf shape is its ``rows``, and a larger
    one multiplies its two sides' values with ``_product``.
    """
    if isinstance(shape, Var):
        return {(i,): {i: _ONE} for i in range(dim)}
    if isinstance(shape, _Generic):
        return {(): dict(enumerate(map(Poly.var, names[shape.index])))}
    rows = tensors[shape.slot].rows
    if isinstance(shape.left, Var) and isinstance(shape.right, Var):
        return rows
    left, right = (_table(side, tensors, dim, names) for side in (shape.left, shape.right))
    out = {}
    for (at_x, x), (at_y, y) in itertools.product(left.items(), right.items()):
        if value := _product(rows, x.items(), y.items()):
            out[at_x + at_y] = value
    return out


def _expand_cleared(
    spec: IdentitySpec,
    cleared: Sequence[Multiplication],
    denominators: Sequence[int],
    names: Sequence[Sequence[str]],
) -> Tuple[Dict[Tuple[int, Monomial], Poly], int]:
    """Expand ``sum c * term`` on tensors cleared of denominators.

    ``cleared[s]`` is slot s's tensor times ``denominators[s]``.  A term
    applying deg_s products of slot s then comes out D_s^deg_s times too
    large, so each term is weighted by prod_s D_s^(top_s - deg_s), top_s
    being the largest deg_s over the spec's terms.  Returns ``(E, C)``: E maps
    ``(coordinate, readable generic monomial)`` to its nonzero coefficient,
    and the expansion over the original tensors is E divided by
    C = prod_s D_s^top_s.  Variable v's coordinates are named ``names[v]``;
    a linear v is set to each e_i, and a repeated v's names are split off.
    E holds the linear variables' orbit representatives only: the rest of
    an orbit repeats its representative's coefficients (``_orbit_keys``).
    """
    linear, shapes, layouts, symmetry, degrees = spec._layout
    weights, common = [1] * len(spec.terms), 1
    for d, counts in zip(denominators, degrees):
        if d != 1:
            top = max(counts)
            weights = [w * d ** (top - g) for w, g in zip(weights, counts)]
            common *= d ** top
    dim = cleared[0].dim
    representatives = _representatives(linear, symmetry, dim) if len(symmetry) > 1 else None
    tables = [_table(shape, cleared, dim, names) for shape in shapes]
    pairs: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[Poly, Poly]]] = {}
    for (coeff, _), weight, (s, perm) in zip(spec.terms, weights, layouts):
        scale = Poly.const(coeff * weight)
        for at, value in tables[s].items():
            at = tuple(at[p] for p in perm)
            if representatives is None or at in representatives:
                for k, c in value.items():
                    pairs.setdefault((k, at), []).append((scale, c))
    split = [n for v, group in enumerate(names) if v not in linear for n in group]
    expanded: Dict[Tuple[int, Monomial], Poly] = {}
    for (k, at), group in pairs.items():
        fixed = [(names[v][i], 1) for v, i in zip(linear, at)]
        for mono, coeff in sum_of_products(group).split_by(split).items():
            expanded[k, tuple(sorted(fixed + list(mono)))] = coeff
    return expanded, common


def _orbit_keys(expanded, spec, names):
    """``_expand_cleared``'s E with every member of each representative's orbit."""
    linear, _, _, group, _ = spec._layout
    out = {}
    for sigma in group:
        # at o sigma gives linear[j] the index that at gives linear[sigma[j]].
        rename = {names[linear[s]][i]: names[v][i] for v, s in zip(linear, sigma)
                  for i in range(len(names[v]))}
        for (k, mono), coeff in expanded.items():
            out[k, tuple(sorted((rename.get(n, n), e) for n, e in mono))] = coeff
    return out


def _monomial_generators(modulo: Sequence[Poly]) -> List[Poly]:
    """The generators of a monomial ideal, checked.

    Each generator must be a single monomial of positive degree: zero
    generates nothing, and a constant would make every check hold.
    """
    for g in modulo:
        if len(g.terms) != 1 or g.is_constant():
            raise ValueError(f"constraint {g} is not a single monomial of positive degree")
    return list(modulo)


def _expansions(
    mults: Union[Multiplication, Sequence[Multiplication]],
    specs: Sequence[IdentitySpec],
    modulo: Sequence[Poly] = (),
) -> Iterator[Tuple[List[List[str]], Dict[Tuple[int, Monomial], Poly], int]]:
    """Each spec's generic names and ``_expand_cleared``'s ``(E, C)`` on the multiplications.

    Before any expansion: at least one multiplication, all of one dimension, and
    ``modulo`` of single monomials (``_monomial_generators``).  Each table is cleared
    of denominators once for all the specs, and the generic names avoid every name of
    the tables and of ``modulo``.  A spec needs one slot per multiplication.
    """
    mults = [mults] if isinstance(mults, Multiplication) else list(mults)
    if not mults:
        raise SlotMismatch("no multiplications supplied")
    if any(m.dim != mults[0].dim for m in mults):
        raise DimMismatch("multiplications act on different dimensions")
    avoid = set().union(*(g.names() for g in _monomial_generators(modulo)),
                        *(m.names() for m in mults))
    cleared, denominators = zip(*map(_clear_denominators, mults))
    for spec in specs:
        if spec.nslots != len(mults):
            raise SlotMismatch(
                f"identity {spec.name!r} needs {spec.nslots} multiplications, got {len(mults)}"
            )
        names = fresh_generic_names(spec.nvars, mults[0].dim, avoid)
        yield (names, *_expand_cleared(spec, cleared, denominators, names))


def check_identity(
    mults: Union[Multiplication, Sequence[Multiplication]],
    spec: SpecOrBundle,
    modulo: Sequence[Poly] = (),
) -> Verdict:
    """Decide whether the identities hold for the given multiplications.

    Obstructions are the coefficients of the generic-coordinate monomials
    that fail to vanish: polynomials in whatever parameters remain in the
    structure constants.  The expansion runs over integers: each slot's
    tensor is scaled once by the lcm D_s of its coefficient denominators,
    each term is weighted by the powers of D_s it lacks, and the
    coefficients are reduced by the monomial ideal of ``modulo`` (used for
    tables with side constraints such as ``ab = 0``).  Reducing commutes
    with scaling, so each distinct one is divided back once by the common
    factor prod_s D_s^top_s: the obstructions are exactly those of the
    plain rational expansion.  A generator that is not a single monomial
    of positive degree raises ``ValueError`` before anything is expanded.

    The obstructions come in one canonical order: by spec, then by
    coordinate of the expansion, then by the readable generic monomial
    they are the coefficient of (a tuple of ``(name, exponent)`` pairs,
    compared as tuples), each kept at its first place only.  No order in
    which a polynomial stores its terms shows in the result.

    Only one basis tuple per orbit of the spec's symmetry group is
    expanded (see the module docstring); the others repeat its
    obstructions at later places, so the result is the same.  ``holds`` is
    known at once; the division by the common factor, and the dedupe
    across a bundle, wait for the first read of ``obstructions``.
    """
    specs = (spec,) if isinstance(spec, IdentitySpec) else tuple(spec)
    undivided = []
    for _, expanded, common in _expansions(mults, specs, modulo):
        reduced = dict.fromkeys(expanded[key].reduce_monomials(modulo) for key in sorted(expanded))
        undivided.append((tuple(coeff for coeff in reduced if not coeff.is_zero()), common))
    return Verdict._lazy(undivided)


def check_ann_equality(
    mults: Union[Multiplication, Sequence[Multiplication]],
    lhs: IdentitySpec,
    rhs: IdentitySpec,
    ann: Subspace,
) -> Verdict:
    """Whether lhs - rhs lands in the given annihilator for all arguments.

    Expands the difference with generic coordinates, as one combination
    over denominator-cleared tensors like ``check_identity``; for each
    monomial in the generic coordinates, the vector of coefficients (one
    per basis index), divided back by the common factor, must be rational
    and must lie in the span of ``ann``.
    """
    if lhs.nslots != rhs.nslots:
        raise SlotMismatch(f"{lhs.name!r} and {rhs.name!r} use different numbers of multiplications")
    difference = IdentitySpec(f"{lhs.name} - {rhs.name}", max(lhs.nvars, rhs.nvars), lhs.nslots,
                              lhs.terms + tuple((-c, t) for c, t in rhs.terms))
    (names, diff, common), = _expansions(mults, (difference,))
    dim = len(names[0])
    if ann.ambient != dim:
        raise DimMismatch("annihilator ambient dimension differs")
    by_monomial: Dict[Monomial, List[Poly]] = {}
    for (k, mono), coeff in _orbit_keys(diff, difference, names).items():
        by_monomial.setdefault(mono, [Poly.zero()] * dim)[k] = coeff if common == 1 else coeff / common

    obstructions: List[Poly] = []
    for mono, vector in sorted(by_monomial.items()):
        values = []
        for coeff in vector:
            if not coeff.is_constant():
                raise SymbolicCoefficient(
                    f"coefficient {coeff} is not rational; substitute parameters first"
                )
            values.append(coeff.constant_value())
        if not ann.contains(values):
            witness = Poly({mono: Fraction(1)})
            combo = Poly.zero()
            for k, value in enumerate(values):
                if value:
                    combo = combo + Poly.var(f"E{k + 1}") * value
            obstructions.append(witness * combo)
    return Verdict(not obstructions, tuple(obstructions))
