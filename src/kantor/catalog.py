"""Built-in algebras with verified metadata.

Each entry carries a multiplication table, the variety tags it satisfies
(re-checked on load), optional expected Kantor squares for the symbolic
reference vector, isomorphism witnesses (candidate matrices that are
verified, never searched), and, for two-product entries, the companion
multiplication with its own tags.

An entry is one ``add`` call: its algebra, built by ``_alg`` from a name
and a table, then only the facts it asserts.  The entry's key is the
algebra's name; an expected square is ``ExpectedSquare(table)`` unless it
specializes parameters; witness vectors, matrices and ``extras`` are
plain integer tuples.

The classical small-dimensional algebras keep their customary catalog
labels (T02US, T13, T14, A1alpha, A2, A3, A0, Aalpha, S2, C8); the
remaining entries are constructed instances whose notes explain how they
were derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Dict, Optional, Tuple

from .algebra import Algebra, Element, Multiplication, verify_isomorphism
from .constructions import bracket_from_derivation
from .errors import CatalogSelfTestFailed
from .identities import _monomial_generators, builtin, check_identity
from .poly import parse_poly
from .product import kantor_square


@dataclass(frozen=True)
class ExpectedSquare:
    """A frozen Kantor-square table for the symbolic reference vector u1..un."""

    table: Multiplication
    params: Dict[str, Rational] = field(default_factory=dict)
    label: str = "symbolic"


@dataclass(frozen=True)
class IsoWitness:
    """A candidate isomorphism from a specialization of the square to a target."""

    label: str
    u: Tuple[Rational, ...]
    matrix: Tuple[Tuple[Rational, ...], ...]
    target: str
    params: Dict[str, Rational] = field(default_factory=dict)


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog algebra and the facts asserted about it, keyed by the algebra's name."""

    algebra: Algebra
    tags: Tuple[str, ...] = ()
    counter_tags: Tuple[str, ...] = ()
    expected_squares: Tuple[ExpectedSquare, ...] = ()
    iso_witnesses: Tuple[IsoWitness, ...] = ()
    pair_kind: str = ""
    pair: Optional[Multiplication] = None
    pair_tags: Tuple[str, ...] = ()
    second_tags: Tuple[str, ...] = ()
    extras: Dict[str, object] = field(default_factory=dict)
    notes: str = ""

    @property
    def key(self) -> str:
        return self.algebra.name

    @property
    def mult(self) -> Multiplication:
        return self.algebra.mult

    @property
    def dim(self) -> int:
        return self.algebra.dim


def _alg(name, dim, entries, params=(), constraints=()) -> Algebra:
    """The algebra, its constraints checked as ``files.parse_algebra`` checks them."""
    constraints = _monomial_generators([parse_poly(c, allowed=params) for c in constraints])
    mult = Multiplication.from_table(dim, entries)
    return Algebra(name, mult, params=tuple(params), constraints=tuple(constraints))


def _skew(entries: Dict[Tuple[int, int, int], object]) -> Dict[Tuple[int, int, int], object]:
    """Extend a table given on pairs i<j to an anticommutative table."""
    out = dict(entries)
    for (i, j, k), value in entries.items():
        if i < j:
            out[(j, i, k)] = f"-({value})" if isinstance(value, str) else -Fraction(value)
    return out


def _sym(entries: Dict[Tuple[int, int, int], object]) -> Dict[Tuple[int, int, int], object]:
    """Extend a table given on pairs i<=j to a commutative table."""
    out = dict(entries)
    for (i, j, k), value in entries.items():
        if i < j:
            out[(j, i, k)] = value
    return out


def _truncated_poly(dim: int) -> Dict[Tuple[int, int, int], int]:
    """The table of t^(i-1) t^(j-1) = t^(i+j-2) in one variable, cut off at t^dim."""
    return {(i, j, i + j - 1): 1 for i in range(1, dim + 1) for j in range(1, dim + 2 - i)}


def _derivation_matrix(dim: int) -> Tuple[Tuple[int, ...], ...]:
    # Euler derivation t d/dt: the only gradings of d/dt itself do not
    # preserve the truncation ideal, but t d/dt does (D(t^k) = k t^k).
    return tuple(tuple(k if j == k else 0 for j in range(dim)) for k in range(dim))


def _build_entries() -> Dict[str, CatalogEntry]:
    entries: Dict[str, CatalogEntry] = {}

    def add(algebra: Algebra, **facts):
        entries[algebra.name] = CatalogEntry(algebra, **facts)

    # -- three-dimensional commutative Jordan algebras ----------------------
    t02_square = Multiplication.from_table(3, _sym({
        (1, 1, 1): "-u1", (2, 2, 2): "-u2",
        (3, 3, 1): "-u2", (3, 3, 2): "-u1", (3, 3, 3): "-u3",
        (1, 3, 1): "-u3", (1, 3, 3): "-u1/2",
        (2, 3, 2): "-u3", (2, 3, 3): "-u2/2",
        (1, 2, 3): "-u3/2",
    }))
    add(
        _alg("T02US", 3, _sym({
            (1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 1): 1, (3, 3, 2): 1,
            (1, 3, 3): "1/2", (2, 3, 3): "1/2",
        })),
        tags=("commutative", "jordan", "middle_commutative", "pseudo_flexible",
              "weakly_associative"),
        counter_tags=("associative",),
        expected_squares=(ExpectedSquare(t02_square),),
        iso_witnesses=(
            IsoWitness(label="u=(1,1,0) self", u=(1, 1, 0),
                       matrix=((-1, 0, 0), (0, -1, 0), (0, 0, 1)), target="T02US"),
            IsoWitness(label="u=(0,1,0) to T13", u=(0, 1, 0),
                       matrix=((0, 0, -1), (-1, 0, 0), (0, 1, 0)), target="T13"),
        ),
        extras={
            # swap of the two idempotents; an involution fixing the unit e1+e2
            "involution": ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
            "self_adjoint_central": (1, 1, 0),
        },
        notes="unital Jordan algebra, unit e1+e2; the square at u=(0,0,u3) is "
              "Jordan but its printed target table is external, so only the "
              "Jordan property is asserted there",
    )

    t13_square = Multiplication.from_table(
        3, _sym({(1, 1, 1): "-u1", (1, 2, 2): "-u1/2", (2, 2, 3): "-u1"}))
    add(
        _alg("T13", 3, _sym({(1, 1, 1): 1, (1, 2, 2): "1/2", (2, 2, 3): 1})),
        tags=("commutative", "jordan", "middle_commutative", "pseudo_flexible",
              "weakly_associative"),
        counter_tags=("associative",),
        expected_squares=(ExpectedSquare(t13_square),),
        iso_witnesses=(
            IsoWitness(label="u=(1,0,0) self", u=(1, 0, 0),
                       matrix=((-1, 0, 0), (0, 1, 0), (0, 0, -1)), target="T13"),
        ),
    )

    t14_square = Multiplication.from_table(3, _sym({(1, 1, 1): "-u1", (1, 2, 2): "-u1/2"}))
    add(
        _alg("T14", 3, _sym({(1, 1, 1): 1, (1, 2, 2): "1/2"})),
        tags=("commutative", "jordan", "weakly_associative"),
        expected_squares=(ExpectedSquare(t14_square),),
        iso_witnesses=(
            IsoWitness(label="u=(1,0,0) self", u=(1, 0, 0),
                       matrix=((-1, 0, 0), (0, 1, 0), (0, 0, 1)), target="T14"),
        ),
    )

    # -- three-dimensional non-Lie anticommutative algebras -----------------
    a1_square = Multiplication.from_table(3, _skew({
        (1, 2, 2): "-alpha*u3", (1, 2, 3): "(1+alpha)*u3",
        (1, 3, 2): "alpha*u2", (1, 3, 3): "-(1+alpha)*u2",
        (2, 3, 2): "-alpha*u1", (2, 3, 3): "(1+alpha)*u1",
    }))
    add(
        _alg("A1alpha", 3, _skew({
            (1, 2, 3): 1, (1, 3, 1): 1, (1, 3, 3): 1, (2, 3, 2): "alpha",
        }), params=("alpha",)),
        tags=("anticommutative",),
        counter_tags=("jacobi",),
        expected_squares=(ExpectedSquare(a1_square),),
    )

    a2_square = Multiplication.from_table(
        3, _skew({(1, 2, 1): "u3", (1, 3, 1): "-u2", (2, 3, 1): "u1"}))
    add(
        _alg("A2", 3, _skew({(1, 2, 1): 1, (2, 3, 2): 1})),
        tags=("anticommutative",),
        counter_tags=("jacobi",),
        expected_squares=(ExpectedSquare(a2_square),),
        notes="zero annihilator",
    )

    a3_square = Multiplication.from_table(
        3, _skew({(1, 2, 3): "2*u3", (1, 3, 3): "-2*u2", (2, 3, 3): "2*u1"}))
    add(
        _alg("A3", 3, _skew({(1, 2, 3): 1, (1, 3, 1): 1, (2, 3, 2): 1})),
        tags=("anticommutative",),
        counter_tags=("jacobi",),
        expected_squares=(ExpectedSquare(a3_square),),
    )

    # -- four-dimensional non-Lie binary Lie algebras ------------------------
    a0_square = Multiplication.from_table(
        4, _skew({(1, 2, 3): "-u4", (1, 4, 3): "u2", (2, 4, 3): "-u1"}))
    add(
        _alg("A0", 4, _skew({(1, 2, 3): 1, (3, 4, 3): 1})),
        tags=("anticommutative", "binary_lie"),
        counter_tags=("jacobi",),
        expected_squares=(ExpectedSquare(a0_square),),
    )

    aalpha_square = Multiplication.from_table(4, _skew({
        (1, 2, 3): "(2-alpha)*u4", (1, 4, 3): "-(2-alpha)*u2", (2, 4, 3): "(2-alpha)*u1",
    }))
    add(
        _alg("Aalpha", 4, _skew({
            (1, 2, 3): 1, (1, 4, 1): 1, (2, 4, 2): 1, (3, 4, 3): "alpha",
        }), params=("alpha",)),
        tags=("anticommutative", "binary_lie"),
        counter_tags=("jacobi",),
        expected_squares=(
            ExpectedSquare(aalpha_square),
            ExpectedSquare(Multiplication.zero(4), {"alpha": 2}, "alpha=2 (Lie member)"),
        ),
        iso_witnesses=(
            IsoWitness(
                label="alpha=0, u=e4 to padded Heisenberg",
                u=(0, 0, 0, 1),
                matrix=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1)),
                target="heis4",
                params={"alpha": 0},
            ),
        ),
    )

    # -- Lie algebras ---------------------------------------------------------
    add(
        _alg("S2", 2, {(1, 2, 2): 1, (2, 1, 2): -1}),
        tags=("anticommutative", "jacobi", "middle_commutative", "pseudo_flexible",
              "weakly_associative"),
        expected_squares=(ExpectedSquare(Multiplication.zero(2)),),
        extras={
            # Normal forms of the nonzero commutative post-Lie structures:
            # with g2_2 = 0 and g1_2 != 0 rescaling e2 by g1_2 gives (I);
            # with g2_2 = 1 the options are (II) (g1_2 = 0) and (III).
            "postlie_normal_forms": {
                "I": {(1, 1, 2): 1},
                "II": {(1, 2, 2): 1, (2, 1, 2): 1},
                "III": {(1, 1, 2): 1, (1, 2, 2): 1, (2, 1, 2): 1},
            },
        },
        notes="solvable two-dimensional Lie algebra",
    )

    add(
        _alg("heis3", 3, _skew({(1, 2, 3): 1})),
        tags=("anticommutative", "jacobi", "anti_associative", "middle_commutative",
              "weakly_associative"),
        expected_squares=(ExpectedSquare(Multiplication.zero(3)),),
        notes="nilpotent three-dimensional Lie algebra",
    )

    add(
        _alg("r2c", 3, _skew({(1, 2, 2): 1})),
        tags=("anticommutative", "jacobi"),
        expected_squares=(ExpectedSquare(Multiplication.zero(3)),),
        notes="metabelian non-nilpotent three-dimensional Lie algebra with "
              "one-dimensional square plus a central direction; forced by its "
              "invariants as the non-nilpotent target of the binary-Lie squares",
    )

    add(
        _alg("heis4", 4, _skew({(1, 2, 3): 1})),
        tags=("anticommutative", "jacobi"),
        expected_squares=(ExpectedSquare(Multiplication.zero(4)),),
        notes="Heisenberg table padded with a central e4; target of the "
              "binary-Lie square specializations",
    )

    # -- two-dimensional Jordan algebra used by the Poisson classification ---
    add(
        _alg("J2", 2, _sym({(1, 1, 1): 1, (1, 2, 2): "1/2"})),
        tags=("commutative", "jordan", "weakly_associative"),
        counter_tags=("associative",),
        notes="idempotent with a half-eigenvalue line",
    )

    # -- Novikov-Poisson material --------------------------------------------
    circ = Multiplication.from_table(3, {(3, 1, 1): 1, (3, 2, 2): 1, (3, 3, 3): 1})
    add(
        _alg("C8", 3, _sym({
            (1, 3, 1): "a", (1, 3, 2): "b", (2, 2, 2): "c", (2, 3, 2): "a",
            (3, 3, 1): "d", (3, 3, 2): "f", (3, 3, 3): "a",
        }), params=("a", "b", "c", "d", "f"), constraints=("f*c", "a*b", "b*c")),
        tags=("commutative", "associative"),
        pair_kind="novikov_circle",
        pair=circ,
        pair_tags=("novikov_poisson_nva",),
        second_tags=("left_novikov",),
        notes="printed table of a three-dimensional left Novikov-Poisson "
              "family; the second compatibility fails for c != 0 (obstruction "
              "proportional to c), so the full bundle is only asserted on the "
              "c = 0 subfamily NP3 and at evaluation points",
    )

    np3_table = _sym({
        (1, 3, 1): "a", (2, 3, 2): "a", (3, 3, 1): "d", (3, 3, 2): "f", (3, 3, 3): "a",
    })
    add(
        _alg("NP3", 3, np3_table, params=("a", "d", "f")),
        tags=("commutative", "associative"),
        pair_kind="novikov_circle",
        pair=circ,
        pair_tags=("left_novikov_poisson",),
        second_tags=("left_novikov",),
        notes="the b = c = 0 subfamily of C8; satisfies the whole left "
              "Novikov-Poisson bundle identically in a, d, f",
    )

    add(
        _alg("C8R", 3, np3_table, params=("a", "d", "f")),
        tags=("commutative", "associative"),
        pair_kind="prelie_circle",
        pair=circ.opposite(),
        pair_tags=("right_prelie_poisson",),
        second_tags=("left_symmetric",),
        notes="opposite circle product on the b = c = 0 subfamily of C8; a "
              "right pre-Lie Poisson instance",
    )

    # -- transposed Poisson and Poisson pairs ---------------------------------
    qt4 = _alg("qt4", 4, _truncated_poly(4))
    add(
        qt4,
        tags=("commutative", "associative", "jordan", "weakly_associative"),
        pair_kind="derivation_bracket",
        pair=bracket_from_derivation(qt4.mult, _derivation_matrix(4)),
        pair_tags=("transposed_poisson",),
        second_tags=("anticommutative", "jacobi"),
        extras={"derivation": _derivation_matrix(4)},
        notes="truncated polynomial algebra in one variable (four terms) with "
              "the bracket of the shift derivation",
    )

    add(
        _alg("AC3", 3, _truncated_poly(3)),
        tags=("commutative", "associative", "weakly_associative", "jordan"),
        notes="truncated polynomial algebra in one variable (three terms)",
    )

    add(
        _alg("lp3", 3, {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1, (1, 3, 3): 1, (3, 1, 3): 1}),
        tags=("commutative", "associative"),
        pair_kind="poisson_bracket",
        pair=Multiplication.from_table(3, {(2, 3, 3): 1, (3, 2, 3): -1}),
        pair_tags=("poisson", "generic_poisson"),
        second_tags=("anticommutative", "jacobi"),
        notes="linear Poisson bracket of the solvable two-dimensional Lie "
              "algebra truncated at the square of the augmentation ideal",
    )

    # -- nilpotent instances for the variety closure suite --------------------
    add(
        _alg("nil2", 2, {(1, 1, 2): 1}),
        tags=("commutative", "associative", "mock_lie", "right_leibniz",
              "two_sided_leibniz", "left_symmetric", "middle_commutative",
              "pseudo_flexible", "weakly_associative", "jordan"),
        expected_squares=(ExpectedSquare(Multiplication.zero(2)),),
        notes="one nilpotent square generator",
    )

    add(
        _alg("N3", 3, {(1, 2, 3): 1}),
        tags=("associative", "middle_commutative", "pseudo_flexible",
              "weakly_associative", "left_symmetric", "right_leibniz",
              "two_sided_leibniz", "anti_associative"),
        counter_tags=("commutative", "anticommutative"),
        expected_squares=(ExpectedSquare(Multiplication.zero(3)),),
        notes="single directed product e1*e2 = e3; neither commutative nor "
              "anticommutative, all triple products vanish",
    )

    add(
        _alg("ML3", 3, _sym({(1, 2, 3): 1})),
        tags=("commutative", "mock_lie", "jordan", "middle_commutative"),
        expected_squares=(ExpectedSquare(Multiplication.zero(3)),),
    )

    add(
        _alg("ML5", 5, _sym({(1, 1, 3): 1, (1, 2, 4): 1, (2, 3, 5): -2, (1, 4, 5): 1})),
        tags=("commutative", "mock_lie", "jordan"),
        notes="five-dimensional commutative algebra with vanishing "
              "Jacobiator and a nonzero triple product: a**2 = p, ab = q, "
              "pb = -2 qa; constructed by closing the Jacobiator relations",
    )

    add(
        _alg("AA3", 3, {(1, 1, 2): 1, (2, 1, 3): 1, (1, 2, 3): -1}),
        tags=("anti_associative",),
        counter_tags=("commutative", "anticommutative"),
        notes="free-style anti-associative table on one generator, nilpotency "
              "index four",
    )

    add(
        _alg("PL3", 3, {(1, 2, 2): 1, (1, 3, 3): 2, (2, 2, 3): 1}),
        tags=("left_symmetric",),
        counter_tags=("associative", "commutative"),
        notes="multiplication f * g = f D(g) with the Euler derivation D on "
              "the three-term truncated polynomial algebra; left-symmetric "
              "(associator -f g D^2(h)) and not associative",
    )

    add(
        _alg("zero2", 2, {}),
        tags=("commutative", "anticommutative", "associative", "jacobi",
              "mock_lie", "jordan", "weakly_associative"),
        expected_squares=(ExpectedSquare(Multiplication.zero(2)),),
    )

    return entries


_CACHE: Optional[Dict[str, CatalogEntry]] = None
_VERIFIED = False


def verify_entry(entry: CatalogEntry):
    """Re-check every piece of metadata on one entry."""
    constraints = entry.algebra.constraints

    def check_tags(mults, tags, where):
        for tag in tags:
            verdict = check_identity(mults, builtin(tag), modulo=constraints)
            if not verdict.holds:
                raise CatalogSelfTestFailed(
                    f"{entry.key}: tag {tag!r} fails on {where}: "
                    f"{[str(p) for p in verdict.obstructions]}"
                )

    check_tags(entry.mult, entry.tags, "the main multiplication")
    for tag in entry.counter_tags:
        verdict = check_identity(entry.mult, builtin(tag), modulo=constraints)
        if verdict.holds:
            raise CatalogSelfTestFailed(
                f"{entry.key}: counter-tag {tag!r} unexpectedly holds"
            )

    for expected in entry.expected_squares:
        mult = entry.mult.substitute(expected.params) if expected.params else entry.mult
        square = kantor_square(mult)
        if square != expected.table:
            raise CatalogSelfTestFailed(
                f"{entry.key}: expected square {expected.label!r} does not match"
            )

    if entry.pair is not None:
        check_tags(entry.pair, entry.second_tags, "the companion multiplication")
        check_tags([entry.mult, entry.pair], entry.pair_tags, "the pair")


def _verify_witnesses(entries: Dict[str, CatalogEntry]):
    for entry in entries.values():
        for witness in entry.iso_witnesses:
            mult = entry.mult.substitute(witness.params) if witness.params else entry.mult
            square = kantor_square(mult, Element(witness.u))
            if not verify_isomorphism(witness.matrix, square, entries[witness.target].mult):
                raise CatalogSelfTestFailed(
                    f"{entry.key}: isomorphism witness {witness.label!r} fails"
                )


def load_catalog(selftest: bool = True) -> Dict[str, CatalogEntry]:
    """The catalog, keyed by entry name; verified on first load by default."""
    global _CACHE, _VERIFIED
    if _CACHE is None:
        _CACHE = _build_entries()
    if selftest and not _VERIFIED:
        for entry in _CACHE.values():
            verify_entry(entry)
        _verify_witnesses(_CACHE)
        _VERIFIED = True
    return _CACHE
