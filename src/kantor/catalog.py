"""Built-in algebras with verified metadata.

Each entry carries a multiplication table, the variety tags it satisfies
(re-checked on load), optional expected Kantor squares for the symbolic
reference vector, isomorphism witnesses (candidate matrices that are
verified, never searched), and, for two-product entries, the companion
multiplication with its own tags.

The classical small-dimensional algebras keep their customary catalog
labels (T02US, T13, T14, A1alpha, A2, A3, A0, Aalpha, S2, C8); the
remaining entries are constructed instances whose notes explain how they
were derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .algebra import Algebra, Element, Multiplication, verify_isomorphism
from .constructions import bracket_from_derivation
from .errors import CatalogSelfTestFailed
from .identities import builtin, check_identity
from .poly import Poly, parse_poly
from .product import kantor_square

QQ = Fraction


@dataclass(frozen=True)
class ExpectedSquare:
    """A frozen Kantor-square table for a given reference vector."""

    label: str
    u: Optional[Element]  # None means the symbolic vector u1..un
    params: Dict[str, Fraction]
    table: Multiplication


@dataclass(frozen=True)
class IsoWitness:
    """A candidate isomorphism from a specialization of the square to a target."""

    label: str
    u: Tuple[Fraction, ...]
    params: Dict[str, Fraction]
    matrix: Tuple[Tuple[Fraction, ...], ...]
    target: str


@dataclass(frozen=True)
class CatalogEntry:
    key: str
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
    def mult(self) -> Multiplication:
        return self.algebra.mult

    @property
    def dim(self) -> int:
        return self.algebra.dim


def _alg(name, dim, entries, params=(), constraints=()) -> Algebra:
    constraints = tuple(parse_poly(c, allowed=params) for c in constraints)
    mult = Multiplication.from_table(dim, entries)
    return Algebra(name, mult, params=tuple(params), constraints=constraints)


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


def _truncated_poly_mult(dim: int) -> Multiplication:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            if i + j - 1 <= dim:
                entries[(i, j, i + j - 1)] = 1
    return Multiplication.from_table(dim, entries)


def _derivation_matrix(dim: int):
    # Euler derivation t d/dt: the only gradings of d/dt itself do not
    # preserve the truncation ideal, but t d/dt does (D(t^k) = k t^k).
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(1, dim):
        rows[k][k] = Fraction(k)
    return rows


def _build_entries() -> Dict[str, CatalogEntry]:
    entries: Dict[str, CatalogEntry] = {}

    def add(entry: CatalogEntry):
        entries[entry.key] = entry

    # -- three-dimensional commutative Jordan algebras ----------------------
    t02 = _alg("T02US", 3, _sym({
        (1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 1): 1, (3, 3, 2): 1,
        (1, 3, 3): "1/2", (2, 3, 3): "1/2",
    }))
    t02_square = Multiplication.from_table(3, _sym({
        (1, 1, 1): "-u1", (2, 2, 2): "-u2",
        (3, 3, 1): "-u2", (3, 3, 2): "-u1", (3, 3, 3): "-u3",
        (1, 3, 1): "-u3", (1, 3, 3): "-u1/2",
        (2, 3, 2): "-u3", (2, 3, 3): "-u2/2",
        (1, 2, 3): "-u3/2",
    }))
    add(CatalogEntry(
        key="T02US",
        algebra=t02,
        tags=("commutative", "jordan", "middle_commutative", "pseudo_flexible",
              "weakly_associative"),
        counter_tags=("associative",),
        expected_squares=(ExpectedSquare("symbolic", None, {}, t02_square),),
        iso_witnesses=(
            IsoWitness(
                label="u=(1,1,0) self",
                u=(QQ(1), QQ(1), QQ(0)),
                params={},
                matrix=((QQ(-1), QQ(0), QQ(0)), (QQ(0), QQ(-1), QQ(0)), (QQ(0), QQ(0), QQ(1))),
                target="T02US",
            ),
            IsoWitness(
                label="u=(0,1,0) to T13",
                u=(QQ(0), QQ(1), QQ(0)),
                params={},
                matrix=((QQ(0), QQ(0), QQ(-1)), (QQ(-1), QQ(0), QQ(0)), (QQ(0), QQ(1), QQ(0))),
                target="T13",
            ),
        ),
        extras={
            # swap of the two idempotents; an involution fixing the unit e1+e2
            "involution": ((QQ(0), QQ(1), QQ(0)), (QQ(1), QQ(0), QQ(0)), (QQ(0), QQ(0), QQ(1))),
            "self_adjoint_central": (QQ(1), QQ(1), QQ(0)),
        },
        notes="unital Jordan algebra, unit e1+e2; the square at u=(0,0,u3) is "
              "Jordan but its printed target table is external, so only the "
              "Jordan property is asserted there",
    ))

    t13 = _alg("T13", 3, _sym({(1, 1, 1): 1, (1, 2, 2): "1/2", (2, 2, 3): 1}))
    t13_square = Multiplication.from_table(
        3, _sym({(1, 1, 1): "-u1", (1, 2, 2): "-u1/2", (2, 2, 3): "-u1"}))
    add(CatalogEntry(
        key="T13",
        algebra=t13,
        tags=("commutative", "jordan", "middle_commutative", "pseudo_flexible",
              "weakly_associative"),
        counter_tags=("associative",),
        expected_squares=(ExpectedSquare("symbolic", None, {}, t13_square),),
        iso_witnesses=(
            IsoWitness(
                label="u=(1,0,0) self",
                u=(QQ(1), QQ(0), QQ(0)),
                params={},
                matrix=((QQ(-1), QQ(0), QQ(0)), (QQ(0), QQ(1), QQ(0)), (QQ(0), QQ(0), QQ(-1))),
                target="T13",
            ),
        ),
    ))

    t14 = _alg("T14", 3, _sym({(1, 1, 1): 1, (1, 2, 2): "1/2"}))
    t14_square = Multiplication.from_table(3, _sym({(1, 1, 1): "-u1", (1, 2, 2): "-u1/2"}))
    add(CatalogEntry(
        key="T14",
        algebra=t14,
        tags=("commutative", "jordan", "weakly_associative"),
        expected_squares=(ExpectedSquare("symbolic", None, {}, t14_square),),
        iso_witnesses=(
            IsoWitness(
                label="u=(1,0,0) self",
                u=(QQ(1), QQ(0), QQ(0)),
                params={},
                matrix=((QQ(-1), QQ(0), QQ(0)), (QQ(0), QQ(1), QQ(0)), (QQ(0), QQ(0), QQ(1))),
                target="T14",
            ),
        ),
    ))

    # -- three-dimensional non-Lie anticommutative algebras -----------------
    a1 = _alg("A1alpha", 3, _skew({
        (1, 2, 3): 1, (1, 3, 1): 1, (1, 3, 3): 1, (2, 3, 2): "alpha",
    }), params=("alpha",))
    a1_square = Multiplication.from_table(3, _skew({
        (1, 2, 2): "-alpha*u3", (1, 2, 3): "(1+alpha)*u3",
        (1, 3, 2): "alpha*u2", (1, 3, 3): "-(1+alpha)*u2",
        (2, 3, 2): "-alpha*u1", (2, 3, 3): "(1+alpha)*u1",
    }))
    add(CatalogEntry(
        key="A1alpha",
        algebra=a1,
        tags=("anticommutative",),
        counter_tags=("jacobi",),
        expected_squares=(ExpectedSquare("symbolic", None, {}, a1_square),),
    ))

    a2 = _alg("A2", 3, _skew({(1, 2, 1): 1, (2, 3, 2): 1}))
    a2_square = Multiplication.from_table(
        3, _skew({(1, 2, 1): "u3", (1, 3, 1): "-u2", (2, 3, 1): "u1"}))
    add(CatalogEntry(
        key="A2",
        algebra=a2,
        tags=("anticommutative",),
        counter_tags=("jacobi",),
        expected_squares=(ExpectedSquare("symbolic", None, {}, a2_square),),
        notes="zero annihilator",
    ))

    a3 = _alg("A3", 3, _skew({(1, 2, 3): 1, (1, 3, 1): 1, (2, 3, 2): 1}))
    a3_square = Multiplication.from_table(
        3, _skew({(1, 2, 3): "2*u3", (1, 3, 3): "-2*u2", (2, 3, 3): "2*u1"}))
    add(CatalogEntry(
        key="A3",
        algebra=a3,
        tags=("anticommutative",),
        counter_tags=("jacobi",),
        expected_squares=(ExpectedSquare("symbolic", None, {}, a3_square),),
    ))

    # -- four-dimensional non-Lie binary Lie algebras ------------------------
    a0 = _alg("A0", 4, _skew({(1, 2, 3): 1, (3, 4, 3): 1}))
    a0_square = Multiplication.from_table(
        4, _skew({(1, 2, 3): "-u4", (1, 4, 3): "u2", (2, 4, 3): "-u1"}))
    add(CatalogEntry(
        key="A0",
        algebra=a0,
        tags=("anticommutative", "binary_lie"),
        counter_tags=("jacobi",),
        expected_squares=(ExpectedSquare("symbolic", None, {}, a0_square),),
    ))

    aalpha = _alg("Aalpha", 4, _skew({
        (1, 2, 3): 1, (1, 4, 1): 1, (2, 4, 2): 1, (3, 4, 3): "alpha",
    }), params=("alpha",))
    aalpha_square = Multiplication.from_table(4, _skew({
        (1, 2, 3): "(2-alpha)*u4", (1, 4, 3): "-(2-alpha)*u2", (2, 4, 3): "(2-alpha)*u1",
    }))
    add(CatalogEntry(
        key="Aalpha",
        algebra=aalpha,
        tags=("anticommutative", "binary_lie"),
        counter_tags=("jacobi",),
        expected_squares=(
            ExpectedSquare("symbolic", None, {}, aalpha_square),
            ExpectedSquare("alpha=2 (Lie member)", None, {"alpha": QQ(2)},
                           Multiplication.zero(4)),
        ),
        iso_witnesses=(
            IsoWitness(
                label="alpha=0, u=e4 to padded Heisenberg",
                u=(QQ(0), QQ(0), QQ(0), QQ(1)),
                params={"alpha": QQ(0)},
                matrix=(
                    (QQ(1), QQ(0), QQ(0), QQ(0)),
                    (QQ(0), QQ(1), QQ(0), QQ(0)),
                    (QQ(0), QQ(0), QQ(2), QQ(0)),
                    (QQ(0), QQ(0), QQ(0), QQ(1)),
                ),
                target="heis4",
            ),
        ),
    ))

    # -- Lie algebras ---------------------------------------------------------
    s2 = _alg("S2", 2, {(1, 2, 2): 1, (2, 1, 2): -1})
    add(CatalogEntry(
        key="S2",
        algebra=s2,
        tags=("anticommutative", "jacobi", "middle_commutative", "pseudo_flexible",
              "weakly_associative"),
        expected_squares=(ExpectedSquare("symbolic", None, {}, Multiplication.zero(2)),),
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
    ))

    heis3 = _alg("heis3", 3, _skew({(1, 2, 3): 1}))
    add(CatalogEntry(
        key="heis3",
        algebra=heis3,
        tags=("anticommutative", "jacobi", "anti_associative", "middle_commutative",
              "weakly_associative"),
        expected_squares=(ExpectedSquare("symbolic", None, {}, Multiplication.zero(3)),),
        notes="nilpotent three-dimensional Lie algebra",
    ))

    r2c = _alg("r2c", 3, _skew({(1, 2, 2): 1}))
    add(CatalogEntry(
        key="r2c",
        algebra=r2c,
        tags=("anticommutative", "jacobi"),
        expected_squares=(ExpectedSquare("symbolic", None, {}, Multiplication.zero(3)),),
        notes="metabelian non-nilpotent three-dimensional Lie algebra with "
              "one-dimensional square plus a central direction; forced by its "
              "invariants as the non-nilpotent target of the binary-Lie squares",
    ))

    heis4 = _alg("heis4", 4, _skew({(1, 2, 3): 1}))
    add(CatalogEntry(
        key="heis4",
        algebra=heis4,
        tags=("anticommutative", "jacobi"),
        expected_squares=(ExpectedSquare("symbolic", None, {}, Multiplication.zero(4)),),
        notes="Heisenberg table padded with a central e4; target of the "
              "binary-Lie square specializations",
    ))

    # -- two-dimensional Jordan algebra used by the Poisson classification ---
    j2 = _alg("J2", 2, _sym({(1, 1, 1): 1, (1, 2, 2): "1/2"}))
    add(CatalogEntry(
        key="J2",
        algebra=j2,
        tags=("commutative", "jordan", "weakly_associative"),
        counter_tags=("associative",),
        notes="idempotent with a half-eigenvalue line",
    ))

    # -- Novikov-Poisson material --------------------------------------------
    c8_dot = Multiplication.from_table(3, _sym({
        (1, 3, 1): "a", (1, 3, 2): "b", (2, 2, 2): "c", (2, 3, 2): "a",
        (3, 3, 1): "d", (3, 3, 2): "f", (3, 3, 3): "a",
    }))
    c8_circ = Multiplication.from_table(3, {(3, 1, 1): 1, (3, 2, 2): 1, (3, 3, 3): 1})
    c8 = Algebra("C8", c8_dot, params=("a", "b", "c", "d", "f"),
                 constraints=(parse_poly("f*c"), parse_poly("a*b"), parse_poly("b*c")))
    add(CatalogEntry(
        key="C8",
        algebra=c8,
        tags=("commutative", "associative"),
        pair_kind="novikov_circle",
        pair=c8_circ,
        pair_tags=("novikov_poisson_nva",),
        second_tags=("left_novikov",),
        notes="printed table of a three-dimensional left Novikov-Poisson "
              "family; the second compatibility fails for c != 0 (obstruction "
              "proportional to c), so the full bundle is only asserted on the "
              "c = 0 subfamily NP3 and at evaluation points",
    ))

    np3_dot = Multiplication.from_table(3, _sym({
        (1, 3, 1): "a", (2, 3, 2): "a", (3, 3, 1): "d", (3, 3, 2): "f", (3, 3, 3): "a",
    }))
    np3 = Algebra("NP3", np3_dot, params=("a", "d", "f"))
    add(CatalogEntry(
        key="NP3",
        algebra=np3,
        tags=("commutative", "associative"),
        pair_kind="novikov_circle",
        pair=c8_circ,
        pair_tags=("left_novikov_poisson",),
        second_tags=("left_novikov",),
        notes="the b = c = 0 subfamily of C8; satisfies the whole left "
              "Novikov-Poisson bundle identically in a, d, f",
    ))

    c8r_dot = np3_dot
    c8r_circ = c8_circ.opposite()
    c8r = Algebra("C8R", c8r_dot, params=("a", "d", "f"))
    add(CatalogEntry(
        key="C8R",
        algebra=c8r,
        tags=("commutative", "associative"),
        pair_kind="prelie_circle",
        pair=c8r_circ,
        pair_tags=("right_prelie_poisson",),
        second_tags=("left_symmetric",),
        notes="opposite circle product on the b = c = 0 subfamily of C8; a "
              "right pre-Lie Poisson instance",
    ))

    # -- transposed Poisson and Poisson pairs ---------------------------------
    qt4_dot = _truncated_poly_mult(4)
    qt4_bracket = bracket_from_derivation(qt4_dot, _derivation_matrix(4))
    qt4 = Algebra("qt4", qt4_dot)
    add(CatalogEntry(
        key="qt4",
        algebra=qt4,
        tags=("commutative", "associative", "jordan", "weakly_associative"),
        pair_kind="derivation_bracket",
        pair=qt4_bracket,
        pair_tags=("transposed_poisson",),
        second_tags=("anticommutative", "jacobi"),
        extras={"derivation": tuple(tuple(row) for row in _derivation_matrix(4))},
        notes="truncated polynomial algebra in one variable (four terms) with "
              "the bracket of the shift derivation",
    ))

    ac3 = Algebra("AC3", _truncated_poly_mult(3))
    add(CatalogEntry(
        key="AC3",
        algebra=ac3,
        tags=("commutative", "associative", "weakly_associative", "jordan"),
        notes="truncated polynomial algebra in one variable (three terms)",
    ))

    lp3_dot = Multiplication.from_table(3, {
        (1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1, (1, 3, 3): 1, (3, 1, 3): 1,
    })
    lp3_bracket = Multiplication.from_table(3, {(2, 3, 3): 1, (3, 2, 3): -1})
    lp3 = Algebra("lp3", lp3_dot)
    add(CatalogEntry(
        key="lp3",
        algebra=lp3,
        tags=("commutative", "associative"),
        pair_kind="poisson_bracket",
        pair=lp3_bracket,
        pair_tags=("poisson", "generic_poisson"),
        second_tags=("anticommutative", "jacobi"),
        notes="linear Poisson bracket of the solvable two-dimensional Lie "
              "algebra truncated at the square of the augmentation ideal",
    ))

    # -- nilpotent instances for the variety closure suite --------------------
    nil2 = _alg("nil2", 2, {(1, 1, 2): 1})
    add(CatalogEntry(
        key="nil2",
        algebra=nil2,
        tags=("commutative", "associative", "mock_lie", "right_leibniz",
              "two_sided_leibniz", "left_symmetric", "middle_commutative",
              "pseudo_flexible", "weakly_associative", "jordan"),
        expected_squares=(ExpectedSquare("symbolic", None, {}, Multiplication.zero(2)),),
        notes="one nilpotent square generator",
    ))

    n3 = _alg("N3", 3, {(1, 2, 3): 1})
    add(CatalogEntry(
        key="N3",
        algebra=n3,
        tags=("associative", "middle_commutative", "pseudo_flexible",
              "weakly_associative", "left_symmetric", "right_leibniz",
              "two_sided_leibniz", "anti_associative"),
        counter_tags=("commutative", "anticommutative"),
        expected_squares=(ExpectedSquare("symbolic", None, {}, Multiplication.zero(3)),),
        notes="single directed product e1*e2 = e3; neither commutative nor "
              "anticommutative, all triple products vanish",
    ))

    ml3 = _alg("ML3", 3, _sym({(1, 2, 3): 1}))
    add(CatalogEntry(
        key="ML3",
        algebra=ml3,
        tags=("commutative", "mock_lie", "jordan", "middle_commutative"),
        expected_squares=(ExpectedSquare("symbolic", None, {}, Multiplication.zero(3)),),
    ))

    ml5 = _alg("ML5", 5, _sym({
        (1, 1, 3): 1, (1, 2, 4): 1, (2, 3, 5): -2, (1, 4, 5): 1,
    }))
    add(CatalogEntry(
        key="ML5",
        algebra=ml5,
        tags=("commutative", "mock_lie", "jordan"),
        notes="five-dimensional commutative algebra with vanishing "
              "Jacobiator and a nonzero triple product: a**2 = p, ab = q, "
              "pb = -2 qa; constructed by closing the Jacobiator relations",
    ))

    aa3 = _alg("AA3", 3, {(1, 1, 2): 1, (2, 1, 3): 1, (1, 2, 3): -1})
    add(CatalogEntry(
        key="AA3",
        algebra=aa3,
        tags=("anti_associative",),
        counter_tags=("commutative", "anticommutative"),
        notes="free-style anti-associative table on one generator, nilpotency "
              "index four",
    ))

    pl3_entries = {(1, 2, 2): 1, (1, 3, 3): 2, (2, 2, 3): 1}
    pl3 = _alg("PL3", 3, pl3_entries)
    add(CatalogEntry(
        key="PL3",
        algebra=pl3,
        tags=("left_symmetric",),
        counter_tags=("associative", "commutative"),
        notes="multiplication f * g = f D(g) with the Euler derivation D on "
              "the three-term truncated polynomial algebra; left-symmetric "
              "(associator -f g D^2(h)) and not associative",
    ))

    zero2 = _alg("zero2", 2, {})
    add(CatalogEntry(
        key="zero2",
        algebra=zero2,
        tags=("commutative", "anticommutative", "associative", "jacobi",
              "mock_lie", "jordan", "weakly_associative"),
        expected_squares=(ExpectedSquare("symbolic", None, {}, Multiplication.zero(2)),),
    ))

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
        square = kantor_square(mult, expected.u)
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
            u = Element([Poly.const(c) for c in witness.u])
            square = kantor_square(mult, u)
            target = entries[witness.target].mult
            matrix = [list(row) for row in witness.matrix]
            if not verify_isomorphism(matrix, square, target):
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
