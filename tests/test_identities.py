import itertools
import math
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantor.algebra import (
    Element,
    Multiplication,
    _clear_denominators,
    annihilator,
    apply_basis_change,
    multiply,
)
from kantor.catalog import load_catalog
from kantor.errors import (
    DimMismatch,
    IndexOutOfRange,
    SlotMismatch,
    SymbolicCoefficient,
    UnknownIdentity,
)
from kantor.identities import (
    App,
    IdentitySpec,
    Var,
    Verdict,
    _mk,
    _representatives,
    builtin,
    builtin_names,
    check_ann_equality,
    check_identity,
    fresh_generic_names,
    reslot,
)
from kantor.linsolve import rank
from kantor.poly import Poly, parse_poly
from kantor.product import kantor_square


def rand_matrix(rng, dim):
    while True:
        m = [[F(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        if rank(m) == dim:
            return m


def eval_term(mults, term, values):
    """The term's value with each variable bound to an element of ``values``."""
    if isinstance(term, Var):
        return values[term.index]
    return multiply(
        mults[term.slot],
        eval_term(mults, term.left, values),
        eval_term(mults, term.right, values),
    )


def plain_combination(mults, terms, values):
    """sum c * term over Fraction coefficients, on the tensors as given."""
    total = Element.zero(mults[0].dim)
    for coeff, term in terms:
        total = total + eval_term(mults, term, values).scale(coeff)
    return total


def enumeration_verdict(mults, spec):
    """Oracle for multilinear specs: evaluate on all basis assignments."""
    if isinstance(mults, Multiplication):
        mults = [mults]
    dim = mults[0].dim
    basis = [Element.basis(dim, i) for i in range(dim)]
    for assignment in itertools.product(basis, repeat=spec.nvars):
        if not plain_combination(mults, spec.terms, assignment).is_zero():
            return False
    return True


def plain_obstructions(mults, specs, modulo=()):
    """Reference checker: the generic expansion over the uncleared tensors.

    Same obstructions, in the same order, as ``check_identity`` must give:
    the coefficients of the generic monomials, reduced by the monomial
    ideal of ``modulo``, by spec, coordinate and readable generic monomial,
    and deduplicated in that order.
    """
    if isinstance(mults, Multiplication):
        mults = [mults]
    if isinstance(specs, IdentitySpec):
        specs = (specs,)
    dim = mults[0].dim
    avoid = set().union(*(m.names() for m in mults), *(g.names() for g in modulo))
    gens = [dict(mono) for g in modulo for mono, _ in g.monomials()]
    found = []
    for spec in specs:
        names = fresh_generic_names(spec.nvars, dim, avoid)
        generic = {n for group in names for n in group}
        elements = [Element([Poly.var(n) for n in group]) for group in names]
        total = plain_combination(mults, spec.terms, elements)
        for coordinate in total.coords:
            for _, coeff in sorted(coordinate.split_by(generic).items(), key=lambda group: group[0]):
                kept = Poly({
                    mono: c for mono, c in coeff.monomials()
                    if not any(all(dict(mono).get(n, 0) >= e for n, e in gen.items()) for gen in gens)
                })
                if not kept.is_zero() and kept not in found:
                    found.append(kept)
    return tuple(found)


def assert_matches_plain(mults, specs, modulo=()):
    verdict = check_identity(mults, specs, modulo=modulo)
    expected = plain_obstructions(mults, specs, modulo)
    assert verdict.obstructions == expected
    assert [str(p) for p in verdict.obstructions] == [str(p) for p in expected]
    assert verdict.holds == (not expected)
    return verdict


def rand_fraction_table(rng, dim, denominators=(1, 2, 3, 4), density=1.0):
    entries = {}
    for key in itertools.product(range(1, dim + 1), repeat=3):
        if rng.random() < density:
            entries[key] = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(denominators))
    return Multiplication.from_table(dim, entries)


def test_registry_covers_the_documented_names():
    single = {
        "commutative", "anticommutative", "associative", "anti_associative",
        "flexible", "middle_commutative", "pseudo_flexible",
        "weakly_associative", "left_symmetric", "right_commutative",
        "left_commutative", "right_leibniz", "right_zinbiel", "right_novikov",
        "left_novikov", "jacobi", "jordan", "almost_jordan", "mock_lie",
        "binary_lie", "almost_lie_1", "almost_lie_2", "two_sided_leibniz",
        "alternative", "quasi_commutative_jordan", "noncommutative_jordan",
    }
    double = {
        "leibniz_rule", "dual_leibniz_rule", "transposed_poisson",
        "novikov_poisson_nva", "novikov_poisson_nvb", "prelie_poisson_1",
        "prelie_poisson_2", "postlie_2", "postlie_3",
    }
    names = set(builtin_names())
    assert single <= names and double <= names
    for name in names:
        bundle = builtin(name)
        slots = {spec.nslots for spec in bundle}
        assert len(slots) == 1, name
        assert (slots == {2}) == (name in double or name in {
            "poisson", "generic_poisson", "left_novikov_poisson",
            "right_prelie_poisson",
        }), name


def test_builtin_shapes():
    mc = builtin("middle_commutative")
    assert len(mc) == 1 and mc[0].nvars == 3
    dlr = builtin("dual_leibniz_rule")[0]
    assert dlr.nslots == 2 and dlr.nvars == 3
    al2 = builtin("almost_lie_2")
    assert any(spec.nvars == 4 for spec in al2)
    assert len(builtin("two_sided_leibniz")) == 3
    with pytest.raises(UnknownIdentity):
        builtin("nope")
    assert "jordan" in builtin_names()


def test_simple_verdicts():
    cat = load_catalog(selftest=False)
    s2 = cat["S2"].mult
    assert check_identity(s2, builtin("jacobi")).holds
    assert check_identity(s2, builtin("anticommutative")).holds
    assert not check_identity(s2, builtin("commutative")).holds

    t13 = cat["T13"].mult
    assert check_identity(t13, builtin("jordan")).holds
    assert not check_identity(t13, builtin("associative")).holds


def test_verdict_obstructions_track_parameters():
    cat = load_catalog(selftest=False)
    a1 = cat["A1alpha"].mult
    verdict = check_identity(a1, builtin("jacobi"))
    assert not verdict.holds
    names = set()
    for p in verdict.obstructions:
        names |= p.names()
    assert names <= {"alpha"}
    # the Lie locus: every obstruction vanishes at a Jacobi-compatible alpha
    # is empty here (no alpha makes A1 a Lie algebra: obstruction has a
    # constant term)
    assert any(not p.substitute({"alpha": Poly.const(0)}).is_zero() for p in verdict.obstructions)


def test_multilinear_oracle_equivalence():
    cat = load_catalog(selftest=True)
    rng = random.Random(1)
    for key, entry in cat.items():
        mult = entry.mult
        if not mult.is_rational():
            mult = mult.substitute({p: F(rng.randint(-2, 3)) for p in entry.algebra.params})
        for name in ("associative", "jacobi"):
            spec = builtin(name)[0]
            assert check_identity(mult, spec).holds == enumeration_verdict(mult, spec), (
                key,
                name,
            )


def polarized_jordan_verdict(m):
    """Full linearization of the Jordan identity checked on basis tuples."""
    n = m.dim
    basis = [Element.basis(n, i) for i in range(n)]
    for xs in itertools.product(range(n), repeat=3):
        for y in range(n):
            total = Element.zero(n)
            for s in itertools.permutations(xs):
                x1, x2, x3 = (basis[i] for i in s)
                sq = multiply(m, x1, x2)
                left = multiply(m, multiply(m, sq, basis[y]), x3)
                right = multiply(m, sq, multiply(m, basis[y], x3))
                total = total + left - right
            if not total.is_zero():
                return False
    return True


def test_jordan_vs_linearization_oracle():
    cat = load_catalog(selftest=False)
    for key in ("T02US", "T13", "T14", "J2", "ML5", "AC3", "nil2", "PL3", "A2"):
        m = cat[key].mult
        assert check_identity(m, builtin("jordan")[0]).holds == polarized_jordan_verdict(m), key


def test_invariance_under_basis_change():
    rng = random.Random(4)
    cat = load_catalog(selftest=False)
    for key in ("T13", "A2", "PL3", "AA3"):
        m = cat[key].mult
        for name in ("jordan", "left_symmetric", "anti_associative", "jacobi"):
            base = check_identity(m, builtin(name)).holds
            for _ in range(3):
                M = rand_matrix(rng, m.dim)
                assert check_identity(apply_basis_change(m, M), builtin(name)).holds == base


def test_check_identity_slot_mismatch():
    with pytest.raises(SlotMismatch):
        check_identity(Multiplication.zero(2), builtin("leibniz_rule"))


def test_no_multiplications_is_a_slot_mismatch():
    from kantor.algebra import Subspace

    x, y = Var(0), Var(1)
    xy = _spec("xy", 2, [(1, App(0, x, y))])
    with pytest.raises(SlotMismatch, match="no multiplications supplied"):
        check_identity([], builtin("jacobi"))
    with pytest.raises(SlotMismatch, match="no multiplications supplied"):
        check_ann_equality([], xy, xy, Subspace.zero(2))


def test_multiplications_of_different_dimensions_are_a_dim_mismatch():
    from kantor.algebra import Subspace

    x, y = Var(0), Var(1)
    # Two slots, only the first used: nothing multiplies across dimensions.
    xy = IdentitySpec("xy", 2, 2, ((F(1), App(0, x, y)),))
    m2 = Multiplication.from_table(2, {(1, 1, 1): 1})
    m3 = Multiplication.from_table(3, {(1, 1, 1): 1})
    with pytest.raises(DimMismatch, match="different dimensions"):
        check_identity([m2, m3], xy)
    for ann in (Subspace.zero(2), Subspace.zero(3)):
        with pytest.raises(DimMismatch, match="different dimensions"):
            check_ann_equality([m2, m3], xy, xy, ann)


def test_jordan_locus_of_t02_square():
    # The published version of this square table omits the forced entry
    # e1*e2 = -1/2 u3 e3; the classical "Jordan iff u3 = 0 or u1 = u2 = 0"
    # locus is a statement about that published table.  The exact square
    # (with the forced entry restored) is Jordan for every u.
    cat = load_catalog(selftest=False)
    square = kantor_square(cat["T02US"].mult)
    assert check_identity(square, builtin("jordan")).holds

    published = Multiplication.from_table(
        3, {k: v for k, v in square.table().items() if k not in ((1, 2, 3), (2, 1, 3))}
    )
    verdict = check_identity(published, builtin("jordan"))
    assert not verdict.holds
    for point, expected in [
        ((0, 0, 1), True),
        ((1, 0, 0), True),
        ((1, 1, 0), True),
        ((1, 0, 1), False),
        ((0, 1, 1), False),
    ]:
        sub = {f"u{i+1}": Poly.const(point[i]) for i in range(3)}
        v = check_identity(published.substitute(sub), builtin("jordan"))
        assert v.holds == expected, point


def _spec(name, nvars, lin):
    return IdentitySpec(name, nvars, 1, tuple((F(c), t) for c, t in lin))


def _mock_lie_ml2_specs():
    x, y, z, u = Var(0), Var(1), Var(2), Var(3)

    def m(a, b):
        return App(0, a, b)

    lhs = _spec(
        "ml2_lhs",
        4,
        [
            (1, m(m(m(x, y), u), z)),
            (1, m(m(m(z, x), u), y)),
            (1, m(m(m(y, z), u), x)),
        ],
    )
    rhs = _spec(
        "ml2_rhs",
        4,
        [
            (1, m(m(x, y), m(u, z))),
            (1, m(m(z, x), m(u, y))),
            (1, m(m(y, z), m(u, x))),
        ],
    )
    return lhs, rhs


def test_ann_equality_on_mock_lie_instances():
    cat = load_catalog(selftest=False)
    lhs, rhs = _mock_lie_ml2_specs()
    for key in ("ML3", "ML5", "nil2"):
        m = cat[key].mult
        assert check_ann_equality(m, lhs, rhs, annihilator(m)).holds, key
    # trivially true when both sides agree
    assert check_ann_equality(cat["A2"].mult, lhs, lhs, annihilator(cat["A2"].mult)).holds


def test_ann_equality_failure_cases():
    cat = load_catalog(selftest=False)
    x, y = Var(0), Var(1)
    xy = _spec("xy", 2, [(1, App(0, x, y))])
    yx = _spec("yx", 2, [(1, App(0, y, x))])
    a2 = cat["A2"].mult  # zero annihilator, not commutative
    verdict = check_ann_equality(a2, xy, yx, annihilator(a2))
    assert not verdict.holds

    # adding a product that feeds the top of the filtration back into the
    # algebra breaks the annihilator equality
    lhs, rhs = _mock_lie_ml2_specs()
    ml5 = cat["ML5"].mult
    perturbed = ml5 + Multiplication.from_table(5, {(5, 1, 2): 1, (1, 5, 2): 1})
    assert not check_ann_equality(perturbed, lhs, rhs, annihilator(perturbed)).holds


def test_ann_equality_symbolic_rejection():
    cat = load_catalog(selftest=False)
    lhs, rhs = _mock_lie_ml2_specs()
    from kantor.algebra import Subspace

    with pytest.raises(SymbolicCoefficient):
        check_ann_equality(cat["A1alpha"].mult, lhs, rhs, Subspace.zero(3))


# -- the denominator-cleared expansion against the plain one ------------------

def test_cleared_expansion_matches_plain_on_fractional_tables():
    rng = random.Random(61)
    for dim in (2, 3):
        for _ in range(2):
            table = rand_fraction_table(rng, dim)
            assert_matches_plain(kantor_square(table), builtin("jacobi"))
            for name in ("associative", "jordan", "left_symmetric"):
                assert_matches_plain(table, builtin(name))


def test_cleared_expansion_matches_plain_with_a_denominator_per_slot():
    rng = random.Random(67)
    for dim in (2, 3):
        dot = rand_fraction_table(rng, dim, denominators=(1, 2), density=0.5)
        bracket = rand_fraction_table(rng, dim, denominators=(1, 3), density=0.5)
        for name in ("leibniz_rule", "dual_leibniz_rule", "postlie_2"):
            assert_matches_plain([dot, bracket], builtin(name))
            assert_matches_plain([bracket, dot], builtin(name))
            # one integral slot: only the other slot is cleared
            assert_matches_plain([dot.scale(2), bracket], builtin(name))


def test_every_builtin_bundle_matches_the_plain_expansion():
    # Terms sharing a product-tree shape read one table of basis-vector
    # values; obstructions and their order must still be the plain expansion's.
    rng = random.Random(73)
    table = rand_fraction_table(rng, 3, denominators=(1, 2, 3), density=0.5)
    square = kantor_square(rand_fraction_table(rng, 2, denominators=(1, 2, 3)))
    other = rand_fraction_table(rng, 2, denominators=(1, 5), density=0.7)
    for name in builtin_names():
        specs = builtin(name)
        if specs[0].nslots == 1:
            assert_matches_plain(table, specs)
            assert_matches_plain(square, specs)
        else:
            assert_matches_plain([square, other], specs)
            assert_matches_plain([other, square], specs)


def test_cleared_expansion_weights_terms_by_their_slot_degrees():
    x, y, z = Var(0), Var(1), Var(2)

    def d(a, b):
        return App(0, a, b)

    def s(a, b):
        return App(1, a, b)

    one_slot = IdentitySpec("mixed", 3, 1, (
        (F(1), d(x, y)),
        (F(-2), d(d(x, y), z)),
        (F(1), d(x, d(y, d(z, x)))),
    ))
    two_slot = IdentitySpec("mixed2", 3, 2, (
        (F(1), s(x, y)),
        (F(3), d(d(x, y), z)),
        (F(-1), d(x, s(y, z))),
        (F(1), s(s(x, y), d(z, z))),
    ))
    fractional = IdentitySpec("halves", 2, 1, ((F(1, 2), d(x, y)), (F(-1, 3), d(y, x))))
    rng = random.Random(71)
    for dim in (2, 3):
        dot = rand_fraction_table(rng, dim, denominators=(2, 4), density=0.6)
        bracket = rand_fraction_table(rng, dim, denominators=(3,), density=0.6)
        assert_matches_plain(dot, one_slot)
        assert_matches_plain([dot, bracket], two_slot)
        assert_matches_plain(dot, fractional)
        assert_matches_plain(dot.scale(4), fractional)


def test_linear_and_repeated_variables_in_one_spec_match_the_plain_expansion():
    # z occurs once in every term and is set to basis vectors.  x and y
    # repeat in some term, and t occurs once or not at all, so all three stay
    # generic.  The third and fourth terms share a shape up to their generic
    # variables.
    x, y, z, t = Var(0), Var(1), Var(2), Var(3)

    def m(a, b):
        return App(0, a, b)

    spec = _spec("mixed_kinds", 4, [
        (1, m(m(x, t), z)),
        (1, z),
        (1, m(m(m(x, x), y), z)),
        (-1, m(m(m(y, y), x), z)),
        (F(2, 3), m(m(x, z), x)),
        (-2, m(y, z)),
    ])
    modulo = (parse_poly("a*b"), parse_poly("a^2"))
    rng = random.Random(79)
    for dim in (2, 3):
        table = rand_fraction_table(rng, dim, density=0.7)
        parametric = table + Multiplication.from_table(dim, {
            (1, 1, 2): parse_poly("1/2*a", allowed=("a", "b")),
            (2, 1, 1): parse_poly("b/3 + a", allowed=("a", "b")),
        })
        assert not assert_matches_plain(table, spec).holds
        assert not assert_matches_plain(parametric, spec, modulo).holds
        assert_matches_plain(parametric, spec)


def test_jacobi_on_a_dense_four_dimensional_square_matches_the_plain_expansion():
    table = rand_fraction_table(random.Random(83), 4)
    assert not assert_matches_plain(kantor_square(table), builtin("jacobi")).holds


def test_malformed_specs_get_typed_errors():
    x, y = Var(0), Var(1)
    with pytest.raises(IndexOutOfRange, match="variable 5 not in range"):
        IdentitySpec("bad", 1, 1, ((F(1), App(0, x, Var(5))),))
    with pytest.raises(SlotMismatch, match="slot 3 not in range"):
        IdentitySpec("bad", 2, 1, ((F(1), App(3, x, y)),))
    with pytest.raises(IndexOutOfRange, match="variable -1 not in range"):
        IdentitySpec("bad", 2, 1, ((F(1), App(0, Var(-1), y)),))


def test_cleared_expansion_on_a_parametric_table_modulo_constraints():
    half_a = parse_poly("1/2*a", allowed=("a", "b"))
    table = Multiplication.from_table(3, {
        (1, 1, 2): half_a,
        (1, 2, 3): parse_poly("b/3 + 1", allowed=("a", "b")),
        (2, 1, 1): F(3, 4),
        (2, 2, 3): half_a,
        (3, 1, 3): 1,
    })
    modulo = (parse_poly("a*b"), parse_poly("a^2"))
    for name in ("associative", "jacobi", "jordan", "commutative"):
        verdict = assert_matches_plain(table, builtin(name), modulo)
        assert not verdict.holds, name
        assert_matches_plain(table, builtin(name))


def test_non_monomial_modulo_fails_before_expanding():
    # Rejected even when the identity holds, not only once an obstruction survives.
    with pytest.raises(ValueError):
        check_identity(Multiplication.zero(2), builtin("commutative"), modulo=[parse_poly("a + b")])
    # A constant generator would make every check hold; zero generates nothing.
    noncommutative = Multiplication.from_table(2, {(1, 1, 1): 1, (1, 2, 2): 1})
    for bad in (Poly.const(1), Poly.zero()):
        with pytest.raises(ValueError):
            check_identity(noncommutative, builtin("commutative"), modulo=[parse_poly("a^2"), bad])


def test_ann_equality_failure_on_a_fractional_table():
    x, y, z = Var(0), Var(1), Var(2)
    m = Multiplication.from_table(2, {(1, 2, 1): F(1, 2), (2, 2, 2): F(1, 3)})
    xy = _spec("xy", 2, [(1, App(0, x, y))])
    yx = _spec("yx", 2, [(1, App(0, y, x))])
    xy_z = _spec("xy_z", 3, [(1, App(0, App(0, x, y), z))])
    verdict = check_ann_equality(m, xy, yx, annihilator(m))
    assert not verdict.holds
    assert [str(p) for p in verdict.obstructions] == ["1/2*E1*x1_1*x2_2", "-1/2*E1*x1_2*x2_1"]
    # sides of different degree in the product
    verdict = check_ann_equality(m, xy_z, xy, annihilator(m))
    assert [str(p) for p in verdict.obstructions] == [
        "-1/2*E1*x1_1*x2_2",
        "1/4*E1*x1_1*x2_2*x3_2",
        "-1/3*E2*x1_2*x2_2",
        "1/9*E2*x1_2*x2_2*x3_2",
    ]


# -- Kantor squares against freshly built equal tensors ------------------------

@st.composite
def fractional_squares(draw):
    """A random fractional table, its Kantor square under a symbolic, integral or rational u."""
    dim = draw(st.integers(2, 3))
    value = st.builds(F, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.sampled_from((1, 2, 3, 4)))
    keys = st.tuples(*[st.integers(1, dim)] * 3)
    table = Multiplication.from_table(dim, draw(st.dictionaries(keys, value, min_size=1, max_size=12)))
    kind = draw(st.sampled_from(["symbolic", "integral", "rational"]))
    if kind == "symbolic":
        u = None
    else:
        coord = st.integers(-2, 2) if kind == "integral" else value
        u = Element([Poly.const(draw(coord)) for _ in range(dim)])
    return table, kantor_square(table, u), kind


@st.composite
def tables_and_squares(draw):
    """A fractional or parametric table, or its Kantor square under a symbolic, integral or rational u."""
    dim = draw(st.integers(2, 3))
    value = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3, 4, 6)))
    if draw(st.booleans()):
        monomial = st.sampled_from([Poly.const(1)] + [parse_poly(m) for m in ("a", "b", "a*b", "a^2")])
        value = st.lists(st.tuples(value, monomial), min_size=1, max_size=3).map(
            lambda terms: sum((p * c for c, p in terms), Poly.zero()))
    keys = st.tuples(*[st.integers(1, dim)] * 3)
    table = Multiplication.from_table(dim, draw(st.dictionaries(keys, value, max_size=10)))
    kind = draw(st.sampled_from(["table", "symbolic", "integral", "rational"]))
    if kind == "table":
        return table
    u = None
    if kind != "symbolic":
        coord = st.integers(-2, 2) if kind == "integral" else st.builds(F, st.integers(-2, 2), st.integers(1, 3))
        u = Element([Poly.const(draw(coord)) for _ in range(dim)])
    return kantor_square(table, u)


@settings(max_examples=80, deadline=None)
@given(tables_and_squares())
def test_clear_denominators_scales_by_the_lcm_of_the_denominators(m):
    d = math.lcm(*(F(c).denominator for e in m.entries.values() for _, c in e.monomials()))
    cleared, got = _clear_denominators(m)
    assert got == d and cleared == m.scale(d)
    assert all(type(c) is int for e in cleared.entries.values() for c in e.terms.values())


def _outcome(check):
    try:
        verdict = check()
    except SymbolicCoefficient as exc:
        return str(exc)
    return verdict.holds, [list(p.monomials()) for p in verdict.obstructions]


@settings(max_examples=60, deadline=None)
@given(fractional_squares())
def test_squares_check_like_freshly_built_equal_tensors(case):
    table, square, kind = case
    fresh = Multiplication.from_table(square.dim, square.table())
    assert fresh == square
    for name in ("jacobi", "jordan", "associative", "commutative"):
        assert _outcome(lambda: check_identity(square, builtin(name))) == _outcome(
            lambda: check_identity(fresh, builtin(name))
        ), name
    for name in ("leibniz_rule", "postlie_2"):
        assert _outcome(lambda: check_identity([square, table], builtin(name))) == _outcome(
            lambda: check_identity([fresh, table], builtin(name))
        ), name
    x, y = Var(0), Var(1)
    xy = _spec("xy", 2, [(1, App(0, x, y))])
    yx = _spec("yx", 2, [(1, App(0, y, x))])
    if kind != "symbolic":
        ann = annihilator(square)
        assert _outcome(lambda: check_ann_equality(square, xy, yx, ann)) == _outcome(
            lambda: check_ann_equality(fresh, xy, yx, ann)
        )


# -- symmetry orbits of the linear variables, and lazy division ---------------

def _sum_of_terms(lin):
    """``sum c * term`` as a map from term to its merged nonzero coefficient."""
    merged = {}
    for c, term in lin:
        merged[term] = merged.get(term, 0) + c
    return {term: c for term, c in merged.items() if c}


def _renamed(term, mapping):
    if isinstance(term, Var):
        return Var(mapping.get(term.index, term.index))
    return App(term.slot, _renamed(term.left, mapping), _renamed(term.right, mapping))


def brute_force_group(spec):
    """Permutations sigma with the spec unchanged when linear[i] is renamed linear[sigma[i]]."""
    linear = spec._layout[0]
    original = _sum_of_terms(spec.terms)
    return {
        sigma for sigma in itertools.permutations(range(len(linear)))
        if _sum_of_terms(
            (c, _renamed(t, {v: linear[s] for v, s in zip(linear, sigma)})) for c, t in spec.terms
        ) == original
    }


def _m(a, b):
    return App(0, a, b)


def s3_invariant_spec():
    """sum over sigma in S3 of (x_s1 x_s2) x_s3: its group is all of S3, non-abelian."""
    xs = (Var(0), Var(1), Var(2))
    return _spec("s3_sum", 3, [(1, _m(_m(a, b), c)) for a, b, c in itertools.permutations(xs)])


def xz_swap_spec():
    """(xz)y + (zx)y - y(xz) - y(zx): invariant under x <-> z only, a non-normal subgroup of S3."""
    x, y, z = Var(0), Var(1), Var(2)
    return _spec("xz_swap", 3, [
        (1, _m(_m(x, z), y)), (1, _m(_m(z, x), y)), (-1, _m(y, _m(x, z))), (-1, _m(y, _m(z, x))),
    ])


SYMMETRIC_BUILTINS = (
    "jacobi", "anticommutative", "associator_alternating_12", "squares_annihilate_left",
    "jacobiator_times_t",
)


def _builtin_spec(name):
    return next(spec for bundle in map(builtin, builtin_names()) for spec in bundle
                if spec.name == name)


def test_symmetry_groups_of_the_linear_variables():
    def group(spec):
        return set(spec._layout[3])

    assert group(_builtin_spec("jacobi")) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    assert group(_builtin_spec("anticommutative")) == {(0, 1), (1, 0)}
    assert group(_builtin_spec("commutative")) == {(0, 1)}
    assert len(group(s3_invariant_spec())) == 6
    assert group(xz_swap_spec()) == {(0, 1, 2), (2, 1, 0)}
    specs = {spec.name: spec for bundle in map(builtin, builtin_names()) for spec in bundle}
    specs.update({"s3_sum": s3_invariant_spec(), "xz_swap": xz_swap_spec()})
    nontrivial = set()
    for name, spec in specs.items():
        assert group(spec) == brute_force_group(spec), name
        assert spec._layout[3][0] == tuple(range(len(spec._layout[0]))), name
        if len(group(spec)) > 1:
            nontrivial.add(name)
    assert nontrivial == set(SYMMETRIC_BUILTINS) | {"s3_sum", "xz_swap"}


def test_orbit_representatives_match_the_plain_expansion():
    rng = random.Random(89)
    specs = [_builtin_spec(name) for name in SYMMETRIC_BUILTINS]
    specs += [s3_invariant_spec(), xz_swap_spec()]
    half_a = parse_poly("1/2*a", allowed=("a",))
    for dim in (2, 3):
        table = rand_fraction_table(rng, dim, density=0.6)
        parametric = table + Multiplication.from_table(dim, {(1, 2, 1): half_a, (2, 1, 2): half_a})
        square = kantor_square(rand_fraction_table(rng, 2, denominators=(1, 2, 3)))
        for spec in specs:
            assert not assert_matches_plain(table, spec).holds, spec.name
            assert_matches_plain(parametric, spec)
            assert_matches_plain(parametric, spec, modulo=(parse_poly("a^2"),))
            assert_matches_plain(square, spec)


def test_orbit_representatives_follow_the_readable_monomial_past_nine():
    # In dimension 10, x1_10 sorts before x1_2: the representative, where the
    # obstruction is kept, is chosen by the printed names, not by index tuple.
    rng = random.Random(97)
    table = rand_fraction_table(rng, 10, denominators=(1, 2, 3), density=0.02)
    assert table.entries
    for name in ("jacobi", "anticommutative", "associator_alternating_12"):
        assert not assert_matches_plain(table, _builtin_spec(name)).holds, name


def test_representatives_are_least_by_the_printed_names():
    # Labels 1_ and 10_ and indices 2 and 10 compare as strings, not as numbers.
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for linear, group, dim in (((0, 1), ((0, 1), (1, 0)), 12), ((0, 1, 2), cyclic, 11),
                               ((0, 9, 10), cyclic, 11), ((1, 9, 11), cyclic, 4)):
        names = [[f"x{v + 1}_{i + 1}" for i in range(dim)] for v in linear]

        def readable(at):
            return sorted(n[i] for n, i in zip(names, at))

        expected = {
            at for at in itertools.product(range(dim), repeat=len(linear))
            if readable(at) == min(readable([at[j] for j in sigma]) for sigma in group)
        }
        assert _representatives(linear, group, dim) == expected, (linear, dim)


def plain_ann_obstructions(mults, lhs, rhs, ann):
    """Reference for ``check_ann_equality``: one vector per generic monomial of the plain expansion."""
    dim = mults.dim
    names = fresh_generic_names(max(lhs.nvars, rhs.nvars), dim, mults.names())
    generic = {n for group in names for n in group}
    elements = [Element([Poly.var(n) for n in group]) for group in names]
    total = plain_combination([mults], lhs.terms, elements) - plain_combination(
        [mults], rhs.terms, elements)
    vectors = {}
    for k, coordinate in enumerate(total.coords):
        for mono, coeff in coordinate.split_by(generic).items():
            vectors.setdefault(mono, [F(0)] * dim)[k] = coeff.constant_value()
    found = []
    for mono, values in sorted(vectors.items()):
        if not ann.contains(values):
            combo = Poly.zero()
            for k, value in enumerate(values):
                combo = combo + Poly.var(f"E{k + 1}") * value
            found.append(Poly({mono: F(1)}) * combo)
    return tuple(found)


def test_ann_equality_expands_each_orbit_back_to_every_monomial():
    # lhs - rhs is Jacobi, whose cyclic group the expansion folds; the
    # per-monomial output must still list every monomial of each orbit.
    x, y, z = Var(0), Var(1), Var(2)
    lhs = _spec("xy_z+yz_x", 3, [(1, _m(_m(x, y), z)), (1, _m(_m(y, z), x))])
    rhs = _spec("-zx_y", 3, [(-1, _m(_m(z, x), y))])
    difference = IdentitySpec("lhs - rhs", 3, 1, lhs.terms + tuple((-c, t) for c, t in rhs.terms))
    assert len(difference._layout[3]) == 3
    rng = random.Random(101)
    for _ in range(3):
        # e4 never multiplies, so it spans the annihilator: some vectors pass, some fail.
        entries = {}
        for i, j in itertools.product(range(1, 4), repeat=2):
            for k in rng.sample(range(1, 5), 2):
                entries[i, j, k] = F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        table = Multiplication.from_table(4, entries)
        ann = annihilator(table)
        assert ann.dim == 1
        verdict = check_ann_equality(table, lhs, rhs, ann)
        expected = plain_ann_obstructions(table, lhs, rhs, ann)
        assert not verdict.holds
        assert verdict.obstructions == expected
        assert [str(p) for p in verdict.obstructions] == [str(p) for p in expected]


def test_verdict_is_a_read_only_value(monkeypatch):
    a = parse_poly("a")
    verdict = Verdict(False, (a, Poly.const(2)))
    assert verdict.holds is False and verdict.obstructions == (a, Poly.const(2))
    assert verdict == Verdict(False, (a, Poly.const(2)))
    assert verdict != Verdict(True, ()) and verdict != (False, (a, Poly.const(2)))
    assert hash(verdict) == hash(Verdict(False, (a, Poly.const(2))))
    assert repr(verdict) == "Verdict(holds=False, obstructions=(Poly(a), Poly(2)))"
    assert repr(Verdict(True, ())) == "Verdict(holds=True, obstructions=())"
    for name in ("holds", "obstructions", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(verdict, name, None)
    with pytest.raises(FrozenInstanceError):
        del verdict.holds

    square = kantor_square(rand_fraction_table(random.Random(103), 3))
    checked = check_identity(square, builtin("mock_lie"))
    with pytest.raises(FrozenInstanceError):
        checked.obstructions = ()
    for value in (verdict, checked):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value) and repr(copy) == repr(value)

    # ``holds`` divides nothing; the first read of ``obstructions`` divides, once.
    divisions = []
    divide = Poly.__truediv__
    monkeypatch.setattr(Poly, "__truediv__", lambda p, c: divisions.append(c) or divide(p, c))
    twin = check_identity(square, builtin("mock_lie"))
    assert twin.holds is False and not divisions
    first = twin.obstructions
    assert divisions and twin.obstructions is first and len(divisions) == len(first)
    assert twin == checked == Verdict(False, first) and hash(twin) == hash(checked)
    assert first == plain_obstructions(square, builtin("mock_lie"))


def test_bundle_obstructions_are_divided_before_the_cross_spec_dedupe():
    rng = random.Random(107)
    x, y = Var(0), Var(1)
    commutative = reslot(_builtin_spec("commutative"), 2, {0: 0})
    # The same rational obstructions as ``commutative``, with common factor D0*D1
    # instead of D0: the bracket terms cancel but still weight the others by D1.
    padded = IdentitySpec("commutative_padded", 2, 2, commutative.terms + (
        (F(1), App(1, x, y)), (F(-1), App(1, x, y)),
    ))
    for dim in (2, 3):
        dot = rand_fraction_table(rng, dim, denominators=(2,), density=0.6)
        bracket = rand_fraction_table(rng, dim, denominators=(3,), density=0.6)
        assert _clear_denominators(dot)[1] != _clear_denominators(bracket)[1]
        for bundle in (builtin("poisson"), builtin("generic_poisson"), (commutative, padded)):
            assert not assert_matches_plain([dot, bracket], bundle).holds
        verdict = check_identity([dot, bracket], (commutative, padded))
        assert verdict.obstructions == check_identity([dot, bracket], commutative).obstructions


def test_an_empty_spec_is_refused_when_built():
    with pytest.raises(ValueError, match="'empty' has no terms"):
        IdentitySpec("empty", 1, 1, ())
    x, y = Var(0), Var(1)
    # A combination that cancels to nothing is refused the same way.
    with pytest.raises(ValueError, match="'cancels' has no terms"):
        _mk("cancels", 2, [(F(1), App(0, x, y)), (F(-1), App(0, x, y))])


def test_ann_equality_sides_with_different_slot_counts_are_a_slot_mismatch():
    x, y = Var(0), Var(1)
    one_slot = _spec("xy", 2, [(1, App(0, x, y))])
    two_slot = IdentitySpec("xy2", 2, 2, one_slot.terms)
    m = Multiplication.from_table(2, {(1, 1, 1): 1})
    with pytest.raises(SlotMismatch):
        check_ann_equality([m, m], two_slot, one_slot, annihilator(m))


def test_the_layout_is_kept_on_the_spec_outside_its_fields():
    spec = _builtin_spec("jacobi")
    fresh = IdentitySpec(spec.name, spec.nvars, spec.nslots, spec.terms)
    assert spec._layout is spec._layout
    assert "_layout" not in fresh.__dict__
    assert fresh == spec and hash(fresh) == hash(spec) and repr(fresh) == repr(spec)
    assert fresh._layout == spec._layout
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and copy._layout == spec._layout


def test_a_warm_check_hashes_no_term(monkeypatch):
    m = Multiplication.from_table(2, {(1, 2, 1): F(1, 2), (2, 1, 2): 1, (2, 2, 1): -1})
    first = check_identity(m, builtin("jacobi"))
    hashes = []
    for cls in (Var, App):
        monkeypatch.setattr(cls, "__hash__", lambda term, h=cls.__hash__: hashes.append(term) or h(term))
    assert check_identity(m, builtin("jacobi")) == first
    assert hashes == []


def test_a_parameter_named_like_a_generic_coordinate_moves_the_prefix():
    # x1_1 is the first generic name, so the checker's names start with xx instead.
    assert fresh_generic_names(2, 2, {"x1_1"}) == [["xx1_1", "xx1_2"], ["xx2_1", "xx2_2"]]
    clash = Multiplication.from_table(2, {(1, 2, 1): "x1_1", (2, 2, 2): 1})
    plain = clash.substitute({"x1_1": Poly.var("p")})
    for name in ("commutative", "associative", "jordan"):
        got = check_identity(clash, builtin(name))
        want = check_identity(plain, builtin(name))
        assert got.holds == want.holds is False
        renamed = [q.substitute({"x1_1": Poly.var("p")}) for q in got.obstructions]
        assert renamed == list(want.obstructions)
