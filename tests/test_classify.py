import io
import itertools
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kantor.algebra import Element, Multiplication, multiply
from kantor.catalog import load_catalog
from kantor.cli import main
from kantor.classify import (
    _STRUCTURES,
    RationalValue,
    SolutionFamily,
    _content_normalize,
    _split_inequation,
    _univariate_roots,
    antisymmetric_ansatz,
    case_split_solve,
    generic_poisson_structures,
    poisson_stage1,
    poisson_structures,
    postlie_stage1,
    postlie_structures,
    symmetric_ansatz,
)
from kantor.errors import LieCheckFailed, SymbolicEntries
from kantor.identities import builtin, check_identity, reslot
from kantor.linsolve import nullspace, rank
from kantor.poly import Poly, parse_poly


def rand_point(rng, names):
    return {n: F(rng.randint(-5, 5), rng.randint(1, 3)) for n in names}


def sample_family_points(family, rng, count=20):
    points = []
    attempts = 0
    while len(points) < count and attempts < 60 * count:
        attempts += 1
        values = family.evaluate(rand_point(rng, family.free))
        if values is not None:
            points.append(values)
    return points


# -- case_split_solve ---------------------------------------------------------

def test_case_split_factored_univariate():
    g = Poly.var("g")
    fams = case_split_solve([g * g - g], ["g"])
    values = sorted(f.assignment["g"][0].constant_value() for f in fams)
    assert values == [0, 1]


def test_evaluate_at_integer_points_gives_fractions():
    g1, g2, g3, g4 = (Poly.var(f"g{i}") for i in range(1, 5))
    fams = case_split_solve([g1 * g2 - 1, 2 * g3 - 4 * g2, g4 - 2 * g3], ["g1", "g2", "g3", "g4"])
    checked = 0
    for fam in fams:
        for value in range(-3, 4):
            values = fam.evaluate({name: value for name in fam.free})
            if values is None:
                continue
            assert all(type(v) is F for v in values.values()), values
            checked += 1
    assert checked == 6


def test_univariate_roots_are_fractions():
    for text, expected in (("2*x - 4", [2]), ("x^2 - 1", [-1, 1])):
        roots = _univariate_roots(parse_poly(text), "x")
        assert roots == expected
        assert all(type(r) is F for r in roots)


def test_case_split_empty_system():
    fams = case_split_solve([], ["g1", "g2"])
    assert len(fams) == 1
    assert fams[0].free == ("g1", "g2")
    assert fams[0].label == "general"


def test_case_split_contradiction_pruned():
    one = Poly.const(1)
    assert case_split_solve([one], ["g"]) == []


def test_case_split_nonconstant_pivot_branches():
    # c*g = 1: one unknown is eliminated as a reciprocal of the other,
    # and the degenerate branch is contradictory.
    c, g = Poly.var("c"), Poly.var("g")
    fams = case_split_solve([c * g - 1], ["c", "g"])
    assert len(fams) == 1
    fam = fams[0]
    assert not fam.is_polynomial()
    assert fam.inequations
    (free,) = fam.free
    values = fam.evaluate({free: F(2)})
    assert values["c"] * values["g"] == 1
    assert fam.evaluate({free: F(0)}) is None


def test_case_split_irrational_roots_left_residual():
    g = Poly.var("g")
    fams = case_split_solve([g * g - 2], ["g"])
    assert len(fams) == 1
    assert fams[0].equations


def test_case_split_depth_cap_reports_residuals():
    c, g = Poly.var("c"), Poly.var("g")
    fams = case_split_solve([c * g - 1], ["c", "g"], max_depth=0)
    assert all(f.equations for f in fams)


def test_case_split_soundness_by_sampling():
    rng = random.Random(77)
    g1, g2, g3 = Poly.var("g1"), Poly.var("g2"), Poly.var("g3")
    system = [g1 * g2 - g2, g2 * g2 - g2, g3 - g1 * g2]
    fams = case_split_solve(system, ["g1", "g2", "g3"])
    assert fams
    for fam in fams:
        for values in sample_family_points(fam, rng, 20):
            for q in system:
                assert q.substitute(values).constant_value() == 0


def test_case_split_covering_by_sampling():
    # every rational solution of the system lies in at least one family
    rng = random.Random(78)
    g1, g2 = Poly.var("g1"), Poly.var("g2")
    system = [g1 * g2, g2 * g2 - g2]
    fams = case_split_solve(system, ["g1", "g2"])
    for _ in range(200):
        point = {"g1": F(rng.randint(-3, 3)), "g2": F(rng.choice([0, 1]))}
        if any(q.substitute(point).constant_value() != 0 for q in system):
            continue
        hits = 0
        for fam in fams:
            free_point = {n: point[n] for n in fam.free}
            values = fam.evaluate(free_point)
            if values is not None and all(values[n] == point[n] for n in point):
                hits += 1
        assert hits >= 1, point


# -- linear stage -------------------------------------------------------------

def kernel_basis(stage):
    """Solution-space basis vectors from the stage-1 linear solution."""
    sol = stage.solution
    vectors = []
    for free in sol.free:
        vec = []
        for name in stage.unknowns:
            if name == free:
                vec.append(F(1))
            elif name in sol.assignments:
                parts = sol.assignments[name].coeffs_in(free)
                assert max(parts, default=0) <= 1
                vec.append(parts.get(1, Poly.zero()).constant_value())
            else:
                vec.append(F(0))
        vectors.append(vec)
    return vectors


def dense_oracle_rows(structure, base, ansatz, unknowns, specs):
    """Independent route: instantiate the defining identities on basis triples."""
    from kantor.identities import App, Var

    n = base.dim
    basis = [Element.basis(n, i) for i in range(n)]
    rows = []

    def eval_term(term, mults, assignment):
        if isinstance(term, Var):
            return assignment[term.index]
        return multiply(mults[term.slot], eval_term(term.left, mults, assignment),
                        eval_term(term.right, mults, assignment))

    for spec in specs:
        mults = structure.slots(base, ansatz) if spec.nslots == 2 else [ansatz]
        for assignment in itertools.product(basis, repeat=spec.nvars):
            total = Element.zero(n)
            for coeff, term in spec.terms:
                total = total + eval_term(term, mults, assignment).scale(coeff)
            for coord in total.coords:
                row = [F(0)] * len(unknowns)
                for mono, c in coord.monomials():
                    (name, exp), = mono
                    row[unknowns.index(name)] = c
                if any(row):
                    rows.append(row)
    return rows


def spans_equal(vs, ws, ncols):
    if not vs and not ws:
        return True
    r1 = rank(vs) if vs else 0
    r2 = rank(ws) if ws else 0
    return r1 == r2 == rank(vs + ws)


CATALOG = load_catalog(selftest=False)
RATIONAL_KEYS = [key for key, entry in CATALOG.items() if entry.mult.is_rational()]
LIE_KEYS = [key for key in RATIONAL_KEYS
            if {"anticommutative", "jacobi"} <= set(CATALOG[key].tags)]


def test_the_stage1_oracles_cover_the_catalog():
    assert len(RATIONAL_KEYS) == 21
    assert sorted(LIE_KEYS) == sorted(["S2", "heis3", "r2c", "heis4", "zero2"])


# Stage 1 of each structure is equivalent to these identities: for Poisson
# the Leibniz rule and its companion (the bracket in slot 1), for post-Lie
# the third post-Lie identity (the commutative product in slot 0).
@pytest.mark.parametrize("kind, stage1, specs, key", [
    *(pytest.param("poisson", poisson_stage1, builtin("leibniz_rule") + builtin("postlie_3"),
                   key, id=f"poisson-{key}") for key in RATIONAL_KEYS),
    *(pytest.param("postlie", postlie_stage1, builtin("postlie_3"), key, id=f"postlie-{key}")
      for key in LIE_KEYS),
])
def test_stage1_completeness_oracle(kind, stage1, specs, key):
    structure = _STRUCTURES[kind]
    mult = CATALOG[key].mult
    stage = stage1(mult)
    ansatz, unknowns = structure.ansatz(mult.dim)
    assert stage.unknowns == unknowns and stage.ansatz == ansatz
    rows = dense_oracle_rows(structure, mult, ansatz, list(unknowns), specs)
    oracle = nullspace(rows, len(unknowns))
    assert spans_equal(kernel_basis(stage), oracle, len(unknowns))


@pytest.mark.parametrize("stage1", [poisson_stage1, postlie_stage1])
def test_stage1_rejects_a_symbolic_reference_vector(stage1):
    s2 = CATALOG["S2"].mult
    with pytest.raises(SymbolicEntries):
        stage1(s2, fixed_u=Element.symbolic("u", 2))
    with pytest.raises(SymbolicEntries):
        stage1(s2, fixed_u=Element([Poly.const(1), Poly.var("u2")]))
    assert stage1(s2, fixed_u=Element([Poly.const(F(1, 2)), Poly.const(-3)])).unknowns


# -- poisson classification ---------------------------------------------------

def test_poisson_on_half_eigenvalue_jordan_algebra_is_trivial():
    cat = load_catalog(selftest=False)
    fams = poisson_structures(cat["J2"].mult)
    assert len(fams) == 1
    fam = fams[0]
    assert fam.free == () and not fam.equations
    assert all(num == 0 for num, _ in fam.assignment.values())


def test_poisson_on_zero_algebra_dim2():
    fams = poisson_structures(Multiplication.zero(2))
    assert len(fams) == 1
    assert set(fams[0].free) == {"g1_1", "g1_2"}
    assert not fams[0].equations and not fams[0].inequations


def test_generic_poisson_families():
    cat = load_catalog(selftest=False)
    fams = generic_poisson_structures(cat["J2"].mult)
    assert len(fams) == 1 and fams[0].free == ()

    fams = generic_poisson_structures(Multiplication.zero(3))
    assert len(fams) == 1 and len(fams[0].free) == 9


def test_poisson_brute_force_cross_check():
    # one-idempotent three-dimensional algebra, checked against a grid of
    # candidate brackets plus per-family sampling
    rng = random.Random(5)
    mult = Multiplication.from_table(3, {(1, 1, 1): 1})
    fams = poisson_structures(mult)
    ansatz, unknowns = antisymmetric_ansatz(3)
    verify = builtin("generic_poisson") + builtin("postlie_3")

    for fam in fams:
        assert not fam.equations
        for values in sample_family_points(fam, rng, 20):
            bracket = ansatz.substitute({k: Poly.const(v) for k, v in values.items()})
            assert check_identity([mult, bracket], verify).holds
            assert check_identity(bracket, builtin("jacobi")).holds

    # grid search: every sampled valid bracket must be covered by a family
    grid = [F(-1), F(0), F(1)]
    sample = [tuple(rng.choice(grid) for _ in unknowns) for _ in range(200)]
    # include the full grid over the plane the linear stage leaves free
    for a in grid:
        for b in grid:
            coords = tuple(
                a if n == "g3_2" else b if n == "g3_3" else F(0) for n in unknowns
            )
            sample.append(coords)
    covered = 0
    for coords in sample:
        point = dict(zip(unknowns, coords))
        bracket = ansatz.substitute({k: Poly.const(v) for k, v in point.items()})
        ok = check_identity([mult, bracket], verify).holds
        ok = ok and check_identity(bracket, builtin("jacobi")).holds
        if not ok:
            continue
        covered += 1
        hit = False
        for fam in fams:
            values = fam.evaluate({n: point[n] for n in fam.free})
            if values is not None and all(values[n] == point[n] for n in unknowns):
                hit = True
                break
        assert hit, point
    assert covered > 1


def test_poisson_symbolic_rejection():
    cat = load_catalog(selftest=False)
    with pytest.raises(SymbolicEntries):
        poisson_structures(cat["A1alpha"].mult)


# -- post-Lie classification --------------------------------------------------

def test_postlie_requires_lie():
    cat = load_catalog(selftest=False)
    with pytest.raises(LieCheckFailed):
        postlie_structures(cat["A2"].mult)
    # override works
    fams = postlie_structures(cat["A2"].mult, require_lie=False)
    assert isinstance(fams, list)


def test_postlie_one_dimensional():
    zero1 = Multiplication.zero(1)
    fams = postlie_structures(zero1)
    assert len(fams) == 1
    assert fams[0].free == ("g1_1",)


def test_postlie_s2_matches_the_published_classification():
    cat = load_catalog(selftest=False)
    s2 = cat["S2"].mult

    stage_fixed = postlie_stage1(s2, fixed_u=Element.basis(2, 0))
    expected_stage1 = Multiplication.from_table(2, {
        (1, 1, 2): parse_poly("g1_2"),
        (1, 2, 2): parse_poly("g2_2"),
        (2, 1, 2): parse_poly("g2_2"),
        (2, 2, 1): parse_poly("g3_1"),
        (2, 2, 2): parse_poly("g3_2"),
    })
    assert stage_fixed.tensor == expected_stage1
    assert set(stage_fixed.free) == {"g1_2", "g2_2", "g3_1", "g3_2"}

    # the all-u stage is strictly smaller: it kills g3_1 as well
    stage = postlie_stage1(s2)
    assert set(stage.free) == {"g1_2", "g2_2", "g3_2"}

    fams = postlie_structures(s2)
    assert len(fams) == 2
    by_g22 = {}
    for fam in fams:
        values = fam.evaluate({"g1_2": F(7)})
        assert values is not None
        by_g22[values["g2_2"]] = values
        assert values["g3_1"] == 0 and values["g3_2"] == 0
        assert values["g1_1"] == 0 and values["g2_1"] == 0
        assert values["g1_2"] == F(7)
    assert set(by_g22) == {F(0), F(1)}


def test_postlie_final_families_agree_with_fixed_u_route():
    # running stage 2 on the weaker fixed-reference stage-1 family, then
    # re-imposing the full linear identity, reaches the same structures
    cat = load_catalog(selftest=False)
    s2 = cat["S2"].mult
    stage_fixed = postlie_stage1(s2, fixed_u=Element.basis(2, 0))
    obstructions = check_identity(
        [stage_fixed.tensor, s2], builtin("postlie_2") + builtin("postlie_3")
    ).obstructions
    fams_fixed = case_split_solve(list(obstructions), stage_fixed.free)
    default = postlie_structures(s2)

    def complete(values, stage):
        # extend branch values by the stage-1 pivot assignments
        full = dict(values)
        for name, affine in stage.solution.assignments.items():
            full[name] = affine.substitute(
                {k: Poly.const(v) for k, v in values.items()}
            ).constant_value()
        return full

    # compare the induced full assignments on a sample of the free line
    for sample in (F(0), F(1), F(3)):
        got = set()
        for fam in fams_fixed:
            values = fam.evaluate({n: sample for n in fam.free})
            if values is not None:
                full = complete(values, stage_fixed)
                got.add(tuple(full[n] for n in stage_fixed.unknowns))
        want = set()
        for fam in default:
            values = fam.evaluate({n: sample for n in fam.free})
            if values is not None:
                want.add(tuple(values[n] for n in stage_fixed.unknowns))
        assert got == want


def test_postlie_heisenberg_brute_force():
    rng = random.Random(13)
    cat = load_catalog(selftest=False)
    heis = cat["heis3"].mult
    fams = postlie_structures(heis)
    assert fams
    ansatz, unknowns = symmetric_ansatz(3)
    from kantor.identities import reslot

    bundle = builtin("postlie_2") + builtin("postlie_3")
    for fam in fams:
        if fam.equations:
            continue
        for values in sample_family_points(fam, rng, 20):
            product = ansatz.substitute({k: Poly.const(v) for k, v in values.items()})
            assert check_identity([product, heis], bundle).holds


# -- rational values and the --json contract ----------------------------------

def _family_from_payload(payload, unknowns):
    """A family rebuilt from its ``--json`` strings with plain (num, den) tuples."""
    def rational(text):
        if text.startswith("("):
            num, den = text[1:-1].split(")/(")
            return parse_poly(num), parse_poly(den)
        return parse_poly(text), Poly.const(1)

    return SolutionFamily(
        unknowns=unknowns,
        assignment={name: rational(text) for name, text in payload["assignment"].items()},
        free=tuple(payload["free"]),
        equations=tuple(parse_poly(q) for q in payload["equations"]),
        inequations=tuple(parse_poly(q) for q in payload["inequations"]),
        label=payload["label"],
    )


@pytest.mark.parametrize("kind, key, classify", [
    ("postlie", "heis3", postlie_structures),
    ("generic-poisson", "qt4", generic_poisson_structures),
])
def test_json_families_round_trip_through_plain_tuples(kind, key, classify):
    families = classify(load_catalog(selftest=False)[key].mult)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["classify", kind, f"catalog:{key}", "--json"]) == 0
    payloads = json.loads(out.getvalue())
    assert len(payloads) == len(families)
    assert any(not f.is_polynomial() for f in families) == (kind == "postlie")
    rng = random.Random(29)
    for family, payload in zip(families, payloads):
        assert all(isinstance(v, RationalValue) for v in family.assignment.values())
        printed = [f"{name} = {payload['assignment'][name]}"
                   for name in family.unknowns if name in family.assignment]
        assert family.describe().split("; ")[:len(printed)] == printed
        rebuilt = _family_from_payload(payload, family.unknowns)
        evaluated = 0
        for _ in range(20):
            point = rand_point(rng, family.free)
            expected = family.evaluate(point)
            assert rebuilt.evaluate(point) == expected
            evaluated += expected is not None
        assert evaluated > 0


def test_rational_value_prints_and_substitutes():
    x, y = Poly.var("x"), Poly.var("y")
    assert RationalValue(x) == (x, Poly.const(1)) and str(RationalValue(x)) == "x"
    value = RationalValue(x * y, x + 1)
    assert str(value) == "(x*y)/(1 + x)"
    num, den = value.substitute("x", y, Poly.const(2))
    assert (num, den) == (y * y, y + 2)
    assert value.substitute("y", x, x) == (x * x, x * x + x)
    assert value.substitute("z", x, y) is value
    collapsed = value.substitute("x", Poly.const(1), Poly.const(2))
    assert collapsed == (y / 3, Poly.const(1)) and str(collapsed) == str(y / 3)


def assert_case_split_invariants(families):
    """Values, residuals and hypotheses mention only the free unknowns (what
    ``_back_substitute`` relies on); constraints are normalized and the
    hypotheses of a family are distinct."""
    for family in families:
        free = set(family.free)
        for num, den in family.assignment.values():
            assert num.names() <= free and den.names() <= free
        for q in family.equations + family.inequations:
            assert q.names() <= free
            assert _content_normalize(q) == q
        assert len(set(family.inequations)) == len(family.inequations)


@pytest.mark.parametrize("classify, key, max_depth", [
    (postlie_structures, "heis3", 16),
    (postlie_structures, "S2", 16),
    (postlie_structures, "r2c", 16),
    (postlie_structures, "zero2", 16),
    (postlie_structures, "heis4", 4),
    (poisson_structures, "J2", 16),
    (poisson_structures, "qt4", 16),
    (poisson_structures, "heis4", 16),
    (poisson_structures, "lp3", 16),
])
def test_families_mention_free_unknowns_and_normalized_constraints(classify, key, max_depth):
    families = classify(load_catalog(selftest=False)[key].mult, max_depth=max_depth)
    assert families
    assert_case_split_invariants(families)


def test_case_split_hypotheses_are_normalized_distinct_factors():
    # The catalog runs above only assume single unknowns nonzero; here the
    # pivots -2*x*y - 2*x^2 and 12*x*y^2 - 12*x^3 carry content and share x.
    x, y = Poly.var("x"), Poly.var("y")
    system = [parse_poly("(-2*x^2 - 2*x*y)*(z + w) + 1"), parse_poly("(3*x - 3*y)*(z - w) + 1")]
    families = case_split_solve(system, ["w", "x", "y", "z"], max_depth=2)
    assert [f.inequations for f in families] == [(x, x + y, x * x - y * y), (x, x + y)]
    assert_case_split_invariants(families)


def test_case_split_step1_takes_the_first_equation_then_its_first_unknown():
    # Both equations have constant linear occurrences.  The first equation
    # is solved first, for its first unknown b (not c); the assignment
    # lists the solved unknowns in reverse solve order.
    c = Poly.var("c")
    [family] = case_split_solve([c - Poly.var("b"), Poly.var("a") - c], ["a", "b", "c"])
    assert list(family.assignment.items()) == [("a", (c, 1)), ("b", (c, 1))]
    assert family.free == ("c",)


@pytest.mark.parametrize("system, coefficient", [
    # Fewer coefficient terms win over the name: b and d (coefficients a
    # and c) beat a and c (coefficients b + c and a + d).
    (["a*b + a*c + c*d + 1"], "a"),
    # Coefficient terms count before equation terms: a (coefficient b, in
    # four terms) beats g (coefficient h + i, in three).
    (["g*h + g*i + h*i", "a*b + c*d + e*f + 1"], "b"),
    # Then fewer equation terms: g in the three-term equation beats a.
    (["a*b + c*d + e*f + 1", "g*h + i*j + 1"], "h"),
    # Then the name: in a*b + c*d + 1 the unknown a (coefficient b) beats
    # b, c and d.
    (["a*b + c*d + 1"], "b"),
    # On a full tie the first equation wins: a in both, coefficient b first.
    (["a*b + c*d + 1", "a*e + f*g + 1"], "b"),
])
def test_case_split_step4_pivot_tie_break(system, coefficient):
    families = case_split_solve([parse_poly(q) for q in system], list("abcdefghij"), max_depth=1)
    assert families[0].label.startswith(f"{coefficient} != 0")
    assert any(f.label.startswith(f"{coefficient} = 0") for f in families)


def test_case_split_prunes_after_one_equation_vanishes_and_a_later_one_is_constant():
    # Step 3 splits x*y = 0.  Its x = 0 branch turns x*z into 0 and then
    # x*w - 1 into -1, so it is pruned; the y = 0 branch survives.
    system = [parse_poly(q) for q in ["x*y", "x*z", "x*w - 1"]]
    [family] = case_split_solve(system, list("wxyz"))
    assert family.label == "y = 0; z = 0; -x != 0"
    assert family.describe() == "w = (-1)/(-x); y = 0; z = 0; free: x; assuming: x != 0"
    assert_case_split_invariants([family])


def reference_split_inequation(q):
    """The factors of q's monomial content and its normalized rest, on exponent dicts."""
    common = None
    for mono, _ in q.monomials():
        exps = dict(mono)
        if common is None:
            common = exps
        else:
            common = {n: min(e, common[n]) for n, e in exps.items() if n in common}
        if not common:
            break
    parts = [Poly.var(name) for name in sorted(common or {})]
    if common:
        stripped = {}
        for mono, coeff in q.monomials():
            exps = dict(mono)
            for name, e in common.items():
                exps[name] -= e
            stripped[tuple(sorted((n, e) for n, e in exps.items() if e))] = coeff
        rest = _content_normalize(Poly(stripped))
    else:
        rest = _content_normalize(q)
    if not rest.is_constant():
        parts.append(rest)
    return parts


_SPLIT_NAMES = ["x", "y", "z", "a1"]
_split_polys = st.dictionaries(
    st.dictionaries(st.sampled_from(_SPLIT_NAMES), st.integers(1, 3), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    ),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
    max_size=4,
).map(Poly)


@settings(max_examples=150, deadline=None)
@given(_split_polys)
@example(Poly.const(F(-2, 3)))
@example(parse_poly("-6*x^2*y*a1 + 3/2*x*y^3*a1 + 9*x*y*a1"))
@example(parse_poly("4*z^3"))
def test_split_inequation_matches_reference(q):
    assert _split_inequation(q) == reference_split_inequation(q)


def former_content_normalize(p):
    """``_content_normalize`` as it was before it took the lead from ``Poly.first_coefficient``."""
    if p.is_zero():
        return p
    coeffs = p.terms.values()
    num_gcd = math.gcd(*(abs(c.numerator) for c in coeffs))
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    _, lead = min(p.monomials())
    scale = F(den_lcm if lead > 0 else -den_lcm, num_gcd)
    return p if scale == 1 else p * scale


# Seen first in reverse alphabetical order, so packed order is not readable order.
_NORMALIZE_NAMES = ["nz_d", "nz_c", "nz_b", "nz_a"]
for _name in _NORMALIZE_NAMES:
    Poly.var(_name)

_normalize_polys = st.dictionaries(
    st.dictionaries(st.sampled_from(_NORMALIZE_NAMES), st.integers(1, 3), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    ),
    st.builds(F, st.integers(-12, 12), st.integers(1, 12)),
    max_size=5,
).map(Poly)


@settings(max_examples=200, deadline=None)
@given(_normalize_polys)
@example(Poly.zero())
@example(Poly.const(F(-4, 9)))
@example(parse_poly("-2/3*nz_d^2 + 4/9*nz_a*nz_c - 8*nz_b"))
@example(parse_poly("nz_d - nz_a"))
@example(parse_poly("6*nz_c*nz_a + 3/5*nz_a"))
def test_content_normalize_matches_the_former_body(p):
    got, expected = _content_normalize(p), former_content_normalize(p)
    assert list(got.terms.items()) == list(expected.terms.items())
    assert (got is p) == (expected is p)


def test_a_substituted_hypothesis_meets_a_later_untouched_one():
    # Step 4 pivots a, b and d on the hypotheses x, w and y, in that order;
    # the last equation then reads x - y, and x := y turns the hypothesis x
    # into y, which the untouched hypothesis y repeats.  The list keeps
    # the first place of each and the order of the rest.
    system = [parse_poly(q) for q in ["x*a - 1", "w*b - 1", "y*d - 1", "a*b*d*(x - y)"]]
    [family] = case_split_solve(system, ["a", "b", "d", "w", "x", "y"])
    assert family.label == "-x != 0; -w != 0; -y != 0"
    assert [str(q) for q in family.inequations] == ["y", "w"]
    assert family.describe() == (
        "a = (-1)/(-y); b = (-1)/(-w); d = (-1)/(-y); x = y; free: w, y; "
        "assuming: y != 0; w != 0"
    )
    assert_case_split_invariants([family])


def test_evaluate_rejects_inexact_values():
    g = Poly.var("g")
    [family] = case_split_solve([g * Poly.var("h") - 1], ["g", "h"])
    assert family.free == ("h",)
    assert family.evaluate({"h": 2}) == {"g": F(1, 2), "h": F(2)}
    assert family.evaluate({"h": F(1, 3)}) == {"g": F(3), "h": F(1, 3)}
    for value in (1.5, 2.0, "2", None, Poly.const(2)):
        with pytest.raises(TypeError):
            family.evaluate({"h": value})


def test_evaluate_needs_exactly_the_free_unknowns():
    [family] = case_split_solve([Poly.var("g") * Poly.var("h") - 1], ["g", "h"])
    with pytest.raises(ValueError, match=r"missing \['h'\]"):
        family.evaluate({})
    with pytest.raises(ValueError, match=r"extra \['zzz'\]"):
        family.evaluate({"h": 2, "zzz": 1})
    # A solved unknown is not a free one.
    with pytest.raises(ValueError, match=r"missing \['h'\], extra \['g'\]"):
        family.evaluate({"g": 2})


# -- the structure records ----------------------------------------------------

def test_each_structure_verifies_every_identity_it_verified_before():
    def on_bracket(name):
        return reslot(builtin(name)[0], 2, {0: 1})

    generic = (on_bracket("anticommutative"),) + builtin("leibniz_rule") + builtin("postlie_3")
    expected = {
        "poisson": ((on_bracket("jacobi"),) + generic, ["base", "tensor"]),
        "generic-poisson": (generic, ["base", "tensor"]),
        "postlie": (builtin("postlie_2") + builtin("postlie_3"), ["tensor", "base"]),
    }
    assert _STRUCTURES.keys() == expected.keys()
    for kind, (specs, slots) in expected.items():
        structure = _STRUCTURES[kind]
        assert set(specs) <= set(structure.verify), kind
        assert structure.slots("base", "tensor") == slots, kind


@pytest.mark.parametrize("classify, key", [
    (poisson_structures, "heis4"),
    (postlie_structures, "heis3"),
])
def test_an_unsound_stage2_family_is_caught(monkeypatch, classify, key):
    # Leaving every stage-2 unknown free keeps the whole linear stage, which
    # on these algebras is not a structure.
    def everything_free(equations, unknowns, max_depth=16):
        assert equations
        return [SolutionFamily(tuple(unknowns), {}, tuple(unknowns), (), (), "all free")]

    monkeypatch.setattr("kantor.classify.case_split_solve", everything_free)
    with pytest.raises(AssertionError, match="unsound family \\(all free\\)"):
        classify(CATALOG[key].mult)


@pytest.mark.parametrize("max_depth, error", [
    (-1, ValueError), (1.5, TypeError), (True, TypeError), ("4", TypeError), (None, TypeError),
])
def test_case_split_rejects_a_bad_max_depth(max_depth, error):
    g = Poly.var("g")
    with pytest.raises(error, match="max_depth"):
        case_split_solve([g * g - g], ["g"], max_depth)
    with pytest.raises(error, match="max_depth"):
        postlie_structures(CATALOG["heis3"].mult, max_depth=max_depth)


def test_case_split_accepts_depth_zero():
    g1, g2 = Poly.var("g1"), Poly.var("g2")
    (family,) = case_split_solve([g1 * g2 + g1 + g2], ["g1", "g2"], 0)
    assert family.label == "depth cap" and family.equations
