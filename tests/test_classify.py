import functools
import io
import itertools
import json
import math
import random
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kantor.algebra import Element, Multiplication, multiply
import kantor.classify as classify_module
from kantor.catalog import load_catalog
from kantor.cli import main
from kantor.classify import (
    _STRUCTURES,
    RationalValue,
    SolutionFamily,
    _Branch,
    _facts,
    _normalize,
    _split_inequation,
    _step,
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

GOLDEN = Path(__file__).parent / "golden"


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
        # Text and --json print the chain in its evaluation order.
        assert list(payload["assignment"]) == list(family.assignment)
        printed = [f"{name} = {text}" for name, text in payload["assignment"].items()]
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
    """Each chain value mentions only free unknowns and names listed before it
    (what ``_back_substitute`` relies on), and each expanded value, residual
    and hypothesis only free unknowns; constraints are normalized and the
    hypotheses of a family are distinct."""
    for family in families:
        free = set(family.free)
        known = set(free)
        for name, (num, den) in family.assignment.items():
            assert name not in free
            assert num.names() <= known and den.names() <= known
            known.add(name)
        polynomial = family.is_polynomial()
        assert list(family.expanded) == list(family.assignment)
        for num, den in family.expanded.values():
            assert num.names() <= free and den.names() <= free
        assert polynomial == all(den == 1 for _, den in family.expanded.values())
        for q in family.equations + family.inequations:
            assert q.names() <= free
            assert q.primitive() == (1, q)
        assert len(set(family.inequations)) == len(family.inequations)


CATALOG_RUNS = [
    (postlie_structures, "heis3", 16),
    (postlie_structures, "S2", 16),
    (postlie_structures, "r2c", 16),
    (postlie_structures, "zero2", 16),
    (postlie_structures, "heis4", 4),
    (poisson_structures, "J2", 16),
    (poisson_structures, "qt4", 16),
    (poisson_structures, "heis4", 16),
    (poisson_structures, "lp3", 16),
]


@functools.lru_cache(maxsize=None)
def catalog_families(classify, key, max_depth):
    return tuple(classify(load_catalog(selftest=False)[key].mult, max_depth=max_depth))


@pytest.mark.parametrize("classify, key, max_depth", CATALOG_RUNS)
def test_families_mention_free_unknowns_and_normalized_constraints(classify, key, max_depth):
    families = catalog_families(classify, key, max_depth)
    assert families
    assert_case_split_invariants(families)


@functools.lru_cache(maxsize=None)
def solved_catalog_families():
    """The catalog runs' families that have solved values and no residuals."""
    return [family for run in CATALOG_RUNS for family in catalog_families(*run)
            if family.assignment and not family.equations]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_chain_and_its_expansion_evaluate_alike(data):
    family = data.draw(st.sampled_from(solved_catalog_families()))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    point = {name: data.draw(values, label=name) for name in family.free}
    expanded = replace(family, assignment=family.expanded)
    assert family.evaluate(point) == expanded.evaluate(point)


# The goldens under golden/expanded/ are the classify --json outputs as
# printed before families kept their chains: every value back-substituted
# and each step-4 pivot as the equation carried it.
EXPANDED_GOLDENS = [
    "classify_postlie_heis3.json",
    "classify_poisson_heis4.json",
    "classify_postlie_r2c.json",
    "classify_postlie_zero2.json",
    "classify_postlie_heis4_depth2.json",
    "classify_postlie_heis4_depth4.json",
]


def same_split(before, after):
    """Whether two label parts are one split, up to step 4's pivot normalization."""
    if before == after:
        return True
    for relation in (" != 0", " = 0"):
        if before.endswith(relation) and after.endswith(relation):
            pivot = parse_poly(after[:-len(relation)])
            return parse_poly(before[:-len(relation)]).primitive()[1] == pivot
    return False


@pytest.mark.parametrize("golden", EXPANDED_GOLDENS)
def test_chains_expand_to_the_former_families(golden):
    old = json.loads((GOLDEN / "expanded" / golden).read_text())
    new = json.loads((GOLDEN / golden).read_text())
    assert len(new) == len(old)
    for before, after in zip(old, new):
        for key in ("free", "equations", "inequations"):
            assert after[key] == before[key]
        labels = before["label"].split("; "), after["label"].split("; ")
        assert len(labels[0]) == len(labels[1])
        assert all(same_split(b, a) for b, a in zip(*labels)), labels
        unknowns = tuple(after["assignment"]) + tuple(after["free"])
        expanded = _family_from_payload(after, unknowns).expanded
        expected = _family_from_payload(before, unknowns).assignment
        assert list(expanded) == list(expected)
        for name, (num, den) in expanded.items():
            old_num, old_den = expected[name]
            assert num * old_den == old_num * den, name


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
    assert family.label == "y = 0; z = 0; x != 0"
    assert family.describe() == "w = (1)/(x); z = 0; y = 0; free: x; assuming: x != 0"
    assert_case_split_invariants([family])


def test_is_polynomial_reads_the_chain_before_expanding():
    # a = 1/x with x free, and b = a*y: no expansion can clear x from a's
    # denominator.  With x solved before a, only the expansion can tell:
    # x = y + 1 keeps a denominator, x = 2 clears it.
    one = Poly.const(1)
    a, x, y = (Poly.var(n) for n in "axy")
    chain = {"a": (one, x), "b": (a * y, one)}
    family = SolutionFamily(tuple("abxy"), chain, ("x", "y"), (), (x,), "")
    assert not family.is_polynomial() and "expanded" not in vars(family)
    solved = SolutionFamily(tuple("abxy"), {"x": (y + 1, one), **chain}, ("y",), (), (), "")
    assert not solved.is_polynomial() and "expanded" in vars(solved)
    cleared = SolutionFamily(tuple("abxy"), {"x": (Poly.const(2), one), **chain}, ("y",), (), (), "")
    assert cleared.is_polynomial() and cleared.expanded["b"] == (y / 2, one)
    assert SolutionFamily(("a", "x"), {"a": (x, one)}, ("x",), (), (), "").is_polynomial()


def test_case_split_long_linear_chain_keeps_a_flat_stack():
    # Each elimination is a step of the worklist, not a nested call, so a
    # chain longer than the recursion limit allows is solved.
    xs = [Poly.var(f"x{i}") for i in range(601)]
    system = [xs[i] - 2 * xs[i + 1] for i in range(600)]
    assert len(system) > sys.getrecursionlimit() // 2
    [family] = case_split_solve(system, [f"x{i}" for i in range(601)])
    assert family.free == ("x600",)
    assert family.assignment["x0"] == (2 * xs[1], 1)
    assert family.expanded["x0"] == (2 ** 600 * xs[600], 1)
    assert family.label == "general" and not family.equations


def branch_of(system, unknowns, depth):
    variables = {name: (i, Poly.var(name)) for i, name in enumerate(unknowns)}
    facts = tuple(_facts(parse_poly(q), variables) for q in system)
    return _normalize(_Branch(facts, (), (), (), depth, variables))


def summary(branch):
    """A branch as printed equations, hypotheses, solved values, labels and depth."""
    return ([str(r.equation) for r in branch.eqs], [str(q) for q in branch.ineqs],
            [(name, str(value)) for name, value in branch.solved], branch.labels, branch.depth)


def test_step_rule_1_eliminates_without_a_label_or_depth():
    [child] = _step(branch_of(["2*x - y", "x*y - 3"], "xy", 3))
    assert summary(child) == (["6 - y^2"], [], [("x", "1/2*y")], (), 3)


def test_step_rule_2_splits_at_the_rational_roots():
    assert [summary(child) for child in _step(branch_of(["g^2 - g"], "g", 1))] == [
        ([], [], [("g", "0")], ("g = 0",), 0),
        ([], [], [("g", "1")], ("g = 1",), 0),
    ]


def test_step_rule_3_assumes_the_earlier_variables_nonzero():
    assert [summary(child) for child in _step(branch_of(["x*y"], "xy", 1))] == [
        ([], [], [("x", "0")], ("x = 0",), 0),
        ([], ["x"], [("y", "0")], ("y = 0",), 0),
    ]


def test_step_rule_4_assumes_the_coefficient_nonzero_then_zero():
    # c*g - 1 is stored as 1 - c*g; the name breaks the tie, so c is
    # eliminated and its coefficient -g, normalized to g, is the pivot.
    assert [summary(child) for child in _step(branch_of(["c*g - 1"], "cg", 1))] == [
        ([], ["g"], [("c", "(1)/(g)")], ("g != 0",), 0),
        (["1 - c*g", "g"], [], [], ("g = 0",), 0),
    ]
    assert _step(branch_of(["c*g - 1"], "cg", 0)) is None


def test_step_drops_a_child_whose_substitution_leaves_a_constant():
    # g = 0 turns g*h - 1 into -1, so only the g = 1 child is returned.
    [child] = _step(branch_of(["g^2 - g", "g*h - 1"], "gh", 1))
    assert summary(child) == (["1 - h"], [], [("g", "1")], ("g = 1",), 0)


def test_max_depth_bounds_only_step_4():
    # Step 2 splits g^2 - g at depth 1 and at depth 0 alike; step 4 would
    # need depth above 0 after it, so 1 - c*h stays residual in both runs.
    g, c, h = Poly.var("g"), Poly.var("c"), Poly.var("h")
    capped = case_split_solve([g * g - g, c * h - 1], ["c", "g", "h"], max_depth=0)
    assert case_split_solve([g * g - g, c * h - 1], ["c", "g", "h"], max_depth=1) == capped
    assert [(f.label, [str(q) for q in f.equations]) for f in capped] == [
        ("g = 0; depth cap", ["1 - c*h"]),
        ("g = 1; depth cap", ["1 - c*h"]),
    ]


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
        rest = content_scale_normalize(Poly(stripped))
    else:
        rest = content_scale_normalize(q)
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


def content_scale(p):
    """The factor that divides a nonzero p by its rational content and fixes its
    leading sign, as the case split computed it before it kept primitive parts."""
    coeffs = p.terms.values()
    num_gcd = math.gcd(*(c.numerator for c in coeffs))
    den_lcm = math.lcm(*(c.denominator for c in coeffs))
    return F(den_lcm if p.first_coefficient() > 0 else -den_lcm, num_gcd)


def content_scale_normalize(p):
    """``p * content_scale(p)``; p itself if zero or already normalized."""
    if p.is_zero():
        return p
    scale = content_scale(p)
    return p if scale == 1 else p * scale


# Seen first in reverse alphabetical order, so packed order is not readable order.
_NORMALIZE_NAMES = ["nz_d", "nz_c", "nz_b", "nz_a"]
for _name in _NORMALIZE_NAMES:
    Poly.var(_name)

_normalize_polys = st.dictionaries(
    st.dictionaries(st.sampled_from(_NORMALIZE_NAMES), st.integers(1, 3), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    ),
    st.one_of(st.integers(-60, 60), st.builds(F, st.integers(-12, 12), st.integers(1, 12))),
    max_size=5,
).map(Poly)


@settings(max_examples=300, deadline=None)
@given(_normalize_polys)
@example(Poly.zero())
@example(Poly.const(F(-4, 9)))
@example(Poly.const(-12))
@example(parse_poly("-2/3*nz_d^2 + 4/9*nz_a*nz_c - 8*nz_b"))
@example(parse_poly("nz_d - nz_a"))
@example(parse_poly("-nz_d + nz_a"))
@example(parse_poly("6*nz_c*nz_a + 3/5*nz_a"))
@example(parse_poly("-12*nz_c*nz_a + 18*nz_b - 30"))
def test_primitive_part_matches_the_content_scale(p):
    content, got = p.primitive()
    expected = content_scale_normalize(p)
    assert list(got.terms.items()) == list(expected.terms.items())
    assert all(type(c) is int for c in got.terms.values())
    assert (got is p) == (expected is p)
    assert content * got == p
    if p.terms:
        assert content == 1 / content_scale(p)
        assert type(content) is int or not all(type(c) is int for c in p.terms.values())


def test_a_substituted_hypothesis_meets_a_later_untouched_one():
    # Step 4 pivots a, b and d on the hypotheses x, w and y, in that order;
    # the last equation then reads x - y, and x := y turns the hypothesis x
    # into y, which the untouched hypothesis y repeats.  The list keeps
    # the first place of each and the order of the rest.
    system = [parse_poly(q) for q in ["x*a - 1", "w*b - 1", "y*d - 1", "a*b*d*(x - y)"]]
    [family] = case_split_solve(system, ["a", "b", "d", "w", "x", "y"])
    assert family.label == "x != 0; w != 0; y != 0"
    assert [str(q) for q in family.inequations] == ["y", "w"]
    assert family.describe() == (
        "x = y; d = (1)/(y); b = (1)/(w); a = (1)/(x); free: w, y; "
        "assuming: y != 0; w != 0"
    )
    assert_case_split_invariants([family])


def test_case_split_refuses_names_that_are_not_unknowns():
    # Steps 2 and 3 would solve a for x's system: a = 1, or a split on a = 0.
    a, b, x = Poly.var("a"), Poly.var("b"), Poly.var("x")
    for system in ([a - 1], [a * x], iter([x - 1, b * a * x])):
        with pytest.raises(ValueError, match=r"not unknowns: a(, b)?$"):
            case_split_solve(system, ["x"])
    [family] = case_split_solve(iter([x - 1]), ["x"])
    assert family.assignment == {"x": (Poly.const(1), 1)}


def test_a_zero_value_over_a_pivot_substitutes_as_zero():
    # Step 4 pivots a*y^2 + a on 1 + y^2 with no rest, so a := 0/(1 + y^2)
    # under 1 + y^2 != 0; a is then 0, the other equation becomes 1 + y^2,
    # which equals the hypothesis, and the branch is pruned.
    system = [parse_poly("a*y^2 + a"), parse_poly("a^2*x^2 + y^2 + 1")]
    for depth in (1, 2, 16):
        assert [f.describe() for f in case_split_solve(system, ["a", "x", "y"], max_depth=depth)] == [
            "free: a, x, y; residual: a + a*y^2 = 0; 1 + y^2 + a^2*x^2 = 0; 1 + y^2 = 0",
        ]


def test_a_zero_value_substitutes_as_zero_whatever_its_denominator():
    for c in map(parse_poly, ("1 + y^2", "3", "x*y - 2")):
        for p in map(parse_poly, ("a^2*x^2 + y^2 + 1", "3*a*x - a^3*y + 2*y", "x*y - 1", "a", "0")):
            assert classify_module._substitution("a", RationalValue(Poly.zero(), c))(p) == p.at_zero("a")


def former_substitution(name, value):
    """The substitution as it was: only a zero over 1 kept the terms free of ``name``."""
    num, den = value
    if not num.terms and den == 1:
        return lambda p: p.at_zero(name)
    power = classify_module._powers(num, den)

    def substitute(p):
        parts = p.coeffs_in(name)
        degree = max(parts, default=0)
        return p if degree == 0 else classify_module._subst_parts(parts, power, degree)
    return substitute


def _random_system(rng, names):
    """Two or three small equations, most of them a name times a polynomial free of
    it, half of those plus any small polynomial."""
    def poly(pool):
        terms = []
        for _ in range(rng.randint(1, 3)):
            term = Poly.const(rng.choice([-2, -1, 1, 2, 3]))
            for name in rng.sample(pool, rng.randint(0, min(2, len(pool)))):
                term = term * Poly.var(name) ** rng.randint(1, 2)
            terms.append(term)
        return sum(terms, Poly.zero())

    system = []
    for _ in range(rng.randint(2, 3)):
        if rng.random() < 0.6:
            name = rng.choice(names)
            rest = poly(names) if rng.random() < 0.5 else Poly.zero()
            system.append(Poly.var(name) * poly([n for n in names if n != name]) + rest)
        else:
            system.append(poly(names))
    return system


def _contains(family, point):
    """Whether a full point of the unknowns lies in the family."""
    def at(q):
        return q.substitute(point).constant_value()
    if any(at(q) == 0 for q in family.inequations) or any(at(q) != 0 for q in family.equations):
        return False
    return all(at(den) != 0 and at(num) / at(den) == point[name]
               for name, (num, den) in family.assignment.items())


def test_the_zero_rule_keeps_the_solution_set_on_random_systems(monkeypatch):
    """Sampled, not a proof: on 600 seeded random systems in four unknowns,
    rational points drawn from each family of either substitution rule (a
    zero over a step-4 pivot as 0, and the former rule that scaled by the
    pivot, kept here as the reference) solve the system and lie in some
    family of the other rule.
    """
    rng = random.Random(35)
    names = ["a", "x", "y", "z"]
    changed = 0
    for _ in range(600):
        system = _random_system(rng, names)
        new = case_split_solve(system, names, max_depth=3)
        with monkeypatch.context() as m:
            m.setattr(classify_module, "_substitution", former_substitution)
            old = case_split_solve(system, names, max_depth=3)
        changed += new != old
        for families, others in ((new, old), (old, new)) if new != old else ((new, new),):
            for family in families:
                for point in filter(None, (family.evaluate(rand_point(rng, family.free)) for _ in range(6))):
                    assert all(p.substitute(point).constant_value() == 0 for p in system), (system, family)
                    assert any(_contains(other, point) for other in others), (system, family, point)
    assert changed >= 5


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
