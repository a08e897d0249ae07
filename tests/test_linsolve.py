import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantor.algebra import Subspace
from kantor.errors import InconsistentSystem, NonlinearInput, SingularMatrix
from kantor.linsolve import (
    LinearSolution,
    _eliminate,
    mat_identity,
    mat_inverse,
    mat_mul,
    nullspace,
    rank,
    rref,
    solve_linear,
)
from kantor.poly import Poly, parse_poly, substitute_each
from kantor.witt import GradedElement, L, WittConfig


def test_rref_and_rank():
    m = [[F(2), F(1)], [F(4), F(2)]]
    reduced, pivots = rref(m)
    assert pivots == [0]
    assert rank(m) == 1
    assert reduced[0] == [F(1), F(1, 2)]


def test_nullspace_basis_annihilates():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = nullspace(m, 3)
    assert len(basis) == 2
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if rank(m) < n:
            with pytest.raises(SingularMatrix):
                mat_inverse(m)
            continue
        assert mat_mul(m, mat_inverse(m)) == mat_identity(n)


def test_in_span():
    span = Subspace.from_vectors(3, [[F(1), F(0), F(1)], [F(0), F(1), F(0)]])
    assert span.contains([F(2), F(3), F(2)])
    assert not span.contains([F(1), F(0), F(0)])
    # The same vector in floats is refused (test_floats_are_not_exact_scalars).
    assert Subspace.from_vectors(3, [[1, 1, 0], [0, 1, 1]]).contains([F(1, 10), F(3, 10), F(1, 5)])


@pytest.mark.parametrize("call", [
    lambda: rref([[1, 0.5]]),
    lambda: nullspace([[1, 0.5]], 2),
    lambda: mat_inverse([[0.1]]),
    lambda: Subspace.from_vectors(2, [[1, 0.5]]),
    lambda: Subspace.from_vectors(3, [[1, 1, 0], [0, 1, 1]]).contains([0.1, 0.3, 0.2]),
    lambda: GradedElement({("L", 0): 0.1}),
    lambda: WittConfig(a=0.1),
    lambda: L(1).scale(0.1),
], ids=["rref", "nullspace", "mat_inverse", "from_vectors", "contains", "GradedElement",
        "WittConfig", "scale"])
def test_floats_are_not_exact_scalars(call):
    with pytest.raises(TypeError, match="not an exact scalar"):
        call()


def test_solve_linear_forced_values():
    g1, g2 = Poly.var("g1"), Poly.var("g2")
    sol = solve_linear([g1, g2], ["g1", "g2"])
    assert sol.assignments == {"g1": Poly.zero(), "g2": Poly.zero()}
    assert sol.free == ()

    sol = solve_linear([], ["g1"])
    assert sol.free == ("g1",)

    sol = solve_linear([g1 - g2, g2 - 3], ["g1", "g2"])
    assert sol.assignments["g1"] == 3
    assert sol.assignments["g2"] == 3


def test_solve_linear_free_parameters():
    p = parse_poly("g1 - 2*g2 + g3")
    sol = solve_linear([p], ["g1", "g2", "g3"])
    assert set(sol.free) == {"g2", "g3"}
    assert sol.substitute(p) == 0


def test_solve_linear_errors():
    with pytest.raises(InconsistentSystem):
        solve_linear([parse_poly("g1 - g2"), parse_poly("g1 - g2 - 1")], ["g1", "g2"])
    with pytest.raises(NonlinearInput):
        solve_linear([parse_poly("g1^2")], ["g1"])
    with pytest.raises(NonlinearInput):
        solve_linear([parse_poly("alpha*g1")], ["g1"])


def test_solve_linear_back_substitution_random():
    rng = random.Random(11)
    names = ["g1", "g2", "g3", "g4"]
    for _ in range(25):
        system = []
        for _ in range(rng.randint(0, 5)):
            p = Poly.const(rng.randint(-2, 2))
            for name in names:
                p = p + Poly.var(name) * rng.randint(-3, 3)
            system.append(p)
        try:
            sol = solve_linear(system, names)
        except InconsistentSystem:
            continue
        for p in system:
            assert sol.substitute(p) == 0


def dense_rref(rows):
    """The dense first-nonzero-pivot elimination: the reference for ``rref``."""
    m = [[F(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r] + [[F(0)] * ncols for _ in range(len(m) - r)], pivots


def dense_nullspace(rows, ncols):
    reduced, pivots = dense_rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for row, pcol in zip(reduced, pivots):
            vec[pcol] = -row[free]
        basis.append(vec)
    return basis


def sparse_entries():
    # Mostly zeros, as in the classifiers' linear stages.
    nonzero = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    return st.one_of(st.just(F(0)), st.just(F(0)), nonzero)


@st.composite
def matrices(draw):
    """Wide and tall shapes, with zero rows and repeated rows mixed in."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    rows = [draw(st.lists(sparse_entries(), min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if rows and draw(st.booleans()):
        copied = rows[draw(st.integers(0, len(rows) - 1))]
        rows.insert(draw(st.integers(0, len(rows))), list(copied))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * ncols)
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_sparse_rref_equals_the_dense_reference(case):
    rows, ncols = case
    expected = dense_rref(rows)
    assert rref(rows) == expected
    assert rank(rows) == len(expected[1])
    assert nullspace(rows, ncols) == dense_nullspace(rows, ncols)
    square = [row[:len(rows)] for row in rows] if len(rows) <= ncols else None
    if square:
        n = len(square)
        aug = [row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(square)]
        reduced, pivots = dense_rref(aug)
        if pivots[:n] == list(range(n)):
            assert mat_inverse(square) == [row[n:] for row in reduced[:n]]
        else:
            with pytest.raises(SingularMatrix):
                mat_inverse(square)


UNKNOWNS = ["g1", "g2", "g3", "g4"]


def former_solve_linear(system, unknowns):
    """``solve_linear`` as it was with dense rows, no deduplication and the dense reference."""
    index = {name: i for i, name in enumerate(unknowns)}
    rows = []
    for p in system:
        row = [F(0)] * (len(unknowns) + 1)
        for mono, coeff in p.monomials():
            if mono:
                row[index[mono[0][0]]] += coeff
            else:
                row[-1] += coeff
        rows.append(row)
    reduced, pivots = dense_rref(rows)
    ncols = len(unknowns)
    if ncols in pivots:
        raise InconsistentSystem("system has no solution")
    assignments = {}
    for row, pcol in zip(reduced, pivots):
        value = Poly.const(-row[-1])
        for col in range(ncols):
            if col != pcol and col not in pivots and row[col]:
                value = value - Poly.var(unknowns[col]) * row[col]
        assignments[unknowns[pcol]] = value
    return assignments, tuple(name for name in unknowns if name not in assignments)


@st.composite
def affine_systems(draw):
    """Affine equations in UNKNOWNS, with exact repeats, scaled copies and zeros mixed in."""
    rows, _ = draw(matrices())
    width = len(UNKNOWNS) + 1
    system = [
        Poly({((name, 1),) if i < len(UNKNOWNS) else (): x
              for i, (name, x) in enumerate(zip(UNKNOWNS + [None], row[:width])) if x})
        for row in rows
    ]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["repeat", "scale", "zero"]))
        if kind == "zero" or not system:
            new = Poly.zero()
        else:
            new = draw(st.sampled_from(system))
            if kind == "scale":
                new = new * draw(st.sampled_from([F(-1), F(2), F(1, 3)]))
        system.insert(draw(st.integers(0, len(system))), new)
    return system


def _outcome(system):
    try:
        sol = solve_linear(system, UNKNOWNS)
    except InconsistentSystem as exc:
        return str(exc)
    assignments = [(name, list(p.terms.items())) for name, p in sol.assignments.items()]
    return assignments, sol.free, sol.unknowns


@settings(max_examples=150, deadline=None)
@given(affine_systems())
def test_solve_linear_ignores_exact_duplicates(system):
    distinct = []
    for p in system:
        if all(p != q for q in distinct):
            distinct.append(p)
    outcome = _outcome(system)
    assert outcome == _outcome(distinct)
    try:
        assignments, free = former_solve_linear(system, UNKNOWNS)
    except InconsistentSystem as exc:
        assert outcome == str(exc)
    else:
        former = [(name, list(p.terms.items())) for name, p in assignments.items()]
        assert outcome == (former, free, tuple(UNKNOWNS))


def exact_dedupe_solve_linear(system, unknowns):
    """``solve_linear`` written out as a reference: exact duplicates dropped, every distinct row eliminated."""
    unknowns = list(unknowns)
    ncols = len(unknowns)
    index = {((name, 1),): i for i, name in enumerate(unknowns)}
    index[()] = ncols
    system = list(dict.fromkeys(system))
    rows = []
    for p in system:
        row = {}
        for mono, coeff in p.monomials():
            col = index.get(mono)
            if col is None:
                if len(mono) != 1 or mono[0][1] != 1:
                    raise NonlinearInput(f"not affine in the unknowns: {p}")
                raise NonlinearInput(f"foreign symbol {mono[0][0]!r} in {p}")
            row[col] = F(coeff)
        rows.append(row)
    reduced, pivots = _eliminate(rows, ncols + 1)
    if pivots and pivots[-1] == ncols:
        raise InconsistentSystem("system has no solution")
    assignments = {}
    for row, pcol in zip(reduced, pivots):
        terms = {(): -row[ncols]} if ncols in row else {}
        for col in sorted(row):
            if col != pcol and col != ncols:
                terms[((unknowns[col], 1),)] = -row[col]
        assignments[unknowns[pcol]] = Poly(terms)
    free = tuple(name for name in unknowns if name not in assignments)
    assert all(p.is_zero() for p in substitute_each(system, assignments))
    return LinearSolution(tuple(unknowns), assignments, free)


@st.composite
def scaled_systems(draw):
    """Affine systems where most equations reappear scaled, sometimes with a nonlinear one."""
    system = draw(affine_systems())
    scales = st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    for _ in range(draw(st.integers(0, 6))):
        if not system:
            break
        new = draw(st.sampled_from(system)) * draw(scales)
        system.insert(draw(st.integers(0, len(system))), new)
    if draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from([parse_poly("g1*g2 + 1"), parse_poly("g3 - beta")]))
        system.insert(draw(st.integers(0, len(system))), bad)
    return system


def _result(solve, system):
    try:
        sol = solve(system, UNKNOWNS)
    except (InconsistentSystem, NonlinearInput) as exc:
        return type(exc), str(exc)
    assignments = [(name, list(p.terms.items())) for name, p in sol.assignments.items()]
    return assignments, sol.free, sol.unknowns


@settings(max_examples=200, deadline=None)
@given(scaled_systems())
def test_solve_linear_with_scaled_copies_matches_the_exact_dedupe_reference(system):
    assert _result(solve_linear, system) == _result(exact_dedupe_solve_linear, system)


def test_solve_linear_names_the_first_offending_equation_once():
    ok, square, foreign = parse_poly("g1 - 1"), parse_poly("g1^2 + g2"), parse_poly("g1 + alpha")
    for system, message in (
        ([ok, square, ok, square, foreign], "not affine in the unknowns: g2 + g1^2"),
        ([foreign, ok, foreign, square, square], "foreign symbol 'alpha' in alpha + g1"),
        ([parse_poly("beta"), parse_poly("beta")], "foreign symbol 'beta' in beta"),
    ):
        with pytest.raises(NonlinearInput) as exc:
            solve_linear(system, ["g1", "g2"])
        assert str(exc.value) == message
