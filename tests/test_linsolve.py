import random
from fractions import Fraction as F

import pytest

from kantor.algebra import Subspace
from kantor.errors import InconsistentSystem, NonlinearInput, SingularMatrix
from kantor.linsolve import (
    mat_identity,
    mat_inverse,
    mat_mul,
    nullspace,
    rank,
    rref,
    solve_linear,
)
from kantor.poly import Poly, parse_poly


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
