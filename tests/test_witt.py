import random
from fractions import Fraction as F

from kantor.witt import (
    GradedElement,
    I,
    L,
    WittConfig,
    kantor_curly,
    kantor_star,
    witt_bracket,
    witt_curly,
    witt_dot,
    witt_juxt,
    witt_star,
)


def rand_elt(rng, support=4, span=5):
    terms = {}
    for _ in range(rng.randint(1, support)):
        kind = rng.choice(["L", "I"])
        idx = rng.randint(-span, span)
        terms[(kind, idx)] = F(rng.randint(-6, 6), rng.randint(1, 4))
    return GradedElement(terms)


def rand_cfg(rng):
    return WittConfig(a=F(rng.randint(-4, 4), rng.randint(1, 3)), w=rand_elt(rng))


def test_juxtaposition_table():
    assert witt_juxt(L(2), L(3)) == L(5)
    assert witt_juxt(L(1), I(2)) == I(3)
    assert witt_juxt(I(1), L(2)) == I(3)
    assert witt_juxt(I(1), I(2)).is_zero()
    assert witt_juxt(GradedElement.zero(), L(0)).is_zero()


def test_dot_examples():
    cfg = WittConfig(w=L(0))
    assert witt_dot(L(1), L(1), cfg) == L(2)
    cfg_i = WittConfig(w=I(5))
    assert witt_dot(L(0), I(0), cfg_i).is_zero()
    cfg_zero = WittConfig(w=GradedElement.zero())
    assert witt_dot(L(3), L(4), cfg_zero).is_zero()


def test_bracket_examples():
    cfg = WittConfig(a=F(3))
    assert witt_bracket(L(2), L(1), cfg) == L(3)
    assert witt_bracket(L(0), I(0), cfg) == I(0).scale(-3)
    x = L(2) + I(1).scale(F(1, 2))
    assert witt_bracket(x, x, cfg).is_zero()


def test_star_and_curly_examples():
    cfg = WittConfig(a=F(7), w=L(2))
    assert witt_star(L(0), I(0), L(1), cfg) == I(3).scale(-3)
    # curly on equal generators vanishes
    assert witt_curly(L(1), L(1), L(1) + I(2), cfg).is_zero()
    cfg0 = WittConfig(a=F(5), w=L(0))
    assert witt_curly(L(0), L(1), L(0), cfg0) == L(1)


def test_dot_is_commutative_associative():
    rng = random.Random(3)
    for _ in range(40):
        cfg = rand_cfg(rng)
        x, y, z = rand_elt(rng), rand_elt(rng), rand_elt(rng)
        assert witt_dot(x, y, cfg) == witt_dot(y, x, cfg)
        lhs = witt_dot(witt_dot(x, y, cfg), z, cfg)
        rhs = witt_dot(x, witt_dot(y, z, cfg), cfg)
        assert lhs == rhs


def test_base_pair_is_transposed_poisson_on_random_triples():
    rng = random.Random(5)
    for _ in range(50):
        cfg = rand_cfg(rng)
        x, y, z = rand_elt(rng), rand_elt(rng), rand_elt(rng)
        br = lambda p, q: witt_bracket(p, q, cfg)
        dot = lambda p, q: witt_dot(p, q, cfg)
        assert (br(x, y) + br(y, x)).is_zero()
        jac = br(br(x, y), z) + br(br(z, x), y) + br(br(y, z), x)
        assert jac.is_zero()
        dl = dot(z, br(x, y)).scale(2) - br(dot(z, x), y) - br(x, dot(z, y))
        assert dl.is_zero()


def test_closed_formulas_agree_with_kantor_definition():
    rng = random.Random(11)
    for _ in range(60):
        cfg = rand_cfg(rng)
        u = rand_elt(rng)
        x, y = rand_elt(rng), rand_elt(rng)
        assert witt_star(x, y, u, cfg) == kantor_star(x, y, u, cfg)
        assert witt_curly(x, y, u, cfg) == kantor_curly(x, y, u, cfg)


def test_derived_pair_is_transposed_poisson_on_random_triples():
    rng = random.Random(13)
    for _ in range(50):
        cfg = rand_cfg(rng)
        u = rand_elt(rng)
        x, y, z = rand_elt(rng), rand_elt(rng), rand_elt(rng)
        st = lambda p, q: witt_star(p, q, u, cfg)
        cu = lambda p, q: witt_curly(p, q, u, cfg)
        assert st(x, y) == st(y, x)
        assert st(st(x, y), z) == st(x, st(y, z))
        assert (cu(x, y) + cu(y, x)).is_zero()
        jac = cu(cu(x, y), z) + cu(cu(z, x), y) + cu(cu(y, z), x)
        assert jac.is_zero()
        dl = st(z, cu(x, y)).scale(2) - cu(st(z, x), y) - cu(x, st(z, y))
        assert dl.is_zero()


def test_the_bracket_shift_enters_the_mixed_curly_coefficient():
    # with u = w = L0 the derived bracket is minus the base bracket, so the
    # L-I coefficient (j - i + a) carries the shift: -(1 - 0 - 3) = 2
    cfg = WittConfig(a=F(3), w=L(0))
    assert witt_curly(L(1), I(0), L(0), cfg) == witt_bracket(L(1), I(0), cfg).scale(-1)
    assert witt_curly(L(1), I(0), L(0), cfg) == I(1).scale(2)


def test_coefficients_follow_the_poly_rule():
    # An int when integral, else a Fraction, as Poly stores its coefficients.
    x = GradedElement({("L", 0): F(4, 2), ("I", 1): F(1, 3)}).scale(3)
    assert [type(c) for c in x.terms.values()] == [int, int]
    assert type(L(2).scale(F(1, 2)).terms[("L", 2)]) is F
    assert type(WittConfig(a=F(6, 3)).a) is int
