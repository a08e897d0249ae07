import random
from fractions import Fraction as F

import pytest

from kantor.algebra import Element, Multiplication, multiply
from kantor.errors import DimMismatch, IndexOutOfRange
from kantor.poly import Poly
from kantor.product import kantor_product, symbolic_vector
from kantor.un import UnElement, basis_indices, elementary, render_un_table, un_bracket, un_table


def test_elementary_defining_deltas():
    m = elementary(1, 1, 1, 2)
    v1, v2 = Element.basis(2, 0), Element.basis(2, 1)
    assert multiply(m, v1, v1) == v1
    assert multiply(m, v1, v2).is_zero()

    m = elementary(1, 2, 1, 2)
    assert multiply(m, v2, v1).is_zero()
    assert multiply(m, v1, v2) == v1

    with pytest.raises(IndexOutOfRange):
        elementary(0, 1, 1, 2)
    with pytest.raises(IndexOutOfRange):
        elementary(1, 1, 3, 2)


def test_decompose_round_trip():
    for n in (1, 2, 3):
        for idx in basis_indices(n):
            m = elementary(*idx, n)
            decomposed = UnElement.from_mult(m)
            assert decomposed.coeffs == {idx: Poly.const(1)}
            assert decomposed.to_mult() == m


def random_tensor(rng, n):
    """A sparse tensor with rational and symbolic entries, some of which cancel."""
    values = [1, -1, F(3, 2), F(-2, 5), "alpha", "u1 - 2*alpha", "u1^2"]
    table = {
        (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n)): rng.choice(values)
        for _ in range(rng.randint(0, 2 * n))
    }
    m = Multiplication.from_table(n, table)
    cancel = {key: -value for key, value in list(m.table().items())[::2]}
    return m + Multiplication.from_table(n, cancel)


def test_from_mult_agrees_with_the_checked_constructor():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 3)
        m = random_tensor(rng, n)
        trusted, checked = UnElement.from_mult(m), UnElement(m.dim, m.table())
        assert trusted == checked
        assert list(trusted.coeffs.items()) == list(checked.coeffs.items())


def test_dim_one_bracket():
    x = UnElement.basis(1, 1, 1, 1)
    assert un_bracket(x, x) == x.scale(-1)


def test_bracket_linearity_and_consistency():
    rng = random.Random(2)
    n = 2
    for _ in range(15):
        def rand_un():
            coeffs = {}
            for _ in range(rng.randint(1, 3)):
                idx = (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
                coeffs[idx] = Poly.const(F(rng.randint(-3, 3)))
            return UnElement(n, coeffs)

        x, y = rand_un(), rand_un()
        u = Element([Poly.const(F(rng.randint(-2, 2))) for _ in range(n)])
        direct = UnElement.from_mult(kantor_product(x.to_mult(), y.to_mult(), u))
        assert un_bracket(x, y, u) == direct

        z = rand_un()
        lam = F(rng.randint(-2, 2))
        lhs = un_bracket(UnElement(n, {**x.coeffs}) + z.scale(lam), y, u)
        rhs = un_bracket(x, y, u) + un_bracket(z, y, u).scale(lam)
        assert lhs == rhs


def test_zero_reference_vector_gives_zero_table():
    rows = un_table(2, Element.zero(2))
    assert all(value.is_zero() for _, _, value in rows)


def test_table_shape_and_rendering():
    rows = un_table(2)
    assert len(rows) == 64
    text = render_un_table(rows)
    assert "[a(1,1)^1, a(1,1)^1] = -a(1,1)^1" in text
    assert "[a(1,2)^1, a(1,1)^1] = -a(1,2)^1 - a(2,1)^1" in text


def contraction(a, b, u):
    """[[A,B]]_ij^k = sum_p u_p (sum_m A_pm^k B_ij^m - A_pi^m B_mj^k - A_pj^m B_im^k).

    ``a`` and ``b`` map 1-based (i, j, k) to Fractions; so does the result.
    """
    out = {}
    for (p, q, r), x in a.items():
        for (i, j, m), y in b.items():
            terms = []
            if q == m:
                terms.append(((i, j, r), x * y))
            if r == i:
                terms.append(((q, j, m), -x * y))
            if r == j:
                terms.append(((i, q, m), -x * y))
            for key, value in terms:
                out[key] = out.get(key, F(0)) + u[p - 1] * value
    return {key: value for key, value in out.items() if value}


def test_un_table_matches_a_plain_contraction():
    rng = random.Random(5)
    n = 3
    coords = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    u = Element([Poly.const(c) for c in coords])
    rows = un_table(n, u)
    assert [(first, second) for first, second, _ in rows] == [
        (first, second) for first in basis_indices(n) for second in basis_indices(n)
    ]
    for first, second, value in rows:
        got = {idx: c.constant_value() for idx, c in value.coeffs.items()}
        assert got == contraction({first: F(1)}, {second: F(1)}, coords), (first, second)


def test_un_table_agrees_with_un_bracket():
    for n in (2, 3):
        rng = random.Random(7)
        u = Element([Poly.const(F(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(n)])
        zero_coordinate = Element([F(3, 2), F(0), F(-1)][:n])
        for v in (u, zero_coordinate, symbolic_vector(n)):
            for first, second, value in un_table(n, v):
                expected = un_bracket(UnElement.basis(*first, n), UnElement.basis(*second, n), v)
                assert list(value.coeffs.items()) == list(expected.coeffs.items()), (first, second)
        assert un_table(n) == [
            (first, second, un_bracket(UnElement.basis(*first, n), UnElement.basis(*second, n)))
            for first in basis_indices(n) for second in basis_indices(n)
        ]


def test_un_table_rejects_a_reference_vector_of_the_wrong_dimension():
    with pytest.raises(DimMismatch):
        un_table(2, Element.zero(3))
    with pytest.raises(DimMismatch):
        un_bracket(UnElement.basis(1, 1, 1, 2), UnElement.basis(1, 1, 1, 2), Element.zero(3))


def test_un_table_rows_are_sorted_and_hold_no_zero_coefficient():
    n = 3
    for u in (None, Element([F(2), F(0), F(-1, 3)]), symbolic_vector(n)):
        for _, _, value in un_table(n, u):
            assert list(value.coeffs) == sorted(value.coeffs)
            assert not any(c.is_zero() for c in value.coeffs.values())
