import random
from fractions import Fraction as F

import pytest

from kantor.algebra import Element, Multiplication, multiply
from kantor.catalog import load_catalog
from kantor.errors import DimMismatch
from kantor.identities import builtin, check_identity
from kantor.poly import Poly
from kantor.product import act, kantor_product, kantor_square, left_operator, right_kantor_product


def rand_mult(rng, dim):
    entries = {}
    for _ in range(rng.randint(0, 3 * dim)):
        key = (rng.randint(1, dim), rng.randint(1, dim), rng.randint(1, dim))
        entries[key] = F(rng.randint(-3, 3), rng.randint(1, 2))
    return Multiplication.from_table(dim, entries)


def rand_vector(rng, dim):
    return Element([Poly.const(F(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(dim)])


def test_paper_square_tables_frozen_in_catalog():
    cat = load_catalog(selftest=False)
    for key in ("T02US", "T13", "T14", "A1alpha", "A2", "A3", "A0", "Aalpha"):
        entry = cat[key]
        expected = entry.expected_squares[0]
        assert kantor_square(entry.mult) == expected.table, key


def test_zero_second_factor():
    cat = load_catalog(selftest=False)
    t13 = cat["T13"].mult
    assert kantor_product(t13, Multiplication.zero(3)).is_zero()


def test_poisson_pair_mixed_product_vanishes():
    cat = load_catalog(selftest=False)
    entry = cat["lp3"]
    assert kantor_product(entry.pair, entry.mult).is_zero()
    anti = kantor_product(entry.mult, entry.pair)
    assert check_identity(anti, builtin("anticommutative")).holds


def test_linearity_in_reference_vector():
    rng = random.Random(17)
    for _ in range(100):
        dim = rng.randint(1, 4)
        a, b = rand_mult(rng, dim), rand_mult(rng, dim)
        u, v = rand_vector(rng, dim), rand_vector(rng, dim)
        lam = F(rng.randint(-3, 3), rng.randint(1, 3))
        left = kantor_product(a, b, u + v.scale(lam))
        right = kantor_product(a, b, u) + kantor_product(a, b, v).scale(lam)
        assert left == right


def test_bilinearity_in_the_multiplications():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.randint(1, 3)
        a1, a2, b = rand_mult(rng, dim), rand_mult(rng, dim), rand_mult(rng, dim)
        u = rand_vector(rng, dim)
        lam = F(rng.randint(-2, 2))
        assert kantor_product(a1 + a2.scale(lam), b, u) == kantor_product(a1, b, u) + kantor_product(a2, b, u).scale(lam)
        assert kantor_product(b, a1 + a2.scale(lam), u) == kantor_product(b, a1, u) + kantor_product(b, a2, u).scale(lam)


def test_commutativity_inheritance():
    cat = load_catalog(selftest=False)
    for key in ("T02US", "T13", "T14", "J2", "ML5"):
        square = kantor_square(cat[key].mult)
        assert check_identity(square, builtin("commutative")).holds, key
    for key in ("A1alpha", "A2", "A3", "A0", "Aalpha"):
        square = kantor_square(cat[key].mult)
        assert check_identity(square, builtin("anticommutative")).holds, key


def test_mock_lie_closed_form():
    cat = load_catalog(selftest=False)
    for key in ("ML3", "ML5", "nil2"):
        m = cat[key].mult
        n = m.dim
        u = Element.symbolic("u", n)
        closed = []
        for i in range(n):
            row = []
            for j in range(n):
                value = multiply(m, multiply(m, Element.basis(n, i), Element.basis(n, j)), u)
                row.append([c * 2 for c in value.coords])
            closed.append(row)
        assert kantor_square(m, u) == Multiplication(closed), key
    # ML5 has a nonzero square, so the closed form is not vacuous
    assert not kantor_square(cat["ML5"].mult).is_zero()


def test_left_symmetric_closed_form():
    cat = load_catalog(selftest=False)
    for key in ("PL3", "N3", "nil2"):
        m = cat[key].mult
        n = m.dim
        u = Element.symbolic("u", n)
        closed = []
        for i in range(n):
            row = []
            for j in range(n):
                value = multiply(m, multiply(m, Element.basis(n, i), u), Element.basis(n, j))
                row.append([-c for c in value.coords])
            closed.append(row)
        assert kantor_square(m, u) == Multiplication(closed), key
    assert not kantor_square(cat["PL3"].mult).is_zero()


def test_leibniz_instances_square_to_zero():
    cat = load_catalog(selftest=False)
    for key in ("N3", "nil2"):
        assert kantor_square(cat[key].mult).is_zero(), key


def test_right_kantor_square_on_weakly_associative():
    cat = load_catalog(selftest=True)
    for key, entry in cat.items():
        if "weakly_associative" not in entry.tags:
            continue
        m = entry.mult
        assert right_kantor_product(m, m) == kantor_square(m), key


def test_right_kantor_differs_generically():
    cat = load_catalog(selftest=False)
    perturbed = cat["T13"].mult + Multiplication.from_table(3, {(3, 1, 2): 1})
    assert right_kantor_product(perturbed, perturbed) != kantor_square(perturbed)


def test_commutative_left_equals_right_product():
    rng = random.Random(31)
    for _ in range(20):
        dim = rng.randint(1, 3)
        entries = {}
        for _ in range(rng.randint(0, 6)):
            i, j, k = rng.randint(1, dim), rng.randint(1, dim), rng.randint(1, dim)
            c = F(rng.randint(-3, 3))
            entries[(i, j, k)] = entries.get((i, j, k), F(0)) + c
            entries[(j, i, k)] = entries.get((j, i, k), F(0)) + c
        a = Multiplication.from_table(dim, entries)
        assert right_kantor_product(a, a) == kantor_square(a)


def test_left_product_matches_its_definition():
    # [[a, b]](x, y) = a(u, b(x, y)) - b(a(u, x), y) - b(x, a(u, y)), with a != b
    rng = random.Random(43)
    for dim in (1, 2, 3, 4):
        for _ in range(3):
            a, b = rand_mult(rng, dim), rand_mult(rng, dim)
            while b == a:
                b = rand_mult(rng, dim)
            mixed = Element([F(i + 1, 2) if i % 2 else 0 for i in range(dim)])
            mixed_symbolic = Element([Poly.var(f"u{i + 1}") if i % 2 == 0 else 0 for i in range(dim)])
            for u in (Element.symbolic("u", dim), rand_vector(rng, dim), Element.zero(dim),
                      mixed, mixed_symbolic):
                basis = [Element.basis(dim, i) for i in range(dim)]
                expected = [
                    [
                        list((
                            multiply(a, u, multiply(b, x, y))
                            - multiply(b, multiply(a, u, x), y)
                            - multiply(b, x, multiply(a, u, y))
                        ).coords)
                        for y in basis
                    ]
                    for x in basis
                ]
                assert kantor_product(a, b, u) == Multiplication(expected)


def test_integer_product_keeps_the_rational_term_order():
    # kantor_product runs on tensors cleared of denominators and divides
    # back once; every entry must equal the rational action term for term.
    rng = random.Random(47)
    for dim in (2, 3):
        a = rand_mult(rng, dim).scale(F(1, 3))
        b = rand_mult(rng, dim) + Multiplication.from_table(dim, {(1, 1, dim): "1/5*p - 2/7"})
        for u in (Element.symbolic("u", dim), rand_vector(rng, dim)):
            for x, y in ((a, b), (b, a), (b, b)):
                got = kantor_product(x, y, u)
                rational = act(left_operator(x, u), y)
                assert got == rational
                assert [list(e.monomials()) for e in got.entries.values()] == [
                    list(e.monomials()) for e in rational.entries.values()
                ]


def test_products_carry_no_state_beyond_their_entries():
    table = Multiplication.from_table(2, {(1, 1, 2): F(1, 2), (2, 1, 1): F(-2, 3)})
    square = kantor_square(table, Element([Poly.const(1), Poly.const(-2)]))
    assert not hasattr(square, "_cleared")
    assert Multiplication.__slots__ == ("dim", "entries", "rows")


def test_right_product_matches_its_definition():
    # [[a, b]]_r(x, y) = a(b(x, y), u) - b(a(x, u), y) - b(x, a(y, u)), with a != b
    rng = random.Random(41)
    for dim in (2, 3, 4):
        for _ in range(3):
            a, b = rand_mult(rng, dim), rand_mult(rng, dim)
            for u in (Element.symbolic("u", dim), rand_vector(rng, dim)):
                basis = [Element.basis(dim, i) for i in range(dim)]
                expected = [
                    [
                        list((
                            multiply(a, multiply(b, x, y), u)
                            - multiply(b, multiply(a, x, u), y)
                            - multiply(b, x, multiply(a, y, u))
                        ).coords)
                        for y in basis
                    ]
                    for x in basis
                ]
                assert right_kantor_product(a, b, u) == Multiplication(expected)
            assert right_kantor_product(a, b) == right_kantor_product(a, b, Element.symbolic("u", dim))


def test_dim_mismatch():
    with pytest.raises(DimMismatch):
        kantor_product(Multiplication.zero(2), Multiplication.zero(3))
    with pytest.raises(DimMismatch):
        kantor_square(Multiplication.zero(2), Element.zero(3))
    with pytest.raises(DimMismatch):
        right_kantor_product(Multiplication.zero(2), Multiplication.zero(3))
    with pytest.raises(DimMismatch):
        right_kantor_product(Multiplication.zero(2), Multiplication.zero(2), Element.zero(3))


def test_a_parameter_named_u1_moves_the_symbolic_vector_to_v():
    clash = Multiplication.from_table(2, {(1, 1, 1): "u1", (1, 2, 2): 1, (2, 2, 1): "u1 + 1"})
    plain = clash.substitute({"u1": Poly.var("p")})
    square = kantor_square(clash)
    assert {"v1", "v2"} <= square.names() and "u2" not in square.names()
    back = {"u1": Poly.var("p"), "v1": Poly.var("u1"), "v2": Poly.var("u2")}
    assert square.substitute(back) == kantor_square(plain)
    assert not kantor_square(plain).is_zero()
