from fractions import Fraction as F

import pytest

from kantor.algebra import Element, Multiplication, verify_isomorphism
from kantor.catalog import load_catalog
from kantor.constructions import bracket_from_derivation, kantor_pair, sum_product
from kantor.errors import DimMismatch, NotCommutativeAssociative, NotDerivation
from kantor.identities import builtin, check_identity
from kantor.poly import Poly, parse_poly
from kantor.product import kantor_product, kantor_square


def test_sum_product_degenerate_cases():
    cat = load_catalog(selftest=False)
    dot = cat["lp3"].mult
    bracket = cat["lp3"].pair
    assert sum_product(dot, Multiplication.zero(3)) == dot
    assert sum_product(Multiplication.zero(3), bracket) == bracket
    with pytest.raises(DimMismatch):
        sum_product(dot, Multiplication.zero(2))


def test_poisson_sum_product_square_is_noncommutative_jordan():
    cat = load_catalog(selftest=False)
    entry = cat["lp3"]
    circ = sum_product(entry.mult, entry.pair)
    square = kantor_square(circ)
    assert check_identity(square, builtin("noncommutative_jordan")).holds


def test_bracket_from_derivation_rejections():
    cat = load_catalog(selftest=False)
    qt4 = cat["qt4"].mult
    identity = [[F(int(i == j)) for j in range(4)] for i in range(4)]
    with pytest.raises(NotDerivation, match=r"fails the derivation law on \(e1, e1\)$"):
        bracket_from_derivation(qt4, identity)

    # the naive shift matrix does not preserve the truncation ideal
    shift = [[F(0)] * 4 for _ in range(4)]
    for k in range(1, 4):
        shift[k - 1][k] = F(k)
    with pytest.raises(NotDerivation, match=r"fails the derivation law on \(e2, e4\)$"):
        bracket_from_derivation(qt4, shift)

    # non commutative-associative products are rejected up front
    with pytest.raises(NotCommutativeAssociative):
        bracket_from_derivation(cat["S2"].mult, [[F(0), F(0)], [F(0), F(0)]])


def test_bracket_from_derivation_zero_map():
    cat = load_catalog(selftest=False)
    qt4 = cat["qt4"].mult
    zero = [[F(0)] * 4 for _ in range(4)]
    assert bracket_from_derivation(qt4, zero).is_zero()


def test_derivation_pair_is_transposed_poisson():
    cat = load_catalog(selftest=False)
    entry = cat["qt4"]
    derivation = [list(row) for row in entry.extras["derivation"]]
    bracket = bracket_from_derivation(entry.mult, derivation)
    assert bracket == entry.pair
    assert check_identity([entry.mult, bracket], builtin("transposed_poisson")).holds

    # the mixed Kantor pair is transposed Poisson again
    circ, curly = kantor_pair(entry.mult, bracket)
    assert check_identity([circ, curly], builtin("transposed_poisson")).holds


def test_transposed_poisson_mixed_products():
    cat = load_catalog(selftest=False)
    entry = cat["qt4"]
    lie_part = kantor_product(entry.mult, entry.pair)
    comm_part = kantor_product(entry.pair, entry.mult)
    assert check_identity(lie_part, builtin("anticommutative") + builtin("jacobi")).holds
    assert check_identity(comm_part, builtin("commutative")).holds


def test_generic_poisson_mixed_products():
    cat = load_catalog(selftest=False)
    entry = cat["lp3"]
    assert kantor_product(entry.pair, entry.mult).is_zero()
    anti = kantor_product(entry.mult, entry.pair)
    assert check_identity(anti, builtin("anticommutative")).holds


def test_left_novikov_poisson_kantor_pair():
    cat = load_catalog(selftest=False)
    entry = cat["NP3"]
    derived_dot, derived_circ = kantor_pair(entry.mult, entry.pair)
    # kantor_pair(dot, circ) = ([[circ, dot]], [[dot, circ]])
    assert derived_dot == kantor_product(entry.pair, entry.mult)
    assert derived_circ == kantor_product(entry.mult, entry.pair)
    assert check_identity([derived_dot, derived_circ], builtin("left_novikov_poisson")).holds


def test_right_prelie_poisson_kantor_pair():
    cat = load_catalog(selftest=False)
    entry = cat["C8R"]
    comm = kantor_product(entry.pair, entry.mult)
    prelie = kantor_product(entry.mult, entry.pair)
    assert check_identity(comm, builtin("commutative")).holds
    assert check_identity(prelie, builtin("left_symmetric")).holds


def test_c8_pair_tables_and_witness():
    cat = load_catalog(selftest=False)
    entry = cat["C8"]
    dot, circ = entry.mult, entry.pair

    comm_part, nov_part = kantor_pair(dot, circ)
    assert comm_part == dot.scale(parse_poly("-u3"))
    assert nov_part == circ.scale(parse_poly("-a*u3"))

    # the second Novikov compatibility obstructs exactly in b and c
    verdict = check_identity([dot, circ], builtin("novikov_poisson_nvb"),
                             modulo=entry.algebra.constraints)
    assert not verdict.holds
    names = set()
    for p in verdict.obstructions:
        names |= p.names()
    assert names == {"b", "c"}

    # scalar witness at u = (0,0,1), a = 1, b = c = d = f = 0
    point = {"a": F(1), "b": F(0), "c": F(0), "d": F(0), "f": F(0)}
    dot0, circ0 = dot.substitute(point), circ
    u = Element([Poly.const(0), Poly.const(0), Poly.const(1)])
    comm0, nov0 = kantor_pair(dot0, circ0, u)
    minus_id = [[F(-1), F(0), F(0)], [F(0), F(-1), F(0)], [F(0), F(0), F(-1)]]
    assert verify_isomorphism(minus_id, comm0, dot0)
    assert verify_isomorphism(minus_id, nov0, circ0)


def test_kantor_pair_rejects_mismatched_dimensions():
    dot = Multiplication.from_table(2, {(1, 1, 1): 1})
    circ = Multiplication.from_table(3, {(1, 2, 3): 1})
    for u in (None, Element.zero(2), Element.zero(3)):
        with pytest.raises(DimMismatch):
            kantor_pair(dot, circ, u)


def test_kantor_pair_zero_reference():
    cat = load_catalog(selftest=False)
    entry = cat["C8"]
    a, b = kantor_pair(entry.mult, entry.pair, Element.zero(3))
    assert a.is_zero() and b.is_zero()
