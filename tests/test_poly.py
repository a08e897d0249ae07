import copy
import functools
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kantor.errors import ExponentOverflow, ParseError
from kantor.poly import MAX_EXPONENT, Poly, parse_poly, sum_of_products

NAMES = ["u1", "u2", "alpha", "b"]
# Seen first in reverse alphabetical order, so printing and parsing cannot
# lean on the order in which names were first seen.
REVERSED = ["w_d", "w_c", "w_b", "w_a"]
for _name in REVERSED:
    Poly.var(_name)


def fractions():
    return st.builds(F, st.integers(-9, 9), st.integers(1, 9))


def monomials(names=NAMES):
    return st.dictionaries(st.sampled_from(names), st.integers(1, 3), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    )


def polys(names=NAMES):
    return st.dictionaries(monomials(names), fractions(), max_size=5).map(Poly)


def test_zero_and_constants():
    assert Poly.zero().is_zero()
    assert Poly.const(0) == 0
    assert Poly.const(F(3, 2)).constant_value() == F(3, 2)
    assert str(Poly.const(-2)) == "-2"
    assert hash(Poly.const(3)) == hash(3) == hash(F(3))
    assert hash(Poly.zero()) == hash(0)
    assert {Poly.const(3), 3, F(3)} == {3}
    for p in (Poly.zero(), Poly.const(3), Poly.const(F(6, 2)), Poly.const(F(1, 3))):
        assert type(p.constant_value()) is F
    assert hash(Poly({(): F(-6, 3)})) == hash(Poly.const(-2)) == hash(-2)
    mono = (("u1", 1),)
    assert Poly({mono: F(4, 2)}) == Poly({mono: 2})
    assert hash(Poly({mono: F(4, 2)})) == hash(Poly({mono: 2}))


def test_basic_arithmetic():
    u1, u3 = Poly.var("u1"), Poly.var("u3")
    p = u3 ** 2 - u1 / 2
    assert str(p) == "-1/2*u1 + u3^2"
    assert p - p == 0
    assert (u1 + 1) * (u1 - 1) == u1 ** 2 - 1
    assert (2 - Poly.var("alpha")) * Poly.var("u4") == parse_poly("(2-alpha)*u4")


def test_substitute_examples():
    u1, u3 = Poly.var("u1"), Poly.var("u3")
    assert (u1 * u3).substitute({"u3": Poly.zero()}) == 0
    p = u1 + Poly.var("u2")
    assert p.substitute({}) == p
    family = parse_poly("(2-alpha)*u4")
    assert family.substitute({"alpha": Poly.const(2)}) == 0


def test_division_and_powers():
    p = parse_poly("2*u1 + 4")
    assert p / 2 == parse_poly("u1 + 2")
    assert parse_poly("u1") ** 0 == 1
    with pytest.raises(ZeroDivisionError):
        p / 0


@pytest.mark.parametrize("text", ["(" * 250 + "x" + ")" * 250, "-" * 1000 + "x"], ids=["parentheses", "signs"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly(text)
    # Shallow nesting still parses.
    assert parse_poly("((x))") == parse_poly("--x") == -parse_poly("---x") == Poly.var("x")


def test_a_sign_applies_to_the_power_after_it():
    x = Poly.var("x")
    assert parse_poly("2*-x^2") == parse_poly("-2*x^2") == -2 * x ** 2
    assert parse_poly("a - -b^2") == parse_poly("a + b^2")
    assert parse_poly("2*-3^2") == -18
    assert parse_poly("(-x)^2") == x ** 2
    assert parse_poly("-x^2") == -(x ** 2)
    assert parse_poly("2*+x") == 2 * x


def _expressions():
    """Text over x, y, small integers, + - *, ^<int>, parentheses and unary signs."""
    leaves = st.one_of(st.sampled_from(["x", "y"]), st.integers(0, 9).map(str))

    def extend(inner):
        atoms = st.one_of(leaves, inner.map("({})".format))
        signs = st.sampled_from(["-", "+", "- "])
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", " - ", " * "]), inner).map("".join),
            st.tuples(signs, inner).map("".join),
            st.tuples(signs | st.just(""), atoms, st.just("^"), st.integers(0, 3).map(str)).map("".join),
            atoms,
        )

    return st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(_expressions(), fractions(), fractions())
def test_parse_poly_follows_python_precedence(text, x, y):
    # Python reads the same text, with ** for ^, as the precedence reference.
    expected = eval(text.replace("^", "**"), {"__builtins__": {}}, {"x": x, "y": y})
    assert parse_poly(text).substitute({"x": x, "y": y}) == expected


def test_split_by_groups_terms():
    p = parse_poly("u1*alpha + u1*b + 3*u2 + 5")
    groups = p.split_by({"u1", "u2"})
    rendered = {Poly({mono: F(1)}).__str__(): str(v) for mono, v in groups.items()}
    assert rendered == {"u1": "alpha + b", "u2": "3", "1": "5"}


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("u1 +")
    with pytest.raises(ParseError):
        parse_poly("q", allowed=["u1"])
    with pytest.raises(ParseError):
        parse_poly("u1/u2")
    with pytest.raises(ParseError):
        parse_poly("u1 ^ alpha")
    for text in ("2/0", "x/(1-1)"):
        with pytest.raises(ParseError, match="division by zero"):
            parse_poly(text)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p - p == 0


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys(), polys())
def test_substitution_is_a_ring_homomorphism(p, q, s1, s2):
    bindings = {"u1": s1, "alpha": s2}
    assert (p * q).substitute(bindings) == p.substitute(bindings) * q.substitute(bindings)
    assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(bindings)


def former_substitute(p, bindings):
    """``Poly.substitute`` as it was when it coerced every binding up front."""
    from kantor import poly as module

    if not bindings:
        return p
    resolved = {name: module._coerce_strict(value) for name, value in bindings.items()}
    pairs = []
    for key, coeff in p.terms.items():
        free, rest = key, module._ONE
        for name, e in module._decode(key):
            value = resolved.get(name)
            if value is not None:
                free -= e << module._SHIFT[name]
                rest = rest * value ** e
        pairs.append((module._from_normalized({free: coeff}), rest))
    return sum_of_products(pairs)


@settings(max_examples=150, deadline=None)
@given(
    polys(NAMES + REVERSED),
    st.dictionaries(
        st.sampled_from(NAMES + REVERSED + ["never_in_a_poly"]),
        st.one_of(polys(NAMES), fractions(), st.integers(-3, 3)),
        max_size=4,
    ),
)
def test_substitute_matches_the_former_body_in_storage_order(p, bindings):
    out = p.substitute(bindings)
    expected = former_substitute(p, bindings)
    assert out == expected
    assert list(out.terms.items()) == list(expected.terms.items())


def test_substitute_rejects_inexact_values_even_for_unused_names():
    p = parse_poly("u1*u2 + 1")
    for bindings in ({"u1": 0.5}, {"b": 0.5}, {"u1": 1, "never_in_a_poly": "1"}, {"u2": None}):
        with pytest.raises(TypeError):
            p.substitute(bindings)
    with pytest.raises(TypeError):
        Poly.const(3).substitute({"u1": 1.0})


@settings(max_examples=80, deadline=None)
@given(polys())
def test_string_round_trip(p):
    assert parse_poly(str(p)) == p


def former_str(p):
    """``Poly.__str__`` as it was before printed monomials were cached per packed key."""
    if p.is_zero():
        return "0"

    def graded(term):
        mono = term[0]
        return (sum(e for _, e in mono), mono)

    pieces = []
    for mono, coeff in sorted(p.monomials(), key=graded):
        if not mono:
            body = str(abs(coeff))
        else:
            factors = "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono)
            body = factors if abs(coeff) == 1 else f"{abs(coeff)}*{factors}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


@settings(max_examples=150, deadline=None)
@given(polys(NAMES + REVERSED), polys(REVERSED), fractions())
@example(Poly.zero(), Poly.zero(), F(0))
@example(Poly.const(F(-7, 3)), Poly.var("w_a"), F(1, 2))
# A monomial that is a prefix of another, and names that are prefixes of each other.
@example(parse_poly("u1*b - u1 + u1*b^2 + u1^2 - 2*b*u1^2"), Poly.var("w_a"), F(3))
@example(parse_poly("g1_1*g1 + g1^2 - g1_1^2 + 3*g1 - g1_1"), parse_poly("w_b*w_b_1 - w_b"), F(-1))
def test_printing_matches_the_former_body(p, q, c):
    for r in (p, q, p * q, p + q, p + c, p * c, Poly.const(c), p ** 2):
        assert str(r) == former_str(r)


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_hash_agrees_with_equality(p, q):
    for same in (Poly(dict(reversed(list(p.monomials())))), (p + q) - q, p * 1):
        assert same == p and hash(same) == hash(p)
    if p == q:
        assert hash(p) == hash(q)
    if p.is_constant():
        assert hash(p) == hash(p.constant_value())


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_cached_hash_agrees_with_equality(p, q):
    h = hash(p)
    assert hash(p) == h
    hash(q)
    for same in ((p + q) - q, p * 1, Poly(dict(p.monomials())), pickle.loads(pickle.dumps(p)),
                 copy.deepcopy(p)):
        assert same == p and hash(same) == h
    for r in (p + q, p * q, p - q):
        assert hash(r) == hash(Poly(dict(r.monomials())))
        again = pickle.loads(pickle.dumps(r))
        assert again == r and hash(again) == hash(r)


@settings(max_examples=150, deadline=None)
@given(polys(NAMES + REVERSED), st.sampled_from(NAMES + REVERSED + ["at_zero_never_seen"]))
def test_at_zero_is_substituting_zero(p, name):
    got = p.at_zero(name)
    assert got == p.substitute({name: 0})
    assert name not in got.names()
    assert (got is p) == (name not in p.names())


def _assert_canonical(p):
    for coeff in p.terms.values():
        assert coeff != 0
        assert type(coeff) is int or (type(coeff) is F and coeff.denominator != 1)


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), fractions())
def test_coefficients_are_canonical(p, q, c):
    results = [p, q, p + q, p - q, -p, p * q, p * c, c - p, p ** 2, p.substitute({"u1": q})]
    if c:
        results.append(p / c)
    results.extend(p.split_by({"u1", "alpha"}).values())
    results.extend(p.coeffs_in("u2").values())
    results.append(parse_poly(str(p)))
    for r in results:
        _assert_canonical(r)
        if r.is_constant():
            assert type(r.constant_value()) is F


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(polys(), polys()), max_size=4), st.integers(0, 4))
def test_sum_of_products_matches_running_sum(base, cut):
    # The negated pairs cancel a prefix exactly partway through the sum,
    # and the repeated prefix brings those terms back.
    pairs = base + [(-a, b) for a, b in base[:cut]] + base[:cut]
    expected = functools.reduce(lambda acc, pair: acc + pair[0] * pair[1], pairs, Poly.zero())
    result = sum_of_products(pairs)
    assert result == expected
    assert sum_of_products(iter(pairs)) == expected
    _assert_canonical(result)
    assert sum_of_products(base[:cut] + [(-a, b) for a, b in base[:cut]]).is_zero()


def test_sum_of_products_of_nothing_is_zero():
    assert sum_of_products([]) == Poly.zero()
    assert sum_of_products(iter(())).is_zero()


def _mono_mul_reference(a, b):
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


@settings(max_examples=200, deadline=None)
@given(monomials(NAMES + REVERSED), monomials(NAMES + REVERSED), fractions(), fractions())
def test_monomial_products_match_dict_merge(a, b, c, d):
    product = Poly({a: c}) * Poly({b: d})
    expected = [(_mono_mul_reference(a, b), c * d)] if c * d else []
    assert list(product.monomials()) == expected


@settings(max_examples=80, deadline=None)
@given(polys(REVERSED), polys(NAMES))
def test_printing_ignores_registration_order(p, q):
    for r in (p, p * q, p + q):
        assert parse_poly(str(r)) == r
        assert all(list(mono) == sorted(mono) for mono, _ in r.monomials())
    assert str(Poly.var("w_d") * Poly.var("w_a") + Poly.var("w_c") ** 2) == "w_a*w_d + w_c^2"


def test_exponent_bound():
    x, y = Poly.var("x"), Poly.var("y")
    top = x ** MAX_EXPONENT
    assert MAX_EXPONENT == 2 ** 15 - 1
    assert list(top.monomials()) == [((("x", MAX_EXPONENT),), 1)]
    assert str(top * y) == "x^32767*y"
    assert parse_poly("x^32767") == top
    assert Poly({(("x", MAX_EXPONENT),): 1}) == top
    for overflow in (lambda: x ** 2 ** 15, lambda: top * x, lambda: (x + 1) ** 2 ** 15,
                     lambda: x ** 2 ** 14 * x ** 2 ** 14,
                     lambda: sum_of_products([(y, y), (top, x)]),
                     lambda: sum_of_products([(top, x), (-top, x)]),
                     lambda: Poly({(("x", 2 ** 15),): 1}),
                     lambda: Poly({(("x", MAX_EXPONENT), ("x", 1)): 1})):
        with pytest.raises(ExponentOverflow):
            overflow()
    assert issubclass(ExponentOverflow, ValueError)
    with pytest.raises(ParseError):
        parse_poly("x^32768")
    with pytest.raises(ValueError):
        Poly({(("x", -1),): 1})


def test_exponent_bound_on_adjacent_fields():
    # Seen first here, one after another, so their fields are adjacent.
    x, y, z = (Poly.var(name) for name in ("adj_x", "adj_y", "adj_z"))
    assert min(y.terms) == min(x.terms) << 16 and min(z.terms) == min(y.terms) << 16
    top = MAX_EXPONENT
    xy = x ** top * y ** top
    assert list(xy.monomials()) == [((("adj_x", top), ("adj_y", top)), 1)]
    assert list((xy * z ** top).monomials()) == [
        ((("adj_x", top), ("adj_y", top), ("adj_z", top)), 1)
    ]
    assert x ** (top - 1) * x * y == x ** top * y
    for overflow in (lambda: xy * x, lambda: xy * y, lambda: sum_of_products([(z, z), (x, xy)])):
        with pytest.raises(ExponentOverflow):
            overflow()

    p = xy + 2 * x ** top - y ** top * z ** top + F(1, 2) * x ** (top - 1) * y ** top
    for gens in ([x ** top], [y ** top], [x ** top * z], [y ** top * z ** top, x ** top * y],
                 [x ** (top - 1)]):
        expected = reference_reduce_monomials(p, [list(g.monomials())[0][0] for g in gens])
        assert p.reduce_monomials(gens) == expected
    assert p.reduce_monomials([x ** top]) == -y ** top * z ** top + F(1, 2) * x ** (top - 1) * y ** top

    q = xy - 3 * x ** top * y ** (top - 1) * z
    assert q.monomial_factor() == (x ** top * y ** (top - 1), y - 3 * z)
    assert q.monomial_factor() == reference_monomial_factor(q)
    assert p.monomial_factor() == reference_monomial_factor(p)

    assert xy.coeffs_in("adj_y") == {top: x ** top}
    assert xy.coeffs_in("adj_x") == {top: y ** top}
    assert p.coeffs_in("adj_x") == {top: y ** top + 2, 0: -y ** top * z ** top,
                                    top - 1: F(1, 2) * y ** top}
    assert p.split_by({"adj_y"}) == {
        (("adj_y", top),): x ** top - z ** top + F(1, 2) * x ** (top - 1),
        (): 2 * x ** top,
    }
    assert p.split_by({"adj_x", "adj_z"}) == {
        (("adj_x", top),): y ** top + 2,
        (("adj_z", top),): -y ** top,
        (("adj_x", top - 1),): F(1, 2) * y ** top,
    }


def reference_sum_of_products(pairs):
    """The sum of the term products on readable monomials, with the zero coefficients left out."""
    out = {}
    for a, b in pairs:
        for m1, c1 in a.monomials():
            for m2, c2 in b.monomials():
                mono = _mono_mul_reference(m1, m2)
                out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def constants():
    return st.one_of(fractions().map(Poly.const), st.integers(-3, 3).map(Poly.const))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(polys(), constants()), st.one_of(polys(), constants())),
                max_size=5), st.integers(0, 5))
@example([(Poly.const(F(2, 3)), parse_poly("3/2*u1 + 3/4*b")), (parse_poly("u1"), Poly.const(-1))], 1)
@example([(Poly.const(3), Poly.const(F(1, 3))), (Poly.const(-1), Poly.const(1))], 0)
def test_constant_sides_match_the_reference_loop(base, cut):
    pairs = base + [(-a, b) for a, b in base[:cut]] + base[:cut]
    result = sum_of_products(pairs)
    assert dict(result.monomials()) == reference_sum_of_products(pairs)
    _assert_canonical(result)
    for a, b in base:
        for p, c in ((a, b), (b, a)):
            if c.is_constant() and not c.is_zero():
                # A constant factor keeps the other side's key objects.
                assert all(k1 is k2 for k1, k2 in zip((p * c).terms, p.terms))


@settings(max_examples=200, deadline=None)
@given(polys(NAMES + REVERSED), polys(NAMES))
@example(parse_poly("1/2*u1 + 1/3*b"), parse_poly("1/2*u1 + 2/3*b"))
@example(parse_poly("1/3*u1"), Poly.zero())
def test_sums_and_differences_match_the_reference_loop(a, b):
    one, minus_one = Poly.const(1), Poly.const(-1)
    for result, pairs in ((a + b, [(a, one), (b, one)]),
                          (a - b, [(a, one), (b, minus_one)]),
                          (b - a, [(b, one), (a, minus_one)])):
        assert dict(result.monomials()) == reference_sum_of_products(pairs)
        _assert_canonical(result)


def test_split_by_names_absent_from_the_polynomial():
    p = parse_poly("1/2*u1*alpha + 3")
    for names in ((), ("b",), ("never_registered_anywhere",)):
        assert p.split_by(names) == {(): p}
        assert Poly.zero().split_by(names) == {}


def test_constant_sides_do_not_hide_overflow():
    x = Poly.var("x")
    top = x ** MAX_EXPONENT
    assert sum_of_products([(Poly.const(2), top), (top, Poly.const(F(1, 2)))]) == F(5, 2) * top
    for pairs in ([(Poly.const(2), top), (top, x)], [(top, x), (Poly.const(-1), top)],
                  [(x + 1, top), (top, Poly.const(3))]):
        with pytest.raises(ExponentOverflow):
            sum_of_products(pairs)


def test_names_seen_first_by_many_threads_get_distinct_fields():
    names = [f"thr{k}" for k in range(200)]
    built = {}

    def work(seed):
        order = names[:]
        random.Random(seed).shuffle(order)
        built[seed] = [Poly.var(name) for name in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(built) == 8
    product = Poly.const(1)
    for name in names:
        product = product * Poly.var(name)
    assert list(product.monomials()) == [(tuple(sorted((n, 1) for n in names)), 1)]
    for polys_of_thread in built.values():
        assert {str(p) for p in polys_of_thread} == set(names)


def test_pickle_and_copy_across_processes():
    p = parse_poly("-1/2*u1*alpha^3 + 3*b^2 + u2*w_a - 7")
    text = str(p)
    for same in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert same == p and str(same) == text
    # The other process sees names in another order before it unpickles.
    script = (
        "import pickle, sys\n"
        "from kantor.poly import Poly, parse_poly\n"
        "for name in ('zz', 'w_a', 'b', 'y9', 'alpha', 'u2'):\n"
        "    Poly.var(name)\n"
        "p = pickle.loads(sys.stdin.buffer.read())\n"
        "print(p)\n"
        "print(p == parse_poly(sys.argv[1]), p.names() == {'u1', 'alpha', 'b', 'u2', 'w_a'})\n"
    )
    src = str(Path(sys.modules[Poly.__module__].__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, text], input=pickle.dumps(p),
        capture_output=True, env=env, check=True,
    )
    assert done.stdout.decode().splitlines() == [text, "True True"]


@settings(max_examples=40, deadline=None)
@given(polys(), st.integers(0, 6))
def test_power_is_repeated_multiplication(p, e):
    expected = Poly.const(1)
    for _ in range(e):
        expected = expected * p
    assert p ** e == expected


FRESH = ["r_1", "r_2"]


def reference_linear_counts(p, names):
    """The names of p, and the term count of each degree-1 name, from ``coeffs_in``."""
    found, counts = set(), {}
    for name in names:
        powers = {e: c for e, c in p.coeffs_in(name).items() if e}
        if powers:
            found.add(name)
            if max(powers) == 1:
                counts[name] = len(powers[1].terms)
    return found, counts


# w_d, w_c and w_b hold adjacent fields, in that order.
_HIGH_NEXT_TO_LINEAR = parse_poly("w_d^32767*w_c")
_LINEAR_NEXT_TO_HIGH = parse_poly("w_c^32767*w_d + w_d")
_MANY_LINEAR_TERMS = sum(
    (parse_poly(f"w_c*u1^{i} + {i + 1}*w_d^2*w_b^{i + 1}") for i in range(40)), Poly.zero()
)


@settings(max_examples=150, deadline=None)
@given(polys(NAMES + REVERSED))
@example(Poly.zero())
@example(Poly.const(F(-3, 4)))
@example(parse_poly("1/2*u1^2*b - 3*u1*alpha + u1 - 2/3"))
@example(_HIGH_NEXT_TO_LINEAR)
@example(_LINEAR_NEXT_TO_HIGH)
@example(_MANY_LINEAR_TERMS)
def test_linear_counts_agree_with_coeffs_in(p):
    assert p.linear_counts() == reference_linear_counts(p, NAMES + REVERSED)


def test_linear_counts_examples():
    assert Poly.zero().linear_counts() == (set(), {})
    assert Poly.const(F(5, 2)).linear_counts() == (set(), {})
    # A full field next to a degree-1 name, on either side.
    assert _HIGH_NEXT_TO_LINEAR.linear_counts() == ({"w_d", "w_c"}, {"w_c": 1})
    assert _LINEAR_NEXT_TO_HIGH.linear_counts() == ({"w_d", "w_c"}, {"w_d": 2})
    # 40 terms of w_c between fields of degree 2 and more.
    assert _MANY_LINEAR_TERMS.linear_counts() == ({"w_d", "w_c", "w_b", "u1"}, {"w_c": 40})


def test_linear_counts_past_the_field_bound():
    # 2**16 terms each holding w_c once would carry out of w_c's field in a
    # sum of the low bits, so that count is taken term by term.
    powers = Poly({((("w_d", i),) if i else ()): 1 for i in range(256)})
    grid = powers * Poly({((("w_b", i),) if i else ()): 1 for i in range(256)})
    assert len(grid.terms) == 1 << 16
    p = Poly.var("w_c") * grid
    assert p.linear_counts() == ({"w_d", "w_c", "w_b"}, {"w_c": 1 << 16})
    below = p - Poly.var("w_c")
    assert len(below.terms) == (1 << 16) - 1
    assert below.linear_counts() == ({"w_d", "w_c", "w_b"}, {"w_c": (1 << 16) - 1})


# -- monomial content and divisibility, against readable-dict references --------

def reference_monomial_factor(p):
    """The common monomial of p's terms and p divided by it, on exponent dicts."""
    common = None
    for mono, _ in p.monomials():
        exps = dict(mono)
        if common is None:
            common = exps
        else:
            common = {n: min(e, common[n]) for n, e in exps.items() if n in common}
        if not common:
            break
    stripped = {}
    for mono, coeff in p.monomials():
        exps = dict(mono)
        for name, e in (common or {}).items():
            exps[name] -= e
        stripped[tuple(sorted((n, e) for n, e in exps.items() if e))] = coeff
    return Poly({tuple(sorted((common or {}).items())): 1}), Poly(stripped)


def reference_reduce_monomials(p, gens):
    """The terms of p that no generator's exponent dict divides."""
    kept = {}
    for mono, coeff in p.monomials():
        exps = dict(mono)
        divisible = any(
            all(exps.get(name, 0) >= e for name, e in dict(g).items()) for g in gens
        )
        if not divisible:
            kept[mono] = coeff
    return Poly(kept)


def generators(names):
    return st.lists(monomials(names).filter(bool), max_size=3)


@settings(max_examples=150, deadline=None)
@given(polys(NAMES + REVERSED))
@example(Poly.zero())
@example(Poly.const(F(-3, 4)))
@example(parse_poly("1/2*u1^3*b^2*w_a - 3*u1^2*b*w_a^2 + 2/3*u1*b^4*w_a"))
def test_monomial_factor_matches_reference(p):
    m, q = p.monomial_factor()
    assert m * q == p
    assert q.monomial_factor()[0] == 1
    assert (m, q) == reference_monomial_factor(p)
    # q keeps p's storage order.
    assert [mono for mono, _ in q.monomials()] == [
        mono for mono, _ in reference_monomial_factor(p)[1].monomials()
    ]


def test_monomial_factor_examples():
    p = parse_poly("6*u1^2*alpha*b - 3/2*u1*alpha^3")
    assert p.monomial_factor() == (parse_poly("u1*alpha"), parse_poly("6*u1*b - 3/2*alpha^2"))
    assert parse_poly("u1 + 1").monomial_factor() == (1, parse_poly("u1 + 1"))
    assert parse_poly("-2/3*u2^4").monomial_factor() == (parse_poly("u2^4"), F(-2, 3))


@settings(max_examples=150, deadline=None)
@given(polys(NAMES + REVERSED), generators(NAMES + REVERSED + FRESH))
@example(Poly.zero(), [(("u1", 1),)])
@example(Poly.const(F(5, 7)), [(("b", 2),)])
@example(parse_poly("u1*alpha + 1/2*u1^2 - alpha"), [])
# A generator in a name absent from p divides none of its terms.
@example(parse_poly("u1*alpha + 1/2*u1^2 - alpha"), [(("r_2", 1),)])
def test_reduce_monomials_matches_reference(p, gens):
    expected = reference_reduce_monomials(p, gens)
    assert p.reduce_monomials([Poly({g: F(3, 2)}) for g in gens]) == expected
    if not gens:
        assert p.reduce_monomials([]) is p


def test_reduce_monomials_by_a_name_registered_later():
    p = parse_poly("3*u1*b^2 + u1 - 2/3*b")
    late = Poly.var("reduce_late_name")
    # Seen first after p's names, so every k - m below is negative.
    assert max(p.terms) < min(late.terms)
    assert p.reduce_monomials([late]) == p
    assert p.reduce_monomials([late * Poly.var("u1")]) == p
    assert (p * late + p).reduce_monomials([late]) == p
    assert p.reduce_monomials([parse_poly("b^2"), parse_poly("u1*b")]) == parse_poly("u1 - 2/3*b")


@pytest.mark.parametrize("text, message", [
    ("x $ y", "unexpected character '$' in 'x $ y'"),
    ("(x + 1", "expected ')' in '(x + 1'"),
    ("x y", "trailing input in 'x y'"),
])
def test_parse_poly_rejects_malformed_text(text, message):
    with pytest.raises(ParseError) as info:
        parse_poly(text)
    assert str(info.value) == message
