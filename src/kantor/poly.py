"""Sparse multivariate polynomials over exact rationals.

A polynomial is stored as a map from monomials to nonzero coefficients.  A
coefficient is an ``int`` when it is integral and a ``Fraction`` only when
it is not, so integer arithmetic, which is most of it, never builds a
``Fraction``.  ``constant_value()`` always returns a ``Fraction``, so that
callers dividing constants stay exact.

A stored monomial is one ``int`` that packs its exponent vector (Monagan
and Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  A process-wide registry gives each
indeterminate name, in the order names are first seen, an index i; the
exponent of name i sits in the 16-bit field at bit 16*i (``_WIDTH``, from
which the whole layout derives).  Multiplying two monomials is adding their
ints, the constant monomial is ``0``, and taking the coefficients in one
name or a set of names is a shift and a mask.  Every exponent must be below
2**15 (``MAX_EXPONENT``): the top bit of each field is a guard, and a
product or power that reaches it raises :class:`ExponentOverflow`, a
``ValueError``, instead of carrying into the next field.  The guards also
decide divisibility: m divides k iff ``(k - m) & _GUARD == 0``, since a
field of k below m's borrows and sets its guard bit (``reduce_monomials``).
The gcd of the monomials is the per-field minimum over the fields of the
first key (``monomial_factor``), and substituting 0 for a name keeps the
keys whose field of that name is 0 (``at_zero``).

Two reductions over the keys tell which names occur and how
(``linear_counts``), with no per-term decode.  With ``low = _GUARD >>
(_WIDTH - 1)``, bit 0 of every field: the OR of the keys holds the names,
and ``OR & ~low`` is nonzero in a field exactly when its name has degree at
least 2, so a name has degree 1 exactly when its field of the OR is 1.  The
sum of ``key & low`` holds, in the field of each degree-1 name, the number
of terms containing it; a count below 2**16 cannot carry into the next
field, so this is exact for fewer than 2**16 terms, and above that the
count is taken term by term.

Cost model: a key is as wide as the field width times the number of
fields up to and including that of the last-registered name it uses, and
key arithmetic (adding, hashing and comparing keys) costs in proportion to
that width.  In a long-lived process
that has registered many names a key can span hundreds of fields, which is
why the fields are no wider than the exponents need.

The layout is private to this module.  Outside it a monomial is readable: a
tuple of ``(name, exponent)`` pairs sorted by name, with strictly positive
exponents, the empty tuple being the constant monomial.  ``Poly(mapping)``
takes readable monomials, ``monomials()`` and ``split_by`` give them back,
printing sorts on them, and pickling goes through them, so no output
depends on the order in which names were registered and a polynomial means
the same in another process.

The zero polynomial is the empty term map.  Every operation normalizes its
result (zero coefficients are never stored, integral ones are ``int``),
which makes polynomial equality plain structural equality: ``p - q == 0``
iff the two term maps agree.  That canonical-form property is what the
identity checker and the classifiers rely on, so no floating point appears
anywhere.  A polynomial keeps its hash from the first call, which is sound
because it never changes; pickling rebuilds it without the hash, since
packed keys, and so the hash, are per process.  ``primitive()`` splits off
the content: it clears any ``Fraction`` by the lcm of the denominators in
integers and divides by the signed gcd with exact ``//``, so the case
split keeps its constraints as integer polynomials.

Every product goes through one kernel, ``sum_of_products(pairs)``, which
adds the term products of all ``(a, b)`` pairs into one term map, checks
the guard bits once and normalizes once; ``a * b`` is its one-pair case.
A pair with a constant side scales the other side's terms under their own
keys, with no key arithmetic, so ``a + b`` and ``a - b`` are the kernel's
pairs ``(a, 1), (b, +-1)``; a constant of +-1 adds or subtracts without
multiplying, and a first pair with constant 1 copies the other side's
map.  Coefficients that cancel stay in the map until
the one normalization at the end; no caller reads the order in which a
result stores its terms.

Substitution checks and coerces its bindings once, then substitutes
through one private entry (``_substitute``); ``substitute_each`` does that
for many polynomials, such as the entries of a tensor, under one set of
bindings.

Printing uses a graded lexicographic term order (total degree first, then
the name/exponent sequence), giving deterministic strings such as
``-1/2*u1 + u3^2``.  Each packed key's sort key and printed factors are
cached per key (``_printed``), like its readable monomial (``_decode``).
The sort key is flat, ``(degree, name1, exp1, name2, exp2, ...)``: names
and exponents alternate in the same places in every key, so it orders terms
exactly as ``(degree, readable monomial)`` does, with cheaper comparisons.
``parse_poly`` reads the same syntax back.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
import threading
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple, Union

from .errors import ExponentOverflow, ParseError

# A readable monomial: (name, exponent) pairs sorted by name, exponents > 0.
Monomial = Tuple[Tuple[str, int], ...]
Scalar = Union[int, Fraction]

# Bits per exponent field, a power of two; the top bit of each is its guard.
_WIDTH = 16
MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1
_FIELD = (1 << _WIDTH) - 1

# The registry: name -> bit offset of its field, field index -> name, and
# the guard bit of every registered field.  Lookups take no lock; only
# registering a new name does.
_SHIFT: Dict[str, int] = {}
_NAMES: List[str] = []
_GUARD = 0
_REGISTER = threading.Lock()


def _shift(name: str) -> int:
    """The bit offset of ``name``'s exponent field, registering it if new."""
    global _GUARD
    shift = _SHIFT.get(name)
    if shift is None:
        with _REGISTER:
            shift = _SHIFT.get(name)
            if shift is None:
                shift = _WIDTH * len(_NAMES)
                _NAMES.append(sys.intern(name))
                _GUARD |= 1 << (shift + _WIDTH - 1)
                _SHIFT[_NAMES[-1]] = shift
    return shift


def _overflow() -> ExponentOverflow:
    return ExponentOverflow(f"exponent above {MAX_EXPONENT}")


def _encode(mono: Monomial) -> int:
    key = 0
    for name, exp in mono:
        if exp < 0:
            raise ValueError(f"negative exponent {exp} of {name}")
        if exp > MAX_EXPONENT:
            raise _overflow()
        key += exp << _shift(name)
    if key & _GUARD:
        raise _overflow()
    return key


@functools.lru_cache(maxsize=1 << 14)
def _decode(key: int) -> Monomial:
    """The readable monomial of a packed key."""
    pairs = []
    while key:
        shift = ((key & -key).bit_length() - 1) & -_WIDTH
        exp = (key >> shift) & _FIELD
        pairs.append((_NAMES[shift // _WIDTH], exp))
        key -= exp << shift
    pairs.sort()
    return tuple(pairs)


@functools.lru_cache(maxsize=1 << 14)
def _printed(key: int) -> Tuple[tuple, str]:
    """A packed key's flat graded sort key and its printed factors.

    The sort key ``(degree, name1, exp1, name2, exp2, ...)`` orders terms
    as ``(degree, readable monomial)`` does, without nested tuples.
    """
    mono = _decode(key)
    factors = "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in mono)
    return (sum(e for _, e in mono), *itertools.chain.from_iterable(mono)), factors


_FIRST = operator.itemgetter(0)


def _as_coeff(value) -> Scalar:
    """The canonical coefficient: an ``int`` if integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"not an exact scalar: {value!r}")


class Poly:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        """A polynomial from a map of readable monomials to coefficients."""
        summed: Dict[int, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                key = _encode(mono)
                summed[key] = summed.get(key, 0) + _as_coeff(coeff)
        object.__setattr__(
            self, "terms", {key: _as_coeff(c) for key, c in summed.items() if c}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # Packed keys depend on this process's registry; readable ones do not.
        return (Poly, (dict(self.monomials()),))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def const(value: Scalar) -> "Poly":
        value = _as_coeff(value)
        if not value:
            return _ZERO
        return _from_normalized({0: value})

    @staticmethod
    def var(name: str) -> "Poly":
        return _from_normalized({1 << _shift(name): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if indeterminates remain)."""
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return Fraction(self.terms[0])
        raise ValueError(f"not a constant polynomial: {self}")

    def monomials(self) -> Iterator[Tuple[Monomial, Scalar]]:
        """The ``(readable monomial, coefficient)`` pairs, in storage order."""
        return zip(map(_decode, self.terms), self.terms.values())

    def names(self) -> set:
        return {name for name, _ in _decode(functools.reduce(operator.or_, self.terms, 0))}

    def linear_counts(self) -> Tuple[set, Dict[str, int]]:
        """``(names, counts)``: the names, and each degree-1 name's number of terms.

        Read off reductions over the packed keys with no per-term decode; see
        the module docstring.
        """
        keys = self.terms
        fields = _decode(functools.reduce(operator.or_, keys, 0))
        names = {name for name, _ in fields}
        # A field of the OR of the keys is 1 exactly when no key has a bit
        # above bit 0 there, that is, when its name has degree 1.
        linear = [name for name, e in fields if e == 1]
        if not linear:
            return names, {}
        if len(keys) <= _FIELD:
            # Each field of the sum of the low bits counts its terms, and a
            # count below 2**16 cannot carry into the next field.
            total = sum(map((_GUARD >> (_WIDTH - 1)).__and__, keys))
            return names, {name: (total >> _SHIFT[name]) & _FIELD for name in linear}
        return names, {name: sum((key >> _SHIFT[name]) & 1 for key in keys) for name in linear}

    def first_coefficient(self) -> Scalar:
        """The coefficient of the least readable monomial: the constant term, if any.

        No answer depends on the order in which names were registered.
        ``ValueError`` for the zero polynomial.
        """
        return self.terms[min(self.terms, key=_decode)]

    def coeffs_in(self, name: str) -> Dict[int, "Poly"]:
        """Coefficients of the powers of ``name``: p = sum_k coeffs[k] * name^k.

        Only powers that occur are keys, so the zero polynomial gives ``{}``.
        """
        shift = _SHIFT.get(name)
        if shift is None:
            return {0: self} if self.terms else {}
        groups: Dict[int, Dict[int, Scalar]] = {}
        for key, coeff in self.terms.items():
            e = (key >> shift) & _FIELD
            if e:
                key -= e << shift
            bucket = groups.get(e)
            if bucket is None:
                bucket = groups[e] = {}
            # Distinct monomials with the same power of ``name`` keep distinct
            # rests, so no coefficient is summed and none can vanish here.
            bucket[key] = coeff
        return {e: _from_normalized(bucket) for e, bucket in groups.items()}

    def at_zero(self, name: str) -> "Poly":
        """``self.substitute({name: 0})``: the terms free of ``name``, kept by one
        mask over the keys; ``self`` itself when every term is."""
        shift = _SHIFT.get(name)
        if shift is None:
            return self
        mask = _FIELD << shift
        terms = {key: c for key, c in self.terms.items() if not key & mask}
        return self if len(terms) == len(self.terms) else _from_normalized(terms)

    def primitive(self) -> Tuple[Scalar, "Poly"]:
        """``(content, part)`` with ``self == content * part``, part a primitive
        integer polynomial: integer coefficients with gcd 1 and a positive
        ``first_coefficient``.

        A ``Fraction`` coefficient is first cleared by the lcm of the
        denominators, in integers, and the signed gcd then divides exactly, so
        integer input builds no ``Fraction``.  The content is an ``int`` for
        integer input; part is ``self`` itself when the content is 1.  The zero
        polynomial gives ``(0, self)``.
        """
        terms = self.terms
        if not terms:
            return 0, self
        try:
            g, den = math.gcd(*terms.values()), 1
        except TypeError:
            # A Fraction coefficient: clear the denominators first.
            den = math.lcm(*(c.denominator for c in terms.values()))
            terms = {key: c * den if type(c) is int else c.numerator * (den // c.denominator)
                     for key, c in terms.items()}
            g = math.gcd(*terms.values())
        if self.first_coefficient() < 0:
            g = -g
        if g == 1 and den == 1:
            return 1, self
        content = g if den == 1 else Fraction(g, den)
        return content, _from_normalized(terms if g == 1 else {key: c // g for key, c in terms.items()})

    def monomial_factor(self) -> Tuple["Poly", "Poly"]:
        """``(m, q)`` with ``self == m * q``: m the monic gcd of the monomials, q in storage order.

        m is 1 when the terms share no name, and so for zero and constants.
        """
        keys = iter(self.terms)
        fields = [(_SHIFT[name], exp) for name, exp in _decode(next(keys, 0))]
        for key in keys:
            if not fields:
                break
            fields = [(shift, min(exp, e)) for shift, exp in fields
                      if (e := (key >> shift) & _FIELD)]
        gcd = sum(exp << shift for shift, exp in fields)
        if not gcd:
            return _ONE, self
        return (_from_normalized({gcd: 1}),
                _from_normalized({key - gcd: c for key, c in self.terms.items()}))

    def reduce_monomials(self, monomials) -> "Poly":
        """The terms that no monomial of ``monomials`` divides (coefficients there are ignored).

        This is the remainder modulo the monomial ideal they generate.
        """
        divisors = [m for g in monomials for m in g.terms]
        if not divisors:
            return self
        guard = _GUARD
        return _from_normalized({key: c for key, c in self.terms.items()
                                 if all((key - m) & guard for m in divisors)})

    def split_by(self, names) -> Dict[Monomial, "Poly"]:
        """Group terms by their sub-monomial in ``names``.

        Returns a map from the restricted (readable) monomial to the
        polynomial formed by the remaining factors, so that
        ``p = sum(key * value)``.
        """
        mask = 0
        for name in names:
            shift = _SHIFT.get(name)
            if shift is not None:
                mask |= _FIELD << shift
        if not mask:
            return {(): self} if self.terms else {}
        groups: Dict[int, Dict[int, Scalar]] = {}
        for key, coeff in self.terms.items():
            selected = key & mask
            # As in coeffs_in, no two terms share both parts.
            groups.setdefault(selected, {})[key - selected] = coeff
        return {_decode(sel): _from_normalized(bucket) for sel, bucket in groups.items()}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((self, _ONE), (other, _ONE)))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _from_normalized({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((self, _ONE), (other, _MINUS_ONE)))

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((other, _ONE), (self, _MINUS_ONE)))

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((self, other),)) if self.terms and other.terms else _ZERO

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if not other.is_constant():
                raise ZeroDivisionError("division only by nonzero constants")
            other = other.constant_value()
        other = _as_coeff(other)
        if not other:
            raise ZeroDivisionError("division by zero")
        return _from_normalized({m: _as_coeff(Fraction(c, other)) for m, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if exponent > MAX_EXPONENT and not self.is_constant():
            raise _overflow()
        if not exponent:
            return Poly.const(1)
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # Kept from the first call: the terms never change.
        h = getattr(self, "_hash", None)
        if h is not None:
            return h
        # Agrees with __eq__, which equates a constant polynomial with its value.
        if not self.terms:
            h = 0
        elif len(self.terms) == 1 and 0 in self.terms:
            h = hash(self.terms[0])
        else:
            h = hash(frozenset(self.terms.items()))
        object.__setattr__(self, "_hash", h)
        return h

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "Poly | Scalar"]) -> "Poly":
        """Replace indeterminates by polynomials; unbound names stay symbolic.

        ``TypeError`` if any bound value is not a polynomial or an exact
        scalar, used here or not.
        """
        if not bindings:
            return self
        return _substitute(self, _exact_bindings(bindings))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (_, factors), coeff in sorted(zip(map(_printed, self.terms), self.terms.values()),
                                          key=_FIRST):
            if not factors:
                body = str(abs(coeff))
            else:
                body = factors if abs(coeff) == 1 else f"{abs(coeff)}*{factors}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


_ZERO = Poly()


def _from_normalized(terms: Dict[int, Scalar]) -> Poly:
    """A Poly over a packed term map already in canonical form.

    Every coefficient is nonzero, an ``int`` if integral and a ``Fraction``
    otherwise.
    """
    p = object.__new__(Poly)
    object.__setattr__(p, "terms", terms)
    return p


_ONE = _from_normalized({0: 1})
_MINUS_ONE = _from_normalized({0: -1})


def sum_of_products(pairs) -> Poly:
    """The sum of ``a * b`` over an iterable of ``(Poly, Poly)`` pairs, built in one term map."""
    out: Dict[int, Scalar] = {}
    get = out.get
    for a, b in pairs:
        left, right = a.terms, b.terms
        if len(right) == 1 and 0 in right:
            left, right = right, left
        if len(left) == 1 and 0 in left:
            # A constant side: the other side's terms, scaled, under their own keys.
            c1 = left[0]
            # A Fraction is never +-1, and comparing one with an int is slow.
            if type(c1) is not int or (c1 != 1 and c1 != -1):
                for mono, c2 in right.items():
                    prev = get(mono)
                    out[mono] = c1 * c2 if prev is None else prev + c1 * c2
            elif c1 == -1:
                for mono, c2 in right.items():
                    prev = get(mono)
                    out[mono] = -c2 if prev is None else prev - c2
            elif out:
                for mono, c2 in right.items():
                    prev = get(mono)
                    out[mono] = c2 if prev is None else prev + c2
            else:
                out.update(right)
        else:
            for m1, c1 in left.items():
                for m2, c2 in right.items():
                    mono = m1 + m2
                    prev = get(mono)
                    out[mono] = c1 * c2 if prev is None else prev + c1 * c2
    # Two fields below their guard bit sum below the field's top, so a field
    # that overflowed shows its guard bit in a key of ``out``, cancelled or
    # not, and nothing carried.
    if functools.reduce(operator.or_, out, 0) & _GUARD:
        raise _overflow()
    return _from_normalized({
        mono: coeff if type(coeff) is int or coeff.denominator != 1 else coeff.numerator
        for mono, coeff in out.items() if coeff
    }) if out else _ZERO


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


def _coerce_strict(value) -> Poly:
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot treat {value!r} as a polynomial")
    return out


def _exact_bindings(bindings: Mapping[str, "Poly | Scalar"]) -> Dict[str, Poly]:
    """Every binding as a ``Poly``; ``TypeError`` for any inexact value."""
    return {name: _coerce_strict(value) for name, value in bindings.items()}


def _substitute(p: Poly, bindings: Dict[str, Poly]) -> Poly:
    """``p`` with each name bound in ``bindings`` (from ``_exact_bindings``) replaced."""
    resolved = {}
    for name, _ in _decode(functools.reduce(operator.or_, p.terms, 0)):
        value = bindings.get(name)
        if value is not None:
            resolved[name] = value
    if not resolved:
        return p
    pairs = []
    for key, coeff in p.terms.items():
        free, rest = key, _ONE
        for name, e in _decode(key):
            value = resolved.get(name)
            if value is not None:
                free -= e << _SHIFT[name]
                power = value if e == 1 else value ** e
                rest = power if rest is _ONE else rest * power
        pairs.append((_from_normalized({free: coeff}), rest))
    return sum_of_products(pairs)


def substitute_each(polys: Iterable[Poly], bindings: Mapping[str, "Poly | Scalar"]) -> List[Poly]:
    """``[p.substitute(bindings) for p in polys]``, checking and coercing ``bindings`` once."""
    if not bindings:
        return list(polys)
    bindings = _exact_bindings(bindings)
    return [_substitute(p, bindings) for p in polys]


# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
            break
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int"))))
        elif m.lastgroup == "name":
            tokens.append(("name", sys.intern(m.group("name"))))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str, allowed=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allowed = None if allowed is None else set(allowed)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r} in {self.text!r}")

    def parse(self) -> Poly:
        p = self.sum()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input in {self.text!r}")
        return p

    def sum(self) -> Poly:
        kind, value = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.next()
            negate = value == "-"
        p = self.product()
        if negate:
            p = -p
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                q = self.product()
                p = p - q if value == "-" else p + q
            else:
                return p

    def product(self) -> Poly:
        p = self.power()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                q = self.power()
                if value == "*":
                    p = p * q
                else:
                    if q.is_zero():
                        raise ParseError(f"division by zero in {self.text!r}")
                    if not q.is_constant():
                        raise ParseError(f"division by non-constant in {self.text!r}")
                    p = p / q.constant_value()
            else:
                return p

    def power(self) -> Poly:
        p = self.atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.next()
            kind, value = self.next()
            if kind != "int":
                raise ParseError(f"exponent must be an integer in {self.text!r}")
            try:
                p = p ** value
            except ExponentOverflow as exc:
                raise ParseError(f"exponent {value} above {MAX_EXPONENT} in {self.text!r}") from exc
        return p

    def atom(self) -> Poly:
        kind, value = self.next()
        if kind == "int":
            return Poly.const(value)
        if kind == "name":
            if self.allowed is not None and value not in self.allowed:
                raise ParseError(f"unknown indeterminate {value!r} in {self.text!r}")
            return Poly.var(value)
        if kind == "op" and value == "(":
            p = self.sum()
            self.expect_op(")")
            return p
        if kind == "op" and value == "-":
            return -self.atom()
        raise ParseError(f"unexpected token in {self.text!r}")


def parse_poly(text: str, allowed=None) -> Poly:
    """Parse the canonical polynomial syntax, e.g. ``-1/2*u1 + u3^2``.

    ``allowed`` optionally restricts the indeterminate names; any other
    name raises :class:`ParseError`, and so does nesting (parentheses or
    signs) too deep for the recursive parser.
    """
    try:
        return _Parser(text, allowed).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
