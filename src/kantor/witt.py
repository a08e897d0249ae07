"""A graded transposed Poisson algebra on generators L_i, I_j (i, j in Z).

Elements are finitely supported rational combinations of the generators.
The bracket is

    [L_m, L_n] = (m - n) L_{m+n},   [L_m, I_n] = (m - n - a) I_{m+n},

with [I, I] = 0, and the dot product is x . y = w # (x # y), where # is
the juxtaposition product L_i # L_j = L_{i+j}, L_i # I_j = I_i # L_j =
I_{i+j}, I # I = 0 and w is a fixed weight element.  The pair (., [,]) is
a transposed Poisson structure for every shift a and weight w.

``witt_star`` and ``witt_curly`` are the closed-form mixed Kantor
products [[ [,], . ]] and [[ ., [,] ]] for a finitely supported reference
vector u; ``kantor_star``/``kantor_curly`` compute the same products
straight from the Kantor definition and serve as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .algebra import render_combination
from .poly import Poly, _as_coeff

Gen = Tuple[str, int]


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(_as_coeff(value))


class GradedElement:
    """Finitely supported rational combination of the generators."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Gen, Fraction] | None = None):
        cleaned: Dict[Gen, Fraction] = {}
        for gen, coeff in (terms or {}).items():
            kind, index = gen
            if kind not in ("L", "I"):
                raise ValueError(f"unknown generator kind {kind!r}")
            coeff = _as_fraction(coeff)
            if coeff:
                cleaned[(kind, int(index))] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("GradedElement is immutable")

    @staticmethod
    def zero() -> "GradedElement":
        return GradedElement()

    def __add__(self, other: "GradedElement") -> "GradedElement":
        out = dict(self.terms)
        for gen, coeff in other.terms.items():
            out[gen] = out.get(gen, Fraction(0)) + coeff
        return GradedElement(out)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + other.scale(-1)

    def scale(self, factor) -> "GradedElement":
        factor = _as_fraction(factor)
        return GradedElement({gen: coeff * factor for gen, coeff in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedElement) and self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        terms = sorted(self.terms.items())
        return render_combination((Poly.const(c), f"{kind}({i})") for (kind, i), c in terms)

    def __repr__(self) -> str:
        return f"GradedElement({self})"


def L(index: int) -> GradedElement:
    return GradedElement({("L", index): Fraction(1)})


def I(index: int) -> GradedElement:
    return GradedElement({("I", index): Fraction(1)})


@dataclass(frozen=True)
class WittConfig:
    """Bracket shift ``a`` and dot weight ``w``."""

    a: Fraction = Fraction(0)
    w: GradedElement = None

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        if self.w is None:
            object.__setattr__(self, "w", L(0))


def _bilinear(f):
    def extended(x: GradedElement, y: GradedElement, *args) -> GradedElement:
        total = GradedElement.zero()
        for gx, cx in x.terms.items():
            for gy, cy in y.terms.items():
                total = total + f(gx, gy, *args).scale(cx * cy)
        return total

    return extended


def _juxt_gen(gx: Gen, gy: Gen) -> GradedElement:
    (kx, ix), (ky, iy) = gx, gy
    if kx == "L" and ky == "L":
        return L(ix + iy)
    if kx == "I" and ky == "I":
        return GradedElement.zero()
    return I(ix + iy)


witt_juxt = _bilinear(_juxt_gen)


def witt_dot(x: GradedElement, y: GradedElement, cfg: WittConfig) -> GradedElement:
    """x . y = w # (x # y)."""
    return witt_juxt(cfg.w, witt_juxt(x, y))


def _bracket_gen(gx: Gen, gy: Gen, cfg: WittConfig) -> GradedElement:
    (kx, ix), (ky, iy) = gx, gy
    if kx == "L" and ky == "L":
        return L(ix + iy).scale(ix - iy)
    if kx == "L" and ky == "I":
        return I(ix + iy).scale(Fraction(ix - iy) - cfg.a)
    if kx == "I" and ky == "L":
        return I(ix + iy).scale(-(Fraction(iy - ix) - cfg.a))
    return GradedElement.zero()


witt_bracket = _bilinear(_bracket_gen)


def _uw_pairs(u: GradedElement, cfg: WittConfig):
    for (ku, k), cu in u.terms.items():
        for (kw, n), cw in cfg.w.terms.items():
            yield ku, k, cu, kw, n, cw


def _star_gen(gx: Gen, gy: Gen, u: GradedElement, cfg: WittConfig) -> GradedElement:
    (kx, i), (ky, j) = gx, gy
    if kx == "I" and ky == "L":
        return _star_gen(gy, gx, u, cfg)
    if kx == "I" and ky == "I":
        return GradedElement.zero()
    total = GradedElement.zero()
    if ky == "L":
        for ku, k, cu, kw, n, cw in _uw_pairs(u, cfg):
            if ku == "L" and kw == "L":
                total = total + L(i + j + k + n).scale(-(k + n) * cu * cw)
            elif (ku, kw) in (("L", "I"), ("I", "L")):
                total = total + I(i + j + k + n).scale(-(Fraction(k + n) + cfg.a) * cu * cw)
    else:
        for ku, k, cu, kw, n, cw in _uw_pairs(u, cfg):
            if ku == "L" and kw == "L":
                total = total + I(i + j + k + n).scale(-(k + n) * cu * cw)
    return total


def _curly_gen(gx: Gen, gy: Gen, u: GradedElement, cfg: WittConfig) -> GradedElement:
    (kx, i), (ky, j) = gx, gy
    if kx == "I" and ky == "L":
        return _curly_gen(gy, gx, u, cfg).scale(-1)
    if kx == "I" and ky == "I":
        return GradedElement.zero()
    total = GradedElement.zero()
    if ky == "L":
        for ku, k, cu, kw, n, cw in _uw_pairs(u, cfg):
            if ku == "L" and kw == "L":
                total = total + L(i + j + k + n).scale((j - i) * cu * cw)
            elif (ku, kw) in (("L", "I"), ("I", "L")):
                total = total + I(i + j + k + n).scale((j - i) * cu * cw)
    else:
        # The I-target coefficient picks up the bracket shift: (j - i + a).
        for ku, k, cu, kw, n, cw in _uw_pairs(u, cfg):
            if ku == "L" and kw == "L":
                total = total + I(i + j + k + n).scale((Fraction(j - i) + cfg.a) * cu * cw)
    return total


def witt_star(x: GradedElement, y: GradedElement, u: GradedElement, cfg: WittConfig) -> GradedElement:
    """Closed form of [[ [,], . ]](x, y) with reference vector u."""
    return _bilinear(_star_gen)(x, y, u, cfg)


def witt_curly(x: GradedElement, y: GradedElement, u: GradedElement, cfg: WittConfig) -> GradedElement:
    """Closed form of [[ ., [,] ]](x, y) with reference vector u."""
    return _bilinear(_curly_gen)(x, y, u, cfg)


def kantor_star(x: GradedElement, y: GradedElement, u: GradedElement, cfg: WittConfig) -> GradedElement:
    """[[ [,], . ]] computed directly from the Kantor definition (oracle)."""
    return (
        witt_bracket(u, witt_dot(x, y, cfg), cfg)
        - witt_dot(witt_bracket(u, x, cfg), y, cfg)
        - witt_dot(x, witt_bracket(u, y, cfg), cfg)
    )


def kantor_curly(x: GradedElement, y: GradedElement, u: GradedElement, cfg: WittConfig) -> GradedElement:
    """[[ ., [,] ]] computed directly from the Kantor definition (oracle)."""
    return (
        witt_dot(u, witt_bracket(x, y, cfg), cfg)
        - witt_bracket(witt_dot(u, x, cfg), y, cfg)
        - witt_bracket(x, witt_dot(u, y, cfg), cfg)
    )
