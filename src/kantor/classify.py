"""Classification of Poisson and commutative post-Lie structures.

The pipeline is the constructive two-stage method: an exact linear stage
expressed through Kantor products that vanish for all reference vectors,
followed by a quadratic stage solved by branching triangular
decomposition (``case_split_solve``).

Stage-1 conventions.  The unknown bracket/product is an antisymmetric or
symmetric tensor with fresh coefficients g<pair>_<k>.  For post-Lie
structures the linear constraint is [[a, l]] = 0 for all u, which is
exactly the identity  x.[y,z] = [x.y, z] + [y, x.z].  For Poisson-type
structures both mixed Kantor products are required to vanish for all u:
[[l, a]] = 0 is the Leibniz rule, and [[a, l]] = 0 is the companion
condition that multiplication operators act as derivations of the
bracket; the worked two-dimensional classification pins both.  Both
products are linear in u, so "for all u" is imposed at the n basis
vectors e_1..e_n.  The fixed-reference variant of stage 1 (a weaker,
tabulated filter) is also available for comparison via the ``fixed_u``
argument; it must have rational coordinates (``SymbolicEntries``
otherwise).

Each structure is decided once, in one immutable ``_Structure`` record: the
ansatz symmetry, the slot the classified tensor takes beside the input,
stage 1's vanishing Kantor products as slot pairs, the stage-2 identities
(None for generic Poisson, whose answer is the linear stage) and the
verification bundle.  One driver, ``_classify``, runs stage 2, the merge
with stage 1 and re-verification for every record, so a new structure
costs one record, one wrapper and one golden.

Stage-2 bookkeeping stays on ``Poly``'s packed keys: the facts the case
split reads off each equation (its names, and the term count of each
degree-1 name) come from one ``Poly.linear_counts()`` call, and content
normalization picks its sign from ``Poly.first_coefficient()``.  A
substitution passes the hypotheses that do not mention the substituted
name through unchanged.

Every returned family whose assignment is polynomial and which has no
residual equations is re-verified against the defining identities of the
structure by direct expansion.  Families with rational-function
assignments or residual equations are returned without re-verification.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .algebra import Algebra, Element, Multiplication
from .errors import LieCheckFailed, SymbolicEntries
from .identities import IdentitySpec, builtin, check_identity, reslot
from .linsolve import LinearSolution, solve_linear
from .poly import Poly, sum_of_products
from .product import kantor_product


class RationalValue(NamedTuple):
    """A solved unknown as num/den, polynomials in the free unknowns.

    A named tuple, so ``num, den = value`` works; ``str(value)`` is the
    form ``classify`` prints in text and ``--json``.
    """

    num: Poly
    den: Poly = Poly.const(1)

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"({self.num})/({self.den})"

    def substitute(self, name: str, num: Poly, den: Poly) -> "RationalValue":
        """This value with ``name := num/den`` substituted in num and den."""
        num_parts = self.num.coeffs_in(name)
        den_parts = self.den.coeffs_in(name)
        deg = max(max(num_parts, default=0), max(den_parts, default=0))
        if deg == 0:
            return self
        power = _powers(num, den)
        new_num = _subst_parts(num_parts, power, deg)
        new_den = _subst_parts(den_parts, power, deg)
        if new_den.is_constant():
            return RationalValue(new_num / new_den.constant_value())
        return RationalValue(new_num, new_den)


@dataclass(frozen=True)
class SolutionFamily:
    """One branch of a classification.

    ``assignment`` maps solved unknowns to ``RationalValue(num, den)`` in
    the free unknowns; plain ``(num, den)`` pairs are accepted and stored
    as ``RationalValue``.  Denominators other than 1 only appear when a
    branch pivoted on a non-constant coefficient, and that coefficient is
    then recorded among the inequations.  ``equations`` holds residual
    constraints that were not resolved within the branching depth.
    """

    unknowns: Tuple[str, ...]
    assignment: Mapping[str, RationalValue]
    free: Tuple[str, ...]
    equations: Tuple[Poly, ...]
    inequations: Tuple[Poly, ...]
    label: str

    def __post_init__(self):
        values = {name: RationalValue(*value) for name, value in self.assignment.items()}
        object.__setattr__(self, "assignment", values)

    def is_polynomial(self) -> bool:
        return all(den == 1 for _, den in self.assignment.values())

    def tensor(self, ansatz: Multiplication) -> Optional[Multiplication]:
        """The parameterized multiplication of this family, when polynomial."""
        if not self.is_polynomial():
            return None
        return ansatz.substitute({name: num for name, (num, _) in self.assignment.items()})

    def evaluate(self, point: Mapping[str, Fraction]) -> Optional[Dict[str, Fraction]]:
        """Full unknown values at a rational point of the free parameters.

        Returns ``None`` when the point violates an inequation or a
        residual equation.  ``TypeError`` for a value that is not an
        ``int`` or a ``Fraction``; ``ValueError`` unless the point names
        exactly the free unknowns.
        """
        for name, v in point.items():
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"not an exact value for {name}: {v!r}")
        if point.keys() != set(self.free):
            missing = [name for name in self.free if name not in point]
            extra = [name for name in point if name not in self.free]
            raise ValueError(f"point must give exactly the free unknowns; "
                             f"missing {missing}, extra {extra}")
        values: Dict[str, Fraction] = {name: Fraction(v) for name, v in point.items()}
        for q in self.inequations:
            if q.substitute(values).constant_value() == 0:
                return None
        for q in self.equations:
            if q.substitute(values).constant_value() != 0:
                return None
        for name, (num, den) in self.assignment.items():
            d = den.substitute(values).constant_value()
            if d == 0:
                return None
            values[name] = num.substitute(values).constant_value() / d
        for name in self.unknowns:
            values.setdefault(name, Fraction(0))
        return values

    def describe(self, text: Callable[[object], str] = str) -> str:
        """The family on one line; ``text`` prints each value, equation and hypothesis."""
        parts = [f"{name} = {text(self.assignment[name])}" for name in self.unknowns
                 if name in self.assignment]
        if self.free:
            parts.append("free: " + ", ".join(self.free))
        if self.equations:
            parts.append("residual: " + "; ".join(text(q) + " = 0" for q in self.equations))
        if self.inequations:
            parts.append("assuming: " + "; ".join(text(q) + " != 0" for q in self.inequations))
        return "; ".join(parts) if parts else "unconstrained"


# -- polynomial helpers -------------------------------------------------------

def _powers(num: Poly, den: Poly) -> Callable[[int, int], Poly]:
    """``power(e, d) = num^e * den^(d - e)``, each product built once per ``_powers`` call."""
    return functools.lru_cache(maxsize=None)(lambda e, degree: num ** e * den ** (degree - e))


def _subst_parts(parts: Mapping[int, Poly], power: Callable[[int, int], Poly], degree: int) -> Poly:
    """den^degree * sum_e parts[e] * (num/den)^e for a ``coeffs_in`` map (degree >= each e)."""
    return sum_of_products((coeff, power(e, degree)) for e, coeff in parts.items())


def _subst_rational(p: Poly, name: str, power: Callable[[int, int], Poly]) -> Poly:
    """den^d * p with ``name := num/den``, d the degree of p in ``name`` (den nonzero)."""
    parts = p.coeffs_in(name)
    degree = max(parts, default=0)
    return p if degree == 0 else _subst_parts(parts, power, degree)


def _back_substitute(value: RationalValue, assignment: Mapping[str, RationalValue]) -> RationalValue:
    """``value`` with the solved unknowns of ``assignment`` it mentions substituted, in order.

    Precondition: the values of ``assignment`` mention free unknowns only
    (``emit`` builds them in reverse solve order; ``_classify`` passes
    finished families), so no substitution brings in a solved name.
    """
    mentioned = value.num.names() | value.den.names()
    for name, (num, den) in assignment.items():
        if name in mentioned:
            value = value.substitute(name, num, den)
    return value


def _content_normalize(p: Poly) -> Poly:
    """Divide by the rational content and fix the leading sign; p itself if already so.

    The leading coefficient is that of the least readable monomial
    (``Poly.first_coefficient``), so no result depends on name registration order.
    """
    if p.is_zero():
        return p
    coeffs = p.terms.values()
    num_gcd = math.gcd(*(c.numerator for c in coeffs))
    den_lcm = math.lcm(*(c.denominator for c in coeffs))
    positive = p.first_coefficient() > 0
    if positive and num_gcd == den_lcm:
        return p
    return p * Fraction(den_lcm if positive else -den_lcm, num_gcd)


def _rational_sqrt(value: Fraction) -> Optional[Fraction]:
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def _univariate_roots(p: Poly, name: str) -> Optional[List[Fraction]]:
    """Rational roots of a univariate polynomial of degree <= 2, else None."""
    parts = p.coeffs_in(name)
    coeffs = {e: c.constant_value() for e, c in parts.items()}
    degree = max(coeffs)
    if degree == 1:
        return [-coeffs.get(0, Fraction(0)) / coeffs[1]]
    if degree == 2:
        a = coeffs[2]
        b = coeffs.get(1, Fraction(0))
        c = coeffs.get(0, Fraction(0))
        root = _rational_sqrt(b * b - 4 * a * c)
        if root is None:
            return None
        return sorted(set([(-b + root) / (2 * a), (-b - root) / (2 * a)]))
    return None


# -- the case-splitting solver ------------------------------------------------

def _split_inequation(q: Poly) -> List[Poly]:
    """Factor the monomial content: m * p != 0 iff each variable of m and p != 0."""
    content, rest = q.monomial_factor()
    parts = [Poly.var(name) for name in sorted(content.names())]
    rest = _content_normalize(rest)
    if not rest.is_constant():
        parts.append(rest)
    return parts


class _Facts(NamedTuple):
    equation: Poly
    names: set
    first: Optional[Tuple[str, Dict[int, Poly]]]
    linear: List[Tuple[int, int, str]]


def _facts(q: Poly, variables: Mapping[str, Poly]) -> _Facts:
    """What the case split reads off a content-normalized equation q.

    ``names`` is q's name set and, with the term count of each degree-1
    name, comes from one ``Poly.linear_counts()`` over the packed keys;
    ``first`` is the first unknown with a constant linear coefficient and
    q's ``coeffs_in`` map in it, or None; ``linear`` holds step 4's
    (coefficient terms, equation terms, unknown) of the linear occurrences
    before it, in unknown order.  ``variables`` maps each unknown, in
    order, to its ``Poly.var``.
    """
    names, counts = q.linear_counts()
    linear = []
    for name, var in variables.items():
        count = counts.get(name)
        if count is None:
            continue
        # With name in a single term, its coefficient is constant iff that
        # term is name itself.
        if count == 1 and var.terms.keys() <= q.terms.keys():
            return _Facts(q, names, (name, q.coeffs_in(name)), linear)
        linear.append((count, len(q.terms), name))
    return _Facts(q, names, None, linear)


def case_split_solve(
    equations: Sequence[Poly], unknowns: Sequence[str], max_depth: int = 16
) -> List[SolutionFamily]:
    """Solve a polynomial system over the rationals by branch decomposition.

    Strategy, in order: eliminate unknowns occurring linearly with a
    rational coefficient; split univariate equations of degree at most
    two at their rational roots; split monomial equations into disjoint
    variable-vanishing branches; otherwise branch on a linear occurrence
    whose coefficient c is a polynomial (one branch assumes c != 0 and
    eliminates, the other adds c = 0).  At the depth cap the remaining
    equations are reported as residuals, never dropped.  Branches whose
    hypotheses become contradictory are pruned.

    Equations and hypotheses (inequations) are kept content-normalized, so
    equal constraints compare equal: hypotheses enter only through
    ``add_inequations``, and each equation travels through ``descend`` as
    one ``_Facts`` record of its content-normalized form, made by
    ``record`` when the equation is made: for the input system, for each
    equation a substitution changes, and for step 4's ``c = 0`` branch.
    An equation a substitution leaves alone keeps its record, and so does a
    hypothesis: each stored hypothesis is its own ``_split_inequation``, so
    passing it through keeps the list, its order and its dedupe.

    ``TypeError`` unless ``max_depth`` is an ``int`` (not a ``bool``);
    ``ValueError`` if it is negative.
    """
    if not isinstance(max_depth, int) or isinstance(max_depth, bool):
        raise TypeError(f"max_depth must be an int, got {max_depth!r}")
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    unknowns = tuple(unknowns)
    variables = {name: Poly.var(name) for name in unknowns}
    families: List[SolutionFamily] = []

    def record(q: Poly) -> _Facts:
        return _facts(_content_normalize(q), variables)

    def normalize(eqs: Sequence[_Facts], ineqs: Sequence[Poly]):
        out: Dict[Poly, _Facts] = {}
        for r in eqs:
            q = r.equation
            if q.is_zero():
                continue
            if q.is_constant():
                return None
            out.setdefault(q, r)
        if not out.keys().isdisjoint(ineqs):
            return None
        return list(out.values())

    def add_inequations(ineqs, q):
        """Extend the hypothesis list with the factors of q; None if q is 0."""
        if q.is_zero():
            return None
        out = list(ineqs)
        for part in _split_inequation(q):
            if part not in out:
                out.append(part)
        return out

    def substitute_all(eqs, ineqs, name, value: RationalValue):
        """Hypotheses first, then equations; (None, None) at the first contradiction."""
        power = _powers(*value)
        new_ineqs: Optional[List[Poly]] = []
        for q in ineqs:
            if name not in q.names():
                # A stored hypothesis is its own split, so it passes through.
                if q not in new_ineqs:
                    new_ineqs.append(q)
                continue
            new_ineqs = add_inequations(new_ineqs, _subst_rational(q, name, power))
            if new_ineqs is None:
                return None, None
        new_eqs = []
        for r in eqs:
            if name in r.names:
                q = _subst_rational(r.equation, name, power)
                if q.is_zero():
                    continue
                if q.is_constant():
                    return None, None
                r = record(q)
            new_eqs.append(r)
        return new_eqs, new_ineqs

    def emit(assign_order, residual, ineqs, labels):
        final: Dict[str, RationalValue] = {}
        for name, value in reversed(assign_order):
            final[name] = _back_substitute(value, final)
        assigned = set(final)
        free = tuple(n for n in unknowns if n not in assigned)
        families.append(
            SolutionFamily(
                unknowns=unknowns,
                assignment=final,
                free=free,
                equations=tuple(residual),
                inequations=tuple(ineqs),
                label="; ".join(labels) if labels else "general",
            )
        )

    def assign_and_descend(eqs, r, name, value: RationalValue, assign_order, ineqs, labels,
                           depth):
        rest = [e for e in eqs if e is not r]
        new_eqs, new_ineqs = substitute_all(rest, ineqs, name, value)
        if new_eqs is None:
            return
        descend(new_eqs, assign_order + [(name, value)], new_ineqs, labels, depth)

    def descend(eqs, assign_order, ineqs, labels, depth):
        eqs = normalize(eqs, ineqs)
        if eqs is None:
            return
        if not eqs:
            emit(assign_order, [], ineqs, labels)
            return

        # 1. Unknowns occurring linearly with a rational coefficient, taking
        #    the first equation, then the first unknown.
        for r in eqs:
            if r.first is not None:
                name, parts = r.first
                value = RationalValue(-parts.get(0, Poly.zero()) / parts[1].constant_value())
                assign_and_descend(eqs, r, name, value, assign_order, ineqs, labels, depth)
                return

        # 2. Univariate equations of degree <= 2 with rational roots.
        for r in eqs:
            if len(r.names) != 1:
                continue
            (name,) = r.names
            roots = _univariate_roots(r.equation, name)
            if roots is None:
                continue
            for root in roots:
                assign_and_descend(
                    eqs, r, name, RationalValue(Poly.const(root)), assign_order, ineqs,
                    labels + [f"{name} = {root}"], depth - 1,
                )
            return

        # 3. Monomial equations split into disjoint variable-vanishing branches.
        #    Equations are normalized, so a single term is not a constant.
        for r in eqs:
            if len(r.equation.terms) != 1:
                continue
            names = sorted(r.names)
            hypotheses = list(ineqs)
            for pos, name in enumerate(names):
                assign_and_descend(
                    eqs, r, name, RationalValue(Poly.zero()), assign_order, hypotheses,
                    labels + [f"{name} = 0"], depth - 1,
                )
                if pos + 1 < len(names):
                    updated = add_inequations(hypotheses, Poly.var(name))
                    if updated is None:
                        return
                    hypotheses = updated
            return

        # 4. Branch on a linear occurrence with a polynomial coefficient;
        #    prefer the fewest coefficient terms, then the fewest equation
        #    terms, then the name, and the first such occurrence.
        linear = [(key, r) for r in eqs for key in r.linear]
        if depth > 0 and linear:
            (_, _, name), r = min(linear, key=lambda item: item[0])
            parts = r.equation.coeffs_in(name)
            c, d = parts[1], parts.get(0, Poly.zero())
            branch_ineqs = add_inequations(ineqs, c)
            if branch_ineqs is not None:
                assign_and_descend(
                    eqs, r, name, RationalValue(-d, c), assign_order, branch_ineqs,
                    labels + [f"{c} != 0"], depth - 1,
                )
            descend(eqs + [record(c)], assign_order, ineqs, labels + [f"{c} = 0"], depth - 1)
            return

        emit(assign_order, [r.equation for r in eqs], ineqs, labels + ["depth cap"])

    descend([record(q) for q in equations], [], [], [], max_depth)
    return families


# -- ansatz construction ------------------------------------------------------

def _ansatz(dim: int, sign: int) -> Tuple[Multiplication, Tuple[str, ...]]:
    """Generic tensor with unknowns g<pair>_<k>; e_j*e_i = sign * e_i*e_j."""
    entries = {}
    names: List[str] = []
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + (sign < 0), dim + 1)]
    for pair, (i, j) in enumerate(pairs, 1):
        for k in range(1, dim + 1):
            name = f"g{pair}_{k}"
            names.append(name)
            entries[(i, j, k)] = Poly.var(name)
            if i != j:
                entries[(j, i, k)] = Poly.var(name) if sign > 0 else -Poly.var(name)
    return Multiplication.from_table(dim, entries), tuple(names)


def antisymmetric_ansatz(dim: int) -> Tuple[Multiplication, Tuple[str, ...]]:
    """Generic antisymmetric tensor with unknowns g<pair>_<k> (pairs i<j)."""
    return _ansatz(dim, -1)


def symmetric_ansatz(dim: int) -> Tuple[Multiplication, Tuple[str, ...]]:
    """Generic symmetric tensor with unknowns g<pair>_<k> (pairs i<=j)."""
    return _ansatz(dim, 1)


@dataclass(frozen=True)
class LinearStage:
    """Result of the linear stage: solved ansatz plus the solution space."""

    unknowns: Tuple[str, ...]
    solution: LinearSolution
    ansatz: Multiplication
    tensor: Multiplication

    @property
    def free(self) -> Tuple[str, ...]:
        return self.solution.free


def _mult_of(a) -> Multiplication:
    mult = a.mult if isinstance(a, Algebra) else a
    if not mult.is_rational():
        raise SymbolicEntries("classification needs a rational structure tensor")
    return mult


class _Structure(NamedTuple):
    """What one classifier imposes.

    Identities and Kantor products name two slots: the classified tensor
    takes slot ``slot`` and the input the other one.
    """

    sign: int  # the ansatz: e_j*e_i = sign * e_i*e_j
    slot: int
    stage1: Tuple[Tuple[int, int], ...]  # slot pairs (i, j): [[i, j]] = 0 for all u
    stage2: Optional[Tuple[IdentitySpec, ...]]  # None: the linear stage is the answer
    verify: Tuple[IdentitySpec, ...]  # checked on every polynomial family without residuals
    lie_input: bool = False

    def ansatz(self, dim: int) -> Tuple[Multiplication, Tuple[str, ...]]:
        return _ansatz(dim, self.sign)

    def slots(self, base: Multiplication, tensor: Multiplication) -> List[Multiplication]:
        return [base, tensor] if self.slot == 1 else [tensor, base]


_JACOBI_ON_BRACKET = (reslot(builtin("jacobi")[0], 2, {0: 1}),)
_GENERIC_POISSON = _Structure(
    sign=-1, slot=1, stage1=((1, 0), (0, 1)), stage2=None,
    verify=builtin("generic_poisson") + builtin("postlie_3"),
)
_POISSON = _GENERIC_POISSON._replace(stage2=_JACOBI_ON_BRACKET,
                                     verify=_JACOBI_ON_BRACKET + _GENERIC_POISSON.verify)
_POSTLIE = _Structure(
    sign=1, slot=0, stage1=((0, 1),), stage2=builtin("postlie_2"),
    verify=builtin("postlie_2") + builtin("postlie_3"), lie_input=True,
)
# Keyed by the kinds of ``kantor classify``.
_STRUCTURES = {"poisson": _POISSON, "generic-poisson": _GENERIC_POISSON, "postlie": _POSTLIE}


def _stage1(structure: _Structure, a, fixed_u: Element | None) -> LinearStage:
    base = _mult_of(a)
    if fixed_u is None:
        us = [Element.basis(base.dim, i) for i in range(base.dim)]
    elif fixed_u.is_rational():
        us = [fixed_u]
    else:
        raise SymbolicEntries("classification needs a rational reference vector")
    ansatz, unknowns = structure.ansatz(base.dim)
    tensors = structure.slots(base, ansatz)
    eqs = [q for i, j in structure.stage1 for u in us
           for q in kantor_product(tensors[i], tensors[j], u).entries.values()]
    solution = solve_linear(eqs, unknowns)
    return LinearStage(unknowns, solution, ansatz, ansatz.substitute(solution.assignments))


def _classify(structure: _Structure, stage1, a, max_depth: int = 16,
              require_lie: bool = True) -> List[SolutionFamily]:
    """Stage 2, the merge with stage 1 and re-verification, for every structure.

    ``stage1`` is the public stage-1 function, which each classifier passes
    by its module-level name, so a wrapper installed on that name (as
    ``benchmarks/tracer.py`` installs one) sees the stage run.
    """
    mult = _mult_of(a)
    if structure.lie_input and require_lie:
        verdict = check_identity(mult, builtin("anticommutative") + builtin("jacobi"))
        if not verdict.holds:
            raise LieCheckFailed(
                f"input is not a Lie algebra: {[str(p) for p in verdict.obstructions]}"
            )
    stage = stage1(mult)
    if structure.stage2 is None:
        branches = [SolutionFamily(stage.free, {}, stage.free, (), (), "linear stage")]
    else:
        verdict = check_identity(structure.slots(mult, stage.tensor), structure.stage2)
        branches = case_split_solve(list(verdict.obstructions), stage.free, max_depth)
    families = []
    for branch in branches:
        assignment = dict(branch.assignment)
        for pivot, affine in stage.solution.assignments.items():
            assignment[pivot] = _back_substitute(RationalValue(affine), branch.assignment)
        family = replace(branch, unknowns=stage.unknowns, assignment=assignment)
        families.append(family)
        if family.equations or not family.is_polynomial():
            continue
        verdict = check_identity(structure.slots(mult, family.tensor(stage.ansatz)),
                                 structure.verify)
        if not verdict.holds:
            raise AssertionError(
                f"classification produced an unsound family ({family.label}): "
                f"{[str(p) for p in verdict.obstructions]}"
            )
    return families


def poisson_stage1(a, fixed_u: Element | None = None) -> LinearStage:
    """Linear stage of the Poisson classification (antisymmetric ansatz)."""
    return _stage1(_POISSON, a, fixed_u)


def postlie_stage1(lie, fixed_u: Element | None = None) -> LinearStage:
    """Linear stage of the post-Lie classification (symmetric ansatz)."""
    return _stage1(_POSTLIE, lie, fixed_u)


def poisson_structures(a, max_depth: int = 16) -> List[SolutionFamily]:
    """All Poisson-compatible Lie brackets on the given algebra.

    Stage 1 imposes both mixed Kantor products vanishing for all u; stage
    2 imposes the Jacobi identity by case splitting.
    """
    return _classify(_POISSON, poisson_stage1, a, max_depth)


def generic_poisson_structures(a) -> List[SolutionFamily]:
    """The single linear family of generic Poisson brackets (no Jacobi stage)."""
    return _classify(_GENERIC_POISSON, poisson_stage1, a)


def postlie_structures(lie, require_lie: bool = True, max_depth: int = 16) -> List[SolutionFamily]:
    """All commutative post-Lie structures on the given Lie algebra.

    Stage 1 solves x.[y,z] = [x.y, z] + [y, x.z] (linear); stage 2 imposes
    [x,y].z = x.(y.z) - y.(x.z) by case splitting.
    """
    return _classify(_POSTLIE, postlie_stage1, lie, max_depth, require_lie)
