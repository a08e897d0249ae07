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

Stage 2 runs the case split as a worklist of immutable ``_Branch``
records: one loop pops a branch and emits it or pushes the children of
one ``_step``.  Every equation, hypothesis and step-4 pivot is kept as a
primitive integer polynomial (``Poly.primitive``: integer coefficients
with gcd 1 and a positive first coefficient), so equal constraints
compare equal and no normalization builds a ``Fraction`` unless its input
holds one.  The rest of the bookkeeping also stays on ``Poly``'s packed
keys: the facts the case split reads off each equation (its names, and
the term count of each degree-1 name) come from one
``Poly.linear_counts()`` call, only those degree-1 names are visited, and
a ``name = 0`` child keeps the terms free of ``name`` (``Poly.at_zero``).

A family keeps its values as the triangular chain the case split builds,
in evaluation order: each value mentions only free unknowns and unknowns
listed before it (the case split's values in reverse solve order, then
stage 1's pivots).  ``SolutionFamily.expanded`` back-substitutes the chain
into values in the free unknowns alone, on first read.

Every returned family whose expanded values are polynomial and which has
no residual equations is re-verified against the defining identities of
the structure by direct expansion.  Families with rational-function
values or residual equations are returned without re-verification, and
a family with residual equations is never expanded by the classifier.
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

    ``assignment`` maps solved unknowns to ``RationalValue(num, den)`` as a
    triangular chain in evaluation order: each value mentions only free
    unknowns and unknowns listed before it, so substituting along the
    order gives every value.  Plain ``(num, den)`` pairs are accepted and
    stored as ``RationalValue``.  ``expanded`` holds the same values with
    the chain back-substituted, in the free unknowns alone; it is computed
    on first read.  Denominators other than 1 only appear when a branch
    pivoted on a non-constant coefficient, and that coefficient is then
    recorded among the inequations.  ``equations`` holds residual
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

    @functools.cached_property
    def expanded(self) -> Dict[str, RationalValue]:
        """The chain back-substituted: each value in the free unknowns alone,
        in ``assignment``'s order.  Kept on the family from its first read,
        outside the fields that ``==`` and ``repr`` read."""
        return _back_substitute(self.assignment)

    def is_polynomial(self) -> bool:
        """Whether every expanded value is a polynomial.

        The chain answers when it can: without denominators the expansion
        has none, and the expansion only multiplies a non-constant
        denominator in the free unknowns alone, so that one stays.
        """
        dens = [den for _, den in self.assignment.values() if den != 1]
        if not dens:
            return True
        free = set(self.free)
        # A fast path that pays: without it, text-mode ``kantor classify postlie
        # catalog:heis4`` takes 31.7 s and 281 MB instead of 3.4 s and 88 MB (Xeon, Python 3.11).
        if any(not den.is_constant() and den.names() <= free for den in dens):
            return False
        return all(den == 1 for _, den in self.expanded.values())

    def tensor(self, ansatz: Multiplication) -> Optional[Multiplication]:
        """The parameterized multiplication of this family, when polynomial."""
        if not self.is_polynomial():
            return None
        return ansatz.substitute({name: num for name, (num, _) in self.expanded.items()})

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
        parts = [f"{name} = {text(value)}" for name, value in self.assignment.items()]
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


def _substitution(name: str, value: RationalValue) -> Callable[[Poly], Poly]:
    """p -> den^d * p with ``name := num/den``, d the degree of p in ``name``
    (den nonzero); a zero value keeps the terms free of ``name``
    (``Poly.at_zero``)."""
    num, den = value
    if not num.terms:
        return lambda p: p.at_zero(name)
    power = _powers(num, den)

    def substitute(p: Poly) -> Poly:
        parts = p.coeffs_in(name)
        degree = max(parts, default=0)
        return p if degree == 0 else _subst_parts(parts, power, degree)
    return substitute


def _back_substitute(chain: Mapping[str, RationalValue]) -> Dict[str, RationalValue]:
    """The values of ``chain`` with every solved unknown substituted away, in its order.

    Precondition: ``chain`` is in evaluation order, each value mentioning
    only free unknowns and names listed before it.  Each value then takes
    the already expanded values of the earlier names it mentions, which
    mention free unknowns only, so no substitution brings in a solved name.
    """
    final: Dict[str, RationalValue] = {}
    for name, value in chain.items():
        mentioned = value.num.names() | value.den.names()
        for earlier, (num, den) in final.items():
            if earlier in mentioned:
                value = value.substitute(earlier, num, den)
        final[name] = value
    return final


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
    _, rest = rest.primitive()
    if not rest.is_constant():
        parts.append(rest)
    return parts


class _Facts(NamedTuple):
    equation: Poly
    names: set
    first: Optional[str]
    linear: List[Tuple[int, int, str]]


def _facts(q: Poly, unknowns: Mapping[str, Tuple[int, Poly]]) -> _Facts:
    """What the case split reads off equation q, which it keeps as its primitive part.

    ``names`` is q's name set and, with the term count of each degree-1
    name, comes from one ``Poly.linear_counts()`` over the packed keys.
    Only those degree-1 names are visited, in unknown order (``unknowns``
    maps each unknown to its place and its ``Poly.var``): ``first`` is the
    first with a constant coefficient, or None, and ``linear`` holds step
    4's (coefficient terms, equation terms, unknown) of the ones before it.
    """
    _, q = q.primitive()
    names, counts = q.linear_counts()
    linear = []
    # Places are distinct, so sorting never compares two vars.
    for name in sorted(counts, key=unknowns.__getitem__):
        count = counts[name]
        # With name in a single term, its coefficient is constant iff that
        # term is name itself.
        if count == 1 and unknowns[name][1].terms.keys() <= q.terms.keys():
            return _Facts(q, names, name, linear)
        linear.append((count, len(q.terms), name))
    return _Facts(q, names, None, linear)


class _Branch(NamedTuple):
    """An open branch of the case split: equations left, hypotheses (distinct,
    each its own ``_split_inequation``), (unknown, value) pairs in solve
    order, the splits taken, what is left of ``max_depth``, and ``_facts``'s
    map of the unknowns, the same for every branch of a run.  A step never
    edits one."""

    eqs: Tuple[_Facts, ...]
    ineqs: Tuple[Poly, ...]
    solved: Tuple[Tuple[str, RationalValue], ...]
    labels: Tuple[str, ...]
    depth: int
    unknowns: Mapping[str, Tuple[int, Poly]]


def _normalize(branch: _Branch) -> Optional[_Branch]:
    """The branch without zero or repeated equations; None if one is a nonzero
    constant or equals a hypothesis, so the branch has no solution."""
    eqs = {r.equation: r for r in branch.eqs if not r.equation.is_zero()}
    if any(q.is_constant() for q in eqs) or not eqs.keys().isdisjoint(branch.ineqs):
        return None
    return branch._replace(eqs=tuple(eqs.values()))


def _add_inequations(ineqs: Tuple[Poly, ...], q: Poly) -> Tuple[Poly, ...]:
    """The hypotheses extended with the factors of a nonzero q."""
    out = list(ineqs)
    for part in _split_inequation(q):
        if part not in out:
            out.append(part)
    return tuple(out)


def _assign(branch: _Branch, r: _Facts, name: str, value: RationalValue,
            ineqs: Tuple[Poly, ...], label: Optional[str]) -> List[_Branch]:
    """The child that solves equation r by ``name := value`` under hypotheses ``ineqs``.

    A list of that one child, or an empty list when the substitution makes
    a hypothesis zero or an equation a nonzero constant.  A labelled child
    is a split and spends one depth; step 1 passes no label.  An equation or
    hypothesis without ``name`` keeps its record, its place and its dedupe.
    """
    substitute = _substitution(name, value)
    new_ineqs: Tuple[Poly, ...] = ()
    for q in ineqs:
        if name in q.names():
            q = substitute(q)
            if q.is_zero():
                return []
            new_ineqs = _add_inequations(new_ineqs, q)
        elif q not in new_ineqs:
            # A stored hypothesis is its own split, so it passes through.
            new_ineqs += (q,)
    eqs = []
    for e in branch.eqs:
        if e is r:
            continue
        if name in e.names:
            q = substitute(e.equation)
            if q.is_zero():
                continue
            if q.is_constant():
                return []
            e = _facts(q, branch.unknowns)
        eqs.append(e)
    split = () if label is None else (label,)
    return [branch._replace(eqs=tuple(eqs), ineqs=new_ineqs, solved=branch.solved + ((name, value),),
                            labels=branch.labels + split, depth=branch.depth - len(split))]


def _step(branch: _Branch) -> Optional[List[_Branch]]:
    """The children of a normalized branch, in solve order.

    The first rule that applies makes them.  None when none does, as with
    no equations left, or when step 4 is out of depth: the branch is then
    emitted, its equations as residuals.
    """
    eqs, ineqs = branch.eqs, branch.ineqs
    # 1. Unknowns occurring linearly with a rational coefficient, taking
    #    the first equation, then the first unknown.
    for r in eqs:
        if r.first is not None:
            parts = r.equation.coeffs_in(r.first)
            value = RationalValue(-parts.get(0, Poly.zero()) / parts[1].constant_value())
            return _assign(branch, r, r.first, value, ineqs, None)

    # 2. Univariate equations of degree <= 2 with rational roots.
    for r in eqs:
        if len(r.names) != 1:
            continue
        (name,) = r.names
        roots = _univariate_roots(r.equation, name)
        if roots is not None:
            return [child for root in roots for child in _assign(
                branch, r, name, RationalValue(Poly.const(root)), ineqs, f"{name} = {root}")]

    # 3. Monomial equations split into disjoint variable-vanishing branches.
    #    Equations are normalized, so a single term is not a constant.
    for r in eqs:
        if len(r.equation.terms) == 1:
            children = []
            for name in sorted(r.names):
                children += _assign(branch, r, name, RationalValue(Poly.zero()), ineqs, f"{name} = 0")
                # The later branches assume name != 0; a variable is its own split.
                var = Poly.var(name)
                if var not in ineqs:
                    ineqs += (var,)
            return children

    # 4. Branch on a linear occurrence with a polynomial coefficient c;
    #    prefer the fewest coefficient terms, then the fewest equation
    #    terms, then the name, and the first such occurrence.  Steps 2 and
    #    3 spend depth unchecked, so it may be below 0 here.
    linear = [(key, r) for r in eqs for key in r.linear]
    if branch.depth <= 0 or not linear:
        return None
    (_, _, name), r = min(linear, key=lambda item: item[0])
    parts = r.equation.coeffs_in(name)
    c, d = parts[1], parts.get(0, Poly.zero())
    # Label and divide by the primitive pivot, as the constraints store it.
    content, c = c.primitive()
    if content != 1:
        d = d / content
    pivot = str(c)
    return _assign(branch, r, name, RationalValue(-d, c), _add_inequations(ineqs, c), f"{pivot} != 0") + [
        branch._replace(eqs=eqs + (_facts(c, branch.unknowns),),
                        labels=branch.labels + (f"{pivot} = 0",), depth=branch.depth - 1)]


def case_split_solve(
    equations: Sequence[Poly], unknowns: Sequence[str], max_depth: int = 16
) -> List[SolutionFamily]:
    """Solve a polynomial system over the rationals by branch decomposition.

    Strategy, in order: 1. eliminate unknowns occurring linearly with a
    rational coefficient; 2. split univariate equations of degree at most
    two at their rational roots; 3. split monomial equations into disjoint
    variable-vanishing branches; 4. otherwise branch on a linear occurrence
    whose coefficient c is a polynomial (one branch assumes c != 0 and
    eliminates, the other adds c = 0).  Where no rule applies the remaining
    equations are reported as residuals under the label ``depth cap``,
    never dropped.  Branches whose hypotheses become contradictory are
    pruned.

    ``max_depth`` bounds step 4 only.  Each split of steps 2, 3 and 4
    spends one depth and step 1 spends none, but steps 2 and 3 are never
    refused, so depth may fall below 0; step 4 splits only while it is
    above 0.

    The branches are immutable ``_Branch`` records on a worklist.  The loop
    pops one, normalizes it, and either emits it as a family or pushes the
    children ``_step`` gives in reverse, so families come out depth first
    in the order of the rules, and the Python stack does not grow with the
    system.  Equations (through ``_facts``), hypotheses (through
    ``_add_inequations``) and step 4's pivots are kept as primitive integer
    polynomials (``Poly.primitive``), so equal constraints compare equal.

    ``TypeError`` unless ``max_depth`` is an ``int`` (not a ``bool``);
    ``ValueError`` if it is negative, or if an equation mentions a name
    that is not among ``unknowns``.
    """
    if not isinstance(max_depth, int) or isinstance(max_depth, bool):
        raise TypeError(f"max_depth must be an int, got {max_depth!r}")
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    unknowns = tuple(unknowns)
    variables = {name: (i, Poly.var(name)) for i, name in enumerate(unknowns)}
    equations = tuple(equations)
    stray = set().union(*(q.names() for q in equations)) - variables.keys()
    if stray:
        raise ValueError(f"equations mention names that are not unknowns: {', '.join(sorted(stray))}")
    families: List[SolutionFamily] = []
    stack = [_Branch(tuple(_facts(q, variables) for q in equations), (), (), (), max_depth, variables)]
    while stack:
        branch = _normalize(stack.pop())
        if branch is None:
            continue
        children = _step(branch)
        if children is not None:
            stack.extend(reversed(children))
            continue
        chain = dict(reversed(branch.solved))
        labels = branch.labels + ("depth cap",) if branch.eqs else branch.labels
        families.append(SolutionFamily(
            unknowns=unknowns, assignment=chain, free=tuple(n for n in unknowns if n not in chain),
            equations=tuple(r.equation for r in branch.eqs), inequations=branch.ineqs,
            label="; ".join(labels) or "general"))
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


def _classify(structure: _Structure, stage1, a, max_depth: int = 16) -> List[SolutionFamily]:
    """Stage 2, the merge with stage 1 and re-verification, for every structure.

    ``stage1`` is the public stage-1 function, which each classifier passes
    by its module-level name, so a wrapper installed on that name (as
    ``benchmarks/tracer.py`` installs one) sees the stage run.
    """
    mult = _mult_of(a)
    if structure.lie_input:
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
    pivots = {pivot: RationalValue(affine) for pivot, affine in stage.solution.assignments.items()}
    families = []
    for branch in branches:
        family = replace(branch, unknowns=stage.unknowns, assignment={**branch.assignment, **pivots})
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


def postlie_structures(lie, max_depth: int = 16) -> List[SolutionFamily]:
    """All commutative post-Lie structures on the given Lie algebra.

    Stage 1 solves x.[y,z] = [x.y, z] + [y, x.z] (linear); stage 2 imposes
    [x,y].z = x.(y.z) - y.(x.z) by case splitting.
    """
    return _classify(_POSTLIE, postlie_stage1, lie, max_depth)
