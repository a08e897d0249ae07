"""Seeded workloads for the kantor benchmark, with their oracles.

A workload is an *epoch*: a fixed list of jobs, each one user-level call
into the package.  The benchmark repeats whole epochs, so every run sees
the same job mix.  Inputs are generated here from the seed before any
timing starts; the package only sees these generated inputs.

Each job returns the package's result; ``summarize`` reduces it to a small
hashable value after the timer has stopped, and ``check`` (the oracle)
tells whether a summary is correct.  Oracles run after the timed loop, once
per distinct summary of a job.

The mixes are chosen so that neither the median nor the 90th percentile of
job latency falls on the boundary between two job kinds: in each workload
the slow kind makes up well over 10% of the jobs, or well under it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional

import kantor
import kantor.cli

# Small nonzero rationals for dense tables, reference vectors and points.
_SMALL = tuple(Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3))


@dataclass
class Job:
    kind: str
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    sizes: dict = field(default_factory=dict)


# -- input generators ---------------------------------------------------------

def signed_permutation(n: int, rng: random.Random) -> List[List[Fraction]]:
    """A seeded unimodular basis change: a permutation matrix with random signs.

    General unimodular changes (shears) fill in sparse tables, and the cost
    of a job then varies 2-5x from seed to seed (heis3 post-Lie took from
    0.05 s to 50 s), which would show as run-to-run spread.  A signed
    permutation relabels the basis and flips signs, so it keeps each job's
    cost while the package still sees a table it has never seen.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    return [
        [Fraction(rng.choice((-1, 1))) if perm[i] == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]


def dense_table(n: int, rng: random.Random) -> "kantor.Multiplication":
    """A multiplication with all n^3 structure constants small nonzero rationals."""
    entries = {
        (i, j, k): rng.choice(_SMALL)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    }
    return kantor.Multiplication.from_table(n, entries)


def rational_vector(n: int, rng: random.Random) -> "kantor.Element":
    """A vector whose n coordinates are all small nonzero rationals."""
    return kantor.Element([kantor.Poly.const(rng.choice(_SMALL)) for _ in range(n)])


# -- identity -----------------------------------------------------------------

def _holds(verdict) -> bool:
    return verdict.holds


def _expect(value: bool) -> Callable[[bool], Optional[str]]:
    return lambda holds: None if holds == value else f"verdict {holds}, expected {value}"


def _square_at(m, u, x, y):
    """[[m, m]](x, y) for a fixed rational u, by direct evaluation with multiply."""
    mul = kantor.multiply
    return mul(m, u, mul(m, x, y)) - mul(m, mul(m, u, x), y) - mul(m, x, mul(m, u, y))


def square_is_lie_at(m, points) -> bool:
    """Whether the Jacobi identity of the Kantor square holds at every point (u, x, y, z)."""
    for u, x, y, z in points:
        sq = lambda a, b: _square_at(m, u, a, b)
        if not (sq(sq(x, y), z) + sq(sq(z, x), y) + sq(sq(y, z), x)).is_zero():
            return False
    return True


def _square_oracle(table, points, expected: Optional[bool] = None):
    """A verdict on Jacobi for the square must agree with rational points.

    ``holds`` must vanish at every point; a failure must show at one of
    them.  ``expected`` additionally pins the verdict (the catalog basis).
    """
    def check(holds):
        if expected is not None and holds != expected:
            return f"verdict {holds}, catalog basis gives {expected}"
        if square_is_lie_at(table, points) != holds:
            return f"verdict {holds} contradicts evaluation at rational points"
        return None
    return check


def _points(n, rng, count=3):
    return [tuple(rational_vector(n, rng) for _ in range(4)) for _ in range(count)]


def _jacobi_on_square(m):
    return kantor.check_identity(kantor.kantor_square(m), kantor.builtin("jacobi"))


# Dense n=4 squares per epoch, about 0.6 s each: 8 of the 12 jobs.
DENSE_TABLES = 8


def build_identity(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Dense n=4 Kantor squares checked for Jacobi, plus a seeded few catalog checks.

    The dense squares are two thirds of the jobs, so both the median and the
    90th percentile fall inside them, a quarter and 85% of the way up.  The
    catalog jobs (tags, a counter-tag, Jacobi on a square) are drawn from
    every entry without side constraints.  Every table goes through a seeded
    signed permutation; the dense tables start from a fixed draw, because
    fresh random tables differ in cost by about 7% from one to the next.
    """
    rng = random.Random(f"identity:{seed}")
    tags, counter_tags, squares = [], [], []
    for entry in kantor.load_catalog().values():
        if entry.algebra.constraints:
            continue
        changed = kantor.apply_basis_change(entry.mult, signed_permutation(entry.dim, rng))
        bundle = tuple(spec for tag in entry.tags for spec in kantor.builtin(tag))
        tags.append(Job(
            "tags", f"{entry.key}:tags",
            lambda m=changed, b=bundle: kantor.check_identity(m, b),
            _holds, _expect(True),
        ))
        for tag in entry.counter_tags:
            counter_tags.append(Job(
                "counter_tag", f"{entry.key}:not_{tag}",
                lambda m=changed, t=tag: kantor.check_identity(m, kantor.builtin(t)),
                _holds, _expect(False),
            ))
        if entry.mult.is_rational():
            squares.append((entry, changed))
    jobs = rng.sample(tags, 2) + rng.sample(counter_tags, 1)
    for entry, changed in rng.sample(squares, 1):
        expected = _jacobi_on_square(entry.mult).holds
        jobs.append(Job(
            "square", f"{entry.key}:square_jacobi", partial(_jacobi_on_square, changed),
            _holds, _square_oracle(changed, _points(entry.dim, rng), expected),
        ))
    dense_count, dense_dim = (1, 3) if tiny else (DENSE_TABLES, 4)
    base = random.Random("identity:dense")
    for index in range(dense_count):
        table = kantor.apply_basis_change(
            dense_table(dense_dim, base), signed_permutation(dense_dim, rng))
        jobs.append(Job(
            "dense", f"dense{dense_dim}_{index}:square_jacobi", partial(_jacobi_on_square, table),
            _holds, _square_oracle(table, _points(dense_dim, rng)),
        ))
    return Workload("identity", jobs, {"catalog_jobs": 4, "dense_tables": dense_count,
                                       "dense_dim": dense_dim})


# -- classify -----------------------------------------------------------------

CATALOG_CLASSIFY = (
    ("postlie", "heis3"), ("postlie", "S2"), ("postlie", "r2c"), ("postlie", "zero2"),
    ("poisson", "J2"), ("poisson", "qt4"),
)
CHANGED_CLASSIFY = (("postlie", "r2c"), ("postlie", "S2"), ("poisson", "J2"), ("poisson", "qt4"))
# The search-heavy tail, twice in an epoch of 12 jobs: at 1/6 of the jobs
# the 90th percentile falls inside it, and the median falls on r2c.
TAIL_CLASSIFY = ("postlie", "heis4", ("--max-depth", "6"))
TAIL_COPIES = 2


def run_cli(argv):
    """``kantor.cli.main`` with stdout captured in memory: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kantor.cli.main(list(argv))
    return code, out.getvalue()


def _as_is(result):
    return result


def _family(payload, unknowns):
    def rational(text):
        if text.startswith("("):
            num, den = text[1:-1].split(")/(")
            return kantor.parse_poly(num), kantor.parse_poly(den)
        return kantor.parse_poly(text), kantor.Poly.const(1)

    return kantor.SolutionFamily(
        unknowns=unknowns,
        assignment={name: rational(v) for name, v in payload["assignment"].items()},
        free=tuple(payload["free"]),
        equations=tuple(kantor.parse_poly(q) for q in payload["equations"]),
        inequations=tuple(kantor.parse_poly(q) for q in payload["inequations"]),
        label=payload["label"],
    )


def _ansatz_pairs(dim, symmetric):
    """Index pairs of the classifiers' unknowns g<pair>_<k>, in their order."""
    return [(i, j) for i in range(1, dim + 1) for j in range(i if symmetric else i + 1, dim + 1)]


def _tensor(values, dim, symmetric):
    entries = {}
    for pair, (i, j) in enumerate(_ansatz_pairs(dim, symmetric), 1):
        for k in range(1, dim + 1):
            value = values[f"g{pair}_{k}"]
            entries[(i, j, k)] = value
            if i != j:
                entries[(j, i, k)] = value if symmetric else -value
    return kantor.Multiplication.from_table(dim, entries)


def structure_holds(kind, base, tensor) -> bool:
    """Whether ``tensor`` is a Poisson bracket / commutative post-Lie product on ``base``."""
    b = kantor.builtin
    if kind == "poisson":
        return (kantor.check_identity(tensor, b("anticommutative") + b("jacobi")).holds
                and kantor.check_identity([base, tensor], b("leibniz_rule") + b("postlie_3")).holds)
    return kantor.check_identity([tensor, base], b("postlie_2") + b("postlie_3")).holds


class ClassifyOracle:
    """Exit code 0, JSON output, and every family that evaluates is a true structure."""

    def __init__(self, kind, base, rng, points=3):
        self.kind, self.base, self.rng, self.points = kind, base, rng, points
        self.families_checked = 0
        self.families_seen = 0

    def __call__(self, result) -> Optional[str]:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        try:
            payloads = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if not payloads:
            return "no families, but the zero structure always is one"
        symmetric = self.kind == "postlie"
        dim = self.base.dim
        unknowns = tuple(
            f"g{pair}_{k}"
            for pair in range(1, len(_ansatz_pairs(dim, symmetric)) + 1)
            for k in range(1, dim + 1)
        )
        for payload in payloads:
            family = _family(payload, unknowns)
            self.families_seen += 1
            for _ in range(self.points):
                point = {name: self.rng.choice(_SMALL) for name in family.free}
                values = family.evaluate(point)
                if values is None:
                    continue
                self.families_checked += 1
                if not structure_holds(self.kind, self.base, _tensor(values, dim, symmetric)):
                    return f"family {payload['label']!r} fails at {point}"
                break
        return None


def build_classify(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """``kantor classify ... --json`` on catalog entries, basis changes of them, and heis4."""
    rng = random.Random(f"classify:{seed}")
    catalog = kantor.load_catalog()
    workdir.mkdir(parents=True, exist_ok=True)
    jobs: List[Job] = []

    def add(group, kind, ref, base, extra=()):
        argv = ("classify", kind, ref, "--json") + tuple(extra)
        oracle = ClassifyOracle(kind, base, random.Random(f"classify-oracle:{seed}:{ref}"))
        jobs.append(Job(group, " ".join(argv[1:3] + tuple(extra)), lambda a=argv: run_cli(a),
                        _as_is, oracle))

    catalog_jobs = CATALOG_CLASSIFY[:2] if tiny else CATALOG_CLASSIFY
    for kind, key in catalog_jobs:
        add("catalog", kind, f"catalog:{key}", catalog[key].mult)
    changed_jobs = CHANGED_CLASSIFY[:2] if tiny else CHANGED_CLASSIFY
    for kind, key in changed_jobs:
        entry = catalog[key]
        changed = kantor.apply_basis_change(entry.mult, signed_permutation(entry.dim, rng))
        path = workdir / f"{key}.json"
        path.write_text(kantor.render_algebra(
            kantor.Algebra(f"{key}_changed", changed, labels=entry.algebra.labels)))
        add("changed", kind, str(path), changed)
    tail_copies = 0 if tiny else TAIL_COPIES
    kind, key, extra = TAIL_CLASSIFY
    for _ in range(tail_copies):
        add("tail", kind, f"catalog:{key}", catalog[key].mult, extra)
    sizes = {"catalog_jobs": len(catalog_jobs), "basis_changes": len(changed_jobs),
             "tail_jobs": tail_copies}
    return Workload("classify", jobs, sizes)


# -- un_table -----------------------------------------------------------------

def reference_bracket(a, b, u, n):
    """[[A,B]]_ij^k = sum_p u_p (sum_m A_pm^k B_ij^m - A_pi^m B_mj^k - A_pj^m B_im^k).

    ``a`` and ``b`` map (i, j, k) to Fractions, 1-based; so does the result.
    """
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for (p, m, k), x in a.items():
        for (i, j, mm), y in b.items():
            if mm == m:
                add((i, j, k), u[p - 1] * x * y)
    for (p, i, m), x in a.items():
        for (mm, j, k), y in b.items():
            if mm == m:
                add((i, j, k), -u[p - 1] * x * y)
    for (p, j, m), x in a.items():
        for (i, mm, k), y in b.items():
            if mm == m:
                add((i, j, k), -u[p - 1] * x * y)
    return {key: value for key, value in out.items() if value}


def _table_digest(rows) -> str:
    canonical = sorted(
        (first, second, tuple(sorted((idx, Fraction(c.constant_value())) for idx, c in value.coeffs.items())))
        for first, second, value in rows
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def reference_digest(n, u) -> str:
    indices = [(i, j, k) for i in range(1, n + 1) for j in range(1, n + 1) for k in range(1, n + 1)]
    canonical = sorted(
        (first, second, tuple(sorted(
            (idx, Fraction(c)) for idx, c in reference_bracket({first: 1}, {second: 1}, u, n).items())))
        for first in indices for second in indices
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def _un_oracle(n, u, golden: Optional[Path]):
    """Compare with the plain-Fraction contraction; for u = e1 also check U(2) against the golden file."""
    cache = {}

    def check(digest):
        if "ref" not in cache:
            cache["ref"] = reference_digest(n, u)
            cache["golden"] = None
            if golden is not None:
                rendered = kantor.render_un_table(kantor.un_table(2)) + "\n"
                if rendered != golden.read_text():
                    cache["golden"] = "un_table(2) differs from the golden file"
        if cache["golden"]:
            return cache["golden"]
        return None if digest == cache["ref"] else "bracket table differs from the reference"
    return check


def build_un_table(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """``un_table(n)`` with u = e1 twice and with a seeded rational u once per epoch."""
    rng = random.Random(f"un_table:{seed}")
    n = 2 if tiny else 3
    golden = Path(__file__).resolve().parent.parent / "tests" / "golden" / "un2.txt"
    e1 = kantor.Element.basis(n, 0)
    u = rational_vector(n, rng)
    e1_check = _un_oracle(n, [1] + [0] * (n - 1), golden)
    jobs = [
        Job("e1", f"un_table({n}, e1)", lambda: kantor.un_table(n, e1), _table_digest, e1_check)
        for _ in range(2)
    ]
    jobs.append(Job(
        "rational", f"un_table({n}, {[str(c) for c in u.coords]})",
        lambda: kantor.un_table(n, u), _table_digest,
        _un_oracle(n, [c.constant_value() for c in u.coords], None),
    ))
    return Workload("un_table", jobs, {"n": n, "brackets_per_job": n ** 6})


WORKLOADS = {"identity": build_identity, "classify": build_classify, "un_table": build_un_table}
