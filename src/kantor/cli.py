"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 precondition violation, 4 a
requested check failed, 5 catalog self-test failure, 141 the reader closed
standard output early (as in ``kantor ... | head``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog as catalog_mod
from . import witt as witt_mod
from .algebra import Element
from .classify import (
    _STRUCTURES,
    generic_poisson_structures,
    poisson_structures,
    postlie_stage1,
    postlie_structures,
)
from .errors import (
    CatalogSelfTestFailed,
    IndexOutOfRange,
    KantorError,
    ParseError,
    UndeclaredParam,
    UnknownIdentity,
)
from .files import parse_algebra, render_algebra
from .identities import builtin, builtin_names, check_identity
from .poly import Poly
from .product import kantor_product, kantor_square, right_kantor_product, symbolic_vector
from .un import render_un_table, un_table

PARSE_FAILURE = 2
PRECONDITION_FAILURE = 3
CHECK_FAILURE = 4
SELFTEST_FAILURE = 5
# The status a shell reports for a process that SIGPIPE ended.
BROKEN_PIPE = 141


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def _load_ref(ref: str):
    """Resolve ``catalog:NAME[:pair]`` or a file path to (mult, algebra, slots).

    ``mult`` is the referenced product (the companion for ``:pair``);
    ``slots`` is ``[main product, companion]`` of a two-product catalog
    entry, for two-slot identities, or None.
    """
    if ref.startswith("catalog:"):
        parts = ref.split(":")
        key = parts[1]
        entries = catalog_mod.load_catalog(selftest=False)
        if key not in entries:
            raise _CliFailure(PARSE_FAILURE, f"no catalog entry named {key!r}")
        entry = entries[key]
        slots = None if entry.pair is None else [entry.mult, entry.pair]
        if len(parts) > 2:
            if parts[2:] != ["pair"]:
                raise _CliFailure(PARSE_FAILURE, f"bad catalog reference {ref!r}")
            if entry.pair is None:
                raise _CliFailure(PRECONDITION_FAILURE, f"{key} has no companion product")
            return entry.pair, entry.algebra, slots
        return entry.mult, entry.algebra, slots
    path = Path(ref)
    if not path.exists():
        raise _CliFailure(PARSE_FAILURE, f"no such file: {ref}")
    algebra = parse_algebra(path.read_text())
    return algebra.mult, algebra, None


_SYMBOLIC_U = ("sym", "symbolic")


def _parse_fraction(text: str, where: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _CliFailure(PARSE_FAILURE, f"bad rational in {where}") from None


def _parse_u(spec: str | None, dim: int) -> Element | None:
    if spec is None or spec in _SYMBOLIC_U:
        return None
    text = spec.strip()
    if text.startswith("u="):
        text = text[2:].strip()
    m = re.fullmatch(r"e(\d+)", text)
    if m:
        index = int(m.group(1))
        if not 1 <= index <= dim:
            raise _CliFailure(PARSE_FAILURE, f"basis index out of range in u spec {spec!r}")
        return Element.basis(dim, index - 1)
    if text.startswith("(") and text.endswith(")"):
        pieces = [p.strip() for p in text[1:-1].split(",")]
        if len(pieces) != dim:
            raise _CliFailure(PARSE_FAILURE, f"u spec {spec!r} needs {dim} coordinates")
        return Element([Poly.const(_parse_fraction(p, f"u spec {spec!r}")) for p in pieces])
    raise _CliFailure(PARSE_FAILURE, f"cannot parse u spec {spec!r}")


def _parse_graded(text: str) -> witt_mod.GradedElement:
    total = witt_mod.GradedElement.zero()
    if text.strip() in ("", "0"):
        return total
    term = re.compile(
        r"\s*(?P<sign>[+-])?\s*(?:(?P<coef>\d+(?:/\d+)?)\s*\*\s*)?(?P<kind>[LI])\(?(?P<idx>-?\d+)\)?\s*"
    )
    pos = 0
    while pos < len(text):
        m = term.match(text, pos)
        if not m:
            raise _CliFailure(PARSE_FAILURE, f"cannot parse graded element {text!r}")
        coeff = _parse_fraction(m.group("coef") or "1", f"graded element {text!r}")
        if m.group("sign") == "-":
            coeff = -coeff
        gen = witt_mod.L if m.group("kind") == "L" else witt_mod.I
        total = total + gen(int(m.group("idx"))).scale(coeff)
        pos = m.end()
    return total


def _family_payload(family, text):
    """The ``--json`` record of one family; ``text`` prints a value or polynomial."""
    return {
        "label": family.label,
        "assignment": {name: text(value) for name, value in family.assignment.items()},
        "free": list(family.free),
        "equations": [text(q) for q in family.equations],
        "inequations": [text(q) for q in family.inequations],
    }


def _cmd_square(args) -> int:
    mult, algebra, _ = _load_ref(args.source)
    u = _parse_u(args.u, mult.dim)
    square = right_kantor_product(mult, mult, u) if args.right else kantor_square(mult, u)
    print(square.render(algebra.labels))
    return 0


def _cmd_product(args) -> int:
    a, algebra, _ = _load_ref(args.first)
    b, _, _ = _load_ref(args.second)
    if a.dim != b.dim:
        raise _CliFailure(PRECONDITION_FAILURE, "operands have different dimensions")
    u = _parse_u(args.u, a.dim)
    print(kantor_product(a, b, u).render(algebra.labels))
    return 0


def _cmd_check(args) -> int:
    mult, algebra, slots = _load_ref(args.source)
    names = [n.strip() for n in args.id.split(",") if n.strip()]
    if not names:
        raise _CliFailure(PARSE_FAILURE, "no identity names given")
    failed = False
    for name in names:
        try:
            bundle = builtin(name)
        except UnknownIdentity:
            raise _CliFailure(
                PARSE_FAILURE,
                f"unknown identity {name!r}; known: {', '.join(builtin_names())}",
            ) from None
        nslots = max(spec.nslots for spec in bundle)
        if nslots == 1:
            mults = [mult]
        else:
            if slots is None:
                raise _CliFailure(
                    PRECONDITION_FAILURE,
                    f"identity {name!r} needs a two-product catalog entry",
                )
            mults = slots
        verdict = check_identity(mults, bundle, modulo=algebra.constraints)
        status = "holds" if verdict.holds else "FAILS"
        print(f"{name}: {status}")
        for p in verdict.obstructions:
            print(f"  obstruction: {p}")
        failed = failed or not verdict.holds
    return CHECK_FAILURE if failed else 0


def _cmd_classify(args) -> int:
    if args.max_depth < 0:
        raise _CliFailure(PARSE_FAILURE, f"--max-depth must be non-negative, got {args.max_depth}")
    mult, algebra, _ = _load_ref(args.source)
    labels = algebra.labels
    if args.kind == "poisson":
        families = poisson_structures(mult, max_depth=args.max_depth)
    elif args.kind == "generic-poisson":
        families = generic_poisson_structures(mult)
    else:
        families = postlie_structures(mult, max_depth=args.max_depth)
        if not args.json:
            print("stage 1 (all reference vectors):")
            print("  " + _render_stage(postlie_stage1(mult), labels))
            print("stage 1 (fixed reference vector e1):")
            fixed = postlie_stage1(mult, fixed_u=Element.basis(mult.dim, 0))
            print("  " + _render_stage(fixed, labels))
    # Families share most of their values: print each distinct one once.
    text = functools.lru_cache(maxsize=None)(str)
    if args.json:
        print(json.dumps([_family_payload(f, text) for f in families], indent=2))
        return 0
    ansatz, _ = _STRUCTURES[args.kind].ansatz(mult.dim)
    for idx, family in enumerate(families, 1):
        print(f"family {idx}: {family.label}")
        print(f"  {family.describe(text)}")
        tensor = family.tensor(ansatz)
        if tensor is not None:
            for line in tensor.render(labels, "*").splitlines():
                print(f"  {line}")
    return 0


def _render_stage(stage, labels) -> str:
    return "; ".join(stage.tensor.render(labels, "*").splitlines())


def _cmd_un_table(args) -> int:
    if args.dim < 1:
        raise _CliFailure(PRECONDITION_FAILURE, "dimension must be positive")
    # Without --u the table uses v_1, the classical choice; sym asks for a symbolic u.
    if args.u in _SYMBOLIC_U:
        u = symbolic_vector(args.dim)
    else:
        u = _parse_u(args.u, args.dim)
    rows = un_table(args.dim, u)
    print(render_un_table(rows))
    return 0


def _cmd_witt(args) -> int:
    cfg = witt_mod.WittConfig(a=_parse_fraction(args.a, f"--a {args.a!r}"), w=_parse_graded(args.w))
    u = _parse_graded(args.u)
    if args.action == "demo":
        samples = [
            ("L(0)", "L(1)"),
            ("L(1)", "I(0)"),
            ("I(0)", "L(2)"),
            ("L(2)", "L(-1)"),
        ]
        for sx, sy in samples:
            x, y = _parse_graded(sx), _parse_graded(sy)
            print(f"star({sx}, {sy}) = {witt_mod.witt_star(x, y, u, cfg)}")
            print(f"curly({sx}, {sy}) = {witt_mod.witt_curly(x, y, u, cfg)}")
        return 0
    x, y = _parse_graded(args.x), _parse_graded(args.y)
    if args.action == "star":
        print(witt_mod.witt_star(x, y, u, cfg))
    else:
        print(witt_mod.witt_curly(x, y, u, cfg))
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "selftest":
        try:
            catalog_mod.load_catalog(selftest=True)
        except CatalogSelfTestFailed as exc:
            print(f"self-test FAILED: {exc}", file=sys.stderr)
            return SELFTEST_FAILURE
        print("catalog self-test passed")
        return 0
    entries = catalog_mod.load_catalog(selftest=False)
    if args.action == "export":
        if not args.name or args.name not in entries:
            raise _CliFailure(PARSE_FAILURE, f"no catalog entry named {args.name!r}")
        print(render_algebra(entries[args.name].algebra), end="")
        return 0
    if args.action == "list":
        for key, entry in sorted(entries.items()):
            pair = f" (+{entry.pair_kind})" if entry.pair is not None else ""
            tags = ", ".join(entry.tags)
            print(f"{key}: dim {entry.dim}{pair}; tags: {tags}")
        return 0
    key = args.name
    if key not in entries:
        raise _CliFailure(PARSE_FAILURE, f"no catalog entry named {key!r}")
    entry = entries[key]
    print(f"{key} (dim {entry.dim})")
    if entry.algebra.params:
        print("parameters: " + ", ".join(entry.algebra.params))
    if entry.algebra.constraints:
        print("constraints: " + ", ".join(f"{c} = 0" for c in entry.algebra.constraints))
    print(entry.mult.render(entry.algebra.labels))
    if entry.pair is not None:
        print(f"companion ({entry.pair_kind}):")
        print(entry.pair.render(entry.algebra.labels, "o"))
    if entry.tags:
        print("tags: " + ", ".join(entry.tags))
    if entry.notes:
        print(f"notes: {entry.notes}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused.

    Parsing keeps no state in the parser (each call gets a fresh
    namespace), so one parser serves every call in the process.
    """
    parser = argparse.ArgumentParser(
        prog="kantor",
        description="Exact workbench for Kantor products of multiplications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("square", help="Kantor square of a multiplication")
    p.add_argument("source", help="algebra file or catalog:NAME")
    p.add_argument("--u", help='reference vector: "u=(1,0,1)", "u=e3" or "sym"')
    p.add_argument("--right", action="store_true", help="use the right Kantor product")
    p.set_defaults(func=_cmd_square)

    p = sub.add_parser("product", help="Kantor product of two multiplications")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--u")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("check", help="verify polynomial identities")
    p.add_argument("source")
    p.add_argument("--id", required=True, help="comma-separated identity names")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="classify compatible structures")
    p.add_argument("kind", choices=list(_STRUCTURES))
    p.add_argument("source")
    p.add_argument("--max-depth", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("un-table", help="bracket table of elementary multiplications")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--u")
    p.set_defaults(func=_cmd_un_table)

    p = sub.add_parser("witt", help="graded products on the L/I generators")
    p.add_argument("action", choices=["demo", "star", "curly"])
    p.add_argument("--u", default="L(0)")
    p.add_argument("--w", default="L(0)")
    p.add_argument("--a", default="0")
    p.add_argument("--x", default="L(0)")
    p.add_argument("--y", default="L(1)")
    p.set_defaults(func=_cmd_witt)

    p = sub.add_parser("catalog", help="built-in algebras")
    p.add_argument("action", choices=["list", "show", "export", "selftest"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "catalog" and args.action == "show" and not args.name:
        parser.error("catalog show needs a name")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except _CliFailure as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except (ParseError, UndeclaredParam, IndexOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_FAILURE
    except CatalogSelfTestFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SELFTEST_FAILURE
    except KantorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
