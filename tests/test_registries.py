"""The catalog and the builtin identities, pinned as text.

``tests/golden/catalog.txt`` holds ``kantor catalog list`` and, for every
entry in sorted order, ``catalog show``, ``catalog export`` and
``square catalog:NAME``.  ``tests/golden/identity_registry.txt`` holds one
line per builtin name: each spec of its bundle with its name, nvars, nslots
and terms.  A change to how either registry is written down must leave
both byte-identical.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

from kantor.catalog import load_catalog
from kantor.cli import main
from kantor.identities import App, builtin, builtin_names

GOLDEN = Path(__file__).parent / "golden"


def _cli(*args):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(args))
    assert code == 0, args
    return out.getvalue()


def catalog_text():
    parts = ["$ kantor catalog list\n", _cli("catalog", "list")]
    for name in sorted(load_catalog(selftest=False)):
        for args in (("catalog", "show", name), ("catalog", "export", name),
                     ("square", f"catalog:{name}")):
            parts += [f"$ kantor {' '.join(args)}\n", _cli(*args)]
    return "".join(parts)


def _term(term):
    if isinstance(term, App):
        return f"m{term.slot}({_term(term.left)},{_term(term.right)})"
    return f"v{term.index}"


def registry_text():
    lines = []
    for name in builtin_names():
        specs = "; ".join(
            f"{spec.name}/{spec.nvars}/{spec.nslots}: "
            + " + ".join(f"{c}*{_term(t)}" for c, t in spec.terms)
            for spec in builtin(name)
        )
        lines.append(f"{name} = {specs}\n")
    return "".join(lines)


def test_catalog_output_matches_golden():
    assert catalog_text() == (GOLDEN / "catalog.txt").read_text()


def test_catalog_list_matches_golden():
    assert _cli("catalog", "list") == (GOLDEN / "catalog_list.txt").read_text()


def test_identity_registry_matches_golden():
    assert registry_text() == (GOLDEN / "identity_registry.txt").read_text()
