import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import kantor
from kantor.catalog import load_catalog
from kantor.cli import BROKEN_PIPE, PRECONDITION_FAILURE, main
from kantor.errors import IndexOutOfRange, ParseError, UndeclaredParam
from kantor.files import parse_algebra, render_algebra
from kantor.product import symbolic_vector
from kantor.un import render_un_table, un_table

GOLDEN = Path(__file__).parent / "golden"

T13_JSON = """
{
  "name": "T13",
  "dim": 3,
  "table": [
    {"i": 1, "j": 1, "k": 1, "coeff": "1"},
    {"i": 1, "j": 2, "k": 2, "coeff": "1/2"},
    {"i": 2, "j": 1, "k": 2, "coeff": "1/2"},
    {"i": 2, "j": 2, "k": 3, "coeff": "1"}
  ]
}
"""


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_parse_matches_catalog_entry():
    algebra = parse_algebra(T13_JSON)
    cat = load_catalog(selftest=False)
    assert algebra.mult == cat["T13"].mult


def test_render_parse_round_trip():
    algebra = parse_algebra(T13_JSON)
    text = render_algebra(algebra)
    again = parse_algebra(text)
    assert again.mult == algebra.mult
    assert render_algebra(again) == text


def test_parse_half_coefficient():
    algebra = parse_algebra('{"dim": 2, "table": [{"i": 1, "j": 2, "k": 2, "coeff": "1/2"}]}')
    assert str(algebra.mult.entry(0, 1, 1)) == "1/2"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_algebra("not json")
    with pytest.raises(ParseError):
        parse_algebra('{"dim": 0, "table": []}')
    with pytest.raises(IndexOutOfRange):
        parse_algebra('{"dim": 2, "table": [{"i": 3, "j": 1, "k": 1, "coeff": "1"}]}')
    with pytest.raises(UndeclaredParam):
        parse_algebra('{"dim": 2, "table": [{"i": 1, "j": 1, "k": 1, "coeff": "q"}]}')
    # JSON integers only (not bools, floats or strings), and a list of strings
    bad = {
        '{"dim": true}': "dim",
        '{"dim": 2.0}': "dim",
        '{"dim": 2, "table": [{"i": 1.9, "j": 1, "k": 1}]}': "table[0]",
        '{"dim": 2, "table": [{"i": 1, "j": true, "k": 1}]}': "table[0]",
        '{"dim": 2, "table": [{"i": 1, "j": 1, "k": "1"}]}': "table[0]",
        '{"dim": 2, "table": [{"i": 1, "j": 1, "k": 1, "coeff": true}]}': "table[0]",
        '{"dim": 2, "table": [{"i": 1, "j": 1, "k": 1, "coeff": "2/0"}]}': "table[0]",
        '{"dim": 2, "constraints": [1]}': "constraints",
        '{"dim": 2, "params": ["a", "b"], "constraints": "a*b"}': "constraints",
        # constraints generate a monomial ideal: one monomial of positive degree each
        '{"dim": 2, "params": ["a", "b"], "constraints": ["a + b"]}': "constraints[0]",
        '{"dim": 2, "params": ["a"], "constraints": ["a^2", "1"]}': "constraints[1]",
    }
    for text, field in bad.items():
        with pytest.raises(ParseError) as info:
            parse_algebra(text)
        assert info.value.field == field, text


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "table": [{"i": 1.9, "j": 1, "k": 1}]}')
    code, out, err = run_cli("square", str(path))
    assert code == 2 and out == ""
    assert "field 'table[0]'" in err


@pytest.mark.parametrize("text, field", [
    ('{"name": ' + "[" * 100000 + "]" * 100000 + ', "dim": 1}', None),
    (json.dumps({"dim": 1, "table": [{"i": 1, "j": 1, "k": 1, "coeff": "(" * 250 + "1" + ")" * 250}]}),
     "table[0]"),
    (json.dumps({"dim": 1, "table": [{"i": 1, "j": 1, "k": 1, "coeff": "-" * 1000 + "1"}]}), "table[0]"),
], ids=["json", "parentheses", "signs"])
def test_cli_deeply_nested_input_is_a_parse_error(tmp_path, text, field):
    with pytest.raises(ParseError, match="nested too deeply") as info:
        parse_algebra(text)
    assert info.value.field == field
    path = tmp_path / "nested.json"
    path.write_text(text)
    code, out, err = run_cli("square", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err and len(err) < 100


def test_cli_check_rejects_a_non_monomial_constraint(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "params": ["a", "b"], "constraints": ["a + b"], '
                    '"table": [{"i": 1, "j": 1, "k": 1, "coeff": "1"}]}')
    code, out, err = run_cli("check", str(path), "--id", "associative")
    assert code == 2 and out == ""
    assert "field 'constraints[0]'" in err


def test_cli_check_fractional_golden():
    code, out, err = run_cli(
        "check", str(GOLDEN / "frac3.json"), "--id", "jacobi,jordan,associative"
    )
    assert code == 4 and err == ""
    assert out == (GOLDEN / "check_frac3.txt").read_text()


def test_cli_check_monomial_constraint_golden():
    # C8 carries the constraints c*f = a*b = b*c = 0: obstructions are reduced modulo them.
    code, out, err = run_cli(
        "check", "catalog:C8", "--id", "associative,jacobi,jordan,left_novikov,novikov_poisson_nvb"
    )
    assert code == 4 and err == ""
    assert out == (GOLDEN / "check_C8.txt").read_text()


def test_cli_check_two_slot_bundles_golden():
    # Two-slot bundles with parameters, reduced modulo C8's monomial constraints,
    # each bundle's repeated obstructions kept once.
    code, out, err = run_cli(
        "check", "catalog:C8", "--id", "left_novikov_poisson,novikov_poisson_nva,transposed_poisson"
    )
    assert code == 4 and err == ""
    assert out == (GOLDEN / "check_C8_pair.txt").read_text()


@pytest.mark.parametrize("flags, golden", [
    ((), "square_frac3.txt"),
    (("--right",), "square_frac3_right.txt"),
], ids=["left", "right"])
def test_cli_square_fractional_golden(flags, golden):
    code, out, err = run_cli("square", str(GOLDEN / "frac3.json"), *flags)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


def test_cli_product_fractional_golden():
    # T02US has halves, frac3 thirds and quarters: the product divides by both.
    code, out, err = run_cli("product", "catalog:T02US", str(GOLDEN / "frac3.json"))
    assert code == 0 and err == ""
    assert out == (GOLDEN / "product_T02US_frac3.txt").read_text()


def test_parse_with_params_and_constraints():
    text = json.dumps({
        "dim": 3,
        "params": ["a", "b"],
        "constraints": ["a*b"],
        "table": [{"i": 1, "j": 1, "k": 1, "coeff": "a + b"}],
    })
    algebra = parse_algebra(text)
    assert set(algebra.params) == {"a", "b"}
    assert len(algebra.constraints) == 1


def test_cli_square_matches_catalog():
    code, out, _ = run_cli("square", "catalog:T13")
    assert code == 0
    assert "e1 * e1 = -u1*e1" in out
    assert "e2 * e2 = -u1*e3" in out


def test_cli_square_with_point_and_right_variant():
    code, out, _ = run_cli("square", "catalog:S2", "--u", "u=(1,0)")
    assert code == 0
    assert out.strip() == "(all products zero)"
    code, out, _ = run_cli("square", "catalog:T13", "--right")
    assert code == 0
    assert "e1 * e1 = -u1*e1" in out


def test_cli_square_from_file(tmp_path):
    path = tmp_path / "t13.json"
    path.write_text(T13_JSON)
    code, out, _ = run_cli("square", str(path), "--u", "u=e1")
    assert code == 0
    assert "e1 * e1 = -e1" in out


def test_cli_product():
    code, out, _ = run_cli("product", "catalog:lp3:pair", "catalog:lp3")
    assert code == 0
    assert out.strip() == "(all products zero)"


def test_cli_check_exit_codes():
    code, out, _ = run_cli("check", "catalog:S2", "--id", "jacobi,anticommutative")
    assert code == 0
    assert out.count("holds") == 2

    code, out, _ = run_cli("check", "catalog:S2", "--id", "commutative")
    assert code == 4
    assert "FAILS" in out and "obstruction" in out

    code, _, err = run_cli("check", "catalog:S2", "--id", "nonsense")
    assert code == 2

    code, _, err = run_cli("check", "catalog:S2", "--id", "leibniz_rule")
    assert code == 3  # needs a two-product entry

    code, out, _ = run_cli("check", "catalog:qt4", "--id", "transposed_poisson")
    assert code == 0


def test_cli_check_modulo_constraints():
    code, out, _ = run_cli("check", "catalog:C8", "--id", "associative")
    assert code == 0


def test_cli_check_pair_reference():
    # Two-slot identities always pair the entry's main product with its companion.
    main_result = run_cli("check", "catalog:C8", "--id", "poisson")
    pair_result = run_cli("check", "catalog:C8:pair", "--id", "poisson")
    assert pair_result == main_result
    assert main_result[0] == 4 and "obstruction: -a" in main_result[1]
    # One-slot identities on ``:pair`` check the companion itself.
    code, out, _ = run_cli("check", "catalog:C8:pair", "--id", "commutative")
    assert code == 4
    code, out, _ = run_cli("check", "catalog:C8", "--id", "commutative")
    assert code == 0


def test_cli_classify_json():
    code, out, _ = run_cli("classify", "postlie", "catalog:S2", "--json")
    assert code == 0
    families = json.loads(out)
    assert len(families) == 2
    values = sorted(f["assignment"]["g2_2"] for f in families)
    assert values == ["0", "1"]

    code, out, _ = run_cli("classify", "poisson", "catalog:J2", "--json")
    assert code == 0
    families = json.loads(out)
    assert len(families) == 1
    assert families[0]["free"] == []


def test_cli_classify_text_output():
    code, out, _ = run_cli("classify", "postlie", "catalog:S2")
    assert code == 0
    assert "stage 1 (all reference vectors):" in out
    assert "stage 1 (fixed reference vector e1):" in out
    assert "family 1:" in out and "family 2:" in out


def test_cli_un_table_golden():
    code, out, _ = run_cli("un-table", "--dim", "2")
    assert code == 0
    assert out == (GOLDEN / "un2.txt").read_text()


@pytest.mark.parametrize(
    "args, golden",
    [
        (("--dim", "3"), "un3.txt"),
        (("--dim", "3", "--u", "u=(1,3/2,-1)"), "un3_rational.txt"),
    ],
)
def test_cli_un_table_dim3_golden(args, golden):
    code, out, _ = run_cli("un-table", *args)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_cli_un_table_symbolic_u_golden():
    code, out, _ = run_cli("un-table", "--dim", "2", "--u", "sym")
    assert code == 0
    assert out == (GOLDEN / "un2_sym.txt").read_text()


@pytest.mark.parametrize(
    "args, golden",
    [
        (("postlie", "catalog:heis3", "--json"), "classify_postlie_heis3.json"),
        (("postlie", "catalog:heis3"), "classify_postlie_heis3.txt"),
        (("poisson", "catalog:qt4", "--json"), "classify_poisson_qt4.json"),
        (("generic-poisson", "catalog:qt4", "--json"), "classify_generic_poisson_qt4.json"),
        (("postlie", "catalog:zero2", "--json"), "classify_postlie_zero2.json"),
        (("postlie", "catalog:r2c", "--json"), "classify_postlie_r2c.json"),
        (("poisson", "catalog:heis4", "--json"), "classify_poisson_heis4.json"),
        (("poisson", "catalog:heis4"), "classify_poisson_heis4.txt"),
        (("generic-poisson", "catalog:heis4"), "classify_generic_poisson_heis4.txt"),
        (("postlie", "catalog:heis4", "--max-depth", "2", "--json"),
         "classify_postlie_heis4_depth2.json"),
        (("postlie", "catalog:heis4", "--max-depth", "4", "--json"),
         "classify_postlie_heis4_depth4.json"),
        # [e1,e2] = 1/2 e3: equations, pivots and values with Fraction coefficients.
        (("postlie", str(GOLDEN / "heis3_half.json")), "classify_postlie_heis3_half.txt"),
        (("postlie", str(GOLDEN / "heis3_half.json"), "--json"), "classify_postlie_heis3_half.json"),
    ],
)
def test_cli_classify_golden(args, golden):
    code, out, _ = run_cli("classify", *args)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_cli_classify_json_writes_one_family_at_a_time(monkeypatch):
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

        def flush(self):
            pass

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["classify", "postlie", "catalog:heis4", "--max-depth", "4", "--json"]) == 0
    assert "".join(out.writes) == (GOLDEN / "classify_postlie_heis4_depth4.json").read_text()
    # A family's object opens on a line indented by two spaces, its fields by four.
    assert max(write.count("\n  {") for write in out.writes) == 1
    assert sum(write.count("\n  {") for write in out.writes) > 1

    monkeypatch.setattr(kantor.cli, "postlie_structures", lambda mult, max_depth: [])
    out.writes.clear()
    assert main(["classify", "postlie", "catalog:heis4", "--json"]) == 0
    assert "".join(out.writes) == json.dumps([], indent=2) + "\n"


def test_cli_classify_heis4_depth6_digest():
    # The output is about 330 KB, so the golden is its sha256.
    code, out, _ = run_cli("classify", "postlie", "catalog:heis4", "--max-depth", "6", "--json")
    assert code == 0
    digest = (GOLDEN / "classify_postlie_heis4_depth6.sha256").read_text().strip()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_classify_heis4_depth8_digest():
    # Depth 8 runs the residual substitutions of about 500 terms that depth 6
    # only starts; the output is about 1 MB.
    code, out, _ = run_cli("classify", "postlie", "catalog:heis4", "--max-depth", "8", "--json")
    assert code == 0
    digest = (GOLDEN / "classify_postlie_heis4_depth8.sha256").read_text().strip()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_classify_heis4_default_depth_digest():
    # Families print their chains, not their expansions, so the default
    # depth writes about 15 MB.
    code, out, _ = run_cli("classify", "postlie", "catalog:heis4", "--json")
    assert code == 0
    assert len(out.encode()) < 16_000_000
    digest = (GOLDEN / "classify_postlie_heis4_depth16.sha256").read_text().strip()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reused_parser_keeps_no_state_between_calls():
    first = run_cli("classify", "postlie", "catalog:r2c", "--json")
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(["catalog", "show"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(["classify", "bogus", "catalog:r2c"])
    assert exc.value.code == 2
    again = run_cli("classify", "postlie", "catalog:r2c", "--json")
    assert again == first
    assert first[0] == 0 and first[1] == (GOLDEN / "classify_postlie_r2c.json").read_text()


def test_importing_the_cli_builds_no_parser():
    code = (
        "import kantor.cli as cli\n"
        "assert cli._build_parser.cache_info().currsize == 0\n"
        "assert cli.main(['catalog', 'list']) == 0\n"
        "assert cli._build_parser.cache_info().currsize == 1\n"
    )
    src = str(Path(kantor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_un_table_symbolic_u():
    code, out, _ = run_cli("un-table", "--dim", "2", "--u", "sym")
    assert code == 0
    assert out == render_un_table(un_table(2, symbolic_vector(2))) + "\n"
    assert "u1" in out and "u2" in out
    assert run_cli("un-table", "--dim", "2", "--u", "symbolic") == (0, out, "")
    assert run_cli("un-table", "--dim", "2", "--u", "e1") == (0, (GOLDEN / "un2.txt").read_text(), "")


def test_cli_un_table_determinism():
    _, first, _ = run_cli("un-table", "--dim", "2")
    _, second, _ = run_cli("un-table", "--dim", "2")
    assert first == second


def test_cli_classify_determinism_and_depth_flag():
    _, first, _ = run_cli("classify", "postlie", "catalog:S2", "--json")
    _, second, _ = run_cli("classify", "postlie", "catalog:S2", "--json")
    assert first == second
    code, out, _ = run_cli("classify", "postlie", "catalog:S2", "--json", "--max-depth", "2")
    assert code == 0
    assert json.loads(out) == json.loads(first)
    code, out, err = run_cli("classify", "postlie", "catalog:heis3", "--max-depth", "-1")
    assert code == 2 and out == ""
    assert err == "error: --max-depth must be non-negative, got -1\n"


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_cli_postlie_refuses_a_non_lie_input(flags):
    code, out, err = run_cli("classify", "postlie", "catalog:A2", *flags)
    assert code == PRECONDITION_FAILURE and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: input is not a Lie algebra")


def test_cli_witt():
    code, out, _ = run_cli("witt", "star", "--x", "L(0)", "--y", "I(0)",
                           "--u", "L(1)", "--w", "L(2)", "--a", "7")
    assert code == 0
    assert out.strip() == "-3*I(3)"

    code, out, _ = run_cli("witt", "curly", "--x", "L(0)", "--y", "L(1)",
                           "--u", "L(0)", "--w", "L(0)", "--a", "5")
    assert code == 0
    assert out.strip() == "L(1)"

    code, out, _ = run_cli("witt", "demo", "--u", "L(1)+I(0)", "--w", "1/2*L(2)")
    assert code == 0
    assert "star(" in out and "curly(" in out


@pytest.mark.parametrize(
    "args",
    [
        ("demo", "--a", "1/0"),
        ("demo", "--a", "x"),
        ("star", "--x", "1/0*L(1)"),
        ("curly", "--u", "1/0*I(2)"),
        ("demo", "--w", "3/0*L(2)"),
    ],
)
def test_cli_witt_bad_rational(args):
    code, out, err = run_cli("witt", *args)
    assert code == 2 and out == ""
    assert err.startswith("error: bad rational in ")


def test_cli_catalog_commands():
    code, out, _ = run_cli("catalog", "list")
    assert code == 0
    assert "T13" in out and "S2" in out

    code, out, _ = run_cli("catalog", "show", "C8")
    assert code == 0
    assert "constraints" in out and "companion" in out

    code, out, _ = run_cli("catalog", "selftest")
    assert code == 0
    assert "passed" in out

    code, out, _ = run_cli("catalog", "export", "T13")
    assert code == 0
    exported = parse_algebra(out)
    assert exported.mult == load_catalog(selftest=False)["T13"].mult


@pytest.mark.parametrize("action", ["show", "export"])
def test_cli_catalog_entry_actions_need_a_name(action):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err):
        main(["catalog", action])
    assert exc.value.code == 2
    assert f"catalog {action} needs a name" in err.getvalue()
    assert "None" not in err.getvalue()
    code, out, err = run_cli("catalog", action, "missing")
    assert (code, out, err) == (2, "", "error: no catalog entry named 'missing'\n")


def test_cli_bad_references():
    code, _, err = run_cli("square", "catalog:missing")
    assert code == 2
    code, _, err = run_cli("square", "/no/such/file.json")
    assert code == 2
    code, _, err = run_cli("square", "catalog:T13", "--u", "u=(1,0)")
    assert code == 2
    code, out, err = run_cli("square", "catalog:C8:pair:junk")
    assert code == 2 and out == ""
    assert err == "error: bad catalog reference 'catalog:C8:pair:junk'\n"


def test_cli_reader_closing_the_pipe_early_exits_quietly():
    # About 108 KB of output: more than the pipe holds plus what readline
    # buffers, so a later write must meet the closed pipe.
    src = str(Path(kantor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kantor", "un-table", "--dim", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == BROKEN_PIPE
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("args, code, err", [
    (("square", "catalog:heis3:pair"), 3, "heis3 has no companion product"),
    (("square", "catalog:T13", "--u", "e9"), 2, "basis index out of range in u spec 'e9'"),
    (("square", "catalog:T13", "--u", "1,2"), 2, "cannot parse u spec '1,2'"),
    (("witt", "star", "--x", "Q(1)"), 2, "cannot parse graded element 'Q(1)'"),
    (("product", "catalog:T13", "catalog:heis4"), 3, "operands have different dimensions"),
    (("check", "catalog:T13", "--id", ","), 2, "no identity names given"),
    (("check", "catalog:T13", "--id", "poisson"), 3,
     "identity 'poisson' needs a two-product catalog entry"),
    (("un-table", "--dim", "0"), 3, "dimension must be positive"),
], ids=["no-companion", "u-index", "u-syntax", "graded", "dims", "no-ids", "one-slot", "un-dim"])
def test_cli_error_exit_paths(args, code, err):
    assert run_cli(*args) == (code, "", f"error: {err}\n")


def test_cli_selftest_reports_a_broken_entry(monkeypatch):
    import dataclasses

    import kantor.catalog as catalog_mod

    a2 = load_catalog(selftest=False)["A2"]
    monkeypatch.setattr(catalog_mod, "_CACHE", {"A2": dataclasses.replace(a2, tags=("jacobi",))})
    monkeypatch.setattr(catalog_mod, "_VERIFIED", False)
    code, out, err = run_cli("catalog", "selftest")
    assert (code, out) == (5, "")
    assert err == "self-test FAILED: A2: tag 'jacobi' fails on the main multiplication: ['-1', '1']\n"


@pytest.mark.parametrize("text, message, field", [
    ("[1, 2]", "top level must be an object", None),
    ('{"name": 3, "dim": 1}', "must be a string", "name"),
    ('{"dim": 2, "basis": ["a"]}', "must be a list of 2 strings", "basis"),
    ('{"dim": 1, "params": [1]}', "must be a list of strings", "params"),
    ('{"dim": 1, "table": {"i": 1}}', "must be a list of entries", "table"),
    ('{"dim": 1, "table": [[1, 1, 1]]}', "entry must be an object", "table[0]"),
], ids=["top-level", "name", "basis", "params", "table", "entry"])
def test_parse_algebra_checks_each_field(tmp_path, text, message, field):
    with pytest.raises(ParseError) as info:
        parse_algebra(text)
    assert info.value.field == field
    expected = message if field is None else f"{message} (field {field!r})"
    assert str(info.value) == expected
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_cli("square", str(path)) == (2, "", f"error: {expected}\n")


def test_parse_algebra_accepts_an_integer_coefficient():
    algebra = parse_algebra('{"dim": 2, "table": [{"i": 1, "j": 2, "k": 2, "coeff": 2}]}')
    assert str(algebra.mult.entry(0, 1, 1)) == "2"
    assert algebra.mult == parse_algebra(
        '{"dim": 2, "table": [{"i": 1, "j": 2, "k": 2, "coeff": "2"}]}').mult
