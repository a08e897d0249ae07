"""Output does not depend on how a sum stores its terms, nor on name registration order.

The obstructions of ``check_identity`` come in one canonical order (spec,
coordinate, readable generic monomial), so what the checker and the
classifiers print must stay the same when the product kernel sums its
pairs in another order, when names are registered in another order, and
under another string hash seed.
"""

import io
import itertools
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import kantor
from kantor import algebra, classify, identities, linsolve, poly, product
from kantor.algebra import Multiplication
from kantor.cli import main
from kantor.identities import builtin, check_identity
from kantor.product import kantor_square

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(kantor.__file__).resolve().parent.parent


@pytest.fixture
def reversed_kernel(monkeypatch):
    """Every ``sum_of_products`` call sums its pairs last to first, each with its factors swapped.

    The value is the same; the order in which the result stores its terms
    is not.
    """
    original = poly.sum_of_products

    def reversed_sum(pairs):
        return original([(b, a) for a, b in reversed(list(pairs))])

    for module in (poly, algebra, identities, product, classify, linsolve):
        monkeypatch.setattr(module, "sum_of_products", reversed_sum)


def cli_output(*args):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(args))
    return code, out.getvalue()


def squares():
    """Kantor squares, in a symbolic u, of 20 seeded dense fractional 3x3 tables."""
    out = []
    for seed in range(20):
        rng = random.Random(seed)
        table = {key: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4)))
                 for key in itertools.product(range(1, 4), repeat=3)}
        out.append(kantor_square(Multiplication.from_table(3, table)))
    return out


def test_obstruction_order_does_not_depend_on_the_kernel(request):
    jacobi = builtin("jacobi")
    expected = [check_identity(square, jacobi).obstructions for square in squares()]
    assert all(expected)
    request.getfixturevalue("reversed_kernel")
    for square, obstructions in zip(squares(), expected):
        got = check_identity(square, jacobi).obstructions
        assert got == obstructions
        assert [str(p) for p in got] == [str(p) for p in obstructions]


def test_cli_output_does_not_depend_on_the_kernel(reversed_kernel):
    code, out = cli_output(
        "check", "catalog:C8", "--id", "associative,jacobi,jordan,left_novikov,novikov_poisson_nvb"
    )
    assert code == 4
    assert out == (GOLDEN / "check_C8.txt").read_text()
    code, out = cli_output("classify", "postlie", "catalog:heis4", "--max-depth", "4", "--json")
    assert code == 0
    assert out == (GOLDEN / "classify_postlie_heis4_depth4.json").read_text()


# Registers the names of the heis4 post-Lie run in a shuffled order before
# anything else sees them, then prints the run's JSON.
SHUFFLED_RUN = """
import random, sys
from kantor.cli import main
from kantor.poly import Poly
names = ([f"g{p}_{k}" for p in range(1, 11) for k in range(1, 5)]
         + [f"x{v}_{i}" for v in range(1, 4) for i in range(1, 5)]
         + [f"u{i}" for i in range(1, 5)])
random.Random(int(sys.argv[1])).shuffle(names)
for name in names:
    Poly.var(name)
sys.exit(main(["classify", "postlie", "catalog:heis4", "--max-depth", "4", "--json"]))
"""


@pytest.mark.parametrize("shuffle_seed, hash_seed", [(1, "0"), (2, "12345")])
def test_classify_output_does_not_depend_on_registration_or_hash_order(shuffle_seed, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", SHUFFLED_RUN, str(shuffle_seed)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "classify_postlie_heis4_depth4.json").read_text()
