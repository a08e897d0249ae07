"""Exact-arithmetic workbench for Kantor products of multiplications.

Finite-dimensional nonassociative algebras are given by structure
constants with exact rational (optionally parameterized) entries.  The
package computes Kantor products and squares with symbolic reference
vectors, decides polynomial identities by complete symbolic expansion,
reproduces the classical low-dimensional square tables, and classifies
Poisson and commutative post-Lie structures on a given algebra.
"""

from .algebra import (
    Algebra,
    Element,
    Multiplication,
    Subspace,
    annihilator,
    apply_basis_change,
    centralizer,
    derived_indices,
    multiply,
    nucleus,
    verify_isomorphism,
)
from .catalog import CatalogEntry, load_catalog
from .classify import (
    RationalValue,
    SolutionFamily,
    case_split_solve,
    generic_poisson_structures,
    poisson_stage1,
    poisson_structures,
    postlie_stage1,
    postlie_structures,
)
from .constructions import bracket_from_derivation, kantor_pair, sum_product
from .errors import KantorError
from .files import parse_algebra, render_algebra
from .identities import (
    IdentitySpec,
    Term,
    Verdict,
    builtin,
    builtin_names,
    check_ann_equality,
    check_identity,
)
from .linsolve import LinearSolution, solve_linear
from .poly import Poly, parse_poly
from .product import kantor_product, kantor_square, right_kantor_product, symbolic_vector
from .un import UnElement, elementary, render_un_table, un_bracket, un_table

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "CatalogEntry",
    "Element",
    "IdentitySpec",
    "KantorError",
    "LinearSolution",
    "Multiplication",
    "Poly",
    "RationalValue",
    "SolutionFamily",
    "Subspace",
    "Term",
    "UnElement",
    "Verdict",
    "annihilator",
    "apply_basis_change",
    "bracket_from_derivation",
    "builtin",
    "builtin_names",
    "case_split_solve",
    "centralizer",
    "check_ann_equality",
    "check_identity",
    "derived_indices",
    "elementary",
    "generic_poisson_structures",
    "kantor_pair",
    "kantor_product",
    "kantor_square",
    "load_catalog",
    "multiply",
    "nucleus",
    "parse_algebra",
    "parse_poly",
    "poisson_stage1",
    "poisson_structures",
    "postlie_stage1",
    "postlie_structures",
    "render_algebra",
    "render_un_table",
    "right_kantor_product",
    "solve_linear",
    "sum_product",
    "symbolic_vector",
    "un_bracket",
    "un_table",
    "verify_isomorphism",
]
