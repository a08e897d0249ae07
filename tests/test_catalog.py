from fractions import Fraction as F

import pytest

from kantor.algebra import Element, multiply
from kantor.catalog import CatalogEntry, load_catalog, verify_entry
from kantor.errors import CatalogSelfTestFailed
from kantor.identities import builtin, check_identity
from kantor.product import kantor_square


def test_catalog_loads_and_selftests():
    cat = load_catalog(selftest=True)
    assert len(cat) >= 20
    for key in ("T02US", "T13", "T14", "A1alpha", "A2", "A3", "A0", "Aalpha",
                "S2", "J2", "C8", "NP3", "C8R", "heis3", "heis4", "r2c",
                "qt4", "lp3", "AC3", "nil2", "N3", "ML3", "ML5", "AA3", "PL3",
                "zero2"):
        assert key in cat


def test_tag_examples():
    cat = load_catalog(selftest=False)
    assert {"commutative", "jordan"} <= set(cat["T13"].tags)
    assert "anticommutative" in cat["A1alpha"].tags
    assert "jacobi" in cat["A1alpha"].counter_tags
    assert {"anticommutative", "jacobi"} <= set(cat["S2"].tags)


def test_verify_entry_detects_wrong_tags():
    cat = load_catalog(selftest=False)
    broken = CatalogEntry(
        algebra=cat["A2"].algebra,
        tags=("jacobi",),
    )
    with pytest.raises(CatalogSelfTestFailed):
        verify_entry(broken)


def test_verify_entry_detects_wrong_square():
    cat = load_catalog(selftest=False)
    t13 = cat["T13"]
    broken = CatalogEntry(
        algebra=t13.algebra,
        expected_squares=(cat["T14"].expected_squares[0],),
    )
    with pytest.raises(CatalogSelfTestFailed):
        verify_entry(broken)


def test_ml5_is_a_nondegenerate_mock_lie_instance():
    cat = load_catalog(selftest=False)
    ml5 = cat["ML5"].mult
    # a triple product survives, so the closed-form square is nonzero
    a, b = Element.basis(5, 0), Element.basis(5, 1)
    p = multiply(ml5, a, a)
    assert not multiply(ml5, p, b).is_zero()
    assert not kantor_square(ml5).is_zero()


def test_c8_constraints_are_needed_for_associativity():
    cat = load_catalog(selftest=False)
    dot = cat["C8"].mult
    plain = check_identity(dot, builtin("associative"))
    assert not plain.holds
    modded = check_identity(dot, builtin("associative"), modulo=cat["C8"].algebra.constraints)
    assert modded.holds
    assert "associative" in cat["C8"].tags


def test_binary_lie_square_targets_have_the_forcing_invariants():
    from kantor.algebra import annihilator, derived_indices

    cat = load_catalog(selftest=False)
    # two-step nilpotent with a one-dimensional square
    assert derived_indices(cat["heis3"].mult) == (2, 3)
    assert derived_indices(cat["heis4"].mult) == (2, 3)
    # metabelian, not nilpotent, one-dimensional square, central line
    assert derived_indices(cat["r2c"].mult) == (2, None)
    assert annihilator(cat["r2c"].mult).dim == 1


def test_expected_square_specializations():
    cat = load_catalog(selftest=False)
    aalpha = cat["Aalpha"]
    lie_member = aalpha.mult.substitute({"alpha": F(2)})
    assert kantor_square(lie_member).is_zero()
