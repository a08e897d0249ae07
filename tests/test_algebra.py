import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantor.algebra import (
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
from kantor.catalog import load_catalog
from kantor.errors import DimMismatch, SingularMatrix, SymbolicEntries
from kantor.linsolve import mat_identity, mat_inverse, mat_mul, rank
from kantor.poly import Poly, parse_poly
from kantor.un import UnElement
from kantor.witt import GradedElement


def rand_mult(rng, dim):
    entries = {}
    for _ in range(rng.randint(0, 2 * dim)):
        key = (rng.randint(1, dim), rng.randint(1, dim), rng.randint(1, dim))
        entries[key] = F(rng.randint(-3, 3))
    return Multiplication.from_table(dim, entries)


def rand_matrix(rng, dim):
    while True:
        m = [[F(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        if rank(m) == dim:
            return m


def test_multiply_examples():
    cat = load_catalog(selftest=False)
    t13 = cat["T13"].mult
    e1, e2 = Element.basis(3, 0), Element.basis(3, 1)
    assert multiply(t13, e1, e2) == e2.scale(F(1, 2))
    assert multiply(t13, Element.zero(3), e2).is_zero()

    a3 = cat["A3"].mult
    e3 = Element.basis(3, 2)
    assert multiply(a3, e1, e3) == e1
    assert multiply(a3, e3, e1) == e1.scale(-1)


def test_multiply_is_bilinear():
    rng = random.Random(5)
    for _ in range(30):
        dim = rng.randint(1, 4)
        m = rand_mult(rng, dim)
        x = Element([Poly.const(rng.randint(-3, 3)) for _ in range(dim)])
        xp = Element([Poly.const(rng.randint(-3, 3)) for _ in range(dim)])
        y = Element([Poly.const(rng.randint(-3, 3)) for _ in range(dim)])
        lam = F(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = multiply(m, x + xp.scale(lam), y)
        rhs = multiply(m, x, y) + multiply(m, xp, y).scale(lam)
        assert lhs == rhs


def several_per_product(rng, dim):
    """A table in which most products e_i*e_j have several nonzero coordinates."""
    entries = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in rng.sample(range(1, dim + 1), rng.randint(0, dim)):
                entries[(i, j, k)] = F(rng.randint(-3, 3), rng.randint(1, 3))
    return Multiplication.from_table(dim, entries)


def one_entry(rng, dim):
    """A table with a single nonzero entry, as the elementary multiplications of U(n)."""
    key = tuple(rng.randint(1, dim) for _ in range(3))
    return Multiplication.from_table(dim, {key: F(rng.choice([-2, 1, 3]), rng.randint(1, 2))})


def test_multiply_matches_the_sum_over_entries():
    # (x*y)_k = sum_ij x_i y_j entry(i, j, k), for symbolic x and y with some zero
    # coordinates, basis vectors, whose 1 is one shared object, and vectors whose 1s
    # are made afresh by Poly.const(1), which the product must multiply like any value.
    rng = random.Random(11)
    shared_one = Element.basis(1, 0).coords[0]
    for _ in range(40):
        dim = rng.randint(1, 4)

        def vectors(prefix):
            symbolic = [Poly.var(f"{prefix}{i}") if rng.random() < 0.8 else Poly.zero() for i in range(dim)]
            index = rng.randrange(dim)
            fresh = [Poly.const(1) if i == index or rng.random() < 0.3 else Poly.zero() for i in range(dim)]
            mixed = [Poly.const(1) if rng.random() < 0.5 else c for c in symbolic]
            return [Element(symbolic), Element.basis(dim, index), Element(fresh), Element(mixed)]

        for m in (rand_mult(rng, dim), several_per_product(rng, dim), one_entry(rng, dim)):
            for x in vectors("x"):
                for y in vectors("y"):
                    expected = [
                        sum(
                            (x.coords[i] * y.coords[j] * m.entry(i, j, k)
                             for i in range(dim) for j in range(dim)),
                            Poly.zero(),
                        )
                        for k in range(dim)
                    ]
                    assert multiply(m, x, y) == Element(expected)
            for i in range(dim):
                e_i = Element.basis(dim, i)
                assert e_i.coords[i] is shared_one
                for j in range(dim):
                    fresh_j = Element([Poly.const(int(k == j)) for k in range(dim)])
                    assert fresh_j.coords[j] is not shared_one
                    assert multiply(m, e_i, Element.basis(dim, j)) == multiply(m, e_i, fresh_j) == m.row(i, j)


def former_render(m, labels=None, opsym="*"):
    """``Multiplication.render`` as it was: every e_i * e_j of the n x n grid through ``row``."""
    labels = labels or [f"e{i + 1}" for i in range(m.dim)]
    lines = []
    for i in range(m.dim):
        for j in range(m.dim):
            value = m.row(i, j)
            assert value == Element([m.entry(i, j, k) for k in range(m.dim)])
            if not value.is_zero():
                lines.append(f"{labels[i]} {opsym} {labels[j]} = {value.render(labels)}")
    return "\n".join(lines) if lines else "(all products zero)"


def test_render_matches_the_grid_of_rows():
    rng = random.Random(17)
    coeffs = [F(1), F(-1), F(2, 3), parse_poly("t"), parse_poly("-t"), parse_poly("t - 1")]
    for _ in range(60):
        dim = rng.randint(1, 4)
        planes = rng.sample(range(1, dim + 1), rng.randint(0, dim))  # the other planes stay empty
        entries = {}
        for _ in range(rng.randint(0, 2 * dim)):
            if planes:
                key = (rng.choice(planes), rng.randint(1, dim), rng.randint(1, dim))
                entries[key] = rng.choice(coeffs)
        m = Multiplication.from_table(dim, entries)
        labels = [f"b{i}" for i in range(dim)]
        for args in ((), (labels,), (labels, "o")):
            assert m.render(*args) == former_render(m, *args)
    assert Multiplication.zero(2).render() == "(all products zero)"


def test_sparse_storage_invariants():
    rng = random.Random(13)
    for _ in range(40):
        dim = rng.randint(1, 4)
        a = rand_mult(rng, dim) + several_per_product(rng, dim).scale(parse_poly("t"))
        for m in (a, a.opposite(), a.substitute({"t": F(1, 2)}), a.scale(0), a + a):
            assert all(not value.is_zero() for value in m.entries.values())
            assert list(m.entries) == sorted(m.entries)
            assert list(m.table()) == sorted(m.table())
        negated = a + a.scale(-1)
        assert negated == Multiplication.zero(dim) and negated.is_zero() and not negated.entries
        assert a.opposite().opposite() == a
        for (i, j, k), value in a.entries.items():
            assert a.opposite().entry(j, i, k) == value
        # the dense constructor, explicit zeros included, agrees with the sparse table
        dense = [[[a.entry(i, j, k) for k in range(dim)] for j in range(dim)] for i in range(dim)]
        assert Multiplication(dense) == Multiplication.from_table(dim, a.table()) == a
        assert Multiplication(dense).entries == a.entries


def test_multiply_dim_mismatch():
    with pytest.raises(DimMismatch):
        multiply(Multiplication.zero(2), Element.zero(3), Element.zero(2))


def test_element_coerces_only_coordinates_that_are_not_polys():
    a = parse_poly("a")
    polys = Element([a, Poly.const(2)])
    assert polys.coords[0] is a
    # A non-Poly coordinate, wherever it sits, is coerced like a structure constant.
    assert Element([a, 2]).coords == (a, Poly.const(2))
    assert Element([F(1, 2), a]).coords == (Poly.const(F(1, 2)), a)
    assert Element(["a + 1", a]).coords == (parse_poly("a + 1"), a)
    assert Element(iter([3, "b"])).coords == (Poly.const(3), parse_poly("b"))
    assert all(type(c) is Poly for c in Element([a, 2, F(1, 3), "b"]).coords)
    for bad in (1.5, None, [1]):
        with pytest.raises(TypeError):
            Element([a, bad])
        with pytest.raises(TypeError):
            Element([bad])


@pytest.mark.parametrize("value, name", [
    (parse_poly("x + 1"), "terms"),
    (parse_poly("x + 1"), "_hash"),
    (Element([1, "x"]), "coords"),
    (Multiplication.from_table(1, {(1, 1, 1): 1}), "entries"),
    (UnElement.basis(1, 1, 1, 1), "coeffs"),
    (GradedElement({("L", 0): 1}), "terms"),
], ids=["Poly", "Poly-hash", "Element", "Multiplication", "UnElement", "GradedElement"])
def test_value_types_refuse_attribute_assignment(value, name):
    # A Poly's cached hash is sound only because its terms never change.
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="is immutable"):
        value.extra = None


def oracle_annihilator_dim(m):
    """Independent route: expand v*e_j and e_j*v with a symbolic v."""
    from kantor.linsolve import nullspace

    n = m.dim
    v = Element.symbolic("v", n)
    rows = []
    for j in range(n):
        for side in (multiply(m, v, Element.basis(n, j)), multiply(m, Element.basis(n, j), v)):
            for coord in side.coords:
                row = [F(0)] * n
                for mono, coeff in coord.monomials():
                    (name, exp), = mono
                    row[int(name[1:]) - 1] = coeff
                rows.append(row)
    return len(nullspace(rows, n))


def test_annihilator():
    cat = load_catalog(selftest=False)
    heis = cat["heis3"].mult
    ann = annihilator(heis)
    assert ann.basis == ((F(0), F(0), F(1)),)

    a2 = cat["A2"].mult
    assert annihilator(a2).dim == 0
    assert oracle_annihilator_dim(a2) == 0

    zero = Multiplication.zero(4)
    assert annihilator(zero).dim == 4

    for key in ("T13", "A3", "ML5", "N3"):
        m = cat[key].mult
        ann = annihilator(m)
        assert ann.dim == oracle_annihilator_dim(m)
        for v in ann.basis_elements():
            for j in range(m.dim):
                assert multiply(m, v, Element.basis(m.dim, j)).is_zero()
                assert multiply(m, Element.basis(m.dim, j), v).is_zero()


def test_annihilator_requires_rational():
    cat = load_catalog(selftest=False)
    with pytest.raises(SymbolicEntries):
        annihilator(cat["A1alpha"].mult)


def test_derived_indices():
    cat = load_catalog(selftest=False)
    assert derived_indices(Multiplication.zero(3)) == (1, 2)
    # anti-associative instance: nilpotency index four
    assert derived_indices(cat["AA3"].mult) == (2, 4)
    # idempotent: neither series terminates
    assert derived_indices(cat["T13"].mult) == (None, None)
    assert derived_indices(cat["S2"].mult) == (2, None)
    assert derived_indices(cat["heis3"].mult) == (2, 3)


def test_nucleus():
    cat = load_catalog(selftest=False)
    # associative algebras associate everywhere
    assert nucleus(cat["N3"].mult).dim == 3
    assert nucleus(Multiplication.zero(3)).dim == 3

    t02 = cat["T02US"].mult
    nuc = nucleus(t02)
    # the unit e1 + e2 associates; verify by brute force over basis triples
    assert nuc.contains([F(1), F(1), F(0)])
    basis = [Element.basis(3, i) for i in range(3)]
    for v in nuc.basis_elements():
        for a in basis:
            for b in basis:
                for args in ((v, a, b), (a, v, b), (a, b, v)):
                    x, y, z = args
                    lhs = multiply(t02, multiply(t02, x, y), z)
                    rhs = multiply(t02, x, multiply(t02, y, z))
                    assert lhs == rhs
    # and e3 does not associate, so the nucleus is exactly the unit line
    assert nuc.dim == 1


def test_centralizer():
    cat = load_catalog(selftest=False)
    a2 = cat["A2"].mult
    assert centralizer(a2, Element.zero(3)).dim == 3
    c = centralizer(a2, Element.basis(3, 0))
    assert c.dim == 2 and c.contains([F(1), F(0), F(0)]) and c.contains([F(0), F(0), F(1)])

    n3 = cat["N3"].mult
    assert centralizer(n3, Element.basis(3, 2)).dim == 3


def test_basis_change_round_trip_and_composition():
    rng = random.Random(9)
    cat = load_catalog(selftest=False)
    mults = [cat[k].mult for k in ("T13", "A2", "heis3")]
    for m in mults:
        for _ in range(5):
            M = rand_matrix(rng, m.dim)
            changed = apply_basis_change(m, M)
            assert apply_basis_change(changed, mat_inverse(M)) == m

    # composition convention: witnesses compose by matrix product M*N
    m = cat["T13"].mult
    M, N = rand_matrix(rng, 3), rand_matrix(rng, 3)
    b = apply_basis_change(m, M)
    c = apply_basis_change(b, N)
    assert verify_isomorphism(M, m, b)
    assert verify_isomorphism(N, b, c)
    assert verify_isomorphism(mat_mul(M, N), m, c)


def test_basis_change_examples():
    cat = load_catalog(selftest=False)
    t13 = cat["T13"].mult
    assert apply_basis_change(t13, mat_identity(3)) == t13
    zero = Multiplication.zero(2)
    assert apply_basis_change(zero, [[F(3), F(0)], [F(0), F(5)]]) == zero
    with pytest.raises(SingularMatrix):
        apply_basis_change(t13, [[F(1), F(0), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(1)]])


def test_verify_isomorphism_examples():
    cat = load_catalog(selftest=False)
    t13, t14 = cat["T13"].mult, cat["T14"].mult
    assert verify_isomorphism(mat_identity(3), t13, t13)
    assert not verify_isomorphism(mat_identity(3), t13, t14)


def test_symbolic_basis_change():
    # rescaling e2 by a rational carries g*e2 tables onto unit tables
    m = Multiplication.from_table(2, {(1, 1, 2): parse_poly("3")})
    M = [[F(1), F(0)], [F(0), F(3)]]
    target = Multiplication.from_table(2, {(1, 1, 2): 1})
    assert apply_basis_change(m, M) == target


def test_subspace_canonical_equality():
    s1 = Subspace.from_vectors(3, [[F(1), F(1), F(0)], [F(0), F(2), F(0)]])
    s2 = Subspace.from_vectors(3, [[F(1), F(0), F(0)], [F(3), F(1), F(0)]])
    assert s1 == s2
    assert s1.contains([F(5), F(-2), F(0)])
    assert not s1.contains([F(0), F(0), F(1)])


# -- structure tools against references read off the entries ----------------

def sparse_rational_tables():
    """Seeded sparse rational tables of dimension 2-4, a few entries each."""
    rng = random.Random(23)
    tables = []
    for _ in range(36):
        dim = rng.randint(2, 4)
        entries = {}
        for _ in range(rng.randint(1, dim + 2)):
            key = tuple(rng.randint(1, dim) for _ in range(3))
            entries[key] = F(rng.choice([-2, -1, 1, 1, 3]), rng.randint(1, 3))
        tables.append(Multiplication.from_table(dim, entries))
    return tables


def kernel_of(rows, n):
    from kantor.linsolve import nullspace

    return Subspace.from_vectors(n, nullspace(rows, n))


def entry(m, i, j, k):
    return m.entry(i, j, k).constant_value()


def reference_annihilator(m):
    n = m.dim
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([entry(m, i, j, k) for i in range(n)])  # (v*e_j)_k
            rows.append([entry(m, j, i, k) for i in range(n)])  # (e_j*v)_k
    return kernel_of(rows, n)


def reference_centralizer(m, x):
    n = m.dim
    rows = []
    for k in range(n):
        rows.append([sum((x[i] * entry(m, i, j, k) for i in range(n)), F(0)) for j in range(n)])
        rows.append([sum((x[i] * entry(m, j, i, k) for i in range(n)), F(0)) for j in range(n)])
    return kernel_of(rows, n)


def reference_nucleus(m):
    n = m.dim
    r = range(n)
    # assoc[x][y][z][k]: coefficient of e_k in (e_x e_y) e_z - e_x (e_y e_z)
    assoc = [[[[sum((entry(m, x, y, p) * entry(m, p, z, k) - entry(m, y, z, p) * entry(m, x, p, k)
                     for p in r), F(0))
                for k in r] for z in r] for y in r] for x in r]
    rows = []
    for a in r:
        for b in r:
            for k in r:
                rows.append([assoc[i][a][b][k] for i in r])
                rows.append([assoc[a][i][b][k] for i in r])
                rows.append([assoc[a][b][i][k] for i in r])
    return kernel_of(rows, n)


def test_structure_tools_match_references_from_the_entries():
    rng = random.Random(29)
    nonzero = {"annihilator": 0, "centralizer": 0, "nucleus": 0}
    proper = {"annihilator": 0, "centralizer": 0, "nucleus": 0}
    for m in sparse_rational_tables():
        n = m.dim
        ann = reference_annihilator(m)
        probes = [[F(0)] * n, [F(int(i == 0)) for i in range(n)],
                  [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]]
        probes += [list(v) for v in ann.basis[:1]]
        pairs = [("annihilator", annihilator(m), ann), ("nucleus", nucleus(m), reference_nucleus(m))]
        pairs += [("centralizer", centralizer(m, Element([Poly.const(a) for a in x])),
                   reference_centralizer(m, x)) for x in probes]
        for name, got, want in pairs:
            assert got == want, (name, m.table())
            nonzero[name] += got.dim > 0
            proper[name] += 0 < got.dim < n
    # the tables exercise nonzero and proper kernels of every tool
    assert all(count > 0 for count in nonzero.values()), nonzero
    assert all(count > 0 for count in proper.values()), proper


def test_subspace_contains_matches_the_rank_test():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 4)
        vectors = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                   for _ in range(rng.randint(0, n))]
        if vectors and rng.random() < 0.5:
            # a dependent generator, so the stored basis is shorter than the input
            vectors.append([a + 2 * b for a, b in zip(vectors[0], vectors[-1])])
        space = Subspace.from_vectors(n, vectors)
        candidates = [[F(rng.randint(-2, 2)) for _ in range(n)]]
        if vectors:
            lam = F(rng.randint(-3, 3), rng.randint(1, 3))
            candidates.append([lam * a - b for a, b in zip(vectors[0], vectors[-1])])
        for v in candidates:
            assert space.contains(v) == (rank(vectors + [v]) == rank(vectors)), (vectors, v)


def test_subspace_full_and_order():
    for n in range(0, 5):
        full = Subspace.full(n)
        assert full == Subspace.from_vectors(n, mat_identity(n))
        assert full.dim == n and Subspace.zero(n) <= full
        assert not n or not full <= Subspace.zero(n)


def test_subspace_dimension_mismatches():
    with pytest.raises(DimMismatch):
        Subspace.from_vectors(3, [[F(1)]])
    space = Subspace.from_vectors(3, [[F(1), F(0), F(0)]])
    for vector in ([F(0), F(0), F(0), F(5)], [F(1), F(0)]):
        with pytest.raises(DimMismatch):
            space.contains(vector)
    heis = load_catalog(selftest=False)["heis3"].mult
    with pytest.raises(DimMismatch):
        centralizer(heis, Element([Poly.const(1)] * 4))


NAMES = ["s", "t", "v"]


def polys():
    monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(1, 2), max_size=2).map(
        lambda d: tuple(sorted(d.items()))
    )
    coeffs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    return st.dictionaries(monomials, coeffs, max_size=3).map(Poly)


def bindings():
    values = st.one_of(polys(), st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
                       st.integers(-2, 2))
    return st.dictionaries(st.sampled_from(NAMES + ["unused"]), values, max_size=3)


def _terms(p):
    return list(p.terms.items())


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(1, 2)] * 3), polys(), max_size=6), bindings())
def test_tensor_substitution_is_entrywise_substitution(table, binding):
    m = Multiplication.from_table(2, table)
    out = m.substitute(binding)
    expected = {key: e.substitute(binding) for key, e in m.entries.items()}
    expected = {key: e for key, e in expected.items() if not e.is_zero()}
    assert list(out.entries) == list(expected)
    assert [_terms(e) for e in out.entries.values()] == [_terms(e) for e in expected.values()]
    x = Element(list(m.entries.values()))
    assert [_terms(c) for c in x.substitute(binding).coords] == [
        _terms(c.substitute(binding)) for c in x.coords
    ]


def test_tensor_substitution_rejects_inexact_values_even_for_unused_names():
    m = Multiplication.from_table(2, {(1, 1, 2): parse_poly("t + 1")})
    x = Element([parse_poly("t"), Poly.const(2)])
    for binding in ({"t": 0.5}, {"never_in_an_entry": 0.5}, {"t": 1, "other": "1"}, {"t": None}):
        with pytest.raises(TypeError):
            m.substitute(binding)
        with pytest.raises(TypeError):
            x.substitute(binding)
    with pytest.raises(TypeError):
        Multiplication.zero(2).substitute({"t": 1.0})
    with pytest.raises(TypeError):
        Element.zero(2).substitute({"t": 1.0})
