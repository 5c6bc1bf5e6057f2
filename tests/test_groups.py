import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdlab import groups, intlinalg
from ppdlab.cone import ppd_cone_hrep
from ppdlab.fourier import GroupFunction, exponent_table
from ppdlab.groups import (
    Homomorphism,
    Subgroup,
    abelian_group_catalog,
    all_subgroups,
    annihilator,
    dual_group,
    dual_hom,
    factorizations,
    format_group,
    hom_apply,
    hom_index_map,
    hom_validate,
    make_group,
    pairing,
    pairing_exponent,
    parse_group,
    quotient,
    subgroup_from_generators,
)
from ppdlab.ppd import _translation_invariant


def brute_force_subgroups(G):
    """Oracle: closures of every subset of elements (feasible for tiny groups)."""
    elems = list(range(G.order))
    add = G.index_tables[0]
    found = set()
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            members = {G.index(G.zero)}
            frontier = set(combo)
            while True:
                new = set()
                for a in members | frontier:
                    for b in members | frontier:
                        s = add[a][b]
                        if s not in members and s not in frontier and s not in new:
                            new.add(s)
                if not new:
                    members |= frontier
                    break
                members |= frontier
                frontier = new
            found.add(frozenset(members))
        if r >= 3:
            break  # generating sets of size <= 3 suffice at these orders
    return found


def test_make_group_basics():
    assert make_group([2]).order == 2
    assert make_group([4, 2]).order == 8
    assert make_group([1]).order == 1
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([0, 3])


def test_element_indexing_bijection():
    G = make_group([4, 2, 3])
    seen = set()
    for i in range(G.order):
        x = G.element(i)
        assert G.index(x) == i
        seen.add(x)
    assert len(seen) == G.order


def test_group_literals_roundtrip():
    G = parse_group("Z4xZ2")
    assert G.moduli == (4, 2)
    assert format_group(G) == "Z4xZ2"
    with pytest.raises(ValueError):
        parse_group("A5")


def test_subgroup_from_generators_golden():
    Z4 = make_group([4])
    H = subgroup_from_generators(Z4, [(2,)])
    assert H.elements == (0, 2)
    assert subgroup_from_generators(Z4, []).elements == (0,)
    V = make_group([2, 2])
    D = subgroup_from_generators(V, [(1, 1)])
    assert set(V.element(i) for i in D.elements) == {(0, 0), (1, 1)}


def test_subgroup_generator_idempotence():
    G = make_group([4, 2])
    H = subgroup_from_generators(G, [(2, 1)])
    regenerated = subgroup_from_generators(G, [G.element(i) for i in H.elements])
    assert regenerated.elements == H.elements


def test_all_subgroups_counts():
    assert len(all_subgroups(make_group([4]))) == 3
    assert len(all_subgroups(make_group([2, 2]))) == 5
    assert len(all_subgroups(make_group([1]))) == 1
    # Z_p has 2, Z_{p^2} has 3, Z6 has 4
    assert len(all_subgroups(make_group([6]))) == 4
    # Z2^r: sum of Gaussian binomials; Zn x Zn: sum of gcd(a, b) over divisors of n
    assert len(all_subgroups(make_group([2, 2, 2]))) == 16
    assert len(all_subgroups(make_group([2, 2, 2, 2]))) == 67
    assert len(all_subgroups(make_group([4, 4]))) == 15
    assert len(all_subgroups(make_group([8, 8]))) == 37


def test_index_tables_match_tuple_arithmetic():
    for G in abelian_group_catalog(16) + [make_group(m) for m in ([8, 8], [2] * 6, [4] * 3)]:
        add, neg = G.index_tables
        exponents = exponent_table(G.moduli)
        assert neg is G.neg_table
        for i in range(G.order):
            x = G.element(i)
            assert G.neg_index(i) == neg[i] == G.index(G.neg(x))
            for j in range(G.order):
                y = G.element(j)
                assert add[i][j] == G.index(G.add(x, y))
                assert exponents[i][j] == pairing_exponent(G, x, y)


def test_cone_hrep_builds_no_add_table(monkeypatch):
    def no_add_table(moduli):
        raise AssertionError(f"add table built for {moduli}")

    monkeypatch.setattr(groups, "_add_table", no_add_table)
    G = make_group([4, 2])
    ppd_cone_hrep.__wrapped__(G)  # the uncached body
    assert G.neg_table == tuple(G.index(G.neg(x)) for x in G.elements())


def test_groups_are_plain_values():
    for moduli in ([1], [4], [6, 2], [2, 2, 2]):
        G, twin = make_group(moduli), make_group(moduli)
        assert G.__slots__ == ("moduli", "order", "_weights")
        assert dual_group(G) is G
        assert twin.neg_table is G.neg_table
        assert twin.index_tables[0] is G.index_tables[0]


def test_hom_index_map_matches_hom_apply():
    """Every quotient projection and subgroup inclusion through order 16, their
    duals, and a matrix with negative entries."""
    homs = [Homomorphism(make_group([4, 2]), make_group([4]), ((-1, 2),))]
    for G in abelian_group_catalog(16):
        for H in all_subgroups(G):
            for phi in (quotient(G, H).projection_hom, H.as_group()[1]):
                homs += [phi, dual_hom(phi)]
    for phi in homs:
        A, B = phi.source, phi.target
        assert hom_index_map(phi) == tuple(
            B.index(hom_apply(phi, A.element(i))) for i in range(A.order)
        ), phi


def test_all_subgroups_matches_bruteforce():
    for moduli in ([4], [2, 2], [6], [4, 2], [3, 3]):
        G = make_group(moduli)
        got = {frozenset(H.elements) for H in all_subgroups(G)}
        assert got == brute_force_subgroups(G)


def test_all_subgroups_bound():
    with pytest.raises(ValueError):
        all_subgroups(make_group([128]))


def test_quotient_golden():
    Z4 = make_group([4])
    H = subgroup_from_generators(Z4, [(2,)])
    Q = quotient(Z4, H)
    assert Q.group.order == 2
    assert Q.coset_reps == (0, 1)
    assert Q.group.moduli == (2,)
    trivial = subgroup_from_generators(Z4, [])
    assert quotient(Z4, trivial).group.order == 4
    G = make_group([4, 2])
    K = subgroup_from_generators(G, [(2, 0)])
    assert quotient(G, K).group.order == 4


def test_quotient_projection_separates_exactly_cosets():
    G = make_group([4, 2])
    for H in all_subgroups(G):
        Q = quotient(G, H)
        assert Q.group.order * H.order == G.order
        for i in range(G.order):
            for j in range(G.order):
                same = Q.projection[i] == Q.projection[j]
                diff = G.add(G.element(i), G.neg(G.element(j)))
                assert same == (G.index(diff) in H.elements)


def test_dual_group_and_pairing_golden():
    Z4 = make_group([4])
    assert dual_group(Z4).moduli == (4,)
    assert abs(pairing(Z4, (1,), (1,)) - 1j) < 1e-12
    assert pairing(Z4, (0,), (3,)) == 1
    V = make_group([2, 2])
    assert abs(pairing(V, (1, 1), (1, 0)) + 1) < 1e-12


def test_pairing_bimultiplicative_exhaustive():
    for moduli in ([4], [2, 2], [6], [3, 2]):
        G = make_group(moduli)
        E = G.exponent()
        for a in G.elements():
            for b in G.elements():
                for x in G.elements():
                    lhs = pairing_exponent(G, G.add(a, b), x)
                    rhs = (pairing_exponent(G, a, x) + pairing_exponent(G, b, x)) % E
                    assert lhs == rhs


def test_annihilator_golden():
    Z4 = make_group([4])
    H = subgroup_from_generators(Z4, [(2,)])
    perp = annihilator(Z4, H)
    assert perp.elements == (0, 2)
    assert annihilator(Z4, subgroup_from_generators(Z4, [])).order == 4
    full = subgroup_from_generators(Z4, [(1,)])
    assert annihilator(Z4, full).elements == (0,)


def test_subgroup_without_generators_is_generated_by_its_elements():
    """A Subgroup given no generators takes its nonzero elements as them, so
    the annihilator, translation invariance and the realization all read
    generators that generate it."""
    Z4 = make_group([4])
    H = Subgroup(Z4, [0, 2], ())
    assert H.generators == ((2,),)
    assert annihilator(Z4, H).elements == (0, 2)
    assert not _translation_invariant(GroupFunction(Z4, [2, 1, 0, 1]), H, 1.0)
    assert _translation_invariant(GroupFunction(Z4, [1, 0, 1, 0]), H, 1.0)
    for G in abelian_group_catalog(8):
        for K in all_subgroups(G):
            bare = Subgroup(G, K.elements, ())
            assert annihilator(G, bare) == annihilator(G, K), (G, K)
            H_abs, incl = bare.as_group()
            assert H_abs.order == K.order, (G, K)
            assert {G.index(hom_apply(incl, x)) for x in H_abs.elements()} == set(K.elements)


def test_lagrange_and_annihilator_order_sweep():
    for G in abelian_group_catalog(16):
        for H in all_subgroups(G):
            Q = quotient(G, H)
            assert H.order * Q.group.order == G.order
            assert annihilator(G, H).order == G.order // H.order


def test_double_annihilator_sweep():
    for G in abelian_group_catalog(16):
        for H in all_subgroups(G):
            perp = annihilator(G, H)
            back = annihilator(dual_group(G), perp)
            assert back.elements == H.elements


def test_hom_validate_golden():
    Z2, Z4 = make_group([2]), make_group([4])
    ok = Homomorphism(Z2, Z4, ((2,),))
    hom_validate(ok)
    assert hom_apply(ok, (1,)) == (2,)
    bad = Homomorphism(Z2, Z4, ((1,),))
    with pytest.raises(ValueError):
        hom_validate(bad)
    red = Homomorphism(Z4, Z2, ((1,),))
    hom_validate(red)
    assert hom_apply(red, (3,)) == (1,)
    G = make_group([4, 2])
    ident = Homomorphism(G, G, ((1, 0), (0, 1)))
    hom_validate(ident)
    assert hom_apply(ident, (3, 1)) == (3, 1)


def test_hom_from_lists_equals_hom_from_tuples():
    G, T = make_group([4, 2]), make_group([8])
    listed = Homomorphism(G, T, [[2, 4]])
    tupled = Homomorphism(G, T, ((2, 4),))
    assert listed.matrix == ((2, 4),)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed != Homomorphism(G, T, ((2, 0),)) and listed != ((2, 4),)
    assert repr(listed) == ("Homomorphism(source=FiniteAbelianGroup([4, 2]), "
                            "target=FiniteAbelianGroup([8]), matrix=((2, 4),))")
    hom_index_map.cache_clear()
    assert hom_index_map(listed) is hom_index_map(tupled)
    assert hom_index_map.cache_info().currsize == 1
    with pytest.raises(ValueError) as info:
        Homomorphism(G, T, [[2, 4, 0]])
    assert str(info.value) == "homomorphism matrix has wrong shape"


def test_hom_additivity():
    G = make_group([4, 2])
    T = make_group([8])
    phi = Homomorphism(G, T, ((2, 4),))
    hom_validate(phi)
    for x in G.elements():
        for y in G.elements():
            assert hom_apply(phi, G.add(x, y)) == T.add(
                hom_apply(phi, x), hom_apply(phi, y)
            )


def test_dual_hom_adjoint_identity():
    G = make_group([4])
    T = make_group([2])
    phi = Homomorphism(G, T, ((1,),))  # reduction mod 2
    phat = dual_hom(phi)
    assert phat.source.moduli == (2,) and phat.target.moduli == (4,)
    for b in T.elements():
        for x in G.elements():
            lhs = pairing_exponent(G, hom_apply(phat, b), x) / G.exponent()
            rhs = pairing_exponent(T, b, hom_apply(phi, x)) / T.exponent()
            assert (lhs - rhs) % 1 == 0


def test_dual_hom_is_cached():
    G = make_group([4, 2])
    for H in all_subgroups(G):
        phi = quotient(G, H).projection_hom
        assert dual_hom(phi) is dual_hom(phi)
    bad = Homomorphism(make_group([2]), make_group([4]), ((1,),))  # not well defined
    for _ in range(2):  # an error is raised again, not cached
        with pytest.raises(ValueError):
            dual_hom(bad)


def test_subgroup_realization_roundtrip():
    for G in abelian_group_catalog(12):
        for H in all_subgroups(G):
            H_abs, incl = H.as_group()
            hom_validate(incl)
            assert H_abs.order == H.order
            image = {G.index(hom_apply(incl, x)) for x in H_abs.elements()}
            assert image == set(H.elements)


def test_factorizations():
    assert factorizations(1) == [(1,)]
    assert set(factorizations(8)) == {(8,), (4, 2), (2, 2, 2)}
    assert set(factorizations(12)) == {(12,), (6, 2), (4, 3), (3, 2, 2)}


def test_catalog_size():
    cat = abelian_group_catalog(12)
    # orders 1..12 contribute 1,1,1,2,1,2,1,3,2,2,1,4 presentations
    assert len(cat) == 21
    assert make_group([1]) in cat


def test_smith_normal_form_properties():
    import random

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        U, D, V = intlinalg.smith_normal_form(A)
        assert _product(_product(U, A), V) == D
        for W in (U, V):
            assert abs(_det(W)) == 1
        diag = [D[i][i] for i in range(min(n, m))]
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert D[i][j] == 0


def _product(A, B):
    """The integer matrix product A @ B."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _det(M) -> int:
    """Leibniz determinant of a small integer matrix, so the unimodularity of
    U and V is checked without an elimination."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(M[i][perm[i]] for i in range(n))
    return total


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(4,), (2, 2), (6,), (4, 2), (3, 3), (8,)]), st.data())
def test_subgroup_closure_property(moduli, data):
    G = make_group(list(moduli))
    n = data.draw(st.integers(min_value=0, max_value=2))
    gens = [
        G.element(data.draw(st.integers(min_value=0, max_value=G.order - 1)))
        for _ in range(n)
    ]
    H = subgroup_from_generators(G, gens)
    add = G.index_tables[0]
    for i in H.elements:
        assert G.neg_index(i) in H.elements
        for j in H.elements:
            assert add[i][j] in H.elements
    assert G.order % H.order == 0
