import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppdlab.cone as cone_module
import ppdlab.intlinalg as intlinalg
from ppdlab.cone import (
    EvenBasis,
    _apply,
    _dot_conductor,
    _mod_basis,
    _mod_rank,
    _mod_rows,
    _primitive_form,
    _row_matrix,
    _scalars,
    _verify_extremal,
    brute_force_rays,
    canonical_ray,
    extremal_rays,
    field_of_definition_check,
    is_interior,
    is_member,
    ppd_cone_hrep,
    report_rows,
    self_duality_check,
)
from ppdlab.cyclotomic import (
    CosRing,
    Cyc,
    cos_basis_string,
    cos_ring,
    expand_in_cos_basis,
    is_rational,
    real_abs,
    real_sign,
    scalar_eq,
    to_complex,
    unit_root,
)
from ppdlab.fourier import GroupFunction, counting_haar, fourier_transform, pullback
from ppdlab.groups import (
    Homomorphism,
    abelian_group_catalog,
    all_subgroups,
    hom_index_map,
    make_group,
    pairing_exponent,
)
from ppdlab.ppd import evaluate_function, sample_good, spectral_min_sign
from ppdlab.sweeps import cone_atlas

Z2 = make_group([2])
Z3 = make_group([3])
Z4 = make_group([4])


def coefficients(cone):
    """Per inequality, its exact coefficients, built as the field report builds them."""
    return _scalars(cos_ring(cone.basis.group.exponent()), cone.rows, cone.row_conds)


def ray_values(cone):
    """Per ray, its exact coordinates, built as the field report builds them."""
    return _scalars(cos_ring(cone.basis.group.exponent()), cone.ray_coords, cone.ray_conds)


def tight_sets(cone):
    """Per ray, the inequalities tight at it: the zeros among its products with
    the point rows (its coordinates) and with the dual rows (its transform)."""
    return tuple(frozenset(i for i, x in enumerate(ray + transform) if not any(x))
                 for ray, transform in zip(cone.ray_coords, cone.ray_transforms))


def evaluate(coeffs, vec):
    """The reference inequality value: a Cyc sum over the nonzero coefficients,
    in order, from Fraction(0)."""
    total = Fraction(0)
    for c, v in zip(coeffs, vec):
        if not (is_rational(c) and c == 0):
            total = total + c * v
    return total


def conductor(x) -> int:
    """The conductor an exact scalar is stored at: 1 for a rational."""
    return 1 if is_rational(x) else x.field.E


def inequality_floats(cone, digits=None):
    """(kind, float coefficients) per printed inequality."""
    kinds = [q["kind"] for q in report_rows(cone)["inequalities"]]
    return {(kind, tuple(to_complex(c).real if digits is None else
                         round(to_complex(c).real, digits) for c in coeffs))
            for kind, coeffs in zip(kinds, coefficients(cone))}


def ray_key_set(rays, e):
    return {canonical_ray(r, e) for r in rays}


def test_even_basis_z4():
    basis = EvenBasis(Z4)
    assert basis.orbit_reps == (0, 1, 2)
    assert basis.orbits == ((0,), (1, 3), (2,))
    assert basis.dim == 3
    f = GroupFunction(Z4, [Fraction(4), Fraction(2), Fraction(1), Fraction(2)])
    assert basis.vector_from_function(f) == (Fraction(4), Fraction(2), Fraction(1))
    with pytest.raises(ValueError):
        basis.vector_from_function(
            GroupFunction(Z4, [Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
        )


def test_hrep_golden_z2_z3_z4():
    got = inequality_floats(ppd_cone_hrep(Z2))
    assert got == {
        ("point", (1.0, 0.0)),
        ("point", (0.0, 1.0)),
        ("dual", (1.0, 1.0)),
        ("dual", (1.0, -1.0)),
    }
    got3 = inequality_floats(ppd_cone_hrep(Z3), 9)
    assert got3 == {
        ("point", (1.0, 0.0)),
        ("point", (0.0, 1.0)),
        ("dual", (1.0, 2.0)),
        ("dual", (1.0, -1.0)),
    }
    got4 = inequality_floats(ppd_cone_hrep(Z4), 9)
    assert got4 == {
        ("point", (1.0, 0.0, 0.0)),
        ("point", (0.0, 1.0, 0.0)),
        ("point", (0.0, 0.0, 1.0)),
        ("dual", (1.0, 2.0, 1.0)),
        ("dual", (1.0, 0.0, -1.0)),
        ("dual", (1.0, -2.0, 1.0)),
    }


def test_hrep_bound():
    with pytest.raises(ValueError):
        ppd_cone_hrep(make_group([17]))


def test_hrep_rows_are_the_coefficients_and_built_once():
    """The stored integer rows re-evaluate, at the exponent, to the Cyc
    coefficients at their conductors, and each group's H-rep is built once."""
    for G in abelian_group_catalog(16):
        cone = ppd_cone_hrep(G)
        ring = cos_ring(G.exponent())
        assert len(cone.rows) == len(cone.row_conds) == 2 * cone.basis.dim
        for coeffs, row, conds in zip(coefficients(cone), cone.rows, cone.row_conds):
            assert len(row) == len(coeffs) == len(conds) == cone.basis.dim
            for c, x in zip(coeffs, row):
                assert ring.scalar(x, G.exponent()) == c, (G, row)
        assert ppd_cone_hrep(G) is ppd_cone_hrep(make_group(G.moduli))


def test_hrep_equals_a_coefficient_by_coefficient_build():
    """ppd_cone_hrep reads each coefficient off the ring's cos table; a build
    of every coefficient on its own (a unit_root sum, then its ring
    coordinates and conductor) gives the same values, printed the same, and
    the same rows."""
    for G in abelian_group_catalog(16):
        cone = ppd_cone_hrep(G)
        basis, E = cone.basis, G.exponent()
        point = [[Fraction(int(t == j)) for t in range(basis.dim)] for j in range(basis.dim)]
        dual = [[sum((unit_root(E, -pairing_exponent(G, G.element(a), G.element(x)))
                      for x in orbit), Fraction(0)) for orbit in basis.orbits]
                for a in basis.orbit_reps]
        coeffs = point + dual
        got = coefficients(cone)
        assert got == [tuple(r) for r in coeffs]
        for have, want in zip(got, coeffs):
            assert [repr(c) for c in have] == [repr(c) for c in want], G
            assert [str(c) for c in have] == [str(c) for c in want], G
        assert cone.rows == tuple(
            tuple(tuple(int(k) for k in expand_in_cos_basis(c, E)) for c in r) for r in coeffs)
        assert cone.row_conds == tuple(tuple(conductor(c) for c in r) for r in coeffs)


def test_extremal_rays_golden_counts_and_vectors():
    r2 = ray_values(extremal_rays(ppd_cone_hrep(Z2)))
    assert set(r2) == {(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))}
    r3 = ray_values(extremal_rays(ppd_cone_hrep(Z3)))
    assert set(r3) == {(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))}
    r4 = ray_values(extremal_rays(ppd_cone_hrep(Z4)))
    assert set(r4) == {
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1), Fraction(0)),
    }
    assert len(r4) == 4


def test_extremal_rays_leaves_the_cached_hrep_alone():
    """extremal_rays returns a new cone (NamedTuple._replace) sharing the
    H-representation; the cached cone keeps no rays."""
    hrep = ppd_cone_hrep(Z4)
    cone = extremal_rays(hrep)
    assert cone is not hrep and type(cone) is type(hrep)
    assert hrep.ray_conds is hrep.ray_coords is hrep.ray_transforms is None
    for name in ("basis", "rows", "row_conds"):
        assert getattr(cone, name) is getattr(hrep, name)
    assert len(cone.ray_conds) == len(cone.ray_transforms) == len(cone.ray_coords) == 4
    assert len(cone._fields) == 6


def _leaves(x):
    """The values a record holds, through its tuples and frozensets."""
    if isinstance(x, (tuple, frozenset)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def test_cone_records_hold_only_integers():
    """A cone stores each number once, as integers: every leaf of an
    extremal_rays result is an int, or the EvenBasis, through its tuples; no
    exact value is reachable from it, and the tight sets are derived."""
    for G in abelian_group_catalog(12):
        cone = extremal_rays(ppd_cone_hrep(G))
        assert isinstance(cone.basis, EvenBasis)
        for name, field in zip(cone._fields[1:], cone[1:]):
            assert type(field) is tuple, (G.moduli, name)
            for leaf in _leaves(field):
                assert type(leaf) is int, (G.moduli, name, leaf)
        d = cone.basis.dim
        assert all(len(t) == d for t in cone.ray_transforms), G.moduli
        assert all(type(t) is frozenset and len(t) >= d - 1 for t in tight_sets(cone))


def test_cone_reports_build_no_exact_value(monkeypatch):
    """The H-rep, double description, the self-duality pairing, the atlas and
    the membership of rational vectors run on integer coordinates alone:
    with CosRing.scalar refusing every call, they still finish."""
    def refuse(self, a, F):
        raise AssertionError("CosRing.scalar called")

    monkeypatch.setattr(CosRing, "scalar", refuse)
    ppd_cone_hrep.cache_clear()  # every H-rep below is built under the patch
    atlas = cone_atlas(max_order=12)
    assert len(atlas["groups"]) == 21
    for G in abelian_group_catalog(16)[21:]:
        cone = ppd_cone_hrep(G)
        f = cone.basis.function_from_vector([Fraction(1)] * cone.basis.dim)
        assert is_member(f, cone) and not is_interior(f, cone), G.moduli
    with pytest.raises(AssertionError, match="^CosRing.scalar called$"):
        field_of_definition_check(extremal_rays(ppd_cone_hrep(make_group([5]))))


def test_extremal_rays_tightness_rank():
    cone = extremal_rays(ppd_cone_hrep(Z4))
    for tight in tight_sets(cone):
        assert len(tight) >= cone.basis.dim - 1


def test_mod_rank_is_a_lower_bound_on_the_ring_rank():
    """_mod_basis maps Z[2cos(2pi/e)] onto F_p as a ring, so the rank of the
    image of a matrix never exceeds its rank; rows with entries divisible by p
    make it fall short.  The reference rank is the Smith-form rank over Q of
    the stacked _row_matrix blocks, which is m times the rank over the ring."""
    rng = random.Random(11)
    for e in (5, 7, 8, 9, 11, 12, 16):
        ring = cos_ring(e)
        p, images = _mod_basis(e)
        assert p % e == 1 and p > 2**30
        assert all(p % k for k in range(2, math.isqrt(p) + 1)), p  # a field
        image = lambda x: sum(c * b for c, b in zip(x, images)) % p

        def element():
            return tuple(rng.randint(-3, 3) for _ in range(ring.m))

        for _ in range(20):
            a, b = element(), element()
            assert image(ring.mul(a, b)) == image(a) * image(b) % p, e
        short = 0
        for trial in range(30):
            width = rng.randint(2, 6)
            rows = [tuple(element() for _ in range(width)) for _ in range(rng.randint(1, 7))]
            if trial % 3 == 1:  # rank at most 2: two rows and ring combinations of them
                x, y = rows[0], rng.choice(rows)
                rows = [x, y] + [
                    tuple(ring.add(ring.mul(s, u), ring.mul(t, v)) for u, v in zip(x, y))
                    for s, t in ((element(), element()) for _ in range(rng.randint(1, 3)))]
            if trial % 3 == 2:  # every entry of one row divisible by p
                rows[0] = tuple(tuple(p * c for c in x) for x in rows[0])
            mod_rank = _mod_rank(_mod_rows(e, rows)[1], p, width)
            q_rank = intlinalg.rank([r for row in rows for r in _row_matrix(ring, row)])
            assert q_rank % ring.m == 0, (e, rows)
            ring_rank = q_rank // ring.m
            assert mod_rank <= ring_rank, (e, rows)
            short += mod_rank < ring_rank
        assert short, e


def test_rank_fallback_gives_the_same_rays(monkeypatch):
    """When the modular rank falls short, the Smith-form rank decides every ray,
    and double description returns what it returns with the modular
    certificate; Z9 and Z7xZ2 have rings of rank 3, Z8 and Z12 of rank 2."""
    moduli = ([8], [12], [9], [7, 2])
    want = {tuple(n): extremal_rays(ppd_cone_hrep(make_group(n))) for n in moduli}
    calls = []

    def counted_rank(A):
        calls.append(A)
        return intlinalg.rank(A)

    monkeypatch.setattr(cone_module, "_mod_rank", lambda rows, p, width: 0)
    monkeypatch.setattr(cone_module, "rank", counted_rank)
    for n, cone in want.items():
        before = len(calls)
        got = extremal_rays(ppd_cone_hrep(make_group(n)))
        assert len(calls) - before == len(cone.ray_coords), n
        assert got.ray_coords == cone.ray_coords, n
        assert tight_sets(got) == tight_sets(cone), n
        assert got.ray_conds == cone.ray_conds, n
        assert got.ray_transforms == cone.ray_transforms, n


def test_certificate_refuses_what_is_not_an_extremal_ray(monkeypatch):
    """_verify_extremal on the cone's own rows refuses a negated ray, a tight
    set with one bit cleared, and the sum of two rays with the common tight
    set: that set has rank at most d - 2, so the modular rank falls short and
    the Smith-form rank refuses."""
    G = make_group([7])  # a ring of rank 3
    cone = extremal_rays(ppd_cone_hrep(G))
    d, ring, rows = cone.basis.dim, cos_ring(G.exponent()), cone.rows
    mats = [_row_matrix(ring, row) for row in rows[d:]]
    mod = _mod_rows(ring.e, rows)
    masks = [sum(1 << i for i in t) for t in tight_sets(cone)]

    def verify(vec, tight):
        return _verify_extremal(ring, rows, mats, mod, vec, tight, d)

    ray, tight = cone.ray_coords[0], masks[0]
    assert verify(ray, tight) == cone.ray_transforms[0]
    with pytest.raises(AssertionError, match="^ray violates an inequality$"):
        verify(tuple(tuple(-c for c in z) for z in ray), tight)
    with pytest.raises(AssertionError, match="^tight set inconsistent with ray values$"):
        verify(ray, tight & (tight - 1))  # the lowest tight bit cleared
    calls = []
    monkeypatch.setattr(cone_module, "rank", lambda A: calls.append(A) or intlinalg.rank(A))
    total = _primitive_form(ring, [ring.add(a, b) for a, b in zip(ray, cone.ray_coords[1])])
    with pytest.raises(AssertionError, match="^ray fails the tightness-rank extremality test$"):
        verify(total, masks[0] & masks[1])
    assert len(calls) == 1


def _ring_dot(ring, row, vec):
    """<row, vec> in ring coordinates, summed term by term."""
    total = ring.zero
    for c, v in zip(row, vec):
        total = ring.add(total, ring.mul(c, v))
    return total


def test_ray_products_are_every_row_on_every_ray():
    """A ray's coordinates and its ray_transforms entry are its products with
    the point rows and the dual rows."""
    # every presentation through order 12, and the rank-4 rings of Z15 and Z16
    for G in abelian_group_catalog(12) + [make_group([15]), make_group([16])]:
        cone = extremal_rays(ppd_cone_hrep(G))
        ring = cos_ring(G.exponent())
        assert tuple(coords + transform for coords, transform in zip(
            cone.ray_coords, cone.ray_transforms)) == tuple(
            tuple(_ring_dot(ring, row, coords) for row in cone.rows)
            for coords in cone.ray_coords
        ), G.moduli


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_row_matrix_is_the_ring_product_on_flat_coordinates(data):
    for e in range(1, 17):
        ring = cos_ring(e)
        d = data.draw(st.integers(1, 4))
        element = st.tuples(*[st.integers(-5, 5)] * ring.m)
        row = data.draw(st.lists(element, min_size=d, max_size=d))
        vec = data.draw(st.lists(element, min_size=d, max_size=d))
        mat = _row_matrix(ring, row)
        # the drawn vector, one with a zero coordinate and its negation
        for v in (vec, [ring.zero] + vec[1:], [tuple(-c for c in x) for x in vec]):
            want = ring.zero
            for c, x in zip(row, v):
                want = ring.add(want, ring.mul(c, x))
            assert _apply(mat, [c for x in v for c in x]) == want, (e, row, v)


def test_double_description_matches_bruteforce_z2_to_z6():
    for n in (2, 3, 4, 5, 6):
        G = make_group([n])
        cone = extremal_rays(ppd_cone_hrep(G))
        brute = brute_force_rays(cone)
        e = G.exponent()
        assert ray_key_set(ray_values(cone), e) == set(brute), n


def test_double_description_matches_bruteforce_products():
    for moduli in ([2, 2], [3, 2], [2, 2, 2]):
        G = make_group(moduli)
        cone = extremal_rays(ppd_cone_hrep(G))
        brute = brute_force_rays(cone)
        e = G.exponent()
        assert ray_key_set(ray_values(cone), e) == set(brute), moduli


def test_double_description_matches_bruteforce_larger():
    # Z10 reports ray values at conductors 5 and 10
    for moduli in ([7], [8], [4, 2], [9], [3, 3], [10]):
        G = make_group(moduli)
        cone = extremal_rays(ppd_cone_hrep(G))
        brute = brute_force_rays(cone)
        e = G.exponent()
        assert ray_key_set(ray_values(cone), e) == set(brute), moduli
        assert set(cone.ray_coords) == ray_key_set(ray_values(cone), e), moduli
        assert cone.ray_coords == brute, moduli


def test_dual_rows_are_the_transform_at_orbit_reps():
    """The self-duality pairing evaluates dual rows on rays; they must agree
    with the exact Fourier transform under counting measure."""
    for G in abelian_group_catalog(8):
        cone = extremal_rays(ppd_cone_hrep(G))
        e = G.exponent()
        for ray, values in zip(ray_values(cone), cone.ray_transforms):
            f = cone.basis.function_from_vector(ray)
            fhat = fourier_transform(f, counting_haar(G))
            got = [expand_in_cos_basis(fhat.values[r], e) for r in cone.basis.orbit_reps]
            assert got == [list(v) for v in values], (G, ray)


def test_ring_evaluation_carries_the_cyc_conductor():
    """Inner products in ring coordinates report the conductor that the same
    sum of Cyc values ends up stored at (1 for a rational result)."""
    rng = random.Random(5)
    for moduli in ([10], [5, 2], [14], [15], [16], [8, 2], [12]):
        G = make_group(moduli)
        e = G.exponent()
        ring = cos_ring(e)
        cone = ppd_cone_hrep(G)
        rows, conds = cone.rows, cone.row_conds
        rowvals = coefficients(cone)
        coeffs = [c for q in rowvals for c in q]
        for _ in range(40):
            vec = tuple(
                sum((rng.randint(-2, 2) * rng.choice(coeffs) for _ in range(2)), Fraction(0))
                for _ in range(cone.basis.dim)
            )
            vrow = tuple(tuple(int(c) for c in expand_in_cos_basis(v, e)) for v in vec)
            vconds = tuple(conductor(v) for v in vec)
            q = rng.randrange(len(rows))
            cond = _dot_conductor(ring, rows[q], vrow, (conds[q], vconds))
            want = evaluate(rowvals[q], vec)
            assert ring.scalar(_ring_dot(ring, rows[q], vrow), e) == want, (moduli, vec)
            assert cond == (1 if isinstance(want, Fraction) else want.field.E)


# automorphisms by their matrices (column j is the image of generator j): the
# unit scalings x -> kx of Z1..Z12; on Z4xZ2xZ2 x -> 3x on Z4, the swap of the
# Z2 factors, e1 -> e1 + e2 and e2 -> e2 + 2e1 (e1 the Z4 generator); on Z2^4
# a coordinate swap, a 4-cycle and a transvection, which generate GL(4, F2)
AUTOMORPHISMS = {
    **{(n,): [((k,),) for k in range(2, n) if math.gcd(k, n) == 1] for n in range(1, 13)},
    (4, 2, 2): [((3, 0, 0), (0, 1, 0), (0, 0, 1)),
                ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
                ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
                ((1, 2, 0), (0, 1, 0), (0, 0, 1))],
    (2, 2, 2, 2): [((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                   ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
                   ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))],
}


def test_ray_set_closed_under_automorphisms():
    """An automorphism phi maps the cone onto itself, so f -> f o phi permutes
    the extremal rays.  This checks the order-16 cones that brute force cannot
    reach in time."""
    for moduli, matrices in AUTOMORPHISMS.items():
        G = make_group(moduli)
        cone = extremal_rays(ppd_cone_hrep(G))
        basis, keys = cone.basis, set(cone.ray_coords)
        for matrix in matrices:
            phi = Homomorphism(G, G, matrix)
            assert sorted(hom_index_map(phi)) == list(range(G.order)), matrix
            images = {
                canonical_ray(basis.vector_from_function(
                    pullback(phi, basis.function_from_vector(r))), G.exponent())
                for r in ray_values(cone)
            }
            assert images == keys, (moduli, matrix)


def test_ray_set_not_closed_under_galois():
    """No nontrivial sigma_k preserves the ray set: a Galois conjugate of a
    positive value can be negative, so pointwise nonnegativity is not kept."""
    for n in (5, 7, 8, 9, 10, 12):
        cone = extremal_rays(ppd_cone_hrep(make_group([n])))
        ring = cos_ring(n)
        for k in range(ring.m - 1):
            conjugated = {
                canonical_ray(tuple(ring.scalar(ring.conjugates(c)[k], n) for c in ray), n)
                for ray in cone.ray_coords
            }
            assert conjugated != set(cone.ray_coords), (n, k)


def test_rays_removal_shrinks_cone():
    """Every ray is outside the cone generated by the others: some inequality
    tight at it is strictly positive on every other ray."""
    for n in (2, 3, 4, 5, 6):
        cone = extremal_rays(ppd_cone_hrep(make_group([n])))
        rays, rowvals = ray_values(cone), coefficients(cone)
        for i, (ray, tight) in enumerate(zip(rays, tight_sets(cone))):
            for j, other in enumerate(rays):
                if i == j:
                    continue
                assert any(
                    real_sign(evaluate(rowvals[q], other)) > 0
                    for q in tight
                )


def test_conic_combinations_are_interior():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        G = make_group([n])
        cone = extremal_rays(ppd_cone_hrep(G))
        rays = ray_values(cone)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(1, 5)) for _ in rays]
            vec = tuple(
                sum((c * r[j] for c, r in zip(coeffs, rays)), Fraction(0))
                for j in range(cone.basis.dim)
            )
            f = cone.basis.function_from_vector(vec)
            assert is_interior(f, cone)
            assert evaluate_function(f).is_good


def test_interior_agrees_with_good_golden():
    cone = ppd_cone_hrep(Z4)
    good = GroupFunction(Z4, [Fraction(4), Fraction(2), Fraction(1), Fraction(2)])
    assert is_interior(good, cone)
    assert evaluate_function(good).is_good
    boundary = GroupFunction(Z4, [Fraction(1), Fraction(0), Fraction(1), Fraction(0)])
    assert not is_interior(boundary, cone)
    assert is_member(boundary, cone)
    assert not evaluate_function(boundary).is_good
    outside = GroupFunction(Z4, [Fraction(1), Fraction(1), Fraction(-1), Fraction(1)])
    assert not is_member(outside, cone)
    assert not evaluate_function(outside).is_ppd


def test_membership_equivalence_random_rational():
    rng = random.Random(23)
    for G in abelian_group_catalog(8):
        cone = ppd_cone_hrep(G)
        basis = cone.basis
        for _ in range(60):
            vec = tuple(
                Fraction(rng.randint(-3, 6), rng.randint(1, 3))
                for _ in range(basis.dim)
            )
            f = basis.function_from_vector(vec)
            member = is_member(f, cone)
            pointwise = all(real_sign(v) >= 0 for v in vec)
            spectral = spectral_min_sign(f) >= 0 if pointwise else None
            assert member == (pointwise and bool(spectral)), (G, vec)
            assert member == evaluate_function(f).is_ppd


def _boundary_and_random_vectors(cone, rng):
    """Rational vectors: random, random with coordinate zeros, diagonally
    dominant (interior), subgroup indicators (PPD with exact zeros in the
    transform) and, where the rays are cheap and rational, rays and sums of
    two rays."""
    G, d = cone.basis.group, cone.basis.dim
    vecs = []
    for _ in range(12):
        vec = [Fraction(rng.randint(-2, 9), rng.randint(1, 4)) for _ in range(d)]
        vecs.append(tuple(vec))
        for j in rng.sample(range(d), min(d, 2)):
            vec[j] = Fraction(0)
        vecs.append(tuple(vec))
        # f(0) above the sum of |f| elsewhere: f_hat > 0, so an interior point
        vec = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d)]
        vec[0] = sum(v * len(o) for v, o in zip(vec[1:], cone.basis.orbits[1:])) + 1
        vecs.append(tuple(vec))
    for H in all_subgroups(G):
        vecs.append(tuple(Fraction(int(r in H.elements)) for r in cone.basis.orbit_reps))
    if d <= 6 and G.exponent() in (1, 2, 3, 4, 6):
        rays = [tuple(Fraction(v) for v in r) for r in ray_values(extremal_rays(cone))]
        vecs += rays
        vecs += [tuple(a + b for a, b in zip(r, s)) for r, s in zip(rays, rays[1:])]
    return vecs


def _cyc_vectors(cone, rng):
    """Exact vectors with Cyc entries: random ones over 2cos(2pi/5), sqrt 2
    and 2cos(2pi/e), those with f(0) raised above the sum of |f| elsewhere
    and, where the rays are cheap and irrational, rays and sums of two rays."""
    G, d = cone.basis.group, cone.basis.dim
    e = G.exponent()
    pool = [unit_root(n, 1) + unit_root(n, -1) for n in {5, 8, max(e, 5)}]
    vecs = []
    for _ in range(3):
        vec = [Fraction(rng.randint(-2, 9), rng.randint(1, 4))
               + rng.randint(-1, 1) * rng.choice(pool) for _ in range(d)]
        vecs.append(tuple(vec))
        vec[0] = sum(real_abs(v) * len(o) for v, o in zip(vec[1:], cone.basis.orbits[1:])) + 1
        vecs.append(tuple(vec))
    if d <= 6 and e not in (1, 2, 3, 4, 6):
        rays = ray_values(extremal_rays(cone))
        vecs += rays
        vecs += [tuple(a + b for a, b in zip(r, s)) for r, s in zip(rays, rays[1:])]
    return vecs


def _reference_signs(cone, vec):
    return [real_sign(evaluate(q, vec)) for q in coefficients(cone)]


def test_membership_on_integer_rows_matches_evaluate_reference():
    """is_interior/is_member on integer ring rows against the Cyc-sum
    reference evaluate and real_sign, on every presentation through order 16:
    rational vectors, vectors with Cyc entries, and the float vectors of both,
    whose exact zeros fall within the float tie tolerance."""
    rng = random.Random(16)
    groups = abelian_group_catalog(16)
    assert len(groups) == 31
    boundary = cyc_boundary = 0
    for G in groups:
        cone = ppd_cone_hrep(G)
        rational = _boundary_and_random_vectors(cone, rng)
        for vec in rational + _cyc_vectors(cone, rng):
            signs = _reference_signs(cone, vec)
            f = cone.basis.function_from_vector(vec)
            floats = cone.basis.function_from_vector([to_complex(v).real for v in vec])
            for g in (f, floats):
                assert is_interior(g, cone) == all(s > 0 for s in signs), (G, vec, g.mode.exact)
                assert is_member(g, cone) == all(s >= 0 for s in signs), (G, vec, g.mode.exact)
            boundary += min(signs) == 0
            cyc_boundary += min(signs) == 0 and not all(map(is_rational, vec))
    assert boundary > 100 and cyc_boundary > 10
    # a Cyc-valued vector on Z5, whose coefficients are irrational too
    Z5 = make_group([5])
    cone = ppd_cone_hrep(Z5)
    c = unit_root(5, 1) + unit_root(5, -1)  # 2cos(2pi/5), about 0.618
    for vec in ((Fraction(3), c, Fraction(1)), (Fraction(1), c, -c), (c, c, c)):
        signs = _reference_signs(cone, vec)
        f = cone.basis.function_from_vector(vec)
        assert is_interior(f, cone) == all(s > 0 for s in signs), vec
        assert is_member(f, cone) == all(s >= 0 for s in signs), vec
    # a value that is not real fails condition 2.1.1, in both modes; a float
    # imaginary part within FLOAT_TOL counts as real, as evaluate_function reads it
    cone, i = ppd_cone_hrep(Z4), unit_root(4, 1)
    for values in ([4 + 3j, 1, 1, 1], [4 + 3 * i, 1, 1, 1], [4, 1j, 1, 1j], [4, i, 1, i],
                   [4 + 1e-13j, 1, 1, 1]):
        f = GroupFunction(Z4, values)
        member = evaluate_function(f).is_ppd
        assert member == (values[0] == 4 + 1e-13j), values
        assert is_member(f, cone) == member and is_interior(f, cone) == member, values


def test_interior_good_agreement_sampled():
    for G in abelian_group_catalog(8):
        cone = ppd_cone_hrep(G)
        for s in range(5):
            f = sample_good(G, seed=600 + s)
            assert is_interior(f, cone)
            assert evaluate_function(f).is_good


def test_canonical_ray_scaling():
    vec = (Fraction(2, 3), Fraction(4, 3), Fraction(0))
    icoords = canonical_ray(vec, 4)
    assert icoords == ((1,), (2,), (0,))
    neg = tuple(-v for v in vec)
    assert canonical_ray(neg, 4) == icoords
    # irrational coordinates stay integral over the cos basis
    g = unit_root(5, 1) + unit_root(5, 4)
    icoords3 = canonical_ray((Fraction(1), g), 5)
    assert _scalars(cos_ring(5), [icoords3], [(1, 5)]) == [(Fraction(1), g)]
    assert icoords3 == ((1, 0), (0, 1))


def test_field_of_definition_rational_groups():
    for n in (2, 3, 4, 6):
        cone = extremal_rays(ppd_cone_hrep(make_group([n])))
        report = field_of_definition_check(cone)
        assert report["all_integral"]
        # every expansion is a plain integer for these exponents
        for entry in report["entries"]:
            assert "2cos" not in entry["expansion"]


def test_field_of_definition_z5():
    cone = extremal_rays(ppd_cone_hrep(make_group([5])))
    report = field_of_definition_check(cone)
    assert report["all_integral"]
    assert any("2cos(2pi*1/5)" in entry["expansion"] for entry in report["entries"])


def _field_report_reference(cone):
    """The field report with every value expanded into the cos basis and
    rebuilt on its own."""
    e = cone.basis.group.exponent()
    entries = []
    values = [(f"inequality[{i}].coeff[{j}]", c)
              for i, q in enumerate(coefficients(cone)) for j, c in enumerate(q)]
    values += [(f"ray[{r}].coord[{j}]", c)
               for r, ray in enumerate(ray_values(cone)) for j, c in enumerate(ray)]
    for location, value in values:
        exp = expand_in_cos_basis(value, e)
        assert scalar_eq(cos_ring(e).scalar(exp, e), value + Fraction(0)), location
        entries.append({"location": location, "value": str(value),
                        "expansion": cos_basis_string(exp, e),
                        "integral": all(c.denominator == 1 for c in exp)})
    return {"exponent": e, "all_integral": all(x["integral"] for x in entries),
            "entries": entries}


def test_field_report_certifies_each_stored_value_once():
    """On every presentation through order 16, the report read off the integer
    rows and ray coordinates equals the round trip through the cos basis.  Z14
    and Z16 store some values at two conductors, which print apart."""
    for G in abelian_group_catalog(16):
        cone = extremal_rays(ppd_cone_hrep(G))
        e = G.exponent()
        if G.moduli in ((14,), (16,)):
            conductors = {}
            for v in [c for q in coefficients(cone) for c in q] + [
                    c for ray in ray_values(cone) for c in ray]:
                if isinstance(v, Cyc):
                    key = tuple(expand_in_cos_basis(v, e))
                    conductors.setdefault(key, set()).add(v.field.E)
            assert any(len(fs) > 1 for fs in conductors.values()), G.moduli
        assert field_of_definition_check(cone) == _field_report_reference(cone), G.moduli


def test_field_of_definition_z8_z12():
    for n in (8, 12):
        cone = extremal_rays(ppd_cone_hrep(make_group([n])))
        report = field_of_definition_check(cone)
        assert report["all_integral"], n


def test_self_duality_z4():
    cone = extremal_rays(ppd_cone_hrep(Z4))
    report = self_duality_check(cone)
    assert report.is_involution
    rays = ray_values(cone)
    i_delta = rays.index((Fraction(1), Fraction(0), Fraction(0)))
    i_const = rays.index((Fraction(1), Fraction(1), Fraction(1)))
    i_half = rays.index((Fraction(1), Fraction(0), Fraction(1)))
    i_mix = rays.index((Fraction(2), Fraction(1), Fraction(0)))
    assert report.pairing[i_delta] == i_const
    assert report.pairing[i_const] == i_delta
    assert report.pairing[i_half] == i_half
    assert report.pairing[i_mix] == i_mix


def test_self_duality_involution_sweep():
    for moduli in ([2], [3], [5], [2, 2], [6], [3, 2], [8]):
        cone = extremal_rays(ppd_cone_hrep(make_group(moduli)))
        assert self_duality_check(cone).is_involution, moduli


def test_rays_are_ppd_boundary_functions():
    for n in (2, 3, 4, 5, 6):
        cone = extremal_rays(ppd_cone_hrep(make_group([n])))
        for ray in ray_values(cone):
            f = cone.basis.function_from_vector(ray)
            v = evaluate_function(f)
            assert v.is_ppd
            assert not v.is_good  # extremal rays sit on the boundary
