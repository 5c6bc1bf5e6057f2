import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdlab.cone import is_interior, ppd_cone_hrep
from ppdlab.cyclotomic import Cyc, is_rational, real_sign, scalar_eq, sign_if_real, unit_root
from ppdlab.fourier import (
    GroupFunction,
    HaarScale,
    ScaledMeasure,
    counting_haar,
    fourier_transform,
    inverse_transform,
    measure_from_function,
    pullback,
    pushforward,
)
from ppdlab.groups import (
    Homomorphism,
    abelian_group_catalog,
    all_subgroups,
    make_group,
    quotient,
    subgroup_from_generators,
)
from ppdlab.ppd import (
    _translation_invariant,
    bochner_oracle,
    descend_to_quotient,
    derived_rng,
    dual_measure,
    evaluate_function,
    normalize_function,
    normalize_measure,
    normalized_dual,
    sample_good,
    sample_normalized_good,
    sample_ppd,
    spectral_min_sign,
    stabilizer_subgroup,
)
from ppdlab.sweeps import (
    bochner_agreement_sweep,
    cone_membership_sweep,
    random_even_function,
)

Z2 = make_group([2])
Z3 = make_group([3])
Z4 = make_group([4])


def F(group, *vals):
    return GroupFunction(group, [Fraction(v) for v in vals])


def test_constant_is_ppd_not_good_on_nontrivial():
    f = F(Z4, 1, 1, 1, 1)
    v = evaluate_function(f)
    assert v.is_ppd and not v.is_good
    assert any(w.condition == "3.1.4" and w.kind == "character" for w in v.witnesses)


def test_indicator_subgroup_is_ppd_not_good():
    f = F(Z4, 1, 0, 1, 0)
    v = evaluate_function(f)
    assert v.is_ppd and not v.is_good
    # transform is (2, 0, 2, 0): witnesses at x=1 and at character 1
    conds = {(w.condition, w.kind, w.index) for w in v.witnesses}
    assert ("3.1.4", "element", 1) in conds
    assert ("3.1.4", "character", 1) in conds


def test_not_ppd_two_point():
    f = F(Z2, 1, 2)
    v = evaluate_function(f)
    assert not v.is_ppd
    assert any(
        w.condition == "2.1.2" and w.kind == "character" and w.index == 1
        for w in v.witnesses
    )


def test_good_golden_z4():
    f = F(Z4, 4, 2, 1, 2)
    v = evaluate_function(f)
    assert v.is_ppd and v.is_good
    assert v.witnesses == ()
    assert v.condition_status["3.1.2"] == "vacuous"
    assert v.condition_status["3.1.5"] == "vacuous"


def test_delta_is_ppd_not_good():
    f = F(Z4, 1, 0, 0, 0)
    v = evaluate_function(f)
    assert v.is_ppd and not v.is_good


def test_verdict_flags_consistency():
    rng = random.Random(1)
    for _ in range(50):
        G = make_group([rng.choice([2, 3, 4, 6])])
        f = GroupFunction(
            G, [Fraction(rng.randint(-2, 4)) for _ in range(G.order)]
        )
        v = evaluate_function(f)
        assert (not v.is_good) or v.is_ppd  # good implies ppd
        assert (v.is_ppd and v.is_good) == (len(v.witnesses) == 0)


def test_bochner_oracle_golden():
    assert bochner_oracle(F(Z4, 1, 0, 0, 0))
    assert bochner_oracle(F(Z3, 1, 1, 1))
    assert not bochner_oracle(F(Z2, 1, 2))
    with pytest.raises(ValueError):
        bochner_oracle(GroupFunction(Z2, [Fraction(1), unit_i()]))
    # denominators whose lcm is past 2**63
    p1, p2, p3 = 1099511627791, 1099511627817, 1099511627831
    big = GroupFunction(Z4, [4 + Fraction(1, p1), Fraction(1, p2), Fraction(1, p3),
                             Fraction(1, p2)])
    assert evaluate_function(big).is_ppd
    assert bochner_oracle(big)
    # a real function that is not even gives a non-symmetric matrix
    odd = F(Z3, 2, 1, 0)
    assert not evaluate_function(odd).is_ppd
    assert not bochner_oracle(odd)
    odd_float = GroupFunction(Z3, [2.0, 1.0, 0.0])
    assert not evaluate_function(odd_float).is_ppd
    assert not bochner_oracle(odd_float)
    with pytest.raises(ValueError):
        spectral_min_sign(odd)


def unit_i():
    from ppdlab.cyclotomic import unit_root

    return unit_root(4, 1)


def test_bochner_oracle_matches_spectral_exhaustive_small():
    # every even integer vector in a small box, on Z2, Z3, Z4
    for moduli, box in (((2,), 3), ((3,), 2), ((4,), 2)):
        G = make_group(list(moduli))
        reps = []
        seen = set()
        for i in range(G.order):
            j = G.neg_index(i)
            key = min(i, j)
            if key not in seen:
                seen.add(key)
                reps.append(key)
        for combo in itertools.product(range(-box, box + 1), repeat=len(reps)):
            vals = [Fraction(0)] * G.order
            for rep, c in zip(reps, combo):
                vals[rep] = Fraction(c)
                vals[G.neg_index(rep)] = Fraction(c)
            f = GroupFunction(G, vals)
            assert bochner_oracle(f) == (spectral_min_sign(f) >= 0)


def test_bochner_oracle_matches_spectral_random():
    rng = random.Random(13)
    for G in abelian_group_catalog(12):
        for _ in range(30):
            vals = [Fraction(0)] * G.order
            for i in range(G.order):
                if vals[i] == 0:
                    v = Fraction(rng.randint(-5, 5))
                    vals[i] = v
                    vals[G.neg_index(i)] = v
            f = GroupFunction(G, vals)
            assert bochner_oracle(f) == (spectral_min_sign(f) >= 0)
        # transforms with exact zeros: these rows take the exact fallback
        indicators = [[Fraction(1)] * G.order] + [
            [Fraction(int(i in H.elements)) for i in range(G.order)]
            for H in all_subgroups(G)
        ]
        for vals in indicators:
            f = GroupFunction(G, vals)
            sign = spectral_min_sign(f)
            assert bochner_oracle(f) == (sign >= 0)
            fhat = fourier_transform(f, counting_haar(G))
            assert sign == min(real_sign(v) for v in fhat.values)


def test_bochner_oracle_float_mode():
    f = GroupFunction(Z4, [4.0, 2.0, 1.0, 2.0])
    assert bochner_oracle(f)
    g = GroupFunction(Z2, [1.0, 2.0])
    assert not bochner_oracle(g)


def test_bochner_oracle_exact_irrational_values():
    f = sample_ppd(make_group([5]), seed=77)
    assert f.mode.exact
    assert bochner_oracle(f)


def test_bochner_oracle_field_branch_matches_transform_signs():
    """The elimination on exact irrational values agrees with the signs of
    f_hat, for sampled PPD f through order 12 and f - t * delta_0: t = 0, t = -1,
    t = min f_hat (a singular PSD matrix), min f_hat + 1/64 and t = f(0) (a zero
    diagonal with nonzero entries off it)."""
    outcomes = set()
    for G in abelian_group_catalog(12):
        # the real subfield of Q(zeta_E) is Q only for E in 1, 2, 3, 4, 6
        f = next((f for f in (sample_ppd(G, seed=s) for s in range(12))
                  if not all(is_rational(v) for v in f.values)), None)
        assert (f is None) == (G.exponent() in (1, 2, 3, 4, 6))
        if f is None:
            continue
        fhat = fourier_transform(f, counting_haar(G)).values
        low = fhat[0]
        for v in fhat:
            if real_sign(v - low) < 0:
                low = v
        for t in (0, -1, low, low + Fraction(1, 64), f.values[0]):
            g = GroupFunction(G, [v - t if i == 0 else v for i, v in enumerate(f.values)])
            assert not all(is_rational(v) for v in g.values)
            ghat = fourier_transform(g, counting_haar(G)).values
            want = all(real_sign(v) >= 0 for v in ghat)
            assert bochner_oracle(g) == want
            outcomes.add(want)
    assert outcomes == {True, False}


def test_bochner_oracle_field_branch_inverts_each_pivot_once(monkeypatch):
    # one Cyc inverse per pivot step at most: the first step divides by 1
    for G in (make_group([12]), make_group([11]), make_group([5, 2])):
        f = next(f for f in (sample_ppd(G, seed=s) for s in range(12))
                 if not all(is_rational(v) for v in f.values))
        calls = []
        inverse = Cyc.inverse
        monkeypatch.setattr(Cyc, "inverse", lambda x: calls.append(x) or inverse(x))
        assert bochner_oracle(f)
        monkeypatch.undo()
        assert len(calls) <= G.order - 1


def test_normalize_function_on_numerators_matches_inverse_reference():
    # rational values take Fraction(n_i, n_0) over one denominator; the
    # reference multiplies by the inverse of f(0)
    checked = 0
    for G in abelian_group_catalog(16):
        for seed in range(3):
            for f in (sample_ppd(G, seed), sample_good(G, seed)):
                if not all(is_rational(v) for v in f.values):
                    continue
                inv = Fraction(1) / Fraction(f.values[0])
                want = [v * inv for v in f.values]
                got = normalize_function(f).values
                assert list(got) == want
                assert all(type(g) is Fraction and g.denominator > 0 for g in got)
                checked += 1
    assert checked > 20


def test_normalize_function():
    f = F(Z4, 4, 2, 1, 2)
    g = normalize_function(f)
    assert g.values == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 2),
    )
    assert normalize_function(g).values == g.values
    with pytest.raises(ValueError):
        normalize_function(F(Z4, 0, 1, 1, 1))


def test_normalize_measure_matches_function_normalization():
    G = Z4
    mu = ScaledMeasure(G, F(G, 2, 1, 0, 1), HaarScale(G, Fraction(5, 4)))
    nu = normalize_measure(mu)
    assert nu.total_mass() == 1
    # a probability measure is unchanged
    again = normalize_measure(nu)
    assert again.total_mass() == 1 and again.haar.scale == nu.haar.scale
    # normalized measure <-> normalized inverse transform
    assert inverse_transform(nu).values[0] == 1
    with pytest.raises(ValueError):
        normalize_measure(ScaledMeasure(G, F(G, 0, 0, 0, 0), counting_haar(G)))


def test_dual_measure_roundtrip_and_goldens():
    f = F(Z4, 1, 1, 1, 1)
    mu = dual_measure(f)
    assert mu.mass_at(0) == 1
    assert all(mu.mass_at(i) == 0 for i in range(1, 4))
    back = inverse_transform(mu)
    assert back == f
    # indicator of {0}: dual is uniform of mass 1
    d = F(Z4, 1, 0, 0, 0)
    nu = dual_measure(d)
    assert all(nu.mass_at(i) == Fraction(1, 4) for i in range(4))
    assert inverse_transform(nu) == d
    with pytest.raises(ValueError) as info:
        dual_measure(F(Z2, 1, 2))
    assert str(info.value) == (
        "dual_measure needs a PPD input: "
        "(Witness(condition='2.1.2', kind='character', index=1, "
        "detail='f_hat(1) = -1 negative'), "
        "Witness(condition='3.1.4', kind='character', index=1, "
        "detail='f_hat(1) = -1 not strictly positive'))")


def test_normalized_dual_golden_two_point():
    for t in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 5)):
        f = GroupFunction(Z2, [Fraction(1), t])
        g = normalized_dual(f)
        assert g.values[0] == 1
        assert g.values[1] == (1 - t) / (1 + t)


# c = (zeta_5 + zeta_5^4) / 2 = cos(2 pi / 5), so masses built from it are
# irrational and the inverse of the total folds into the values
COS_2PI_5 = (unit_root(5, 1) + unit_root(5, 4)) / 2


def test_normalized_dual_irrational_mass_folds_into_the_values():
    g = normalized_dual(GroupFunction(Z2, [Fraction(1), COS_2PI_5]))
    assert [str(v) for v in g.values] == ["1", "7 + 4*z5^2 + 4*z5^3"]
    assert repr(g.values) == "(Fraction(1, 1), Cyc(5, ['7', '0', '4', '4']))"


def test_normalize_measure_irrational_mass_folds_into_density():
    c = COS_2PI_5
    mu = ScaledMeasure(Z4, GroupFunction(Z4, [2, c, 1, c]), HaarScale(Z4, Fraction(1, 3)))
    nu = normalize_measure(mu)
    assert repr(nu) == (
        "ScaledMeasure(Z4, [Cyc(5, ['18/5', '0', '6/5', '6/5']), "
        "Cyc(5, ['-6/5', '0', '-9/10', '-9/10']), Cyc(5, ['9/5', '0', '3/5', '3/5']), "
        "Cyc(5, ['-6/5', '0', '-9/10', '-9/10'])], 1/3)"
    )
    assert nu.total_mass() == 1


def test_normalized_dual_rejects_constant_one():
    with pytest.raises(ValueError):
        normalized_dual(F(Z4, 1, 1, 1, 1))


def test_normalized_dual_involution_golden():
    f = normalize_function(F(Z4, 4, 2, 1, 2))
    g = normalized_dual(f)
    back = normalized_dual(g)
    assert all(scalar_eq(a, b) for a, b in zip(back.values, f.values))


def test_normalized_dual_involution_sampled():
    for G in abelian_group_catalog(12):
        if G.order == 1:
            continue
        for s in range(5):
            f = sample_normalized_good(G, seed=100 + s)
            back = normalized_dual(normalized_dual(f))
            assert all(scalar_eq(a, b) for a, b in zip(back.values, f.values))


def test_stabilizer_golden():
    f = F(Z4, 1, 0, 1, 0)
    H = stabilizer_subgroup(f)
    assert H.elements == (0, 2)
    assert stabilizer_subgroup(F(Z4, 1, 1, 1, 1)).order == 4
    g = sample_good(Z4, seed=3)
    assert stabilizer_subgroup(g).elements == (0,)


def test_descend_to_quotient_golden():
    f = F(Z4, 1, 0, 1, 0)
    H = subgroup_from_generators(Z4, [(2,)])
    g = descend_to_quotient(f, H)
    assert g.group.moduli == (2,)
    assert g.values == (Fraction(1), Fraction(0))
    # H = {0}: unchanged
    t = subgroup_from_generators(Z4, [])
    same = descend_to_quotient(f, t)
    assert same.values == f.values
    # constant descends along the full group to the trivial group
    c = F(Z4, 1, 1, 1, 1)
    full = subgroup_from_generators(Z4, [(1,)])
    one = descend_to_quotient(c, full)
    assert one.group.order == 1 and one.values == (Fraction(1),)
    with pytest.raises(ValueError):
        descend_to_quotient(F(Z4, 4, 2, 1, 2), H)
    with pytest.raises(ValueError):
        descend_to_quotient(GroupFunction(Z4, [4.0, 2.0, 1.0, 2.0]), H)


def test_sampler_determinism_and_membership():
    for G in abelian_group_catalog(8):
        for s in (0, 1, 7):
            f1 = sample_ppd(G, seed=s)
            f2 = sample_ppd(G, seed=s)
            assert f1.values == f2.values
            assert evaluate_function(f1).is_ppd
            g = sample_good(G, seed=s)
            assert evaluate_function(g).is_good


# sha256 of repr of (moduli, seed, sample_ppd values, sample_good values) for
# every presentation through order 16 and seeds 0-4.  The repr shows the
# conductor each Cyc value is stored at.
SAMPLER_GOLDEN = "cc8ba58add16d5f42a6fe666a2c8543485aba238bc3aabae24401c64c57ef5f8"


def test_sampler_outputs_golden():
    out = [
        (G.moduli, s, sample_ppd(G, s).values, sample_good(G, s).values)
        for G in abelian_group_catalog(16) for s in range(5)
    ]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == SAMPLER_GOLDEN


def test_sampled_ppd_max_at_identity_and_even():
    for G in abelian_group_catalog(10):
        for s in range(8):
            f = sample_ppd(G, seed=50 + s)
            v0 = f.values[0]
            for i, v in enumerate(f.values):
                d = v0 - v
                assert real_sign(d) >= 0
                assert scalar_eq(v, f.values[G.neg_index(i)])


def test_sampled_ppd_three_by_three_minors():
    rng = random.Random(99)
    for G in abelian_group_catalog(8):
        f = sample_ppd(G, seed=11)
        for _ in range(10):
            x = rng.randrange(G.order)
            y = rng.randrange(G.order)
            xy = G.index_tables[0][x][y]
            u0, ux, uy, uxy = (
                f.values[0],
                f.values[x],
                f.values[y],
                f.values[xy],
            )
            # det of [[u0,ux,uxy],[ux,u0,uy],[uxy,uy,u0]]
            det = (
                u0 * (u0 * u0 - uy * uy)
                - ux * (ux * u0 - uy * uxy)
                + uxy * (ux * uy - u0 * uxy)
            )
            assert real_sign(det) >= 0


def random_valid_hom(rng):
    """Well-defined map: entry (i, j) is a multiple of m_i / gcd(m_i, n_j)."""
    import math

    src = make_group(rng.choice([[2], [4], [2, 2], [6], [3, 2], [8]]))
    tgt = make_group(rng.choice([[2], [4], [2, 2], [6], [3, 2], [8]]))
    rows = []
    for mi in tgt.moduli:
        row = []
        for nj in src.moduli:
            step = mi // math.gcd(mi, nj)
            row.append(step * rng.randrange(mi // step))
        rows.append(tuple(row))
    return Homomorphism(src, tgt, tuple(rows))


def test_pullback_preserves_normalized_ppd():
    G = make_group([4, 2])
    T = make_group([4])
    phi = Homomorphism(G, T, ((1, 2),))
    for s in range(5):
        f = normalize_function(sample_ppd(T, seed=s))
        g = pullback(phi, f)
        v = evaluate_function(g)
        assert v.is_ppd and g.values[0] == 1


def test_pullback_preserves_normalized_ppd_random_homs():
    from ppdlab.groups import hom_validate

    rng = random.Random(321)
    for s in range(25):
        phi = random_valid_hom(rng)
        hom_validate(phi)
        f = normalize_function(sample_ppd(phi.target, seed=s))
        g = pullback(phi, f)
        v = evaluate_function(g)
        assert v.is_ppd and g.values[0] == 1


def test_pushforward_preserves_normalized_ppd_measures():
    from ppdlab.groups import hom_validate

    rng = random.Random(99)
    for s in range(15):
        phi = random_valid_hom(rng)
        hom_validate(phi)
        # a normalized PPD measure on the source: the dual measure of a
        # normalized PPD function on the (same-moduli) dual group
        f = normalize_function(sample_ppd(phi.source, seed=s))
        mu = dual_measure(f)
        assert mu.group.moduli == phi.source.moduli
        assert scalar_eq(mu.total_mass(), Fraction(1))
        moved = pushforward(phi, mu)
        assert scalar_eq(moved.total_mass(), Fraction(1))
        check = inverse_transform(moved)
        v = evaluate_function(check)
        assert v.is_ppd
        assert scalar_eq(check.values[0], Fraction(1))


def test_goodness_duality():
    # f good iff its normalized dual is good, checked per witness structure
    for G in abelian_group_catalog(8):
        if G.order == 1:
            continue
        f = sample_normalized_good(G, seed=5)
        g = normalized_dual(f)
        assert evaluate_function(g).is_good
        # a PPD-but-not-good function has a transform with a zero somewhere
        h = GroupFunction(G, [Fraction(1)] + [Fraction(0)] * (G.order - 1))
        hv = evaluate_function(inverse_transform(measure_from_function(
            fourier_transform(h, counting_haar(G)),
            HaarScale(G, Fraction(1, G.order)),
        )))
        assert hv.is_ppd


def test_float_mode_verdicts():
    f = GroupFunction(Z4, [4.0, 2.0, 1.0, 2.0])
    v = evaluate_function(f)
    assert v.is_ppd and v.is_good
    boundary = GroupFunction(Z4, [1.0, 0.0, 1.0, 0.0])
    vb = evaluate_function(boundary)
    assert vb.is_ppd and not vb.is_good
    # a function off the cone by a visible margin
    bad = GroupFunction(Z2, [1.0, 2.0])
    assert not evaluate_function(bad).is_ppd
    # strictness tie: a value at 1e-13 * f(0) counts as zero in float mode
    tied = GroupFunction(Z4, [1.0, 0.25, 1e-13, 0.25])
    assert not evaluate_function(tied).is_good


def test_float_mode_stabilizer_and_descent():
    f = GroupFunction(Z4, [1.0, 0.0, 1.0, 0.0])
    H = stabilizer_subgroup(f)
    assert H.elements == (0, 2)
    g = descend_to_quotient(f, H)
    assert g.values == (1.0, 0.0)


def test_float_mode_normalized_dual():
    f = GroupFunction(Z2, [1.0, 0.5])
    g = normalized_dual(f)
    assert abs(g.values[0] - 1.0) < 1e-12
    assert abs(g.values[1] - (0.5 / 1.5)) < 1e-12


def test_verdict_json_shape():
    d = evaluate_function(F(Z4, 1, 0, 1, 0)).to_dict()
    assert d["is_ppd"] is True and d["is_good"] is False
    assert d["conditions"]["2.1.1"] is True
    assert d["conditions"]["3.1.4"] is False
    assert d["vacuous_conditions"] == ["3.1.2", "3.1.3", "3.1.5"]
    assert all(isinstance(v, bool) for v in d["conditions"].values())


def test_caches_safe_under_concurrent_first_access():
    import threading

    from ppdlab.fourier import exponent_table

    moduli = (13,)  # not used anywhere else in the suite
    results = []
    errors = []

    def worker():
        try:
            results.append(exponent_table(moduli))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(r == results[0] for r in results)


def test_stabilizer_descent_roundtrip_sampled():
    for G in abelian_group_catalog(10):
        for s in range(6):
            f = sample_ppd(G, seed=500 + s)
            H = stabilizer_subgroup(f)
            g = descend_to_quotient(f, H)
            Q = quotient(G, H)
            back = pullback(Q.projection_hom, g)
            assert all(scalar_eq(a, b) for a, b in zip(back.values, f.values))
            # descending by the full stabilizer leaves a trivial stabilizer
            if H.order > 1:
                assert stabilizer_subgroup(g).order == 1 or g.group.order == 1


def _reference_verdict(f):
    """evaluate_function's verdict rebuilt from fourier_transform and
    sign_if_real, value by value."""
    fhat = fourier_transform(f, counting_haar(f.group)).values
    fs, hs = [sign_if_real(v) for v in f.values], [sign_if_real(v) for v in fhat]
    witnesses = []
    for cond, kind, name, vals, signs, ok, what in (
        ("2.1.1", "element", "f", f.values, fs, (0, 1), "not real nonnegative"),
        ("2.1.2", "character", "f_hat", fhat, hs, (0, 1), "negative"),
        ("3.1.4", "element", "f", f.values, fs, (1,), "not strictly positive"),
        ("3.1.4", "character", "f_hat", fhat, hs, (1,), "not strictly positive"),
    ):
        witnesses += [{"condition": cond, "kind": kind, "index": i,
                       "detail": f"{name}({i}) = {v} {what}"}
                      for i, (v, sg) in enumerate(zip(vals, signs)) if sg not in ok]
    failed = {w["condition"] for w in witnesses}
    is_ppd = not failed & {"2.1.1", "2.1.2"}
    conditions = {c: c not in failed for c in ("2.1.1", "2.1.2", "3.1.4")}
    conditions.update({"3.1.1": is_ppd, "3.1.2": True, "3.1.3": True, "3.1.5": True})
    return {"is_ppd": is_ppd, "is_good": is_ppd and "3.1.4" not in failed,
            "witnesses": witnesses, "conditions": conditions,
            "vacuous_conditions": ["3.1.2", "3.1.3", "3.1.5"]}, hs


@settings(max_examples=150, deadline=None)
@given(
    moduli=st.sampled_from([(1,), (2,), (3,), (4,), (5,), (7,), (8,), (12,),
                            (4, 2), (6, 2), (2, 2, 2), (4, 4)]),
    kind=st.sampled_from(["even", "any", "indicator", "constant"]),
    data=st.data(),
)
def test_rational_verdicts_match_transform_reference(moduli, kind, data):
    """The bucket route of evaluate_function and spectral_min_sign against the
    transform, on even and non-even rational f, subgroup indicators and
    constants (exact zeros in f_hat); E in {5, 7, 8, 12} prints Cyc witnesses."""
    G = make_group(list(moduli))
    rational = st.builds(Fraction, st.integers(-6, 12), st.integers(1, 4))
    if kind == "indicator":
        subs = all_subgroups(G)
        H = subs[data.draw(st.integers(0, len(subs) - 1))]
        c, shift = data.draw(rational), data.draw(st.sampled_from([0, 0, -1, 1]))
        vals = [c * int(x in H.elements) + shift for x in range(G.order)]
    elif kind == "constant":
        vals = [data.draw(rational)] * G.order
    else:
        vals = [data.draw(rational) for _ in range(G.order)]
        if kind == "even":
            vals = [vals[min(x, G.neg_index(x))] for x in range(G.order)]
    f = GroupFunction(G, vals)
    want, signs = _reference_verdict(f)
    assert evaluate_function(f).to_dict() == want
    if all(v == vals[G.neg_index(x)] for x, v in enumerate(vals)):
        assert spectral_min_sign(f) == min(signs)
    else:
        with pytest.raises(ValueError):
            spectral_min_sign(f)


def _invariant_under_every_element(f, H):
    add = f.group.index_tables[0]
    return all(f.values[add[h][x]] == v for h in H.elements for x, v in enumerate(f.values))


def test_translation_invariance_on_generators_matches_full_subgroup():
    """Exact mode checks H's generators only; it agrees with checking every h in
    H for every subgroup of every group through order 16."""
    rng = random.Random(41)
    checked = invariant = 0
    for G in abelian_group_catalog(16):
        for H in all_subgroups(G):
            Q = quotient(G, H)
            for _ in range(3):
                g = GroupFunction(Q.group, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                            for _ in range(Q.group.order)])
                f = pullback(Q.projection_hom, g)
                x = rng.randrange(G.order)
                bumped = list(f.values)
                bumped[x] += 1
                noise = [Fraction(rng.randint(0, 1)) for _ in range(G.order)]
                for case in (f, GroupFunction(G, bumped), GroupFunction(G, noise)):
                    want = _invariant_under_every_element(case, H)
                    assert _translation_invariant(case, H, 1.0) == want, (G, H)
                    checked += 1
                    invariant += want
    assert invariant > checked / 3 and checked - invariant > checked / 3


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _verdict_inputs():
    """Sampled PPD functions, shifted below zero and twisted off the reals: the
    witnesses print Cyc values at the conductors the transform stores them at."""
    for G in abelian_group_catalog(12):
        E = G.exponent()
        for s in range(3):
            f = sample_ppd(G, s).values
            yield GroupFunction(G, f)
            yield GroupFunction(G, [v - Fraction(1, 2) for v in f])
            yield GroupFunction(G, [v * unit_root(E, x) for x, v in enumerate(f)])


def _sweep_case_verdicts(seed):
    """Per-case verdicts on the functions the two verification sweeps draw."""
    out = []
    for G in abelian_group_catalog(12):
        rng = derived_rng(seed, "bochner", (G.moduli,))
        for _ in range(5):
            f = random_even_function(G, rng)
            out.append([bochner_oracle(f), spectral_min_sign(f)])
    for G in abelian_group_catalog(8):
        cone = ppd_cone_hrep(G)
        rng = derived_rng(seed, "membership", (G.moduli,))
        for _ in range(12):
            vec = tuple(Fraction(rng.randint(-3, 9), rng.randint(1, 4))
                        for _ in range(cone.basis.dim))
            f = cone.basis.function_from_vector(vec)
            out.append([is_interior(f, cone), evaluate_function(f).to_dict()])
    return out


# sha256 of sorted-key JSON; the sweep reports carry no disagreement, so the
# per-case verdicts are pinned as well.
SWEEP_REPORT_GOLDEN = {
    "bochner": "51ddb1b24a37dd526c213010c1d560811c30d91c8c2b99d199d5775475917622",
    "membership": "7f491122be027ca16a1c09e1eda667b8f9a59b339345b6b92e6d017dcad6b529",
}
SWEEP_CASES_GOLDEN = {
    1: "f2687fc5504ddb43e13a70138f456d318fe72531194b3947a369eef8c029e7c8",
    2: "7f08621fffd0dce933c73ca5a22752efca30aef6170b7f4aa313af63d7515fe8",
}
VERDICTS_GOLDEN = "eba1f32e8094cf244e878d7fc4ea33d32cc6f5b23f3bcf676a6400648e87632a"


@pytest.mark.parametrize("seed", [1, 2])
def test_verification_sweeps_golden(seed):
    assert _digest(bochner_agreement_sweep(12, 5, seed)) == SWEEP_REPORT_GOLDEN["bochner"]
    assert _digest(cone_membership_sweep(8, 12, seed)) == SWEEP_REPORT_GOLDEN["membership"]
    assert _digest(_sweep_case_verdicts(seed)) == SWEEP_CASES_GOLDEN[seed]


def test_verdicts_with_cyclotomic_witnesses_golden():
    out = [evaluate_function(f).to_dict() for f in _verdict_inputs()]
    assert sum("z" in w["detail"] for d in out for w in d["witnesses"]) == 768
    assert _digest(out) == VERDICTS_GOLDEN
