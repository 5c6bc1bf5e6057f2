import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdlab.cyclotomic import Cyc, complex_roots, scalar_eq, sign_if_real, to_complex, unit_root
from ppdlab.fourier import (
    EXACT,
    FLOAT,
    FLOAT_TOL,
    STRICT_TIE_TOL,
    GroupFunction,
    HaarScale,
    ScaledMeasure,
    _character_sums,
    convolve,
    counting_haar,
    dual_haar,
    exponent_table,
    fourier_transform,
    inverse_transform,
    measure_from_function,
    plancherel_check,
    pullback,
    pushforward,
)
from ppdlab.groups import (
    Homomorphism,
    abelian_group_catalog,
    all_subgroups,
    dual_hom,
    make_group,
    pairing,
    parse_group,
    subgroup_from_generators,
)
from ppdlab.ppd import sample_good, spectral_min_sign

Z2 = make_group([2])
Z4 = make_group([4])


def naive_dft(values, moduli):
    """Independent oracle: direct complex DFT straight from the definition."""
    G = make_group(moduli)
    out = []
    for a in G.elements():
        acc = 0j
        for i, x in enumerate(G.elements()):
            acc += pairing(G, a, x).conjugate() * complex(values[i])
        out.append(acc)
    return out


def test_transform_constant_on_z2():
    f = GroupFunction(Z2, [Fraction(1), Fraction(1)])
    fhat = fourier_transform(f, counting_haar(Z2))
    assert fhat.values == (Fraction(2), Fraction(0))


def test_transform_golden_z4():
    f = GroupFunction(Z4, [Fraction(4), Fraction(2), Fraction(1), Fraction(2)])
    fhat = fourier_transform(f, counting_haar(Z4))
    assert fhat.values == (Fraction(9), Fraction(3), Fraction(1), Fraction(3))
    # oracle agreement
    ref = naive_dft([4, 2, 1, 2], (4,))
    assert all(abs(to_complex(v) - r) < 1e-12 for v, r in zip(fhat.values, ref))


# sha256 of repr((f_hat.values, mu_check.values)).  The repr shows the
# conductor each Cyc value is stored at, which depends on the summation order
# (see the fourier module docstring); str() of a value prints that conductor.
TRANSFORM_GOLDEN = {
    "rational Z12": "e19245699e0f381fed4fa28ee8788f982a401c9fe604eb3089b87ae67648e8b6",
    "rational Z6xZ2": "f742b22786b0b3f5503edf1d77d754a7d376f30d46908e6184d4933a8b8ec03a",
    "rational Z15": "ceb0177aa41f2a2bfe0842cbc02e963cd7717be9b63a176aed35463300f30315",
    "rational Z16": "2a34ec74b7ff7b95a75783ef95cd0f360cfedada352317f3ad914d9224926ac2",
    "gaussian rational Z8": "537df008586a287526e0b11f4d382868581886cf2820d80c954ce8fda5f6acdb",
    "gaussian rational Z12": "ea080c5b3ef30809377fb88d6adfb10e40af6fd327520f4c9b5eb7e018336d53",
    "sparse rational Z15": "9bb1ac688279bd1efbfecc4a476a5e4499be35212f6cfabd0b58e1ec2c652fcb",
    "sparse gaussian rational Z12": "02abc82173b6ec88a91482eba5a10f25745bfe3c1533095f1ca08669098fc92c",
    "sample_good Z15 1": "f67a039d193a0d6958ce08ffb07582a9bffa0131cb4d85c3c09d9c3f9a292b80",
    "sample_good Z15 2": "4064db495e1b23c83daec21378544bc4762ef5249370f9bcdfedf893208bbb8e",
    "float, float scale": "5e4aadf638117873302439c96feeedfa33e5aa5950bd281d955caf778a0c5ca7",
    "float, rational scale": "1630903fad65b1176d4822ee953569970b211a612f559a3b6e9a7723d5d7b471",
}


def _golden_transform_cases():
    i = unit_root(4, 1)
    cases = []
    for text in ("Z12", "Z6xZ2", "Z15", "Z16"):
        G = parse_group(text)
        vals = [Fraction((7 * x * x + 3 * x) % 11 - 3, 1 + x % 4) for x in range(G.order)]
        cases.append((f"rational {text}", GroupFunction(G, vals), Fraction(1, 3)))
    for text in ("Z8", "Z12"):
        G = parse_group(text)
        vals = [Fraction(x % 5, 2) + Fraction(3 * x % 4 - 1, 3) * i for x in range(G.order)]
        cases.append((f"gaussian rational {text}", GroupFunction(G, vals), Fraction(1)))
    # one row each where summing the buckets, or the cyclotomic terms, in
    # another order collapses to a rational at a different step
    Z15 = make_group([15])
    vals = [Fraction(0)] * 15
    vals[12], vals[10], vals[5] = Fraction(3), Fraction(2), Fraction(2)
    cases.append(("sparse rational Z15", GroupFunction(Z15, vals), Fraction(1)))
    Z12 = make_group([12])
    vals = [i, i, i, 2 * i] + [Fraction(0)] * 8
    cases.append(("sparse gaussian rational Z12", GroupFunction(Z12, vals), Fraction(1)))
    for s in (1, 2):
        cases.append((f"sample_good Z15 {s}", sample_good(Z15, s), Fraction(1)))
    G = make_group([6, 2])
    f = GroupFunction(G, [complex(0.3 + 0.1 * x, 0.05 * (x % 3)) for x in range(G.order)])
    cases.append(("float, float scale", f, 0.7))
    cases.append(("float, rational scale", f, Fraction(1, 3)))
    return cases


def test_transform_outputs_golden():
    got = {}
    for name, f, s in _golden_transform_cases():
        m = HaarScale(f.group, s)
        fwd = fourier_transform(f, m).values
        inv = inverse_transform(ScaledMeasure(f.group, f, m)).values
        got[name] = hashlib.sha256(repr((fwd, inv)).encode()).hexdigest()
    assert got == TRANSFORM_GOLDEN


def _reference_character_sums(G, values, sign, scale):
    """The kernel as a plain Cyc sum: rational values summed per power of
    zeta_E, the powers added in ascending order, then each cyclotomic term
    zeta_E^k * value added in index order."""
    E = G.exponent()
    out = []
    for row in exponent_table(G.moduli):
        buckets = [Fraction(0)] * E
        terms = []
        for k, v in zip(row, values):
            if isinstance(v, (int, Fraction)):
                buckets[(sign * k) % E] += v
            else:
                terms.append(unit_root(E, sign * k) * v)
        acc = Fraction(0)
        for k, c in enumerate(buckets):
            if c:
                acc = acc + unit_root(E, k) * c
        for t in terms:
            acc = acc + t
        out.append(acc * scale)
    return out


_small_fractions = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


@st.composite
def _field_values(draw, n):
    """Mostly 0 or a small integer, else +-zeta_n^j or a short sum of rationals
    times powers of zeta_n: sparse rows make partial sums collapse to rationals."""
    kind = draw(st.sampled_from(["zero", "zero", "zero", "zero", "int", "root", "root", "sum"]))
    if kind == "zero":
        return Fraction(0)
    if kind == "int" or n == 1:
        return Fraction(draw(st.sampled_from([-2, -1, 1, 2])))
    if kind == "root":
        return draw(st.sampled_from([1, -1])) * unit_root(n, draw(st.integers(0, n - 1)))
    v = draw(_small_fractions)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        v = v + draw(_small_fractions) * unit_root(n, draw(st.integers(0, n - 1)))
    return v


# (group, conductor of the input values); several conductors do not divide
# the exponent, so the kernel works above Q(zeta_E).
KERNEL_CASES = [((3,), 4), ((5,), 4), ((6,), 4), ((4, 2), 5), ((4,), 4), ((8,), 3),
                ((12,), 4), ((12,), 8), ((15,), 1), ((10,), 1), ((2, 2, 2), 4), ((6, 2), 12)]


@pytest.mark.parametrize("moduli,n", KERNEL_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_character_sums_match_cyc_reference(moduli, n, data):
    """Same values at the same conductors: the reprs agree."""
    G = make_group(list(moduli))
    values = [data.draw(_field_values(n)) for _ in range(G.order)]
    sign = data.draw(st.sampled_from([1, -1]))
    scale = data.draw(st.sampled_from([Fraction(1), Fraction(2, 3)]))
    got = _character_sums(G, values, sign, scale, EXACT)
    assert repr(got) == repr(_reference_character_sums(G, values, sign, scale))


@pytest.fixture
def conductor_calls(monkeypatch):
    """The argument tuples of every conductor_step call the kernel makes:
    fourier's name for it is wrapped to record them (the sampler reads it
    through fourier.root_sum)."""
    import ppdlab.fourier as fourier_module

    calls = []
    step = fourier_module.conductor_step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(fourier_module, "conductor_step", counted)
    return calls


def test_character_sums_match_cyc_reference_where_terms_collapse(conductor_calls):
    """Rows where a partial sum of cyclotomic terms turns rational and terms of
    a smaller conductor follow, so the conductor must restart at 1; rows whose
    total is rational after an irrational prefix; one Cyc object at several
    indices; Gaussian values i and -i on groups whose exponent 4 does not
    divide, so the sums live at L = lcm(E, 4).  A row traces its conductor
    exactly when its total is irrational."""
    i, z3, z83 = unit_root(4, 1), unit_root(3, 1), unit_root(8, 3)
    z5, z52, z53 = (unit_root(5, k) for k in (1, 2, 3))
    mi = -i

    def gaussian(n, at):
        """3 at 0, i at each index of at, -i at its negatives, on Z_n."""
        return [3] + [i if x in at else mi if n - x in at else 0 for x in range(1, n)]

    cases = [
        ((12,), [0, 0, z83, -1, -1, z83, -1, 0, -i, 0, 1, -1], 1),
        ((8,), [0, -1, 0, -1 - z3, 0, -z3, z3, 0], -1),
        ((6,), [-i, -i, -i, -i, 0, 0], -1),
        ((4, 2), [1, z5, 0, z5, z52, 0, -1 - z5 - z52 - z53, 0], 1),
        ((5,), [z5] * 5, 1),
        ((6,), [z3, z3, 0, z3, 2, z3], -1),
        ((4,), [i, -i, 0, 1], 1),
        ((3,), [0, z3, z3 * z3], -1),
        ((8,), [z83, 1, -z83, 0, z83, 0, -z83, 3], 1),
        ((15,), gaussian(15, {1}), 1),
        ((15,), gaussian(15, {1}), -1),
        ((21,), gaussian(21, {1}), 1),
        ((21,), gaussian(21, {1}), -1),
        ((15,), gaussian(15, {1, 4, 7}), -1),
        ((21,), gaussian(21, {2, 3, 9}), 1),
        ((21,), [z3 if x % 3 else i for x in range(21)], -1),
    ]
    for moduli, ints, sign in cases:
        G = make_group(list(moduli))
        values = [Fraction(v) if isinstance(v, int) else v for v in ints]
        conductor_calls.clear()
        got = _character_sums(G, values, sign, Fraction(1), EXACT)
        assert repr(got) == repr(_reference_character_sums(G, values, sign, Fraction(1))), moduli
        assert bool(conductor_calls) == any(isinstance(v, Cyc) for v in got), moduli


def test_spectral_screen_traces_no_conductor_for_rational_values(conductor_calls):
    """The transforms of the indicators of Z12's subgroups are rational, and
    the rows the double screen cannot sign (the zeros) step no conductor."""
    G = parse_group("Z12")
    for H in all_subgroups(G):
        f = GroupFunction(G, [Fraction(int(x in H.elements)) for x in range(G.order)])
        assert spectral_min_sign(f) >= 0
    assert conductor_calls == []


def test_rational_outputs_trace_no_conductor(conductor_calls):
    """The forward transform of a good sample is rational at every character,
    its inputs irrational for some seeds: no output steps a conductor."""
    cyc_inputs = 0
    for text in ("Z8", "Z4xZ2", "Z12"):
        G = parse_group(text)
        for s in range(5):
            f = sample_good(G, s)
            cyc_inputs += sum(not isinstance(v, Fraction) for v in f.values)
            conductor_calls.clear()
            fhat = fourier_transform(f, counting_haar(G)).values
            assert all(isinstance(v, Fraction) for v in fhat), (text, s)
            assert conductor_calls == [], (text, s)
    assert cyc_inputs


def test_transform_delta_is_constant():
    for moduli in ([4], [2, 2], [6], [3, 2]):
        G = make_group(moduli)
        f = GroupFunction(G, [Fraction(1)] + [Fraction(0)] * (G.order - 1))
        fhat = fourier_transform(f, counting_haar(G))
        assert all(v == 1 for v in fhat.values)


def test_inverse_point_mass_is_constant():
    mu = ScaledMeasure(
        Z4,
        GroupFunction(Z4, [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]),
        counting_haar(Z4),
    )
    f = inverse_transform(mu)
    assert all(v == 1 for v in f.values)


def test_inverse_uniform_probability_is_delta():
    for moduli in ([4], [2, 2], [5]):
        G = make_group(moduli)
        mu = ScaledMeasure(
            G,
            GroupFunction(G, [Fraction(1, G.order)] * G.order),
            counting_haar(G),
        )
        f = inverse_transform(mu)
        assert f.values[0] == 1
        assert all(v == 0 for v in f.values[1:])


def test_dual_haar_golden():
    m = HaarScale(Z4, Fraction(1))
    assert dual_haar(m).scale == Fraction(1, 4)
    assert dual_haar(dual_haar(m)) == m
    md = HaarScale(Z4, 0.5)
    assert abs(dual_haar(md).scale - 1 / (0.5 * 4)) < 1e-15


def test_transforms_land_on_the_same_group():
    for G in (Z4, make_group([3, 2])):
        m = counting_haar(G)
        for values in ([Fraction(k + 1) for k in range(G.order)],
                       [float(k + 1) for k in range(G.order)]):
            f = GroupFunction(G, values)
            assert fourier_transform(f, m).group is f.group
            assert inverse_transform(measure_from_function(f, m)).group is f.group
        assert dual_haar(m).group is G


def test_dual_haar_self_dual_scale():
    import math

    for n in (2, 4, 9):
        G = make_group([n])
        m = HaarScale(G, 1.0 / math.sqrt(G.order))
        assert abs(dual_haar(m).scale - m.scale) < 1e-15


def test_inversion_roundtrip_exhaustive():
    rng = random.Random(11)
    for G in abelian_group_catalog(16):
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        m = HaarScale(G, scale)
        f = GroupFunction(
            G,
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(G.order)],
        )
        fhat = fourier_transform(f, m)
        back = inverse_transform(measure_from_function(fhat, dual_haar(m)))
        assert back.group == G and all(
            scalar_eq(a, b) for a, b in zip(back.values, f.values)
        )


def test_inversion_roundtrip_float():
    rng = random.Random(5)
    for moduli in ([4], [3, 2], [8]):
        G = make_group(moduli)
        m = HaarScale(G, 0.7)
        f = GroupFunction(
            G, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(G.order)]
        )
        back = inverse_transform(
            measure_from_function(fourier_transform(f, m), dual_haar(m))
        )
        assert back.group == f.group
        assert max(abs(a - b) for a, b in zip(back.values, f.values)) < 1e-10


def test_transform_linear_and_scales_with_haar():
    G = make_group([3, 2])
    rng = random.Random(3)
    f = GroupFunction(G, [Fraction(rng.randint(-5, 5)) for _ in range(G.order)])
    g = GroupFunction(G, [Fraction(rng.randint(-5, 5)) for _ in range(G.order)])
    m = counting_haar(G)
    fg = GroupFunction(G, [a + b for a, b in zip(f.values, g.values)])
    lhs = fourier_transform(fg, m)
    rhs = [
        a + b
        for a, b in zip(
            fourier_transform(f, m).values, fourier_transform(g, m).values
        )
    ]
    assert all(scalar_eq(a, b) for a, b in zip(lhs.values, rhs))
    m2 = HaarScale(G, Fraction(3, 2))
    assert all(
        scalar_eq(a * Fraction(3, 2), b)
        for a, b in zip(
            fourier_transform(f, m).values, fourier_transform(f, m2).values
        )
    )


def test_real_even_transforms_to_real_even():
    rng = random.Random(9)
    for moduli in ([5], [8], [4, 3]):
        G = make_group(moduli)
        vals = [Fraction(0)] * G.order
        for i in range(G.order):
            if vals[i] == 0:
                v = Fraction(rng.randint(-4, 4))
                vals[i] = v
                vals[G.neg_index(i)] = v
        fhat = fourier_transform(GroupFunction(G, vals), counting_haar(G))
        for a in range(G.order):
            v = fhat.values[a]
            if not isinstance(v, (int, Fraction)):
                from ppdlab.cyclotomic import is_real_scalar

                assert is_real_scalar(v)
            assert scalar_eq(v, fhat.values[G.neg_index(a)])


def test_convolution_theorem_exhaustive():
    rng = random.Random(17)
    for G in abelian_group_catalog(12):
        mu = ScaledMeasure(
            G,
            GroupFunction(G, [Fraction(rng.randint(0, 5)) for _ in range(G.order)]),
            HaarScale(G, Fraction(rng.randint(1, 3))),
        )
        nu = ScaledMeasure(
            G,
            GroupFunction(G, [Fraction(rng.randint(0, 5)) for _ in range(G.order)]),
            HaarScale(G, Fraction(1, rng.randint(1, 3))),
        )
        conv = convolve(mu, nu)
        lhs = inverse_transform(conv)
        mc, nc = inverse_transform(mu), inverse_transform(nu)
        rhs = [a * b for a, b in zip(mc.values, nc.values)]
        assert all(scalar_eq(a, b) for a, b in zip(lhs.values, rhs))


def test_convolution_golden_two_point():
    mu = ScaledMeasure(
        Z2, GroupFunction(Z2, [Fraction(3, 4), Fraction(1, 4)]), counting_haar(Z2)
    )
    conv = convolve(mu, mu)
    assert conv.density.values == (Fraction(5, 8), Fraction(3, 8))
    assert conv.total_mass() == 1


def test_convolution_identity_and_uniform():
    G = make_group([3, 2])
    delta = ScaledMeasure(
        G,
        GroupFunction(G, [Fraction(1)] + [Fraction(0)] * (G.order - 1)),
        counting_haar(G),
    )
    rng = random.Random(2)
    nu = ScaledMeasure(
        G,
        GroupFunction(G, [Fraction(rng.randint(0, 9)) for _ in range(G.order)]),
        counting_haar(G),
    )
    conv = convolve(delta, nu)
    assert conv.density.values == nu.density.values
    uniform = ScaledMeasure(
        G, GroupFunction(G, [Fraction(1, G.order)] * G.order), counting_haar(G)
    )
    uu = convolve(uniform, uniform)
    assert all(v == Fraction(1, G.order) for v in uu.density.values)


def test_pullback_golden():
    phi = Homomorphism(Z2, Z4, ((2,),))
    f = GroupFunction(Z4, [Fraction(4), Fraction(2), Fraction(1), Fraction(2)])
    g = pullback(phi, f)
    assert g.values == (Fraction(4), Fraction(1))
    ident = Homomorphism(Z4, Z4, ((1,),))
    assert pullback(ident, f).values == f.values
    zero = Homomorphism(Z2, Z4, ((0,),))
    assert pullback(zero, f).values == (Fraction(4), Fraction(4))


def test_pushforward_golden():
    G = make_group([4])
    Z2g = make_group([2])
    proj = Homomorphism(G, Z2g, ((1,),))
    uniform = ScaledMeasure(
        G, GroupFunction(G, [Fraction(1, 4)] * 4, ), counting_haar(G)
    )
    out = pushforward(proj, uniform)
    assert out.density.values == (Fraction(1, 2), Fraction(1, 2))
    assert out.total_mass() == 1
    # point-mass transport through the inclusion {0,2} -> Z4
    H = subgroup_from_generators(G, [(2,)])
    H_abs, incl = H.as_group()
    delta2 = ScaledMeasure(
        H_abs,
        GroupFunction(H_abs, [Fraction(0), Fraction(1)]),
        counting_haar(H_abs),
    )
    moved = pushforward(incl, delta2)
    assert moved.density.values == (Fraction(0), Fraction(0), Fraction(1), Fraction(0))


def test_pushforward_dual_identity():
    """(phi_* mu)-check = mu-check composed with the dual homomorphism."""
    rng = random.Random(23)
    G = make_group([4, 2])
    T = make_group([4])
    phi = Homomorphism(G, T, ((1, 2),))
    mu = ScaledMeasure(
        G,
        GroupFunction(G, [Fraction(rng.randint(0, 6)) for _ in range(G.order)]),
        HaarScale(G, Fraction(2, 3)),
    )
    lhs = inverse_transform(pushforward(phi, mu))
    rhs = pullback(dual_hom(phi), inverse_transform(mu))
    assert all(scalar_eq(a, b) for a, b in zip(lhs.values, rhs.values))


def test_restriction_transform_pushforward_scale():
    """Transforming a restriction matches pushing the transform along the dual
    projection, once both sides carry their dual Haar scales."""
    rng = random.Random(31)
    for moduli in ([4], [4, 2], [6]):
        G = make_group(moduli)
        m = HaarScale(G, Fraction(1))
        f = GroupFunction(G, [Fraction(rng.randint(-5, 5)) for _ in range(G.order)])
        for H in all_subgroups(G):
            H_abs, incl = H.as_group()
            mH = HaarScale(H_abs, Fraction(1))
            lhs = fourier_transform(pullback(incl, f), mH)  # on dual of H_abs
            fhat = fourier_transform(f, m)
            moved = pushforward(dual_hom(incl), measure_from_function(fhat, dual_haar(m)))
            # measure density equals lhs * dual_haar(mH) mass at each character
            dh = dual_haar(mH)
            for idx in range(H_abs.order):
                assert scalar_eq(moved.mass_at(idx), lhs.values[idx] * dh.scale)


def test_plancherel_exact_and_float():
    rng = random.Random(41)
    G = make_group([6])
    f = GroupFunction(
        G, [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(G.order)]
    )
    assert plancherel_check(f, counting_haar(G)) == 0
    delta = GroupFunction(G, [Fraction(1)] + [Fraction(0)] * 5)
    assert plancherel_check(delta, counting_haar(G)) == 0
    ff = GroupFunction(
        G, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(G.order)]
    )
    norm2 = sum(abs(v) ** 2 for v in ff.values)
    assert plancherel_check(ff, HaarScale(G, 1.0)) < 1e-12 * norm2


def test_group_mismatch_errors():
    f = GroupFunction(Z4, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        fourier_transform(f, counting_haar(Z2))
    mu = ScaledMeasure(Z2, GroupFunction(Z2, [1, 1]), counting_haar(Z2))
    nu = ScaledMeasure(Z4, GroupFunction(Z4, [1, 1, 1, 1]), counting_haar(Z4))
    with pytest.raises(ValueError):
        convolve(mu, nu)


def test_group_function_call_and_equality():
    f = GroupFunction(Z4, [Fraction(4), Fraction(1), Fraction(2), Fraction(1)])
    assert f(1) == f((1,)) == Fraction(1)  # by index and by element
    assert f((5,)) == f(1) and f((-2,)) == f(2) == Fraction(2)  # elements reduce
    assert f.__eq__(1) is NotImplemented and f != 1
    assert f != GroupFunction(make_group([2, 2]), f.values)  # same values, other group
    assert f == GroupFunction(Z4, [4, 1, 2, 1])
    floats = GroupFunction(Z4, [4.0, 1.0, 2.0, 1.0])
    assert floats == GroupFunction(Z4, [4.0, 1.0, 2.0, 1.0])
    assert floats != GroupFunction(Z4, [4.0, 1.0, 2.0, 1.5])


@pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_haar_scale_rejects_non_finite_and_non_positive_floats(scale):
    with pytest.raises(ValueError):
        HaarScale(Z2, scale)


def test_haar_scale_finite_float_transforms_finitely():
    fhat = fourier_transform(GroupFunction(Z2, [1.0, 0.5]), HaarScale(Z2, 0.5))
    assert all(abs(v - w) < 1e-12 for v, w in zip(fhat.values, [0.75, 0.25]))


@settings(max_examples=40, deadline=None)
@given(
    moduli=st.sampled_from([(2,), (3,), (4,), (2, 2), (5,), (6,)]),
    data=st.data(),
)
def test_inversion_property(moduli, data):
    G = make_group(list(moduli))
    vals = [
        Fraction(data.draw(st.integers(min_value=-6, max_value=6)))
        for _ in range(G.order)
    ]
    num = data.draw(st.integers(min_value=1, max_value=4))
    den = data.draw(st.integers(min_value=1, max_value=4))
    m = HaarScale(G, Fraction(num, den))
    f = GroupFunction(G, vals)
    back = inverse_transform(
        measure_from_function(fourier_transform(f, m), dual_haar(m))
    )
    assert all(scalar_eq(a, b) for a, b in zip(back.values, f.values))


# -- whole-vector Mode tests against the per-value tests they replaced ----------


def _old_value(mode, v):
    return v if mode.exact else complex(to_complex(v))


def _old_scale(mode, values):
    if mode.exact:
        return 1.0
    return max([1.0] + [abs(to_complex(v)) for v in values])


def _old_nonneg_positive(mode, v, scale, base):
    """(nonneg(v, scale), positive(v, base)) as Mode answered them one value at
    a time, the float sign inlined."""
    if mode.exact:
        s = sign_if_real(v)
        return s in (0, 1), s == 1
    c = to_complex(v)
    nonneg = abs(c.imag) <= FLOAT_TOL * scale and c.real >= -FLOAT_TOL * scale
    x = c.real
    sign = (x > STRICT_TIE_TOL * base) - (x < -STRICT_TIE_TOL * base)
    return nonneg, sign > 0 and abs(c.imag) <= FLOAT_TOL * base


def _bits(v):
    """A float or complex by its bits (the sign of a zero included), else its repr."""
    if isinstance(v, (float, complex)):
        return (float(v.real).hex(), float(v.imag).hex())
    return repr(v)


@st.composite
def _real_field_values(draw, n):
    v = draw(_field_values(n))
    return v + v.conjugate()


_exact_values = st.one_of(
    st.integers(min_value=-5, max_value=5), _small_fractions,
    _field_values(5), _field_values(8), _real_field_values(5), _real_field_values(12),
)
_float_mode_values = st.one_of(
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e6, max_value=1e6), st.sampled_from([0.0, -0.0, 1.0]),
    _exact_values,
)


def _boundary_values(scale, base):
    """Values with a real or imaginary part at, or one ulp either side of,
    +-FLOAT_TOL * scale, +-STRICT_TIE_TOL * base and +-FLOAT_TOL * base."""
    out = []
    for t in (FLOAT_TOL * scale, STRICT_TIE_TOL * base, FLOAT_TOL * base):
        for u in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)):
            for x in (u, -u):
                out += [complex(x, 0.0), complex(1.0, x), complex(x, x)]
    return out


@settings(max_examples=150, deadline=None)
@given(exact_vs=st.lists(_exact_values, min_size=1, max_size=8),
       float_vs=st.lists(_float_mode_values, min_size=1, max_size=8),
       base_kind=st.sampled_from(["f(0)", "one", "large"]))
def test_mode_vector_methods_match_the_per_value_methods(exact_vs, float_vs, base_kind):
    for mode, vs in ((EXACT, exact_vs), (FLOAT, float_vs)):
        scale = mode.scale(vs)
        assert scale == _old_scale(mode, vs)
        base = {"f(0)": abs(to_complex(vs[0])) or 1.0, "one": 1.0, "large": 1e5}[base_kind]
        if not mode.exact:
            vs = vs + _boundary_values(scale, base)
        vals = mode.values(vs)
        old = [_old_value(mode, v) for v in vs]
        assert [_bits(v) for v in vals] == [_bits(v) for v in old]
        # evaluate_function measures the converted values
        assert mode.scale(vals) == _old_scale(mode, vs)
        assert mode.tests(vals, scale, base) == [
            _old_nonneg_positive(mode, v, scale, base) for v in old
        ]


@pytest.mark.parametrize("group", ["Z6xZ2", "Z16", "Z3xZ3"])
def test_float_character_sums_match_the_per_term_sum_bitwise(group):
    G = parse_group(group)
    E, table = G.exponent(), exponent_table(G.moduli)
    roots = complex_roots(E)
    rng = random.Random(group)
    values = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(G.order)]
    values[1:4] = [complex(-0.0, -0.0), complex(0.0, -0.0), 2.5]
    for sign in (1, -1):
        for scale in (Fraction(1), Fraction(1, 3), 0.37):
            for rows in (None, [G.order - 1, 0, 2]):
                got = _character_sums(G, values, sign, scale, FLOAT, rows)
                want = [float(scale) * sum(roots[(sign * k) % E] * to_complex(v)
                                           for k, v in zip(table[b], values))
                        for b in (range(G.order) if rows is None else rows)]
                assert [_bits(v) for v in got] == [_bits(v) for v in want]
