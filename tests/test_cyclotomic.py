import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ppdlab import cyclotomic
from ppdlab.cyclotomic import (
    Cyc,
    cos_basis_string,
    cos_ring,
    cyclotomic_polynomial,
    expand_in_cos_basis,
    is_rational,
    is_real_scalar,
    real_abs,
    real_sign,
    scalar_eq,
    to_complex,
    unit_root,
)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_unit_root_contracts_to_rational():
    assert unit_root(4, 0) == 1
    assert unit_root(4, 2) == -1
    assert unit_root(12, 6) == -1
    assert isinstance(unit_root(4, 1), Cyc)


def test_root_of_unity_relations():
    i = unit_root(4, 1)
    assert i * i == Fraction(-1)
    w = unit_root(3, 1)
    assert w * w * w == 1
    assert scalar_eq(w * w, unit_root(3, 2))
    # 1 + w + w^2 = 0
    assert w + w * w + 1 == 0


def test_mixed_conductor_arithmetic():
    i = unit_root(4, 1)
    w = unit_root(3, 1)
    z = i * w  # a primitive 12th root
    assert scalar_eq(z, unit_root(12, 7))
    assert scalar_eq(z * unit_root(12, 5), Fraction(1))
    assert scalar_eq(z * unit_root(12, 11), unit_root(12, 6))


def test_conjugation_and_reality():
    i = unit_root(4, 1)
    assert i.conjugate() == unit_root(4, 3)
    c = unit_root(5, 1) + unit_root(5, 4)  # 2cos(2pi/5)
    assert is_real_scalar(c)
    assert not is_real_scalar(unit_root(5, 1))


def test_inverse_and_division():
    z = unit_root(5, 2)
    assert z * z.inverse() == 1
    g = unit_root(5, 1) + unit_root(5, 4)
    assert scalar_eq(g * (1 / g), Fraction(1))


def test_real_sign_golden_values():
    # 2cos(2pi/5) = (sqrt(5)-1)/2 > 0; 2cos(4pi/5) = -(sqrt(5)+1)/2 < 0
    c1 = unit_root(5, 1) + unit_root(5, 4)
    c2 = unit_root(5, 2) + unit_root(5, 3)
    assert real_sign(c1) == 1
    assert real_sign(c2) == -1
    assert real_sign(Fraction(0)) == 0
    assert real_sign(c1 + c2) == -1  # equals -1 exactly
    assert c1 + c2 == Fraction(-1)


def test_real_sign_near_cancellation():
    # sqrt(5) built two ways differs by 0 exactly; plus a tiny rational offset
    s5a = 2 * unit_root(5, 1) + 2 * unit_root(5, 4) + 1
    eps = Fraction(1, 10**30)
    assert real_sign(s5a - s5a + eps) == 1
    assert real_sign((s5a + eps) - s5a) == 1
    assert real_sign((s5a - eps) - s5a) == -1


def test_real_abs():
    c2 = unit_root(5, 2) + unit_root(5, 3)
    assert real_sign(real_abs(c2)) == 1
    assert real_abs(Fraction(-3, 2)) == Fraction(3, 2)


def test_to_complex_matches_cmath():
    for E in (3, 4, 5, 7, 8, 12):
        for k in range(E):
            approx = to_complex(unit_root(E, k))
            exact = complex(math.cos(2 * math.pi * k / E), math.sin(2 * math.pi * k / E))
            assert abs(approx - exact) < 1e-12


def test_cos_basis_expansion_rational_exponents():
    for e in (1, 2, 3, 4, 6):
        coeffs = expand_in_cos_basis(Fraction(7, 2), e)
        assert coeffs == [Fraction(7, 2)]


def test_cos_basis_expansion_quintic():
    c1 = unit_root(5, 1) + unit_root(5, 4)
    coeffs = expand_in_cos_basis(c1, 5)
    assert coeffs == [Fraction(0), Fraction(1)]
    c2 = unit_root(5, 2) + unit_root(5, 3)
    # 2cos(4pi/5) = -1 - 2cos(2pi/5)
    assert expand_in_cos_basis(c2, 5) == [Fraction(-1), Fraction(-1)]
    s = cos_basis_string(coeffs, 5)
    assert "2cos(2pi*1/5)" in s


def test_cos_basis_expansion_rejects_non_members():
    assert expand_in_cos_basis(unit_root(5, 1), 5) is None


@settings(max_examples=200, deadline=None)
@given(
    E=st.sampled_from([3, 4, 5, 6, 7, 8, 9, 12]),
    j=st.integers(min_value=0, max_value=11),
    k=st.integers(min_value=0, max_value=11),
)
def test_root_multiplicativity(E, j, k):
    assert scalar_eq(unit_root(E, j) * unit_root(E, k), unit_root(E, j + k))


@settings(max_examples=100, deadline=None)
@given(
    a=st.fractions(min_value=-5, max_value=5, max_denominator=6),
    b=st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
def test_field_ops_match_complex(a, b):
    z = a * unit_root(8, 1) + b * unit_root(8, 3)
    w = b - a * unit_root(8, 2)
    assert abs(to_complex(z * w) - to_complex(z) * to_complex(w)) < 1e-9
    assert abs(to_complex(z + w) - (to_complex(z) + to_complex(w))) < 1e-9
    assert abs(to_complex(z - w) - (to_complex(z) - to_complex(w))) < 1e-9


def test_is_rational_flag():
    assert is_rational(Fraction(2, 3))
    assert is_rational(5)
    assert not is_rational(unit_root(3, 1))


def _cos_value(e, a):
    """Independent evaluation of cos-basis coordinates through unit roots."""
    total = Fraction(a[0])
    for j, c in enumerate(a[1:], start=1):
        total = total + c * (unit_root(e, j) + unit_root(e, -j))
    return total


@settings(max_examples=60, deadline=None)
@given(
    e=st.sampled_from([1, 2, 3, 5, 7, 8, 9, 10, 12, 13, 14, 15, 16]),
    data=st.data(),
)
def test_cos_ring_matches_cyc_arithmetic(e, data):
    ring = cos_ring(e)
    elem = st.lists(st.integers(-9, 9), min_size=ring.m, max_size=ring.m).map(tuple)
    a, b = data.draw(elem), data.draw(elem)
    assert scalar_eq(ring.scalar(a, e), _cos_value(e, a))
    assert expand_in_cos_basis(ring.scalar(a, e), e) == [Fraction(c) for c in a]
    assert scalar_eq(ring.scalar(ring.mul(a, b), e), _cos_value(e, a) * _cos_value(e, b))
    assert ring.sign(a) == real_sign(_cos_value(e, a))
    if any(a):
        norm = ring.mul(a, ring.norm_cofactor(a))
        assert not any(norm[1:]) and norm[0] != 0


def test_cos_ring_cos_table_and_descent():
    for e in (5, 8, 10, 12, 16):
        ring = cos_ring(e)
        for t in range(e):
            assert scalar_eq(ring.scalar(ring.cos[t], e), unit_root(e, t) + unit_root(e, -t))
    # one value, two conductors, two printed forms
    ring = cos_ring(10)
    assert str(ring.scalar((-1, 1), 10)) == "z10^2 + -1*z10^3"
    assert str(ring.scalar((-1, 1), 5)) == "-1 + -1*z5^2 + -1*z5^3"
    assert str(cos_ring(16).scalar((0, 0, 1, 0), 8)) == "z8^1 + -1*z8^3"


def test_cos_ring_sign_escalates_near_zero(monkeypatch):
    """F_(n+1) - F_n * 2cos(2pi/10) = psi^n with psi = (1 - sqrt 5) / 2: about
    0.618^n, far below the double screen of coordinates near F_n."""
    refined = []
    real_refined = cyclotomic._refined_sign

    def counting(x):
        refined.append(x)
        return real_refined(x)

    monkeypatch.setattr(cyclotomic, "_refined_sign", counting)
    ring = cos_ring(10)
    fib = [0, 1]
    while len(fib) < 92:
        fib.append(fib[-1] + fib[-2])
    for n in range(60, 91):
        want = (-1) ** n
        calls = len(refined)
        assert ring.sign((fib[n + 1], -fib[n])) == want, n
        assert len(refined) == calls + 1, n
        assert real_sign(fib[n + 1] - fib[n] * (unit_root(10, 1) + unit_root(10, -1))) == want
