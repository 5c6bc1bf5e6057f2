import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ppdlab import cyclotomic
from ppdlab.cyclotomic import (
    Cyc,
    cos_basis_string,
    cos_ring,
    cyclotomic_polynomial,
    expand_in_cos_basis,
    field,
    is_rational,
    is_real_scalar,
    real_abs,
    real_sign,
    scalar_eq,
    sign_if_real,
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
    # a value outside Q(zeta_F) is refused, also when its descent is rational
    for e, a, F in ((10, (0, 1), 1), (12, (0, 1, 0), 4), (12, (0, 1, 0), 3)):
        with pytest.raises(ArithmeticError, match="does not descend"):
            cos_ring(e).scalar(a, F)


def test_base_changes_read_basis_vectors_back():
    """For e and F dividing L <= 48: _descend returns each power-basis vector
    zeta_F^k of Q(zeta_F), lifted to Q(zeta_L), as itself (over its d > 0),
    and each cos-basis vector of Z[2cos(2pi/e)], lifted to Q(zeta_L) and
    descended to Q(zeta_e), reads back as itself."""
    for L in range(1, 49):
        for d in cyclotomic.divisors(L):
            n = field(d).degree
            for k in range(n):
                y, den = cyclotomic._descend(cyclotomic.power_coords([(k, 1)], d, L), d, L)
                assert den > 0 and y == [den * (i == k) for i in range(n)]
            m = cyclotomic.cos_basis_size(d)
            for j in range(m):
                unit = [int(i == j) for i in range(m)]
                y, den = cyclotomic._descend(cyclotomic._cos_to_power(unit, d, L), d, L)
                assert cyclotomic._read_cos(y, d) == [den * u for u in unit]


def _fractions(n: int):
    return st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                    min_size=n, max_size=n)


@settings(max_examples=150, deadline=None)
@given(L=st.integers(1, 120), data=st.data())
def test_descents_and_cos_expansions_match_cyc_arithmetic(L, data):
    """from_int_coords(x, F, L, den) rebuilds a value of Q(zeta_F) from its
    coordinates in Q(zeta_L); expand_in_cos_basis(x, e) reads back the cos
    coordinates x was built from, at whatever conductor x is stored, and
    gives None for a value off the real subfield of Q(zeta_e)."""
    F = data.draw(st.sampled_from(cyclotomic.divisors(L)))
    vec = data.draw(_fractions(field(F).degree))
    nums, den = cyclotomic.over_common_denominator(vec)
    lifted = cyclotomic.power_coords(enumerate(nums), F, L)
    assert repr(cyclotomic.from_int_coords(lifted, F, L, den)) == repr(Cyc.make(field(F), vec))
    a = data.draw(_fractions(cyclotomic.cos_basis_size(F)))
    real = a[0] + sum((c * (unit_root(F, j) + unit_root(F, -j)) for j, c in enumerate(a) if j), Fraction(0))
    assert expand_in_cos_basis(real, F) == a
    if is_rational(real):
        return
    # the same value stored at conductor L, and two values off the subfield
    assert expand_in_cos_basis(Cyc.reduced(field(L), real.lift_num(L), real.den), F) == a
    q = data.draw(st.integers(1, 3))
    assert expand_in_cos_basis(real + q * unit_root(L, 1), F) is None
    wider = cyclotomic.cos_basis_size(L) > cyclotomic.cos_basis_size(F)
    off = expand_in_cos_basis(real + q * (unit_root(L, 1) + unit_root(L, -1)), F)
    assert (off is None) == wider


# psi^n is about 10^(-0.209 n) against coordinates near 10^(0.209 n): at
# n = 3000 and 4800, an evaluation at 960 digits cannot separate it from zero
ESCALATED_N = [*range(60, 91), 1500, 3000, 4800]


def test_cos_ring_sign_escalates_near_zero(monkeypatch):
    """F_(n+1) - F_n * 2cos(2pi/10) = psi^n with psi = (1 - sqrt 5) / 2: about
    0.618^n, far below the double screen of coordinates near F_n."""
    refined = _count_refinements(monkeypatch)
    ring = cos_ring(10)
    fib = _fibonacci(max(ESCALATED_N) + 2)
    for n in ESCALATED_N:
        want = (-1) ** n
        calls = len(refined)
        assert ring.sign((fib[n + 1], -fib[n])) == want, n
        assert len(refined) == calls + 1, n
        assert real_sign(fib[n + 1] - fib[n] * (unit_root(10, 1) + unit_root(10, -1))) == want


def test_cold_import_leaves_mpmath_unloaded():
    """mpmath is imported by _refined_sign alone, on the first escalation."""
    import os
    import subprocess
    import sys

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cyclotomic.__file__)))
    code = ("import sys, ppdlab; from ppdlab import cli, sweeps; "
            "print('mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=pkg_root))
    assert out.stdout.strip() == "False"


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    """numpy loads with the float Bochner oracle and the Gaussian probes alone,
    and mpmath with a sign that escalates, which none of these runs has; the
    gaussian names still resolve from the package, and so does every name of
    __all__ under a star import."""
    import os
    import subprocess
    import sys

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cyclotomic.__file__)))
    good = tmp_path / "good.json"
    good.write_text('{"group": "Z4", "values": [4, 1, 1, 1]}')
    code = (
        "import contextlib, io, sys, ppdlab; from ppdlab import cli, sweeps\n"
        "runs = [['cone', 'Z4', '--rays'], ['check', sys.argv[1], '--good'],\n"
        "        ['sweep', '--max-order', '4', '--samples', '1', '--seed', '1'],\n"
        "        ['cone-atlas', '--max-order', '6']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in runs]\n"
        "print(codes, 'numpy' in sys.modules, 'mpmath' in sys.modules)\n"
        "print(ppdlab.QuadraticFormSPD.__name__)\n"
        "names = {}\n"
        "exec('from ppdlab import *', names)\n"
        "print(sorted(set(ppdlab.__all__) - set(names)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(good)], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=pkg_root))
    assert out.stdout.splitlines() == ["[0, 0, 0, 0] False False", "QuadraticFormSPD", "[]"]


def test_commands_leave_dataclasses_inspect_and_csv_unloaded(tmp_path):
    """The records are NamedTuples, so no command loads dataclasses (nor its
    inspect, ast and dis); csv loads with `cone --csv` alone.  numpy imports
    inspect itself, so inspect is asserted absent before the first float run.
    hashlib loads with the seeded samplers alone: not for a cone or a check.
    The command line is read from a table, so argparse and the gettext and
    locale it pulls in stay unloaded too, asserted before numpy loads."""
    import os
    import subprocess
    import sys

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cyclotomic.__file__)))
    good = tmp_path / "good.json"
    good.write_text('{"group": "Z4", "values": [4, 1, 1, 1]}')
    rays = tmp_path / "rays.csv"
    code = (
        "import contextlib, io, sys, ppdlab; from ppdlab import cli, sweeps\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'csv')\n"
        "parsers = ('argparse', 'gettext', 'locale')\n"
        "def run(*runs):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return [cli.main(argv) for argv in runs]\n"
        "print(run(['cone', 'Z4', '--rays'], ['check', sys.argv[1], '--good']),\n"
        "      [m for m in heavy + parsers + ('hashlib',) if m in sys.modules])\n"
        "print(run(['sweep', '--max-order', '4', '--samples', '1', '--seed', '1'],\n"
        "          ['cone-atlas', '--max-order', '6']),\n"
        "      [m for m in heavy + parsers if m in sys.modules])\n"
        "print(run(['--mode', 'float', 'check', sys.argv[1], '--good'],\n"
        "          ['gaussian', '--check', 'selfdual']),\n"
        "      [m for m in ('dataclasses', 'csv') if m in sys.modules])\n"
        "print(run(['cone', 'Z4', '--rays', '--csv', sys.argv[2]]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(good), str(rays)], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=pkg_root))
    assert out.stdout.splitlines() == ["[0, 0] []", "[0, 0] []", "[0, 0] []", "[0]"]
    lines = rays.read_text().splitlines()
    assert lines[0] == "ray,coord_0,coord_1,coord_2,tight_inequalities"
    assert len(lines) > 1


# -- a Fraction reference for realness, sign and equality -----------------------


def _ref_power(k: int, E: int) -> list[Fraction]:
    """zeta_E^k in the power basis, reduced by hand modulo the cyclotomic polynomial."""
    phi = cyclotomic_polynomial(E)
    d = len(phi) - 1
    poly = [Fraction(0)] * max(k + 1, d)
    poly[k] = Fraction(1)
    for i in range(k, d - 1, -1):
        c = poly[i]
        if c:
            for j, p in enumerate(phi):
                poly[i - d + j] -= c * p
    return poly[:d]


def _ref_vec(x: Cyc) -> list[Fraction]:
    """The power-basis coordinates of x as Fractions."""
    return [Fraction(n, x.den) for n in x.num]


def _ref_coords(x, E2: int) -> list[Fraction]:
    """Coordinates of an exact scalar in Q(zeta_E2), the conductor of x dividing E2."""
    out = [Fraction(0)] * (len(cyclotomic_polynomial(E2)) - 1)
    if is_rational(x):
        out[0] = Fraction(x)
        return out
    for j, c in enumerate(_ref_vec(x)):
        for i, b in enumerate(_ref_power(j * (E2 // x.field.E), E2)):
            out[i] += c * b
    return out


def _ref_conj(x: Cyc) -> list[Fraction]:
    E = x.field.E
    out = [Fraction(0)] * x.field.degree
    for j, c in enumerate(_ref_vec(x)):
        for i, b in enumerate(_ref_power(-j % E, E)):
            out[i] += c * b
    return out


def _ref_is_real(x) -> bool:
    return is_rational(x) or _ref_conj(x) == _ref_vec(x)


def _ref_sign(x) -> int:
    """Sign of a real scalar at 80 digits; the test values stay far above 1e-60."""
    if is_rational(x):
        return (x > 0) - (x < 0)
    with mpmath.workdps(80):
        v = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(2 * mpmath.pi * j / x.field.E)
            for j, c in enumerate(_ref_vec(x))
        )
        assert abs(v) > mpmath.mpf(10) ** -60
        return 1 if v > 0 else -1


def _ref_eq(a, b) -> bool:
    ea = 1 if is_rational(a) else a.field.E
    eb = 1 if is_rational(b) else b.field.E
    E = math.lcm(ea, eb, 3)
    return _ref_coords(a, E) == _ref_coords(b, E)


@st.composite
def _exact_scalars(draw, conductors=range(3, 25)):
    """An int, a Fraction, or a Cyc at one of the conductors (3..24): raw
    (mostly not real), made real as x + conj(x), or shifted off the reals by a
    unit root."""
    E = draw(st.sampled_from(conductors))
    coord = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    vec = draw(st.lists(coord, min_size=field(E).degree, max_size=field(E).degree))
    x = Cyc.make(field(E), vec)
    kind = draw(st.sampled_from(["int", "fraction", "raw", "real", "real", "twisted"]))
    if kind == "int":
        return int(vec[0] * 4)
    if kind == "fraction":
        return vec[0]
    if kind == "real" and not is_rational(x):
        return x + Cyc.make(field(E), _ref_conj(x))
    if kind == "twisted":
        return x + unit_root(E, draw(st.integers(1, E - 1)))
    return x


@settings(max_examples=300, deadline=None)
@given(x=_exact_scalars())
def test_realness_and_sign_match_fraction_reference(x):
    real = _ref_is_real(x)
    assert is_real_scalar(x) == real
    if real:
        want = _ref_sign(x)
        assert sign_if_real(x) == want
        assert real_sign(x) == want
    else:
        assert sign_if_real(x) is None
        with pytest.raises(ValueError):
            real_sign(x)


@settings(max_examples=300, deadline=None)
@given(a=_exact_scalars(), data=st.data())
def test_scalar_eq_matches_fraction_reference(a, data):
    kind = data.draw(st.sampled_from(["other", "lifted", "as_fraction", "as_int", "shifted"]))
    if kind == "other":
        b = data.draw(_exact_scalars())
    elif kind == "lifted" and not is_rational(a):
        # the same value stored at a multiple of its conductor
        E2 = a.field.E * data.draw(st.sampled_from([2, 3]))
        b = Cyc.make(field(E2), _ref_coords(a, E2))
    elif kind == "as_fraction":
        b = Fraction(a) if is_rational(a) else _ref_vec(a)[0]
    elif kind == "as_int" and is_rational(a):
        b = int(a) if Fraction(a).denominator == 1 else math.floor(a)
    else:
        b = a + Fraction(1, 7)
    want = _ref_eq(a, b)
    assert scalar_eq(a, b) == want
    assert scalar_eq(b, a) == want


def test_int_fraction_cyc_equality():
    c = unit_root(5, 1) + unit_root(5, 4)
    assert scalar_eq(3, Fraction(3)) and scalar_eq(Fraction(6, 2), 3)
    assert not scalar_eq(Fraction(1, 2), 1) and not scalar_eq(0, Fraction(1, 3))
    assert not scalar_eq(c, 1) and not scalar_eq(Fraction(1), c)
    assert scalar_eq(c, Cyc.make(field(10), _ref_coords(c, 10)))


def _fibonacci(n: int) -> list[int]:
    fib = [0, 1]
    while len(fib) < n:
        fib.append(fib[-1] + fib[-2])
    return fib


def _count_refinements(monkeypatch) -> list:
    refined = []
    real_refined = cyclotomic._refined_sign

    def counting(*args):
        refined.append(args)
        return real_refined(*args)

    monkeypatch.setattr(cyclotomic, "_refined_sign", counting)
    return refined


def test_cyc_sign_escalates_near_zero(monkeypatch):
    """The Fibonacci values of test_cos_ring_sign_escalates_near_zero, built as
    Cyc: real, of sign (-1)^n, and too close to zero for the double screen."""
    refined = _count_refinements(monkeypatch)
    fib = _fibonacci(max(ESCALATED_N) + 2)
    two_cos = unit_root(10, 1) + unit_root(10, -1)
    for n in ESCALATED_N:
        x = fib[n + 1] - fib[n] * two_cos
        assert _ref_is_real(x) and is_real_scalar(x)
        calls = len(refined)
        assert sign_if_real(x) == (-1) ** n, n
        assert len(refined) == calls + 1, n
        assert real_sign(-x) == -((-1) ** n)
        assert not is_real_scalar(x + unit_root(10, 1))
        assert sign_if_real(x + unit_root(10, 1)) is None


def test_signs_of_wide_coordinates(monkeypatch):
    """Coordinates of 1100 bits and more: the screen shifts them instead of
    converting them to float, and escalates near zero."""
    refined = _count_refinements(monkeypatch)
    ring = cos_ring(10)
    big = 1 << 1100
    for a, want in [((3 * big, -big), 1), ((-3 * big, big), -1),
                    ((big + 1, 2 * big), 1), ((1, -(big // 3)), -1)]:
        assert ring.sign(a) == want
        assert real_sign(ring.scalar(a, 10)) == want
        assert real_sign(ring.scalar(a, 5)) == want
    assert refined == []
    wide = Fraction(big + 1, 3**700)  # wide numerator and denominator
    assert real_sign(wide * (unit_root(5, 1) + unit_root(5, 4))) == 1
    assert real_sign(wide * (unit_root(5, 2) + unit_root(5, 3))) == -1
    assert sign_if_real(wide * unit_root(5, 1)) is None
    assert refined == []
    fib = _fibonacci(92)
    for n in (60, 75, 90):
        a = (fib[n + 1] << 1100, -fib[n] << 1100)
        assert ring.sign(a) == (-1) ** n
        assert real_sign(ring.scalar(a, 10)) == (-1) ** n
    assert len(refined) == 6


@settings(max_examples=200, deadline=None)
@given(E=st.sampled_from(range(3, 25)), e=st.sampled_from([1, 2, 3, 5, 7, 8, 9, 10, 12, 16]),
       data=st.data())
def test_refined_sign_alone_matches_the_reference(E, e, data):
    """_refined_sign with no screen in front: on the numerators of a real Cyc
    and on the doubled coordinates (a_0, 2a_1, ...) of a CosRing element,
    against the 80-digit reference."""
    coord = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    x = Cyc.make(field(E), data.draw(st.lists(coord, min_size=field(E).degree,
                                              max_size=field(E).degree)))
    if not is_rational(x):
        x = x + Cyc.make(field(E), _ref_conj(x))
    if not is_rational(x):
        assert cyclotomic._refined_sign(x.num, E) == _ref_sign(x)
    ring = cos_ring(e)
    a = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=ring.m, max_size=ring.m))
    assume(any(a))
    assert cyclotomic._refined_sign((a[0], *(2 * c for c in a[1:])), e) == \
        _ref_sign(_cos_value(e, a))


def test_refined_sign_guard_fires_on_zero():
    """1 + zeta_5 + ... + zeta_5^4 = 0: the guard's one input class."""
    with pytest.raises(AssertionError, match="not separated from 0"):
        cyclotomic._refined_sign((1, 1, 1, 1, 1), 5)


# -- integer-numerator arithmetic against the Fraction reference -----------------


def _ref_mul(a, b, E: int) -> list[Fraction]:
    """Coordinates of a * b in Q(zeta_E): convolve, then reduce each power by hand."""
    ca, cb = _ref_coords(a, E), _ref_coords(b, E)
    conv = [Fraction(0)] * (2 * len(ca) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            conv[i + j] += x * y
    out = [Fraction(0)] * len(ca)
    for k, c in enumerate(conv):
        for i, p in enumerate(_ref_power(k, E)):
            out[i] += c * p
    return out


def _ref_str(x) -> str:
    if is_rational(x):
        return str(x)
    E = x.field.E
    terms = [str(c) if j == 0 else f"z{E}^{j}" if c == 1 else f"{c}*z{E}^{j}"
             for j, c in enumerate(_ref_coords(x, E)) if c]
    return " + ".join(terms)


def _conductor(x) -> int:
    return 1 if is_rational(x) else x.field.E


@settings(max_examples=300, deadline=None)
@given(x=_exact_scalars())
def test_str_and_repr_match_fraction_reference(x):
    """Each coordinate prints from its integer numerator and den as its
    Fraction prints, on conductors 3 to 24."""
    assert str(x) == _ref_str(x)
    if not is_rational(x):
        assert repr(x) == f"Cyc({x.field.E}, {[str(c) for c in _ref_vec(x)]})"


def _assert_reduced(x, E: int):
    """A rational result is a Fraction or int; a Cyc sits at conductor E with
    int numerators over a positive den, in lowest terms, not all past 0 zero."""
    if is_rational(x):
        return
    assert x.field.E == E
    assert all(type(n) is int for n in x.num) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1 and any(x.num[1:])


_SMALL_CONDUCTORS = (3, 4, 5, 6, 7, 8, 9, 10, 12)


@settings(max_examples=300, deadline=None)
@given(a=_exact_scalars(_SMALL_CONDUCTORS), b=_exact_scalars(_SMALL_CONDUCTORS),
       k=st.sampled_from([2, 3]))
def test_cyc_arithmetic_matches_fraction_reference(a, b, k):
    """+, -, *, conjugate, inverse, ==, str, repr, to_complex and lifts of
    integer-numerator values, across conductors, against Fraction coordinates."""
    E = math.lcm(_conductor(a), _conductor(b))
    ca, cb = _ref_coords(a, E), _ref_coords(b, E)
    for got, want in [(a + b, [x + y for x, y in zip(ca, cb)]),
                      (a - b, [x - y for x, y in zip(ca, cb)]),
                      (b - a, [y - x for x, y in zip(ca, cb)]),
                      (a * b, _ref_mul(a, b, E))]:
        assert _ref_coords(got, E) == want
        _assert_reduced(got, E)
        assert str(got) == _ref_str(got)
    assert (a == b) == _ref_eq(a, b) == (b == a)
    if is_rational(a):
        return
    Ea = a.field.E
    assert _ref_coords(a.conjugate(), Ea) == _ref_conj(a)
    _assert_reduced(a.conjugate(), Ea)
    _assert_reduced(-a, Ea)
    inv = a.inverse()
    _assert_reduced(inv, Ea)
    assert _ref_mul(a, inv, Ea) == _ref_coords(Fraction(1), Ea)
    # stored at a multiple of its conductor, the same value lifts and compares equal
    assert a.lift_num(Ea * k) == [c * a.den for c in _ref_coords(a, Ea * k)]
    lifted = Cyc.make(field(Ea * k), _ref_coords(a, Ea * k))
    assert lifted == a and a == lifted and not (lifted == a + Fraction(1, 5))
    # floats are those of the Fraction coordinates, bit for bit
    assert to_complex(a) == sum(float(c) * r for c, r in
                                zip(_ref_coords(a, Ea), a.field.roots_complex) if c)
    assert repr(a) == f"Cyc({Ea}, {[str(c) for c in _ref_coords(a, Ea)]})"
