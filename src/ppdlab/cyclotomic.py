"""Exact scalar arithmetic over cyclotomic fields, with certified sign decisions.

An exact scalar is either a plain ``int``/``Fraction`` or a :class:`Cyc`:
an element of Q(zeta_E) stored in the power basis ``1, zeta, ..., zeta^(d-1)``
(d = phi(E)), reduced modulo the E-th cyclotomic polynomial, as a tuple of
integer numerators ``num`` over one positive ``den`` in lowest terms.
Arithmetic, conjugation, inverses (the other Galois conjugates over the
norm), lifts and comparisons run on those integers through each field's
integer power table; str() and repr() print every coordinate n / den as
``str(Fraction(n, den))`` does, from one gcd.  Rational results contract back
to ``Fraction``, so the two kinds mix freely and a reduced nonzero ``Cyc`` is
never rational.
Changes of basis are index arithmetic on the same tables:
a value descends to a subfield Q(zeta_F) by a trace and a slice
(_descend), and a real value's coordinates over the cos basis of
Z[2cos(2*pi/e)] are read off its power coordinates (_read_cos).

sign_if_real decides realness and sign once per value on integer numerators
(a rational's from its numerator): conjugation on the numerators, then one
double screen (screen_sign, shared with CosRing) that shifts wide integers
down rather than overflow.  A value it cannot call takes one mpmath evaluation
(_refined_sign, imported on first use) at a precision proven by the norm: a
nonzero algebraic integer of degree D with conjugates <= M is >= M^-(D-1).
Exact zeros are recognized structurally (a reduced value is zero iff every
coordinate is), so only nonzero values escalate, and no sign can fail.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from typing import Optional, Union

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "Cyc"]

# Margin multiplier over the double rounding error of a short cyclotomic sum.
_FLOAT_SCREEN = 1e-12


def euler_phi(n: int) -> int:
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division is exact for cyclotomic factors of x^E - 1
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(E: int) -> tuple[int, ...]:
    """Coefficients of the E-th cyclotomic polynomial, low degree first."""
    if E < 1:
        raise ValueError(f"conductor must be positive, got {E}")
    if E == 1:
        return (-1, 1)
    poly = [-1] + [0] * (E - 1) + [1]
    for d in divisors(E):
        if d < E:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class CycField:
    """Cached arithmetic tables for Q(zeta_E) in the power basis."""

    __slots__ = ("E", "degree", "powers", "roots_complex")

    def __init__(self, E: int):
        self.E = E
        phi = cyclotomic_polynomial(E)
        d = len(phi) - 1
        self.degree = d
        # x^d = -(phi - x^d); iterate to get the integer coordinates of x^k mod
        # phi, kept for zeta^m, m in range(E), as sparse pairs (i, c), c != 0
        tail = tuple(-c for c in phi[:d])
        pows: list[tuple[tuple[int, int], ...]] = []
        cur = [1] + [0] * (d - 1)
        for _ in range(E):
            pows.append(tuple((i, c) for i, c in enumerate(cur) if c))
            lead = cur[d - 1]
            cur = [0] + cur[: d - 1]
            if lead:
                cur = [a + lead * t for a, t in zip(cur, tail)]
        self.powers = tuple(pows)
        self.roots_complex = tuple(
            cmath.exp(2j * cmath.pi * j / E) for j in range(d)
        )

    def __repr__(self):
        return f"CycField({self.E})"


@lru_cache(maxsize=None)
def field(E: int) -> CycField:
    return CycField(E)


def _as_fraction(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Cyc:
    """A non-rational element of Q(zeta_E): integer power-basis numerators num
    over one positive den, in lowest terms; rational results contract to Fraction."""

    __slots__ = ("field", "num", "den")

    def __init__(self, fld: CycField, num: tuple[int, ...], den: int):
        self.field = fld
        self.num = num
        self.den = den

    # -- construction -------------------------------------------------------

    @staticmethod
    def reduced(fld: CycField, num, den: int) -> Scalar:
        """num / den (den > 0) in lowest terms; a rational value as Fraction."""
        if not any(num[1:]):
            return Fraction(num[0], den)
        g = math.gcd(den, *num)
        if g != 1:
            return Cyc(fld, tuple(n // g for n in num), den // g)
        return Cyc(fld, tuple(num), den)

    @staticmethod
    def make(fld: CycField, vec) -> Scalar:
        """The value with rational power-basis coordinates vec."""
        return Cyc.reduced(fld, *over_common_denominator(vec))

    def lift_num(self, E2: int) -> list[int]:
        """Numerators over den of this value inside Q(zeta_E2); requires E | E2."""
        return power_coords(enumerate(self.num), self.field.E, E2)

    # -- arithmetic ---------------------------------------------------------

    def _lifted(self, other: "Cyc"):
        """(field, numerators of self, of other) at the lcm of the conductors."""
        if other.field is self.field:
            return self.field, self.num, other.num
        E = math.lcm(self.field.E, other.field.E)
        return field(E), self.lift_num(E), other.lift_num(E)

    def _add(self, other, sign: int):
        if isinstance(other, Cyc):
            fld, a, b = self._lifted(other)
            d = other.den
        elif isinstance(other, (int, Fraction)):
            fld, a, b, d = self.field, self.num, (other.numerator,), other.denominator
        else:
            return NotImplemented
        den = math.lcm(self.den, d)
        s = den // self.den
        out = [x * s for x in a] if s != 1 else list(a)
        s = sign * (den // d)
        for i, y in enumerate(b):
            out[i] += y * s
        return Cyc.reduced(fld, out, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return Cyc.reduced(self.field, [c * n for c in self.num],
                               self.den * other.denominator) if n else Fraction(0)
        if not isinstance(other, Cyc):
            return NotImplemented
        fld, a, b = self._lifted(other)
        return Cyc.reduced(fld, _int_product(fld, a, b), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        # 1/x = den * c / N: c is the product of the other Galois conjugates of
        # num, and N = num * c, a product of squared absolute values, is a
        # positive integer (E > 2 here, so the conjugates pair off)
        fld = self.field
        E = fld.E
        conj = (power_coords(((k * j, n) for j, n in enumerate(self.num)), E, E)
                for k in range(2, E) if math.gcd(k, E) == 1)
        cof = reduce(lambda a, b: _int_product(fld, a, b), conj, [1] + [0] * (fld.degree - 1))
        norm = _int_product(fld, self.num, cof)[0]
        if not norm:
            raise ZeroDivisionError("cyclotomic inverse of zero")
        return Cyc.reduced(fld, [c * self.den for c in cof], norm)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _as_fraction(other))
        if isinstance(other, Cyc):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> Scalar:
        # an integer involution: the result stays non-rational and in lowest terms
        return Cyc(self.field, tuple(_conj_num(self)), self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return False  # reduced non-rational value
        if not isinstance(other, Cyc):
            return NotImplemented
        if other.field is self.field:
            return self.den == other.den and self.num == other.num
        _, a, b = self._lifted(other)
        return all(x * other.den == y * self.den for x, y in zip(a, b))

    def __hash__(self):
        raise TypeError("Cyc values are not hashable")

    def to_complex(self) -> complex:
        den = self.den
        return sum(
            (n / den) * r for n, r in zip(self.num, self.field.roots_complex) if n
        )

    def __repr__(self):
        return f"Cyc({self.field.E}, {[_ratio_str(n, self.den) for n in self.num]})"

    def __str__(self):
        E, den = self.field.E, self.den
        return " + ".join(
            _ratio_str(n, den) if j == 0 else f"z{E}^{j}" if n == den
            else f"{_ratio_str(n, den)}*z{E}^{j}"
            for j, n in enumerate(self.num) if n) or "0"


def _ratio_str(n: int, den: int) -> str:
    """n / den, den > 0, printed as str(Fraction(n, den)) prints it."""
    g = math.gcd(n, den)
    return f"{n // g}" if g == den else f"{n // g}/{den // g}"


def _int_product(fld: CycField, a, b) -> list[int]:
    """Power-basis coordinates of the product of integer coordinates a and b."""
    conv = [0] * (2 * fld.degree - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return power_coords(enumerate(conv), fld.E, fld.E)


def power_coords(terms, E: int, L: int) -> list[int]:
    """Integer coordinates in Q(zeta_L) of sum n * zeta_E^k over the pairs
    (k, n) of terms, E | L."""
    fld = field(L)
    powers, step = fld.powers, L // E
    out = [0] * fld.degree
    for k, n in terms:
        if n:
            for i, c in powers[(k % E) * step]:
                out[i] += n * c
    return out


def _conj_num(x: "Cyc") -> list[int]:
    """The numerators of conj(x) over x.den: zeta^j goes to zeta^-j."""
    return power_coords(((-j, n) for j, n in enumerate(x.num)), x.field.E, x.field.E)


# -- public scalar helpers ---------------------------------------------------


def unit_root(E: int, k: int) -> Scalar:
    """exp(2*pi*i*k/E) as an exact scalar, stored at its minimal conductor."""
    k %= E
    g = math.gcd(k, E)
    Er, kr = E // g, k // g
    if Er == 1:
        return Fraction(1)
    if Er == 2:
        return Fraction(-1)
    return Cyc.make(field(Er), power_coords(((kr, 1),), Er, Er))


def root_conductor(E: int, k: int) -> int:
    """The conductor unit_root(E, k) is stored at: E / gcd(k, E), 1 when that is <= 2."""
    c = E // math.gcd(k, E)
    return c if c > 2 else 1


def conductor_step(cond: int, term_cond: int, coords) -> int:
    """The conductor rule every printed value follows: Cyc arithmetic stores a
    sum or product of operands at conductors cond and term_cond at their lcm,
    or at 1 when the result is rational, that is when its coordinates coords
    (power or cos basis; coordinate 0 is the rational part in both) vanish past
    coordinate 0.  A sum steps once per term.  A zero rational factor makes a
    product rational, so term_cond == 1 is no shortcut."""
    return math.lcm(cond, term_cond) if any(coords[1:]) else 1


@lru_cache(maxsize=None)
def _descent_plan(F: int, L: int):
    """(t1, F1, t2, u, sums) for F | L: L/F = t1 * t2 with every prime of t1
    dividing F and gcd(t2, F) = 1, F1 = F * t1, 1 = u * t2 + v * F1, and
    sums[j] = c_t2(v * j) for j in range(t2), c_t2 the Ramanujan sum (the
    trace of zeta_t2^j, coordinate 0 of the sum over the units mod t2)."""
    t1, t2 = 1, L // F
    while (g := math.gcd(t2, F)) > 1:
        t1, t2 = t1 * g, t2 // g
    F1 = F * t1
    u = pow(t2, -1, F1)
    v = (1 - u * t2) // F1
    units = [a for a in range(t2) if math.gcd(a, t2) == 1]
    sums = tuple(power_coords(((a * v * j, 1) for a in units), t2, t2)[0] for j in range(t2))
    return t1, F1, t2, u, sums


def _descend(x, F: int, L: int) -> tuple[list[int], int]:
    """(y, d): y / d are the coordinates in Q(zeta_F), F | L, of the value with
    integer power-basis coordinates x in Q(zeta_L), when it lies in Q(zeta_F).
    The trace to Q(zeta_F1) sends zeta_L^i = zeta_F1^(u i) zeta_t2^(v i) to
    zeta_F1^(u i) c_t2(v i) and a value of Q(zeta_F1) to phi(t2) = c_t2(0)
    times itself; then Phi_F1(X) = Phi_F(X^t1) puts the value's Q(zeta_F)
    coordinates at every t1-th exponent."""
    t1, F1, t2, u, sums = _descent_plan(F, L)
    d = 1
    if t2 > 1:
        x = power_coords(((u * i, n * sums[i % t2]) for i, n in enumerate(x)), F1, F1)
        d = sums[0]
    return x[::t1], d


def from_int_coords(x, F: int, L: int, den: int) -> Scalar:
    """x / den, for integer power-basis coordinates x in Q(zeta_L), stored at
    conductor F (F | L, the value in Q(zeta_F)); a rational value as Fraction."""
    if F != L and any(x[1:]):
        x, d = _descend(x, F, L)
        den *= d
    return Cyc.reduced(field(F), x, den)


def is_rational(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction))


def conj_scalar(x: Scalar) -> Scalar:
    return x if isinstance(x, (int, Fraction)) else x.conjugate()


def over_common_denominator(values) -> tuple[list[int], int]:
    """(nums, den) with values[i] = nums[i] / den, den the lcm of the denominators."""
    # a list: an unpacked generator leaves its argument tuple on the tuple free list
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _real_numerators(x: Cyc) -> Optional[tuple[int, ...]]:
    """x.num, or None when x is not real, i.e. when its numerators differ
    from those of its conjugate."""
    return x.num if tuple(_conj_num(x)) == x.num else None


def is_real_scalar(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) or _real_numerators(x) is not None


def to_complex(x) -> complex:
    if isinstance(x, Cyc):
        return x.to_complex()
    return complex(x)


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, Cyc) or isinstance(b, Cyc):
        return a == b  # a reduced Cyc is never rational
    return a.numerator == b.numerator and a.denominator == b.denominator  # lowest terms


@lru_cache(maxsize=None)
def cos_approx(E: int) -> tuple[float, ...]:
    """cos(2*pi*k/E) for k in range(E): the real parts of the powers of zeta_E."""
    return tuple(math.cos(2 * math.pi * k / E) for k in range(E))


def screen_sign(coords, weights) -> Optional[int]:
    """Certified sign of sum(c * w) over integer coords and float weights
    |w| <= 2, or None when the double screen cannot tell it from zero.
    Coordinates are shifted right until sum |c| fits in 60 bits; each floor
    moves the sum by less than |w|, so the margin grows by 2 per coordinate."""
    mass = sum(map(abs, coords))
    shift = mass.bit_length() - 60
    if shift > 0:
        coords = [c >> shift for c in coords]
        mass = sum(map(abs, coords))
    v = sum(map(mul, coords, weights))
    if abs(v) > _FLOAT_SCREEN * mass + (2.0 * len(coords) if shift > 0 else 0.0):
        return 1 if v > 0 else -1
    return None


def sign_if_real(x: Scalar) -> Optional[int]:
    """Certified sign (-1, 0, +1) of an exact scalar, or None when it is not
    real; a rational has its numerator's sign, a real Cyc that of
    sum n_j cos(2*pi*j/E) over its numerators."""
    if isinstance(x, (int, Fraction)):
        n = x.numerator
        return (n > 0) - (n < 0)
    nums = _real_numerators(x)
    if nums is None:
        return None
    s = screen_sign(nums, cos_approx(x.field.E))
    return _refined_sign(nums, x.field.E) if s is None else s


def real_sign(x: Scalar) -> int:
    """Certified sign (-1, 0, +1) of a real exact scalar."""
    s = sign_if_real(x)
    if s is None:
        raise ValueError(f"sign of a non-real value: {x!r}")
    return s


def _refined_sign(coeffs, E: int) -> int:
    """Sign of the nonzero v = sum c_j cos(2*pi*j/E) over integer coeffs, from one
    evaluation at p = D * bitlen(2M) + bitlen(n) + 6 bits: D = max(1, phi(E)/2),
    M = sum |c_j|, n = len(coeffs).  2v is an algebraic integer of degree <= D
    with conjugates <= 2M, so its nonzero integer norm gives |2v| >= (2M)^-(D-1),
    while the evaluation errs by at most (n + 16) M 2^-p < |v|/2 (the guard)."""
    import mpmath  # only values the screen cannot call escalate; a cold import skips it

    mass, n = sum(map(abs, coeffs)), len(coeffs)
    prec = max(1, euler_phi(E) // 2) * (2 * mass).bit_length() + n.bit_length() + 6
    with mpmath.workprec(prec):
        total = mpmath.fsum(c * mpmath.cospi(mpmath.mpf(2 * j) / E) for j, c in enumerate(coeffs))
        err = mpmath.ldexp((n + 16) * mass, -prec)
    if not abs(total) > err:
        raise AssertionError(f"sum of {coeffs} * cos(2pi*j/{E}) is not separated from 0")
    return 1 if total > 0 else -1


def real_abs(x: Scalar) -> Scalar:
    return x if real_sign(x) >= 0 else -x


def scalar_inv(x: Scalar) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return Fraction(x.denominator, x.numerator)
    return x.inverse()


# -- real cyclotomic subfield expansions --------------------------------------


def cos_basis_size(e: int) -> int:
    """Size of the integral basis {1} + {2cos(2*pi*j/e)} of Z[2cos(2*pi/e)]."""
    if e <= 2:
        return 1
    return euler_phi(e) // 2


def _mat_vec(mat, vec) -> list[int]:
    return [sum(a * x for a, x in zip(row, vec) if a) for row in mat]


def _read_cos(x, e: int) -> list[int]:
    """Cos-basis coordinates of the real value with integer power-basis
    coordinates x in Q(zeta_e).  Times zeta^(m-1), m = cos_basis_size(e),
    a_0 + sum a_j (zeta^j + zeta^-j) puts a_0 at exponent m-1 and a_j at
    m-1+j and m-1-j, all below phi(e) and so reduced: read m-1 ... 2m-2."""
    m = cos_basis_size(e)
    return power_coords(((j + m - 1, n) for j, n in enumerate(x)), e, e)[m - 1:2 * m - 1]


def _cos_to_power(a, e: int, L: int) -> list[int]:
    """Integer coordinates in Q(zeta_L), e | L, of sum a_j b_j over the cos basis."""
    return power_coords([(0, a[0])] + [(s * j, a[j]) for j in range(1, len(a)) for s in (1, -1)],
                        e, L)


def expand_in_cos_basis(x: Scalar, e: int):
    """Rational coordinates of x in the basis [1, 2cos(2pi/e), ..., 2cos(2pi(m-1)/e)].

    Returns None when x does not lie in the real subfield of Q(zeta_e).
    """
    m = cos_basis_size(e)
    if isinstance(x, (int, Fraction)):
        return [_as_fraction(x)] + [Fraction(0)] * (m - 1)
    L = math.lcm(x.field.E, e)
    target = list(x.num) if x.field.E == L else x.lift_num(L)
    y, den = _descend(target, e, L)
    coeffs = _read_cos(y, e)
    if _cos_to_power(coeffs, e, L) != [den * t for t in target]:
        return None
    return [Fraction(c, den * x.den) for c in coeffs]


class CosRing:
    """Z[2cos(2pi/e)] on integer coordinates over b_0 = 1, b_j = 2cos(2pi j/e).

    An element is a tuple of m = cos_basis_size(e) ints.  ``cos[t]`` expands
    2cos(2pi t/e) for every t; products follow b_i b_j = cos[i+j] + cos[i-j].
    Build it once per e through :func:`cos_ring`.
    """

    __slots__ = ("e", "m", "zero", "one", "cos", "_prod", "_galois", "_approx")

    def __init__(self, e: int):
        m = self.m = cos_basis_size(e)
        self.e = e
        self.zero = (0,) * m
        self.one = (1,) + self.zero[1:]
        self.cos = cos = tuple(tuple(_read_cos(power_coords(((t, 1), (-t, 1)), e, e), e))
                               for t in range(e))
        basis = (self.one,) + cos[1:m]
        # b_i b_j as sparse (k, coefficient) pairs
        self._prod = tuple(tuple(
            tuple((k, t) for k, t in enumerate(
                basis[i + j] if i * j == 0 else self.add(cos[(i + j) % e], cos[i - j])
            ) if t)
            for j in range(m)) for i in range(m))
        # sigma_k for k in (Z/e)^x / +-1 without the identity, as integer matrices
        self._galois = tuple(
            tuple(zip(self.one, *(cos[j * k % e] for j in range(1, m))))
            for k in range(2, e // 2 + 1) if math.gcd(k, e) == 1
        )
        self._approx = (1.0,) + tuple(2 * c for c in cos_approx(e)[1:m])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        out = [0] * self.m
        for i, x in enumerate(a):
            if x:
                row = self._prod[i]
                for j, y in enumerate(b):
                    if y:
                        xy = x * y
                        for k, t in row[j]:
                            out[k] += xy * t
        return tuple(out)

    def conjugates(self, a) -> list[tuple[int, ...]]:
        """sigma_k(a) for every nontrivial k in (Z/e)^x / +-1."""
        return [tuple(_mat_vec(g, a)) for g in self._galois]

    def norm_cofactor(self, a):
        """The product of the nontrivial conjugates: a times it is the norm of a."""
        return reduce(self.mul, self.conjugates(a), self.one)

    def sign(self, a) -> int:
        """Certified sign of a: the double screen, escalating on (a_0, 2a_1, ...)."""
        if not any(a[1:]):
            return (a[0] > 0) - (a[0] < 0)
        s = screen_sign(a, self._approx)
        return _refined_sign((a[0], *(2 * c for c in a[1:])), self.e) if s is None else s

    def scalar(self, a, F: int) -> Scalar:
        """a (rational coordinates) as an exact scalar stored at conductor F
        (F | e, a in Q(zeta_F))."""
        if not any(a[1:]):
            return Fraction(a[0])
        nums, den = over_common_denominator(a)
        x = _cos_to_power(nums, self.e, self.e)
        value = from_int_coords(x, F, self.e, den)
        # a irrational, so a rational descent is a failed one too
        if F != self.e and (is_rational(value) or any(
                n * den != c * value.den for n, c in zip(value.lift_num(self.e), x))):
            raise ArithmeticError(f"value does not descend to conductor {F}")
        return value


@lru_cache(maxsize=None)
def cos_ring(e: int) -> CosRing:
    return CosRing(e)


def cos_basis_string(coeffs, e: int) -> str:
    """Printable expansion over the {1, 2cos(2*pi*j/e)} basis."""
    parts = []
    for j, c in enumerate(coeffs):
        if not c:
            continue
        if j == 0:
            parts.append(str(c))
        else:
            atom = f"2cos(2pi*{j}/{e})"
            if c == 1:
                parts.append(atom)
            elif c == -1:
                parts.append(f"-{atom}")
            else:
                parts.append(f"{c}*{atom}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
