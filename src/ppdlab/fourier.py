"""Fourier analysis on finite abelian groups with explicit Haar bookkeeping.

Every transform takes a Haar scale (a positive multiple of counting measure):
normalization is the central bookkeeping hazard of this whole subject, so it
is never implicit.  Functions run in one of two arithmetic modes: exact
(int/Fraction/Cyc scalars, identities hold on the nose) or float (complex
values, equality up to a tolerance); see Mode.  The mode is a property of the
function, decided once: GroupFunction(group, values) scans the values, and
every internal construction (transforms, pullback, normalization, descent,
sampling, averaging, parsing) passes the mode it already knows through
GroupFunction._with_mode.  Mode tests whole value vectors: values, scale and
tests convert, measure and sign-test a vector in one pass.

Both transforms, and the spectral screen in ppd, are one character-sum
kernel, _character_sums: an O(|G|^2) sum over a cached exponent table.  In
float mode it sums root * value in index order, at C speed over a root list
signed once per call; a sum past the float range is a ValueError, not a value.

In exact mode it runs on Python ints.  Every input is put over one common
denominator and worked in Q(zeta_L), L = lcm(E, the conductors of the Cyc
inputs), in power-basis coordinates.  Each row sums the rational numerators
into E buckets, adds the buckets in ascending k through a cached integer
table of the powers of zeta_L, then adds each cyclotomic term
zeta_E^k * value in index order.  A value is built only at the end, stored at
the conductor a Cyc sum in that order would reach (cyclotomic.conductor_step),
which str() prints.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

from .cyclotomic import (
    Cyc,
    complex_roots,
    conj_scalar,
    conductor_step,
    field,
    from_int_coords,
    is_real_scalar,
    power_coords,
    real_abs,
    real_sign,
    root_conductor,
    scalar_eq,
    scalar_inv,
    sign_if_real,
    to_complex,
)
from .groups import (
    FiniteAbelianGroup,
    Homomorphism,
    dual_group,
    hom_index_map,
    hom_validate,
)

# Float-mode tolerances, read only by Mode: equality and sign up to
# FLOAT_TOL * scale, strict positivity beyond STRICT_TIE_TOL * scale.
FLOAT_TOL = 1e-10
STRICT_TIE_TOL = 1e-12


@lru_cache(maxsize=None)
def exponent_table(moduli: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """table[a][x] = k with <a, x> = exp(2*pi*i*k/E); cached per moduli.

    k = sum_j a_j * x_j * (E/n_j) mod E, built one cyclic factor at a time in
    index order, as groups builds its add table."""
    E = math.lcm(*moduli)
    rows = ((0,),)
    for n in moduli:
        c = E // n
        rows = tuple(tuple([(t + c * r * s) % E for s in range(n) for t in row])
                     for r in range(n) for row in rows)
    return rows


class Mode:
    """Exact or float arithmetic: its zero and one, its inverse, and its tests.

    Exact tests are certified on the nose.  Float tests take the scale the
    tolerance is relative to; scale() gives the usual one, max(1, |v|).
    values, scale and tests work on whole vectors.
    """

    __slots__ = ("exact", "zero", "one")

    def __init__(self, exact: bool):
        self.exact = exact
        self.zero = Fraction(0) if exact else 0.0
        self.one = Fraction(1) if exact else 1.0

    def __and__(self, other: "Mode") -> "Mode":
        """The mode two operands compute in together: exact when both are."""
        return other if self.exact else self

    def values(self, vs) -> Sequence:
        """vs as this mode computes with them: unchanged, or complex numbers."""
        if self.exact:
            return vs
        return [v if type(v) is complex else complex(to_complex(v)) for v in vs]

    def scale(self, values) -> float:
        """max(1, |v|) over the values in float mode; exact tests ignore it."""
        if self.exact:
            return 1.0
        return max([1.0, *map(abs, self.values(values))])

    def tests(self, vs, scale: float, base: float) -> list[tuple[bool, bool]]:
        """(nonnegative, strictly positive) for each value of vs, as values()
        gives them.  Nonnegative: real and >= 0, in float mode both up to
        FLOAT_TOL * scale.  Strictly positive: real and > 0, in float mode
        beyond STRICT_TIE_TOL * base with an imaginary part up to
        FLOAT_TOL * base.  An exact value's sign is asked once."""
        if self.exact:
            return [(s in (0, 1), s == 1) for s in map(sign_if_real, vs)]
        tol, tie, im_tol = FLOAT_TOL * scale, STRICT_TIE_TOL * base, FLOAT_TOL * base
        return [(abs(v.imag) <= tol and v.real >= -tol, v.real > tie and abs(v.imag) <= im_tol)
                for v in vs]

    def inv(self, v):
        return scalar_inv(v) if self.exact else 1.0 / v

    def dist(self, a, b):
        """|a - b|, a real exact scalar or a float."""
        if self.exact:
            return real_abs(a - b)
        return abs(to_complex(a) - to_complex(b))

    def eq(self, a, b, scale: float = 1.0) -> bool:
        if self.exact:
            return scalar_eq(a, b)
        return self.dist(a, b) <= FLOAT_TOL * scale

    def at_least(self, a, b, scale: float) -> bool:
        """a >= b for real a, b; in float mode up to FLOAT_TOL * scale."""
        if self.exact:
            if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
                return a.numerator * b.denominator >= b.numerator * a.denominator
            return real_sign(a - b) >= 0
        return not (to_complex(a) - to_complex(b)).real < -FLOAT_TOL * scale

    def sign(self, v, scale: float) -> int:
        """Sign of a real value; float values within STRICT_TIE_TOL * scale are 0."""
        if self.exact:
            return real_sign(v)
        x = to_complex(v).real
        return (x > STRICT_TIE_TOL * scale) - (x < -STRICT_TIE_TOL * scale)

    def real(self, v) -> bool:
        """Real; a float's imaginary part may be FLOAT_TOL * max(1, |v|)."""
        if self.exact:
            return is_real_scalar(v)
        return not abs(to_complex(v).imag) > FLOAT_TOL * self.scale([v])

    def positive_real(self, v) -> bool:
        """Real and > 0, a float's imaginary part judged as in real()."""
        if self.exact:
            return sign_if_real(v) == 1
        return self.real(v) and not to_complex(v).real <= 0


EXACT = Mode(True)
FLOAT = Mode(False)


class GroupFunction:
    """Complex-valued function on a finite abelian group, dense by element index.

    Its mode is exact when every value is an int, Fraction or Cyc, float
    otherwise; internal constructions pass it through _with_mode instead."""

    __slots__ = ("group", "values", "mode")

    def __init__(self, group: FiniteAbelianGroup, values: Sequence):
        values = tuple(values)
        exact = all(isinstance(v, (int, Fraction, Cyc)) for v in values)
        self._fill(group, values, EXACT if exact else FLOAT)

    @classmethod
    def _with_mode(cls, group: FiniteAbelianGroup, values: Sequence,
                   mode: Mode) -> "GroupFunction":
        """A function whose mode the caller already knows, the one __init__
        would decide from the values, so the values are not scanned."""
        f = cls.__new__(cls)
        f._fill(group, tuple(values), mode)
        return f

    def _fill(self, group, values: tuple, mode: Mode) -> None:
        if len(values) != group.order:
            raise ValueError(
                f"need {group.order} values for {group}, got {len(values)}"
            )
        self.group = group
        self.values = values
        self.mode = mode

    def __call__(self, x) -> object:
        if isinstance(x, int):
            return self.values[x]
        return self.values[self.group.index(x)]

    def __eq__(self, other):
        if not isinstance(other, GroupFunction):
            return NotImplemented
        if self.group != other.group:
            return False
        if self.mode.exact and other.mode.exact:
            return all(scalar_eq(a, b) for a, b in zip(self.values, other.values))
        return self.values == other.values

    def __repr__(self):
        return f"GroupFunction({self.group}, {list(self.values)})"


class HaarScale:
    """Haar measure = scale * counting measure; scale is a positive rational or
    a positive finite float."""

    __slots__ = ("group", "scale", "mode")

    def __init__(self, group: FiniteAbelianGroup, scale):
        if isinstance(scale, int):
            scale = Fraction(scale)
        if isinstance(scale, Fraction):
            if scale <= 0:
                raise ValueError(f"Haar scale must be positive, got {scale}")
        elif isinstance(scale, float):
            if not 0 < scale < math.inf:
                raise ValueError(f"Haar scale must be positive and finite, got {scale}")
        else:
            raise TypeError(f"unsupported Haar scale type {type(scale)}")
        self.group = group
        self.scale = scale
        self.mode = EXACT if isinstance(scale, Fraction) else FLOAT

    def __eq__(self, other):
        return (
            isinstance(other, HaarScale)
            and self.group == other.group
            and self.scale == other.scale
        )

    def __repr__(self):
        return f"HaarScale({self.group}, {self.scale})"


def counting_haar(G: FiniteAbelianGroup) -> HaarScale:
    return HaarScale(G, Fraction(1))


class ScaledMeasure:
    """A density times a Haar scale; total mass is scale * sum of the density."""

    __slots__ = ("group", "density", "haar", "mode")

    def __init__(self, group: FiniteAbelianGroup, density: GroupFunction,
                 haar: HaarScale):
        if density.group != group or haar.group != group:
            raise ValueError("measure components live on different groups")
        self.group = group
        self.density = density
        self.haar = haar
        self.mode = density.mode & haar.mode

    def mass_at(self, i: int):
        return self.density.values[i] * self.haar.scale

    def total_mass(self):
        return sum(self.density.values) * self.haar.scale

    def __repr__(self):
        return f"ScaledMeasure({self.group}, {list(self.density.values)}, {self.haar.scale})"


# -- transforms ---------------------------------------------------------------


def fourier_transform(f: GroupFunction, m: HaarScale) -> GroupFunction:
    """f_hat(chi) = scale * sum_x conj(chi(x)) f(x), on the dual group."""
    if f.group != m.group:
        raise ValueError(f"function on {f.group} but Haar scale on {m.group}")
    mode = f.mode & m.mode
    out = _character_sums(f.group, f.values, -1, m.scale, mode)
    return GroupFunction._with_mode(dual_group(f.group), out, mode)


def inverse_transform(mu: ScaledMeasure) -> GroupFunction:
    """mu_check(x) = sum_chi chi(x) d(mu)(chi), a function on the dual group."""
    out = _character_sums(mu.group, mu.density.values, 1, mu.haar.scale, mu.mode)
    return GroupFunction._with_mode(dual_group(mu.group), out, mu.mode)


def transform_rows(f: GroupFunction, rows) -> list:
    """fourier_transform(f, counting_haar(f.group)).values[b] for each index b
    in rows, summing those rows alone."""
    return _character_sums(f.group, f.values, -1, Fraction(1), f.mode, rows)


def _character_sums(G: FiniteAbelianGroup, values, sign: int, scale, mode: Mode,
                    rows=None):
    """scale * sum_a values[a] * zeta_E^(sign * <a, b>) for every index b, or
    for each b in rows; the pairing is symmetric, so row b of the exponent
    table serves both directions."""
    E = G.exponent()
    table = exponent_table(G.moduli)
    if rows is not None:
        table = [table[b] for b in rows]
    if mode.exact:
        return _exact_character_sums(E, table, values, sign, scale)
    roots = complex_roots(E)
    if sign < 0:  # root k becomes zeta_E^(-k) = roots[(E - k) % E]
        roots = roots[:1] + roots[:0:-1]
    scale = float(scale)
    vals = mode.values(values)
    out = [scale * sum(map(mul, map(roots.__getitem__, row), vals)) for row in table]
    if not all(map(cmath.isfinite, out)):
        raise ValueError("a computed float value is not finite")
    return out


def _exact_character_sums(E: int, table, values, sign: int, scale):
    """The exact kernel on integer coordinates at L = lcm(E, input conductors)
    over one common denominator; see the module docstring."""
    L = math.lcm(E, *[v.field.E for v in values if isinstance(v, Cyc)])
    den = common_denominator(values)
    rationals, cycs = [], []
    for x, v in enumerate(values):
        if isinstance(v, Cyc):
            cycs.append((x, _term_table(v, den, E, L)))
        elif v:
            rationals.append((x, v.numerator * (den // v.denominator)))
    snum, den = scale.numerator, den * scale.denominator
    out = []
    for row in table:
        acc, cond = root_sum(enumerate(int_buckets(row, rationals, sign, E)), E, L)
        for x, terms in cycs:
            vec, tc = terms[(sign * row[x]) % E]
            for i, c in enumerate(vec):
                acc[i] += c
            cond = conductor_step(cond, tc, acc)
        out.append(from_int_coords([a * snum for a in acc], cond, L, den))
    return out


def common_denominator(values) -> int:
    """The lcm of the denominators of exact values, a Cyc's being its den."""
    # a list, not a generator, as in cyclotomic.over_common_denominator
    return math.lcm(*[v.den if isinstance(v, Cyc) else v.denominator for v in values])


def int_buckets(row, numerators, sign: int, E: int) -> list[int]:
    """buckets[k] sums the integer numerators n of (x, n) with sign * row[x] = k mod E."""
    buckets = [0] * E
    for x, n in numerators:
        buckets[(sign * row[x]) % E] += n
    return buckets


def root_sum(terms, E: int, L: int):
    """(coordinates in Q(zeta_L), conductor) of sum n * zeta_E^k over the pairs
    (k, n) of terms, added in the order given, the conductor stepped term by
    term (cyclotomic.conductor_step)."""
    fld = field(L)
    powers, step = fld.powers, L // E
    acc = [0] * fld.degree
    cond = 1
    for k, n in terms:
        if n:
            for i, c in powers[(k % E) * step]:
                acc[i] += n * c
            cond = conductor_step(cond, root_conductor(E, k), acc)
    return acc, cond


def _term_table(v: Cyc, den: int, E: int, L: int):
    """(coordinates in Q(zeta_L) of zeta_E^m * v * den, conductor of that term)
    for every m in range(E)."""
    lift = L // v.field.E
    scale = den // v.den
    num = [(j * lift, c * scale) for j, c in enumerate(v.num) if c]
    out = []
    for m in range(E):
        vec = power_coords(((m * (L // E) + e, n) for e, n in num), L, L)
        out.append((vec, conductor_step(root_conductor(E, m), v.field.E, vec)))
    return out


def dual_haar(m: HaarScale) -> HaarScale:
    """The unique dual scale making Fourier inversion exact: 1 / (scale * |G|)."""
    return HaarScale(dual_group(m.group), m.mode.inv(m.scale * m.group.order))


def measure_from_function(f: GroupFunction, m: HaarScale) -> ScaledMeasure:
    return ScaledMeasure(f.group, f, m)


# -- convolution and transport --------------------------------------------------


def convolve(mu: ScaledMeasure, nu: ScaledMeasure) -> ScaledMeasure:
    """Pushforward of mu x nu along addition; satisfies (mu*nu)-check = mu-check * nu-check."""
    if mu.group != nu.group:
        raise ValueError("convolution needs measures on the same group")
    G = mu.group
    out = [(mu.mode & nu.mode).zero] * G.order
    dv, ev = mu.density.values, nu.density.values
    for a, row in zip(dv, G.index_tables[0]):
        if a == 0:
            continue
        for j, b in enumerate(ev):
            if b == 0:
                continue
            out[row[j]] += a * b
    scale = mu.haar.scale * nu.haar.scale
    return ScaledMeasure(G, GroupFunction(G, out), HaarScale(G, scale))


def pullback(phi: Homomorphism, f: GroupFunction) -> GroupFunction:
    """(phi^* f)(x) = f(phi(x)) for f on the target of phi."""
    hom_validate(phi)
    if f.group != phi.target:
        raise ValueError("pullback needs a function on the homomorphism target")
    vals = f.values
    return GroupFunction._with_mode(phi.source, [vals[t] for t in hom_index_map(phi)],
                                    f.mode)


def pushforward(phi: Homomorphism, mu: ScaledMeasure) -> ScaledMeasure:
    """Transport mass along phi; the image measure keeps the same total mass."""
    hom_validate(phi)
    if mu.group != phi.source:
        raise ValueError("pushforward needs a measure on the homomorphism source")
    B = phi.target
    out = [mu.mode.zero] * B.order
    for i, t in enumerate(hom_index_map(phi)):
        v = mu.mass_at(i)
        if v != 0:
            out[t] += v
    return ScaledMeasure(B, GroupFunction(B, out), HaarScale(B, mu.mode.one))


# -- diagnostics ----------------------------------------------------------------


def plancherel_check(f: GroupFunction, m: HaarScale):
    """|  ||f||^2 w.r.t. m  minus  ||f_hat||^2 w.r.t. dual m  |; exactly 0 in exact mode."""
    fhat = fourier_transform(f, m)
    mhat = dual_haar(m)
    mode = f.mode & m.mode
    if mode.exact:
        lhs = sum((v * conj_scalar(v) for v in f.values), mode.zero) * m.scale
        rhs = sum((v * conj_scalar(v) for v in fhat.values), mode.zero) * mhat.scale
        return mode.dist(lhs, rhs)
    scale = float(m.scale)
    lhs = scale * sum(abs(to_complex(v)) ** 2 for v in f.values)
    rhs = float(mhat.scale) * sum(abs(to_complex(v)) ** 2 for v in fhat.values)
    return abs(lhs - rhs)
