"""Fourier analysis on finite abelian groups with explicit Haar bookkeeping.

Every transform takes a Haar scale (a positive multiple of counting measure):
normalization is the central bookkeeping hazard of this whole subject, so it
is never implicit.  Functions run in one of two arithmetic modes, decided by
their values: exact (int/Fraction/Cyc scalars, identities hold on the nose)
or float (complex values, equality up to FLOAT_TOL).

The transform is the naive O(|G|^2) sum over a cached character-exponent
table, which is ample at order <= 64.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cyclotomic import (
    Cyc,
    conj_scalar,
    is_rational,
    real_sign,
    scalar_eq,
    to_complex,
    unit_root,
)
from .groups import (
    FiniteAbelianGroup,
    Homomorphism,
    dual_group,
    hom_index_map,
    hom_validate,
    pairing_exponent,
)

# Global float-mode equality tolerance (relative where a scale is available).
FLOAT_TOL = 1e-10


@lru_cache(maxsize=None)
def exponent_table(moduli: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """table[a][x] = k with <a, x> = exp(2*pi*i*k/E); cached per moduli."""
    G = FiniteAbelianGroup(moduli)
    elems = [G.element(i) for i in range(G.order)]
    return tuple(
        tuple(pairing_exponent(G, a, x) for x in elems) for a in elems
    )


@lru_cache(maxsize=None)
def _complex_roots(E: int) -> tuple[complex, ...]:
    import cmath

    return tuple(cmath.exp(2j * cmath.pi * k / E) for k in range(E))


class GroupFunction:
    """Complex-valued function on a finite abelian group, dense by element index."""

    __slots__ = ("group", "values", "is_exact")

    def __init__(self, group: FiniteAbelianGroup, values: Sequence):
        values = tuple(values)
        if len(values) != group.order:
            raise ValueError(
                f"need {group.order} values for {group}, got {len(values)}"
            )
        self.group = group
        self.values = values
        self.is_exact = all(isinstance(v, (int, Fraction, Cyc)) for v in values)

    def __call__(self, x) -> object:
        if isinstance(x, int):
            return self.values[x]
        return self.values[self.group.index(x)]

    def __eq__(self, other):
        if not isinstance(other, GroupFunction):
            return NotImplemented
        if self.group != other.group:
            return False
        if self.is_exact and other.is_exact:
            return all(scalar_eq(a, b) for a, b in zip(self.values, other.values))
        return self.values == other.values

    def __repr__(self):
        return f"GroupFunction({self.group}, {list(self.values)})"

    def map(self, fn) -> "GroupFunction":
        return GroupFunction(self.group, [fn(v) for v in self.values])

    def to_float(self) -> "GroupFunction":
        return GroupFunction(self.group, [to_complex(v) for v in self.values])


class HaarScale:
    """Haar measure = scale * counting measure; scale is a positive rational or float."""

    __slots__ = ("group", "scale")

    def __init__(self, group: FiniteAbelianGroup, scale):
        if isinstance(scale, int):
            scale = Fraction(scale)
        if isinstance(scale, Fraction):
            if scale <= 0:
                raise ValueError(f"Haar scale must be positive, got {scale}")
        elif isinstance(scale, float):
            if not scale > 0:
                raise ValueError(f"Haar scale must be positive, got {scale}")
        else:
            raise TypeError(f"unsupported Haar scale type {type(scale)}")
        self.group = group
        self.scale = scale

    @property
    def is_exact(self) -> bool:
        return isinstance(self.scale, Fraction)

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


def self_dual_haar(G: FiniteAbelianGroup) -> HaarScale:
    return HaarScale(G, 1.0 / math.sqrt(G.order))


class ScaledMeasure:
    """A density times a Haar scale; total mass is scale * sum of the density."""

    __slots__ = ("group", "density", "haar")

    def __init__(self, group: FiniteAbelianGroup, density: GroupFunction,
                 haar: HaarScale):
        if density.group != group or haar.group != group:
            raise ValueError("measure components live on different groups")
        self.group = group
        self.density = density
        self.haar = haar

    @property
    def is_exact(self) -> bool:
        return self.density.is_exact and self.haar.is_exact

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
    G = f.group
    table = exponent_table(G.moduli)
    E = G.exponent()
    if f.is_exact and m.is_exact:
        out = []
        for a in range(G.order):
            row = table[a]
            buckets = [Fraction(0)] * E
            tail = []
            for x, v in enumerate(f.values):
                if isinstance(v, (int, Fraction)):
                    buckets[(-row[x]) % E] += v
                else:
                    tail.append(unit_root(E, -row[x]) * v)
            acc = _from_buckets(E, buckets)
            for t in tail:
                acc = acc + t
            out.append(acc * m.scale)
        return GroupFunction(dual_group(G), out)
    roots = _complex_roots(E)
    scale = m.scale if isinstance(m.scale, float) else float(m.scale)
    vals = [to_complex(v) for v in f.values]
    out = [
        scale * sum(roots[(-table[a][x]) % E] * vals[x] for x in range(G.order))
        for a in range(G.order)
    ]
    return GroupFunction(dual_group(G), out)


def _from_buckets(E: int, buckets):
    acc = Fraction(0)
    for k, c in enumerate(buckets):
        if c:
            acc = acc + unit_root(E, k) * c
    return acc


def inverse_transform(mu: ScaledMeasure) -> GroupFunction:
    """mu_check(x) = sum_chi chi(x) d(mu)(chi), a function on the dual group."""
    G = mu.group
    table = exponent_table(G.moduli)
    E = G.exponent()
    if mu.is_exact:
        out = []
        for x in range(G.order):
            buckets = [Fraction(0)] * E
            tail = []
            for a, v in enumerate(mu.density.values):
                if isinstance(v, (int, Fraction)):
                    buckets[table[a][x] % E] += v
                else:
                    tail.append(unit_root(E, table[a][x]) * v)
            acc = _from_buckets(E, buckets)
            for t in tail:
                acc = acc + t
            out.append(acc * mu.haar.scale)
        return GroupFunction(dual_group(G), out)
    roots = _complex_roots(E)
    scale = mu.haar.scale if isinstance(mu.haar.scale, float) else float(mu.haar.scale)
    vals = [to_complex(v) for v in mu.density.values]
    out = [
        scale * sum(roots[table[a][x] % E] * vals[a] for a in range(G.order))
        for x in range(G.order)
    ]
    return GroupFunction(dual_group(G), out)


def dual_haar(m: HaarScale) -> HaarScale:
    """The unique dual scale making Fourier inversion exact: 1 / (scale * |G|)."""
    if isinstance(m.scale, Fraction):
        return HaarScale(dual_group(m.group), Fraction(1) / (m.scale * m.group.order))
    return HaarScale(dual_group(m.group), 1.0 / (m.scale * m.group.order))


def measure_from_function(f: GroupFunction, m: HaarScale) -> ScaledMeasure:
    return ScaledMeasure(f.group, f, m)


# -- convolution and transport --------------------------------------------------


def convolve(mu: ScaledMeasure, nu: ScaledMeasure) -> ScaledMeasure:
    """Pushforward of mu x nu along addition; satisfies (mu*nu)-check = mu-check * nu-check."""
    if mu.group != nu.group:
        raise ValueError("convolution needs measures on the same group")
    G = mu.group
    zero = Fraction(0) if (mu.is_exact and nu.is_exact) else 0.0
    out = [zero] * G.order
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
    return GroupFunction(phi.source, [vals[t] for t in hom_index_map(phi)])


def pushforward(phi: Homomorphism, mu: ScaledMeasure) -> ScaledMeasure:
    """Transport mass along phi; the image measure keeps the same total mass."""
    hom_validate(phi)
    if mu.group != phi.source:
        raise ValueError("pushforward needs a measure on the homomorphism source")
    B = phi.target
    zero = Fraction(0) if mu.is_exact else 0.0
    out = [zero] * B.order
    for i, t in enumerate(hom_index_map(phi)):
        v = mu.mass_at(i)
        if v != 0:
            out[t] += v
    one = Fraction(1) if mu.is_exact else 1.0
    return ScaledMeasure(B, GroupFunction(B, out), HaarScale(B, one))


# -- diagnostics ----------------------------------------------------------------


def plancherel_check(f: GroupFunction, m: HaarScale):
    """|  ||f||^2 w.r.t. m  minus  ||f_hat||^2 w.r.t. dual m  |; exactly 0 in exact mode."""
    fhat = fourier_transform(f, m)
    mhat = dual_haar(m)
    if f.is_exact and m.is_exact:
        lhs = sum((v * conj_scalar(v) for v in f.values), Fraction(0)) * m.scale
        rhs = sum((v * conj_scalar(v) for v in fhat.values), Fraction(0)) * mhat.scale
        diff = lhs - rhs
        if is_rational(diff):
            return abs(diff)
        return diff if real_sign(diff) >= 0 else -diff
    scale = float(m.scale)
    lhs = scale * sum(abs(to_complex(v)) ** 2 for v in f.values)
    rhs = float(mhat.scale) * sum(abs(to_complex(v)) ** 2 for v in fhat.values)
    return abs(lhs - rhs)


def functions_max_abs_diff(f: GroupFunction, g: GroupFunction):
    """Max |f - g|, exact (scalar) or float depending on mode."""
    if f.group != g.group:
        raise ValueError("functions live on different groups")
    if f.is_exact and g.is_exact:
        worst = Fraction(0)
        for a, b in zip(f.values, g.values):
            d = a - b
            if not is_rational(d):
                d = d if real_sign(d) >= 0 else -d
            else:
                d = abs(d)
            if real_sign(d - worst) > 0:
                worst = d
        return worst
    return max(
        abs(to_complex(a) - to_complex(b)) for a, b in zip(f.values, g.values)
    )


def functions_equal(f: GroupFunction, g: GroupFunction, tol: float = FLOAT_TOL) -> bool:
    if f.is_exact and g.is_exact:
        return f.group == g.group and all(
            scalar_eq(a, b) for a, b in zip(f.values, g.values)
        )
    if f.group != g.group:
        return False
    scale = max(
        [1.0]
        + [abs(to_complex(v)) for v in f.values]
        + [abs(to_complex(v)) for v in g.values]
    )
    return all(
        abs(to_complex(a) - to_complex(b)) <= tol * scale
        for a, b in zip(f.values, g.values)
    )
