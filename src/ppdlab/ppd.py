"""Membership predicates and structure theory for PPD and good functions.

A function on a finite abelian group is PPD when it is real, pointwise
nonnegative, and of positive type; on finite groups positive type is the
spectral condition "transform nonnegative".  A function is good when both it
and its transform are strictly positive; the integrability conditions that
matter on noncompact groups hold automatically here and verdicts record them
as vacuously satisfied so the same verdict schema serves the continuum
probes.

Strictness ties: an exact zero fails goodness in exact mode; in float mode a
value with |v| <= 1e-12 * f(0) fails.

An even function with rational exact values is decided on integers: f's signs
are its numerators' over one denominator, f_hat's are the double screen's over
the character-sum buckets (_spectral_signs, which spectral_min_sign shares),
and only f_hat values a witness prints are built.

Witness and PpdVerdict are typing.NamedTuples, so they are tuples: copy one
with a changed field by _replace and read one as a dict by _asdict.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from operator import mul
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .cyclotomic import (
    Cyc,
    cos_approx,
    field,
    from_int_coords,
    is_rational,
    over_common_denominator,
    power_coords,
    real_sign,
    scalar_inv,
    screen_sign,
    to_complex,
)
from .fourier import (
    EXACT,
    GroupFunction,
    HaarScale,
    ScaledMeasure,
    counting_haar,
    dual_haar,
    exponent_table,
    fourier_transform,
    int_buckets,
    measure_from_function,
    pullback,
    root_sum,
    row_value,
)
from .groups import (
    SUBGROUP_ORDER_BOUND,
    FiniteAbelianGroup,
    Subgroup,
    all_subgroups,
    quotient,
    subgroup_from_elements,
    subgroup_from_generators,
)

PSD_EIG_TOL = 1e-9

VACUOUS_CONDITIONS = ("3.1.2", "3.1.3", "3.1.5")


class Witness(NamedTuple):
    """A violated condition with the element or character that witnesses it."""

    condition: str  # e.g. "2.1.1" or "3.1.4"
    kind: str  # "element" | "character"
    index: int
    detail: str = ""

    def to_dict(self):
        return self._asdict()


class PpdVerdict(NamedTuple):
    is_ppd: bool
    is_good: bool
    witnesses: tuple[Witness, ...]
    # a shared default, so read-only
    condition_status: Mapping[str, str] = MappingProxyType({})

    def to_dict(self):
        return {
            "is_ppd": self.is_ppd,
            "is_good": self.is_good,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "conditions": {
                label: status in ("ok", "vacuous")
                for label, status in self.condition_status.items()
            },
            "vacuous_conditions": sorted(
                label
                for label, status in self.condition_status.items()
                if status == "vacuous"
            ),
        }


def evaluate_function(f: GroupFunction) -> PpdVerdict:
    """Full PPD/good verdict for a function, with per-condition bookkeeping."""
    mode = f.mode
    vals = mode.values(f.values)
    base = abs(to_complex(f.values[0])) or 1.0
    even = _even_rational(f)
    if even:
        # signs read off integer numerators; only printed f_hat values are built
        hsigns, hvals = zip(*_spectral_signs(f.group, *even, witness=True))
        tests = [(n >= 0, n > 0) for n in even[0]]
        htests = [(s >= 0, s > 0) for s in hsigns]
    else:
        hvals = mode.values(fourier_transform(f, counting_haar(f.group)).values)
        # (nonnegative, strictly positive) per value: each exact sign asked once
        tests = mode.tests(vals, mode.scale(vals), base)
        htests = mode.tests(hvals, mode.scale(hvals), base)

    witnesses: list[Witness] = []
    for cond, kind, name, vs, ts, k, what in (
        ("2.1.1", "element", "f", vals, tests, 0, "not real nonnegative"),
        ("2.1.2", "character", "f_hat", hvals, htests, 0, "negative"),
        ("3.1.4", "element", "f", vals, tests, 1, "not strictly positive"),
        ("3.1.4", "character", "f_hat", hvals, htests, 1, "not strictly positive"),
    ):
        witnesses += [Witness(cond, kind, i, f"{name}({i}) = {vs[i]} {what}")
                      for i, t in enumerate(ts) if not t[k]]
    failed = {w.condition for w in witnesses}
    is_ppd_flag = not failed & {"2.1.1", "2.1.2"}
    status = {c: "failed" if c in failed else "ok" for c in ("2.1.1", "2.1.2")}
    status["3.1.1"] = "ok" if is_ppd_flag else "failed"
    status.update(dict.fromkeys(VACUOUS_CONDITIONS, "vacuous"))
    status["3.1.4"] = "failed" if "3.1.4" in failed else "ok"
    return PpdVerdict(is_ppd=is_ppd_flag, is_good=is_ppd_flag and "3.1.4" not in failed,
                      witnesses=tuple(witnesses), condition_status=status)


# -- the independent matrix oracle ---------------------------------------------


def bochner_oracle(f: GroupFunction) -> bool:
    """Positive semidefiniteness of M[x, y] = f(x - y), decided without Fourier.

    Exact mode runs one fraction-free elimination (_psd_exact): on the integer
    numerators of rational values over one denominator, or on the exact values
    themselves when some are irrational.  Float mode uses a symmetric
    eigensolver with tolerance 1e-9 * ||M||.  A real f that is not even gives a
    non-symmetric M, so it is not positive-definite.
    """
    add, neg = f.group.index_tables
    diff = [[row[j] for j in neg] for row in add]  # diff[x][y] = x - y
    vals = f.values
    if not all(f.mode.real(v) for v in vals):
        raise ValueError("matrix oracle needs a real-valued function")
    scale = f.mode.scale(vals)
    if not all(f.mode.eq(v, vals[j], scale) for v, j in zip(vals, neg)):
        return False
    if not f.mode.exact:
        return _psd_float(vals, diff)
    if all(is_rational(v) for v in vals):
        vals = over_common_denominator(vals)[0]
        divider = lambda d: lambda x: x // d
    else:
        divider = lambda d: partial(mul, scalar_inv(d))
    return _psd_exact([[vals[i] for i in row] for row in diff], divider)


def _psd_exact(A, divider) -> bool:
    """Bareiss diagonal-pivot elimination of the symmetric matrix A (modified
    in place), exact scalars (ints for rational input) with their certified
    sign, real_sign, and exact division: each step divides by the previous
    pivot exactly, through divider(prev), the map x -> x / prev built once per
    step (one inverse of an irrational pivot, not one per entry), and a
    positive previous pivot keeps the sign of every diagonal entry of the
    Schur complement."""
    active = list(range(len(A)))
    prev = 1
    while active:
        pivot = None
        for i in active:
            s = real_sign(A[i][i])
            if s < 0:
                return False
            if s > 0 and pivot is None:
                pivot = i
        if pivot is None:
            return not any(A[i][j] for i in active for j in active)
        rowp = A[pivot]
        p = rowp[pivot]
        rest = [i for i in active if i != pivot]
        div = divider(prev) if rest else None
        for i in rest:
            rowi, Aip = A[i], A[i][pivot]
            for j in rest:
                rowi[j] = div(rowi[j] * p - Aip * rowp[j])
        prev, active = p, rest
    return True


def _psd_float(vals, diff) -> bool:
    import numpy as np  # float mode alone; exact commands never load numpy

    M = np.array([to_complex(v).real for v in vals])[np.array(diff)]
    norm = np.linalg.norm(M, 2) or 1.0
    eigs = np.linalg.eigvalsh(M)
    return bool(eigs.min() >= -PSD_EIG_TOL * norm)


def _even_rational(f: GroupFunction):
    """(integer numerators, common denominator) of f's values when f is even
    with rational exact values; None otherwise."""
    if not f.mode.exact or any(isinstance(v, Cyc) for v in f.values):
        return None
    nums, den = over_common_denominator(f.values)
    even = all(n == nums[j] for n, j in zip(nums, f.group.neg_table))
    return (nums, den) if even else None


def _spectral_signs(G: FiniteAbelianGroup, nums, den: int, witness: bool):
    """(certified sign, exact value or None) of f_hat under counting measure at
    each character, for the even rational f = nums / den: the double screen over
    each row's E buckets.  A value is built once, when the screen cannot call it
    (every zero) or, with witness, when it is negative, from those buckets by
    the kernel's row finish (fourier.row_value), so it prints as the kernel's."""
    E = G.exponent()
    nums = [(x, n) for x, n in enumerate(nums) if n]
    for row in exponent_table(G.moduli):
        buckets = int_buckets(row, nums, -1, E)
        sgn = screen_sign(buckets, cos_approx(E))
        value = (row_value(power_coords(enumerate(buckets), E, E), buckets, (), row, -1, E, E,
                           den) if sgn is None or (witness and sgn < 0) else None)
        yield (real_sign(value) if sgn is None else sgn), value


def spectral_min_sign(f: GroupFunction) -> int:
    """Certified sign of min f_hat over the dual group (even rational functions
    only): the minimum over _spectral_signs, stopping at the first negative."""
    if not f.mode.exact or not all(is_rational(v) for v in f.values):
        raise ValueError("spectral_min_sign expects rational exact values")
    even = _even_rational(f)
    if even is None:
        raise ValueError("spectral_min_sign expects an even function")
    worst = 1
    for sgn, _ in _spectral_signs(f.group, *even, witness=False):
        if sgn < 0:
            return -1
        worst = min(worst, sgn)
    return worst


# -- normalization ----------------------------------------------------------------


def normalize_function(f: GroupFunction) -> GroupFunction:
    """Scale so that the value at 0 is 1; requires f(0) > 0 real."""
    v0 = f.values[0]
    if not f.mode.positive_real(v0):
        raise ValueError(f"cannot normalize: f(0) = {v0} is not positive")
    if f.mode.exact and all(is_rational(v) for v in f.values):
        nums = over_common_denominator(f.values)[0]  # v_i / f(0) = n_i / n_0
        values = [Fraction(n, nums[0]) for n in nums]
    elif f.mode.exact:
        inv = f.mode.inv(v0)
        values = [v * inv for v in f.values]
    else:
        v0 = complex(v0).real
        values = [complex(v) / v0 for v in f.values]
    return GroupFunction._with_mode(f.group, values, f.mode)


def normalize_measure(mu: ScaledMeasure) -> ScaledMeasure:
    """Rescale the Haar part so the total mass is 1.

    A Haar scale is rational or a float, so an irrational exact mass folds its
    inverse into the density instead.  Normalized duals and restricted
    measures are normalized here too.
    """
    mass = mu.total_mass()
    if not mu.mode.positive_real(mass):
        raise ValueError(f"cannot normalize measure of mass {mass}")
    if not mu.mode.exact:
        new_scale = float(mu.haar.scale) / complex(mass).real
    elif is_rational(mass):
        new_scale = mu.haar.scale / Fraction(mass)
    else:
        # irrational positive mass: fold the inverse into the density
        inv = mu.mode.inv(mass)
        dens = GroupFunction._with_mode(mu.group, [v * inv for v in mu.density.values],
                                        mu.mode)
        return ScaledMeasure(mu.group, dens, mu.haar)
    return ScaledMeasure(mu.group, mu.density, HaarScale(mu.group, new_scale))


# -- duality ----------------------------------------------------------------------


def dual_measure(f: GroupFunction) -> ScaledMeasure:
    """The unique measure on the dual group whose inverse transform is f."""
    verdict = evaluate_function(f)
    if not verdict.is_ppd:
        raise ValueError(f"dual_measure needs a PPD input: {verdict.witnesses}")
    G = f.group
    m = counting_haar(G)
    mu = measure_from_function(fourier_transform(f, m), dual_haar(m))
    _assert_measure_ppd(mu)
    return mu


def _assert_measure_ppd(mu: ScaledMeasure) -> None:
    dens = mu.density
    Ghat = mu.group
    mode = mu.mode
    scale = mode.scale(dens.values)
    tests = mode.tests(mode.values(dens.values), scale, 1.0)
    for i, (v, (nonneg, _)) in enumerate(zip(dens.values, tests)):
        if not nonneg:
            raise AssertionError(f"dual measure not nonnegative at {i}")
        if not mode.eq(v, dens.values[Ghat.neg_index(i)], scale):
            raise AssertionError("dual measure not even")
    dverdict = evaluate_function(dens)
    if not dverdict.is_ppd:
        raise AssertionError("dual measure density is not positive-definite")


def normalized_dual(f: GroupFunction, require_good: bool = True) -> GroupFunction:
    """Transform taken at the unique Haar scale making f * m a probability measure."""
    if require_good:
        verdict = evaluate_function(f)
        if not verdict.is_good:
            raise ValueError(
                f"normalized_dual needs a good input: {[w.to_dict() for w in verdict.witnesses]}"
            )
        if not f.mode.eq(f.values[0], 1):
            raise ValueError(f"normalized_dual needs a normalized input, f(0)={f.values[0]}")
    mu = normalize_measure(measure_from_function(f, counting_haar(f.group)))
    out = fourier_transform(mu.density, mu.haar)
    if require_good:
        overdict = evaluate_function(out)
        if not overdict.is_good:
            raise AssertionError("normalized dual failed to be good")
    return out


# -- structure: stabilizer and descent ----------------------------------------------


def stabilizer_subgroup(f: GroupFunction, verify_input: bool = True) -> Subgroup:
    """H = {x : f(x) = f(0)}; also checks f is H-translation-invariant.

    verify_input=False skips the PPD re-check for callers holding functions
    that are PPD by construction (the seeded samplers).
    """
    if verify_input:
        verdict = evaluate_function(f)
        if not verdict.is_ppd:
            raise ValueError("stabilizer is defined for PPD functions")
    mode = f.mode
    v0 = f.values[0]
    scale = mode.scale(f.values)
    members = [i for i, v in enumerate(f.values) if mode.eq(v, v0, scale)]
    H = subgroup_from_elements(f.group, members)
    if not _translation_invariant(f, H, scale):
        raise AssertionError("level set at f(0) is not a stabilizer")
    return H


def _translation_invariant(f: GroupFunction, H: Subgroup, scale: float) -> bool:
    """f(x + h) = f(x) for every x in G and h in H.  Exact equality chains, so
    H's generators suffice; float mode checks every h at the given scale."""
    hs = [f.group.index(g) for g in H.generators] if f.mode.exact else H.elements
    vals, add = f.values, f.group.index_tables[0]
    return all(f.mode.eq(vals[add[h][x]], v, scale)
               for h in hs for x, v in enumerate(vals))


def descend_to_quotient(f: GroupFunction, H: Subgroup,
                        verify_input: bool = True) -> GroupFunction:
    """The unique g on G/H with f = g o pi; requires H inside the stabilizer.

    g takes f's value at each coset representative, so f = g o pi holds
    exactly when f is H-translation-invariant.
    """
    Q = quotient(f.group, H)
    g = GroupFunction._with_mode(Q.group, [f.values[r] for r in Q.coset_reps], f.mode)
    back = pullback(Q.projection_hom, g)
    scale = f.mode.scale(f.values)
    if not all(f.mode.eq(a, b, scale) for a, b in zip(back.values, f.values)):
        raise ValueError("subgroup is not contained in the stabilizer of the function")
    if verify_input:
        gverdict = evaluate_function(g)
        if not gverdict.is_ppd:
            raise AssertionError("descended function is not PPD")
    return g


# -- seeded samplers -----------------------------------------------------------------


def derived_rng(seed: int, tag: str, key) -> random.Random:
    """A generator seeded from sha256 of f"{seed}|{tag}|{key}": one stream per
    case, the same in every process."""
    import hashlib  # seeding alone needs it; commands without samples skip its load

    payload = f"{seed}|{tag}|{key}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(payload).digest()[:8], "big"))


def _sample(G: FiniteAbelianGroup, seed: int, strictness: str,
            _depth: int = 0) -> GroupFunction:
    """Draw a provably-PPD (or provably-good) function, deterministically.

    The core draw takes u = inverse transform of a sparse nonnegative spectrum
    and returns |u|^2, which is PPD by construction.  Good samples add small
    positive multiples of the constant and of the delta at 0, which keep both
    the function and its transform strictly positive.  PPD samples are pulled
    back from a proper quotient part of the time so nontrivial stabilizers
    show up downstream: the quotient by a drawn subgroup of order > 1, past
    SUBGROUP_ORDER_BOUND the one generated by a drawn nonzero element.

    Values are built on integers, once per exponent tuple (<a_i, x>) over the
    drawn characters: |u|^2(x) and u's conductor depend on x only through it.
    |u|^2 sums the k^2 pair terms w_a w_a' zeta_E^(m_a - m_a') in power-basis
    coordinates, and the shifts join coordinate 0 over one common denominator.
    A rational value is a Fraction straight from coordinate 0; only an
    irrational one traces u's conductor (fourier.root_sum).
    """
    rng = derived_rng(seed, strictness, G.moduli)
    if (
        strictness == "ppd"
        and _depth == 0
        and G.order > 1
        and rng.random() < 0.35
    ):
        if G.order > SUBGROUP_ORDER_BOUND:  # past all_subgroups' bound: a cyclic H
            H = subgroup_from_generators(G, [G.element(rng.randrange(1, G.order))])
        else:
            subs = [H for H in all_subgroups(G) if 1 < H.order]
            H = subs[rng.randrange(len(subs))]
        Q = quotient(G, H)
        g = _sample(Q.group, rng.randrange(2**32), "ppd", _depth + 1)
        return pullback(Q.projection_hom, g)

    E = G.exponent()
    table = exponent_table(G.moduli)
    k = rng.randint(1, min(3, G.order))
    chars = [rng.randrange(G.order) for _ in range(k)]
    weights = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(k)]
    a = b = Fraction(0)
    if strictness == "good":
        # +a keeps f strictly positive; +b*delta_0 shifts the whole transform up by b
        a = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    ints, den = over_common_denominator(weights)
    # |u|^2 + a + b*delta_0 on integers over one denominator D, once per exps
    D = math.lcm(den * den, a.denominator, b.denominator)
    sa, sb = (q.numerator * (D // q.denominator) for q in (a, b))
    scale, shift = D // (den * den), (sa + sb, sa)
    pairs = [(i, j, w * w2 * scale) for i, w in enumerate(ints) for j, w2 in enumerate(ints)]
    fld = field(E)
    values, memo = [], {}
    for x, exps in enumerate(zip(*[table[c] for c in chars])):
        key = exps if x else None  # f(0) alone carries b
        if key not in memo:
            acc = [0] * fld.degree
            for i, j, w in pairs:
                for t, c in fld.powers[(exps[i] - exps[j]) % E]:
                    acc[t] += w * c
            acc[0] += shift[x > 0]
            # an irrational |u|^2 takes the conductor of u = sum_a w_a zeta^exps[a]
            # in draw order
            memo[key] = (from_int_coords(acc, root_sum(zip(exps, ints), E, E)[1], E, D)
                         if any(acc[1:]) else Fraction(acc[0], D))
        values.append(memo[key])
    return GroupFunction._with_mode(G, values, EXACT)


def sample_ppd(G: FiniteAbelianGroup, seed: int) -> GroupFunction:
    """Deterministic PPD sample; PPD by construction."""
    return _sample(G, seed, "ppd")


def sample_good(G: FiniteAbelianGroup, seed: int) -> GroupFunction:
    """Deterministic good sample; strictly positive on both sides by construction."""
    return _sample(G, seed, "good")


def sample_normalized_good(G: FiniteAbelianGroup, seed: int) -> GroupFunction:
    return normalize_function(sample_good(G, seed))
