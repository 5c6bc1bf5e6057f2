"""Restriction, corestriction, products, and their consistency laws.

Inputs to restriction and corestriction are normalized first (divide by the
value at 0), so both routes through every identity are scale-free.  The
quotient-side character identification is always "character of G/H = its
pull-back along the projection", realized by the adjoint homomorphism.

The Fourier route of corestriction sums f_hat only on the annihilator of H,
the |G/H| character rows that adjoint reads (|G| * |G/H| terms, not |G|^2);
corestriction_consistency sums each coset once for both of its checks.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import to_complex
from .fourier import (
    GroupFunction,
    HaarScale,
    ScaledMeasure,
    counting_haar,
    inverse_transform,
    measure_from_function,
    pullback,
    pushforward,
    transform_rows,
)
from .groups import (
    FiniteAbelianGroup,
    Homomorphism,
    Subgroup,
    dual_hom,
    hom_index_map,
    make_group,
    quotient,
)
from .ppd import evaluate_function, normalize_function, normalize_measure


class PreconditionError(ValueError):
    """An operation's input failed a named goodness/normalization condition."""


def require_normalized_good(f: GroupFunction, op: str) -> GroupFunction:
    """Normalize f and verify it is a normalized good function.  An f(0) that
    is not a positive real cannot be normalized, and f is judged as it is."""
    if f.mode.positive_real(f.values[0]):
        f = normalize_function(f)
    verdict = evaluate_function(f)
    if not verdict.is_good:
        failed = sorted(
            {w.condition for w in verdict.witnesses}
        )
        raise PreconditionError(
            f"{op} needs a good input; failed conditions {failed}"
        )
    return f


# -- restriction and corestriction ----------------------------------------------


def restrict(f: GroupFunction, H: Subgroup) -> GroupFunction:
    """Pull back along the inclusion of H; lands in the normalized good cone of H."""
    f = require_normalized_good(f, "restrict")
    if H.parent != f.group:
        raise ValueError("subgroup belongs to a different group")
    H_abs, incl = H.as_group()
    r = pullback(incl, f)
    rv = evaluate_function(r)
    if not rv.is_good:
        raise AssertionError("restriction of a good function failed to be good")
    return r


def corestrict(f: GroupFunction, H: Subgroup) -> GroupFunction:
    """Transform, restrict to the annihilator of H, transform back, normalize."""
    f = require_normalized_good(f, "corestrict")
    if H.parent != f.group:
        raise ValueError("subgroup belongs to a different group")
    g = normalize_function(_corestrict_raw(f, H))
    if not g.mode.exact:  # a good g is real: drop the round-off imaginary parts
        g = GroupFunction._with_mode(
            g.group, [complex(to_complex(v).real) if g.mode.real(v) else v for v in g.values],
            g.mode)
    gv = evaluate_function(g)
    if not gv.is_good:
        raise AssertionError("corestriction of a good function failed to be good")
    return g


def _corestrict_raw(f: GroupFunction, H: Subgroup) -> GroupFunction:
    """Unnormalized Fourier route, scaled to equal the plain coset sums."""
    pihat = dual_hom(quotient(f.group, H).projection_hom)
    # f_hat on the annihilator of H: only the rows pihat reads are summed
    ghat = GroupFunction._with_mode(pihat.source, transform_rows(f, hom_index_map(pihat)),
                                    f.mode)
    Qd = ghat.group
    return inverse_transform(
        measure_from_function(ghat, HaarScale(Qd, ghat.mode.inv(Qd.order)))
    )


def coset_average(f: GroupFunction, H: Subgroup) -> GroupFunction:
    """g(coset) = sum of f over the coset, divided by the sum over H itself."""
    Q = quotient(f.group, H)  # raises for a subgroup of another group
    return _average(f.mode, Q, [_coset_sum(f, H, rep) for rep in Q.coset_reps])


def _average(mode, Q, sums) -> GroupFunction:
    """sums over the cosets of Q divided by sums[0], the sum over the coset of 0."""
    if mode.eq(sums[0], 0, scale=0.0):  # an exact zero in both modes
        raise ValueError("zero denominator: f sums to 0 over the subgroup")
    sums = mode.values(sums)
    inv = mode.inv(sums[0])
    return GroupFunction._with_mode(Q.group, [s * inv for s in sums], mode)


def _coset_sum(f: GroupFunction, H: Subgroup, rep: int):
    row = f.group.index_tables[0][rep]
    total = f.mode.zero
    for h in H.elements:
        total = total + f.values[row[h]]
    return total


class CorestrictionReport(NamedTuple):
    """Two independently computed corestriction routes and their pointwise gap."""

    fourier_route: GroupFunction
    average_route: GroupFunction
    max_abs_gap: object
    gap_positions: tuple[int, ...]

    @property
    def max_abs_gap_float(self) -> float:
        return abs(to_complex(self.max_abs_gap))

    def to_dict(self):
        return {
            "fourier_route": [to_complex(v).real for v in self.fourier_route.values],
            "average_route": [to_complex(v).real for v in self.average_route.values],
            "max_abs_gap": self.max_abs_gap_float,
            "gap_positions": list(self.gap_positions),
        }


def corestriction_consistency(f: GroupFunction, H: Subgroup,
                              verify_input: bool = True) -> CorestrictionReport:
    """Compare the Fourier route with the coset-average route on every coset.

    Also checks, before normalization, that the Fourier route is nowhere
    smaller than the average route; on finite groups the two agree exactly.
    verify_input=False skips the goodness re-check for constructed samples.
    """
    if verify_input:
        f = require_normalized_good(f, "corestriction_consistency")
    else:
        f = normalize_function(f)
    mode = f.mode
    u = _corestrict_raw(f, H)  # scaled to match plain coset sums
    Q = quotient(f.group, H)
    v_vals = [_coset_sum(f, H, rep) for rep in Q.coset_reps]
    for c, (uv, vv) in enumerate(zip(u.values, v_vals)):
        if not mode.at_least(uv, vv, mode.scale([vv])):
            raise AssertionError(
                f"Fourier route fell below the coset average at coset {c}"
            )
    fr = normalize_function(u)
    av = _average(mode, Q, v_vals)
    gaps = []
    worst = mode.zero
    for c, (a, b) in enumerate(zip(fr.values, av.values)):
        d = mode.dist(a, b)
        if not mode.eq(a, b):
            gaps.append(c)
        if mode.sign(d - worst, 0.0) > 0:
            worst = d
    return CorestrictionReport(fr, av, worst, tuple(gaps))


# -- products ---------------------------------------------------------------------


def direct_sum(G: FiniteAbelianGroup, H: FiniteAbelianGroup) -> FiniteAbelianGroup:
    return make_group(G.moduli + H.moduli)


def diagonal_hom(G: FiniteAbelianGroup) -> Homomorphism:
    """x -> (x, x) into the direct sum of G with itself."""
    S = direct_sum(G, G)
    rows = [tuple(1 if j == i % G.rank else 0 for j in range(G.rank))
            for i in range(2 * G.rank)]
    return Homomorphism(G, S, tuple(rows))


def external_product(u: GroupFunction, v: GroupFunction,
                     check: bool = True) -> GroupFunction:
    """w(x, y) = u(x) v(y) on the direct sum; preserves PPD/good/normalized."""
    G, H = u.group, v.group
    S = direct_sum(G, H)
    nG = G.order
    vals = [u.values[i % nG] * v.values[i // nG] for i in range(S.order)]
    w = GroupFunction(S, vals)
    if check:
        _check_product_closure("external product", u, v, w)
    return w


def pointwise_product(u: GroupFunction, v: GroupFunction,
                      check: bool = True) -> GroupFunction:
    """u * v pointwise; PPD/good/normalized inputs give the same kind of output."""
    if u.group != v.group:
        raise ValueError("pointwise product needs functions on one group")
    w = GroupFunction(u.group, [a * b for a, b in zip(u.values, v.values)])
    if check:
        _check_product_closure("product", u, v, w)
    return w


def _check_product_closure(name: str, u: GroupFunction, v: GroupFunction,
                           w: GroupFunction) -> None:
    """Raise if the product w of u and v lost PPD, goodness or normalization."""
    uv, vv = evaluate_function(u), evaluate_function(v)
    wv = evaluate_function(w)
    if uv.is_ppd and vv.is_ppd and not wv.is_ppd:
        raise AssertionError(f"{name} of PPD inputs is not PPD")
    if uv.is_good and vv.is_good and not wv.is_good:
        raise AssertionError(f"{name} of good inputs is not good")
    if u.mode.eq(u.values[0], 1) and v.mode.eq(v.values[0], 1):
        if not w.mode.eq(w.values[0], 1):
            raise AssertionError(f"{name} lost normalization")


def ppd_times_good(f: GroupFunction, g: GroupFunction):
    """w = f * g for normalized PPD f and good g, with a per-condition verdict.

    The transform side of goodness always holds for w; strict positivity of w
    itself can fail when f has zeros, and the returned verdict records that
    instead of raising.
    """
    fv = evaluate_function(f)
    if not fv.is_ppd:
        raise PreconditionError("ppd_times_good needs a PPD first factor")
    if not f.mode.eq(f.values[0], 1):
        raise PreconditionError("ppd_times_good needs a normalized first factor")
    gv = evaluate_function(g)
    if not gv.is_good:
        raise PreconditionError("ppd_times_good needs a good second factor")
    w = pointwise_product(f, g, check=False)
    verdict = evaluate_function(w)
    for wit in verdict.witnesses:
        if wit.condition == "3.1.4" and wit.kind == "character":
            raise AssertionError(
                "transform of PPD-times-good lost strict positivity; "
                "this contradicts the convolution bound"
            )
    return w, verdict


# -- measure-side operations -------------------------------------------------------


def _require_good_measure(mu: ScaledMeasure, op: str) -> None:
    verdict = evaluate_function(mu.density)
    if not verdict.is_good:
        raise PreconditionError(f"{op} needs a measure with a good density")


def restrict_measure(mu: ScaledMeasure, H: Subgroup) -> ScaledMeasure:
    """Restrict the density to H and pick the Haar scale that normalizes it."""
    _require_good_measure(mu, "restrict_measure")
    if H.parent != mu.group:
        raise ValueError("subgroup belongs to a different group")
    H_abs, incl = H.as_group()
    return normalize_measure(
        ScaledMeasure(H_abs, pullback(incl, mu.density), counting_haar(H_abs))
    )


def corestrict_measure(mu: ScaledMeasure, H: Subgroup) -> ScaledMeasure:
    """Push forward along the quotient projection and renormalize to mass 1."""
    _require_good_measure(mu, "corestrict_measure")
    if H.parent != mu.group:
        raise ValueError("subgroup belongs to a different group")
    Q = quotient(mu.group, H)
    return normalize_measure(pushforward(Q.projection_hom, mu))
