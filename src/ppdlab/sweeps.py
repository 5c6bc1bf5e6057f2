"""Seeded batch verification sweeps over catalogs of small groups.

These drivers back both the CLI report commands and the acceptance suite.
Every sweep takes an explicit seed, derives per-case seeds stably from it,
and returns a plain dict that serializes to a deterministic JSON report
(no timestamps, no wall-clock state).
"""

from __future__ import annotations

from fractions import Fraction

from .cone import (
    HREP_ORDER_BOUND,
    check_hrep_order,
    extremal_rays,
    is_interior,
    ppd_cone_hrep,
    report_rows,
    self_duality_check,
)
from .constructions import (
    corestriction_consistency,
    diagonal_hom,
    external_product,
    pointwise_product,
    ppd_times_good,
)
from .cyclotomic import real_sign, scalar_eq
from .fourier import (
    GroupFunction,
    HaarScale,
    counting_haar,
    dual_haar,
    fourier_transform,
    pullback,
)
from .groups import (
    abelian_group_catalog,
    all_subgroups,
    annihilator,
    dual_hom,
    format_group,
    hom_index_map,
    make_group,
    quotient,
)
from .ppd import (
    bochner_oracle,
    derived_rng,
    descend_to_quotient,
    evaluate_function,
    normalize_function,
    normalized_dual,
    sample_good,
    sample_normalized_good,
    sample_ppd,
    spectral_min_sign,
    stabilizer_subgroup,
)


def random_even_function(G, rng) -> GroupFunction:
    vals = [None] * G.order
    for i in range(G.order):
        if vals[i] is None:
            v = Fraction(rng.randint(-9, 9))
            vals[i] = v
            vals[G.neg_index(i)] = v
    return GroupFunction(G, vals)


def bochner_agreement_sweep(max_order: int = 12, samples: int = 1000,
                            seed: int = 0) -> dict:
    """Matrix-factorization route vs spectral route on random even functions."""
    disagreements = []
    groups = abelian_group_catalog(max_order)
    cases = 0
    for G in groups:
        rng = derived_rng(seed, "bochner", (G.moduli,))
        for _ in range(samples):
            f = random_even_function(G, rng)
            cases += 1
            matrix_route = bochner_oracle(f)
            spectral_route = spectral_min_sign(f) >= 0
            if matrix_route != spectral_route:
                disagreements.append(
                    {"group": format_group(G), "values": [str(v) for v in f.values]}
                )
    return {
        "sweep": "bochner-agreement",
        "max_order": max_order,
        "groups": len(groups),
        "cases": cases,
        "disagreements": disagreements,
    }


def structure_sweep(max_order: int = 16, samples: int = 1000,
                    seed: int = 0) -> dict:
    """Max-at-identity, stabilizer closure, and exact quotient descent."""
    failures = []
    groups = abelian_group_catalog(max_order)
    cases = 0
    for G in groups:
        for j in range(samples):
            rng = derived_rng(seed, "structure", (G.moduli, j))
            f = sample_ppd(G, seed=rng.randrange(2**31))
            cases += 1
            v0, scale = f.values[0], f.mode.scale(f.values)
            if not all(f.mode.at_least(v0, v, scale) for v in f.values):
                failures.append({"group": format_group(G), "kind": "max", "case": j})
                continue
            try:
                H = stabilizer_subgroup(f, verify_input=False)
                descend_to_quotient(f, H, verify_input=False)
            except (ValueError, AssertionError) as exc:
                failures.append(
                    {"group": format_group(G), "kind": str(exc), "case": j}
                )
    return {
        "sweep": "identity-max-stabilizer-descent",
        "max_order": max_order,
        "groups": len(groups),
        "cases": cases,
        "failures": failures,
    }


def corestriction_sweep(max_order: int = 12, samples: int = 100,
                        seed: int = 0) -> dict:
    """Fourier route vs coset-average route over every (group, subgroup) pair."""
    failures = []
    pairs = 0
    cases = 0
    worst = 0.0
    for G in abelian_group_catalog(max_order):
        for H in all_subgroups(G):
            pairs += 1
            for j in range(samples):
                rng = derived_rng(seed, "corestrict", (G.moduli, H.elements, j))
                f = sample_good(G, seed=rng.randrange(2**31))
                cases += 1
                report = corestriction_consistency(f, H, verify_input=False)
                gap = report.max_abs_gap_float
                worst = max(worst, gap)
                identity_ok = scalar_eq(
                    report.fourier_route.values[0], Fraction(1)
                ) and scalar_eq(report.average_route.values[0], Fraction(1))
                if report.gap_positions or not identity_ok:
                    failures.append(
                        {
                            "group": format_group(G),
                            "subgroup": list(H.elements),
                            "case": j,
                            "gap": gap,
                        }
                    )
    return {
        "sweep": "corestriction-consistency",
        "max_order": max_order,
        "pairs": pairs,
        "cases": cases,
        "max_gap": worst,
        "failures": failures,
    }


_PRODUCT_GROUPS = ([2], [3], [4], [2, 2], [5], [6], [3, 2], [8], [4, 2], [2, 2, 2],
                   [9], [10], [12], [6, 2], [4, 3])


def product_closure_sweep(cases: int = 1000, seed: int = 0) -> dict:
    """Pointwise and external products (order <= 16) keep PPD/good/normalized status."""
    failures = []
    diag_checked = 0
    for j in range(cases):
        rng = derived_rng(seed, "product", (j,))
        moduli = list(rng.choice(_PRODUCT_GROUPS))
        G = make_group(moduli)
        kind = rng.choice(["ppd", "good"])
        draw = sample_ppd if kind == "ppd" else sample_good
        u = normalize_function(draw(G, seed=rng.randrange(2**31)))
        v = normalize_function(draw(G, seed=rng.randrange(2**31)))
        external = rng.random() < 0.5
        try:
            if external:
                small = [m for m in _PRODUCT_GROUPS
                         if G.order * make_group(m).order <= 16]
                Hg = make_group(list(rng.choice(small)) if small else [2])
                w2 = normalize_function(draw(Hg, seed=rng.randrange(2**31)))
                w = external_product(u, w2, check=False)
            else:
                w = pointwise_product(u, v, check=False)
            wv = evaluate_function(w)
            ok = wv.is_ppd if kind == "ppd" else wv.is_good
            normalized = scalar_eq(w.values[0], Fraction(1))
            if not (ok and normalized):
                failures.append({"case": j, "kind": kind,
                                 "mode": "external" if external else "pointwise"})
            if not external:
                # diagonal restriction of the external square is the product
                diag = pullback(diagonal_hom(G), external_product(u, v, check=False))
                if any(not scalar_eq(a, b) for a, b in zip(diag.values, w.values)):
                    failures.append({"case": j, "kind": kind, "mode": "diagonal"})
                diag_checked += 1
        except (ValueError, AssertionError) as exc:
            failures.append({"case": j, "error": str(exc)})
    return {
        "sweep": "product-closure",
        "cases": cases,
        "diagonal_checked": diag_checked,
        "failures": failures,
    }


def mixed_product_sweep(cases: int = 100, seed: int = 0) -> dict:
    """Strictly positive normalized PPD times good stays good; plus the
    documented boundary case where the first factor has zeros."""
    failures = []
    for j in range(cases):
        rng = derived_rng(seed, "mixed", (j,))
        moduli = list(rng.choice(_PRODUCT_GROUPS))
        G = make_group(moduli)
        f = sample_normalized_good(G, seed=rng.randrange(2**31))
        g = sample_good(G, seed=rng.randrange(2**31))
        w, verdict = ppd_times_good(f, g)
        if not verdict.is_good:
            failures.append({"case": j, "group": format_group(G)})

    Z4 = make_group([4])
    f0 = GroupFunction(Z4, [Fraction(1), Fraction(0), Fraction(1), Fraction(0)])
    g0 = GroupFunction(Z4, [Fraction(4), Fraction(2), Fraction(1), Fraction(2)])
    w0, verdict0 = ppd_times_good(f0, g0)
    what = fourier_transform(w0, counting_haar(Z4))
    discrepancy = {
        "product": [str(v) for v in w0.values],
        "transform": [str(v) for v in what.values],
        "transform_strictly_positive": all(
            real_sign(v) > 0 for v in what.values
        ),
        "condition_4_witnesses": [
            w.to_dict()
            for w in verdict0.witnesses
            if w.condition == "3.1.4" and w.kind == "element"
        ],
        "is_good": verdict0.is_good,
    }
    return {
        "sweep": "ppd-times-good",
        "cases": cases,
        "failures": failures,
        "strict_positive_zero_failures": not failures,
        "discrepancy_case": discrepancy,
    }


def involution_sweep(max_order: int = 12, samples: int = 20, seed: int = 0,
                     square_max_order: int = 8) -> dict:
    """Double normalized dual, the restriction/corestriction duality square,
    and the dual Haar involution."""
    failures = []
    cases = 0
    for G in abelian_group_catalog(max_order):
        if G.order == 1:
            continue
        for j in range(samples):
            rng = derived_rng(seed, "involution", (G.moduli, j))
            f = sample_normalized_good(G, seed=rng.randrange(2**31))
            cases += 1
            back = normalized_dual(normalized_dual(f, require_good=False),
                                   require_good=False)
            if any(not scalar_eq(a, b) for a, b in zip(back.values, f.values)):
                failures.append({"group": format_group(G), "kind": "double-dual"})

    for G in abelian_group_catalog(square_max_order):
        for H in all_subgroups(G):
            rng = derived_rng(seed, "square", (G.moduli, H.elements))
            f = sample_normalized_good(G, seed=rng.randrange(2**31))
            cases += 1
            if not _duality_square_commutes(f, G, H):
                failures.append(
                    {
                        "group": format_group(G),
                        "subgroup": list(H.elements),
                        "kind": "duality-square",
                    }
                )

    for G in abelian_group_catalog(max_order):
        rng = derived_rng(seed, "haar", (G.moduli,))
        m = HaarScale(G, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        cases += 1
        if dual_haar(dual_haar(m)).scale != m.scale:
            failures.append({"group": format_group(G), "kind": "dual-haar"})
    return {
        "sweep": "duality-involutions",
        "cases": cases,
        "failures": failures,
    }


def _duality_square_commutes(f, G, H) -> bool:
    from .constructions import corestrict, restrict

    lhs = normalized_dual(restrict(f, H), require_good=False)
    fd = normalized_dual(f, require_good=False)
    perp = annihilator(G, H)
    rhs = corestrict(fd, perp)
    Qp = quotient(G, perp)
    H_abs, incl = H.as_group()
    restr = hom_index_map(dual_hom(incl))
    return all(
        scalar_eq(lhs.values[restr[i]], rhs.values[Qp.projection[i]])
        for i in range(G.order)
    )


def cone_membership_sweep(max_order: int = 8, samples: int = 1000,
                          seed: int = 0) -> dict:
    """Strict H-rep membership against the goodness predicate, exactly."""
    disagreements = []
    cases = 0
    for G in abelian_group_catalog(max_order):
        cone = ppd_cone_hrep(G)
        rng = derived_rng(seed, "membership", (G.moduli,))
        for _ in range(samples):
            vec = tuple(
                Fraction(rng.randint(-3, 9), rng.randint(1, 4))
                for _ in range(cone.basis.dim)
            )
            f = cone.basis.function_from_vector(vec)
            cases += 1
            interior = is_interior(f, cone)
            good = min(vec) > 0 and spectral_min_sign(f) > 0
            if interior != good:
                disagreements.append(
                    {"group": format_group(G), "vector": [str(v) for v in vec]}
                )
    return {
        "sweep": "cone-membership",
        "max_order": max_order,
        "cases": cases,
        "disagreements": disagreements,
    }


def cone_atlas(max_order: int = 8, with_rays: bool = True) -> dict:
    """Per-group cone data: inequalities, rays, self-duality, field report.

    An order past the H-rep bound fails before any cone is built, naming the
    first order of the catalog past it."""
    check_hrep_order(min(max_order, HREP_ORDER_BOUND + 1))
    entries = []
    for G in abelian_group_catalog(max_order):
        cone = ppd_cone_hrep(G)
        entry = {
            "group": format_group(G),
            "dimension": cone.basis.dim,
            "exponent": G.exponent(),
            "num_inequalities": len(cone.rows),
        }
        if with_rays:
            cone = extremal_rays(cone)
            d = cone.basis.dim
            entry["num_rays"] = len(cone.ray_coords)
            entry["self_duality"] = self_duality_check(cone).to_dict()
            # field_of_definition_check's counts: d entries per row and per ray
            entry["field_report"] = {"exponent": G.exponent(), "all_integral": True,
                                     "entries": (2 * d + len(cone.ray_coords)) * d}
        entry.update(report_rows(cone))
        entries.append(entry)
    return {
        "sweep": "cone-atlas",
        "max_order": max_order,
        "groups": entries,
    }


def full_sweep(max_order: int = 8, samples: int = 50, seed: int = 0) -> dict:
    """The identity-by-identity verification bundle behind `ppdlab sweep`."""
    return {
        "seed": seed,
        "max_order": max_order,
        "corestriction": corestriction_sweep(
            max_order=max_order, samples=samples, seed=seed
        ),
        "products": product_closure_sweep(cases=samples * 4, seed=seed),
        "ppd_times_good": mixed_product_sweep(cases=samples, seed=seed),
        "involutions": involution_sweep(
            max_order=max_order, samples=max(5, samples // 10), seed=seed,
            square_max_order=min(8, max_order),
        ),
    }
