"""Acceptance suite: one test per criterion, at the stated scale and tolerance.

Each test prints a single PASS line on success (run with `pytest -s` or see
captured output) so batch logs show per-criterion status.
"""

import time

import pytest

from ppdlab.cone import (
    brute_force_rays,
    canonical_ray,
    extremal_rays,
    field_of_definition_check,
    ppd_cone_hrep,
)
from ppdlab.cyclotomic import expand_in_cos_basis
from ppdlab.gaussian import (
    GridQuadrature,
    QuadraticFormSPD,
    counterexample_probe,
    gaussian_corestriction_check,
    gaussian_selfdual_check,
)
from ppdlab.groups import abelian_group_catalog, make_group
from ppdlab.sweeps import (
    bochner_agreement_sweep,
    cone_membership_sweep,
    corestriction_sweep,
    involution_sweep,
    mixed_product_sweep,
    product_closure_sweep,
    structure_sweep,
)

SEED = 20260808


def _report(n, text):
    print(f"\n[criterion {n:2d}] PASS  {text}")


def test_criterion_01_bochner_equivalence():
    t0 = time.perf_counter()
    report = bochner_agreement_sweep(max_order=12, samples=1000, seed=SEED)
    elapsed = time.perf_counter() - t0
    assert report["disagreements"] == [], report["disagreements"][:3]
    assert report["cases"] == 21 * 1000
    assert elapsed < 60, f"sweep took {elapsed:.1f}s, budget is 60s"
    _report(1, f"matrix vs spectral agreement, {report['cases']} cases, "
               f"0 disagreements, {elapsed:.1f}s")


def test_criterion_02_identity_max_stabilizer_descent():
    report = structure_sweep(max_order=16, samples=1000, seed=SEED)
    assert report["failures"] == [], report["failures"][:3]
    _report(2, f"max-at-0 / stabilizer / exact descent, {report['cases']} "
               f"sampled PPD functions, 0 failures")


def test_criterion_03_corestriction_two_routes():
    report = corestriction_sweep(max_order=12, samples=100, seed=SEED)
    assert report["failures"] == [], report["failures"][:3]
    assert report["max_gap"] == 0.0
    _report(3, f"Fourier route = coset-average route on every coset, "
               f"{report['pairs']} (group, subgroup) pairs x 100 samples, gap 0")


def test_criterion_04_product_closures():
    report = product_closure_sweep(cases=1000, seed=SEED)
    assert report["failures"] == [], report["failures"][:3]
    _report(4, f"pointwise/external products keep PPD/good/normalized, "
               f"1000 cases, diagonal consistency on "
               f"{report['diagonal_checked']} of them, 0 failures")


def test_criterion_05_mixed_product_and_discrepancy():
    report = mixed_product_sweep(cases=200, seed=SEED)
    assert report["failures"] == []
    case = report["discrepancy_case"]
    assert case["transform"] == ["5", "3", "5", "3"]
    assert case["transform_strictly_positive"] is True
    assert case["product"][1] == "0"
    assert case["is_good"] is False
    witnesses = case["condition_4_witnesses"]
    assert any(w["index"] == 1 for w in witnesses)
    _report(5, "strictly-positive PPD x good stays good (200 cases); the "
               "zero-at-1 boundary case reproduces transform (5,3,5,3) with "
               "condition 4 flagged")


def test_criterion_06_cone_atlas_and_membership():
    counts = {}
    for n in (2, 3, 4):
        cone = extremal_rays(ppd_cone_hrep(make_group([n])))
        brute = brute_force_rays(cone)
        e = n
        dd_keys = {canonical_ray(r, e)[1] for r in cone.rays}
        bf_keys = {canonical_ray(r, e)[1] for r in brute}
        assert dd_keys == bf_keys
        counts[n] = len(cone.rays)
    assert counts == {2: 2, 3: 2, 4: 4}
    for n in (5, 6):
        G = make_group([n])
        cone = extremal_rays(ppd_cone_hrep(G))
        brute = brute_force_rays(cone)
        e = G.exponent()
        assert {canonical_ray(r, e)[1] for r in cone.rays} == {
            canonical_ray(r, e)[1] for r in brute
        }
    membership = cone_membership_sweep(max_order=8, samples=1000, seed=SEED)
    assert membership["disagreements"] == [], membership["disagreements"][:3]
    _report(6, f"ray counts (Z2,Z3,Z4) = (2,2,4) vs brute force; DD = brute "
               f"force through Z6; interior = good on "
               f"{membership['cases']} random even rational points")


def test_criterion_07_algebraicity_certificates():
    entries = 0
    for G in abelian_group_catalog(12):
        assert G.exponent() <= 12
        cone = extremal_rays(ppd_cone_hrep(G))
        report = field_of_definition_check(cone)
        assert report["all_integral"], f"non-integral entry in {G}"
        entries += len(report["entries"])
        # independent re-check: every inequality coefficient and ray value
        # expands to its integer row or ray_coords entry
        e = G.exponent()
        stored = [(c, x) for q, row in zip(cone.inequalities, cone.rows)
                  for c, x in zip(q.coeffs, row)]
        stored += [(c, x) for ray, coords in zip(cone.rays, cone.ray_coords)
                   for c, x in zip(ray, coords)]
        assert len(stored) == len(report["entries"])
        for c, x in stored:
            exp = expand_in_cos_basis(c, e)
            assert exp is not None
            assert all(q.denominator == 1 for q in exp)
            assert tuple(exp) == x, (G, c)
    _report(7, f"every coefficient and ray coordinate over all {entries} "
               f"atlas entries (orders 1..12, exponents <= 12) certified in "
               f"Z[2cos(2pi/e)]")


def test_criterion_08_gaussian_selfduality_and_schur():
    gap = gaussian_selfdual_check(GridQuadrature(8.0, 512))
    assert gap < 1e-8
    report = gaussian_corestriction_check(
        QuadraticFormSPD([[2.0, 1.0], [1.0, 2.0]]), 1, GridQuadrature(8.0, 512)
    )
    assert report.schur_matrix[0][0] == pytest.approx(1.5, abs=1e-12)
    assert report.max_gap_routes < 1e-9
    _report(8, f"exp(-pi x^2) transform gap {gap:.2e} < 1e-8; Schur marginal "
               f"form 3/2 with route gap {report.max_gap_routes:.2e} < 1e-9")


def test_criterion_09_counterexample_masses():
    r10 = counterexample_probe(10)
    h10 = sum(1.0 / n for n in range(1, 11))
    p10 = sum(1.0 / n**2 for n in range(1, 11))
    assert abs(r10.restricted_mass - h10) < 1e-6
    assert abs(r10.total_mass - p10) < 1e-6
    assert abs(h10 - 2.9289682539682538) < 1e-12
    assert abs(p10 - 1.5497677311665408) < 1e-12
    ratios = []
    for n in (10, 30, 100):
        r = counterexample_probe(n)
        ratios.append(r.restricted_mass / r.total_mass)
    assert ratios[0] < ratios[1] < ratios[2]
    _report(9, f"restricted mass H_10 = {r10.restricted_mass:.7f}, total "
               f"mass {r10.total_mass:.7f} (both within 1e-6); restricted/"
               f"total ratio strictly increasing over N in (10, 30, 100)")


def test_criterion_10_duality_involutions():
    report = involution_sweep(max_order=12, samples=20, seed=SEED,
                              square_max_order=8)
    assert report["failures"] == [], report["failures"][:3]
    _report(10, f"double normalized dual = identity, duality square commutes, "
                f"dual Haar is an involution; {report['cases']} cases, "
                f"0 failures")
