import math

import numpy as np
import pytest

from ppdlab.gaussian import (
    GridQuadrature,
    QuadraticFormSPD,
    counterexample_probe,
    gaussian_corestriction_check,
    gaussian_fourier_closed_form,
    gaussian_goodness_probe,
    gaussian_selfdual_check,
    lattice_sum,
    numeric_fourier,
    schur_complement,
)


def test_quadratic_form_validation():
    QuadraticFormSPD([[1.0]])
    QuadraticFormSPD([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        QuadraticFormSPD([[1, 2], [0, 1]])  # not symmetric
    with pytest.raises(ValueError):
        QuadraticFormSPD([[1, 2], [2, 1]])  # indefinite
    with pytest.raises(ValueError):
        QuadraticFormSPD([[0.0]])


def test_grid_validation():
    GridQuadrature(8.0, 512)
    with pytest.raises(ValueError):
        GridQuadrature(-1.0, 64)
    with pytest.raises(ValueError):
        GridQuadrature(8.0, 15)
    with pytest.raises(ValueError):
        GridQuadrature(8.0, 17)
    # non-finite widths, and widths whose span 2 * half_width overflows
    for bad in (math.inf, -math.inf, math.nan, 1e308, 9e307):
        with pytest.raises(ValueError):
            GridQuadrature(bad, 512)
    GridQuadrature(8e307, 512)


def test_closed_form_identity_selfdual():
    Q = QuadraticFormSPD([[1.0]])
    dual, amp = gaussian_fourier_closed_form(Q)
    assert amp == pytest.approx(1.0)
    assert dual.matrix[0, 0] == pytest.approx(1.0)


def test_closed_form_scaling_1d():
    Q = QuadraticFormSPD([[4.0]])
    dual, amp = gaussian_fourier_closed_form(Q)
    assert amp == pytest.approx(0.5)
    assert dual.matrix[0, 0] == pytest.approx(0.25)


def test_double_transform_returns_original():
    Q = QuadraticFormSPD([[2, 1], [1, 2]])
    dual, amp = gaussian_fourier_closed_form(Q)
    back, amp2 = gaussian_fourier_closed_form(dual)
    assert np.allclose(back.matrix, Q.matrix, atol=1e-14)
    assert amp * amp2 == pytest.approx(1.0)


def test_numeric_matches_closed_form_selfdual():
    gap = gaussian_selfdual_check(GridQuadrature(8.0, 512))
    assert gap < 1e-8


def test_numeric_fourier_general_1d():
    Q = QuadraticFormSPD([[3.0]])
    q = GridQuadrature(8.0, 512)
    xi, vals = numeric_fourier(lambda p: Q(p), q, dim=1)
    dual, amp = gaussian_fourier_closed_form(Q)
    closed = amp * np.exp(-math.pi * dual.matrix[0, 0] * xi**2)
    assert np.abs(vals - closed).max() < 1e-8


@pytest.mark.parametrize("R, N", [(8.0, 512), (6.0, 96), (7.5, 250), (8.0, 1000),
                                  (5.0, 16)])
def test_default_grid_fft_matches_dense_sum(R, N):
    # the FFT path (default frequencies) against the dense trapezoid sum at
    # the same frequencies; N = 96, 250 and 1000 are not powers of two
    q = GridQuadrature(R, N)
    for f in (QuadraticFormSPD([[1.0]]), QuadraticFormSPD([[3.0]]),
              lambda p: np.exp(-math.pi * (np.asarray(p)[:, 0] - 0.4) ** 2)):
        xi, vals = numeric_fourier(f, q, dim=1)
        default_xi = np.linspace(-N / (4 * R), N / (4 * R), N + 1)
        xi_d, dense = numeric_fourier(f, q, dim=1, xi_points=default_xi)
        assert np.array_equal(xi, default_xi) and np.array_equal(xi, xi_d)
        assert np.abs(vals - dense).max() <= 1e-13


def test_selfdual_on_a_fine_default_grid():
    # 65536 points: the dense kernel would hold 65537^2 complex entries
    assert gaussian_selfdual_check(GridQuadrature(8.0, 65536)) < 1e-8


def test_numeric_fourier_rejects_other_dimensions_before_sampling():
    def never_called(p):
        raise AssertionError("sampled f for an unsupported dimension")

    for dim in (0, 2, 3):
        with pytest.raises(ValueError, match="dimension"):
            numeric_fourier(never_called, GridQuadrature(), dim=dim,
                            xi_points=[[0.0, 0.0]])


def test_numeric_fourier_linearity():
    q = GridQuadrature(8.0, 256)
    f = lambda p: np.exp(-math.pi * np.asarray(p)[:, 0] ** 2)
    g = lambda p: np.exp(-2 * math.pi * np.asarray(p)[:, 0] ** 2)
    xi, tf = numeric_fourier(f, q, dim=1)
    _, tg = numeric_fourier(g, q, dim=1)
    _, tsum = numeric_fourier(lambda p: f(p) + g(p), q, dim=1)
    scale = np.abs(tsum).max()
    assert np.abs(tsum - (tf + tg)).max() < 1e-12 * scale


def test_numeric_fourier_decay_guard_and_truncation_sweep():
    Q = QuadraticFormSPD([[1.0]])
    with pytest.raises(ValueError):
        numeric_fourier(lambda p: Q(p), GridQuadrature(2.0, 256), dim=1)
    errs = []
    for R in (3.0, 2.0, 1.5):
        xi, vals = numeric_fourier(
            lambda p: Q(p),
            GridQuadrature(R, 256),
            dim=1,
            xi_points=np.linspace(-2, 2, 33),
            enforce_decay=False,
        )
        closed = np.exp(-math.pi * np.linspace(-2, 2, 33) ** 2)
        errs.append(np.abs(vals - closed).max())
    assert errs[0] < errs[1] < errs[2]


def test_corestriction_check_identity_form():
    Q = QuadraticFormSPD([[1.0, 0.0], [0.0, 1.0]])
    report = gaussian_corestriction_check(Q, 1)
    assert report.max_gap_routes < 1e-9
    assert report.schur_matrix[0][0] == pytest.approx(1.0)


def test_corestriction_check_schur_golden():
    Q = QuadraticFormSPD([[2.0, 1.0], [1.0, 2.0]])
    report = gaussian_corestriction_check(Q, 1)
    assert report.schur_matrix[0][0] == pytest.approx(1.5)
    assert report.max_gap_routes < 1e-9
    assert report.max_gap_marginal_vs_closed < 1e-9
    assert report.max_gap_dual_route_vs_closed < 1e-9


def test_corestriction_normalized_at_zero():
    Q = QuadraticFormSPD([[2.0, 1.0], [1.0, 2.0]])
    report = gaussian_corestriction_check(Q, 1, test_points=21, test_halfwidth=2.0)
    xs = np.array(report.test_points)
    # both routes were normalized: gap at 0 must be exactly 0
    assert 0.0 in xs
    # an even count leaves x = 0 off the test grid; both routes are still
    # normalized at the origin, so they match the closed form there too
    for n in (21, 20, 60):
        report = gaussian_corestriction_check(Q, 1, test_points=n)
        assert len(report.test_points) == n
        assert report.max_gap_routes < 1e-9
        assert report.max_gap_marginal_vs_closed < 1e-9
        assert report.max_gap_dual_route_vs_closed < 1e-9


def test_schur_complement_values():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert schur_complement(A, 1)[0, 0] == pytest.approx(1.5)
    B = np.linalg.inv(A)
    # dual form restricted to the first coordinate inverts the Schur complement
    assert B[0, 0] == pytest.approx(1 / 1.5)


def test_counterexample_probe_golden_n10():
    report = counterexample_probe(10)
    h10 = sum(1.0 / n for n in range(1, 11))
    p10 = sum(1.0 / n**2 for n in range(1, 11))
    assert abs(report.restricted_mass - h10) < 1e-6
    assert abs(report.total_mass - p10) < 1e-6
    assert report.total_mass < math.pi**2 / 6 + 1e-6
    assert report.swap_symmetry_gap < 1e-8
    assert report.partial_sums_ppd


def test_counterexample_growth():
    r10 = counterexample_probe(10)
    r100 = counterexample_probe(100)
    assert r100.restricted_mass - r10.restricted_mass == pytest.approx(
        math.log(10), abs=0.06
    )
    # the p-series tail from 11 to 100 is about 0.085: small next to log 10
    assert r100.total_mass - r10.total_mass == pytest.approx(0.0852, abs=0.001)
    assert r100.total_mass < math.pi**2 / 6 + 1e-6


def test_counterexample_ratio_increasing():
    ratios = []
    for n in (10, 30, 100):
        r = counterexample_probe(n)
        ratios.append(r.restricted_mass / r.total_mass)
    assert ratios[0] < ratios[1] < ratios[2]


def test_counterexample_rejects_tiny():
    with pytest.raises(ValueError):
        counterexample_probe(1)


def test_goodness_probe_identity():
    report = gaussian_goodness_probe(QuadraticFormSPD(np.eye(2)))
    assert report.all_checks_pass
    assert report.lattice_restriction_sum == pytest.approx(1.0864348112, abs=1e-9)
    assert "not machine-checked" in report.extremality_note


def test_goodness_probe_various_scales():
    # amplitude scaling keeps a Gaussian on its ray; the probe's checks are
    # amplitude-free, so dilating the form must pass for every width too
    for alpha in (0.5, 2.0, 7.0):
        Q = QuadraticFormSPD(alpha * np.eye(2))
        assert gaussian_goodness_probe(Q).all_checks_pass


def test_lattice_sum_theta():
    val = lattice_sum(QuadraticFormSPD([[1.0]]))
    assert val == pytest.approx(1.086434811213308, abs=1e-12)
    val2 = lattice_sum(QuadraticFormSPD(np.eye(2)))
    assert val2 == pytest.approx(1.086434811213308**2, abs=1e-10)
