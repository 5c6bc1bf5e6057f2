import math
import warnings

import numpy as np
import pytest

from ppdlab import gaussian
from ppdlab.gaussian import (
    FOLD_BLOCK,
    MAX_GRID_POINTS,
    DerivedFormError,
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
from ppdlab.gaussian import _folded_sum, _marginal_kernel, _series_transform

SERIES_SPOTS = np.array([[0.3, 0.1], [0.5, 0.7], [0.0, 1.1]])


def test_quadratic_form_validation():
    QuadraticFormSPD([[1.0]])
    QuadraticFormSPD([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        QuadraticFormSPD([[1, 2], [0, 1]])  # not symmetric
    with pytest.raises(ValueError):
        QuadraticFormSPD([[1, 2], [2, 1]])  # indefinite
    with pytest.raises(ValueError):
        QuadraticFormSPD([[0.0]])


def test_spd_test_takes_forms_whose_leading_minors_underflow():
    # every pivot is positive while det(A) underflows to 0: the form is SPD
    for form in ([[1e-200, 0.0], [0.0, 1e-200]], [[2e-200, 1e-200], [1e-200, 2e-200]],
                 np.diag([1e-150, 1e-150, 1e-150]).tolist()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q = QuadraticFormSPD(form)
            dual, amplitude = gaussian_fourier_closed_form(Q)
        assert np.allclose(dual.matrix @ Q.matrix, np.eye(Q.dimension))
        assert math.isfinite(amplitude) and amplitude > 0
    # a non-positive pivot names its leading minor, as the determinants did
    for form, k in (([[1.0, 2.0], [2.0, 1.0]], 2), ([[0.0, 1.0], [1.0, 1.0]], 1),
                    ([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]], 3),
                    ([[1e-320, 1.0], [1.0, 1.0]], 2)):
        with pytest.raises(ValueError, match=f"^leading principal minor {k} is not positive"):
            QuadraticFormSPD(form)


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
    # the point count is bounded: at most MAX_GRID_POINTS, which CI's
    # 65536-point selfdual grid stays under
    assert MAX_GRID_POINTS >= 65536
    GridQuadrature(8.0, MAX_GRID_POINTS)
    for bad in (MAX_GRID_POINTS + 2, 10**8, 10**30):
        with pytest.raises(ValueError, match=f"at most {MAX_GRID_POINTS}"):
            GridQuadrature(8.0, bad)


@pytest.mark.parametrize("args, message", [
    ((0.0, 512), "half_width must be positive with a finite span 2*half_width, got 0.0"),
    ((math.nan, 512), "half_width must be positive with a finite span 2*half_width, got nan"),
    ((1e308, 512), "half_width must be positive with a finite span 2*half_width, got 1e+308"),
    ((8.0, 14), "points must be an even integer >= 16"),
    ((8.0, 513), "points must be an even integer >= 16"),
    ((8.0, MAX_GRID_POINTS + 2), f"points must be at most {MAX_GRID_POINTS}, "
                                 f"got {MAX_GRID_POINTS + 2}"),
])
def test_grid_rejection_messages(args, message):
    with pytest.raises(ValueError) as info:
        GridQuadrature(*args)
    assert str(info.value) == message


def test_grid_keeps_its_arguments_and_defaults():
    assert (GridQuadrature().half_width, GridQuadrature().points) == (8.0, 512)
    q = GridQuadrature(7.5, 250)
    assert q.meta() == {"half_width": 7.5, "points": 250}


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


def test_closed_form_amplitude_when_the_determinant_overflows():
    # det = 1e320 is past the float range; the amplitude comes from log det
    dual, amp = gaussian_fourier_closed_form(QuadraticFormSPD([[1e160, 0.0], [0.0, 1e160]]))
    assert amp == pytest.approx(1e-160, rel=1e-12, abs=0)
    assert np.allclose(dual.matrix, np.diag([1e-160, 1e-160]), rtol=1e-15, atol=0)


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
    xi, vals = numeric_fourier(lambda p: Q(p), q)
    dual, amp = gaussian_fourier_closed_form(Q)
    closed = amp * np.exp(-math.pi * dual.matrix[0, 0] * xi**2)
    assert np.abs(vals - closed).max() < 1e-8


def _dense_transform(f, q, xi):
    """The unfolded trapezoid sum: one complex exponential per (xi, x) pair."""
    axis = q.axis()
    return np.exp(-2j * math.pi * np.outer(xi, axis)) @ (f(axis[:, None]) * q.weights())


@pytest.mark.parametrize("R, N", [(8.0, 512), (6.0, 96), (7.5, 250), (8.0, 1000),
                                  (5.0, 16)])
def test_default_grid_fft_matches_dense_sum(R, N):
    # the FFT path (default frequencies) against the dense trapezoid sum at
    # the same frequencies; N = 96, 250 and 1000 are not powers of two
    q = GridQuadrature(R, N)
    for f in (QuadraticFormSPD([[1.0]]), QuadraticFormSPD([[3.0]]),
              lambda p: np.exp(-math.pi * (np.asarray(p)[:, 0] - 0.4) ** 2)):
        xi, vals = numeric_fourier(f, q)
        default_xi = np.linspace(-N / (4 * R), N / (4 * R), N + 1)
        xi_d, folded = numeric_fourier(f, q, xi_points=default_xi)
        dense = _dense_transform(f, q, default_xi)
        assert np.array_equal(xi, default_xi) and np.array_equal(xi, xi_d)
        assert np.abs(vals - dense).max() <= 1e-13
        assert np.abs(folded - dense).max() <= 1e-13


@pytest.mark.parametrize("R, N", [(8.0, 512), (7.5, 250)])
def test_folded_transform_matches_dense_sum(R, N):
    # an even f and a shifted Gaussian, whose odd half carries the sine sum;
    # on the default grid the rows run in more than one block
    q = GridQuadrature(R, N)
    xi = np.linspace(-3.0, 3.0, 61)
    if N == 512:
        assert (N // 2 + 1) * len(xi) > FOLD_BLOCK
    for f in (QuadraticFormSPD([[3.0]]),
              lambda p: np.exp(-math.pi * (np.asarray(p)[:, 0] - 0.4) ** 2)):
        xi_out, vals = numeric_fourier(f, q, xi_points=xi)
        dense = _dense_transform(f, q, xi)
        assert np.array_equal(xi_out, xi)
        assert np.abs(vals - dense).max() <= 1e-15 * np.abs(dense).max()
    # the shifted Gaussian's transform is not real: the sine sum is live
    assert np.abs(vals.imag).max() > 0.1


def test_folded_transform_of_a_complex_function():
    # a modulated Gaussian: the real and imaginary samples fold separately
    q = GridQuadrature()
    f = lambda p: np.exp((-math.pi * p[:, 0] + 2j * math.pi * 0.3) * p[:, 0])
    xi = np.linspace(-3.0, 3.0, 61)
    _, vals = numeric_fourier(f, q, xi_points=xi)
    dense = _dense_transform(f, q, xi)
    assert np.abs(vals - dense).max() <= 1e-15 * np.abs(dense).max()
    assert np.abs(vals - np.exp(-math.pi * (xi - 0.3) ** 2)).max() < 1e-14


def _assert_exactly_symmetric(axis, R):
    # the axis mirrors bitwise about an exact 0.0 and ends at exactly -R and R
    N = len(axis) - 1
    assert np.array_equal(axis, -axis[::-1])
    assert axis[N // 2] == 0.0 and axis[0] == -R and axis[-1] == R
    assert np.all(np.diff(axis) > 0)


@pytest.mark.parametrize("R, N", [(8.0, 512), (7.5, 250), (10.0, 130), (6.0, 1000)])
def test_every_grid_is_exactly_symmetric(R, N):
    # so even samples fold with every odd entry an exact zero, and the folded
    # sum has an all-zero imaginary part
    q = GridQuadrature(R, N)
    axis = q.axis()
    assert len(axis) == N + 1
    _assert_exactly_symmetric(axis, R)
    xs = np.insert(np.linspace(-3.0, 3.0, 61), 30, 0.0)
    nu = np.linspace(-110.0, 110.0, 97)
    for scale in (1.0, 2.0 / 3.0):
        vals = np.exp(-math.pi * scale * axis**2) * q.weights()
        for xi in (xs, nu):
            assert not np.any(_folded_sum(vals, axis, xi).imag)


def test_counterexample_per_term_grids_are_exactly_symmetric(monkeypatch):
    # every point-count group of the 100-term probe folds on a symmetric
    # axis, so each of its folded sums is real
    calls = []

    def recording_fold(vals, axis, xi):
        out = _folded_sum(vals, axis, xi)
        calls.append((axis, out))
        return out

    monkeypatch.setattr(gaussian, "_folded_sum", recording_fold)
    counterexample_probe(100)
    assert len(calls) == 166
    for axis, out in calls:
        _assert_exactly_symmetric(axis, GridQuadrature().half_width)
        assert not np.any(out.imag)


@pytest.mark.parametrize("form", [[[2.0, 1.0], [1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]]])
def test_in_place_marginal_equals_the_expression(form):
    A = QuadraticFormSPD(form).matrix
    xs = np.insert(np.linspace(-3.0, 3.0, 61), 30, 0.0)
    x, y = xs[:, None], GridQuadrature().axis()[None, :]
    expression = np.exp(-math.pi * (A[0, 0] * x**2 + (A[0, 1] + A[1, 0]) * x * y
                                    + A[1, 1] * y**2))
    assert np.array_equal(_marginal_kernel(A, xs, y[0]), expression)


@pytest.mark.parametrize("n_terms", [10, 100])
def test_series_report_to_dict_matches_asdict(n_terms):
    report = counterexample_probe(n_terms)
    assert report.to_dict() == report._asdict()
    assert list(report.to_dict()) == list(report._asdict())


def test_counterexample_checks_its_grids_before_any_quadrature():
    # 4 * half_width * (|frequency| + 4) points per term, past the grid limit;
    # at 1e300 the grid's squares and at 8e307 the point count itself leave
    # the float range, and no floating-point warning may escape
    for half_width in (1e6, 1e300, 8e307):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
                counterexample_probe(10, GridQuadrature(half_width, 512))
    # at the default grid the largest frequency passes the limit at 7444 terms
    with pytest.raises(ValueError, match="more than"):
        _series_transform(SERIES_SPOTS, 7444, GridQuadrature())


def test_series_grid_limit_is_decided_before_any_per_term_array(monkeypatch):
    # the decision from the largest frequency alone equals the one over every
    # term's frequency, and it comes before the decay check and the arrays
    class LimitPassed(Exception):
        pass

    def limit_passed(*args):
        raise LimitPassed

    monkeypatch.setattr(gaussian, "_check_boundary_decay", limit_passed)
    for half_width in (3.0, 7.5, 8.0, 12.25, 1e6):
        q = GridQuadrature(half_width)
        edge = int((MAX_GRID_POINTS / (4 * half_width) - 4) / 1.1)
        for n in {*range(2, 12), *range(max(2, edge - 4), edge + 5)}:
            squares = np.array([float(k**2) for k in range(1, n + 1)])
            scale = np.array([math.sqrt(a) for a in [*squares, *(1.0 / squares)]])
            nu = (np.repeat(SERIES_SPOTS, n, axis=1) / scale).ravel()
            rejected = (4 * half_width * (np.abs(nu) + 4)).max() >= MAX_GRID_POINTS
            with pytest.raises(ValueError if rejected else LimitPassed):
                _series_transform(SERIES_SPOTS, n, q)
    with pytest.raises(LimitPassed):  # the default grid takes 7443 terms, not 7444
        _series_transform(SERIES_SPOTS, 7443, GridQuadrature())
    # a term count whose square leaves the float range needs an infinite grid
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for n in (10**9, 10**200):
            with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
                counterexample_probe(n)


def test_counterexample_rejects_a_truncating_half_width(monkeypatch):
    # exp(-pi u^2) is 0.456 at u = 0.5 and 3.5e-6 at u = 2: every quadrature
    # of the probe would be truncated, so none runs
    def no_quadrature(*args):
        raise AssertionError("a quadrature ran on a truncating grid")

    monkeypatch.setattr(gaussian, "_folded_sum", no_quadrature)
    for half_width, decay in ((0.5, "4.559e-01"), (2.0, "3.487e-06")):
        with pytest.raises(ValueError, match=f"insufficient decay .*: {decay} >"):
            counterexample_probe(10, GridQuadrature(half_width, 512))


def _per_term_series_transform(spot, n_terms, q):
    """The series transform at one spot, one quadrature per (term, axis)."""
    def gauss1d(a, xi):
        s = math.sqrt(a)
        n_pts = max(q.points, int(4 * q.half_width * (abs(xi) / s + 4)) + 1)
        grid = GridQuadrature(q.half_width, n_pts + n_pts % 2)
        u = grid.axis()
        vals = np.exp(-math.pi * u**2) * np.exp(-2j * math.pi * u * (xi / s))
        return complex(vals @ grid.weights()) / s

    total = 0.0
    for n in range(1, n_terms + 1):
        ix = gauss1d(float(n**2), float(spot[0]))
        iy = gauss1d(1.0 / n**2, float(spot[1]))
        total += (ix * iy).real / n**2
    return total


@pytest.mark.parametrize("n_terms", [10, 30, 100])
def test_batched_series_transform_matches_per_term_quadrature(n_terms):
    q = GridQuadrature()
    batched = _series_transform(SERIES_SPOTS, n_terms, q)
    reference = np.array([_per_term_series_transform(spot, n_terms, q)
                          for spot in SERIES_SPOTS])
    assert np.abs(batched - reference).max() <= 1e-14 * np.abs(reference).max()


@pytest.mark.parametrize("form", [[[2.0, 1.0], [1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]]])
@pytest.mark.parametrize("test_points", [20, 21, 60])
def test_corestriction_gaps_at_round_off(form, test_points):
    report = gaussian_corestriction_check(QuadraticFormSPD(form), 1,
                                          test_points=test_points)
    assert report.max_gap_routes < 1e-14
    assert report.max_gap_marginal_vs_closed < 1e-14
    assert report.max_gap_dual_route_vs_closed < 1e-14


def test_corestriction_to_dict_drops_test_points():
    report = gaussian_corestriction_check(QuadraticFormSPD([[2.0, 1.0], [1.0, 2.0]]), 1)
    reference = report._asdict()
    del reference["test_points"]
    assert report.to_dict() == reference
    assert list(report.to_dict()) == list(reference)


def test_derived_forms_name_the_matrix():
    # the form is valid; its inverse overflows or underflows the checks
    for form, message in (([[1e308, 0.0], [0.0, 1e308]], "leading principal minor 2"),
                          ([[1e-320, 0.0], [0.0, 1.0]], "non-finite entry")):
        Q = QuadraticFormSPD(form)
        for probe in (gaussian_fourier_closed_form, gaussian_goodness_probe,
                      lambda Q: gaussian_corestriction_check(Q, 1)):
            with pytest.raises(DerivedFormError, match=f"^its inverse: .*{message}"):
                probe(Q)


def test_selfdual_on_a_fine_default_grid():
    # 65536 points: the dense kernel would hold 65537^2 complex entries
    assert gaussian_selfdual_check(GridQuadrature(8.0, 65536)) < 1e-8


def test_numeric_fourier_linearity():
    q = GridQuadrature(8.0, 256)
    f = lambda p: np.exp(-math.pi * np.asarray(p)[:, 0] ** 2)
    g = lambda p: np.exp(-2 * math.pi * np.asarray(p)[:, 0] ** 2)
    xi, tf = numeric_fourier(f, q)
    _, tg = numeric_fourier(g, q)
    _, tsum = numeric_fourier(lambda p: f(p) + g(p), q)
    scale = np.abs(tsum).max()
    assert np.abs(tsum - (tf + tg)).max() < 1e-12 * scale


def test_numeric_fourier_decay_guard_and_truncation_sweep():
    Q = QuadraticFormSPD([[1.0]])
    with pytest.raises(ValueError):
        numeric_fourier(lambda p: Q(p), GridQuadrature(2.0, 256))
    # the truncated grids' sums, unguarded: the folded sum numeric_fourier
    # takes for explicit xi_points
    xi = np.linspace(-2, 2, 33)
    closed = np.exp(-math.pi * xi**2)
    errs = []
    for R in (3.0, 2.0, 1.5):
        q = GridQuadrature(R, 256)
        axis = q.axis()
        vals = _folded_sum(Q(axis[:, None]) * q.weights(), axis, xi)
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


def test_corestriction_rejects_a_grid_that_truncates_the_marginal():
    """A small a11 leaves the marginal integrand far from 0 at y = -R and R
    (0.134 on the default grid for both forms): rejected before the
    quadrature.  A grid wide enough for it gives gaps at round-off."""
    for form in ([[1.0, 0.2], [0.2, 0.05]], [[0.5, 0.1], [0.1, 0.03]]):
        Q = QuadraticFormSPD(form)
        with pytest.raises(ValueError, match="^insufficient decay at the grid boundary: 1.339e-01"):
            gaussian_corestriction_check(Q, 1)
        report = gaussian_corestriction_check(Q, 1, GridQuadrature(40.0, 4096))
        assert max(report.max_gap_routes, report.max_gap_marginal_vs_closed,
                   report.max_gap_dual_route_vs_closed) < 1e-12


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
    assert list(report.to_dict()) == [
        "strictly_positive", "transform_strictly_positive", "marginals_integrable",
        "lattice_restriction_sum", "extremality_note", "all_checks_pass"]
    assert report.to_dict()["all_checks_pass"] is True


def test_goodness_probe_various_scales():
    # amplitude scaling keeps a Gaussian on its ray; the probe's checks are
    # amplitude-free, so dilating the form must pass for every width too
    for alpha in (0.5, 2.0, 7.0):
        Q = QuadraticFormSPD(alpha * np.eye(2))
        assert gaussian_goodness_probe(Q).all_checks_pass


def test_lattice_sum_theta():
    val = lattice_sum(QuadraticFormSPD([[1.0]]))
    assert val == pytest.approx(1.086434811213308, abs=1e-12)
    with pytest.raises(ValueError, match="1x1 form"):
        lattice_sum(QuadraticFormSPD(np.eye(2)))
