"""Desk-scale numeric probes for Gaussians exp(-pi x^T A x) on R^n.

The exp(-pi . ) convention makes the identity form self-dual and keeps every
transform free of stray 2*pi factors: the transform of exp(-pi x^T A x) under
exp(-2*pi*i x.xi) is det(A)^(-1/2) exp(-pi xi^T A^(-1) xi).

Quadrature is plain trapezoid on [-R, R] grids whose negative half mirrors
the positive half exactly, so every grid is symmetric about x = 0; for
rapidly decaying smooth integrands this converges superexponentially, so the
default grid (R=8, N=512) sits far below the 1e-8 verification tolerances.
Transforms at the default frequencies run as one FFT in O(N log N); explicit
frequencies fold the weighted samples into even and odd halves about x = 0
and take the cosine sum of the even half minus i times the sine sum of the
odd half over the N/2 + 1 points x >= 0.  Even samples (every probe's
integrand is even) have no odd half, so only the cosine sum is taken.

A grid holds at most MAX_GRID_POINTS subintervals, which bounds every sample
array, the corestriction marginal and the counterexample's per-term grids.

GridQuadrature checks its grid in __init__ (a __slots__ class).  The three
reports are typing.NamedTuples, so they are tuples: _asdict reads one as a
dict and _replace copies one with a changed field.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

SYMMETRY_TOL = 1e-14
BOUNDARY_DECAY = 1e-14
FOLD_BLOCK = 1 << 13  # phase entries per block of the folded trapezoid sum
MAX_GRID_POINTS = 1 << 18  # subintervals per grid axis


class DerivedFormError(ValueError):
    """A matrix derived from a valid form (its inverse, a Schur complement)
    is not a valid form itself."""


def _check_pivots(A) -> None:
    """Raise unless every pivot of the LDL^T elimination of A is positive.

    Pivot k is the ratio of leading principal minors k and k - 1, so positive
    pivots are positive minors (Sylvester) without forming a minor, which
    under- or overflows for forms such as 1e-200 * I.  A pivot below the
    normal float range has lost precision: it counts as positive only while
    the leading minor it completes, the product of the pivots so far, is
    still a positive float."""
    S = A.tolist()  # Python floats: a step past a tiny pivot overflows without a warning
    minor = 1.0
    for k, row in enumerate(S):
        pivot = row[k]
        minor *= pivot
        if not (pivot >= sys.float_info.min or pivot > 0 and minor > 0):
            raise ValueError(f"leading principal minor {k + 1} is not positive; not SPD")
        for rest in S[k + 1:]:
            factor = rest[k] / pivot
            for j in range(k + 1, len(S)):
                rest[j] -= factor * row[j]


class QuadraticFormSPD:
    """A symmetric positive-definite matrix defining exp(-pi x^T A x)."""

    __slots__ = ("matrix", "dimension")

    def __init__(self, matrix):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"need a square matrix, got shape {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("matrix has a non-finite entry")
        scale = max(1.0, float(np.abs(A).max()))
        if float(np.abs(A - A.T).max()) > SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric")
        _check_pivots(A)
        self.matrix = A
        self.dimension = A.shape[0]

    def __call__(self, points):
        """exp(-pi x^T A x) for points of shape (..., n)."""
        x = np.atleast_2d(np.asarray(points, dtype=float))
        q = np.einsum("...i,ij,...j->...", x, self.matrix, x)
        return np.exp(-math.pi * q)

    def __repr__(self):
        return f"QuadraticFormSPD({self.matrix.tolist()})"


class GridQuadrature:
    """Trapezoid rule on [-R, R] with N subintervals per axis."""

    __slots__ = ("half_width", "points")

    def __init__(self, half_width: float = 8.0, points: int = 512):
        if not (half_width > 0 and math.isfinite(2 * half_width)):
            raise ValueError("half_width must be positive with a finite span "
                             f"2*half_width, got {half_width}")
        if points < 16 or points % 2:
            raise ValueError("points must be an even integer >= 16")
        if points > MAX_GRID_POINTS:
            raise ValueError(f"points must be at most {MAX_GRID_POINTS}, "
                             f"got {points}")
        self.half_width = half_width
        self.points = points

    def axis(self):
        """-R..R in N equal steps: linspace(0, R, N/2 + 1) mirrored onto the
        negative half, so x_-j == -x_j bitwise, with 0.0 in the middle."""
        half = np.linspace(0.0, self.half_width, self.points // 2 + 1)
        return np.concatenate((-half[:0:-1], half))

    def weights(self):
        h = 2 * self.half_width / self.points
        w = np.full(self.points + 1, h)
        w[0] = w[-1] = h / 2
        return w

    def meta(self):
        return {"half_width": self.half_width, "points": self.points}


def _derived_form(matrix, name: str) -> QuadraticFormSPD:
    try:
        return QuadraticFormSPD(matrix)
    except ValueError as exc:
        raise DerivedFormError(f"{name}: {exc}") from None


def gaussian_fourier_closed_form(Q: QuadraticFormSPD):
    """Dual form A^{-1} and amplitude det(A)^{-1/2}."""
    A = Q.matrix
    with np.errstate(all="ignore"):  # the checks below reject what overflows
        inv = np.linalg.inv(A)
        inv = (inv + inv.T) / 2
        dual = _derived_form(inv, "its inverse")
        # from log det: det(A) itself overflows for a valid form such as 1e160*I
        amplitude = math.exp(-0.5 * np.linalg.slogdet(A)[1])
    return dual, amplitude


def _check_boundary_decay(f, q: GridQuadrature) -> None:
    """Reject a grid whose ends -R and R truncate f: |f| there, relative to
    |f(0)|, must not pass BOUNDARY_DECAY."""
    R = q.half_width
    peak = float(np.abs(f(np.zeros((1, 1)))).max()) or 1.0
    _check_decay(float(np.abs(f(np.array([[-R], [R]]))).max()) / peak)


def _check_decay(decay: float) -> None:
    """Reject an integrand whose value at the grid ends, relative to its peak,
    passes BOUNDARY_DECAY (or is NaN)."""
    if not decay <= BOUNDARY_DECAY:
        raise ValueError(
            f"insufficient decay at the grid boundary: {decay:.3e} > {BOUNDARY_DECAY}"
        )


def numeric_fourier(f, q: GridQuadrature, xi_points=None):
    """Trapezoid-rule transform f_hat(xi) = integral f(x) exp(-2*pi*i x xi) dx
    on the real line, for f sampled at points of shape (N + 1, 1).

    Returns (xi_points, values).  Rejects grids whose boundary truncates the
    integrand above the 1e-14 decay threshold.
    Explicit xi_points take the folded trapezoid sum (`_folded_sum`) on the
    exactly symmetric grid: the cosine sum of the even half of the weighted
    samples minus i times the sine sum of the odd half, over the grid points
    x >= 0; even samples take the cosine sum alone.  At the default
    xi_k = (k - N/2) / (2R), x_j * xi_k = (j - N/2)(k - N/2) / N, so the sum
    is one length-N FFT: both ends carry the phase (-1)^(k - N/2), so w_N f(R)
    folds into sample 0; rolling by N/2 puts x = 0 at index 0, and output k
    is read at index (k - N/2) mod N.
    """
    _check_boundary_decay(f, q)
    N, axis = q.points, q.axis()
    vals = f(axis[:, None]) * q.weights()
    if xi_points is None:
        xi = np.linspace(-N / (4 * q.half_width), N / (4 * q.half_width), N + 1)
        vals[0] += vals[N]
        spectrum = np.fft.fft(np.roll(vals[:N], N // 2))
        return xi, spectrum[(np.arange(N + 1) - N // 2) % N]
    xi = np.asarray(xi_points, dtype=float).reshape(-1)
    if np.iscomplexobj(vals):  # the fold runs on real samples
        return xi, (_folded_sum(vals.real, axis, xi)
                    + 1j * _folded_sum(vals.imag, axis, xi))
    return xi, _folded_sum(vals, axis, xi)


def _folded_sum(vals, axis, xi):
    """sum_j vals_j exp(-2 pi i xi x_j) for each xi, for real vals on a
    `GridQuadrature.axis`, where x_-j == -x_j about the middle point x_0 = 0.

    vals_j + vals_-j and vals_j - vals_-j pair with cos and -i sin of the
    phase at x_j (j >= 0; x_0 pairs with itself at half weight), so the sum
    takes half the points and no complex exponential.  The sine sum is
    taken only when the odd half has a nonzero entry; for even samples the
    imaginary part is 0.  Rows go in blocks of at most FOLD_BLOCK phase
    entries.
    """
    m = len(axis) // 2
    x, neg = axis[m:], vals[m::-1]
    even, odd = vals[m:] + neg, vals[m:] - neg
    even[0] /= 2  # x_0 pairs with itself
    has_odd = odd.any()
    out = np.zeros(len(xi), dtype=complex)
    rows = max(1, FOLD_BLOCK // len(x))
    for i in range(0, len(xi), rows):
        phase = (2 * math.pi) * np.outer(xi[i:i + rows], x)
        if has_odd:
            out.imag[i:i + rows] = -(np.sin(phase) @ odd)
        out.real[i:i + rows] = np.cos(phase, out=phase) @ even
    return out


def gaussian_selfdual_check(q: GridQuadrature = GridQuadrature()):
    """Max deviation of the numeric transform of exp(-pi x^2) from itself."""
    Q = QuadraticFormSPD([[1.0]])
    xi, vals = numeric_fourier(lambda p: Q(p), q)
    closed = np.exp(-math.pi * xi**2)
    return float(np.abs(vals - closed).max())


# -- corestriction (marginal) identity ---------------------------------------------


class CorestrictionProbeReport(NamedTuple):
    schur_matrix: tuple
    max_gap_routes: float
    max_gap_marginal_vs_closed: float
    max_gap_dual_route_vs_closed: float
    test_points: tuple
    grid: dict

    def to_dict(self):
        out = {**self._asdict(), "grid": dict(self.grid)}
        del out["test_points"]
        return out


def schur_complement(A: np.ndarray, k: int) -> np.ndarray:
    A11, A12 = A[:k, :k], A[:k, k:]
    A21, A22 = A[k:, :k], A[k:, k:]
    return A11 - A12 @ np.linalg.inv(A22) @ A21


def gaussian_corestriction_check(Q: QuadraticFormSPD, k: int,
                                 q: GridQuadrature = GridQuadrature(),
                                 test_halfwidth: float = 3.0,
                                 test_points: int = 61) -> CorestrictionProbeReport:
    """Marginal-integral route vs transform-restrict-invert route, normalized.

    The marginal of exp(-pi x^T A x) over the trailing coordinates is the
    Gaussian of the Schur complement A/A22; the dual route restricts the dual
    Gaussian to the leading dual coordinates and transforms back numerically.
    Both are normalized to 1 at the origin and compared on a test grid.  Each
    route's integrand must decay at the grid ends, or ValueError: the marginal
    kernel at y = -R and R over the test grid, and the restricted dual.
    """
    n = Q.dimension
    if not 1 <= k < n:
        raise ValueError(f"coordinate split k={k} out of range for dimension {n}")
    if n != 2 or k != 1:
        raise ValueError("probe implemented for the 2d -> 1d split")
    A = Q.matrix
    dual_form, amp = gaussian_fourier_closed_form(Q)
    schur = _derived_form(schur_complement(A, k), "its Schur complement").matrix
    test_grid = np.linspace(-test_halfwidth, test_halfwidth, test_points)
    # an even count leaves the origin off the grid: compare on the grid with
    # x = 0 joined, where both normalized routes and the closed form are 1
    origin = test_grid.searchsorted(0.0)
    xs = test_grid if 0.0 in test_grid else np.insert(test_grid, origin, 0.0)

    # route (i): quadrature marginal over the second coordinate, the form
    # a00 x^2 + (a01 + a10) x y + a11 y^2 on (test point, axis), built in one
    # buffer with the operations of that expression in its order; its peak
    # is 1 at the origin, and its end columns, y = -R and R, must have decayed
    kernel = _marginal_kernel(A, xs, q.axis())
    _check_decay(float(kernel[:, [0, -1]].max()))
    marginal = kernel @ q.weights()
    marginal = marginal / marginal[origin]

    # route (ii): restrict the dual Gaussian and transform back
    b11 = dual_form.matrix[0, 0]
    restricted = lambda p: amp * np.exp(-math.pi * b11 * p[:, 0] ** 2)
    with np.errstate(over="ignore"):  # an exponent past the float range is -inf
        _, udual = numeric_fourier(restricted, q, xi_points=xs)
    # the restricted dual is even, so the inverse transform equals the forward one
    udual = udual.real
    udual = udual / udual[origin]

    closed = np.exp(-math.pi * schur[0, 0] * xs**2)

    gap_routes = float(np.abs(marginal - udual).max())
    gap_i = float(np.abs(marginal - closed).max())
    gap_ii = float(np.abs(udual - closed).max())
    return CorestrictionProbeReport(
        tuple(map(tuple, schur.tolist())),
        gap_routes,
        gap_i,
        gap_ii,
        tuple(test_grid.tolist()),
        q.meta(),
    )


def _marginal_kernel(A: np.ndarray, xs: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """exp(-pi (a00 x^2 + (a01 + a10) x y + a11 y^2)) for x in xs (rows) and
    y on the axis (columns), in place; bitwise equal to that expression.  An
    exponent past the float range is -inf, where the kernel is 0 anyway; one
    whose terms overflow both ways is NaN, which the decay check rejects."""
    x, y = xs[:, None], axis[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.multiply((A[0, 1] + A[1, 0]) * x, y)
        out += A[0, 0] * x**2
        out += A[1, 1] * y**2
        out *= -math.pi
    return np.exp(out, out=out)


# -- the two-variable series whose line restriction diverges -------------------------


class SeriesProbeReport(NamedTuple):
    terms: int
    restricted_mass: float
    restricted_mass_closed: float
    total_mass: float
    total_mass_closed: float
    swap_symmetry_gap: float
    partial_sums_ppd: bool
    grid: dict

    def to_dict(self):
        return {**self._asdict(), "grid": dict(self.grid)}


def counterexample_probe(n_terms: int,
                         q: GridQuadrature = GridQuadrature()) -> SeriesProbeReport:
    """Partial sums of sum_n n^-2 exp(-pi (n^2 x^2 + y^2 / n^2)).

    The total mass stays below pi^2/6 while the mass of the restriction to
    the line x = 0 is the harmonic number H_n, so the restriction leaves L^1
    as n grows.  Masses are per-term 1-d quadratures on grids scaled to each
    term's width (exact substitution u = y/n), so the reported numbers are
    honest trapezoid sums.  Each term's transform swaps the coordinates with
    amplitude exactly 1, which is also spot-checked numerically.
    """
    if n_terms < 2:
        raise ValueError("need at least 2 terms")
    # transform symmetry: evaluate the partial sum and its transform at a few
    # swapped points; the closed-form transform of the partial sum is the
    # partial sum with (x, y) swapped.  The transform's per-term grids are
    # checked against the grid limit, and the ends of [-R, R] against the
    # decay threshold, before any quadrature runs.
    spots = np.array([[0.3, 0.1], [0.5, 0.7], [0.0, 1.1]])
    swapped = _series_transform(spots, n_terms, q)
    direct = _series_values(spots[:, [1, 0]], n_terms)
    swap_gap = float(np.abs(direct - swapped).max())

    axis = q.axis()
    w = q.weights()
    std = float(np.exp(-math.pi * axis**2) @ w)  # quadrature of exp(-pi u^2)

    restricted = 0.0
    total = 0.0
    for n in range(1, n_terms + 1):
        y_int = n * std  # integral of exp(-pi y^2 / n^2) via u = y/n
        x_int = std / n  # integral of exp(-pi n^2 x^2) via u = n x
        restricted += y_int / n**2
        total += x_int * y_int / n**2
    h_n = sum(1.0 / n for n in range(1, n_terms + 1))
    p_n = sum(1.0 / n**2 for n in range(1, n_terms + 1))

    return SeriesProbeReport(
        terms=n_terms,
        restricted_mass=restricted,
        restricted_mass_closed=h_n * std,
        total_mass=total,
        total_mass_closed=p_n * std * std,
        swap_symmetry_gap=swap_gap,
        # f at the swapped spots and its numeric transform at the spots
        partial_sums_ppd=bool(min(direct.min(), swapped.min()) >= 0),
        grid=q.meta(),
    )


def _series_values(points: np.ndarray, n_terms: int) -> np.ndarray:
    pts = np.atleast_2d(points)
    out = np.zeros(len(pts))
    for n in range(1, n_terms + 1):
        out += np.exp(
            -math.pi * (n**2 * pts[:, 0] ** 2 + pts[:, 1] ** 2 / n**2)
        ) / n**2
    return out


def _series_transform(spots: np.ndarray, n_terms: int,
                      q: GridQuadrature) -> np.ndarray:
    """Transform of the partial sum at each spot, as products of 1-d
    quadratures of exp(-pi a y^2) exp(-2 pi i y xi): a = n^2 on the first
    coordinate and 1/n^2 on the second.

    Substituting u = y sqrt(a) gives the standard Gaussian at frequency
    xi/sqrt(a); the point count is raised as needed to resolve it.  A count
    past MAX_GRID_POINTS, and a half-width R at which exp(-pi u^2) has not
    decayed, are rejected before any quadrature runs.  The quadratures that
    share a point count run as one folded trapezoid sum.
    """
    # |frequency| peaks on term 1's x factor and term n's y factor (each scale
    # below is monotone in n): the largest grid is checked before any per-term
    # array is built, and a square past the float range is an infinite frequency
    try:
        last = math.sqrt(1.0 / float(n_terms**2))
    except OverflowError:
        last = 0.0
    with np.errstate(over="ignore", divide="ignore"):  # inf is rejected below
        top = 4 * q.half_width * (np.abs(spots / [1.0, last]) + 4)
    if top.max() >= MAX_GRID_POINTS:  # int(need) + 1 points, rounded up to even
        raise ValueError(f"the series transform needs grids of more than "
                         f"{MAX_GRID_POINTS} points at half_width {q.half_width}")
    # after the limit: at a half-width past the limit u^2 may overflow
    _check_boundary_decay(lambda p: np.exp(-math.pi * p[:, 0] ** 2), q)
    squares = np.array([float(n**2) for n in range(1, n_terms + 1)])
    scale = np.array([math.sqrt(a) for a in [*squares, *(1.0 / squares)]])
    # row per spot: frequencies of the x factors of terms 1..n, then the y factors
    nu = (np.repeat(spots, n_terms, axis=1) / scale).ravel()
    need = 4 * q.half_width * (np.abs(nu) + 4)
    n_pts = np.maximum(q.points, need.astype(np.int64) + 1)
    n_pts += n_pts % 2
    quad = np.empty(len(nu), dtype=complex)
    for size in dict.fromkeys(n_pts.tolist()):  # np.unique would import numpy.ma
        rows = np.flatnonzero(n_pts == size)
        grid = GridQuadrature(q.half_width, size)
        u = grid.axis()
        quad[rows] = _folded_sum(np.exp(-math.pi * u**2) * grid.weights(), u, nu[rows])
    re = quad.real.reshape(len(spots), 2, n_terms) / scale.reshape(2, n_terms)
    im = quad.imag.reshape(len(spots), 2, n_terms) / scale.reshape(2, n_terms)
    # the real part of the product of the x and y factors of each term
    terms = (re[:, 0] * re[:, 1] - im[:, 0] * im[:, 1]) / squares
    return np.array([sum(row) for row in terms])


# -- goodness probe -------------------------------------------------------------------


class GaussianGoodnessReport(NamedTuple):
    strictly_positive: bool
    transform_strictly_positive: bool
    marginals_integrable: bool
    lattice_restriction_sum: float
    extremality_note: str

    @property
    def all_checks_pass(self) -> bool:
        return (
            self.strictly_positive
            and self.transform_strictly_positive
            and self.marginals_integrable
        )

    def to_dict(self):
        return {**self._asdict(), "all_checks_pass": self.all_checks_pass}


def lattice_sum(Q: QuadraticFormSPD) -> float:
    """sum over the integers z of exp(-pi a z^2) for a 1x1 form a, truncated
    once a shell {-r, r} past radius 1 adds less than 1e-16; radius 60 is the
    limit."""
    if Q.dimension != 1:
        raise ValueError(f"lattice sums take a 1x1 form, got dimension {Q.dimension}")
    with np.errstate(over="ignore"):  # a z^2 past the float range: the term is 0
        total = float(Q([[0.0]]).sum())
        for radius in range(1, 61):
            s = float(Q([[-radius], [radius]]).sum())
            total += s
            if radius > 1 and s < 1e-16:
                return total
    raise ArithmeticError("lattice sum did not converge within the radius bound")


def gaussian_goodness_probe(Q: QuadraticFormSPD) -> GaussianGoodnessReport:
    """Numeric goodness checks; extremality is quoted, not machine-checked."""
    dual_form, amp = gaussian_fourier_closed_form(Q)
    marginals_ok = True
    n = Q.dimension
    for k in range(1, n):
        try:
            QuadraticFormSPD(schur_complement(Q.matrix, k))
            QuadraticFormSPD(schur_complement(dual_form.matrix, k))
        except ValueError:
            marginals_ok = False
    return GaussianGoodnessReport(
        strictly_positive=bool(Q(np.zeros(n))[0] > 0),  # f > 0 iff f(0) > 0
        transform_strictly_positive=amp > 0,
        marginals_integrable=marginals_ok,
        lattice_restriction_sum=lattice_sum(QuadraticFormSPD(Q.matrix[:1, :1])),
        extremality_note=(
            "extremality of Gaussian rays is asserted by uncertainty-principle "
            "rigidity, not machine-checked"
        ),
    )
