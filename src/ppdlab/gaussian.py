"""Desk-scale numeric probes for Gaussians exp(-pi x^T A x) on R^n.

The exp(-pi . ) convention makes the identity form self-dual and keeps every
transform free of stray 2*pi factors: the transform of exp(-pi x^T A x) under
exp(-2*pi*i x.xi) is det(A)^(-1/2) exp(-pi xi^T A^(-1) xi).

Quadrature is plain trapezoid on [-R, R] grids; for rapidly decaying smooth
integrands this converges superexponentially, so the default grid (R=8,
N=512) sits far below the 1e-8 verification tolerances.  Transforms at the
default frequencies run as one FFT in O(N log N); explicit frequencies take
the dense trapezoid sum, one complex exponential per (xi, x) pair.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

SYMMETRY_TOL = 1e-14
BOUNDARY_DECAY = 1e-14


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
        n = A.shape[0]
        for k in range(1, n + 1):
            if np.linalg.det(A[:k, :k]) <= 0:
                raise ValueError(
                    f"leading principal minor {k} is not positive; not SPD"
                )
        self.matrix = A
        self.dimension = n

    def __call__(self, points):
        """exp(-pi x^T A x) for points of shape (..., n)."""
        x = np.atleast_2d(np.asarray(points, dtype=float))
        q = np.einsum("...i,ij,...j->...", x, self.matrix, x)
        return np.exp(-math.pi * q)

    def __repr__(self):
        return f"QuadraticFormSPD({self.matrix.tolist()})"


@dataclass(frozen=True)
class GridQuadrature:
    """Trapezoid rule on [-R, R] with N subintervals per axis."""

    half_width: float = 8.0
    points: int = 512

    def __post_init__(self):
        if not (self.half_width > 0 and math.isfinite(2 * self.half_width)):
            raise ValueError("half_width must be positive with a finite span "
                             f"2*half_width, got {self.half_width}")
        if self.points < 16 or self.points % 2:
            raise ValueError("points must be an even integer >= 16")

    def axis(self):
        return np.linspace(-self.half_width, self.half_width, self.points + 1)

    def weights(self):
        h = 2 * self.half_width / self.points
        w = np.full(self.points + 1, h)
        w[0] = w[-1] = h / 2
        return w

    def meta(self):
        return {"half_width": self.half_width, "points": self.points}


def gaussian_fourier_closed_form(Q: QuadraticFormSPD):
    """Dual form A^{-1} and amplitude det(A)^{-1/2}."""
    A = Q.matrix
    inv = np.linalg.inv(A)
    inv = (inv + inv.T) / 2
    amplitude = 1.0 / math.sqrt(np.linalg.det(A))
    return QuadraticFormSPD(inv), amplitude


def _check_boundary_decay(f, q: GridQuadrature) -> float:
    """Largest |f| at the grid ends -R and R, relative to |f(0)|."""
    R = q.half_width
    peak = float(np.abs(f(np.zeros((1, 1)))).max()) or 1.0
    return float(np.abs(f(np.array([[-R], [R]]))).max()) / peak


def numeric_fourier(f, q: GridQuadrature, dim: int = 1, xi_points=None,
                    enforce_decay: bool = True):
    """Trapezoid-rule transform f_hat(xi) = integral f(x) exp(-2*pi*i x.xi) dx
    on the real line (dim 1 only).

    Returns (xi_points, values).  Rejects grids whose boundary truncates the
    integrand above the 1e-14 decay threshold unless enforce_decay is off.
    Explicit xi_points take the dense trapezoid sum.  At the default
    xi_k = (k - N/2) / (2R), x_j * xi_k = (j - N/2)(k - N/2) / N, so the sum
    is one length-N FFT: both ends carry the phase (-1)^(k - N/2), so w_N f(R)
    folds into sample 0; rolling by N/2 puts x = 0 at index 0, and output k
    is read at index (k - N/2) mod N.
    """
    if dim != 1:
        raise ValueError("numeric transforms are implemented in dimension 1 only")
    decay = _check_boundary_decay(f, q)
    if enforce_decay and decay > BOUNDARY_DECAY:
        raise ValueError(
            f"insufficient decay at the grid boundary: {decay:.3e} > {BOUNDARY_DECAY}"
        )
    N, axis = q.points, q.axis()
    vals = f(axis[:, None]) * q.weights()
    if xi_points is None:
        xi = np.linspace(-N / (4 * q.half_width), N / (4 * q.half_width), N + 1)
        vals[0] += vals[N]
        spectrum = np.fft.fft(np.roll(vals[:N], N // 2))
        return xi, spectrum[(np.arange(N + 1) - N // 2) % N]
    xi = np.asarray(xi_points, dtype=float).reshape(-1)
    kernel = np.exp(-2j * math.pi * np.outer(xi, axis))
    return xi, kernel @ vals


def gaussian_selfdual_check(q: GridQuadrature = GridQuadrature()):
    """Max deviation of the numeric transform of exp(-pi x^2) from itself."""
    Q = QuadraticFormSPD([[1.0]])
    xi, vals = numeric_fourier(lambda p: Q(p), q, dim=1)
    closed = np.exp(-math.pi * xi**2)
    return float(np.abs(vals - closed).max())


# -- corestriction (marginal) identity ---------------------------------------------


@dataclass(frozen=True)
class CorestrictionProbeReport:
    schur_matrix: tuple
    max_gap_routes: float
    max_gap_marginal_vs_closed: float
    max_gap_dual_route_vs_closed: float
    test_points: tuple
    grid: dict

    def to_dict(self):
        out = asdict(self)
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
    Both are normalized to 1 at the origin and compared on a test grid.
    """
    n = Q.dimension
    if not 1 <= k < n:
        raise ValueError(f"coordinate split k={k} out of range for dimension {n}")
    if n != 2 or k != 1:
        raise ValueError("probe implemented for the 2d -> 1d split")
    A = Q.matrix
    test_grid = np.linspace(-test_halfwidth, test_halfwidth, test_points)
    # an even count leaves the origin off the grid: compare on the grid with
    # x = 0 joined, where both normalized routes and the closed form are 1
    origin = test_grid.searchsorted(0.0)
    xs = test_grid if 0.0 in test_grid else np.insert(test_grid, origin, 0.0)

    # route (i): quadrature marginal over the second coordinate
    axis = q.axis()
    w = q.weights()
    X, Y = np.meshgrid(xs, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    fv = Q(pts).reshape(len(xs), len(axis))
    marginal = fv @ w
    marginal = marginal / marginal[origin]

    # route (ii): restrict the dual Gaussian and transform back
    dual_form, amp = gaussian_fourier_closed_form(Q)
    B11 = dual_form.matrix[:k, :k]
    restricted = lambda p: amp * np.exp(
        -math.pi * np.einsum("...i,ij,...j->...", np.atleast_2d(p), B11,
                             np.atleast_2d(p))
    )
    _, udual = numeric_fourier(restricted, q, dim=1, xi_points=xs)
    # the restricted dual is even, so the inverse transform equals the forward one
    udual = udual.real
    udual = udual / udual[origin]

    schur = schur_complement(A, k)
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


# -- the two-variable series whose line restriction diverges -------------------------


@dataclass(frozen=True)
class SeriesProbeReport:
    terms: int
    restricted_mass: float
    restricted_mass_closed: float
    total_mass: float
    total_mass_closed: float
    swap_symmetry_gap: float
    partial_sums_ppd: bool
    grid: dict

    def to_dict(self):
        return asdict(self)


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

    # transform symmetry: evaluate the partial sum and its transform at a few
    # swapped points; the closed-form transform of the partial sum is the
    # partial sum with (x, y) swapped
    spots = np.array([[0.3, 0.1], [0.5, 0.7], [0.0, 1.1]])
    direct = _series_values(spots[:, [1, 0]], n_terms)
    swapped = np.array(
        [_series_transform_value(xy, n_terms, q) for xy in spots]
    )
    swap_gap = float(np.abs(direct - swapped).max())

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


def _gauss1d_transform(a: float, xi: float, q: GridQuadrature) -> complex:
    """Quadrature of exp(-pi a y^2) exp(-2 pi i y xi) dy, width-matched grid.

    Substituting u = y sqrt(a) gives the standard Gaussian at frequency
    xi/sqrt(a); the point count is raised as needed to resolve it.
    """
    s = math.sqrt(a)
    nu = abs(xi) / s
    n_pts = max(q.points, int(4 * q.half_width * (nu + 4)) + 1)
    if n_pts % 2:
        n_pts += 1
    grid = GridQuadrature(q.half_width, n_pts)
    u = grid.axis()
    w = grid.weights()
    vals = np.exp(-math.pi * u**2) * np.exp(-2j * math.pi * u * (xi / s))
    return complex(vals @ w) / s


def _series_transform_value(xi, n_terms: int, q: GridQuadrature) -> float:
    """Transform of the partial sum at one point; 1-d quadratures per factor."""
    total = 0.0
    for n in range(1, n_terms + 1):
        ix = _gauss1d_transform(float(n**2), float(xi[0]), q)
        iy = _gauss1d_transform(1.0 / n**2, float(xi[1]), q)
        total += (ix * iy).real / n**2
    return total


# -- goodness probe -------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianGoodnessReport:
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
        return {**asdict(self), "all_checks_pass": self.all_checks_pass}


def lattice_sum(Q: QuadraticFormSPD) -> float:
    """sum over integer vectors of exp(-pi z^T A z), truncated once a shell past
    radius 1 adds less than 1e-16; radius 60 is the limit."""
    n = Q.dimension
    total = 0.0
    for radius in range(61):
        shell = _shell_points(n, radius)
        vals = Q(shell)
        s = float(np.sum(vals))
        total += s
        if radius > 1 and s < 1e-16:
            return total
    raise ArithmeticError("lattice sum did not converge within the radius bound")


def _shell_points(n: int, radius: int) -> np.ndarray:
    if radius == 0:
        return np.zeros((1, n))
    rng = range(-radius, radius + 1)
    pts = [
        p
        for p in np.stack(
            np.meshgrid(*([list(rng)] * n), indexing="ij"), axis=-1
        ).reshape(-1, n)
        if np.abs(p).max() == radius
    ]
    return np.array(pts)


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
