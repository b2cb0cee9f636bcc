"""Ground-truth oracles and statistical distance checks.

For latent dimension 1 or 2 the posterior density proportional to e^{-L(z)}
can be tabulated on a grid and normalized by quadrature, giving an oracle to
hold sampler output against. Linear generators additionally admit an exact
Gaussian posterior. Distances are total variation over histogram bins; the
binning keeps its own noise floor (about 0.03 at 10^4 samples with <= 50 bins
per axis), and every acceptance threshold in the package carries that
allowance explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtri

from .errors import DimensionError, SupportError
from .potential import PosteriorProblem, RegionD, potential_batch

MAX_TV_BINS = 50


# -- grid oracle -----------------------------------------------------------------


@dataclass
class GridOracle:
    """Tabulated posterior density, trapezoid-normalized to integrate to 1.

    dimension 1: axes is (grid,), density has shape (n,).
    dimension 2: axes is (grid0, grid1), density has shape (n, n) indexed
    [i, j] = (axes[0][i], axes[1][j]).
    """

    dimension: int
    center: np.ndarray
    half_width: float
    axes: tuple
    density: np.ndarray
    restricted: bool

    @property
    def spacing(self) -> float:
        g = self.axes[0]
        return float(g[1] - g[0])

    def integral(self) -> float:
        if self.dimension == 1:
            return float(np.trapezoid(self.density, self.axes[0]))
        # the inner rule runs per grid row, so blocks of rows give the same values
        inner = np.empty(len(self.axes[0]))
        for lo, hi in _row_blocks(len(self.axes[0]), len(self.axes[1])):
            inner[lo:hi] = np.trapezoid(self.density[lo:hi], self.axes[1], axis=1)
        return float(np.trapezoid(inner, self.axes[0]))

    def log_density(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.density)


_BLOCK_POINTS = 1 << 17  # about this many grid points per block of grid rows


def _row_blocks(n: int, row_points: int):
    """(lo, hi) ranges over n grid rows (first-axis values) of row_points
    points each, about _BLOCK_POINTS points per range, so full-grid work at
    d=2 keeps its temporaries small.

    Ranges start at multiples of 64 rows and the last one takes the
    remainder, one to two ranges' worth, so no range is a lone point.
    """
    rows = 64 * max(1, _BLOCK_POINTS // (64 * row_points))
    edges = [*range(0, max(n - rows, 0) + 1, rows), n]
    return zip(edges[:-1], edges[1:])


def _grid_log_density(problem: PosteriorProblem, axes: tuple) -> np.ndarray:
    """-L on the grid spanned by axes, flat in C order, in blocks of grid rows
    (_row_blocks).

    As no block is a lone point, BLAS runs the same kernels on every row as
    one call on the whole grid would, and the values equal that call's bit
    for bit. (A d=1 grid of 2^18 or more points under multithreaded BLAS is
    the exception: the threads split a matrix-vector product at other rows,
    which can move a few values by an ulp.)
    """
    n = len(axes[0])
    row_points = n ** (len(axes) - 1)
    logp = np.empty(n * row_points)
    for lo, hi in _row_blocks(n, row_points):
        mesh = np.meshgrid(axes[0][lo:hi], *axes[1:], indexing="ij")
        Z = np.stack([m.ravel() for m in mesh], axis=1)
        logp[lo * row_points : hi * row_points] = -potential_batch(problem, Z)
    return logp


def build_grid_oracle(
    problem: PosteriorProblem,
    region: RegionD,
    points_per_axis: int = 2001,
    restricted: bool = False,
) -> GridOracle:
    """Tabulate e^{-L} around the region's center; half-width
    max(6 beta / m, 2 radius).

    Restricted mode zeroes the density outside the region ball and
    renormalizes, matching the reflected/projected chain's stationary target.
    """
    if problem.dim > 2:
        raise DimensionError("grid oracles support dimension 1 and 2 only")
    radius = region.radius
    center = np.asarray(region.center, dtype=np.float64)
    hw = max(6.0 * problem.beta / problem.constants.m, 2.0 * radius)
    n = int(points_per_axis)
    if n < 3:
        raise ValueError("points_per_axis must be at least 3")

    axes = tuple(center[k] + np.linspace(-hw, hw, n) for k in range(problem.dim))
    logp = _grid_log_density(problem, axes)
    logp -= logp.max()
    dens = np.exp(logp, out=logp)
    if problem.dim == 2:
        dens = dens.reshape(n, n)

    if restricted:
        if problem.dim == 1:
            inside = np.abs(axes[0] - center[0]) <= radius
            dens = np.where(inside, dens, 0.0)
        else:
            dz0 = axes[0][:, None] - center[0]
            dz1 = axes[1][None, :] - center[1]
            dens = np.where(dz0**2 + dz1**2 <= radius**2, dens, 0.0)

    oracle = GridOracle(
        dimension=problem.dim,
        center=center,
        half_width=hw,
        axes=axes,
        density=dens,
        restricted=restricted,
    )
    total = oracle.integral()
    if total <= 0.0:
        raise SupportError("oracle density vanished everywhere on the grid")
    dens /= total
    return oracle


# -- binned total variation ---------------------------------------------------------


def _bin_edges(oracle: GridOracle, axis: int, bins: int) -> np.ndarray:
    lo = oracle.center[axis] - oracle.half_width
    hi = oracle.center[axis] + oracle.half_width
    return np.linspace(lo, hi, bins + 1)


def _oracle_bin_mass(oracle: GridOracle, bins: int) -> np.ndarray:
    """Oracle probability per histogram bin (trapezoid weights per grid node)."""
    g = oracle.axes[0]
    w = np.full(len(g), oracle.spacing)
    w[0] = w[-1] = oracle.spacing / 2.0
    if oracle.dimension == 1:
        node_mass = oracle.density * w
        idx = np.clip(np.searchsorted(_bin_edges(oracle, 0, bins), g, side="right") - 1, 0, bins - 1)
        out = np.zeros(bins)
        np.add.at(out, idx, node_mass)
        return out
    e0 = _bin_edges(oracle, 0, bins)
    e1 = _bin_edges(oracle, 1, bins)
    i0 = np.clip(np.searchsorted(e0, oracle.axes[0], side="right") - 1, 0, bins - 1)
    i1 = np.clip(np.searchsorted(e1, oracle.axes[1], side="right") - 1, 0, bins - 1)
    out = np.zeros((bins, bins))
    # np.add.at accumulates in C order, so blocks of grid rows taken in order
    # give every bin the same additions in the same sequence
    for lo, hi in _row_blocks(len(g), len(oracle.axes[1])):
        node_mass = oracle.density[lo:hi] * np.outer(w[lo:hi], w)
        np.add.at(out, (i0[lo:hi, None], i1[None, :]), node_mass)
    return out


def tv_distance(samples: np.ndarray, oracle: GridOracle, bins: int | None = None) -> float:
    """Half L1 distance between binned samples and binned oracle mass.

    Sample mass falling outside the oracle grid forms an extra bucket whose
    oracle mass is zero (the tails the grid drops carry < 1e-6 by
    construction).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("tv_distance needs a nonempty sample set")
    if samples.shape[1] != oracle.dimension:
        raise DimensionError(
            f"samples have dimension {samples.shape[1]}, oracle {oracle.dimension}"
        )
    if bins is None:
        bins = MAX_TV_BINS
    bins = min(bins, MAX_TV_BINS)
    n = len(samples)

    edges = [_bin_edges(oracle, a, bins) for a in range(oracle.dimension)]
    hist, _ = np.histogramdd(samples, bins=edges)
    inside = hist.sum()
    outside_frac = (n - inside) / n
    emp = hist / n
    orc = _oracle_bin_mass(oracle, bins)
    return float(0.5 * (np.abs(emp - orc).sum() + outside_frac))


# -- drawing from a 1-d oracle --------------------------------------------------------


def sample_from_oracle_1d(
    oracle: GridOracle, stream, stage: int, draws: np.ndarray
) -> np.ndarray:
    """Inverse-CDF draws from a 1-d grid oracle, shape (len(draws), 1)."""
    if oracle.dimension != 1:
        raise DimensionError("inverse-CDF sampling implemented for dimension 1 only")
    g = oracle.axes[0]
    node = oracle.density.copy()
    cdf = np.concatenate([[0.0], np.cumsum((node[1:] + node[:-1]) / 2.0 * np.diff(g))])
    cdf /= cdf[-1]
    draws = np.asarray(draws, dtype=np.uint64)
    u = stream.uniform_matrix(stage, draws, 1)[:, 0]
    return np.interp(u, cdf, g)[:, None]


# -- chi-squared initialization check -------------------------------------------------


def chi2_initialization(
    problem: PosteriorProblem,
    region: RegionD,
    z_init: np.ndarray,
    grid_points: int = 20001,
    ball_radius: float | None = None,
):
    """(log sqrt chi2, bound) for the uniform-ball start against the target.

    The start law P0 is Uniform(z_init +- ball_radius), default radius/4; the
    target is the restricted posterior on the region. Requires dimension 1
    (quadrature) and the start support nested inside the region. chi2 = 0
    reports -inf for the log. The bound is d log 4 + (sup_D L - inf_D L)/2
    with sup/inf taken on the grid.
    """
    if problem.dim != 1:
        raise DimensionError("chi2_initialization supports dimension 1 only")
    z_init = np.atleast_1d(np.asarray(z_init, dtype=np.float64))
    r = region.radius / 4.0 if ball_radius is None else float(ball_radius)
    c = float(region.center[0])
    lo, hi = z_init[0] - r, z_init[0] + r
    if lo < c - region.radius or hi > c + region.radius:
        raise SupportError(
            "start ball escapes the region",
            ball=(lo, hi),
            region=(c - region.radius, c + region.radius),
        )

    grid = np.linspace(c - region.radius, c + region.radius, int(grid_points))
    L = potential_batch(problem, grid[:, None])
    logp = -L - logsumexp(-L)  # up to the quadrature weight, folded in below
    dz = grid[1] - grid[0]
    # normalize the restricted target by trapezoid rule
    w = np.full(len(grid), dz)
    w[0] = w[-1] = dz / 2.0
    dens = np.exp(logp)
    dens /= float(np.sum(dens * w))

    p0 = np.where((grid >= lo) & (grid <= hi), 1.0 / (2.0 * r), 0.0)
    integrand = np.where(p0 > 0.0, p0**2 / np.maximum(dens, 1e-300), 0.0)
    chi2 = float(np.sum(integrand * w)) - 1.0
    log_sqrt_chi2 = -np.inf if chi2 <= 0.0 else 0.5 * float(np.log(chi2))

    bound = problem.dim * np.log(4.0) + 0.5 * float(L.max() - L.min())
    return log_sqrt_chi2, float(bound)


# -- Gaussian oracles and moment tests -------------------------------------------------


def linear_posterior(A: np.ndarray, b: np.ndarray, beta: float, x: np.ndarray):
    """(mean, cov) of the posterior for the linear generator z -> Az + b."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    d = A.shape[1]
    precision = np.eye(d) + A.T @ A / beta**2
    cov = np.linalg.inv(precision)
    mean = cov @ (A.T @ (np.asarray(x) - np.asarray(b))) / beta**2
    return mean, cov


def gaussian_moment_test(samples: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> dict:
    """First/second moment agreement with a reference Gaussian.

    Pass iff every coordinate mean lies within 4 sigma / sqrt(n) and the
    sample covariance is within 10% relative Frobenius distance of cov.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, d = samples.shape
    if d > 4:
        raise DimensionError("moment test supports dimension <= 4")
    if n < 100:
        raise ValueError("moment test needs at least 100 samples")
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))

    sm = samples.mean(axis=0)
    sc = np.cov(samples.T, ddof=1).reshape(d, d)
    sigma = np.sqrt(np.diag(cov))
    mean_err = np.abs(sm - mean)
    mean_tol = 4.0 * sigma / np.sqrt(n)
    cov_rel = float(np.linalg.norm(sc - cov) / np.linalg.norm(cov))
    ok = bool(np.all(mean_err <= mean_tol) and cov_rel <= 0.10)
    return {
        "pass": ok,
        "n": int(n),
        "mean_error": mean_err.tolist(),
        "mean_tolerance": mean_tol.tolist(),
        "cov_relative_error": cov_rel,
    }
