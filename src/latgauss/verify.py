"""Ground-truth oracles and statistical distance checks.

For latent dimension up to MAX_GRID_DIM = 2 the posterior density
proportional to e^{-L(z)} is tabulated on the total variation bins
themselves: a box around the region's center is cut into MAX_TV_BINS bins
per axis, and a tensor Gauss-Legendre rule inside each bin gives the
oracle's bin masses to near float accuracy for a smooth L. The oracle is the
full posterior, the target of the chains that sample and the compiled
encoder run; their mass outside the region is the exit gate's subject.
Linear generators additionally admit an exact Gaussian posterior. Distances
are total variation over those bins; the binning keeps its own noise floor
(about 0.03 at 10^4 samples with 50 bins per axis), and every acceptance
threshold in the package carries that allowance explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SupportError
from .potential import PosteriorProblem, RegionD, potential_batch

MAX_TV_BINS = 50
MAX_GRID_DIM = 2  # largest dimension build_grid_oracle accepts
MAX_MOMENT_DIM = 4  # largest dimension gaussian_moment_test accepts


# -- grid oracle -----------------------------------------------------------------

_NODES_PER_BIN = 8  # Gauss-Legendre nodes per TV bin and axis


@dataclass
class GridOracle:
    """Posterior density at tensor Gauss-Legendre nodes, _NODES_PER_BIN per
    TV bin and axis, normalized so the weighted sum is 1.

    dimension 1: axes is (nodes,), weights (w,), density has shape (n,).
    dimension 2: axes is (nodes0, nodes1), weights (w0, w1), density has
    shape (n, n) indexed [i, j] = (axes[0][i], axes[1][j]).
    """

    dimension: int
    center: np.ndarray
    half_width: float
    axes: tuple
    weights: tuple
    density: np.ndarray

    def bin_edges(self, axis: int) -> np.ndarray:
        return _bin_edges(self.center[axis], self.half_width)

    def bin_mass(self) -> np.ndarray:
        """Oracle probability per TV bin, shape (MAX_TV_BINS,) * dimension."""
        mass = self.density * functools.reduce(np.multiply.outer, self.weights)
        mass = mass.reshape((MAX_TV_BINS, _NODES_PER_BIN) * self.dimension)
        return mass.sum(axis=tuple(range(1, 2 * self.dimension, 2)))

    def integral(self) -> float:
        return float(self.bin_mass().sum())


def _bin_edges(center: float, half_width: float) -> np.ndarray:
    return np.linspace(center - half_width, center + half_width, MAX_TV_BINS + 1)


def _bin_nodes(edges: np.ndarray) -> tuple:
    """(nodes, weights) of the Gauss-Legendre rule in every bin, bin by bin."""
    x, w = np.polynomial.legendre.leggauss(_NODES_PER_BIN)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def build_grid_oracle(problem: PosteriorProblem, region: RegionD) -> GridOracle:
    """Tabulate e^{-L} around the region's center on the TV bins of the box
    of half-width max(6 beta / m, 2 radius)."""
    if problem.dim > MAX_GRID_DIM:
        raise DimensionError(f"grid oracles support dimension <= {MAX_GRID_DIM}")
    center = np.asarray(region.center, dtype=np.float64)
    hw = max(6.0 * problem.beta / problem.constants.m, 2.0 * region.radius)
    axes, weights = zip(*(_bin_nodes(_bin_edges(c, hw)) for c in center))
    mesh = np.meshgrid(*axes, indexing="ij")
    logp = -potential_batch(problem, np.stack([m.ravel() for m in mesh], axis=1))
    logp -= logp.max()
    dens = np.exp(logp, out=logp).reshape(mesh[0].shape)
    oracle = GridOracle(
        dimension=problem.dim,
        center=center,
        half_width=hw,
        axes=axes,
        weights=weights,
        density=dens,
    )
    dens /= oracle.integral()  # at least one node's weight: the peak density is 1
    return oracle


# -- binned total variation ---------------------------------------------------------


def tv_distance(samples: np.ndarray, oracle: GridOracle) -> float:
    """Half L1 distance between binned samples and the oracle's bin masses.

    Sample mass falling outside the oracle box forms an extra bucket whose
    oracle mass is zero. The box reaches at least six likelihood widths
    (6 beta/m) from the region's center, so the tails it drops are small.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("tv_distance needs a nonempty sample set")
    if samples.shape[1] != oracle.dimension:
        raise DimensionError(
            f"samples have dimension {samples.shape[1]}, oracle {oracle.dimension}"
        )
    n = len(samples)
    edges = [oracle.bin_edges(a) for a in range(oracle.dimension)]
    hist, _ = np.histogramdd(samples, bins=edges)
    outside_frac = (n - hist.sum()) / n
    return float(0.5 * (np.abs(hist / n - oracle.bin_mass()).sum() + outside_frac))


# -- chi-squared initialization check -------------------------------------------------


def chi2_initialization(
    problem: PosteriorProblem,
    region: RegionD,
    ball_radius: float,
    grid_points: int = 20001,
) -> dict:
    """Chi-square gate for the uniform-ball start against the target:
    {log_sqrt_chi2, bound, pass}, passing when log sqrt chi2 <= bound.

    The start law P0 is Uniform(center +- ball_radius) around the region's
    center, as sampler.initialize_batch draws it with the plan's init_radius;
    the target is the restricted posterior on the region. Requires dimension
    1 (quadrature) and the start support nested inside the region. chi2 = 0
    reports -inf for the log. The bound is d log 4 + (sup_D L - inf_D L)/2
    with sup/inf taken on the grid.
    """
    if problem.dim != 1:
        raise DimensionError("chi2_initialization supports dimension 1 only")
    r = float(ball_radius)
    c = float(region.center[0])
    lo, hi = c - r, c + r
    if lo < c - region.radius or hi > c + region.radius:
        raise SupportError(
            "start ball escapes the region",
            ball=(lo, hi),
            region=(c - region.radius, c + region.radius),
        )

    grid = np.linspace(c - region.radius, c + region.radius, int(grid_points))
    L = potential_batch(problem, grid[:, None])
    logp = L.min() - L  # the log density up to a constant, at most 0 so exp cannot overflow
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

    bound = float(problem.dim * np.log(4.0) + 0.5 * float(L.max() - L.min()))
    return {"log_sqrt_chi2": log_sqrt_chi2, "bound": bound, "pass": bool(log_sqrt_chi2 <= bound)}


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
    if d > MAX_MOMENT_DIM:
        raise DimensionError(f"moment test supports dimension <= {MAX_MOMENT_DIM}")
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
