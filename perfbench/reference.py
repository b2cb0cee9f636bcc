"""Posterior references computed apart from latgauss, and the KS test
against them.

The model draws z ~ N(0, I) and observes x = G(z) + beta * xi, so the
posterior density is proportional to exp(-|z|^2/2 - |G(z) - x|^2/(2 beta^2)).
Nothing here imports latgauss: the generator is evaluated from the weights
the benchmark wrote.

* tanh-residual, G(z)_i = z_i + alpha tanh(z_i): the posterior factorizes,
  and each marginal CDF comes from trapezoid quadrature on a fine grid.
* residual z + alpha A tanh(Bz + c): marginal CDFs come from self-normalized
  importance sampling with a Gaussian proposal at the posterior mode.

A sample passes when, in every coordinate, its Kolmogorov-Smirnov distance to
the reference CDF is at most epsilon/2 plus a Dvoretzky-Kiefer-Wolfowitz
allowance at confidence 1 - DKW_DELTA for its own size (and, for importance
sampling, the same allowance with the effective sample size in place of n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DKW_DELTA = 1e-4
QUADRATURE_POINTS = 400_001
IS_DRAWS = 200_000


def dkw_allowance(n: float, delta: float = DKW_DELTA) -> float:
    """sup |F_n - F| <= this with probability >= 1 - delta (DKW, Massart)."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


@dataclass
class Marginal:
    """A CDF tabulated at increasing points, plus its own error allowance."""

    points: np.ndarray
    cdf: np.ndarray
    allowance: float

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.interp(t, self.points, self.cdf, left=0.0, right=1.0)


def ks_distance(samples: np.ndarray, marginal: Marginal) -> float:
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(s)
    F = marginal(s)
    upper = np.arange(1, n + 1) / n - F
    lower = F - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def ks_check(samples: np.ndarray, marginals, epsilon: float) -> list:
    """One (coordinate, ks, limit) row per coordinate of an (n, d) sample."""
    samples = np.atleast_2d(samples)
    n = samples.shape[0]
    rows = []
    for j, marginal in enumerate(marginals):
        limit = epsilon / 2.0 + dkw_allowance(n) + marginal.allowance
        rows.append((j, ks_distance(samples[:, j], marginal), limit))
    return rows


# -- tanh-residual: quadrature ---------------------------------------------------


def tanh_residual_marginal(alpha: float, beta: float, x: float) -> Marginal:
    """CDF of the density proportional to
    exp(-z^2/2 - (z + alpha tanh z - x)^2 / (2 beta^2))."""
    z = np.linspace(-10.0, 10.0, QUADRATURE_POINTS)
    r = z + alpha * np.tanh(z) - x
    logp = -0.5 * z * z - 0.5 * r * r / beta**2
    p = np.exp(logp - logp.max())
    steps = 0.5 * (p[1:] + p[:-1]) * np.diff(z)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    cdf /= cdf[-1]
    return Marginal(points=z, cdf=cdf, allowance=1e-4)


# -- residual generator: importance sampling ------------------------------------


@dataclass
class ResidualGenerator:
    """G(z) = z + alpha * A tanh(B z + c), evaluated with plain numpy."""

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    alpha: float

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        return Z + self.alpha * np.tanh(Z @ self.B.T + self.c) @ self.A.T

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        s = 1.0 - np.tanh(self.B @ z + self.c) ** 2
        return np.eye(len(z)) + self.alpha * (self.A * s) @ self.B


def _posterior_mode(G: ResidualGenerator, beta: float, x: np.ndarray) -> np.ndarray:
    """Newton root of G(z) = x, then Newton on the negative log posterior."""
    z = x.copy()
    for _ in range(100):
        step = np.linalg.solve(G.jacobian(z), G(z[None, :])[0] - x)
        z = z - step
        if np.max(np.abs(step)) < 1e-14:
            break
    for _ in range(100):
        J = G.jacobian(z)
        r = G(z[None, :])[0] - x
        grad = z + J.T @ r / beta**2
        H = np.eye(len(z)) + J.T @ J / beta**2
        step = np.linalg.solve(H, grad)
        z = z - step
        if np.max(np.abs(step)) < 1e-14:
            break
    return z


def residual_marginals(G: ResidualGenerator, beta: float, x: np.ndarray, seed: int) -> list:
    """Weighted marginal CDFs from a Gaussian proposal N(mode, 1.3^2 H^-1),
    H the Gauss-Newton Hessian at the mode; the wider proposal keeps the
    importance weights bounded in the tails."""
    x = np.asarray(x, dtype=np.float64)
    d = len(x)
    mode = _posterior_mode(G, beta, x)
    J = G.jacobian(mode)
    cov = 1.3**2 * np.linalg.inv(np.eye(d) + J.T @ J / beta**2)
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng([seed, 17])
    E = rng.standard_normal((IS_DRAWS, d))
    Z = mode + E @ chol.T
    R = G(Z) - x
    log_target = -0.5 * np.sum(Z * Z, axis=1) - 0.5 * np.sum(R * R, axis=1) / beta**2
    log_proposal = -0.5 * np.sum(E * E, axis=1)
    log_w = log_target - log_proposal
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    ess = 1.0 / float(np.sum(w * w))
    allowance = dkw_allowance(ess)
    marginals = []
    for j in range(d):
        order = np.argsort(Z[:, j])
        cdf = np.cumsum(w[order])
        marginals.append(Marginal(points=Z[order, j], cdf=cdf / cdf[-1], allowance=allowance))
    return marginals
