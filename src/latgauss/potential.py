"""Posterior potential of a latent Gaussian model and its local geometry.

The model draws z ~ N(0, I_d) and observes x = G(z) + beta * xi with
xi ~ N(0, I_d); a PosteriorProblem holds (G, beta, x) together with the
constants of G and the mass tolerance eps. For observation x the latent
posterior is p(z | x) proportional to exp(-L(z)) with

    L(z) = (||z||^2 + ||G(z) - x||^2 / beta^2) / 2.

When G is strongly invertible (m ||z1-z2|| <= ||G(z1)-G(z2)|| <= M ||z1-z2||)
the potential has a unique stationary point zhat, the inverse of G at x, and
near zhat it is strongly convex. The effective region is the ball D around
zhat of radius

    rad = (4 beta / m) * sqrt(q * log(4 q / eps)),   q = 2 d + ||x||^2 / m^2,

which carries all but an eps/4 fraction of the posterior mass once beta is
below the small-noise threshold beta0 computed here. Everything in this module
is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InitializationError, InvertibilityError
from .nets import MapConstants, Network, _jacobian_at, _jacobian_differences


def check_model(generator: Network, beta: float) -> None:
    """Refuse a model the analysis does not cover: beta must be positive and
    G a smooth map from R^d to R^d."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if generator.input_dim != generator.output_dim:
        raise DimensionError(
            f"generator must map d to d, got {generator.input_dim} -> {generator.output_dim}"
        )
    if not generator.smooth:
        raise ValueError("generator must use smooth activations only")


@dataclass
class PosteriorProblem:
    """One inference instance: generator G, noise scale beta, observation x,
    constants of G and mass tolerance."""

    generator: Network
    beta: float
    x: np.ndarray
    constants: MapConstants
    epsilon: float = 0.1

    def __post_init__(self):
        check_model(self.generator, self.beta)
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.shape != (self.dim,):
            raise DimensionError(f"x must have shape ({self.dim},), got {self.x.shape}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.constants.m <= 0.0:
            raise InvertibilityError(
                "strong invertibility requires m > 0", m=self.constants.m
            )

    @property
    def dim(self) -> int:
        return self.generator.input_dim


@dataclass
class RegionD:
    """Ball around the inverse that traps the chain with mass 1 - eps/4."""

    center: np.ndarray
    radius: float
    beta0: float
    admissible: bool  # beta <= beta0
    radius_cap: float  # smallness cap the radius should satisfy
    radius_within_cap: bool


def potential_batch(problem: PosteriorProblem, Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    R = problem.generator.eval_batch(Z) - problem.x
    return 0.5 * (np.sum(Z * Z, axis=1) + np.sum(R * R, axis=1) / problem.beta**2)


def grad_potential_batch(problem: PosteriorProblem, Z: np.ndarray) -> np.ndarray:
    """grad L(z) = z + J_G(z)^T (G(z) - x) / beta^2, batched via one backward pass."""
    Z = np.asarray(Z, dtype=np.float64)
    _, pullback = problem.generator.vjp_batch(Z, problem.x)
    return Z + pullback / problem.beta**2


def hess_potential(problem: PosteriorProblem, z: np.ndarray) -> np.ndarray:
    """Hessian I + (J^T J + sum_i (G_i - x_i) Hess G_i) / beta^2.

    Second generator derivatives are nets._jacobian_differences, the central
    differences of the exact Jacobian behind second_derivative_tensor; the
    result is symmetrized.
    """
    g = problem.generator
    z = np.asarray(z, dtype=np.float64)
    J = _jacobian_at(g, z)
    r = g.eval_batch(z[None, :])[0] - problem.x
    H = J.T @ J
    for k, dJ in enumerate(_jacobian_differences(g, z)):
        # dJ[i, j] ~= d^2 G_i / dz_j dz_k contributes r_i dJ[i, j] to H[j, k]
        H[:, k] += r @ dJ
    H = H / problem.beta**2 + np.eye(problem.dim)
    return 0.5 * (H + H.T)


# -- effective region ------------------------------------------------------------


def _mass_term(problem: PosteriorProblem) -> tuple[float, float]:
    q = 2.0 * problem.dim + (problem.x @ problem.x) / problem.constants.m**2
    return q, np.log(4.0 * q / problem.epsilon)


def region_radius(problem: PosteriorProblem) -> float:
    """Radius of D; independent of the (possibly not yet computed) center."""
    q, logq = _mass_term(problem)
    return (4.0 * problem.beta / problem.constants.m) * np.sqrt(q * logq)


def start_radius(radius: float) -> float:
    """rad/4 for a region of radius rad: the radius of the chain-start ball,
    the descent's default accuracy, and the distance to the inverse that
    check_inverse's residual bound m * rad/4 certifies."""
    return radius / 4.0


def beta0_threshold(problem: PosteriorProblem) -> float:
    """Largest observation-noise scale for which the region analysis applies."""
    c = problem.constants
    d = problem.dim
    q, logq = _mass_term(problem)
    term1 = c.m**3 / (6.0 * c.M * c.M2) if c.M2 > 0 else np.inf
    term2 = d**0.75 * c.m**2 / np.sqrt(2.0 * c.M * c.M3) if c.M3 > 0 else np.inf
    return (4.0 / (d * np.sqrt(q * logq))) * min(term1, term2)


def region(problem: PosteriorProblem, center: np.ndarray) -> RegionD:
    """Effective region around center, the computed inverse."""
    c = problem.constants
    d = problem.dim
    radius = float(region_radius(problem))
    beta0 = float(beta0_threshold(problem))
    cap1 = c.m**2 / (6.0 * d * c.M * c.M2) if c.M2 > 0 else np.inf
    cap2 = c.m / np.sqrt(2.0 * np.sqrt(d) * c.M * c.M3) if c.M3 > 0 else np.inf
    cap = float(min(cap1, cap2))
    return RegionD(
        center=np.asarray(center, dtype=np.float64),
        radius=radius,
        beta0=beta0,
        admissible=bool(problem.beta <= beta0),
        radius_cap=cap,
        radius_within_cap=bool(radius <= cap),
    )


def check_inverse(problem: PosteriorProblem, zhat: np.ndarray, validate: bool = True) -> dict:
    """Check a computed inverse's contracts and report them.

    Checks (when validate): residual ||G(zhat) - x|| <= m * rad/4 (the chain
    initialization precondition) and ||zhat|| <= ||x||/m + tolerance.
    """
    zhat = np.asarray(zhat, dtype=np.float64)
    if zhat.shape != (problem.dim,):
        raise DimensionError(f"zhat must have shape ({problem.dim},)")
    residual = float(np.linalg.norm(problem.generator.eval_batch(zhat[None, :])[0] - problem.x))
    m = problem.constants.m
    allowed = m * start_radius(float(region_radius(problem)))
    norm_bound = float(np.linalg.norm(problem.x)) / m
    if validate:
        if residual > allowed * (1.0 + 1e-9):
            raise InitializationError(
                "inverse residual exceeds m * rad/4; refine the inversion",
                residual=residual,
                allowed=allowed,
            )
    return {
        "residual": residual,
        "allowed_residual": allowed,
        "norm": float(np.linalg.norm(zhat)),
        "norm_bound": norm_bound,
        "norm_bound_ok": bool(np.linalg.norm(zhat) <= norm_bound * (1.0 + 1e-9)),
    }


def refine_inverse(problem: PosteriorProblem, z0: np.ndarray) -> np.ndarray:
    """Polish an approximate inverse to near machine precision: Newton steps
    until the residual is at most 1e-13, and least squares when 60 steps or
    a singular Jacobian stop them short.

    Diagnostic helper: the sampling pipeline itself only needs the gradient
    descent output, but local statements about the exact inverse (Taylor
    remainder, Hessian at the inverse) are only testable against a polished
    point.
    """
    g = problem.generator
    z = np.asarray(z0, dtype=np.float64).copy()
    for _ in range(60):
        r = g.eval_batch(z[None, :])[0] - problem.x
        if np.linalg.norm(r) <= 1e-13:
            return z
        J = _jacobian_at(g, z)
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            break
        z = z - step
    from scipy.optimize import least_squares

    out = least_squares(
        lambda v: g.eval_batch(v[None, :])[0] - problem.x,
        z,
        jac=lambda v: _jacobian_at(g, v),
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
    )
    return out.x


# -- local expansion -------------------------------------------------------------


def taylor_remainder_check(
    problem: PosteriorProblem, zhat: np.ndarray, z: np.ndarray
) -> tuple[float, float]:
    """(measured, bound) for the first-order expansion of grad L around zhat.

    measured = ||grad L(z) - zhat - Hess L(zhat) (z - zhat)|| using the exact
    stationarity identities grad L(zhat) = zhat and
    Hess L(zhat) = I + J(zhat)^T J(zhat) / beta^2; the bound is

        (sqrt(d) M / (2 beta^2)) * (3 sqrt(d) M2 + M3 ||z - zhat||) * ||z - zhat||^2.
    """
    c = problem.constants
    g = problem.generator
    z = np.asarray(z, dtype=np.float64)
    zhat = np.asarray(zhat, dtype=np.float64)
    d = problem.dim
    delta = z - zhat
    J = _jacobian_at(g, zhat)
    hess_at_inverse = np.eye(d) + (J.T @ J) / problem.beta**2
    grad = grad_potential_batch(problem, z[None, :])[0]
    measured = float(np.linalg.norm(grad - zhat - hess_at_inverse @ delta))
    dist = float(np.linalg.norm(delta))
    bound = (
        np.sqrt(d)
        * c.M
        / (2.0 * problem.beta**2)
        * (3.0 * np.sqrt(d) * c.M2 + c.M3 * dist)
        * dist**2
    )
    return measured, float(bound)


# -- diagnostics -----------------------------------------------------------------


def diagnostics_report(
    problem: PosteriorProblem, zhat: np.ndarray, points: int = 100, seed: int = 0
) -> dict:
    """JSON-ready report: region numbers, Hessian eigenvalue range, worst
    Taylor remainder ratio, all over `points` draws from the region around
    zhat, which should be an exact stationary point (refine_inverse). It
    passes when the region is admissible, the Hessian's smallest eigenvalue
    is at least 1 and the Taylor remainder within its bound, up to rounding."""
    from .rng import NoiseStream, ball_points

    reg = region(problem, zhat)
    stream = NoiseStream(seed)
    offsets = ball_points(stream, 0, np.arange(points, dtype=np.uint64), problem.dim, reg.radius)
    zs = reg.center + offsets
    min_eig = np.inf
    max_eig = -np.inf
    worst_ratio = 0.0
    for z in zs:
        eigs = np.linalg.eigvalsh(hess_potential(problem, z))
        min_eig = min(min_eig, float(eigs[0]))
        max_eig = max(max_eig, float(eigs[-1]))
        measured, bound = taylor_remainder_check(problem, reg.center, z)
        if bound > 0:
            worst_ratio = max(worst_ratio, measured / bound)
    return {
        "dim": problem.dim,
        "beta": problem.beta,
        "epsilon": problem.epsilon,
        "constants": problem.constants.as_dict(),
        "region_radius": reg.radius,
        "beta0": None if np.isinf(reg.beta0) else reg.beta0,
        "admissible": reg.admissible,
        "radius_cap": None if np.isinf(reg.radius_cap) else reg.radius_cap,
        "radius_within_cap": reg.radius_within_cap,
        "hessian_min_eigenvalue": min_eig,
        "hessian_max_eigenvalue": max_eig,
        "taylor_worst_ratio": worst_ratio,
        "points": points,
        "pass": bool(reg.admissible and min_eig >= 1.0 - 1e-8 and worst_ratio <= 1.0 + 1e-9),
    }
