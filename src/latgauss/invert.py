"""Gradient-descent inversion of a strongly invertible generator.

The objective is f(z) = ||G(z) - x||^2 / 2 (no prior term). Although f is not
convex, strong invertibility makes its only stationary point the inverse zhat,
and descent from the origin with step 1/Q converges once Q dominates the
curvature along the sweep:

    Q   = M^2 + 2 sqrt(d) M M2 (M/m + 1) ||x|| / m
    eta = 1/Q
    S   = ceil(Q ||x||^2 / (m^4 delta^2))     (target accuracy delta)

Every accepted step must satisfy the adjusted descent inequality
f(z') <= f(z) - ||grad f(z)||^2 / (2Q); a violation means Q was underestimated
(possible with sampled constants) and surfaces as DescentViolation, which
carries the step and both objectives; nothing retries it. The iterates stay
in the ball A = { ||z|| <= (M/m + 1) ||x|| / m } and the final error obeys
||z_S - zhat|| <= sqrt(2 Q f(z_0) / S) / m^2. Convergence is declared on the
observable criterion ||G(z_S) - x|| <= m delta.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DescentViolation, NumericalBlowup
from .potential import PosteriorProblem, region_radius, start_radius


GD_STEP_CAP_DEFAULT = 10**6  # descent steps a plan may take unless a caller sets the cap


@dataclass
class GdPlan:
    eta: float
    steps: int
    Q: float
    delta: float


@dataclass
class GdTrace:
    """Descent record: the objective and gradient norm at every step (what
    write_csv emits as descent_trace.csv) and the final iterate."""

    objectives: np.ndarray  # (steps_run + 1,)
    grad_norms: np.ndarray  # (steps_run + 1,)
    converged: bool
    steps_run: int
    final: np.ndarray

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "objective", "grad_norm"])
            for s, (obj, gn) in enumerate(zip(self.objectives, self.grad_norms)):
                writer.writerow([s, repr(float(obj)), repr(float(gn))])


def make_gd_plan(
    problem: PosteriorProblem, delta: float | None = None, max_steps: int = GD_STEP_CAP_DEFAULT
) -> GdPlan:
    """Plan from the curvature formula; delta defaults to a quarter region radius."""
    c = problem.constants
    d = problem.dim
    if delta is None:
        delta = start_radius(float(region_radius(problem)))
    if delta <= 0:
        raise ValueError("delta must be positive")
    xnorm = float(np.linalg.norm(problem.x))
    Q = c.M**2 + 2.0 * np.sqrt(d) * c.M * c.M2 * (c.M / c.m + 1.0) * xnorm / c.m
    steps = int(np.ceil(Q * xnorm**2 / (c.m**4 * delta**2))) if xnorm > 0 else 1
    return GdPlan(eta=1.0 / Q, steps=min(steps, max_steps), Q=float(Q), delta=float(delta))


def gd_invert(
    problem: PosteriorProblem,
    plan: GdPlan,
    early_stop: bool = True,
) -> GdTrace:
    """Run the descent. Raises DescentViolation if any step breaks the
    adjusted descent inequality, NumericalBlowup on non-finite state.

    With early_stop the loop ends once ||G(z) - x|| <= m * delta; switching it
    off runs exactly plan.steps steps, which is what the compiled encoder
    replays stage for stage.
    """
    g = problem.model.generator
    x = problem.x
    m = problem.constants.m
    z = np.zeros(problem.dim)

    objectives = np.empty(plan.steps + 1)
    grad_norms = np.empty(plan.steps + 1)

    r = g.eval_batch(z[None, :])[0] - x
    obj = 0.5 * float(r @ r)
    steps_run = 0
    for s in range(plan.steps):
        grad = g.vjp_batch(z[None, :], r[None, :])[1][0]
        gn = float(np.linalg.norm(grad))
        objectives[s] = obj
        grad_norms[s] = gn
        if early_stop and np.sqrt(2.0 * obj) <= m * plan.delta:
            break
        z_next = z - plan.eta * grad
        if not np.all(np.isfinite(z_next)):
            raise NumericalBlowup("non-finite descent iterate", step=s, state=z.tolist())
        r_next = g.eval_batch(z_next[None, :])[0] - x
        obj_next = 0.5 * float(r_next @ r_next)
        if obj_next > obj - gn**2 / (2.0 * plan.Q) + 1e-12 * max(1.0, obj):
            raise DescentViolation(
                "descent inequality violated; curvature constant too small",
                step=s,
                objective=obj,
                objective_next=obj_next,
                Q=plan.Q,
            )
        z, r, obj = z_next, r_next, obj_next
        steps_run = s + 1

    objectives[steps_run] = obj
    grad_norms[steps_run] = float(
        np.linalg.norm(g.vjp_batch(z[None, :], r[None, :])[1][0])
    )
    converged = bool(np.sqrt(2.0 * obj) <= m * plan.delta)
    return GdTrace(
        objectives=objectives[: steps_run + 1].copy(),
        grad_norms=grad_norms[: steps_run + 1].copy(),
        converged=converged,
        steps_run=steps_run,
        final=z,
    )
