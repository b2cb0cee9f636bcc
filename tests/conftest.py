import numpy as np
from hypothesis import strategies as st

from latgauss.models import LatentGaussian
from latgauss.nets import Layer, MapConstants, Network, identity_net, scale_net, tanh_residual_net
from latgauss.potential import PosteriorProblem, grad_potential_batch


def tanh_constants(alpha=0.5):
    # z + a tanh(z) per coordinate: G' lies between 1 and 1 + a, so m = 1 for
    # a > 0 and 1 - |a| for a < 0; |G''| <= |a| 4/(3 sqrt 3); |G'''| <= 2|a|
    # (attained at 0). 0.77 rounds the G'' bound up.
    a = abs(alpha)
    return MapConstants(m=min(1.0, 1.0 + alpha), M=1.0 + a, M2=0.77 * a, M3=2.0 * a)


def residual_constants(alpha):
    # z + a A tanh(Bz + c) with ||A||_2 = ||B||_2 = 1 (random_residual_tanh_net):
    # Jacobian singular values in [1 - |a|, 1 + |a|], and the derivative
    # tensors obey the bounds of tanh_constants
    a = abs(alpha)
    return MapConstants(m=1.0 - a, M=1.0 + a, M2=0.77 * a, M3=2.0 * a)


TANH_CONSTANTS = tanh_constants(0.5)


def grad_at(problem, z):
    """grad L at one point, as a one-row batch."""
    return grad_potential_batch(problem, z[None, :])[0]


def identity_problem(d=1, beta=0.1, x=None, epsilon=0.1):
    if x is None:
        x = np.full(d, 0.9)
    model = LatentGaussian(identity_net(d), beta)
    return PosteriorProblem(
        model, np.asarray(x, dtype=float), MapConstants(1, 1, 0, 0), epsilon=epsilon
    )


def scale_problem(a=2.0, d=1, beta=0.25, x=None, epsilon=0.1):
    if x is None:
        x = np.full(d, 1.0)
    model = LatentGaussian(scale_net(d, a), beta)
    return PosteriorProblem(
        model, np.asarray(x, dtype=float), MapConstants(a, a, 0, 0), epsilon=epsilon
    )


def tanh_problem(d=1, beta=0.1, x=None, epsilon=0.1, alpha=0.5):
    if x is None:
        x = np.full(d, 0.9)
    model = LatentGaussian(tanh_residual_net(d, alpha), beta)
    return PosteriorProblem(
        model, np.asarray(x, dtype=float), tanh_constants(alpha), epsilon=epsilon
    )


SMOOTH_TAGS = ("identity", "tanh", "square")


@st.composite
def smooth_generators(draw, d=None):
    """Square smooth nets of depth 1-3 with random widths and per-neuron
    identity/tanh/square tags, the output layer's included; dimension d, or
    1-3 when d is None."""
    if d is None:
        d = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 5), min_size=0, max_size=2)) + [d]
    weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for rows, cols in zip(widths, [d] + widths[:-1]):
        tags = draw(st.lists(st.sampled_from(SMOOTH_TAGS), min_size=rows, max_size=rows))
        layers.append(Layer(weights.normal(size=(rows, cols)) / np.sqrt(cols), 0.3 * weights.normal(size=rows), tags))
    return Network(layers, d)
