"""Toy-scale hardness construction: a generator that quantizes to sign patterns.

G(z) = C(sgn(z)) maps the latent through its orthant's sign pattern and a
bijection C on {-1,+1}^d, then the observation adds Gaussian noise of scale
beta. Inverting such a generator means recovering the code word, which is
what makes the construction hard in the worst case. Here C is a toy
permutation (a bit rotation composed with a fixed XOR mask), NOT a one-way
permutation: the module demonstrates the reduction mechanics (posterior
concentration near the pre-image, retry-based inversion) at enumerable sizes,
with no cryptographic hardness claimed.

Patterns are d-bit integers; bit i set means +1 at coordinate i. d is capped
at 16 so every distribution over patterns can be enumerated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import EnumerationCap
from .nets import Layer, Network
from .rng import NoiseStream

MAX_DIM = 16
SMALL_BETA_GATE = 0.1


def _rotl(values, r: int, d: int):
    mask = (1 << d) - 1
    r = r % d
    return ((values << r) | (values >> (d - r))) & mask


@dataclass
class SignGenerator:
    """G(z) = C(sgn(z)) + observation noise of scale beta.

    C acts on patterns as rotate-left by `rotation` bits then XOR with
    `mask`; both operations are bijections, and the composed table is audited
    at construction anyway.
    """

    d: int
    beta: float
    rotation: int = 1
    mask: int = 0
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.d > MAX_DIM:
            raise EnumerationCap(
                f"sign generators are capped at d = {MAX_DIM}", requested=self.d
            )
        if not 1 <= self.d:
            raise ValueError("d must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if not 0 <= self.mask < (1 << self.d):
            raise ValueError("mask out of range")
        patterns = np.arange(1 << self.d, dtype=np.int64)
        self.table = _rotl(patterns, self.rotation, self.d) ^ self.mask
        if len(np.unique(self.table)) != len(self.table):
            raise ValueError("permutation audit failed: table is not a bijection")

    @property
    def beta_small(self) -> bool:
        """Whether beta is small in the sense beta * sqrt(d) < 0.1."""
        return self.beta * np.sqrt(self.d) < SMALL_BETA_GATE

    def code(self, pattern: int) -> int:
        return int(self.table[pattern])


def pattern_to_vertex(patterns, d: int) -> np.ndarray:
    """d-bit ints -> {-1,+1}^d vectors (bit i set -> +1 at coordinate i)."""
    patterns = np.atleast_1d(np.asarray(patterns, dtype=np.int64))
    bits = (patterns[:, None] >> np.arange(d)) & 1
    return 2.0 * bits - 1.0


def vertex_to_pattern(vertices: np.ndarray) -> np.ndarray:
    v = np.atleast_2d(np.asarray(vertices))
    bits = (v > 0).astype(np.int64)
    return bits @ (1 << np.arange(v.shape[1], dtype=np.int64))


def sign_pattern(z: np.ndarray) -> np.ndarray:
    """Orthant pattern ints for latent rows; sign(0) counts as +1."""
    return vertex_to_pattern(np.atleast_2d(z) >= 0.0)


def apply_generator(gen: SignGenerator, z: np.ndarray) -> np.ndarray:
    """Noiseless G(z): code vertices for each latent row."""
    return pattern_to_vertex(gen.table[sign_pattern(z)], gen.d)


def generator_network(gen: SignGenerator) -> Network:
    """G as a network: a sign layer then a signed permutation.

    On vertex vectors, rotate-left by r over bit positions is the coordinate
    permutation j -> (j + r) mod d, and XORing bit j flips coordinate j's
    sign, so C is linear there: C_vec = diag(mask signs) P_rot. The network
    realizes exactly apply_generator, not smooth, and structurally tiny.
    """
    d = gen.d
    P = np.zeros((d, d))
    for j in range(d):
        P[(j + gen.rotation) % d, j] = 1.0
    flips = np.where((gen.mask >> np.arange(d)) & 1, -1.0, 1.0)
    return Network(
        [
            Layer(np.eye(d), np.zeros(d), "sign"),
            Layer(np.diag(flips) @ P, np.zeros(d), "identity"),
        ],
        d,
    )


# -- sampling -----------------------------------------------------------------------


def sample_x(gen: SignGenerator, stream, draws: np.ndarray):
    """(z, x) rows: z at counter (stage 0, 2i), noise at (stage 0, 2i+1)."""
    draws = np.asarray(draws, dtype=np.uint64)
    Z = stream.normal_matrix(0, 2 * draws, gen.d)
    Xi = stream.normal_matrix(0, 2 * draws + 1, gen.d)
    return Z, apply_generator(gen, Z) + gen.beta * Xi


def exact_orthant_posterior(gen: SignGenerator, x: np.ndarray) -> np.ndarray:
    """Posterior over the 2^d sign patterns given one observation.

    The prior is uniform (each orthant carries standard Gaussian mass exactly
    2^-d), so the posterior weight of pattern b is proportional to
    exp(-||x - C(b)||^2 / (2 beta^2)), normalized by log-sum-exp. Index i of
    the result is the probability of pattern i (the pre-image side).
    """
    x = np.asarray(x, dtype=np.float64)
    if gen.beta == 0.0:
        # degenerate: all mass on patterns whose code vertex is nearest
        verts = pattern_to_vertex(gen.table, gen.d)
        d2 = ((x[None, :] - verts) ** 2).sum(axis=1)
        hit = d2 == d2.min()
        return hit / hit.sum()
    verts = pattern_to_vertex(gen.table, gen.d)
    logw = -((x[None, :] - verts) ** 2).sum(axis=1) / (2.0 * gen.beta**2)
    return np.exp(logw - logsumexp(logw))


def hypercube_closeness_test(
    gen: SignGenerator, sample_count: int, c: float, seed: int = 0
) -> dict:
    """Fraction of samples with ||x - G(z)|| > 6 c beta sqrt(d).

    The tail bound for that event is e^{-c^2 d} for c > 1; Monte-Carlo adds
    binomial slack on top. Returns the measurement next to the bound.
    """
    if c <= 1.0:
        raise ValueError("the closeness bound needs c > 1")
    idx = np.arange(sample_count, dtype=np.uint64)
    Z, X = sample_x(gen, NoiseStream(seed), idx)
    gap = np.linalg.norm(X - apply_generator(gen, Z), axis=1)
    threshold = 6.0 * c * gen.beta * np.sqrt(gen.d)
    frac = float(np.mean(gap > threshold))
    bound = float(np.exp(-(c**2) * gen.d))
    slack = 3.0 * np.sqrt(max(bound, 1.0 / sample_count) / sample_count)
    return {
        "fraction": frac,
        "bound": bound,
        "binomial_slack": float(slack),
        "threshold": float(threshold),
        "sample_count": int(sample_count),
        "pass": bool(frac <= bound + slack),
    }


# -- retry inversion -----------------------------------------------------------------


def _uniform(stream, stage: int) -> float:
    """The uniform word at counter (stage, draw 0, component 0)."""
    return float(stream.uniform_matrix(stage, np.zeros(1, dtype=np.uint64), 1)[0, 0])


def failure_sentinel(d: int) -> np.ndarray:
    """The all-ones vertex, returned when no retry hits the pre-image."""
    return np.ones(d)


def posterior_encoder(gen: SignGenerator):
    """Encoder sampling sgn(z) exactly from the orthant posterior.

    Returns a callable (x, stream, stage) -> z placed at the sampled
    pattern's vertex (so sgn(z) is the sampled pattern). One uniform word at
    (stage, draw 0) drives the inverse-CDF over the 2^d weights.
    """

    def encode(x, stream, stage):
        probs = exact_orthant_posterior(gen, x)
        u = _uniform(stream, stage)
        k = int(np.searchsorted(np.cumsum(probs), u))
        k = min(k, len(probs) - 1)
        return pattern_to_vertex(k, gen.d)[0]

    return encode


def uniform_orthant_encoder(gen: SignGenerator):
    """Baseline encoder ignoring x: a uniformly random orthant."""

    def encode(x, stream, stage):
        u = _uniform(stream, stage)
        k = min(int(u * (1 << gen.d)), (1 << gen.d) - 1)
        return pattern_to_vertex(k, gen.d)[0]

    return encode


def retry_invert(
    gen: SignGenerator,
    encoder,
    x_tilde: np.ndarray,
    M: int,
    M_prime: int,
    stream,
) -> np.ndarray:
    """Recover the pre-image pattern of a code vertex by repeated encoding.

    For each of M fresh observations x = x_tilde + beta * xi and M' encoder
    samples each, returns the first sgn(z) whose code equals x_tilde; the
    all-ones sentinel when every attempt misses. Noise draw j uses counter
    (stage 1, draw j); encoder attempt (j, k) gets stage 2 + j * M' + k.
    """
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    target = int(vertex_to_pattern(x_tilde)[0])
    noise = stream.normal_matrix(1, np.arange(M, dtype=np.uint64), gen.d)
    for j, xi in enumerate(noise):
        x = x_tilde + gen.beta * xi
        for k in range(M_prime):
            z = encoder(x, stream, 2 + j * M_prime + k)
            pattern = int(sign_pattern(z)[0])
            if gen.code(pattern) == target:
                return pattern_to_vertex(pattern, gen.d)[0]
    return failure_sentinel(gen.d)


def retry_success_rate(
    gen: SignGenerator,
    encoder_factory,
    trials: int,
    M: int,
    M_prime: int,
    seed: int = 0,
) -> dict:
    """Monte-Carlo success rate of retry_invert over random code vertices.

    Trial t gets its own stream (seed + t), keeping trials independent and
    order-free. A trial succeeds when the returned pattern's code is the
    chosen vertex (the sentinel only collides when it is itself the correct
    answer, which counts as a success by the same criterion).
    """
    encoder = encoder_factory(gen)
    hits = 0
    for t in range(trials):
        stream = NoiseStream(seed + t)
        u = _uniform(stream, 0)
        target_pattern = min(int(u * (1 << gen.d)), (1 << gen.d) - 1)
        x_tilde = pattern_to_vertex(gen.code(target_pattern), gen.d)[0]
        out = retry_invert(gen, encoder, x_tilde, M, M_prime, stream)
        if gen.code(int(sign_pattern(out)[0])) == int(vertex_to_pattern(x_tilde)[0]):
            hits += 1
    return {"trials": trials, "successes": hits, "rate": hits / trials}


# -- demo report ----------------------------------------------------------------------


def demo_report(
    d: int = 8,
    beta: float = 0.05,
    rotation: int = 3,
    mask: int = 0b10110100,
    trials: int = 200,
    closeness_samples: int = 20_000,
    seed: int = 0,
) -> dict:
    """Headline statistics for the construction at one toy scale."""
    gen = SignGenerator(d=d, beta=beta, rotation=rotation, mask=mask % (1 << d))
    stream = NoiseStream(seed)
    idx = np.arange(trials, dtype=np.uint64)
    Z, X = sample_x(gen, stream, idx)
    true_patterns = sign_pattern(Z)
    mass = np.empty(trials)
    top_hits = 0
    for i in range(trials):
        post = exact_orthant_posterior(gen, X[i])
        mass[i] = post[true_patterns[i]]
        top_hits += int(np.argmax(post) == true_patterns[i])

    closeness = {
        f"c={c}": hypercube_closeness_test(gen, closeness_samples, c, seed=seed + 1)
        for c in (1.01, 1.5)
    }
    pe = retry_success_rate(gen, posterior_encoder, trials, 4, 4, seed=seed + 2)
    ue = retry_success_rate(gen, uniform_orthant_encoder, trials, 4, 4, seed=seed + 3)
    closed_form = 1.0 - (1.0 - 2.0**-d) ** 16
    return {
        "d": d,
        "beta": beta,
        "beta_small_flag": bool(gen.beta_small),
        "posterior_mass_on_true_pattern": {
            "mean": float(mass.mean()),
            "min": float(mass.min()),
            "top1_accuracy": top_hits / trials,
        },
        "closeness": closeness,
        "retry_posterior_encoder": pe,
        "retry_uniform_encoder": {**ue, "closed_form_rate": closed_form},
        "note": "toy permutation (rotation + XOR mask); no hardness claimed",
    }
