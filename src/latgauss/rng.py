"""Counter-based deterministic noise streams.

Every random quantity in this package is indexed by a (seed, stage, draw,
component) counter instead of consumed from a sequential generator. Two
consequences the rest of the code relies on:

* replaying any computation with the same seed reproduces every draw bitwise,
  regardless of evaluation order or batching;
* inserting a diagnostic stage, or requesting fewer/more components, never
  shifts the noise seen by other stages. A request for n components returns a
  prefix of the request for n+1.

Algorithm (documented so a reimplementation in another language can match the
stream exactly):

1. Chain SplitMix64 over the counter words:
       h0 = splitmix64(seed)
       h1 = splitmix64(h0 XOR stage)
       h2 = splitmix64(h1 XOR draw)
       w  = splitmix64(h2 XOR component)
   with all words taken mod 2^64.
2. uniform = ((w >> 11) + 0.5) * 2^-53, an element of the open interval (0,1).
3. normal  = ndtri(uniform), the inverse standard normal CDF.

SplitMix64 is the Steele-Lea-Flood mixer: add 0x9E3779B97F4A7C15, then
xor-shift-multiply with the constants below.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One SplitMix64 output word per input word (uint64, wrapping)."""
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return z


def _as_word(value: int) -> np.uint64:
    return np.uint64(int(value) & _MASK64)


class NoiseStream:
    """Deterministic (stage, draw, component)-indexed noise source.

    Conventions used across the package: the stage axis separates pipeline
    phases (one index per gradient-descent or Langevin step), the draw axis
    separates parallel consumers (one index per chain or sample), and the
    component axis runs over vector entries.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._h0 = _splitmix64(_as_word(self.seed))

    # -- word generation -------------------------------------------------

    def _words(self, stage: int, draws: np.ndarray, components: np.ndarray) -> np.ndarray:
        """uint64 words, shape (len(draws), len(components))."""
        h1 = _splitmix64(self._h0 ^ _as_word(stage))
        h2 = _splitmix64(h1 ^ np.asarray(draws, dtype=np.uint64)[:, None])
        return _splitmix64(h2 ^ np.asarray(components, dtype=np.uint64)[None, :])

    # -- scalar-draw API --------------------------------------------------

    def uniform(self, stage: int, draw: int, n: int) -> np.ndarray:
        """n uniforms in (0,1) at counter (stage, draw, 0..n-1)."""
        return self.uniform_matrix(stage, np.array([draw], dtype=np.uint64), n)[0]

    def normal(self, stage: int, draw: int, n: int) -> np.ndarray:
        """n standard normals at counter (stage, draw, 0..n-1)."""
        return ndtri(self.uniform(stage, draw, n))

    # -- batched API (draw axis vectorized) -------------------------------

    def uniform_matrix(self, stage: int, draws: np.ndarray, n: int) -> np.ndarray:
        draws = np.asarray(draws, dtype=np.uint64)
        comps = np.arange(n, dtype=np.uint64)
        words = self._words(stage, draws, comps)
        u = (words >> np.uint64(11)).astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        return u

    def normal_matrix(self, stage: int, draws: np.ndarray, n: int) -> np.ndarray:
        u = self.uniform_matrix(stage, draws, n)
        return ndtri(u, out=u)


def ball_points(stream, stage: int, draws: np.ndarray, dim: int, radius: float) -> np.ndarray:
    """Uniform draws from the closed ball of given radius centered at 0,
    one row per draw index, shape (len(draws), dim).

    Each draw consumes dim+1 counter words at (stage, draw): components
    0..dim-1 feed a standard normal direction through the inverse CDF,
    component dim is the radial uniform, scaled by u^(1/dim) so the draw is
    uniform in volume.
    """
    words = stream.uniform_matrix(stage, np.asarray(draws, dtype=np.uint64), dim + 1)
    g = ndtri(words[:, :dim])
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0  # unreachable for the documented mixer, kept for safety
    return radius * words[:, dim:] ** (1.0 / dim) * (g / norms)


class ZeroStream:
    """Stand-in stream returning zeros; used to switch diffusion terms off."""

    def uniform(self, stage: int, draw: int, n: int) -> np.ndarray:
        return np.full(n, 0.5)

    def normal(self, stage: int, draw: int, n: int) -> np.ndarray:
        return np.zeros(n)

    def uniform_matrix(self, stage: int, draws: np.ndarray, n: int) -> np.ndarray:
        return np.full((len(draws), n), 0.5)

    def normal_matrix(self, stage: int, draws: np.ndarray, n: int) -> np.ndarray:
        return np.zeros((len(draws), n))
