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

Block draws: `NoiseStream.normal_stages(stage, count, draws, n)` hashes the
counters of `count` consecutive stages in one pass and returns shape
(count, len(draws), n), whose entry [k] is `normal_matrix(stage + k, draws,
n)` bit for bit: the uint64 chain, the 53-bit conversion and `ndtri` all act
element by element, and the per-stage calls run the same code with one
stage. `normal_blocks` yields such blocks of about 2^16 words, scaled and
newly allocated; loops that draw noise at every stage (Langevin chains and
the compiled encoder's stages) walk them to pay the per-call cost once per
block instead of once per stage. Since every word's counter is
fixed in advance, the blocks do not depend on what the consumer does with
them: when a request spans more than one block, each stage has at least 256
words (a block of at most 256 stages) and the process may run on more than
one CPU, a one-worker thread pool draws up to two blocks ahead of the
consumer while numpy and `ndtri` release the interpreter lock. Otherwise
the blocks are drawn inline. Either way they are the same bit for bit.

SplitMix64 is the Steele-Lea-Flood mixer: add 0x9E3779B97F4A7C15, then
xor-shift-multiply with the constants below.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

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

    def _words(self, stages: np.ndarray, draws: np.ndarray, components: np.ndarray) -> np.ndarray:
        """uint64 words, shape (len(stages), len(draws), len(components))."""
        h1 = _splitmix64(self._h0 ^ stages)
        h2 = _splitmix64(h1[:, None] ^ np.asarray(draws, dtype=np.uint64)[None, :])
        return _splitmix64(h2[:, :, None] ^ np.asarray(components, dtype=np.uint64))

    def _uniforms(self, stage: int, count: int, draws: np.ndarray, n: int) -> np.ndarray:
        """Uniforms at stages stage..stage+count-1, shape (count, len(draws), n)."""
        stages = _as_word(stage) + np.arange(count, dtype=np.uint64)
        words = self._words(stages, draws, np.arange(n, dtype=np.uint64))
        u = (words >> np.uint64(11)).astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        return u

    # -- batched API (draw axis vectorized) -------------------------------

    def uniform_matrix(self, stage: int, draws: np.ndarray, n: int) -> np.ndarray:
        """Row i holds n uniforms in (0,1) at counter (stage, draws[i], 0..n-1)."""
        return self._uniforms(stage, 1, draws, n)[0]

    def normal_matrix(self, stage: int, draws: np.ndarray, n: int) -> np.ndarray:
        """Row i holds n standard normals at counter (stage, draws[i], 0..n-1)."""
        u = self.uniform_matrix(stage, draws, n)
        return ndtri(u, out=u)

    # -- block API (stage and draw axes vectorized) -----------------------

    def normal_stages(self, stage: int, count: int, draws: np.ndarray, n: int) -> np.ndarray:
        """Entry [k] equals normal_matrix(stage + k, draws, n)."""
        u = self._uniforms(stage, count, draws, n)
        return ndtri(u, out=u)


_BLOCK_WORDS = 1 << 16  # about this many noise words per normal_stages call
_PREFETCH_BLOCKS = 2  # blocks drawn ahead of the one the consumer holds
# Above 256 stages per block a stage has under 256 words, and the worker's
# contention for the interpreter lock slowed the Langevin and encoder loops
# by more than drawing inline costs them (run_chains and run_encoder at
# d = 1, 2 and 4; at 256 words per stage and more the worker paid off).
_PREFETCH_MAX_STAGES = 256


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def normal_blocks(stream, stage: int, count: int, draws: np.ndarray, n: int, scale=1.0):
    """Yield scale * stream.normal_stages(...) for stages stage..stage+count-1
    in blocks of about _BLOCK_WORDS words: row j of the block that starts at
    stage + lo is scale * stream.normal_matrix(stage + lo + j, draws, n) bit
    for bit. Each block is a new array, which the consumer may overwrite.

    When the request spans more than one block of at most
    _PREFETCH_MAX_STAGES stages and the process may use more than one CPU
    (os.sched_getaffinity), a one-worker thread pool draws up to
    _PREFETCH_BLOCKS blocks ahead; an exception raised there reaches the
    consumer at the block it belongs to. Closing the generator, explicitly
    or by dropping it, cancels the blocks not yet started and joins the
    worker. Otherwise each block is drawn inline when it is reached.
    """
    per_block = max(1, _BLOCK_WORDS // max(1, len(draws) * n))
    starts = range(0, count, per_block)

    def draw(lo):
        block = stream.normal_stages(stage + lo, min(per_block, count - lo), draws, n)
        block *= scale
        return block

    if len(starts) < 2 or per_block > _PREFETCH_MAX_STAGES or _usable_cpus() < 2:
        for lo in starts:
            yield draw(lo)
        return

    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="latgauss-noise")
    try:
        ahead = deque()
        for lo in starts:
            ahead.append(pool.submit(draw, lo))
            if len(ahead) > _PREFETCH_BLOCKS:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


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

    def normal_stages(self, stage: int, count: int, draws: np.ndarray, n: int) -> np.ndarray:
        return np.zeros((count, len(draws), n))
