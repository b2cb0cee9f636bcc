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
2. uniform = ((w >> 11) + 0.5) * 2^-53, rounded to float64 and clamped to
   1 - 2^-53, an element of the open interval (0,1). (Without the clamp the
   top value, w >> 11 = 2^53 - 1, would round to exactly 1.)
3. normal  = ndtri(uniform), the inverse standard normal CDF, as Cephes
   computes it: for exp(-2) < u <= 1 - exp(-2) the degree-4/8 rational in
   (y - 1/2)^2, otherwise, with y the smaller of u and 1 - u,
   x = sqrt(-2 log y) and x - log(x)/x - P(1/x)/(x Q(1/x)), a degree-8/8
   rational for x < 8 and another for x >= 8, with the sign of u - 1/2.
   Both logs are the C library's `log`.

Drawing normals: `scipy.special.ndtri` is that Cephes code compiled, and
`_cephes_ndtri` is a numpy port of it that returns the same doubles bit for
bit: the rationals in Cephes' Horner order with numpy, the tail logs one
element at a time through `math.log`, which calls the same C `log` (np.log
rounds differently on some inputs). The port costs about 120 ns a word
against the ufunc's 15, but importing scipy.special costs a process about
0.2 s, more than a CLI step that draws little noise spends working. So a
process draws with the port until a `normal_blocks` request of at least
`_BULK_WORDS` words (count * len(draws) * n) imports the ufunc, which then
draws that request and every later one. Either way the draws are the same.

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
the blocks are drawn inline. Either way they are the same bit for bit. The
port's tail loop holds the interpreter lock, so the worker overlaps the
consumer fully only on the bulk path, where the ufunc draws.

SplitMix64 is the Steele-Lea-Flood mixer: add 0x9E3779B97F4A7C15, then
xor-shift-multiply with the constants below.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

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


def _unit_interval(words: np.ndarray) -> np.ndarray:
    """((w >> 11) + 0.5) * 2^-53 in float64, clamped to 1 - 2^-53: the top
    53-bit value, 2^53 - 1, would round to exactly 1.0 and every other value
    lies strictly inside (0, 1) already."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


# -- the inverse normal CDF -------------------------------------------------------
#
# Cephes ndtri, the C code behind scipy.special.ndtri, with its coefficients
# and its order of operations, so that both give the same double bit for bit.

_EXP_M2 = 0.13533528323661269189  # exp(-2): the central branch is exp(-2) < u <= 1 - exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
# y - 1/2 = t: x = (t + t t^2 P0(t^2) / Q0(t^2)) sqrt(2 pi)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# the tails, with x = sqrt(-2 log y) and z = 1/x: P1/Q1 for 2 <= x < 8, P2/Q2 for x >= 8
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """coef[0] x^N + ... + coef[N] by Horner's rule (Cephes polevl)."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1], leading coefficient 1 (Cephes p1evl)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_log(values: np.ndarray) -> np.ndarray:
    """Natural log through math.log, the C library's log, which is what the
    compiled Cephes code calls; np.log rounds differently on some inputs."""
    return np.fromiter(map(math.log, values.tolist()), np.float64, values.size)


def _cephes_ndtri(u: np.ndarray) -> np.ndarray:
    """scipy.special.ndtri(u) bit for bit, written into u and returned."""
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    central = y > _EXP_M2
    tail = ~central & (y > 0.0)

    t = y[central]
    t -= 0.5
    t2 = t * t
    x = _polevl(t2, _P0)
    x *= t2
    x /= _p1evl(t2, _Q0)
    x *= t
    x += t
    x *= _S2PI
    u[central] = x

    x = _libm_log(y[tail])
    x *= -2.0
    np.sqrt(x, out=x)
    shift = x - _libm_log(x) / x
    z = 1.0 / x
    near = x < 8.0
    for sel, p, q in ((near, _P1, _Q1), (~near, _P2, _Q2)):
        zs = z[sel]
        correction = zs * _polevl(zs, p)
        correction /= _p1evl(zs, q)
        shift[sel] -= correction
    np.negative(shift, out=shift, where=~upper[tail])
    u[tail] = shift
    rest = ~(central | tail)  # u = 0, u = 1 and u outside [0, 1], still unchanged
    edge = u[rest]
    u[rest] = np.where(edge == 0.0, -np.inf, np.where(edge == 1.0, np.inf, np.nan))
    return u


# Importing scipy.special costs 0.16-0.22 s, and its ufunc saves about 100 ns
# a word over _cephes_ndtri (15 against 120-135 ns), so the import pays for
# itself from about 1.6-2.2 million words drawn inline, and from fewer when
# prefetched, where the ufunc runs beside the consumer and the port's log
# loop does not. Whole CLI steps on a 2-core VM put the break-even near
# 2^20 (perfbench workloads, 6-10 alternating runs each): at 1.08 million
# words (encoder-d2's sample step) both took 0.62 s; at 2.0 and 2.7 million
# (the readme-d1 and encoder-d2 encode steps) the ufunc was 0.02 and 0.13 s
# ahead.
_BULK_WORDS = 1 << 20
_ufunc_ndtri = None  # scipy.special.ndtri once a bulk request has imported it


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantiles of u, written into u."""
    if _ufunc_ndtri is not None:
        return _ufunc_ndtri(u, out=u)
    return _cephes_ndtri(u)


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
        return _unit_interval(self._words(stages, draws, np.arange(n, dtype=np.uint64)))

    # -- batched API (draw axis vectorized) -------------------------------

    def uniform_matrix(self, stage: int, draws: np.ndarray, n: int) -> np.ndarray:
        """Row i holds n uniforms in (0,1) at counter (stage, draws[i], 0..n-1)."""
        return self._uniforms(stage, 1, draws, n)[0]

    def normal_matrix(self, stage: int, draws: np.ndarray, n: int) -> np.ndarray:
        """Row i holds n standard normals at counter (stage, draws[i], 0..n-1)."""
        return _ndtri(self.uniform_matrix(stage, draws, n))

    # -- block API (stage and draw axes vectorized) -----------------------

    def normal_stages(self, stage: int, count: int, draws: np.ndarray, n: int) -> np.ndarray:
        """Entry [k] equals normal_matrix(stage + k, draws, n)."""
        return _ndtri(self._uniforms(stage, count, draws, n))


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

    A request of _BULK_WORDS words or more imports scipy.special.ndtri,
    which then draws this request and every later one.
    """
    global _ufunc_ndtri
    if _ufunc_ndtri is None and count * len(draws) * n >= _BULK_WORDS:
        from scipy.special import ndtri as _ufunc_ndtri
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
    g = _ndtri(words[:, :dim])
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0  # unreachable for the documented mixer, kept for safety
    return radius * words[:, dim:] ** (1.0 / dim) * (g / norms)


class ZeroStream:
    """Stand-in stream returning zeros; used to switch diffusion terms off."""

    def normal_stages(self, stage: int, count: int, draws: np.ndarray, n: int) -> np.ndarray:
        return np.zeros((count, len(draws), n))
