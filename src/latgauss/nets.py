"""Feedforward networks with a small fixed activation set.

A network is a chain of layers (weight matrix, bias vector, activation tags).
Activations come in two groups:

* smooth, differentiable: identity, tanh, square. Only these admit Jacobians.
* evaluation-only: sign.

Activations may be assigned per neuron within one layer; this is what lets
one layer carry a value unchanged while its neighbours squash theirs, and
residual maps like z + a*tanh(z) depend on it.

Evaluation is pure: no randomness, float64 throughout, and identical inputs
produce bitwise identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvertibilityError, UnsupportedDifferentiation

SMOOTH_ACTIVATIONS = ("identity", "tanh", "square")
ELEMENTWISE_ACTIVATIONS = ("identity", "tanh", "square", "sign")

_CODE = {name: i for i, name in enumerate(ELEMENTWISE_ACTIVATIONS)}
_ID, _TANH, _SQ, _SIGN = (_CODE[n] for n in ELEMENTWISE_ACTIVATIONS)

FORMAT_TAG = "latgauss-network-v1"


def _activation_codes(act, rows: int) -> np.ndarray:
    """Per-neuron int8 activation codes from one tag or a list of tags."""
    if isinstance(act, str):
        if act not in ELEMENTWISE_ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}")
        return np.full(rows, _CODE[act], dtype=np.int8)
    tags = list(act)
    if len(tags) != rows:
        raise DimensionError(f"{len(tags)} activation tags for {rows} neurons")
    for t in tags:
        if t not in ELEMENTWISE_ACTIVATIONS:
            raise ValueError(f"unknown activation {t!r}")
    return np.array([_CODE[t] for t in tags], dtype=np.int8)


@dataclass
class Layer:
    weight: np.ndarray
    bias: np.ndarray
    activation: object  # str, or sequence of per-neuron tags

    # per-neuron activation codes and their (code, index) groups, filled in
    # __post_init__
    codes: np.ndarray = field(init=False)
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise DimensionError("weight must be 2-d and bias 1-d")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise DimensionError("bias length must match weight rows")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("non-finite layer parameters")
        self.codes = _activation_codes(self.activation, self.weight.shape[0])
        self.groups = _code_groups(self.codes)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def is_smooth(self) -> bool:
        return not np.any(self.codes == _SIGN)

    def activation_tags(self):
        tags = [ELEMENTWISE_ACTIVATIONS[c] for c in self.codes]
        return tags[0] if len(set(tags)) == 1 else tags


def _code_groups(codes: np.ndarray) -> tuple:
    """(code, index) for each activation code present, in code order.

    A lone neuron's index is a slice: its column is a 1-d view that numpy
    walks in one loop, with no gather. Wider groups take an integer index
    array, since a 2-d view of k > 1 columns runs one inner loop per batch
    row and costs more than the gather on large batches.
    """
    groups = []
    for c in np.unique(codes):
        index = np.flatnonzero(codes == c)
        if len(index) == 1:
            index = slice(int(index[0]), int(index[0]) + 1)
        groups.append((int(c), index))
    return tuple(groups)


def _apply_elementwise(u: np.ndarray, groups: tuple) -> np.ndarray:
    """Activation applied along the last axis of u."""
    if len(groups) == 1:
        code = groups[0][0]
        if code == _ID:
            return u
        if code == _TANH:
            return np.tanh(u)
        if code == _SQ:
            return u * u
        return np.where(u >= 0.0, 1.0, -1.0)  # sign, with sign(0) = +1
    out = u.copy()
    for code, index in groups:
        if code == _TANH:
            out[..., index] = np.tanh(u[..., index])
        elif code == _SQ:
            out[..., index] = u[..., index] ** 2
        elif code == _SIGN:
            out[..., index] = np.where(u[..., index] >= 0.0, 1.0, -1.0)
    return out


def _times_derivative(delta: np.ndarray, u: np.ndarray, a: np.ndarray, groups: tuple) -> np.ndarray:
    """delta * sigma'(u) along the last axis; `a` is sigma(u) from the forward
    pass and u, a broadcast against delta.

    Identity neurons have sigma' = 1, so their entries of delta pass through
    unchanged instead of being multiplied by ones.
    """
    if any(code == _SIGN for code, _ in groups):
        raise UnsupportedDifferentiation("sign is not differentiable")
    if len(groups) == 1:
        code = groups[0][0]
        if code == _ID:
            return delta
        if code == _TANH:
            return delta * (1.0 - a * a)
        return delta * (2.0 * u)
    out = delta.copy()
    for code, index in groups:
        if code == _TANH:
            out[..., index] *= 1.0 - a[..., index] ** 2
        elif code == _SQ:
            out[..., index] *= 2.0 * u[..., index]
    return out


class Network:
    """Feedforward network; layers chain so layer k's out_dim is k+1's in_dim."""

    def __init__(self, layers: list, input_dim: int):
        if not layers:
            raise DimensionError("a network needs at least one layer")
        self.layers = [l if isinstance(l, Layer) else Layer(*l) for l in layers]
        self.input_dim = int(input_dim)
        prev = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.in_dim != prev:
                raise DimensionError(
                    f"layer {i} expects input dim {layer.in_dim}, previous produces {prev}"
                )
            prev = layer.out_dim
        self.output_dim = prev
        # layers are immutable once built, so this is fixed with them
        self.smooth = all(l.is_smooth() for l in self.layers)

    # -- structure ---------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.layers)

    def size(self) -> int:
        """Structural parameter count: nonzero weights plus nonzero biases.

        Zeros produced by block assembly are absent connections, not parameters.
        """
        return int(
            sum(np.count_nonzero(l.weight) + np.count_nonzero(l.bias) for l in self.layers)
        )

    # -- evaluation ----------------------------------------------------------

    def eval_batch(self, Z: np.ndarray) -> np.ndarray:
        """Evaluate on a batch, shape (n, input_dim) -> (n, output_dim)."""
        state = np.asarray(Z, dtype=np.float64)
        if state.ndim != 2 or state.shape[1] != self.input_dim:
            raise DimensionError(f"expected batch of shape (n, {self.input_dim})")
        for layer in self.layers:
            u = state @ layer.weight.T
            u += layer.bias
            state = _apply_elementwise(u, layer.groups)
        return state

    def _forward_tape(self, Z: np.ndarray):
        """Forward pass storing (preactivation, activation) per layer."""
        if not self.smooth:
            raise UnsupportedDifferentiation("network contains sign activations")
        state = np.asarray(Z, dtype=np.float64)
        tape = []
        for layer in self.layers:
            u = state @ layer.weight.T
            u += layer.bias
            state = _apply_elementwise(u, layer.groups)
            tape.append((u, state))
        return state, tape

    # -- differentiation -----------------------------------------------------

    def jacobian_batch(self, Z: np.ndarray) -> np.ndarray:
        """Jacobians for a batch, shape (n, output_dim, input_dim)."""
        _, tape = self._forward_tape(Z)
        n = len(Z)
        delta = np.broadcast_to(
            np.eye(self.output_dim), (n, self.output_dim, self.output_dim)
        ).copy()
        for layer, (u, a) in zip(reversed(self.layers), reversed(tape)):
            delta = _times_derivative(delta, u[:, None, :], a[:, None, :], layer.groups)
            delta = delta @ layer.weight
        return delta

    def vjp_batch(self, Z: np.ndarray, R: np.ndarray):
        """(value, J^T r) per batch row without forming the Jacobian.

        R has shape (n, output_dim), or is a function taking the forward values
        to it, so that a residual G(Z) - x costs one forward pass; the
        returned pullback has shape (n, input_dim). This is the workhorse of
        batched potential gradients.
        """
        value, tape = self._forward_tape(Z)
        delta = np.asarray(R(value) if callable(R) else R, dtype=np.float64)
        for layer, (u, a) in zip(reversed(self.layers), reversed(tape)):
            delta = _times_derivative(delta, u, a, layer.groups) @ layer.weight
        return value, delta

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "format": FORMAT_TAG,
            "input_dim": self.input_dim,
            "layers": [
                {
                    "weight": layer.weight.tolist(),
                    "bias": layer.bias.tolist(),
                    "activation": layer.activation_tags(),
                }
                for layer in self.layers
            ],
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Network":
        doc = json.loads(text)
        if doc.get("format") != FORMAT_TAG:
            raise ValueError(f"unrecognized network format {doc.get('format')!r}")
        layers = [
            Layer(np.array(spec["weight"]), np.array(spec["bias"]), spec["activation"])
            for spec in doc["layers"]
        ]
        return cls(layers, doc["input_dim"])


# -- constructors -------------------------------------------------------------


def linear_net(A: np.ndarray, b: np.ndarray | None = None) -> Network:
    A = np.asarray(A, dtype=np.float64)
    if b is None:
        b = np.zeros(A.shape[0])
    return Network([Layer(A, b, "identity")], A.shape[1])


def identity_net(d: int) -> Network:
    return linear_net(np.eye(d))


def scale_net(d: int, a: float) -> Network:
    return linear_net(a * np.eye(d))


def tanh_residual_net(d: int, alpha: float = 0.5) -> Network:
    """G(z) = z + alpha*tanh(z), coordinatewise.

    With 0 < alpha < 1 this is strongly invertible: G' in [1, 1+alpha].
    """
    eye = np.eye(d)
    first = Layer(np.vstack([eye, eye]), np.zeros(2 * d), ["tanh"] * d + ["identity"] * d)
    second = Layer(np.hstack([alpha * eye, eye]), np.zeros(d), "identity")
    return Network([first, second], d)


def _spectral_normalized(A: np.ndarray) -> np.ndarray:
    s = np.linalg.svd(A, compute_uv=False)[0]
    return A / s if s > 0 else A


def random_residual_tanh_net(d: int, seed: int, alpha: float = 0.5, hidden: int | None = None) -> Network:
    """G(z) = z + alpha * A tanh(Bz + c) with ||A||_2 = ||B||_2 = 1.

    The Jacobian is I + alpha * A diag(tanh') B, so singular values stay in
    [1-alpha, 1+alpha]: strongly invertible for alpha < 1.
    """
    h = hidden or d + 2
    rng = _builder_stream(seed)
    B = _spectral_normalized(rng(h, d))
    A = _spectral_normalized(rng(d, h))
    c = 0.3 * rng(h, 1)[:, 0]
    eye = np.eye(d)
    first = Layer(
        np.vstack([B, eye]), np.concatenate([c, np.zeros(d)]), ["tanh"] * h + ["identity"] * d
    )
    second = Layer(np.hstack([alpha * A, eye]), np.zeros(d), "identity")
    return Network([first, second], d)


def random_smooth_net(d: int, seed: int, hidden: int | None = None, out_dim: int | None = None) -> Network:
    """Small random tanh/square MLP for differentiation tests. Not invertible."""
    h = hidden or d + 3
    q = out_dim or d
    rng = _builder_stream(seed)
    W1 = rng(h, d) / np.sqrt(d)
    b1 = 0.2 * rng(h, 1)[:, 0]
    tags = ["tanh"] * (h - h // 3) + ["square"] * (h // 3)
    W2 = rng(q, h) / np.sqrt(h)
    b2 = 0.1 * rng(q, 1)[:, 0]
    return Network([Layer(W1, b1, tags), Layer(W2, b2, "identity")], d)


def _builder_stream(seed: int):
    """Deterministic gaussian matrix factory (counter-based, see rng module)."""
    from .rng import NoiseStream

    stream = NoiseStream(seed)
    counter = [0]

    def draw(rows: int, cols: int) -> np.ndarray:
        counter[0] += 1
        return stream.normal_matrix(0, np.arange(rows, dtype=np.uint64) + counter[0] * 1000, cols)

    return draw


def as_linear(net: Network):
    """(A, b) if the network is purely linear (all identity activations), else None."""
    A = np.eye(net.input_dim)
    b = np.zeros(net.input_dim)
    for layer in net.layers:
        if np.any(layer.codes != _ID):
            return None
        b = layer.weight @ b + layer.bias
        A = layer.weight @ A
    return A, b


# -- derivative tensors (finite differences of the exact Jacobian) ------------


def _jacobian_at(net: Network, z: np.ndarray) -> np.ndarray:
    """Exact Jacobian at one point, shape (output_dim, input_dim): a one-row
    jacobian_batch.

    Finite differences of the Jacobian (the tensors below and
    potential.hess_potential) call it once per point on purpose: one
    jacobian_batch over all of their points would round some entries
    differently, since BLAS multiplies one row and many rows with different
    kernels, and so would move the constants and Hessians in the last bits.
    """
    return net.jacobian_batch(z[None, :])[0]


def second_derivative_tensor(net: Network, z: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """T[i, j, k] = d^2 G_i / dz_j dz_k via central differences of the Jacobian."""
    z = np.asarray(z, dtype=np.float64)
    d = net.input_dim
    T = np.empty((net.output_dim, d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        T[:, :, k] = (_jacobian_at(net, z + e) - _jacobian_at(net, z - e)) / (2.0 * step)
    return 0.5 * (T + T.transpose(0, 2, 1))


def third_derivative_tensor(net: Network, z: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """T[i, j, k, l] = d^3 G_i / dz_j dz_k dz_l via second differences of the Jacobian."""
    z = np.asarray(z, dtype=np.float64)
    d = net.input_dim
    J0 = _jacobian_at(net, z)
    T = np.empty((net.output_dim, d, d, d))
    for k in range(d):
        ek = np.zeros(d)
        ek[k] = step
        for l in range(k, d):
            el = np.zeros(d)
            el[l] = step
            if k == l:
                block = (_jacobian_at(net, z + ek) - 2.0 * J0 + _jacobian_at(net, z - ek)) / step**2
            else:
                block = (
                    _jacobian_at(net, z + ek + el)
                    - _jacobian_at(net, z + ek - el)
                    - _jacobian_at(net, z - ek + el)
                    + _jacobian_at(net, z - ek - el)
                ) / (4.0 * step**2)
            T[:, :, k, l] = block
            T[:, :, l, k] = block
    return T


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array.

    A stacked (1, n) @ (n, 1) product runs numpy's 1-d dot per row, the same
    one np.linalg.norm uses on a vector, so each entry equals
    np.linalg.norm(X[i]) bit for bit (a sum of squares or an einsum row dot
    does not, once rows have two or more entries).
    """
    return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])


def tensor_opnorm(T: np.ndarray, seed: int = 0, restarts: int = 4, iters: int = 40) -> np.ndarray:
    """sup over unit vectors of |T_i[u1, ..., up]| for each tensor T_i of a batch,
    by alternating maximization; T has shape (n, d1, ..., dp), the result (n,).

    Every (restart, tensor) pair runs on one leading batch axis, with start
    vectors drawn once from the seed and shared by all tensors. A pair whose
    contraction vanishes skips the rest of that sweep only, and an all-zero
    tensor gets 0.0. When all axes have one length, as the derivative
    tensors of a map from R^d to R^d do, each result equals that of running
    the iteration on the tensor alone bit for bit: the einsum contractions
    and row norms round per pair as they would one at a time. (Where a
    length-1 axis meets a length-2 one, numpy's einsum can sum a batch in
    another order, so such shapes may differ in the last bit.)
    """
    from .rng import NoiseStream

    T = np.asarray(T, dtype=np.float64)
    n, shape = T.shape[0], T.shape[1:]
    order = len(shape)
    letters = "abcdefgh"[:order]
    vector = ["q" + l for l in letters]
    stream = NoiseStream(seed)
    stacked = np.concatenate([T] * restarts)  # row r * n + i holds T_i for restart r
    vecs = []
    for axis in range(order):
        g = stream.normal_matrix(0, np.arange(restarts, dtype=np.uint64) * order + axis, shape[axis])
        vecs.append(np.repeat(g / _row_norms(g)[:, None], n, axis=0))
    for _ in range(iters):
        active = np.ones(len(stacked), dtype=bool)  # rows not yet stopped this sweep
        for axis in range(order):
            others = [i for i in range(order) if i != axis]
            sub = ",".join(["q" + letters] + [vector[i] for i in others]) + "->" + vector[axis]
            contracted = np.einsum(sub, stacked, *(vecs[i] for i in others))
            norm = _row_norms(contracted)
            active &= norm != 0.0
            np.divide(contracted, norm[:, None], out=vecs[axis], where=active[:, None])
    value = np.abs(np.einsum(",".join(["q" + letters] + vector) + "->q", stacked, *vecs))
    # fmax passes over a NaN value as max(best, value) from best = 0.0 does
    return np.fmax.reduce(value.reshape(restarts, n), axis=0, initial=0.0)


# -- Lipschitz / smoothness constants -----------------------------------------


@dataclass
class MapConstants:
    """Bounds on a generator: m, M bracket pairwise stretch, M2/M3 bound the
    operator norms of the second and third derivative tensors."""

    m: float
    M: float
    M2: float
    M3: float
    estimated: bool = False  # True only from estimate_constants
    non_invertible: bool = False

    def __post_init__(self):
        if not (0.0 <= self.m <= self.M):
            raise InvertibilityError(
                f"need 0 <= m <= M, got m={self.m}, M={self.M}", m=self.m, M=self.M
            )
        for name in ("M2", "M3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "M": self.M,
            "M2": self.M2,
            "M3": self.M3,
            "estimated": self.estimated,
            "non_invertible": self.non_invertible,
        }


def estimate_constants(
    net: Network,
    sample_count: int = 400,
    radius: float = 3.0,
    seed: int = 0,
    tensor_points: int = 24,
) -> MapConstants:
    """Sampled constants: pairwise stretch ratios for m/M, finite-difference
    derivative tensors (alternating power iteration) for M2/M3.

    Sampled with a counter-based stream, so for a fixed seed the first k
    samples are a prefix of the first k+1: the m estimate never increases and
    the M estimate never decreases as sample_count grows. These are inner
    estimates of the true bounds (never larger than the true sup for M and
    never smaller than the true inf for m); supply exact constants instead
    when they are known.

    M2 and M3 come from one batched tensor_opnorm call per derivative order
    over the tensors at the first tensor_points sample points; for a map
    from R^d to R^d they equal a loop over the points, one tensor at a
    time, bit for bit. The tensors themselves come from one one-row
    jacobian_batch call per finite-difference point (_jacobian_at).
    """
    from .rng import NoiseStream, ball_points

    if not net.smooth:
        raise UnsupportedDifferentiation("constants are defined for smooth generators")
    stream = NoiseStream(seed)
    d = net.input_dim
    # sample i draws its point at (0, 2i) and its partner at (0, 2i+1)
    draws = np.arange(sample_count, dtype=np.uint64)
    even, odd = draws[0::2], draws[1::2]
    points = ball_points(stream, 0, 2 * draws, d, radius)
    partners = np.empty((sample_count, d))
    partners[0::2] = ball_points(stream, 0, 2 * even + 1, d, radius)
    # odd samples take a nearby partner to probe the local slope
    offsets = ball_points(stream, 0, 2 * odd + 1, d, 1.0)
    partners[1::2] = points[1::2] + 1e-3 * max(radius, 1e-6) * offsets
    gap_in = np.linalg.norm(points - partners, axis=1)
    gap_out = np.linalg.norm(net.eval_batch(points) - net.eval_batch(partners), axis=1)
    keep = gap_in > 0
    ratios = gap_out[keep] / gap_in[keep]
    m_hat = float(ratios.min())
    M_hat = float(ratios.max())

    at = points[: min(tensor_points, sample_count)]
    shape = (len(at), net.output_dim, d, d)  # reshape: an empty batch still has tensor axes
    T2 = np.array([second_derivative_tensor(net, z) for z in at]).reshape(shape)
    T3 = np.array([third_derivative_tensor(net, z) for z in at]).reshape(shape + (d,))
    M2_hat = float(tensor_opnorm(T2, seed=seed + 1).max(initial=0.0))
    M3_hat = float(tensor_opnorm(T3, seed=seed + 2).max(initial=0.0))

    return MapConstants(
        m=m_hat,
        M=M_hat,
        M2=M2_hat,
        M3=M3_hat,
        estimated=True,
        non_invertible=bool(m_hat < 1e-6 * max(M_hat, 1.0)),
    )
