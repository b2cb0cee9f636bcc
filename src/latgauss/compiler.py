"""Compile the sampling pipeline into a deep latent Gaussian encoder.

The pipeline (gradient descent from zero, ball-perturbed start, K Langevin
steps) is an alternation of deterministic maps and isotropic Gaussian noise,
so it is extensionally a deep latent Gaussian model. This module builds that
model mechanically out of network gadgets in the smooth activation set:

* derivative_network: for one output coordinate of a smooth network, a network
  computing its input gradient. Forward preactivations are carried alongside,
  and the backward sweep realizes each sigma'(u) * delta product through the
  square-activation multiplication identity a*b = ((a+b)^2 - (a-b)^2) / 4.
* add_networks / mul_networks: pointwise sum and product of two networks.
* step_network: the map (z, x) -> (c1 z + c2 J_G(z)^T (G(z) - x), x), the
  shared shape of descent steps (c1=1, c2=-eta) and Langevin drift steps
  (c1=1-h, c2=-h/beta^2).

Stage layout of a compiled encoder (positions are DLG stage indices and match
sampler.PipelineStages, so direct chains and the encoder consume identical
noise counters):

    0            zeroing stage: kills the latent input block (descent starts
                 at the origin no matter what the encoder is fed)
    1 .. S       descent steps (variance 0)
    S+1          adds the uniform-ball start perturbation, consuming the
                 auxiliary noise input channel (variance 0)
    S+2 .. S+1+K Langevin steps (variance 2h each)
    S+2+K        output projection: drops carry channels, emits the sample

The ball perturbation is not Gaussian, so it cannot be stage noise; the caller
samples it (same counters as the direct pipeline) and feeds it as an input
channel. Amortized encoders take input (z0, x, n) and carry x through every
stage at scale carry_scale: stage noise is isotropic over the whole stage
output, so an identity carry would corrupt x by sqrt(2h) * xi per Langevin
stage; scaling the channel up attenuates that corruption to sqrt(2hK) /
carry_scale, far below the equivalence tolerance. Non-amortized encoders bake
x into biases and take input (z0, n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UnsupportedDifferentiation
from .models import DeepLatentGaussian, sample_dlg_batch
from .nets import (
    _CODE,
    ELEMENTWISE_ACTIVATIONS,
    Layer,
    Network,
)
from .invert import GdPlan
from .pipeline import PipelinePlan, run_planned_chains
from .potential import PosteriorProblem
from .rng import ball_points
from .sampler import PipelineStages, SamplerPlan

_ID_TAG, _TANH_TAG, _SQ_TAG = "identity", "tanh", "square"

DEFAULT_CARRY_SCALE = 1e9


# -- wire-frame assembly --------------------------------------------------------


class _Frame:
    """Ordered named wire groups; tracks offsets within a layer's output."""

    def __init__(self, groups):
        self.names = []
        self.layout = {}
        off = 0
        for name, width in groups:
            if width < 0:
                raise ValueError("negative group width")
            if width == 0:
                continue
            self.names.append(name)
            self.layout[name] = (off, width)
            off += width
        self.width = off

    def slice(self, name):
        off, width = self.layout[name]
        return slice(off, off + width)

    def width_of(self, name):
        return self.layout[name][1]


class _Builder:
    """Accumulates mixed elementwise layers over evolving wire frames.

    emit() takes blocks of rows: (out_name, activation, terms, bias) where
    terms is a list of (matrix, src_name) contributions summed at the source
    group's columns. Identity carries are just (eye, name) terms.
    """

    def __init__(self, input_groups):
        self.frame = _Frame(input_groups)
        self.input_dim = self.frame.width
        self.layers = []

    def carry(self, name):
        w = self.frame.width_of(name)
        return (name, _ID_TAG, [(np.eye(w), name)], np.zeros(w))

    def carry_all(self, except_names=()):
        return [self.carry(n) for n in self.frame.names if n not in except_names]

    def emit(self, blocks):
        rows = 0
        for _, act, terms, bias in blocks:
            bias = np.atleast_1d(np.asarray(bias, dtype=np.float64))
            rows += len(bias)
        W = np.zeros((rows, self.frame.width))
        b = np.zeros(rows)
        tags = []
        groups = []
        r = 0
        for out_name, act, terms, bias in blocks:
            bias = np.atleast_1d(np.asarray(bias, dtype=np.float64))
            n = len(bias)
            for mat, src in terms:
                mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
                if mat.shape != (n, self.frame.width_of(src)):
                    raise DimensionError(
                        f"block {out_name}: term for {src} has shape {mat.shape}, "
                        f"expected ({n}, {self.frame.width_of(src)})"
                    )
                W[r : r + n, self.frame.slice(src)] += mat
            b[r : r + n] = bias
            if isinstance(act, str):
                tags.extend([act] * n)
            else:
                if len(act) != n:
                    raise DimensionError(f"block {out_name}: {len(act)} tags for {n} rows")
                tags.extend(act)
            groups.append((out_name, n))
            r += n
        self.layers.append(Layer(W, b, tags))
        self.frame = _Frame(groups)

    def network(self):
        return Network(self.layers, self.input_dim)


def _layer_tags(layer: Layer):
    return [ELEMENTWISE_ACTIVATIONS[c] for c in layer.codes]


def _smooth_or_raise(net: Network, what: str):
    if not net.smooth:
        raise UnsupportedDifferentiation(f"{what} requires a smooth network")


# -- combinators ------------------------------------------------------------------


def identity_chain(width: int, depth: int) -> Network:
    return Network([Layer(np.eye(width), np.zeros(width), _ID_TAG) for _ in range(depth)], width)


def pad_depth(net: Network, depth: int) -> Network:
    if net.depth > depth:
        raise ValueError("cannot pad to a smaller depth")
    if net.depth == depth:
        return net
    eye = [
        Layer(np.eye(net.output_dim), np.zeros(net.output_dim), _ID_TAG)
        for _ in range(depth - net.depth)
    ]
    return Network(list(net.layers) + eye, net.input_dim)


def parallel(parts, input_dim: int) -> Network:
    """Side-by-side networks over a shared input.

    parts: list of (net, column offset); net i reads input columns
    [offset, offset + net.input_dim). Outputs are concatenated in order.
    Depths are equalized by appending identity layers.
    """
    depth = max(net.depth for net, _ in parts)
    padded = [(pad_depth(net, depth), off) for net, off in parts]
    layers = []
    for j in range(depth):
        rows = sum(net.layers[j].rows for net, _ in padded)
        if j == 0:
            width = input_dim
        else:
            width = sum(net.layers[j - 1].out_dim for net, _ in padded)
        W = np.zeros((rows, width))
        b = np.zeros(rows)
        tags = []
        r = 0
        c = 0
        for net, off in padded:
            lay = net.layers[j]
            if j == 0:
                W[r : r + lay.rows, off : off + lay.in_dim] = lay.weight
            else:
                W[r : r + lay.rows, c : c + lay.in_dim] = lay.weight
                c += lay.in_dim
            b[r : r + lay.rows] = lay.bias
            tags.extend(_layer_tags(lay))
            r += lay.rows
        layers.append(Layer(W, b, tags))
    return Network(layers, input_dim)


def compose(first: Network, second: Network) -> Network:
    if first.output_dim != second.input_dim:
        raise DimensionError(
            f"cannot compose: {first.output_dim} outputs into {second.input_dim} inputs"
        )
    return Network(list(first.layers) + list(second.layers), first.input_dim)


def add_networks(f: Network, g: Network, wf: float = 1.0, wg: float = 1.0) -> Network:
    """Network computing wf * f(z) + wg * g(z)."""
    if f.input_dim != g.input_dim or f.output_dim != g.output_dim:
        raise DimensionError("add_networks needs matching input and output dims")
    both = parallel([(f, 0), (g, 0)], f.input_dim)
    q = f.output_dim
    mix = Layer(np.hstack([wf * np.eye(q), wg * np.eye(q)]), np.zeros(q), _ID_TAG)
    return Network(list(both.layers) + [mix], f.input_dim)


def mul_networks(f: Network, g: Network) -> Network:
    """Network computing f(z) * g(z) elementwise.

    Uses a*b = ((a+b)^2 - (a-b)^2)/4 with square activations, so the result
    stays in the smooth activation set.
    """
    if f.input_dim != g.input_dim or f.output_dim != g.output_dim:
        raise DimensionError("mul_networks needs matching input and output dims")
    q = f.output_dim
    both = parallel([(f, 0), (g, 0)], f.input_dim)
    eye = np.eye(q)
    pm = Layer(
        np.vstack([np.hstack([eye, eye]), np.hstack([eye, -eye])]),
        np.zeros(2 * q),
        _SQ_TAG,
    )
    fold = Layer(np.hstack([0.25 * eye, -0.25 * eye]), np.zeros(q), _ID_TAG)
    return Network(list(both.layers) + [pm, fold], f.input_dim)


# -- derivative networks -----------------------------------------------------------


def derivative_network(net: Network, output_index: int) -> Network:
    """Network computing grad_z G_i(z) for one output coordinate i.

    Structure: a forward phase mirrors G's layers while duplicating, per
    layer, the tanh activations and the square preactivations (the data
    sigma' needs); a backward phase then folds sigma' factors into the
    running gradient with multiplication gadgets and applies each W^T.
    """
    _smooth_or_raise(net, "derivative_network")
    if not 0 <= output_index < net.output_dim:
        raise DimensionError(f"output_index {output_index} out of range")
    tanh_code, sq_code = _CODE[_TANH_TAG], _CODE[_SQ_TAG]
    d = net.input_dim
    ell = net.depth

    b = _Builder([("a", d)])
    bundles = []  # per layer: (tanh positions, square positions)
    for k, lay in enumerate(net.layers):
        codes = lay.codes
        tpos = np.where(codes == tanh_code)[0]
        spos = np.where(codes == sq_code)[0]
        bundles.append((tpos, spos))
        blocks = [("a", _layer_tags(lay), [(lay.weight, "a")], lay.bias)]
        if len(tpos):
            blocks.append((f"t{k}", _TANH_TAG, [(lay.weight[tpos], "a")], lay.bias[tpos]))
        if len(spos):
            blocks.append((f"u{k}", _ID_TAG, [(lay.weight[spos], "a")], lay.bias[spos]))
        blocks += b.carry_all(except_names=("a",))
        b.emit(blocks)

    # backward through the output layer: only coordinate `output_index` matters,
    # and sigma' there is a single wire, so the W^T application is linear.
    last = net.layers[-1]
    tpos, spos = bundles[-1]
    row = last.weight[output_index]
    live = [f"t{k}" for k in range(ell - 1) if len(bundles[k][0])] + [
        f"u{k}" for k in range(ell - 1) if len(bundles[k][1])
    ]
    code = last.codes[output_index]
    if code == tanh_code:
        idx = int(np.where(tpos == output_index)[0][0])
        sel = np.zeros((1, len(tpos)))
        sel[0, idx] = 1.0
        blocks = [("tsq", _SQ_TAG, [(sel, f"t{ell-1}")], np.zeros(1))]
        blocks += [b.carry(n) for n in live]
        b.emit(blocks)
        # g = (1 - t^2) * row: affine in the tsq wire
        blocks = [("g", _ID_TAG, [(-row[:, None], "tsq")], row.copy())]
        blocks += [b.carry(n) for n in live]
        b.emit(blocks)
    elif code == sq_code:
        idx = int(np.where(spos == output_index)[0][0])
        sel = np.zeros((len(row), len(spos)))
        sel[:, idx] = 2.0 * row
        blocks = [("g", _ID_TAG, [(sel, f"u{ell-1}")], np.zeros(len(row)))]
        blocks += [b.carry(n) for n in live]
        b.emit(blocks)
    else:  # identity: the gradient seed is the constant row
        blocks = [("g", _ID_TAG, [], row.copy())]
        blocks += [b.carry(n) for n in live]
        b.emit(blocks)

    # inner layers, last to first
    for k in range(ell - 2, -1, -1):
        lay = net.layers[k]
        tpos, spos = bundles[k]
        ipos = np.array(
            [p for p in range(lay.rows) if p not in set(tpos) | set(spos)], dtype=int
        )
        live = [f"t{j}" for j in range(k) if len(bundles[j][0])] + [
            f"u{j}" for j in range(k) if len(bundles[j][1])
        ]
        wt = lay.weight.T  # (in, rows)

        if len(tpos) == 0 and len(spos) == 0:
            # sigma' = 1 everywhere: g <- W^T g
            blocks = [("g", _ID_TAG, [(wt[:, ipos], "g")] if len(ipos) else [], np.zeros(lay.in_dim))]
            blocks += [b.carry(n) for n in live]
            b.emit(blocks)
            continue

        if len(tpos):
            # square the saved tanh values first (g and the rest ride along)
            blocks = [("tsq", _SQ_TAG, [(np.eye(len(tpos)), f"t{k}")], np.zeros(len(tpos)))]
            if len(spos):
                blocks.append(b.carry(f"u{k}"))
            blocks.append(b.carry("g"))
            blocks += [b.carry(n) for n in live]
            b.emit(blocks)

        # multiplication gadget rows: for tanh positions (1 - t^2 +- g_p)^2,
        # for square positions (2u +- g_p)^2; identity positions pass through.
        def sel_rows(positions):
            m = np.zeros((len(positions), b.frame.width_of("g")))
            for r_, p_ in enumerate(positions):
                m[r_, p_] = 1.0
            return m

        blocks = []
        if len(tpos):
            st = sel_rows(tpos)
            nt = len(tpos)
            blocks.append(
                ("pt", _SQ_TAG, [(-np.eye(nt), "tsq"), (st, "g")], np.ones(nt))
            )
            blocks.append(
                ("mt", _SQ_TAG, [(-np.eye(nt), "tsq"), (-st, "g")], np.ones(nt))
            )
        if len(spos):
            ss = sel_rows(spos)
            ns = len(spos)
            blocks.append(
                ("ps", _SQ_TAG, [(2.0 * np.eye(ns), f"u{k}"), (ss, "g")], np.zeros(ns))
            )
            blocks.append(
                ("ms", _SQ_TAG, [(2.0 * np.eye(ns), f"u{k}"), (-ss, "g")], np.zeros(ns))
            )
        if len(ipos):
            blocks.append(("gid", _ID_TAG, [(sel_rows(ipos), "g")], np.zeros(len(ipos))))
        blocks += [b.carry(n) for n in live]
        b.emit(blocks)

        # fold the quarter-difference and W^T in one linear layer
        terms = []
        if len(tpos):
            terms.append((0.25 * wt[:, tpos], "pt"))
            terms.append((-0.25 * wt[:, tpos], "mt"))
        if len(spos):
            terms.append((0.25 * wt[:, spos], "ps"))
            terms.append((-0.25 * wt[:, spos], "ms"))
        if len(ipos):
            terms.append((wt[:, ipos], "gid"))
        blocks = [("g", _ID_TAG, terms, np.zeros(lay.in_dim))]
        blocks += [b.carry(n) for n in live]
        b.emit(blocks)

    out = b.network()
    assert out.output_dim == d
    return out


def jacobian_network(net: Network) -> Network:
    """Network emitting the flattened Jacobian, rows = output coordinates."""
    parts = [(derivative_network(net, i), 0) for i in range(net.output_dim)]
    return parallel(parts, net.input_dim)


# -- step networks ------------------------------------------------------------------


def step_network(
    generator: Network,
    c1: float,
    c2: float,
    x_const: np.ndarray | None = None,
    x_scale: float = 1.0,
    extra_carry: int = 0,
) -> Network:
    """The map z -> c1 z + c2 J_G(z)^T (G(z) - x) with x handled three ways.

    Default (x_const None, scale 1): input (z, x), output (step, x) with x
    passed through unchanged. With x_scale s, the x channel holds s*x and
    consumers divide by s. With x_const, x is folded into biases: input and
    output are just z. extra_carry appends input channels carried verbatim
    (used for the ball-noise channel during descent stages).
    """
    _smooth_or_raise(generator, "step_network")
    if generator.input_dim != generator.output_dim:
        raise DimensionError("step networks need a square generator")
    d = generator.input_dim
    amortized = x_const is None

    jnet = jacobian_network(generator)
    parts = [(jnet, 0), (generator, 0), (identity_chain(d, 1), 0)]
    width = d
    if amortized:
        parts.append((identity_chain(d, 1), width))
        width += d
    if extra_carry:
        parts.append((identity_chain(extra_carry, 1), width))
        width += extra_carry
    stage_a = parallel(parts, width)
    # frame after stage_a: Jflat (d^2) | G (d) | z (d) | [sx (d)] | [carry]
    frame = [("J", d * d), ("G", d), ("z", d)]
    if amortized:
        frame.append(("sx", d))
    if extra_carry:
        frame.append(("carry", extra_carry))
    b = _Builder(frame)

    rep = np.zeros((d * d, d))  # residual r_i repeated across j: index i*d+j
    for i in range(d):
        rep[i * d : (i + 1) * d, i] = 1.0
    terms_r = [(rep, "G")]
    bias_r = np.zeros(d * d)
    if amortized:
        terms_r.append((-rep / x_scale, "sx"))
    else:
        bias_r = -rep @ np.asarray(x_const, dtype=np.float64)

    eye2 = np.eye(d * d)
    blocks = [
        ("p", _SQ_TAG, [(eye2, "J")] + terms_r, bias_r),
        ("q", _SQ_TAG, [(eye2, "J")] + [(-m, s) for m, s in terms_r], -bias_r),
        b.carry("z"),
    ]
    if amortized:
        blocks.append(b.carry("sx"))
    if extra_carry:
        blocks.append(b.carry("carry"))
    b.emit(blocks)

    # z'_j = c1 z_j + c2 sum_i (p - q)_{i d + j} / 4
    collect = np.zeros((d, d * d))
    for i in range(d):
        for j in range(d):
            collect[j, i * d + j] = 1.0
    blocks = [
        (
            "z",
            _ID_TAG,
            [(0.25 * c2 * collect, "p"), (-0.25 * c2 * collect, "q"), (c1 * np.eye(d), "z")],
            np.zeros(d),
        )
    ]
    if amortized:
        blocks.append(b.carry("sx"))
    if extra_carry:
        blocks.append(b.carry("carry"))
    b.emit(blocks)

    tail = b.network()
    return compose(stage_a, tail)


# -- encoder assembly -----------------------------------------------------------------


@dataclass
class CompiledEncoder:
    """The pipeline as a deep latent Gaussian model.

    Amortized input: (z0, x, n); plain input: (z0, n). z0 is ignored (the
    zeroing stage kills it), n is the uniform ball perturbation supplied by
    the caller, drawn at stage S+1 with the shared counter conventions.
    """

    dlg: DeepLatentGaussian
    gd_stage_count: int
    langevin_stage_count: int
    step_variance: float
    eta: float
    amortized: bool
    carry_scale: float
    dim: int
    init_radius: float
    x: np.ndarray | None  # baked observation when not amortized

    @property
    def stages(self) -> PipelineStages:
        return PipelineStages(
            gd_steps=self.gd_stage_count, langevin_steps=self.langevin_stage_count
        )

    def size(self) -> int:
        return self.dlg.size()


def compile_encoder(
    problem: PosteriorProblem,
    gd_plan: GdPlan,
    plan: SamplerPlan,
    amortized: bool = True,
    carry_scale: float = DEFAULT_CARRY_SCALE,
) -> CompiledEncoder:
    g = problem.model.generator
    d = problem.dim
    S, K = gd_plan.steps, plan.steps
    h = plan.h
    lam = carry_scale if amortized else 1.0

    if amortized:
        # input (z0, x, n) -> (0, lam*x, n)
        zero = Network(
            [
                Layer(
                    np.vstack(
                        [
                            np.zeros((d, 3 * d)),
                            np.hstack([np.zeros((d, d)), lam * np.eye(d), np.zeros((d, d))]),
                            np.hstack([np.zeros((d, 2 * d)), np.eye(d)]),
                        ]
                    ),
                    np.zeros(3 * d),
                    _ID_TAG,
                )
            ],
            3 * d,
        )
        gd_step = step_network(g, 1.0, -gd_plan.eta, x_scale=lam, extra_carry=d)
        init = Network(
            [
                Layer(
                    np.vstack(
                        [
                            np.hstack([np.eye(d), np.zeros((d, d)), np.eye(d)]),
                            np.hstack([np.zeros((d, d)), np.eye(d), np.zeros((d, d))]),
                        ]
                    ),
                    np.zeros(2 * d),
                    _ID_TAG,
                )
            ],
            3 * d,
        )
        lan_step = step_network(g, 1.0 - h, -h / problem.beta**2, x_scale=lam)
        out = Network(
            [Layer(np.hstack([np.eye(d), np.zeros((d, d))]), np.zeros(d), _ID_TAG)], 2 * d
        )
    else:
        # input (z0, n) -> (0, n)
        zero = Network(
            [
                Layer(
                    np.vstack(
                        [
                            np.zeros((d, 2 * d)),
                            np.hstack([np.zeros((d, d)), np.eye(d)]),
                        ]
                    ),
                    np.zeros(2 * d),
                    _ID_TAG,
                )
            ],
            2 * d,
        )
        gd_step = step_network(g, 1.0, -gd_plan.eta, x_const=problem.x, extra_carry=d)
        init = Network(
            [Layer(np.hstack([np.eye(d), np.eye(d)]), np.zeros(d), _ID_TAG)], 2 * d
        )
        lan_step = step_network(g, 1.0 - h, -h / problem.beta**2, x_const=problem.x)
        out = identity_chain(d, 1)

    stages = (
        [(zero, 0.0)]
        + [(gd_step, 0.0)] * S
        + [(init, 0.0)]
        + [(lan_step, 2.0 * h)] * K
        + [(out, 0.0)]
    )
    return CompiledEncoder(
        dlg=DeepLatentGaussian(stages),
        gd_stage_count=S,
        langevin_stage_count=K,
        step_variance=2.0 * h,
        eta=gd_plan.eta,
        amortized=amortized,
        carry_scale=lam,
        dim=d,
        init_radius=plan.init_radius,
        x=None if amortized else problem.x.copy(),
    )


def encoder_inputs(
    encoder: CompiledEncoder, x: np.ndarray, stream, draws: np.ndarray
) -> np.ndarray:
    """Batch of encoder input vectors with caller-sampled ball noise.

    The noise counters match sampler.initialize_batch exactly, so a compiled
    encoder given the same stream replays the direct pipeline's perturbation.
    """
    d = encoder.dim
    draws = np.asarray(draws, dtype=np.uint64)
    noise = ball_points(stream, encoder.stages.init_stage, draws, d, encoder.init_radius)
    z0 = np.zeros((len(draws), d))
    if encoder.amortized:
        xs = np.broadcast_to(np.asarray(x, dtype=np.float64), (len(draws), d))
        return np.concatenate([z0, xs, noise], axis=1)
    return np.concatenate([z0, noise], axis=1)


def run_encoder(
    encoder: CompiledEncoder, x: np.ndarray, stream, draws: np.ndarray
) -> np.ndarray:
    """Samples from the compiled encoder, shape (len(draws), d)."""
    inputs = encoder_inputs(encoder, x, stream, draws)
    return sample_dlg_batch(encoder.dlg, inputs, stream, np.asarray(draws, dtype=np.uint64))


# -- serialization ----------------------------------------------------------------------

ENCODER_FORMAT = "latgauss-encoder-v1"


def save_encoder(encoder: CompiledEncoder, path):
    """JSON artifact; repeated stage networks are stored once and referenced."""
    unique = []
    ids = {}
    stage_rows = []
    for net, var in encoder.dlg.stages:
        key = id(net)
        if key not in ids:
            ids[key] = len(unique)
            unique.append(net)
        stage_rows.append({"network": ids[key], "variance": var})
    doc = {
        "format": ENCODER_FORMAT,
        "dim": encoder.dim,
        "gd_stage_count": encoder.gd_stage_count,
        "langevin_stage_count": encoder.langevin_stage_count,
        "step_variance": encoder.step_variance,
        "eta": encoder.eta,
        "amortized": encoder.amortized,
        "carry_scale": encoder.carry_scale,
        "init_radius": encoder.init_radius,
        "x": None if encoder.x is None else encoder.x.tolist(),
        "networks": [json.loads(n.to_json()) for n in unique],
        "stages": stage_rows,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_encoder(path) -> CompiledEncoder:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != ENCODER_FORMAT:
        raise ValueError(f"unrecognized encoder format {doc.get('format')!r}")
    nets = [Network.from_json(json.dumps(spec)) for spec in doc["networks"]]
    stages = [(nets[row["network"]], row["variance"]) for row in doc["stages"]]
    return CompiledEncoder(
        dlg=DeepLatentGaussian(stages),
        gd_stage_count=doc["gd_stage_count"],
        langevin_stage_count=doc["langevin_stage_count"],
        step_variance=doc["step_variance"],
        eta=doc["eta"],
        amortized=doc["amortized"],
        carry_scale=doc["carry_scale"],
        dim=doc["dim"],
        init_radius=doc["init_radius"],
        x=None if doc["x"] is None else np.array(doc["x"]),
    )


def manifest(encoder: CompiledEncoder) -> dict:
    dlg = encoder.dlg
    return {
        "dim": encoder.dim,
        "gd_stage_count": encoder.gd_stage_count,
        "langevin_stage_count": encoder.langevin_stage_count,
        "total_stages": len(dlg.stages),
        "step_variance": encoder.step_variance,
        "eta": encoder.eta,
        "amortized": encoder.amortized,
        "carry_scale": encoder.carry_scale,
        "init_radius": encoder.init_radius,
        "parameter_count": dlg.size(),
        "max_stage_depth": max(net.depth for net, _ in dlg.stages),
        "input_dim": dlg.input_dim,
        "output_dim": dlg.output_dim,
    }


# -- equivalence ---------------------------------------------------------------------


EQUIVALENCE_TOLERANCE = 1e-6  # max relative deviation the equivalence gate allows


def equivalence_deviation(
    problem: PosteriorProblem,
    planned: PipelinePlan,
    encoder: CompiledEncoder,
    stream,
    draws: int = 16,
) -> tuple[float, np.ndarray]:
    """Max relative gap between compiled samples and the direct pipeline.

    Both sides share one noise stream. planned is the plan the encoder was
    compiled from (pipeline.plan_truncated), whose descent ran every planned
    step with no early stop, as the encoder replays every stage. Returns
    (deviation, compiled samples), so a caller can hold another encoder, such
    as a reloaded artifact, to the same draws without rerunning the chains.
    """
    direct = run_planned_chains(problem, planned, stream, draws).finals
    compiled = run_encoder(encoder, problem.x, stream, np.arange(draws, dtype=np.uint64))
    gap = np.abs(compiled - direct)
    return float(np.max(gap / (1.0 + np.abs(direct)))), compiled
