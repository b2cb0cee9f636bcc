"""Compile the sampling pipeline into a deep latent Gaussian encoder.

The pipeline (gradient descent from zero, ball-perturbed start, K Langevin
steps) is an alternation of deterministic maps and isotropic Gaussian noise,
so it is extensionally a deep latent Gaussian model. This module builds that
model mechanically out of network gadgets in the smooth activation set:

* _sweep: reverse-mode differentiation as a network. One forward tape of a
  smooth network G keeps what sigma' needs (square preactivations, tanh
  outputs squared one layer later), and one reverse sweep, seeded with the
  residual wire, realizes each sigma'(u) * delta product through the
  square-activation multiplication identity a*b = ((a+b)^2 - (a-b)^2) / 4
  and folds W^T into the next gadget or the output. Its size is a small
  multiple of G's, as the cheap-gradient principle promises.
* step_network: the map (z, x) -> (c1 z + c2 J_G(z)^T (G(z) - x), x), the
  shared shape of descent steps (c1=1, c2=-eta) and Langevin drift steps
  (c1=1-h, c2=-h/beta^2): the sweep seeded with the residual wire G(z) - x,
  which the forward tape emits.

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
channel. The encoder is one q(z | x) for every observation x: it takes input
(z0, x, n) and carries x through every stage at scale DEFAULT_CARRY_SCALE.
Stage noise is isotropic over the whole stage output, so an identity carry
would corrupt x by sqrt(2h) * xi per Langevin stage; scaling the channel up
attenuates that corruption to sqrt(2hK) / DEFAULT_CARRY_SCALE, far below the
equivalence tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, UnsupportedDifferentiation
from .models import DeepLatentGaussian, sample_dlg_batch
from .nets import _CODE, Layer, Network, linear_net
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


# -- reverse-mode sweep -------------------------------------------------------------
#
# A cotangent in the sweep is a linear expression over the current frame's
# wire groups: {group: matrix}. The next multiplication gadget reads it inside
# its own rows, so no cotangent, and no W^T of an identity layer, costs a
# layer of its own.


def _expr_map(mat, expr):
    return {src: mat @ m for src, m in expr.items()}


def _expr_rows(expr, rows):
    return {src: m[rows] for src, m in expr.items()}


def _expr_terms(expr, scale=1.0):
    return [(scale * m, src) for src, m in expr.items()]


def _scatter(positions, rows):
    """(rows, len(positions)) matrix placing a short vector at the positions."""
    return np.eye(rows)[:, positions]


def _gadget_blocks(k, t, s, i, g):
    """Multiplication gadget rows for layer k's sigma'(u) * g: (1 - tsq +- g)^2
    at tanh neurons t, (2u +- g)^2 at square neurons s, g itself at identity
    neurons i; g is an expression."""
    blocks = []
    if len(t):
        gt = _expr_rows(g, t)
        tsq = (-np.eye(len(t)), f"tsq{k}")
        blocks.append(("pt", _SQ_TAG, [tsq] + _expr_terms(gt), np.ones(len(t))))
        blocks.append(("mt", _SQ_TAG, [tsq] + _expr_terms(gt, -1.0), np.ones(len(t))))
    if len(s):
        gs = _expr_rows(g, s)
        u = (2.0 * np.eye(len(s)), f"u{k}")
        blocks.append(("ps", _SQ_TAG, [u] + _expr_terms(gs), np.zeros(len(s))))
        blocks.append(("ms", _SQ_TAG, [u] + _expr_terms(gs, -1.0), np.zeros(len(s))))
    if len(i):
        blocks.append(("gid", _ID_TAG, _expr_terms(_expr_rows(g, i)), np.zeros(len(i))))
    return blocks


def _sweep(net, groups, rides, c1, c2, shift) -> Network:
    """One forward tape and one reverse sweep: z -> (c1 z + c2 J(z)^T r, rides).

    groups are the input wire groups and net reads the group "z"; rides are
    input groups carried verbatim to the output after the gradient block.
    The sweep is seeded with the residual wire r = net(z) + shift, for
    shift = {group: matrix} over ride groups; the cotangents it carries back
    are linear in the wires, with no bias.

    The forward tape computes each layer's activations "a", copies the
    preactivations of its square neurons (u{k}), and squares its tanh
    outputs one layer later (tsq{k}). r replaces the output of an
    all-identity last layer, else a layer after it computes r. The reverse
    sweep then realizes each sigma'(u) * g product with the square-activation
    identity a*b = ((a+b)^2 - (a-b)^2)/4 (_gadget_blocks) and folds the
    quarter difference into W^T; the last fold writes the output block.
    """
    tanh_code, sq_code = _CODE[_TANH_TAG], _CODE[_SQ_TAG]
    L = net.depth
    passing = ["z"] + list(rides)
    tpos = [np.flatnonzero(lay.codes == tanh_code) for lay in net.layers]
    spos = [np.flatnonzero(lay.codes == sq_code) for lay in net.layers]
    b = _Builder(groups)

    def carries(upto, made=()):
        """Carries of the passing groups and the forward data of layers 0..upto."""
        keep = set(passing) | {f"{p}{j}" for j in range(upto + 1) for p in ("tsq", "u")}
        return [b.carry(nm) for nm in b.frame.names if nm in keep and nm not in made]

    def emit(blocks, upto):
        b.emit(blocks + carries(upto, {blk[0] for blk in blocks}))

    def square_tanh(k, sel):
        return (f"tsq{k}", _SQ_TAG, [(sel, "a")], np.zeros(len(sel)))

    # forward tape
    src = "z"
    for k, lay in enumerate(net.layers):
        t, s = tpos[k], spos[k]
        blocks = []
        if k < L - 1 or len(t) or len(s):
            blocks.append(("a", lay.activation_tags(), [(lay.weight, src)], lay.bias))
        else:  # all-identity last layer: r is its output
            terms = [(lay.weight, src)] + _expr_terms(shift)
            blocks.append(("r", _ID_TAG, terms, lay.bias))
        if len(s):
            blocks.append((f"u{k}", _ID_TAG, [(lay.weight[s], src)], lay.bias[s]))
        if k and len(tpos[k - 1]):
            blocks.append(square_tanh(k - 1, np.eye(net.layers[k - 1].out_dim)[tpos[k - 1]]))
        emit(blocks, k - 1)
        src = "a"
    n, t = net.output_dim, tpos[-1]
    if len(t) or len(spos[-1]):
        blocks = [("r", _ID_TAG, [(np.eye(n), "a")] + _expr_terms(shift), np.zeros(n))]
        if len(t):
            blocks.append(square_tanh(L - 1, np.eye(n)[t]))
        emit(blocks, L - 1)
    g = {"r": np.eye(n)}

    # reverse sweep: g is the cotangent at layer k's output
    for k in range(L - 1, -1, -1):
        lay = net.layers[k]
        t, s, n = tpos[k], spos[k], lay.out_dim
        i = np.setdiff1d(np.arange(n), np.concatenate([t, s]))
        if not (len(t) or len(s)):
            delta = g
        else:
            emit(_gadget_blocks(k, t, s, i, g), k - 1)
            quarter = (("pt", t, 0.25), ("mt", t, -0.25), ("ps", s, 0.25), ("ms", s, -0.25),
                       ("gid", i, 1.0))
            delta = {nm: w * _scatter(pos, n) for nm, pos, w in quarter if nm in b.frame.names}
        g = _expr_map(lay.weight.T, delta)

    terms = _expr_terms(g, c2) + [(c1 * np.eye(net.input_dim), "z")]
    b.emit([("z", _ID_TAG, terms, np.zeros(net.input_dim))] + [b.carry(nm) for nm in rides])
    return b.network()


# -- step networks ------------------------------------------------------------------


def step_network(
    generator: Network,
    c1: float,
    c2: float,
    x_scale: float = 1.0,
    extra_carry: int = 0,
) -> Network:
    """The map (z, s x) -> (c1 z + c2 J_G(z)^T (G(z) - x), s x).

    The x channel holds s*x for s = x_scale and is passed through unchanged;
    the step divides it by s. extra_carry appends input channels carried
    verbatim (used for the ball-noise channel during descent stages).

    One forward tape of G emits the residual r = G(z) - x as a wire, and one
    reverse sweep seeded with r forms J^T r and writes c1 z + c2 J^T r into
    the z block (_sweep). The step costs a small multiple of G's own size:
    24d parameters at depth 4 for z + alpha tanh(z), whose G has 4d.
    """
    if not generator.smooth:
        raise UnsupportedDifferentiation("step_network requires a smooth network")
    if generator.input_dim != generator.output_dim:
        raise DimensionError("step networks need a square generator")
    d = generator.input_dim
    groups = [("z", d), ("sx", d)]
    if extra_carry:
        groups.append(("carry", extra_carry))
    rides = [name for name, _ in groups[1:]]
    return _sweep(generator, groups, rides, c1, c2, shift={"sx": -np.eye(d) / x_scale})


# -- encoder assembly -----------------------------------------------------------------


@dataclass
class CompiledEncoder:
    """The pipeline as a deep latent Gaussian model.

    Input: (z0, x, n). z0 is ignored (the zeroing stage kills it), n is the
    uniform ball perturbation supplied by the caller, drawn at stage S+1 with
    the shared counter conventions.
    """

    dlg: DeepLatentGaussian
    dim: int
    gd_stage_count: int
    langevin_stage_count: int
    step_variance: float
    eta: float
    carry_scale: float
    init_radius: float

    @property
    def stages(self) -> PipelineStages:
        return PipelineStages(self.gd_stage_count)


# The scalar metadata fields in declaration order: save_encoder writes them in
# this order, load_encoder reads them back, and manifest reports them.
_METADATA = tuple(f.name for f in fields(CompiledEncoder) if f.name != "dlg")


def compile_encoder(
    problem: PosteriorProblem,
    gd_plan: GdPlan,
    plan: SamplerPlan,
) -> CompiledEncoder:
    g = problem.generator
    d = problem.dim
    S, K = gd_plan.steps, plan.steps
    h = plan.h
    lam = DEFAULT_CARRY_SCALE
    E, Z = np.eye(d), np.zeros((d, d))
    # input (z0, x, n) -> (0, lam*x, n) -> (z + n, lam*x) -> z
    zero = linear_net(np.block([[Z, Z, Z], [Z, lam * E, Z], [Z, Z, E]]))
    init = linear_net(np.block([[E, Z, E], [Z, E, Z]]))
    out = linear_net(np.block([[E, Z]]))
    gd_step = step_network(g, 1.0, -gd_plan.eta, x_scale=lam, extra_carry=d)
    lan_step = step_network(g, 1.0 - h, -h / problem.beta**2, x_scale=lam)

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
        carry_scale=lam,
        dim=d,
        init_radius=plan.init_radius,
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
    xs = np.broadcast_to(np.asarray(x, dtype=np.float64), (len(draws), d))
    return np.concatenate([z0, xs, noise], axis=1)


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
        **{name: getattr(encoder, name) for name in _METADATA},
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
    # files written before baked-x encoders were removed carry these fields
    for field, legacy in (("x", None), ("amortized", True)):
        if doc.get(field, legacy) is not legacy:
            raise ValueError(
                f"encoder field {field!r} marks a baked-x encoder; baked-x encoders were "
                "removed and the encoder takes x as input, so compile it again"
            )
    nets = [Network.from_json(json.dumps(spec)) for spec in doc["networks"]]
    stages = [(nets[row["network"]], row["variance"]) for row in doc["stages"]]
    return CompiledEncoder(
        dlg=DeepLatentGaussian(stages),
        **{name: doc[name] for name in _METADATA},
    )


def manifest(encoder: CompiledEncoder, generator: Network) -> dict:
    """Encoder summary; the *_params fields set the per-stage size against the
    generator's (None for a stage kind the encoder has no stage of)."""
    dlg = encoder.dlg
    S, K = encoder.gd_stage_count, encoder.langevin_stage_count
    return {
        **{name: getattr(encoder, name) for name in _METADATA},
        "total_stages": len(dlg.stages),
        "parameter_count": dlg.size(),
        "generator_params": generator.size(),
        "gd_stage_params": dlg.stages[encoder.stages.gd_stage(0)][0].size() if S else None,
        "langevin_stage_params": dlg.stages[encoder.stages.langevin_stage(0)][0].size() if K else None,
        "max_stage_depth": max(net.depth for net, _ in dlg.stages),
        "input_dim": dlg.input_dim,
        "output_dim": dlg.output_dim,
    }


# -- equivalence ---------------------------------------------------------------------


EQUIVALENCE_TOLERANCE = 1e-6  # max relative deviation the equivalence gate allows


def equivalence_gate(deviation: float, draws: int) -> dict:
    """Equivalence gate over `draws` shared-noise samples: the max relative
    deviation (equivalence_deviation) is held to EQUIVALENCE_TOLERANCE."""
    return {
        "draws": int(draws),
        "max_relative_deviation": float(deviation),
        "tolerance": EQUIVALENCE_TOLERANCE,
        "pass": bool(deviation <= EQUIVALENCE_TOLERANCE),
    }


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
