import dataclasses
import decimal
import json
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_generators, tanh_problem
from latgauss import nets
from latgauss.compiler import (
    DEFAULT_CARRY_SCALE,
    CompiledEncoder,
    compile_encoder,
    encoder_inputs,
    equivalence_deviation,
    load_encoder,
    manifest,
    run_encoder,
    save_encoder,
    step_network,
)
from latgauss.errors import UnsupportedDifferentiation
from latgauss.models import DeepLatentGaussian
from latgauss.nets import Layer, Network
from latgauss.pipeline import plan_truncated
from latgauss.rng import NoiseStream
from latgauss.sampler import initialize_batch

rng = np.random.default_rng(7)


def test_step_network_rejects_sign():
    sign_net = Network([Layer(np.eye(2), np.zeros(2), "sign")], 2)
    with pytest.raises(UnsupportedDifferentiation):
        step_network(sign_net, 1.0, -0.1)


def test_step_network_exact():
    gen = nets.random_residual_tanh_net(3, seed=21, alpha=0.4)
    x = rng.normal(size=3)
    c1, c2 = 0.95, -0.02
    Z = rng.normal(size=(6, 3))
    want = np.empty_like(Z)
    for r, z in enumerate(Z):
        J = gen.jacobian_batch(z[None])[0]
        want[r] = c1 * z + c2 * J.T @ (gen.eval_batch(z[None])[0] - x)

    xs = np.broadcast_to(x, Z.shape)
    sn = step_network(gen, c1, c2)  # input (z, x)
    out = sn.eval_batch(np.concatenate([Z, xs], axis=1))
    assert np.max(np.abs(out[:, :3] - want)) <= 1e-10
    assert np.array_equal(out[:, 3:], xs)

    # extra carry channels ride after x, unchanged
    carry = rng.normal(size=(6, 2))
    out2 = step_network(gen, c1, c2, extra_carry=2).eval_batch(np.concatenate([Z, xs, carry], axis=1))
    assert np.max(np.abs(out2[:, :3] - want)) <= 1e-10
    assert np.array_equal(out2[:, 3:], np.hstack([xs, carry]))


def relative_gap(got, want):
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


UNIT_ROUNDOFF = 2.0**-53


def _tags(layer):
    return np.array([nets.ELEMENTWISE_ACTIVATIONS[c] for c in layer.codes])


def _exact_activation(tag, u):
    if tag == "square":
        return u * u
    if tag == "tanh":  # through exp(-2|u|) <= 1, so nothing overflows
        e = (-2 * abs(u)).exp()
        return (1 - e) / (1 + e) if u >= 0 else (e - 1) / (1 + e)
    return u


def exact_eval(net, inputs):
    """net on a float64 batch in 60-digit decimal arithmetic, rounded once to
    float64 at the end; Decimal(float) takes inputs and weights exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        state = [[Decimal(v) for v in row] for row in np.asarray(inputs, dtype=np.float64)]
        for lay in net.layers:
            weight = [[Decimal(w) for w in row] for row in lay.weight]
            bias = [Decimal(b) for b in lay.bias]
            state = [
                [_exact_activation(tag, sum(w * a for w, a in zip(wrow, row)) + b)
                 for tag, wrow, b in zip(_tags(lay), weight, bias)]
                for row in state
            ]
        return np.array([[float(v) for v in row] for row in state])


def rounding_bound(net, inputs):
    """Bound on |net.eval_batch(inputs) - net(inputs)| in float64, by running
    error analysis (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3). A preactivation is off by |W| e, for the gap e carried in, plus
    gamma_{n+1} (|W||a| + |b|) for its n-term dot product and its bias. A
    square neuron turns a gap e_u into e_u (2|u| + e_u) plus one rounding of
    u^2; tanh passes e_u on (its slope is at most 1) plus 4 ulps of its value;
    identity passes e_u on."""
    a = np.asarray(inputs, dtype=np.float64)
    e = np.zeros_like(a)
    for lay in net.layers:
        n = lay.in_dim + 1
        gamma = n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)
        w = np.abs(lay.weight)
        u = a @ lay.weight.T
        u += lay.bias
        e_u = e @ w.T + gamma * (np.abs(a) @ w.T + np.abs(lay.bias))
        a = Network([lay], lay.in_dim).eval_batch(a)
        sq, th = _tags(lay) == "square", _tags(lay) == "tanh"
        e = e_u.copy()
        e[:, sq] = e_u[:, sq] * (2 * np.abs(u[:, sq]) + e_u[:, sq]) + UNIT_ROUNDOFF * a[:, sq]
        e[:, th] = e_u[:, th] + 8 * UNIT_ROUNDOFF * np.abs(a[:, th])
    return e


@settings(max_examples=60, deadline=None)
@given(gen=smooth_generators(), seed=st.integers(0, 2**32 - 1))
def test_sweeps_match_reverse_mode(gen, seed):
    # the compiled step is c1 z + c2 J^T (G(z) - x), with a scaled x channel,
    # and with an unscaled one followed by a carry. The step network's
    # function is held to reverse mode at 1e-9, and its float64 evaluation to
    # that function within its rounding bound:
    # a square-identity product a*b rounds to about u (|a| + |b|)^2, so where
    # stacked square layers reach 1e8, a correct sweep's float64 output sits
    # up to 3e-8 (relative) from reverse mode.
    d = gen.input_dim
    draws = np.random.default_rng(seed)
    Z = draws.normal(size=(6, d))
    x = draws.normal(size=d)
    c1, c2 = 0.97, -0.05
    _, pullback = gen.vjp_batch(Z, gen.eval_batch(Z) - x)
    want = c1 * Z + c2 * pullback

    scale = 1e3
    sx = np.broadcast_to(scale * x, Z.shape)
    x_carry = np.hstack([np.broadcast_to(x, Z.shape), draws.normal(size=(6, 2))])
    cases = [
        (step_network(gen, c1, c2, x_scale=scale), np.hstack([Z, sx]), sx),
        (step_network(gen, c1, c2, extra_carry=2), np.hstack([Z, x_carry]), x_carry),
    ]
    for net, inputs, rides in cases:
        out = net.eval_batch(inputs)
        exact = exact_eval(net, inputs)
        assert relative_gap(exact[:, :d], want) <= 1e-9
        # exact was rounded once to float64
        slack = rounding_bound(net, inputs) + UNIT_ROUNDOFF * np.abs(exact)
        assert np.all(np.abs(out - exact) <= slack)
        assert np.array_equal(out[:, d:], rides)


def fixed_sweep_net(name, draws):
    if name == "mixed_tags":  # tanh, square and identity neurons in one layer
        return Network(
            [
                Layer(draws.normal(size=(5, 2)), draws.normal(size=5) * 0.1,
                      ["tanh", "square", "identity", "tanh", "square"]),
                Layer(draws.normal(size=(2, 5)) * 0.3, np.zeros(2), ["identity", "tanh"]),
            ],
            2,
        )
    return Network(  # a square output layer
        [
            Layer(draws.normal(size=(3, 3)), np.zeros(3), "tanh"),
            Layer(draws.normal(size=(3, 3)), draws.normal(size=3), "square"),
        ],
        3,
    )


@pytest.mark.parametrize("name", ["mixed_tags", "square_output"])
def test_step_network_fixed_nets_match_reverse_mode(name):
    draws = np.random.default_rng(7)
    gen = fixed_sweep_net(name, draws)
    d = gen.input_dim
    Z = draws.normal(size=(9, d)) * 0.7
    x = draws.normal(size=d)
    c1, c2 = 0.97, -0.05
    _, pullback = gen.vjp_batch(Z, gen.eval_batch(Z) - x)
    want = c1 * Z + c2 * pullback

    out = step_network(gen, c1, c2).eval_batch(np.hstack([Z, np.broadcast_to(x, Z.shape)]))
    assert np.max(np.abs(out[:, :d] - want)) <= 1e-9


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_langevin_stage_is_linear_in_generator_size(d):
    # one forward tape and one reverse sweep: z + a tanh(z) (|G| = 4d) costs
    # 24d parameters per stage at depth 4, and a dense residual generator at
    # most 6 |G|
    def stage(gen):
        return step_network(gen, 1.0 - 1e-3, -0.1, x_scale=DEFAULT_CARRY_SCALE)

    tanh_stage = stage(nets.tanh_residual_net(d, 0.5))
    assert tanh_stage.size() == 24 * d
    assert tanh_stage.depth == 4
    dense = nets.random_residual_tanh_net(d, seed=7)
    assert stage(dense).size() <= 6 * dense.size()


def compiled_setup(d=2, gd_steps=40, langevin_steps=150):
    problem = tanh_problem(d=d, beta=0.1, x=[0.8, -0.4][:d])
    return problem, plan_truncated(problem, gd_steps, langevin_steps)


def test_encoder_equivalence():
    problem, planned = compiled_setup()
    enc = compile_encoder(problem, planned.gd_plan, planned.plan)
    dev, _ = equivalence_deviation(problem, planned, enc, NoiseStream(20260819), draws=32)
    assert dev <= 1e-6
    # the sweep carries no cotangent bias, so no stage bias is a negative zero
    for net in {id(net): net for net, _ in enc.dlg.stages}.values():
        for lay in net.layers:
            assert not np.signbit(lay.bias[lay.bias == 0]).any()


def test_encoder_inputs_start_where_the_chains_start():
    # the region's center plus the encoder's ball-noise input columns are the
    # direct chains' starts bit for bit, not only within the equivalence gate
    problem, planned = compiled_setup()
    enc = compile_encoder(problem, planned.gd_plan, planned.plan)
    draws = np.arange(16, dtype=np.uint64) * 3 + 1
    direct = initialize_batch(problem, planned.region, planned.plan, NoiseStream(4), planned.stages, draws)
    noise = encoder_inputs(enc, problem.x, NoiseStream(4), draws)[:, -problem.dim :]
    assert np.array_equal(planned.region.center + noise, direct)
    assert not np.array_equal(direct[0], direct[1])


def round_trip(enc, tmp):
    """save -> load -> save: every metadata field survives and the second
    file has the first one's bytes. Returns the loaded encoder."""
    first, second = Path(tmp) / "enc.json", Path(tmp) / "again.json"
    save_encoder(enc, first)
    enc2 = load_encoder(first)
    for field in dataclasses.fields(CompiledEncoder):
        if field.name != "dlg":
            assert getattr(enc2, field.name) == getattr(enc, field.name), field.name
    save_encoder(enc2, second)
    assert second.read_bytes() == first.read_bytes()
    return enc2


def test_encoder_round_trip_bitwise(tmp_path):
    problem, planned = compiled_setup()
    enc = compile_encoder(problem, planned.gd_plan, planned.plan)
    enc2 = round_trip(enc, tmp_path)
    s = NoiseStream(5)
    draws = np.arange(8, dtype=np.uint64)
    assert np.array_equal(
        run_encoder(enc, problem.x, s, draws), run_encoder(enc2, problem.x, s, draws)
    )


def test_load_encoder_rejects_baked_x_files(tmp_path):
    # files from before baked-x encoders were removed carry "amortized" and
    # "x"; the amortized ones still load, a baked one fails at load time
    # naming the field, not later inside run_encoder
    problem, planned = compiled_setup(gd_steps=2, langevin_steps=3)
    enc = compile_encoder(problem, planned.gd_plan, planned.plan)
    path = tmp_path / "enc.json"
    save_encoder(enc, path)
    doc = json.loads(path.read_text())
    draws = np.arange(4, dtype=np.uint64)
    want = run_encoder(enc, problem.x, NoiseStream(5), draws)
    for legacy, field in [
        ({"amortized": True, "x": None}, None),
        ({"amortized": False, "x": None}, "amortized"),
        ({"amortized": True, "x": [0.8, -0.4]}, "x"),
        ({"amortized": False, "x": [0.8, -0.4]}, "x"),
    ]:
        path.write_text(json.dumps({**doc, **legacy}))
        if field is None:
            got = run_encoder(load_encoder(path), problem.x, NoiseStream(5), draws)
            assert np.array_equal(got, want)
        else:
            with pytest.raises(ValueError, match=f"field '{field}'.*takes x as input"):
                load_encoder(path)


@st.composite
def smooth_encoders(draw):
    """Encoders whose stages are random smooth nets of one dimension, some
    stages sharing a network, with zero and positive variances."""
    d = draw(st.integers(1, 3))
    nets_ = draw(st.lists(smooth_generators(d=d), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(nets_) - 1), min_size=1, max_size=6))
    variances = draw(st.lists(st.sampled_from([0.0, 0.01, 0.3]), min_size=len(picks), max_size=len(picks)))
    return CompiledEncoder(
        dlg=DeepLatentGaussian([(nets_[i], v) for i, v in zip(picks, variances)]),
        gd_stage_count=0,
        langevin_stage_count=len(picks),
        step_variance=0.01,
        eta=0.1,
        carry_scale=DEFAULT_CARRY_SCALE,
        dim=d,
        init_radius=0.5,
    )


@settings(max_examples=40, deadline=None)
@given(enc=smooth_encoders(), seed=st.integers(0, 2**32 - 1))
def test_encoder_round_trip_bitwise_on_random_smooth_stages(enc, seed):
    with tempfile.TemporaryDirectory() as tmp:
        enc2 = round_trip(enc, tmp)
    Z = np.random.default_rng(seed).normal(size=(7, enc.dim))
    assert len(enc2.dlg.stages) == len(enc.dlg.stages)
    for (net, var), (net2, var2) in zip(enc.dlg.stages, enc2.dlg.stages):
        assert var2 == var
        assert np.array_equal(net2.eval_batch(Z), net.eval_batch(Z))
    assert enc2.dlg.size() == enc.dlg.size()


def test_encoder_samples_do_not_depend_on_noise_block_size(monkeypatch):
    problem, planned = compiled_setup(gd_steps=5, langevin_steps=40)
    enc = compile_encoder(problem, planned.gd_plan, planned.plan)
    draws = np.arange(8, dtype=np.uint64) * 2 + 1
    width = max(net.output_dim for net, var in enc.dlg.stages if var > 0.0)
    runs = []
    # one stage per block, ragged blocks of 7 stages, one block for the chain
    for block_words in (1, 7 * len(draws) * width, 10**9):
        monkeypatch.setattr("latgauss.rng._BLOCK_WORDS", block_words)
        runs.append(run_encoder(enc, problem.x, NoiseStream(6), draws))
    assert np.array_equal(runs[1], runs[0])
    assert np.array_equal(runs[2], runs[0])


def test_manifest_fields():
    problem, planned = compiled_setup(gd_steps=5, langevin_steps=10)
    enc = compile_encoder(problem, planned.gd_plan, planned.plan)
    m = manifest(enc, problem.model.generator)
    assert m["gd_stage_count"] == 5
    assert m["langevin_stage_count"] == 10
    assert m["total_stages"] == 5 + 10 + 3
    assert m["input_dim"] == 3 * problem.dim  # (z0, x, noise channel)
    assert m["output_dim"] == problem.dim
    assert m["parameter_count"] > 0
    assert m["generator_params"] == problem.model.generator.size() == 4 * problem.dim
    assert m["gd_stage_params"] == enc.dlg.stages[1][0].size()
    assert m["langevin_stage_params"] == enc.dlg.stages[5 + 2][0].size() == 24 * problem.dim
