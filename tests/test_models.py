import numpy as np
import pytest

from latgauss.errors import DimensionError
from latgauss.models import (
    DeepLatentGaussian,
    sample_dlg_batch,
    write_samples_csv,
)
from latgauss.nets import identity_net, linear_net, scale_net, tanh_residual_net
from latgauss.rng import NoiseStream, ZeroStream


def sample_dlg(model, inp, stream, draw=0):
    """Stage-by-stage reference for sample_dlg_batch on one input row, as a
    one-row batch: stage s noise at counter (s, draw)."""
    state = np.asarray(inp, dtype=np.float64)[None, :]
    for s, (net, var) in enumerate(model.stages):
        state = net.eval_batch(state)
        if var > 0.0:
            noise = stream.normal_matrix(s, np.array([draw], dtype=np.uint64), state.shape[1])
            state = state + np.sqrt(var) * noise
    return state[0]


def test_dlg_stage_chaining_and_eval():
    # two deterministic stages compose like function application
    dlg = DeepLatentGaussian([(scale_net(2, 2.0), 0.0), (tanh_residual_net(2, 0.5), 0.0)])
    z = np.array([0.3, -0.4])
    want = tanh_residual_net(2, 0.5).eval_batch(scale_net(2, 2.0).eval_batch(z[None]))[0]
    assert np.allclose(sample_dlg(dlg, z, ZeroStream()), want)


def test_dlg_dimension_mismatch():
    with pytest.raises(DimensionError):
        DeepLatentGaussian(
            [(linear_net(np.ones((3, 2)), np.zeros(3)), 0.0), (identity_net(2), 0.0)]
        )


def test_dlg_batch_matches_scalar():
    dlg = DeepLatentGaussian([(tanh_residual_net(2, 0.5), 0.3), (identity_net(2), 0.1)])
    s = NoiseStream(9)
    Z = np.array([[0.1, 0.2], [-0.5, 0.4], [1.0, -1.0]])
    batch = sample_dlg_batch(dlg, Z, s)
    for i in range(3):
        assert np.array_equal(batch[i], sample_dlg(dlg, Z[i], s, draw=i))


@pytest.mark.parametrize("block_words", [1, 7 * 4 * 2, 10**9])
def test_dlg_batch_noise_blocks_match_scalar(monkeypatch, block_words):
    # runs of equal variance and width, broken by a variance change, a
    # deterministic stage and a width change; blocks of 1 or 7 stages or one
    # block per run
    monkeypatch.setattr("latgauss.rng._BLOCK_WORDS", block_words)
    widen = linear_net(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    stages = [(tanh_residual_net(2, 0.5), 0.3)] * 9 + [(identity_net(2), 0.1)] * 3
    stages += [(scale_net(2, 0.9), 0.0), (identity_net(2), 0.1), (widen, 0.1)]
    stages += [(tanh_residual_net(3, 0.2), 0.1)] * 10
    dlg = DeepLatentGaussian(stages)
    s = NoiseStream(4)
    Z = np.array([[0.1, 0.2], [-0.5, 0.4], [1.0, -1.0], [0.0, 0.3]])
    draws = np.array([3, 0, 8, 5], dtype=np.uint64)
    batch = sample_dlg_batch(dlg, Z, s, draws)
    for i in range(4):
        assert np.array_equal(batch[i], sample_dlg(dlg, Z[i], s, draw=int(draws[i])))


def test_dlg_noise_variance():
    dlg = DeepLatentGaussian([(identity_net(1), 0.25)])
    out = sample_dlg_batch(dlg, np.zeros((30_000, 1)), NoiseStream(2))
    assert abs(out.var() - 0.25) <= 5 * 0.25 * np.sqrt(2.0 / out.size)


def test_samples_csv_round_trip(tmp_path):
    path = tmp_path / "s.csv"
    data = np.random.default_rng(0).normal(size=(20, 3))
    write_samples_csv(path, data, sidecar={"note": "test"})
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "z0,z1,z2"
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back, data)  # repr round-trips float64 exactly
    assert (tmp_path / "s.csv.json").exists()
