import numpy as np
import pytest

from latgauss.errors import EnumerationCap
from latgauss.lowerbound import (
    SignGenerator,
    apply_generator,
    demo_report,
    exact_orthant_posterior,
    generator_network,
    hypercube_closeness_test,
    pattern_to_vertex,
    posterior_encoder,
    retry_invert,
    retry_success_rate,
    sign_pattern,
    uniform_orthant_encoder,
    vertex_to_pattern,
)
from latgauss.rng import NoiseStream

GEN4 = SignGenerator(d=4, beta=0.05, rotation=1, mask=0b1010)


def test_pattern_vertex_round_trip():
    pats = np.arange(16)
    verts = pattern_to_vertex(pats, 4)
    assert verts.shape == (16, 4)
    assert set(np.unique(verts)) == {-1.0, 1.0}
    assert np.array_equal(vertex_to_pattern(verts), pats)


def test_sign_pattern_zero_counts_positive():
    assert sign_pattern(np.array([0.0, -0.1, 0.3]))[0] == 0b101


def test_code_table_is_a_bijection():
    assert sorted(GEN4.table.tolist()) == list(range(16))
    assert sorted(GEN4.code(p) for p in range(16)) == list(range(16))


def test_dimension_cap_enforced():
    with pytest.raises(EnumerationCap):
        SignGenerator(d=20, beta=0.05)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SignGenerator(d=4, beta=-0.1)
    with pytest.raises(ValueError):
        SignGenerator(d=4, beta=0.1, mask=1 << 4)


def test_beta_small_gate():
    assert SignGenerator(d=4, beta=0.01).beta_small
    assert not SignGenerator(d=4, beta=0.2).beta_small


def test_generator_network_matches_direct_application():
    net = generator_network(GEN4)
    Z = np.random.default_rng(0).normal(size=(50, 4))
    assert np.array_equal(net.eval_batch(Z), apply_generator(GEN4, Z))


def test_vertex_posterior_concentrates_on_preimage():
    v = pattern_to_vertex(GEN4.code(5), 4)[0]
    post = exact_orthant_posterior(GEN4, v)
    assert abs(post.sum() - 1.0) < 1e-12
    assert post[5] >= 1 - np.exp(-2 * 4)


def test_equidistant_vertices_share_mass():
    v = pattern_to_vertex(GEN4.code(5), 4)[0]
    v2 = pattern_to_vertex(GEN4.code(7), 4)[0]
    post = exact_orthant_posterior(GEN4, (v + v2) / 2.0)
    assert abs(post[5] - post[7]) < 1e-12


def test_large_beta_flattens_posterior():
    gen = SignGenerator(d=4, beta=1e6, rotation=1, mask=0b1010)
    v = pattern_to_vertex(gen.code(5), 4)[0]
    post = exact_orthant_posterior(gen, v)
    assert np.max(np.abs(post - 1 / 16)) < 1e-6


def test_closeness_test_passes_at_small_beta():
    rep = hypercube_closeness_test(GEN4, 20_000, 1.5, seed=4)
    assert rep["pass"]
    assert rep["fraction"] == 0.0
    assert rep["bound"] == pytest.approx(np.exp(-(1.5**2) * 4))


def test_closeness_noiseless_case():
    rep = hypercube_closeness_test(SignGenerator(d=4, beta=0.0), 5000, 1.2, seed=4)
    assert rep["fraction"] == 0.0


def test_posterior_encoder_retry_rate():
    gen8 = SignGenerator(d=8, beta=0.05, rotation=3, mask=0b10110100)
    rr = retry_success_rate(gen8, posterior_encoder, 1000, 4, 4, seed=11)
    assert rr["trials"] == 1000
    assert rr["rate"] >= 0.999


def test_uniform_encoder_matches_bernoulli_rate():
    # 16 orthant guesses, each hits with probability 2^-8
    gen8 = SignGenerator(d=8, beta=0.05, rotation=3, mask=0b10110100)
    ru = retry_success_rate(gen8, uniform_orthant_encoder, 2000, 4, 4, seed=12)
    cf = 1 - (1 - 2**-8) ** 16
    se = np.sqrt(cf * (1 - cf) / 2000)
    assert abs(ru["rate"] - cf) <= 4 * se


def test_zero_budget_returns_sentinel():
    gen8 = SignGenerator(d=8, beta=0.05, rotation=3, mask=0b10110100)
    out = retry_invert(
        gen8, posterior_encoder(gen8), pattern_to_vertex(3, 8)[0], 0, 0, NoiseStream(5)
    )
    assert np.array_equal(out, np.ones(8))


def test_demo_report_shape():
    rep = demo_report(trials=100, closeness_samples=5000)
    assert rep["d"] == 8
    # demo defaults sit just past the small-beta gate: 0.05 sqrt(8) > 0.1
    assert not rep["beta_small_flag"]
    assert rep["posterior_mass_on_true_pattern"]["min"] >= 1 - np.exp(-16)
    assert rep["closeness"]["c=1.5"]["pass"]
    assert rep["retry_posterior_encoder"]["rate"] >= 0.99
    assert "closed_form_rate" in rep["retry_uniform_encoder"]
