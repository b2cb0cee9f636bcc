import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_generators
from latgauss import nets
from latgauss.errors import InvertibilityError, UnsupportedDifferentiation
from latgauss.nets import (
    Layer,
    MapConstants,
    Network,
    as_linear,
    estimate_constants,
    identity_net,
    linear_net,
    random_residual_tanh_net,
    random_smooth_net,
    scale_net,
    tanh_residual_net,
)

rng = np.random.default_rng(0)


def at(net, z):
    """net at one point, as a one-row batch."""
    return net.eval_batch(z[None, :])[0]


def jacobian_at(net, z):
    """The Jacobian at one point, as a one-row batch."""
    return net.jacobian_batch(z[None, :])[0]


def fd_jacobian(net, z, step=1e-6):
    d = net.input_dim
    J = np.empty((net.output_dim, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        J[:, k] = (at(net, z + e) - at(net, z - e)) / (2.0 * step)
    return J


def test_builders_eval():
    z = np.array([0.3, -1.2])
    assert np.array_equal(at(identity_net(2), z), z)
    assert np.allclose(at(scale_net(2, 2.0), z), 2.0 * z)
    assert np.allclose(at(tanh_residual_net(2, 0.5), z), z + 0.5 * np.tanh(z))
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([0.5, -0.5])
    assert np.allclose(at(linear_net(A, b), z), A @ z + b)


def test_jacobian_matches_finite_differences():
    cases = [
        identity_net(3),
        tanh_residual_net(2, 0.4),
        random_smooth_net(3, seed=5),
        random_residual_tanh_net(2, seed=9),
    ]
    for net in cases:
        for _ in range(4):
            z = rng.normal(size=net.input_dim)
            assert np.allclose(jacobian_at(net, z), fd_jacobian(net, z), rtol=1e-6, atol=1e-7)


def test_jacobian_batch_matches_single():
    net = random_smooth_net(2, seed=3)
    Z = rng.normal(size=(6, 2))
    J = net.jacobian_batch(Z)
    for i in range(6):
        assert np.allclose(J[i], jacobian_at(net, Z[i]), atol=1e-14)


def test_vjp_matches_jacobian():
    net = random_residual_tanh_net(3, seed=2)
    Z = rng.normal(size=(5, 3))
    V = rng.normal(size=(5, net.output_dim))
    value, got = net.vjp_batch(Z, V)
    J = net.jacobian_batch(Z)
    want = np.einsum("bi,bij->bj", V, J)
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(value, net.eval_batch(Z), atol=1e-15)


def test_eval_batch_matches_single():
    net = tanh_residual_net(2, 0.5)
    Z = rng.normal(size=(4, 2))
    Y = net.eval_batch(Z)
    for i in range(4):
        assert np.array_equal(Y[i], at(net, Z[i]))


def test_activation_groups_index_each_code():
    # a lone neuron gets a slice, wider groups an index array; either way the
    # layer evaluates neuron by neuron
    assert tanh_residual_net(1, 0.5).layers[0].groups == (
        (nets._ID, slice(1, 2)),
        (nets._TANH, slice(0, 1)),
    )
    tags = ["tanh", "identity", "tanh", "square", "square"]
    W = rng.normal(size=(5, 2))
    b = rng.normal(size=5)
    layer = Layer(W, b, tags)
    assert [code for code, _ in layer.groups] == [nets._ID, nets._TANH, nets._SQ]
    assert layer.groups[0][1] == slice(1, 2)
    assert np.array_equal(layer.groups[1][1], [0, 2])
    assert np.array_equal(layer.groups[2][1], [3, 4])
    net = Network([layer, Layer(rng.normal(size=(1, 5)), np.zeros(1), "identity")], 2)
    Z = rng.normal(size=(7, 2))
    U = Z @ W.T + b
    want = np.column_stack([np.tanh(U[:, 0]), U[:, 1], np.tanh(U[:, 2]), U[:, 3] ** 2, U[:, 4] ** 2])
    assert np.array_equal(net._forward_tape(Z)[1][0][1], want)
    assert np.allclose(net.jacobian_batch(Z)[:, 0, :], [fd_jacobian(net, z)[0] for z in Z], atol=1e-7)


@settings(max_examples=60, deadline=None)
@given(net=smooth_generators(), seed=st.integers(0, 2**32 - 1))
def test_json_round_trip_bitwise(net, seed):
    clone = Network.from_json(net.to_json())
    Z = np.random.default_rng(seed).normal(size=(7, net.input_dim))
    assert np.array_equal(clone.eval_batch(Z), net.eval_batch(Z))
    assert clone.depth == net.depth and clone.input_dim == net.input_dim
    assert [layer.activation_tags() for layer in clone.layers] == [
        layer.activation_tags() for layer in net.layers
    ]


def test_as_linear():
    A = np.array([[1.5, -0.3], [0.2, 0.9]])
    b = np.array([0.1, -0.2])
    got = as_linear(linear_net(A, b))
    assert got is not None
    assert np.allclose(got[0], A) and np.allclose(got[1], b)
    assert as_linear(tanh_residual_net(2, 0.5)) is None


def test_smooth_flag_and_sign_activation():
    sign_net = Network([Layer(np.eye(2), np.zeros(2), "sign")], 2)
    assert not sign_net.smooth
    with pytest.raises(UnsupportedDifferentiation):
        sign_net.jacobian_batch(np.zeros((1, 2)))
    assert identity_net(2).smooth


def test_estimate_constants_linear_exact():
    c = estimate_constants(scale_net(2, 2.0), sample_count=200, radius=3.0, seed=1)
    assert abs(c.m - 2.0) < 1e-6 and abs(c.M - 2.0) < 1e-6
    assert c.M2 <= 1e-8 and c.M3 <= 1e-6


def test_estimate_constants_tanh_brackets():
    # sampled estimates are inner: m never below the true inf, M never above the sup
    c = estimate_constants(tanh_residual_net(1, 0.5), sample_count=2000, radius=4.0, seed=2)
    assert 1.0 - 1e-9 <= c.m <= 1.05
    assert 1.40 <= c.M <= 1.5 + 1e-9
    assert c.M2 <= 0.385 + 1e-6
    assert c.M3 <= 1.0 + 1e-3


def test_estimate_constants_prefix_monotone():
    small = estimate_constants(random_residual_tanh_net(2, seed=4), sample_count=100, seed=3)
    large = estimate_constants(random_residual_tanh_net(2, seed=4), sample_count=400, seed=3)
    assert large.m <= small.m + 1e-15
    assert large.M >= small.M - 1e-15


def test_estimate_constants_draws_match_per_sample_loop():
    # reference: one ball draw per call, sample i at draws 2i and 2i+1, with
    # a nearby partner for odd i; the batched draw must agree bit for bit
    from latgauss.rng import NoiseStream, ball_points

    for net, radius in [(tanh_residual_net(1, 0.5), 4.9), (random_residual_tanh_net(3, seed=5), 5.5)]:
        d = net.input_dim
        stream = NoiseStream(6)

        def one(draw, r):
            return ball_points(stream, 0, np.array([draw], dtype=np.uint64), d, r)[0]

        points, partners = [], []
        for i in range(257):
            z1 = one(2 * i, radius)
            if i % 2 == 0:
                z2 = one(2 * i + 1, radius)
            else:
                z2 = z1 + 1e-3 * max(radius, 1e-6) * one(2 * i + 1, 1.0)
            points.append(z1)
            partners.append(z2)
        P, Q = np.array(points), np.array(partners)
        ratios = np.linalg.norm(net.eval_batch(P) - net.eval_batch(Q), axis=1) / np.linalg.norm(
            P - Q, axis=1
        )
        c = estimate_constants(net, sample_count=257, radius=radius, seed=6, tensor_points=0)
        assert c.m == ratios.min() and c.M == ratios.max()


def test_map_constants_validation():
    # m = 0 is representable (non-invertible generators exist); m > M is not
    MapConstants(m=0.0, M=1.0, M2=0.0, M3=0.0)
    with pytest.raises(InvertibilityError):
        MapConstants(m=2.0, M=1.0, M2=0.0, M3=0.0)
    with pytest.raises(InvertibilityError):
        MapConstants(m=-1.0, M=1.0, M2=0.0, M3=0.0)


# -- batched tensor_opnorm against the per-tensor loop -----------------------------


def reference_opnorm(T, seed=0, restarts=4, iters=40):
    """The per-tensor alternating maximization the batch must equal bit for bit."""
    from latgauss.rng import NoiseStream

    T = np.asarray(T, dtype=np.float64)
    if not np.any(T):
        return 0.0
    stream = NoiseStream(seed)
    order = T.ndim
    letters = "abcdefgh"[:order]
    best = 0.0
    for r in range(restarts):
        vecs = []
        for axis in range(order):
            g = stream.normal_matrix(0, np.array([r * order + axis], dtype=np.uint64), T.shape[axis])[0]
            vecs.append(g / np.linalg.norm(g))
        for _ in range(iters):
            for axis in range(order):
                sub = (
                    letters
                    + ","
                    + ",".join(l for i, l in enumerate(letters) if i != axis)
                    + "->"
                    + letters[axis]
                )
                contracted = np.einsum(sub, T, *[v for i, v in enumerate(vecs) if i != axis])
                norm = np.linalg.norm(contracted)
                if norm == 0.0:
                    break
                vecs[axis] = contracted / norm
        value = abs(np.einsum(letters + "," + ",".join(letters) + "->", T, *vecs))
        best = max(best, value)
    return float(best)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 6),
    order=st.integers(3, 4),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**31),
    values=st.integers(0, 2**31),
)
def test_tensor_opnorm_batch_equals_per_tensor_loop(d, order, count, seed, values):
    gen = np.random.default_rng(values)
    batch = gen.normal(size=(count + 1, d) + (d,) * (order - 1))
    batch[gen.integers(count + 1)] = 0.0  # one all-zero tensor among them
    got = nets.tensor_opnorm(batch, seed=seed)
    assert got.shape == (count + 1,)
    assert [float(v) for v in got] == [reference_opnorm(T, seed=seed) for T in batch]
    assert 0.0 in got


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(2, 6),
    order=st.integers(3, 4),
    restart=st.integers(0, 3),
    seed=st.integers(0, 2**31),
    exponents=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
)
def test_tensor_opnorm_batch_skips_rest_of_sweep_on_zero_contraction(d, order, restart, seed, exponents):
    # T lives on the slice a = 0, with row b on axes (2, 3...) equal to a power
    # of two times (v2[1], -v2[0], 0, ...) at e = 0, where v2 is restart
    # `restart`'s start vector on axis 2. The axis-0 update makes u1 = +-e_0
    # exactly (unless the axis-0 contraction is already exactly 0), so the
    # axis-1 contraction sums A and -A terms to exactly 0 and the per-tensor
    # loop skips the rest of that sweep, every sweep.
    from latgauss.rng import NoiseStream

    stream = NoiseStream(seed)
    start = [
        stream.normal_matrix(0, np.array([restart * order + axis], dtype=np.uint64), d)[0]
        for axis in range(order)
    ]
    start = [g / np.linalg.norm(g) for g in start]
    v2 = start[2]
    T = np.zeros((d,) * order)
    for b in range(d):
        T[(0, b, slice(0, 2)) + (0,) * (order - 3)] = 2.0 ** exponents[b] * np.array([v2[1], -v2[0]])
    letters = "abcd"[:order]
    first = np.einsum(letters + "," + ",".join(letters[1:]) + "->a", T, *start[1:])
    if np.any(first):  # otherwise the sweep stops already at axis 0
        rest = [first / np.linalg.norm(first)] + start[2:]
        assert not np.any(np.einsum(letters + "," + ",".join(letters[0] + letters[2:]) + "->b", T, *rest))
    other = np.random.default_rng(seed).normal(size=T.shape)
    got = nets.tensor_opnorm(np.stack([T, other]), seed=seed)
    assert [float(v) for v in got] == [reference_opnorm(T, seed=seed), reference_opnorm(other, seed=seed)]


@pytest.mark.parametrize(
    "net",
    [
        tanh_residual_net(1),
        tanh_residual_net(2),
        random_residual_tanh_net(4, seed=0, alpha=0.2),
    ],
    ids=["tanh-d1", "tanh-d2", "residual-d4"],
)
def test_estimate_constants_equals_per_point_reference(net):
    from latgauss.rng import NoiseStream, ball_points

    seed, radius, count = 3, 4.7, 64
    got = estimate_constants(net, sample_count=count, radius=radius, seed=seed)
    stretch = estimate_constants(net, sample_count=count, radius=radius, seed=seed, tensor_points=0)
    points = ball_points(NoiseStream(seed), 0, 2 * np.arange(24, dtype=np.uint64), net.input_dim, radius)
    M2 = M3 = 0.0
    for z in points:
        M2 = max(M2, reference_opnorm(nets.second_derivative_tensor(net, z), seed=seed + 1))
        M3 = max(M3, reference_opnorm(nets.third_derivative_tensor(net, z), seed=seed + 2))
    assert got == MapConstants(m=stretch.m, M=stretch.M, M2=M2, M3=M3, estimated=True)
    assert stretch.M2 == stretch.M3 == 0.0
