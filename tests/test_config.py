import json

import numpy as np
import pytest

from latgauss.config import load_config, parse_config
from latgauss.errors import ConfigError

BASE = {"generator": {"builtin": "identity"}, "d": 2, "beta": 0.1}


def test_minimal_config_defaults():
    cfg = parse_config(dict(BASE))
    assert cfg.d == 2 and cfg.beta == 0.1
    assert cfg.epsilon == 0.1
    assert np.array_equal(cfg.x, [0.9, 0.9])
    assert cfg.seed == 0
    assert cfg.constants is None
    assert cfg.constants_samples == 4096
    assert cfg.max_gd_steps == 10**6 and cfg.max_langevin_steps == 10**7
    assert cfg.chains == 1000 and cfg.samples == 10_000
    assert cfg.out_dir == "out"
    assert cfg.experiments == [] and cfg.lowerbound_opts == {}
    assert cfg.compile_opts == {"gd_steps": 10, "langevin_steps": 50}


def test_compile_defaults_leave_raw_config_unchanged():
    # the report's config hash is taken over cfg.raw
    # (amortized: true, which older configs write, is accepted and dropped)
    raw = {**BASE, "compile": {"langevin_steps": 7, "amortized": True}}
    cfg = parse_config(raw)
    assert cfg.compile_opts == {"gd_steps": 10, "langevin_steps": 7}
    assert cfg.raw["compile"] == {"langevin_steps": 7, "amortized": True}


@pytest.mark.parametrize("missing", ["generator", "d", "beta"])
def test_required_fields(missing):
    raw = dict(BASE)
    del raw[missing]
    with pytest.raises(ConfigError, match=missing):
        parse_config(raw)


def test_unknown_key_rejected_at_each_level():
    for raw in [
        {**BASE, "bogus": 1},
        {**BASE, "generator": {"builtin": "identity", "bogus": 1}},
        {**BASE, "constants": {"m": 1, "M": 1, "M2": 0, "M3": 0, "bogus": 1}},
        {**BASE, "caps": {"bogus": 1}},
        {**BASE, "compile": {"bogus": 1}},
        {**BASE, "lowerbound": {"bogus": 1}},
    ]:
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(raw)


@pytest.mark.parametrize("epsilon", [0.0, 1.0, 2, -0.5])
def test_epsilon_range(epsilon):
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config({**BASE, "epsilon": epsilon})


@pytest.mark.parametrize(
    "lowerbound, field",
    [
        ({"trials": 0}, "trials"),
        ({"d": "8"}, "d"),
        ({"d": 0}, "d"),
        ({"closeness_samples": 0}, "closeness_samples"),
        ({"beta": -0.1}, "beta"),
        ({"rotation": -1}, "rotation"),
        ({"mask": "180"}, "mask"),
        ({"d": True}, "d"),
        ({"beta": float("inf")}, "beta"),
    ],
)
def test_lowerbound_values_checked(lowerbound, field):
    with pytest.raises(ConfigError, match=f"lowerbound.{field} "):
        parse_config({**BASE, "lowerbound": lowerbound})


def test_beta_must_be_positive():
    with pytest.raises(ConfigError, match="beta"):
        parse_config({**BASE, "beta": 0})


def test_x_length_checked():
    with pytest.raises(ConfigError, match="x must"):
        parse_config({**BASE, "x": [1.0, 2.0, 3.0]})


def test_constants_require_all_four():
    with pytest.raises(ConfigError, match="M3"):
        parse_config({**BASE, "constants": {"m": 1, "M": 1, "M2": 0}})
    cfg = parse_config({**BASE, "constants": {"m": 1, "M": 2, "M2": 0.5, "M3": 1}})
    assert cfg.constants.M2 == 0.5


def test_supplied_constants_are_not_estimated():
    cfg = parse_config({**BASE, "constants": {"m": 1, "M": 2, "M2": 0.5, "M3": 1}})
    assert cfg.constants.estimated is False


def test_overrides_win():
    cfg = parse_config(
        {**BASE, "seed": 5, "out_dir": "a", "jobs": 2},
        seed_override=9,
        out_override="b",
    )
    assert cfg.seed == 9 and cfg.out_dir == "b"


@pytest.mark.parametrize("jobs", [0, -1, 1.5, "2", True])
def test_jobs_must_be_positive_integer(jobs):
    with pytest.raises(ConfigError, match="jobs"):
        parse_config({**BASE, "jobs": jobs})


TANH_CONSTANTS = {"m": 1, "M": 1.5, "M2": 0.385, "M3": 1}


@pytest.mark.parametrize(
    "fields, needle",
    [
        ({"generator": {"builtin": "scale", "scale": "2"}}, "generator.scale"),
        ({"generator": {"builtin": "scale", "scale": float("inf")}}, "generator.scale"),
        ({"generator": {"builtin": "tanh-residual", "alpha": None}}, "generator.alpha"),
        ({"generator": {"builtin": "tanh-residual", "scale": 3}}, "'scale'"),
        ({"generator": {"builtin": "identity", "alpha": 0.5}}, "'alpha'"),
        ({"generator": {"builtin": "random-residual", "seed": 1.5}}, "generator.seed"),
        ({"generator": {"builtin": "random-residual", "seed": True}}, "generator.seed"),
        ({"d": True}, "d must"),
        ({"x": [True, 0.9]}, "x must"),
        ({"x": [float("nan"), 0.9]}, "x must"),
        ({"chains": True}, "chains"),
        ({"seed": True}, "seed"),
        ({"caps": {"max_gd_steps": True}}, "max_gd_steps"),
        ({"compile": {"langevin_steps": True}}, "langevin_steps"),
        ({"beta": float("inf")}, "beta"),
        ({"beta": 10**400}, "beta"),
        ({"constants": {**TANH_CONSTANTS, "M2": float("inf")}}, "M2"),
        ({"constants": {**TANH_CONSTANTS, "M3": float("inf")}}, "M3"),
        ({"constants": {**TANH_CONSTANTS, "m": True}}, "constants.m "),
        ({"compile": {"amortized": False}}, "baked-x encoders were removed"),
    ],
)
def test_malformed_values_rejected(fields, needle):
    # booleans are not integers or numbers, and numbers must be finite
    with pytest.raises(ConfigError, match=needle):
        parse_config({**BASE, **fields})


def test_builtin_generators_build():
    for gen, d in [
        ({"builtin": "identity"}, 3),
        ({"builtin": "scale", "scale": 3.0}, 2),
        ({"builtin": "tanh-residual", "alpha": 0.25}, 2),
        ({"builtin": "random-residual", "seed": 7, "alpha": 0.3}, 2),
    ]:
        cfg = parse_config({"generator": gen, "d": d, "beta": 0.1})
        net = cfg.build_generator()
        assert net.eval_batch(np.zeros((2, d))).shape == (2, d)


def test_unknown_builtin_rejected():
    with pytest.raises(ConfigError, match="builtin"):
        parse_config({**BASE, "generator": {"builtin": "mystery"}})


def test_generator_path_round_trip(tmp_path):
    from latgauss.nets import tanh_residual_net

    net = tanh_residual_net(2, 0.5)
    p = tmp_path / "net.json"
    p.write_text(net.to_json())
    cfg = parse_config({**BASE, "generator": {"path": str(p)}})
    loaded = cfg.build_generator()
    Z = np.random.default_rng(0).normal(size=(5, 2))
    assert np.array_equal(loaded.eval_batch(Z), net.eval_batch(Z))


@pytest.mark.parametrize(
    "content",
    [None, "{not json", json.dumps({"format": "other"}), "sign network", json.dumps([1])],
)
def test_generator_path_errors_name_the_path(tmp_path, content):
    from latgauss.lowerbound import SignGenerator, generator_network

    p = tmp_path / "net.json"
    if content == "sign network":
        content = generator_network(SignGenerator(d=2, beta=0.1)).to_json()
    if content is not None:
        p.write_text(content)
    cfg = parse_config({**BASE, "generator": {"path": str(p)}})
    with pytest.raises(ConfigError, match="generator.path") as err:
        cfg.build_generator()
    assert err.value.payload["path"] == str(p)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "none.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(bad))


def test_load_config_parses_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({**BASE, "seed": 3}))
    cfg = load_config(str(p))
    assert cfg.seed == 3
    assert cfg.raw["seed"] == 3
