"""The config schema: key tables derived from the config dataclasses, and the
shipped config files checked against them."""

import glob
import os

import pytest

from skyalign import configio
from skyalign.dataset import GenConfig
from skyalign.trainer import TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith(configio.ENV_PREFIX):
            monkeypatch.delenv(key)


def test_derived_tables_pin_every_key_type_and_order():
    assert list(configio.GEN_KEYS.items()) == [
        ("n_buildings", int), ("views_per_building", int), ("latent_dim", int),
        ("noise_sigma", float), ("fail_prob", float), ("seed", int), ("bins", int),
    ]
    assert list(configio.TRAIN_KEYS.items()) == [
        ("peak_lr", float), ("warmup_frac", float), ("epochs", int), ("batch_size", int),
        ("weight_decay", float), ("beta1", float), ("beta2", float), ("adam_eps", float),
        ("seed", int), ("rotation_prob", float), ("hidden_dim", int), ("embed_dim", int),
        ("train_temperature", bool),
        ("smoothing", float), ("temperature", float), ("orientation_mode", str),
        ("orientation_weight", float), ("bins", int),  # TrainConfig.loss's keys
    ]


@pytest.mark.parametrize("name,keys", [("gen_default.cfg", configio.GEN_KEYS),
                                       ("train_default.cfg", configio.TRAIN_KEYS)])
def test_shipped_defaults_name_every_key(name, keys):
    assert set(configio.parse_flat_file(os.path.join(ROOT, "configs", name))) == set(keys)


def test_benchmark_configs_load():
    # a key renamed under src/ must not silently break the benchmark's workloads
    paths = sorted(glob.glob(os.path.join(ROOT, "perfbench", "configs", "*.cfg")))
    loaders = {"gen": (configio.load_gen_config, GenConfig),
               "train": (configio.load_train_config, TrainConfig)}
    kinds = [os.path.basename(path).split("_")[0] for path in paths]
    assert set(kinds) == set(loaders)
    for path, kind in zip(paths, kinds):
        load, cls = loaders[kind]
        assert isinstance(load(path), cls)
