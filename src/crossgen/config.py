"""Run configuration: defaults, strict validation and content hashing.

Every artifact embeds the hash of the full resolved configuration that
produced it; loading an artifact under a different configuration fails.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

from .errors import ConfigError

DEFAULTS = {
    "seed": 7,
    "dataset": {
        "n": 2000,
        "positive_rates": [0.5, 0.5, 0.5, 0.5, 0.5],
    },
    "encoder": {
        "dim": 32,
        "hidden": 128,
        "text_embed": 32,
        "epochs": 30,
        "batch_size": 64,
        "lr": 1e-3,
        "weight_decay": 1e-4,
        "temperature": 0.07,
    },
    "conditioning": {
        "weights": "uniform",
    },
    "diffusion": {
        "timesteps": 100,
        "beta_min": 1e-3,
        "beta_max": 0.2,
        "hidden": 192,
        "blocks": 2,
        "attn_dim": 32,
        "epochs": 200,
        "batch_size": 64,
        "lr": 2e-3,
        "weight_decay": 1e-4,
        "sigma_mode": "beta",
        "image_codec": {"hidden": 48, "epochs": 80, "lr": 3e-3},
        "text_codec": {"latent_dim": 32, "hidden": 128, "epochs": 120, "lr": 3e-3},
    },
    "joint": {
        "coupling_dim": 16,
        "proj_hidden": 32,
        "epochs": 40,
        "batch_size": 64,
        "lr": 1e-3,
        "weight_decay": 1e-4,
        "contrastive_weight": 0.1,
        "temperature": 0.07,
    },
    "eval": {
        "sample_count": 500,
        "retrieval_batch": 64,
        "bootstrap": 200,
        "classifier_epochs": 30,
        "classifier_hidden": [64, 32],
        "utility": {
            "pixel_noise": 0.25,
            "anonymization_epochs": 60,
            "imbalance_n": 4000,
            "imbalance_base": 300,
            "imbalance_target": 150,
            "imbalance_epochs": 300,
            "scarcity_base": 100,
            "scarcity_pool": 300,
            "scarcity_epochs": 150,
            "scarcity_multipliers": [0.0, 0.33, 1.0, 2.0],
        },
    },
}


def _check_type(value, default, here: str) -> None:
    """ConfigError unless ``value`` has the type of ``default``: an int field
    takes an int (not a bool), a float field an int or a float, a list field
    a list whose elements each match the default's first element."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {here} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check_type(item, default[0], f"{here}[{i}]")
        return
    wanted = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise ConfigError(f"config key {here} must be {type(default).__name__}, "
                          f"got {value!r}")


def _merge(defaults: dict, overrides: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in overrides.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here} must be a section")
            out[key] = _merge(defaults[key], value, here)
        else:
            _check_type(value, defaults[key], here)
            out[key] = value
    return out


def load_config(source=None) -> dict:
    """Resolve a full configuration from a dict, a JSON file path, or None."""
    if source is None:
        overrides = {}
    elif isinstance(source, dict):
        overrides = source
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            overrides = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    return _merge(DEFAULTS, overrides, "")


def config_hash(cfg: dict) -> str:
    """SHA-256 of the canonical JSON encoding of the resolved config."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
