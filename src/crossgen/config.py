"""Run configuration: defaults, strict validation (keys, types and value
ranges) and content hashing.

Every artifact embeds the hash of the full resolved configuration that
produced it; loading an artifact under a different configuration fails.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
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
    takes an int (not a bool), a float field an int or a finite float (a
    JSON file may spell NaN and Infinity), a list field a list whose
    elements each match the default's first element."""
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
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {here} must be finite, got {value!r}")


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


#: leaf keys whose values (every element, for a list) must be at least 1:
#: dataset sizes, the utility arms' real training sets, batch sizes, layer
#: widths and the denoiser's block count
_AT_LEAST_ONE = {"n", "imbalance_n", "imbalance_base", "scarcity_base", "batch_size",
                 "retrieval_batch", "dim", "hidden", "text_embed", "attn_dim", "latent_dim",
                 "blocks", "coupling_dim", "proj_hidden", "classifier_hidden"}

#: leaf keys that must be positive: learning rates and temperatures
_POSITIVE = {"lr", "temperature"}

#: leaf keys, besides the epoch counts, that must not be negative
_NON_NEGATIVE = {"weight_decay", "pixel_noise", "contrastive_weight"}

#: keys that name a mode, with the values each accepts
_MODES = {"diffusion.sigma_mode": ("beta", "alpha_bar_ratio")}

#: sections whose contrastive loss skips a batch of one row, so a batch size
#: of 1 would train nothing
_PAIR_BATCHES = ("encoder", "joint")


def check_seed(value: int, what: str) -> None:
    """ConfigError naming ``what`` for a seed outside a signed 64-bit
    integer: the dataset file packs the seed so, and ``rng.stream`` would
    fold a larger one onto a seed in range."""
    if not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"{what} must fit a signed 64-bit integer, got {value!r}")


def _check_ranges(section: dict, path: str) -> None:
    """ConfigError for a value outside its range: sizes and widths at least
    1 (the contrastive batch sizes 2), epoch counts, weight decays, the
    pixel noise and the contrastive weight at least 0, at least 2
    timesteps, 0 < beta_min <= beta_max < 1, positive learning rates and
    temperatures, a seed that fits a signed 64-bit integer, exactly 2
    classifier widths, at least one scarcity multiplier and none negative,
    and a known value for each mode key."""
    for key, value in section.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            _check_ranges(value, here)
            continue
        if here in _MODES:
            if value not in _MODES[here]:
                raise ConfigError(f"config key {here} must be one of "
                                  f"{', '.join(_MODES[here])}, got {value!r}")
            continue
        least = min(value, default=1) if isinstance(value, list) else value
        if key in _AT_LEAST_ONE and least < 1:
            raise ConfigError(f"config key {here} must be at least 1, got {value!r}")
        elif (key.endswith("epochs") or key in _NON_NEGATIVE) and value < 0:
            raise ConfigError(f"config key {here} must not be negative, got {value!r}")
        elif key == "timesteps" and value < 2:
            raise ConfigError(f"config key {here} must be at least 2, got {value!r}")
        elif key in _POSITIVE and value <= 0:
            raise ConfigError(f"config key {here} must be positive, got {value!r}")
        elif key == "seed":
            check_seed(value, f"config key {here}")
        elif key == "classifier_hidden" and len(value) != 2:
            raise ConfigError(f"config key {here} must hold exactly 2 widths, got {value!r}")
        elif key == "scarcity_multipliers" and (not value or least < 0):
            raise ConfigError(f"config key {here} must be a non-empty list of "
                              f"non-negative values, got {value!r}")
    if path in _PAIR_BATCHES and section["batch_size"] < 2:
        raise ConfigError(f"config key {path}.batch_size must be at least 2 (a contrastive "
                          f"batch pairs each row with another), got {section['batch_size']!r}")
    if "beta_min" in section and not 0 < section["beta_min"] <= section["beta_max"] < 1:
        raise ConfigError(f"config keys {path}.beta_min/beta_max need 0 < beta_min "
                          f"<= beta_max < 1, got {section['beta_min']!r}, "
                          f"{section['beta_max']!r}")


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
    cfg = _merge(DEFAULTS, overrides, "")
    _check_ranges(cfg, "")
    return cfg


def config_hash(cfg: dict) -> str:
    """SHA-256 of the canonical JSON encoding of the resolved config."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
