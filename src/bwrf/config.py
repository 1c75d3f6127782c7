"""Line-oriented run configuration.

Files hold `key = value` pairs, one per line, with `#` comments and
comma-separated lists. Unknown keys are rejected so typos fail loudly, and
every run archives its fully resolved configuration next to its outputs.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

DATA_DIR_ENV = "BWRF_DATA_DIR"

CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2470, 0.2435, 0.2616)


class ConfigError(Exception):
    """Invalid key, value, or combination in a run configuration."""


@dataclass
class RunConfig:
    # model
    arch: str = "resnet20"  # also fixes the block count
    bits: int = 4
    in_channels: int = 3
    num_classes: int = 10
    grad_scale_enabled: bool = True
    # loss (the terms each field adds are listed in the graft module docstring)
    alpha: tuple = (1.0, 1.0)
    temperature: float = 1.0
    use_mp_targets: bool = True
    use_fp_kd: bool = True
    use_mp_kd: bool = True
    use_avg_labels: bool = True
    mp_branches: tuple | None = None  # None = all of 1..n-1
    # optimization
    lr: float = 4e-2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    scale_lr_mult: float = 1.0
    epochs: int = 300
    milestones: tuple = (150, 225)
    lr_decay: float = 0.1
    batch_size: int = 128
    eval_batch_size: int = 256
    seed: int = 0
    # data
    data_dir: str = "data"
    data_format: str = "cifar10"  # cifar10 | idx
    subset_fraction: float = 1.0  # applied to both splits
    subset_seed: int = 0  # fixed separately from `seed` so arms share one subset
    augment: bool = True
    normalize_mean: tuple = CIFAR10_MEAN
    normalize_std: tuple = CIFAR10_STD
    # artifacts
    fp_checkpoint: str = ""
    checkpoint: str = ""  # model under evaluation (eval / analyze-similarity)
    output_dir: str = "runs/out"
    branch: str = "Q"  # eval target: Q, F, or M<k>
    cos_every: int = 0  # per-epoch cosine-metric cadence; 0 = off
    cos_samples: int = 1024


def loss_switches_off(cfg: RunConfig) -> RunConfig:
    """A copy of cfg with the four loss switches off: plain cross-entropy on Q."""
    return dataclasses.replace(cfg, use_mp_targets=False, use_fp_kd=False, use_mp_kd=False,
                               use_avg_labels=False)


_LIST_FIELDS = {
    "alpha": float,
    "milestones": int,
    "mp_branches": int,
    "normalize_mean": float,
    "normalize_std": float,
}

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_value(key: str, raw: str):
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    if key in _LIST_FIELDS:
        if key == "mp_branches" and raw.lower() in ("all", "none", ""):
            return None
        if raw == "":
            return ()
        elem = _LIST_FIELDS[key]
        try:
            return tuple(elem(part.strip()) for part in raw.split(","))
        except ValueError as e:
            raise ConfigError(f"{key}: bad list element in {raw!r}") from e
    ftype = _FIELDS[key].type
    try:
        if ftype == "bool":
            return _parse_bool(raw, key)
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
    except ValueError as e:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {ftype}") from e
    return raw


def _set(cfg: RunConfig, key: str, raw: str):
    """Apply one `key = value` entry. n_blocks is no field (the arch fixes it),
    but archived files carry it, so it loads when it equals that count."""
    key, raw = key.strip(), raw.strip()
    if key != "n_blocks":
        setattr(cfg, key, _parse_value(key, raw))
    elif raw != str(block_spec(cfg).n_blocks):
        raise ConfigError(f"n_blocks = {raw} but {cfg.arch} has {block_spec(cfg).n_blocks} blocks")


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = dataclasses.replace(base) if base is not None else RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        _set(cfg, *stripped.split("=", 1))
    return cfg


def load_config(path: str, overrides: list[str] = ()) -> RunConfig:
    """Parse a config file, apply --set overrides, resolve env, validate."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    cfg = parse_config_text(text)
    cfg = apply_overrides(cfg, overrides)
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        cfg.data_dir = env_dir
    validate(cfg)
    return cfg


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        _set(cfg, *item.split("=", 1))
    return cfg


def block_spec(cfg: RunConfig):
    """The network.BlockSpec of cfg's arch; a bad arch is a ConfigError."""
    from bwrf.network import BlockSpec

    try:
        return BlockSpec.from_arch(cfg.arch, cfg.in_channels, cfg.num_classes)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def validate(cfg: RunConfig):
    from bwrf.network import SUPPORTED_BITS

    n_blocks = block_spec(cfg).n_blocks
    if cfg.bits not in SUPPORTED_BITS:
        raise ConfigError(f"bits = {cfg.bits} unsupported; choose from {SUPPORTED_BITS}")
    if len(cfg.alpha) != n_blocks - 1:
        raise ConfigError(f"alpha needs {n_blocks - 1} entries, got {len(cfg.alpha)}")
    if any(a < 0 for a in cfg.alpha):
        raise ConfigError("alpha entries must be non-negative")
    if cfg.temperature <= 0:
        raise ConfigError("temperature must be positive")
    if cfg.mp_branches is not None:
        bad = [k for k in cfg.mp_branches if not 1 <= k <= n_blocks - 1]
        if bad:
            raise ConfigError(f"mp_branches entries out of range 1..{n_blocks - 1}: {bad}")
    if cfg.epochs < 1:
        raise ConfigError("epochs must be at least 1")
    if list(cfg.milestones) != sorted(set(cfg.milestones)):
        raise ConfigError("milestones must be strictly increasing")
    if cfg.milestones and cfg.milestones[-1] >= cfg.epochs:
        raise ConfigError("milestones must lie before the final epoch")
    if not 0 < cfg.lr_decay <= 1:
        raise ConfigError("lr_decay must be in (0, 1]")
    if cfg.lr <= 0 or cfg.momentum < 0 or cfg.weight_decay < 0 or cfg.scale_lr_mult <= 0:
        raise ConfigError("lr and scale_lr_mult must be positive; momentum and "
                          "weight_decay non-negative")
    if cfg.batch_size < 1 or cfg.eval_batch_size < 1:
        raise ConfigError("batch sizes must be at least 1")
    if not 0 < cfg.subset_fraction <= 1:
        raise ConfigError("subset_fraction must be in (0, 1]")
    if cfg.data_format not in ("cifar10", "idx"):
        raise ConfigError(f"data_format must be cifar10 or idx, got {cfg.data_format!r}")
    if len(cfg.normalize_mean) != cfg.in_channels or len(cfg.normalize_std) != cfg.in_channels:
        raise ConfigError("normalize_mean/std must have one entry per input channel")
    if any(s <= 0 for s in cfg.normalize_std):
        raise ConfigError("normalize_std entries must be positive")
    if not _valid_branch(cfg.branch, n_blocks):
        raise ConfigError(f"branch must be Q, F, or M1..M{n_blocks - 1}, got {cfg.branch!r}")
    if cfg.cos_every < 0 or cfg.cos_samples < 1:
        raise ConfigError("cos_every must be >= 0 and cos_samples >= 1")


def _valid_branch(branch: str, n_blocks: int) -> bool:
    if branch in ("Q", "F"):
        return True
    if branch.startswith("M") and branch[1:].isdigit():
        return 1 <= int(branch[1:]) <= n_blocks - 1
    return False


def resolved_text(cfg: RunConfig) -> str:
    """Canonical `key = value` rendering, archived next to run outputs."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name in _LIST_FIELDS:
            value = "all" if value is None else ",".join(repr(v) if isinstance(v, float)
                                                         else str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
