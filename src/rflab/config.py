"""The JSON config format: one file, read and checked into an Experiment.
Every rejection is a ConfigError whose message names the offending field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing

import numpy as np

from .bounds import BoundInputs
from .distributions import DistributionSpec
from .metrics import ASSIGNMENT_CAP
from .network import NetArchitecture
from .oracles import LowerBoundInstance
from .sweep import SweepSpec
from .training import TrainConfig


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


def _number(kind, value, field: str):
    """kind(value) for kind int or float; a string, a boolean, a non-finite
    float (JSON Infinity) or a value kind would change (4.5 for an int) is a
    config error that names the field."""
    try:
        number = kind(value) if type(value) in (int, float) else None
    except (ValueError, OverflowError):   # int() of nan or inf
        number = None
    if number is None or isinstance(value, float) \
            and not (math.isfinite(value) and number == value):
        raise ConfigError(f"field '{field}' must be "
                          f"{'an integer' if kind is int else 'a number'}, "
                          f"not {value!r}")
    return number


def _floats(value, field: str) -> np.ndarray:
    """A JSON number, or lists of them nested to any depth in a rectangular
    array, as float64."""
    for v in np.asarray(value, dtype=object).flat:
        if isinstance(v, list):   # numpy keeps ragged rows as list leaves
            raise ConfigError(f"field '{field}' must be a rectangular array")
        _number(float, v, field)
    return np.asarray(value, dtype=np.float64)


def _block(obj: dict, name: str, names, default=None):
    """Config block `name`, or default when absent: a JSON object with no
    key outside names."""
    if name not in obj:
        return default
    blk = obj[name]
    if not isinstance(blk, dict):
        raise ConfigError(f"field '{name}' must be a JSON object")
    unknown = sorted(set(blk) - set(names))
    if unknown:
        raise ConfigError(f"unknown field '{name}.{unknown[0]}'")
    return blk


_NUMBER_KINDS = {int: int, float: float, float | None: float,
                 list[int]: int, tuple[int, ...]: int}


def _typed(cls, obj: dict, name: str, base: dict | None = None, extra=()):
    """Config block `name` over the values in base, built into a cls (None when
    the block is absent); the caller reads its `extra` keys. Int, float and int
    list fields go through _number by annotation (an optional None stays None);
    a missing field or a value the constructor rejects is a config error too."""
    hints = typing.get_type_hints(cls)
    blk = _block(obj, name, [*hints, *extra])
    if blk is None:
        return None
    args = {k: v for k, v in {**(base or {}), **blk}.items() if k not in extra}
    for f in dataclasses.fields(cls):
        kind, field = _NUMBER_KINDS.get(hints[f.name]), f"{name}.{f.name}"
        if f.name not in args:
            if f.default is f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"missing field '{field}'")
        elif kind and typing.get_origin(hints[f.name]) in (list, tuple):
            if not isinstance(args[f.name], (list, tuple)):
                raise ConfigError(f"field '{field}' must be a list")
            args[f.name] = [_number(kind, v, field) for v in args[f.name]]
        elif kind and not (args[f.name] is None and hints[f.name] == float | None):
            args[f.name] = _number(kind, args[f.name], field)
    try:
        return cls(**args)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"field '{name}': {e}") from None


_N01 = {"kind": "gaussian", "dim": 1, "mean": [0.0], "std": 1.0}
_N02 = {"kind": "gaussian", "dim": 2, "mean": [0.0, 0.0], "std": 1.0}
# the tasks, each with its default (pi0, pi1)
_TASK_ENDPOINTS = {
    "gaussian_1d": (_N01, {**_N01, "mean": [2.0]}),
    "gaussian_2d": (_N02, {**_N02, "mean": [2.0, 1.0]}),
    "mixture_2d": (_N02, {"kind": "gaussian_mixture", "dim": 2, "components": [
        {"weight": 0.5, "mean": [-2.0, 0.0], "std": 0.5},
        {"weight": 0.5, "mean": [2.0, 0.0], "std": 0.5}]}),
    "lowerbound": (_N01, _N01),
}


@dataclasses.dataclass
class Experiment:
    task: str
    seed: int
    out_dir: str
    pi0: DistributionSpec
    pi1: DistributionSpec
    arch: NetArchitecture
    train: TrainConfig
    n_samples: int
    sweep: SweepSpec | None
    bounds: BoundInputs | None
    sigma: float | None
    lowerbound: LowerBoundInstance | None
    lowerbound_m: int | None
    sha: str


# the train block's defaults where they differ from TrainConfig's
_DEFAULT_TRAIN = {"batch_size": 64, "steps": 480, "record_every": 10}

_TOP_FIELDS = ("task", "seed", "out_dir", "pi0", "pi1", "arch", "train",
               "sweep", "bounds", "lowerbound")
_SPEC_FIELDS = ("kind", "dim", "mean", "std", "components", "points")


def _endpoint(obj: dict, name: str, default: dict) -> DistributionSpec:
    """The pi0 or pi1 block as a DistributionSpec. A missing number reads as
    null ("must be a number, not None"); a given `dim` must be the width of
    its means or point rows."""
    blk = _block(obj, name, _SPEC_FIELDS, default)
    kind = blk.get("kind")
    try:
        if kind == "gaussian":
            mean = _floats(blk.get("mean"), f"{name}.mean")
            spec = DistributionSpec(kind, mean.size, mean=mean, std=_number(
                float, blk.get("std"), f"{name}.std"))
        elif kind == "gaussian_mixture":
            comps, raw = [], blk.get("components", [])
            if not isinstance(raw, list):
                raise ConfigError(f"field '{name}.components' must be a list")
            for i, c in enumerate(raw):
                field = f"{name}.components[{i}]"
                c = _block({field: c}, field, ("weight", "mean", "std"))
                comps.append((_number(float, c.get("weight"), f"{field}.weight"),
                              _floats(c.get("mean"), f"{field}.mean"),
                              _number(float, c.get("std"), f"{field}.std")))
            spec = DistributionSpec(kind, comps[0][1].size if comps else 1,
                                    components=comps)
        elif kind == "empirical":
            pts = _floats(blk.get("points"), f"{name}.points")
            pts = pts.reshape(len(pts), -1)
            spec = DistributionSpec(kind, pts.shape[1], points=pts)
        else:
            raise ConfigError(f"field '{name}.kind' must be one of "
                              f"('gaussian', 'gaussian_mixture', 'empirical')")
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:   # scalar points, rejected values
        raise ConfigError(f"field '{name}': {e}") from None
    if "dim" in blk and _number(int, blk["dim"], f"{name}.dim") != spec.dim:
        raise ConfigError(f"field '{name}.dim' is {blk['dim']}, not the data's "
                          f"width {spec.dim}")
    return spec


def load_experiment(config_path: str | None, seed_override: int | None = None,
                    out_override: str | None = None) -> Experiment:
    if config_path is None:
        raw_bytes = b"{}"
        obj = {}
    else:
        try:
            with open(config_path, "rb") as fh:
                raw_bytes = fh.read()
            obj = json.loads(raw_bytes)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ConfigError("top-level config must be a JSON object")
    unknown = sorted(set(obj) - set(_TOP_FIELDS))
    if unknown:
        raise ConfigError(f"unknown field '{unknown[0]}'")

    task = obj.get("task", "gaussian_1d")
    if task not in tuple(_TASK_ENDPOINTS):
        raise ConfigError(f"field 'task' must be one of {tuple(_TASK_ENDPOINTS)}")
    seed = seed_override if seed_override is not None else obj.get("seed", 0)
    if type(seed) is not int or not (0 <= seed < 2 ** 64):
        source = "--seed" if seed_override is not None else "field 'seed'"
        raise ConfigError(f"{source} must be an unsigned 64-bit integer")
    out_dir = out_override or obj.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("field 'out_dir' must be a string")

    pi0, pi1 = (_endpoint(obj, name, default)
                for name, default in zip(("pi0", "pi1"), _TASK_ENDPOINTS[task]))
    if pi0.dim != pi1.dim:
        raise ConfigError("field 'pi0'/'pi1': dimensions differ")

    obj = {"arch": {}, "train": {}, **obj}   # built from defaults when absent
    arch = _typed(NetArchitecture, obj, "arch",
                  {"hidden": (8,), "dim": pi0.dim})
    if arch.dim != pi0.dim:
        raise ConfigError("field 'arch.dim' must match the endpoint dimension")
    train = _typed(TrainConfig, obj, "train", _DEFAULT_TRAIN,
                   extra=("n_samples",))
    n_samples = _number(int, obj["train"].get("n_samples", 1024),
                        "train.n_samples")
    if n_samples < 1:
        raise ConfigError("field 'train.n_samples' must be >= 1")

    sweep = _typed(SweepSpec, obj, "sweep")
    # in d >= 2 each cell's W2 goes through the capped assignment route, so
    # scoring would fail after every cell had trained
    if sweep and pi0.dim >= 2 and sweep.eval_samples > ASSIGNMENT_CAP:
        raise ConfigError(
            f"field 'sweep.eval_samples' must be <= {ASSIGNMENT_CAP} "
            f"in d >= 2 (the exact W2 assignment is capped there)")

    bounds = _typed(BoundInputs, obj, "bounds", extra=("sigma",))
    sigma = None if bounds is None else _number(
        float, obj["bounds"].get("sigma", 1.0), "bounds.sigma")
    lowerbound = _typed(LowerBoundInstance, obj, "lowerbound",
                        {"sigma": 1.0}, extra=("m",))
    m = None if lowerbound is None else _number(int, obj["lowerbound"].get(
        "m", max(1, int(0.5 / lowerbound.eta))), "lowerbound.m")
    if m is not None and m < 1:
        raise ConfigError("field 'lowerbound.m' must be >= 1")

    return Experiment(
        task=task, seed=seed, out_dir=out_dir, pi0=pi0, pi1=pi1, arch=arch,
        train=train, n_samples=n_samples, sweep=sweep, bounds=bounds,
        sigma=sigma, lowerbound=lowerbound, lowerbound_m=m,
        sha=hashlib.sha256(raw_bytes).hexdigest())
