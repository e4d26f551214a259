"""Training configuration and the key-value config file format.

A config file is plain ``key = value`` lines; blank lines and ``#`` comments
are ignored.  Recognized keys:

    smoother        mle | abs | kn | mkn | plre
    order           n-gram order (>= 1; >= 2 for plre)
    unk_threshold   types with corpus frequency <= this become unk (default 1)
    seed            RNG seed for factorization initialization
    threads         worker threads for slice factorization
    dstar           gt-root | float in (0,1)        (plre only)
    power           default intermediate power chain, e.g. ``0.5`` or ``0.6,0.3``
    rank            default rank per intermediate term: int or fraction of V
    power.K         per-order override of the chain for order K (may be empty)
    rank.K          per-order override, one value per power
    nmf.max_iters   multiplicative-update iteration cap
    nmf.rel_tol     relative objective improvement stopping threshold

Command-line flags override file values.  Orders >= 4 default to an empty
power chain (no low-rank term) unless power.K says otherwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, asdict
from typing import Dict, Optional, Tuple, Union

from .ensemble import DEFAULT_RANK, default_powers
from .errors import ConfigError

_SMOOTHERS = ("mle", "abs", "kn", "mkn", "plre")


def _parse_rank_value(text: str) -> Union[int, float]:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if 0.0 < value < 1.0:
        return value
    if not math.isfinite(value) or value != int(value) or value < 1:
        raise ConfigError(f"rank must be a positive int or a fraction in (0,1): {text}")
    return int(value)


def _parse_float_list(text: str) -> Tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(x) for x in re.split(r"[,\s]+", text))


@dataclass
class TrainConfig:
    smoother: str = "plre"
    order: int = 3
    unk_threshold: int = 1
    seed: int = 0
    threads: int = 1
    dstar: Union[str, float] = "gt-root"
    default_power: Optional[Tuple[float, ...]] = None
    default_rank: Optional[Union[int, float]] = None
    powers: Dict[int, Tuple[float, ...]] = field(default_factory=dict)
    ranks: Dict[int, Tuple[Union[int, float], ...]] = field(default_factory=dict)
    nmf_max_iters: int = 200
    nmf_rel_tol: float = 1e-6

    def validate(self) -> None:
        if self.smoother not in _SMOOTHERS:
            raise ConfigError(f"unknown smoother {self.smoother!r}")
        if self.order < 1 or (self.smoother == "plre" and self.order < 2):
            raise ConfigError(f"order {self.order} invalid for {self.smoother}")
        if self.unk_threshold < 0:
            raise ConfigError("unk_threshold must be >= 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if isinstance(self.dstar, str) and self.dstar != "gt-root":
            raise ConfigError(f"dstar must be 'gt-root' or a float in (0,1): {self.dstar}")
        if isinstance(self.dstar, float) and not 0.0 < self.dstar < 1.0:
            raise ConfigError(f"fixed dstar must be in (0,1): {self.dstar}")
        if self.nmf_max_iters < 1:
            raise ConfigError(f"nmf.max_iters must be >= 1: {self.nmf_max_iters}")
        # NaN fails every comparison, so these reject it too.
        if not 0.0 <= self.nmf_rel_tol < math.inf:
            raise ConfigError(f"nmf.rel_tol must be finite and >= 0: {self.nmf_rel_tol}")

    def resolved_powers(self) -> Dict[int, Tuple[float, ...]]:
        """Per-order power chains after defaults and overrides: ``power``
        replaces the chain of every order ``default_powers`` gives one."""
        out = default_powers(self.order)
        if self.default_power is not None:
            out = {k: self.default_power if chain else chain for k, chain in out.items()}
        for k, chain in self.powers.items():
            if 2 <= k <= self.order:
                out[k] = chain
        return out

    def resolved_rank_values(self) -> Dict[int, Tuple[Union[int, float], ...]]:
        """Per-order rank values (still fractions/ints; resolved against V later)."""
        rank = DEFAULT_RANK if self.default_rank is None else self.default_rank
        return {
            k: self.ranks.get(k, tuple(rank for _ in chain))
            for k, chain in self.resolved_powers().items()
        }

    def echo(self) -> dict:
        """JSON-serializable dump for container headers, without
        ``threads``: the thread count cannot change a model, so it must not
        change the container's bytes."""
        d = asdict(self)
        del d["threads"]
        d["powers"] = {str(k): list(v) for k, v in self.powers.items()}
        d["ranks"] = {str(k): list(v) for k, v in self.ranks.items()}
        if self.default_power is not None:
            d["default_power"] = list(self.default_power)
        return d


def parse_config(text: str) -> TrainConfig:
    cfg = TrainConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            _apply_key(cfg, key, value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    cfg.validate()
    return cfg


def _apply_key(cfg: TrainConfig, key: str, value: str) -> None:
    if key == "smoother":
        cfg.smoother = value
    elif key == "order":
        cfg.order = int(value)
    elif key == "unk_threshold":
        cfg.unk_threshold = int(value)
    elif key == "seed":
        cfg.seed = int(value)
    elif key == "threads":
        cfg.threads = int(value)
    elif key == "dstar":
        cfg.dstar = value if value == "gt-root" else float(value)
    elif key == "power":
        cfg.default_power = _parse_float_list(value)
    elif key == "rank":
        cfg.default_rank = _parse_rank_value(value)
    elif key == "nmf.max_iters":
        cfg.nmf_max_iters = int(value)
    elif key == "nmf.rel_tol":
        cfg.nmf_rel_tol = float(value)
    elif m := re.fullmatch(r"power\.(\d+)", key):
        cfg.powers[int(m.group(1))] = _parse_float_list(value)
    elif m := re.fullmatch(r"rank\.(\d+)", key):
        cfg.ranks[int(m.group(1))] = tuple(
            _parse_rank_value(x) for x in re.split(r"[,\s]+", value.strip()) if x
        )
    else:
        raise ConfigError(f"unknown config key {key!r}")


def load_config(path: str) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
