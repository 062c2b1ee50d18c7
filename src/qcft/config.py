"""Run configuration: defaults, QCFT_ORDER environment override, config file,
command-line flags (highest precedence)."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigParse
from .series import DEFAULT_ORDER, check_order


@dataclass(frozen=True)
class RunConfig:
    order: int = DEFAULT_ORDER
    float_tolerance: float = 1e-8
    exact_only: bool = False
    output_path: str | None = None

    def __post_init__(self):
        if self.order < 8:
            raise ValueError(f"order {self.order} < 8")
        check_order(self.order)
        if not (0 < self.float_tolerance <= 1e-2):
            raise ValueError(f"tolerance {self.float_tolerance} outside (0, 1e-2]")


def _parse_bool(value: str, line: int) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ConfigParse(f"expected a boolean, got {value!r}", line)


# config-file key (and load_config keyword) -> (RunConfig field, parser of (text, line))
_KEYS = {
    "order": ("order", lambda value, line: int(value)),
    "tolerance": ("float_tolerance", lambda value, line: float(value)),
    "exact_only": ("exact_only", _parse_bool),
    "output": ("output_path", lambda value, line: value),
}


def load_config(path: str | Path | None = None,
                order: int | None = None,
                tolerance: float | None = None,
                exact_only: bool | None = None,
                output: str | None = None) -> RunConfig:
    """Merge defaults, the QCFT_ORDER environment variable, an optional
    `key = value` config file, and explicit flag overrides (flags win)."""
    cfg = RunConfig()
    env_order = os.environ.get("QCFT_ORDER")
    if env_order is not None:
        try:
            cfg = replace(cfg, order=int(env_order))
        except ValueError as e:
            raise ConfigParse(f"QCFT_ORDER: {e}", 0)

    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigParse("expected 'key = value'", lineno)
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _KEYS:
                raise ConfigParse(f"unknown key {key!r}", lineno)
            field_name, parse = _KEYS[key]
            try:
                cfg = replace(cfg, **{field_name: parse(value, lineno)})
            except ValueError as e:
                raise ConfigParse(str(e), lineno)

    flags = {"order": order, "tolerance": tolerance, "exact_only": exact_only, "output": output}
    updates = {_KEYS[key][0]: value for key, value in flags.items() if value is not None}
    if updates:
        try:
            cfg = replace(cfg, **updates)
        except ValueError as e:
            raise ConfigParse(str(e), 0)
    return cfg
