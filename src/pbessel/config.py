"""Run configuration: strict key-value format with sections.

The format is INI-style (configparser dialect) with a fixed schema.
Unknown sections or keys are hard errors: a typo in ``l`` or ``N`` must
fail loudly instead of masquerading as a numerical problem.  A config
round-trips exactly: ``parse(emit(cfg)) == cfg``, and the SHA-256 of the
canonical emission identifies the run in every output file.

Schema (defaults in parentheses)::

    [problem]
    potential = x^2          # builtin name | const:C | csv:PATH
    l = 1.5
    b = 3.141592653589793

    [numerics]
    mesh_points = 20001      # rounded up to the next m = 1 (mod 5)
    N = 100

    [spectral]
    boundary = dirichlet     # dirichlet | neumann | robin
    H = 0.0                  # Robin coefficient
    omega_min = 0.0
    omega_max = 10.0
    scan_points = 0          # 0: auto density (>= 20 per unit omega)

    [solve]
    omegas =                 # comma list for the solve command
    xs =                     # comma list for the solve command

    [sweep]
    l_values =               # comma list for the decay-sweep command

    [output]
    directory = out
    oracle = false           # also run the shooting comparison

``_SECTIONS`` is the one key table (section -> keys, in emission order);
every key is a :class:`RunConfig` field, its default is the field's
default and its text is parsed by the field's type.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "emit_config", "config_sha256"]

_SECTIONS: dict[str, tuple[str, ...]] = {
    "problem": ("potential", "l", "b"),
    "numerics": ("mesh_points", "N"),
    "spectral": ("boundary", "H", "omega_min", "omega_max", "scan_points"),
    "solve": ("omegas", "xs"),
    "sweep": ("l_values",),
    "output": ("directory", "oracle"),
}

_BOUNDARIES = ("dirichlet", "neumann", "robin")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; field names mirror the config schema."""

    potential: str = "x^2"
    l: float = 1.5
    b: float = math.pi
    mesh_points: int = 20001
    N: int = 100
    boundary: str = "dirichlet"
    H: float = 0.0
    omega_min: float = 0.0
    omega_max: float = 10.0
    scan_points: int = 0
    omegas: tuple[float, ...] = field(default_factory=tuple)
    xs: tuple[float, ...] = field(default_factory=tuple)
    l_values: tuple[float, ...] = field(default_factory=tuple)
    directory: str = "out"
    oracle: bool = False

    def __post_init__(self):
        if not math.isfinite(self.l) or self.l < -0.5:
            raise ConfigError(f"l must be >= -1/2, got {self.l}")
        if not math.isfinite(self.b) or self.b <= 0:
            raise ConfigError(f"b must be positive, got {self.b}")
        if self.mesh_points < 6:
            raise ConfigError(f"mesh_points must be >= 6, got {self.mesh_points}")
        if self.N < 0:
            raise ConfigError(f"N must be >= 0, got {self.N}")
        if self.boundary not in _BOUNDARIES:
            raise ConfigError(f"boundary must be one of {_BOUNDARIES}, got {self.boundary!r}")
        if not math.isfinite(self.H):
            raise ConfigError("H must be finite")
        if not (0 <= self.omega_min < self.omega_max):
            raise ConfigError(
                f"omega window needs 0 <= omega_min < omega_max, got "
                f"[{self.omega_min}, {self.omega_max}]"
            )
        if self.scan_points < 0:
            raise ConfigError("scan_points must be >= 0")
        for x in self.xs:
            if not (0 <= x <= self.b):
                raise ConfigError(f"solve x = {x} outside [0, b]")
        for om in self.omegas:
            if not math.isfinite(om):
                raise ConfigError(f"solve omega = {om} not finite")
            if om < 0:
                raise ConfigError(f"solve omega = {om} negative")
        for lv in self.l_values:
            if not math.isfinite(lv):
                raise ConfigError(f"sweep l = {lv} not finite")
            if lv < -0.5:
                raise ConfigError(f"sweep l = {lv} below -1/2")

    def with_overrides(self, **kw) -> "RunConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


_DEFAULTS = RunConfig()


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}") from exc


def _parse_bool(text: str, what: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"bad boolean for {what}: {text!r}")


def _parse_value(key: str, text: str):
    """Config text of ``key`` as a value of its :class:`RunConfig` field's type."""
    kind = type(getattr(_DEFAULTS, key))
    if kind is bool:
        return _parse_bool(text, key)
    if kind is tuple:
        return _parse_floats(text, key)
    if kind is str:
        text = text.strip()
        return text.lower() if key == "boundary" else text
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; unknown sections/keys are errors."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive (N vs n must not alias)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    values: dict[str, str] = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, val in cp.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = val
    # schema order: the first bad value reported does not depend on the file's order
    keys = [key for section in _SECTIONS.values() for key in section if key in values]
    return RunConfig(**{key: _parse_value(key, values[key]) for key in keys})


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, tuple):
        return ",".join(f"{x:.17g}" for x in v)
    return str(v)


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(emit(cfg)) == cfg byte-stably."""
    out = io.StringIO()
    for section, keys in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {_fmt(getattr(cfg, key))}\n")
        out.write("\n")
    return out.getvalue()


def config_sha256(cfg: RunConfig) -> str:
    """Hash of the computational content (everything except [output]).

    Two runs that differ only in where results are written are the same
    computation and carry the same hash, which keeps reruns of one
    config byte-identical wherever they land.
    """
    text = emit_config(cfg)
    head, _, _ = text.partition("[output]")
    return hashlib.sha256(head.encode("utf-8")).hexdigest()
