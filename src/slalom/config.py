"""Runtime configuration: key = value files, environment override, defaults."""

import dataclasses
import math
import os
from dataclasses import dataclass

from slalom.syllables import BoundConstants

ENV_VAR = "SLALOM_CONFIG"


@dataclass(frozen=True)
class Config:
    """The configuration keys, in the order the CLI echoes them; each field's type casts its file value."""

    c_minus: float = BoundConstants.c_minus
    c_plus: float = BoundConstants.c_plus
    samples_per_turn: int = 128
    lift_tolerance: float = 1e-6
    svg_scale: float = 40.0

    def __post_init__(self):
        if self.samples_per_turn < 16:
            raise ValueError("samples_per_turn must be >= 16")
        if not (0 < self.lift_tolerance < math.inf and 0 < self.svg_scale < math.inf):
            raise ValueError("lift_tolerance and svg_scale must be positive and finite")
        self.bound_constants  # bad constants fail here, at load time, on every command

    @property
    def bound_constants(self) -> BoundConstants:
        return BoundConstants(self.c_minus, self.c_plus)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path: str | None = None) -> Config:
    """Defaults, overridden by the file at ``path`` or at $SLALOM_CONFIG."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    casts = {f.name: f.type for f in dataclasses.fields(Config)}
    values: dict = {}
    if path:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in casts:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = casts[key](val.strip())
    return Config(**values)
