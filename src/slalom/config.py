"""Runtime configuration: key = value files, environment override, defaults."""

import math
import os

from slalom.syllables import BoundConstants
from slalom.words import _set, _Value

ENV_VAR = "SLALOM_CONFIG"
_CONSTANTS = BoundConstants()


class Config(_Value):
    """The configuration keys, in the order the CLI echoes them; the type of each default casts its file value."""

    __match_args__ = ("c_minus", "c_plus", "samples_per_turn", "lift_tolerance", "svg_scale")

    def __init__(self, c_minus: float = _CONSTANTS.c_minus, c_plus: float = _CONSTANTS.c_plus,
                 samples_per_turn: int = 128, lift_tolerance: float = 1e-6, svg_scale: float = 40.0):
        _set(self, c_minus, c_plus, samples_per_turn, lift_tolerance, svg_scale)
        if not isinstance(samples_per_turn, int) or samples_per_turn < 16:
            raise ValueError(f"samples_per_turn must be an int >= 16; got {samples_per_turn!r}")
        if not (0 < lift_tolerance < math.inf and 0 < svg_scale < math.inf):
            raise ValueError("lift_tolerance and svg_scale must be positive and finite")
        self.bound_constants  # bad constants fail here, at load time, on every command

    @property
    def bound_constants(self) -> BoundConstants:
        return BoundConstants(self.c_minus, self.c_plus)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__match_args__}


def load_config(path: str | None = None) -> Config:
    """Defaults, overridden by the file at ``path`` or at $SLALOM_CONFIG."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    casts = {key: type(value) for key, value in Config().as_dict().items()}
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
