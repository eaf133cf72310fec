"""Spans around the calls into slalom's public functions, and the per-layer metrics.

``Tracer.installed()`` replaces each public function listed in ``TRACED`` by
a wrapper, in every loaded ``slalom`` module that holds it, so calls made
inside the program (``curve_to_word`` calling ``lift_path``, ``main``
calling everything) are recorded too.  A span is (name, start_ns, end_ns,
parent index, size, out_size); spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time


def _method(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else None)
    return "elliptic.quad" if method is not None and method.value == "quad" else "elliptic.closed"


def _letters(args, kwargs) -> int:
    return args[0].letter_length()


def _points(args, kwargs) -> int:
    return len(args[0].points)


# (module, function, span name or name function, input size, output size)
TRACED = (
    ("slalom.words", "parse_word", "words.parse_word", None, None),
    ("slalom.words", "format_word", "words.format_word", None, None),
    ("slalom.syllables", "decompose", "syllables.decompose", None, None),
    ("slalom.syllables", "lambda_bounds", "syllables.lambda_bounds", None, None),
    ("slalom.elliptic", "rect_extremal_length", _method, None, None),
    ("slalom.elliptic", "verify_log_bounds", "elliptic.verify_log_bounds", None, None),
    ("slalom.covering", "word_to_curve", "covering.word_to_curve", _letters, None),
    ("slalom.covering", "lift_path", "covering.lift_path", _points, lambda out: len(out.points)),
    ("slalom.covering", "slalom_decompose", "covering.slalom_decompose", _points, None),
    ("slalom.covering", "curve_to_word", "covering.curve_to_word", _points, None),
    ("slalom.braids", "parse_braid", "braids.parse_braid", None, None),
    ("slalom.braids", "braid_to_strands", "braids.braid_to_strands", None, None),
    ("slalom.braids", "cross_ratio_curve", "braids.cross_ratio_curve", None, lambda out: len(out.points)),
    ("slalom.braids", "cstar", "braids.cstar", None, None),
    ("slalom.svg", "render_lift_scene", "svg.render_lift_scene", None, len),
    ("slalom.cli", "main", lambda args, kwargs: f"cli.main_{args[0][0]}", None, None),
)

CLI_SUBCOMMANDS = ("lambda", "syllables", "rectangle-module", "verify-bounds", "lift", "braid", "roundtrip")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name, size, out_size):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            n_in = size(args, kwargs) if size else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx] = [label, t0, t1, parent, n_in, 0]
            if out_size:
                spans[idx][5] = out_size(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the functions of ``TRACED`` in every loaded slalom module; undo on exit."""
        replaced = []
        for mod_name, fn_name, name, size, out_size in TRACED:
            if mod_name not in sys.modules:
                continue
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.wrap(original, name, size, out_size)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] == "slalom" and getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    replaced.append((mod, fn_name, original))
        try:
            yield self
        finally:
            for mod, fn_name, original in replaced:
                setattr(mod, fn_name, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "size", "out_size"],
                       "spans": self.spans}, fh)


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, rounds: int, time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds; 0 where a layer made no call.

    Span durations are multiplied by ``time_scale``.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def us(s):
        return (s[2] - s[1]) * time_scale / 1e3

    def durations(name):
        return [us(s) for s in by_name.get(name, ())]

    def total(name, col=None):
        return sum(us(s) if col is None else s[col] for s in by_name.get(name, ()))

    # self time of curve_to_word: its duration less that of its lift_path children
    read_us = total("covering.curve_to_word")
    for s in by_name.get("covering.lift_path", ()):
        if s[3] >= 0 and spans[s[3]][0] == "covering.curve_to_word":
            read_us -= us(s)
    curve_points = total("covering.lift_path", 4)
    lift_points = total("covering.lift_path", 5)

    m = {
        "words.parse_word_us": (_median(durations("words.parse_word")), "us"),
        "words.format_word_us": (_median(durations("words.format_word")), "us"),
        "syllables.decompose_us": (_median(durations("syllables.decompose")), "us"),
        "syllables.lambda_bounds_us": (_median(durations("syllables.lambda_bounds")), "us"),
        "elliptic.closed_us": (_median(durations("elliptic.closed")), "us"),
        "elliptic.quad_us": (_median(durations("elliptic.quad")), "us"),
        "elliptic.verify_log_bounds_ms": (_median(durations("elliptic.verify_log_bounds")) / 1e3, "ms"),
        "covering.word_to_curve_us_per_letter": (
            _ratio(total("covering.word_to_curve"), total("covering.word_to_curve", 4)), "us/letter"),
        "covering.lift_path_us_per_point": (_ratio(total("covering.lift_path"), curve_points), "us/point"),
        "covering.slalom_decompose_us_per_point": (
            _ratio(total("covering.slalom_decompose"), total("covering.slalom_decompose", 4)), "us/point"),
        "covering.curve_to_word_us_per_point": (
            _ratio(total("covering.curve_to_word"), total("covering.curve_to_word", 4)), "us/point"),
        "covering.read_us_per_point": (_ratio(read_us, total("covering.curve_to_word", 4)), "us/point"),
        "covering.curve_points": (_ratio(curve_points, rounds), "count"),
        "covering.lift_points": (_ratio(lift_points, rounds), "count"),
        "covering.refine_ratio": (_ratio(lift_points, curve_points), "ratio"),
        "braids.parse_braid_us": (_median(durations("braids.parse_braid")), "us"),
        "braids.braid_to_strands_ms": (_median(durations("braids.braid_to_strands")) / 1e3, "ms"),
        "braids.cross_ratio_curve_ms": (_median(durations("braids.cross_ratio_curve")) / 1e3, "ms"),
        "braids.cstar_ms": (_median(durations("braids.cstar")) / 1e3, "ms"),
        "braids.curve_points": (_ratio(total("braids.cross_ratio_curve", 5), rounds), "count"),
        "svg.render_lift_scene_ms": (_median(durations("svg.render_lift_scene")) / 1e3, "ms"),
        "svg.bytes": (_ratio(total("svg.render_lift_scene", 5), rounds), "bytes"),
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main_{sub}_ms"] = (_median(durations(f"cli.main_{sub}")) / 1e3, "ms")
    return m
