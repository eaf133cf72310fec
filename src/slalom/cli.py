"""Command-line front end: JSON reports on stdout, optional SVG to file."""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

# covering, braids and svg are imported inside the commands that run them, so a call loads only what it
# uses; elliptic stays here because perfbench/run.py's import_times times it within `import slalom.cli`
from slalom import __version__
from slalom.config import load_config
from slalom.elliptic import ModulusMethod, rect_extremal_length, verify_log_bounds
from slalom.syllables import BoundConstants, BoundaryCondition, decompose, lambda_bounds, lambda_invariant
from slalom.words import FreeWord, Generator, Term, format_word, parse_word

MAX_SWEEP_SAMPLES = 10**5  # verify-bounds' budget of M values
MAX_ROUNDTRIP_WORDS = 10**5  # roundtrip's budget of --count
MAX_ROUNDTRIP_POINTS = 10**7  # roundtrip's budget of curve points over all its words, which bounds its run time


def _word_report(w: FreeWord) -> dict:
    syllables = [
        {"kind": s.kind.value, "terms": format_word(FreeWord(s.terms)), "degree": s.degree}
        for s in decompose(w).syllables
    ]
    return {"word": format_word(w), "syllables": syllables, "lambda": lambda_invariant(w)}


def _bounds(w: FreeWord, bc: BoundaryCondition, k: BoundConstants) -> dict:
    """JSON-ready ``lambda_bounds`` of ``w`` for one boundary condition, without its Lambda."""
    b = lambda_bounds(w, bc, k)
    return {"lower": b.lower, "upper": b.upper, "exceptional": b.exceptional}


def _emit(args, result: dict, input_echo) -> int:
    if getattr(args, "svg", None):
        result["svg"] = args.svg
    doc = {
        "tool": "slalom",
        "version": __version__,
        "command": args.command,
        "input": input_echo,
        "result": result,
        "config": args.config_obj.as_dict(),
    }
    # NaN and infinities are not JSON; refuse them before anything is written
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_lambda(args) -> int:
    w, k = parse_word(args.word), args.config_obj.bound_constants
    report = _word_report(w)
    if args.boundary:
        bounds = _bounds(w, BoundaryCondition(args.boundary), k)
        result = {"word": report.pop("word"), "boundary": args.boundary, **report, **bounds}
        return _emit(args, result, args.word)
    for bc in BoundaryCondition:
        bounds = _bounds(w, bc, k)
        report[f"exceptional_{bc.value}"] = bounds.pop("exceptional")
        report[f"bounds_{bc.value}"] = bounds
    return _emit(args, report, args.word)


def _cmd_syllables(args) -> int:
    return _emit(args, _word_report(parse_word(args.word)), args.word)


def _cmd_rectangle_module(args) -> int:
    qm = rect_extremal_length(args.M, ModulusMethod(args.method))
    result = {
        "M": args.M,
        "extremal_length": qm.extremal_length,
        "conformal_module": qm.conformal_module if math.isfinite(qm.conformal_module) else "inf",
        "method": args.method,
    }
    return _emit(args, result, {"M": args.M, "method": args.method})


def _cmd_verify_bounds(args) -> int:
    if not 1 <= args.samples <= MAX_SWEEP_SAMPLES:
        raise ValueError(f"--samples must be in [1, {MAX_SWEEP_SAMPLES}]")
    for flag, m in (("--from", args.frm), ("--to", args.to)):
        if not 0 < m < math.inf:
            raise ValueError(f"{flag} must be positive and finite; got {m}")
    lo, hi = math.log(args.frm), math.log(args.to)
    inner = (math.exp(lo + (hi - lo) * j / (args.samples - 1)) for j in range(1, args.samples - 1))
    ms = [args.frm, *inner, args.to][:args.samples]  # the ends exactly: exp(log(x)) may round past x, or the bound
    rep = verify_log_bounds(ms)
    result = {
        "m_range": list(rep.m_range),
        "ratio_min": rep.ratio_min,
        "ratio_max": rep.ratio_max,
    }
    return _emit(args, result, {"from": args.frm, "to": args.to, "samples": args.samples})


def _lift(args, curve):
    """The lift of ``curve`` from the base point and its slalom pieces, drawn to ``--svg`` when given."""
    from slalom.covering import BASE_LIFT_POINT, lift_path, slalom_decompose

    cfg = args.config_obj
    lifted = lift_path(curve, BASE_LIFT_POINT, cfg.lift_tolerance)
    pieces = slalom_decompose(lifted).pieces
    if args.svg:
        from slalom.svg import render_lift_scene

        with open(args.svg, "w") as fh:
            fh.write(render_lift_scene(lifted, pieces, curve, cfg.svg_scale))
    return lifted, pieces


def _cmd_lift(args) -> int:
    from slalom.covering import word_to_curve

    w = parse_word(args.word)
    lifted, pieces = _lift(args, word_to_curve(w, args.config_obj.samples_per_turn))
    end = lifted.end
    result = {
        "word": format_word(w),
        "lift_endpoint": {"re": end.real, "im": end.imag},
        "pieces": [
            {
                "half_plane": p.half_plane.value,
                "start_component": p.start_component,
                "end_component": p.end_component,
                "trivial": p.trivial,
            }
            for p in pieces
        ],
    }
    return _emit(args, result, args.word)


def _cmd_braid(args) -> int:
    from slalom.braids import braid_to_strands, cross_ratio_curve, cstar, parse_braid

    b = parse_braid(args.braidword)
    w = cstar(b)
    bounds = _bounds(w, BoundaryCondition(args.boundary), args.config_obj.bound_constants)
    result = {"braid": args.braidword, **_word_report(w), **bounds}
    if args.svg:
        _lift(args, cross_ratio_curve(braid_to_strands(b)))
    return _emit(args, result, args.braidword)


def _random_reduced_word(rng: random.Random, max_letters: int) -> FreeWord:
    """Random reduced word with letter length (sum of |exponents|) <= max_letters."""
    terms = []
    budget = rng.randint(0, max_letters)
    gen = rng.choice(list(Generator))
    while budget > 0:
        e = rng.randint(1, min(3, budget)) * rng.choice((1, -1))
        terms.append(Term(gen, e))
        budget -= abs(e)
        gen = Generator.A2 if gen is Generator.A1 else Generator.A1
    return FreeWord(tuple(terms))


def _cmd_roundtrip(args) -> int:
    from slalom.covering import MAX_CURVE_POINTS, curve_to_word, word_to_curve

    cfg = args.config_obj
    if not 1 <= args.count <= MAX_ROUNDTRIP_WORDS:
        raise ValueError(f"--count must be in [1, {MAX_ROUNDTRIP_WORDS}]")
    if not 0 <= args.maxlen * cfg.samples_per_turn <= MAX_CURVE_POINTS:  # samples_per_turn >= 16, so maxlen >= 0
        raise ValueError(f"--maxlen must be >= 0, and --maxlen x samples_per_turn <= {MAX_CURVE_POINTS}")
    if args.count * args.maxlen * cfg.samples_per_turn > MAX_ROUNDTRIP_POINTS:
        raise ValueError(f"--count x --maxlen x samples_per_turn must be <= {MAX_ROUNDTRIP_POINTS}")
    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.count):
        w = _random_reduced_word(rng, args.maxlen)
        got = curve_to_word(word_to_curve(w, cfg.samples_per_turn))
        if got != w:
            failures.append({"word": format_word(w), "got": format_word(got)})
    result = {
        "count": args.count,
        "maxlen": args.maxlen,
        "seed": args.seed,
        "failures": len(failures),
        "failed_words": failures,
    }
    return _emit(args, result, {"count": args.count, "maxlen": args.maxlen})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slalom", description=__doc__)
    parser.add_argument("--config", help="path to a key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="Lambda invariant and bounds of a word")
    p.add_argument("word")
    p.add_argument("--boundary", choices=[bc.value for bc in BoundaryCondition])
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("syllables", help="syllable decomposition of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_syllables)

    p = sub.add_parser("rectangle-module", help="extremal length of the M-rectangle")
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--method", choices=[m.value for m in ModulusMethod], default="closed")
    p.set_defaults(func=_cmd_rectangle_module)

    p = sub.add_parser("verify-bounds", help="logarithmic bound sweep")
    p.add_argument("--from", dest="frm", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("lift", help="lift the standard curve of a word")
    p.add_argument("word")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("braid", help="invariant of a pure 3-braid")
    p.add_argument("braidword")
    p.add_argument("--boundary", choices=[bc.value for bc in BoundaryCondition], default="pb")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_braid)

    p = sub.add_parser("roundtrip", help="word -> curve -> word self-check")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_roundtrip)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_obj = load_config(args.config)
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:  # PurityError and LiftError are ValueErrors
        print(f"slalom: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
