"""Benchmark of slalom: runs one workload, checks every output, prints the metrics.

    python3 perfbench/run.py --workload braids --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --quick

Run it from anywhere inside a checkout that holds ``src/slalom``; the
package need not be installed.  Each run measures the set-up time in fresh
interpreters, then runs the workload in one fresh worker process
(``worker.py``), which streams its outputs back.  The outputs are checked
here, against values computed without slalom (``checks.py``).  The last line
of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run.  A record of each run goes to
``perfbench/results/``.  ``--quick`` runs every workload, traced and not,
on small inputs, and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from checks import CHECKS
from worker import slowdown_process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SLALOM_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _python(args, **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT, check=True, **kw)


def measure_setup(workload: str, samples: int) -> tuple[float, float]:
    """Median time of a fresh interpreter importing the workload's modules and loading the config.

    Returns it scaled and as measured: each scaled time is divided by the
    slowdown of ``worker.slowdown_process``, timed just before and after it on
    the same CPU (README.md, "Host speed").
    """
    code = "".join(f"import {m}\n" for m in inputs.setup_modules(workload))
    code += "import slalom.config\nslalom.config.load_config()\n"
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        _python(["-c", code])  # warm-up: byte-compiles src/slalom; fails when it is missing
        times, scaled = [], []
        for _ in range(samples):
            before = slowdown_process()
            t0 = time.perf_counter()
            _python(["-c", code])
            times.append(time.perf_counter() - t0)
            scaled.append(times[-1] / ((before + slowdown_process()) / 2))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(scaled), statistics.median(times)


def import_times() -> dict[str, float]:
    """Median cumulative import time in ms of slalom.cli and slalom.elliptic (``-X importtime``)."""
    samples: dict[str, list[float]] = {"slalom.cli": [], "slalom.elliptic": []}
    for _ in range(IMPORT_SAMPLES):
        err = _python(["-X", "importtime", "-c", "import slalom.cli"], capture_output=True, text=True).stderr
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1e3)
    return {name: statistics.median(xs) for name, xs in samples.items()}


def run_worker(job: dict) -> list[dict]:
    """Run worker.py on ``job`` and collect its JSON lines; raises if it fails or overruns."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        lines = [json.loads(line) for line in proc.stdout]
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return lines


def round_seconds(times: dict[int, list[float]]) -> float:
    """Time of one round: the sum over its operations of each one's median time across rounds."""
    return sum(statistics.median(xs) for xs in times.values())


def evaluate(workload: str, job: dict, lines: list[dict]) -> dict:
    """Check every output; collect each operation's times over the untraced and the traced rounds."""
    attempted = failed = 0
    errors, failures = [], set()
    # per operation of the round: its times at the reference speed, untraced and traced, and as measured
    times: dict[bool, dict[int, list[float]]] = {False: {}, True: {}}
    raw: dict[int, list[float]] = {}
    for rnd in (line for line in lines if "ops" in line):
        ops = inputs.round_ops(workload, job["seed"], rnd["r"], job["quick"], job["tmp"])
        if len(ops) != len(rnd["ops"]):
            errors.append(f"round {rnd['r']} returned {len(rnd['ops'])} of {len(ops)} outputs")
        for i, (op, (t, slowdown, out)) in enumerate(zip(ops, rnd["ops"])):
            attempted += 1
            times[rnd["traced"]].setdefault(i, []).append(t / slowdown)
            if not rnd["traced"]:
                raw.setdefault(i, []).append(t)
            if "error" in out:
                failed += 1
                failures.add(out["error"].split(" at ")[0])
                continue
            reason = CHECKS[workload](op, out)
            if reason:
                errors.append(reason)
    return {"attempted": attempted, "failed": failed, "errors": errors, "failures": sorted(failures),
            "times": times, "raw": raw, "rounds": sum(1 for line in lines if "ops" in line),
            "layers": next((line["layers"] for line in lines if "layers" in line), {})}


def run_record(args, result: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))).stdout.strip()
    except OSError:
        commit = ""
    versions = {}
    for lib in ("numpy", "scipy", "mpmath"):
        try:
            versions[lib] = importlib.metadata.version(lib)
        except importlib.metadata.PackageNotFoundError:
            versions[lib] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit or "unknown", "python": platform.python_version(), **versions,
        "nproc": len(os.sched_getaffinity(0)), **result,
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    try:
        setup_s, measured_setup_s = (None, None) if trace else measure_setup(workload, 1 if quick else SETUP_SAMPLES)
        job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
               "tmp": str(tmp), "trace_file": str(RESULTS / f"{workload}-s{seed}.trace.json")}
        ev = evaluate(workload, job, run_worker(job))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    untraced = round_seconds(ev["times"][False])
    completed = (ev["attempted"] - ev["failed"]) / ev["rounds"]
    if trace:
        imports = import_times()
        traced = round_seconds(ev["times"][True])
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in ev["layers"].items()}
        metrics["cli.import_ms"] = {"value": imports["slalom.cli"], "unit": "ms"}
        metrics["elliptic.import_ms"] = {"value": imports["slalom.elliptic"], "unit": "ms"}
        metrics["trace.overhead_pct"] = {"value": 100 * (traced / untraced - 1), "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": completed / untraced, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "unit": "MB"},
        }
    return {"correct": not ev["errors"], "attempted": ev["attempted"], "failed": ev["failed"],
            "metrics": metrics, "measured_ops_per_s": completed / round_seconds(ev["raw"]),
            "measured_setup_s": measured_setup_s,
            "errors": ev["errors"][:20], "failures": ev["failures"]}


def run_quick(seed: int) -> int:
    """Every workload, untraced and traced, on small inputs; exit 1 if a check fails."""
    ok = True
    for workload in inputs.WORKLOADS:
        for trace in (False, True):
            t0 = time.perf_counter()
            res = run_once(workload, seed, 0, trace, quick=True)
            ok &= res["correct"]
            print(f"{workload:12s} trace={int(trace)} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {time.perf_counter() - t0:.1f}s")
            for reason in res["errors"]:
                print(f"  error: {reason}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="run every workload and check on small inputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slalom").is_dir():
        print(f"run.py: no slalom sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        if args.quick:
            return run_quick(args.seed)
        if args.workload is None:
            parser.error("--workload is required without --quick")
        res = run_once(args.workload, args.seed, args.seconds, bool(args.trace), quick=False)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    record = run_record(args, res)
    path = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for reason in res["errors"]:
        print(f"error: {reason}", file=sys.stderr)
    for failure in res["failures"]:
        print(f"failed operations: {failure}", file=sys.stderr)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
