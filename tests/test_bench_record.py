"""bench_record.py turns perfbench run records into the per-workload medians of a BENCH file."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench_record.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(directory: Path, workload: str, seed: int, trace: int, ops: float, commit: str = "abc"):
    metrics = {"setup_s": {"value": 0.1 * seed, "unit": "s"}, "ops_per_s": {"value": ops, "unit": "1/s"},
               "peak_rss_mb": {"value": 20.0, "unit": "MB"}}
    record = {"workload": workload, "seed": seed, "seconds": 15, "trace": trace, "commit": commit,
              "python": "3.11.7", "numpy": "2.0", "scipy": "1.0", "mpmath": None, "nproc": 2,
              "correct": True, "attempted": 8, "failed": seed % 2, "metrics": metrics}
    (directory / f"{workload}-s{seed}-t{trace}.json").write_text(json.dumps(record))


def test_medians_per_side_and_workload(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    for seed, ops in ((1, 10.0), (2, 30.0), (3, 20.0), (4, 40.0)):
        write_record(parent, "braids", seed, 0, ops)
    write_record(parent, "braids", 1, 1, 999.0)  # traced records are not end-to-end runs
    write_record(change, "cli", 1, 0, 5.0, commit="def")
    out = tmp_path / "BENCH.json"
    assert load_script().main([str(out), f"parent={parent}", f"change={change}"]) == 0
    bench = json.loads(out.read_text())
    braids = bench["parent"]["workloads"]["braids"]
    assert braids["seeds"] == [1, 2, 3, 4] and (braids["attempted"], braids["failed"]) == (32, 2)
    assert braids["ops_per_s"]["median"] == 25.0 and braids["ops_per_s"]["unit"] == "1/s"
    assert (braids["ops_per_s"]["q1"], braids["ops_per_s"]["q3"]) == (12.5, 37.5)
    assert (bench["parent"]["commit"], bench["change"]["commit"], bench["change"]["nproc"]) == ("abc", "def", 2)
    assert bench["change"]["workloads"]["cli"]["setup_s"]["median"] == 0.1


def test_missing_records_or_labels(tmp_path):
    script = load_script()
    assert script.main([str(tmp_path / "BENCH.json"), f"empty={tmp_path}"]) == 1
    assert script.main([str(tmp_path / "BENCH.json"), str(tmp_path)]) == 2
    assert not (tmp_path / "BENCH.json").exists()
