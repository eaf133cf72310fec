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


def write_layers(directory: Path, workload: str, seed: int, lift_us: float):
    metrics = {"covering.lift_path_us_per_point": {"value": lift_us, "unit": "us/point"},
               "covering.refine_ratio": {"value": 1.0, "unit": "ratio"}}
    record = {"workload": workload, "seed": seed, "seconds": 15, "trace": 1, "metrics": metrics}
    (directory / f"{workload}-s{seed}-t1.json").write_text(json.dumps(record))


def test_layer_medians_from_traced_records(tmp_path):
    for seed in (1, 2):
        write_record(tmp_path, "word-ladder", seed, 0, 10.0)
        write_record(tmp_path, "cli", seed, 0, 5.0)
    for seed, lift_us in ((3, 4.0), (1, 2.0), (2, 9.0)):
        write_layers(tmp_path, "word-ladder", seed, lift_us)
    write_layers(tmp_path, "braids", 1, 7.0)  # no untraced braids run: no braids entry
    out = tmp_path / "BENCH.json"
    assert load_script().main([str(out), f"change={tmp_path}"]) == 0
    workloads = json.loads(out.read_text())["change"]["workloads"]
    layers = workloads["word-ladder"]["layers"]
    assert layers["seeds"] == [1, 2, 3]
    assert layers["covering.lift_path_us_per_point"] == {"median": 4.0, "unit": "us/point"}
    assert layers["covering.refine_ratio"] == {"median": 1.0, "unit": "ratio"}
    assert workloads["word-ladder"]["seeds"] == [1, 2] and workloads["word-ladder"]["ops_per_s"]["median"] == 10.0
    assert "layers" not in workloads["cli"] and set(workloads) == {"word-ladder", "cli"}


def test_missing_records_or_labels(tmp_path):
    script = load_script()
    assert script.main([str(tmp_path / "BENCH.json"), f"empty={tmp_path}"]) == 1
    assert script.main([str(tmp_path / "BENCH.json"), str(tmp_path)]) == 2
    assert not (tmp_path / "BENCH.json").exists()


def test_pairs_by_seed_in_the_declared_direction(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    for seed in range(1, 11):
        write_record(parent, "cli", seed, 0, 8.0 + seed / 100)
        write_record(change, "cli", seed, 0, 10.0 if seed < 10 else 8.1)  # seed 10 ties
    write_record(parent, "cli", 11, 0, 1.0)  # no change run of seed 11: not a pair
    for seed in range(1, 4):
        write_record(parent, "braids", seed, 0, 1.0)
        write_record(change, "braids", seed, 0, 2.0)
    write_record(change, "invariants", 1, 0, 2.0)  # no parent side: no pairs
    out = tmp_path / "BENCH.json"
    assert load_script().main([str(out), f"parent={parent}", f"change={change}"]) == 0
    pairs = json.loads(out.read_text())["pairs"]
    assert set(pairs) == {"cli", "braids"}
    cli = pairs["cli"]["ops_per_s"]
    assert (cli["pairs"], cli["won"], cli["gain_claimable"]) == (10, 9, True)
    assert cli["median_difference"] == 10.0 - 8.055 and abs(cli["parent_iqr"] - 0.055) < 1e-12
    # setup_s (lower is better) and peak_rss_mb are equal in every pair: ties, no pair won
    assert [(m["won"], m["gain_claimable"]) for m in (pairs["cli"]["setup_s"], pairs["cli"]["peak_rss_mb"])] == [
        (0, False), (0, False)]
    assert (pairs["braids"]["ops_per_s"]["won"], pairs["braids"]["ops_per_s"]["gain_claimable"]) == (3, False)


def test_lower_is_better_where_declared(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    for seed in range(1, 11):
        write_record(parent, "cli", seed, 0, 8.0 + seed / 10)
        write_record(change, "cli", seed, 0, 8.01 + seed / 10)  # every pair won, by less than the spread
    for record in change.glob("*.json"):  # set-up (0.1 s per seed) a second faster on the change side
        data = json.loads(record.read_text())
        data["metrics"]["setup_s"]["value"] -= 1.0
        record.write_text(json.dumps(data))
    out = tmp_path / "BENCH.json"
    assert load_script().main([str(out), f"parent={parent}", f"change={change}"]) == 0
    cli = json.loads(out.read_text())["pairs"]["cli"]
    assert (cli["setup_s"]["won"], cli["setup_s"]["gain_claimable"]) == (10, True)
    assert (cli["ops_per_s"]["won"], cli["ops_per_s"]["gain_claimable"]) == (10, False)


def test_within_bound_on_either_side_of_the_bound(tmp_path):
    """``within_bound`` holds where the change's median is worse than the parent's by at most the metric's bound, a
    fraction of the parent's median, in the declared direction."""
    script = load_script()
    bound = {m["name"]: m["bound"] for m in json.loads(script.BENCHMARK.read_text())["end_to_end"]}
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    for workload, margin in (("cli", 0.01), ("braids", -0.01)):  # just inside the bound, just outside it
        for seed in range(1, 4):
            write_record(parent, workload, seed, 0, 10.0)
            write_record(change, workload, seed, 0, 10.0 * (1 - bound["ops_per_s"] + margin))
    for record in change.glob("cli-*.json"):  # set-up slower by more than its bound of the median 0.2 s
        data = json.loads(record.read_text())
        data["metrics"]["setup_s"]["value"] += 0.2 * (bound["setup_s"] + 0.01)
        record.write_text(json.dumps(data))
    out = tmp_path / "BENCH.json"
    assert script.main([str(out), f"parent={parent}", f"change={change}"]) == 0
    pairs = json.loads(out.read_text())["pairs"]
    assert [pairs[w]["ops_per_s"]["within_bound"] for w in ("cli", "braids")] == [True, False]
    assert [pairs[w]["setup_s"]["within_bound"] for w in ("cli", "braids")] == [False, True]
    assert pairs["cli"]["peak_rss_mb"]["within_bound"] and pairs["braids"]["peak_rss_mb"]["within_bound"]
