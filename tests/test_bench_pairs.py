import importlib.util
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "experiment_s", "better": "lower", "bound": 0.25}],
}


def run(side, seed, seconds, failed=0):
    metrics = {"experiment_s": {"value": seconds, "unit": "s"}}
    return {"workload": "w", "seed": seed, "trace": 0, "side": side,
            "result": {"correct": not failed, "attempted": 4, "failed": failed, "metrics": metrics}}


def test_summary_counts_wins_quartiles_and_the_gain_rule():
    parent = [10.0, 10.4, 9.8, 10.2, 10.1, 9.9, 10.3, 10.0, 10.2, 9.9]
    change = [5.0, 5.2, 5.1, 10.2, 4.9, 5.3, 5.0, 5.1, 5.2, 5.0]  # pair 3 ties
    runs = [run("parent", i, v) for i, v in enumerate(parent)]
    runs += [run("change", i, v) for i, v in enumerate(change)]
    runs.append(run("parent", 10, 10.0))  # a pair without its change run is left out
    entry = bench_pairs.summarize(runs, SPEC)["w"]
    assert entry["pairs"] == 10 and entry["failed"] == {"parent": 0, "change": 0}
    metric = entry["experiment_s"]
    assert metric["change_wins"] == 9
    assert metric["parent"]["median"] == 10.05
    assert metric["parent"]["q1"] <= metric["parent"]["median"] <= metric["parent"]["q3"]
    assert metric["within_bound"] and metric["gain_rule_met"]


def test_summary_flags_a_regression_past_the_bound():
    runs = [run("parent", i, 10.0) for i in range(3)] + [run("change", i, 13.0, failed=1) for i in range(3)]
    entry = bench_pairs.summarize(runs, SPEC)["w"]
    metric = entry["experiment_s"]
    assert entry["failed"] == {"parent": 0, "change": 3}
    assert metric["change_wins"] == 0
    assert not metric["within_bound"] and not metric["gain_rule_met"]


def test_gain_rule_needs_all_ten_pairs():
    runs = [run("parent", i, 10.0 + i / 100) for i in range(9)] + [run("change", i, 5.0) for i in range(9)]
    metric = bench_pairs.summarize(runs, SPEC)["w"]["experiment_s"]
    assert metric["change_wins"] == 9 and metric["within_bound"]
    assert not metric["gain_rule_met"]


def test_every_run_compiles_under_its_own_pycache_prefix(tmp_path, monkeypatch):
    # A bytecode cache left in one checkout would let that side skip
    # compiling, which bench/run.py's setup_s times.
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    prefixes = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        assert prefix.is_dir() and Path(cwd) == checkout
        prefixes.append(prefix)
        return subprocess.CompletedProcess(argv, 0, stdout='{"metrics": {}}\n', stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for seed in range(3):
        record = bench_pairs._run(checkout, "w", seed, 1, 0)
        assert record["exit"] == 0 and record["result"] == {"metrics": {}}
    assert len(set(prefixes)) == 3
    for prefix in prefixes:
        assert checkout not in prefix.resolve().parents and not prefix.exists()
    assert list(checkout.iterdir()) == []
