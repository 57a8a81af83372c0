"""Quick self-test of the benchmark; gates on no timing.

    python3 bench/selftest.py

Runs every workload at toy size in both modes and checks the printed
result against the schema BENCHMARK.json declares. Then corrupts outputs
of a toy learning round and a toy solve (a changed learned loss, a rising
loss trace, a flipped label, a changed cost, a wrong score, a broken grid,
diverging trajectories) and shows that each corruption is rejected.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".bench_out" / "selftest"


def check_schema(workload: str, trace: int, declared: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected, workload
    for name, m in metrics.items():
        assert type(m["value"]) in (int, float), (name, m)
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values()), metrics
    print(f"schema ok: {workload} --trace {trace}, {result['attempted']} operations")


def rejected(check, *args) -> bool:
    import checks

    try:
        check(*args)
    except checks.CheckError:
        return True
    return False


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, (path, old)
    path.write_text(text.replace(old, new, 1))


def check_corruptions() -> None:
    import checks
    import workloads
    from efkit import solver

    cfg = workloads.TOY["complete-n4"]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        r = workloads.run_learning(cfg, 3, WORK, None, checks.Verifier())
        assert not r.failures, r.failures
        spec = cfg.train[0]
        space = WORK / f"{spec.name}.space.txt"
        stem = WORK / f"learn-{spec.name}" / "run000"
        v = checks.Verifier()
        v.learn_run(stem, space)

        metrics_path = Path(f"{stem}.metrics.json")
        metrics = json.loads(metrics_path.read_text())
        metrics["best_loss"] += 1.0
        metrics_path.write_text(json.dumps(metrics))
        assert rejected(v.learn_run, stem, space), "changed learned loss accepted"

        trace = Path(f"{stem}.trace.csv")
        trace.write_text(trace.read_text() + f"{metrics['generations_run'] + 1},1e9\n")
        assert rejected(v.learn_run, stem, space), "rising loss trace accepted"

        edit(space, "1 2 3 | 1 | 0", "1 2 3 | 0 | 0")
        assert rejected(v.space, space, spec), "flipped label accepted"
        edit(space, "1 2 3 | 0 | 0", "1 2 3 | 1 | 0")
        v.space(space, spec)
        edit(space, "1 1 1 | 0 | 2", "1 1 1 | 0 | 1")
        assert rejected(v.space, space, spec), "changed cost accepted"

        test = cfg.tests[0]
        reference = WORK / f"eval-{test.name}" / "reference.genome.txt"
        test_space = WORK / f"{test.name}.space.txt"
        v.score(reference, 0.0, test_space)
        assert rejected(v.score, reference, 0.01, test_space), "non-zero canonical score accepted"

        model = solver.build_sudoku(3, "icn_hardcoded")
        outcome = solver.solve(model, workloads.SOLVE_TIMEOUT_MS, workloads.SUDOKU_SEEDS[0])
        v.solve(outcome)
        grid = outcome.assignment
        grid[0], grid[1] = grid[1], grid[0]  # rows stay permutations, columns break
        assert rejected(v.solve, outcome), "broken grid accepted"
        assert rejected(v.same_trajectory, (10, 1), (10, 2)), "diverging trajectories accepted"

        failing = workloads.Round()
        failing.op("corrupt", v.solve, outcome)
        failing.op("exit", v.same_trajectory, (1, 1), (1, 1), status=1)
        assert failing.attempted == 2 and len(failing.failures) == 2, failing
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("corrupted outputs rejected")


def main() -> int:
    sys.path.insert(0, str(HERE))
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    for workload in sorted(w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            check_schema(workload, trace, declared)
    check_corruptions()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
