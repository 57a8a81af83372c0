import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from efkit import icn, spaces
from efkit.cli import build_parser, main
from efkit.concepts import ConstraintInstance, ConstraintKind
from efkit.spaces import load_space


def run_cli(*argv):
    return main(list(argv))


def test_gen_space_complete_reproducible(tmp_path, capsys):
    out = tmp_path / "alldiff.space.txt"
    code = run_cli(
        "gen-space", "--kind", "alldiff", "--n", "4", "--lo", "1", "--hi", "5",
        "--complete", "--out", str(out),
    )
    assert code == 0
    assert "625 entries" in capsys.readouterr().out
    space = load_space(out)
    assert len(space) == 625 and space.solution_count == 120
    assert space.has_costs

    manifest = json.loads((tmp_path / "alldiff.space.txt.manifest.json").read_text())
    assert manifest["command"] == "gen-space"
    digest = manifest["outputs"][str(out)]

    out2 = tmp_path / "again.space.txt"
    run_cli(
        "gen-space", "--kind", "alldiff", "--n", "4", "--lo", "1", "--hi", "5",
        "--complete", "--out", str(out2),
    )
    manifest2 = json.loads((tmp_path / "again.space.txt.manifest.json").read_text())
    assert manifest2["outputs"][str(out2)] == digest


def test_gen_space_sampled_and_direct(tmp_path):
    out = tmp_path / "sampled.txt"
    assert run_cli(
        "gen-space", "--kind", "linearsum", "--n", "4", "--lo", "1", "--hi", "5",
        "--p", "12", "--sampled", "--k", "25", "--seed", "7", "--out", str(out),
    ) == 0
    space = load_space(out)
    assert len(space) == 50 and space.solution_count == 25
    assert not space.complete and space.has_costs

    out = tmp_path / "direct.txt"
    assert run_cli(
        "gen-space", "--kind", "alldiff", "--n", "40", "--lo", "1", "--hi", "40",
        "--sampled", "--solutions", "direct", "--k", "30", "--costs", "reference",
        "--seed", "7", "--out", str(out),
    ) == 0
    space = load_space(out)
    assert space.solution_count == 30
    assert (space.costs[space.labels] == 0).all()
    assert (space.costs[~space.labels] >= 1).all()


def test_gen_space_resource_errors(tmp_path, monkeypatch):
    code = run_cli(
        "gen-space", "--kind", "alldiff", "--n", "12", "--lo", "1", "--hi", "12",
        "--complete", "--out", str(tmp_path / "never.txt"),
    )
    assert code == 2  # enumeration cap
    monkeypatch.setattr(spaces, "DRAW_BUDGET", 500)
    code = run_cli(
        "gen-space", "--kind", "minimum", "--n", "3", "--lo", "2", "--hi", "4",
        "--p", "1", "--sampled", "--k", "5", "--out", str(tmp_path / "never2.txt"),
    )
    assert code == 2  # sampling exhausted
    code = run_cli(
        "gen-space", "--kind", "sudoku", "--n", "4", "--lo", "1", "--hi", "5",
        "--complete", "--out", str(tmp_path / "never3.txt"),
    )
    assert code == 1  # unknown kind


def test_gen_space_rejects_bounds_past_int64_sums(tmp_path, capsys):
    code = run_cli(
        "gen-space", "--kind", "linearsum", "--n", "2", "--lo", "0",
        "--hi", str(2**62), "--p", "5", "--complete", "--out", str(tmp_path / "never.txt"),
    )
    assert code == 1
    assert "below 2^62" in capsys.readouterr().err
    assert not (tmp_path / "never.txt").exists()


def test_gen_space_nooverlap_reference_costs(tmp_path):
    """NoOverlap1D has a closed form: on a complete space it writes the file
    that enumeration labelling writes, and it labels n=100 spaces."""
    for costs in ("reference", "auto"):
        assert run_cli(
            "gen-space", "--kind", "nooverlap", "--n", "3", "--lo", "1", "--hi", "6", "--p", "2",
            "--complete", "--costs", costs, "--out", str(tmp_path / costs),
        ) == 0
    assert (tmp_path / "reference").read_bytes() == (tmp_path / "auto").read_bytes()

    out = tmp_path / "n100.txt"
    assert run_cli(
        "gen-space", "--kind", "nooverlap", "--n", "100", "--lo", "1", "--hi", "1000",
        "--p", "5", "--sampled", "--solutions", "direct", "--k", "20", "--costs", "reference",
        "--seed", "7", "--out", str(out),
    ) == 0
    space = load_space(out)
    assert space.solution_count == 20
    assert (space.costs[space.labels] == 0).all()
    assert (space.costs[~space.labels] >= 1).all()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "alldiff", "--n", "9", "--lo", "1", "--hi", "8", "--sampled", "--k", "10"],
         "alldiff with d < n has no solution"),
        (["--kind", "nooverlap", "--n", "6", "--lo", "1", "--hi", "9", "--p", "2", "--complete"],
         "nooverlap n=6 p=2 does not fit in [1, 9]"),
    ],
    ids=["alldiff-sampled", "nooverlap-complete"],
)
def test_gen_space_rejects_an_unsolvable_instance_before_any_search(
    tmp_path, monkeypatch, capsys, argv, message
):
    def search(*args, **kwargs):
        raise AssertionError("searched a space with no solution")

    for name in ("enumerate_complete", "sample_balanced", "sample_balanced_direct"):
        monkeypatch.setattr(spaces, name, search)
    monkeypatch.chdir(tmp_path)
    assert run_cli("gen-space", *argv, "--seed", "0", "--out", "s.txt") == 1
    assert capsys.readouterr().err == f"efkit: error: {message}\n"
    assert not any(tmp_path.iterdir())


def learn_args(space, out_dir, runs=3):
    return [
        "learn", "--space", str(space), "--out-dir", str(out_dir),
        "--runs", str(runs), "--seed", "5",
        "--population-size", "60", "--max-generations", "40", "--steady-stop", "10",
    ]


@pytest.fixture()
def alldiff_space(tmp_path):
    out = tmp_path / "train.space.txt"
    run_cli(
        "gen-space", "--kind", "alldiff", "--n", "4", "--lo", "1", "--hi", "5",
        "--complete", "--out", str(out),
    )
    return out


def test_learn_writes_artifacts_and_summary(tmp_path, alldiff_space, capsys):
    out_dir = tmp_path / "runs"
    assert run_cli(*learn_args(alldiff_space, out_dir)) == 0
    printed = capsys.readouterr().out
    assert "modal function:" in printed

    for run in range(3):
        genome = icn.load_genome(out_dir / f"run{run:03d}.genome.txt")
        assert genome.ctx.n == 4
        metrics = json.loads((out_dir / f"run{run:03d}.metrics.json").read_text())
        assert {"seed", "best_loss", "best_deviation", "generations_run", "function"} <= set(metrics)
        trace = (out_dir / f"run{run:03d}.trace.csv").read_text().splitlines()
        assert trace[0] == "generation,best_loss"
        assert len(trace) == metrics["generations_run"] + 2  # header + gen 0

    summary = (out_dir / "summary.txt").read_text().splitlines()
    counts = [int(line.split("\t")[0]) for line in summary[1:]]
    assert sum(counts) == 3


def test_learn_rejects_zero_runs(tmp_path, alldiff_space, capsys):
    out_dir = tmp_path / "runs"
    assert run_cli(*learn_args(alldiff_space, out_dir, runs=0)) == 1
    assert "--runs must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_learn_rejects_inconsistent_space_file(tmp_path, capsys):
    # The AllDifferent row 1 1 1 is labeled a solution.
    space = tmp_path / "bad.space.txt"
    space.write_text(
        "# constraint kind=alldiff n=3 lo=1 hi=3 p=0 complete=0\n"
        "1 2 3 | 1 | 0\n"
        "1 1 1 | 1 | 0\n"
    )
    out_dir = tmp_path / "runs"
    assert run_cli(*learn_args(space, out_dir, runs=1)) == 1
    assert f"{space}:3:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_learn_and_eval_name_an_empty_space_file(tmp_path, capsys):
    space = tmp_path / "empty.space.txt"
    space.write_text("# constraint kind=alldiff n=4 lo=1 hi=5 p=0 complete=0\n")
    out_dir = tmp_path / "runs"
    assert run_cli(*learn_args(space, out_dir, runs=1)) == 1
    assert not out_dir.exists()
    genome = tmp_path / "g.genome.txt"
    ctx = icn.ctx_from_constraint(ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5))
    icn.save_genome(icn.ErrorFunction(icn.alldifferent_reference_genome(), ctx), genome)
    assert run_cli("eval", "--genome", str(genome), "--space", str(space)) == 1
    err = capsys.readouterr().err
    assert err.count(f"efkit: error: {space}:2: no rows after the header\n") == 2


def test_learn_reproducible(tmp_path, alldiff_space):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_cli(*learn_args(alldiff_space, dir_a, runs=2))
    run_cli(*learn_args(alldiff_space, dir_b, runs=2))
    for name in ("run000.genome.txt", "run001.genome.txt", "summary.txt"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


@pytest.mark.parametrize(
    "kind, n, lo, hi, p",
    [
        ("alldiff", 4, 1, 5, 0),
        ("minimum", 4, 1, 6, 3),
        ("linearsum", 4, 1, 6, 14),
        ("ordered", 4, 1, 5, 0),
        ("nooverlap", 3, 1, 7, 2),
    ],
    ids=["alldiff", "minimum", "linearsum", "ordered", "nooverlap"],
)
def test_eval_reproduces_training_deviation(tmp_path, capsys, kind, n, lo, hi, p):
    space = tmp_path / f"{kind}.space.txt"
    assert run_cli(
        "gen-space", "--kind", kind, "--n", str(n), "--lo", str(lo), "--hi", str(hi),
        "--p", str(p), "--complete", "--out", str(space),
    ) == 0
    out_dir = tmp_path / "runs"
    assert run_cli(*learn_args(space, out_dir, runs=1)) == 0
    capsys.readouterr()
    metrics = json.loads((out_dir / "run000.metrics.json").read_text())

    assert run_cli("eval", "--genome", str(out_dir / "run000.genome.txt"), "--space", str(space)) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    reported = float(printed[0].split("\t")[1])
    # eval prints six significant digits.
    rows = (hi - lo + 1) ** n
    assert reported == pytest.approx(metrics["best_deviation"] / (rows * n), rel=1e-5)


def test_eval_directory_and_kind_mismatch(tmp_path, alldiff_space, capsys):
    out_dir = tmp_path / "runs"
    run_cli(*learn_args(alldiff_space, out_dir, runs=2))

    assert run_cli("eval", "--genome", str(out_dir), "--space", str(alldiff_space)) == 0
    printed = capsys.readouterr().out
    assert "median" in printed and "mean" in printed

    other = tmp_path / "minimum.space.txt"
    run_cli(
        "gen-space", "--kind", "minimum", "--n", "4", "--lo", "1", "--hi", "6",
        "--p", "3", "--complete", "--out", str(other),
    )
    code = run_cli("eval", "--genome", str(out_dir / "run000.genome.txt"), "--space", str(other))
    assert code == 1


def test_eval_rejects_malformed_genome_file(tmp_path, alldiff_space, capsys):
    genome = tmp_path / "bad.genome.txt"
    genome.write_text("icn-genome v1\n0100000000000000001001100000000\nctx n=4 d=5 p=0 lo=1 n=9\n")
    assert run_cli("eval", "--genome", str(genome), "--space", str(alldiff_space)) == 1
    assert f"{genome}:3: duplicate ctx key 'n'" in capsys.readouterr().err


def test_learn_flags_reach_the_manifest(tmp_path, alldiff_space):
    out_dir = tmp_path / "runs"
    assert run_cli(*learn_args(alldiff_space, out_dir, runs=1)) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["ga_config"] == {
        "population_size": 60,
        "max_generations": 40,
        "steady_stop": 10,
        "rng_seed": 5,
    }


def test_solve_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run_cli(
        "solve", "--k", "3", "--variant", "icn_hardcoded", "--runs", "3",
        "--timeout", "10000", "--seed", "9", "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "variant,k,run,seed,status,ms,iterations,restarts,unfaithful_restarts"
    assert len(lines) == 4
    assert all(line.startswith("icn_hardcoded,3,") for line in lines[1:])
    assert all(line.endswith(",0") for line in lines[1:])  # no unfaithful restart
    assert "timeouts=0/3" in capsys.readouterr().out


# Each command line is valid until the flag is given again with a value that
# int() takes but a file integer may not be; parsing stops before any command
# runs or writes.
GEN_SPACE = ["gen-space", "--kind", "alldiff", "--n", "3", "--lo", "1", "--hi", "4",
             "--complete", "--out", "s.txt"]
LEARN = ["learn", "--space", "train.space.txt", "--out-dir", "runs"]
SOLVE = ["solve", "--variant", "icn_hardcoded", "--out", "b.csv"]


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (GEN_SPACE, "--hi", "\uff14"),
        (GEN_SPACE, "--p", "+0"),
        (GEN_SPACE, "--n", "0_3"),
        (GEN_SPACE, "--seed", " 1"),
        (LEARN, "--population-size", "1_6"),
        (LEARN, "--runs", "\uff12"),
        (SOLVE, "--runs", "+3"),
        (SOLVE, "--k", "\uff13"),
        (SOLVE, "--timeout", "1_000"),
    ],
)
def test_integer_flags_are_read_strictly(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, flag, value)
    assert exc.value.code == 1
    assert f"argument {flag}: invalid integer value: {value!r}" in capsys.readouterr().err


SAMPLED = ["gen-space", "--kind", "alldiff", "--n", "3", "--lo", "1", "--hi", "4",
           "--sampled", "--k", "5", "--out", "s.txt"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (SOLVE + ["--runs", "1", "--jobs", "0"], "jobs must be >= 1, got 0"),
        (SOLVE + ["--runs", "2", "--jobs", "-2"], "jobs must be >= 1, got -2"),
    ],
    ids=["solve-jobs-zero", "solve-jobs-negative"],
)
def test_out_of_range_flags_are_input_errors(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    assert f"efkit: error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# The search and GA constants, the space-build limits, the GA config file
# and the cost modes that matched `auto` or wrote a space nothing reads are
# not settings.
@pytest.mark.parametrize(
    "argv",
    [
        SOLVE + ["--runs", "1", "--tenure", "2"],
        SOLVE + ["--runs", "1", "--plateau", "810"],
        GEN_SPACE + ["--costs", "exact"],
        GEN_SPACE + ["--costs", "nearest"],
        GEN_SPACE + ["--costs", "none"],
        SAMPLED + ["--budget", "0"],
        SAMPLED + ["--solutions", "direct", "--budget", "-1"],
        GEN_SPACE + ["--cap", "0"],
        LEARN + ["--config", "f"],
        LEARN + ["--crossover-rate", "0.5"],
        LEARN + ["--mutation-rate", "0.5"],
        LEARN + ["--elite-fraction", "0.2"],
        # A prefix of a flag is not that flag (--timeout, --population-size).
        ["solve", "--variant", "handcrafted", "--time", "5", "--runs", "1"],
        LEARN + ["--pop", "5"],
    ],
    ids=["tenure", "plateau", "costs-exact", "costs-nearest", "costs-none", "budget",
         "direct-budget", "cap", "config", "crossover-rate", "mutation-rate", "elite-fraction",
         "prefix-time", "prefix-pop"],
)
def test_removed_settings_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 1
    assert re.search(r"efkit( \S+)?: error: (unrecognized arguments|argument --costs: invalid choice)",
                     capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "variant, genome, constraint, message",
    [
        ("handcrafted", icn.alldifferent_reference_genome(),
         ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 9, 1, 9),
         "efkit: error: variant handcrafted takes no genome"),
        ("icn_feedforward", icn.linear_sum_reference_genome(),
         ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 1, 6, 14),
         "efkit: error: g.genome.txt: genome was learned for linearsum"),
    ],
    ids=["unused-genome", "wrong-kind"],
)
def test_solve_rejects_a_genome_it_cannot_use(tmp_path, monkeypatch, capsys, variant, genome,
                                              constraint, message):
    genome_path = tmp_path / "g.genome.txt"
    icn.save_genome(icn.ErrorFunction(genome, icn.ctx_from_constraint(constraint)), genome_path)
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve", "--variant", variant, "--runs", "1", "--genome", genome_path.name,
                   "--out", "b.csv") == 1
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [genome_path.name]


def test_learn_rejects_nonpositive_jobs(tmp_path, alldiff_space, capsys):
    out_dir = tmp_path / "runs"
    assert run_cli(*learn_args(alldiff_space, out_dir, runs=1), "--jobs", "0") == 1
    assert "efkit: error: jobs must be >= 1, got 0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--variant", "banana")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-space", "--kind", "alldiff")
    assert exc.value.code == 1


def readme_commands() -> list[list[str]]:
    """The arguments of every `efkit ...` line in README's fenced blocks,
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("efkit "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: efkit {shlex.join(argv)}")
