import importlib.util
import json
import os
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "artifact_diff.py"
spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPT)
artifact_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_diff)


def fake_efkit(parent_src, calls, edit=None, drop=None):
    """A subprocess.run that writes, for each efkit command, the files its
    paths name, holding the command line; edit and drop change one
    relative path's file on the parent side."""

    def run(argv, cwd, env, **kwargs):
        efkit = argv[argv.index(artifact_diff.EFKIT) + 1:]
        side = "parent" if env["PYTHONPATH"].split(os.pathsep)[0] == parent_src else "change"
        calls.append((side, Path(cwd), efkit))
        if efkit[0] == "gen-space":
            out = efkit[efkit.index("--out") + 1]
            written = [out, out + ".manifest.json"]
        else:
            out_dir = Path(efkit[efkit.index("--out-dir") + 1])
            written = [str(out_dir / "run000.genome.txt"), str(out_dir / "manifest.json")]
        for rel in written:
            if side == "parent" and rel == drop:
                continue
            path = Path(cwd, rel)
            path.parent.mkdir(parents=True, exist_ok=True)
            text = " ".join(efkit) + ("!" if side == "parent" and rel == edit else "")
            path.write_text(text + "\n")
        return subprocess.CompletedProcess(argv, 0, stdout="", stderr="")

    return run


def test_both_sides_run_run_learnings_commands_under_the_same_relative_paths(tmp_path, monkeypatch, capsys):
    parent = tmp_path / "parent"
    parent.mkdir()
    calls = []
    monkeypatch.setattr(artifact_diff.subprocess, "run", fake_efkit(str(parent / "src"), calls))
    assert artifact_diff.main(["--parent", str(parent), "--change", str(REPO)]) == 0
    assert all(cwd.name == side for side, cwd, _ in calls)
    sides = {side: [argv for s, _, argv in calls if s == side] for side in ("parent", "change")}
    assert sides["parent"] == sides["change"]
    # FULL and TOY each: complete-n4 with 3 train + 2 test spaces, sampled-n10
    # with 1 + 1, at two seeds.
    argvs = sides["change"]
    assert sum(argv[0] == "gen-space" for argv in argvs) == 2 * 2 * (5 + 2)
    assert sum(argv[0] == "learn" for argv in argvs) == 2 * 2 * (3 + 1)
    for argv in argvs:
        assert not any(Path(a).is_absolute() for a in argv)
    learn = next(argv for argv in argvs if argv[0] == "learn")
    assert learn[:4] == ["learn", "--space", "full/complete-n4/seed0/alldiff.space.txt", "--out-dir"]
    assert learn[learn.index("--jobs") + 1] == "1" and learn[learn.index("--seed") + 1] == "42"
    assert capsys.readouterr().out.splitlines()[-1] == (
        "artifact_diff: 44 commands per side, compared 88 files, 0 differ, 0 commands failed")
    assert list(parent.iterdir()) == []


def test_a_changed_or_missing_file_is_reported_and_exits_1(tmp_path, monkeypatch, capsys):
    parent = tmp_path / "parent"
    parent.mkdir()
    edit = "toy/sampled-n10/seed1/alldiff5.space.txt"
    drop = "full/complete-n4/seed0/learn-minimum/manifest.json"
    run = fake_efkit(str(parent / "src"), [], edit=edit, drop=drop)
    monkeypatch.setattr(artifact_diff.subprocess, "run", run)
    assert artifact_diff.main(["--parent", str(parent), "--change", str(REPO)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"only in change: {drop}", f"differs: {edit}",
                   "artifact_diff: 44 commands per side, compared 88 files, 2 differ, 0 commands failed"]


def test_a_failed_command_exits_1(tmp_path, monkeypatch, capsys):
    def failing(argv, cwd, env, **kwargs):
        return subprocess.CompletedProcess(argv, 1, stdout="", stderr="efkit: error: boom\n")

    monkeypatch.setattr(artifact_diff.subprocess, "run", failing)
    assert artifact_diff.main(["--parent", str(tmp_path), "--change", str(REPO)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 * 44 + 1 and out[0].endswith("efkit: error: boom")
    assert out[-1] == "artifact_diff: 44 commands per side, compared 0 files, 0 differ, 88 commands failed"


def test_a_differing_json_file_names_its_key_paths(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    ga_config = {"population_size": 60, "elite_fraction": 0.17}
    manifest = {"command": "learn", "outputs": ["a", "b"],
                "config": {"config": None, "runs": 2, "ga_config": ga_config}}
    edited = {"command": "learn", "outputs": ["a"],
              "config": {"runs": 3, "ga_config": {"population_size": 60}, "jobs": 1}}
    files = {
        "learn/manifest.json": (json.dumps(manifest), json.dumps(edited)),
        "reformatted.json": ('{"a": [1, 2]}', '{"a":[1,2]}'),
        "int-or-float.json": ('{"a": 1}', '{"a": 1.0}'),
        "broken.json": ("{", "{}"),
        "run.genome.txt": ("0\n", "1\n"),
        "same.json": ("{}", "{}"),
    }
    for rel, texts in files.items():
        for root, text in zip((parent, change), texts):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
    count, lines = artifact_diff.compare(parent, change)
    assert count == len(files)
    assert lines == [
        "differs: broken.json",
        "differs: int-or-float.json: a",
        "differs: learn/manifest.json: outputs.1 (only in parent), config.config (only in parent), "
        "config.runs, config.ga_config.elite_fraction (only in parent), config.jobs (only in change)",
        "differs: reformatted.json",
        "differs: run.genome.txt",
    ]
