import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_fewer_than_one_pair_is_a_usage_error(capsys, monkeypatch, tmp_path, pairs):
    bench_pairs = load_script()

    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    # tmp_path holds no BENCHMARK.json, so reading it first would raise FileNotFoundError
    with pytest.raises(SystemExit) as err:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "grid-order4", "--pairs", pairs])
    assert err.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


def fake_runs(bench_pairs, monkeypatch, change_digest="abc"):
    """Replace run_once: base runs take 2.0, 2.1, ... s and change runs 1.0 s less, in call order."""
    calls = []

    def run_once(checkout, workload, seed, seconds):
        side = "base" if checkout.name == "base" else "change"
        calls.append((side, workload, seed, seconds))
        done = sum(1 for c in calls if c[0] == side) - 1
        pass_s = 2.0 + done / 10 - (side == "change")
        return {
            "metrics": {"setup_s": 0.5, "pass_s": pass_s},
            "digest": "abc" if side == "base" else change_digest,
            "correct": True,
        }

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def checkouts(tmp_path):
    bench = {"run_seconds": 3, "end_to_end": [
        {"name": "setup_s", "better": "lower"}, {"name": "pass_s", "better": "lower"}]}
    for side in ("base", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench), encoding="utf-8")
    return ["base", "change"]


def test_each_comparison_appends_one_record(capsys, monkeypatch, tmp_path):
    bench_pairs = load_script()
    calls = fake_runs(bench_pairs, monkeypatch)
    monkeypatch.chdir(tmp_path)
    argv = checkouts(tmp_path) + ["--workload", "grid-order4", "--pairs", "3", "--seed", "5"]
    assert bench_pairs.main(argv) == 0
    assert [c[0] for c in calls] == ["base", "change", "change", "base", "base", "change"]
    assert {c[1:] for c in calls} == {("grid-order4", 5, 3)}
    assert "verdict digests: base ['abc'], change ['abc']" in capsys.readouterr().out

    [record] = json.loads((tmp_path / "BENCH_grid-order4.json").read_text(encoding="utf-8"))
    assert record["checkouts"] == {"base": {"path": "base", "commit": None},
                                   "change": {"path": "change", "commit": None}}
    assert (record["workload"], record["seed"], record["seconds"], record["exit"]) == ("grid-order4", 5, 3, 0)
    assert [pair["first"] for pair in record["pairs"]] == ["base", "change", "base"]
    assert [pair["base"]["metrics"]["pass_s"] for pair in record["pairs"]] == [2.0, 2.1, 2.2]
    assert [pair["change"]["digest"] for pair in record["pairs"]] == ["abc"] * 3
    pass_s = record["metrics"]["pass_s"]
    assert pass_s["base"] == pytest.approx({"q1": 2.05, "median": 2.1, "q3": 2.15})
    assert pass_s["change"] == pytest.approx({"q1": 1.05, "median": 1.1, "q3": 1.15})
    assert pass_s["wins"] == 3 and pass_s["base_iqr"] == pytest.approx(0.1) and pass_s["claim"] is True
    assert record["metrics"]["setup_s"]["wins"] == 0 and record["metrics"]["setup_s"]["claim"] is False

    # a second comparison, whose digests differ, adds a second record
    fake_runs(bench_pairs, monkeypatch, change_digest="def")
    assert bench_pairs.main(argv[:2] + ["--workload", "grid-order4", "--pairs", "1"]) == 1
    records = json.loads((tmp_path / "BENCH_grid-order4.json").read_text(encoding="utf-8"))
    assert len(records) == 2 and records[0] == record
    assert (records[1]["exit"], records[1]["seed"], len(records[1]["pairs"])) == (1, 1, 1)


def test_head_commit_is_read_only_at_the_top_of_a_work_tree(tmp_path):
    bench_pairs = load_script()
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "src" / "code.py").write_text("x = 1\n")
    (tree / "BENCH_x.json").write_text("[]\n")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    subprocess.run(git + ["init", "-q"], cwd=tree, check=True)
    subprocess.run(git + ["add", "-A"], cwd=tree, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "code"], cwd=tree, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, check=True, capture_output=True, text=True)
    sha = head.stdout.strip()
    assert bench_pairs.head_commit(tree) == sha
    assert bench_pairs.head_commit(tree / "src") is None
    (tmp_path / "plain").mkdir()
    assert bench_pairs.head_commit(tmp_path / "plain") is None
    # an appended record is not measured code; an edit under src/ is
    (tree / "BENCH_x.json").write_text('[{"exit": 0}]\n')
    assert bench_pairs.head_commit(tree) == sha
    (tree / "src" / "code.py").write_text("x = 2\n")
    assert bench_pairs.head_commit(tree) == sha + "-dirty"


def compare_gains(capsys, monkeypatch, tmp_path, gains):
    """Ten pairs where change pass i takes gains[i] s less than base pass i; the pass_s record and printed row."""
    bench_pairs = load_script()
    calls = []

    def run_once(checkout, workload, seed, seconds):
        # base pass i takes 2.0 + i/10 s (IQR 0.45 s over ten); change pass i takes gains[i] s less
        side = checkout.name
        i = sum(1 for c in calls if c == side)
        calls.append(side)
        pass_s = 2.0 + i / 10 - (gains[i] if side == "change" else 0.0)
        return {"metrics": {"setup_s": 0.5, "pass_s": pass_s}, "digest": "abc", "correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(checkouts(tmp_path) + ["--workload", "grid-order4", "--pairs", "10"]) == 0
    [record] = json.loads((tmp_path / "BENCH_grid-order4.json").read_text(encoding="utf-8"))
    row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("pass_s"))
    return record["metrics"]["pass_s"], row.split()


@pytest.mark.parametrize(
    "gains, claim",
    [([0.5] * 10, True), ([0.3] * 10, False), ([0.5] * 9 + [-0.5], True), ([0.5] * 8 + [-0.5] * 2, False)],
    ids=["clear", "inside-the-iqr", "nine-wins", "eight-wins"],
)
def test_a_claim_needs_nine_wins_in_ten_and_a_gap_past_the_base_iqr(capsys, monkeypatch, tmp_path, gains, claim):
    pass_s, row = compare_gains(capsys, monkeypatch, tmp_path, gains)
    assert pass_s["base_iqr"] == pytest.approx(0.45)
    assert (pass_s["wins"], pass_s["claim"], pass_s["worse"]) == (sum(g > 0 for g in gains), claim, False)
    assert row[-2:] == ["yes" if claim else "no", "no"]


@pytest.mark.parametrize(
    "gains, worse",
    [([-0.5] * 10, True), ([-0.3] * 10, False), ([0.5] + [-0.5] * 9, True), ([0.5] * 2 + [-0.5] * 8, False)],
    ids=["clear", "inside-the-iqr", "nine-losses", "eight-losses"],
)
def test_worse_needs_nine_losses_in_ten_and_a_gap_past_the_base_iqr(capsys, monkeypatch, tmp_path, gains, worse):
    pass_s, row = compare_gains(capsys, monkeypatch, tmp_path, gains)
    assert (pass_s["wins"], pass_s["claim"], pass_s["worse"]) == (sum(g > 0 for g in gains), False, worse)
    assert row[-2:] == ["no", "yes" if worse else "no"]
