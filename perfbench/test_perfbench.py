"""Self-test of the benchmark on tiny inputs: negative controls and the output schema.

    python3 -m pytest -q perfbench

Each negative control feeds a checker a perturbed result and asserts that the
benchmark flags it and exits non-zero.  Nothing here gates on timings.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY_SUITE = {
    "kind": "suite", "grid": "verify", "max_order": 2, "catalog": False, "numeric": True,
    "expect": {"cells": 4, "records": 142},
}
PINNED = workloads.WORKLOADS["catalog-lattice"]["expect"]["ideals"]
TINY_CATALOG = {
    "kind": "suite", "grid": "catalog-extra", "numeric": False,
    "skip": [
        "E(chain_2, chain_2xchain_2)",
        "E(trunc_nat_2, trunc_nat_2xtrunc_nat_2)",
        "E(zmod_3, zmod_3xzmod_3)",
    ],
    "expect": {"cells": 2, "records": 70, "ideals": {
        "E(zmod_5, zmod_5)": PINNED["E(zmod_5, zmod_5)"],
        "E(zmod_6, zmod_3)": PINNED["E(zmod_6, zmod_3)"],
    }},
}
TINY_DAG = {"kind": "dag", "shape": "long", "nodes": 60, "dim": 2}


@pytest.fixture(scope="module")
def runs():
    """Untraced and traced tiny runs through the real worker processes."""
    out = {}
    for label, spec in (("suite", TINY_SUITE), ("dag", TINY_DAG)):
        for trace in (0, 1):
            out[label, trace] = run.run_workload(f"selftest-{label}", spec, 7, 0.0, trace, imports=2)
    out["catalog", 1] = run.run_workload("selftest-catalog", TINY_CATALOG, 7, 0.0, 1, imports=2)
    return out


def emitted(spec: dict, raw: dict, trace: int, capsys) -> tuple[int, dict]:
    raw = copy.deepcopy(raw)
    raw["problems"], raw["attempted"], raw["failed"] = run.check_outputs(spec, raw)
    code = run.emit("selftest", 7, trace, raw, BENCH)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def assert_flagged(code: int, line: dict) -> None:
    assert code != 0
    assert line["correct"] is False


def test_unperturbed_runs_are_correct(runs, capsys):
    for (label, trace), raw in runs.items():
        spec = {"suite": TINY_SUITE, "dag": TINY_DAG, "catalog": TINY_CATALOG}[label]
        code, line = emitted(spec, raw, trace, capsys)
        assert code == 0 and line["correct"] is True, (label, trace, raw["problems"])
        assert line["failed"] == 0 and line["attempted"] >= 1


def test_z_off_by_1e6_is_flagged(runs, capsys):
    raw = copy.deepcopy(runs["dag", 0])
    raw["passes"][0]["output"]["z"] += 1e-6
    code, line = emitted(TINY_DAG, raw, 0, capsys)
    assert_flagged(code, line)
    assert line["failed"] == 1


def test_ideal_count_off_by_one_is_flagged(runs, capsys):
    raw = copy.deepcopy(runs["catalog", 1])
    enumerated = raw["traced"][0]["enumerated"]
    k = next(i for i, e in enumerate(enumerated) if e[1] == "E(zmod_5, zmod_5)" and e[0] == "ideals.enumerate_ideals")
    boundary, carrier, size, found = enumerated[k]
    enumerated[k] = [boundary, carrier, size, found + 1]
    code, line = emitted(TINY_CATALOG, raw, 1, capsys)
    assert_flagged(code, line)
    assert line["failed"] >= 1


def test_error_witness_is_a_failed_operation(tmp_path, capsys):
    payload = workloads.suite_pass(TINY_SUITE, 7, str(tmp_path / "report.json"))
    record = payload["records"][0]
    record["status"], record["witness"] = "fail", {"error": "ZeroDivisionError: injected"}
    raw = {"passes": [{"pass_s": 1.0, "wall_s": 1.0, "peak_rss_kb": 1024, "output": workloads.summarize_report(payload)}],
           "traced": [], "setup_s": [[0.1, 0.1]], "reference": None}
    code, line = emitted(TINY_SUITE, raw, 0, capsys)
    assert_flagged(code, line)
    assert line["failed"] == 1 and line["attempted"] == 4


def test_double_counted_self_time_is_flagged(runs, capsys):
    raw = copy.deepcopy(runs["suite", 1])
    raw["traced"][0]["self_s"]["ideals.ideal_violation"] += 0.5
    code, line = emitted(TINY_SUITE, raw, 1, capsys)
    assert_flagged(code, line)


def test_result_line_schema(runs, capsys):
    for (label, trace), raw in runs.items():
        spec = {"suite": TINY_SUITE, "dag": TINY_DAG, "catalog": TINY_CATALOG}[label]
        _code, line = emitted(spec, raw, trace, capsys)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert isinstance(line["attempted"], int) and isinstance(line["failed"], int)
        declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        assert [m["name"] for m in declared] == list(line["metrics"])
        for m in declared:
            value = line["metrics"][m["name"]]
            assert value["unit"] == m["unit"]
            assert isinstance(value["value"], (int, float)) and not isinstance(value["value"], bool)


def test_every_declared_layer_metric_is_measured(runs):
    measured = set(run.per_layer_metrics(runs["suite", 1])) | set(run.per_layer_metrics(runs["dag", 1]))
    missing = [m["name"] for m in BENCH["per_layer"] if m["name"] not in measured]
    assert not missing


def test_traced_counts_repeat_exactly(runs):
    again = run.run_workload("selftest-suite", TINY_SUITE, 7, 0.0, 1, imports=2)
    assert again["traced"][0]["calls"] == runs["suite", 1]["traced"][0]["calls"]
    assert again["traced"][0]["enumerated"] == runs["suite", 1]["traced"][0]["enumerated"]
    assert (again["passes"][0]["output"]["verdict_digest"]
            == runs["suite", 1]["passes"][0]["output"]["verdict_digest"])


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCH["workloads"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
               for m in BENCH["end_to_end"] + BENCH["per_layer"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark, it fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dag-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
