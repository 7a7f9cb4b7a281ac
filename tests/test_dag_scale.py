import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "dag_scale.py"


def load_script():
    spec = importlib.util.spec_from_file_location("dag_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_long_dag_has_unit_mass():
    record = load_script().measure(40, repeats=1)
    assert record["nodes"] == 40 and record["edges"] >= 39
    assert abs(record["z"] - 1.0) <= 1e-9
    assert all(record[key] >= 0.0 for key in ("parse_s", "load_s", "pass_s", "load_pass_s"))


def test_main_appends_one_record_per_run(capsys, monkeypatch, tmp_path):
    dag_scale = load_script()
    monkeypatch.setattr(dag_scale, "SIZES", (40,))
    monkeypatch.chdir(tmp_path)
    assert dag_scale.main() == 0
    assert dag_scale.main() == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    records = json.loads((tmp_path / "BENCH_dag_scale.json").read_text(encoding="utf-8"))
    assert [r["runs"] for r in records] == [printed[:1], printed[1:]]
    assert all(r["sizes"] == [40] for r in records)
    assert all(r["commit"] == dag_scale.head_commit(dag_scale.ROOT) for r in records)
