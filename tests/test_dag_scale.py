import importlib.util
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
