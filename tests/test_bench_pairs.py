import importlib.util
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
