import importlib.util
import json
from pathlib import Path

from semiringlab import build_expectation, builtin, enumerate_ideals, self_module

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "ideal_scale.py"


def load_script():
    spec = importlib.util.spec_from_file_location("ideal_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_product():
    boolean = builtin("boolean").structure
    return build_expectation(boolean, self_module(boolean)).product


def test_measured_carriers_are_the_two_catalog_cells_and_the_self_cell():
    carriers = load_script().carriers()
    assert [(label, s.size) for label, s in carriers] == [
        ("E(chain_2, chain_2xchain_2)", 27),
        ("E(trunc_nat_2, trunc_nat_2xtrunc_nat_2)", 27),
        ("E(P, P), P = E(S2.01, M4.00)", 64),
    ]


def test_small_carrier_counts_its_ideals():
    product = small_product()
    record = load_script().measure("E(boolean, boolean)", product)
    assert (record["carrier"], record["size"]) == ("E(boolean, boolean)", 4)
    assert record["closed_sets"] == len(enumerate_ideals(product))
    assert all(record[key] >= 0.0 for key in ("closed_sets_s", "validate_s", "total_s"))


def test_main_appends_one_record_per_run(capsys, monkeypatch, tmp_path):
    ideal_scale = load_script()
    monkeypatch.setattr(ideal_scale, "carriers", lambda: [("E(boolean, boolean)", small_product())])
    monkeypatch.chdir(tmp_path)
    assert ideal_scale.main() == 0
    assert ideal_scale.main() == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    records = json.loads((tmp_path / "BENCH_ideal_scale.json").read_text(encoding="utf-8"))
    assert [r["runs"] for r in records] == [printed[:1], printed[1:]]
    assert all(r["commit"] == ideal_scale.head_commit(ideal_scale.ROOT) for r in records)
