import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from semiringlab import (
    builtin, cli, enumerate_semimodules, enumerate_semirings, numeric, self_module, semimodule_to_dict,
    semiring_to_dict, tables, zmod_quotient_module,
)
from semiringlab.cli import main
from semiringlab.numeric import forward_total


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def z4_file(tmp_path):
    return write(tmp_path / "z4.json", semiring_to_dict(builtin("zmod_4")))


@pytest.fixture
def module_file(tmp_path):
    return write(tmp_path / "z2mod.json", semimodule_to_dict(zmod_quotient_module(4, 2)))


def test_validate_accepts_good_files(capsys, z4_file, module_file):
    assert main(["validate", z4_file, module_file]) == 0
    out = capsys.readouterr().out
    assert "valid semiring" in out and "valid semimodule" in out


def test_validate_reports_and_fails_on_bad_tables(capsys, tmp_path):
    bad = semiring_to_dict(builtin("zmod_4"))
    bad["add"][0][1] = 0
    path = write(tmp_path / "bad.json", bad)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "add_identity" in out


def test_validate_json_report(tmp_path, z4_file):
    report = tmp_path / "report.json"
    assert main(["validate", z4_file, "--json", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["schema"] == "semiringlab/validate/1"
    assert payload["results"][0]["valid"] is True


def test_builtin_base_name_resolution(tmp_path):
    data = semimodule_to_dict(zmod_quotient_module(4, 2))
    data["base"] = "zmod_4"
    path = write(tmp_path / "named_base.json", data)
    assert main(["validate", path]) == 0


def test_expectation_build_and_ideals(capsys, tmp_path, z4_file, module_file):
    out_file = tmp_path / "e.json"
    assert main(["expectation-build", "--semiring", z4_file, "--module", module_file, "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["size"] == 8
    assert payload["pairing"][0] == [0, 0]

    report = tmp_path / "ideals.json"
    assert main(["ideals", "--instance", str(out_file), "--report", str(report)]) == 0
    rows = json.loads(report.read_text())["ideals"]
    assert rows[0]["members"] == [[0, 0]]
    assert rows[-1]["size"] == 8
    assert any(row["prime"] for row in rows if row["proper"])


def test_ideals_report_without_a_pairing_lists_plain_indices(capsys, tmp_path, z4_file):
    report = tmp_path / "ideals.json"
    assert main(["ideals", "--instance", z4_file, "--report", str(report)]) == 0
    rows = json.loads(report.read_text())["ideals"]
    assert [row["members"] for row in rows] == [[0], [0, 2], [0, 1, 2, 3]]
    assert [row["radical"] for row in rows] == [[0, 2], [0, 2], [0, 1, 2, 3]]


@pytest.mark.parametrize("pairing", [[[0, 0]], [0, 1], 5], ids=["one-pair-for-two-elements", "flat-list", "number"])
def test_ideals_rejects_a_malformed_pairing(capsys, tmp_path, pairing):
    data = semiring_to_dict(builtin("boolean"))
    data["pairing"] = pairing
    path = write(tmp_path / "paired.json", data)
    assert main(["ideals", "--instance", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pairing must be a list of 2 ")


# a family name past the builtin bound is refused before any table is built
@pytest.mark.parametrize("base", ["no_such_builtin", "missing.json", "zmod_" + "9" * 30])
def test_validate_reports_a_bad_module_base_and_goes_on(capsys, tmp_path, z4_file, base):
    data = semimodule_to_dict(zmod_quotient_module(4, 2))
    data["base"] = base
    bad = write(tmp_path / "bad_base.json", data)
    report = tmp_path / "report.json"
    assert main(["validate", bad, z4_file, "--json", str(report)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{bad}: ERROR ") and base in lines[0]
    assert lines[1] == f"{z4_file}: valid semiring"
    results = json.loads(report.read_text())["results"]
    assert [r["valid"] for r in results] == [False, True]
    assert base in results[0]["error"]


@pytest.mark.parametrize(
    "content, message",
    [("[1]", "top level must be a JSON object, not list"), ("{bad", "Expecting property name"),
     (None, "No such file"), (b"\xff\xfe", "can't decode byte"),
     ("[" * 200000 + "]" * 200000, "maximum recursion depth"),
     ('{"size": ' + "9" * 5000 + "}", "Exceeds the limit")],
    ids=["list", "broken-json", "missing", "not-utf8", "nested-too-deep", "integer-too-long"],
)
def test_validate_reports_a_bad_file_and_goes_on(capsys, tmp_path, z4_file, content, message):
    bad = tmp_path / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    report = tmp_path / "report.json"
    assert main(["validate", z4_file, str(bad), z4_file, "--json", str(report)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == lines[2] == f"{z4_file}: valid semiring"
    assert lines[1].startswith(f"{bad}: ERROR ") and message in lines[1]
    assert len(lines) == 3
    results = json.loads(report.read_text())["results"]
    assert [r["valid"] for r in results] == [True, False, True]
    assert results[1] == {"path": str(bad), "kind": None, "valid": False, "error": lines[1].split(": ERROR ", 1)[1]}
    # the other subcommands stop with a one-line error, not a traceback
    assert main(["ideals", "--instance", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {results[1]['error']}\n"


def test_a_null_module_base_falls_back_to_the_semiring(capsys, tmp_path, z4_file):
    data = semimodule_to_dict(zmod_quotient_module(4, 2))
    del data["base"]
    outputs = []
    for name, module in (("absent", data), ("null", dict(data, base=None))):
        path = write(tmp_path / f"{name}.json", module)
        out_file = tmp_path / f"e_{name}.json"
        assert main(["expectation-build", "--semiring", z4_file, "--module", path, "--out", str(out_file)]) == 0
        assert main(["classify", "--instance", z4_file, "--module", path]) == 0
        # the first line, "built ... -> <out>", names the output file
        outputs.append((out_file.read_text(), capsys.readouterr().out.splitlines()[1:]))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1][0])["size"] == 8


def test_ideals_refuses_a_carrier_past_the_bound(capsys, tmp_path):
    path = write(tmp_path / "chain.json", semiring_to_dict(builtin("chain_64")))
    assert main(["ideals", "--instance", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: carrier size 65 exceeds bound 64\n"
    assert captured.out == ""


@pytest.mark.parametrize("command, scans", [("validate", 1), ("expectation-build", 3), ("classify", 3)])
def test_an_embedded_base_is_law_scanned_once(monkeypatch, capsys, tmp_path, command, scans):
    z3 = builtin("zmod_3")
    semiring = write(tmp_path / "z3.json", semiring_to_dict(z3))
    module = write(tmp_path / "z3_self.json", semimodule_to_dict(self_module(z3)))
    calls = []
    scan = tables._scan_semiring
    monkeypatch.setattr(tables, "_scan_semiring", lambda *args: calls.append(args) or scan(*args))
    argv = {
        "validate": ["validate", module],
        "expectation-build": ["expectation-build", "--semiring", semiring, "--module", module,
                              "--out", str(tmp_path / "e.json")],
        "classify": ["classify", "--instance", semiring, "--module", module],
    }[command]
    assert main(argv) == 0
    # the embedded base once; the other two are the given semiring and the built product
    assert len(calls) == scans


def test_classify_product(capsys, tmp_path, z4_file, module_file):
    assert main(["classify", "--instance", z4_file, "--module", module_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    # pairs (s, x) are numbered 2s + x: the units are (1, x) and (3, x)
    assert payload == {
        "schema": "semiringlab/class-report/1",
        "name": "E(zmod_4, zmod_2)",
        "size": 8,
        "units": [2, 3, 6, 7],
        "v_set": [0, 1, 2, 3, 4, 5, 6, 7],
        "idempotents": [0, 2],
        "nilpotents": [0, 1, 4, 5],
        "zero_divisors": [0, 1, 4, 5],
        "flags": {
            "local": True,
            "presimplifiable": True,
            "strongly_associate": True,
            "domainlike": True,
            "clean": True,
            "almost_clean": True,
            "weakly_clean": True,
            "weakly_clean_literal": True,
            "additively_regular": True,
        },
    }


def test_classify_out_file_holds_the_printed_payload(capsys, tmp_path, z4_file):
    out_file = tmp_path / "class.json"
    assert main(["classify", "--instance", z4_file, "--out", str(out_file)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads(out_file.read_text()) == printed
    assert printed["units"] == [1, 3] and printed["zero_divisors"] == [0, 2]


def test_enumerate_semirings_to_dir(capsys, tmp_path):
    out_dir = tmp_path / "enum"
    assert main(["enumerate", "--order", "2", "--out", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["S2.00.json", "S2.01.json"]


@pytest.mark.parametrize(
    ("order", "over_z4", "digest"),
    [
        (2, False, "38bf3071c6c7a96d43eee8fd39bce46533524645c20041b0e1d65b4903d7d689"),
        (4, True, "8c8f7e16af6f7741cac3b0887853d3c9af0d3cdb16a852e0edce73b834618cba"),
    ],
    ids=["semirings-2", "modules-4-over-zmod_4"],
)
def test_enumerate_out_files_carry_their_name_and_tables(capsys, tmp_path, z4_file, order, over_z4, digest):
    # each file is named inside as on disk and reads back to the enumerated
    # structure; the digest pins the bytes (sha256 over sorted name and content)
    out_dir = tmp_path / "enum"
    args = ["enumerate", "--order", str(order), "--out", str(out_dir)]
    z4 = builtin("zmod_4")
    if over_z4:
        args += ["--modules-over", z4_file]
        expected, read = enumerate_semimodules(z4, order), lambda data: tables.validate_semimodule(z4, data)
    else:
        expected, read = enumerate_semirings(order), tables.validate_semiring
    assert main(args) == 0
    files = sorted(out_dir.iterdir())
    assert [p.stem for p in files] == [s.name for s in expected]
    for path, structure in zip(files, expected):
        data = json.loads(path.read_text())
        assert data["name"] == path.stem
        assert read(data) == structure
    blob = b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in files)
    assert hashlib.sha256(blob).hexdigest() == digest


def test_enumerate_refuses_a_directory_that_holds_files(capsys, tmp_path, z4_file):
    out_dir = tmp_path / "enum"
    assert main(["enumerate", "--order", "2", "--out", str(out_dir)]) == 0
    first = {p.name: p.read_text() for p in out_dir.iterdir()}
    capsys.readouterr()
    assert main(["enumerate", "--order", "3", "--modules-over", z4_file, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out_dir}: output directory already holds files\n"
    assert {p.name: p.read_text() for p in out_dir.iterdir()} == first


def test_enumerate_modules_over(capsys, tmp_path, z4_file):
    assert main(["enumerate", "--order", "2", "--modules-over", z4_file]) == 0
    assert "found 1 structures" in capsys.readouterr().out


def test_expect_with_oracle(capsys, tmp_path):
    graph = {
        "d": 1,
        "nodes": ["s", "t"],
        "source": "s",
        "sink": "t",
        "edges": [
            {"from": "s", "to": "t", "p": 0.3, "v": [1.0]},
            {"from": "s", "to": "t", "p": 0.7, "v": [2.0]},
        ],
    }
    path = write(tmp_path / "g.json", graph)
    assert main(["expect", "--graph", path, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "Z = 1.0" in out and "oracle agrees" in out


def test_expect_rejects_cyclic_graph(tmp_path, capsys):
    graph = {
        "d": 0,
        "nodes": ["s", "a", "b", "t"],
        "source": "s",
        "sink": "t",
        "edges": [
            {"from": "s", "to": "a", "p": 1.0, "v": []},
            {"from": "a", "to": "b", "p": 1.0, "v": []},
            {"from": "b", "to": "a", "p": 1.0, "v": []},
            {"from": "b", "to": "t", "p": 1.0, "v": []},
        ],
    }
    path = write(tmp_path / "cyclic.json", graph)
    assert main(["expect", "--graph", path]) == 1


def two_node_graph(p, v):
    return {"d": 1, "nodes": ["s", "t"], "source": "s", "sink": "t",
            "edges": [{"from": "s", "to": "t", "p": p, "v": v}]}


@pytest.mark.parametrize("p, v", [(float("inf"), [1.0]), (float("nan"), [1.0]), (0.5, [float("nan")])])
def test_expect_rejects_non_finite_edge_data(tmp_path, capsys, p, v):
    path = write(tmp_path / "bad.json", two_node_graph(p, v))
    assert main(["expect", "--graph", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "s->t" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("nodes, edges, component", [
    (["s", "a", "t"],
     [{"from": "s", "to": "a", "p": 1e200, "v": [1.0]}, {"from": "a", "to": "t", "p": 1e200, "v": [1.0]}],
     "Z is inf"),
    (["s", "a", "b", "t"],
     [{"from": "s", "to": "a", "p": 1e200, "v": [1.0]}, {"from": "a", "to": "b", "p": 1e200, "v": [1.0]},
      {"from": "b", "to": "t", "p": 0.0, "v": [1.0]}],
     "Z is nan"),
], ids=["inf", "nan"])
def test_expect_rejects_an_overflowing_total(tmp_path, capsys, nodes, edges, component):
    graph = {"d": 1, "nodes": nodes, "source": "s", "sink": "t", "edges": edges}
    assert main(["expect", "--graph", write(tmp_path / "g.json", graph)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: float overflow: the total mass {component}\n"
    assert captured.out == ""


@pytest.mark.parametrize("edges, expected", [
    (
        [{"from": "s", "to": "t", "p": 0.5, "v": [1.0]}, {"from": "s", "to": "t", "p": 0.25, "v": [2.0]}],
        "Z = 0.75\nr = [1.0]\nexpectation = [1.3333333333333333]\n",
    ),
    (
        [{"from": "s", "to": "t", "p": 0.0, "v": [1.0]}],
        "Z = 0.0\nr = [0.0]\nexpectation undefined: zero total mass\n",
    ),
], ids=["normalized", "zero-mass"])
def test_expect_runs_the_forward_pass_once(tmp_path, capsys, monkeypatch, edges, expected):
    calls = []

    def counted(graph):
        calls.append(graph)
        return forward_total(graph)

    # both names: the CLI's own import and the one numeric.expectation looks up
    monkeypatch.setattr(numeric, "forward_total", counted)
    monkeypatch.setattr(cli, "forward_total", counted)
    graph = {"d": 1, "nodes": ["s", "t"], "source": "s", "sink": "t", "edges": edges}
    assert main(["expect", "--graph", write(tmp_path / "g.json", graph)]) == 0
    assert capsys.readouterr().out == expected
    assert len(calls) == 1


def test_expect_rejects_a_fractional_dimension(tmp_path, capsys):
    graph = dict(two_node_graph(1.0, [1.0]), d=2.5)
    assert main(["expect", "--graph", write(tmp_path / "g.json", graph)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: 'd' must be a non-negative integer, got 2.5\n"
    assert captured.out == ""


def test_expect_refuses_a_dimension_no_edge_confirms(tmp_path, capsys):
    # 77 bytes that used to make expect allocate about 245 MB and print 50 MB of zeros
    path = tmp_path / "g.json"
    path.write_text('{"d": 10000000, "nodes": ["s", "t"], "source": "s", "sink": "t", "edges": []}')
    assert path.stat().st_size == 77
    assert main(["expect", "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: 'd' must be at most {numeric.MAX_DIM}, got 10000000\n"
    assert captured.out == ""
    # a small edgeless graph still prints its zero totals
    small = {"d": 2, "nodes": ["s", "t"], "source": "s", "sink": "t", "edges": []}
    assert main(["expect", "--graph", write(path, small)]) == 0
    assert capsys.readouterr().out == "Z = 0.0\nr = [0.0, 0.0]\nexpectation undefined: zero total mass\n"
    assert main(["expect", "--graph", write(path, dict(small, d=numeric.MAX_DIM))]) == 0
    assert capsys.readouterr().out.count("0.0") == 1 + numeric.MAX_DIM


def test_expect_rejects_a_string_edge_mass(tmp_path, capsys):
    assert main(["expect", "--graph", write(tmp_path / "g.json", two_node_graph("0.5", [1.0]))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: edge s->t: 'p' must be a number, got '0.5'\n"
    assert captured.out == ""


def test_expect_json_option_is_gone(tmp_path):
    path = write(tmp_path / "g.json", two_node_graph(1.0, [1.0]))
    with pytest.raises(SystemExit) as err:
        main(["expect", "--graph", path, "--json", str(tmp_path / "out.json")])
    assert err.value.code == 2


def test_verify_theorems_small_grid(capsys, tmp_path):
    report = tmp_path / "report.json"
    code = main(["verify-theorems", "--max-order", "2", "--seed", "1", "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["summary"]["fail"] == 0
    assert any(note["id"] == "weakly-prime-forward-probe" for note in payload["informational"])
    out = capsys.readouterr().out
    assert "fail: 0" in out


def test_missing_file_is_an_error(capsys):
    assert main(["validate", "does-not-exist.json"]) == 1


@pytest.mark.parametrize("command", ["validate", "ideals"])
@pytest.mark.parametrize("payload", [[1, 2], 5, "zmod_4", None])
def test_non_object_json_is_a_typed_error(capsys, tmp_path, command, payload):
    path = write(tmp_path / "top.json", payload)
    argv = [command, path] if command == "validate" else [command, "--instance", path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    if command == "validate":  # one ERROR row for the file, as for a malformed table
        assert captured.out.startswith(f"{path}: ERROR ") and "must be a JSON object" in captured.out
        assert captured.err == ""
    else:
        assert captured.err.startswith("error: ") and "must be a JSON object" in captured.err


def test_usage_error_exits_two(capsys):
    for argv in (
        ["no-such-command"],
        [],
        ["expect", "--graph", "g.json", "--oracle", "--max-paths", "-1"],
        ["expect", "--graph", "g.json", "--max-paths", "0"],
        ["verify-theorems", "--jobs", "0"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--order", "2", "--out", "{file}"],
        ["verify-theorems", "--max-order", "2", "--json", "{dir}"],
        ["expect", "--graph", "{dir}"],
    ],
    ids=["enumerate-out-is-a-file", "verify-json-is-a-directory", "expect-graph-is-a-directory"],
)
def test_os_errors_are_reported_not_raised(capsys, tmp_path, argv):
    existing = write(tmp_path / "existing.json", {})
    argv = [a.format(file=existing, dir=tmp_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--order", "9"], ["verify-theorems", "--max-order", "9"], ["verify-theorems", "--max-order", "1"]],
)
def test_out_of_range_order_exits_one(capsys, argv):
    # a typed OrderTooLarge error, not a usage error: exit 1, not 2
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: supported orders are ")
    assert f"got {argv[-1]}" in err


SRC = Path(__file__).resolve().parents[1] / "src"

COLD_RUN = """
import json, os, sys
src, out = sys.argv[1:]
sys.path.insert(0, src)
import semiringlab.cli as cli
loaded = {"import": "multiprocessing" in sys.modules}
for jobs in ("1", "2"):
    assert cli.main(["verify-theorems", "--max-order", "2", "--jobs", jobs, "--json", out + jobs]) == 0
    loaded["jobs " + jobs] = "multiprocessing" in sys.modules
print(json.dumps({"loaded": loaded, "cpus": os.cpu_count()}))
"""


def test_cold_import_leaves_the_pool_module_to_pooled_runs(tmp_path):
    # a fresh interpreter: this test process has imported multiprocessing long ago
    out = tmp_path / "report"
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, str(SRC), str(out)],
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    pooled = (result["cpus"] or 1) > 1
    assert result["loaded"] == {"import": False, "jobs 1": False, "jobs 2": pooled}
    sequential, parallel = (json.loads(Path(f"{out}{jobs}").read_text()) for jobs in "12")
    for report in (sequential, parallel):
        for record in report["records"]:
            del record["runtime"]  # wall-clock, the only field that varies
    assert sequential["records"] and parallel == sequential


def test_cold_import_loads_no_dataclass_machinery():
    # a fresh interpreter: this test process has imported dataclasses long ago
    code = "import sys; sys.path.insert(0, sys.argv[1]); import semiringlab.cli; " \
           "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
