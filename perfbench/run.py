"""semiringlab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, the sample counts and the verdict digest.  With
``--trace 0`` the metrics are the ``end_to_end`` metrics of BENCHMARK.json,
with ``--trace 1`` its ``per_layer`` metrics.  The exit code is 0 when every
output was checked and found right, 1 when a check flagged one, and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import CLOSURES, ROOT as ROOT_SPAN  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
IMPORT_SAMPLES = 11
WORKER_TIMEOUT_S = 170
IMPORT_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import semiringlab.cli; t = time.perf_counter() - t; "
    "import calibrate; s = calibrate.Sampler(); s.sample(7); print(s.calibrated(t), t)"
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    # A fixed hash seed keeps set iteration, and with it every count, repeatable.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_note() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), "?")
    except OSError:
        cpu = platform.processor() or "?"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return f"machine: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} loadavg={load}"


def time_imports(count: int) -> list[list[float]]:
    """Calibrated and wall import times of semiringlab.cli in fresh interpreters.

    One warm-up import comes first, so that compiled bytecode is cached as it
    is for every CLI call after the first.
    """
    samples = []
    for _ in range(count + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE, str(ROOT / "src"), str(HERE)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing semiringlab.cli failed:\n{proc.stderr}")
        samples.append([float(x) for x in proc.stdout.split()[-2:]])
    return samples[1:]


def run_worker(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"workload process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: int,
                 imports: int = IMPORT_SAMPLES) -> dict:
    """Run the passes of one workload, each in a worker process, and check every output."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-{os.getpid()}"
    graph_path = Path(f"{stem}.graph.json")
    report_path = Path(f"{stem}.report.json")
    args = ["--spec", json.dumps(spec), "--seed", str(seed),
            "--spans", str(OUT_DIR / f"{name}.spans")]
    reference = None
    raw: dict = {"passes": [], "traced": []}
    try:
        if spec["kind"] == "dag":
            data = workloads.make_dag(spec, seed)
            reference = workloads.reference_total(data)
            with open(graph_path, "w", encoding="utf-8") as handle:
                json.dump(data, handle)
            del data
            args += ["--input", str(graph_path)]
        else:
            args += ["--report", str(report_path)]
        setup = time_imports(imports) if trace == 0 else []
        # Each pass runs in a fresh process, as each CLI call does.  Passes
        # repeat while the next one is expected to end within the run length;
        # there is always at least one.  A traced run starts with one
        # untraced pass, the base of the overhead ratio.
        started = time.perf_counter()
        if trace:
            raw["passes"].append(run_worker(args + ["--trace", "0"]))
        while True:
            t0 = time.perf_counter()
            raw["traced" if trace else "passes"].append(run_worker(args + ["--trace", str(trace)]))
            now = time.perf_counter()
            if now - started + (now - t0) > seconds:
                break
    finally:
        graph_path.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)
    raw["setup_s"] = setup
    raw["reference"] = reference
    raw["problems"], raw["attempted"], raw["failed"] = check_outputs(spec, raw)
    return raw


def check_outputs(spec: dict, raw: dict) -> tuple[list[str], int, int]:
    """Problems found, operations attempted and operations failed over all passes."""
    problems: list[str] = []
    attempted = failed = 0
    outputs = [p["output"] for p in raw["passes"] + raw["traced"]]
    for output in outputs:
        if spec["kind"] == "suite":
            found = checks.check_report(output, spec.get("expect", {}))
            attempted += output["cells"]
            failed += len(output["crashed_cells"])
        else:
            found = checks.check_dag(output, *raw["reference"])
            attempted += 1
            failed += bool(found)
        problems.extend(found)
    pinned = spec.get("expect", {}).get("ideals")
    for traced in raw["traced"]:
        if pinned:
            found = checks.check_ideal_counts(traced["enumerated"], pinned)
            failed += len(found)
            problems.extend(found)
        problems.extend(check_self_times(traced))
    if spec["kind"] == "suite" and len({o["verdict_digest"] for o in outputs}) > 1:
        problems.append("verdict digest differs between passes of one run")
    if len({json.dumps(t["calls"], sort_keys=True) for t in raw["traced"]}) > 1:
        problems.append("call counts differ between traced passes of one run")
    return problems, attempted, failed


def check_self_times(traced: dict) -> list[str]:
    """Self times of all spans, the root's included, must add up to the traced pass."""
    total = sum(traced["self_s"].values())
    if abs(total - traced["pass_s"]) > 1e-6 * max(1.0, traced["pass_s"]):
        return [f"self times add up to {total!r} s, traced pass took {traced['pass_s']!r} s"]
    return []


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of sorted values; 0 when there are none."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * share)) - 1]


def end_to_end_metrics(raw: dict) -> dict:
    return {
        "setup_s": statistics.median(c for c, _wall in raw["setup_s"]),
        "pass_s": statistics.median(p["pass_s"] for p in raw["passes"]),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in raw["passes"]) / 1024,
    }


def per_layer_metrics(raw: dict) -> dict:
    """Per-pass means over the traced passes; counts are the same in every pass."""
    traced = raw["traced"]
    n = len(traced)
    metrics: dict[str, float] = {}
    for name in traced[0]["calls"]:
        metrics[f"{name}.calls"] = traced[0]["calls"][name]
        metrics[f"{name}.self_s"] = sum(t["self_s"][name] for t in traced) / n
    metrics["trace.untraced_s"] = metrics.pop(f"{ROOT_SPAN}.self_s")
    metrics.pop(f"{ROOT_SPAN}.calls")
    run_pair_ms = [1000 * s for s in traced[-1]["run_pair_s"]]
    metrics["theorems.run_pair.p50_ms"] = statistics.median(run_pair_ms) if run_pair_ms else 0.0
    metrics["theorems.run_pair.p98_ms"] = percentile(run_pair_ms, 0.98)
    closed = sum(found for _b, _c, _s, found in traced[0]["enumerated"])
    closures = sum(traced[0]["calls"][b] for b in CLOSURES)
    metrics["ideals.closed_sets"] = closed
    metrics["ideals.closure_yield"] = closed / closures if closures else 0.0
    metrics["trace_overhead_ratio"] = (
        statistics.mean(t["calibrated_s"] for t in traced) / raw["passes"][0]["pass_s"]
    )
    output = traced[0]["output"]
    metrics["bench.cells"] = output.get("cells", 0)
    metrics["bench.records"] = output.get("records", 0)
    metrics["bench.graph_nodes"] = output.get("nodes", 0)
    metrics["bench.graph_edges"] = output.get("edges", 0)
    return metrics


def describe(name: str, seed: int, trace: int, raw: dict) -> list[str]:
    """Human-readable lines: sample counts, failed ratio, verdicts and counts."""
    lines = [f"workload {name} seed {seed} trace {trace}: "
             f"{len(raw['passes'])} untraced and {len(raw['traced'])} traced passes"]
    if trace == 0:
        m = end_to_end_metrics(raw)
        setup_wall = statistics.median(wall for _c, wall in raw["setup_s"])
        pass_wall = statistics.median(p["wall_s"] for p in raw["passes"])
        lines += [
            f"  setup_s      {m['setup_s']:.4f} s   median of {len(raw['setup_s'])} fresh imports"
            f" (wall {setup_wall:.4f} s)",
            f"  pass_s       {m['pass_s']:.4f} s   median of {len(raw['passes'])} passes"
            f" (wall {pass_wall:.4f} s)",
            f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB   median of {len(raw['passes'])} processes",
        ]
    ratio = raw["failed"] / raw["attempted"] if raw["attempted"] else 0.0
    lines.append(f"  failed_ratio {ratio:g}   {raw['failed']} of {raw['attempted']} operations")
    output = raw["passes"][0]["output"]
    if "verdict_digest" in output:
        s = output["summary"]
        lines.append(f"  verdicts: pass {s['pass']} fail {s['fail']} n/a {s['not-applicable']}; "
                     f"cells {output['cells']} records {output['records']}")
        lines.append(f"  verdict_digest {output['verdict_digest']}")
    else:
        lines.append(f"  graph: {output['nodes']} nodes, {output['edges']} edges, Z = {output['z']!r}")
    for traced in raw["traced"][:1]:
        for boundary, carrier, size, found in traced["enumerated"]:
            if size > 12:
                lines.append(f"  {boundary} {carrier} (size {size}): {found}")
    lines += [f"  PROBLEM {p}" for p in raw["problems"][:20]]
    return lines


def result_line(raw: dict, trace: int, bench: dict) -> dict:
    """The final JSON object, restricted to the metrics BENCHMARK.json names."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    values = per_layer_metrics(raw) if trace else end_to_end_metrics(raw)
    return {
        "correct": not raw["problems"] and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared},
    }


def emit(name: str, seed: int, trace: int, raw: dict, bench: dict) -> int:
    """Print the description and the result line; the exit code says whether it is correct."""
    print("\n".join(describe(name, seed, trace, raw)))
    line = result_line(raw, trace, bench)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "semiringlab" / "__init__.py").is_file():
            raise BenchError(f"no semiringlab sources under {ROOT / 'src'}")
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            bench = json.load(handle)
        note = machine_note()
        raw = run_workload(args.workload, workloads.WORKLOADS[args.workload],
                           args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(note)
    return emit(args.workload, args.seed, args.trace, raw, bench)


if __name__ == "__main__":
    sys.exit(main())
