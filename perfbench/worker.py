"""One pass of a workload in a fresh process, as one CLI call would make it.

Started by run.py, which owns the inputs, the run length and the checks.
The process imports the program, makes one pass, untraced or traced, and
prints one JSON line: the pass time, the peak resident memory of the
process (untraced) or the per-boundary calls and self times (traced), and a
summary of the pass output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import semiringlab.cli  # noqa: E402  (the import every CLI call pays)

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def summarize(spec: dict, output: dict) -> dict:
    if spec["kind"] == "suite":
        return workloads.summarize_report(output)
    return output


def traced_pass(one_pass, spec: dict, spans: Path) -> dict:
    # Probes run only before and after a traced pass: inside it they would
    # land in whichever span is open.
    sampler = calibrate.Sampler()
    sampler.sample(5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        output = tracer.span(tracing.ROOT, one_pass, tracer.span)
    finally:
        tracer.uninstall()
    sampler.sample(5)
    tracer.dump(spans)
    wall = tracer.durations(tracing.ROOT)[0]
    return {
        "pass_s": wall,
        "calibrated_s": sampler.calibrated(wall),
        "calls": tracer.calls,
        "self_s": tracer.self_s,
        "enumerated": tracer.enumerated,
        "run_pair_s": sorted(tracer.durations("theorems.run_pair")),
        "output": summarize(spec, output),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--input", help="graph file of a DAG workload")
    parser.add_argument("--report", help="report file a suite workload writes")
    parser.add_argument("--spans", required=True, help="path stem the traced spans are written to")
    args = parser.parse_args(argv)

    loaded = Path(semiringlab.cli.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"semiringlab loaded from {loaded}, not from {SRC}")

    spec = json.loads(args.spec)
    if spec["kind"] == "suite":
        def one_pass(span=workloads.untraced):
            return workloads.suite_pass(spec, args.seed, args.report, span)
    else:
        def one_pass(span=workloads.untraced):
            return workloads.dag_pass(args.input)

    if args.trace:
        record = traced_pass(one_pass, spec, Path(args.spans))
    else:
        sampler = calibrate.Sampler()
        output, wall = sampler.measure(one_pass)
        record = {
            "wall_s": wall,
            "pass_s": sampler.calibrated(wall),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "output": summarize(spec, output),
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
