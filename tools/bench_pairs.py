"""Run the benchmark alternately in two checkouts and compare the end-to-end metrics.

    python3 tools/bench_pairs.py BASE CHANGE --workload NAME [--pairs 10] [--seed 1] [--seconds S]

BASE and CHANGE are two checkouts of this repository, such as a parent commit
and a change exported with ``git archive``.  One pair runs
``perfbench/run.py --trace 0`` once in each checkout, each run in its own
process with the checkout as its working directory.  The side that runs first
alternates from pair to pair, starting with BASE.  ``--seconds`` defaults to
the ``run_seconds`` of BASE's BENCHMARK.json, so both sides run as long.

The script prints every pair's end-to-end metrics and verdict digest, then,
per metric, each side's median and quartiles, the number of pairs the change
won (ties count for neither side), the base's interquartile range and whether
a gain on that metric can be claimed: the change won at least 9 of every 10
pairs and its median beats the base's by more than the base's interquartile
range.  It marks the metric ``worse`` in the mirror case: the base won at
least 9 of every 10 pairs and its median beats the change's by more than the
base's interquartile range.  It then appends the same figures as one record to
``BENCH_<workload>.json`` in the working directory, a JSON list with one
record per completed comparison: both checkout paths as given and each one's
``HEAD`` commit (null unless the checkout is the top of a git work tree, with
``-dirty`` appended when ``src``, ``perfbench``, ``tools`` or
``BENCHMARK.json`` hold uncommitted changes), the workload, seed and run
seconds, every pair's first side, metrics and digests, the per-metric summary
(with ``claim`` and ``worse``) and the exit code.  The runs write only what
the benchmark writes (its ``.perfbench_out/`` directory and Python's bytecode
caches).  Exit code 0 when every run was correct and both sides printed one
verdict digest, 1 when a run failed or the digests differ; a run that crashes
ends the script before any record is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its metric values, verdict digest and correctness."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: benchmark exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    digests = [line.split()[-1] for line in lines if line.strip().startswith("verdict_digest")]
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": digests[0] if digests else None,
        "correct": proc.returncode == 0 and result["correct"],
    }


# what a benchmark run executes; the BENCH_*.json records at the top are not among them
MEASURED = ("src", "perfbench", "tools", "BENCHMARK.json")


def head_commit(checkout: Path) -> str | None:
    """The ``HEAD`` commit of ``checkout`` when it is the top of a git work tree, else None.

    The commit ends in ``-dirty`` when ``git status`` shows a change under the
    ``MEASURED`` paths, so a record never names code it did not run.
    """
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=checkout, capture_output=True, text=True)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != checkout.resolve():
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--", *MEASURED],
                            cwd=checkout, capture_output=True, text=True)
    return lines[1] + ("-dirty" if status.stdout.strip() else "")


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list in ``path``, starting the list if the file is missing."""
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    with open(args.base / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    sides = {"base": args.base, "change": args.change}

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            try:
                runs[side].append(run_once(sides[side], args.workload, args.seed, seconds))
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
        cells = []
        for side in ("base", "change"):
            run = runs[side][-1]
            values = " ".join(f"{name}={value:.4f}" for name, value in run["metrics"].items())
            flag = "" if run["correct"] else " INCORRECT"
            cells.append(f"{side} {values} digest={(run['digest'] or '-')[:12]}{flag}")
        print(f"pair {i + 1:2d} ({order[0]} first): " + " | ".join(cells), flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, seed {args.seed}, {seconds:g} s runs")
    print(f"{'metric':12s} {'base q1 / median / q3':>29s} {'change q1 / median / q3':>29s}"
          f" {'shift':>8s} {'wins':>6s} {'base IQR':>9s} {'claim':>5s} {'worse':>5s}")
    summary = {}
    for name, lower in lower_is_better.items():
        base = [r["metrics"][name] for r in runs["base"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        losses = sum((c > b) if lower else (c < b) for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        shift = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        iqr = bq[2] - bq[0]
        gain = bq[1] - cq[1] if lower else cq[1] - bq[1]
        claim = wins * 10 >= 9 * args.pairs and gain > iqr
        worse = losses * 10 >= 9 * args.pairs and -gain > iqr
        print(f"{name:12s} {bq[0]:9.4f} {bq[1]:9.4f} {bq[2]:9.4f} {cq[0]:9.4f} {cq[1]:9.4f} {cq[2]:9.4f}"
              f" {shift:+8.1%} {wins:3d}/{args.pairs:<2d} {iqr:9.4f} {'yes' if claim else 'no':>5s}"
              f" {'yes' if worse else 'no':>5s}")
        summary[name] = {"base": dict(zip(("q1", "median", "q3"), bq)),
                         "change": dict(zip(("q1", "median", "q3"), cq)),
                         "wins": wins, "base_iqr": iqr, "claim": claim, "worse": worse}

    digests = {side: {r["digest"] for r in runs[side]} for side in sides}
    print(f"verdict digests: base {sorted(map(str, digests['base']))}, change {sorted(map(str, digests['change']))}")
    correct = all(r["correct"] for side in runs.values() for r in side)
    same = len(digests["base"]) == 1 and digests["base"] == digests["change"]
    code = 0 if correct and same else 1
    append_record(Path(f"BENCH_{args.workload}.json"), {
        "checkouts": {side: {"path": str(path), "commit": head_commit(path)} for side, path in sides.items()},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": [{"first": "base" if i % 2 == 0 else "change", **{side: runs[side][i] for side in sides}}
                  for i in range(args.pairs)],
        "metrics": summary,
        "exit": code,
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
