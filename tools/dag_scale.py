"""Time the stages of ``expect`` on long DAGs of 1k, 10k and 100k nodes.

    python3 tools/dag_scale.py

Each graph is the benchmark's long shape (every node links to 1-3 of the
next three nodes, outgoing masses sum to 1, so Z = 1) with d = 2 and seed 3,
built by ``perfbench/workloads.make_dag``.  For each size the script prints
one JSON line with the best of 3 wall times, in seconds, of the JSON parse,
``graph_from_dict`` and the pass (``forward_total`` then
``expectation_from_total``, as ``expect`` runs them), plus their sum without
the parse and the total mass Z.  It then appends one record (the ``HEAD``
commit of this checkout, or null outside a git work tree top, with
``-dirty`` appended when the measured code has uncommitted changes, the sizes
and the printed lines) to ``BENCH_dag_scale.json`` in the working directory, a
JSON list like the ones ``tools/bench_pairs.py`` keeps.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tools")]

from bench_pairs import append_record, head_commit  # noqa: E402
from perfbench.workloads import make_dag  # noqa: E402
from semiringlab.numeric import expectation_from_total, forward_total, graph_from_dict  # noqa: E402

SIZES = (1_000, 10_000, 100_000)


def best_of(repeats: int, run):
    """The least wall time of ``repeats`` calls of ``run`` and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        result = None  # free the previous result before the next run is timed
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure(nodes: int, repeats: int = 3) -> dict:
    """One JSON-ready record for the long DAG with ``nodes`` nodes."""
    text = json.dumps(make_dag({"shape": "long", "nodes": nodes, "dim": 2}, seed=3))
    parse_s, data = best_of(repeats, lambda: json.loads(text))
    load_s, graph = best_of(repeats, lambda: graph_from_dict(data))

    def run_pass():
        total = forward_total(graph)
        return total, expectation_from_total(total)

    pass_s, (total, _) = best_of(repeats, run_pass)
    return {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "parse_s": round(parse_s, 4),
        "load_s": round(load_s, 4),
        "pass_s": round(pass_s, 4),
        "load_pass_s": round(load_s + pass_s, 4),
        "z": total.p,
    }


def main() -> int:
    runs = []
    for nodes in SIZES:
        runs.append(measure(nodes))
        print(json.dumps(runs[-1]), flush=True)
    append_record(Path("BENCH_dag_scale.json"), {"commit": head_commit(ROOT), "sizes": list(SIZES), "runs": runs})
    return 0


if __name__ == "__main__":
    sys.exit(main())
