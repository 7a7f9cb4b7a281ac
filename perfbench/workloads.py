"""Workload definitions: seeded inputs, one timed pass each, and output summaries.

A pass mirrors what the command line does for the workload, so its wall
time is what a user waits for:

* suite workloads: build the grid, ``run_suite``, format the matrix, then
  ``report.to_dict()`` and the JSON dump of ``verify-theorems --json OUT``;
* DAG workloads: JSON load, ``graph_from_dict``, ``forward_total`` and
  ``expectation``, as ``expect --graph FILE`` does.

Everything the benchmark checks is summarised from the pass outputs after
the timer has stopped.
"""

from __future__ import annotations

import hashlib
import json
import random

# Why each workload is here, the layer it stresses and the layers it bypasses
# are recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "grid-order4": {
        "kind": "suite", "grid": "verify", "max_order": 4, "catalog": True, "numeric": True,
        "expect": {"cells": 655, "records": 22927},
    },
    # The fifth extra catalog cell, E(trunc_nat_2, trunc_nat_2xtrunc_nat_2)
    # with 593 ideals, is left out: it alone takes about 33 s per pass and
    # exercises the same join-generation path as the chain_2 cell.
    "catalog-lattice": {
        "kind": "suite", "grid": "catalog-extra", "numeric": False,
        "skip": ["E(trunc_nat_2, trunc_nat_2xtrunc_nat_2)"],
        "expect": {
            "cells": 4,
            "records": 140,
            "ideals": {
                "E(chain_2, chain_2xchain_2)": 391,
                "E(zmod_3, zmod_3xzmod_3)": 7,
                "E(zmod_5, zmod_5)": 3,
                "E(zmod_6, zmod_3)": 6,
            },
        },
    },
    # 4,000 rather than 8,000 nodes: a 30 s run then holds about eight passes.
    # Over ten seeds the spread of pass_s was 8.6% at 8,000 nodes (two passes
    # a run) and 10-11% at 6,000 (three or four).
    "dag-long": {"kind": "dag", "shape": "long", "nodes": 4000, "dim": 2},
    "dag-wide": {"kind": "dag", "shape": "wide", "layers": 10, "width": 30, "dim": 64},
}


def untraced(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# ---------------------------------------------------------------- suite passes


def suite_cells(spec: dict) -> list:
    from semiringlab import catalog, theorems

    if spec["grid"] == "verify":
        max_order = spec["max_order"]
        return theorems.default_grid(
            max_order=max_order,
            include_builtins=spec["catalog"],
            module_order=min(max_order, 3),
        )
    # The builtin pairs that max_product=32 adds beyond the default bound of 16.
    small = {(n, m.name) for n, _s, m in catalog.builtin_pairs(max_product=16)}
    cells = []
    for name, semiring, module in catalog.builtin_pairs(max_product=32):
        label = f"E({name}, {module.name or 'M'})"
        if (name, module.name) not in small and label not in spec["skip"]:
            cells.append(theorems.GridCell(label, semiring, module))
    return cells


def write_json(path: str, payload: dict) -> None:
    """The report dump of ``verify-theorems --json OUT``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def suite_pass(spec: dict, seed: int, out_path: str, span=untraced) -> dict:
    from semiringlab import theorems

    cells = suite_cells(spec)
    report = theorems.run_suite(cells, seed=seed, jobs=1, include_numeric=spec["numeric"])
    report.format_matrix()
    report.failures()

    def report_json():
        payload = report.to_dict()
        write_json(out_path, payload)
        return payload

    return span("cli.report_json", report_json)


def strip_runtime(value):
    if isinstance(value, dict):
        return {k: strip_runtime(v) for k, v in value.items() if k != "runtime"}
    if isinstance(value, list):
        return [strip_runtime(v) for v in value]
    return value


def summarize_report(payload: dict) -> dict:
    """Verdict digest and counts of one report; crashed checks are failed operations."""
    stripped = strip_runtime(payload)
    canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    crashed_cells = {
        r["instance"]
        for r in payload["records"]
        if isinstance(r["witness"], dict) and "error" in r["witness"]
    }
    return {
        "verdict_digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "cells": len(payload["grid"]["instances"]),
        "records": len(payload["records"]),
        "summary": dict(payload["summary"]),
        "crashed_cells": sorted(crashed_cells),
    }


# ------------------------------------------------------------------ DAG passes


def make_dag(spec: dict, seed: int) -> dict:
    """Seeded graph in the ``expect`` file format; outgoing masses sum to 1, so Z = 1."""
    rng = random.Random(seed)
    dim = spec["dim"]
    if spec["shape"] == "long":
        count = spec["nodes"]
        nodes = [f"n{i}" for i in range(count)]
        links = []
        for i in range(count - 1):
            ahead = list(range(i + 1, min(i + 4, count)))
            links.append((i, rng.sample(ahead, rng.randint(1, len(ahead)))))
    else:
        layers, width = spec["layers"], spec["width"]
        nodes = ["src"] + [f"l{k}_{j}" for k in range(layers) for j in range(width)] + ["sink"]
        first, sink = 1, len(nodes) - 1
        links = [(0, list(range(first, first + width)))]
        for k in range(layers):
            start = first + k * width
            targets = [sink] if k == layers - 1 else list(range(start + width, start + 2 * width))
            links.extend((start + j, targets) for j in range(width))
    edges = []
    for src, targets in links:
        masses = [rng.uniform(0.1, 1.0) for _ in targets]
        total = sum(masses)
        for dst, mass in zip(targets, masses):
            edges.append({
                "from": nodes[src],
                "to": nodes[dst],
                "p": mass / total,
                "v": [rng.uniform(0.0, 1.0) for _ in range(dim)],
            })
    return {"d": dim, "nodes": nodes, "source": nodes[0], "sink": nodes[-1], "edges": edges}


def reference_total(data: dict) -> tuple[float, list[float]]:
    """Plain-float forward DP over the graph data with its own adjacency lists."""
    dim = data["d"]
    out: dict[str, list] = {n: [] for n in data["nodes"]}
    indegree = {n: 0 for n in data["nodes"]}
    for e in data["edges"]:
        out[e["from"]].append(e)
        indegree[e["to"]] += 1
    mass = {data["source"]: 1.0}
    vec = {data["source"]: [0.0] * dim}
    ready = [n for n in data["nodes"] if indegree[n] == 0]
    while ready:
        node = ready.pop()
        for e in out[node]:
            dst = e["to"]
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
            if node not in mass:
                continue
            p, m = e["p"], mass[node]
            # (m, r) * (p, p v) = (m p, m p v + p r)
            contribution = [m * p * x + p * r for x, r in zip(e["v"], vec[node])]
            mass[dst] = mass.get(dst, 0.0) + m * p
            acc = vec.setdefault(dst, [0.0] * dim)
            for k, c in enumerate(contribution):
                acc[k] += c
    sink = data["sink"]
    return mass.get(sink, 0.0), vec.get(sink, [0.0] * dim)


def dag_pass(path: str) -> dict:
    from semiringlab.numeric import expectation, forward_total, graph_from_dict

    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    graph = graph_from_dict(data)
    total = forward_total(graph)
    mean = expectation(graph)
    return {
        "z": total.p,
        "r": list(total.r),
        "expectation": list(mean),
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
    }
