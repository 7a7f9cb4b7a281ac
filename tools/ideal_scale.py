"""Time NextClosure, the validation of its output and the per-ideal report work on carriers of 27 and 64 elements.

    python3 tools/ideal_scale.py

The carriers are the product semirings of three cells:
``E(chain_2, chain_2xchain_2)`` and ``E(trunc_nat_2, trunc_nat_2xtrunc_nat_2)``
(27 elements each, from ``catalog.builtin_pairs(max_product=32)``), and the
self cell of ``E(S2.01, M4.00)``: the 8-element product P of the enumerated
order-2 semiring S2.01 and its order-4 module M4.00, acting on itself, whose
product ``E(P, P)`` has 64 elements.  For each carrier the script prints one
JSON line with its label, its size, the number of closed sets (its ideals),
the wall time of ``ideals._closed_sets`` on the carrier as a module over
itself, the wall time of building an ``Ideal`` from each set, which
validates it, and the wall time of the radical and the maximal flag of every
ideal as ``ideals --report`` computes them: one power table for the carrier,
and one pass for the maximal ideals.  ``total_s`` is the sum of the three
stages.  It then appends one record (the ``HEAD`` commit of this
checkout, as ``tools/dag_scale.py`` records it, and the printed lines) to
``BENCH_ideal_scale.json`` in the working directory.  The 64-element carrier
has 165,554 ideals and takes tens of seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

from bench_pairs import append_record, head_commit  # noqa: E402
from semiringlab import build_expectation, catalog, enumerate_semimodules, enumerate_semirings  # noqa: E402
from semiringlab.ideals import Ideal, _closed_sets, maximal_ideals, power_table, radical_members  # noqa: E402
from semiringlab.tables import FiniteSemiring, semiring_as_module  # noqa: E402

BUILTIN_CELLS = ("E(chain_2, chain_2xchain_2)", "E(trunc_nat_2, trunc_nat_2xtrunc_nat_2)")
SELF_CELL = "E(P, P), P = E(S2.01, M4.00)"


def carriers() -> list[tuple[str, FiniteSemiring]]:
    """(label, product semiring) of each measured cell, smallest first."""
    pairs = {f"E({name}, {m.name})": (s, m) for name, s, m in catalog.builtin_pairs(max_product=32)}
    out = [(label, build_expectation(*pairs[label]).product) for label in BUILTIN_CELLS]
    s = next(s for s in enumerate_semirings(2) if s.name == "S2.01")
    m = next(m for m in enumerate_semimodules(s, 4) if m.name == "M4.00")
    p = build_expectation(s, m).product
    out.append((SELF_CELL, build_expectation(p, catalog.self_module(p)).product))
    return out


def measure(label: str, semiring: FiniteSemiring) -> dict:
    """One JSON-ready record: NextClosure on ``semiring`` over itself, an Ideal per closed set, their predicates."""
    start = time.perf_counter()
    sets = _closed_sets(semiring_as_module(semiring))
    closed_sets_s = time.perf_counter() - start
    start = time.perf_counter()
    ideals = [Ideal(semiring, members) for members in sets]
    validate_s = time.perf_counter() - start
    start = time.perf_counter()
    powers = power_table(semiring)
    maximal = {ideal.members for ideal in maximal_ideals(ideals)}
    [(radical_members(powers, ideal.members), ideal.members in maximal) for ideal in ideals]  # the two report columns
    predicates_s = time.perf_counter() - start
    return {
        "carrier": label,
        "size": semiring.size,
        "closed_sets": len(sets),
        "closed_sets_s": round(closed_sets_s, 4),
        "validate_s": round(validate_s, 4),
        "predicates_s": round(predicates_s, 4),
        "total_s": round(closed_sets_s + validate_s + predicates_s, 4),
    }


def main() -> int:
    runs = []
    for label, semiring in carriers():
        runs.append(measure(label, semiring))
        print(json.dumps(runs[-1]), flush=True)
    append_record(Path("BENCH_ideal_scale.json"), {"commit": head_commit(ROOT), "runs": runs})
    return 0


if __name__ == "__main__":
    sys.exit(main())
