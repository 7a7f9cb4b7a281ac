"""Output checks.  Each returns a list of problems; an empty list means the output is right.

A problem makes the run incorrect.  Failing theorem verdicts are findings of
the program, not problems: only crashed checks, counts that differ from the
pinned facts and numeric results that miss the reference are.
"""

from __future__ import annotations

import math

# The program's numeric tolerance (semiringlab.numeric.TOL_REL / TOL_ABS).
TOL_REL = 1e-9
TOL_ABS = 1e-12


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL_REL, abs_tol=TOL_ABS)


def check_report(summary: dict, expect: dict) -> list[str]:
    """Record and cell counts of a suite report, and checks that crashed."""
    problems = [f"check crashed on {cell}" for cell in summary["crashed_cells"]]
    for key in ("cells", "records"):
        if key in expect and summary[key] != expect[key]:
            problems.append(f"{key}: expected {expect[key]}, got {summary[key]}")
    return problems


def check_ideal_counts(enumerated: list, pinned: dict) -> list[str]:
    """Pinned ideal counts of fixed product semirings, from traced enumerator results."""
    problems = []
    seen = set()
    for boundary, carrier, _size, found in enumerated:
        if boundary != "ideals.enumerate_ideals" or carrier not in pinned:
            continue
        seen.add(carrier)
        if found != pinned[carrier]:
            problems.append(f"ideals of {carrier}: expected {pinned[carrier]}, got {found}")
    problems.extend(f"ideals of {c} never enumerated" for c in sorted(set(pinned) - seen))
    return problems


def check_dag(result: dict, z: float, r: list[float]) -> list[str]:
    """Z, r and the expectation against the benchmark's reference DP."""
    problems = []
    if not close(result["z"], z):
        problems.append(f"Z = {result['z']!r}, reference {z!r}")
    if not close(z, 1.0):
        problems.append(f"reference Z = {z!r}, but the generator normalises it to 1")
    if len(result["r"]) != len(r) or not all(map(close, result["r"], r)):
        problems.append("r differs from the reference")
    if len(result["expectation"]) != len(r) or not all(
        close(e, x / z) for e, x in zip(result["expectation"], r)
    ):
        problems.append("expectation differs from r / Z")
    return problems
