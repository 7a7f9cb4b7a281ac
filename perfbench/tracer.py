"""Outside-in span tracer for semiringlab.

The tracer wraps public functions of the program from the benchmark's own
code; the program itself carries no instrumentation.  Every boundary is
patched under every module-level name bound to it (``enumerate_ideals`` is
imported into ``theorems``, ``validate_semiring`` into ``catalog`` and
``construct``, ...), so a call is traced whichever name it goes through.
The checks are traced by rebinding ``theorems.CHECKS`` and the derived data
by replacing the ``PairContext`` cached properties.  The innermost table and
weight helpers (``FiniteSemiring.mul``, ``wmul``, ``wadd``) stay unwrapped:
they run millions of times per pass and would swamp the figures.

Spans (id, parent, boundary, start, end) are kept in compact arrays in
memory and written out once with :meth:`Tracer.dump`.  Self time of a span
is its duration minus the durations of its direct children, so the self
times of all boundaries plus the root span's self time add up to the root
span's duration.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array
from functools import cached_property, wraps
from pathlib import Path

ROOT = "pass"

# Boundary name -> functions wrapped under it, as (module, attribute).
FUNCTIONS = {
    "catalog.enumerate_semirings": [("catalog", "enumerate_semirings")],
    "catalog.enumerate_semimodules": [("catalog", "enumerate_semimodules")],
    "catalog.builtin_pairs": [("catalog", "builtin_pairs")],
    "tables.validate_semiring": [("tables", "validate_semiring")],
    "tables.validate_semimodule": [("tables", "validate_semimodule")],
    "construct.build_expectation": [("construct", "build_expectation")],
    "ideals.enumerate_ideals": [("ideals", "enumerate_ideals")],
    "ideals.enumerate_subsemimodules": [("ideals", "enumerate_subsemimodules")],
    "ideals.ideal_closure": [("ideals", "ideal_closure")],
    "ideals.submodule_closure": [("ideals", "submodule_closure")],
    "ideals.ideal_violation": [("ideals", "ideal_violation")],
    "ideals.predicates": [
        ("ideals", name)
        for name in (
            "is_prime", "is_primary", "is_weakly_prime", "is_subtractive", "is_maximal",
            "radical", "residual", "box_ideal", "ideal_projections",
            "is_primary_submodule", "submodule_radical", "annihilator", "is_weak_gaussian",
        )
    ],
    "elements.census": [
        ("elements", name)
        for name in (
            "units", "idempotents", "additive_idempotents", "nilpotents", "zero_divisors",
            "zero_divisors_mod", "additively_regular_elements",
        )
    ] + [("tables", "v_set")],
    "elements.flags": [
        ("elements", name)
        for name in (
            "is_semifield", "is_local", "is_presimplifiable", "is_presimplifiable_mod",
            "is_strongly_associate", "is_domainlike", "is_domainlike_mod", "is_clean",
            "is_almost_clean", "almost_clean_by_parts", "is_weakly_clean",
            "is_additively_regular",
        )
    ],
    "theorems.run_pair": [("theorems", "run_pair")],
    "theorems.numeric_sections": [
        ("numeric", "weight_law_failures"), ("numeric", "oracle_disagreements"),
    ],
    "theorems.probes": [("theorems", "weakly_prime_forward_probe")],
    "numeric.graph_from_dict": [("numeric", "graph_from_dict")],
    "numeric.forward_total": [("numeric", "forward_total")],
    "numeric.expectation": [("numeric", "expectation")],
}

# Boundaries whose results are the enumerated closed sets.
ENUMERATORS = ("ideals.enumerate_ideals", "ideals.enumerate_subsemimodules")
CLOSURES = ("ideals.ideal_closure", "ideals.submodule_closure")


class Tracer:
    """Records nested spans at the patched boundaries of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._calls: list[int] = []
        self._self_s: list[float] = []
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        # Enumerator results: (boundary, carrier name, carrier size, sets found).
        self.enumerated: list[tuple[str, str, int, int]] = []
        # Open spans as [span id, time covered by finished children]; the
        # bottom entry stands for "no parent".
        self._stack: list[list] = [[-1, 0.0]]
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._self_s.append(0.0)
        return idx

    @property
    def calls(self) -> dict[str, int]:
        return dict(zip(self.names, self._calls))

    @property
    def self_s(self) -> dict[str, float]:
        return dict(zip(self.names, self._self_s))

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        idx = self._name_index(name)
        clock, stack, ids = self.clock, self._stack, self._ids
        calls, self_s = self._calls, self._self_s
        span_ids, parents, names = self.span_id.append, self.parent.append, self.name.append
        starts, ends = self.start.append, self.end.append

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                parent = stack[-1]
                parent[1] += duration
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                span_ids(frame[0])
                parents(parent[0])
                names(idx)
                starts(t0)
                ends(t1)

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _wrap_enumerator(self, name: str, fn):
        inner, record = self.wrap(name, fn), self.enumerated.append

        @wraps(fn)
        def traced(carrier, *args, **kwargs):
            result = inner(carrier, *args, **kwargs)
            record((name, carrier.name, carrier.size, len(result)))
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every boundary of the loaded semiringlab modules.

        A boundary the program no longer has is skipped, and its metrics
        read 0.
        """
        pkg = "semiringlab"
        modules = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        for boundary, targets in FUNCTIONS.items():
            self._name_index(boundary)
            make = self._wrap_enumerator if boundary in ENUMERATORS else self.wrap
            for module_name, attr in targets:
                original = getattr(sys.modules[f"{pkg}.{module_name}"], attr, None)
                if original is None:
                    continue
                traced = make(boundary, original)
                for module in modules:
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, bound, traced)

        dag = sys.modules[f"{pkg}.numeric"].WeightedDag
        if "outgoing" in vars(dag):
            self._set(dag, "outgoing", self.wrap("numeric.outgoing", dag.outgoing))

        theorems = sys.modules[f"{pkg}.theorems"]
        self._set(
            theorems,
            "CHECKS",
            tuple(
                (tid, statement, self.wrap(f"theorems.check.{tid}", fn))
                for tid, statement, fn in theorems.CHECKS
            ),
        )
        ctx = theorems.PairContext
        for attr, value in list(vars(ctx).items()):
            if isinstance(value, cached_property):
                prop = cached_property(self.wrap(f"theorems.derived.{attr}", value.func))
                prop.__set_name__(ctx, attr)
                self._set(ctx, attr, prop)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def durations(self, name: str) -> list[float]:
        idx = self._index.get(name)
        if idx is None:
            return []
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == idx]

    def dump(self, stem: Path) -> None:
        """Write the spans as ``<stem>.bin`` (column arrays) plus a JSON header."""
        columns = ("span_id", "parent", "name", "start", "end")
        with open(f"{stem}.bin", "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)
        header = {
            "count": len(self.span_id),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
            "names": self.names,
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=1)
