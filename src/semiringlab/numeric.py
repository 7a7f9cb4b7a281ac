"""Expectation arithmetic over nonnegative mass plus feature-vector weights.

A weight is a pair (p, r): a nonnegative mass and an accumulated vector of
dimension d.  Addition is componentwise and multiplication is
(p1*p2, p1*r2 + p2*r1), so lifting an edge with mass p and feature vector v
to (p, p*v) makes the product along a path equal (prod p, (prod p)*(sum v)),
and the sum over all source-to-sink paths of a DAG carries both the total
mass and the mass-weighted feature total in one forward pass.  A graph indexes
its outgoing edges once, at load, so load (with its toposort) and the pass are O(V + E).
The pass keeps each node's total as a plain (p, r) pair of floats and does the
float operations of ``wmul``/``wadd`` in the same order, so its result is
bit-identical to the weight arithmetic; a total that overflows to inf or NaN
raises the typed error ``NonFiniteTotal``.

Equality of weights is tolerance-based (1e-9 relative, 1e-12 absolute):
double-precision path products at desk scale.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Mapping, NamedTuple, Sequence

from .records import FrozenRecord

TOL_REL = 1e-9
TOL_ABS = 1e-12

# The largest vector dimension d a graph file may declare.  Every edge vector
# has d entries, so a graph with edges spells d out in its own input; a graph
# without edges does not, and a larger d there would make ``expect`` build
# and print a zero vector of any length from a file of a few bytes.
MAX_DIM = 4096


class DimensionMismatch(ValueError):
    """Weights of different vector dimensions cannot be combined."""


class ZeroMass(ValueError):
    """Expectation is undefined when the total mass is (numerically) zero."""


class CycleDetected(ValueError):
    """The edge list does not describe an acyclic graph."""


class TooManyPaths(ValueError):
    """Path enumeration refused: more source-to-sink paths than the bound."""


class InvalidGraph(ValueError):
    """The graph violates a shape requirement (labels, endpoints, edge data)."""


class NonFiniteTotal(ValueError):
    """The forward total overflowed: its mass or a feature entry is infinite or NaN."""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL_REL, abs_tol=TOL_ABS)


class NumericWeight(FrozenRecord):
    """Pair of nonnegative mass p and feature-total vector r."""

    __slots__ = _fields = ("p", "r")

    def __init__(self, p: float, r: Sequence[float]):
        try:
            p, r = float(p), tuple(map(float, r))
        except TypeError:
            if isinstance(p, NumericWeight) or any(isinstance(x, NumericWeight) for x in r):
                raise TypeError("weights nest raw floats, not other weights") from None
            raise
        if not p >= 0.0:
            raise ValueError(f"mass must be nonnegative, got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)

    @property
    def dim(self) -> int:
        return len(self.r)

    def isclose(self, other: "NumericWeight") -> bool:
        if self.dim != other.dim:
            return False
        return _close(self.p, other.p) and all(_close(x, y) for x, y in zip(self.r, other.r))


def wzero(dim: int) -> NumericWeight:
    return NumericWeight(0.0, (0.0,) * dim)


def wone(dim: int) -> NumericWeight:
    return NumericWeight(1.0, (0.0,) * dim)


def wadd(a: NumericWeight, b: NumericWeight) -> NumericWeight:
    """Componentwise sum."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim}")
    return NumericWeight(a.p + b.p, tuple(x + y for x, y in zip(a.r, b.r)))


def wmul(a: NumericWeight, b: NumericWeight) -> NumericWeight:
    """(p1*p2, p1*r2 + p2*r1); the identity is (1, zero vector)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim}")
    return NumericWeight(a.p * b.p, tuple(a.p * y + b.p * x for x, y in zip(a.r, b.r)))


def lift_edge(p: float, v: Sequence[float]) -> NumericWeight:
    """Lift raw edge data (p, v) to the weight (p, p*v)."""
    if p < 0:
        raise ValueError(f"edge mass must be nonnegative, got {p}")
    return NumericWeight(p, tuple(p * x for x in v))


class GraphEdge(NamedTuple):
    src: str
    dst: str
    p: float
    v: tuple[float, ...]


class WeightedDag(FrozenRecord):
    """Acyclic graph with raw (p, v) edge data, validated and ordered at load time.

    Edges carry unlifted data; lifting happens inside the traversals, and
    anything weight-shaped on an edge is rejected to prevent double lifting.
    Load walks the edges once to check them, index each under its source
    (input order) and count in-degrees, then reads Kahn's order off the
    counts: O(V + E) in all, and ``outgoing`` is a lookup.
    """

    _fields = ("dim", "nodes", "source", "sink", "edges")
    __slots__ = (*_fields, "_out", "_topo")

    def __init__(self, dim: int, nodes: tuple[str, ...], source: str, sink: str, edges: tuple[GraphEdge, ...]):
        out: dict[str, list[GraphEdge]] = {node: [] for node in nodes}
        if len(out) != len(nodes):
            raise InvalidGraph("duplicate node labels")
        if source not in out or sink not in out:
            raise InvalidGraph("source and sink must be declared nodes")
        incoming = dict.fromkeys(nodes, 0)
        for e in edges:
            src, dst, p, v = e
            if isinstance(p, NumericWeight) or isinstance(v, NumericWeight):
                raise InvalidGraph("edges carry raw (p, v) data; pre-lifted weights are rejected")
            if src not in out or dst not in out:
                raise InvalidGraph(f"edge {src}->{dst} references unknown nodes")
            if not (math.isfinite(p) and all(map(math.isfinite, v))):
                raise InvalidGraph(f"edge {src}->{dst} has non-finite data p={p} v={list(v)}")
            if not p >= 0.0:
                raise InvalidGraph(f"edge {src}->{dst} has negative mass {p}")
            if len(v) != dim:
                raise InvalidGraph(f"edge {src}->{dst} vector has dimension {len(v)}, expected {dim}")
            if dst == source:
                raise InvalidGraph("the source must have no incoming edges")
            if src == sink:
                raise InvalidGraph("the sink must have no outgoing edges")
            out[src].append(e)
            incoming[dst] += 1
        ready = deque(node for node, count in incoming.items() if count == 0)
        order = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for e in out[node]:
                incoming[e.dst] -= 1
                if incoming[e.dst] == 0:
                    ready.append(e.dst)
        if len(order) != len(nodes):
            raise CycleDetected("edge list contains a directed cycle")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sink", sink)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_out", {node: tuple(es) for node, es in out.items()})
        object.__setattr__(self, "_topo", tuple(order))

    @property
    def topological_order(self) -> tuple[str, ...]:
        return self._topo

    def outgoing(self, node: str) -> tuple[GraphEdge, ...]:
        return self._out.get(node, ())


_NUMBER_TYPES = frozenset({int, float})  # JSON numbers; bool is a separate type


def _edge_from_dict(e: Mapping) -> GraphEdge:
    src, dst, p, v = e["from"], e["to"], e["p"], e.get("v", [])
    if type(p) not in _NUMBER_TYPES:
        raise InvalidGraph(f"edge {src}->{dst}: 'p' must be a number, got {p!r}")
    if type(v) is not list or not _NUMBER_TYPES.issuperset(map(type, v)):
        raise InvalidGraph(f"edge {src}->{dst}: 'v' must be a list of numbers, got {v!r}")
    return GraphEdge(src, dst, float(p), tuple(map(float, v)))


def graph_from_dict(data: Mapping) -> WeightedDag:
    """Load the graph JSON shape {d, nodes, source, sink, edges:[{from,to,p,v}]}.

    ``d`` must be a non-negative integer of at most ``MAX_DIM``, ``nodes`` a
    list, each edge's ``p`` a number and its ``v`` (empty when left out) a
    list of numbers.
    """
    try:
        dim, nodes = data["d"], data["nodes"]
        if type(dim) is not int or dim < 0:
            raise InvalidGraph(f"'d' must be a non-negative integer, got {dim!r}")
        if dim > MAX_DIM:
            raise InvalidGraph(f"'d' must be at most {MAX_DIM}, got {dim}")
        if not isinstance(nodes, list):
            raise InvalidGraph(f"'nodes' must be a list, got {nodes!r}")
        edges = tuple(map(_edge_from_dict, data["edges"]))
        return WeightedDag(
            dim=dim,
            nodes=tuple(nodes),
            source=data["source"],
            sink=data["sink"],
            edges=edges,
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise InvalidGraph(f"malformed graph data: {exc}") from exc


def graph_to_dict(g: WeightedDag) -> dict:
    return {
        "d": g.dim,
        "nodes": list(g.nodes),
        "source": g.source,
        "sink": g.sink,
        "edges": [{"from": e.src, "to": e.dst, "p": e.p, "v": list(e.v)} for e in g.edges],
    }


def forward_total(g: WeightedDag) -> NumericWeight:
    """Sum over all source-to-sink paths of the product of lifted edges.

    One pass in topological order; an unreachable sink yields the zero
    weight.  The mass component is the total path mass Z and the vector
    component is the mass-weighted sum of per-path feature totals.

    Each node's running total is a plain (p, r) pair of floats.  Per edge
    the pass does the float operations of ``wadd(prev, wmul(acc,
    lift_edge(p, v)))`` in the same order, so the result is bit-identical
    to that weight arithmetic; only the sink total becomes a
    ``NumericWeight``.  A sink total with an infinite or NaN component
    (float overflow) raises ``NonFiniteTotal``.
    """
    totals: dict[str, tuple[float, list[float]]] = {g.source: (1.0, [0.0] * g.dim)}
    get = totals.get
    for node in g.topological_order:
        acc = get(node)
        if acc is None:
            continue
        ap, ar = acc
        for e in g.outgoing(node):
            p = e.p
            prev = get(e.dst)
            # lift (p, p*v), product (ap*p, ap*(p*v) + p*ar), then prev + product
            if prev is None:
                totals[e.dst] = (ap * p, [ap * (p * v) + p * a for v, a in zip(e.v, ar)])
            else:
                totals[e.dst] = (
                    prev[0] + ap * p,
                    [q + (ap * (p * v) + p * a) for q, v, a in zip(prev[1], e.v, ar)],
                )
    total = get(g.sink)
    if total is None:
        return wzero(g.dim)
    mass, vector = total
    if not math.isfinite(mass):
        raise NonFiniteTotal(f"float overflow: the total mass Z is {mass}")
    for k, x in enumerate(vector):
        if not math.isfinite(x):
            raise NonFiniteTotal(f"float overflow: the feature total r[{k}] is {x}")
    return NumericWeight(mass, vector)


def count_paths(g: WeightedDag) -> int:
    counts: dict[str, int] = {g.source: 1}
    for node in g.topological_order:
        c = counts.get(node, 0)
        if c == 0:
            continue
        for e in g.outgoing(node):
            counts[e.dst] = counts.get(e.dst, 0) + c
    return counts.get(g.sink, 0)


def brute_force_total(g: WeightedDag, max_paths: int = 20) -> NumericWeight:
    """Independent oracle: enumerate every path explicitly.

    Each path contributes (prod p, (prod p) * (sum v)) computed directly on
    floats, bypassing the weight multiplication used by forward_total.  The
    walk enters only nodes that reach the sink (found in one reverse
    topological pass), so every partial path ends in a counted path and
    ``max_paths`` bounds the work even on graphs with dead ends.
    """
    live = {g.sink}
    for node in reversed(g.topological_order):
        if any(e.dst in live for e in g.outgoing(node)):
            live.add(node)
    total = wzero(g.dim)
    seen = 0
    stack: list[tuple[str, float, tuple[float, ...]]] = [(g.source, 1.0, (0.0,) * g.dim)]
    while stack:
        node, mass, vec = stack.pop()
        if node == g.sink:
            seen += 1
            if seen > max_paths:
                raise TooManyPaths(f"more than {max_paths} source-to-sink paths")
            total = wadd(total, NumericWeight(mass, tuple(mass * x for x in vec)))
            continue
        for e in g.outgoing(node):
            if e.dst in live:
                stack.append((e.dst, mass * e.p, tuple(a + b for a, b in zip(vec, e.v))))
    return total


def expectation(g: WeightedDag) -> tuple[float, ...]:
    """Expected per-path feature total under path mass normalized by Z."""
    return expectation_from_total(forward_total(g))


def expectation_from_total(total: NumericWeight) -> tuple[float, ...]:
    """The feature part of a forward total divided by its mass Z; ZeroMass when Z is about 0."""
    if total.p <= TOL_ABS:
        raise ZeroMass(f"total mass {total.p} is numerically zero")
    return tuple(x / total.p for x in total.r)


def random_weight(rng: random.Random, dim: int) -> NumericWeight:
    return NumericWeight(rng.uniform(0.0, 2.0), tuple(rng.uniform(-2.0, 2.0) for _ in range(dim)))


def weight_law_failures(rng: random.Random, trials: int) -> list[str]:
    """Check the arithmetic laws on random weight triples; return failures."""
    failures = []
    for t in range(trials):
        dim = rng.randrange(0, 4)
        a, b, c = (random_weight(rng, dim) for _ in range(3))
        zero, one = wzero(dim), wone(dim)
        laws = [
            ("add_commutativity", wadd(a, b), wadd(b, a)),
            ("add_associativity", wadd(wadd(a, b), c), wadd(a, wadd(b, c))),
            ("add_identity", wadd(a, zero), a),
            ("mul_commutativity", wmul(a, b), wmul(b, a)),
            ("mul_associativity", wmul(wmul(a, b), c), wmul(a, wmul(b, c))),
            ("mul_identity", wmul(a, one), a),
            ("distributivity", wmul(a, wadd(b, c)), wadd(wmul(a, b), wmul(a, c))),
            ("zero_annihilation", wmul(a, zero), zero),
        ]
        for label, lhs, rhs in laws:
            if not lhs.isclose(rhs):
                failures.append(f"trial {t}: {label}: {lhs} != {rhs}")
    return failures


def random_dag(rng: random.Random) -> WeightedDag:
    """Random acyclic graph with at most 20 source-to-sink paths (rejection sampled).

    It has 2 to 8 nodes and vector dimension 0 to 3; each forward edge is
    present with probability 0.45.
    """
    while True:
        count = rng.randint(2, 8)
        dim = rng.randint(0, 3)
        nodes = tuple(f"n{i}" for i in range(count))
        edges = []
        for i in range(count):
            for j in range(i + 1, count):
                if rng.random() < 0.45:
                    edges.append(
                        GraphEdge(
                            src=nodes[i],
                            dst=nodes[j],
                            p=rng.uniform(0.0, 1.5),
                            v=tuple(rng.uniform(-2.0, 2.0) for _ in range(dim)),
                        )
                    )
        g = WeightedDag(dim=dim, nodes=nodes, source=nodes[0], sink=nodes[-1], edges=tuple(edges))
        if count_paths(g) <= 20:
            return g


def oracle_disagreements(rng: random.Random, graphs: int) -> list[str]:
    """Compare the forward pass against path enumeration on random DAGs."""
    failures = []
    for i in range(graphs):
        g = random_dag(rng)
        fast = forward_total(g)
        slow = brute_force_total(g, max_paths=20)
        if not fast.isclose(slow):
            failures.append(f"graph {i}: forward {fast} vs enumerated {slow}")
    return failures
