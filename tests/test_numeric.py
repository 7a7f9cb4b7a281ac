import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiringlab import (
    CycleDetected,
    DimensionMismatch,
    InvalidGraph,
    NonFiniteTotal,
    NumericWeight,
    TooManyPaths,
    WeightedDag,
    ZeroMass,
    brute_force_total,
    count_paths,
    expectation,
    forward_total,
    graph_from_dict,
    graph_to_dict,
    lift_edge,
    wadd,
    wmul,
    wone,
    wzero,
)
from semiringlab import numeric
from semiringlab.numeric import GraphEdge, oracle_disagreements, random_dag, weight_law_failures

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
mass = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


def weights(dim):
    return st.builds(
        NumericWeight, mass, st.tuples(*[finite] * dim).map(tuple)
    )


def test_componentwise_sum():
    total = wadd(NumericWeight(0.3, (0.3,)), NumericWeight(0.7, (1.4,)))
    assert total.isclose(NumericWeight(1.0, (1.7,)))


def test_product_mixes_masses_and_vectors():
    # (0.5, [0.5]) * (0.4, [1.2]) -> (0.2, [0.5*1.2 + 0.4*0.5]) = (0.2, [0.8])
    product = wmul(NumericWeight(0.5, (0.5,)), NumericWeight(0.4, (1.2,)))
    assert product.isclose(NumericWeight(0.2, (0.8,)))


def test_identities():
    a = NumericWeight(0.4, (1.0, -2.0))
    assert wadd(a, wzero(2)).isclose(a)
    assert wmul(a, wone(2)).isclose(a)
    assert wmul(a, wzero(2)).isclose(wzero(2))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wadd(wzero(1), wzero(2))
    with pytest.raises(DimensionMismatch):
        wmul(wone(1), wone(3))


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        NumericWeight(-0.1, ())
    with pytest.raises(ValueError):
        lift_edge(-1.0, (0.0,))


def test_nested_weights_rejected():
    with pytest.raises(TypeError, match="weights nest raw floats"):
        NumericWeight(wone(1), ())
    with pytest.raises(TypeError, match="weights nest raw floats"):
        NumericWeight(1.0, (wone(1),))


def test_lift_examples():
    assert lift_edge(0.3, (1.0,)).isclose(NumericWeight(0.3, (0.3,)))
    assert lift_edge(0.0, (5.0,)).isclose(wzero(1))
    assert lift_edge(1.0, (0.0,)).isclose(wone(1))


@given(mass, st.tuples(finite), mass, st.tuples(finite))
def test_lifted_edge_law(p1, v1, p2, v2):
    # product of lifted edges = (p1*p2, p1*p2*(v1+v2))
    lhs = wmul(lift_edge(p1, v1), lift_edge(p2, v2))
    rhs = NumericWeight(p1 * p2, tuple(p1 * p2 * (a + b) for a, b in zip(v1, v2)))
    assert lhs.isclose(rhs)


@given(weights(2), weights(2), weights(2))
def test_arithmetic_laws_hold_within_tolerance(a, b, c):
    assert wadd(a, b).isclose(wadd(b, a))
    assert wadd(wadd(a, b), c).isclose(wadd(a, wadd(b, c)))
    assert wmul(a, b).isclose(wmul(b, a))
    assert wmul(wmul(a, b), c).isclose(wmul(a, wmul(b, c)))
    assert wmul(a, wadd(b, c)).isclose(wadd(wmul(a, b), wmul(a, c)))


def parallel_graph():
    return graph_from_dict(
        {
            "d": 1,
            "nodes": ["s", "t"],
            "source": "s",
            "sink": "t",
            "edges": [
                {"from": "s", "to": "t", "p": 0.3, "v": [1.0]},
                {"from": "s", "to": "t", "p": 0.7, "v": [2.0]},
            ],
        }
    )


def chain_graph():
    return graph_from_dict(
        {
            "d": 1,
            "nodes": ["a", "b", "c"],
            "source": "a",
            "sink": "c",
            "edges": [
                {"from": "a", "to": "b", "p": 0.5, "v": [1.0]},
                {"from": "b", "to": "c", "p": 0.4, "v": [3.0]},
            ],
        }
    )


def diamond_graph(scale=1.0):
    return graph_from_dict(
        {
            "d": 2,
            "nodes": ["s", "u", "v", "t"],
            "source": "s",
            "sink": "t",
            "edges": [
                {"from": "s", "to": "u", "p": 0.2 * scale, "v": [1.0, 0.0]},
                {"from": "s", "to": "v", "p": 0.8 * scale, "v": [0.0, 1.0]},
                {"from": "u", "to": "t", "p": 0.9 * scale, "v": [2.0, 0.0]},
                {"from": "v", "to": "t", "p": 0.1 * scale, "v": [0.0, 2.0]},
            ],
        }
    )


def test_parallel_edges_total():
    g = parallel_graph()
    oracle = brute_force_total(g)
    assert oracle.isclose(NumericWeight(1.0, (1.7,)))
    assert forward_total(g).isclose(oracle)
    assert expectation(g) == pytest.approx((1.7,))


def test_single_chain_total():
    g = chain_graph()
    oracle = brute_force_total(g)
    assert oracle.isclose(NumericWeight(0.2, (0.8,)))
    assert forward_total(g).isclose(oracle)
    # one path: the expectation is the plain feature sum, whatever the masses
    assert expectation(g) == pytest.approx((4.0,))


def test_single_path_expectation_ignores_mass():
    heavier = graph_from_dict(
        {
            "d": 1,
            "nodes": ["a", "b", "c"],
            "source": "a",
            "sink": "c",
            "edges": [
                {"from": "a", "to": "b", "p": 1.9, "v": [1.0]},
                {"from": "b", "to": "c", "p": 0.1, "v": [3.0]},
            ],
        }
    )
    assert expectation(heavier) == pytest.approx((4.0,))


def test_dimension_zero_reduces_to_sum_product():
    g = graph_from_dict(
        {
            "d": 0,
            "nodes": ["s", "t"],
            "source": "s",
            "sink": "t",
            "edges": [
                {"from": "s", "to": "t", "p": 0.25, "v": []},
                {"from": "s", "to": "t", "p": 0.5, "v": []},
            ],
        }
    )
    total = forward_total(g)
    assert total.p == pytest.approx(0.75) and total.r == ()


def test_diamond_oracle_agreement():
    g = diamond_graph()
    assert forward_total(g).isclose(brute_force_total(g))


def test_expectation_scale_invariance_on_equal_length_paths():
    # every source-to-sink path of the diamond has two edges, so a uniform
    # mass rescaling cancels in the normalization
    base = expectation(diamond_graph())
    scaled = expectation(diamond_graph(scale=3.0))
    assert base == pytest.approx(scaled)


def test_zero_mass_raises():
    g = graph_from_dict(
        {
            "d": 1,
            "nodes": ["s", "t"],
            "source": "s",
            "sink": "t",
            "edges": [{"from": "s", "to": "t", "p": 0.0, "v": [1.0]}],
        }
    )
    with pytest.raises(ZeroMass):
        expectation(g)


def test_unreachable_sink_gives_zero():
    g = graph_from_dict(
        {"d": 1, "nodes": ["s", "x", "t"], "source": "s", "sink": "t",
         "edges": [{"from": "s", "to": "x", "p": 1.0, "v": [1.0]}]}
    )
    assert forward_total(g).isclose(wzero(1))
    assert brute_force_total(g).isclose(wzero(1))
    assert count_paths(g) == 0


def test_cycle_rejected_at_load():
    with pytest.raises(CycleDetected, match=r"^edge list contains a directed cycle$"):
        graph_from_dict(
            {
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
        )


def scan_toposort(g):
    """Kahn's algorithm with a list queue and a scan of every edge per node."""
    incoming = {node: 0 for node in g.nodes}
    for e in g.edges:
        incoming[e.dst] += 1
    ready = [node for node in g.nodes if incoming[node] == 0]
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for e in g.edges:
            if e.src == node:
                incoming[e.dst] -= 1
                if incoming[e.dst] == 0:
                    ready.append(e.dst)
    return tuple(order)


class ScanReference:
    """The same graph, with order and adjacency found by scanning the edge list."""

    def __init__(self, g):
        self.dim, self.source, self.sink, self.edges = g.dim, g.source, g.sink, g.edges
        self.topological_order = scan_toposort(g)

    def outgoing(self, node):
        return [e for e in self.edges if e.src == node]


def shuffled(g, rng):
    nodes, edges = list(g.nodes), list(g.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return WeightedDag(dim=g.dim, nodes=tuple(nodes), source=g.source, sink=g.sink, edges=tuple(edges))


def index_check_graphs():
    rng = random.Random(11)
    graphs = [parallel_graph(), diamond_graph()]
    # parallel edges s->a, plus a second root x that is the sink's only way in
    graphs.append(graph_from_dict(
        {"d": 1, "nodes": ["s", "a", "b", "x", "t"], "source": "s", "sink": "t",
         "edges": [{"from": "s", "to": "a", "p": 0.5, "v": [1.0]},
                   {"from": "s", "to": "b", "p": 0.25, "v": [2.0]},
                   {"from": "s", "to": "a", "p": 0.25, "v": [3.0]},
                   {"from": "a", "to": "b", "p": 1.0, "v": [0.5]},
                   {"from": "x", "to": "t", "p": 1.0, "v": [1.0]}]}
    ))
    for _ in range(60):
        g = random_dag(rng)
        graphs.extend([g, shuffled(g, rng)])
    return graphs


def test_adjacency_index_matches_edge_scans_exactly():
    graphs = index_check_graphs()
    assert any(count_paths(g) == 0 for g in graphs)
    for g in graphs:
        ref = ScanReference(g)
        assert g.topological_order == ref.topological_order
        for node in g.nodes:
            assert list(g.outgoing(node)) == ref.outgoing(node)
        assert forward_total(g) == forward_total(ref)
        assert count_paths(g) == count_paths(ref)
        assert brute_force_total(g) == brute_force_total(ref)


def weight_reference_total(g):
    """The forward pass in NumericWeight arithmetic: lift, wmul and wadd per edge."""
    totals = {g.source: wone(g.dim)}
    for node in g.topological_order:
        acc = totals.get(node)
        if acc is None:
            continue
        for e in g.outgoing(node):
            contribution = wmul(acc, lift_edge(e.p, e.v))
            prev = totals.get(e.dst)
            totals[e.dst] = contribution if prev is None else wadd(prev, contribution)
    return totals.get(g.sink, wzero(g.dim))


def normalized_graph(nodes, links, dim, rng):
    """Each node's outgoing masses sum to 1 (so Z = 1); features uniform in [0, 1)."""
    edges = []
    for src, targets in links:
        masses = [rng.uniform(0.1, 1.0) for _ in targets]
        total = sum(masses)
        edges.extend(
            GraphEdge(nodes[src], nodes[dst], mass / total, tuple(rng.uniform(0.0, 1.0) for _ in range(dim)))
            for dst, mass in zip(targets, masses)
        )
    return WeightedDag(dim=dim, nodes=tuple(nodes), source=nodes[0], sink=nodes[-1], edges=tuple(edges))


def long_graph(count=4000, dim=2, seed=5):
    """A long DAG: every node links to 1-3 of the next three nodes."""
    rng = random.Random(seed)
    links = []
    for i in range(count - 1):
        ahead = range(i + 1, min(i + 4, count))
        links.append((i, rng.sample(ahead, rng.randint(1, len(ahead)))))
    return normalized_graph([f"n{i}" for i in range(count)], links, dim, rng)


def wide_graph(layers=10, width=30, dim=64, seed=5):
    """Complete layers between a source and a sink: 2*width + (layers-1)*width^2 edges."""
    nodes = ["src"] + [f"l{k}_{j}" for k in range(layers) for j in range(width)] + ["sink"]
    sink = len(nodes) - 1
    links = [(0, list(range(1, 1 + width)))]
    for k in range(layers):
        start = 1 + k * width
        targets = [sink] if k == layers - 1 else list(range(start + width, start + 2 * width))
        links.extend((start + j, targets) for j in range(width))
    return normalized_graph(nodes, links, dim, random.Random(seed))


def test_flat_pass_is_bit_identical_to_weight_arithmetic():
    long, wide = long_graph(), wide_graph()
    assert (len(long.nodes), long.dim) == (4000, 2)
    assert (len(wide.edges), wide.dim) == (8160, 64)
    # three parallel edges: (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit
    fan = graph_from_dict(
        {"d": 1, "nodes": ["s", "t"], "source": "s", "sink": "t",
         "edges": [{"from": "s", "to": "t", "p": p, "v": [1.0]} for p in (0.1, 0.2, 0.3)]}
    )
    rng = random.Random(23)
    graphs = [long, wide, fan, *index_check_graphs()]
    for _ in range(300):
        g = random_dag(rng)
        graphs.extend([g, shuffled(g, rng)])
    assert {g.dim for g in graphs} >= {0, 1, 2, 3}
    for g in graphs:
        assert forward_total(g) == weight_reference_total(g)


def test_forward_pass_builds_only_the_sink_weight(monkeypatch):
    count = 26
    nodes = tuple(f"n{i}" for i in range(count))
    links = [(i, i + 1) for i in range(count - 1)] + [(i, i + 2) for i in range(count - 2)] + [(0, 1)]
    edges = tuple(GraphEdge(nodes[a], nodes[b], 0.5, (1.0, -1.0)) for a, b in links)
    g = WeightedDag(dim=2, nodes=nodes, source=nodes[0], sink=nodes[-1], edges=edges)
    assert len(g.edges) == 50
    calls = {"lift_edge": 0, "wmul": 0, "wadd": 0, "NumericWeight": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("lift_edge", "wmul", "wadd"):
        monkeypatch.setattr(numeric, name, counting(name, getattr(numeric, name)))
    monkeypatch.setattr(NumericWeight, "__post_init__", counting("NumericWeight", NumericWeight.__post_init__))
    total = forward_total(g)
    assert calls == {"lift_edge": 0, "wmul": 0, "wadd": 0, "NumericWeight": 1}
    assert total.p > 0.0


def overflow_graph(*edges):
    names = sorted(({e[0] for e in edges} | {e[1] for e in edges}) - {"s", "t"})
    return graph_from_dict(
        {"d": 1, "nodes": ["s", *names, "t"], "source": "s", "sink": "t",
         "edges": [{"from": a, "to": b, "p": p, "v": v} for a, b, p, v in edges]}
    )


@pytest.mark.parametrize("edges, component", [
    # 1e200 * 1e200 overflows the mass and the feature total to inf
    ([("s", "a", 1e200, [1.0]), ("a", "t", 1e200, [1.0])], r"Z is inf"),
    # the node b holds an infinite mass, and inf * 0.0 gives a NaN mass at the sink
    ([("s", "a", 1e200, [1.0]), ("a", "b", 1e200, [1.0]), ("b", "t", 0.0, [1.0])], r"Z is nan"),
    # a finite mass with a feature total beyond the largest float
    ([("s", "a", 1.0, [1e308]), ("a", "t", 1.0, [1e308])], r"r\[0\] is inf"),
])
def test_overflowing_total_is_a_typed_error(edges, component):
    with pytest.raises(NonFiniteTotal, match=r"float overflow: .*" + component):
        forward_total(overflow_graph(*edges))
    with pytest.raises(NonFiniteTotal):
        expectation(overflow_graph(*edges))


def test_non_finite_total_off_the_sink_paths_is_ignored():
    # b holds an infinite mass and x a NaN one, but neither reaches the sink
    g = overflow_graph(("s", "a", 1e200, [1.0]), ("a", "b", 1e200, [1.0]), ("b", "x", 0.0, [1.0]),
                       ("s", "t", 0.5, [2.0]))
    assert forward_total(g) == NumericWeight(0.5, (1.0,))


def test_graph_shape_errors():
    base = {"d": 1, "nodes": ["s", "t"], "source": "s", "sink": "t", "edges": []}
    with pytest.raises(InvalidGraph):
        graph_from_dict(dict(base, edges=[{"from": "t", "to": "s", "p": 1.0, "v": [0.0]}]))
    with pytest.raises(InvalidGraph):
        graph_from_dict(dict(base, edges=[{"from": "s", "to": "t", "p": -1.0, "v": [0.0]}]))
    with pytest.raises(InvalidGraph):
        graph_from_dict(dict(base, edges=[{"from": "s", "to": "t", "p": 1.0, "v": [0.0, 1.0]}]))
    with pytest.raises(InvalidGraph):
        graph_from_dict(dict(base, nodes=["s", "s", "t"]))


@pytest.mark.parametrize(
    "p, v",
    [(float("inf"), [0.0]), (float("nan"), [0.0]), (1.0, [float("nan")]), (1.0, [float("-inf")])],
)
def test_non_finite_edge_data_rejected(p, v):
    data = {"d": 1, "nodes": ["s", "t"], "source": "s", "sink": "t",
            "edges": [{"from": "s", "to": "t", "p": p, "v": v}]}
    with pytest.raises(InvalidGraph, match=r"edge s->t has non-finite data"):
        graph_from_dict(data)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("d", 2.5, "'d' must be a non-negative integer, got 2.5"),
        ("d", "1", "'d' must be a non-negative integer, got '1'"),
        ("d", True, "'d' must be a non-negative integer, got True"),
        ("d", -1, "'d' must be a non-negative integer, got -1"),
        ("nodes", "st", "'nodes' must be a list, got 'st'"),
        ("nodes", {"s": 0, "t": 1}, "'nodes' must be a list"),
    ],
    ids=["d-float", "d-string", "d-bool", "d-negative", "nodes-string", "nodes-object"],
)
def test_malformed_dimension_or_node_list_rejected(field, value, message):
    data = {"d": 1, "nodes": ["s", "t"], "source": "s", "sink": "t",
            "edges": [{"from": "s", "to": "t", "p": 1.0, "v": [0.5]}]}
    with pytest.raises(InvalidGraph, match=re.escape(message)):
        graph_from_dict(dict(data, **{field: value}))


@pytest.mark.parametrize(
    "p, v, message",
    [
        ("0.5", [0.5], "edge s->t: 'p' must be a number, got '0.5'"),
        (True, [0.5], "edge s->t: 'p' must be a number, got True"),
        (None, [0.5], "edge s->t: 'p' must be a number, got None"),
        (1.0, "12", "edge s->t: 'v' must be a list of numbers, got '12'"),
        (1.0, [True, False], "edge s->t: 'v' must be a list of numbers, got [True, False]"),
        (1.0, ["1", "2"], "edge s->t: 'v' must be a list of numbers, got ['1', '2']"),
        (1.0, {"x": 1.0}, "edge s->t: 'v' must be a list of numbers, got {'x': 1.0}"),
        (10**400, [0.5], "malformed graph data: int too large to convert to float"),
    ],
    ids=["p-string", "p-bool", "p-null", "v-string", "v-bools", "v-strings", "v-object", "p-huge-int"],
)
def test_non_number_edge_data_rejected(p, v, message):
    data = {"d": 2, "nodes": ["s", "t"], "source": "s", "sink": "t",
            "edges": [{"from": "s", "to": "t", "p": p, "v": v}]}
    with pytest.raises(InvalidGraph, match=re.escape(message)):
        graph_from_dict(data)


def test_integer_edge_data_loads_as_floats():
    data = {"d": 2, "nodes": ["s", "t"], "source": "s", "sink": "t",
            "edges": [{"from": "s", "to": "t", "p": 1, "v": [2, 0.5]}]}
    (edge,) = graph_from_dict(data).edges
    assert (edge.p, edge.v) == (1.0, (2.0, 0.5))
    assert type(edge.p) is float and all(type(x) is float for x in edge.v)


def test_prelifted_weights_rejected():
    with pytest.raises(InvalidGraph, match=r"^edges carry raw \(p, v\) data; pre-lifted weights are rejected$"):
        WeightedDag(
            dim=1,
            nodes=("s", "t"),
            source="s",
            sink="t",
            edges=(GraphEdge("s", "t", NumericWeight(1.0, (0.0,)), (0.0,)),),
        )


def test_too_many_paths():
    with pytest.raises(TooManyPaths):
        brute_force_total(parallel_graph(), max_paths=1)


def test_round_trip_graph_serialization():
    g = diamond_graph()
    again = graph_from_dict(graph_to_dict(g))
    assert forward_total(again).isclose(forward_total(g))


def test_seeded_random_oracle_agreement():
    assert oracle_disagreements(random.Random(7), 25) == []


def test_seeded_law_scan():
    assert weight_law_failures(random.Random(7), 200) == []


def test_random_dag_respects_bounds():
    rng = random.Random(3)
    for _ in range(20):
        g = random_dag(rng)
        assert len(g.nodes) <= 8
        assert count_paths(g) <= 20
        assert g.dim <= 3


GRAPH = {"d": 1, "nodes": ["s", "a", "t"], "source": "s", "sink": "t", "edges": []}


def edge(src, dst, p=1.0, v=(0.0,)):
    return {"from": src, "to": dst, "p": p, "v": list(v)}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"nodes": ["s", "a", "s", "t"]}, "duplicate node labels"),
        ({"source": "x"}, "source and sink must be declared nodes"),
        ({"sink": "x"}, "source and sink must be declared nodes"),
        ({"edges": [edge("s", "x")]}, "edge s->x references unknown nodes"),
        ({"edges": [edge("x", "t")]}, "edge x->t references unknown nodes"),
        ({"edges": [edge("s", "t", p=-1.0)]}, "edge s->t has negative mass -1.0"),
        ({"edges": [edge("s", "t", v=(0.0, 1.0))]}, "edge s->t vector has dimension 2, expected 1"),
        ({"edges": [edge("a", "s")]}, "the source must have no incoming edges"),
        ({"edges": [edge("t", "a")]}, "the sink must have no outgoing edges"),
        # two faults on one edge: the earlier check in the documented order wins
        ({"nodes": ["s", "s"], "source": "x"}, "duplicate node labels"),
        ({"edges": [edge("x", "s", p=-1.0)]}, "edge x->s references unknown nodes"),
        ({"edges": [edge("s", "t", p=-math.inf)]}, "edge s->t has non-finite data p=-inf v=[0.0]"),
        ({"edges": [edge("s", "t", p=-1.0, v=(0.0, 1.0))]}, "edge s->t has negative mass -1.0"),
        ({"edges": [edge("a", "s", v=())]}, "edge a->s vector has dimension 0, expected 1"),
        ({"edges": [edge("t", "s")]}, "the source must have no incoming edges"),
        # two faulty edges: the first in input order wins
        ({"edges": [edge("s", "t", v=()), edge("s", "t", p=-1.0)]}, "edge s->t vector has dimension 0"),
        ({"edges": [edge("s", "t", p=-1.0), edge("s", "t", v=())]}, "edge s->t has negative mass -1.0"),
        # an edge fault wins over a directed cycle
        ({"edges": [edge("a", "a"), edge("s", "t", p=-2.0)]}, "edge s->t has negative mass -2.0"),
    ],
)
def test_graph_error_messages_are_pinned(changes, message):
    with pytest.raises(InvalidGraph, match=re.escape(message)):
        graph_from_dict(dict(GRAPH, **changes))


class CountingEdges(tuple):
    """An edge tuple that counts how often it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_load_walks_the_edge_list_once():
    g = long_graph(count=50)
    edges = CountingEdges(g.edges)
    again = WeightedDag(dim=g.dim, nodes=g.nodes, source=g.source, sink=g.sink, edges=edges)
    assert edges.walks == 1
    assert again.topological_order == g.topological_order
    assert all(again.outgoing(node) == g.outgoing(node) for node in g.nodes)


def test_graph_edge_keeps_its_fields_and_repr():
    e = GraphEdge(src="s", dst="t", p=0.5, v=(1.0,))
    assert e == GraphEdge("s", "t", 0.5, (1.0,))
    assert (e.src, e.dst, e.p, e.v) == ("s", "t", 0.5, (1.0,))
    assert repr(e) == "GraphEdge(src='s', dst='t', p=0.5, v=(1.0,))"


def ladder_graph(diamonds, closed=False):
    """An s->t edge plus a chain of diamonds from s; its last node links to t only when closed."""
    nodes, edges = ["s", "t", "c0"], [edge("s", "t", 0.5, (1.0,)), edge("s", "c0", 0.5, (2.0,))]
    for k in range(diamonds):
        nodes += [f"u{k}", f"w{k}", f"c{k + 1}"]
        edges += [edge(f"c{k}", f"u{k}", 0.25), edge(f"c{k}", f"w{k}", 0.75),
                  edge(f"u{k}", f"c{k + 1}"), edge(f"w{k}", f"c{k + 1}", v=(0.5,))]
    if closed:
        edges.append(edge(f"c{diamonds}", "t"))
    return graph_from_dict(dict(GRAPH, nodes=nodes, edges=edges))


def test_oracle_work_is_bounded_on_dead_ends(monkeypatch):
    g = ladder_graph(12)
    assert (len(g.nodes), len(g.edges), count_paths(g)) == (39, 50, 1)
    calls = []
    outgoing = WeightedDag.outgoing

    def counted(self, node):
        calls.append(node)
        return outgoing(self, node)

    monkeypatch.setattr(WeightedDag, "outgoing", counted)
    assert brute_force_total(g) == forward_total(g) == NumericWeight(0.5, (0.5,))
    # 2**12 dead-end paths through the ladder would take thousands of calls
    assert len(calls) <= (20 + 1) * len(g.nodes)


def test_too_many_paths_still_counts_complete_paths():
    g = ladder_graph(5, closed=True)
    assert count_paths(g) == 33
    assert brute_force_total(g, max_paths=33).isclose(forward_total(g))
    with pytest.raises(TooManyPaths, match="more than 32 source-to-sink paths"):
        brute_force_total(g, max_paths=32)
