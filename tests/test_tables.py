import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiringlab import (
    BaseMismatch,
    InvalidStructure,
    SizeMismatch,
    build_expectation,
    builtin,
    builtin_pairs,
    default_grid,
    enumerate_semimodules,
    enumerate_semirings,
    is_commutative_mul,
    semiring_to_dict,
    semimodule_violations,
    semiring_violations,
    v_set,
    validate_semimodule,
    validate_semiring,
    zmod_quotient_module,
)
from semiringlab import tables
from semiringlab.cli import main
from semiringlab.tables import first_nonassociative, first_nondistributive

BOOLEAN = {
    "name": "boolean",
    "size": 2,
    "zero": 0,
    "one": 1,
    "add": [[0, 1], [1, 1]],
    "mul": [[0, 0], [0, 1]],
}

ZMOD4 = {
    "name": "zmod_4",
    "size": 4,
    "zero": 0,
    "one": 1,
    "add": [[(i + j) % 4 for j in range(4)] for i in range(4)],
    "mul": [[(i * j) % 4 for j in range(4)] for i in range(4)],
}


def test_boolean_tables_validate():
    s = validate_semiring(BOOLEAN)
    assert s.size == 2 and s.add(1, 1) == 1 and s.mul(1, 1) == 1


def test_zmod4_tables_validate():
    s = validate_semiring(ZMOD4)
    assert s.add(3, 2) == 1 and s.mul(2, 2) == 0


def test_broken_additive_identity_is_named():
    # 0+1 = 0 over {0,1}: zero stops being the additive identity, witness 1
    data = dict(BOOLEAN, add=[[0, 0], [0, 0]])
    violations = semiring_violations(data)
    assert any(v.axiom == "add_identity" and v.witness == (1,) for v in violations)
    with pytest.raises(InvalidStructure):
        validate_semiring(data)


def test_all_violations_reported_not_just_first():
    data = dict(BOOLEAN, add=[[0, 0], [0, 0]], mul=[[0, 0], [0, 0]])
    names = {v.axiom for v in semiring_violations(data)}
    assert "add_identity" in names and "mul_identity" in names


def test_zero_equal_one_rejected():
    data = dict(ZMOD4, one=0)
    names = {v.axiom for v in semiring_violations(data)}
    assert "zero_one_distinct" in names


def test_size_mismatch_raises():
    with pytest.raises(SizeMismatch):
        semiring_violations(dict(BOOLEAN, add=[[0, 1]]))
    with pytest.raises(SizeMismatch):
        semiring_violations(dict(BOOLEAN, size=1, add=[[0]], mul=[[0]]))
    with pytest.raises(SizeMismatch):
        semiring_violations(dict(BOOLEAN, zero=5))


# JSON true/false load as bools, which Python also counts as the ints 1 and 0.
BOOL_INDEXED = [
    ("semiring", dict(BOOLEAN, one=True), "one"),
    ("semiring", dict(BOOLEAN, zero=False), "zero"),
    ("semimodule", {"size": True, "zero": 0, "add": [[0]], "action": [[0], [0]], "base": "boolean"}, "size"),
    ("semimodule", {"size": 1, "zero": False, "add": [[0]], "action": [[0], [0]], "base": "boolean"}, "zero"),
]


@pytest.mark.parametrize("kind,data,field", BOOL_INDEXED)
def test_bool_size_or_index_is_a_size_mismatch(capsys, tmp_path, kind, data, field):
    with pytest.raises(SizeMismatch, match=field):
        if kind == "semiring":
            validate_semiring(data)
        else:
            validate_semimodule(validate_semiring(BOOLEAN), data)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.startswith(f"{path}: ERROR {field} must be")


def corrupt(table, entries):
    rows = [list(row) for row in table]
    for (r, c), value in entries.items():
        rows[r][c] = value
    return rows


def test_entry_out_of_range_reported():
    data = dict(BOOLEAN, add=[[0, 1], [1, 7]])
    violations = semiring_violations(data)
    assert [(v.axiom, v.witness) for v in violations] == [("add_entry_range", (1, 1))]
    # a bool, a float, a string, a negative index and the size itself, in both tables
    data = dict(
        ZMOD4,
        add=corrupt(ZMOD4["add"], {(2, 3): 1.0, (0, 1): True}),
        mul=corrupt(ZMOD4["mul"], {(3, 3): 4, (1, 2): "1", (3, 0): -1}),
    )
    expected = [
        ("add_entry_range", (0, 1)),
        ("add_entry_range", (2, 3)),
        ("mul_entry_range", (1, 2)),
        ("mul_entry_range", (3, 0)),
        ("mul_entry_range", (3, 3)),
    ]
    assert [(v.axiom, v.witness) for v in semiring_violations(data)] == expected
    with pytest.raises(InvalidStructure) as err:
        validate_semiring(data)
    assert [(v.axiom, v.witness) for v in err.value.violations] == expected
    base = validate_semiring(ZMOD4)
    module = mod2_action_data()
    bad_module = dict(
        module,
        add=corrupt(module["add"], {(1, 0): False}),
        action=corrupt(module["action"], {(3, 1): "1", (0, 1): 2, (2, 0): 1.0, (1, 1): -1}),
    )
    expected = [
        ("add_entry_range", (1, 0)),
        ("action_entry_range", (0, 1)),
        ("action_entry_range", (1, 1)),
        ("action_entry_range", (2, 0)),
        ("action_entry_range", (3, 1)),
    ]
    assert [(v.axiom, v.witness) for v in semimodule_violations(base, bad_module)] == expected
    with pytest.raises(InvalidStructure) as err:
        validate_semimodule(base, bad_module)
    assert [(v.axiom, v.witness) for v in err.value.violations] == expected
    # a shape error in the second table still wins over bad entries in the first
    bad_add = corrupt(ZMOD4["add"], {(0, 0): 9})
    with pytest.raises(SizeMismatch, match="mul table must have 4 rows"):
        semiring_violations(dict(ZMOD4, add=bad_add, mul=ZMOD4["mul"][:3]))
    with pytest.raises(SizeMismatch, match="mul table row 2 must have 4 entries"):
        validate_semiring(dict(ZMOD4, add=bad_add, mul=ZMOD4["mul"][:2] + [[0], [0]]))
    with pytest.raises(SizeMismatch, match="action table row 2 must have 2 entries"):
        semimodule_violations(
            base, dict(module, add=[[0, True], [1, 0]], action=module["action"][:2] + [[0], [0, 1]])
        )


def test_computed_tables_skip_the_json_parse(monkeypatch):
    # the program's own tables go straight to the law scans; only outside data is parsed
    def parse(*args):
        raise RuntimeError("reached the JSON parse")

    monkeypatch.setattr(tables, "_parse_table", parse)
    assert builtin_pairs(max_product=32)
    assert enumerate_semirings(3)
    enumerate_semimodules(builtin("zmod_3").structure, 2)
    zmod_quotient_module(6, 3)
    for cell in default_grid():
        build_expectation(cell.semiring, cell.module)
    with pytest.raises(RuntimeError, match="JSON parse"):
        validate_semiring(BOOLEAN)
    with pytest.raises(RuntimeError, match="JSON parse"):
        validate_semimodule(builtin("zmod_4").structure, mod2_action_data())


def mod2_action_data():
    # reduction action of the modulus-4 semiring on {0, 1}: s . x = (s * x) mod 2
    return {
        "name": "zmod_2",
        "size": 2,
        "zero": 0,
        "add": [[0, 1], [1, 0]],
        "action": [[(s * x) % 2 for x in range(2)] for s in range(4)],
    }


def test_mod2_reduction_is_a_module():
    base = validate_semiring(ZMOD4)
    data = mod2_action_data()
    assert data["action"] == [[0, 0], [0, 1], [0, 0], [0, 1]]
    module = validate_semimodule(base, data)
    assert module.act(3, 1) == 1 and module.act(2, 1) == 0


def test_self_action_is_a_module():
    base = validate_semiring(ZMOD4)
    data = {
        "size": 4,
        "zero": 0,
        "add": ZMOD4["add"],
        "action": ZMOD4["mul"],
    }
    validate_semimodule(base, data)


def test_broken_action_identity_is_named():
    base = validate_semiring(ZMOD4)
    data = mod2_action_data()
    data["action"][1][1] = 0
    violations = semimodule_violations(base, data)
    assert any(v.axiom == "action_identity" and v.witness == (1,) for v in violations)


def test_broken_zero_scalar_action_is_named():
    base = validate_semiring(ZMOD4)
    data = mod2_action_data()
    data["action"][0][1] = 1
    violations = semimodule_violations(base, data)
    assert any(v.axiom == "action_zero_scalar" for v in violations)


def test_embedded_base_must_match():
    base = validate_semiring(ZMOD4)
    data = mod2_action_data()
    data["base"] = BOOLEAN
    with pytest.raises(BaseMismatch):
        semimodule_violations(base, data)


def test_v_set_examples():
    assert v_set(validate_semiring(BOOLEAN)) == {0}
    assert v_set(validate_semiring(ZMOD4)) == {0, 1, 2, 3}
    trunc = builtin("trunc_nat_2").structure
    assert v_set(trunc) == {0}


@pytest.mark.parametrize("name", ["boolean", "zmod_4", "chain_2", "diamond"])
def test_v_set_membership_law(name):
    s = builtin(name).structure
    members = v_set(s)
    for x in s.elements():
        for y in s.elements():
            assert (s.add(x, y) in members) == (x in members and y in members)


def test_commutativity_probe():
    assert is_commutative_mul(validate_semiring(BOOLEAN))
    assert is_commutative_mul(validate_semiring(ZMOD4))
    lopsided = dict(BOOLEAN, mul=[[0, 0], [1, 1]])
    names = {v.axiom for v in semiring_violations(lopsided)}
    assert "mul_commutativity" in names


@given(st.permutations(list(range(4))))
def test_relabeling_preserves_validity(perm):
    # a bijective renaming of the carrier keeps every axiom intact
    inverse = [perm.index(i) for i in range(4)]
    relabeled = {
        "name": "relabeled",
        "size": 4,
        "zero": perm[0],
        "one": perm[1],
        "add": [[perm[ZMOD4["add"][inverse[i]][inverse[j]]] for j in range(4)] for i in range(4)],
        "mul": [[perm[ZMOD4["mul"][inverse[i]][inverse[j]]] for j in range(4)] for i in range(4)],
    }
    assert semiring_violations(relabeled) == []


def test_round_trip_serialization():
    s = validate_semiring(ZMOD4)
    assert validate_semiring(semiring_to_dict(s)) == s


MAX3 = [[max(i, j) for j in range(3)] for i in range(3)]
MAX4 = [[max(i, j) for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "data, expected",
    [
        # 2*(1+1) = 2*2 = 1 but 2*1 + 2*1 = 2; mul is symmetric, so both laws fail at (2, 1, 1)
        (
            dict(BOOLEAN, size=3, add=[[min(i + j, 2) for j in range(3)] for i in range(3)],
                 mul=[[0, 0, 0], [0, 1, 2], [0, 2, 1]]),
            [("left_distributivity", (2, 1, 1)), ("right_distributivity", (2, 1, 1))],
        ),
        # x*y = y for x = 1, else 0: every row is additive, but (1+2)*1 = 0 != 1*1 + 2*1 = 1
        (
            dict(BOOLEAN, size=3, add=MAX3, mul=[[0, 0, 0], [0, 1, 2], [0, 0, 0]]),
            [("mul_identity", (2,)), ("mul_commutativity", (1, 2)), ("right_distributivity", (1, 1, 2))],
        ),
        # (1+1)+2 = 2 but 1+(1+2) = 1
        (
            dict(BOOLEAN, size=3, add=[[0, 1, 2], [1, 0, 0], [2, 0, 0]], mul=[[0, 0, 0], [0, 1, 2], [0, 2, 2]]),
            [("add_associativity", (1, 1, 2))],
        ),
        # (2*3)*3 = 0 but 2*(3*3) = 2
        (
            dict(BOOLEAN, size=4, add=MAX4, mul=[[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 0], [0, 3, 0, 1]]),
            [("mul_associativity", (2, 3, 3)), ("left_distributivity", (2, 1, 2)),
             ("right_distributivity", (2, 1, 2))],
        ),
    ],
)
def test_semiring_axiom_witnesses_are_pinned(data, expected):
    assert [(v.axiom, v.witness) for v in semiring_violations(data)] == expected


def test_action_add_module_witness_is_pinned():
    # scalar 1 swaps 1 and 2 on the chain 0 < 1 < 2: 1(1+2) = 1 but 1*1 + 1*2 = 2
    base = validate_semiring(BOOLEAN)
    data = {"size": 3, "zero": 0, "add": MAX3, "action": [[0, 0, 0], [0, 2, 1]]}
    assert [(v.axiom, v.witness) for v in semimodule_violations(base, data)] == [
        ("action_identity", (1,)),
        ("action_add_module", (1, 1, 2)),
        ("action_mul_scalar", (1, 1, 1)),
    ]


def test_action_add_scalar_witness_is_pinned():
    # boolean scalars on the two-element group: (1+1)1 = 1 but 1*1 + 1*1 = 0
    base = validate_semiring(BOOLEAN)
    data = {"size": 2, "zero": 0, "add": [[0, 1], [1, 0]], "action": [[0, 0], [0, 1]]}
    assert [(v.axiom, v.witness) for v in semimodule_violations(base, data)] == [("action_add_scalar", (1, 1, 1))]


def literal_first(size, holds):
    """First row-major triple over 0..size-1 at which ``holds`` is false, or None."""
    return next((t for t in itertools.product(range(size), repeat=3) if not holds(*t)), None)


@pytest.mark.parametrize("size", [256, 257, 300])
def test_cubic_scans_on_carriers_past_one_byte(size):
    # the chain 0 < 1 < ... with max as addition and min as multiplication is a
    # distributive lattice; a planted entry in each table breaks its law in an early row
    join = [[max(i, j) for j in range(size)] for i in range(size)]
    meet = [[min(i, j) for j in range(size)] for i in range(size)]
    join[2][3] = size - 1
    meet[1][size - 1] = 0
    join, meet = tuple(map(tuple, join)), tuple(map(tuple, meet))
    assoc = literal_first(size, lambda a, b, c: join[join[a][b]][c] == join[a][join[b][c]])
    dist = literal_first(size, lambda r, x, y: meet[r][join[x][y]] == join[meet[r][x]][meet[r][y]])
    assert assoc == (2, 3, 4) and dist == (1, 1, size - 1)
    assert first_nonassociative(join, join) == assoc
    assert first_nondistributive(join, meet) == dist
