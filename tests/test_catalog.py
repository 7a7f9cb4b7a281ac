import gc
import hashlib
import itertools
from dataclasses import replace

import pytest

from semiringlab import (
    BaseMismatch,
    FiniteSemiring,
    OrderTooLarge,
    UnknownName,
    are_isomorphic,
    builtin,
    builtin_pairs,
    enumerate_semimodules,
    enumerate_semirings,
    product_module,
    self_module,
    standard_modules,
    zmod_quotient_module,
)
from semiringlab import catalog
from semiringlab.catalog import BUILTIN_SEMIRING_NAMES
from semiringlab.tables import validate_semiring


def test_builtin_names_all_resolve():
    for name in BUILTIN_SEMIRING_NAMES:
        semiring = builtin(name)
        assert isinstance(semiring, FiniteSemiring) and semiring.name == name
        assert semiring.size >= 2


def test_builtin_spot_tables():
    b = builtin("boolean")
    assert b.add(1, 1) == 1
    trunc = builtin("trunc_nat_2")
    assert trunc.add(1, 2) == 2 and trunc.mul(2, 2) == 2
    chain = builtin("chain_2")
    assert chain.one == 2 and chain.mul(1, 2) == 1
    diamond = builtin("diamond")
    assert diamond.add(1, 2) == 3 and diamond.mul(1, 2) == 0


def test_unknown_names_rejected():
    # a carrier past 256 elements is refused before any table is built
    for name in ("nonsense", "field_4", "zmod_1", "chain_0", "trunc_nat_0",
                 "zmod_257", "chain_256", "trunc_nat_256", "field_257", "zmod_" + "9" * 30):
        with pytest.raises(UnknownName):
            builtin(name)
    assert builtin("chain_255").size == builtin("zmod_256").size == 256


def test_field_names_alias_modular_tables():
    field, zmod = builtin("field_3"), builtin("zmod_3")
    assert field.add_table == zmod.add_table
    # every family drops leading zeros from the name, the field family too
    names = ("field_03", "zmod_03", "chain_02", "trunc_nat_02")
    assert [builtin(name).name for name in names] == ["field_3", "zmod_3", "chain_2", "trunc_nat_2"]
    # equality and hash compare the tables, not the name label
    assert field.name != zmod.name and field == zmod and hash(field) == hash(zmod)
    assert replace(field, name="x") == field
    assert self_module(field) == self_module(zmod) and hash(self_module(field)) == hash(self_module(zmod))
    assert field != builtin("zmod_2") and replace(field, one=2) != field
    assert self_module(zmod) != replace(self_module(zmod), zero=1)


def test_exactly_two_semirings_of_order_two():
    entries = enumerate_semirings(2)
    assert len(entries) == 2
    # the two differ only in 1+1, which also separates them up to isomorphism
    assert {e.add(1, 1) for e in entries} == {0, 1}
    assert not are_isomorphic(entries[0], entries[1])


def test_order_three_contains_the_expected_builtins():
    entries = enumerate_semirings(3)
    assert entries
    for name in ("zmod_3", "chain_2", "trunc_nat_2"):
        target = builtin(name)
        assert any(are_isomorphic(e, target) for e in entries), name


def test_order_four_contains_its_builtins():
    entries = enumerate_semirings(4)
    for name in ("zmod_4", "diamond", "trunc_nat_3"):
        target = builtin(name)
        assert any(are_isomorphic(e, target) for e in entries), name
    deduped = enumerate_semirings(4, dedup=True)
    assert len(deduped) <= len(entries)


def test_enumeration_is_deterministic():
    first = [(e.name, e.add_table, e.mul_table) for e in enumerate_semirings(3)]
    second = [(e.name, e.add_table, e.mul_table) for e in enumerate_semirings(3)]
    assert first == second


def test_enumeration_order_bounds():
    with pytest.raises(OrderTooLarge):
        enumerate_semirings(5)
    with pytest.raises(OrderTooLarge):
        enumerate_semirings(1)
    with pytest.raises(OrderTooLarge):
        enumerate_semimodules(builtin("boolean"), 5)


def test_module_enumeration_ground_truth():
    b = builtin("boolean")
    only = enumerate_semimodules(b, 1)
    assert len(only) == 1 and only[0].size == 1

    mods2 = enumerate_semimodules(b, 2)
    assert len(mods2) == 1
    assert mods2[0].add_table == b.add_table
    assert mods2[0].action_table == b.mul_table

    z2 = builtin("zmod_2")
    mods = enumerate_semimodules(z2, 2)
    assert any(
        m.add_table == z2.add_table and m.action_table == z2.mul_table
        for m in mods
    )

    z4 = builtin("zmod_4")
    reduction = zmod_quotient_module(4, 2)
    assert any(
        m.add_table == reduction.add_table
        and m.action_table == reduction.action_table
        for m in enumerate_semimodules(z4, 2)
    )


def test_standard_modules_are_validated_for_every_builtin():
    for name in BUILTIN_SEMIRING_NAMES:
        semiring = builtin(name)
        modules = standard_modules(semiring)
        assert modules[0].size == 1
        assert any(m.size == semiring.size for m in modules)


def test_quotient_action_values():
    reduction = zmod_quotient_module(4, 2)
    assert reduction.action_table == ((0, 0), (0, 1), (0, 0), (0, 1))
    with pytest.raises(BaseMismatch):
        zmod_quotient_module(4, 3)


def test_product_module_requires_common_base():
    b = builtin("boolean")
    z2 = builtin("zmod_2")
    squared = product_module(self_module(b), self_module(b))
    assert squared.size == 4
    with pytest.raises(BaseMismatch):
        product_module(self_module(b), self_module(z2))
    # bases with the same tables are the same base, whatever their labels
    field, zmod = builtin("field_3"), builtin("zmod_3")
    assert product_module(self_module(field), self_module(zmod)).size == 9
    with pytest.raises(BaseMismatch):
        product_module(self_module(zmod), self_module(builtin("chain_2")))  # also 3 elements


def test_builtin_pairs_respect_the_size_bound():
    pairs = builtin_pairs(max_product=16)
    assert pairs
    assert all(s.size * m.size <= 16 for _n, s, m in pairs)
    names = {name for name, _s, _m in pairs}
    assert "zmod_4" in names and "diamond" in names


def test_isomorphism_probe():
    assert not are_isomorphic(builtin("boolean"), builtin("zmod_2"))
    assert are_isomorphic(builtin("chain_2"), builtin("chain_2"))


def _digest(entries):
    rows = [
        (e.name, e.add_table, getattr(e, "mul_table", None) or e.action_table)
        for e in entries
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _modules_over(semirings):
    return [m for s in semirings for k in (1, 2, 3) for m in enumerate_semimodules(s, k)]


_SMALL_BUILTINS = [builtin(n) for n in BUILTIN_SEMIRING_NAMES if builtin(n).size <= 4]


# Counts and digests of the enumeration, pinned so that a rewrite of the
# search must reproduce every table, name and position byte for byte.
@pytest.mark.parametrize(
    "entries, count, digest",
    [
        pytest.param(
            lambda: enumerate_semirings(2), 2,
            "19f7a98f60da1b33cb243204eea986eba377f1e5372a8407554943fb0f305e82",
            id="S2",
        ),
        pytest.param(
            lambda: enumerate_semirings(3), 6,
            "395cbb41c07d66502d49c9da6450ad422ef1165b7899ecfc6ed94a681bba9eee",
            id="S3",
        ),
        pytest.param(
            lambda: enumerate_semirings(4), 69,
            "3401896cea89890a610b2be0aa276583fb855b4f481af984a3c68152ae1e8036",
            id="S4",
        ),
        pytest.param(
            lambda: enumerate_semirings(4, dedup=True), 36,
            "e1480ab0fd675e4c0ce146aa392f1148fa210025d02059bc941acd00844a4ad0",
            id="S4-dedup",
        ),
        pytest.param(
            lambda: _modules_over(e for e in enumerate_semirings(2)), 6,
            "eafa733c34315d5685f91b18fe81fde2515152fe4f4e73d79f3b30cc9c5e98af",
            id="M-over-S2",
        ),
        pytest.param(
            lambda: _modules_over(e for e in enumerate_semirings(3)), 40,
            "48c2ed9c269f70d357ca9573493910903390d3eca9f1311cf44fa74bc007849c",
            id="M-over-S3",
        ),
        pytest.param(
            lambda: _modules_over(e for e in enumerate_semirings(4)), 587,
            "65f82ec7ed62bd324b9bddd39a69e297ef5ceb6a6df6081e2f9f0d3b2e35708f",
            id="M-over-S4",
        ),
        # builtins put zero and one at other indices (chain_2, diamond)
        pytest.param(
            lambda: _modules_over(_SMALL_BUILTINS), 44,
            "c660d60a2b76fe711ef011cb878d00000f0a9c7885273518488d498a8fe2c636",
            id="M-over-builtins",
        ),
    ],
)
def test_enumeration_is_pinned(entries, count, digest):
    found = entries()
    assert len(found) == count
    assert _digest(found) == digest


def test_enumeration_leaves_no_reference_cycles():
    # a finished search is freed by reference counting, not left to the cyclic collector
    gc.collect()
    gc.disable()
    try:
        enumerate_semirings(3)
        enumerate_semimodules(builtin("zmod_2"), 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_leaves_the_validator_nothing_to_reject(monkeypatch):
    # every law instance is checked while the tables are filled, so each
    # candidate the search emits is valid and the validator is a safety net
    calls = []
    for name in ("checked_semiring", "checked_semimodule"):
        real = getattr(catalog, name)
        monkeypatch.setattr(catalog, name, lambda *args, real=real: calls.append(args) or real(*args))
    semirings = [e for n in (2, 3, 4) for e in enumerate_semirings(n)]
    modules = _modules_over(semirings + _SMALL_BUILTINS)
    assert len(calls) == len(semirings) + len(modules)


def reference_isomorphic(a, b):
    """Brute-force isomorphism test over all carrier bijections (the oracle)."""
    if a.size != b.size:
        return False
    n = a.size
    for perm in itertools.permutations(range(n)):
        if perm[a.zero] != b.zero or perm[a.one] != b.one:
            continue
        if all(
            perm[a.add(x, y)] == b.add(perm[x], perm[y]) and perm[a.mul(x, y)] == b.mul(perm[x], perm[y])
            for x in range(n)
            for y in range(n)
        ):
            return True
    return False


def test_isomorphism_matches_the_bijection_oracle_on_order_four():
    entries = [e for e in enumerate_semirings(4)]
    pairs = list(itertools.combinations(entries, 2))
    assert len(pairs) == 2346
    mismatches = [(a.name, b.name) for a, b in pairs if are_isomorphic(a, b) != reference_isomorphic(a, b)]
    assert mismatches == []
    assert sum(reference_isomorphic(a, b) for a, b in pairs) > 0


def _relabel(s, p):
    """The semiring s with element x renamed p[x]."""
    add = [[0] * s.size for _ in range(s.size)]
    mul = [[0] * s.size for _ in range(s.size)]
    for a in s.elements():
        for b in s.elements():
            add[p[a]][p[b]] = p[s.add(a, b)]
            mul[p[a]][p[b]] = p[s.mul(a, b)]
    return validate_semiring({"size": s.size, "zero": p[s.zero], "one": p[s.one], "add": add, "mul": mul})


def test_isomorphism_matches_the_bijection_oracle_on_relabelled_builtins():
    structures = [builtin(n) for n in BUILTIN_SEMIRING_NAMES]
    relabelled = []
    for s in structures:
        # reverse the carrier; from order 4 on, rotate until zero and one sit off 0 and 1
        p = list(reversed(range(s.size)))
        while s.size >= 4 and (p[s.zero] in (0, 1) or p[s.one] in (0, 1)):
            p = p[1:] + p[:1]
        relabelled.append(_relabel(s, p))
    assert sum(r.zero not in (0, 1) and r.one not in (0, 1) for r in relabelled) == 5
    for r, s in zip(relabelled, structures):
        assert are_isomorphic(r, s) and reference_isomorphic(r, s)
    for a, b in itertools.product(structures + relabelled, repeat=2):
        assert are_isomorphic(a, b) == reference_isomorphic(a, b), (a.name, b.name)
