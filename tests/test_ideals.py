import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiringlab import (
    CarrierTooLarge,
    FiniteSemiring,
    Ideal,
    NotAnIdeal,
    Subsemimodule,
    annihilator,
    build_expectation,
    builtin,
    builtin_pairs,
    default_grid,
    enumerate_ideals,
    enumerate_subsemimodules,
    is_primary,
    is_primary_submodule,
    is_prime,
    is_subtractive,
    is_weak_gaussian,
    is_weakly_prime,
    maximal_ideals,
    radical,
    residual,
    run_pair,
    self_module,
    submodule_radical,
    validate_semimodule,
    validate_semiring,
    zmod_quotient_module,
)
from semiringlab.construct import box_members, projections


def brute_closed_sets(carrier):
    """Definition-level oracle: filter every nonempty subset directly.

    A subset qualifies when it is closed under addition and under the scalar
    action, which for a semiring is its multiplication: the ideals of a
    semiring, the subsemimodules of a module.
    """
    action = carrier.mul_table if isinstance(carrier, FiniteSemiring) else carrier.action_table
    add = carrier.add_table
    out = []
    elements = list(carrier.elements())
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            members = frozenset(combo)
            closed = all(add[a][b] in members for a in members for b in members)
            absorbs = all(row[a] in members for row in action for a in members)
            if closed and absorbs:
                out.append(members)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


@pytest.mark.parametrize("name", ["boolean", "zmod_4", "trunc_nat_2", "diamond", "zmod_6"])
def test_enumeration_matches_definition_oracle(name):
    s = builtin(name)
    assert [i.members for i in enumerate_ideals(s)] == brute_closed_sets(s)
    m = self_module(s)
    assert [n.members for n in enumerate_subsemimodules(m)] == brute_closed_sets(m)


def test_enumeration_strategies_agree_on_products():
    """NextClosure and the subset filter agree on products of 8 and 16 elements."""
    z4 = builtin("zmod_4")
    small = build_expectation(z4, zmod_quotient_module(4, 2)).product
    large = build_expectation(z4, self_module(z4)).product
    for product in (small, large):
        assert [i.members for i in enumerate_ideals(product)] == brute_closed_sets(product)


def test_carrier_bound():
    chain = builtin("chain_64")
    assert chain.size == 65
    with pytest.raises(CarrierTooLarge, match="carrier size 65 exceeds bound 64"):
        enumerate_ideals(chain)


def test_core_matches_subset_oracle_on_default_grid():
    seen = set()
    for cell in default_grid(max_order=3):
        semiring, module = cell.semiring, cell.module
        product = build_expectation(semiring, module).product
        for enumerate_closed, carrier in (
            (enumerate_ideals, semiring),
            (enumerate_subsemimodules, module),
            (enumerate_ideals, product),
        ):
            key = (carrier.add_table, getattr(carrier, "mul_table", None) or carrier.action_table)
            if key in seen:
                continue
            seen.add(key)
            assert [c.members for c in enumerate_closed(carrier)] == brute_closed_sets(carrier), cell.label


def _builtin_pair(name, module_name):
    return next((s, m) for n, s, m in builtin_pairs(max_product=32) if (n, m.name) == (name, module_name))


@pytest.mark.parametrize(
    "name, module_name, count",
    [("chain_2", "chain_2xchain_2", 391), ("trunc_nat_2", "trunc_nat_2xtrunc_nat_2", 593)],
)
def test_pinned_product_ideal_counts(name, module_name, count):
    product = build_expectation(*_builtin_pair(name, module_name)).product
    assert product.size == 27
    assert len(enumerate_ideals(product)) == count


def _permutation(size, avoid):
    """Permutations p of 0..size-1 with p[i] outside ``avoid[i]`` for each key i."""
    return st.permutations(range(size)).filter(lambda p: all(p[i] not in bad for i, bad in avoid.items()))


def _relabel_semiring(s, p):
    add = [[0] * s.size for _ in range(s.size)]
    mul = [[0] * s.size for _ in range(s.size)]
    for a in s.elements():
        for b in s.elements():
            add[p[a]][p[b]] = p[s.add(a, b)]
            mul[p[a]][p[b]] = p[s.mul(a, b)]
    return validate_semiring({"size": s.size, "zero": p[s.zero], "one": p[s.one], "add": add, "mul": mul})


def _relabel_module(m, base, p, q):
    add = [[0] * m.size for _ in range(m.size)]
    action = [[0] * m.size for _ in range(base.size)]
    for x in m.elements():
        for y in m.elements():
            add[q[x]][q[y]] = q[m.add(x, y)]
        for s in m.base.elements():
            action[p[s]][q[x]] = q[m.act(s, x)]
    return validate_semimodule(base, {"size": m.size, "zero": q[m.zero], "add": add, "action": action})


def _image(closed_sets, relabel):
    return {frozenset(relabel(i) for i in c.members) for c in closed_sets}


_PAIRS = [(s, m) for _n, s, m in builtin_pairs(max_product=16) if s.size >= 3 and m.size >= 2]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_enumeration_is_label_invariant(data):
    semiring, module = data.draw(st.sampled_from(_PAIRS))
    # zero and one leave both their own index and the usual positions 0 and 1
    p = data.draw(_permutation(semiring.size, {semiring.zero: {0, semiring.zero}, semiring.one: {1, semiring.one}}))
    q = data.draw(_permutation(module.size, {module.zero: {0, module.zero}}))
    semiring2 = _relabel_semiring(semiring, p)
    module2 = _relabel_module(module, semiring2, p, q)

    assert {c.members for c in enumerate_ideals(semiring2)} == _image(enumerate_ideals(semiring), p.__getitem__)
    assert {c.members for c in enumerate_subsemimodules(module2)} == _image(
        enumerate_subsemimodules(module), q.__getitem__
    )
    inst, inst2 = build_expectation(semiring, module), build_expectation(semiring2, module2)

    def relabel_pair(k):
        s, x = inst.pair_of(k)
        return inst2.index_of(p[s], q[x])

    assert {c.members for c in enumerate_ideals(inst2.product)} == _image(enumerate_ideals(inst.product), relabel_pair)


def _rotation(size, avoid):
    """The first rotation p[i] = i + k (mod size) with p[i] outside ``avoid[i]``; the identity if none."""
    for shift in range(1, size):
        p = [(i + shift) % size for i in range(size)]
        if all(p[i] not in bad for i, bad in avoid.items()):
            return p
    return list(range(size))


def test_check_statuses_are_label_invariant():
    for cell in default_grid(max_order=3):
        s, m = cell.semiring, cell.module
        # zero and one leave their own index and the usual positions 0 and 1 where the size allows
        p = _rotation(s.size, {s.zero: {0, s.zero}, s.one: {1, s.one}})
        q = _rotation(m.size, {m.zero: {0, m.zero}})
        s2 = _relabel_semiring(s, p)
        m2 = _relabel_module(m, s2, p, q)
        statuses = [(r.theorem, r.status) for r in run_pair(cell.label, s, m)[0]]
        assert [(r.theorem, r.status) for r in run_pair(cell.label, s2, m2)[0]] == statuses, cell.label


def test_known_ideal_lattices():
    b = builtin("boolean")
    assert [i.indices() for i in enumerate_ideals(b)] == [(0,), (0, 1)]
    z4 = builtin("zmod_4")
    assert [i.indices() for i in enumerate_ideals(z4)] == [(0,), (0, 2), (0, 1, 2, 3)]
    trunc = builtin("trunc_nat_2")
    assert [i.indices() for i in enumerate_ideals(trunc)] == [(0,), (0, 2), (0, 1, 2)]


def test_subtractive_examples():
    z4 = builtin("zmod_4")
    assert is_subtractive(Ideal(z4, frozenset({0, 2})))
    assert is_subtractive(Ideal(z4, frozenset(range(4))))
    trunc = builtin("trunc_nat_2")
    # 2 + 1 saturates to 2, which stays inside {0, 2} while 1 is outside
    assert not is_subtractive(Ideal(trunc, frozenset({0, 2})))


def test_prime_maximal_primary_on_zmod4():
    z4 = builtin("zmod_4")
    ideals = enumerate_ideals(z4)
    evens = Ideal(z4, frozenset({0, 2}))
    assert is_prime(evens) and evens in maximal_ideals(ideals) and is_primary(evens)
    zero = Ideal(z4, frozenset({0}))
    assert not is_prime(zero)
    assert is_primary(zero)
    b = builtin("boolean")
    assert is_prime(Ideal(b, frozenset({0})))


@pytest.mark.parametrize("members", [{0, 1, 2, 3, -1}, {0, 9}], ids=["negative", "past-the-end"])
def test_out_of_carrier_members_are_rejected(members):
    z4 = builtin("zmod_4")
    for cls, parent in ((Ideal, z4), (Subsemimodule, self_module(z4))):
        with pytest.raises(ValueError, match="outside carrier"):
            cls(parent, frozenset(members))


def test_predicates_reject_improper_ideals():
    z4 = builtin("zmod_4")
    whole = Ideal(z4, frozenset(range(4)))
    ideals = enumerate_ideals(z4)
    for predicate in (is_prime, is_primary, is_weakly_prime, lambda i: i in maximal_ideals(ideals)):
        assert predicate(whole) is False


def test_radical_examples():
    z4 = builtin("zmod_4")
    assert radical(Ideal(z4, frozenset({0}))).indices() == (0, 2)
    b = builtin("boolean")
    assert radical(Ideal(b, frozenset({0}))).indices() == (0,)


def test_radical_of_zero_box_in_zmod4_pair():
    z4 = builtin("zmod_4")
    inst = build_expectation(z4, self_module(z4))
    zero_box = Ideal(inst.product, frozenset({inst.product.zero}))
    expected = frozenset(inst.index_of(s, x) for s in (0, 2) for x in range(4))
    assert radical(zero_box).members == expected


def test_residual_examples():
    z4 = builtin("zmod_4")
    m = self_module(z4)
    assert residual(Subsemimodule(m, frozenset({0}))).indices() == (0,)
    assert residual(Subsemimodule(m, frozenset({0, 2}))).indices() == (0, 2)
    assert residual(Subsemimodule(m, frozenset(range(4)))).indices() == (0, 1, 2, 3)


def test_submodule_radical_examples():
    z4 = builtin("zmod_4")
    m = self_module(z4)
    assert submodule_radical(Subsemimodule(m, frozenset({0}))).indices() == (0, 2)
    assert submodule_radical(Subsemimodule(m, frozenset(range(4)))).indices() == (0, 1, 2, 3)
    b = builtin("boolean")
    bm = self_module(b)
    assert submodule_radical(Subsemimodule(bm, frozenset({0}))).indices() == (0,)


def test_primary_submodule_examples():
    z4 = builtin("zmod_4")
    m = self_module(z4)
    assert is_primary_submodule(Subsemimodule(m, frozenset({0})))
    assert is_primary_submodule(Subsemimodule(m, frozenset({0, 2})))
    assert is_primary_submodule(Subsemimodule(m, frozenset(range(4)))) is False


def test_weakly_prime_examples():
    z4 = builtin("zmod_4")
    assert is_weakly_prime(Ideal(z4, frozenset({0})))
    assert is_weakly_prime(Ideal(z4, frozenset({0, 2})))
    inst = build_expectation(z4, self_module(z4))
    box = Ideal(inst.product, box_members(inst, {0, 2}, range(4)))
    assert is_weakly_prime(box)


def test_annihilator_examples():
    z4 = builtin("zmod_4")
    assert annihilator(self_module(z4)).indices() == (0,)
    assert annihilator(zmod_quotient_module(4, 2)).indices() == (0, 2)
    from semiringlab import trivial_module

    assert annihilator(trivial_module(z4)).indices() == (0, 1, 2, 3)


def test_box_ideal_success_and_failure():
    # A validated box is the Ideal constructor over construct.box_members.
    z4 = builtin("zmod_4")
    inst = build_expectation(z4, self_module(z4))
    box = Ideal(inst.product, box_members(inst, {0, 2}, range(4)))
    assert len(box) == 8

    # (1, 1)(2, 0) = (2, 2): the scalar 2 does not carry the module into {0}
    stray = box_members(inst, {0, 2}, {0})
    with pytest.raises(NotAnIdeal) as err:
        Ideal(inst.product, stray)
    e, k = err.value.witness
    assert k in stray and inst.product.mul(e, k) not in stray

    zero_box = Ideal(inst.product, box_members(inst, {0}, {0}))
    assert zero_box.indices() == (inst.product.zero,)


def test_projections_examples():
    # Validated projections are the Ideal and Subsemimodule constructors over construct.projections.
    z4 = builtin("zmod_4")
    inst = build_expectation(z4, self_module(z4))

    def validated(j):
        scalar, vector = projections(inst, j.members)
        return Ideal(z4, scalar), Subsemimodule(inst.factor_module, vector)

    slice_ideal = Ideal(inst.product, frozenset(inst.index_of(0, x) for x in range(4)))
    i, n = validated(slice_ideal)
    assert i.indices() == (0,) and n.indices() == (0, 1, 2, 3)

    # the least ideal containing (2, 0): ideals come sorted by size
    generated = next(j for j in enumerate_ideals(inst.product) if inst.index_of(2, 0) in j.members)
    assert {inst.pair_of(k) for k in generated.members} == {(a, b) for a in (0, 2) for b in (0, 2)}
    i, n = validated(generated)
    assert i.indices() == (0, 2) and n.indices() == (0, 2)
    box = frozenset(inst.index_of(a, b) for a in i.members for b in n.members)
    assert generated.members <= box

    whole = Ideal(inst.product, frozenset(range(16)))
    i, n = validated(whole)
    assert i.indices() == (0, 1, 2, 3) and n.indices() == (0, 1, 2, 3)


def test_weak_gaussian_examples():
    assert is_weak_gaussian(builtin("zmod_4"))
    assert is_weak_gaussian(builtin("boolean"))
    # the saturating carrier has the non-subtractive prime {0, 2}
    assert not is_weak_gaussian(builtin("trunc_nat_2"))


def test_subsemimodule_enumeration():
    z4 = builtin("zmod_4")
    m = self_module(z4)
    assert [n.indices() for n in enumerate_subsemimodules(m)] == [
        (0,),
        (0, 2),
        (0, 1, 2, 3),
    ]
