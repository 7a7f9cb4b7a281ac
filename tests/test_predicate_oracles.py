"""Ideal and element predicates against literal quantifier definitions.

Every semiring, module and product of the default order-3 grid is scanned,
with each of its ideals and subsemimodules; the element predicates that take
a semiring or a module are checked on both.  The oracles below read the
definitions word for word: all powers of an element are listed until one
repeats, and nothing is shared with the library's scans.  The verdict and
first witness of the ideal and subsemimodule closure tests, and the message
of the refusing constructor, are compared on every subset of a carrier of at
most ``WITNESS_CARRIER`` elements.  On the larger grid products (10-16
elements) and the catalog products of 17-32 elements they are compared on
the empty set, every one-member set, every enumerated closed set and each
closed set with one member added or removed.  The
product coordinates (boxes, projections and the graded test) are compared
with their definitions through the pair bijection on every cell, and the
legal boxes ``PairContext.boxables`` lists with a literal ``a*x`` loop.  The
action-law scans are compared with literal ``s, t, x`` loops on every
self-action and module of order at most 3 over the order-2/3 semirings, and
on seeded corruptions of their action tables.  The associativity and
distributivity scans, and the whole ``semiring_violations`` list, are
compared with literal ``itertools.product`` loops on every product of the
default order-3 grid (2 to 16 elements) and on seeded single-entry
corruptions of its tables.
"""

import itertools
import random

import pytest

from semiringlab import (
    Census,
    Ideal,
    NotAnIdeal,
    build_expectation,
    catalog,
    default_grid,
    enumerate_ideals,
    enumerate_semimodules,
    enumerate_semirings,
    enumerate_subsemimodules,
    is_maximal,
    is_primary,
    is_primary_submodule,
    is_prime,
    is_subtractive,
    is_weakly_prime,
    radical,
    residual,
    semimodule_to_dict,
    semimodule_violations,
    semiring_as_module,
    semiring_to_dict,
    semiring_violations,
    validate_semiring,
)
from semiringlab.construct import _is_graded, box_members, projections
from semiringlab.ideals import NotASubmodule, Subsemimodule, ideal_violation, submodule_violation
from semiringlab.tables import FiniteSemiring, InvalidStructure, first_nonassociative, first_nondistributive
from semiringlab.theorems import PairContext

WITNESS_CARRIER = 9
NEAR_SAMPLE = 2000


def powers(semiring, b):
    """Every power b^k with k >= 1."""
    out = []
    p = b
    while p not in out:
        out.append(p)
        p = semiring.mul(p, b)
    return frozenset(out)


def units_of(semiring):
    return {a for a in semiring.elements() if any(semiring.mul(a, b) == semiring.one for b in semiring.elements())}


def idempotents_of(semiring):
    return {e for e in semiring.elements() if semiring.mul(e, e) == e}


def zero_divisors_of(semiring):
    carrier = semiring.elements()
    return {a for a in carrier if any(b != semiring.zero and semiring.mul(a, b) == semiring.zero for b in carrier)}


def module_zero_divisors_of(module):
    if module.size == 1:
        return set()
    return {
        s for s in module.base.elements()
        if any(x != module.zero and module.act(s, x) == module.zero for x in module.elements())
    }


def radical_of(semiring, members):
    return {s for s in semiring.elements() if powers(semiring, s) & members}


def subtractive_oracle(structure, members):
    """x in N and x + y in N force y in N."""
    return all(
        y in members for x in members for y in structure.elements() if structure.add(x, y) in members
    )


def violation_oracle(structure, members):
    """First failure of ideal (semiring) or subsemimodule (module) closure.

    Empty set first, then the first sum a + b outside the set, then the
    first product s*a outside it with s ascending; members are taken in
    the set's own iteration order, as the library's scan documents.
    """
    scalars, _carrier, act, _zero = scalar_view(structure)
    if not members:
        return ("empty", ())
    for a in members:
        for b in members:
            if structure.add(a, b) not in members:
                return ("add", (a, b))
    for s in scalars.elements():
        for a in members:
            if act(s, a) not in members:
                return ("act" if hasattr(structure, "base") else "absorb", (s, a))
    return None


def witness_sets(structure, closed):
    """Every subset of a small carrier; past ``WITNESS_CARRIER`` elements, the sets near the closed ones.

    Near means the empty set, every one-member set, every closed set and each
    closed set with one member added or removed (a seeded sample of
    ``NEAR_SAMPLE`` of those when there are more).
    """
    size = structure.size
    if size <= WITNESS_CARRIER:
        return [frozenset(i for i in range(size) if mask >> i & 1) for mask in range(1 << size)]
    near = sorted({members ^ {i} for members in closed for i in range(size)}, key=sorted)
    if len(near) > NEAR_SAMPLE:
        near = random.Random(size).sample(near, NEAR_SAMPLE)
    return [frozenset(), *(frozenset({i}) for i in range(size)), *closed, *near]


def check_witnesses(structure, closed):
    """Closure verdicts, first witnesses and constructor messages against ``violation_oracle``.

    ``closed`` holds the member sets the enumerator listed for ``structure``.
    """
    if hasattr(structure, "base"):
        violation, build, error, noun = submodule_violation, Subsemimodule, NotASubmodule, "a subsemimodule"
    else:
        violation, build, error, noun = ideal_violation, Ideal, NotAnIdeal, "an ideal"
    checked = 0
    for members in witness_sets(structure, closed):
        expected = violation_oracle(structure, members)
        where = (structure.name, sorted(members))
        assert violation(structure, members) == expected, where
        if expected is None:
            build(structure, members)
            continue
        with pytest.raises(error) as err:
            build(structure, members)
        assert str(err.value) == f"not {noun}: fails {expected[0]} closure at {expected[1]}", where
        assert err.value.witness == expected[1], where
        checked += 1
    return checked


def nilpotents_of(semiring):
    return {a for a in semiring.elements() if semiring.zero in powers(semiring, a)}


def scalar_view(structure):
    """(scalars, carrier, action, zero): a semiring acts on itself by multiplication."""
    if hasattr(structure, "base"):
        return structure.base, structure.elements(), structure.act, structure.zero
    return structure, structure.elements(), structure.mul, structure.zero


def presimplifiable_oracle(structure):
    """sx = x forces s to be a unit or x = 0."""
    scalars, carrier, act, zero = scalar_view(structure)
    u = units_of(scalars)
    return all(s in u or x == zero for s in scalars.elements() for x in carrier if act(s, x) == x)


def strongly_associate_oracle(structure):
    """Equal cyclic submodules Sx = Sy force x = uy for some unit u."""
    scalars, carrier, act, _zero = scalar_view(structure)
    u = units_of(scalars)
    cyclic = {x: {act(s, x) for s in scalars.elements()} for x in carrier}
    return all(
        any(act(v, y) == x for v in u) for x in carrier for y in carrier if cyclic[x] == cyclic[y]
    )


def sum_of(semiring, a, lefts, rights):
    """a = t + e for some t in ``lefts`` and e in ``rights``."""
    return any(semiring.add(t, e) == a for t in lefts for e in rights)


def clean_oracles(semiring):
    carrier = semiring.elements()
    u, e = units_of(semiring), idempotents_of(semiring)
    regular = set(carrier) - zero_divisors_of(semiring)
    return {
        "clean": all(sum_of(semiring, a, u, e) for a in carrier),
        "almost_clean": all(sum_of(semiring, a, regular, e) for a in carrier),
        "weakly_clean": all(
            sum_of(semiring, a, u, e) or any(semiring.add(a, f) in u for f in e) for a in carrier
        ),
        "weakly_clean_literal": all(
            sum_of(semiring, a, u, e) or any(semiring.add(v, f) == v for v in u for f in e)
            for a in carrier
        ),
    }


def prime_oracle(semiring, members, *, weakly=False):
    carrier = semiring.elements()
    return all(
        a in members or b in members
        for a in carrier
        for b in carrier
        if semiring.mul(a, b) in members and not (weakly and semiring.mul(a, b) == semiring.zero)
    )


def primary_oracle(semiring, members):
    carrier = semiring.elements()
    return all(
        powers(semiring, b) & members
        for a in carrier
        for b in carrier
        if semiring.mul(a, b) in members and a not in members
    )


def residual_oracle(module, members):
    return frozenset(
        s for s in module.base.elements() if all(module.act(s, x) in members for x in module.elements())
    )


def primary_submodule_oracle(module, members):
    carriers = residual_oracle(module, members)
    return all(
        powers(module.base, s) & carriers
        for s in module.base.elements()
        for x in module.elements()
        if module.act(s, x) in members and x not in members
    )


def box_oracle(instance, ideal_members, submodule_members):
    """The literal members of I x N when a*x lies in N for every a in I and x in M, else None."""
    module = instance.factor_module
    for a in ideal_members:
        for x in module.elements():
            if module.act(a, x) not in submodule_members:
                return None
    return frozenset(
        k for k, (s, x) in enumerate(instance.pairs) if s in ideal_members and x in submodule_members
    )


def check_semiring(semiring):
    name = semiring.name
    census = Census(semiring)
    assert census.units == units_of(semiring), name
    assert census.zero_divisors == zero_divisors_of(semiring), name
    assert census.nilpotents == nilpotents_of(semiring), name
    assert census.domainlike == (zero_divisors_of(semiring) <= nilpotents_of(semiring)), name
    assert census.presimplifiable == presimplifiable_oracle(semiring), name
    assert census.strongly_associate == strongly_associate_oracle(semiring), name
    expected = clean_oracles(semiring)
    got = {
        "clean": census.clean,
        "almost_clean": census.almost_clean,
        "weakly_clean": census.weakly_clean,
        "weakly_clean_literal": census.weakly_clean_literal,
    }
    assert got == expected, name
    ideals = enumerate_ideals(semiring)
    check_witnesses(semiring, [ideal.members for ideal in ideals])
    for ideal in ideals:
        members = ideal.members
        where = (name, sorted(members))
        assert radical(ideal).members == radical_of(semiring, members), where
        assert is_subtractive(ideal) == subtractive_oracle(semiring, members), where
        if not ideal.is_proper():
            verdicts = (is_prime(ideal), is_weakly_prime(ideal), is_primary(ideal), is_maximal(ideal, ideals))
            assert verdicts == (False,) * 4, where
            continue
        assert is_prime(ideal) == prime_oracle(semiring, members), where
        assert is_weakly_prime(ideal) == prime_oracle(semiring, members, weakly=True), where
        assert is_primary(ideal) == primary_oracle(semiring, members), where
    return ideals


def check_module(module):
    names = (module.base.name, module.name)
    census = Census(module)
    assert census.presimplifiable == presimplifiable_oracle(module), names
    assert census.strongly_associate == strongly_associate_oracle(module), names
    z = module_zero_divisors_of(module)
    assert census.zero_divisors == z, names
    assert census.domainlike == (z <= nilpotents_of(module.base)), names
    submodules = enumerate_subsemimodules(module)
    check_witnesses(module, [n.members for n in submodules])
    for n in submodules:
        where = (module.base.name, module.name, sorted(n.members))
        assert residual(n).members == residual_oracle(module, n.members), where
        assert is_subtractive(n) == subtractive_oracle(module, n.members), where
        if n.is_proper():
            assert is_primary_submodule(n) == primary_submodule_oracle(module, n.members), where
        else:
            assert is_primary_submodule(n) is False, where
    return submodules


def _key(structure):
    tables = (structure.add_table, getattr(structure, "mul_table", None) or structure.action_table)
    return (structure.size, structure.zero, tables)


def test_predicates_match_literal_definitions_on_default_grid():
    seen = {}

    def once(structure, check):
        key = _key(structure) if not hasattr(structure, "base") else (_key(structure.base), _key(structure))
        if key not in seen:
            seen[key] = check(structure)
        return seen[key]

    cells = default_grid(max_order=3)
    for cell in cells:
        semiring, module = cell.semiring, cell.module
        instance = build_expectation(semiring, module)
        ideals = once(semiring, check_semiring)
        submodules = once(module, check_module)
        once(instance.product, check_semiring)

        bad = zero_divisors_of(semiring) | module_zero_divisors_of(module)
        good = set(semiring.elements()) - bad
        by_parts = all(sum_of(semiring, a, good, idempotents_of(semiring)) for a in semiring.elements())
        assert Census(semiring).almost_clean_by_parts(Census(module)) == by_parts, cell.label

        boxables = PairContext(cell.label, semiring, module).boxables
        listed = {(i.members, n.members): box.members for i, n, box in boxables}
        assert len(listed) == len(boxables), cell.label
        legal = 0
        for i in ideals:
            for n in submodules:
                members = box_oracle(instance, i.members, n.members)
                where = (cell.label, sorted(i.members), sorted(n.members))
                assert listed.get((i.members, n.members)) == members, where
                if members is not None:
                    legal += 1
                    continue
                with pytest.raises(NotAnIdeal):
                    Ideal(instance.product, box_members(instance, i.members, n.members))
        assert legal == len(listed), cell.label
    assert len(cells) == 68


@pytest.mark.parametrize(
    "add, mul, members",
    [
        (((0, 1), (1, 0)), ((0, 1), (1, 1)), {1}),  # {1} absorbs, but 1 + 1 = 0
        (((0, 1, 2), (1, 2, 2), (2, 2, 2)), ((0, 0, 0), (0, 1, 0), (0, 0, 2)), {0, 1}),  # 1 + 1 = 2
    ],
    ids=["one-member", "largest-member"],
)
def test_closure_witnesses_check_a_plus_a_on_tables_without_distributivity(add, mul, members):
    # on a semiring a + a = (1 + 1)a is an absorbed product; on these tables only the sum check catches it
    structure = FiniteSemiring(size=len(add), add_table=add, mul_table=mul, zero=0, one=1, name="undistributive")
    assert check_witnesses(structure, []) > 0
    assert ideal_violation(structure, frozenset(members)) == ("add", (1, 1))


def test_closure_witnesses_on_catalog_lattice_products():
    # the products of 17-32 elements that max_product=32 adds to the catalog
    labels = []
    for name, semiring, module in catalog.builtin_pairs(max_product=32):
        if 16 < semiring.size * module.size:
            product = build_expectation(semiring, module).product
            assert check_witnesses(product, [i.members for i in enumerate_ideals(product)]) > 0, name
            labels.append(f"E({name}, {module.name})")
    assert labels == [
        "E(chain_2, chain_2xchain_2)",
        "E(trunc_nat_2, trunc_nat_2xtrunc_nat_2)",
        "E(zmod_3, zmod_3xzmod_3)",
        "E(zmod_5, zmod_5)",
        "E(zmod_6, zmod_3)",
    ]


def test_product_coordinates_match_pair_definitions_on_default_grid():
    graded = total = 0
    for cell in default_grid(max_order=3):
        ctx = PairContext(cell.label, cell.semiring, cell.module)
        instance = ctx.instance
        index_of, pair_of = instance.index_of, instance.pair_of
        s_zero, m_zero = cell.semiring.zero, cell.module.zero
        for i in ctx.ideals_s:
            for n in ctx.submods_m:
                expected = frozenset(index_of(s, x) for s in i.members for x in n.members)
                assert box_members(instance, i.members, n.members) == expected, cell.label
        for j in ctx.ideals_e:
            pairs = [pair_of(k) for k in j.members]
            expected = (frozenset(s for s, _x in pairs), frozenset(x for _s, x in pairs))
            assert projections(instance, j.members) == expected, cell.label
            splits = all(index_of(s, m_zero) in j.members and index_of(s_zero, x) in j.members for s, x in pairs)
            assert _is_graded(ctx.instance, j.members) == splits, (cell.label, sorted(j.members))
            graded += splits
            total += 1
    assert 0 < graded < total



ACTION_LAWS = ("action_add_module", "action_add_scalar", "action_mul_scalar")


def literal_action_witnesses(base, add, action):
    """First witness of each three-index action law, from a literal loop over its definition."""
    scalars, vectors = range(base.size), range(len(add))
    laws = {
        "action_add_module": (
            (scalars, vectors, vectors),
            lambda s, x, y: action[s][add[x][y]] == add[action[s][x]][action[s][y]],
        ),
        "action_add_scalar": (
            (scalars, scalars, vectors),
            lambda s, t, x: action[base.add(s, t)][x] == add[action[s][x]][action[t][x]],
        ),
        "action_mul_scalar": (
            (scalars, scalars, vectors),
            lambda s, t, x: action[base.mul(s, t)][x] == action[s][action[t][x]],
        ),
    }
    out = {}
    for law, ((first, second, third), holds) in laws.items():
        for triple in itertools.product(first, second, third):
            if not holds(*triple):
                out[law] = triple
                break
    return out


def test_action_law_scans_match_literal_loops():
    rng = random.Random(7)
    modules = []
    for n in (2, 3):
        for semiring in enumerate_semirings(n):
            modules.append(semiring_as_module(semiring))  # (mul, mul): associativity of the table
            modules += [m for order in (1, 2, 3) for m in enumerate_semimodules(semiring, order)]
    broken = 0
    for module in modules:
        base = module.base
        for trial in range(4):
            data = semimodule_to_dict(module)
            del data["base"]
            rows = data["action"]
            if trial:  # trial 0 keeps the valid table
                rows[rng.randrange(base.size)][rng.randrange(module.size)] = rng.randrange(module.size)
            expected = literal_action_witnesses(base, module.add_table, rows)
            assert first_nonassociative(base.mul_table, rows) == expected.get("action_mul_scalar"), module.name
            got = {v.axiom: v.witness for v in semimodule_violations(base, data) if v.axiom in ACTION_LAWS}
            assert got == expected, (module.name, rows)
            assert trial or not got
            broken += bool(got)
    assert len(modules) > 50 and broken > 50


def literal_semiring_violations(data):
    """Every semiring axiom, each with its row-major first witness from a literal loop.

    Tables holding a bool, a non-integer or an index outside 0..n-1 give one
    ``<op>_entry_range`` per such entry instead: row-major, ``add`` first, no laws.
    """
    n, zero, one, add, mul = data["size"], data["zero"], data["one"], data["add"], data["mul"]
    bad = [
        (f"{op}_entry_range", (r, c))
        for op in ("add", "mul")
        for r, row in enumerate(data[op])
        for c, v in enumerate(row)
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n
    ]
    if bad:
        return bad

    def first(arity, holds):
        return next((t for t in itertools.product(range(n), repeat=arity) if not holds(*t)), None)

    laws = [("zero_one_distinct", (zero,) if zero == one else None)]
    for op, t, e in (("add", add, zero), ("mul", mul, one)):
        laws += [
            (f"{op}_identity", first(1, lambda x: t[e][x] == x and t[x][e] == x)),
            (f"{op}_commutativity", first(2, lambda a, b: a >= b or t[a][b] == t[b][a])),
            (f"{op}_associativity", first(3, lambda a, b, c: t[t[a][b]][c] == t[a][t[b][c]])),
        ]
    laws += [
        ("zero_annihilation", first(1, lambda a: mul[a][zero] == zero and mul[zero][a] == zero)),
        ("left_distributivity", first(3, lambda r, x, y: mul[r][add[x][y]] == add[mul[r][x]][mul[r][y]])),
        ("right_distributivity", first(3, lambda r, x, y: mul[add[x][y]][r] == add[mul[x][r]][mul[y][r]])),
    ]
    return [(law, w) for law, w in laws if w]


def test_product_law_scans_match_literal_loops():
    rng, plant_rng = random.Random(11), random.Random(13)
    products, seen = [], set()
    for cell in default_grid(max_order=3):
        product = build_expectation(cell.semiring, cell.module).product
        if _key(product) not in seen:
            seen.add(_key(product))
            products.append(product)
    broken = out_of_range = 0
    for product in products:
        n = product.size
        planted = (True, 1.0, "1", None, [], -1, n, 255, 256, 10**6)
        for trial in range(9 + len(planted)):
            data = semiring_to_dict(product)
            if 0 < trial < 9:  # trial 0 keeps the valid tables; 1-8 change one entry of add or mul
                data[("add", "mul")[trial % 2]][rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            elif trial:  # the rest plant a value that is no index, and a second one in either table
                k = trial - 9
                data[("add", "mul")[k % 2]][plant_rng.randrange(n)][plant_rng.randrange(n)] = planted[k]
                second = planted[(k + 3) % len(planted)]
                data[plant_rng.choice(("add", "mul"))][plant_rng.randrange(n)][plant_rng.randrange(n)] = second
            expected = literal_semiring_violations(data)
            got = [(v.axiom, v.witness) for v in semiring_violations(data)]
            assert got == expected, (product.name, data)
            if expected:
                with pytest.raises(InvalidStructure) as err:
                    validate_semiring(data)
                assert [(v.axiom, v.witness) for v in err.value.violations] == expected, (product.name, data)
            else:
                assert validate_semiring(data).mul_table == tuple(map(tuple, data["mul"]))
            if trial >= 9:
                assert expected and all(law.endswith("_entry_range") for law, _w in expected), product.name
                out_of_range += len(expected)
                continue
            add, mul = (tuple(map(tuple, data[op])) for op in ("add", "mul"))
            laws = dict(expected)
            assert first_nonassociative(add, add) == laws.get("add_associativity"), product.name
            assert first_nonassociative(mul, mul) == laws.get("mul_associativity"), product.name
            assert first_nondistributive(add, mul) == laws.get("left_distributivity"), product.name
            assert first_nondistributive(add, tuple(zip(*mul))) == laws.get("right_distributivity"), product.name
            assert trial or not expected
            broken += any(law.endswith(("associativity", "distributivity")) for law, _w in expected)
    assert len(products) == 60 and max(p.size for p in products) == 16 and broken > 300
    assert out_of_range > 1000
