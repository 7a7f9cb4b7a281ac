"""Ideals and subsemimodules of finite table structures, decided by brute force.

An ideal is a nonempty subset closed under addition that absorbs
multiplication by arbitrary elements; a subsemimodule is closed under
addition and under the scalar action.  An ideal is thus a subsemimodule of
the semiring over itself, and one enumeration over int bitmasks serves
both: the least closed set containing a seed is the additive closure of
zero and the scalar multiples of the seed.  One absorbing pass suffices
because the validators enforce distributivity, ``1*x = x`` and ``0*x = 0``.
A box I x N is an ideal of the product exactly when I lies in the residual
(N : M), the scalars carrying the whole module into N; ``residual_members``
is the one test of that, and it decides box legality everywhere.  The box
and projection member sets come from ``construct``; the ``Ideal`` and
``Subsemimodule`` constructors validate them.  Each
predicate has one scan: prime and weakly prime share one, and an ideal is
primary exactly when it is a primary subsemimodule of the self-module.
Enumeration is Ganter's NextClosure (*Two basic algorithms in concept
analysis*, 1984/2010), which lists each closed set once, in lectic order;
the test suite checks it against a filter over every subset.  Two kernels
keep the cost per closed set O(n): NextClosure ORs the multiples of the
members below each index in one pass per closed set, and the ideal check is
one C-level superset test per member and table (it reads column a of the
commutative multiplication as row a); only a failing set takes the literal
scan that names the first witness, and a yes/no test (``is_ideal``) takes
none.  Radicals and the primary scan read element powers from a power
table, whose row b holds b, b^2, ..., b^size; each row is chased until a
power repeats, which on a finite carrier lists every power.  A library call
builds the table for itself; a verification cell reads its carrier's one
table from the element census.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .tables import FiniteSemimodule, FiniteSemiring, Subset, Table, additive_closure, semiring_as_module

MAX_CARRIER = 64


class CarrierTooLarge(ValueError):
    """Enumeration refused: the carrier has more than MAX_CARRIER elements."""


class NotAnIdeal(ValueError):
    def __init__(self, message: str, witness: tuple[int, ...] = ()):
        super().__init__(message)
        self.witness = witness


class NotASubmodule(ValueError):
    def __init__(self, message: str, witness: tuple[int, ...] = ()):
        super().__init__(message)
        self.witness = witness


def _violation(add_table: Table, action_table: Table, members: frozenset[int], act: str):
    if not members:
        return ("empty", ())
    for a in members:
        for b in members:
            if add_table[a][b] not in members:
                return ("add", (a, b))
    for s, row in enumerate(action_table):
        for a in members:
            if row[a] not in members:
                return (act, (s, a))
    return None


def _is_ideal(add_table: Table, mul_table: Table, members: frozenset[int]) -> bool:
    """True iff the nonempty ``members`` absorb every product and hold every pairwise sum."""
    contains = members.issuperset
    if not all(map(contains, map(mul_table.__getitem__, members))):
        return False
    if len(members) == 1:  # itemgetter of one index returns the entry, not a tuple
        (a,) = members
        return add_table[a][a] == a
    pick = itemgetter(*members)
    return all(map(contains, map(pick, map(add_table.__getitem__, members))))


def ideal_violation(semiring: FiniteSemiring, members: frozenset[int]) -> tuple[str, tuple[int, ...]] | None:
    """None if ``members`` is an ideal, else (reason, witness).

    Absorption reads row a of the multiplication for column a, which assumes
    it commutative, as the law layer ensures.  Only a failing set takes the
    literal scan, which names the first witness.
    """
    if members and _is_ideal(semiring.add_table, semiring.mul_table, members):
        return None
    return _violation(semiring.add_table, semiring.mul_table, members, "absorb")


def is_ideal(semiring: FiniteSemiring, members: frozenset[int]) -> bool:
    """True iff ``ideal_violation`` is None on a commutative multiplication, decided without naming a witness."""
    return bool(members) and _is_ideal(semiring.add_table, semiring.mul_table, members)


def submodule_violation(module: FiniteSemimodule, members: frozenset[int]) -> tuple[str, tuple[int, ...]] | None:
    return _violation(module.add_table, module.action_table, members, "act")


class Ideal(Subset):
    __slots__ = ()

    def __init__(self, parent: FiniteSemiring, members: frozenset[int]):
        super().__init__(parent, members)
        bad = ideal_violation(parent, members)
        if bad is not None:
            raise NotAnIdeal(f"not an ideal: fails {bad[0]} closure at {bad[1]}", bad[1])


class Subsemimodule(Subset):
    __slots__ = ()

    def __init__(self, parent: FiniteSemimodule, members: frozenset[int]):
        super().__init__(parent, members)
        bad = submodule_violation(parent, members)
        if bad is not None:
            raise NotASubmodule(f"not a subsemimodule: fails {bad[0]} closure at {bad[1]}", bad[1])


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(members: Iterable[int]) -> int:
    out = 0
    for i in members:
        out |= 1 << i
    return out


def _closed_sets(module: FiniteSemimodule) -> list[frozenset[int]]:
    """Member sets of every subsemimodule, sorted by size then members.

    NextClosure lists every closed set once, in lectic order, ending with
    the carrier.  The successor of ``current`` is the closure of
    ``below | {i}`` for the largest i outside ``current`` whose closure adds
    nothing below i (``below`` is ``current`` cut to the indices under i).
    Closure only grows a set, so a candidate whose absorbed seed (zero plus
    every scalar multiple of its elements) already has a new element below
    i is dropped before its additive closure is taken.
    """
    size, add_table = module.size, module.add_table
    if size > MAX_CARRIER:
        raise CarrierTooLarge(f"carrier size {size} exceeds bound {MAX_CARRIER}")
    zero_bit = 1 << module.zero
    absorb = [_mask(row[g] for row in module.action_table) | zero_bit for g in range(size)]
    full = (1 << size) - 1
    current = additive_closure(add_table, zero_bit)
    found = [current]
    while current != full:
        spread = []  # spread[i]: zero plus the multiples of every member of current below i
        acc = zero_bit
        for g, multiples in enumerate(absorb):
            spread.append(acc)
            if current >> g & 1:
                acc |= multiples
        for i in reversed(range(size)):
            bit = 1 << i
            if current & bit:
                continue
            below = current & (bit - 1)
            seed = spread[i] | absorb[i]
            if seed & (bit - 1) != below:
                continue
            candidate = additive_closure(add_table, seed)
            if candidate & (bit - 1) == below:
                break
        current = candidate
        found.append(current)
    sets = [frozenset(_bits(mask)) for mask in found]
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def enumerate_ideals(semiring: FiniteSemiring) -> list[Ideal]:
    """All ideals, sorted by size then members.

    They are listed with NextClosure as the subsemimodules of the semiring
    over itself; each returned Ideal is verified by its constructor.  A
    carrier of more than ``MAX_CARRIER`` elements raises CarrierTooLarge.
    """
    return [Ideal(semiring, s) for s in _closed_sets(semiring_as_module(semiring))]


def enumerate_subsemimodules(module: FiniteSemimodule) -> list[Subsemimodule]:
    """All subsemimodules, sorted by size then members; listed and bounded as for enumerate_ideals."""
    return [Subsemimodule(module, s) for s in _closed_sets(module)]


def is_subtractive(subset: Ideal | Subsemimodule) -> bool:
    """True iff x in N and x + y in N force y in N."""
    members = subset.members
    add_table = subset.parent.add_table
    for x in members:
        for y, total in enumerate(add_table[x]):
            if total in members and y not in members:
                return False
    return True


def power_table(semiring: FiniteSemiring) -> list[frozenset[int]]:
    """Row b: the powers b, b^2, ..., b^size of b, chased until one repeats."""
    mul = semiring.mul_table
    table = []
    for b in range(semiring.size):
        seen = set()
        power = b
        while power not in seen:
            seen.add(power)
            power = mul[power][b]
        table.append(frozenset(seen))
    return table


def radical_members(powers: list[frozenset[int]], members: frozenset[int]) -> frozenset[int]:
    """Elements with some power in ``members``, read from a ``power_table``."""
    return frozenset(b for b, row in enumerate(powers) if not row.isdisjoint(members))


def _prime_scan(ideal: Ideal, exempt: int | None) -> bool:
    """The ideal is proper and no product other than ``exempt`` of two elements outside it lands in it."""
    if not ideal.is_proper():
        return False
    members = ideal.members
    mul = ideal.parent.mul_table
    outside = [a for a in ideal.parent.elements() if a not in members]
    for a in outside:
        row = mul[a]
        for b in outside:
            p = row[b]
            if p in members and p != exempt:
                return False
    return True


def is_prime(ideal: Ideal) -> bool:
    """ab in I forces a in I or b in I; False on the whole carrier (proper by definition)."""
    return _prime_scan(ideal, None)


def is_weakly_prime(ideal: Ideal) -> bool:
    """Nonzero products in the ideal have a factor in it; False on the whole carrier (proper by definition)."""
    return _prime_scan(ideal, ideal.parent.zero)


def maximal_ideals(ideals: Sequence[Ideal]) -> list[Ideal]:
    """The maximal ideals among ``ideals``, every ideal of one carrier, in their given order.

    One pass walks the proper ideals from the largest down and keeps each
    that no ideal kept so far strictly contains: a larger ideal is met
    first, and every proper ideal lies in a maximal one.
    """
    kept: list[frozenset[int]] = []
    for ideal in sorted(ideals, key=len, reverse=True):
        members = ideal.members
        if ideal.is_proper() and not any(members < bigger for bigger in kept):
            kept.append(members)
    maximal = set(kept)
    return [ideal for ideal in ideals if ideal.members in maximal]


def primary_scan(
    subset: Subset, module: FiniteSemimodule, carriers: frozenset[int], powers: list[frozenset[int]]
) -> bool:
    """The subset is proper and sx in it with x outside it forces some power of s into ``carriers``.

    The powers of s are row s of ``powers``, the ``power_table`` of the base.
    """
    if not subset.is_proper():
        return False
    members = subset.members
    outside = [x for x in module.elements() if x not in members]
    for s, row in enumerate(module.action_table):
        for x in outside:
            if row[x] in members:
                if powers[s].isdisjoint(carriers):
                    return False
                break
    return True


def is_primary(ideal: Ideal) -> bool:
    """ab in I with a not in I forces some power of b into I; False on the whole carrier (proper by definition).

    This is the primary test of I in the self-module, whose residual (I : S) is I.
    """
    semiring = ideal.parent
    return primary_scan(ideal, semiring_as_module(semiring), ideal.members, power_table(semiring))


def is_primary_submodule(submodule: Subsemimodule) -> bool:
    """sx in N with x not in N forces some power of s to carry M into N; False on M (proper by definition)."""
    module = submodule.parent
    carriers = residual_members(module, submodule.members)
    return primary_scan(submodule, module, carriers, power_table(module.base))


def radical(ideal: Ideal) -> Ideal:
    """Elements with some power in the ideal."""
    semiring = ideal.parent
    return Ideal(semiring, radical_members(power_table(semiring), ideal.members))


def residual_members(module: FiniteSemimodule, members: frozenset[int]) -> frozenset[int]:
    """Scalars s with s*M inside ``members``: the residual (N : M) as a member set.

    This is the one test of s*M in N; a box I x N is an ideal of the
    product exactly when I lies in the residual of N.
    """
    return frozenset(s for s, row in enumerate(module.action_table) if members.issuperset(row))


def residual(submodule: Subsemimodule) -> Ideal:
    """Scalars carrying the whole module into the subsemimodule; always an ideal."""
    module = submodule.parent
    return Ideal(module.base, residual_members(module, submodule.members))


def submodule_radical(submodule: Subsemimodule) -> Ideal:
    """Radical of the residual of the subsemimodule."""
    return radical(residual(submodule))


def annihilator(module: FiniteSemimodule) -> Ideal:
    """Scalars killing every module element: the residual of the zero subsemimodule."""
    return residual(Subsemimodule(module, frozenset({module.zero})))


def is_weak_gaussian(semiring: FiniteSemiring) -> bool:
    """True iff every prime ideal is subtractive."""
    for ideal in enumerate_ideals(semiring):
        if is_prime(ideal) and not is_subtractive(ideal):
            return False
    return True
