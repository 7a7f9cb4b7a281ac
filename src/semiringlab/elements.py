"""Distinguished element sets and semiring/semimodule class flags.

All sets are computed by exhaustive search; the class flags (local,
presimplifiable, clean, ...) are plain quantifier scans over the carrier.
A concept defined for modules as well as semirings has one function that
takes either; a semiring is read as its self-module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import ExpectationInstance
from .ideals import _power_in, ideal_violation
from .tables import Carrier, FiniteSemimodule, FiniteSemiring, Subset, semiring_as_module, v_set


class EmptyModule(ValueError):
    """Zero-divisors of a module are undefined when the module is trivial."""


def units(semiring: FiniteSemiring) -> Subset:
    """Elements with a multiplicative inverse."""
    one = semiring.one
    return Subset(semiring, frozenset(a for a, row in enumerate(semiring.mul_table) if one in row))


def idempotents(semiring: FiniteSemiring) -> Subset:
    members = frozenset(a for a in semiring.elements() if semiring.mul(a, a) == a)
    return Subset(semiring, members)


def additive_idempotents(structure: Carrier) -> Subset:
    members = frozenset(x for x in structure.elements() if structure.add_table[x][x] == x)
    return Subset(structure, members)


def nilpotents(semiring: FiniteSemiring) -> Subset:
    """Elements with some power equal to zero (powers chased up to the carrier size)."""
    zero = frozenset({semiring.zero})
    return Subset(semiring, frozenset(a for a in semiring.elements() if _power_in(semiring, a, zero)))


def _as_module(structure: FiniteSemiring | FiniteSemimodule) -> FiniteSemimodule:
    return semiring_as_module(structure) if isinstance(structure, FiniteSemiring) else structure


def zero_divisors(structure: FiniteSemiring | FiniteSemimodule) -> Subset:
    """Scalars killing some nonzero element; for a semiring, zero itself always qualifies."""
    module = _as_module(structure)
    if module.size == 1:
        raise EmptyModule("zero-divisors of the trivial module are undefined")
    zero = module.zero
    members = frozenset(
        s
        for s, row in enumerate(module.action_table)
        if any(y == zero and x != zero for x, y in enumerate(row))
    )
    return Subset(module.base, members)


def is_semifield(semiring: FiniteSemiring) -> bool:
    """Every nonzero element is a unit."""
    u = units(semiring).members
    return all(a in u for a in semiring.elements() if a != semiring.zero)


def is_local(semiring: FiniteSemiring) -> bool:
    """The nonunits form an ideal (on a finite carrier: a unique maximal ideal)."""
    nonunits = frozenset(semiring.elements()) - units(semiring).members
    return ideal_violation(semiring, nonunits) is None


def is_presimplifiable(structure: FiniteSemiring | FiniteSemimodule) -> bool:
    """sx = x forces s a unit of the base or x = 0."""
    module = _as_module(structure)
    u = units(module.base).members
    for s in module.base.elements():
        if s in u:
            continue
        for x in module.elements():
            if x != module.zero and module.act(s, x) == x:
                return False
    return True


def cyclic_submodule(structure: FiniteSemiring | FiniteSemimodule, x: int) -> frozenset[int]:
    """Members of the cyclic subsemimodule generated by x: all scalar multiples."""
    module = _as_module(structure)
    return frozenset(module.act(s, x) for s in module.base.elements())


def associates(structure: FiniteSemiring | FiniteSemimodule, x: int, y: int) -> bool:
    """x and y generate the same cyclic subsemimodule."""
    return cyclic_submodule(structure, x) == cyclic_submodule(structure, y)


def strong_associates(structure: FiniteSemiring | FiniteSemimodule, x: int, y: int) -> bool:
    """x = u*y for some unit u of the base."""
    module = _as_module(structure)
    return any(module.act(u, y) == x for u in units(module.base).members)


def is_strongly_associate(structure: FiniteSemiring | FiniteSemimodule) -> bool:
    """Associate elements are strong associates (semirings via the self-module view)."""
    module = _as_module(structure)
    unit_members = units(module.base).members
    cyclic = [cyclic_submodule(module, x) for x in module.elements()]
    for x in module.elements():
        for y in range(x + 1, module.size):
            if cyclic[x] == cyclic[y] and not any(module.act(u, y) == x for u in unit_members):
                return False
    return True


def is_domainlike(structure: FiniteSemiring | FiniteSemimodule) -> bool:
    """All zero-divisors are nilpotent in the base."""
    module = _as_module(structure)
    return zero_divisors(module).members <= nilpotents(module.base).members


def _idempotent_sums(semiring: FiniteSemiring, parts) -> set[int]:
    """Every t + e with t in ``parts`` and e idempotent."""
    e_set = idempotents(semiring).members
    return {semiring.add(t, e) for t in parts for e in e_set}


def is_clean(semiring: FiniteSemiring) -> bool:
    """Every element is a unit plus an idempotent."""
    return len(_idempotent_sums(semiring, units(semiring).members)) == semiring.size


def is_almost_clean(semiring: FiniteSemiring) -> bool:
    """Every element is a non-zero-divisor plus an idempotent."""
    regular = frozenset(semiring.elements()) - zero_divisors(semiring).members
    return len(_idempotent_sums(semiring, regular)) == semiring.size


def almost_clean_by_parts(semiring: FiniteSemiring, module: FiniteSemimodule) -> bool:
    """Every scalar is t + e with e idempotent and t outside both zero-divisor sets.

    For the trivial module the module zero-divisor set is taken to be empty.
    """
    bad = zero_divisors(semiring).members
    if module.size > 1:
        bad = bad | zero_divisors(module).members
    good = frozenset(semiring.elements()) - bad
    return len(_idempotent_sums(semiring, good)) == semiring.size


def is_weakly_clean(semiring: FiniteSemiring, *, literal: bool = False) -> bool:
    """Weakened clean condition.

    Decided reading (default): every s is u + e, or s + e is a unit, for
    some unit u and idempotent e.  Literal reading: every s is u + e, or
    there exist a unit u and idempotent e with u + e = u (a condition not
    mentioning s at all); both are exposed so the difference stays visible.
    """
    u_set = units(semiring).members
    e_set = idempotents(semiring).members
    sums = _idempotent_sums(semiring, u_set)
    if literal:
        absorbed = any(semiring.add(u_, e_) == u_ for u_ in u_set for e_ in e_set)
        return all(a in sums or absorbed for a in semiring.elements())
    for a in semiring.elements():
        if a in sums:
            continue
        if not any(semiring.add(a, e_) in u_set for e_ in e_set):
            return False
    return True


def additively_regular_elements(structure: Carrier) -> Subset:
    """Elements a with a + a + b = a for some b."""
    add = structure.add_table
    members = frozenset(
        a
        for a in structure.elements()
        if any(add[add[a][a]][b] == a for b in structure.elements())
    )
    return Subset(structure, members)


def is_additively_regular(structure: Carrier) -> bool:
    return len(additively_regular_elements(structure)) == structure.size


@dataclass
class ClassReport:
    """Distinguished element sets of a semiring plus its class flags."""

    name: str
    size: int
    units: Subset
    v_set: Subset
    idempotents: Subset
    nilpotents: Subset
    zero_divisors: Subset
    flags: dict[str, bool]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "units": list(self.units.indices()),
            "v_set": list(self.v_set.indices()),
            "idempotents": list(self.idempotents.indices()),
            "nilpotents": list(self.nilpotents.indices()),
            "zero_divisors": list(self.zero_divisors.indices()),
            "flags": dict(self.flags),
        }


def classify(target: FiniteSemiring | ExpectationInstance) -> ClassReport:
    """Full element census and class flags for a semiring (or a built product)."""
    semiring = target.product if isinstance(target, ExpectationInstance) else target
    u = units(semiring)
    z = zero_divisors(semiring)
    nil = nilpotents(semiring)
    if u.members & z.members:
        raise RuntimeError("unit/zero-divisor overlap: corrupt tables")
    if semiring.size > 1 and not nil.members <= z.members:
        raise RuntimeError("nilpotent outside the zero-divisors: corrupt tables")
    flags = {
        "local": is_local(semiring),
        "presimplifiable": is_presimplifiable(semiring),
        "strongly_associate": is_strongly_associate(semiring),
        "domainlike": is_domainlike(semiring),
        "clean": is_clean(semiring),
        "almost_clean": is_almost_clean(semiring),
        "weakly_clean": is_weakly_clean(semiring),
        "weakly_clean_literal": is_weakly_clean(semiring, literal=True),
        "additively_regular": is_additively_regular(semiring),
    }
    return ClassReport(
        name=semiring.name,
        size=semiring.size,
        units=u,
        v_set=v_set(semiring),
        idempotents=idempotents(semiring),
        nilpotents=nil,
        zero_divisors=z,
        flags=flags,
    )
