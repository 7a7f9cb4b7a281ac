"""Distinguished element sets and semiring/semimodule class flags.

All sets are computed by exhaustive search; the class flags (local,
presimplifiable, clean, ...) are plain quantifier scans over the carrier.
One ``Census`` per carrier computes each set and flag on first read and
keeps it, and every flag reads the census's own sets.
"""

from __future__ import annotations

from functools import cached_property

from .ideals import is_ideal, power_table
from .tables import Carrier, FiniteSemiring, semiring_as_module, v_set


class Census:
    """Element sets and class flags of one semiring or semimodule, each computed once.

    A concept defined for modules as well as semirings reads a semiring as
    its self-module.  ``base`` is the census of the scalars (the census
    itself for a semiring); a module's census reads the scalar units and
    nilpotents from it.  Units, idempotents, powers, nilpotents and the
    semifield, local and clean flags are defined for a semiring's census only.
    """

    def __init__(self, structure: Carrier):
        self.structure = structure
        if isinstance(structure, FiniteSemiring):
            self._base, self.module = None, semiring_as_module(structure)
        else:
            self._base, self.module = Census(structure.base), structure

    @property
    def base(self) -> Census:
        # A semiring's census does not store itself: the reference cycle
        # would keep each grid cell's tables alive until the cyclic collector
        # runs, which raised the order-4 grid's peak memory.
        return self._base or self

    @cached_property
    def units(self) -> frozenset[int]:
        """Elements with a multiplicative inverse."""
        semiring = self.structure
        one = semiring.one
        return frozenset(a for a, row in enumerate(semiring.mul_table) if one in row)

    @cached_property
    def idempotents(self) -> frozenset[int]:
        semiring = self.structure
        return frozenset(a for a in semiring.elements() if semiring.mul(a, a) == a)

    @cached_property
    def powers(self) -> list[frozenset[int]]:
        """The carrier's one ``power_table``: row b holds every power of b."""
        return power_table(self.structure)

    @cached_property
    def nilpotents(self) -> frozenset[int]:
        """Elements with some power equal to zero, read from the power table."""
        zero = self.structure.zero
        return frozenset(a for a, row in enumerate(self.powers) if zero in row)

    @cached_property
    def zero_divisors(self) -> frozenset[int]:
        """Scalars killing some nonzero element: empty for the trivial module, and zero for a semiring."""
        module = self.module
        zero = module.zero
        return frozenset(
            s
            for s, row in enumerate(module.action_table)
            if any(y == zero and x != zero for x, y in enumerate(row))
        )

    @cached_property
    def additive_idempotents(self) -> frozenset[int]:
        structure = self.structure
        add = structure.add_table
        return frozenset(x for x in structure.elements() if add[x][x] == x)

    @cached_property
    def additively_regular_elements(self) -> frozenset[int]:
        """Elements a with a + a + b = a for some b."""
        structure = self.structure
        add = structure.add_table
        return frozenset(
            a
            for a in structure.elements()
            if any(add[add[a][a]][b] == a for b in structure.elements())
        )

    @cached_property
    def v_set(self) -> frozenset[int]:
        return v_set(self.structure)

    @cached_property
    def semifield(self) -> bool:
        """Every nonzero element is a unit."""
        semiring, u = self.structure, self.units
        return all(a in u for a in semiring.elements() if a != semiring.zero)

    @cached_property
    def local(self) -> bool:
        """The nonunits form an ideal (on a finite carrier: a unique maximal ideal)."""
        semiring = self.structure
        return is_ideal(semiring, frozenset(semiring.elements()) - self.units)

    @cached_property
    def presimplifiable(self) -> bool:
        """sx = x forces s a unit of the base or x = 0."""
        module, u = self.module, self.base.units
        return all(
            s in u or x == module.zero
            for s, row in enumerate(module.action_table)
            for x, sx in enumerate(row)
            if sx == x
        )

    def cyclic_submodule(self, x: int) -> frozenset[int]:
        """Members of the cyclic subsemimodule generated by x: all scalar multiples."""
        return frozenset(row[x] for row in self.module.action_table)

    def associates(self, x: int, y: int) -> bool:
        """x and y generate the same cyclic subsemimodule."""
        return self.cyclic_submodule(x) == self.cyclic_submodule(y)

    def strong_associates(self, x: int, y: int) -> bool:
        """x = u*y for some unit u of the base."""
        action = self.module.action_table
        return any(action[u][y] == x for u in self.base.units)

    @cached_property
    def strongly_associate(self) -> bool:
        """Associate elements are strong associates."""
        size = self.module.size
        cyclic = [self.cyclic_submodule(x) for x in range(size)]
        return all(
            self.strong_associates(x, y)
            for x in range(size)
            for y in range(x + 1, size)
            if cyclic[x] == cyclic[y]
        )

    @cached_property
    def domainlike(self) -> bool:
        """All zero-divisors are nilpotent in the base."""
        return self.zero_divisors <= self.base.nilpotents

    def _idempotent_sums(self, parts) -> set[int]:
        """Every t + e with t in ``parts`` and e idempotent."""
        add = self.structure.add_table
        return {add[t][e] for t in parts for e in self.idempotents}

    @cached_property
    def _unit_sums(self) -> set[int]:
        return self._idempotent_sums(self.units)

    @cached_property
    def clean(self) -> bool:
        """Every element is a unit plus an idempotent."""
        return len(self._unit_sums) == self.structure.size

    @cached_property
    def almost_clean(self) -> bool:
        """Every element is a non-zero-divisor plus an idempotent."""
        semiring = self.structure
        regular = frozenset(semiring.elements()) - self.zero_divisors
        return len(self._idempotent_sums(regular)) == semiring.size

    def almost_clean_by_parts(self, module: Census) -> bool:
        """Every scalar is t + e with e idempotent and t outside both zero-divisor sets.

        ``module`` is the census of a module over this semiring.
        """
        bad = self.zero_divisors | module.zero_divisors
        semiring = self.structure
        return len(self._idempotent_sums(frozenset(semiring.elements()) - bad)) == semiring.size

    @cached_property
    def weakly_clean(self) -> bool:
        """Every s is u + e, or s + e is a unit, for some unit u and idempotent e.

        This is the decided reading of the weakened clean condition;
        ``weakly_clean_literal`` keeps the literal one so the difference
        stays visible.
        """
        add, u, sums = self.structure.add_table, self.units, self._unit_sums
        return all(
            a in sums or any(add[a][e] in u for e in self.idempotents)
            for a in self.structure.elements()
        )

    @cached_property
    def weakly_clean_literal(self) -> bool:
        """Every s is u + e, or u + e = u for some unit u and idempotent e.

        The second condition does not mention s at all.
        """
        add = self.structure.add_table
        return self.clean or any(add[u][e] == u for u in self.units for e in self.idempotents)

    @cached_property
    def additively_regular(self) -> bool:
        return len(self.additively_regular_elements) == self.structure.size


CLASS_FLAGS = (
    "local",
    "presimplifiable",
    "strongly_associate",
    "domainlike",
    "clean",
    "almost_clean",
    "weakly_clean",
    "weakly_clean_literal",
    "additively_regular",
)
CLASS_SETS = ("units", "v_set", "idempotents", "nilpotents", "zero_divisors")


def classify(semiring: FiniteSemiring) -> dict:
    """Element sets and class flags of a semiring, as JSON-ready data."""
    census = Census(semiring)
    u, z, nil = census.units, census.zero_divisors, census.nilpotents
    if u & z:
        raise RuntimeError("unit/zero-divisor overlap: corrupt tables")
    if not nil <= z:
        raise RuntimeError("nilpotent outside the zero-divisors: corrupt tables")
    return {
        "name": semiring.name,
        "size": semiring.size,
        **{name: sorted(getattr(census, name)) for name in CLASS_SETS},
        "flags": {name: getattr(census, name) for name in CLASS_FLAGS},
    }
