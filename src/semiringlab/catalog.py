"""Named builtin structures and exhaustive enumeration of small ones.

Builtins cover the hypotheses the verification suite needs to exercise:
semifields (boolean, prime fields), structures where every element has an
additive inverse (the modular rings), non-subtractive ideals (the
saturating truncated naturals), and lattice semirings (chains, diamond).

Enumeration fixes the labeling zero=0, one=1, generates commutative monoid
addition tables first, then multiplication tables against each addition,
and runs every candidate through the axiom validator, so the output is
oracle-checked rather than formula-driven.  Order is deterministic.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Union

from .tables import (
    BaseMismatch,
    FiniteSemimodule,
    FiniteSemiring,
    InvalidStructure,
    first_nonassociative,
    first_nondistributive,
    same_semiring,
    semiring_as_module,
    validate_semimodule,
    validate_semiring,
)

MAX_ENUM_ORDER = 4


class UnknownName(ValueError):
    """No builtin with the requested name."""


class OrderTooLarge(ValueError):
    """Exhaustive enumeration refused beyond the supported order."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    structure: Union[FiniteSemiring, FiniteSemimodule]
    provenance: str  # "builtin" or "enumerated"


def _boolean_data() -> dict:
    return {
        "name": "boolean",
        "size": 2,
        "zero": 0,
        "one": 1,
        "add": [[0, 1], [1, 1]],
        "mul": [[0, 0], [0, 1]],
    }


def _chain_data(k: int) -> dict:
    n = k + 1
    return {
        "name": f"chain_{k}",
        "size": n,
        "zero": 0,
        "one": k,
        "add": [[max(i, j) for j in range(n)] for i in range(n)],
        "mul": [[min(i, j) for j in range(n)] for i in range(n)],
    }


def _trunc_nat_data(k: int) -> dict:
    n = k + 1
    return {
        "name": f"trunc_nat_{k}",
        "size": n,
        "zero": 0,
        "one": 1,
        "add": [[min(i + j, k) for j in range(n)] for i in range(n)],
        "mul": [[min(i * j, k) for j in range(n)] for i in range(n)],
    }


def _zmod_data(n: int, name: str | None = None) -> dict:
    return {
        "name": name or f"zmod_{n}",
        "size": n,
        "zero": 0,
        "one": 1,
        "add": [[(i + j) % n for j in range(n)] for i in range(n)],
        "mul": [[(i * j) % n for j in range(n)] for i in range(n)],
    }


def _diamond_data() -> dict:
    # Four-element lattice 0 < {1, 2} < 3 with two incomparable midpoints.
    return {
        "name": "diamond",
        "size": 4,
        "zero": 0,
        "one": 3,
        "add": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
        "mul": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
    }


def _is_prime_number(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


def builtin(name: str) -> CatalogEntry:
    """Look up a named builtin semiring; tables are run through the validator."""
    if name == "boolean":
        data = _boolean_data()
    elif name == "diamond":
        data = _diamond_data()
    elif m := re.fullmatch(r"chain_(\d+)", name):
        k = int(m.group(1))
        if k < 1:
            raise UnknownName(f"chain height must be >= 1: {name}")
        data = _chain_data(k)
    elif m := re.fullmatch(r"trunc_nat_(\d+)", name):
        k = int(m.group(1))
        if k < 1:
            raise UnknownName(f"truncation bound must be >= 1: {name}")
        data = _trunc_nat_data(k)
    elif m := re.fullmatch(r"zmod_(\d+)", name):
        n = int(m.group(1))
        if n < 2:
            raise UnknownName(f"modulus must be >= 2: {name}")
        data = _zmod_data(n)
    elif m := re.fullmatch(r"field_(\d+)", name):
        p = int(m.group(1))
        if not _is_prime_number(p):
            raise UnknownName(f"field order must be prime here: {name}")
        data = _zmod_data(p, name=name)
    else:
        raise UnknownName(f"no builtin named {name!r}")
    return CatalogEntry(name=name, structure=validate_semiring(data), provenance="builtin")


BUILTIN_SEMIRING_NAMES = (
    "boolean",
    "chain_2",
    "trunc_nat_2",
    "trunc_nat_3",
    "zmod_2",
    "zmod_3",
    "zmod_4",
    "zmod_5",
    "zmod_6",
    "field_2",
    "field_3",
    "diamond",
)


def trivial_module(semiring: FiniteSemiring) -> FiniteSemimodule:
    """The one-element module over any semiring."""
    return validate_semimodule(
        semiring,
        {
            "name": "zero",
            "size": 1,
            "zero": 0,
            "add": [[0]],
            "action": [[0] for _ in range(semiring.size)],
        },
    )


def self_module(semiring: FiniteSemiring) -> FiniteSemimodule:
    """The semiring acting on itself by multiplication (validated)."""
    viewed = semiring_as_module(semiring)
    return validate_semimodule(
        semiring,
        {
            "name": viewed.name,
            "size": viewed.size,
            "zero": viewed.zero,
            "add": [list(r) for r in viewed.add_table],
            "action": [list(r) for r in viewed.action_table],
        },
    )


def zmod_quotient_module(n: int, d: int) -> FiniteSemimodule:
    """The modular carrier of size d as a module over the modular semiring of size n."""
    if n % d != 0:
        raise BaseMismatch(f"{d} does not divide {n}; reduction is not well defined")
    base = builtin(f"zmod_{n}").structure
    return validate_semimodule(
        base,
        {
            "name": f"zmod_{d}",
            "size": d,
            "zero": 0,
            "add": [[(i + j) % d for j in range(d)] for i in range(d)],
            "action": [[(s * x) % d for x in range(d)] for s in range(n)],
        },
    )


def product_module(m1: FiniteSemimodule, m2: FiniteSemimodule) -> FiniteSemimodule:
    """Componentwise product of two modules over the same base."""
    if not same_semiring(m1.base, m2.base):
        raise BaseMismatch("product modules need a common base semiring")
    pairs = [(x, y) for x in range(m1.size) for y in range(m2.size)]
    index = {p: k for k, p in enumerate(pairs)}
    return validate_semimodule(
        m1.base,
        {
            "name": f"{m1.name or 'M'}x{m2.name or 'N'}",
            "size": len(pairs),
            "zero": index[(m1.zero, m2.zero)],
            "add": [
                [index[(m1.add(x1, x2), m2.add(y1, y2))] for (x2, y2) in pairs]
                for (x1, y1) in pairs
            ],
            "action": [
                [index[(m1.act(s, x), m2.act(s, y))] for (x, y) in pairs]
                for s in range(m1.base.size)
            ],
        },
    )


def standard_modules(name: str, semiring: FiniteSemiring) -> list[FiniteSemimodule]:
    """The stock modules shipped with a builtin: trivial, self-action,
    modular reductions where the name allows, and a small componentwise square."""
    modules = [trivial_module(semiring), self_module(semiring)]
    if m := re.fullmatch(r"zmod_(\d+)", name):
        n = int(m.group(1))
        for d in range(2, n):
            if n % d == 0:
                modules.append(zmod_quotient_module(n, d))
    if semiring.size**3 <= 64:
        own = self_module(semiring)
        modules.append(product_module(own, own))
    return modules


def builtin_pairs(max_product: int = 16) -> list[tuple[str, FiniteSemiring, FiniteSemimodule]]:
    """Builtin (semiring, module) pairs whose product carrier stays small.

    field_p duplicates of zmod_p are left out; the names remain available
    through builtin().
    """
    pairs = []
    for name in BUILTIN_SEMIRING_NAMES:
        if name.startswith("field_"):
            continue
        semiring = builtin(name).structure
        for module in standard_modules(name, semiring):
            if semiring.size * module.size <= max_product:
                pairs.append((name, semiring, module))
    return pairs


def _symmetric_tables(n: int, identity: int = 0):
    """All commutative tables on 0..n-1 with the given additive identity."""
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    base_row = list(range(n))
    for combo in itertools.product(range(n), repeat=len(cells)):
        table = [[0] * n for _ in range(n)]
        table[identity] = list(base_row)
        for x in range(n):
            table[x][identity] = x
        for (i, j), v in zip(cells, combo):
            table[i][j] = table[j][i] = v
        yield table


def _monoid_tables(n: int):
    for table in _symmetric_tables(n):
        if first_nonassociative(table, n) is None:
            yield tuple(tuple(row) for row in table)


def enumerate_semirings(order: int, *, dedup: bool = False) -> list[CatalogEntry]:
    """All semirings of the given order with zero=0 and one=1 fixed.

    No isomorphism reduction happens below order 4 (label-sensitivity bugs
    surface faster with duplicates present); at order 4 pass dedup=True to
    keep one representative per isomorphism class.
    """
    if not 2 <= order <= MAX_ENUM_ORDER:
        raise OrderTooLarge(f"supported orders are 2..{MAX_ENUM_ORDER}, got {order}")
    n = order
    free = [(i, j) for i in range(2, n) for j in range(i, n)]
    entries = []
    for add in _monoid_tables(n):
        for combo in itertools.product(range(n), repeat=len(free)):
            mul = [[0] * n for _ in range(n)]
            mul[1] = list(range(n))
            for x in range(n):
                mul[x][1] = x
            for (i, j), v in zip(free, combo):
                mul[i][j] = mul[j][i] = v
            if first_nonassociative(mul, n) or first_nondistributive(add, mul):
                continue
            data = {
                "name": "",
                "size": n,
                "zero": 0,
                "one": 1,
                "add": [list(r) for r in add],
                "mul": mul,
            }
            try:
                structure = validate_semiring(data)
            except InvalidStructure:
                continue
            entries.append(structure)
    if dedup:
        kept: list[FiniteSemiring] = []
        for s in entries:
            if not any(are_isomorphic(s, t) for t in kept):
                kept.append(s)
        entries = kept
    out = []
    for i, s in enumerate(entries):
        name = f"S{n}.{i:02d}"
        out.append(
            CatalogEntry(
                name=name,
                structure=FiniteSemiring(
                    size=s.size,
                    add_table=s.add_table,
                    mul_table=s.mul_table,
                    zero=s.zero,
                    one=s.one,
                    name=name,
                ),
                provenance="enumerated",
            )
        )
    return out


def _additive_endomorphisms(add, m: int, zero: int = 0):
    """Maps f with f(0)=0 and f(x+y)=f(x)+f(y), as tuples."""
    positions = [x for x in range(m) if x != zero]
    endos = []
    for values in itertools.product(range(m), repeat=len(positions)):
        f = [0] * m
        f[zero] = zero
        for pos, v in zip(positions, values):
            f[pos] = v
        if first_nondistributive(add, (f,)) is None:
            endos.append(tuple(f))
    return endos


def enumerate_semimodules(semiring: FiniteSemiring, order: int) -> list[CatalogEntry]:
    """All modules of the given order over the semiring, zero fixed at 0.

    Rows of the action table must be additive endomorphisms, so candidates
    are assembled from the endomorphism list scalar by scalar with the
    cross-row laws checked as soon as both sides are known; survivors are
    confirmed by the validator.
    """
    if not 1 <= order <= MAX_ENUM_ORDER:
        raise OrderTooLarge(f"supported orders are 1..{MAX_ENUM_ORDER}, got {order}")
    m = order
    n = semiring.size
    found = []
    add_tables = [((0,),)] if m == 1 else list(_monoid_tables(m))
    for add in add_tables:
        endos = _additive_endomorphisms(add, m)
        identity_row = tuple(range(m))
        zero_row = tuple(0 for _ in range(m))
        rows: dict[int, tuple[int, ...]] = {semiring.zero: zero_row, semiring.one: identity_row}
        free_scalars = [s for s in range(n) if s not in rows]

        def consistent(assigned: dict[int, tuple[int, ...]]) -> bool:
            for s in assigned:
                for t in assigned:
                    target = semiring.add(s, t)
                    if target in assigned:
                        row = assigned[target]
                        if any(row[x] != add[assigned[s][x]][assigned[t][x]] for x in range(m)):
                            return False
                    target = semiring.mul(s, t)
                    if target in assigned:
                        row = assigned[target]
                        if any(row[x] != assigned[s][assigned[t][x]] for x in range(m)):
                            return False
            return True

        def assign(idx: int) -> None:
            if idx == len(free_scalars):
                action = [list(rows[s]) for s in range(n)]
                data = {
                    "name": "",
                    "size": m,
                    "zero": 0,
                    "add": [list(r) for r in add],
                    "action": action,
                }
                try:
                    found.append(validate_semimodule(semiring, data))
                except InvalidStructure:
                    pass
                return
            s = free_scalars[idx]
            for row in endos:
                rows[s] = row
                if consistent(rows):
                    assign(idx + 1)
                del rows[s]

        if consistent(rows):
            assign(0)
    out = []
    for i, module in enumerate(found):
        name = f"M{m}.{i:02d}"
        out.append(
            CatalogEntry(
                name=name,
                structure=FiniteSemimodule(
                    base=module.base,
                    size=module.size,
                    add_table=module.add_table,
                    action_table=module.action_table,
                    zero=module.zero,
                    name=name,
                ),
                provenance="enumerated",
            )
        )
    return out


def are_isomorphic(a: FiniteSemiring, b: FiniteSemiring) -> bool:
    """Brute-force isomorphism test over all carrier bijections."""
    if a.size != b.size:
        return False
    n = a.size
    for perm in itertools.permutations(range(n)):
        if perm[a.zero] != b.zero or perm[a.one] != b.one:
            continue
        ok = True
        for x in range(n):
            for y in range(n):
                if perm[a.add(x, y)] != b.add(perm[x], perm[y]):
                    ok = False
                    break
                if perm[a.mul(x, y)] != b.mul(perm[x], perm[y]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False

