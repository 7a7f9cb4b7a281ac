"""Named builtin structures and exhaustive enumeration of small ones.

Builtins cover the hypotheses the verification suite needs to exercise:
semifields (boolean, prime fields), structures where every element has an
additive inverse (the modular rings), non-subtractive ideals (the
saturating truncated naturals), and lattice semirings (chains, diamond).

Enumeration fixes the labeling zero=0, one=1.  One depth-first search
fills every table: the commutative monoid additions, then the
multiplications against each addition, or the action rows of a module.  It
fills the cells in a fixed order with ascending values and, after each
cell, prunes on the associativity, distributivity and action-law instances
that can read that cell and whose cells are all known.  The output comes
in lexicographic order of the tables, and every candidate still goes
through the axiom validator, so it is oracle-checked rather than
formula-driven.  Isomorphism is equality of a canonical form: the least
encoding of both tables over the relabellings that send zero to 0 and one
to 1.
"""

from __future__ import annotations

import itertools
import math
import operator
import re

from .tables import (
    _BYTE_CARRIER,
    BaseMismatch,
    FiniteSemimodule,
    FiniteSemiring,
    InvalidStructure,
    Table,
    checked_semimodule,
    checked_semiring,
)

MAX_ENUM_ORDER = 4


class UnknownName(ValueError):
    """No builtin with the requested name."""


class OrderTooLarge(ValueError):
    """Exhaustive enumeration refused beyond the supported order."""


def _table(n_rows: int, n_cols: int, op) -> Table:
    """The table of ``op`` on rows 0..n_rows-1 and columns 0..n_cols-1."""
    return tuple(tuple(op(i, j) for j in range(n_cols)) for i in range(n_rows))


def _op_semiring(name: str, n: int, one: int, add, mul) -> FiniteSemiring:
    """The semiring on 0..n-1 with zero 0 and the given operations."""
    return checked_semiring(_table(n, n, add), _table(n, n, mul), 0, one, name)


def _residue_tables(n: int) -> tuple[Table, Table]:
    """The addition and multiplication tables of the integers modulo n."""
    return _table(n, n, lambda i, j: (i + j) % n), _table(n, n, lambda i, j: (i * j) % n)


def _is_prime_number(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


def _family_parameter(name: str, digits: str, extra: int) -> int:
    """The parameter of a family name, refused before any table or primality test when
    its carrier of ``parameter + extra`` elements is past ``_BYTE_CARRIER``."""
    k = int(digits) if len(digits) < 10 else _BYTE_CARRIER + 1  # int() raises past 4,300 digits
    if k + extra > _BYTE_CARRIER:
        raise UnknownName(f"builtin carriers have at most {_BYTE_CARRIER} elements: {name}")
    return k


def builtin(name: str) -> FiniteSemiring:
    """The named builtin semiring, its tables through the axiom scans.  A family
    name drops leading zeros of its parameter: ``zmod_04`` is named ``zmod_4``."""
    if name == "boolean":
        return _op_semiring(name, 2, 1, max, min)
    elif name == "diamond":
        # Four-element lattice 0 < {1, 2} < 3 with two incomparable midpoints:
        # the subsets of a two-point set as bitmasks, join | and meet &.
        return _op_semiring(name, 4, 3, operator.or_, operator.and_)
    elif m := re.fullmatch(r"chain_(\d+)", name):
        k = _family_parameter(name, m.group(1), 1)
        if k < 1:
            raise UnknownName(f"chain height must be >= 1: {name}")
        return _op_semiring(f"chain_{k}", k + 1, k, max, min)
    elif m := re.fullmatch(r"trunc_nat_(\d+)", name):
        k = _family_parameter(name, m.group(1), 1)
        if k < 1:
            raise UnknownName(f"truncation bound must be >= 1: {name}")
        return _op_semiring(
            f"trunc_nat_{k}", k + 1, 1, lambda i, j: min(i + j, k), lambda i, j: min(i * j, k)
        )
    elif m := re.fullmatch(r"zmod_(\d+)", name):
        n = _family_parameter(name, m.group(1), 0)
        if n < 2:
            raise UnknownName(f"modulus must be >= 2: {name}")
        return checked_semiring(*_residue_tables(n), 0, 1, f"zmod_{n}")
    elif m := re.fullmatch(r"field_(\d+)", name):
        p = _family_parameter(name, m.group(1), 0)
        if not _is_prime_number(p):
            raise UnknownName(f"field order must be prime here: {name}")
        return checked_semiring(*_residue_tables(p), 0, 1, f"field_{p}")
    raise UnknownName(f"no builtin named {name!r}")


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
    return checked_semimodule(semiring, ((0,),), ((0,),) * semiring.size, 0, "zero")


def self_module(semiring: FiniteSemiring) -> FiniteSemimodule:
    """The semiring acting on itself by multiplication (validated)."""
    return checked_semimodule(semiring, semiring.add_table, semiring.mul_table, semiring.zero, semiring.name)


def zmod_quotient_module(n: int, d: int) -> FiniteSemimodule:
    """The modular carrier of size d as a module over the modular semiring of size n."""
    if n % d != 0:
        raise BaseMismatch(f"{d} does not divide {n}; reduction is not well defined")
    return _reduction(builtin(f"zmod_{n}"), d)


def _reduction(base: FiniteSemiring, d: int) -> FiniteSemimodule:
    """The integers modulo d over ``base``, the integers modulo a multiple of d."""
    return checked_semimodule(
        base, _table(d, d, lambda i, j: (i + j) % d), _table(base.size, d, lambda s, x: (s * x) % d), 0, f"zmod_{d}"
    )


def product_module(m1: FiniteSemimodule, m2: FiniteSemimodule) -> FiniteSemimodule:
    """Componentwise product of two modules over the same base."""
    if m1.base != m2.base:
        raise BaseMismatch("product modules need a common base semiring")
    m = m2.size  # the pair (x, y) has index x * m + y
    pairs = [(x, y) for x in range(m1.size) for y in range(m)]
    return checked_semimodule(
        m1.base,
        tuple(tuple(m1.add(x1, x2) * m + m2.add(y1, y2) for x2, y2 in pairs) for x1, y1 in pairs),
        tuple(tuple(m1.act(s, x) * m + m2.act(s, y) for x, y in pairs) for s in m1.base.elements()),
        m1.zero * m + m2.zero,
        f"{m1.name or 'M'}x{m2.name or 'N'}",
    )


def standard_modules(semiring: FiniteSemiring, max_product: float = math.inf) -> list[FiniteSemimodule]:
    """The stock modules shipped with a builtin: trivial, self-action, the
    modular reductions of a residue ring, and a small componentwise square.

    Only the modules M with ``|S| * |M| <= max_product`` are built.  The
    semiring is a residue ring when its tables are those of the integers
    modulo its size, whatever its ``name``; each reduction is built over it.
    """
    n = semiring.size
    fits = lambda size: n * size <= max_product
    modules = [trivial_module(semiring)] if fits(1) else []
    if fits(n):
        own = self_module(semiring)
        modules.append(own)
    if semiring == FiniteSemiring(n, *_residue_tables(n), 0, 1):
        modules += [_reduction(semiring, d) for d in range(2, n) if n % d == 0 and fits(d)]
    if n**3 <= 64 and fits(n * n):
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
        semiring = builtin(name)
        pairs += [(name, semiring, module) for module in standard_modules(semiring, max_product)]
    return pairs


def _search(table: dict, cells: list, values: range, fails, k: int = 0):
    """Depth-first completions of a partial table: the one search behind every enumerator.

    ``table`` maps ``(row, col)`` to a value and holds the fixed cells.  The
    unknown ``cells`` are filled in list order with ascending ``values``, so
    completions come out in lexicographic order of the cell values.  Each
    cell is the tuple of positions it sets: a cell and its mirror in a
    commutative table.  After each cell, ``fails(table.get, cell)`` says
    whether a law instance that can read the cell is broken.  A cell not
    filled yet reads as None, so does every lookup through it, and an
    instance with a None side waits for a later cell.  The yielded table is
    live: copy what you keep.  ``k`` is the index of the next cell to fill;
    the search recurses on itself rather than through a nested function,
    which would refer to itself and leave every search as a reference cycle
    for the garbage collector.
    """
    if k == len(cells):
        yield table
        return
    cell = cells[k]
    for v in values:
        for pos in cell:
            table[pos] = v
        if not fails(table.get, cell[0]):
            yield from _search(table, cells, values, fails, k + 1)
    for pos in cell:
        table[pos] = None


def _broken(pairs) -> bool:
    """Whether some (lhs, rhs) pair has both sides known and different."""
    return any(lhs != rhs and lhs is not None and rhs is not None for lhs, rhs in pairs)


def _nonassociative(get, elements: range, cell: tuple[int, int]) -> bool:
    """Associativity ``(x y) z = x (y z)`` of a commutative table, on the instances
    over ``elements`` that can read ``cell``.  An instance reads a cell only
    through x or z, and swapping x and z gives the same equation, so z runs
    over the cell.  Callers leave out the elements whose rows are fixed as an
    identity or an absorbing zero: the law holds there."""
    return _broken(
        (get((get((x, y)), z)), get((x, get((y, z))))) for x in elements for y in elements for z in cell
    )


def _rows(table: dict, n_rows: int, n_cols: int) -> Table:
    return tuple(tuple(table[r, c] for c in range(n_cols)) for r in range(n_rows))


def _monoids(n: int):
    """Commutative monoid tables on 0..n-1 with identity 0, as dicts, in lexicographic order."""
    table = {pos: x for x in range(n) for pos in ((0, x), (x, 0))}
    cells = [((i, j), (j, i)) for i in range(1, n) for j in range(i, n)]
    for add in _search(table, cells, range(n), lambda get, cell: _nonassociative(get, range(1, n), cell)):
        yield dict(add)


def _named(prefix: str, structures) -> list:
    """The structures, named ``prefix.00``, ``prefix.01``, ... in order."""
    return [s.replace(name=f"{prefix}.{i:02d}") for i, s in enumerate(structures)]


def enumerate_semirings(order: int, *, dedup: bool = False) -> list[FiniteSemiring]:
    """All semirings of the given order with zero=0 and one=1 fixed.

    No isomorphism reduction happens below order 4 (label-sensitivity bugs
    surface faster with duplicates present); at order 4 pass dedup=True to
    keep the first semiring of each isomorphism class.
    """
    if not 2 <= order <= MAX_ENUM_ORDER:
        raise OrderTooLarge(f"supported orders are 2..{MAX_ENUM_ORDER}, got {order}")
    n = order
    mul = {}
    for x in range(n):
        mul[0, x] = mul[x, 0] = 0
        mul[1, x] = mul[x, 1] = x
    cells = [((i, j), (j, i)) for i in range(2, n) for j in range(i, n)]
    entries = []
    for add in _monoids(n):

        def fails(get, cell):
            # x(y + z) = xy + xz reads the multiplication in row x only
            distributive = (
                (get((x, add[y, z])), add.get((get((x, y)), get((x, z)))))
                for x in cell
                for y in range(1, n)
                for z in range(y, n)
            )
            return _nonassociative(get, range(2, n), cell) or _broken(distributive)

        for table in _search(mul, cells, range(n), fails):
            try:
                entries.append(checked_semiring(_rows(add, n, n), _rows(table, n, n), 0, 1))
            except InvalidStructure:
                continue
    if dedup:
        first: dict[tuple[int, ...], FiniteSemiring] = {}
        for s in entries:
            first.setdefault(_canonical_form(s), s)
        entries = list(first.values())
    return _named(f"S{n}", entries)


def enumerate_semimodules(semiring: FiniteSemiring, order: int) -> list[FiniteSemimodule]:
    """All modules of the given order over the semiring, zero fixed at 0.

    The search that lists the semirings fills the addition, then the action
    rows of the scalars other than zero and one, cell by cell.  After each
    action cell it checks ``s(x + y) = sx + sy``, ``(s + t)x = sx + tx`` and
    ``(st)x = s(tx)`` on the instances that can read that cell.  Survivors
    are confirmed by the validator.
    """
    if not 1 <= order <= MAX_ENUM_ORDER:
        raise OrderTooLarge(f"supported orders are 1..{MAX_ENUM_ORDER}, got {order}")
    m, n = order, semiring.size
    zero, one = semiring.zero, semiring.one
    free = [s for s in range(n) if s not in (zero, one)]
    nonzero = [s for s in range(n) if s != zero]
    action = {(s, 0): 0 for s in range(n)}
    for x in range(m):
        action[zero, x] = 0
        action[one, x] = x
    cells = [((s, x),) for s in free for x in range(1, m)]
    found = []
    for add in _monoids(m):
        if _broken((action.get((semiring.add(one, one), x)), add[x, x]) for x in range(m)):
            continue  # (1 + 1)x = x + x reads no cell when 1 + 1 is zero or one

        def fails(get, cell):
            s, x = cell
            plus = add.get
            return _broken(
                itertools.chain(
                    (
                        (get((s, add[y, z])), plus((get((s, y)), get((s, z)))))
                        for y in range(1, m)
                        for z in range(y, m)
                    ),
                    (
                        (get((semiring.add(a, b), x)), plus((get((a, x)), get((b, x)))))
                        for i, a in enumerate(nonzero)
                        for b in nonzero[i:]
                    ),
                    ((get((semiring.mul(a, b), x)), get((a, get((b, x))))) for a in free for b in free),
                    ((get((semiring.mul(s, b), y)), get((s, get((b, y))))) for b in free for y in range(1, m)),
                )
            )

        for table in _search(action, cells, range(m), fails):
            try:
                found.append(checked_semimodule(semiring, _rows(add, m, m), _rows(table, n, m), 0))
            except InvalidStructure:
                continue
    return _named(f"M{m}", found)


def _canonical_form(s: FiniteSemiring) -> tuple[int, ...]:
    """The least encoding of both tables over the relabellings that send zero to 0 and one to 1."""
    rest = [x for x in range(s.size) if x not in (s.zero, s.one)]
    forms = []
    for perm in itertools.permutations(rest):
        old = (s.zero, s.one, *perm)  # new label k stands for old element old[k]
        new = {x: k for k, x in enumerate(old)}
        forms.append(tuple(new[t[a][b]] for t in (s.add_table, s.mul_table) for a in old for b in old))
    return min(forms)


def are_isomorphic(a: FiniteSemiring, b: FiniteSemiring) -> bool:
    """Whether a relabelling of the carrier turns one semiring into the other,
    decided by comparing canonical forms."""
    return a.size == b.size and _canonical_form(a) == _canonical_form(b)
