"""Finite semirings and semimodules presented by explicit operation tables.

Carriers are index sets ``0..size-1``.  The distinguished elements ``zero``
and ``one`` are stored as indices and are not forced to positions 0 and 1,
so imported tables keep their original numbering.  Row index is always the
left operand.

Validation scans every axiom over all element tuples and reports each
violated axiom with a witness, not only the first failure.  Structures are
immutable once built and safe to share between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

Table = tuple[tuple[int, ...], ...]


class SizeMismatch(ValueError):
    """Table data does not have the declared shape, or the size is too small."""


class BaseMismatch(ValueError):
    """A semimodule was combined with a semiring it is not defined over."""


@dataclass(frozen=True)
class AxiomViolation:
    """A violated axiom together with a witness tuple of element indices."""

    axiom: str
    witness: tuple[int, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.witness)
        return f"{self.axiom}({inner})"


class InvalidStructure(ValueError):
    """Validation failed; ``violations`` lists every broken axiom."""

    def __init__(self, kind: str, name: str, violations: Sequence[AxiomViolation]):
        self.kind = kind
        self.name = name
        self.violations = list(violations)
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid {kind} {name!r}: {detail}")


@dataclass(frozen=True)
class FiniteSemiring:
    """Commutative semiring on ``0..size-1`` given by addition/multiplication tables."""

    size: int
    add_table: Table
    mul_table: Table
    zero: int
    one: int
    name: str = ""

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def elements(self) -> range:
        return range(self.size)

    def power(self, a: int, k: int) -> int:
        """k-fold product of a (k = 0 gives one)."""
        out = self.one
        for _ in range(k):
            out = self.mul_table[out][a]
        return out


@dataclass(frozen=True)
class FiniteSemimodule:
    """Additive monoid on ``0..size-1`` with a scalar action of ``base``.

    ``action_table[s][x]`` is the product of scalar ``s`` with element ``x``.
    """

    base: FiniteSemiring
    size: int
    add_table: Table
    action_table: Table
    zero: int
    name: str = ""

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def act(self, s: int, x: int) -> int:
        return self.action_table[s][x]

    def elements(self) -> range:
        return range(self.size)

    def repeat_add(self, x: int, k: int) -> int:
        out = self.zero
        for _ in range(k):
            out = self.add_table[out][x]
        return out


Carrier = Union[FiniteSemiring, FiniteSemimodule]


@dataclass(frozen=True)
class Subset:
    """Members of a validated closed set over a carrier: the base of ``Ideal`` and ``Subsemimodule``."""

    parent: Carrier
    members: frozenset[int]

    def __post_init__(self) -> None:
        size = self.parent.size
        if self.members and not (0 <= min(self.members) and max(self.members) < size):
            bad = [i for i in self.members if not 0 <= i < size]
            raise ValueError(f"subset members {sorted(bad)} outside carrier 0..{size - 1}")

    def __len__(self) -> int:
        return len(self.members)

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def is_proper(self) -> bool:
        return len(self.members) < self.parent.size


def same_semiring(a: FiniteSemiring, b: FiniteSemiring) -> bool:
    """Structural equality, ignoring the name label."""
    return (a.size, a.zero, a.one, a.add_table, a.mul_table) == (
        b.size,
        b.zero,
        b.one,
        b.add_table,
        b.mul_table,
    )


def _parse_table(rows: object, n_rows: int, n_cols: int, what: str) -> tuple[Table, list[AxiomViolation]]:
    """Copy ``rows`` into a table; one ``<what>_entry_range`` violation per entry not in 0..n_cols-1."""
    if not isinstance(rows, (list, tuple)) or len(rows) != n_rows:
        raise SizeMismatch(f"{what} table must have {n_rows} rows")
    out, bad = [], []
    for r, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != n_cols:
            raise SizeMismatch(f"{what} table row {r} must have {n_cols} entries")
        row = tuple(row)
        out.append(row)
        for c, v in enumerate(row):
            # _is_int inlined: this runs once per table entry
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n_cols:
                bad.append(AxiomViolation(f"{what}_entry_range", (r, c)))
    return tuple(out), bad


def _is_int(v: object) -> bool:
    """An int that is not a bool: JSON ``true``/``false`` load as bools, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _first_noncommutative(table: Table, n: int) -> tuple[int, int] | None:
    for a in range(n):
        for b in range(a + 1, n):
            if table[a][b] != table[b][a]:
                return (a, b)
    return None


def first_nonassociative(mul: Table, act: Table) -> tuple[int, int, int] | None:
    """First ``(a, b, c)`` with ``act[mul[a][b]][c] != act[a][act[b][c]]``, or None.

    Associativity of a table ``t`` is ``(t, t)``; the module law
    ``(st)x = s(tx)`` is ``(base.mul_table, action)``.
    """
    for a, mul_a in enumerate(mul):
        act_a = act[a]
        for b, ab in enumerate(mul_a):
            act_ab = act[ab]
            for c, bc in enumerate(act[b]):
                if act_ab[c] != act_a[bc]:
                    return (a, b, c)
    return None


def _first_bad_scalar_sum(s_add: Table, add: Table, act: Table) -> tuple[int, int, int] | None:
    """First ``(s, t, x)`` with ``(s + t)x != sx + tx``, or None."""
    for s, add_s in enumerate(s_add):
        act_s = act[s]
        for t, st in enumerate(add_s):
            act_t, act_st = act[t], act[st]
            for x, sx in enumerate(act_s):
                if act_st[x] != add[sx][act_t[x]]:
                    return (s, t, x)
    return None


def first_nondistributive(add: Table, rows: Table) -> tuple[int, int, int] | None:
    """First ``(r, x, y)`` with ``rows[r][x + y] != rows[r][x] + rows[r][y]``, or None.

    Each row is a map on the carrier of ``add``.  Left distributivity is
    ``(add, mul)``, right distributivity ``(add, transpose(mul))`` and the
    module law ``s(x + y) = sx + sy`` is ``(add, action)``.
    """
    for r, row in enumerate(rows):
        for x, add_x in enumerate(add):
            rx = add[row[x]]
            for y, xy in enumerate(add_x):
                if row[xy] != rx[row[y]]:
                    return (r, x, y)
    return None


def _first_bad_identity(table: Table, n: int, e: int) -> tuple[int] | None:
    for x in range(n):
        if table[e][x] != x or table[x][e] != x:
            return (x,)
    return None


def _monoid_violations(table: Table, n: int, e: int, op: str) -> list[AxiomViolation]:
    """Identity, commutativity and associativity of a commutative monoid table."""
    scans = (
        ("identity", _first_bad_identity(table, n, e)),
        ("commutativity", _first_noncommutative(table, n)),
        ("associativity", first_nonassociative(table, table)),
    )
    return [AxiomViolation(f"{op}_{law}", w) for law, w in scans if w]


def _scan_semiring(data: Mapping) -> tuple[Table, Table, list[AxiomViolation]]:
    """Parse the tables of ``data`` once and scan every semiring axiom on them."""
    n = data.get("size")
    if not _is_int(n) or n < 2:
        raise SizeMismatch("size must be an integer >= 2 (the identities 0 and 1 must differ)")
    zero, one = data.get("zero"), data.get("one")
    for label, v in (("zero", zero), ("one", one)):
        if not _is_int(v) or not 0 <= v < n:
            raise SizeMismatch(f"{label} must be an index in 0..{n - 1}")
    add, violations = _parse_table(data.get("add"), n, n, "add")
    mul, bad_entries = _parse_table(data.get("mul"), n, n, "mul")
    violations += bad_entries
    if violations:
        return add, mul, violations

    if zero == one:
        violations.append(AxiomViolation("zero_one_distinct", (zero,)))
    violations += _monoid_violations(add, n, zero, "add")
    violations += _monoid_violations(mul, n, one, "mul")
    for a in range(n):
        if mul[a][zero] != zero or mul[zero][a] != zero:
            violations.append(AxiomViolation("zero_annihilation", (a,)))
            break
    left = first_nondistributive(add, mul)
    # a commutative multiplication is its own transpose, so right distributivity reads as left
    symmetric = all(v.axiom != "mul_commutativity" for v in violations)
    right = left if symmetric else first_nondistributive(add, tuple(zip(*mul)))
    for law, w in (("left_distributivity", left), ("right_distributivity", right)):
        if w:
            violations.append(AxiomViolation(law, w))
    return add, mul, violations


def semiring_violations(data: Mapping) -> list[AxiomViolation]:
    """Scan all semiring axioms on raw table data; return every violation found.

    Shape problems (wrong table dimensions, out-of-range zero/one, size < 2)
    raise SizeMismatch because the axiom scan cannot run on malformed tables.
    """
    return _scan_semiring(data)[2]


def validate_semiring(data: Mapping) -> FiniteSemiring:
    """Build a FiniteSemiring from raw table data, or raise InvalidStructure."""
    name = str(data.get("name", ""))
    add, mul, violations = _scan_semiring(data)
    if violations:
        raise InvalidStructure("semiring", name, violations)
    return FiniteSemiring(
        size=data["size"], add_table=add, mul_table=mul, zero=data["zero"], one=data["one"], name=name
    )


def _scan_semimodule(base: FiniteSemiring, data: Mapping) -> tuple[Table, Table, list[AxiomViolation]]:
    """Parse the tables of ``data`` once and scan every semimodule axiom over ``base``."""
    m = data.get("size")
    if not _is_int(m) or m < 1:
        raise SizeMismatch("size must be an integer >= 1")
    zero = data.get("zero")
    if not _is_int(zero) or not 0 <= zero < m:
        raise SizeMismatch(f"zero must be an index in 0..{m - 1}")
    if "base" in data and data["base"] is not None:
        embedded = data["base"]
        if isinstance(embedded, Mapping):
            declared = validate_semiring(embedded)
            if not same_semiring(declared, base):
                raise BaseMismatch("embedded base semiring differs from the supplied one")
        elif not isinstance(embedded, str):
            # string bases are references (builtin name or path) the caller resolves
            raise BaseMismatch("base must be an embedded semiring object or a reference string")
    n = base.size
    add, violations = _parse_table(data.get("add"), m, m, "add")
    action, bad_entries = _parse_table(data.get("action"), n, m, "action")
    violations += bad_entries
    if violations:
        return add, action, violations

    violations += _monoid_violations(add, m, zero, "add")
    for x in range(m):
        if action[base.one][x] != x:
            violations.append(AxiomViolation("action_identity", (x,)))
            break
    for x in range(m):
        if action[base.zero][x] != zero:
            violations.append(AxiomViolation("action_zero_scalar", (x,)))
            break
    for s in range(n):
        if action[s][zero] != zero:
            violations.append(AxiomViolation("action_zero_module", (s,)))
            break

    scans = (
        ("action_add_module", first_nondistributive(add, action)),
        ("action_add_scalar", _first_bad_scalar_sum(base.add_table, add, action)),
        ("action_mul_scalar", first_nonassociative(base.mul_table, action)),
    )
    violations += [AxiomViolation(law, w) for law, w in scans if w]
    return add, action, violations


def semimodule_violations(base: FiniteSemiring, data: Mapping) -> list[AxiomViolation]:
    """Scan all semimodule axioms of ``data`` over ``base``; return every violation."""
    return _scan_semimodule(base, data)[2]


def validate_semimodule(base: FiniteSemiring, data: Mapping) -> FiniteSemimodule:
    """Build a FiniteSemimodule over ``base``, or raise InvalidStructure."""
    name = str(data.get("name", ""))
    add, action, violations = _scan_semimodule(base, data)
    if violations:
        raise InvalidStructure("semimodule", name, violations)
    return FiniteSemimodule(
        base=base, size=data["size"], add_table=add, action_table=action, zero=data["zero"], name=name
    )


def v_set(structure: Carrier) -> frozenset[int]:
    """Elements having an additive inverse: ``{x : exists y, x + y = zero}``."""
    n = structure.size
    zero = structure.zero
    add = structure.add_table
    return frozenset(x for x in range(n) if any(add[x][y] == zero for y in range(n)))


def additive_closure(add_table: Table, mask: int) -> int:
    """Least superset of the bitmask ``mask`` closed under a commutative addition table."""
    members = [i for i in range(len(add_table)) if mask >> i & 1]
    for i, a in enumerate(members):  # walks the members appended below, too
        row = add_table[a]
        for b in members[: i + 1]:
            s = row[b]
            if not mask >> s & 1:
                mask |= 1 << s
                members.append(s)
    return mask


def is_commutative_mul(semiring: FiniteSemiring) -> bool:
    """True iff the multiplication table is symmetric."""
    return _first_noncommutative(semiring.mul_table, semiring.size) is None


def semiring_as_module(semiring: FiniteSemiring) -> FiniteSemimodule:
    """View a semiring as a semimodule over itself (the action is multiplication)."""
    return FiniteSemimodule(
        base=semiring,
        size=semiring.size,
        add_table=semiring.add_table,
        action_table=semiring.mul_table,
        zero=semiring.zero,
        name=semiring.name,
    )


def semiring_to_dict(s: FiniteSemiring) -> dict:
    return {
        "name": s.name,
        "size": s.size,
        "zero": s.zero,
        "one": s.one,
        "add": [list(row) for row in s.add_table],
        "mul": [list(row) for row in s.mul_table],
    }


def semimodule_to_dict(m: FiniteSemimodule, *, include_base: bool = True) -> dict:
    out = {
        "name": m.name,
        "size": m.size,
        "zero": m.zero,
        "add": [list(row) for row in m.add_table],
        "action": [list(row) for row in m.action_table],
    }
    if include_base:
        out["base"] = semiring_to_dict(m.base)
    return out
