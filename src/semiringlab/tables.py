"""Finite semirings and semimodules presented by explicit operation tables.

Carriers are index sets ``0..size-1``.  The distinguished elements ``zero``
and ``one`` are stored as indices and are not forced to positions 0 and 1,
so imported tables keep their original numbering.  Row index is always the
left operand.

Validation has two layers.  The JSON boundary (``validate_*`` and
``*_violations``) runs on data from files, the CLI and tests: it checks the
shape and ``size``/``zero``/``one`` and copies each table once, turning an
entry that is a bool or not an integer into -1.  The law layer
(``checked_semiring``, ``checked_semimodule``) runs on tuple tables, parsed
or computed by the program, which skip the parse.  Its entry-range guard is
the one range check: it reports every entry outside the carrier.  Then it
scans every axiom over all element tuples and reports each violated axiom
with a witness, not only the first failure.  The cubic
associativity and distributivity scans build both sides of the law for one
outer index as a bytes string and compare the whole row at once; every
triple is still checked, and the first differing byte gives the row-major
first witness.  A carrier of more than 256 elements does not fit in bytes
and takes the triple loop.  Structures are immutable once built and safe to
share between concurrent workers.
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


def _first_noncommutative(table: Table, n: int) -> tuple[int, int] | None:
    for a in range(n):
        for b in range(a + 1, n):
            if table[a][b] != table[b][a]:
                return (a, b)
    return None


# A bytes value holds 0..255, so a carrier of up to 256 elements fits in one byte per entry.
_BYTE_CARRIER = 256


def _first_difference(left: bytes, right: bytes) -> int:
    """Index of the first byte at which two strings of equal length differ."""
    return next(k for k, (u, v) in enumerate(zip(left, right)) if u != v)


def _nonassociative_loop(mul: Table, act: Table) -> tuple[int, int, int] | None:
    for a, mul_a in enumerate(mul):
        act_a = act[a]
        for b, ab in enumerate(mul_a):
            act_ab = act[ab]
            for c, bc in enumerate(act[b]):
                if act_ab[c] != act_a[bc]:
                    return (a, b, c)
    return None


def first_nonassociative(mul: Table, act: Table) -> tuple[int, int, int] | None:
    """First ``(a, b, c)`` with ``act[mul[a][b]][c] != act[a][act[b][c]]``, or None.

    Associativity of a table ``t`` is ``(t, t)``; the module law
    ``(st)x = s(tx)`` is ``(base.mul_table, action)``.  For each ``a`` both
    sides are built as one bytes string holding ``(b, c)`` at ``b * m + c``,
    so one ``==`` checks every ``(b, c)`` of the row, and the first differing
    byte is the row-major first witness.  Rows of more than ``_BYTE_CARRIER``
    entries do not fit in bytes and take the triple loop.
    """
    m = len(act[0])
    if m > _BYTE_CARRIER:
        return _nonassociative_loop(mul, act)
    pad = bytes(_BYTE_CARRIER - m)
    rows = [bytes(row) for row in act]
    flat = b"".join(rows)  # act[b][c]
    for a, mul_a in enumerate(mul):
        left = b"".join(map(rows.__getitem__, mul_a))  # act[mul[a][b]][c]
        right = flat.translate(rows[a] + pad)  # act[a][act[b][c]]
        if left != right:
            return (a, *divmod(_first_difference(left, right), m))
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


def _nondistributive_loop(add: Table, rows: Table) -> tuple[int, int, int] | None:
    for r, row in enumerate(rows):
        for x, add_x in enumerate(add):
            rx = add[row[x]]
            for y, xy in enumerate(add_x):
                if row[xy] != rx[row[y]]:
                    return (r, x, y)
    return None


def first_nondistributive(add: Table, rows: Table) -> tuple[int, int, int] | None:
    """First ``(r, x, y)`` with ``rows[r][x + y] != rows[r][x] + rows[r][y]``, or None.

    Each row is a map on the carrier of ``add``.  Left distributivity is
    ``(add, mul)``, right distributivity ``(add, transpose(mul))`` and the
    module law ``s(x + y) = sx + sy`` is ``(add, action)``.  As in
    ``first_nonassociative``, both sides for one ``r`` are one bytes string
    holding ``(x, y)`` at ``x * m + y``; a carrier of more than
    ``_BYTE_CARRIER`` elements takes the triple loop.
    """
    m = len(add)
    if m > _BYTE_CARRIER:
        return _nondistributive_loop(add, rows)
    pad = bytes(_BYTE_CARRIER - m)
    sums = [bytes(row) + pad for row in add]
    flat = b"".join(bytes(row) for row in add)  # x + y
    for r, row in enumerate(rows):
        row_bytes = bytes(row)
        left = flat.translate(row_bytes + pad)  # row[x + y]
        right = b"".join([row_bytes.translate(sums[u]) for u in row])  # row[x] + row[y]
        if left != right:
            return (r, *divmod(_first_difference(left, right), m))
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


def _out_of_range(table: Table, n: int, what: str) -> list[AxiomViolation]:
    """One ``<what>_entry_range`` violation per entry of a tuple table outside 0..n-1, row-major.

    The one entry-range check, for parsed tables (a bool or non-integer entry
    parses as -1) and computed ones.  The scans index by entries, and the bytes
    kernels would read one past the carrier through their padding.  A ``min``
    and a ``max`` per row keep this cheap.
    """
    if all(0 <= min(row) and max(row) < n for row in table):
        return []
    cells = ((r, c) for r, row in enumerate(table) for c, v in enumerate(row) if not 0 <= v < n)
    return [AxiomViolation(f"{what}_entry_range", cell) for cell in cells]


def _scan_semiring(add: Table, mul: Table, zero: int, one: int) -> list[AxiomViolation]:
    """Every semiring axiom on tuple tables over ``0..len(add)-1``."""
    n = len(add)
    violations = _out_of_range(add, n, "add") + _out_of_range(mul, n, "mul")
    if violations:
        return violations

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
    return violations


def checked_semiring(add: Table, mul: Table, zero: int, one: int, name: str = "") -> FiniteSemiring:
    """The semiring with these tuple tables, or raise InvalidStructure listing every broken axiom."""
    violations = _scan_semiring(add, mul, zero, one)
    if violations:
        raise InvalidStructure("semiring", name, violations)
    return FiniteSemiring(size=len(add), add_table=add, mul_table=mul, zero=zero, one=one, name=name)


def _scan_semimodule(base: FiniteSemiring, add: Table, action: Table, zero: int) -> list[AxiomViolation]:
    """Every semimodule axiom over ``base`` on tuple tables over ``0..len(add)-1``."""
    m, n = len(add), base.size
    violations = _out_of_range(add, m, "add") + _out_of_range(action, m, "action")
    # the action scans index by the base's entries too, and the base may never have been checked
    violations += _out_of_range(base.add_table, n, "base_add") + _out_of_range(base.mul_table, n, "base_mul")
    if violations:
        return violations

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
    return violations


def checked_semimodule(
    base: FiniteSemiring, add: Table, action: Table, zero: int, name: str = ""
) -> FiniteSemimodule:
    """The semimodule over ``base`` with these tuple tables, or raise InvalidStructure."""
    violations = _scan_semimodule(base, add, action, zero)
    if violations:
        raise InvalidStructure("semimodule", name, violations)
    return FiniteSemimodule(base=base, size=len(add), add_table=add, action_table=action, zero=zero, name=name)


# The JSON boundary: data from files, the CLI and tests is parsed here, once.
def _parse_table(rows: object, n_rows: int, n_cols: int, what: str) -> Table:
    """Copy ``rows`` into a tuple table after checking its shape.

    An entry that is not an int (``_is_int``, so not a bool) becomes -1, which
    the law layer's ``_out_of_range`` reports in row-major order.
    """
    if not isinstance(rows, (list, tuple)) or len(rows) != n_rows:
        raise SizeMismatch(f"{what} table must have {n_rows} rows")
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != n_cols:
            raise SizeMismatch(f"{what} table row {r} must have {n_cols} entries")
        if not {int}.issuperset(map(type, row)):  # one C-level screen per row
            row = [v if _is_int(v) else -1 for v in row]
        out.append(tuple(row))
    return tuple(out)


def _is_int(v: object) -> bool:
    """An int that is not a bool: JSON ``true``/``false`` load as bools, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_semiring(data: Mapping) -> tuple[Table, Table, int, int]:
    """Check the shape of semiring ``data``; its tables, zero and one for the law layer."""
    n = data.get("size")
    if not _is_int(n) or n < 2:
        raise SizeMismatch("size must be an integer >= 2 (the identities 0 and 1 must differ)")
    zero, one = data.get("zero"), data.get("one")
    for label, v in (("zero", zero), ("one", one)):
        if not _is_int(v) or not 0 <= v < n:
            raise SizeMismatch(f"{label} must be an index in 0..{n - 1}")
    add, mul = (_parse_table(data.get(op), n, n, op) for op in ("add", "mul"))
    return add, mul, zero, one


def semiring_violations(data: Mapping) -> list[AxiomViolation]:
    """Scan all semiring axioms on raw table data; return every violation found.

    Shape problems (wrong table dimensions, out-of-range zero/one, size < 2)
    raise SizeMismatch because the axiom scan cannot run on malformed tables.
    """
    return _scan_semiring(*_parse_semiring(data))


def validate_semiring(data: Mapping) -> FiniteSemiring:
    """Build a FiniteSemiring from raw table data, or raise InvalidStructure."""
    return checked_semiring(*_parse_semiring(data), name=str(data.get("name", "")))


def _parse_semimodule(base: FiniteSemiring, data: Mapping) -> tuple[FiniteSemiring, Table, Table, int]:
    """Check the shape and base of semimodule ``data``; its base, tables and zero for the law layer."""
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
    add = _parse_table(data.get("add"), m, m, "add")
    return base, add, _parse_table(data.get("action"), base.size, m, "action"), zero


def semimodule_violations(base: FiniteSemiring, data: Mapping) -> list[AxiomViolation]:
    """Scan all semimodule axioms of ``data`` over ``base``; return every violation."""
    return _scan_semimodule(*_parse_semimodule(base, data))


def validate_semimodule(base: FiniteSemiring, data: Mapping) -> FiniteSemimodule:
    """Build a FiniteSemimodule over ``base``, or raise InvalidStructure."""
    return checked_semimodule(*_parse_semimodule(base, data), name=str(data.get("name", "")))


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
