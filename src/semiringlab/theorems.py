"""Brute-force verification of the structural facts about product semirings.

Every check runs on one (semiring, module) cell of a verification grid and
decides a quantified statement by exhaustive scan, reporting pass / fail /
not-applicable plus a witness in factor-pair coordinates on failure.  The
check identifiers are stable report keys; each carries a one-line statement
of what is being decided.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from functools import cached_property

from . import catalog
from .construct import (
    ExpectationInstance,
    _first_degree_overflow,
    _full_module_box_scalars,
    _is_graded,
    box_members,
    build_expectation,
    embed_s,
    graded_decomposition,
    matrix_iso_check,
    projections,
    scalar_slice,
    zero_m_ideal_nilpotency,
    zero_scalar_slice,
)
from .elements import Census
from .ideals import (
    Ideal,
    NotAnIdeal,
    NotASubmodule,
    Subsemimodule,
    annihilator,
    enumerate_ideals,
    enumerate_subsemimodules,
    ideal_violation,
    is_maximal,
    is_primary,
    is_primary_submodule,
    is_prime,
    is_subtractive,
    is_weakly_prime,
    radical,
    residual,
    residual_members,
)
from .numeric import oracle_disagreements, weight_law_failures
from .tables import FiniteSemimodule, FiniteSemiring, InvalidStructure, Subset

PASS = "pass"
FAIL = "fail"
NA = "not-applicable"

# The cell context attribute holding the enumeration of each carrier role.
_ENUMERATED = {"scalar": "ideals_s", "module": "submods_m", "product": "ideals_e"}


@dataclass
class CheckRecord:
    theorem: str
    instance: str
    status: str
    witness: object = None
    runtime: float = 0.0

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "instance": self.instance,
            "status": self.status,
            "witness": self.witness,
            "runtime": round(self.runtime, 6),
        }


@dataclass
class PairContext:
    """One grid cell: the factors, the built product, and every fact the checks derive.

    The context is the cell's derived-data layer.  ``ideal`` and
    ``submodule`` return the enumerated object with a given member set, and
    ``once(derive, subset)`` memoises an ideal-layer function of ``ideals.py``
    (``is_prime``, ``radical``, ``residual``, ...) per (function, carrier,
    member set), so each fact is derived once per cell.  The element sets
    and class flags come from one ``Census`` per carrier role; the scalar
    census is the module census's base.  The memo and the censuses live and
    die with the context; nothing is shared between cells.
    """

    label: str
    semiring: FiniteSemiring
    module: FiniteSemimodule
    # labels of the structures found strongly associate but not presimplifiable
    strongly_associate_only: list[str] = field(default_factory=list)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def instance(self) -> ExpectationInstance:
        return build_expectation(self.semiring, self.module)

    @cached_property
    def product(self) -> FiniteSemiring:
        return self.instance.product

    def pair(self, k: int) -> list[int]:
        return list(self.instance.pair_of(k))

    def pairs_of(self, members) -> list[list[int]]:
        return [self.pair(k) for k in sorted(members)]

    @cached_property
    def t1_set(self) -> frozenset[int]:
        return zero_scalar_slice(self.instance)

    @cached_property
    def ideals_s(self) -> list[Ideal]:
        return enumerate_ideals(self.semiring)

    @cached_property
    def submods_m(self) -> list[Subsemimodule]:
        return enumerate_subsemimodules(self.module)

    @cached_property
    def ideals_e(self) -> list[Ideal]:
        return enumerate_ideals(self.product)

    def once(self, derive, subset: Subset):
        """``derive(subset)``, computed on the first request in this cell.

        The key is (derive, carrier, member set), with the carrier told apart
        by identity, so each ideal-layer fact is derived once per cell.
        """
        key = (derive, id(subset.parent), subset.members)
        memo = self._memo
        if key not in memo:
            memo[key] = derive(subset)
        return memo[key]

    def _listed(self, role: str, members: frozenset[int]) -> Subset | None:
        """The enumerated ideal or subsemimodule of ``role`` with these members, if any."""
        index = self._memo.get(role)
        if index is None:
            index = self._memo[role] = {subset.members: subset for subset in getattr(self, _ENUMERATED[role])}
        return index.get(members)

    def ideal(self, role: str, members: frozenset[int]) -> Ideal:
        """The ideal with these members of the scalars (``"scalar"``) or the product (``"product"``).

        It is read from the enumeration; only a set missing there goes
        through the validating constructor, which raises NotAnIdeal with
        its witness.
        """
        found = self._listed(role, members)
        return Ideal(self.semiring if role == "scalar" else self.product, members) if found is None else found

    def submodule(self, members: frozenset[int]) -> Subsemimodule:
        """The subsemimodule with these members, read from the enumeration as ``ideal`` is."""
        found = self._listed("module", members)
        return Subsemimodule(self.module, members) if found is None else found

    @cached_property
    def primes_s(self) -> list[Ideal]:
        return [i for i in self.ideals_s if self.once(is_prime, i)]

    @cached_property
    def primes_e(self) -> list[Ideal]:
        return [i for i in self.ideals_e if self.once(is_prime, i)]

    @cached_property
    def full_module(self) -> Subsemimodule:
        return self.submodule(frozenset(self.module.elements()))

    @cached_property
    def _legal_boxes(self) -> dict[tuple[frozenset[int], frozenset[int]], tuple[Ideal, Subsemimodule]]:
        """Legal (I, N) pairs, I inside (N : M), keyed by their member sets; decided once per cell."""
        residuals = [residual_members(self.module, n.members) for n in self.submods_m]
        return {
            (i.members, n.members): (i, n)
            for i in self.ideals_s
            for n, carriers in zip(self.submods_m, residuals)
            if i.members <= carriers
        }

    @cached_property
    def boxables(self) -> list[tuple[Ideal, Subsemimodule, Ideal]]:
        """(I, N, I box N) for every legal pair, each box validated as an ideal of the product."""
        return [
            (i, n, self.ideal("product", box_members(self.instance, i.members, n.members)))
            for i, n in self._legal_boxes.values()
        ]

    @cached_property
    def full_module_boxes(self) -> dict[frozenset[int], Ideal]:
        """I x M for every ideal I of S, keyed by I's members; read from ``boxables``."""
        full = self.full_module.members
        return {i.members: box for i, n, box in self.boxables if n.members == full}

    @cached_property
    def module_census(self) -> Census:
        return Census(self.module)

    @cached_property
    def scalar_census(self) -> Census:
        return self.module_census.base

    @cached_property
    def product_census(self) -> Census:
        return Census(self.product)

    @cached_property
    def units_s(self) -> frozenset[int]:
        return self.scalar_census.units

    @cached_property
    def vset_m(self) -> frozenset[int]:
        return self.module_census.v_set

    @cached_property
    def vset_full(self) -> bool:
        return len(self.vset_m) == self.module.size

    @cached_property
    def units_e_formula(self) -> frozenset[int]:
        return box_members(self.instance, self.units_s, self.vset_m)

    @cached_property
    def z_s(self) -> frozenset[int]:
        return self.scalar_census.zero_divisors

    @cached_property
    def z_m(self) -> frozenset[int]:
        return self.module_census.zero_divisors

    @cached_property
    def nil_s(self) -> frozenset[int]:
        return self.scalar_census.nilpotents

    @cached_property
    def units_e(self) -> frozenset[int]:
        return self.product_census.units

    @cached_property
    def z_e(self) -> frozenset[int]:
        return self.product_census.zero_divisors

    @cached_property
    def nil_e(self) -> frozenset[int]:
        return self.product_census.nilpotents


def _first_non_box(ctx: PairContext, role: str, ideals, qualifies) -> dict | None:
    """FAIL witness for the first of ``ideals`` that is not I x M with ``qualifies(I)``, or None.

    The witness is ``{role: pairs}`` when the ideal is no full-module box and
    ``{"scalar_part": I}`` when its scalar part I does not qualify.
    """
    for j in ideals:
        scalar = _full_module_box_scalars(ctx.instance, j.members)
        if scalar is None:
            return {role: ctx.pairs_of(j.members)}
        if not qualifies(ctx.ideal("scalar", scalar)):
            return {"scalar_part": sorted(scalar)}
    return None


def _annihilator_condition_violations(
    semiring: FiniteSemiring, module: FiniteSemimodule
) -> list[tuple[int, int]]:
    """Pairs of nonzero scalars with zero product where one of them fails to annihilate the module."""
    ann = annihilator(module).members
    zero = semiring.zero
    return [
        (a, b)
        for a in semiring.elements()
        for b in semiring.elements()
        if semiring.mul(a, b) == zero and a != zero and b != zero and (a not in ann or b not in ann)
    ]


def check_product_is_semiring(ctx: PairContext):
    try:
        ctx.product  # built through the axiom validator
    except InvalidStructure as exc:
        return FAIL, [str(v) for v in exc.violations]
    return PASS, None


def check_embedding(ctx: PairContext):
    s_ring = ctx.semiring
    e_ring = ctx.product
    emb = {s: embed_s(ctx.instance, s) for s in s_ring.elements()}
    if emb[s_ring.zero] != e_ring.zero or emb[s_ring.one] != e_ring.one:
        return FAIL, {"reason": "identities not preserved"}
    if len(set(emb.values())) != s_ring.size:
        return FAIL, {"reason": "embedding not injective"}
    for s in s_ring.elements():
        for t in s_ring.elements():
            if e_ring.add(emb[s], emb[t]) != emb[s_ring.add(s, t)]:
                return FAIL, {"law": "add", "s": s, "t": t}
            if e_ring.mul(emb[s], emb[t]) != emb[s_ring.mul(s, t)]:
                return FAIL, {"law": "mul", "s": s, "t": t}
    return PASS, None


def check_slice_nilpotency(ctx: PairContext):
    got = zero_m_ideal_nilpotency(ctx.instance)
    expected = 1 if ctx.module.size == 1 else 2
    if got != expected:
        return FAIL, {"expected": expected, "got": got}
    return PASS, None


def check_matrix_presentation(ctx: PairContext):
    return (PASS, None) if matrix_iso_check(ctx.instance) else (FAIL, {"reason": "records disagree"})


def check_grading(ctx: PairContext):
    try:
        t0, t1 = graded_decomposition(ctx.instance)
    except RuntimeError as exc:
        return FAIL, {"reason": str(exc)}
    if len(t0) != ctx.semiring.size or len(t1) != ctx.module.size:
        return FAIL, {"reason": "slice sizes wrong"}
    if t0 & t1 != {ctx.product.zero}:
        return FAIL, {"reason": "slices overlap beyond zero"}
    return PASS, None


def check_box_ideal_iff(ctx: PairContext):
    e_ring = ctx.product
    t0, t1 = scalar_slice(ctx.instance), ctx.t1_set
    for i in ctx.ideals_s:
        for n in ctx.submods_m:
            legal = (i.members, n.members) in ctx._legal_boxes
            members = box_members(ctx.instance, i.members, n.members)
            actually_ideal = ideal_violation(e_ring, members) is None
            if legal != actually_ideal:
                return FAIL, {"ideal": sorted(i.members), "submodule": sorted(n.members)}
            if not legal:
                continue
            if not _is_graded(ctx.instance, members):
                return FAIL, {"reason": "box not graded", "ideal": sorted(i.members)}
            overflow = _first_degree_overflow(e_ring, (t0, t1), (members & t0, members & t1))
            if overflow:
                _i, _j, a, b = overflow
                return FAIL, {"reason": "degree overflow", "a": ctx.pair(a), "b": ctx.pair(b)}
    for j in ctx.ideals_e:
        if not _is_graded(ctx.instance, j.members):
            continue
        if box_members(ctx.instance, *projections(ctx.instance, j.members)) != j.members:
            return FAIL, {"reason": "graded ideal is not a box", "ideal": ctx.pairs_of(j.members)}
    return PASS, None


def check_box_radical(ctx: PairContext):
    for i, _n, box in ctx.boxables:
        expected = box_members(ctx.instance, ctx.once(radical, i).members, ctx.full_module.members)
        got = ctx.once(radical, box).members
        if got != expected:
            return FAIL, {
                "ideal": sorted(i.members),
                "submodule": sorted(_n.members),
                "radical": ctx.pairs_of(got),
            }
    return PASS, None


def check_projections(ctx: PairContext):
    for j in ctx.ideals_e:
        scalar, vector = projections(ctx.instance, j.members)
        try:
            i, n = ctx.ideal("scalar", scalar), ctx.submodule(vector)
        except (NotAnIdeal, NotASubmodule) as exc:
            return FAIL, {"reason": str(exc), "ideal": ctx.pairs_of(j.members)}
        if not i.members <= ctx.once(residual, n).members:
            return FAIL, {"reason": "projection violates containment", "ideal": ctx.pairs_of(j.members)}
        if not j.members <= box_members(ctx.instance, i.members, n.members):
            return FAIL, {"reason": "ideal escapes its projection box"}
    return PASS, None


def check_subtractive_over_slice(ctx: PairContext):
    for j in ctx.ideals_e:
        if not (ctx.once(is_subtractive, j) and ctx.t1_set <= j.members):
            continue
        if _full_module_box_scalars(ctx.instance, j.members) is None:
            return FAIL, {"ideal": ctx.pairs_of(j.members)}
    return PASS, None


def check_primes_contain_slice(ctx: PairContext):
    for p in ctx.primes_e:
        if not ctx.t1_set <= p.members:
            return FAIL, {"prime": ctx.pairs_of(p.members)}
    return PASS, None


def check_subtractive_primes_are_boxes(ctx: PairContext):
    subtractive = (p for p in ctx.primes_e if ctx.once(is_subtractive, p))
    qualifies = lambda i: ctx.once(is_prime, i) and ctx.once(is_subtractive, i)
    witness = _first_non_box(ctx, "prime", subtractive, qualifies)
    return (FAIL, witness) if witness else (PASS, None)


def check_subtractive_transfer(ctx: PairContext):
    boxes_subtractive = all(ctx.once(is_subtractive, box) for _i, _n, box in ctx.boxables)
    factors_subtractive = all(ctx.once(is_subtractive, i) for i in ctx.ideals_s) and all(
        ctx.once(is_subtractive, n) for n in ctx.submods_m
    )
    if boxes_subtractive != factors_subtractive:
        return FAIL, {"boxes": boxes_subtractive, "factors": factors_subtractive}
    if all(ctx.once(is_subtractive, j) for j in ctx.ideals_e) and not factors_subtractive:
        return FAIL, {"reason": "subtractive product with non-subtractive factor"}
    return PASS, None


def check_weak_gaussian_shapes(ctx: PairContext):
    # ideals.is_weak_gaussian on the product, read from the cell's primes and memo
    if not all(ctx.once(is_subtractive, p) for p in ctx.primes_e):
        return NA, None
    prime_qualifies = lambda i: ctx.once(is_prime, i) and ctx.once(is_subtractive, i)
    witness = _first_non_box(ctx, "prime", ctx.primes_e, prime_qualifies)
    if witness is None:
        maximals = [j for j in ctx.ideals_e if is_maximal(j, ctx.ideals_e)]
        maximal_qualifies = lambda i: is_maximal(i, ctx.ideals_s) and ctx.once(is_subtractive, i)
        witness = _first_non_box(ctx, "maximal", maximals, maximal_qualifies)
    return (FAIL, witness) if witness else (PASS, None)


def check_weakly_prime_lift(ctx: PairContext):
    if _annihilator_condition_violations(ctx.semiring, ctx.module):
        return PASS, None
    for i in ctx.ideals_s:
        if not ctx.once(is_weakly_prime, i):
            continue
        if not ctx.once(is_weakly_prime, ctx.full_module_boxes[i.members]):
            return FAIL, {"ideal": sorted(i.members)}
    return PASS, None


def check_residual_and_primary_radical(ctx: PairContext):
    for n in ctx.submods_m:
        try:
            residual_ideal = ctx.once(radical, ctx.once(residual, n))
        except NotAnIdeal as exc:
            return FAIL, {"submodule": sorted(n.members), "reason": str(exc)}
        if ctx.once(is_primary_submodule, n) and not ctx.once(is_prime, residual_ideal):
            return FAIL, {"submodule": sorted(n.members), "radical": sorted(residual_ideal.members)}
    return PASS, None


def check_primary_box_iff(ctx: PairContext):
    for i in ctx.ideals_s:
        if ctx.once(is_primary, i) != ctx.once(is_primary, ctx.full_module_boxes[i.members]):
            return FAIL, {"ideal": sorted(i.members)}
    return PASS, None


def check_primary_box_consequences(ctx: PairContext):
    for i, n, box in ctx.boxables:
        if not n.is_proper() or not ctx.once(is_primary, box):
            continue
        if not ctx.once(is_primary_submodule, n):
            return FAIL, {"submodule": sorted(n.members)}
        if ctx.once(radical, i).members != ctx.once(radical, ctx.once(residual, n)).members:
            return FAIL, {"ideal": sorted(i.members), "submodule": sorted(n.members)}
    return PASS, None


def check_primary_box_with_subtractive_module(ctx: PairContext):
    if not all(ctx.once(is_subtractive, n) for n in ctx.submods_m):
        return NA, None
    for i, n, box in ctx.boxables:
        if not n.is_proper():
            continue
        # A primary box forces I primary, by (a, 0)(b, 0) = (ab, 0).
        radicals_agree = ctx.once(radical, i).members == ctx.once(radical, ctx.once(residual, n)).members
        expected = ctx.once(is_primary, i) and ctx.once(is_primary_submodule, n) and radicals_agree
        if ctx.once(is_primary, box) != expected:
            return FAIL, {"ideal": sorted(i.members), "submodule": sorted(n.members)}
    return PASS, None


def check_module_zero_divisors_prime_cover(ctx: PairContext):
    if ctx.module.size == 1:
        return NA, None
    covering = [p for p in ctx.primes_s if p.members <= ctx.z_m]
    for z in ctx.z_m:
        if not any(z in p.members for p in covering):
            return FAIL, {"zero_divisor": z}
    return PASS, None


def check_units_formula(ctx: PairContext):
    if ctx.units_e != ctx.units_e_formula:
        return FAIL, {"units": ctx.pairs_of(ctx.units_e)}
    return PASS, None


def check_idempotents_formula(ctx: PairContext):
    s_ring, module = ctx.semiring, ctx.module
    expected = frozenset(
        k
        for k in ctx.product.elements()
        for (s, x) in [ctx.instance.pair_of(k)]
        if s_ring.mul(s, s) == s and module.add(module.act(s, x), module.act(s, x)) == x
    )
    got = ctx.product_census.idempotents
    if got != expected:
        return FAIL, {"idempotents": ctx.pairs_of(got)}
    if ctx.module_census.additive_idempotents == {module.zero}:
        for k in got:
            if ctx.instance.pair_of(k)[1] != module.zero:
                return FAIL, {"reason": "idempotent with nonzero vector part", "element": ctx.pair(k)}
    return PASS, None


def check_nilpotents_formula(ctx: PairContext):
    expected = box_members(ctx.instance, ctx.nil_s, ctx.full_module.members)
    if ctx.nil_e != expected:
        return FAIL, {"nilpotents": ctx.pairs_of(ctx.nil_e)}
    if ideal_violation(ctx.product, ctx.nil_e) is not None:
        return FAIL, {"reason": "nilpotents do not form an ideal"}
    return PASS, None


def check_zero_divisors_formula(ctx: PairContext):
    expected = box_members(ctx.instance, ctx.z_s | ctx.z_m, ctx.full_module.members)
    if ctx.z_e != expected:
        return FAIL, {"zero_divisors": ctx.pairs_of(ctx.z_e)}
    return PASS, None


def check_semifield_local(ctx: PairContext):
    if not ctx.scalar_census.semifield:
        return NA, None
    return (PASS, None) if ctx.product_census.local else (FAIL, None)


def check_presimplifiable_iff(ctx: PairContext):
    lhs = ctx.product_census.presimplifiable
    rhs = ctx.vset_full and ctx.scalar_census.presimplifiable and ctx.module_census.presimplifiable
    return (PASS, None) if lhs == rhs else (FAIL, {"product": lhs, "factors": rhs})


def check_presimplifiable_strongly_associate(ctx: PairContext):
    roles = {"scalar": ctx.scalar_census, "module": ctx.module_census, "product": ctx.product_census}
    for role, census in roles.items():
        if census.presimplifiable and not census.strongly_associate:
            return FAIL, {"structure": role}
        if census.strongly_associate and not census.presimplifiable:
            ctx.strongly_associate_only.append(f"{ctx.label}:{role}")
    return PASS, None


def check_strongly_associate_transfer(ctx: PairContext):
    s, m, e = ctx.scalar_census, ctx.module_census, ctx.product_census
    if e.strongly_associate and not (s.strongly_associate and m.strongly_associate):
        return FAIL, {"scalar": s.strongly_associate, "module": m.strongly_associate}
    if s.presimplifiable and ctx.vset_full and e.strongly_associate != m.strongly_associate:
        return FAIL, {"product": e.strongly_associate, "module": m.strongly_associate}
    return PASS, None


def check_domainlike_iff(ctx: PairContext):
    lhs = ctx.product_census.domainlike
    rhs = ctx.scalar_census.domainlike and ctx.z_m <= ctx.nil_s
    return (PASS, None) if lhs == rhs else (FAIL, {"product": lhs, "factors": rhs})


def check_clean_transfer(ctx: PairContext):
    if not ctx.vset_full:
        return NA, None
    lhs, rhs = ctx.product_census.clean, ctx.scalar_census.clean
    return (PASS, None) if lhs == rhs else (FAIL, {"product": lhs, "scalar": rhs})


def check_almost_clean_iff(ctx: PairContext):
    lhs = ctx.product_census.almost_clean
    rhs = ctx.scalar_census.almost_clean_by_parts(ctx.module_census)
    return (PASS, None) if lhs == rhs else (FAIL, {"product": lhs, "criterion": rhs})


def check_weakly_clean_transfer(ctx: PairContext):
    if not ctx.vset_full:
        return NA, None
    lhs, rhs = ctx.product_census.weakly_clean, ctx.scalar_census.weakly_clean
    return (PASS, None) if lhs == rhs else (FAIL, {"product": lhs, "scalar": rhs})


def check_additively_regular_componentwise(ctx: PairContext):
    s, m, e = ctx.scalar_census, ctx.module_census, ctx.product_census
    regular_s, regular_m = s.additively_regular_elements, m.additively_regular_elements
    got = e.additively_regular_elements
    expected = box_members(ctx.instance, regular_s, regular_m)
    if got != expected:
        return FAIL, {"regular": ctx.pairs_of(got)}
    if e.additively_regular != (s.additively_regular and m.additively_regular):
        return FAIL, {"flag": e.additively_regular}
    return PASS, None


def check_v_set_law(ctx: PairContext):
    for census in (ctx.scalar_census, ctx.module_census, ctx.product_census):
        structure, members = census.structure, census.v_set
        for x in structure.elements():
            for y in structure.elements():
                if (structure.add_table[x][y] in members) != (x in members and y in members):
                    return FAIL, {"x": x, "y": y, "structure": structure.name}
    return PASS, None


def check_units_not_zero_divisors(ctx: PairContext):
    if ctx.units_s & ctx.z_s:
        return FAIL, {"overlap": sorted(ctx.units_s & ctx.z_s)}
    if ctx.units_e & ctx.z_e:
        return FAIL, {"overlap": ctx.pairs_of(ctx.units_e & ctx.z_e)}
    return PASS, None


def check_nilpotents_in_primes(ctx: PairContext):
    for p in ctx.primes_s:
        if not ctx.nil_s <= p.members:
            return FAIL, {"prime": sorted(p.members)}
    for p in ctx.primes_e:
        if not ctx.nil_e <= p.members:
            return FAIL, {"prime": ctx.pairs_of(p.members)}
    return PASS, None


CHECKS = (
    ("Prop-2.1-1", "product tables pass every semiring axiom", check_product_is_semiring),
    ("Prop-2.1-2", "scalar embedding s -> (s, 0) preserves both operations", check_embedding),
    ("Prop-2.1-3", "zero-scalar slice has nilpotency index 2 (1 for the trivial module)", check_slice_nilpotency),
    ("Prop-2.1-4", "triangular-record presentation matches the product", check_matrix_presentation),
    ("Thm-2.6-1", "unique degree decomposition with degree-additive products", check_grading),
    ("Thm-2.6-2", "box sets are ideals exactly when the scalar part maps the module into the vector part; boxes are graded and graded ideals are boxes", check_box_ideal_iff),
    ("Thm-2.6-3", "radical of a box is the radical of its scalar part boxed with the whole module", check_box_radical),
    ("Thm-2.6-4", "projections of any product ideal form an ideal/submodule pair that bounds it", check_projections),
    ("Thm-2.6-5", "subtractive ideals containing the zero-scalar slice are full-module boxes", check_subtractive_over_slice),
    ("Thm-2.6-6", "every prime ideal of the product contains the zero-scalar slice", check_primes_contain_slice),
    ("Thm-2.6-7", "subtractive primes are full-module boxes of subtractive primes", check_subtractive_primes_are_boxes),
    ("Cor-2.7", "all boxes are subtractive exactly when all factor ideals and submodules are", check_subtractive_transfer),
    ("Cor-2.8", "when every product prime is subtractive, primes and maximals are full-module boxes", check_weak_gaussian_shapes),
    ("Prop-2.11-rev", "weakly prime plus the annihilator condition lifts to the full-module box", check_weakly_prime_lift),
    ("Prop-2.13", "residuals are ideals and radicals of primary submodules are prime", check_residual_and_primary_radical),
    ("Thm-2.14-1", "an ideal is primary exactly when its full-module box is primary", check_primary_box_iff),
    ("Thm-2.14-2", "a primary box forces a primary vector part with matching radicals", check_primary_box_consequences),
    ("Cor-2.15", "with a subtractive module, a box is primary exactly when its parts qualify", check_primary_box_with_subtractive_module),
    ("Prop-3.1", "module zero-divisors are covered by primes inside the zero-divisor set", check_module_zero_divisors_prime_cover),
    ("Thm-3.3-1", "units are exactly unit-scalar, invertible-vector pairs", check_units_formula),
    ("Thm-3.3-2", "idempotents match the componentwise criterion", check_idempotents_formula),
    ("Thm-3.3-3", "nilpotents are nilpotent-scalar pairs and form an ideal", check_nilpotents_formula),
    ("Thm-3.3-4", "zero-divisors are pairs whose scalar kills something", check_zero_divisors_formula),
    ("Prop-3.5", "a semifield of scalars makes the product local", check_semifield_local),
    ("Thm-3.7", "presimplifiable product iff fully invertible module and presimplifiable factors", check_presimplifiable_iff),
    ("Prop-3.9", "presimplifiable structures are strongly associate", check_presimplifiable_strongly_associate),
    ("Prop-3.10", "strong associativity descends to the factors and, under the stated hypotheses, tracks the module", check_strongly_associate_transfer),
    ("Prop-3.12", "domainlike product iff both factors are domainlike", check_domainlike_iff),
    ("Prop-3.14", "with a fully invertible module, clean product iff clean scalars", check_clean_transfer),
    ("Prop-3.16", "almost clean product iff scalar decompositions avoid both zero-divisor sets", check_almost_clean_iff),
    ("Prop-3.18", "with a fully invertible module, weakly clean product iff weakly clean scalars", check_weakly_clean_transfer),
    ("Prop-3.19", "additive regularity is componentwise", check_additively_regular_componentwise),
    ("law-v-set", "additively invertible elements are exactly closed under addition", check_v_set_law),
    ("law-units-regular", "no unit is a zero-divisor", check_units_not_zero_divisors),
    ("law-nil-in-primes", "nilpotents lie in every prime ideal", check_nilpotents_in_primes),
)

CHECK_STATEMENTS = {theorem: statement for theorem, statement, _fn in CHECKS}
CHECK_STATEMENTS["numeric-weight-laws"] = "weight arithmetic satisfies the carrier laws within tolerance"
CHECK_STATEMENTS["numeric-oracle"] = "forward totals agree with explicit path enumeration within tolerance"


@dataclass
class GridCell:
    label: str
    semiring: FiniteSemiring
    module: FiniteSemimodule


def default_grid(max_order: int = 3, *, include_builtins: bool = True, module_order: int = 3) -> list[GridCell]:
    """Enumerated pairs up to the given orders plus the builtin pairs with products of at most 16 elements."""
    if not 2 <= max_order <= catalog.MAX_ENUM_ORDER:
        raise catalog.OrderTooLarge(f"supported orders are 2..{catalog.MAX_ENUM_ORDER}, got {max_order}")
    cells = []
    for n in range(2, max_order + 1):
        for semiring in catalog.enumerate_semirings(n):
            for m in range(1, module_order + 1):
                for module in catalog.enumerate_semimodules(semiring, m):
                    cells.append(GridCell(f"E({semiring.name}, {module.name})", semiring, module))
    if include_builtins:
        for name, semiring, module in catalog.builtin_pairs():
            label = f"E({name}, {module.name or 'M'})"
            cells.append(GridCell(label, semiring, module))
    return cells


def _record(theorem: str, instance: str, decide, *args) -> CheckRecord:
    """Time ``decide(*args)``, which returns (status, witness); a crash becomes a FAIL record."""
    started = time.perf_counter()
    try:
        status, witness = decide(*args)
    except Exception as exc:  # a crashed check is a failed check
        status, witness = FAIL, {"error": f"{type(exc).__name__}: {exc}"}
    return CheckRecord(theorem, instance, status, witness, time.perf_counter() - started)


def run_pair(label: str, semiring: FiniteSemiring, module: FiniteSemimodule):
    """Run every registered check on one grid cell."""
    ctx = PairContext(label=label, semiring=semiring, module=module)
    records = [_record(theorem, label, fn, ctx) for theorem, _statement, fn in CHECKS]
    return records, list(ctx.strongly_associate_only)


def _run_cell(cell: GridCell):
    return run_pair(cell.label, cell.semiring, cell.module)


def _run_cells(cells: list[GridCell], workers: int):
    """Records and strongly-associate-only labels of each cell, in grid order.

    The cells run in ``workers`` processes (1: this one), sent in about 16
    chunks per worker: one cell per chunk pays a round trip per cell, and
    large chunks leave a worker idle at the end.
    """
    if workers <= 1:
        yield from map(_run_cell, cells)
        return
    import multiprocessing  # loaded only by a run that starts a pool

    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(_run_cell, cells, chunksize=-(-len(cells) // (16 * workers)))


def weakly_prime_forward_probe() -> dict:
    """Exhaustive probe of the converse lift on the modulus-4 self-module.

    Scans whether the full-module box over the even ideal is weakly prime
    even though the annihilator condition fails; a True outcome means the
    converse direction of the lift does not hold in general.  Informational
    only, never a suite failure.
    """
    semiring = catalog.builtin("zmod_4")
    module = catalog.self_module(semiring)
    instance = build_expectation(semiring, module)
    box_wp = is_weakly_prime(Ideal(instance.product, box_members(instance, {0, 2}, module.elements())))
    violating = _annihilator_condition_violations(semiring, module)
    condition_holds = not violating
    return {
        "id": "weakly-prime-forward-probe",
        "instance": "E(zmod_4, zmod_4)",
        "ideal": [0, 2],
        "box_weakly_prime": box_wp,
        "annihilator_condition_holds": condition_holds,
        "condition_witness": list(violating[0]) if violating else None,
        "counterexample_exists": box_wp and not condition_holds,
    }


@dataclass
class VerificationReport:
    records: list[CheckRecord]
    informational: list[dict]
    grid_labels: list[str]
    seed: int

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == FAIL]

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, NA: 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def by_theorem(self) -> dict[str, dict[str, int]]:
        table: dict[str, dict[str, int]] = {}
        for r in self.records:
            row = table.setdefault(r.theorem, {PASS: 0, FAIL: 0, NA: 0})
            row[r.status] += 1
        return table

    def to_dict(self) -> dict:
        return {
            "schema": "semiringlab/verification-report/1",
            "seed": self.seed,
            "grid": {"instances": self.grid_labels},
            "checks": dict(CHECK_STATEMENTS),
            "records": [r.to_dict() for r in self.records],
            "informational": self.informational,
            "summary": self.counts(),
        }

    def format_matrix(self) -> str:
        lines = [f"{'check':<16} {'pass':>6} {'fail':>6} {'n/a':>6}"]
        for theorem, row in self.by_theorem().items():
            lines.append(f"{theorem:<16} {row[PASS]:>6} {row[FAIL]:>6} {row[NA]:>6}")
        counts = self.counts()
        lines.append(
            f"instances: {len(self.grid_labels)}  checks: {len(self.records)}  "
            f"pass: {counts[PASS]}  fail: {counts[FAIL]}  n/a: {counts[NA]}"
        )
        return "\n".join(lines)


def _numeric_section(scan, seed: int, trials: int):
    """Status and first three failures of a seeded numeric scan."""
    failures = scan(random.Random(seed), trials)
    return (FAIL if failures else PASS), failures[:3] or None


def run_suite(
    cells: list[GridCell], *, seed: int = 0, jobs: int = 1, include_numeric: bool = True
) -> VerificationReport:
    """Run all checks over the grid, the numeric sections, and the probes."""
    records: list[CheckRecord] = []
    strongly_associate_only: list[str] = []
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    for cell_records, cell_labels in _run_cells(cells, workers):
        records.extend(cell_records)
        strongly_associate_only.extend(cell_labels)

    if include_numeric:
        sections = (
            ("numeric-weight-laws", "random weights", weight_law_failures, seed, 1000),
            ("numeric-oracle", "random graphs", oracle_disagreements, seed + 1, 100),
        )
        for theorem, instance, scan, scan_seed, trials in sections:
            records.append(_record(theorem, instance, _numeric_section, scan, scan_seed, trials))

    informational = [weakly_prime_forward_probe()]
    informational.append(
        {
            "id": "strongly-associate-not-presimplifiable-census",
            "count": len(strongly_associate_only),
            "examples": sorted(strongly_associate_only)[:8],
        }
    )
    return VerificationReport(
        records=records,
        informational=informational,
        grid_labels=[cell.label for cell in cells],
        seed=seed,
    )
