"""The expectation semiring of a semimodule.

Given a semiring S and an S-semimodule M, the product carrier S x M with

    (s1, m1) + (s2, m2) = (s1 + s2, m1 + m2)
    (s1, m1) * (s2, m2) = (s1*s2, s1*m2 + s2*m1)

is again a semiring (the semiring analog of extending a ring trivially by a
module).  This module builds it as a plain FiniteSemiring over row-major
pair indices, exhibits the degree decomposition into the scalar slice and
the zero-scalar slice, and cross-checks the triangular-record presentation.
"""

from __future__ import annotations

from collections import Counter

from .records import FrozenRecord
from .tables import (
    BaseMismatch,
    FiniteSemimodule,
    FiniteSemiring,
    additive_closure,
    checked_semiring,
)


class ExpectationInstance(FrozenRecord):
    """A built product semiring plus back-references to its factors.

    Product index k is the pair (k // m, k % m) of a scalar index and a
    module index, where m is the module size.
    """

    __slots__ = _fields = ("product", "factor_semiring", "factor_module")

    def __init__(self, product: FiniteSemiring, factor_semiring: FiniteSemiring, factor_module: FiniteSemimodule):
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "factor_semiring", factor_semiring)
        object.__setattr__(self, "factor_module", factor_module)

    def index_of(self, s: int, x: int) -> int:
        return s * self.factor_module.size + x

    def pair_of(self, k: int) -> tuple[int, int]:
        return divmod(k, self.factor_module.size)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (scalar index, module index) pair of every product index, in order."""
        return tuple(map(self.pair_of, self.product.elements()))


def build_expectation(semiring: FiniteSemiring, module: FiniteSemimodule) -> ExpectationInstance:
    """Build the expectation semiring of ``module`` over ``semiring``.

    The computed tables go straight to every axiom scan of the validator
    (they skip the JSON parse), so a returned instance is a certified
    semiring and not just an application of the formulas.
    """
    if module.base != semiring:
        raise BaseMismatch("module is not defined over the given semiring")
    n, m = semiring.size, module.size
    s_add, s_mul = semiring.add_table, semiring.mul_table
    m_add, act = module.add_table, module.action_table
    pairs = [(s, x) for s in range(n) for x in range(m)]
    add_rows = tuple([tuple([s_add[s1][s2] * m + m_add[x1][x2] for s2, x2 in pairs]) for s1, x1 in pairs])
    mul_rows = tuple(
        [tuple([s_mul[s1][s2] * m + m_add[act[s1][x2]][act[s2][x1]] for s2, x2 in pairs]) for s1, x1 in pairs]
    )
    zero, one = semiring.zero * m + module.zero, semiring.one * m + module.zero
    product = checked_semiring(add_rows, mul_rows, zero, one, f"E({semiring.name or 'S'}, {module.name or 'M'})")
    return ExpectationInstance(product=product, factor_semiring=semiring, factor_module=module)


def embed_s(instance: ExpectationInstance, s: int) -> int:
    """Product index of the embedded scalar, s -> (s, 0)."""
    return instance.index_of(s, instance.factor_module.zero)


def box_members(instance: ExpectationInstance, scalars, vectors) -> frozenset[int]:
    """Product indices of the pairs (s, x) with s in ``scalars`` and x in ``vectors``."""
    m = instance.factor_module.size
    return frozenset([s * m + x for s in scalars for x in vectors])


def projections(instance: ExpectationInstance, members) -> tuple[frozenset[int], frozenset[int]]:
    """Scalar and module coordinates of the product indices in ``members``."""
    m = instance.factor_module.size
    return frozenset([k // m for k in members]), frozenset([k % m for k in members])


def scalar_slice(instance: ExpectationInstance) -> frozenset[int]:
    """Product indices of the pairs (s, 0): the image of the scalar embedding."""
    return box_members(instance, instance.factor_semiring.elements(), (instance.factor_module.zero,))


def zero_scalar_slice(instance: ExpectationInstance) -> frozenset[int]:
    """Product indices of the pairs (0, x); this set is an ideal of the product."""
    return box_members(instance, (instance.factor_semiring.zero,), instance.factor_module.elements())


def _is_graded(instance: ExpectationInstance, members: frozenset[int]) -> bool:
    """Every member (s, x) splits into (s, 0) and (0, x), both inside the set.

    With m the module size, member k = s*m + x has (s, 0) at k - x + zero_M
    and (0, x) at zero_S*m + x.
    """
    m = instance.factor_module.size
    module_zero, scalar_base = instance.factor_module.zero, instance.factor_semiring.zero * m
    for k in members:
        x = k % m
        if k - x + module_zero not in members or scalar_base + x not in members:
            return False
    return True


def _full_module_box_scalars(instance: ExpectationInstance, members: frozenset[int]) -> frozenset[int] | None:
    """The scalar projection of ``members`` if boxing it with the whole module gives the set back."""
    scalar = projections(instance, members)[0]
    return scalar if box_members(instance, scalar, instance.factor_module.elements()) == members else None


def _first_degree_overflow(product: FiniteSemiring, slices, parts) -> tuple[int, int, int, int] | None:
    """First ``(i, j, a, b)`` with a in ``slices[i]``, b in ``parts[j]`` and ab outside degree i + j.

    Degree d is ``parts[d]`` below 2 and {zero} from 2 on.  With the slices
    (T0, T1) as ``parts`` this is the degree law of the grading; with the
    degree parts of a box it says the box absorbs products.
    """
    mul = product.mul_table
    targets = (*parts, frozenset({product.zero}))
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        target = targets[i + j]
        for a in slices[i]:
            row = mul[a]
            for b in parts[j]:
                if row[b] not in target:
                    return i, j, a, b
    return None


def zero_m_ideal_nilpotency(instance: ExpectationInstance) -> int:
    """Least k with the k-th power of the zero-scalar slice equal to {zero}.

    The k-th power of an ideal is the ideal generated by k-fold products of
    its elements; for an ideal that is just the additive closure of those
    products.  Returns 1 when the module is trivial, 2 otherwise.
    """
    product = instance.product
    slice_ideal = zero_scalar_slice(instance)
    zero_only = 1 << product.zero
    k_fold = slice_ideal
    for k in range(1, product.size + 2):
        if additive_closure(product.add_table, sum(1 << i for i in k_fold)) == zero_only:
            return k
        k_fold = frozenset(product.mul(a, b) for a in k_fold for b in slice_ideal)
    raise RuntimeError("zero-scalar slice failed to nilpotate within the carrier bound")


def matrix_iso_check(instance: ExpectationInstance) -> bool:
    """Cross-check the triangular-record presentation of the product.

    Materializes records (top-left, corner, bottom-right) = (s, m, s) with
    componentwise addition and row-by-column triangular multiplication
    (corner = a11*b12 + a12*b22, via the module action), and compares the
    resulting tables, zero and one with the product under the pair
    bijection.  A result record off the diagonal has no index, so its row
    cannot match.  The product is validated when it is built, so equal
    tables need no second scan.  A theorem says this always returns True;
    False signals an implementation bug.
    """
    semiring = instance.factor_semiring
    module = instance.factor_module
    product = instance.product
    s_add, s_mul = semiring.add_table, semiring.mul_table
    m_add, act = module.add_table, module.action_table

    records = tuple((s, x, s) for s, x in instance.pairs)
    rec_index = {rec: k for k, rec in enumerate(records)}.get

    for k, (a0, a1, a2) in enumerate(records):
        add0, add1, add2 = s_add[a0], m_add[a1], s_add[a2]
        mul0, act0, mul2 = s_mul[a0], act[a0], s_mul[a2]
        act_a1 = [row[a1] for row in act]
        add_row = tuple([rec_index((add0[b0], add1[b1], add2[b2])) for b0, b1, b2 in records])
        mul_row = tuple(
            [rec_index((mul0[b0], m_add[act0[b1]][act_a1[b2]], mul2[b2])) for b0, b1, b2 in records]
        )
        if add_row != product.add_table[k] or mul_row != product.mul_table[k]:
            return False

    return (
        rec_index((semiring.zero, module.zero, semiring.zero)) == product.zero
        and rec_index((semiring.one, module.zero, semiring.one)) == product.one
    )


def graded_decomposition(instance: ExpectationInstance) -> tuple[frozenset[int], frozenset[int]]:
    """Split the product into its scalar slice T0 and zero-scalar slice T1.

    Verifies that every product element is t0 + t1 for exactly one pair
    (t0, t1) in T0 x T1 and that degrees add under multiplication
    (T0*T0 in T0, T0*T1 and T1*T0 in T1, T1*T1 = {zero}).
    """
    product = instance.product
    t0 = scalar_slice(instance)
    t1 = zero_scalar_slice(instance)

    add = product.add_table
    hits = Counter([add[a][b] for a in t0 for b in t1])
    for k in product.elements():
        if hits[k] != 1:
            raise RuntimeError(f"element {instance.pair_of(k)} has {hits[k]} degree decompositions")

    overflow = _first_degree_overflow(product, (t0, t1), (t0, t1))
    if overflow:
        i, j, a, b = overflow
        raise RuntimeError(
            f"degree {i} times degree {j} escapes degree {i + j} at {instance.pair_of(a)} * {instance.pair_of(b)}"
        )
    return t0, t1
