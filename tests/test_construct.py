import pytest

from semiringlab import (
    BaseMismatch,
    build_expectation,
    builtin,
    builtin_pairs,
    embed_s,
    graded_decomposition,
    matrix_iso_check,
    self_module,
    semiring_to_dict,
    semiring_violations,
    trivial_module,
    zero_m_ideal_nilpotency,
    zero_scalar_slice,
    zmod_quotient_module,
)


def boolean_pair():
    s = builtin("boolean")
    return build_expectation(s, self_module(s))


def zmod4_pair():
    s = builtin("zmod_4")
    return build_expectation(s, self_module(s))


def test_product_operations_match_hand_expansion():
    inst = boolean_pair()
    one_one = inst.index_of(1, 1)
    # (1,1) * (1,1) = (1*1, 1*1 + 1*1) = (1, 1+1) = (1, 1)
    assert inst.product.mul(one_one, one_one) == one_one

    inst4 = zmod4_pair()
    two_one = inst4.index_of(2, 1)
    # (2,1) * (2,1) = (2*2, 2*1 + 2*1) = (0, 0) in the modulus-4 carrier
    assert inst4.product.mul(two_one, two_one) == inst4.product.zero


def test_every_builtin_pair_builds_a_valid_semiring():
    for _name, semiring, module in builtin_pairs():
        inst = build_expectation(semiring, module)
        assert semiring_violations(semiring_to_dict(inst.product)) == []
        assert inst.product.size == semiring.size * module.size


def test_base_mismatch_rejected():
    b = builtin("boolean")
    with pytest.raises(BaseMismatch):
        build_expectation(b, zmod_quotient_module(4, 2))
    z2 = builtin("zmod_2")  # same size as boolean, other tables
    with pytest.raises(BaseMismatch):
        build_expectation(z2, self_module(b))
    # the base is compared by its tables: field_3 and zmod_3 differ only in the label
    field, zmod = builtin("field_3"), builtin("zmod_3")
    assert build_expectation(field, self_module(zmod)).product.size == 9


def test_embedding_is_a_homomorphism():
    inst = zmod4_pair()
    s_ring, e_ring = inst.factor_semiring, inst.product
    emb = {s: embed_s(inst, s) for s in s_ring.elements()}
    assert emb[s_ring.zero] == e_ring.zero
    assert emb[s_ring.one] == e_ring.one
    for s in s_ring.elements():
        for t in s_ring.elements():
            assert e_ring.add(emb[s], emb[t]) == emb[s_ring.add(s, t)]
            assert e_ring.mul(emb[s], emb[t]) == emb[s_ring.mul(s, t)]


def test_slice_nilpotency_is_two():
    assert zero_m_ideal_nilpotency(boolean_pair()) == 2
    assert zero_m_ideal_nilpotency(zmod4_pair()) == 2


def test_slice_nilpotency_trivial_module():
    s = builtin("zmod_4")
    inst = build_expectation(s, trivial_module(s))
    assert zero_m_ideal_nilpotency(inst) == 1


def test_matrix_presentation_agrees():
    assert matrix_iso_check(boolean_pair())
    z4 = builtin("zmod_4")
    inst = build_expectation(z4, zmod_quotient_module(4, 2))
    assert matrix_iso_check(inst)


def _swap_in_row_one(table):
    """``table`` with the entry at column 0 of row 1 swapped with the first different one."""
    rows = [list(row) for row in table]
    row = rows[1]
    c = next(c for c, v in enumerate(row) if v != row[0])
    row[0], row[c] = row[c], row[0]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("field", ["add_table", "mul_table", "one"])
def test_matrix_presentation_rejects_a_product_off_the_factors(field):
    inst = zmod4_pair()
    product = inst.product
    if field == "one":
        wrong = next(k for k in product.elements() if k not in (product.zero, product.one))
    else:
        wrong = _swap_in_row_one(getattr(product, field))
    assert matrix_iso_check(inst)
    assert not matrix_iso_check(inst.replace(product=product.replace(**{field: wrong})))


def test_degree_slices_of_boolean_pair():
    inst = boolean_pair()
    t0, t1 = graded_decomposition(inst)
    as_pairs = lambda members: {inst.pair_of(k) for k in members}
    assert as_pairs(t0) == {(0, 0), (1, 0)}
    assert as_pairs(t1) == {(0, 0), (0, 1)}


def test_degree_one_times_degree_one_vanishes():
    inst = zmod4_pair()
    t1 = zero_scalar_slice(inst)
    products = {inst.product.mul(a, b) for a in t1 for b in t1}
    assert products == {inst.product.zero}


def test_degree_law_failure_names_the_offending_pair():
    inst = zmod4_pair()
    product = inst.product
    a, b = inst.index_of(0, 1), inst.index_of(0, 2)
    rows = [list(row) for row in product.mul_table]
    rows[a][b] = inst.index_of(0, 3)  # (0, 1)(0, 2) is (0, 0) in the product
    broken = inst.replace(product=product.replace(mul_table=tuple(map(tuple, rows))))
    with pytest.raises(RuntimeError) as err:
        graded_decomposition(broken)
    assert str(err.value) == "degree 1 times degree 1 escapes degree 2 at (0, 1) * (0, 2)"


def test_every_pair_decomposes_uniquely():
    for _name, semiring, module in builtin_pairs():
        graded_decomposition(build_expectation(semiring, module))


def _fold(table, start: int, x: int, k: int) -> int:
    """``start`` combined k times with ``x`` through ``table``."""
    for _ in range(k):
        start = table[start][x]
    return start


def test_power_formula():
    # (s,m)^k = (s^k, k * s^(k-1) * m), the k-fold sum taken in the module
    inst = zmod4_pair()
    s_ring, module, e_ring = inst.factor_semiring, inst.factor_module, inst.product
    power = lambda s, k: _fold(s_ring.mul_table, s_ring.one, s, k)
    for s in s_ring.elements():
        for x in module.elements():
            k_power = inst.index_of(s, x)
            for k in range(1, 6):
                expected = inst.index_of(
                    power(s, k),
                    _fold(module.add_table, module.zero, module.act(power(s, k - 1), x), k),
                )
                assert k_power == expected
                k_power = e_ring.mul(k_power, inst.index_of(s, x))
