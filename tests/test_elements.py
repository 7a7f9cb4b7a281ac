import pytest

from semiringlab import (
    EmptyModule,
    additively_regular_elements,
    almost_clean_by_parts,
    associates,
    build_expectation,
    builtin,
    classify,
    idempotents,
    is_additively_regular,
    is_almost_clean,
    is_clean,
    is_domainlike,
    is_local,
    is_presimplifiable,
    is_semifield,
    is_strongly_associate,
    is_weakly_clean,
    nilpotents,
    self_module,
    strong_associates,
    trivial_module,
    units,
    zero_divisors,
    zmod_quotient_module,
)


def test_unit_sets():
    assert units(builtin("boolean").structure).indices() == (1,)
    assert units(builtin("zmod_4").structure).indices() == (1, 3)


def test_idempotent_and_nilpotent_sets():
    z4 = builtin("zmod_4").structure
    assert idempotents(z4).indices() == (0, 1)
    assert nilpotents(z4).indices() == (0, 2)
    b = builtin("boolean").structure
    assert nilpotents(b).indices() == (0,)


def test_zero_divisor_sets():
    assert zero_divisors(builtin("zmod_4").structure).indices() == (0, 2)
    assert zero_divisors(builtin("boolean").structure).indices() == (0,)
    assert zero_divisors(zmod_quotient_module(4, 2)).indices() == (0, 2)
    with pytest.raises(EmptyModule):
        zero_divisors(trivial_module(builtin("boolean").structure))


def test_semifield_probe():
    assert is_semifield(builtin("boolean").structure)
    assert is_semifield(builtin("zmod_3").structure)
    assert not is_semifield(builtin("zmod_4").structure)
    assert not is_semifield(builtin("chain_2").structure)


def test_local_probe():
    assert is_local(builtin("zmod_4").structure)
    assert not is_local(builtin("zmod_6").structure)
    b = builtin("boolean").structure
    assert is_local(build_expectation(b, self_module(b)).product)


@pytest.mark.parametrize(
    "name", ["boolean", "zmod_4", "zmod_6", "chain_2", "trunc_nat_2", "trunc_nat_3", "diamond"]
)
def test_local_matches_unique_maximal_ideal(name):
    # independent route: count maximal ideals instead of testing the nonunit set
    from semiringlab import enumerate_ideals, is_maximal

    s = builtin(name).structure
    ideals = enumerate_ideals(s)
    maximal = [i for i in ideals if i.is_proper() and is_maximal(i, ideals)]
    assert is_local(s) == (len(maximal) == 1)


def test_presimplifiable_examples():
    assert is_presimplifiable(builtin("zmod_4").structure)
    assert is_presimplifiable(builtin("boolean").structure)
    b = builtin("boolean").structure
    product = build_expectation(b, self_module(b)).product
    # witness (1,1) * (0,1) = (0,1) with (1,1) not a unit
    assert not is_presimplifiable(product)
    assert is_presimplifiable(self_module(builtin("zmod_4").structure))


def test_associate_relations():
    z4 = builtin("zmod_4").structure
    m = self_module(z4)
    assert associates(m, 1, 3)
    assert strong_associates(m, 1, 3)  # 1 = 3 * 3
    assert is_strongly_associate(z4)
    assert is_strongly_associate(builtin("boolean").structure)


def test_domainlike_examples():
    assert is_domainlike(builtin("zmod_4").structure)
    assert is_domainlike(builtin("boolean").structure)
    assert not is_domainlike(builtin("zmod_6").structure)
    assert is_domainlike(self_module(builtin("zmod_4").structure))


def test_clean_examples():
    z4 = builtin("zmod_4").structure
    assert is_clean(z4)  # 0=3+1, 1=1+0, 2=1+1, 3=3+0
    b = builtin("boolean").structure
    assert not is_clean(b)  # unit+idempotent sums never reach 0
    assert is_weakly_clean(b)
    assert is_weakly_clean(b, literal=True)


def test_almost_clean_examples():
    assert is_almost_clean(builtin("zmod_4").structure)
    b = builtin("boolean").structure
    assert not is_almost_clean(b)
    assert not almost_clean_by_parts(b, self_module(b))
    z4 = builtin("zmod_4").structure
    assert almost_clean_by_parts(z4, self_module(z4))


def test_additive_regularity():
    assert is_additively_regular(builtin("boolean").structure)
    assert is_additively_regular(builtin("zmod_4").structure)
    trunc = builtin("trunc_nat_2").structure
    assert not is_additively_regular(trunc)
    assert additively_regular_elements(trunc).indices() == (0, 2)


def test_classify_boolean():
    report = classify(builtin("boolean").structure)
    assert report.units.indices() == (1,)
    assert report.nilpotents.indices() == (0,)
    assert report.zero_divisors.indices() == (0,)
    assert report.flags["clean"] is False
    assert report.flags["additively_regular"] is True
    payload = report.to_dict()
    assert payload["units"] == [1] and isinstance(payload["flags"], dict)


def test_classify_product_instance():
    z4 = builtin("zmod_4").structure
    inst = build_expectation(z4, self_module(z4))
    report = classify(inst)
    assert report.size == 16
    assert report.flags["clean"] is True
    as_pairs = {inst.pair_of(k) for k in report.units.members}
    assert as_pairs == {(s, m) for s in (1, 3) for m in range(4)}


def test_trivial_module_product_classifies_like_base():
    z4 = builtin("zmod_4").structure
    inst = build_expectation(z4, trivial_module(z4))
    base_report = classify(z4)
    product_report = classify(inst)
    assert product_report.flags == base_report.flags
    assert len(product_report.units) == len(base_report.units)
