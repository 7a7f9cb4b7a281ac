import pytest

from semiringlab import (
    Census,
    build_expectation,
    builtin,
    classify,
    self_module,
    trivial_module,
    zmod_quotient_module,
)


def test_unit_sets():
    assert Census(builtin("boolean").structure).units.indices() == (1,)
    assert Census(builtin("zmod_4").structure).units.indices() == (1, 3)


def test_idempotent_and_nilpotent_sets():
    z4 = builtin("zmod_4").structure
    assert Census(z4).idempotents.indices() == (0, 1)
    assert Census(z4).nilpotents.indices() == (0, 2)
    b = builtin("boolean").structure
    assert Census(b).nilpotents.indices() == (0,)


def test_zero_divisor_sets():
    assert Census(builtin("zmod_4").structure).zero_divisors.indices() == (0, 2)
    assert Census(builtin("boolean").structure).zero_divisors.indices() == (0,)
    assert Census(zmod_quotient_module(4, 2)).zero_divisors.indices() == (0, 2)
    trivial = Census(trivial_module(builtin("boolean").structure))
    assert trivial.zero_divisors.indices() == ()
    assert trivial.domainlike is True


def test_semifield_probe():
    assert Census(builtin("boolean").structure).semifield
    assert Census(builtin("zmod_3").structure).semifield
    assert not Census(builtin("zmod_4").structure).semifield
    assert not Census(builtin("chain_2").structure).semifield


def test_local_probe():
    assert Census(builtin("zmod_4").structure).local
    assert not Census(builtin("zmod_6").structure).local
    b = builtin("boolean").structure
    assert Census(build_expectation(b, self_module(b)).product).local


@pytest.mark.parametrize(
    "name", ["boolean", "zmod_4", "zmod_6", "chain_2", "trunc_nat_2", "trunc_nat_3", "diamond"]
)
def test_local_matches_unique_maximal_ideal(name):
    # independent route: count maximal ideals instead of testing the nonunit set
    from semiringlab import enumerate_ideals, is_maximal

    s = builtin(name).structure
    ideals = enumerate_ideals(s)
    maximal = [i for i in ideals if is_maximal(i, ideals)]
    assert Census(s).local == (len(maximal) == 1)


def test_presimplifiable_examples():
    assert Census(builtin("zmod_4").structure).presimplifiable
    assert Census(builtin("boolean").structure).presimplifiable
    b = builtin("boolean").structure
    product = build_expectation(b, self_module(b)).product
    # witness (1,1) * (0,1) = (0,1) with (1,1) not a unit
    assert not Census(product).presimplifiable
    assert Census(self_module(builtin("zmod_4").structure)).presimplifiable


def test_associate_relations():
    z4 = builtin("zmod_4").structure
    m = self_module(z4)
    assert Census(m).associates(1, 3)
    assert Census(m).strong_associates(1, 3)  # 1 = 3 * 3
    assert Census(z4).strongly_associate
    assert Census(builtin("boolean").structure).strongly_associate


def test_domainlike_examples():
    assert Census(builtin("zmod_4").structure).domainlike
    assert Census(builtin("boolean").structure).domainlike
    assert not Census(builtin("zmod_6").structure).domainlike
    assert Census(self_module(builtin("zmod_4").structure)).domainlike


def test_clean_examples():
    z4 = builtin("zmod_4").structure
    assert Census(z4).clean  # 0=3+1, 1=1+0, 2=1+1, 3=3+0
    b = builtin("boolean").structure
    assert not Census(b).clean  # unit+idempotent sums never reach 0
    assert Census(b).weakly_clean
    assert Census(b).weakly_clean_literal


def test_almost_clean_examples():
    assert Census(builtin("zmod_4").structure).almost_clean
    b = builtin("boolean").structure
    assert not Census(b).almost_clean
    assert not Census(b).almost_clean_by_parts(Census(self_module(b)))
    z4 = builtin("zmod_4").structure
    assert Census(z4).almost_clean_by_parts(Census(self_module(z4)))


def test_additive_regularity():
    assert Census(builtin("boolean").structure).additively_regular
    assert Census(builtin("zmod_4").structure).additively_regular
    trunc = builtin("trunc_nat_2").structure
    assert not Census(trunc).additively_regular
    assert Census(trunc).additively_regular_elements.indices() == (0, 2)


def test_classify_boolean():
    report = classify(builtin("boolean").structure)
    assert report["units"] == [1]
    assert report["nilpotents"] == [0]
    assert report["zero_divisors"] == [0]
    assert report["flags"]["clean"] is False
    assert report["flags"]["additively_regular"] is True
    assert isinstance(report["flags"], dict)


def test_classify_product_instance():
    z4 = builtin("zmod_4").structure
    inst = build_expectation(z4, self_module(z4))
    report = classify(inst.product)
    assert report["size"] == 16
    assert report["flags"]["clean"] is True
    as_pairs = {inst.pair_of(k) for k in report["units"]}
    assert as_pairs == {(s, m) for s in (1, 3) for m in range(4)}


def test_trivial_module_product_classifies_like_base():
    z4 = builtin("zmod_4").structure
    inst = build_expectation(z4, trivial_module(z4))
    base_report = classify(z4)
    product_report = classify(inst.product)
    assert product_report["flags"] == base_report["flags"]
    assert len(product_report["units"]) == len(base_report["units"])
