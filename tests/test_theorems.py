import multiprocessing
import os
from collections import Counter
from dataclasses import replace
from functools import cached_property, partial

import pytest

from semiringlab import (
    Census,
    build_expectation,
    builtin,
    catalog,
    ideals,
    run_pair,
    run_suite,
    self_module,
    theorems,
    weakly_prime_forward_probe,
)
from semiringlab.ideals import Ideal, NotAnIdeal, NotASubmodule, Subsemimodule
from semiringlab.tables import FiniteSemimodule, InvalidStructure, same_semiring, semimodule_violations
from semiringlab.theorems import (
    CHECKS,
    FAIL,
    NA,
    PASS,
    GridCell,
    PairContext,
    check_primary_box_with_subtractive_module,
    check_product_is_semiring,
    default_grid,
)


def test_check_registry_ids_are_unique():
    ids = [theorem for theorem, _stmt, _fn in CHECKS]
    assert len(ids) == len(set(ids))


def test_boolean_pair_passes_every_check():
    b = builtin("boolean").structure
    records, _census = run_pair("E(boolean, boolean)", b, self_module(b))
    assert [r.theorem for r in records] == [theorem for theorem, _s, _f in CHECKS]
    assert all(r.status != FAIL for r in records)


def test_zmod4_pair_statuses():
    z4 = builtin("zmod_4").structure
    records, _census = run_pair("E(zmod_4, zmod_4)", z4, self_module(z4))
    by_id = {r.theorem: r for r in records}
    assert all(r.status != FAIL for r in records)
    # the scalars are not a semifield, so the locality transfer is out of scope here
    assert by_id["Prop-3.5"].status == NA
    assert by_id["Prop-3.1"].status == "pass"
    assert by_id["Thm-3.3-1"].status == "pass"


def test_census_entries_are_computed_once_per_carrier(monkeypatch):
    # The cell context keeps one census per carrier role, and the scalar
    # census is the module census's base, so every element set and class
    # flag is computed at most once per carrier, and the scalar units once.
    z4 = builtin("zmod_4").structure
    module = self_module(z4)
    roles = {id(z4): "scalar", id(module): "module"}
    calls = Counter()
    for name, value in list(vars(Census).items()):
        if isinstance(value, cached_property):

            def counted(census, _name=name, _compute=value.func):
                calls[_name, roles.get(id(census.structure), "product")] += 1
                return _compute(census)

            entry = cached_property(counted)
            entry.__set_name__(Census, name)
            monkeypatch.setattr(Census, name, entry)
    records, _census = run_pair("E(zmod_4, zmod_4)", z4, module)
    assert all(r.status != FAIL for r in records)
    assert {key: n for key, n in calls.items() if n > 1} == {}
    assert calls["units", "scalar"] == 1
    assert {name for name, _role in calls} >= {
        "units", "idempotents", "nilpotents", "zero_divisors", "additively_regular_elements", "v_set",
        "presimplifiable", "strongly_associate", "domainlike", "clean", "almost_clean", "weakly_clean",
    }


def test_ideal_layer_facts_are_derived_once_per_cell(monkeypatch):
    # The cell context memoises the ideal-layer predicates by carrier role
    # and member set, so each runs at most once per distinct argument.
    semiring = catalog.enumerate_semirings(3)[0].structure
    module = catalog.enumerate_semimodules(semiring, 3)[0].structure
    assert len(ideals.enumerate_ideals(semiring)) == 3
    assert len(ideals.enumerate_subsemimodules(module)) == 4

    def role(carrier):
        if isinstance(carrier, FiniteSemimodule):
            return "module"
        return "scalar" if same_semiring(carrier, semiring) else "product"

    calls = Counter()
    for name in ("is_prime", "radical", "is_primary", "is_subtractive"):
        original = getattr(ideals, name)

        def counted(subset, _name=name, _original=original):
            calls[_name, role(subset.parent), subset.members] += 1
            return _original(subset)

        for owner in (ideals, theorems):
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, counted)
    records, _census = run_pair("E(S3.00, M3.00)", semiring, module)
    assert all(r.status != FAIL for r in records)
    assert {name for name, _role, _members in calls} == {"is_prime", "radical", "is_primary", "is_subtractive"}
    assert {key: n for key, n in calls.items() if n > 1} == {}


def test_context_ideal_reads_the_enumeration_and_validates_the_rest():
    z4 = builtin("zmod_4").structure
    ctx = PairContext(label="E(zmod_4, zmod_4)", semiring=z4, module=self_module(z4))
    evens = frozenset({0, 2})
    assert ctx.ideal("scalar", evens) is next(i for i in ctx.ideals_s if i.members == evens)
    box = ctx.boxables[-1][2]
    assert ctx.ideal("product", box.members) is next(j for j in ctx.ideals_e if j.members == box.members)
    # a set outside the enumeration fails exactly as the validating constructor does:
    # {0, 1} is not closed under addition, the scalar copy {(s, 0)} is closed
    # under addition but does not absorb the product, and the module set {1}
    # is not closed under addition either (1 + 1 = 2)
    scalar_copy = frozenset(ctx.instance.index_of(s, 0) for s in z4.elements())
    rows = (
        (partial(ctx.ideal, "scalar"), partial(Ideal, z4), frozenset({0, 1}), NotAnIdeal),
        (partial(ctx.ideal, "product"), partial(Ideal, ctx.product), scalar_copy, NotAnIdeal),
        (ctx.submodule, partial(Subsemimodule, ctx.module), frozenset({1}), NotASubmodule),
    )
    for read, construct, members, error in rows:
        with pytest.raises(error) as err:
            read(members)
        with pytest.raises(error) as direct:
            construct(members)
        assert err.value.witness == direct.value.witness != ()
        assert str(err.value) == str(direct.value)
    assert str(err.value) == "not a subsemimodule: fails add closure at (1, 1)"


def test_primary_box_criterion_requires_a_primary_scalar_part():
    # On E(S4.06, M2.01) every subsemimodule is subtractive, and I = {0},
    # N = {0} meet the criterion without its first clause: N is primary and
    # rad I = rad(N : M) = {0, 3}.  The box is not primary, since
    # (3, 0)(2, 0) = (0, 0) and no power of (2, 0) lies in it; nor is I,
    # since 3 * 2 = 0.  Requiring I primary makes Cor-2.15 pass here.
    semiring = next(e.structure for e in catalog.enumerate_semirings(4) if e.name == "S4.06")
    module = next(e.structure for e in catalog.enumerate_semimodules(semiring, 2) if e.name == "M2.01")
    ctx = PairContext(label="E(S4.06, M2.01)", semiring=semiring, module=module)
    assert all(ideals.is_subtractive(n) for n in ctx.submods_m)
    i, n = ctx.ideal("scalar", frozenset({0})), ctx.submodule(frozenset({0}))
    box = next(box for i_, n_, box in ctx.boxables if i_ is i and n_ is n)
    assert ideals.is_primary_submodule(n)
    assert ideals.radical(i).members == ideals.radical(ideals.residual(n)).members == {0, 3}
    assert not ideals.is_primary(box) and not ideals.is_primary(i)
    assert check_primary_box_with_subtractive_module(ctx) == (PASS, None)


def test_suite_report_shape_and_uniqueness():
    b = builtin("boolean").structure
    z2 = builtin("zmod_2").structure
    cells = [
        GridCell("E(boolean, boolean)", b, self_module(b)),
        GridCell("E(zmod_2, zmod_2)", z2, self_module(z2)),
    ]
    report = run_suite(cells, seed=0)
    grid_records = [r for r in report.records if not r.theorem.startswith("numeric")]
    seen = {(r.theorem, r.instance) for r in grid_records}
    assert len(seen) == len(grid_records) == len(CHECKS) * len(cells)
    assert not report.failures()
    payload = report.to_dict()
    assert payload["schema"] == "semiringlab/verification-report/1"
    assert set(payload["summary"]) == {"pass", "fail", "not-applicable"}
    assert "Thm-2.6-3" in payload["checks"]


def test_numeric_sections_present():
    b = builtin("boolean").structure
    report = run_suite([GridCell("E(boolean, zero)", b, self_module(b))], seed=5)
    ids = {r.theorem for r in report.records}
    assert "numeric-weight-laws" in ids and "numeric-oracle" in ids


def test_forward_probe_confirms_counterexample():
    probe = weakly_prime_forward_probe()
    assert probe["box_weakly_prime"] is True
    assert probe["annihilator_condition_holds"] is False
    assert probe["condition_witness"] == [2, 2]
    assert probe["counterexample_exists"] is True


def test_probe_is_informational_not_a_failure():
    b = builtin("boolean").structure
    report = run_suite([GridCell("E(boolean, boolean)", b, self_module(b))], seed=0)
    ids = {note["id"] for note in report.informational}
    assert "weakly-prime-forward-probe" in ids
    assert "strongly-associate-not-presimplifiable-census" in ids
    assert not report.failures()


def test_parallel_run_matches_sequential():
    cells = default_grid(max_order=2, include_builtins=False)
    sequential = run_suite(cells, seed=0, include_numeric=False)
    parallel = run_suite(cells, seed=0, jobs=2, include_numeric=False)
    key = lambda report: [(r.theorem, r.instance, r.status, r.witness) for r in report.records]
    assert key(sequential) == key(parallel)


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size and chunk sizes, maps in this process."""

    sizes: list = []
    chunks: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, iterable, chunksize):
        self.chunks.append(chunksize)
        return map(fn, iterable)


@pytest.mark.parametrize("cpus, jobs, expected", [(8, 64, 3), (8, 2, 2), (2, 64, 2), (None, 64, None)])
def test_jobs_are_bounded_by_cells_and_cpus(monkeypatch, cpus, jobs, expected):
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "chunks", [])
    cells = default_grid(max_order=2, include_builtins=False)[:3]
    sequential = run_suite(cells, seed=0, include_numeric=False)
    parallel = run_suite(cells, seed=0, jobs=jobs, include_numeric=False)
    # one CPU (cpu_count() unknown) runs the cells in this process, without a pool
    assert RecordingPool.sizes == ([] if expected is None else [expected])
    assert RecordingPool.chunks == ([] if expected is None else [1])
    key = lambda report: [(r.theorem, r.instance, r.status, r.witness) for r in report.records]
    assert key(sequential) == key(parallel)


@pytest.mark.parametrize("count, workers, chunksize", [(655, 2, 21), (68, 2, 3), (64, 2, 2), (3, 3, 1)])
def test_cells_go_to_workers_in_about_16_chunks_each(monkeypatch, count, workers, chunksize):
    # 655 is the order-4 grid with the catalog, 68 the default grid
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "chunks", [])
    monkeypatch.setattr(theorems, "_run_cell", lambda cell: cell)
    assert list(theorems._run_cells(list(range(count)), workers)) == list(range(count))
    assert (RecordingPool.sizes, RecordingPool.chunks) == ([workers], [chunksize])


def test_matrix_rendering_mentions_totals():
    b = builtin("boolean").structure
    report = run_suite([GridCell("E(boolean, boolean)", b, self_module(b))], seed=0)
    text = report.format_matrix()
    assert "instances: 1" in text and "fail: 0" in text


def test_product_check_lists_violated_axioms_of_a_broken_module():
    # an unvalidated module whose unit scalar acts as zero: (1, 0) is no longer the identity
    b = builtin("boolean").structure
    dead = FiniteSemimodule(
        base=b, size=2, add_table=((0, 1), (1, 1)), action_table=((0, 0), (0, 0)), zero=0
    )
    ctx = PairContext(label="E(boolean, dead)", semiring=b, module=dead)
    assert check_product_is_semiring(ctx) == (FAIL, ["mul_identity(1)"])
    # an unvalidated zmod_3 whose mul[2][2] leaves the carrier: past its end, below
    # zero, past one byte; the product entry is out of range, never read through
    z3 = builtin("zmod_3").structure
    for v in (3, -1, 300):
        mul = tuple(
            tuple(v if (r, c) == (2, 2) else x for c, x in enumerate(row)) for r, row in enumerate(z3.mul_table)
        )
        bad = replace(z3, mul_table=mul)
        zero = FiniteSemimodule(base=bad, size=1, add_table=((0,),), action_table=((0,),) * 3, zero=0)
        ctx = PairContext(label="E(bad, zero)", semiring=bad, module=zero)
        assert check_product_is_semiring(ctx) == (FAIL, ["mul_entry_range(2, 2)"])
        with pytest.raises(InvalidStructure) as err:
            build_expectation(bad, zero)
        assert [str(x) for x in err.value.violations] == ["mul_entry_range(2, 2)"]
        # a module over it is refused by the same guard on the base's tables
        with pytest.raises(InvalidStructure) as err:
            catalog.trivial_module(bad)
        assert [str(x) for x in err.value.violations] == ["base_mul_entry_range(2, 2)"]
        # the JSON boundary reports a file's bad entries and then the base's, as that guard does
        data = {"size": 1, "zero": 0, "add": [[True]], "action": [[0]] * 3}
        found = [str(x) for x in semimodule_violations(bad, data)]
        assert found == ["add_entry_range(0, 0)", "base_mul_entry_range(2, 2)"]


# The even ideal boxed with the whole module: the one prime and maximal ideal of E(zmod_4, zmod_4).
EVEN_BOX = [[s, x] for s in (0, 2) for x in range(4)]
REAL_IS_PRIME, REAL_IS_MAXIMAL = ideals.is_prime, ideals.is_maximal


@pytest.mark.parametrize(
    "patches, expected",
    [
        ({"_full_module_box_scalars": lambda *args: None},
         {"Thm-2.6-7": {"prime": EVEN_BOX}, "Cor-2.8": {"prime": EVEN_BOX}}),
        ({"is_prime": lambda ideal: ideal.parent.size == 16 and REAL_IS_PRIME(ideal)},
         {"Thm-2.6-7": {"scalar_part": [0, 2]}, "Cor-2.8": {"scalar_part": [0, 2]}}),
        ({"is_prime": lambda ideal: False, "_full_module_box_scalars": lambda *args: None},
         {"Thm-2.6-7": None, "Cor-2.8": {"maximal": EVEN_BOX}}),
        ({"is_prime": lambda ideal: False,
          "is_maximal": lambda ideal, among: ideal.parent.size == 16 and REAL_IS_MAXIMAL(ideal, among)},
         {"Thm-2.6-7": None, "Cor-2.8": {"scalar_part": [0, 2]}}),
    ],
    ids=["no-box", "scalar-part-not-prime", "maximal-no-box", "scalar-part-not-maximal"],
)
def test_full_module_box_witnesses_are_pinned(monkeypatch, patches, expected):
    for name, fn in patches.items():
        monkeypatch.setattr(theorems, name, fn)
    z4 = builtin("zmod_4").structure
    records, _census = run_pair("E(zmod_4, zmod_4)", z4, self_module(z4))
    got = {r.theorem: r.witness for r in records if r.theorem in expected}
    assert got == expected
    assert {r.theorem: r.status for r in records if r.theorem in expected} == {
        theorem: PASS if witness is None else FAIL for theorem, witness in expected.items()
    }


def test_box_check_reports_a_legal_box_that_is_no_ideal(monkeypatch):
    # Every scalar counted as carrying the module anywhere makes every box
    # legal; {0, 2} x {0} is not an ideal, as (1, 1)(2, 0) = (2, 2) shows.
    # Thm-2.6-2 reads legality apart from the validated boxes, so it reports
    # that pair instead of the constructor's crash.
    monkeypatch.setattr(theorems, "residual_members", lambda module, members: frozenset(module.base.elements()))
    z4 = builtin("zmod_4").structure
    records, _census = run_pair("E(zmod_4, zmod_4)", z4, self_module(z4))
    by_id = {r.theorem: r for r in records}
    assert (by_id["Thm-2.6-2"].status, by_id["Thm-2.6-2"].witness) == (FAIL, {"ideal": [0, 2], "submodule": [0]})
    assert by_id["Thm-2.6-3"].witness["error"].startswith("NotAnIdeal: not an ideal")
