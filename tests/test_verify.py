import hashlib
import random

import pytest
from test_exactnum import count_eliminations

from ohmtree import exactnum, verify
from ohmtree.verify import (
    ALL_TAGS,
    REGISTRY,
    GraphGenSpec,
    IdentityReport,
    generate,
    generate_series_parallel,
    run_suite,
)

# the canonical tag set every release must keep an evaluator for
EXPECTED_TAGS = {
    "magic",
    "shorting",
    "cutting",
    "monotonic1",
    "monotonic2",
    "convex",
    "vol-transfer",
    "euler1",
    "euler2",
    "foster",
    "derivative",
    "tree-resistance",
    "tree-voltage",
    "averaging",
    "quadratic",
    "contract-id",
    "delete-id",
    "span-euler",
    "vertex-del",
    "star-aug",
    "unions",
}


def test_registry_coverage_lock():
    assert set(REGISTRY) == EXPECTED_TAGS
    assert set(ALL_TAGS) == EXPECTED_TAGS


def test_generate_is_deterministic():
    spec = GraphGenSpec(seed=5)
    a = generate(spec, 3)
    b = generate(spec, 3)
    assert a == b and a.graph_hash() == b.graph_hash()
    assert generate(spec, 4) != a


def test_generate_respects_ranges():
    spec = GraphGenSpec(n_min=4, n_max=4, m_min=3, m_max=3, seed=1)
    for i in range(10):
        g = generate(spec, i)
        assert g.n == 4 and g.m == 3 and g.is_connected()  # a tree
        assert not any(e.is_loop() for e in g.edges())

    unit = GraphGenSpec(lengths="unit", seed=2)
    for i in range(5):
        assert generate(unit, i).has_unit_lengths()


def test_spec_validation():
    with pytest.raises(ValueError):
        GraphGenSpec(n_min=1)
    with pytest.raises(ValueError):
        GraphGenSpec(n_min=4, n_max=3)
    with pytest.raises(ValueError):
        GraphGenSpec(lengths="gaussian")


def test_run_suite_empty_tags():
    result = run_suite(GraphGenSpec(seed=0), tags=(), instances=3)
    assert result.reports == [] and result.skipped == {}
    assert result.all_passed()  # nothing was requested


def test_run_suite_unknown_tag():
    with pytest.raises(ValueError):
        run_suite(GraphGenSpec(seed=0), tags=("shorting", "nonsense"))


def test_run_suite_reproducible():
    spec = GraphGenSpec(seed=11)
    r1 = run_suite(spec, ("shorting", "euler1"), instances=4, samples=4)
    r2 = run_suite(spec, ("shorting", "euler1"), instances=4, samples=4)
    assert [x.line() for x in r1.reports] == [x.line() for x in r2.reports]


def test_all_tags_pass_small_run():
    result = run_suite(GraphGenSpec(seed=314, lengths="small"), instances=5, samples=5)
    assert result.reports and result.all_passed()
    exact = [r for r in result.reports if r.tag != "derivative"]
    assert all(r.residual == 0 for r in exact)


def test_exhaustive_mode_on_tiny_graphs():
    spec = GraphGenSpec(n_min=3, n_max=3, m_min=3, m_max=4, seed=7, lengths="unit")
    result = run_suite(spec, ("magic", "tree-resistance"), instances=1, exhaustive=True)
    assert result.all_passed()
    magic = [r for r in result.reports if r.tag == "magic"]
    assert len(magic) == 3**4  # every vertex 4-tuple


def test_skipped_selections_are_counted():
    # trees make every edge a bridge, so cutting skips everything
    spec = GraphGenSpec(n_min=4, n_max=4, m_min=3, m_max=3, seed=9)
    result = run_suite(spec, ("cutting",), instances=2, samples=5)
    assert result.reports == []
    assert result.skipped["cutting"] == 10


@pytest.mark.parametrize("kwargs", [{"samples": 6}, {"exhaustive": True}])
def test_law_without_selection_names_checks_once(kwargs):
    spec = GraphGenSpec(n_min=3, n_max=4, m_min=3, m_max=5, seed=4)
    result = run_suite(spec, ("foster",), instances=3, **kwargs)
    assert [r.selection for r in result.reports] == ["all-edges"] * 3
    assert result.skipped["foster"] == 0


def test_residual_skips_one_part_of_a_selection():
    # on trees every edge is a bridge: vol-transfer skips its cutting and
    # contraction transfers but still checks its three shorting placements
    spec = GraphGenSpec(n_min=4, n_max=4, m_min=3, m_max=3, seed=9)
    result = run_suite(spec, ("vol-transfer", "averaging"), instances=2, samples=5)
    transfers = [r for r in result.reports if r.tag == "vol-transfer"]
    assert result.skipped["vol-transfer"] == 10
    assert len(transfers) == 3 * 10
    assert all(r.selection.startswith("short:") for r in transfers)
    averaging = [r.selection for r in result.reports if r.tag == "averaging"]
    assert averaging == ["contractions"] * 2
    assert result.skipped["averaging"] == 2
    assert result.all_passed()


def test_requested_tag_without_checks_fails():
    # on trees cutting skips every selection, so nothing was checked
    spec = GraphGenSpec(n_min=4, n_max=4, m_min=3, m_max=3, seed=9)
    result = run_suite(spec, ("magic", "cutting"), instances=2, samples=5)
    assert result.reports and all(r.passed for r in result.reports)
    assert result.unchecked_tags == ["cutting"]
    assert not result.all_passed()


def _report_digest(result):
    # whole lines: the derivative residuals come from pure-Python IEEE floats,
    # which give the same bits on every machine
    lines = [r.line() for r in result.reports]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16], len(lines)


@pytest.mark.parametrize(
    "spec, kwargs, expected",
    [
        (GraphGenSpec(seed=17), {"instances": 5}, ("6de3c36650d73954", 635)),
        (
            GraphGenSpec(seed=3, n_min=3, n_max=3, m_min=3, m_max=5),
            {"instances": 2, "exhaustive": True},
            ("498ccd941dc38586", 2117),
        ),
        (GraphGenSpec(seed=17), {}, ("fce9d032198abf28", 2614)),
        (
            GraphGenSpec(seed=3, n_min=4, n_max=4, m_min=6, m_max=6),
            {"instances": 1, "exhaustive": True},
            ("7ad4a87616748aaa", 3461),
        ),
    ],
)
def test_golden_reports(spec, kwargs, expected):
    # report lines are the contract: a refactor must reproduce them exactly
    assert _report_digest(run_suite(spec, **kwargs)) == expected


@pytest.mark.parametrize(
    "spec, kwargs, expected",
    [
        # 61 distinct det plus 54 distinct inverse matrices; 6687 without the memo
        (
            GraphGenSpec(seed=3, n_min=4, n_max=4, m_min=6, m_max=6),
            {"instances": 1, "exhaustive": True},
            115,
        ),
        (GraphGenSpec(seed=17), {}, 1459),  # 8416 without the memo
    ],
)
def test_suite_eliminates_each_equal_matrix_once(monkeypatch, spec, kwargs, expected):
    runs = count_eliminations(monkeypatch)
    run_suite(spec, **kwargs)
    assert len(runs) == expected
    assert exactnum._memo is None


def test_suite_drops_the_memo_when_an_evaluator_raises(monkeypatch):
    def broken(g, rng, samples, exhaustive):
        verify.spantree.count_matrix_tree(g)
        assert exactnum._memo  # on inside the instance, holding that det
        raise RuntimeError("evaluator failed")

    monkeypatch.setitem(REGISTRY, "magic", broken)
    with pytest.raises(RuntimeError, match="evaluator failed"):
        run_suite(GraphGenSpec(seed=5), tags=("magic",), instances=1)
    assert exactnum._memo is None


def test_report_line_format():
    report = IdentityReport("shorting", "abc123", "p=v1,q=v2", 0, True)
    assert report.line() == "shorting abc123 p=v1,q=v2 0 pass"


def test_series_parallel_generator_is_reducible_and_connected():
    rng = random.Random(10)
    for _ in range(20):
        g, s, t = generate_series_parallel(rng)
        assert g.is_connected()
        assert s in g.vertices() and t in g.vertices()
