import pytest

from diamopt.suites import run_suite, suite_epsilon


def test_dimensions_suite_all_ok():
    records = run_suite("dimensions")
    assert len(records) == 12
    assert all(r["ok"] for r in records)
    assert all("expected" in r and "computed" in r for r in records)


def test_epsilon_suite_is_reproducible():
    a = suite_epsilon(trials=5, seed=303)
    b = suite_epsilon(trials=5, seed=303)
    assert a == b
    assert len(a) == 5
    assert all(r["ok"] for r in a)
    c = suite_epsilon(trials=5, seed=304)
    assert [r["claim"] for r in c] != [r["claim"] for r in a] or c != a


def test_lifting_suite_short():
    records = run_suite("lifting")
    assert len(records) == 10
    assert all(r["ok"] for r in records)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("sideways")


def test_facets_suite_all_ok():
    records = run_suite("facets")
    # 34 ordering families, 90 tour families, 2 extra n=4 inequalities,
    # 3 disjoint-support condition checks
    assert len(records) == 129
    assert all(r["ok"] for r in records)


@pytest.mark.long_running
def test_lifting_suite_includes_next_size():
    records = run_suite("lifting", long_running=True)
    assert len(records) == 44  # 10 from n=2->3 plus 34 from n=3->4
    assert all(r["ok"] for r in records)
