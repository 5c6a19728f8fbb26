import pytest

from parorbits import seidel, strata, verify
from parorbits.fixtures import Fixture


def test_perturbed_delta_on_one_member_fails(monkeypatch):
    fix = Fixture("C", 4, 2, 4)
    pq, sts = strata.stratify(fix)
    target = pq.elements[next(st for st in sts if st.size > 1).dc.members[-1]]
    real_delta = strata.delta
    monkeypatch.setattr(strata, "delta", lambda f, w: real_delta(f, w) + (w == target))
    with pytest.raises(strata.StrataError, match="not constant"):
        verify.verify_fixture(fix)


def test_swapped_seidel_images_fail_composition(monkeypatch):
    fix = Fixture("C", 4, 2, 4)
    real_permutation = seidel.seidel_permutation

    def swapped(f):
        perm, qexp = real_permutation(f)
        perm = list(perm)
        perm[0], perm[1] = perm[1], perm[0]
        return tuple(perm), qexp

    monkeypatch.setattr(seidel, "seidel_permutation", swapped)
    report = verify.verify_fixture(fix)
    assert report["checks"]["seidel_bijection"]
    assert not report["checks"]["seidel_composition"]
    assert not report["pass"]


def test_each_stage_runs_once_per_fixture(monkeypatch):
    calls = {"stratify": 0, "delta": 0}
    for name in calls:
        real = getattr(strata, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(strata, name, counted)
    report = verify.verify_fixture(Fixture("C", 5, 2, 5))
    assert report["pass"] and report["classes"] == 40
    assert calls["stratify"] == 1
    assert calls["delta"] <= 2 * report["classes"]
