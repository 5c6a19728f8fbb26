import json

import pytest

from parorbits import cli, rootsys, seidel, strata, verify
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
    real_table = seidel.seidel_table

    def swapped(*args):
        perm, qexp = real_table(*args)
        perm = list(perm)
        perm[0], perm[1] = perm[1], perm[0]
        return tuple(perm), qexp

    monkeypatch.setattr(seidel, "seidel_table", swapped)
    report = verify.verify_fixture(fix)
    assert report["checks"]["seidel_bijection"]
    assert not report["checks"]["seidel_composition"]
    assert not report["pass"]


def test_merged_seidel_images_fail_finite_order(monkeypatch):
    # two classes sent to one: no bijection, so some orbit never closes
    fix = Fixture("C", 4, 2, 4)
    real_table = seidel.seidel_table

    def merged(*args):
        perm, qexp = real_table(*args)
        return (perm[1],) + perm[1:], qexp

    monkeypatch.setattr(seidel, "seidel_table", merged)
    checks = verify.verify_fixture(fix)["checks"]
    assert not checks["seidel_bijection"]
    assert not checks["seidel_finite_order"]


def test_bumped_q_exponent_fails_degree_bookkeeping(monkeypatch):
    fix = Fixture("C", 4, 2, 4)
    real_table = seidel.seidel_table

    def bumped(*args):
        perm, qexp = real_table(*args)
        return perm, (qexp[0] + 1,) + qexp[1:]

    monkeypatch.setattr(seidel, "seidel_table", bumped)
    report = verify.verify_fixture(fix)
    assert not report["checks"]["seidel_degree_bookkeeping"]
    assert not report["pass"]


def _count_stages(monkeypatch):
    """Count calls of strata.stratify, strata.delta, seidel.v_elt and seidel.seidel_table."""
    calls = {}
    stages = ((strata, "stratify"), (strata, "delta"), (seidel, "v_elt"), (seidel, "seidel_table"))
    for mod, name in stages:
        real = getattr(mod, name)
        calls[name] = 0

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_stage_runs_once_per_fixture(monkeypatch):
    calls = _count_stages(monkeypatch)
    report = verify.verify_fixture(Fixture("C", 5, 2, 5))
    assert report["pass"] and report["classes"] == 40
    assert calls == {"stratify": 1, "delta": report["classes"], "v_elt": 1, "seidel_table": 1}


def test_quantum_runs_each_stage_once(monkeypatch, capsys):
    calls = _count_stages(monkeypatch)
    argv = ["quantum", "--type", "C", "--rank", "5", "--grassmannian", "2"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 40
    assert calls == {"stratify": 1, "delta": len(rows), "v_elt": 1, "seidel_table": 1}


def test_root_system_built_once_per_fixture(monkeypatch, capsys):
    # a fixture holds the root system its validation built; the type-A
    # composition report builds A1..A4 itself
    calls = {"build": 0, "fixtures": 0}
    real_build, real_post_init = rootsys.build, Fixture.__post_init__

    def build(*args):
        calls["build"] += 1
        return real_build(*args)

    def post_init(self):
        calls["fixtures"] += 1
        real_post_init(self)

    monkeypatch.setattr(rootsys, "build", build)
    monkeypatch.setattr(Fixture, "__post_init__", post_init)
    assert cli.main(["verify"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 104
    assert calls == {"build": calls["fixtures"] + 4, "fixtures": 104}
