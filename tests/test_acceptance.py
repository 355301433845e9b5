"""Acceptance gate: the ten headline checks, one pass/fail line each.

Each test defers to conekit.certify so the command line `conekit paper-check`
and this suite exercise the identical code path.  A failure prints the
structured details of the criterion that broke.
"""

import json

from conekit import certify
from conekit.certify import CRITERIA, run_all, run_criterion
from conekit.quiverrep import RepContext


def _check(number: int) -> None:
    out = run_criterion(number)
    limit = out["limit_seconds"]
    budget = f" ({out['elapsed_seconds']}s < {limit}s)" if limit else ""
    status = "PASS" if out["passed"] else "FAIL"
    print(f"{status} {out['criterion']} {out['slug']}{budget}")
    if not out["passed"]:
        print(json.dumps(out["details"], indent=2, default=str))
    assert out["passed"], f"criterion {number} ({out['slug']}) failed"
    assert out["within_limit"], f"criterion {number} exceeded {limit}s"


def test_criterion_01_staircase_cone_reproduction():
    _check(1)


def test_criterion_02_adapted_equality():
    _check(2)


def test_criterion_03_containment():
    _check(3)


def test_criterion_04_cone_structure():
    _check(4)


def test_criterion_05_rank2_multiplicities():
    _check(5)


def test_criterion_06_hall_agreement():
    _check(6)


def test_criterion_07_root_sum_identity():
    _check(7)


def test_criterion_08_ktheory_duality():
    _check(8)


def test_criterion_09_superfluous_filter():
    _check(9)


def test_criterion_10_tropical_membership():
    _check(10)


def test_criteria_table_is_complete():
    numbers = [entry[0] for entry in CRITERIA]
    assert numbers == list(range(1, 11))


def test_run_all_builds_each_case_once(monkeypatch):
    # Every criterion reads one shared RepContext per case; a second run in
    # the same process reads the caches and gives the same results.
    certify._context.cache_clear()
    certify._report.cache_clear()
    built = []
    init = RepContext.__init__

    def counting_init(self, quiver, word):
        built.append((quiver, tuple(word)))
        init(self, quiver, word)

    monkeypatch.setattr(RepContext, "__init__", counting_init)
    first = run_all()
    assert first["passed"]
    assert 0 < len(built) == certify._context.cache_info().currsize
    second = run_all()
    assert len(built) == certify._context.cache_info().currsize

    def untimed(out):
        return [
            {k: v for k, v in r.items() if k not in ("elapsed_seconds", "within_limit")}
            for r in out["results"]
        ]

    assert untimed(second) == untimed(first)


def test_run_all_walks_each_quiver_once(monkeypatch):
    # The middle terms of one quiver are walked by one of its contexts;
    # every other adapted word of the quiver reads them relabelled. A quiver
    # is counted by its arrows and entries, so two equal quivers built by
    # different routes count as one.
    certify._context.cache_clear()
    certify._report.cache_clear()
    walked = {}
    walk = RepContext.middle_terms

    def counted(self, k, l, mode="oracle"):
        key = str(self.quiver), self.quiver.cartan.entries, mode
        walked.setdefault(key, []).append((self.word, k, l))
        return walk(self, k, l, mode)

    monkeypatch.setattr(RepContext, "middle_terms", counted)
    assert run_all()["passed"]
    quivers = {(str(q), q.cartan.entries) for q, _ in certify._conjecture_cases()}
    assert {key[:2] for key in walked} >= quivers
    assert {mode for _, _, mode in walked} == {"oracle", "relaxed"}
    # one word per quiver and mode, and no pair of it walked twice
    assert all(len({word for word, _, _ in calls}) == 1 and len(set(calls)) == len(calls)
               for calls in walked.values()), walked
