"""End-to-end runs of the command line surface.

Every command must print one JSON document with sorted keys to stdout and
keep timing chatter on stderr, so stdout is byte-stable run to run.
"""

import json
import time

import pytest

from conekit import conelab, hallalg, polycone
from conekit.cli import run
from conekit.hallalg import CountInconsistent, InterpolationInconsistent, SplitTermSurvived
from conekit.quiverrep import ConsistencyFailure
from conekit.rootsys import VerificationFailure
from conekit.tropflag import InvariantFailure


def _invoke(capsys, argv):
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_betas_example(capsys):
    code, out, err = _invoke(
        capsys, ["roots", "betas", "--type", "A2", "--word", "1,2,1"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "roots.betas"
    assert data["deterministic"] is True
    assert data["result"]["betas"] == [[1, 0], [1, 1], [0, 1]]
    assert data["version"] == "0.1.0"
    assert "ok" in err


def test_stdout_is_byte_stable(capsys):
    argv = ["cone", "check", "--quiver", "1>2,2>3", "--word", "3,2,3,1,2,3"]
    _, first, _ = _invoke(capsys, argv)
    _, second, _ = _invoke(capsys, argv)
    assert first == second
    assert "elapsed" not in first


def test_cone_check_verdict(capsys):
    code, out, _ = _invoke(
        capsys, ["cone", "check", "--quiver", "1>2,2>3", "--word", "3,2,3,1,2,3"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["verdict"] == "equal"
    assert data["result"]["witness"] is None


def test_cone_lusztig_and_degree(capsys):
    code, out, _ = _invoke(capsys, ["cone", "lusztig", "--type", "A2", "--word", "1,2,1"])
    assert code == 0
    result = json.loads(out)["result"]
    rays = result["cone"]["rays"]
    assert sorted(map(tuple, rays)) == [(0, 1, 0), (0, 1, 1), (1, 1, 0)]
    assert result["profile"]["is_simplicial_mod_lineality"] is True
    code, out, _ = _invoke(
        capsys, ["cone", "degree", "--quiver", "1>2", "--word", "2,1,2"]
    )
    assert code == 0
    assert json.loads(out)["result"]["cone"]["ineqs"] == [[1, -1, 1]]


def test_trop_check_pass_and_fail(capsys):
    code, out, _ = _invoke(capsys, ["trop", "check", "--n", "3", "--d", "0,0,1"])
    assert code == 0
    assert json.loads(out)["result"]["passes"] is True

    code, out, err = _invoke(capsys, ["trop", "check", "--n", "3", "--d", "0,5,1"])
    assert code == 2
    data = json.loads(out)
    assert data["result"]["passes"] is False
    assert data["result"]["failures"]
    assert "verification failure" in err


def test_trop_check_zero_denominator_exits_one(capsys):
    code, out, err = _invoke(capsys, ["trop", "check", "--n", "3", "--d", "1/0,0,0"])
    assert code == 1
    assert out == ""
    assert err == "conekit: error: --d must be a comma list of rationals, got '1/0,0,0'\n"


def test_trop_initial(capsys):
    code, out, _ = _invoke(capsys, ["trop", "initial", "--n", "3", "--d", "0,0,1"])
    assert code == 0
    data = json.loads(out)["result"]
    assert data["all_binomial"] is True
    assert len(data["initial_forms"]) == 1


def test_trop_relations_and_rank(capsys):
    code, out, _ = _invoke(capsys, ["trop", "relations", "--n", "4"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 10
    assert len(result["relations"]) == 10
    code, out, _ = _invoke(capsys, ["trop", "rank", "--n", "4"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["rank"] == 6
    assert result["full_rank"] == result["rank"]


def test_hall_commands(capsys):
    code, out, _ = _invoke(
        capsys, ["hall", "poly", "--n", "2", "--v", "1-1", "--w", "2-2", "--x", "1-2"]
    )
    assert code == 0
    assert json.loads(out)["result"]["polynomial"] == {"0": 1}

    code, out, _ = _invoke(
        capsys, ["hall", "comm", "--n", "2", "--v", "1-1", "--u", "2-2"]
    )
    assert code == 0
    assert json.loads(out)["result"]["element"] == {"1-2": {"0": 1}}

    code, out, _ = _invoke(
        capsys,
        ["hall", "verify-term", "--quiver", "1>2,2>3", "--word", "3,2,3,1,2,3", "--k", "2"],
    )
    assert code == 0
    data = json.loads(out)["result"]
    assert data["verified"] is True
    assert data["predicted"] == "1-3,2-2"


def test_quiver_commands(capsys):
    code, out, _ = _invoke(
        capsys, ["quiver", "superfluous", "--quiver", "1>2", "--word", "2,1,2"]
    )
    assert code == 0
    assert json.loads(out)["result"]["agreement"] is True

    code, out, _ = _invoke(
        capsys,
        ["quiver", "middle", "--quiver", "1>2,2>3", "--word", "3,2,3,1,2,3", "--mode", "filter"],
    )
    assert code == 0
    pairs = json.loads(out)["result"]["pairs"]
    assert len(pairs) == 5

    code, out, _ = _invoke(
        capsys, ["quiver", "ktheory", "--quiver", "1>2", "--word", "2,1,2"]
    )
    assert code == 0
    assert json.loads(out)["result"]["duality_verdict"] == "equal"


@pytest.mark.parametrize("quiver, word", [
    ("1>2,2>3,4>5", "3,2,5,1,3,2,4,3,5"),  # A3 and A2
    ("1>2,3>2,4>2,5>6,6>7", "2,1,3,4,2,1,3,4,2,1,3,4,7,6,5,7,6,7"),  # D4 and A3
])
def test_disconnected_diagram_commands(capsys, quiver, word):
    # The packed fields are sized from the largest coordinates over every
    # component's roots, not from the highest root of one component.
    for verb in (["cone", "check"], ["cone", "degree"], ["quiver", "middle"]):
        code, out, _ = _invoke(capsys, verb + ["--quiver", quiver, "--word", word])
        assert code == 0, out
        if verb[1] == "check":
            assert json.loads(out)["result"]["verdict"] == "equal"


def test_usage_errors_exit_one(capsys):
    code, _, err = _invoke(
        capsys, ["roots", "betas", "--type", "A2", "--word", "1,1,2"]
    )
    assert code == 1
    assert "not reduced" in err

    code, _, err = _invoke(capsys, ["cone", "nonsense"])
    assert code == 1

    code, _, err = _invoke(capsys, ["roots", "betas", "--type", "Z9", "--word", "1"])
    assert code == 1


def test_unknown_top_level_verb(capsys):
    code, _, _ = _invoke(capsys, ["frobnicate"])
    assert code == 1


def test_ktheory_bound_out_of_range_exits_one(capsys):
    argv = ["quiver", "ktheory", "--quiver", "1>2,2>3", "--word", "3,2,3,1,2,3", "--bound"]
    for bound, message in (
        ("0", "no extension generators below the bound 0"),
        ("1", "no extension generators below the bound 1"),
        ("30", "more than 100000 modules to enumerate"),
    ):
        code, out, err = _invoke(capsys, argv + [bound])
        assert code == 1
        assert out == ""
        assert err == f"conekit: error: {message}\n"


def test_ktheory_walks_to_the_bound_above_b_star(capsys):
    # A3's B* is 4, so at bound 25 the module walk stops at 25, under the
    # cap; at bound 26 that walk trips it.
    argv = ["quiver", "ktheory", "--quiver", "1>2,2>3", "--word", "3,2,3,1,2,3", "--bound"]
    code, out, _ = _invoke(capsys, argv + ["25"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["duality_verdict"] == "equal" and result["stabilized"] is True
    code, out, err = _invoke(capsys, argv + ["26"])
    assert code == 1
    assert out == ""
    assert err == "conekit: error: more than 100000 modules to enumerate\n"


def test_dd_ray_cap_exits_one(capsys, monkeypatch):
    # At bound 7 `stabilized` expands the dual of E_7, whose double
    # description holds at most 200 rays at once.
    argv = ["quiver", "ktheory", "--quiver", "1>2,3>2,4>2",
            "--word", "2,1,3,4,2,1,3,4,2,1,3,4", "--bound", "7"]
    monkeypatch.setattr(polycone, "MAX_DD_RAYS", 200)
    code, out, _ = _invoke(capsys, argv)
    assert code == 2 and json.loads(out)["result"]["stabilized"] is True
    monkeypatch.setattr(polycone, "MAX_DD_RAYS", 199)
    code, out, err = _invoke(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "conekit: error: more than 199 rays in double description\n"


def test_roots_words_rejects_large_types_up_front(capsys):
    for name in ("D5", "F4", "E6", "E7", "E8"):
        start = time.perf_counter()
        code, out, err = _invoke(capsys, ["roots", "words", "--type", name])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert err == "conekit: error: more than 100000 reduced words\n"


def test_hall_comm_rejects_undirected_pairs(capsys):
    # an interval past vertex n is reported before the Hom and Ext order is
    # read, and before the scale, as in `hall prod`
    for n, v, u, message in (
        ("2", "1-1", "1-1", "Hom(1-1,1-1) != 0: wrong order"),
        ("2", "2-2", "1-1", "Ext^1(1-1,2-2) != 0: wrong order"),
        ("2", "1-3", "1-1", "interval [1,3] exceeds vertex count 2"),
        ("2", "1-1", "1-3", "interval [1,3] exceeds vertex count 2"),
        ("6", "1-7", "1-1", "interval [1,7] exceeds vertex count 6"),
    ):
        code, out, err = _invoke(capsys, ["hall", "comm", "--n", n, "--v", v, "--u", u])
        assert code == 1
        assert out == ""
        assert err == f"conekit: error: {message}\n"


def test_hall_ext_class_cap_rejects_before_counting(capsys, monkeypatch):
    # Ext^1 has dimension 4, so 17 is the first listed prime past the cap;
    # the guard must trip before the classes at p = 2..13 are enumerated.
    calls = []
    enumerate_classes = hallalg._extension_classes

    def counted(*args):
        calls.append(args)
        return enumerate_classes(*args)

    monkeypatch.setattr(hallalg, "_extension_classes", counted)
    argv = ["hall", "prod", "--n", "2", "--m1", "1-1^2,2-2^2", "--m2", "1-1^2,2-2^2"]
    code, out, err = _invoke(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "conekit: error: 17^4 extension classes exceed the supported 50000\n"
    assert calls == []


@pytest.mark.parametrize(
    "exc", [ConsistencyFailure, InvariantFailure, CountInconsistent,
            InterpolationInconsistent, SplitTermSurvived],
)
def test_verification_failures_exit_two(capsys, monkeypatch, exc):
    assert issubclass(exc, VerificationFailure)

    def fail(*args):
        raise exc("planted witness")

    # Handlers look the library function up when called, so the patch is seen.
    monkeypatch.setattr(conelab, "check_conjecture", fail)
    code, out, err = _invoke(
        capsys, ["cone", "check", "--quiver", "1>2", "--word", "2,1,2"]
    )
    assert code == 2
    data = json.loads(out)
    assert data["command"] == "cone.check"
    assert data["inputs"] == {}
    assert data["result"] == {"error": exc.__name__, "witness": "planted witness"}
    assert "verification failure" in err
