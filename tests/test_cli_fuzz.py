"""Fuzz the whole command line: every verb, valid and malformed flag values.

Whatever the argv, `run` must end with exit 0, 1 or 2 within the deadline
(argparse ends by SystemExit, as `main` does), print nothing but one JSON
document on stdout, and never let another exception escape. Inputs stay small
(Cartan types of rank <= 3 plus B2 and G2, quivers of type A2/A3, Hall modules
of at most two intervals) so that valid commands finish quickly.
"""

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from conekit.cli import COMMANDS, run
from conekit.quiverrep import enumerate_adapted_words, parse_quiver
from conekit.rootsys import enumerate_reduced_words, parse_type

TYPES = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2")
QUIVERS = ("1>2", "2>1", "1>2,2>3", "3>2,2>1", "1>2,3>2", "2>1,2>3")
WORDS = {t: enumerate_reduced_words(parse_type(t)) for t in TYPES}
WORDS.update({q: enumerate_adapted_words(parse_quiver(q)) for q in QUIVERS})

JUNK = st.sampled_from(
    ["", "x", "-1", "0", "-h", "1,,2", "1/0", "9", "1>1", "Z9", "A0", "1-2^0", "3-1"]
) | st.text(max_size=6)
LETTERS = st.lists(st.integers(0, 4), min_size=1, max_size=9).map(
    lambda xs: ",".join(map(str, xs))
)


def _interval(n):
    return st.tuples(st.integers(1, n), st.integers(1, n)).map(
        lambda ab: "{}-{}".format(*sorted(ab))
    )


def _module(n):
    return st.lists(_interval(n), min_size=1, max_size=2).map(",".join)


def _rationals(count):
    return st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3).map(str),
        min_size=count, max_size=count,
    ).map(",".join)


def _valid(draw, name, verb, n, values):
    """A well-formed value for one flag, consistent with the flags before it."""
    if name == "--type":
        return draw(st.sampled_from(TYPES))
    if name == "--quiver":
        return draw(st.sampled_from(QUIVERS))
    if name == "--word":
        words = WORDS.get(values.get("--type", values.get("--quiver")), [])
        if words and draw(st.integers(0, 3)):
            return ",".join(map(str, draw(st.sampled_from(words))))
        return draw(LETTERS)
    if name == "--n":
        return str(n)
    if name == "--d":
        return draw(_rationals(n * (n - 1) // 2))
    if name == "--mode":
        return draw(st.sampled_from(["oracle", "filter"]))
    if name in ("--bound", "--k"):
        return str(draw(st.integers(-1, 6)))
    if verb == "comm":
        return draw(_interval(n))
    return draw(_module(n))


@st.composite
def argvs(draw):
    """Half the argvs are well formed; in the rest each flag may be junk or absent."""
    group, verb = draw(st.sampled_from(list(COMMANDS)))
    argv = [group] + ([verb] if verb else [])
    n = draw(st.integers(3, 6) if group == "trop" else st.integers(1, 4))
    malformed = draw(st.booleans())
    values = {}
    for name, keywords in COMMANDS[group, verb][1]:
        if malformed and draw(st.booleans()):
            values[name] = draw(JUNK)
        else:
            values[name] = _valid(draw, name, verb, n, values)
        required = keywords.get("required")
        if (not required or malformed) and not draw(st.integers(0, 3)):
            continue  # optional flags, and in malformed argvs any flag, go missing
        argv.append(f"{name}={values[name]}")
    return argv


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(argvs())
def test_every_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert "error: " in err.getvalue().splitlines()[-1]
    else:
        doc = json.loads(out.getvalue())
        assert doc["command"] == ".".join(a for a in argv[:2] if not a.startswith("--"))
