"""Seeded inputs, verdict calls and known-answer checks for each workload.

Imported by `child.py` after `import conekit`, so everything here may use
the package. Calls into the program go through module attributes
(`conelab.check_conjecture`, `hallalg.q_commutator`, ...) so that the
tracer's patches in `tracer.py` are seen.

A workload is a pair of functions: `prepare(seed, draw)` builds the inputs
and the expected answers (untimed), and `run(prepared)` yields one
`(label, start, end, error)` per verdict, where `error` is None for a
verdict whose output matched its known answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import runpy
import sys
import time

from conekit import certify, conelab, hallalg, quiverrep
from conekit.rootsys import cartan_matrix, num_positive_roots

LADDER_TYPES = (("A", 6), ("A", 8), ("D", 5), ("D", 6), ("D", 7), ("E", 6))
# Distinct degree-cone inequalities of every adapted word; for A_n this is
# C(n+2, 4), and the D/E values were the same on every orientation tried.
LADDER_FORMS = {"A6": 70, "A8": 210, "D5": 102, "D6": 260, "D7": 555, "E6": 532}

# The full family is every product of total dimension <= 3 over A2..A4 and
# <= 4 over A2. F[2-2^2].F[2-2^2] is left out: it is the mirror image of
# F[1-1^2].F[1-1^2] (the same Gr(2,4) count at one vertex) and alone takes
# about 10 s, which a run of the benchmark cannot hold twice.
PRODUCT_FAMILY = ((2, 4), (3, 3), (4, 3))
TRIMMED_PRODUCTS = {(2, ((2, 2), (2, 2)), ((2, 2), (2, 2)))}

# sha256 of `python -m conekit.cli paper-check` stdout, recorded at the
# commit that introduced this benchmark; the CLI promises byte-identical
# stdout, so any change here is a wrong answer.
PAPER_CHECK_SHA256 = "7170a5e75ed2a044a970d6b8d4ce4091ade7a4ceeffe87360fca861b9827c6ae"
PAPER_CHECK_LINE = re.compile(r"^(PASS|FAIL)\s+(\d+) ")


def draw_rng(seed: int, draw: int) -> random.Random:
    return random.Random(seed * 100_003 + draw)


def sink_walk(quiver, rng: random.Random) -> tuple[int, ...]:
    """A random adapted word: reflect at random sinks, backtracking on dead ends.

    A sink whose next root is not positive would make the word non-reduced,
    so it is skipped; the result is checked with `is_adapted`.
    """
    cartan = quiver.cartan
    n = cartan.rank
    length = num_positive_roots(cartan)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]

    def walk(q, m, prefix):
        if len(prefix) == length:
            return tuple(prefix)
        sinks = list(q.sinks())
        rng.shuffle(sinks)
        for v in sinks:
            beta = [m[r][v - 1] for r in range(n)]
            if any(x < 0 for x in beta) or not any(beta):
                continue
            row = cartan.entries[v - 1]
            m2 = [[m[r][j] - m[r][v - 1] * row[j] for j in range(n)] for r in range(n)]
            word = walk(q.reflected(v), m2, prefix + [v])
            if word is not None:
                return word
        return None

    word = walk(quiver, identity, [])
    if word is None or not quiverrep.is_adapted(quiver, word):
        raise RuntimeError(f"sink walk produced no adapted word for {quiver}")
    return word


def seeded_pair(family: str, rank: int, rng: random.Random):
    quiver = rng.choice(quiverrep.all_orientations(cartan_matrix(family, rank)))
    return quiver, sink_walk(quiver, rng)


def _timed(label, call, check):
    """Run one verdict, timing only `call`, then check its output.

    Returns (label, start, end, error) with `time.perf_counter()` stamps.
    """
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # an exception is a failed verdict, not a crash
        return label, start, time.perf_counter(), f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return label, start, end, check(out)


# -- ladder ------------------------------------------------------------------


def check_ladder(label: str, report) -> str | None:
    if report.verdict != "equal":
        return f"verdict {report.verdict}"
    forms = len(report.degree_cone.inequalities)
    if forms != LADDER_FORMS[label]:
        return f"{forms} degree-cone forms, expected {LADDER_FORMS[label]}"
    return None


def prepare_ladder(seed: int, draw: int) -> dict:
    rng = draw_rng(seed, draw)
    cases = []
    for family, rank in LADDER_TYPES:
        quiver, word = seeded_pair(family, rank, rng)
        cases.append((f"{family}{rank}", quiver, word))
    return {"cases": cases}


def run_ladder(prepared: dict):
    for label, quiver, word in prepared["cases"]:
        yield _timed(
            label,
            lambda: conelab.check_conjecture(quiver, word),
            lambda report: check_ladder(label, report),
        )


# -- ktheory -----------------------------------------------------------------


def check_ktheory(quiver, report: dict) -> str | None:
    n = quiver.n
    N = num_positive_roots(quiver.cartan)
    if report["duality_verdict"] != "equal":
        return f"duality {report['duality_verdict']}"
    if not report["stabilized"]:
        return "not stabilized"
    if report["D_count"] != N - n:
        return f"D_count {report['D_count']}, expected {N - n}"
    if not report["D_independent"]:
        return "D generators dependent"
    return None


def prepare_ktheory(seed: int, draw: int) -> dict:
    cases = []
    for quiver in quiverrep.all_orientations(cartan_matrix("A", 3)):
        for word in quiverrep.enumerate_adapted_words(quiver):
            cases.append(("A3", quiver, word))
    quiver, word = seeded_pair("A", 4, draw_rng(seed, draw))
    cases.append(("A4", quiver, word))
    return {"cases": cases}


def run_ktheory(prepared: dict):
    for label, quiver, word in prepared["cases"]:
        yield _timed(
            label,
            lambda: quiverrep.ktheory_cones(quiver, word),
            lambda report: check_ktheory(quiver, report),
        )


# -- hall --------------------------------------------------------------------


def check_commutator(comm, split, expected_support) -> str | None:
    if split in comm.terms:
        return f"split class {hallalg.format_module(split)} survives"
    if set(comm.support()) != expected_support:
        return "commutator support differs from the oracle middle terms"
    return None


def check_product(prod) -> str | None:
    if not prod.terms:
        return "empty product"
    for module, poly in prod.terms.items():
        if any(c <= 0 for c in poly.c.values()):
            return f"non-positive coefficient {poly} at {hallalg.format_module(module)}"
    return None


def _modules_up_to(n: int, max_dim: int) -> list:
    intervals = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    out = set()

    def walk(start, chosen, dim):
        if chosen:
            out.add(hallalg.normalize_module(chosen))
        for j in range(start, len(intervals)):
            a, b = intervals[j]
            if dim + b - a + 1 <= max_dim:
                walk(j, chosen + [(a, b)], dim + b - a + 1)

    walk(0, [], 0)
    return sorted(out)


def product_cases() -> list:
    cases = []
    for n, max_dim in PRODUCT_FAMILY:
        modules = _modules_up_to(n, max_dim - 1)
        for a in modules:
            for b in modules:
                if hallalg.total_dim(a) + hallalg.total_dim(b) <= max_dim:
                    if (n, a, b) not in TRIMMED_PRODUCTS:
                        cases.append(("product", n, a, b))
    return cases


def commutator_cases() -> list:
    """Every Ext pair of every adapted word of equioriented A3 and A4.

    The expected support comes from the degeneration oracle of `quiverrep`,
    an independent route to the same middle terms.
    """
    cases = []
    for n in (3, 4):
        quiver = quiverrep.equioriented_a(n)
        for word in quiverrep.enumerate_adapted_words(quiver):
            ctx = quiverrep.RepContext(quiver, word)
            for k in range(1, ctx.N + 1):
                for l in range(k + 1, ctx.N + 1):
                    if ctx.ext_indec(l, k) == 0:
                        continue
                    v = hallalg.interval_of_root(ctx.betas[l - 1])
                    u = hallalg.interval_of_root(ctx.betas[k - 1])
                    support = frozenset(
                        hallalg.module_from_positions(ctx, m)
                        for m in ctx.middle_terms(k, l, mode="oracle")
                    )
                    cases.append(("commutator", n, v, u, support))
    return cases


def prepare_hall(seed: int, draw: int) -> dict:
    # Distinct products share no count, while a commutator reuses the cached
    # products of any earlier case. Products go first, so which verdict pays
    # for which count, and hence the verdict-time percentiles, does not
    # depend on the seeded order within each block.
    rng = draw_rng(seed, draw)
    products, commutators = product_cases(), commutator_cases()
    rng.shuffle(products)
    rng.shuffle(commutators)
    return {"cases": products + commutators}


def run_hall(prepared: dict):
    for case in prepared["cases"]:
        if case[0] == "commutator":
            _, n, v, u, support = case
            split = hallalg.normalize_module((v, u))
            yield _timed(
                "commutator",
                lambda: hallalg.q_commutator(n, v, u),
                lambda comm: check_commutator(comm, split, support),
            )
        else:
            _, n, a, b = case
            yield _timed("product", lambda: hallalg.hall_product(n, a, b), check_product)


# -- paper_check -------------------------------------------------------------


def check_paper_check(code, stdout: str, stderr: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != PAPER_CHECK_SHA256:
        return f"stdout sha256 {digest[:16]}..., expected {PAPER_CHECK_SHA256[:16]}..."
    verdicts = [m.group(1) for line in stderr.splitlines() if (m := PAPER_CHECK_LINE.match(line))]
    if verdicts != ["PASS"] * len(certify.CRITERIA):
        return f"stderr criteria lines {verdicts}"
    return None


def prepare_paper_check(seed: int, draw: int) -> dict:
    return {"argv": ["conekit", "paper-check"]}


def run_paper_check(prepared: dict):
    """`python -m conekit.cli paper-check`, run in this (fresh) process.

    Each criterion is one verdict, timed by wrapping `certify.run_criterion`
    where `run_all` looks it up; the CLI's stdout is one more checked output,
    with no time of its own (None). Its size is left in `prepared["stdout_bytes"]`.
    """
    verdicts = []
    original = certify.run_criterion

    def timed_criterion(number):
        start = time.perf_counter()
        result = original(number)
        end = time.perf_counter()
        error = None if result["passed"] else "criterion failed"
        verdicts.append((f"criterion_{number:02d}", start, end, error))
        return result

    out, err = io.StringIO(), io.StringIO()
    saved_argv = sys.argv
    certify.run_criterion = timed_criterion
    sys.argv = list(prepared["argv"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                runpy.run_module("conekit.cli", run_name="__main__", alter_sys=True)
                code = 0
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.argv = saved_argv
        certify.run_criterion = original
    yield from verdicts
    prepared["stdout_bytes"] = len(out.getvalue().encode())
    yield "stdout", None, None, check_paper_check(code, out.getvalue(), err.getvalue())


def describe(prepared: dict) -> list:
    """The generated inputs as JSON-ready data, so a run can be replayed."""
    return [
        [str(x) if isinstance(x, quiverrep.DynkinQuiver) else x
         for x in case if not isinstance(x, frozenset)]
        for case in prepared.get("cases", [prepared.get("argv")])
    ]


WORKLOADS = {
    "ladder": (prepare_ladder, run_ladder),
    "ktheory": (prepare_ktheory, run_ktheory),
    "hall": (prepare_hall, run_hall),
    "paper_check": (prepare_paper_check, run_paper_check),
}
