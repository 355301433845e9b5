"""Each known-answer check of the benchmark must flag a planted wrong answer.

    python3 perfbench/selftest.py

Computes one true answer per workload on a small input, confirms its check
passes, then tampers with it (a changed verdict, a dropped middle term, a
surviving split class, a flipped stdout byte, ...) and confirms the check
fails. Exits 1 if any planted error goes unflagged.
"""

import dataclasses
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from conekit import conelab, hallalg, quiverrep  # noqa: E402
from conekit.polycone import RationalCone  # noqa: E402

import workloads as wl  # noqa: E402


def ladder_cases():
    quiver, word = wl.seeded_pair("A", 6, wl.draw_rng(0, 0))
    report = conelab.check_conjecture(quiver, word)
    cone = report.degree_cone
    dropped = RationalCone.from_inequalities(cone.dim, cone.inequalities[1:])
    yield "ladder true answer", wl.check_ladder("A6", report), False
    yield "ladder tampered verdict", wl.check_ladder(
        "A6", dataclasses.replace(report, verdict="strict_subset")), True
    yield "ladder dropped middle term", wl.check_ladder(
        "A6", dataclasses.replace(report, degree_cone=dropped)), True


def ktheory_cases():
    quiver = quiverrep.equioriented_a(3)
    report = quiverrep.ktheory_cones(quiver, quiverrep.enumerate_adapted_words(quiver)[0])
    yield "ktheory true answer", wl.check_ktheory(quiver, report), False
    for key, bad in (("duality_verdict", "not_equal"), ("stabilized", False),
                     ("D_count", report["D_count"] - 1), ("D_independent", False)):
        yield f"ktheory tampered {key}", wl.check_ktheory(quiver, {**report, key: bad}), True


def hall_cases():
    _, n, v, u, support = wl.commutator_cases()[0]
    split = hallalg.normalize_module((v, u))
    comm = hallalg.q_commutator(n, v, u)
    yield "hall true commutator", wl.check_commutator(comm, split, support), False
    yield "hall dropped middle term", wl.check_commutator(
        comm, split, support - {min(support)}), True
    survived = comm + hallalg.HallElement.basis(n, split)
    yield "hall split class survives", wl.check_commutator(survived, split, support), True
    product = hallalg.hall_product(2, ((1, 1),), ((2, 2),))
    yield "hall true product", wl.check_product(product), False
    negated = product.scaled(hallalg.LaurentPoly.integer(-1))
    yield "hall negative structure constant", wl.check_product(negated), True


def paper_check_cases():
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-m", "conekit.cli", "paper-check"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    out, err = proc.stdout, proc.stderr
    flipped = out[:100] + chr(ord(out[100]) ^ 1) + out[101:]
    yield "paper_check true answer", wl.check_paper_check(proc.returncode, out, err), False
    yield "paper_check flipped stdout byte", wl.check_paper_check(0, flipped, err), True
    yield "paper_check exit code 2", wl.check_paper_check(2, out, err), True
    yield "paper_check failed criterion", wl.check_paper_check(
        0, out, err.replace("PASS  6", "FAIL  6")), True


def main() -> int:
    missed = 0
    for group in (ladder_cases, ktheory_cases, hall_cases, paper_check_cases):
        for name, error, should_flag in group():
            ok = (error is not None) == should_flag
            missed += not ok
            print(f"{'ok  ' if ok else 'MISS'} {name}: {error or 'passes'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
