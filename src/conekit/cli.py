"""Command-line frontend.

Every command prints one canonical JSON document on stdout (sorted keys, so
identical inputs give byte-identical output) and a short human summary with
timing on stderr. Exit code 0 means success or verified, 2 means a
verification failure with a machine-checkable witness in the JSON, 1 means
a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .conelab import check_conjecture, degree_cone, lusztig_cone, negative_tight_cone
from .hallalg import (
    CountInconsistent,
    InterpolationInconsistent,
    SplitTermSurvived,
    hall_polynomial,
    hall_product,
    parse_module,
    q_commutator,
    verify_term_theorem,
)
from .quiverrep import (
    ConsistencyFailure,
    RepContext,
    check_superfluous_conjecture,
    ktheory_cones,
    parse_quiver,
)
from .rootsys import (
    CapExceeded,
    beta_sequence,
    enumerate_reduced_words,
    parse_type,
)
from .tropflag import (
    InvariantFailure,
    MissingCoordinate,
    initial_form,
    phi,
    phi_rank,
    pluecker_relations,
    trop_membership,
)
from . import certify

# Exit 1: every rejected input is a ValueError, apart from these two.
USAGE_ERRORS = (ValueError, CapExceeded, MissingCoordinate)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the contract wants 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_word(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--word must be a comma list of letters, got {text!r}")


def _parse_d(text: str):
    from fractions import Fraction

    try:
        return [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--d must be a comma list of rationals, got {text!r}")


def _parse_interval(text: str) -> tuple[int, int]:
    module = parse_module(text)
    if len(module) != 1:
        raise ValueError(f"expected a single interval a-b, got {text!r}")
    return module[0]


def _emit(command: str, inputs: dict, result: dict, started: float, code: int = 0) -> int:
    doc = {
        "command": command,
        "deterministic": True,
        "inputs": inputs,
        "result": result,
        "version": __version__,
    }
    print(json.dumps(doc, sort_keys=True, indent=2, default=str))
    elapsed = time.monotonic() - started
    status = "ok" if code == 0 else "verification failure"
    print(f"{command}: {status} ({elapsed:.3f}s)", file=sys.stderr)
    return code


def build_parser() -> _Parser:
    parser = _Parser(prog="conekit", description=__doc__)
    parser.add_argument("--format", choices=("json",), default="json")
    sub = parser.add_subparsers(dest="group", required=True)

    roots = sub.add_parser("roots", parents=[], help="root system data")
    roots_sub = roots.add_subparsers(dest="verb", required=True)
    p = roots_sub.add_parser("betas", help="the root enumeration of a word")
    p.add_argument("--type", required=True)
    p.add_argument("--word", required=True)
    p = roots_sub.add_parser("words", help="all reduced words of the longest element")
    p.add_argument("--type", required=True)

    cone = sub.add_parser("cone", help="polyhedral cones from words")
    cone_sub = cone.add_subparsers(dest="verb", required=True)
    for verb in ("lusztig", "negative"):
        p = cone_sub.add_parser(verb)
        p.add_argument("--type", required=True)
        p.add_argument("--word", required=True)
    for verb in ("degree", "check"):
        p = cone_sub.add_parser(verb)
        p.add_argument("--quiver", required=True)
        p.add_argument("--word", required=True)
    p.add_argument("--type", help="optional cross-check against the quiver's type")

    quiver = sub.add_parser("quiver", help="module-category combinatorics")
    quiver_sub = quiver.add_subparsers(dest="verb", required=True)
    for verb in ("ar", "middle", "ktheory", "superfluous"):
        p = quiver_sub.add_parser(verb)
        p.add_argument("--quiver", required=True)
        p.add_argument("--word", required=True)
        if verb == "middle":
            p.add_argument("--mode", choices=("oracle", "filter"), default="oracle")
        if verb == "ktheory":
            p.add_argument("--bound", type=int)

    hall = sub.add_parser("hall", help="finite-field structure constants")
    hall_sub = hall.add_subparsers(dest="verb", required=True)
    p = hall_sub.add_parser("poly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", required=True, help="quotient class, e.g. 2-3")
    p.add_argument("--w", required=True, help="submodule class, e.g. 3-3")
    p.add_argument("--x", required=True, help="extension class, e.g. 2-3,3-3")
    p = hall_sub.add_parser("prod")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p = hall_sub.add_parser("comm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", required=True, help="later interval a-b")
    p.add_argument("--u", required=True, help="earlier interval a-b")
    p = hall_sub.add_parser("verify-term")
    p.add_argument("--quiver", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int, required=True)

    trop = sub.add_parser("trop", help="flag relations and min-plus checks")
    trop_sub = trop.add_subparsers(dest="verb", required=True)
    for verb in ("relations", "check", "initial", "rank"):
        p = trop_sub.add_parser(verb)
        p.add_argument("--n", type=int, required=True)
        if verb in ("check", "initial"):
            p.add_argument("--d", required=True)

    sub.add_parser("paper-check", help="run the whole certification suite")
    return parser


def _cmd_roots(args, started: float) -> int:
    c = parse_type(args.type)
    if args.verb == "betas":
        word = _parse_word(args.word)
        betas = beta_sequence(c, word)
        return _emit(
            "roots.betas",
            {"type": args.type, "word": list(word)},
            {"betas": [list(b) for b in betas]},
            started,
        )
    words = enumerate_reduced_words(c)
    return _emit(
        "roots.words",
        {"type": args.type},
        {"count": len(words), "words": [list(w) for w in words]},
        started,
    )


def _cmd_cone(args, started: float) -> int:
    word = _parse_word(args.word)
    if args.verb != "check":
        if args.verb == "degree":
            inputs = {"quiver": args.quiver, "word": list(word)}
            cone = degree_cone(parse_quiver(args.quiver), word)
        else:
            inputs = {"type": args.type, "word": list(word)}
            builder = lusztig_cone if args.verb == "lusztig" else negative_tight_cone
            cone = builder(parse_type(args.type), word)
        result = {"cone": cone.to_dict(), "profile": cone.analyze().__dict__}
        return _emit(f"cone.{args.verb}", inputs, result, started)
    quiver = parse_quiver(args.quiver)
    if args.type and parse_type(args.type).entries != quiver.cartan.entries:
        raise ValueError(f"--type {args.type} does not match --quiver {args.quiver}")
    report = check_conjecture(quiver, word)
    code = 0 if report.verdict == "equal" else 2
    return _emit(
        "cone.check",
        {"quiver": args.quiver, "word": list(word), "type": args.type},
        report.to_dict(),
        started,
        code,
    )


def _cmd_quiver(args, started: float) -> int:
    quiver = parse_quiver(args.quiver)
    word = _parse_word(args.word)
    inputs = {"quiver": args.quiver, "word": list(word)}
    if args.verb == "ar":
        ctx = RepContext(quiver, word)
        return _emit("quiver.ar", inputs, ctx.ar_data(), started)
    if args.verb == "middle":
        ctx = RepContext(quiver, word)
        pairs = [
            {
                "pair": [k, l],
                "middle_terms": [list(m) for m in ctx.middle_terms(k, l, args.mode)],
            }
            for k, l in ctx.ext_pairs()
        ]
        return _emit(
            "quiver.middle", {**inputs, "mode": args.mode}, {"pairs": pairs}, started
        )
    if args.verb == "ktheory":
        report = ktheory_cones(quiver, word, args.bound)
        code = 0 if report["duality_verdict"] == "equal" else 2
        return _emit(
            "quiver.ktheory", {**inputs, "bound": args.bound}, report, started, code
        )
    report = check_superfluous_conjecture(quiver, word)
    return _emit("quiver.superfluous", inputs, report, started)


def _cmd_hall(args, started: float) -> int:
    if args.verb == "poly":
        poly = hall_polynomial(
            args.n, parse_module(args.v), parse_module(args.w), parse_module(args.x)
        )
        return _emit(
            "hall.poly",
            {"n": args.n, "v": args.v, "w": args.w, "x": args.x},
            {"polynomial": poly.to_dict()},
            started,
        )
    if args.verb == "prod":
        elem = hall_product(args.n, parse_module(args.m1), parse_module(args.m2))
        return _emit(
            "hall.prod",
            {"n": args.n, "m1": args.m1, "m2": args.m2},
            {"element": elem.to_dict()},
            started,
        )
    if args.verb == "comm":
        elem = q_commutator(args.n, _parse_interval(args.v), _parse_interval(args.u))
        return _emit(
            "hall.comm",
            {"n": args.n, "v": args.v, "u": args.u},
            {"element": elem.to_dict()},
            started,
        )
    quiver = parse_quiver(args.quiver)
    word = _parse_word(args.word)
    record = verify_term_theorem(quiver, word, args.k)
    code = 0 if record["verified"] else 2
    return _emit(
        "hall.verify-term",
        {"quiver": args.quiver, "word": list(word), "k": args.k},
        record,
        started,
        code,
    )


def _cmd_trop(args, started: float) -> int:
    rels = pluecker_relations(args.n)
    if args.verb == "relations":
        return _emit(
            "trop.relations",
            {"n": args.n},
            {"count": len(rels), "relations": [r.to_dict() for r in rels]},
            started,
        )
    if args.verb == "rank":
        return _emit(
            "trop.rank",
            {"n": args.n},
            {"rank": phi_rank(args.n), "full_rank": args.n * (args.n - 1) // 2},
            started,
        )
    d = _parse_d(args.d)
    w = phi(args.n, d)
    if args.verb == "check":
        report = trop_membership(w, rels)
        code = 0 if report["passes"] else 2
        return _emit(
            "trop.check", {"n": args.n, "d": args.d}, report, started, code
        )
    forms = [initial_form(w, r) for r in rels]
    return _emit(
        "trop.initial",
        {"n": args.n, "d": args.d},
        {"initial_forms": forms, "all_binomial": all(f["is_binomial"] for f in forms)},
        started,
    )


def _cmd_paper_check(args, started: float) -> int:
    report = certify.run_all()
    stripped = {
        "passed": report["passed"],
        "results": [
            {k: v for k, v in r.items() if k not in ("elapsed_seconds", "within_limit")}
            for r in report["results"]
        ],
    }
    for r in report["results"]:
        status = "PASS" if r["passed"] else "FAIL"
        limit = f" (limit {r['limit_seconds']}s)" if r["limit_seconds"] else ""
        print(
            f"{status} {r['criterion']:>2} {r['slug']:<28} "
            f"{r['elapsed_seconds']:.3f}s{limit}",
            file=sys.stderr,
        )
    code = 0 if report["passed"] else 2
    return _emit("paper-check", {}, stripped, started, code)


COMMANDS = {
    "roots": _cmd_roots,
    "cone": _cmd_cone,
    "quiver": _cmd_quiver,
    "hall": _cmd_hall,
    "trop": _cmd_trop,
    "paper-check": _cmd_paper_check,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        return COMMANDS[args.group](args, started)
    except (
        SplitTermSurvived,
        InterpolationInconsistent,
        CountInconsistent,
        ConsistencyFailure,
        InvariantFailure,
    ) as exc:
        return _emit(
            f"{args.group}",
            {},
            {"error": type(exc).__name__, "witness": str(exc)},
            started,
            2,
        )
    except USAGE_ERRORS as exc:
        print(f"conekit: error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
