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
from fractions import Fraction

from . import __version__, certify, conelab, hallalg, quiverrep, rootsys, tropflag

# Exit 1: every rejected input is a ValueError, apart from these two.
USAGE_ERRORS = (ValueError, rootsys.CapExceeded, tropflag.MissingCoordinate)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the contract wants 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_list(text: str, flag: str, kind, what: str) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be a comma list of {what}, got {text!r}")


def _parse_word(text: str) -> tuple[int, ...]:
    return _parse_list(text, "--word", int, "letters")


def _parse_interval(text: str) -> tuple[int, int]:
    module = hallalg.parse_module(text)
    if len(module) != 1:
        raise ValueError(f"expected a single interval a-b, got {text!r}")
    return module[0]


def _emit(command: str, inputs: dict, result: dict, started: float, code: int) -> int:
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


GROUPS = {
    "roots": "root system data",
    "cone": "polyhedral cones from words",
    "quiver": "module-category combinatorics",
    "hall": "finite-field structure constants",
    "trop": "flag relations and min-plus checks",
    "paper-check": "run the whole certification suite",
}

# (group, verb) -> (verb help, flags, handler), in --help order; the verb is
# None for a group without verbs. A flag is (name, add_argument keywords), and
# handler(args) returns (result, exit code). Handlers reach library functions
# through their modules when called, so a patched module attribute sees every
# call.
COMMANDS: dict = {}

REQUIRED = {"required": True}
TYPE = ("--type", REQUIRED)
WORD = ("--word", REQUIRED)
QUIVER = ("--quiver", REQUIRED)
N = ("--n", {"type": int, "required": True})


def _command(group: str, verb: str | None, *flags, help: str | None = None):
    def register(handler):
        COMMANDS[group, verb] = (help, flags, handler)
        return handler

    return register


@_command("roots", "betas", TYPE, WORD, help="the root enumeration of a word")
def _roots_betas(args):
    c = rootsys.parse_type(args.type)
    betas = rootsys.beta_sequence(c, _parse_word(args.word))
    return {"betas": [list(b) for b in betas]}, 0


@_command("roots", "words", TYPE, help="all reduced words of the longest element")
def _roots_words(args):
    words = rootsys.enumerate_reduced_words(rootsys.parse_type(args.type))
    return {"count": len(words), "words": [list(w) for w in words]}, 0


def _cone(build, parse, text: str, word_text: str):
    word = _parse_word(word_text)
    cone = build(parse(text), word)
    return {"cone": cone.to_dict(), "profile": cone.analyze()._asdict()}, 0


@_command("cone", "lusztig", TYPE, WORD)
def _cone_lusztig(args):
    return _cone(conelab.lusztig_cone, rootsys.parse_type, args.type, args.word)


@_command("cone", "negative", TYPE, WORD)
def _cone_negative(args):
    return _cone(conelab.negative_tight_cone, rootsys.parse_type, args.type, args.word)


@_command("cone", "degree", QUIVER, WORD)
def _cone_degree(args):
    return _cone(conelab.degree_cone, quiverrep.parse_quiver, args.quiver, args.word)


@_command(
    "cone", "check", QUIVER, WORD,
    ("--type", {"help": "optional cross-check against the quiver's type"}),
)
def _cone_check(args):
    word = _parse_word(args.word)
    quiver = quiverrep.parse_quiver(args.quiver)
    if args.type and rootsys.parse_type(args.type).entries != quiver.cartan.entries:
        raise ValueError(f"--type {args.type} does not match --quiver {args.quiver}")
    report = conelab.check_conjecture(quiver, word)
    return report.to_dict(), 0 if report.verdict == "equal" else 2


def _quiver_word(args):
    return quiverrep.parse_quiver(args.quiver), _parse_word(args.word)


@_command("quiver", "ar", QUIVER, WORD)
def _quiver_ar(args):
    return quiverrep.RepContext(*_quiver_word(args)).ar_data(), 0


@_command(
    "quiver", "middle", QUIVER, WORD,
    ("--mode", {"choices": ("oracle", "filter"), "default": "oracle"}),
)
def _quiver_middle(args):
    ctx = quiverrep.RepContext(*_quiver_word(args))
    pairs = []
    for k, l in ctx.ext_pairs():
        terms = ctx.middle_terms(k, l, args.mode)
        pairs.append({"pair": [k, l], "middle_terms": [list(m) for m in terms]})
    return {"pairs": pairs}, 0


@_command("quiver", "ktheory", QUIVER, WORD, ("--bound", {"type": int}))
def _quiver_ktheory(args):
    report = quiverrep.ktheory_cones(*_quiver_word(args), args.bound)
    return report, 0 if report["duality_verdict"] == "equal" else 2


@_command("quiver", "superfluous", QUIVER, WORD)
def _quiver_superfluous(args):
    return quiverrep.check_superfluous_conjecture(*_quiver_word(args)), 0


@_command(
    "hall", "poly", N,
    ("--v", {**REQUIRED, "help": "quotient class, e.g. 2-3"}),
    ("--w", {**REQUIRED, "help": "submodule class, e.g. 3-3"}),
    ("--x", {**REQUIRED, "help": "extension class, e.g. 2-3,3-3"}),
)
def _hall_poly(args):
    modules = [hallalg.parse_module(text) for text in (args.v, args.w, args.x)]
    return {"polynomial": hallalg.hall_polynomial(args.n, *modules).to_dict()}, 0


@_command("hall", "prod", N, ("--m1", REQUIRED), ("--m2", REQUIRED))
def _hall_prod(args):
    modules = [hallalg.parse_module(text) for text in (args.m1, args.m2)]
    return {"element": hallalg.hall_product(args.n, *modules).to_dict()}, 0


@_command(
    "hall", "comm", N,
    ("--v", {**REQUIRED, "help": "later interval a-b"}),
    ("--u", {**REQUIRED, "help": "earlier interval a-b"}),
)
def _hall_comm(args):
    intervals = [_parse_interval(text) for text in (args.v, args.u)]
    return {"element": hallalg.q_commutator(args.n, *intervals).to_dict()}, 0


@_command("hall", "verify-term", QUIVER, WORD, ("--k", {"type": int, "required": True}))
def _hall_verify_term(args):
    record = hallalg.verify_term_theorem(*_quiver_word(args), args.k)
    return record, 0 if record["verified"] else 2


@_command("trop", "relations", N)
def _trop_relations(args):
    rels = tropflag.pluecker_relations(args.n)
    return {"count": len(rels), "relations": [r.to_dict() for r in rels]}, 0


def _trop_weight(args):
    rels = tropflag.pluecker_relations(args.n)
    d = _parse_list(args.d, "--d", Fraction, "rationals")
    return tropflag.phi(args.n, d), rels


@_command("trop", "check", N, ("--d", REQUIRED))
def _trop_check(args):
    report = tropflag.trop_membership(*_trop_weight(args))
    return report, 0 if report["passes"] else 2


@_command("trop", "initial", N, ("--d", REQUIRED))
def _trop_initial(args):
    w, rels = _trop_weight(args)
    forms = [tropflag.initial_form(w, r) for r in rels]
    binomial = all(f["is_binomial"] for f in forms)
    return {"initial_forms": forms, "all_binomial": binomial}, 0


@_command("trop", "rank", N)
def _trop_rank(args):
    n = args.n
    return {"rank": tropflag.phi_rank(n), "full_rank": n * (n - 1) // 2}, 0


@_command("paper-check", None)
def _paper_check(args):
    report = certify.run_all()
    for r in report["results"]:
        status = "PASS" if r["passed"] else "FAIL"
        limit = f" (limit {r['limit_seconds']}s)" if r["limit_seconds"] else ""
        timing = f"{r['elapsed_seconds']:.3f}s{limit}"
        print(f"{status} {r['criterion']:>2} {r['slug']:<28} {timing}", file=sys.stderr)
    drop = ("elapsed_seconds", "within_limit")
    results = [{k: v for k, v in r.items() if k not in drop} for r in report["results"]]
    passed = report["passed"]
    return {"passed": passed, "results": results}, 0 if passed else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="conekit", description=__doc__)
    parser.add_argument("--format", choices=("json",), default="json")
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {group: sub.add_parser(group, help=text) for group, text in GROUPS.items()}
    verbs = {}
    for (group, verb), (text, flags, _) in COMMANDS.items():
        p = groups[group]
        if verb is not None:
            if group not in verbs:
                verbs[group] = p.add_subparsers(dest="verb", required=True)
            # argparse lists a verb in its group's --help once help= is given.
            p = verbs[group].add_parser(verb, **({"help": text} if text else {}))
        for name, keywords in flags:
            p.add_argument(name, **keywords)
    return parser


def _inputs(args) -> dict:
    """The input echo: every parsed flag but --format, --word as its letters."""
    skip = ("format", "group", "verb")
    inputs = {k: v for k, v in vars(args).items() if k not in skip}
    if "word" in inputs:
        inputs["word"] = list(_parse_word(args.word))
    return inputs


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    verb = getattr(args, "verb", None)
    command = args.group if verb is None else f"{args.group}.{verb}"
    _, _, handler = COMMANDS[args.group, verb]
    try:
        result, code = handler(args)
        inputs = _inputs(args)
    except rootsys.VerificationFailure as exc:
        error = {"error": type(exc).__name__, "witness": str(exc)}
        return _emit(command, {}, error, started, 2)
    except USAGE_ERRORS as exc:
        print(f"conekit: error: {exc}", file=sys.stderr)
        return 1
    return _emit(command, inputs, result, started, code)


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
