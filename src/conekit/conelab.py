"""Cones attached to reduced words.

Three families live here: the tight monomial cone and its negative
counterpart, cut out position-wise from the Cartan entries along the word;
the commutator-term inequalities carrying the divided-power multiplicities
c_s = -a(i_s, i_k); and, for adapted pairs, the degree cone whose
inequalities come from the non-split extension middle terms. The harness
compares the degree cone against the negative cone of the dual root datum.
"""

from __future__ import annotations

from collections import namedtuple

from .linalg import dot
from .polycone import RationalCone, normalize_form
from .quiverrep import ConsistencyFailure, DynkinQuiver, RepContext
from .rootsys import CartanMatrix, Record, beta_sequence, langlands_dual, tight_pairs


def _term_form(size: int, k: int, l: int, inner) -> tuple[int, ...]:
    """Coefficients of d_k + d_l - sum_s inner[s] d_s over `size` positions."""
    coeffs = [0] * size
    coeffs[k - 1] += 1
    coeffs[l - 1] += 1
    for s, m in inner.items():
        coeffs[s - 1] -= m
    return tuple(coeffs)


def _pair_coefficients(c: CartanMatrix, word, p: int, p1: int) -> tuple[int, ...]:
    """The vector of x_p + x_{p'} + sum a(i_p, i_s) x_s over positions."""
    inner = {s: -c.a(word[p - 1], word[s - 1]) for s in range(p + 1, p1)}
    return _term_form(len(word), p, p1, inner)


def lusztig_cone(c: CartanMatrix, word) -> RationalCone:
    """Tight monomial cone: pairwise forms <= 0 together with x >= 0."""
    word = tuple(word)
    beta_sequence(c, word)  # raises NotReduced
    N = len(word)
    forms = [
        tuple(-x for x in _pair_coefficients(c, word, p, p1))
        for p, p1 in tight_pairs(word)
    ]
    forms += [tuple(1 if t == s else 0 for t in range(N)) for s in range(N)]
    return RationalCone.from_inequalities(N, forms)


def negative_tight_cone(c: CartanMatrix, word) -> RationalCone:
    """The same pairwise forms with reversed direction and no positivity."""
    word = tuple(word)
    beta_sequence(c, word)
    N = len(word)
    forms = [
        _pair_coefficients(c, word, p, p1) for p, p1 in tight_pairs(word)
    ]
    return RationalCone.from_inequalities(N, forms)


def commutator_terms(c: CartanMatrix, word) -> list[dict]:
    """Per tight pair (k, k[1]): the divided-power multiplicities c_s.

    Each record carries the pair, the map s -> c_s = -a(i_s, i_k) on the
    strict inner window, and the inequality d_k + d_l >= sum c_s d_s as a
    coefficient vector (>= 0 convention).
    """
    word = tuple(word)
    beta_sequence(c, word)
    out = []
    for k, l in tight_pairs(word):
        mults = {
            s: -c.a(word[s - 1], word[k - 1]) for s in range(k + 1, l)
        }
        form = _term_form(len(word), k, l, mults)
        out.append({"pair": (k, l), "multiplicities": mults, "form": form})
    return out


def theorem_term_inequalities(c: CartanMatrix, word) -> list[tuple[int, ...]]:
    """The inequality forms of the commutator terms.

    These must coincide with the defining forms of the negative cone of the
    dual root datum; the identity is checked on every call since both
    routes exist independently, and a mismatch raises ConsistencyFailure.
    """
    word = tuple(word)
    forms = [rec["form"] for rec in commutator_terms(c, word)]
    dual_forms = [
        _pair_coefficients(langlands_dual(c), word, p, p1)
        for p, p1 in tight_pairs(word)
    ]
    lhs = sorted(normalize_form(f) for f in forms)
    rhs = sorted(normalize_form(f) for f in dual_forms)
    if lhs != rhs:
        raise ConsistencyFailure(
            "commutator forms disagree with the dual negative cone"
        )
    return forms


def root_sum_identity(c: CartanMatrix, word) -> bool:
    """beta_k + beta_{k[1]} = sum c_s beta_s on the inner window, all pairs."""
    word = tuple(word)
    coordinates = list(zip(*beta_sequence(c, word)))
    # each form d_k + d_l - sum c_s d_s must vanish on every root coordinate
    return not any(
        dot(rec["form"], xs) for rec in commutator_terms(c, word) for xs in coordinates
    )


def _context_for(quiver: DynkinQuiver, word, ctx: RepContext | None) -> RepContext:
    """`ctx` if it was built for this quiver and word, a new one if None."""
    if ctx is None:
        return RepContext(quiver, word)
    if ctx.quiver != quiver or ctx.word != tuple(word):
        raise ValueError(
            f"context built for quiver {ctx.quiver} and word {ctx.word}, "
            f"not for quiver {quiver} and word {tuple(word)}"
        )
    return ctx


def degree_cone(quiver: DynkinQuiver, word, ctx: RepContext | None = None) -> RationalCone:
    """Inequalities d_k + d_l >= sum n_t d_t over all extension middle terms.

    The terms come from `RepContext.oracle_middle_terms`, which walks one
    Ext pair per τ-orbit and carries its terms along the others. Each form
    is read off the multiplicity vector n: -n, plus 1 at k and at l. A
    given `ctx` must be the context of this quiver and word (ValueError).
    """
    ctx = _context_for(quiver, word, ctx)
    forms = set()
    for (k, l), terms in ctx.oracle_middle_terms():
        for x in terms:
            form = [-m for m in x]
            form[k - 1] += 1
            form[l - 1] += 1
            forms.add(tuple(form))
    return RationalCone.from_inequalities(ctx.N, forms)


class ConeReport(Record, namedtuple("ConeReport", (
        "word quiver verdict witness degree_cone negative_cone roots"))):
    """`verdict` is equal, strict_subset or violation."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The report as JSON data; each cone lists its given forms under
        `ineqs`. After `equal` the degree cone has the negative cone's V-sides,
        so this runs no DD; after `strict_subset` it runs the degree cone's."""
        return {
            "word": list(self.word),
            "quiver": self.quiver,
            "verdict": self.verdict,
            "witness": self.witness,
            "degree_cone": self.degree_cone.to_dict(),
            "negative_cone": self.negative_cone.to_dict(),
            "roots": [list(b) for b in self.roots],
        }


def _missing_ray_witness(small: RationalCone, big: RationalCone, kind: str) -> dict:
    """A generator of `small` outside `big`, with the given form of `big` it
    violates: the form and generator that failed `big.contains(small)`."""
    ray, form = big.missing_generator(small)
    return {"kind": kind, "ray": list(ray), "violated_form": list(form)}


def check_conjecture(
    quiver: DynkinQuiver, word, ctx: RepContext | None = None
) -> ConeReport:
    """Compare the degree cone with the dual-datum negative cone.

    The degree cone can never leave the negative cone (that containment is a
    theorem-level invariant); a 'violation' verdict therefore signals an
    implementation bug. A witness is the failing test's ray or line of the
    smaller cone and given form of the bigger one, negative on it. Save on
    `violation`, neither test runs DD: the negative cone's sides come from
    `_triangular_vrep`, and on `equal` `d_cone.contains(l_cone)` hands them
    to the degree cone. A given `ctx` must be the context of this quiver
    and word (ValueError).
    """
    ctx = _context_for(quiver, word, ctx)
    d_cone = degree_cone(quiver, word, ctx=ctx)
    l_cone = negative_tight_cone(langlands_dual(quiver.cartan), word)
    if not l_cone.contains(d_cone):
        verdict = "violation"
        witness = _missing_ray_witness(d_cone, l_cone, "degree_ray_outside_negative_cone")
    elif d_cone.contains(l_cone):
        verdict = "equal"
        witness = None
    else:
        verdict = "strict_subset"
        witness = _missing_ray_witness(l_cone, d_cone, "negative_ray_outside_degree_cone")
    return ConeReport(
        word=tuple(word),
        quiver=str(quiver),
        verdict=verdict,
        witness=witness,
        degree_cone=d_cone,
        negative_cone=l_cone,
        roots=ctx.betas,
    )
