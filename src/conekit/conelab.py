"""Cones attached to reduced words.

Three families live here: the tight monomial cone and its negative
counterpart, cut out position-wise from the Cartan entries along the word;
the commutator-term inequalities carrying the divided-power multiplicities
c_s = -a(i_s, i_k); and, for adapted pairs, the degree cone whose
inequalities come from the non-split extension middle terms. The harness
compares the degree cone against the negative cone of the dual root datum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import dot
from .polycone import RationalCone, normalize_form
from .quiverrep import ConsistencyFailure, DynkinQuiver, RepContext
from .rootsys import CartanMatrix, beta_sequence, k_shift, langlands_dual

Word = tuple[int, ...]


def _tight_pairs(word) -> list[tuple[int, int]]:
    return [
        (p, nxt) for p in range(1, len(word) + 1)
        if (nxt := k_shift(word, p)) is not None
    ]


def _pair_coefficients(c: CartanMatrix, word, p: int, p1: int) -> tuple[int, ...]:
    """The vector of x_p + x_{p'} + sum a(i_p, i_s) x_s over positions."""
    coeffs = [0] * len(word)
    coeffs[p - 1] += 1
    coeffs[p1 - 1] += 1
    for s in range(p + 1, p1):
        coeffs[s - 1] += c.a(word[p - 1], word[s - 1])
    return tuple(coeffs)


def lusztig_cone(c: CartanMatrix, word) -> RationalCone:
    """Tight monomial cone: pairwise forms <= 0 together with x >= 0."""
    word = tuple(word)
    beta_sequence(c, word)  # raises NotReduced
    N = len(word)
    forms = [
        tuple(-x for x in _pair_coefficients(c, word, p, p1))
        for p, p1 in _tight_pairs(word)
    ]
    forms += [tuple(1 if t == s else 0 for t in range(N)) for s in range(N)]
    return RationalCone.from_inequalities(N, forms)


def negative_tight_cone(c: CartanMatrix, word) -> RationalCone:
    """The same pairwise forms with reversed direction and no positivity."""
    word = tuple(word)
    beta_sequence(c, word)
    N = len(word)
    forms = [
        _pair_coefficients(c, word, p, p1) for p, p1 in _tight_pairs(word)
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
    for k, l in _tight_pairs(word):
        mults = {
            s: -c.a(word[s - 1], word[k - 1]) for s in range(k + 1, l)
        }
        coeffs = [0] * len(word)
        coeffs[k - 1] += 1
        coeffs[l - 1] += 1
        for s, m in mults.items():
            coeffs[s - 1] -= m
        out.append({"pair": (k, l), "multiplicities": mults, "form": tuple(coeffs)})
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
        for p, p1 in _tight_pairs(word)
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
    betas = beta_sequence(c, word)
    n = c.rank
    for rec in commutator_terms(c, word):
        k, l = rec["pair"]
        total = [0] * n
        for s, m in rec["multiplicities"].items():
            for i in range(n):
                total[i] += m * betas[s - 1][i]
        expected = [betas[k - 1][i] + betas[l - 1][i] for i in range(n)]
        if total != expected:
            return False
    return True


def degree_cone(quiver: DynkinQuiver, word, ctx: RepContext | None = None) -> RationalCone:
    """Inequalities d_k + d_l >= sum n_t d_t over all extension middle terms."""
    if ctx is None:
        ctx = RepContext(quiver, word)
    N = ctx.N
    forms = set()
    for k in range(1, N + 1):
        for l in range(k + 1, N + 1):
            if ctx.ext_indec(l, k) == 0:
                continue
            for x in ctx.middle_terms(k, l, mode="oracle"):
                coeffs = [0] * N
                coeffs[k - 1] += 1
                coeffs[l - 1] += 1
                for t, m in enumerate(x, start=1):
                    if m:
                        coeffs[t - 1] -= m
                forms.add(normalize_form(coeffs))
    return RationalCone.from_inequalities(N, sorted(forms))


@dataclass(frozen=True)
class ConeReport:
    word: Word
    quiver: str
    verdict: str  # equal | strict_subset | violation
    witness: dict | None
    degree_cone: RationalCone
    negative_cone: RationalCone
    roots: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
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
    """A generator of `small` outside `big`, with the inequality it violates."""
    facets, span_perp = big.dualrep()
    for r in list(small.rays) + [v for l in small.lineality for v in (l, tuple(-x for x in l))]:
        for f in facets:
            if dot(f, r) < 0:
                return {"kind": kind, "ray": list(r), "violated_form": list(f)}
        for e in span_perp:
            if dot(e, r) != 0:
                return {"kind": kind, "ray": list(r), "violated_equation": list(e)}
    raise AssertionError("no witness found although containment failed")


def check_conjecture(quiver: DynkinQuiver, word) -> ConeReport:
    """Compare the degree cone with the dual-datum negative cone.

    The degree cone can never leave the negative cone (that containment is a
    theorem-level invariant); a 'violation' verdict therefore signals an
    implementation bug and carries an explicit substitution witness.
    """
    ctx = RepContext(quiver, word)
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
