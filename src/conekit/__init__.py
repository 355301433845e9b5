"""Exact toolkit for word cones, quiver degenerations, and flag tropicalization.

Everything is integer or rational arithmetic: cones carry exact double
description pairs, Hall structure constants come from finite-field counts
with interpolation consistency checks, and every published desk-scale value
is re-derivable through `conekit.certify` or the `conekit` command.
"""

__version__ = "0.1.0"

from .rootsys import (
    CartanMatrix,
    CapExceeded,
    NotReduced,
    VerificationFailure,
    beta_sequence,
    cartan_matrix,
    enumerate_reduced_words,
    highest_root,
    langlands_dual,
    num_positive_roots,
    parse_type,
    positive_roots,
    staircase_word,
    tight_pairs,
)
from .polycone import (
    ConeProfile,
    DimensionMismatch,
    RationalCone,
    ZeroCone,
)
from .quiverrep import (
    ConsistencyFailure,
    DynkinQuiver,
    NotAdapted,
    NotSimplyLaced,
    RepContext,
    all_orientations,
    check_superfluous_conjecture,
    enumerate_adapted_words,
    equioriented_a,
    euler_form,
    is_adapted,
    ktheory_cones,
    parse_quiver,
    quiver_from_arrows,
)
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
    InterpolationInconsistent,
    LaurentPoly,
    ScaleExceeded,
    SplitTermSurvived,
    hall_polynomial,
    hall_product,
    interval_of_root,
    module_from_positions,
    parse_module,
    q_commutator,
    verify_term_theorem,
)
from .tropflag import (
    MissingCoordinate,
    PlueckerRelation,
    initial_form,
    phi,
    phi_rank,
    pluecker_relations,
    trop_membership,
)
from .certify import run_all, run_criterion
