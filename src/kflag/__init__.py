"""Exact Schubert calculus over the flag variety.

Building blocks: the symmetric group with its Bruhat orders (`perm`), exact
integer Laurent polynomials (`laurent`), divided difference operators
(`ddo`), double Grothendieck polynomials (`groth`), localization at the
torus-fixed points with the exhaustive support sweep (`gkm`), and the
weight-variety layer with kernel generators and presentations (`kirwan`).
A command line front end lives in `cli`.
"""

from .errors import (
    InternalInvariantError,
    InvalidInputError,
    KflagError,
    LimitExceededError,
    NotDivisibleError,
    NotInSpanError,
    NotRegularError,
    SoundnessFailureError,
)
from .perm import (
    Permutation,
    all_permutations,
    act_on_weights,
    bruhat_leq,
    canonical_reduced_word,
    compose,
    permuted_bruhat_leq,
)
from .laurent import (
    LaurentPoly,
    canonical_zero_test,
    elementary_symmetric,
    exact_div,
    permute_y,
    poly_from_json,
    poly_to_json,
    render_poly,
)
from .ddo import delta, pi
from .groth import (
    grothendieck,
    permuted_grothendieck,
    top,
)
from .gkm import (
    RestrictionClass,
    SweepReport,
    decompose,
    recompose,
    restrict,
    restrict_all,
    support,
    verify_support_theorem,
)
from .kirwan import (
    KernelGenerator,
    Presentation,
    WeightVector,
    cover_monotonicity,
    eta_value,
    half_space_soundness,
    is_regular,
    kernel_generators,
    kernel_soundness,
    moment_image,
    presentation,
)

__version__ = "0.1.0"
