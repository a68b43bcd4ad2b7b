"""Numerical workbench for frame multipliers on weighted coefficient spaces.

The package answers one question many ways: when is a frame multiplier with
positive symbol mu an isomorphism between the weighted coefficient spaces
H^p_{m sqrt(mu)} and H^p_{m / sqrt(mu)}? Exact matrix identities, certified
two-sided constants, and scaling studies over Gabor and Bargmann-Fock kernel
frames each probe a piece of it.
"""

from .coorbit import FrameFamily, coercivity_check, lifting_constants, lifting_theorem_pipeline, sweep
from .fock import (
    FockFamily,
    FockLattice,
    beurling_density_lower,
    beurling_density_table,
    bulk_frame,
    embed_truncated,
    fock_gram_exact,
)
from .frames import (
    Frame,
    NotAFrameError,
    gram_identities_check,
    random_frame,
)
from .gabor import (
    GaborFamily,
    TFLattice,
    gabor_system,
    gaussian_window,
    stft,
    tf_shift,
)
from .matalg import (
    conjugate,
    decay_constant,
    operator_norm,
    pseudo_inverse,
)
from .multipliers import (
    Slots,
    galerkin,
    invertibility_verdicts,
    multiplier,
    spectral_invariance_suite,
)
from .weights import IndexSet, Weight, moderateness_constant

__version__ = "0.1.0"

__all__ = [
    "FockFamily",
    "FockLattice",
    "Frame",
    "FrameFamily",
    "GaborFamily",
    "IndexSet",
    "NotAFrameError",
    "Slots",
    "TFLattice",
    "Weight",
    "beurling_density_lower",
    "beurling_density_table",
    "bulk_frame",
    "coercivity_check",
    "conjugate",
    "decay_constant",
    "embed_truncated",
    "fock_gram_exact",
    "gabor_system",
    "galerkin",
    "gaussian_window",
    "gram_identities_check",
    "invertibility_verdicts",
    "lifting_constants",
    "lifting_theorem_pipeline",
    "moderateness_constant",
    "multiplier",
    "operator_norm",
    "pseudo_inverse",
    "random_frame",
    "spectral_invariance_suite",
    "stft",
    "sweep",
    "tf_shift",
    "__version__",
]
