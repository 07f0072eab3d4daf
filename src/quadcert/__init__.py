"""quadcert: exact finite-field constructions and rank certificates on the
power-sum quadric, with a reproducible JSON certificate CLI.

The top level re-exports exactly the names of the README's Library example;
every other name is imported from its own module, and the errors from
`quadcert.errors`."""

from .gf import field_make
from .profile import binary_profile, check_hypotheses
from .trace_system import lift_block_solution, solve_block_system
from .quadric import AmbientPoint, on_quadric, sample_quadric_point
from .actions import AffineMap, Permutation, invariance_report
from .compression import compress, rank_certificate

__version__ = "0.1.0"

__all__ = [
    "field_make",
    "binary_profile",
    "check_hypotheses",
    "solve_block_system",
    "lift_block_solution",
    "sample_quadric_point",
    "on_quadric",
    "AmbientPoint",
    "Permutation",
    "AffineMap",
    "invariance_report",
    "compress",
    "rank_certificate",
    "__version__",
]
