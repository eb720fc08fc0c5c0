"""Minimal free resolutions and dominance invariants of monomial ideals.

The toolkit minimizes the full subset (Taylor) complex by consecutive
cancellations, recomputes every Betti number independently via strand
homology, computes the order of dominance by two routes (dominant
subsets, and minimal nets of the polarization), and ships an executable
suite of the structural theorems tying these together.
"""

from .dominance import (
    DominanceWitness,
    dominant_variables,
    has_full_dominant_set,
    is_dominant_set,
    is_taylor_minimal,
    odom_by_dominance,
)
from .errors import (
    FuzzFailure,
    GuardExceeded,
    IdealSyntaxError,
    InternalInvariantError,
    InvalidIdealError,
    InvalidParameterError,
    MonodomError,
    TableMismatchError,
    TaylorTooLarge,
    UnknownVariableError,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableTable,
    lcm_of,
    minimalize,
    monomial,
    parse_ideal,
    polarize,
    table,
)
from .nets import (
    MinimalNetFamily,
    Net,
    associated_prime_view,
    big_height,
    codim,
    dominant_set_from_net,
    is_net,
    minimal_nets,
    odom_by_nets,
)
from .resolution import (
    RATIONAL,
    BettiTable,
    FreeComplex,
    PrimeField,
    betti_oracle,
    is_complete_intersection,
    minimize,
)
from .taylor import (
    ScarfBasis,
    TaylorComplex,
    TaylorSymbol,
    build_taylor,
    mdeg_multiplicity_table,
    scarf_basis,
)
from .verify import (
    Analysis,
    FuzzParams,
    FuzzSummary,
    LemmaInstance,
    check_lemma_hypotheses,
    check_report,
    fuzz,
    is_cohen_macaulay,
    is_scarf,
    pure_power_extension,
    random_ideal,
)

__version__ = "0.1.0"

# the kernels are pure Python; benchmark results carry this as a label
kernel_backend = "pure"

__all__ = [
    "Analysis",
    "BettiTable",
    "DominanceWitness",
    "FreeComplex",
    "FuzzFailure",
    "FuzzParams",
    "FuzzSummary",
    "GuardExceeded",
    "IdealSyntaxError",
    "InternalInvariantError",
    "InvalidIdealError",
    "InvalidParameterError",
    "LemmaInstance",
    "MinimalNetFamily",
    "Monomial",
    "MonomialIdeal",
    "MonodomError",
    "Net",
    "PrimeField",
    "RATIONAL",
    "ScarfBasis",
    "TableMismatchError",
    "TaylorComplex",
    "TaylorSymbol",
    "TaylorTooLarge",
    "UnknownVariableError",
    "VariableTable",
    "associated_prime_view",
    "betti_oracle",
    "big_height",
    "build_taylor",
    "check_lemma_hypotheses",
    "check_report",
    "codim",
    "dominant_set_from_net",
    "dominant_variables",
    "fuzz",
    "has_full_dominant_set",
    "is_cohen_macaulay",
    "is_complete_intersection",
    "is_dominant_set",
    "is_net",
    "is_scarf",
    "is_taylor_minimal",
    "kernel_backend",
    "lcm_of",
    "mdeg_multiplicity_table",
    "minimal_nets",
    "minimalize",
    "minimize",
    "monomial",
    "odom_by_dominance",
    "odom_by_nets",
    "parse_ideal",
    "polarize",
    "pure_power_extension",
    "random_ideal",
    "scarf_basis",
    "table",
]
