"""Minimal free resolutions and dominance invariants of monomial ideals.

The toolkit minimizes a free resolution by consecutive cancellations,
starting from the Lyubeznik subcomplex of the subset (Taylor) complex
for every invariant report and from the full Taylor complex when the
minimized complex itself is printed. It recomputes every Betti number
independently via strand homology, computes the order of dominance by
two routes (dominant subsets, and minimal nets of the polarization), and
ships an executable suite of the structural theorems tying these together.
"""

from .dominance import (
    DominanceWitness,
    dominant_variables,
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
    parse_ideal,
    polarize,
    table,
)
from .nets import (
    MinimalNetFamily,
    Net,
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
    "betti_oracle",
    "build_taylor",
    "check_lemma_hypotheses",
    "check_report",
    "dominant_variables",
    "fuzz",
    "is_complete_intersection",
    "is_dominant_set",
    "is_net",
    "is_taylor_minimal",
    "kernel_backend",
    "lcm_of",
    "minimal_nets",
    "minimalize",
    "minimize",
    "odom_by_dominance",
    "odom_by_nets",
    "parse_ideal",
    "polarize",
    "random_ideal",
    "scarf_basis",
    "table",
]
