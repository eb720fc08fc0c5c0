"""The hot kernels, implemented in :mod:`monodom._kernels.py`.

Callers look each kernel up here at call time (`_kernels.rank_int(...)`),
so patching a name on this module replaces the kernel everywhere.
"""

from .py import dominance_masks, minimal_transversals, rank_int, rank_modp, subset_lcms

__all__ = ["dominance_masks", "minimal_transversals", "rank_int", "rank_modp", "subset_lcms"]
