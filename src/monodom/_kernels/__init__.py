"""Kernel backend selection.

The compiled extension is preferred when importable; the pure-Python
module is the fallback. Set MONODOM_PURE=1 to force the fallback (used
by the benchmark and by CI to exercise both paths).

The compiled kernels work in fixed-width integers and raise
OverflowError on inputs that do not fit (an exponent >= 2^31, an int64
elimination that blows up); every kernel then answers with the exact
pure result instead.
"""

from __future__ import annotations

import functools
import os

from . import py as _py

impl = _py
BACKEND = "pure"

if not os.environ.get("MONODOM_PURE"):
    try:
        from . import _fast as _fast_mod

        impl = _fast_mod
        BACKEND = "compiled"
    except ImportError:
        pass


def exact(compiled, pure):
    """`compiled`, falling back to `pure` whenever it raises OverflowError."""
    if compiled is pure:
        return pure

    @functools.wraps(pure)
    def kernel(*args):
        try:
            return compiled(*args)
        except OverflowError:
            return pure(*args)

    return kernel


subset_lcms = exact(impl.subset_lcms, _py.subset_lcms)
minimal_transversals = exact(impl.minimal_transversals, _py.minimal_transversals)
dominance_masks = exact(impl.dominance_masks, _py.dominance_masks)
rank_int = exact(impl.rank_int, _py.rank_int)
rank_modp = exact(impl.rank_modp, _py.rank_modp)
