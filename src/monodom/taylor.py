"""The lcm lattice of generator subsets (the Taylor complex), and its Scarf core.

Symbols are encoded as q-bit masks over the canonical generator order.
The differential of a symbol removes one member at a time with sign
(-1)^(j+1), j being the member's 1-based position in the ascending index
list; `facets` yields those pairs. The monomial part of every entry is
the quotient of the two symbols' multidegrees, so nothing but the lcm
table is stored, and `build_taylor` shares one lattice per ideal,
read-only, between the engine, the oracle and the Scarf basis.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from . import _kernels
from .errors import TaylorTooLarge
from .monomials import Monomial, MonomialIdeal

TAYLOR_GUARD = 14  # 2^q symbols; C(14,7) columns is still tens of MB


def members_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def facets(sigma: int) -> Iterator[tuple[int, int]]:
    """(tau, sign) for each facet tau of sigma.

    Members are dropped in ascending order with signs +1, -1, +1, ...
    """
    sign, rest = 1, sigma
    while rest:
        low = rest & -rest
        yield sigma ^ low, sign
        sign, rest = -sign, rest ^ low


def symbol_label(ideal: MonomialIdeal, mask: int) -> str:
    """The symbol's generators, e.g. ``[a^2, a*b]``; the empty symbol is ``[0]``."""
    if mask == 0:
        return "[0]"
    return "[" + ", ".join(str(ideal.generators[i]) for i in members_of(mask)) + "]"


@dataclass(frozen=True)
class TaylorSymbol:
    mask: int
    hdeg: int
    mdeg: Monomial

    def members(self) -> tuple[int, ...]:
        return members_of(self.mask)

    def label(self, ideal: MonomialIdeal) -> str:
        return symbol_label(ideal, self.mask)


class TaylorComplex:
    """The lcm lattice of generator subsets, read-only once built.

    mdeg_exps[mask] is the lcm exponent tuple of the subset `mask`;
    strata[h] holds the masks with h members in ascending order; masks[m]
    is m itself, one int object per mask for callers that key tables by
    mask. The differential is never stored: `facets` gives each column.
    """

    def __init__(self, ideal: MonomialIdeal):
        self.table = ideal.table
        self.q = ideal.q
        # Symbols with equal lcms share one tuple: the path ideal with
        # q = 14 has 16,384 masks and 3,329 distinct lcms.
        lcms = _kernels.subset_lcms(ideal.exponent_rows, ideal.n)
        distinct: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.mdeg_exps = tuple(map(distinct.setdefault, lcms, lcms))
        self.masks = tuple(range(1 << self.q))
        strata: list[list[int]] = [[] for _ in range(self.q + 1)]
        for mask in self.masks:
            strata[mask.bit_count()].append(mask)
        self.strata = tuple(map(tuple, strata))

    def mdeg(self, mask: int) -> Monomial:
        return Monomial(self.table, self.mdeg_exps[mask])

    def symbol(self, mask: int) -> TaylorSymbol:
        return TaylorSymbol(mask, mask.bit_count(), self.mdeg(mask))

    @cached_property
    def mdeg_groups(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Symbols sharing one multidegree, keyed by exponent tuple, masks ascending."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for mask, exps in enumerate(self.mdeg_exps):
            groups.setdefault(exps, []).append(mask)
        return {exps: tuple(group) for exps, group in groups.items()}


def build_taylor(ideal: MonomialIdeal, max_q: int = TAYLOR_GUARD) -> TaylorComplex:
    """The subset lattice of `ideal`, shared by every caller while one holds it.

    The ideal keeps a weak reference to its lattice, so whoever holds the
    lattice (as an `Analysis` does for its lifetime) makes every later
    call return the same object, which no caller may change; a lattice
    nobody holds is freed instead of living as long as its ideal.
    """
    if ideal.q > max_q:
        raise TaylorTooLarge(ideal.q, max_q)
    ref = vars(ideal).get("_taylor")
    cx = ref() if ref is not None else None
    if cx is None:
        cx = TaylorComplex(ideal)
        object.__setattr__(ideal, "_taylor", weakref.ref(cx))  # a frozen dataclass
    return cx


@dataclass(frozen=True)
class ScarfBasis:
    """Symbols with a unique multidegree, with their per-degree ranks."""

    symbols: tuple[TaylorSymbol, ...]
    ranks: tuple[int, ...]  # index = homological degree, trailing zeros trimmed


def scarf_basis(ideal: MonomialIdeal) -> ScarfBasis:
    cx = build_taylor(ideal)
    symbols = []
    counts = [0] * (cx.q + 1)
    for group in cx.mdeg_groups.values():
        if len(group) == 1:
            (mask,) = group
            symbols.append(cx.symbol(mask))
            counts[mask.bit_count()] += 1
    symbols.sort(key=lambda sym: (sym.hdeg, sym.mask))
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return ScarfBasis(tuple(symbols), tuple(counts))


def mdeg_multiplicity_table(ideal: MonomialIdeal) -> dict[Monomial, dict[int, int]]:
    """How many symbols attain each multidegree, split by homological degree."""
    cx = build_taylor(ideal)
    out: dict[Monomial, dict[int, int]] = {}
    for exps, group in cx.mdeg_groups.items():
        per_deg: dict[int, int] = {}
        for mask in group:
            h = mask.bit_count()
            per_deg[h] = per_deg.get(h, 0) + 1
        out[Monomial(ideal.table, exps)] = per_deg
    return out


def is_scarf(ideal: MonomialIdeal) -> bool:
    """Whether the unique-multidegree symbols already resolve the quotient.

    Compared rank-by-rank against the minimization engine's Betti numbers.
    """
    from .verify import Analysis  # local import; verify builds on this module

    return Analysis(ideal).scarf
