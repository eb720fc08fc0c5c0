"""The full 2^q labeled free complex on generator subsets, and its Scarf core.

Symbols are encoded as q-bit masks over the canonical generator order.
The differential of a symbol removes one member at a time with sign
(-1)^(j+1), j being the member's 1-based position in the ascending index
list; the monomial part of every entry is the quotient of the two
symbols' multidegrees and is therefore never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _kernels
from .errors import InternalInvariantError, TaylorTooLarge
from .monomials import Monomial, MonomialIdeal

TAYLOR_GUARD = 14  # 2^q symbols; C(14,7) columns is still tens of MB


def members_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class TaylorSymbol:
    mask: int
    hdeg: int
    mdeg: Monomial

    def members(self) -> tuple[int, ...]:
        return members_of(self.mask)

    def label(self, ideal: MonomialIdeal) -> str:
        if self.mask == 0:
            return "[0]"
        return "[" + ", ".join(str(ideal.generators[i]) for i in self.members()) + "]"


class TaylorComplex:
    """Strata of subset symbols plus sign-only differential columns.

    diff[s] maps each stratum-s symbol mask to {facet mask: sign}. The
    scalar composition of consecutive differentials vanishes; since the
    monomial part of a path from sigma to rho is mdeg(sigma)/mdeg(rho)
    however it is routed, that scalar check is the whole of d∘d = 0.
    """

    def __init__(self, ideal: MonomialIdeal):
        self.ideal = ideal
        self.q = ideal.q
        # Symbols with equal lcms share one tuple, and every facet key reuses
        # its mask's int from `masks`: the path ideal with q = 14 has 114,688
        # facet keys over 16,384 masks, and 3,329 distinct lcms.
        lcms = _kernels.subset_lcms(ideal.exponent_rows, ideal.n)
        distinct: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.mdeg_exps = list(map(distinct.setdefault, lcms, lcms))
        masks = list(range(1 << self.q))
        strata: list[list[int]] = [[] for _ in range(self.q + 1)]
        for mask in masks:
            strata[mask.bit_count()].append(mask)
        self.strata = strata  # ascending mask order within each stratum
        diff: list[dict[int, dict[int, int]]] = [dict() for _ in range(self.q + 1)]
        for s in range(1, self.q + 1):
            cols = diff[s]
            for sigma in strata[s]:
                col: dict[int, int] = {}
                sign, rest = 1, sigma
                while rest:  # members in ascending order, signs +1, -1, ...
                    low = rest & -rest
                    col[masks[sigma ^ low]] = sign
                    sign, rest = -sign, rest ^ low
                cols[sigma] = col
        self.diff = diff

    def mdeg(self, mask: int) -> Monomial:
        return Monomial(self.ideal.table, self.mdeg_exps[mask])

    def symbol(self, mask: int) -> TaylorSymbol:
        return TaylorSymbol(mask, bin(mask).count("1"), self.mdeg(mask))

    @cached_property
    def mdeg_groups(self) -> dict[tuple[int, ...], list[int]]:
        """Symbols sharing one multidegree, keyed by exponent tuple."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for mask in range(1 << self.q):
            groups.setdefault(self.mdeg_exps[mask], []).append(mask)
        return groups

    def d_squared_is_zero(self) -> bool:
        for s in range(2, self.q + 1):
            for sigma, col in self.diff[s].items():
                acc: dict[int, int] = {}
                for tau, sign in col.items():
                    for rho, sign2 in self.diff[s - 1][tau].items():
                        acc[rho] = acc.get(rho, 0) + sign * sign2
                if any(acc.values()):
                    return False
        return True


def build_taylor(ideal: MonomialIdeal, max_q: int = TAYLOR_GUARD) -> TaylorComplex:
    if ideal.q > max_q:
        raise TaylorTooLarge(ideal.q, max_q)
    return TaylorComplex(ideal)


@dataclass(frozen=True)
class ScarfBasis:
    """Symbols with a unique multidegree, with their per-degree ranks."""

    symbols: tuple[TaylorSymbol, ...]
    ranks: tuple[int, ...]  # index = homological degree, trailing zeros trimmed


def scarf_basis(ideal: MonomialIdeal, max_q: int = TAYLOR_GUARD) -> ScarfBasis:
    cx = build_taylor(ideal, max_q)
    symbols = []
    counts = [0] * (cx.q + 1)
    for group in cx.mdeg_groups.values():
        if len(group) == 1:
            (mask,) = group
            symbols.append(cx.symbol(mask))
            counts[bin(mask).count("1")] += 1
    symbols.sort(key=lambda sym: (sym.hdeg, sym.mask))
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return ScarfBasis(tuple(symbols), tuple(counts))


def mdeg_multiplicity_table(
    ideal: MonomialIdeal, max_q: int = TAYLOR_GUARD
) -> dict[Monomial, dict[int, int]]:
    """How many symbols attain each multidegree, split by homological degree."""
    cx = build_taylor(ideal, max_q)
    out: dict[Monomial, dict[int, int]] = {}
    for exps, group in cx.mdeg_groups.items():
        per_deg: dict[int, int] = {}
        for mask in group:
            h = bin(mask).count("1")
            per_deg[h] = per_deg.get(h, 0) + 1
        out[Monomial(ideal.table, exps)] = per_deg
    return out


def is_scarf(ideal: MonomialIdeal, max_q: int = TAYLOR_GUARD) -> bool:
    """Whether the unique-multidegree symbols already resolve the quotient.

    Compared rank-by-rank against the minimization engine's Betti numbers.
    """
    from .resolution import minimize  # local import; resolution builds on this module

    ranks = scarf_basis(ideal, max_q).ranks
    betti = minimize(ideal, max_q=max_q)[1].total
    return ranks == betti


def validate_taylor(cx: TaylorComplex) -> None:
    if not cx.d_squared_is_zero():
        raise InternalInvariantError("Taylor differential does not square to zero")
    for s in range(1, cx.q + 1):
        for sigma, col in cx.diff[s].items():
            up = cx.mdeg_exps[sigma]
            for tau in col:
                if any(a > b for a, b in zip(cx.mdeg_exps[tau], up)):
                    raise InternalInvariantError("facet multidegree does not divide")
