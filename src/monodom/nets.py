"""Nets (variable transversals of the generator supports) and friends.

A net is a set of variables hitting the support of every generator; the
minimal ones are the minimal generating sets of the monomial primes over
the ideal. Their minimum cardinality is codim; the maximum cardinality
over the polarization is the second, independent route to odom.

The family is grown edge by edge on variable bitmasks (Berge's
algorithm, `_kernels.minimal_transversals`) and kept as a set of those
masks: sizes, codim and the odom bound are bit counts, and `Net` objects
are built only when the family is first iterated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import _kernels
from .errors import UnknownVariableError
from .monomials import MonomialIdeal, memo, polarize
from .taylor import members_of

NET_FAMILY_GUARD = 100_000


@dataclass(frozen=True)
class Net:
    """A set of variables (ascending indices) hitting every generator."""

    variables: tuple[int, ...]

    @property
    def cardinality(self) -> int:
        return len(self.variables)

    def names(self, ideal: MonomialIdeal) -> tuple[str, ...]:
        return tuple(ideal.table.names[v] for v in self.variables)


@dataclass(frozen=True)
class MinimalNetFamily:
    """The complete antichain of minimal nets.

    Held as a set of variable bitmasks, so two families are equal when
    they hold the same nets, whatever the order in which they were
    found. Iteration gives `Net`s in the canonical order: ascending
    cardinality, then ascending index tuple.
    """

    masks: frozenset[int]

    @memo
    def nets(self) -> tuple[Net, ...]:
        variables = sorted(map(members_of, self.masks), key=lambda vs: (len(vs), vs))
        return tuple(map(Net, variables))

    @memo
    def min_card(self) -> int:
        return min(map(int.bit_count, self.masks))

    @memo
    def max_card(self) -> int:
        return max(map(int.bit_count, self.masks))

    @memo
    def widest(self) -> Net:
        """The lexicographically least net of the largest cardinality.

        Over the polarization this is the witness of the nets route to odom.
        """
        top = self.max_card
        return Net(min(members_of(m) for m in self.masks if m.bit_count() == top))

    def cardinalities(self) -> tuple[int, ...]:
        return tuple(sorted(map(int.bit_count, self.masks)))

    def __iter__(self):
        return iter(self.nets)

    def __len__(self):
        return len(self.masks)


def _resolve_variables(ideal: MonomialIdeal, X: Iterable) -> tuple[int, ...]:
    out = []
    for v in X:
        if isinstance(v, str):
            out.append(ideal.table.index(v))
        else:
            i = int(v)
            if not 0 <= i < ideal.n:
                raise UnknownVariableError(f"variable index {i} out of range")
            out.append(i)
    return tuple(sorted(set(out)))


def is_net(ideal: MonomialIdeal, X: Iterable) -> bool:
    """True when every generator is divisible by some variable of X."""
    variables = _resolve_variables(ideal, X)
    mask = 0
    for v in variables:
        mask |= 1 << v
    return all(s & mask for s in ideal.support_masks)


def minimal_nets(ideal: MonomialIdeal) -> MinimalNetFamily:
    """Complete family of minimal nets (minimal transversals of the supports)."""
    masks = _kernels.minimal_transversals(ideal.support_masks, NET_FAMILY_GUARD)
    return MinimalNetFamily(frozenset(masks))


def odom_by_nets(ideal: MonomialIdeal) -> tuple[int, Net]:
    """Order of dominance as the largest minimal net of the polarization.

    The witness is the family's `widest` net, in the polarized table's
    indices.
    """
    family = minimal_nets(polarize(ideal))
    return family.max_card, family.widest
