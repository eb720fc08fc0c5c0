"""Nets (variable transversals of the generator supports) and friends.

A net is a set of variables hitting the support of every generator; the
minimal ones are the minimal generating sets of the monomial primes over
the ideal. Their minimum cardinality is codim; the maximum cardinality
over the polarization is the second, independent route to odom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import _kernels
from .errors import UnknownVariableError
from .monomials import MonomialIdeal, polarize
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
    """The complete antichain of minimal nets, canonically ordered.

    Order: ascending cardinality, then ascending index tuple.
    """

    nets: tuple[Net, ...]

    @cached_property
    def min_card(self) -> int:
        return min(net.cardinality for net in self.nets)

    @cached_property
    def max_card(self) -> int:
        return max(net.cardinality for net in self.nets)

    @cached_property
    def widest(self) -> Net:
        """The lexicographically least net of the largest cardinality.

        Over the polarization this is the witness of the nets route to odom.
        """
        return min(
            (net for net in self.nets if net.cardinality == self.max_card),
            key=lambda net: net.variables,
        )

    def cardinalities(self) -> tuple[int, ...]:
        return tuple(net.cardinality for net in self.nets)

    def __iter__(self):
        return iter(self.nets)

    def __len__(self):
        return len(self.nets)


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
    masks = _kernels.minimal_transversals(
        list(ideal.support_masks), ideal.n, NET_FAMILY_GUARD
    )
    nets = [Net(members_of(m)) for m in masks]
    nets.sort(key=lambda net: (net.cardinality, net.variables))
    return MinimalNetFamily(tuple(nets))


def odom_by_nets(ideal: MonomialIdeal) -> tuple[int, Net]:
    """Order of dominance as the largest minimal net of the polarization.

    The witness is the family's `widest` net, in the polarized table's
    indices.
    """
    family = minimal_nets(polarize(ideal))
    return family.max_card, family.widest
