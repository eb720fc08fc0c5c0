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
from .dominance import DominanceWitness, is_dominant_set
from .errors import InternalInvariantError, UnknownVariableError
from .monomials import MonomialIdeal, lcm_of, polarize
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


def minimal_nets(ideal: MonomialIdeal, cap: int = NET_FAMILY_GUARD) -> MinimalNetFamily:
    """Complete family of minimal nets (minimal transversals of the supports)."""
    masks = _kernels.minimal_transversals(list(ideal.support_masks), ideal.n, cap)
    nets = [Net(members_of(m)) for m in masks]
    nets.sort(key=lambda net: (net.cardinality, net.variables))
    return MinimalNetFamily(tuple(nets))


def codim(ideal: MonomialIdeal) -> int:
    """Smallest number of variables hitting every generator."""
    return minimal_nets(ideal).min_card


def odom_by_nets(ideal: MonomialIdeal) -> tuple[int, Net]:
    """Order of dominance as the largest minimal net of the polarization.

    The witness is the family's `widest` net, in the polarized table's
    indices.
    """
    family = minimal_nets(polarize(ideal))
    return family.max_card, family.widest


def big_height(ideal: MonomialIdeal) -> int:
    """Largest codimension of a minimal prime of the polarization."""
    return odom_by_nets(ideal)[0]


def associated_prime_view(ideal: MonomialIdeal) -> tuple[tuple[str, ...], ...]:
    """Minimal nets read as generating sets of the minimal monomial primes."""
    return tuple(net.names(ideal) for net in minimal_nets(ideal))


def dominant_set_from_net(ideal: MonomialIdeal, X) -> DominanceWitness:
    """Extract a dominant subset realizing a minimal net's cardinality.

    For X = {x_{i_1} < ... < x_{i_q}} a minimal net, pass k = 1..q:

      G_k = generators divisible by x_{i_k} but by none of the earlier
            thresholds x_{i_1}^{e_1}, ..., x_{i_{k-1}}^{e_{k-1}} nor any
            later plain variable x_{i_{k+1}}, ..., x_{i_q};
      e_k = least exponent of x_{i_k} over G_k, realized by d_k
            (least canonical index on ties).

    The result is dominant with d_k dominant in x_{i_k}, and its lcm's
    top powers cover every generator dividing that lcm.
    """
    variables = X.variables if isinstance(X, Net) else _resolve_variables(ideal, X)
    if not _is_minimal_net(ideal, variables):
        raise ValueError(
            f"{tuple(ideal.table.names[v] for v in variables)} is not a minimal net"
        )
    rows = ideal.exponent_rows
    qx = len(variables)
    thresholds: list[int] = []
    members: list[int] = []
    for k in range(qx):
        vk = variables[k]
        group = []
        for g in range(ideal.q):
            row = rows[g]
            if row[vk] == 0:
                continue
            if any(row[variables[j]] >= thresholds[j] for j in range(k)):
                continue
            if any(row[variables[j]] > 0 for j in range(k + 1, qx)):
                continue
            group.append(g)
        if not group:
            raise InternalInvariantError(
                "net recurrence produced an empty stage; the net was not minimal"
            )
        e_k = min(rows[g][vk] for g in group)
        d_k = min(g for g in group if rows[g][vk] == e_k)
        thresholds.append(e_k)
        members.append(d_k)

    order = sorted(range(qx), key=lambda k: members[k])
    witness = DominanceWitness(
        members=tuple(members[k] for k in order),
        variables=tuple(variables[k] for k in order),
        exponents=tuple(thresholds[k] for k in order),
        lcm=lcm_of(ideal.generators[g] for g in members),
    )
    _recheck_witness(ideal, witness)
    return witness


def _is_minimal_net(ideal: MonomialIdeal, variables: tuple[int, ...]) -> bool:
    if not is_net(ideal, variables):
        return False
    return all(
        not is_net(ideal, tuple(v for v in variables if v != drop))
        for drop in variables
    )


def _recheck_witness(ideal: MonomialIdeal, witness: DominanceWitness) -> None:
    """Direct definition checks on a constructed witness (cheap, always on)."""
    ok, _ = is_dominant_set(ideal, witness.members)
    if not ok:
        raise InternalInvariantError("constructed set is not dominant")
    rows = ideal.exponent_rows
    lcm_exps = witness.lcm.exponents
    for g, v, e in zip(witness.members, witness.variables, witness.exponents):
        if rows[g][v] != e or lcm_exps[v] != e:
            raise InternalInvariantError("witness exponent does not match its lcm")
    member_set = set(witness.members)
    for g in range(ideal.q):
        if g in member_set:
            continue
        if not ideal.generators[g].divides(witness.lcm):
            continue
        if not any(
            rows[g][v] >= lcm_exps[v] for v in witness.variables
        ):
            raise InternalInvariantError(
                "a generator dividing the witness lcm escapes every top power"
            )
