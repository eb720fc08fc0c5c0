"""Dominant monomials, dominant sets, and the dominance route to odom.

A monomial in a set is dominant when some variable occurs in it with a
strictly larger exponent than in every other member; a set is dominant
when all of its members are. The order of dominance (odom) is the
largest size of a dominant subset of the generators that additionally
covers, via the top powers of its dominant variables, every generator
dividing its lcm.

The scan for odom visits dominant subsets only. A member's dominant
variable strictly beats every other member, so it still does once some
of them are removed: every subset of a dominant set is dominant, and no
superset of a non-dominant set is. So a branch of the scan stops at its
first non-dominant prefix. The prune uses dominance alone; the covering
condition, which need not pass to subsets, is tested on each complete
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import _kernels
from .errors import GuardExceeded
from .monomials import Monomial, MonomialIdeal
from .taylor import members_of

DOMINANCE_GUARD = 20  # 2^q subset enumeration; fail loudly past this


@dataclass(frozen=True)
class DominanceWitness:
    """A dominant subset together with its variable assignment.

    members[k] is dominant in variables[k], so its exponent there is the
    exponent of that variable in the lcm of the subset. The assignment is
    automatically injective: a variable can be dominant for at most one
    member.
    """

    members: tuple[int, ...]
    variables: tuple[int, ...]

    def member_monomials(self, ideal: MonomialIdeal) -> tuple[Monomial, ...]:
        return tuple(ideal.generators[i] for i in self.members)

    def variable_names(self, ideal: MonomialIdeal) -> tuple[str, ...]:
        return tuple(ideal.table.names[v] for v in self.variables)


def dominant_variables(
    ideal: MonomialIdeal, member: int, subset: Iterable[int]
) -> tuple[int, ...]:
    """Variables in which generator `member` is dominant within `subset`."""
    members = sorted(set(subset))
    if member not in members:
        raise ValueError(f"generator {member} is not in the reference set {members}")
    rows = ideal.exponent_rows
    row = rows[member]
    out = []
    for v in range(ideal.n):
        e = row[v]
        if e > 0 and all(rows[o][v] < e for o in members if o != member):
            out.append(v)
    return tuple(out)


def is_dominant_set(
    ideal: MonomialIdeal, subset: Iterable[int]
) -> tuple[bool, DominanceWitness | None]:
    """Whether every member of `subset` is dominant within it.

    The witness assigns each member its least dominant variable.
    """
    members = tuple(sorted(set(subset)))
    if not members:
        raise ValueError("a dominant set must be nonempty")
    masks = _kernels.dominance_masks(ideal.exponent_rows, members)
    if masks is None:
        return False, None
    variables = tuple((m & -m).bit_length() - 1 for m in masks)
    return True, DominanceWitness(members, variables)


def _covering_assignment(
    ideal: MonomialIdeal, members: tuple[int, ...], masks: list[int]
) -> tuple[int, ...] | None:
    """Pick one dominant variable per member so the subset covers its lcm.

    A generator g dividing lcm(members) is covered when some chosen
    variable's full lcm-exponent power divides g. Members always cover
    themselves, so only outside divisors constrain the choice. Returns
    the lexicographically least choice vector, or None.
    """
    rows = ideal.exponent_rows
    lcm_exps = [0] * ideal.n
    for g in members:
        for v, e in enumerate(rows[g]):
            if e > lcm_exps[v]:
                lcm_exps[v] = e
    member_set = set(members)
    outsiders = [
        g
        for g in range(ideal.q)
        if g not in member_set
        and all(a <= b for a, b in zip(rows[g], lcm_exps))
    ]

    def covers(var: int) -> frozenset[int]:
        e = lcm_exps[var]
        return frozenset(g for g in outsiders if rows[g][var] >= e)

    choices = [members_of(mask) for mask in masks]

    if not outsiders:
        return tuple(vs[0] for vs in choices)

    cover_of = {v: covers(v) for vs in choices for v in vs}
    # union of everything still choosable from position i onward
    suffix_union: list[frozenset[int]] = [frozenset()] * (len(choices) + 1)
    for i in range(len(choices) - 1, -1, -1):
        acc = suffix_union[i + 1]
        for v in choices[i]:
            acc = acc | cover_of[v]
        suffix_union[i] = acc

    need = frozenset(outsiders)
    picked: list[int] = []

    def walk(i: int, covered: frozenset[int]) -> bool:
        if i == len(choices):
            return covered >= need
        if not (covered | suffix_union[i]) >= need:
            return False
        for v in choices[i]:
            picked.append(v)
            if walk(i + 1, covered | cover_of[v]):
                return True
            picked.pop()
        return False

    if walk(0, frozenset()):
        return tuple(picked)
    return None


def odom_by_dominance(ideal: MonomialIdeal) -> tuple[int, DominanceWitness]:
    """Order of dominance via direct subset enumeration.

    Scans the dominant subsets by descending cardinality; a subset counts
    when it admits a variable assignment whose top powers cover every
    generator dividing the subset's lcm. Ties are broken toward the
    lexicographically least generator-index subset.
    """
    if ideal.q > DOMINANCE_GUARD:
        raise GuardExceeded(
            f"odom enumeration over 2^{ideal.q} subsets exceeds the "
            f"q <= {DOMINANCE_GUARD} guard"
        )
    cap = min(ideal.q, len(ideal.appearing_variables()))
    sizes = range(cap, 0, -1)
    for members, masks in _kernels.dominant_subsets(ideal.exponent_rows, sizes):
        assignment = _covering_assignment(ideal, members, masks)
        if assignment is not None:
            return len(members), DominanceWitness(members, assignment)
    raise AssertionError("unreachable: every singleton generator qualifies")


def is_taylor_minimal(ideal: MonomialIdeal) -> bool:
    """Whether the full generator set is dominant (no cancellation possible)."""
    return is_dominant_set(ideal, range(ideal.q))[0]
