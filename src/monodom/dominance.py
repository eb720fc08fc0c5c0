"""Dominant monomials, dominant sets, and the dominance route to odom.

A monomial in a set is dominant when some variable occurs in it with a
strictly larger exponent than in every other member; a set is dominant
when all of its members are. The order of dominance (odom) is the
largest size of a dominant subset of the generators that additionally
covers, via the top powers of its dominant variables, every generator
dividing its lcm.

Dominance and covering compare only the order of each variable's
exponents, so the scan runs on the generators' lattice codes, read off
`build_taylor` (`taylor.lattice_codes`), in which exponent e of variable
v is the r low bits of v's field, r the rank of e. A member's dominant
bits in a set are the bits of its code that no other member's code has;
the top bit of its v-field is among them exactly when v is dominant for
it, and the generators holding that bit are those whose v-exponent
reaches the member's. Variables are read off the bits only for
witnesses.

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
from .taylor import bit_variables, build_taylor, members_of

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
    lattice = build_taylor(ideal)
    masks = _kernels.dominance_masks(lattice.codes, members)
    if masks is None:
        return False, None
    variable = bit_variables(lattice.fields)[0]
    least = tuple(variable[(m & -m).bit_length() - 1] for m in masks)
    return True, DominanceWitness(members, least)


def _covering_assignment(
    codes: tuple[int, ...], highs: int, members: tuple[int, ...], masks: list[int]
) -> tuple[int, ...] | None:
    """Pick one dominant variable per member so the subset covers its lcm.

    On codes: a generator g dividing lcm(members) has `codes[g] | L == L`,
    L the OR of the members' codes. Choosing variable v for member a
    covers the g whose code holds the top bit of a's v-field, whose
    v-exponent reaches lcm(members)'s. Members always cover themselves,
    so only outside divisors constrain the choice. Each choice is such a
    top bit among the member's dominant bits, tried in ascending order,
    which is ascending variable order. Returns the lexicographically
    least choice vector, as one code bit per member, or None.
    """
    lcm = 0
    for a in members:
        lcm |= codes[a]
    tops = [mask & (~(codes[a] >> 1) | highs) for a, mask in zip(members, masks)]
    need = 0  # the outside divisors of the lcm, as a generator bitmask
    for g, code in enumerate(codes):
        if code | lcm == lcm:
            need |= 1 << g
    for a in members:
        need ^= 1 << a
    if not need:
        return tuple((t & -t).bit_length() - 1 for t in tops)

    outsiders = members_of(need)
    choices = list(map(members_of, tops))
    # the outsiders, as a generator bitmask, that each choice covers
    cover_of = {}
    for bits in choices:
        for t in bits:
            hit = 0
            for g in outsiders:
                if codes[g] >> t & 1:
                    hit |= 1 << g
            cover_of[t] = hit
    # union of everything still choosable from position i onward
    suffix_union = [0] * (len(choices) + 1)
    for i in range(len(choices) - 1, -1, -1):
        acc = suffix_union[i + 1]
        for t in choices[i]:
            acc |= cover_of[t]
        suffix_union[i] = acc

    picked: list[int] = []
    if _extend_cover(choices, cover_of, suffix_union, need, picked, 0):
        return tuple(picked)
    return None


def _extend_cover(choices, cover_of, suffix_union, need, picked, covered) -> bool:
    """Extend `picked`, one choice per position, so the choices cover `need`.

    Tries each position's choices in order, so the first success is the
    lexicographically least; `picked` is left at it, or as given on
    failure. A prefix is dropped as soon as what is still choosable
    cannot cover the rest of `need`: without that, an outside divisor
    that no choice covers costs the whole product of the choices. A
    module function rather than a closure that calls itself,
    which would leave a reference cycle behind on every call.
    """
    i = len(picked)
    if i == len(choices):
        return covered == need
    if covered | suffix_union[i] != need:
        return False
    for t in choices[i]:
        picked.append(t)
        if _extend_cover(
            choices, cover_of, suffix_union, need, picked, covered | cover_of[t]
        ):
            return True
        picked.pop()
    return False


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
    lattice = build_taylor(ideal)
    codes = lattice.codes
    variable, highs = bit_variables(lattice.fields)
    # highs holds one bit per variable that occurs
    sizes = range(min(ideal.q, highs.bit_count()), 0, -1)
    for members, masks in _kernels.dominant_subsets(codes, sizes):
        picked = _covering_assignment(codes, highs, members, masks)
        if picked is not None:
            assignment = tuple(variable[t] for t in picked)
            return len(members), DominanceWitness(members, assignment)
    raise AssertionError("unreachable: every singleton generator qualifies")


def is_taylor_minimal(ideal: MonomialIdeal) -> bool:
    """Whether the full generator set is dominant (no cancellation possible)."""
    return is_dominant_set(ideal, range(ideal.q))[0]
