"""The lcm lattice of generator subsets (the Taylor complex), its Lyubeznik
subcomplex and its Scarf core.

Symbols are encoded as q-bit masks over the canonical generator order.
The differential of a symbol removes one member at a time with sign
(-1)^(j+1), j being the member's 1-based position in the ascending index
list; `facets` yields those pairs. The monomial part of every entry is
the quotient of the two symbols' multidegrees, so only lcm codes are
stored, and `build_taylor` shares one lattice per ideal, read-only.

The minimization engine starts from a face map, `{mask: lcm code}` keyed
in scan order (degree, then mask ascending), and this module builds it
for both starts: `taylor_faces` gives every subset, from a 2^q table of
its own, and `lyubeznik_faces` the Lyubeznik subcomplex, whose walk
computes its faces' lcm codes itself, never reading the 2^q table that
the oracle and the Scarf basis read.

Those two read the table through one strand map per lattice,
`TaylorComplex.strands`: for each lcm code, its top face, the largest
subset with that lcm and also the union of all of them, and its pairing
bit, the first member of the top face whose removal keeps the lcm. The
bit is 0 exactly when the top face is the only subset with its lcm, so
the Scarf faces are the top faces with no pairing bit, and the oracle
matches each strand's other cells along that bit.

Multidegrees are held as integer codes. The lcm lattice depends only on
the order of each variable's exponents (Gasharov–Peeva–Welker, Math.
Res. Lett. 6, 1999), so exponent e of variable v is coded by its rank r
among v's distinct nonzero exponents, as r consecutive one-bits in a
field of its own: the support of a rank-compressed polarization
(Miller–Sturmfels, Combinatorial Commutative Algebra, 2005). On codes,
lcm is `a | b`, divisibility is `a | b == b` and equality is `==`; the
width is the number of distinct nonzero (variable, exponent) pairs,
never an exponent itself. Printing one never decodes it: the top set bit
of each field's run names its variable's exponent, so a code's text,
total degree and sort key are read off those end bits, a byte window at
a time, and each distinct code is spelled once per lattice. A code
becomes a `Monomial` only when a caller reads one as a value, once per
distinct code; `check_report` neither decodes nor spells.
`lattice_codes` builds the codes; the dominance route reads them
through `generator_codes`, which reuses a held lattice and is not
bounded by the lattice's guard.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

from . import _kernels
from .errors import InvalidParameterError, TaylorTooLarge
from .monomials import Monomial, MonomialIdeal, _monomial

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


def lattice_codes(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], list[tuple[int, int, list[int]]]]:
    """The code of each exponent row, and the per-variable fields.

    Variable v owns the bits [offset, offset + width) for its width
    distinct nonzero exponents; levels[r] is the exponent of rank r,
    coded as the r low bits of the field. Returns the codes and one
    (offset, field bits, levels) triple per variable. O(q·n), with no
    guard: the lattice and the dominance route both start here.
    """
    codes = [0] * len(rows)
    fields = []
    offset = 0
    for column in zip(*rows):
        levels = sorted(set(column))
        if levels[0]:
            levels.insert(0, 0)
        width = len(levels) - 1
        if width:
            thermometer = {}
            for r, e in enumerate(levels):
                thermometer[e] = ((1 << r) - 1) << offset
            for k, e in enumerate(column):
                if e:
                    codes[k] |= thermometer[e]
        fields.append((offset, (1 << width) - 1, levels))
        offset += width
    return tuple(codes), fields


def bit_variables(fields) -> tuple[list[int], int]:
    """The variable of each code bit, and the mask of each field's top bit.

    fields: the per-variable (offset, bits, levels) of `lattice_codes`.
    A field's top bit is its variable's largest exponent among the
    generators.
    """
    variable = []
    highs = 0
    for v, (offset, bits, _) in enumerate(fields):
        width = bits.bit_length()
        variable += [v] * width
        if width:
            highs |= 1 << offset + width - 1
    return variable, highs


@dataclass(frozen=True)
class TaylorSymbol:
    mask: int
    hdeg: int
    mdeg: Monomial

    def label(self, ideal: MonomialIdeal) -> str:
        return symbol_label(ideal, self.mask)


class TaylorComplex:
    """The lcm lattice of generator subsets, read-only once built.

    Building it costs O(q·n): codes[k] is the code of generator k, and
    `monomial` decodes a code, returning one shared `Monomial` per
    distinct code, while `spellings` gives each distinct code's text,
    degree and order key without decoding it, for printing.
    mdeg_codes[mask], the code of the lcm of the subset
    `mask`, is the 2^q table, and `strands` its strand map, each built
    on first read. The differential is never stored: `facets` gives
    each column.
    """

    def __init__(self, ideal: MonomialIdeal):
        self.table = ideal.table
        self.q = ideal.q
        self.codes, self._fields = lattice_codes(ideal.exponent_rows)
        self._monomials: dict[int, Monomial] = {}
        self._spellings: dict[int, tuple[str, int, int]] = {}

    @cached_property
    def mdeg_codes(self) -> tuple[int, ...]:
        """The lcm code of every subset, indexed by mask: the 2^q table."""
        return tuple(_kernels.subset_lcms(self.codes))

    def monomials(self, codes: Iterable[int]) -> dict[int, Monomial]:
        """The shared cache of decoded codes, holding every code of `codes`.

        The codes not yet decoded are decoded together, one variable
        field at a time, into one shared `Monomial` per distinct code.
        """
        cache = self._monomials
        new = [code for code in dict.fromkeys(codes) if code not in cache]
        if new:
            columns = [
                [levels[(code >> offset & bits).bit_count()] for code in new]
                for offset, bits, levels in self._fields
            ]
            tbl = self.table
            for code, exps in zip(new, zip(*columns)):
                cache[code] = _monomial(tbl, exps)
        return cache

    def monomial(self, code: int) -> Monomial:
        """The monomial of a code, one shared object per distinct code."""
        mono = self._monomials.get(code)
        return self.monomials((code,))[code] if mono is None else mono

    def mdeg(self, mask: int) -> Monomial:
        return self.monomial(self.mdeg_codes[mask])

    @cached_property
    def _spelling(self) -> tuple[list[tuple[str, int, int]], int, list[dict]]:
        """What `_spell` reads, built once from the fields.

        For each code bit, the (factor text, exponent, order weight) of
        the run that ends there: bit offset + r - 1 of variable v's field
        ends rank r, so its factor is v's name to the power levels[r] and
        its weight r * R_v, where R_v is the product of width + 1 over the
        variables after v (variable 0 is the most significant digit).
        Then `inner`, the bits that are not the top of their field, and
        one empty memo per byte window of end bits.
        """
        fields = self._fields
        radix = [1] * len(fields)  # R_v; each field has width + 1 levels
        for v in range(len(fields) - 1, 0, -1):
            radix[v - 1] = radix[v] * len(fields[v][2])
        bits: list[tuple[str, int, int]] = []
        inner = 0
        for (offset, field, levels), name, unit in zip(fields, self.table.names, radix):
            inner |= field >> 1 << offset
            bits += [
                (name if e == 1 else f"{name}^{e}", e, r * unit)
                for r, e in enumerate(levels)
                if r
            ]
        return bits, inner, [{} for _ in range(0, len(bits), 8)]

    def _spell(self, code: int) -> tuple[str, int, int]:
        """(text, total degree, order key) of a code, read off its end bits.

        A field's end bit is the top bit of its run, so a code's end bits,
        `code & ~(code >> 1 & inner)`, are one per variable it holds. The
        text joins their factors in bit order, which is variable order;
        the degree and the key sum their exponents and weights. End bits
        are read a byte window at a time, each (window, byte) spelled once.
        """
        bits, inner, windows = self._spelling
        ends = code & ~(code >> 1 & inner)
        texts, degree, key = [], 0, 0
        for i, byte in enumerate(ends.to_bytes(len(windows), "little")):
            if byte:
                memo = windows[i]
                entry = memo.get(byte)
                if entry is None:
                    factors, part_degree, part_key, rest = [], 0, 0, byte
                    while rest:
                        low = rest & -rest
                        factor, e, w = bits[8 * i + low.bit_length() - 1]
                        factors.append(factor)
                        part_degree += e
                        part_key += w
                        rest ^= low
                    entry = memo[byte] = ("*".join(factors), part_degree, part_key)
                texts.append(entry[0])
                degree += entry[1]
                key += entry[2]
        return "*".join(texts) or "1", degree, key

    def spellings(self, codes: Iterable[int]) -> dict[int, tuple[str, int, int]]:
        """The shared cache of spelled codes, holding every code of `codes`.

        A code's spelling is its monomial's text (`str`), total degree and
        order key, where sorting codes by key sorts their exponent
        tuples, all read without decoding it; each distinct code is
        spelled once.
        """
        cache = self._spellings
        for code in codes:
            if code not in cache:
                cache[code] = self._spell(code)
        return cache

    def text(self, code: int) -> str:
        """The monomial text of a code, `str` of its decoded monomial."""
        return self.spellings((code,))[code][0]

    def symbol(self, mask: int) -> TaylorSymbol:
        return TaylorSymbol(mask, mask.bit_count(), self.mdeg(mask))

    @cached_property
    def strands(self) -> dict[int, tuple[int, int]]:
        """The strand map of the 2^q table: `{code: (top face, pairing bit)}`.

        A code's strand is the set of subsets whose lcm it is. Its top
        face is the union of its members, so also the largest of them,
        which `dict(zip(...))` keeps as each code's last mask. The
        pairing bit is the first member k of the top face whose removal
        keeps the code, and 0 when there is none: any other member of the
        strand misses some k of the top face, and top minus k lies
        between the two, so the bit is 0 exactly when the top face is the
        strand's one cell. Codes are keyed in order of their first mask,
        the order the oracle's counts, and so the lemma scan, read them in.
        """
        lcms = self.mdeg_codes
        strands = {}
        for code, top in dict(zip(lcms, range(len(lcms)))).items():
            rest = top  # the members not tried yet
            while rest and lcms[top ^ (rest & -rest)] != code:
                rest &= rest - 1
            strands[code] = (top, rest & -rest)
        return strands


def _held_lattice(ideal: MonomialIdeal) -> TaylorComplex | None:
    ref = vars(ideal).get("_taylor")
    return ref() if ref is not None else None


def build_taylor(ideal: MonomialIdeal) -> TaylorComplex:
    """The subset lattice of `ideal`, shared by every caller while one holds it.

    The ideal keeps a weak reference to its lattice, so whoever holds the
    lattice (as an `Analysis` does for its lifetime) makes every later
    call return the same object, which no caller may change; a lattice
    nobody holds is freed instead of living as long as its ideal.
    """
    if ideal.q > TAYLOR_GUARD:
        raise TaylorTooLarge(ideal.q, TAYLOR_GUARD)
    cx = _held_lattice(ideal)
    if cx is None:
        cx = TaylorComplex(ideal)
        object.__setattr__(ideal, "_taylor", weakref.ref(cx))  # a frozen dataclass
    return cx


def generator_codes(
    ideal: MonomialIdeal,
) -> tuple[tuple[int, ...], list[tuple[int, int, list[int]]]]:
    """`lattice_codes` of the generators, read off the lattice if one is held.

    Unlike `build_taylor`, this neither applies TAYLOR_GUARD nor keeps
    what it builds.
    """
    cx = _held_lattice(ideal)
    if cx is None:
        return lattice_codes(ideal.exponent_rows)
    return cx.codes, cx._fields


def _lyubeznik_order(ideal: MonomialIdeal, codes: Sequence[int]) -> tuple[int, ...]:
    """A generator order that keeps the Lyubeznik complex small.

    Each generator scores the pairs whose lcm it divides; the order is
    by score, highest first (ties by index), after which a greedy
    matching, the generators whose support misses that of every
    generator moved so far, is moved to the front in that same order.
    `codes` are the generators' lattice codes.
    """
    q = ideal.q
    score = [0] * q
    for a in range(q):
        for b in range(a + 1, q):
            lcm = codes[a] | codes[b]
            for k in range(q):
                if codes[k] | lcm == lcm:
                    score[k] += 1
    front, rest, used = [], [], 0
    for k in sorted(range(q), key=lambda k: (-score[k], k)):
        support = ideal.support_masks[k]
        if support & used:
            rest.append(k)
        else:
            front.append(k)
            used |= support
    return tuple(front + rest)


def taylor_faces(ideal: MonomialIdeal) -> dict[int, int]:
    """Every subset of the generators with its lcm code, in scan order.

    The full Taylor complex as a `{mask: lcm code}` dict, keyed in scan
    order: by degree, then mask ascending. It reads a 2^q table of its
    own, so the shared lattice never holds one for the engine.
    """
    table = _kernels.subset_lcms(build_taylor(ideal).codes)
    return {mask: table[mask] for mask in sorted(range(len(table)), key=int.bit_count)}


def lyubeznik_faces(
    ideal: MonomialIdeal, order: Sequence[int] | None = None
) -> dict[int, int]:
    """The faces of the Lyubeznik complex with their lcm codes.

    A `{mask: lcm code}` dict keyed in scan order, as `taylor_faces`.
    With the generators in `order`, a permutation of range(q), a subset
    is a face when, for each of its tails in that order, no generator
    before the tail's first member divides the tail's lcm (Lyubeznik,
    J. Pure Appl. Algebra 51, 1988). The faces are closed under subsets
    and, with the Taylor differential restricted to them, still resolve
    S/M. The default order keeps the complex small: the path ideal with
    q = 14 has 4,352 faces, against 16,384 in the natural order.

    The walk adds a new first member i to a face tau and carries the
    lcm code of each face, the OR of its parent's and the new member's:
    {i} | tau is a face iff no generator k before i divides that lcm,
    `codes[k] | lcm == lcm`. The 2^q lattice table is never read.
    """
    cx = build_taylor(ideal)
    q = cx.q
    if order is None:
        order = _lyubeznik_order(ideal, cx.codes)
    elif sorted(order) != list(range(q)):
        raise InvalidParameterError(f"order is not a permutation of range({q})")
    bits = [1 << k for k in order]
    codes = [cx.codes[k] for k in order]
    earlier = [codes[:i] for i in range(q)]  # the generators before position i
    strata: list[list[tuple[int, int]]] = [[] for _ in range(q + 1)]
    strata[0].append((0, 0))
    stack = [(0, q, 0)]  # (face, position of its first member in the order, lcm code)
    while stack:
        tau, first, below = stack.pop()
        for i in range(first):
            lcm = below | codes[i]
            for code in earlier[i]:
                if code | lcm == lcm:
                    break
            else:
                sigma = tau | bits[i]
                strata[sigma.bit_count()].append((sigma, lcm))
                stack.append((sigma, i, lcm))
    return dict(chain.from_iterable(map(sorted, strata)))


class ScarfBasis:
    """Symbols with a unique multidegree, with their per-degree ranks.

    `masks` are by homological degree, then mask, and `ranks` is counted
    on lattice codes; `symbols`, which decode each multidegree, are built
    on first read, while printing spells them through the lattice. Two
    bases are equal when their symbols and ranks are.
    """

    def __init__(
        self, lattice: TaylorComplex, masks: tuple[int, ...], ranks: tuple[int, ...]
    ):
        self.lattice = lattice
        self.masks = masks
        self.ranks = ranks  # index = homological degree, trailing zeros trimmed

    @cached_property
    def symbols(self) -> tuple[TaylorSymbol, ...]:
        """In the order of `masks`."""
        return tuple([self.lattice.symbol(mask) for mask in self.masks])

    def __eq__(self, other):
        if not isinstance(other, ScarfBasis):
            return NotImplemented
        return self.ranks == other.ranks and self.symbols == other.symbols

    def __hash__(self):
        return hash((self.symbols, self.ranks))


def scarf_basis(ideal: MonomialIdeal) -> ScarfBasis:
    """The symbols alone in their strand: the top faces with no pairing bit."""
    cx = build_taylor(ideal)
    masks = sorted(top for top, k in cx.strands.values() if not k)
    masks.sort(key=int.bit_count)  # stable: by degree, then mask
    counts = [0] * (cx.q + 1)
    for mask in masks:
        counts[mask.bit_count()] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return ScarfBasis(cx, tuple(masks), tuple(counts))
