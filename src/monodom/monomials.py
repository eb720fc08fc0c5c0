"""Exponent-vector monomials, minimal generating sets, and polarization.

Monomials are dense exponent vectors over an ordered variable table.
Ideals keep their minimal generating set in canonical order (descending
lexicographic on exponent vectors) so every downstream index, symbol and
report is reproducible.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from operator import le
from typing import Iterable, Sequence

from . import _kernels
from .errors import (
    GuardExceeded,
    IdealSyntaxError,
    InvalidIdealError,
    TableMismatchError,
    UnknownVariableError,
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

POLARIZE_GUARD = 1000  # polarized variables; net enumeration over them is quadratic

# Checking q generators in n variables for minimality makes q^2 degree
# tests and compares up to n exponents for each pair that passes one;
# this bounds q^2 (n + 32). Measured at the bound, with
# q = isqrt(15,000,000 // (n + 32)) rows of rising degree, each at most
# every later row in all but the last coordinate (so every comparison
# runs to the end and nothing divides): `minimalize` takes 0.10-0.29 s
# and the validating constructor 0.09-0.26 s on a 2-CPU x86 host, for
# n = 2, 100, 1000 and 4000.
PAIRWISE_GUARD = 15_000_000


def _check_pairwise_cost(q: int, n: int) -> None:
    """Raise GuardExceeded before a pairwise divisibility check that is too large."""
    cost = q * q * (n + 32)
    if cost > PAIRWISE_GUARD:
        raise GuardExceeded(
            f"pairwise divisibility check of {q} generators in {n} variables, "
            f"{q}^2 x ({n} + 32) = {cost}, exceeds the guard of {PAIRWISE_GUARD}"
        )


@dataclass(frozen=True)
class VariableTable:
    """Ordered register of ring variables.

    `origins` carries (base name, copy index) pairs for tables produced
    by polarization; plain tables leave it as None.
    """

    names: tuple[str, ...]
    origins: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self):
        if not self.names:
            raise InvalidIdealError("a variable table needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise InvalidIdealError(f"duplicate variable names in {self.names}")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise InvalidIdealError(f"invalid variable name {name!r}")
        if self.origins is not None and len(self.origins) != len(self.names):
            raise InvalidIdealError("origins must align with names")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariableError(
                f"unknown variable {name!r} (table: {', '.join(self.names)})"
            ) from None

    def base_of(self, i: int) -> str:
        """Base variable identity of index i (collapses polarization copies)."""
        if self.origins is None:
            return self.names[i]
        return self.origins[i][0]


def table(*names: str) -> VariableTable:
    return VariableTable(tuple(names))


@dataclass(frozen=True)
class Monomial:
    table: VariableTable
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != self.table.n:
            raise InvalidIdealError(
                f"exponent vector of length {len(self.exponents)} for a "
                f"{self.table.n}-variable table"
            )
        if min(self.exponents) < 0:
            raise InvalidIdealError(f"negative exponent in {self.exponents}")

    def _check_table(self, other: "Monomial") -> None:
        if self.table != other.table:
            raise TableMismatchError(
                f"monomials live in different rings: "
                f"{self.table.names} vs {other.table.names}"
            )

    @property
    def is_unit(self) -> bool:
        return not any(self.exponents)

    def degree(self) -> int:
        return sum(self.exponents)

    def support(self) -> tuple[int, ...]:
        """Indices of the variables that occur with positive exponent."""
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)

    def support_mask(self) -> int:
        mask = 0
        for i, e in enumerate(self.exponents):
            if e > 0:
                mask |= 1 << i
        return mask

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check_table(other)
        return Monomial(
            self.table,
            tuple(a if a >= b else b for a, b in zip(self.exponents, other.exponents)),
        )

    def divides(self, other: "Monomial") -> bool:
        self._check_table(other)
        return all(map(le, self.exponents, other.exponents))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other, requiring exact divisibility."""
        self._check_table(other)
        if not other.divides(self):
            raise InvalidIdealError(f"{other} does not divide {self}")
        return Monomial(
            self.table, tuple(a - b for a, b in zip(self.exponents, other.exponents))
        )

    def __hash__(self) -> int:
        # equal monomials have equal exponents, so the table can stay out
        return hash(self.exponents)

    def __str__(self) -> str:
        return "*".join(
            [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.table.names, self.exponents)
                if e
            ]
        ) or "1"


def _monomial(tbl: VariableTable, exponents: tuple[int, ...]) -> Monomial:
    """The monomial with these exponents, built unchecked.

    exponents: a tuple of tbl's length, none negative. For the exponents
    the package makes itself, which are valid by construction: canonical
    generator rows and decoded lattice codes.
    """
    mono = object.__new__(Monomial)
    attrs = mono.__dict__
    attrs["table"] = tbl
    attrs["exponents"] = exponents
    return mono


def lcm_of(monomials: Iterable[Monomial]) -> Monomial:
    it = iter(monomials)
    try:
        acc = next(it)
    except StopIteration:
        raise InvalidIdealError("lcm of an empty collection") from None
    for m in it:
        acc = acc.lcm(m)
    return acc


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, held as its unique minimal generating set.

    The constructor is the way in for a generating set that is claimed to
    be minimal: it validates it (no unit, no mutual divisibility, no
    duplicates, one table) and stores it in canonical order;
    PAIRWISE_GUARD bounds the divisibility check. Inside the package,
    every ideal whose rows are canonical by construction is built by
    `_canonical_ideal` without that check: `minimalize`'s survivors,
    polarizations and the exhaustive walk's antichains.
    """

    table: VariableTable
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        if not self.generators:
            raise InvalidIdealError("an ideal needs at least one generator")
        seen = set()
        for g in self.generators:
            if g.table != self.table:
                raise TableMismatchError("generator from a different ring")
            if g.is_unit:
                raise InvalidIdealError("the unit monomial cannot be a generator")
            if g.exponents in seen:
                raise InvalidIdealError(f"duplicate generator {g}")
            seen.add(g.exponents)
        _check_pairwise_cost(len(self.generators), self.table.n)
        divisors = _kernels.first_divisors([g.exponents for g in self.generators])
        if max(divisors) >= 0:
            # name the first dividing pair in generator order: the least
            # divisor, then the first generator it divides
            g = min(j for j in divisors if j >= 0)
            raise InvalidIdealError(
                f"non-minimal generating set: {self.generators[g]} divides "
                f"{self.generators[divisors.index(g)]}"
            )
        expected = tuple(
            sorted(self.generators, key=lambda m: m.exponents, reverse=True)
        )
        if self.generators != expected:
            object.__setattr__(self, "generators", expected)

    @property
    def q(self) -> int:
        return len(self.generators)

    @property
    def n(self) -> int:
        return self.table.n

    @cached_property
    def support_masks(self) -> tuple[int, ...]:
        return tuple(g.support_mask() for g in self.generators)

    @cached_property
    def exponent_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(g.exponents for g in self.generators)

    def lcm(self) -> Monomial:
        return lcm_of(self.generators)

    def appearing_variables(self) -> tuple[int, ...]:
        used = 0
        for m in self.support_masks:
            used |= m
        return tuple(i for i in range(self.n) if used >> i & 1)

    def render(self) -> str:
        return ", ".join(str(g) for g in self.generators)

    def __str__(self) -> str:
        return f"({self.render()})"


def minimalize(monomials: Sequence[Monomial]) -> MonomialIdeal:
    """Minimal generating set of the ideal generated by `monomials`.

    Drops every monomial strictly divisible by another and deduplicates;
    the survivors are sorted canonically. Raises InvalidIdealError when
    the input is empty or generates the unit ideal, TableMismatchError
    when the monomials come from different tables, and GuardExceeded
    when the distinct monomials are too many to compare pairwise.

    The check runs once, on the exponent rows, and the ideal is built
    from its survivors by `_canonical_ideal`, without the constructor's
    validation, which is for generating sets claimed to be minimal.
    """
    if not monomials:
        raise InvalidIdealError("cannot build an ideal from no monomials")
    tbl = monomials[0].table
    for m in monomials:
        if m.table != tbl:
            raise TableMismatchError("monomials from different rings")
    return _minimal_ideal(tbl, [m.exponents for m in monomials])


def _minimal_ideal(
    tbl: VariableTable, rows: Iterable[tuple[int, ...]]
) -> MonomialIdeal:
    """The ideal generated by exponent rows, built from its minimal rows.

    rows: at least one exponent tuple of tbl's length, none negative.
    Deduplicates, sorts canonically, keeps the rows that no other row
    divides, and raises as `minimalize` does. The survivors are
    canonical, so `_canonical_ideal` builds the ideal from them.
    """
    rows = sorted(set(rows), reverse=True)
    _check_pairwise_cost(len(rows), tbl.n)
    kept = [row for row, j in zip(rows, _kernels.first_divisors(rows)) if j < 0]
    # the zero row comes last in descending order and divides every other row
    if not any(kept[-1]):
        raise InvalidIdealError("input generates the unit ideal")
    return _canonical_ideal(tbl, kept)


def _canonical_ideal(tbl: VariableTable, rows: Iterable[tuple]) -> MonomialIdeal:
    """The ideal with exactly these generator rows, built unchecked.

    rows: at least one exponent tuple of tbl's length, distinct, nonzero,
    none dividing another, in descending lexicographic order. Every
    check of the MonomialIdeal constructor then holds, so it is skipped;
    only a Monomial per row is built, by `_monomial`. This is the
    package's one way past the constructor, for rows its own code has
    made canonical.
    """
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "table", tbl)
    object.__setattr__(ideal, "generators", tuple([_monomial(tbl, row) for row in rows]))
    return ideal


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Squarefree polarization, expanding x^e into e consecutive copies.

    Copy j of variable `x` is named `x_j`; the output table contains
    exactly the copies that occur in some polarized generator. Raises
    GuardExceeded, before building anything, when that is more than
    POLARIZE_GUARD variables.

    The rows come out canonical, so `_canonical_ideal` builds the result
    without a pairwise check (and without PAIRWISE_GUARD): polarization
    maps divisibility both ways, so no row divides another, and the
    first variable where two rows differ holds the first bit where
    their blocks differ, so descending order carries over.
    """
    copies = list(map(max, zip(*ideal.exponent_rows)))
    total = sum(copies)
    if total > POLARIZE_GUARD:
        raise GuardExceeded(
            f"refusing to polarize into {total} variables (limit {POLARIZE_GUARD})"
        )
    names = []
    origins = []
    for name, c in zip(ideal.table.names, copies):
        for j in range(1, c + 1):
            names.append(f"{name}_{j}")
            origins.append((name, j))
    pol_table = VariableTable(tuple(names), tuple(origins))
    rows = []
    for row in ideal.exponent_rows:
        # variable i with exponent e becomes the block of its c_i copies:
        # e ones, then c_i - e zeros
        exps = []
        for c, e in zip(copies, row):
            exps += [1] * e
            exps += [0] * (c - e)
        rows.append(tuple(exps))
    return _canonical_ideal(pol_table, rows)


_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\^|\*|,|[0-9]+|.")


def _tokens(text: str):
    pos = 0
    out = []
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        out.append((m.group(0), pos))
        pos = m.end()
    return out


def parse_ideal(text: str, var_names: Sequence[str] | None = None) -> MonomialIdeal:
    """Parse generator text like ``a^2*e, b^3*f`` into a MonomialIdeal.

    With `var_names` given, the table is exactly that list (unused
    variables still count towards n); otherwise variables are collected
    in order of first appearance. The generators are minimalized, with a
    warning if that drops anything.
    """
    toks = _tokens(text)
    if not toks:
        raise IdealSyntaxError("empty ideal text", 0)
    gens_raw = _parse_exponents(toks)

    if var_names is None:
        # dict keys keep the order of first appearance
        var_names = tuple(dict.fromkeys(name for gen in gens_raw for name, _, _ in gen))
    tbl = VariableTable(tuple(var_names))
    index = {name: i for i, name in enumerate(tbl.names)}

    rows = []
    for gen in gens_raw:
        exps = [0] * tbl.n
        for name, k, pos in gen:
            i = index.get(name)
            if i is None:
                raise UnknownVariableError(
                    f"unknown variable {name!r} at position {pos}"
                )
            exps[i] += k
        rows.append(tuple(exps))

    ideal = _minimal_ideal(tbl, rows)
    if ideal.q < len(rows):
        warnings.warn(
            f"generating set was not minimal; reduced to {ideal.render()}",
            stacklevel=2,
        )
    return ideal


def _parse_exponents(toks) -> list[list[tuple[str, int, int]]]:
    gens: list[list[tuple[str, int, int]]] = [[]]
    i = 0
    state = "factor"  # factor | after_var | after_exp
    while i < len(toks):
        tok, pos = toks[i]
        if state == "factor":
            if not _NAME_RE.match(tok):
                raise IdealSyntaxError(f"expected a variable, got {tok!r}", pos)
            gens[-1].append((tok, 1, pos))
            state = "after_var"
        elif state in ("after_var", "after_exp"):
            if tok == "^" and state == "after_var":
                if i + 1 >= len(toks) or not re.fullmatch("[0-9]+", toks[i + 1][0]):
                    raise IdealSyntaxError("'^' must be followed by an integer", pos)
                k = int(toks[i + 1][0])
                if k < 1:
                    raise IdealSyntaxError("exponent must be >= 1", toks[i + 1][1])
                name, _, vpos = gens[-1][-1]
                gens[-1][-1] = (name, k, vpos)
                i += 1
                state = "after_exp"
            elif tok == "*":
                state = "factor"
            elif tok == ",":
                gens.append([])
                state = "factor"
            else:
                raise IdealSyntaxError(f"unexpected token {tok!r}", pos)
        i += 1
    if state == "factor":
        last_pos = toks[-1][1] if toks else 0
        raise IdealSyntaxError("dangling separator", last_pos)
    return gens
