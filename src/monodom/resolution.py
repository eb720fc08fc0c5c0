"""Minimization of a subset complex by consecutive cancellations.

An entry joining symbols of equal multidegree with a nonzero scalar is
invertible; cancelling it removes both symbols and applies the Schur
update a'_{t,s} = a_{t,s} - a_{t,S} * a_{T,s} / a_{T,S} to the remaining
entries of that matrix, while the neighbouring matrices only lose a row
resp. a column. Iterating to exhaustion leaves the Betti numbers as the
surviving ranks. A strand-homology oracle recomputes every multigraded
Betti number independently of the cancellation path: each strand, the
cells of one multidegree, is first cut down by a one-generator acyclic
matching (discrete Morse theory on the Taylor complex, Batzies–Welker,
J. reine angew. Math. 543, 2002; Jöllenbeck–Welker, Mem. AMS 923, 2009)
that pairs sigma with sigma plus a generator k dividing the rest of the
strand's top face. The unpaired cells all contain k, so the Morse
differential is the Taylor differential restricted to them, and only
their ranks are taken. Each strand's top face and k come from the
lattice's strand map, which the Scarf basis reads too; a strand of one
cell, a Scarf face, or of one unpaired cell needs no matrix.

All arithmetic is exact: rationals by default, or F_p on request.
Scalars are stored bare; the monomial part of an entry is always the
quotient of the two symbols' multidegrees. A field supplies only its
characteristic `p` (0 over Q), `name`, `div` and `rank`: the Schur update
and the checks use Python's operators on the stored scalars, reduced
`% p` only over F_p, so the inner loop makes no method call. Rational
scalars are Python ints; `RationalField.div` returns a Fraction only
when the quotient is not integral, which keeps the common ±1 pivots on
the int fast path; `cancel` calls it once per cancellation, for the
pivot's inverse. A scalar is zero when it is 0 over Q, or a multiple
of p over F_p, so an unreduced multiple of p stored in a column still
reads as a stored zero.

The complex cancelled is the full Taylor complex or, when only the
Betti table is wanted, its Lyubeznik subcomplex, which resolves S/M
from far fewer symbols. `FreeComplex` takes one face map, `{mask: lcm
code}` in scan order, which `taylor` builds for either start:
`lyubeznik_faces` from the Lyubeznik walk, which never reads the 2^q
table the oracle reads, or `taylor_faces` from a table of its own. It
builds its differential in one pass over the faces, with the sign
rule of `facets` inlined: each face gets its column, its row and, if it
holds an invertible entry, its place in the pivot queue. The columns
are its only copy of the faces: the surviving strata are their keys,
and a face's homological degree is its mask's popcount. Multidegrees
are integer codes, so every comparison is an int operation: equal
multidegrees have equal codes, and mdeg(tau) divides mdeg(sigma) iff
`codes[tau] | codes[sigma] == codes[sigma]`. A Betti table holds its
counts on codes. Its graded numbers and its printed multigraded ones
are read off the lattice's spelling of each code, so printing decodes
nothing; a code is decoded to a `Monomial` only when the library reads
`multigraded` or an `mdeg`, and `check_report` does neither.

Cancellation is local. The differential is one column per face, and
its row index, the transpose, one row per face, so cancelling (tau,
sigma) touches only the columns in row tau, the columns in row sigma
(one degree up) and column tau (one degree down). One pivot queue
lists the faces whose column held an invertible entry when the complex
was built, in descending scan order; `find_invertible` drops stale
faces from its end and returns the scan-order pivot (lowest degree,
then smallest column, then smallest row) without rescanning. No face
ever has to join the queue later, in whatever order the entries are
cancelled: a Schur update creates (tau2, sig2) from the entries
(tau2, sigma) and (tau, sig2), and mdeg(tau2) | mdeg(sigma) =
mdeg(tau) | mdeg(sig2), so an equal-multidegree fill-in only lands in a
column that already held the equal-multidegree entry (tau, sig2) and
is therefore still queued. A face dropped from the queue thus never
regains an invertible entry, and the scan needs no cursor.
`check_index` verifies the row index and the queue, and
`all_invertible` is the full scan that relies on neither.

`validate` checks multihomogeneity and d∘d = 0 on every column, trusting
neither the row index nor `cancel`. `minimize` runs it on the start and
after every cancellation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from . import _kernels
from .errors import InternalInvariantError, InvalidParameterError
from .monomials import Monomial, MonomialIdeal, memo
from .taylor import (
    TaylorComplex,
    build_taylor,
    facets,
    lyubeznik_faces,
    taylor_faces,
)


class RationalField:
    """Exact rational scalars: ints, and a Fraction only for a non-integral quotient.

    Characteristic `p` = 0: the engine adds, subtracts and multiplies
    stored scalars with Python's operators and never reduces them.
    """

    name = "rational"
    p = 0

    @staticmethod
    def div(x, y):
        if type(x) is int and type(y) is int:
            quot, rem = divmod(x, y)
            if not rem:
                return quot
        return Fraction(x, y)

    def rank(self, rows):
        """Rank of an integer matrix given as {column: nonzero int} row dicts."""
        return _kernels.rank_int(rows)


# Miller-Rabin with the first thirteen primes as bases is deterministic
# below psi_13 (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < _MR_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p scalars as plain ints in [0, p).

    The engine computes with Python's operators on the stored ints and
    reduces `% p` wherever it stores a result or tests one for zero, so
    an unreduced multiple of p still reads as zero.
    """

    def __init__(self, p: int = 32003):
        if p >= _MR_BOUND:
            raise InvalidParameterError(
                f"{p} is too large to test for primality (limit {_MR_BOUND - 1})"
            )
        if not _is_prime(p):
            raise InvalidParameterError(f"{p} is not prime")
        self.p = p
        self.name = f"fp:{p}"

    def div(self, x, y):
        return (x * pow(y, self.p - 2, self.p)) % self.p

    def rank(self, rows):
        """Rank over F_p of an integer matrix given as {column: nonzero int} row dicts."""
        return _kernels.rank_modp(rows, self.p)


RATIONAL = RationalField()


class BettiTable:
    """Total, graded and multigraded Betti numbers of a quotient.

    Held as `counts`, the numbers β_{h,b} keyed by (h, lcm code of b),
    with the lattice the codes are spelled and decoded through. `total`
    and `pd` are read off the counts when the table is built. `graded`
    sums spelled degrees and `multigraded_text` sorts spelled keys, each
    distinct code spelled once into the lattice's shared cache;
    `multigraded` decodes each distinct code once, on first read, and
    keeps the order of `counts`.
    Within one ideal's lattice the codes encode multidegrees exactly, so
    two tables on it agree exactly when their counts do. Tables are
    equal when their multigraded numbers are: the totals and graded
    numbers are sums of those, so comparing them too would add nothing.
    """

    def __init__(
        self,
        counts: dict[tuple[int, int], int],
        lattice: TaylorComplex,
        field_name: str = "rational",
    ):
        self.counts = counts
        self.lattice = lattice
        self.field_name = field_name
        self.pd = pd = max(h for h, _ in counts)
        total = [0] * (pd + 1)
        for (h, _), c in counts.items():
            total[h] += c
        self.total = tuple(total)

    @memo
    def multigraded(self) -> dict[tuple[int, Monomial], int]:
        monomials = self.lattice.monomials(code for _, code in self.counts)
        return {(h, monomials[code]): c for (h, code), c in self.counts.items()}

    @memo
    def graded(self) -> dict[tuple[int, int], int]:
        spelled = self.lattice.spellings(code for _, code in self.counts)
        graded: dict[tuple[int, int], int] = {}
        for (h, code), c in self.counts.items():
            key = (h, spelled[code][1])
            graded[key] = graded.get(key, 0) + c
        return graded

    def multigraded_text(self) -> list[list]:
        """[h, multidegree text, count] by h, then exponent vector.

        Read off the spelled codes; no two entries share (h, code), so
        the sort never compares past the order key.
        """
        spelled = self.lattice.spellings(code for _, code in self.counts)
        entries = sorted(
            (h, spelled[code][2], spelled[code][0], c)
            for (h, code), c in self.counts.items()
        )
        return [[h, text, c] for h, _, text, c in entries]

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.multigraded == other.multigraded

    def __repr__(self):
        return f"BettiTable(total={self.total}, pd={self.pd}, field={self.field_name!r})"

    @property
    def sum(self) -> int:
        return sum(self.total)

    def beta(self, i: int) -> int:
        return self.total[i] if 0 <= i < len(self.total) else 0


class FreeComplex:
    """Mutable labeled complex over a field, with the Taylor differential.

    It starts on `faces`, the `{mask: lcm code}` map of a subcomplex of
    the ideal's Taylor complex closed under facets, keyed in scan order
    (degree, then mask ascending). `taylor.lyubeznik_faces` gives the
    Lyubeznik subcomplex; by default it is `taylor.taylor_faces`, all of
    it. The map becomes mdeg_codes as given, and nothing changes it.
    cols maps each surviving face to its column {row: scalar}, in scan
    order; the empty face has an empty column. rows is the transpose of
    cols, {row: {column: None}}, with a row, empty or not, for each
    surviving face. queue lists, in descending scan order, the faces
    whose column may hold an equal-multidegree (invertible) entry. A
    face's degree is its mask's popcount. The shared Taylor lattice is
    left unchanged.
    """

    def __init__(
        self,
        ideal: MonomialIdeal,
        field=RATIONAL,
        faces: Mapping[int, int] | None = None,
    ):
        taylor = build_taylor(ideal)  # held, so taylor_faces reuses it
        if faces is None:
            faces = taylor_faces(ideal)
        self.field = field
        self.q = ideal.q
        self.taylor = taylor
        self.mdeg_codes = faces
        p = field.p
        cols: dict[int, dict[int, object]] = {}
        rows: dict[int, dict[int, None]] = {}
        queue: list[int] = []
        # each face built so far: its one shared int object, its code and
        # its row
        built: dict[int, tuple[int, int, dict[int, None]]] = {}
        try:
            for sigma, up in faces.items():
                # the facets, members dropped in ascending order with
                # signs 1, -1, 1, ... as in `taylor.facets`; -1 is p - 1
                # over F_p, so each sign is p minus the last (p = 0 over Q)
                col: dict[int, object] = {}
                hit = False
                sign, rest = 1, sigma
                while rest:
                    low = rest & -rest
                    rest ^= low
                    tau, code, row = built[sigma ^ low]
                    col[tau] = sign
                    row[sigma] = None
                    sign = p - sign
                    if code == up:
                        hit = True
                cols[sigma] = col
                if hit:
                    queue.append(sigma)
                row = rows[sigma] = {}
                built[sigma] = (sigma, up, row)
        except KeyError:  # from `built`: a facet is missing
            raise InternalInvariantError(
                f"a facet of a degree-{sigma.bit_count()} symbol is not in the "
                "starting complex"
            ) from None
        queue.reverse()  # the faces came in scan order
        self.cols, self.rows, self.queue = cols, rows, queue

    @property
    def strata(self) -> list[list[int]]:
        """The surviving faces per degree, ascending: the keys of `cols`,
        which are inserted in scan order and only ever removed."""
        strata: list[list[int]] = [[] for _ in range(self.q + 1)]
        for mask in self.cols:
            strata[mask.bit_count()].append(mask)
        return strata

    def copy(self) -> "FreeComplex":
        dup = object.__new__(FreeComplex)
        dup.field = self.field
        dup.q = self.q
        dup.taylor = self.taylor
        dup.mdeg_codes = self.mdeg_codes
        dup.cols = {sigma: dict(col) for sigma, col in self.cols.items()}
        dup.rows = {tau: dict(row) for tau, row in self.rows.items()}
        dup.queue = list(self.queue)
        return dup

    def mdeg(self, mask: int) -> Monomial:
        return self.taylor.monomial(self.mdeg_codes[mask])

    def is_invertible(self, tau: int, sigma: int) -> bool:
        val = self.cols.get(sigma, {}).get(tau)
        p = self.field.p
        return (
            val is not None
            and (val % p if p else val) != 0
            and self.mdeg_codes[tau] == self.mdeg_codes[sigma]
        )

    def find_invertible(self):
        """First invertible entry (tau, sigma) in scan order: degree, then
        column, then row.

        Reads the pivot queue, dropping faces that no longer hold an
        invertible entry; `all_invertible` is the independent full scan.
        """
        cols, codes, queue = self.cols, self.mdeg_codes, self.queue
        while queue:
            sigma = queue[-1]
            col = cols.get(sigma)
            if col:
                up = codes[sigma]
                hits = [tau for tau in col if codes[tau] == up]
                if hits:
                    return min(hits), sigma
            queue.pop()
        return None

    def all_invertible(self):
        """Every invertible entry (tau, sigma) in scan order, by a full scan
        of the columns."""
        codes = self.mdeg_codes
        out = []
        for sigma, col in self.cols.items():
            up = codes[sigma]
            hits = [tau for tau in col if codes[tau] == up]
            out.extend((tau, sigma) for tau in sorted(hits))
        return out

    def cancel(self, tau: int, sigma: int) -> "FreeComplex":
        """Cancel the invertible entry (tau, sigma), in place.

        Only the columns in row tau get a Schur update. Then sigma leaves
        the columns one degree up that hold it, found by its row, and tau
        leaves the rows of its column. The empty face has a column and
        every face has a row, so neither degree 1 nor the top degree is a
        special case.
        """
        if not self.is_invertible(tau, sigma):
            raise ValueError(
                f"entry at degree {sigma.bit_count()}, row {tau:#x}, "
                f"column {sigma:#x} is not invertible"
            )
        div, p = self.field.div, self.field.p
        cols, rows = self.cols, self.rows
        col_rest = cols.pop(sigma)
        inverse = div(1, col_rest.pop(tau))
        for tau2 in col_rest:
            del rows[tau2][sigma]
        row_rest = rows.pop(tau)
        del row_rest[sigma]
        for sig2 in row_rest:
            col2 = cols[sig2]
            factor = col2.pop(tau) * inverse
            for tau2, c in col_rest.items():
                cur = col2.get(tau2)
                new = -(c * factor) if cur is None else cur - c * factor
                if p:
                    new %= p
                if new:
                    if cur is None:
                        rows[tau2][sig2] = None
                    col2[tau2] = new
                elif cur is not None:
                    del col2[tau2]
                    del rows[tau2][sig2]
        for sig2 in rows.pop(sigma):
            del cols[sig2][sigma]
        for rho in cols.pop(tau):
            del rows[rho][tau]
        return self

    def check_index(self) -> None:
        """rows must be the transpose of cols, with a row for each face,
        and every column holding an equal-multidegree entry must sit in
        the pivot queue."""
        codes, cols = self.mdeg_codes, self.cols
        transpose: dict[int, dict[int, None]] = {sigma: {} for sigma in cols}
        for sigma, col in cols.items():
            for tau in col:
                transpose.setdefault(tau, {})[sigma] = None
        if transpose != self.rows:
            raise InternalInvariantError("row index is not the transpose of the columns")
        queued = set(self.queue)
        for sigma, col in cols.items():
            up = codes[sigma]
            if sigma not in queued and any(codes[tau] == up for tau in col):
                raise InternalInvariantError(
                    f"column {sigma:#x} of degree {sigma.bit_count()} holds "
                    "an invertible entry but is not queued"
                )

    def check_multihomogeneous(self) -> None:
        p, codes = self.field.p, self.mdeg_codes
        for sigma, col in self.cols.items():
            up = codes[sigma]
            for tau, val in col.items():
                if (val % p if p else val) == 0:
                    raise InternalInvariantError("stored zero entry")
                if codes[tau] | up != up:
                    raise InternalInvariantError(
                        "entry between incomparable multidegrees"
                    )

    def check_d_squared(self) -> None:
        p, cols = self.field.p, self.cols
        for sigma, col in cols.items():
            acc: dict[int, object] = {}
            for tau, val in col.items():
                for rho, val2 in cols.get(tau, {}).items():
                    acc[rho] = acc.get(rho, 0) + val * val2
            for total in acc.values():
                if (total % p if p else total) != 0:
                    s = sigma.bit_count()
                    raise InternalInvariantError(
                        f"d∘d != 0 between degrees {s} and {s - 2}"
                    )

    def validate(self) -> None:
        """Check multihomogeneity, then d∘d = 0, on every column."""
        self.check_multihomogeneous()
        self.check_d_squared()

    def betti_table(self) -> BettiTable:
        counts: dict[tuple[int, int], int] = {}
        codes = self.mdeg_codes
        for mask in self.cols:
            key = (mask.bit_count(), codes[mask])
            counts[key] = counts.get(key, 0) + 1
        return BettiTable(counts, self.taylor, self.field.name)


VALIDATE_GUARD = 8  # q up to which minimize validates every step


def minimize(
    ideal: MonomialIdeal, field=RATIONAL, *, start: str = "taylor"
) -> tuple[FreeComplex, BettiTable]:
    """Cancel invertible entries to exhaustion; survivors give the Betti table.

    `start` is the complex cancelled: "taylor", the full subset complex
    (`taylor_faces`), or "lyubeznik", its Lyubeznik subcomplex
    (`lyubeznik_faces`), which resolves S/M too and so gives the same
    Betti table from fewer symbols, but a different minimized complex.
    Either way `FreeComplex` gets one face map in scan order. Pivots are
    taken in the fixed scan order of `find_invertible`, so the loop walks
    the pivot queue once: a face it passes never regains an invertible
    entry.

    For q <= VALIDATE_GUARD the start is validated, and so is the complex
    after every cancellation. The final complex then also gets
    `check_index` and the full scan for a leftover invertible entry.
    """
    if start not in ("taylor", "lyubeznik"):
        raise InvalidParameterError(f"unknown start {start!r}")
    lattice = build_taylor(ideal)  # held, so the walk and the complex share it
    cx = FreeComplex(
        ideal, field, lyubeznik_faces(ideal) if start == "lyubeznik" else None
    )
    validate = ideal.q <= VALIDATE_GUARD
    if validate:
        cx.validate()
    while (hit := cx.find_invertible()) is not None:
        cx.cancel(*hit)
        if validate:
            cx.validate()
    if validate:
        cx.check_index()
        if cx.all_invertible():
            raise InternalInvariantError("minimization left an invertible entry")
    return cx, cx.betti_table()


def betti_oracle(ideal: MonomialIdeal, field=RATIONAL) -> BettiTable:
    """Multigraded Betti numbers from strand homology, no cancellations.

    Reducing the Taylor complex modulo the variables kills every entry
    whose endpoints have different multidegrees; what is left splits
    into one scalar strand per multidegree b, on the group G of subsets
    whose lcm is b, and β_{h,b} is the strand's homology in degree h.

    Each strand is first shrunk by a one-generator acyclic matching, the
    discrete Morse theory of the Taylor complex (Batzies–Welker, J. reine
    angew. Math. 543, 2002; Jöllenbeck–Welker, Mem. AMS 923, 2009). The
    lattice's strand map (`TaylorComplex.strands`) gives G's top face,
    the union of its members, and its pairing bit: the first generator k
    of the top face that divides the lcm of the rest of it. Then m_k
    divides b, so sigma and sigma | k share their lcm for every sigma in
    G without k, and pairing the two matches with a ±1 incidence and no
    cycles. The critical (unpaired) cells are the members of G that
    contain k and whose facet without k has a smaller lcm. Every other
    facet of a critical cell still contains k, so it is critical or
    paired with a cell below it: no zigzag path leaves a critical cell,
    and the Morse differential is the Taylor differential restricted to
    the critical cells.

    So a strand with no pairing bit is its top face alone, a Scarf face,
    and counts β = 1 in that face's degree. Every critical cell of the
    other strands is found in one pass over the 2^q table. A strand with
    no critical cell has no homology, and one with a single critical
    cell has β = 1 in its degree. Otherwise the ranks of the restricted
    differential are taken level by level, by exact elimination. A level
    with one row or one column has rank 1 exactly when some row is a
    facet of some column, every entry being ±1, and needs no matrix.
    Any other matrix is built from each column's `facets`.
    """
    cx = build_taylor(ideal)
    lcms = cx.mdeg_codes
    strands = cx.strands
    pairing = {b: k for b, (_, k) in strands.items()}
    critical: dict[int, list[int]] = {}
    for sigma in [
        sigma
        for sigma, b in enumerate(lcms)
        if sigma & (k := pairing[b]) and lcms[sigma ^ k] != b
    ]:
        critical.setdefault(lcms[sigma], []).append(sigma)
    counts: dict[tuple[int, int], int] = {}
    for b, (top, k) in strands.items():
        if not k:  # the strand is its top face alone
            counts[(top.bit_count(), b)] = 1
            continue
        cells = critical.get(b)
        if cells is None:  # the matching pairs every cell
            continue
        if len(cells) == 1:
            counts[(cells[0].bit_count(), b)] = 1
            continue
        levels: dict[int, list[int]] = {}
        for mask in cells:
            levels.setdefault(mask.bit_count(), []).append(mask)
        ranks: dict[int, int] = {}
        for h, columns in levels.items():
            below = levels.get(h - 1)
            if below is None:
                continue
            if len(below) == 1 or len(columns) == 1:  # rank 1 iff any ±1 entry
                ranks[h] = any(tau & sigma == tau for tau in below for sigma in columns)
                continue
            rows: list[dict[int, int]] = [{} for _ in below]
            row_index = {m: i for i, m in enumerate(below)}
            for ci, sigma in enumerate(columns):
                for tau, sign in facets(sigma):
                    ri = row_index.get(tau)
                    if ri is not None:
                        rows[ri][ci] = sign
            ranks[h] = field.rank(rows)
        for h, masks in levels.items():
            beta = len(masks) - ranks.get(h, 0) - ranks.get(h + 1, 0)
            if beta < 0:
                raise InternalInvariantError("negative strand homology rank")
            if beta:
                counts[(h, b)] = beta
    return BettiTable(counts, cx, field.name)


def is_complete_intersection(ideal: MonomialIdeal) -> bool:
    """Pairwise disjoint generator supports.

    They are disjoint exactly when no variable is counted twice, i.e. the
    support sizes add up to the number of variables that occur at all.
    """
    masks = ideal.support_masks
    used = 0
    for mask in masks:
        used |= mask
    return sum(map(int.bit_count, masks)) == used.bit_count()
