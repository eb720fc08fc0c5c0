"""The hot kernels: minimal generating sets, the subset-lcm lattice,
minimal transversals, dominance scans and exact rank.

They take and return plain ints, tuples, lists and dicts, so they know
nothing of the monomial and complex types built on them. Sets are
bitmasks: of variables for transversals, of lattice-code bits for the
dominance scans (which compare only the order of each variable's
exponents, and the codes keep exactly that order), of generators for
the lcm table. Python ints never overflow, so every result is exact
however large the exponents or matrix entries grow.

Callers look each kernel up on this module at call time
(`_kernels.rank_int(...)`), so patching a name here replaces the kernel
everywhere.
"""

from __future__ import annotations

from math import gcd
from operator import le

from .errors import GuardExceeded


def first_divisors(rows):
    """Index of the first other row that divides each row, or -1.

    rows: distinct exponent tuples of one length. Row a divides row b
    when a <= b in every coordinate. Two distinct rows can divide only
    one way, the one of smaller total degree dividing the other, so the
    exponents are compared only for pairs that pass that int test.
    O(len(rows)^2) degree tests.
    """
    degrees = list(map(sum, rows))
    out = []
    for b, db in zip(rows, degrees):
        for j, da in enumerate(degrees):
            if da < db and all(map(le, rows[j], b)):
                out.append(j)
                break
        else:
            out.append(-1)
    return out


def subset_lcms(codes):
    """lcm code for every subset of the generators.

    codes: the q generator codes, on which lcm is bitwise OR.
    Returns a list of 2^q ints indexed by subset bitmask; entry 0 is
    0 (the unit monomial). Each generator doubles the table: the subsets
    containing it are the ones before it, ORed with its code.
    """
    table = [0]
    for code in codes:
        table += [lcm | code for lcm in table]
    return table


def minimal_transversals(edges, cap):
    """All minimal hitting sets of the edge hypergraph, as variable bitmasks.

    edges: nonzero variable bitmasks. Berge's algorithm (Berge,
    *Hypergraphs*, 1989): the family starts as the empty set alone and
    takes the distinct edges by ascending size. After each edge it keeps
    the sets that hit the edge, and extends each set that misses it by
    each variable of the edge. An extension is kept only when every
    variable in it has a private edge among the edges taken so far: one
    that the extension meets in that variable alone. The new variable
    has the new edge; a member u of the old set keeps a private edge
    unless the new variable lies in every edge private to u, the AND of
    those edges. So one pass over the edges per old set gives the
    variables that may extend it. The family is then exactly the minimal
    transversals of the edges taken, with no repeats. An edge that every
    set already hits changes neither the family nor which sets are
    minimal, so it is not taken. Returns the masks ordered by size
    (stably, in family order within one size). Raises GuardExceeded as
    soon as the family held after one edge grows past `cap` sets.
    """
    if not edges:
        return []
    family = [0]
    taken = []
    for edge in sorted(dict.fromkeys(edges), key=int.bit_count):
        kept, missing = [], []
        for s in family:
            (kept if s & edge else missing).append(s)
        if not missing:
            continue
        bits = []
        rest = edge
        while rest:
            low = rest & -rest
            bits.append(low)
            rest ^= low
        for s in missing:
            private = {}  # member of s -> AND of the edges s meets in it alone
            for e in taken:
                hit = e & s
                if not hit & (hit - 1):
                    private[hit] = private.get(hit, e) & e
            blocked = 0
            for common in private.values():
                blocked |= common
            for bit in bits:
                if not bit & blocked:
                    kept.append(s | bit)
                    if len(kept) > cap:
                        raise GuardExceeded(
                            f"{len(kept)} candidate minimal nets exceed the guard of {cap}"
                        )
        taken.append(edge)
        family = kept
    family.sort(key=int.bit_count)
    return family


def dominance_masks(codes, members):
    """Dominant bits of each member of a generator subset, on lattice codes.

    codes: all generator codes (see `taylor.lattice_codes`); members:
    ascending generator indices. A member's dominant bits are the bits
    of its code that no other member's code has: in the field of
    variable v they are nonzero exactly when the member alone holds v's
    top exponent in the subset, i.e. when v is dominant for it, and they
    then hold the top bit of the member's v-field. Returns one mask per
    member, or None when some member has none (the subset is then not
    dominant).
    """
    masks = []
    for a in members:
        rest = 0
        for b in members:
            if b != a:
                rest |= codes[b]
        mask = codes[a] & ~rest
        if not mask:
            return None
        masks.append(mask)
    return masks


def dominant_subsets(codes, sizes):
    """Every dominant generator subset of the given sizes, with its masks.

    codes: all generator codes. For each size in `sizes`, in the order
    given, yields (members, masks) for the dominant subsets of that size,
    members ascending and the subsets in lexicographic order; masks are
    what `dominance_masks(codes, members)` returns for them.

    Depth-first over ascending prefixes, extending a prefix only while it
    stays dominant: a subset of a dominant set is dominant, so no superset
    of a non-dominant prefix is. Adding generator j keeps, of each
    member's mask, the bits it holds and j lacks, and gives j the bits it
    holds and every member lacks. Which bits of a are missing from b is
    a's mask in the pair {a, b}: `dominance_masks` computes it once per
    pair, on first use, and a pair that is not dominant beats nothing.
    """
    q = len(codes)
    beats = [None] * (q * q)  # beats[a * q + b]: bits of a that b lacks
    for size in sizes:
        # one (prefix, its masks, generators left to try) entry per depth. A
        # lone member's mask is left at -1, every bit, until a second
        # member cuts it to their pair mask; a size-1 set takes its own.
        path = [((), [], iter(range(q - size + 1)))]
        while path:
            members, masks, rest = path[-1]
            for j in rest:
                own = -1
                grown = []
                for a, mask in zip(members, masks):
                    ab, ja = a * q + j, j * q + a
                    if beats[ab] is None:
                        pair = dominance_masks(codes, (a, j))
                        beats[ab], beats[ja] = pair if pair else (0, 0)
                    mask &= beats[ab]
                    own &= beats[ja]
                    if not (mask and own):
                        break  # members + (j,) is not dominant: try the next j
                    grown.append(mask)
                else:
                    grown.append(own)
                    break  # members + (j,) is dominant: go down into it
            else:
                path.pop()
                continue
            members += (j,)
            k = len(members)
            if k < size:
                path.append((members, grown, iter(range(j + 1, q - size + k + 1))))
            elif k > 1:
                yield members, grown
            elif single := dominance_masks(codes, members):
                yield members, single


def rank_int(rows):
    """Exact rank over the rationals of a sparse integer matrix.

    rows: one {column: value} dict per row holding only that row's
    nonzero entries, with int columns. A stored zero is not allowed: it
    would be taken for a leading entry. The dicts are not modified.

    Sparse fraction-free row reduction. Each row is reduced, one leading
    column at a time, against the pivot rows kept by leading column:
    r := (a/g)*r - (f/g)*pivot, where a is the pivot's leading entry, f
    is r's and g = gcd(a, f). A row that reaches a free leading column
    becomes a pivot row, divided by the gcd of its entries and signed so
    that its leading entry is positive; a unit pivot then never rescales
    the row it reduces. Only nonzero entries are ever touched, so the
    cost follows the fill-in rather than the matrix's area; entries are
    Python ints and never overflow.
    """
    pivots = {}
    for row in rows:
        r = dict(row)
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                g = 0
                for v in r.values():
                    g = gcd(g, v)
                if r[lead] < 0:
                    g = -g
                if g != 1:
                    r = {c: v // g for c, v in r.items()}
                pivots[lead] = r
                break
            a, f = piv[lead], r[lead]
            if a != 1:
                g = gcd(a, f)
                a, f = a // g, f // g
                if a != 1:
                    r = {c: a * v for c, v in r.items()}
            for c, v in piv.items():
                x = r.get(c, 0) - f * v
                if x:
                    r[c] = x
                elif c in r:
                    del r[c]
    return len(pivots)


def rank_modp(rows, p):
    """Rank of a sparse integer matrix over the prime field F_p.

    rows: one {column: value} dict per row, as for `rank_int`: nonzero
    entries only. Entries divisible by p are dropped on input.

    Sparse row reduction as in `rank_int`, with entries reduced mod p and
    each pivot row scaled by the inverse of its leading entry, so a row
    is reduced by r := r - f*pivot with f its own leading entry.
    """
    pivots = {}
    for row in rows:
        r = {c: x for c, v in row.items() if (x := v % p)}
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in r.items()}
                break
            f = r[lead]
            for c, v in piv.items():
                x = (r.get(c, 0) - f * v) % p
                if x:
                    r[c] = x
                elif c in r:
                    del r[c]
    return len(pivots)
