"""The hot kernels: minimal generating sets, the subset-lcm lattice,
minimal transversals, dominance scans and exact rank.

They take and return plain ints, tuples, lists and dicts, so they know
nothing of the monomial and complex types built on them. Python ints
never overflow, so every result is exact however large the exponents
or matrix entries grow.

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


def minimal_transversals(edges, n_vars, cap):
    """All minimal hitting sets of the edge hypergraph, as variable bitmasks.

    edges: nonzero variable bitmasks. Depth-first include/exclude search
    over variables in descending edge-degree order; a branch stops as soon
    as every edge is hit (supersets cannot be minimal). A candidate can
    still contain a variable that later choices made redundant, so only
    the candidates in which every variable has a private edge are kept,
    ordered by size (stably, in search order within one size). Raises
    GuardExceeded when more than `cap` candidate sets accumulate.
    """
    if not edges:
        return []
    degree = [0] * n_vars
    for e in edges:
        m = e
        while m:
            low = m & -m
            degree[low.bit_length() - 1] += 1
            m ^= low
    order = sorted(range(n_vars), key=lambda v: (-degree[v], v))
    order = [v for v in order if degree[v] > 0]
    k = len(order)
    # suffix_cover[i] = union of variables order[i:], for the feasibility prune
    suffix_cover = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | (1 << order[i])

    found = []
    # depth-first over (position, chosen, uncovered), include branch first;
    # an explicit stack, since k can exceed the recursion limit
    stack = [(0, 0, list(edges))]
    while stack:
        i, chosen, uncovered = stack.pop()
        if not uncovered:
            found.append(chosen)
            if len(found) > cap:
                raise GuardExceeded(
                    f"{len(found)} candidate minimal nets exceed the guard of {cap}"
                )
            continue
        hit = 0
        for e in uncovered:
            hit |= e
        while i < k and not hit >> order[i] & 1:
            i += 1  # order[i] covers nothing new, so only excluding it can be minimal
        if i == k:
            continue
        cover = suffix_cover[i]
        if not all(e & cover for e in uncovered):
            continue
        bit = 1 << order[i]
        stack.append((i + 1, chosen, uncovered))
        stack.append((i + 1, chosen | bit, [e for e in uncovered if not e & bit]))

    minimal = [cand for cand in found if _is_minimal(cand, edges)]
    minimal.sort(key=int.bit_count)
    return minimal


def _is_minimal(chosen, edges):
    """Whether the hitting set `chosen` is minimal.

    It is when every chosen variable has a private edge: one that
    `chosen` meets in that variable alone. O(len(edges)).
    """
    private = 0
    for e in edges:
        hit = e & chosen
        if not hit & (hit - 1):
            private |= hit
    return private == chosen


def dominance_masks(exps, members):
    """Dominant-variable bitmask for each member of a generator subset.

    exps: all generator exponent tuples; members: ascending generator
    indices. A variable is dominant for a member when its exponent there
    is positive and strictly exceeds its exponent in every other member,
    i.e. when the member alone holds the variable's top exponent. Returns
    one mask per member, or None when some member has no dominant
    variable (the subset is then not dominant).
    """
    n = len(exps[0]) if exps else 0
    rows = [exps[i] for i in members]
    masks = [0] * len(rows)
    for v in range(n):
        top, holder = 0, -1  # holder: the one member above all others, if any
        for a, row in enumerate(rows):
            e = row[v]
            if e > top:
                top, holder = e, a
            elif e == top:
                holder = -1
        if holder >= 0:
            masks[holder] |= 1 << v
    return masks if all(masks) else None


def dominant_subsets(exps, sizes):
    """Every dominant generator subset of the given sizes, with its masks.

    exps: all generator exponent tuples. For each size in `sizes`, in the
    order given, yields (members, masks) for the dominant subsets of that
    size, members ascending and the subsets in lexicographic order; masks
    are what `dominance_masks(exps, members)` returns for them.

    Depth-first over ascending prefixes, extending a prefix only while it
    stays dominant: a subset of a dominant set is dominant, so no superset
    of a non-dominant prefix is. Adding generator j keeps, of each
    member's mask, the variables where it beats j, and gives j the
    variables where it beats every member. Which variables of a beat b is
    a's mask in the pair {a, b}: `dominance_masks` computes it once per
    pair, on first use, and a pair that is not dominant beats nothing.
    """
    q = len(exps)
    beats = [None] * (q * q)  # beats[a * q + b]: variables where a beats b
    for size in sizes:
        # one (prefix, its masks, generators left to try) entry per depth. A
        # lone member's mask is left at -1, every variable, until a second
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
                        pair = dominance_masks(exps, (a, j))
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
            elif single := dominance_masks(exps, members):
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
