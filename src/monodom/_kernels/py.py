"""Pure-Python implementations of the hot kernels.

The compiled backend (:mod:`monodom._kernels._fast`) mirrors these
signatures exactly; :mod:`monodom._kernels` picks one at import time.
Everything here works on plain ints/tuples so both backends stay
trivially interchangeable.
"""

from __future__ import annotations

from monodom.errors import GuardExceeded


def subset_lcms(exps, n):
    """lcm exponent tuple for every subset of the generators.

    exps: sequence of q exponent tuples of length n.
    Returns a list of 2^q tuples indexed by subset bitmask; entry 0 is
    the all-zero tuple (the unit monomial).
    """
    q = len(exps)
    zero = (0,) * n
    table = [zero] * (1 << q)
    for mask in range(1, 1 << q):
        low = mask & -mask
        rest = mask ^ low
        gen = exps[low.bit_length() - 1]
        if rest == 0:
            table[mask] = tuple(gen)
        else:
            prev = table[rest]
            table[mask] = tuple(a if a >= b else b for a, b in zip(prev, gen))
    return table


def minimal_transversals(edges, n_vars, cap):
    """All minimal hitting sets of the edge hypergraph, as variable bitmasks.

    edges: nonzero variable bitmasks. Depth-first include/exclude search
    over variables in descending edge-degree order; a branch stops as soon
    as every edge is hit (supersets cannot be minimal), and candidate sets
    are filtered down to the antichain at the end. Raises GuardExceeded
    when more than `cap` candidate sets accumulate.
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
                    f"more than {cap} candidate minimal nets; raise the cap to proceed"
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

    # antichain filter: drop any candidate containing a smaller candidate
    found.sort(key=_popcount)
    minimal = []
    for cand in found:
        if not any(cand & m == m for m in minimal):
            minimal.append(cand)
    return minimal


def dominance_masks(exps, members):
    """Dominant-variable bitmask for each member of a generator subset.

    exps: all generator exponent tuples; members: ascending generator
    indices. A variable is dominant for a member when its exponent there
    is positive and strictly exceeds its exponent in every other member.
    Returns one mask per member, or None as soon as some member has no
    dominant variable (the subset is then not dominant).
    """
    n = len(exps[0]) if exps else 0
    rows = [exps[i] for i in members]
    masks = []
    for a, row in enumerate(rows):
        mask = 0
        for v in range(n):
            e = row[v]
            if e == 0:
                continue
            if all(other[v] < e for b, other in enumerate(rows) if b != a):
                mask |= 1 << v
        if mask == 0:
            return None
        masks.append(mask)
    return masks


def rank_int(rows):
    """Exact rank over the rationals of an integer matrix (Bareiss)."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    pr = 0
    for pc in range(nc):
        piv = -1
        for r in range(pr, nr):
            if m[r][pc]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        pivot = m[pr][pc]
        for r in range(pr + 1, nr):
            mr = m[r]
            mp = m[pr]
            f = mr[pc]
            for c in range(pc + 1, nc):
                mr[c] = (mr[c] * pivot - f * mp[c]) // prev
            mr[pc] = 0
        prev = pivot
        pr += 1
        rank += 1
        if pr == nr:
            break
    return rank


def rank_modp(rows, p):
    """Rank of an integer matrix over the prime field F_p."""
    m = [[v % p for v in r] for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    pr = 0
    for pc in range(nc):
        piv = -1
        for r in range(pr, nr):
            if m[r][pc]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        inv = pow(m[pr][pc], p - 2, p)
        mp = m[pr]
        for r in range(pr + 1, nr):
            mr = m[r]
            if mr[pc]:
                f = (mr[pc] * inv) % p
                for c in range(pc, nc):
                    mr[c] = (mr[c] - f * mp[c]) % p
        pr += 1
        rank += 1
        if pr == nr:
            break
    return rank


def _popcount(x):
    return bin(x).count("1")
