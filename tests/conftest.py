from functools import lru_cache
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import settings

from monodom import (
    RATIONAL,
    DominanceWitness,
    FreeComplex,
    FuzzParams,
    InternalInvariantError,
    InvalidIdealError,
    Monomial,
    MonomialIdeal,
    Net,
    TableMismatchError,
    is_dominant_set,
    is_net,
    parse_ideal,
    polarize,
    random_ideal,
)
from monodom import _kernels
from monodom.monomials import VariableTable, _check_pairwise_cost, _minimal_ideal
from monodom.taylor import lattice_codes, members_of
from monodom.verify import exhaustive_ideals

# Every run draws the same examples, so whether a test catches a given
# fault does not depend on the run (this also turns off the example database).
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


@pytest.fixture
def ideal():
    return parse_ideal


def I(text, var_names=None):
    return parse_ideal(text, var_names)


def path_ideal(k):
    """Edge ideal of the path with k edges on x1..x(k+1)."""
    return I(", ".join(f"x{i}*x{i + 1}" for i in range(1, k + 1)))


def cycle_ideal(k):
    """Edge ideal of the k-cycle on x1..xk."""
    return I(", ".join([f"x{i}*x{i + 1}" for i in range(1, k)] + [f"x1*x{k}"]))


def complete_ideal(k):
    """Edge ideal of the complete graph on x1..xk."""
    return I(", ".join(f"x{a}*x{b}" for a, b in combinations(range(1, k + 1), 2)))


# A 6-vertex triangulation of the real projective plane; its Stanley-Reisner
# ideal is generated by the ten triangles that are not faces, and its H_1 is Z/2.
RP2_FACES = {(1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
             (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6)}


def rp2_ideal():
    gens = ["*".join(f"x{i}" for i in t)
            for t in combinations(range(1, 7), 3) if t not in RP2_FACES]
    return I(", ".join(gens), [f"x{i}" for i in range(1, 7)])


# one side of each split of x1..x6 into two triples, the side holding x1
K33_SIDES = [side for side in combinations(range(1, 7), 3) if 1 in side]


def k33_ideal(side):
    """Edge ideal of K3,3 with the parts `side` and the rest of x1..x6."""
    other = [b for b in range(1, 7) if b not in side]
    return I(
        ", ".join(f"x{a}*x{b}" for a in side for b in other),
        [f"x{i}" for i in range(1, 7)],
    )


# the two exhaustive presets of acceptance criterion 9: 20 + 188 ideals
EXHAUSTIVE = [
    *exhaustive_ideals(FuzzParams(n_max=2, q_max=8, exp_max=2, trials=0, exhaustive=True)),
    *exhaustive_ideals(FuzzParams(n_max=4, q_max=5, exp_max=1, trials=0, exhaustive=True)),
]

# 400 draws of each of four presets with up to 12 generators, with
# (variables, exponent bound) = (8, 2), (6, 3), (8, 1) and the README's (4, 3)
RANDOM_DRAWS = [
    random_ideal(params, t)
    for params in (
        FuzzParams(n_max=8, q_max=12, exp_max=2, trials=0, seed=11),
        FuzzParams(n_max=6, q_max=12, exp_max=3, trials=0, seed=12),
        FuzzParams(n_max=8, q_max=12, exp_max=1, trials=0, seed=13),
        FuzzParams(n_max=4, q_max=5, exp_max=3, trials=0, seed=42),
    )
    for t in range(400)
]

# 1000 draws with the limits of the benchmark's fuzz_campaign workload
CAMPAIGN_DRAWS = [
    random_ideal(FuzzParams(n_max=6, q_max=10, exp_max=3, trials=0, seed=3401), t)
    for t in range(1000)
]


@lru_cache(maxsize=None)
def row_ideals():
    """The ideals whose row-derived values are checked: both exhaustive
    presets, RANDOM_DRAWS, CAMPAIGN_DRAWS and a parsed ideal, then the
    polarization of each, in that order."""
    bases = [*EXHAUSTIVE, *RANDOM_DRAWS, *CAMPAIGN_DRAWS, I("a^2*e, d^2*f^3, b*c*e, c^3")]
    return tuple(bases + [polarize(M) for M in bases])


def reference_lattice_codes(rows):
    """`lattice_codes` with a thermometer for every column: variable v's
    field has one bit per distinct nonzero exponent, and exponent level
    r sets the field's r low bits."""
    codes = [0] * len(rows)
    fields = []
    offset = 0
    for column in zip(*rows):
        levels = [0] + sorted(set(column) - {0})
        for k, e in enumerate(column):
            codes[k] |= ((1 << levels.index(e)) - 1) << offset
        width = len(levels) - 1
        fields.append((offset, (1 << width) - 1, levels))
        offset += width
    return tuple(codes), fields


def minimize_randomly(ideal, rng, field=RATIONAL, faces=None):
    """The Betti table left by cancelling, to exhaustion, an entry drawn
    uniformly from all invertible ones; the complex is validated after
    every cancellation and its index checked at the end."""
    cx = FreeComplex(ideal, field, faces)
    cx.validate()
    while pool := cx.all_invertible():
        cx.cancel(*pool[rng.randrange(len(pool))])
        cx.validate()
    cx.check_index()
    return cx.betti_table()


def by_degree(faces, q):
    """A face map grouped by degree: per degree 0..q, the `{mask: lcm
    code}` dict of its faces, in the map's order."""
    strata = tuple({} for _ in range(q + 1))
    for mask, code in faces.items():
        strata[mask.bit_count()][mask] = code
    return strata


@pytest.fixture
def lattice_builds(monkeypatch):
    """A list that gains one entry per `subset_lcms` call, i.e. per lattice built."""
    from monodom import _kernels

    calls = []
    kernel = _kernels.subset_lcms

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "subset_lcms", counted)
    return calls


@pytest.fixture
def strand_map_builds(monkeypatch):
    """A list that gains one entry per strand map built, i.e. per
    `TaylorComplex.strands` computed."""
    from monodom.monomials import memo
    from monodom.taylor import TaylorComplex

    calls = []
    build = TaylorComplex.strands.func

    def counted(lattice):
        calls.append(lattice)
        return build(lattice)

    prop = memo(counted)
    prop.__set_name__(TaylorComplex, "strands")
    monkeypatch.setattr(TaylorComplex, "strands", prop)
    return calls


def reference_groups(cx):
    """The subsets sharing each lcm code, read off the lattice's 2^q
    table: `{code: masks ascending}`, codes in order of their first mask."""
    groups = {}
    for mask, code in enumerate(cx.mdeg_codes):
        groups.setdefault(code, []).append(mask)
    return {code: tuple(group) for code, group in groups.items()}


# ---------------------------------------------------------------------------
# independent brute-force oracles, written directly from the definitions and
# kept free of the package's enumeration code


def brute_scarf_masks(ideal):
    """(masks, ranks) of the Scarf complex, by definition.

    The subsets whose lcm no other subset has, with lcms taken on the
    exponent rows, ordered by size, then mask; ranks counts them per
    size, up to the largest.
    """
    rows, q = ideal.exponent_rows, ideal.q
    lcms = [tuple(0 for _ in range(ideal.n))]
    for mask in range(1, 1 << q):
        low = mask & -mask
        row = rows[low.bit_length() - 1]
        lcms.append(tuple(map(max, lcms[mask ^ low], row)))
    seen = {}
    for lcm in lcms:
        seen[lcm] = seen.get(lcm, 0) + 1
    masks = sorted(
        (mask for mask, lcm in enumerate(lcms) if seen[lcm] == 1),
        key=lambda mask: (mask.bit_count(), mask),
    )
    ranks = [0] * (max(mask.bit_count() for mask in masks) + 1)
    for mask in masks:
        ranks[mask.bit_count()] += 1
    return tuple(masks), tuple(ranks)


def brute_minimal_nets(ideal):
    """All minimal transversals by scanning every variable subset."""
    n = ideal.n
    supports = [set(g.support()) for g in ideal.generators]
    nets = []
    for mask in range(1, 1 << n):
        X = {i for i in range(n) if mask >> i & 1}
        if all(s & X for s in supports):
            nets.append(frozenset(X))
    minimal = [X for X in nets if not any(Y < X for Y in nets)]
    return sorted((len(X), tuple(sorted(X))) for X in minimal)


def family_as_tuples(family):
    return sorted((net.cardinality, net.variables) for net in family)


def brute_is_dominant(rows, subset):
    """Direct definition: each member has a strictly-maximal variable."""
    n = len(rows[0])
    for i in subset:
        if not any(
            rows[i][v] > 0
            and all(rows[j][v] < rows[i][v] for j in subset if j != i)
            for v in range(n)
        ):
            return False
    return True


def brute_odom(ideal):
    """Literal maximum over dominant subsets with covering assignments."""
    rows = ideal.exponent_rows
    n = ideal.n
    best = 0
    for size in range(1, min(ideal.q, n) + 1):
        for D in combinations(range(ideal.q), size):
            lcm = [max(rows[g][v] for g in D) for v in range(n)]
            for assign in permutations(range(n), size):
                ok = all(
                    rows[D[j]][assign[j]] > 0
                    and all(
                        rows[g][assign[j]] < rows[D[j]][assign[j]]
                        for g in D
                        if g != D[j]
                    )
                    for j in range(size)
                )
                if not ok:
                    continue
                covered = True
                for g in range(ideal.q):
                    if all(rows[g][v] <= lcm[v] for v in range(n)):
                        if not any(
                            rows[g][assign[j]] >= lcm[assign[j]] for j in range(size)
                        ):
                            covered = False
                            break
                if covered:
                    best = max(best, size)
                    break
    return best


def dense_rank(matrix, p=None):
    """Rank of an integer list-of-lists matrix by dense Gaussian elimination:
    over Q when p is None (fraction-free, each reduced row divided by the
    gcd of its entries), over F_p otherwise."""
    rows = [list(row) if p is None else [x % p for x in row] for row in matrix]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        a = top[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if not f:
                continue
            if p is None:
                row = [a * x - f * y for x, y in zip(rows[r], top)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
            else:
                f = f * pow(a, p - 2, p) % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def brute_strand_betti(ideal, field):
    """{(h, lcm exponents): beta} from the unreduced strands, by definition.

    Every subset of generators gets its lcm, computed here from the
    exponent rows; the subsets sharing an lcm b form the strand of b,
    with the Taylor differential (drop the j-th member, 0-based, with
    sign (-1)^j) restricted to the strand, and beta_{h,b} is the
    dimension of its homology in degree h. Ranks are taken densely over
    Q, or over F_p when the field's characteristic p is nonzero.
    """
    rows, n, q = ideal.exponent_rows, ideal.n, ideal.q
    p = field.p or None
    strands = {}
    for mask in range(1 << q):
        members = [k for k in range(q) if mask >> k & 1]
        lcm = tuple(max((rows[k][v] for k in members), default=0) for v in range(n))
        strands.setdefault(lcm, {}).setdefault(len(members), []).append(members)
    out = {}
    for lcm, levels in strands.items():
        ranks = {}
        for h, cells in levels.items():
            below = {tuple(c): i for i, c in enumerate(levels.get(h - 1, []))}
            if not below:
                continue
            matrix = [[0] * len(cells) for _ in below]
            for j, cell in enumerate(cells):
                for pos in range(h):
                    face = tuple(cell[:pos] + cell[pos + 1:])
                    if face in below:
                        matrix[below[face]][j] = (-1) ** pos
            ranks[h] = dense_rank(matrix, p)
        for h, cells in levels.items():
            beta = len(cells) - ranks.get(h, 0) - ranks.get(h + 1, 0)
            if beta:
                out[(h, lcm)] = beta
    return out


# ---------------------------------------------------------------------------
# the plain dominance scan on exponent rows: every subset of each size in
# lexicographic order, each tested on its own, with variable masks. The
# library's walk runs on lattice codes; these stay on rows, so that the
# two agree only if the codes keep the order of every variable's exponents.


def reference_dominance_masks(exps, members):
    """Dominant-variable bitmask of each member, or None if one has none.

    A variable is dominant for a member when its exponent there is
    positive and strictly exceeds its exponent in every other member.
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


def reference_dominant_subsets(exps, sizes):
    """(members, variable masks) for each dominant subset, by size, then lexicographically."""
    for size in sizes:
        for members in combinations(range(len(exps)), size):
            masks = reference_dominance_masks(exps, members)
            if masks is not None:
                yield members, masks


def variable_masks(fields, masks):
    """The variables whose code field meets each code-bit mask, as variable masks."""
    if masks is None:
        return None
    return [
        sum(1 << v for v, (offset, bits, _) in enumerate(fields) if mask >> offset & bits)
        for mask in masks
    ]


def walked_dominant_subsets(exps, sizes):
    """What `_kernels.dominant_subsets` yields on the rows' codes, with variable masks."""
    codes, fields = lattice_codes(exps)
    for members, masks in _kernels.dominant_subsets(codes, sizes):
        yield members, variable_masks(fields, masks)


def reference_covering_assignment(
    ideal: MonomialIdeal, members: tuple[int, ...], masks: list[int]
) -> tuple[int, ...] | None:
    """Pick one dominant variable per member so the subset covers its lcm,
    on exponent rows and variable masks.

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


def reference_odom_by_dominance(ideal):
    """(odom, witness) from the plain scan, by descending size."""
    rows = ideal.exponent_rows
    occurring = sum(any(column) for column in zip(*rows))
    sizes = range(min(ideal.q, occurring), 0, -1)
    for members, masks in reference_dominant_subsets(rows, sizes):
        assignment = reference_covering_assignment(ideal, members, masks)
        if assignment is not None:
            return len(members), DominanceWitness(members, assignment)
    raise AssertionError("unreachable: every singleton generator qualifies")


def reference_transversals(edges, n_vars):
    """Minimal transversals by include/exclude depth-first search over the
    variables, most-hit first, each candidate then tested for minimality;
    ordered by size, stably in search order."""
    degree = [sum(e >> v & 1 for e in edges) for v in range(n_vars)]
    order = [v for v in sorted(range(n_vars), key=lambda v: (-degree[v], v)) if degree[v]]
    k = len(order)
    # suffix_cover[i] = union of variables order[i:], for the feasibility prune
    suffix_cover = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | (1 << order[i])
    found = []
    stack = [(0, 0, list(edges))]
    while stack:
        i, chosen, uncovered = stack.pop()
        if not uncovered:
            found.append(chosen)
            continue
        hit = 0
        for e in uncovered:
            hit |= e
        while i < k and not hit >> order[i] & 1:
            i += 1
        if i == k:
            continue
        cover = suffix_cover[i]
        if not all(e & cover for e in uncovered):
            continue
        bit = 1 << order[i]
        stack.append((i + 1, chosen, uncovered))
        stack.append((i + 1, chosen | bit, [e for e in uncovered if not e & bit]))

    def minimal(chosen):
        private = 0
        for e in edges:
            hit = e & chosen
            if not hit & (hit - 1):
                private |= hit
        return private == chosen

    return sorted((c for c in found if minimal(c)), key=int.bit_count)


# ---------------------------------------------------------------------------
# constructions from the paper's proofs, kept to check the library's
# answers against them


def pure_power_extension(ideal, variables):
    """Extend the generators by x_j^(a_j + 1) for every unassigned variable.

    `a` is the exponent vector of lcm(G). Returns the extended ideal (in
    the same ring) and the symbol map: old subset masks map to new ones
    by reindexing old members and appending every new pure power. The
    extension realizes a full-size dominant set whenever the input
    carried a lemma-satisfying dominant set on `variables`.
    """
    chosen = set(variables)
    global_lcm = ideal.lcm().exponents
    tbl = ideal.table
    extra = []
    for v in range(ideal.n):
        if v not in chosen:
            exps = [0] * ideal.n
            exps[v] = global_lcm[v] + 1
            extra.append(Monomial(tbl, tuple(exps)))
    extended = MonomialIdeal(tbl, ideal.generators + tuple(extra))
    old_to_new = {
        i: extended.generators.index(g) for i, g in enumerate(ideal.generators)
    }
    extra_mask = 0
    for m in extra:
        extra_mask |= 1 << extended.generators.index(m)

    mask_map = {}
    for mask in range(1 << ideal.q):
        new_mask = extra_mask
        rest = mask
        while rest:
            low = rest & -rest
            new_mask |= 1 << old_to_new[low.bit_length() - 1]
            rest ^= low
        mask_map[mask] = new_mask
    return extended, mask_map


def dominant_set_from_net(ideal, X):
    """Extract a dominant subset realizing a minimal net's cardinality.

    X is a Net or a list of variable names. For X = {x_{i_1} < ... <
    x_{i_q}} a minimal net, pass k = 1..q:

      G_k = generators divisible by x_{i_k} but by none of the earlier
            thresholds x_{i_1}^{e_1}, ..., x_{i_{k-1}}^{e_{k-1}} nor any
            later plain variable x_{i_{k+1}}, ..., x_{i_q};
      e_k = least exponent of x_{i_k} over G_k, realized by d_k
            (least canonical index on ties).

    The result is dominant with d_k dominant in x_{i_k}, and its lcm's
    top powers cover every generator dividing that lcm.
    """
    if isinstance(X, Net):
        variables = X.variables
    else:
        variables = tuple(sorted({ideal.table.index(v) for v in X}))
    if not _is_minimal_net(ideal, variables):
        raise ValueError(
            f"{tuple(ideal.table.names[v] for v in variables)} is not a minimal net"
        )
    rows = ideal.exponent_rows
    qx = len(variables)
    thresholds = []
    members = []
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
    )
    _recheck_witness(ideal, witness)
    return witness


def _is_minimal_net(ideal, variables):
    if not is_net(ideal, variables):
        return False
    return all(
        not is_net(ideal, tuple(v for v in variables if v != drop))
        for drop in variables
    )


def _recheck_witness(ideal, witness):
    """Direct definition checks on a constructed witness."""
    ok, _ = is_dominant_set(ideal, witness.members)
    if not ok:
        raise InternalInvariantError("constructed set is not dominant")
    rows = ideal.exponent_rows
    lcm_exps = tuple(map(max, zip(*(rows[g] for g in witness.members))))
    for g, v in zip(witness.members, witness.variables):
        if rows[g][v] != lcm_exps[v]:
            raise InternalInvariantError("witness exponent does not match its lcm")
    member_set = set(witness.members)
    for g in range(ideal.q):
        if g in member_set:
            continue
        if not all(a <= b for a, b in zip(rows[g], lcm_exps)):
            continue
        if not any(rows[g][v] >= lcm_exps[v] for v in witness.variables):
            raise InternalInvariantError(
                "a generator dividing the witness lcm escapes every top power"
            )


# ---------------------------------------------------------------------------
# minimalization on Monomials, as it was before the row path: dedupe in
# order of first appearance, drop the rows some other row divides, and
# hand the survivors to the validating MonomialIdeal constructor, which
# checks them all again and sorts them


def reference_minimalize(monomials):
    if not monomials:
        raise InvalidIdealError("cannot build an ideal from no monomials")
    tbl = monomials[0].table
    distinct = {}  # exponents -> first monomial with them
    for m in monomials:
        if m.table != tbl:
            raise TableMismatchError("monomials from different rings")
        distinct.setdefault(m.exponents, m)
    _check_pairwise_cost(len(distinct), tbl.n)
    divisors = _kernels.first_divisors(list(distinct))
    kept = [m for m, j in zip(distinct.values(), divisors) if j < 0]
    if any(m.is_unit for m in kept):
        raise InvalidIdealError("input generates the unit ideal")
    return MonomialIdeal(tbl, tuple(kept))


# ---------------------------------------------------------------------------
# random draws as they were before the master stream was memoized in
# blocks: trial t runs its own splitmix64 stream from state seed + t * gamma

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


class ReferenceSplitMix64:
    """The splitmix64 stream: state += gamma, output = mix(state)."""

    def __init__(self, state):
        self.state = state & M64

    def below(self, bound):
        """The next output of the stream, reduced mod `bound`."""
        z = self.state = (self.state + GAMMA) & M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        return (z ^ (z >> 31)) % bound

    def next_u64(self):
        return self.below(1 << 64)


def reference_draw(params, t):
    """The ambient n, the exponent rows trial t draws, and how many of
    them had a coordinate forced after 16 all-zero draws."""
    below = ReferenceSplitMix64(params.seed + t * GAMMA).below
    n = 1 + below(params.n_max)
    qq = 1 + below(params.q_max)
    rows = []
    forced = 0
    for _ in range(qq):
        for _ in range(16):
            row = tuple(below(params.exp_max + 1) for _ in range(n))
            if any(row):
                break
        else:
            exps = [0] * n
            exps[below(n)] = 1 + below(params.exp_max)
            row = tuple(exps)
            forced += 1
        rows.append(row)
    return n, rows, forced


def reference_random_ideal(params, t):
    n, rows, _ = reference_draw(params, t)
    return _minimal_ideal(VariableTable(tuple(f"x{i}" for i in range(1, n + 1))), rows)
