"""Executable theorem suite over a single ideal, plus seeded fuzzing.

Every structural statement the library relies on is rechecked per ideal:
the codim <= odom <= pd chain, the pd = n / pd = 1 equivalences, the
binomial and 2^odom Betti bounds, the Scarf and Taylor-minimality
characterizations, polarization invariance of odom, agreement of the two
odom routes, and engine-vs-oracle equality of Betti tables. A failed
check is reported by name, never swallowed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from itertools import chain, count, islice, repeat
from itertools import product as iter_product
from math import comb
from operator import le
from typing import Iterator, NamedTuple

from . import _kernels
from .dominance import DOMINANCE_GUARD, DominanceWitness, odom_by_dominance
from .errors import FuzzFailure, GuardExceeded, InvalidParameterError
from .monomials import Monomial, MonomialIdeal, VariableTable, polarize
from .monomials import _canonical_ideal, _minimal_ideal
from .nets import MinimalNetFamily, Net, minimal_nets
from .resolution import (
    RATIONAL,
    BettiTable,
    betti_oracle,
    is_complete_intersection,
    minimize,
)
from .taylor import (
    ScarfBasis,
    TaylorComplex,
    bit_variables,
    build_taylor,
    generator_codes,
    members_of,
    scarf_basis,
)

# ---------------------------------------------------------------------------
# splitmix64: chosen because it is bit-exactly specifiable in a few lines


_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 512  # master outputs per memoized block


def _splitmix64(state: int, length: int) -> list[int]:
    """The first `length` outputs of the splitmix64 stream at `state`: the
    stream adds gamma to its state, then outputs the new state's mix."""
    out = []
    for z in range(state + _GAMMA, state + (length + 1) * _GAMMA, _GAMMA):
        z &= _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append(z ^ (z >> 31))
    return out


@lru_cache(maxsize=8)  # a block holds _BLOCK ints, about 20 kB
def _master_block(seed: int, block: int) -> list[int]:
    """Outputs block * _BLOCK + 1 through (block + 1) * _BLOCK of the
    master stream of `seed` (taken mod 2^64), which starts at state seed.
    Trials read these blocks, so consecutive trials share their outputs
    and a campaign mixes each output once."""
    return _splitmix64((seed + block * _BLOCK * _GAMMA) & _M64, _BLOCK)


@dataclass(frozen=True)
class FuzzParams:
    n_max: int
    q_max: int
    exp_max: int
    trials: int
    seed: int = 0
    exhaustive: bool = False

    def __post_init__(self):
        if self.n_max < 1 or self.q_max < 1 or self.exp_max < 1:
            raise InvalidParameterError("n_max, q_max and exp_max must all be >= 1")
        if self.trials < 0:
            raise InvalidParameterError("trials must be >= 0")


DRAW_GUARD = 10_000  # exponent entries, n_max * q_max, one random draw may build


def random_ideal(params: FuzzParams, trial_index: int) -> MonomialIdeal:
    """Deterministic ideal for (seed, trial_index).

    The seed is taken mod 2^64. Trial t reads the seed's master
    splitmix64 stream, which starts at state seed, from its output t + 1
    on, as a stream started at state seed + t * gamma would; it reads the
    outputs from `_master_block`'s memo, block t // _BLOCK first.
    Draws: n in [1, n_max], q' in [1, q_max], then q' exponent vectors
    uniform in [0, exp_max]^n; all-zero draws are retried a bounded
    number of times before one coordinate is forced positive. The result
    is the ideal those vectors generate, built by `minimalize`'s row pass
    without a Monomial for the vectors it drops. Parameters that let one
    draw build more than DRAW_GUARD exponent entries raise GuardExceeded
    before anything is drawn.
    """
    entries = params.n_max * params.q_max
    if entries > DRAW_GUARD:
        raise GuardExceeded(
            f"random draw of up to {params.n_max} x {params.q_max} = {entries} "
            f"exponent entries exceeds the guard of {DRAW_GUARD}"
        )
    seed = params.seed & _M64
    block, offset = divmod(trial_index, _BLOCK)
    stream = chain(
        islice(_master_block(seed, block), offset, None),
        chain.from_iterable(map(_master_block, repeat(seed), count(block + 1))),
    )
    draw = stream.__next__
    n = 1 + draw() % params.n_max
    qq = 1 + draw() % params.q_max
    rows = []
    reduce = (params.exp_max + 1).__rmod__
    for _ in range(qq):
        for _ in range(16):
            row = tuple(map(reduce, islice(stream, n)))
            if any(row):
                break
        else:
            forced = [0] * n
            # the right side, the exponent, is drawn before the position
            forced[draw() % n] = 1 + draw() % params.exp_max
            row = tuple(forced)
        rows.append(row)
    return _minimal_ideal(_draw_table(n), rows)


@lru_cache(maxsize=16)  # a table may hold up to DRAW_GUARD names
def _draw_table(n: int) -> VariableTable:
    """The table x1..xn of a random draw or an exhaustive pool; tables are
    frozen, so ideals of the same n share one."""
    return VariableTable(tuple(f"x{i}" for i in range(1, n + 1)))


EXHAUSTIVE_GUARD = 100_000  # exponent vectors in one ambient n's pool
EXHAUSTIVE_WALK_GUARD = 1_000_000  # subsets of the pools the walk may reach


def exhaustive_ideals(params: FuzzParams) -> Iterator[MonomialIdeal]:
    """Every minimal monomial ideal with n <= n_max, exponents <= exp_max,
    and at most q_max generators, enumerated deterministically per ambient n.

    Each n holds its whole pool of (exp_max + 1)^n - 1 nonzero exponent
    vectors in memory, so a pool past EXHAUSTIVE_GUARD raises
    GuardExceeded before the first ideal is built. The walk yields at
    most the sum over n of C(pool_n, j) for 1 <= j <= q_max, and a sum
    past EXHAUSTIVE_WALK_GUARD raises GuardExceeded before any pool is
    built; the sum stops as soon as it passes the guard. Each antichain's
    rows come in pool order, descending, so `_canonical_ideal` builds it
    without the constructor's checks.
    """
    size = 1
    for _ in range(params.n_max):  # stops past the guard, however large n_max
        size *= params.exp_max + 1
        if size - 1 > EXHAUSTIVE_GUARD:
            raise GuardExceeded(
                f"exhaustive pool of {params.exp_max + 1}^{params.n_max} - 1 "
                f"exponent vectors exceeds the guard of {EXHAUSTIVE_GUARD}"
            )
    subsets = 0
    for n in range(1, params.n_max + 1):
        pool = (params.exp_max + 1) ** n - 1
        binom = 1
        for j in range(1, min(params.q_max, pool) + 1):
            binom = binom * (pool - j + 1) // j
            subsets += binom
            if subsets > EXHAUSTIVE_WALK_GUARD:
                raise GuardExceeded(
                    f"exhaustive walk over at least {subsets} subsets of at most "
                    f"{params.q_max} exponent vectors exceeds the guard of "
                    f"{EXHAUSTIVE_WALK_GUARD}"
                )
    for n in range(1, params.n_max + 1):
        tbl = _draw_table(n)
        pool = sorted(
            (
                exps
                for exps in iter_product(range(params.exp_max + 1), repeat=n)
                if any(exps)
            ),
            reverse=True,
        )
        # depth first over the antichains: `chosen` holds pool indices in
        # ascending order, so their vectors are in descending lex order
        chosen: list[int] = []
        i = 0
        while chosen or i < len(pool):
            if i == len(pool):
                i = chosen.pop() + 1
                continue
            # chosen vectors come earlier in descending lex order, so none
            # of them can divide pool[i]; only the converse can hold
            if not any(all(map(le, pool[i], pool[j])) for j in chosen):
                chosen.append(i)
                yield _canonical_ideal(tbl, [pool[j] for j in chosen])
                if len(chosen) == params.q_max:
                    chosen.pop()
            i += 1


# ---------------------------------------------------------------------------
# per-ideal report


class CheckResult(NamedTuple):
    """A theorem check's verdict. Its `detail`, the numbers it compared,
    is formatted from `template` and `values` only when read: only the
    text report prints it. A report makes 16 of these, so the record is
    a tuple, which builds in half the time of a frozen dataclass."""

    name: str
    status: str  # pass | fail | vacuous
    template: str = ""
    values: tuple = ()

    @property
    def detail(self) -> str:
        return self.template.format(*self.values)


def _both(name: str, ok: bool, template: str, *values) -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", template, values)


def _implication(
    name: str, antecedent: bool, consequent: bool, template: str, *values
) -> CheckResult:
    if not antecedent:
        return CheckResult(name, "vacuous", template, values)
    return CheckResult(name, "pass" if consequent else "fail", template, values)


class Analysis:
    """Every invariant of the quotient S/M over `field`, each computed once.

    Each stage calls one public function the first time it is read and
    keeps the result, so a caller pays for, and trips the guards of, only
    the stages it reads. The stages that read the Taylor lattice share
    one: `build_taylor` caches it weakly on the ideal, and the first
    Betti table or Scarf basis kept here holds it for the object's
    lifetime, so minimize, the oracle and the Scarf basis all count on
    its codes. Only the oracle and the Scarf basis read its 2^q table;
    minimize takes its lcm codes from the Lyubeznik walk. The checks
    read only counts and ranks, so `check_report` neither spells nor
    decodes a code. Printing a table's graded and multigraded numbers or
    a Scarf symbol's multidegree spells its codes through the lattice,
    each distinct code once; only the library values `multigraded` and
    `mdeg` decode one to a `Monomial`.

    When the polarization has the ideal's own exponent rows (every
    exponent is 0 or 1 and every variable occurs), it only renames x to
    x_1, so its net family and its odom are the base stages `nets_base`
    and `dominance`, read rather than recomputed. Net indices coincide;
    names still come from the polarized table.
    """

    def __init__(self, ideal: MonomialIdeal, field=RATIONAL):
        self.ideal = ideal
        self.field = field
        self.field_name = field.name
        self.n, self.q = ideal.n, ideal.q

    # -- stages

    @cached_property
    def taylor(self) -> TaylorComplex:
        return build_taylor(self.ideal)

    @cached_property
    def polarized(self) -> MonomialIdeal:
        return polarize(self.ideal)

    @cached_property
    def dominance(self) -> tuple[int, DominanceWitness]:
        return odom_by_dominance(self.ideal)

    @cached_property
    def nets_base(self) -> MinimalNetFamily:
        return minimal_nets(self.ideal)

    @cached_property
    def nets_polarized(self) -> MinimalNetFamily:
        pol = self.polarized  # first, so that POLARIZE_GUARD trips first
        if pol.exponent_rows == self.ideal.exponent_rows:
            return self.nets_base
        return minimal_nets(pol)

    @cached_property
    def betti(self) -> BettiTable:
        # Cancels on the Lyubeznik subcomplex, which gives the same table
        # from fewer symbols; only the table is kept, since its minimized
        # complex is not the one `resolution` prints.
        return minimize(self.ideal, self.field, start="lyubeznik")[1]

    @cached_property
    def betti_by_oracle(self) -> BettiTable:
        return betti_oracle(self.ideal, self.field)

    @cached_property
    def scarf_basis(self) -> ScarfBasis:
        return scarf_basis(self.ideal)

    @cached_property
    def complete_intersection(self) -> bool:
        return is_complete_intersection(self.ideal)

    @cached_property
    def odom_polarized(self) -> int:
        pol = self.polarized
        if pol.exponent_rows == self.ideal.exponent_rows:
            return self.dominance[0]
        return odom_by_dominance(pol)[0]

    # -- invariants read off the stages

    @property
    def odom_dominance(self) -> int:
        return self.dominance[0]

    @property
    def dominance_witness(self) -> DominanceWitness:
        return self.dominance[1]

    odom = odom_dominance

    @property
    def odom_nets(self) -> int:
        return self.nets_polarized.max_card  # as odom_by_nets

    @property
    def net_witness(self) -> Net:
        return self.nets_polarized.widest

    @property
    def codim(self) -> int:
        return self.nets_base.min_card

    @property
    def pd(self) -> int:
        return self.betti.pd

    @property
    def scarf(self) -> bool:
        return self.scarf_basis.ranks == self.betti.total

    @property
    def taylor_minimal(self) -> bool:
        # the Taylor resolution is minimal when nothing cancels: 2^q symbols survive
        return self.betti.sum == 2**self.q

    @property
    def cohen_macaulay(self) -> bool:
        return self.codim == self.pd

    # -- theorem checks

    @cached_property
    def checks(self) -> list[CheckResult]:
        n, q = self.n, self.q
        cod, odom, pd, betti = self.codim, self.odom, self.pd, self.betti
        total, bsum = betti.total, betti.sum
        pol_cards = self.nets_polarized.cardinalities()
        same_card = min(pol_cards) == max(pol_cards)
        return [
            _both(
                "odom-routes-agree",
                self.odom_dominance == self.odom_nets,
                "dominance {} vs nets {}", self.odom_dominance, self.odom_nets,
            ),
            _both(
                "codim-le-odom-le-pd",
                cod <= odom <= pd,
                "codim {}, odom {}, pd {}", cod, odom, pd,
            ),
            _both(
                "pd-n-iff-odom-n",
                (pd == n) == (odom == n),
                "pd {}, odom {}, n {}", pd, odom, n,
            ),
            _both(
                "pd-1-iff-odom-1",
                (pd == 1) == (odom == 1),
                "pd {}, odom {}", pd, odom,
            ),
            _implication(
                "odom-n-minus-1-forces-pd",
                odom == n - 1,
                pd == n - 1,
                "odom {}, pd {}, n {}", odom, pd, n,
            ),
            _implication(
                "odom-q-minus-1-forces-pd",
                odom == q - 1,
                pd == q - 1,
                "odom {}, pd {}, q {}", odom, pd, q,
            ),
            _implication(
                "scarf-forces-pd-eq-odom",
                self.scarf,
                pd == odom,
                "pd {}, odom {}", pd, odom,
            ),
            _both(
                "taylor-minimal-iff-odom-q",
                self.taylor_minimal == (odom == q),
                "taylor_minimal {}, odom {}, q {}", self.taylor_minimal, odom, q,
            ),
            _both(
                "betti-binomial-odom",
                all(betti.beta(r) >= comb(odom, r) for r in range(pd + 1)),
                "betti {} vs C({}, r)", total, odom,
            ),
            _both(
                "betti-binomial-pd",
                all(betti.beta(r) >= comb(pd, r) for r in range(pd + 1)),
                "betti {} vs C({}, r)", total, pd,
            ),
            _implication(
                "betti-sum-two-pow-odom",
                odom > cod,
                bsum >= 2**odom and 2**odom > 2**cod + 2 ** (cod - 1),
                "sum {}, odom {}, codim {}", bsum, odom, cod,
            ),
            _implication(
                "betti-sum-non-ci",
                not self.complete_intersection,
                bsum >= 2**cod + 2 ** (cod - 1),
                "sum {}, codim {}", bsum, cod,
            ),
            _implication(
                "three-variables",
                n == 3,
                pd == odom and self.cohen_macaulay == same_card,
                "pd {}, odom {}, CM {}, net cards {}", pd, odom, self.cohen_macaulay, pol_cards,
            ),
            _implication(
                "scarf-cm-iff-equal-net-cards",
                self.scarf,
                self.cohen_macaulay == same_card,
                "CM {}, net cards {}", self.cohen_macaulay, pol_cards,
            ),
            _both(
                "odom-polarization-invariant",
                odom == self.odom_polarized,
                "odom {}, odom of polarization {}", odom, self.odom_polarized,
            ),
            # the two tables count on codes of one lattice, which encode
            # multidegrees exactly
            _both(
                "betti-engine-vs-oracle",
                betti.counts == self.betti_by_oracle.counts,
                "engine {} vs oracle {}", total, self.betti_by_oracle.total,
            ),
        ]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failed_checks(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "fail"]


# The order check_report reads the stages in, so that of several guards an
# ideal exceeds, the one reported is always the same. `taylor` comes first,
# so its guard trips first and the dominance route reuses its codes.
_REPORT_STAGES = (
    "taylor",
    "polarized",
    "dominance",
    "nets_base",
    "nets_polarized",
    "betti",
    "betti_by_oracle",
    "scarf_basis",
    "complete_intersection",
    "odom_polarized",
    "checks",
)


def check_report(ideal: MonomialIdeal, field=RATIONAL) -> Analysis:
    """Compute every invariant of the quotient and evaluate all checks."""
    report = Analysis(ideal, field)
    for stage in _REPORT_STAGES:
        getattr(report, stage)
    return report


# ---------------------------------------------------------------------------
# fuzz driver


@dataclass
class FuzzSummary:
    params: FuzzParams
    ideal_count: int
    check_tally: dict[str, dict[str, int]]
    gap_histogram: dict[int, int]  # pd - odom occurrences

    def to_dict(self) -> dict:
        params = asdict(self.params)
        if self.params.exhaustive:  # the walk reads neither
            del params["trials"], params["seed"]
        return {
            "params": params,
            "ideals": self.ideal_count,
            "checks": {
                name: dict(sorted(tally.items()))
                for name, tally in sorted(self.check_tally.items())
            },
            "gap_histogram": {str(k): v for k, v in sorted(self.gap_histogram.items())},
        }


def fuzz(params: FuzzParams, field=RATIONAL) -> FuzzSummary:
    """Run check_report on each generated ideal; abort on the first failure."""
    tally: dict[str, dict[str, int]] = {}
    gaps: dict[int, int] = {}
    count = 0

    if params.exhaustive:
        stream = ((f"exhaustive#{i}", ideal) for i, ideal in
                  enumerate(exhaustive_ideals(params)))
    else:
        stream = (
            (f"seed {params.seed}, trial {t}", random_ideal(params, t))
            for t in range(params.trials)
        )

    for origin, ideal in stream:
        report = check_report(ideal, field)
        for c in report.checks:
            counts = tally.setdefault(c.name, {})
            counts[c.status] = counts.get(c.status, 0) + 1
        gap = report.pd - report.odom
        gaps[gap] = gaps.get(gap, 0) + 1
        count += 1
        if not report.ok:
            failed = ", ".join(c.name for c in report.failed_checks())
            raise FuzzFailure(
                f"theorem check(s) failed: {failed}",
                ideal.render(),
                origin,
            )
    return FuzzSummary(params, count, tally, gaps)


# ---------------------------------------------------------------------------
# basis-element existence machinery: a dominant subset of size k whose
# members carry the global top exponents of their assigned variables, and
# whose top powers divide every generator, forces a surviving basis element
# in homological degree k whose multidegree matches those exponents exactly


@dataclass(frozen=True)
class LemmaInstance:
    """One scanned (dominant subset, variable assignment) pair.

    `satisfied` records whether both hypotheses hold: each member attains
    the global lcm exponent of its assigned variable, and every generator
    is divisible by some assigned top power. For satisfied instances
    `witness_mdeg` is a multidegree with a positive Betti number in
    homological degree len(members), matching the predicted pattern;
    None there is a refutation.
    """

    members: tuple[int, ...]
    variables: tuple[int, ...]
    satisfied: bool
    witness_mdeg: Monomial | None


def check_lemma_hypotheses(ideal: MonomialIdeal, field=RATIONAL) -> list[LemmaInstance]:
    """Scan dominant subsets for the existence hypotheses and their witnesses.

    Hypotheses, for members d_1..d_k assigned distinct variables
    x_{i_1}..x_{i_k} with a = exponents of lcm(G):
      (i) d_j is dominant in x_{i_j} within the subset and carries the
          full exponent a_{i_j};
      (ii) every generator is divisible by some x_{i_j}^{a_{i_j}}.
    For every satisfied instance the witness is the first multidegree m
    of the oracle's table with beta_{k,m} >= 1 and m matching a_{i_j}
    exactly on the assigned variables. The lemma also bounds m by a
    elsewhere, which every lattice multidegree is, as a divisor of
    lcm(G). On lattice codes the match is `code & tops == tops`, tops
    being the top bits of the assigned variables' fields; only the
    witness's code is decoded.
    """
    if ideal.q > DOMINANCE_GUARD:
        raise GuardExceeded(
            f"lemma scan over 2^{ideal.q} subsets exceeds the q <= {DOMINANCE_GUARD} guard"
        )
    betti = betti_oracle(ideal, field)
    by_degree: dict[int, list[int]] = {}
    for h, code in betti.counts:
        by_degree.setdefault(h, []).append(code)

    codes, fields = generator_codes(ideal)
    variable, highs = bit_variables(fields)
    out: list[LemmaInstance] = []
    sizes = range(1, min(ideal.q, ideal.n) + 1)
    for members, masks in _kernels.dominant_subsets(codes, sizes):
        # a member's dominant bits that are the top bit of their field: the
        # dominant variables in which it carries the global lcm exponent
        # (a member with none leaves the product, and the subset, empty)
        choices = [members_of(mask & highs) for mask in masks]
        for picked in iter_product(*choices):
            tops = 0
            for t in picked:
                tops |= 1 << t
            assignment = tuple(variable[t] for t in picked)
            satisfied = all(code & tops for code in codes)
            witness = None
            if satisfied:
                for code in by_degree.get(len(members), ()):
                    if code & tops == tops:
                        witness = betti.lattice.monomial(code)
                        break
            out.append(LemmaInstance(members, assignment, satisfied, witness))
    return out
