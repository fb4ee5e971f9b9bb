"""Joint rate and threshold optimization under an outage constraint.

The problem: maximize HARQ throughput eta = (1 - P_out)/sum(rho_i P_i)
over per-round rates drawn from a unit grid and over detection thresholds,
subject to P_out <= epsilon, a total-units budget, and box bounds. The
rate subproblem is solved exactly at fixed thresholds by one scan of the
grid: the feasible allocation with the largest eta wins. The threshold
subproblem runs a coordinate pattern search on eta at fixed rates;
alternating the two yields a monotone objective.

The rate scan evaluates admissible unit allocations in one vectorized
pass. A compressed recursion over (round, sum units, sum units squared)
cannot represent the objective exactly: the missed-ACK memory inside P_i
and the stop-hazard cross term inside P_out both depend on the whole
prefix-failure path, not just the current sums. The scan skips only paths
that can never be feasible. The outage 1 - inner (1 - F_M) has inner <= 1
at any thresholds, so it is never below F_M; in floats, where 1 - F_M is
rounded, it can sit at most 2^-54 below. A path with F_M above epsilon +
2^-53 therefore misses epsilon at every threshold, and each scan visits
only the paths with F_M <= epsilon + 2^-53.

The grid is held as the enumeration's prefix tree: level k holds each
admissible (k + 1)-round prefix once, with its last rate and its Gaussian
failure F_k, so Q is evaluated once per distinct prefix (61, 1,891 and
39,711 interior nodes on the default four-round 64-unit grid) rather than
once per path and round. The running sums are added in round order, as in
mi_model.p_fail_gaussian, and go through the same Q-of-sums, so the bits
are the same. The path budget is checked on per-prefix counts before any
node is built. The interior levels are then built whole from their
parents' counts of admissible last values. The leaf level, the bulk of
the tree (635,376 leaves), is never built. A leaf's F_M depends only on
its parent's running sums and its own rate, so parents with the same
child count and the same bits of those sums form one class, and the leaf
table holds F_M once per child of each class (5,771 classes and 97,245
entries on the default grid). The classes are keyed on the float bits,
not on the integer unit sums: on a grid whose unit rate is not dyadic,
two orderings of one multiset of rates can have round-order sums, and so
F_M, that differ in their last bits. Each class is reduced to the
smallest and largest F_M of its children and to its first and last kept
child (F_M <= epsilon + 2^-53) and their largest F_M, which its parents
gather. One stream so gives two trees: the whole tree, its interior
levels and those per-node extremes, and the kept tree, the prefixes of
the kept leaves, which reads its leaves from the table. On the default
grid at 3 dB a CLI optimize peaks 6.5 MiB above its imports, where
holding the whole leaf level took 17 MiB.

The kept tree is held as its blocks: consecutive level-0 subtrees with at
most _BLOCK_LEAVES leaves together (a larger subtree forms a block
alone), each a tree of its own made of views into the levels. A node's
leaves are its children from its first kept child to its last: leaf i has
the unit count of its first leaf plus i and the table entry i places
after it. A child in that range that is not kept has F_M above epsilon +
2^-53, so its outage misses epsilon. The whole-grid search has no
formulas of its own. Each round's term of the outage, occurrence and cost
recursions in harq_analysis depends on one prefix only, so a block runs
them level by level: every node forms its term once and np.repeat spreads
it to its children. The last round's outage, cost and throughput are
harq_analysis's steps (_outage_step, _cost_step, _throughput_step), which
the recursions end with and the node test, the node bound and the leaves
read call in the same way.

The rate scan (best_feasible_allocation and the alternating loop's rate
step) runs the recursions on the kept tree's interior levels only and
stops on the (M - 1)-round prefixes, the nodes of the last interior
level, with the outage's running term inner, the cost C of rounds
1..M-1 and the occurrence P_M of round M. Each block stores, per such
node, the smallest and largest F_M among its kept children, where its
leaves lie in the table and the rates of its first and last leaf
(_Nodes). The outage step is least at one of the two F_M extremes,
exactly, so a node passes iff one of its leaves meets epsilon. The
throughput step at the node's least outage and least cost step (at its
first or last rate) then bounds every leaf with 1 - outage >= 0, in
floats, with no slack; the steps' docstrings say why. The incumbent, a throughput actually read, starts in
each block from the leaves of its node of largest bound, and only the
leaves below the feasible nodes whose bound reaches the incumbent are
read: their nodes' values are gathered, in chunks of at most
_BLOCK_LEAVES leaves, and finished by the steps. On the default grid
that is 1.6% of the kept leaves over the fixed_vs_variable sweep at 3 dB
and under 0.1% of them for optimize at 10 dB. A leaf tied with the
optimum has a bound of at least the optimum, so it is always read. Each
block's leaves of largest throughput are walked up to their rates, and
the blocks' candidates are merged by the rule one pass over all leaves
would apply (largest throughput, then fewer units, then path order), so
the result is that pass's, bit for bit. The feasibility bootstrap runs
the same node test.

One small LRU cache, keyed by the frozen grid and downlink specs and by
epsilon, holds what one stream forms: the whole tree and the kept tree's
blocks, so the partition is computed once per tree, and a solve and every
outage floor read from its errors form the leaf table once. A solve at
another epsilon streams again, and so does the public
min_achievable_outage, which reads the whole tree of a stream that keeps
no leaf (epsilon -inf). A node stays in the kept tree when one of its
children does, counted bottom-up on the interior levels, and an interior
level whose every node stays is kept as built, not copied. The outage
floor that an InfeasibleError reports (or min_achievable_outage) is the
node test's pass (_node_outage) on the whole tree, made only when it is
read: the smallest of its nodes' least outages is the smallest over every
leaf, exactly. The threshold search keeps the error rates of its current
thresholds, and each probe forms only those of the threshold it steps and
evaluates one rate vector through the same recursions, outage first and
cost only when the probe meets epsilon.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import feedback_model, harq_analysis, mi_model
from .errors import GridError, InfeasibleError

_log = logging.getLogger(__name__)

_PATH_BUDGET = 20_000_000
# leaves per block of a kept tree's evaluation; the default grid's kept
# tree at 3 dB (67,254 leaves) stays one block
_BLOCK_LEAVES = 1 << 17
# leaf table entries per Gaussian Q call: the build then holds no array
# of the table's size but the table, and its temporaries (64 KiB each)
# stay under glibc's mmap threshold, so each call reuses the last one's
# heap pages
_Q_LEAVES = 1 << 13
_SEARCH_STEP = 0.2  # first step of the threshold pattern search
_SEARCH_TOL = 1e-6  # the pattern search stops once its step falls below this
_ALT_MAX_ITERS = 50
_ALT_TOL = 1e-6  # alternating loop stops on a smaller objective gain
# computed outage is at least F_M minus 2^-54 (see the module docstring)
_ROUNDING_SLACK = 2.0 ** -53
# box of every detection threshold the optimizer searches
ALPHA_BOX = (0.0, 3.0)


@dataclass(frozen=True)
class RateGrid:
    """Unit discretization of the rate box: rho_k = n_k * unit_rho."""

    unit_rho: float
    min_units: int
    max_units: int
    units_total: int

    def __post_init__(self):
        if not (math.isfinite(self.unit_rho) and self.unit_rho > 0.0):
            raise ValueError("RateGrid: unit_rho must be positive")
        if not 1 <= self.min_units <= self.max_units:
            raise ValueError("RateGrid: need 1 <= min_units <= max_units")
        if self.units_total < self.min_units:
            raise ValueError("RateGrid: budget below min_units")

    @classmethod
    def for_codeword(cls, n_b: int, n_m: int, units_total: int, min_units: int = 1,
                     max_units: int | None = None) -> RateGrid:
        """Grid whose full budget spends the whole mother codeword:
        unit_rho = n_m/(units_total n_b)."""
        if n_b < 1 or n_m < 1 or units_total < 1:
            raise ValueError("RateGrid: sizes must be positive")
        if max_units is None:
            max_units = units_total
        return cls(
            unit_rho=n_m / (units_total * n_b),
            min_units=min_units,
            max_units=max_units,
            units_total=units_total,
        )


@dataclass(frozen=True)
class Solution:
    """Alternating-optimization result with its per-iteration objective."""

    policy: harq_analysis.HarqPolicy
    breakdown: harq_analysis.PerformanceBreakdown
    converged: bool
    feasible: bool
    trace: tuple[float, ...]

    @property
    def iterations(self) -> int:
        """Alternating iterations run: one objective per iteration in trace."""
        return len(self.trace)


make_rate_grid = RateGrid.for_codeword


def _prefix_tree(grid: RateGrid, m: int) -> tuple[tuple[np.ndarray, ...],
                                                   tuple[np.ndarray, ...]]:
    """All unit allocations within bounds and budget, as a tree of prefixes.

    Level k lists the admissible (k + 1)-round prefixes in lexicographic
    order; a prefix is admissible when the remaining rounds can still take
    min_units each. Returns (units, counts): units[k] holds the last unit
    count of each level-k prefix for the interior levels k < m - 1, and
    counts[k] the number of admissible one-round extensions of each
    level-(k - 1) prefix, counts[0] those of the empty prefix (one count).
    The extensions of a prefix are consecutive on the next level, in
    ascending order from min_units (_last_units), so the leaves (the
    allocations) come in lexicographic order, called path order. The leaf
    units are left to the caller.

    The path budget is checked first, on the number of admissible prefixes
    of every length counted by their unit sum, so an oversized grid raises
    before any node exists. Each level is then built from its parents'
    counts of admissible last values.
    """
    lo, hi, total = grid.min_units, grid.max_units, grid.units_total
    if lo * m > total:
        raise InfeasibleError(
            f"unit bounds admit no allocation: {m} rounds at >= {lo} units "
            f"exceed the budget of {total}"
        )
    # caps[k]: the largest admissible unit sum of a (k + 1)-round prefix
    caps = [total - (m - k - 1) * lo for k in range(m)]
    # by_sum[s]: admissible prefixes of the current length with unit sum s,
    # starting from the one empty prefix, so every length is checked
    by_sum = np.zeros(total + 1, dtype=np.int64)
    by_sum[0] = 1
    s = np.arange(total + 1)
    for cap in caps:
        # a prefix of sum s extends one of sum s - hi .. s - lo
        below = np.concatenate(([0], np.cumsum(by_sum)))
        by_sum = below[np.clip(s - lo + 1, 0, None)] - below[np.clip(s - hi, 0, None)]
        by_sum[cap + 1:] = 0
        if by_sum.sum() > _PATH_BUDGET:
            raise GridError(
                f"allocation space exceeds {_PATH_BUDGET} paths; shrink the grid"
            )
    units, counts = [], []
    sums = np.zeros(1, dtype=np.int64)  # the empty prefix's
    for k in range(m):
        counts.append(np.minimum(hi, caps[k] - sums) - lo + 1)
        if k < m - 1:
            units.append(_last_units(counts[k], lo))
            sums = np.repeat(sums, counts[k]) + units[k]
    return tuple(units), tuple(counts)


def _last_units(counts: np.ndarray, lo: int) -> np.ndarray:
    """Last unit counts of the extensions of prefixes with `counts`
    admissible extensions each: lo, lo + 1, ... for each prefix in turn."""
    starts = np.cumsum(counts) - counts
    last = np.arange(counts.sum(), dtype=np.int64)
    last -= np.repeat(starts - lo, counts)
    return last


def _cuts(ends: np.ndarray, limit: int) -> list[int]:
    """Runs of consecutive items, item i spanning ends[i]..ends[i + 1]
    (ends[0] = 0), of at most `limit` in total; an item larger than that
    forms a run alone. Returns the first item of each run, then the item
    count."""
    cuts = [0]
    while cuts[-1] < len(ends) - 1:
        start = cuts[-1]
        stop = int(np.searchsorted(ends, ends[start] + limit, side="right")) - 1
        cuts.append(max(stop, start + 1))
    return cuts


class _Nodes(NamedTuple):
    """Per node of a block's last interior level, the (M - 1)-round
    prefixes (for M = 1, the root): the offset of its first leaf among the
    block's leaves, its leaf count, the index of its first leaf's F_M in
    the leaf table and that leaf's unit count, and the rates of its first
    and last leaf. A node's leaves are its children from its first kept
    child to its last, in ascending rate order: leaf i has units + i units
    and F_M table[at + i]."""

    first: np.ndarray
    count: np.ndarray
    at: np.ndarray
    units: np.ndarray
    rho_first: np.ndarray
    rho_last: np.ndarray


class _Block(NamedTuple):
    """Consecutive level-0 subtrees of a kept tree, a tree of its own.
    Per interior level, views of the rate of each node's last round, its
    Gaussian prefix-failure probability F and, on every level but the
    last, its child count; then, per node of the last interior level, the
    smallest and largest F_M among its kept children (as in _Whole) and
    its _Nodes; then the stream's leaf table and the grid's unit rate, from
    which its leaves are read."""

    rhos: tuple[np.ndarray, ...]
    F: tuple[np.ndarray, ...]
    children: tuple[np.ndarray, ...]
    min_F: np.ndarray
    max_F: np.ndarray
    nodes: _Nodes
    table: np.ndarray
    unit_rho: float


def _blocks(rhos, F, children, last, table, unit_rho) -> tuple[_Block, ...]:
    """The kept tree cut into blocks of consecutive level-0 subtrees with
    at most _BLOCK_LEAVES leaves together (a larger subtree forms a block
    alone), in path order. `last` holds, per node of the last interior
    level (the root for M = 1), its leaf count, the table index and unit
    count of its first leaf and the smallest and largest F_M of its kept
    children."""
    if rhos:
        offsets = [np.concatenate(([0], np.cumsum(ch))) for ch in children + last[:1]]

        def on_levels(bounds):
            # node bounds on level 0 -> the bounds of their subtrees on every level
            levels = [np.asarray(bounds)]
            for off in offsets:
                levels.append(off[levels[-1]])
            return levels

        # cut on the leaves, kept on the interior levels
        cuts = on_levels(_cuts(on_levels(np.arange(rhos[0].size + 1))[-1],
                               _BLOCK_LEAVES))[:-1]
        # the offsets take as many bytes as the levels' child counts: freed
        # before the nodes are formed, they do not add to the build's peak
        del offsets
    else:
        cuts = [[0, 1]]  # M = 1: the root alone

    def block(i):
        levels = tuple(tuple(a[c[i]:c[i + 1]] for a, c in zip(arrays, cuts))
                       for arrays in (rhos, F, children))
        count, at, units, min_F, max_F = (a[cuts[-1][i]:cuts[-1][i + 1]] for a in last)
        nodes = _Nodes(np.cumsum(count) - count, count, at, units, units * unit_rho,
                       (units + count - 1) * unit_rho)
        return _Block(*levels, min_F, max_F, nodes, table, unit_rho)

    return tuple(block(i) for i in range(len(cuts[0]) - 1))


class _Whole(NamedTuple):
    """The whole grid's prefix tree without its leaf level, as its outage
    floor reads it: per interior level (the first M - 1 rounds), each
    node's F and, on every level but the last, its child count; then, per
    node of the last interior level (one root for M = 1), the smallest and
    largest F_M among its leaves."""

    F: tuple[np.ndarray, ...]
    children: tuple[np.ndarray, ...]
    min_F: np.ndarray
    max_F: np.ndarray


def _spread(children):
    """harq_analysis's spread step on a prefix tree: level i to its children."""
    return lambda x, i: np.repeat(x, children[i])


def _leaf_table(grid: RateGrid, dl, s1: np.ndarray, s2: np.ndarray,
                count: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(key, table, at): the F_M of every leaf, formed once per distinct
    parent. Two nodes of the last interior level whose child counts and
    running sums s1, s2 have the same bits have children with the same
    F_M bits; key numbers each node's class of such nodes, and table holds
    the F_M of each class's children in ascending rate order, from
    at[class] on. The sums are taken as p_fail_gaussian takes them, so
    each leaf's F_M equals p_fail_gaussian on its rates bit for bit."""
    columns = (count, s1.view(np.int64), s2.view(np.int64))
    order = np.lexsort(columns[::-1])
    new = np.zeros(order.size, dtype=bool)  # a node that starts a class, in sorted order
    new[0] = True
    for col in columns:
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    key = np.empty_like(order)
    key[order] = np.cumsum(new) - 1
    first = order[new]  # one node of each class
    del order, new
    count = count[first]
    at = np.cumsum(count) - count
    s1, s2 = s1[first], s2[first]
    table = np.empty(int(count.sum()))
    for lo in range(0, table.size, _Q_LEAVES):
        leaf = np.arange(lo, min(lo + _Q_LEAVES, table.size))
        cls = np.searchsorted(at, leaf, side="right") - 1
        rho = (leaf - at[cls] + grid.min_units) * grid.unit_rho
        f, sq = s1[cls], s2[cls]
        f += rho
        sq += rho * rho
        table[lo:lo + leaf.size] = mi_model._q_of_sums(f, sq, dl)
    return key, table, at


@functools.lru_cache(maxsize=4)
def _stream(grid: RateGrid, m: int, dl,
            epsilon: float) -> tuple[_Whole, tuple[_Block, ...]]:
    """The whole grid's tree (_Whole) and the blocks of the tree kept at
    epsilon: the paths that can meet epsilon at some thresholds,
    F_M <= epsilon + _ROUNDING_SLACK, and their prefixes. Both come from
    one pass that forms each leaf's F_M once per distinct parent
    (_leaf_table) and holds no leaf level; an epsilon of -inf keeps no
    leaf. Cached per grid, downlink spec and epsilon, so a solve and the
    outage floors read on its entry form that table once.

    Each interior node holds the rate of its last round (units times
    unit_rho) and its Gaussian prefix-failure probability, computed once
    per distinct prefix. The running sums are added in round order, as
    p_fail_gaussian's cumulative sums are, so every failure equals
    p_fail_gaussian on its rates bit for bit. The leaf table is reduced
    per class to the extremes of its F_M, for the whole tree, and to its
    first and last kept child and the extremes of their F_M, gathered to
    the kept tree's last-level nodes, whose leaves run from the first to
    the last. A node stays when one of its children does, counted
    bottom-up on the interior levels; a level whose every node stays is
    kept as built, not copied."""
    units, counts = _prefix_tree(grid, m)
    rhos = [u * grid.unit_rho for u in units]
    del units  # only their rates are held
    F = []
    s1 = s2 = np.zeros(1)  # the empty prefix's sums
    for rho, ch in zip(rhos, counts):
        s1 = np.repeat(s1, ch) + rho
        s2 = np.repeat(s2, ch) + rho * rho
        F.append(mi_model._q_of_sums(s1, s2, dl))
    key, table, at = _leaf_table(grid, dl, s1, s2, counts[-1])
    del s1, s2  # only the leaves read the running sums
    # per class, the smallest and largest F_M of its children
    low, high = np.minimum.reduceat(table, at), np.maximum.reduceat(table, at)
    whole = _Whole(tuple(F), counts[1:-1], low[key], high[key])
    keep = table <= epsilon + _ROUNDING_SLACK
    if not keep.any():
        return whole, ()
    kept = np.add.reduceat(keep, at)  # kept children per class
    # per class with one, the table indices of its first and last kept
    # child and their largest F_M; the smallest child is kept when one is,
    # so their smallest F_M is low
    where = np.flatnonzero(keep)
    ends = np.cumsum(kept[kept > 0])
    starts = ends - kept[kept > 0]
    first, last = where[starts], where[ends - 1]
    top = np.maximum.reduceat(table[where], starts)
    row = np.cumsum(kept > 0) - 1  # class -> its row in those
    del keep, where
    kept = kept[key]  # kept children of each node of the last interior level
    alive, children = [kept > 0], []
    for ch in reversed(counts[1:-1]):
        # the kept children of each node of the level above
        kept = np.add.reduceat(alive[0], np.cumsum(ch) - ch)
        alive.insert(0, kept > 0)
        children.insert(0, kept[alive[0]])
    cls = key[alive[-1]]
    rhos, F = (tuple(a if keep.all() else a[keep] for a, keep in zip(levels, alive))
               for levels in (rhos, F))
    del alive, kept, key  # read by the pruning only, not held while _blocks runs
    first, last, top = (a[row[cls]] for a in (first, last, top))
    return whole, _blocks(rhos, F, tuple(children),
                          (last - first + 1, first, grid.min_units + (first - at[cls]),
                           low[cls], top), table, grid.unit_rho)


def _leaf_rates(block: _Block, leaves: np.ndarray) -> np.ndarray:
    """Rates of the given leaves of a block (indices in path order), one
    row each, read by walking up from each leaf to its level-0 ancestor."""
    nodes = block.nodes
    owner = np.searchsorted(np.cumsum(nodes.count), leaves, side="right")
    rows = [(nodes.units[owner] + leaves - nodes.first[owner]) * block.unit_rho]
    for k in reversed(range(len(block.rhos))):
        rows.insert(0, block.rhos[k][owner])
        if k:
            owner = np.searchsorted(np.cumsum(block.children[k - 1]), owner, side="right")
    return np.stack(rows, axis=1)


def _feasible_argmax(tied, unit_rho: float) -> tuple[np.ndarray, float]:
    """Rates and throughput of the leaf of largest throughput, from one
    (throughput, rates) pair per chunk of leaves read with a feasible leaf,
    in path order: the chunk's largest throughput and the rates of every
    leaf that reaches it, in path order. Ties prefer fewer total units,
    then the first leaf in path order (lexicographically smallest)."""
    top = max(t for t, _ in tied)
    rhos = np.concatenate([r for t, r in tied if t == top])
    return rhos[np.argmin(np.rint(rhos / unit_rho).sum(axis=1))], float(top)


def _thresholds(alphas) -> np.ndarray:
    """alphas as a float array; a non-finite threshold raises ValueError."""
    a = np.asarray(alphas, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("thresholds must be finite")
    return a


def min_achievable_outage(alphas, dl, fb: feedback_model.FeedbackSpec,
                          grid: RateGrid) -> float:
    """Smallest grid-achievable outage at the finite thresholds `alphas`
    (else ValueError), one per feedback of the len(alphas) + 1 rounds."""
    a = _thresholds(alphas)
    return _outage_floor(_stream(grid, len(a) + 1, dl, -math.inf)[0], fb.nack_rate(a))


def _outage_floor(whole: _Whole, p_nack) -> float:
    """Smallest outage over the whole grid at these NACK error rates, one
    per feedback: the least of the node outages of the whole tree
    (_node_outage), so the smallest over every leaf exactly, with no leaf
    formed."""
    return float(_node_outage(whole, p_nack)[1].min())


def _node_outage(tree: _Whole | _Block, p_nack) -> tuple[np.ndarray, np.ndarray]:
    """(inner, least) on each node of the last interior level of the whole
    tree or of a block (one root for M = 1): harq_analysis._inner, the
    outage's running term after the last feedback, on the interior levels,
    and the smallest outage among the node's children (in a block, its
    kept children), exactly, which harq_analysis._outage_step takes at
    their smallest or largest F_M."""
    inner = harq_analysis._inner(tree.F, p_nack, _spread(tree.children))
    return inner, np.minimum(harq_analysis._outage_step(inner, tree.min_F),
                             harq_analysis._outage_step(inner, tree.max_F))


def _node_bound(block: _Block, p_nack, p_ack, least: np.ndarray) -> tuple:
    """(cost, p_last, bound) on each node of the block's last interior
    level, whose least leaf outage is `least`: the cost of rounds 1..M-1,
    the occurrence P_M of round M (the root's 0.0 and 1.0 for M = 1) and a
    throughput bound on its leaves with 1 - outage >= 0 (every feasible
    one when epsilon <= 1): harq_analysis._throughput_step at the least
    outage and at the least _cost_step, which lies at the first or the
    last leaf's rate."""
    spread = _spread(block.children)
    P = harq_analysis._occurrence(block.F, p_nack, p_ack, spread)
    cost = harq_analysis._cost(block.rhos, P[:-1], spread) if block.rhos else 0.0
    p_last, nodes = P[-1], block.nodes
    least_cost = np.minimum(harq_analysis._cost_step(cost, nodes.rho_first, p_last),
                            harq_analysis._cost_step(cost, nodes.rho_last, p_last))
    return cost, p_last, harq_analysis._throughput_step(least, least_cost)


def _leaf_eta(block: _Block, last, read: np.ndarray,
              epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The leaves below the nodes `read` of the block's last interior level
    (indices in path order) and their throughput, -inf where the outage
    misses epsilon. `last` holds each node's inner, cost of rounds
    1..M-1 and P_M, which the leaves gather and finish with harq_analysis's
    last-round steps. A leaf that is not kept has F_M above epsilon +
    _ROUNDING_SLACK, so its outage misses epsilon."""
    inner, cost, p_last = last
    nodes = block.nodes
    count = nodes.count[read]
    owner = np.repeat(read, count)
    # each leaf's place among its node's leaves
    step = np.arange(owner.size)
    step -= np.repeat(np.cumsum(count) - count, count)
    # np.take also reads the root's scalars when M = 1
    outage = harq_analysis._outage_step(np.take(inner, owner),
                                        block.table[nodes.at[owner] + step])
    eta = harq_analysis._throughput_step(outage, harq_analysis._cost_step(
        np.take(cost, owner), (nodes.units[owner] + step) * block.unit_rho,
        np.take(p_last, owner)))
    return nodes.first[owner] + step, np.where(outage <= epsilon, eta, -np.inf)


def _rate_scan(p_nack, p_ack, dl, grid: RateGrid,
               epsilon: float) -> tuple[np.ndarray, float]:
    """best_feasible_allocation at error pairs, on the kept tree, block by block.

    The recursions run on the interior levels only. A node of the last
    one has a feasible leaf iff its least leaf outage meets epsilon
    (_node_outage), and _node_bound bounds the throughput of its leaves.
    The incumbent, the largest throughput of a leaf read so far, starts in
    each block from the leaves of its feasible node of largest bound; then
    only the leaves of the feasible nodes whose bound reaches it are read,
    in chunks of at most _BLOCK_LEAVES. A leaf tied with the optimum has a
    bound of at least the optimum, so it is read, and the argmax and its
    tie rules are those of a pass over every leaf. The outage floor of an
    InfeasibleError is taken over the whole grid, when it is first read."""
    whole, blocks = _stream(grid, len(p_nack) + 1, dl, epsilon)
    top = -math.inf
    tied = []
    for block in blocks:
        inner, least = _node_outage(block, p_nack)
        feasible = least <= epsilon
        if not feasible.any():
            continue
        cost, p_last, bound = _node_bound(block, p_nack, p_ack, least)
        bound = np.where(feasible, bound, -np.inf)
        best = np.argmax(bound)
        # the bound holds for leaves with 1 - outage >= 0, so below a
        # non-positive incumbent (only possible for epsilon >= 1) every
        # feasible node is read
        if top > 0.0 and bound[best] < top:
            continue
        last = (inner, cost, p_last)
        top = max(top, _leaf_eta(block, last, np.array([best]), epsilon)[1].max())
        read = np.flatnonzero(feasible & (bound >= top) if top > 0.0 else feasible)
        ends = np.concatenate(([0], np.cumsum(block.nodes.count[read])))
        cuts = _cuts(ends, _BLOCK_LEAVES)
        for a, b in zip(cuts, cuts[1:]):
            leaves, eta = _leaf_eta(block, last, read[a:b], epsilon)
            peak = eta.max()
            if peak > -np.inf:
                # only the leaves that reach the chunk's peak are walked up
                tied.append((peak, _leaf_rates(block, leaves[eta == peak])))
                top = max(top, peak)
    if not tied:
        raise InfeasibleError(
            f"no allocation meets outage {epsilon:g} at these error rates",
            min_outage=functools.partial(_outage_floor, whole, p_nack),
        )
    return _feasible_argmax(tied, grid.unit_rho)


def best_feasible_allocation(alphas, dl, fb: feedback_model.FeedbackSpec,
                             grid: RateGrid,
                             epsilon: float) -> tuple[np.ndarray, float]:
    """Exact constrained optimum over the whole grid at the finite
    thresholds `alphas` (else ValueError), one per feedback: the allocation
    of len(alphas) + 1 rounds maximizing (1 - P_out)/cost among those with
    P_out <= epsilon, and that throughput.

    The error pairs are fb.nack_rate(alphas) and fb.ack_rate(alphas), so
    every feedback scheme is served alike. Raises InfeasibleError carrying
    the grid's minimum outage when no allocation meets epsilon.
    """
    a = _thresholds(alphas)
    return _rate_scan(fb.nack_rate(a), fb.ack_rate(a), dl, grid, epsilon)


def _bisect_upper(lo: float, hi: float, ok, steps: int) -> float:
    """Upper end of [lo, hi] after `steps` halvings, moved down to every
    midpoint where ok holds (ok(hi) is assumed); one probe per halving."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def _throughput(rhos, F, alphas, fb: feedback_model.FeedbackSpec,
                epsilon: float) -> float | None:
    """Throughput of rates `rhos` (prefix failures F) at thresholds
    `alphas`, or None when the outage misses epsilon. Outage comes first;
    the occurrence probabilities and cost only when it meets epsilon."""
    p_nack = fb.nack_rate(alphas)
    outage = harq_analysis._outage(F, p_nack, harq_analysis._same)
    if outage > epsilon:
        return None
    return _eta(rhos, F, outage, p_nack, fb.ack_rate(alphas))


def _eta(rhos, F, outage, p_nack, p_ack) -> float:
    """Throughput of rates `rhos` (prefix failures F) whose outage at these
    error rates is `outage`."""
    same = harq_analysis._same
    P = harq_analysis._occurrence(F[:-1], p_nack, p_ack, same)
    return float(harq_analysis._throughput_step(outage, harq_analysis._cost(rhos, P, same)))


def _search(rhos, F, fb: feedback_model.FeedbackSpec, epsilon: float,
            x: np.ndarray, eta_x: float) -> tuple[np.ndarray, float]:
    """Thresholds in ALPHA_BOX of largest throughput at fixed rates `rhos`
    (prefix failures F), subject to outage <= epsilon, by a deterministic
    coordinate pattern search from x, feasible with throughput eta_x.

    Each pass tries +step, then -step, on every coordinate in turn (probes
    are clipped to the box) and keeps the first feasible probe with a
    higher throughput, or an equal one on a downward step, so flat
    directions settle at the box floor. The step starts at _SEARCH_STEP,
    halves after a pass without a move, and the search stops once it falls
    below _SEARCH_TOL. Returns the final thresholds and their throughput,
    which is at least eta_x.

    The error rates at x come from one call of each of fb's maps and are
    kept per threshold, and a probe forms only those of the threshold it
    steps, the NACK rate first and the ACK rate when the outage meets
    epsilon: the maps are elementwise, so each equals its element of
    _throughput's vector call bit for bit. With no threshold, no probe.
    """
    if not x.size:
        return x, eta_x
    p_nack = fb.nack_rate(x)
    p_ack = fb.ack_rate(x)
    step = _SEARCH_STEP
    while step >= _SEARCH_TOL:
        moved = False
        for j in range(x.size):
            for sign in (1.0, -1.0):
                a = np.clip(x[j] + sign * step, *ALPHA_BOX)
                if a == x[j]:
                    continue
                pn = p_nack.copy()
                pn[j] = fb.nack_rate(a)
                outage = harq_analysis._outage(F, pn, harq_analysis._same)
                if outage > epsilon:
                    continue
                pa = p_ack.copy()
                pa[j] = fb.ack_rate(a)
                eta_c = _eta(rhos, F, outage, pn, pa)
                if eta_c > eta_x or (eta_c == eta_x and sign < 0.0):
                    x = x.copy()
                    x[j] = a
                    eta_x, p_nack, p_ack, moved = eta_c, pn, pa, True
                    break
        if not moved:
            step *= 0.5
    return x, eta_x


def alternating_optimize(dl, fb: feedback_model.FeedbackSpec,
                         start: harq_analysis.HarqPolicy, grid: RateGrid,
                         epsilon: float) -> Solution:
    """Alternate the exact rate scan and the threshold pattern search from
    `start` over the rates of `grid`, subject to outage <= epsilon.

    The start policy fixes the round count and block size of the result and
    is its starting point: the thresholds start at start.alphas clipped to
    ALPHA_BOX, and start.rhos is the first incumbent when it meets epsilon
    at those thresholds. If the starting thresholds cannot meet epsilon for
    any grid allocation, they are first raised to the smallest feasible
    uniform level. The incumbent is only ever replaced by a better-or-equal
    candidate, so the recorded objective trace is non-decreasing by
    construction.

    The rate box and the budget of the search are the grid's alone;
    start.rhos need not lie on the grid. Raises ValueError for epsilon
    outside (0, 1).

    The rate step is best_feasible_allocation's scan at the current
    thresholds: the feasible grid allocation of largest throughput.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("alternating_optimize: epsilon must lie in (0, 1)")
    m = start.m_max
    lo, hi = ALPHA_BOX
    k = m - 1
    alphas = np.clip(np.asarray(start.alphas, dtype=float), lo, hi)

    whole, blocks = _stream(grid, m, dl, epsilon)

    def reaches(a: np.ndarray) -> bool:
        # some allocation meets epsilon at thresholds a; only kept paths
        # can, so with none kept this is an infeasibility certificate
        p_nack = fb.nack_rate(a)
        return any(bool((_node_outage(block, p_nack)[1] <= epsilon).any())
                   for block in blocks)

    if k > 0 and not reaches(alphas):
        # bootstrap: raise thresholds uniformly until some allocation is feasible
        top = np.full(k, hi)
        if not reaches(top):
            raise InfeasibleError(
                f"outage constraint {epsilon:g} unreachable for any "
                "thresholds in the box",
                min_outage=functools.partial(
                    _outage_floor, whole, fb.nack_rate(top)),
                iteration=0,
            )
        # 40 halvings of [lo, hi]; each probe is a pass over the kept tree
        alphas = np.maximum(alphas, _bisect_upper(
            lo, hi, lambda s: reaches(np.maximum(alphas, s)), 40))
        _log.debug("alternating_optimize: raised start thresholds to %s", alphas)

    rhos_inc = start.rhos
    eta_inc = -math.inf
    prev = None
    eta0 = _throughput(start.rhos, mi_model.p_fail_gaussian(start.rhos, dl),
                       alphas, fb, epsilon)
    # an infeasible seed must not become the incumbent: its inflated
    # throughput would veto every constraint-satisfying update and the
    # loop would return the seed itself
    if eta0 is not None:
        eta_inc = eta0
        prev = eta_inc

    trace: list[float] = []
    converged = False
    for iterations in range(1, _ALT_MAX_ITERS + 1):
        try:
            rhos_new, eta_new = _rate_scan(fb.nack_rate(alphas), fb.ack_rate(alphas),
                                           dl, grid, epsilon)
        except InfeasibleError as err:
            err.iteration = iterations
            raise
        if eta_new >= eta_inc:
            rhos_inc, eta_inc = rhos_new, eta_new
        # the current thresholds meet epsilon for the incumbent, which has
        # throughput eta_inc there, so the search starts from them
        alphas, eta_inc = _search(rhos_inc, mi_model.p_fail_gaussian(rhos_inc, dl),
                                  fb, epsilon, alphas, eta_inc)

        trace.append(float(eta_inc))
        if prev is not None and eta_inc - prev < _ALT_TOL:
            converged = True
            break
        prev = eta_inc

    policy = dataclasses.replace(start, rhos=tuple(rhos_inc), alphas=tuple(alphas))
    breakdown = harq_analysis.unreliable_throughput(policy, dl, fb)
    return Solution(
        policy=policy,
        breakdown=breakdown,
        converged=converged,
        feasible=breakdown.p_out_unreliable <= epsilon * (1.0 + 1e-6),
        trace=tuple(trace),
    )
