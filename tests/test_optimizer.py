"""Rate allocation, threshold search, and the alternating solver.

The exhaustive enumerations here are the ground truth for the staged
search: equality is exact (same floating-point accumulation order on both
routes), not approximate.
"""

import dataclasses
import itertools
import logging
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from harqopt import feedback_model, harq_analysis, mi_model, optimizer
from harqopt.errors import GridError, InfeasibleError

import oracles


def expand_all(values, children):
    """Per-node values of every level of an optimizer prefix tree written
    out per allocation: a (paths, M) table in path order whose column k
    repeats each level-k value through the child counts of the levels
    below it."""
    columns = []
    for k, v in enumerate(values):
        for ch in children[k:]:
            v = np.repeat(v, ch)
        columns.append(v)
    return np.stack(columns, axis=1)


def enumerate_units(grid, m):
    """All unit allocations of the grid, one row each, in path order."""
    units, counts = optimizer._prefix_tree(grid, m)
    leaves = optimizer._last_units(counts[-1], grid.min_units)
    return expand_all(units + (leaves,), counts[1:])


def failure_table(grid, m, dl):
    """Gaussian prefix failures of every allocation, in path order, row by
    row through p_fail_gaussian, so no tree and no block size is involved."""
    return mi_model.p_fail_gaussian(enumerate_units(grid, m) * grid.unit_rho, dl)


@pytest.fixture
def few_leaf_blocks(monkeypatch):
    """Trees built afresh with the leaf table formed five entries per Q
    call, and cut into blocks of at most three leaves (a larger level-0
    subtree forms a block alone); the stream cache is emptied again
    afterwards."""
    monkeypatch.setattr(optimizer, "_Q_LEAVES", 5)
    monkeypatch.setattr(optimizer, "_BLOCK_LEAVES", 3)
    optimizer._stream.cache_clear()
    yield
    optimizer._stream.cache_clear()


def block_leaves(block):
    """(owner, rho, F) of every leaf of a block, in path order: the node of
    its last interior level that it lies below, and its last rate and F_M,
    read from the leaf table through its node's _Nodes entries."""
    nodes = block.nodes
    owner = np.repeat(np.arange(nodes.count.size), nodes.count)
    step = np.arange(owner.size) - nodes.first[owner]
    return (owner, (nodes.units[owner] + step) * block.unit_rho,
            block.table[nodes.at[owner] + step])


def is_kept(F, eps):
    """Which failures F_M a stream at eps keeps."""
    return F <= eps + optimizer._ROUNDING_SLACK


def kept_levels(blocks, m, eps):
    """(rhos, F, children) of the kept tree of the stream at eps whose
    blocks are given: per level (M of rates and failures, M - 1 of child
    counts), the blocks' pieces joined in path order. The leaf level is
    read from the leaf table: the kept leaves and, per node of the last
    interior level, the count of them."""
    levels = tuple([[] for _ in range(n)] for n in (m, m, m - 1))
    for b in blocks:
        owner, rho, F = block_leaves(b)
        keep = is_kept(F, eps)
        leaf_level = (rho[keep], F[keep],
                      np.bincount(owner[keep], minlength=b.nodes.count.size))
        for level, interior, leaves in zip(levels, (b.rhos, b.F, b.children), leaf_level):
            for pieces, piece in zip(level, interior + (leaves,)):
                pieces.append(piece)
    return tuple(tuple(np.concatenate(pieces or [np.empty(0)]) for pieces in level)
                 for level in levels)


def assert_blocks_split_the_tree(blocks):
    """A kept tree's blocks are views that put its interior levels back
    together in path order: on every level, their pieces are consecutive
    views of one contiguous array, which they cover, and every block reads
    one leaf table. Each block is one or more whole level-0 subtrees with
    at most _BLOCK_LEAVES leaves together, or a single larger one."""
    for field in range(3):
        for k in range(len(blocks[0][field]) if blocks else 0):
            pieces = [b[field][k] for b in blocks]
            base = pieces[0].base
            assert base is not None and base.ndim == 1 and base.flags.c_contiguous
            ends = [base.ctypes.data] + [p.ctypes.data + p.nbytes for p in pieces]
            assert all(p.base is base and p.ctypes.data == start
                       for p, start in zip(pieces, ends))
            assert ends[-1] == base.ctypes.data + base.nbytes
    assert all(b.table is blocks[0].table for b in blocks)
    for block in blocks:
        roots = block.rhos[0].size if block.rhos else 1
        assert roots > 0
        assert block.nodes.count.sum() <= optimizer._BLOCK_LEAVES or roots == 1


def assert_nodes_describe_their_children(blocks, eps):
    """Each block of the kept tree of a stream at eps holds, per node of
    its last interior level (one root for M = 1), the extremes of its kept
    children's F_M, and the offset and count of its leaves, which run from
    its first kept child to its last in ascending rate order, with the
    rates of the first and the last."""
    for block in blocks:
        nodes = block.nodes
        _, rho, F = block_leaves(block)
        assert nodes.count.size == (block.rhos[-1].size if block.rhos else 1)
        assert nodes.first.tolist() == (np.cumsum(nodes.count) - nodes.count).tolist()
        for j, (lo, n) in enumerate(zip(nodes.first, nodes.count)):
            leaves = slice(lo, lo + n)
            keep = is_kept(F[leaves], eps)
            assert n > 0 and keep[0] and keep[-1]
            assert block.min_F[j] == F[leaves][keep].min()
            assert block.max_F[j] == F[leaves][keep].max()
            assert np.all(np.diff(rho[leaves]) > 0.0)
            assert nodes.rho_first[j] == rho[lo]
            assert nodes.rho_last[j] == rho[lo + n - 1]


def row_scan(p_nack, p_ack, dl, grid, m, eps):
    """The rate scan row by row: every allocation of the whole table through
    the (..., M) formulas, infeasible rows masked with -inf, and the
    throughput argmax with ties to fewer total units, then the first row."""
    rhos = enumerate_units(grid, m) * grid.unit_rho
    F = failure_table(grid, m, dl)
    outage = harq_analysis.outage_from_failures(F, p_nack)
    feasible = outage <= eps
    if not feasible.any():
        raise InfeasibleError("no row meets epsilon", min_outage=float(outage.min()))
    P = harq_analysis.occurrence_probabilities(F, p_nack, p_ack)
    eta = np.where(feasible, (1.0 - outage) / harq_analysis.expected_cost(rhos, P),
                   -np.inf)
    cand = np.flatnonzero(eta == eta.max())
    totals = np.rint(rhos[cand] / grid.unit_rho).sum(axis=1)
    best = cand[totals == totals.min()][0]
    return rhos[best], float(eta[best])


def eval_policy(rhos, alphas, dl, snr_u_db):
    fb = feedback_model.make_feedback_spec(snr_u_db)
    pol = harq_analysis.HarqPolicy(rhos=tuple(rhos), alphas=tuple(alphas), n_b=1024)
    return harq_analysis.unreliable_throughput(pol, dl, fb)


def test_make_rate_grid_basics():
    grid = optimizer.make_rate_grid(1024, 4096, 64)
    assert grid.unit_rho == pytest.approx(1.0 / 16.0)
    assert grid.min_units == 1 and grid.max_units == 64
    with pytest.raises(ValueError):
        optimizer.make_rate_grid(0, 4096, 64)
    with pytest.raises(ValueError):
        optimizer.make_rate_grid(1024, 4096, 64, min_units=8, max_units=4)


def test_optimizer_config_validation(dl3, grid64):
    # the problem is passed whole: an outage budget outside (0, 1) is
    # refused, never searched
    fb = feedback_model.make_feedback_spec(-10.0)
    start = default_template()
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            optimizer.alternating_optimize(dl3, fb, start, grid64, eps)


def assert_scan_equals_brute_force(p_nack, p_ack, dl, grid, m, eps) -> bool:
    """The rate scan of best_feasible_allocation and the scalar oracle agree
    bit for bit at the error pairs (p_nack[i], p_ack[i]), including the
    outage floor they report when nothing is feasible. Returns whether the
    instance was feasible."""
    try:
        r_scan, v_scan = optimizer._rate_scan(p_nack, p_ack, dl, grid, eps)
    except InfeasibleError as err:
        with pytest.raises(InfeasibleError) as exc:
            oracles.brute_force_rate_allocation(p_nack, p_ack, dl, grid, m, eps)
        assert exc.value.min_outage == err.min_outage > eps
        return False
    r_bf, v_bf = oracles.brute_force_rate_allocation(p_nack, p_ack, dl, grid, m, eps)
    assert v_scan == v_bf
    np.testing.assert_array_equal(r_scan, r_bf)
    return True


def test_scan_matches_brute_force_random_instances(dl3):
    rng = np.random.default_rng(314)
    feasible = []
    for _ in range(10):
        m = int(rng.integers(2, 4))
        units = int(rng.integers(m, 17))
        grid = optimizer.make_rate_grid(1024, 4096, units)
        alphas = tuple(rng.uniform(0.0, 2.0, size=m - 1))
        fb = feedback_model.make_feedback_spec(rng.uniform(-15.0, -5.0))
        p_nack, p_ack = oracles.error_pair(fb, alphas)
        eps = float(rng.choice([1e-6, rng.uniform(0.0, 0.2), 0.999]))
        feasible.append(assert_scan_equals_brute_force(p_nack, p_ack, dl3, grid, m, eps))
    assert any(feasible) and not all(feasible)


def test_stacked_formulas_equal_row_by_row_on_default_grid(dl3, grid64):
    # the whole-grid search feeds (paths, 4) arrays through the same
    # formulas that evaluate one policy; each stacked row must equal the
    # scalar call on that row exactly
    rng = np.random.default_rng(2401)
    paths = enumerate_units(grid64, 4)
    units = paths[rng.choice(paths.shape[0], size=500, replace=False)]
    rhos = units * grid64.unit_rho
    F = mi_model.p_fail_gaussian(rhos, dl3)
    F_rows = [mi_model.p_fail_gaussian(tuple(row), dl3) for row in rhos]
    np.testing.assert_array_equal(F, np.array(F_rows))
    for _ in range(3):
        alphas = tuple(rng.uniform(0.0, 2.0, size=3))
        fb = feedback_model.make_feedback_spec(rng.uniform(-15.0, -5.0))
        p_nack, p_ack = oracles.error_pair(fb, alphas)
        P = harq_analysis.occurrence_probabilities(F, p_nack, p_ack)
        out = harq_analysis.outage_from_failures(F, p_nack)
        assert P.shape == (500, 4) and out.shape == (500,)
        np.testing.assert_array_equal(P, np.array([
            harq_analysis.occurrence_probabilities(row, p_nack, p_ack)
            for row in F_rows
        ]))
        np.testing.assert_array_equal(out, np.array([
            harq_analysis.outage_from_failures(row, p_nack) for row in F_rows
        ]))
        cost = harq_analysis.expected_cost(rhos, P)
        assert cost.shape == (500,)
        np.testing.assert_array_equal(cost, np.array([
            harq_analysis.expected_cost(tuple(r), p) for r, p in zip(rhos, P)
        ]))


@pytest.mark.parametrize("lo, hi, total", [(2, 9, 24), (3, 11, 20)])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_enumerate_units_is_filtered_product(monkeypatch, lo, hi, total, m):
    # the rows within budget of the full product, in its lexicographic
    # order; the budget guard trips exactly when they outnumber the budget
    grid = optimizer.RateGrid(unit_rho=0.125, min_units=lo, max_units=hi,
                              units_total=total)
    expected = np.array([u for u in itertools.product(range(lo, hi + 1), repeat=m)
                         if sum(u) <= total], dtype=np.int64)
    got = enumerate_units(grid, m)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
    monkeypatch.setattr(optimizer, "_PATH_BUDGET", len(expected))
    np.testing.assert_array_equal(enumerate_units(grid, m), expected)
    monkeypatch.setattr(optimizer, "_PATH_BUDGET", len(expected) - 1)
    with pytest.raises(GridError):
        enumerate_units(grid, m)


def test_enumerate_units_over_budget_raises_before_building_rows(grid64):
    # C(64, 6) ~ 7.5e7 six-round allocations: the guard counts them by unit
    # sum and raises having allocated kilobytes, not the rows
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="exceeds"):
            enumerate_units(grid64, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


TREE_GRIDS = [
    *((optimizer.make_rate_grid(1024, 4096, 13), m) for m in range(1, 7)),
    # min_units > 1 and max_units < units_total
    (optimizer.make_rate_grid(1024, 4096, 24, min_units=2, max_units=9), 3),
    (optimizer.make_rate_grid(1024, 4096, 24, min_units=3, max_units=7), 5),
    # test_float_table_on_non_dyadic_grid's unit, 4000 / (36 * 1000)
    (optimizer.make_rate_grid(1000, 4000, 36), 3),
]


def check_tree_table(dl, grid, m):
    """The kept tree built along the prefixes is p_fail_gaussian on the
    enumerated rates of its rows, byte for byte, and at epsilon 1, which
    keeps every path, on the whole table; it holds each prefix of a kept
    row once, on each level in consecutive block views of one contiguous
    array, and no node without a kept row below it. Its blocks split it."""
    units = enumerate_units(grid, m)
    rhos = units * grid.unit_rho
    F = failure_table(grid, m, dl)
    # every F_M lies in [0, 1], so epsilon 1 keeps every path
    for eps in (1.0, float(np.median(F[:, -1]))):
        keep = F[:, -1] <= eps + optimizer._ROUNDING_SLACK
        assert keep.all() or eps < 1.0
        blocks = optimizer._stream(grid, m, dl, eps)[1]
        kept_rhos, kept_F, children = kept_levels(blocks, m, eps)
        assert all(np.all(ch > 0) for ch in children)
        assert [r.size for r in kept_rhos] == [
            len({tuple(row[:k + 1]) for row in units[keep]}) for k in range(m)]
        assert expand_all(kept_rhos, children).tobytes() == rhos[keep].tobytes()
        assert expand_all(kept_F, children).tobytes() == F[keep].tobytes()
        assert_blocks_split_the_tree(blocks)
        assert_nodes_describe_their_children(blocks, eps)


@pytest.mark.parametrize("grid, m", TREE_GRIDS)
def test_tree_table_equals_row_by_row_gaussian(dl3, grid, m):
    check_tree_table(dl3, grid, m)


def check_tree_scan(dl, grid, m):
    """The scan on the kept tree returns the row scan's rates and
    throughput byte for byte, or its infeasibility floor, at random error
    rates and at the error rates 0 and 1; on the tree kept at epsilon 1,
    which holds every path, the outage and cost of every leaf equal those
    of its table row."""
    F = failure_table(grid, m, dl)
    table_rhos = enumerate_units(grid, m) * grid.unit_rho
    tree_rhos, tree_F, children = kept_levels(optimizer._stream(grid, m, dl, 1.0)[1], m, 1.0)
    spread = optimizer._spread(children)
    rng = np.random.default_rng(100 + m)
    error_rates = [(rng.uniform(0.0, 0.3, m - 1), rng.uniform(0.0, 0.3, m - 1)),
                   (rng.uniform(0.0, 1.0, m - 1), rng.uniform(0.0, 1.0, m - 1)),
                   (np.zeros(m - 1), np.zeros(m - 1)), (np.ones(m - 1), np.ones(m - 1)),
                   (np.zeros(m - 1), np.ones(m - 1)), (np.ones(m - 1), np.zeros(m - 1))]
    for p_nack, p_ack in error_rates:
        outage = harq_analysis._outage(tree_F, p_nack, spread)
        assert outage.tobytes() == harq_analysis.outage_from_failures(F, p_nack).tobytes()
        cost = harq_analysis._cost(
            tree_rhos, harq_analysis._occurrence(tree_F[:-1], p_nack, p_ack, spread), spread)
        P = harq_analysis.occurrence_probabilities(F, p_nack, p_ack)
        assert cost.tobytes() == harq_analysis.expected_cost(table_rhos, P).tobytes()
    for eps in (1.0, float(np.median(F[:, -1]))):
        for p_nack, p_ack in error_rates:
            try:
                want_rhos, want_eta = row_scan(p_nack, p_ack, dl, grid, m, eps)
            except InfeasibleError as want:
                with pytest.raises(InfeasibleError) as got:
                    optimizer._rate_scan(p_nack, p_ack, dl, grid, eps)
                assert got.value.min_outage == want.min_outage
                continue
            rhos, eta = optimizer._rate_scan(p_nack, p_ack, dl, grid, eps)
            assert rhos.dtype == want_rhos.dtype and rhos.tobytes() == want_rhos.tobytes()
            assert float(eta).hex() == want_eta.hex()


@pytest.mark.parametrize("grid, m", TREE_GRIDS)
def test_tree_scan_equals_row_scan_byte_for_byte(dl3, grid, m):
    check_tree_scan(dl3, grid, m)


def check_outage_floor(dl, grid, m):
    """The floor runs the outage recursion along the tree levels; it must
    be the minimum of outage_from_failures over the whole table bit for
    bit, also at the error rates 0 and 1."""
    F = failure_table(grid, m, dl)
    rng = np.random.default_rng(m)
    for p_nack in (rng.uniform(0.0, 0.3, m - 1), rng.uniform(0.0, 1.0, m - 1),
                   np.zeros(m - 1), np.ones(m - 1)):
        whole = harq_analysis.outage_from_failures(F, p_nack).min()
        assert optimizer._outage_floor(optimizer._stream(grid, m, dl, -math.inf)[0],
                                       p_nack) == whole


@pytest.mark.parametrize("grid, m", TREE_GRIDS)
def test_outage_floor_on_tree_equals_whole_table_minimum(dl3, grid, m):
    check_outage_floor(dl3, grid, m)


@pytest.mark.parametrize("grid, m", TREE_GRIDS)
def test_tree_in_few_leaf_blocks_equals_the_tables(dl3, grid, m, few_leaf_blocks):
    # the same checks with the leaf table formed a few entries at a time
    # and the trees evaluated block by block, three leaves or one level-0
    # subtree at a time: rates, failures, scans and floors keep their
    # bytes. With M = 1 there is no level-0 subtree to
    # cut at, and the root forms the one block
    assert len(optimizer._stream(grid, m, dl3, 1.0)[1]) > 1 or m == 1
    check_tree_table(dl3, grid, m)
    check_tree_scan(dl3, grid, m)
    check_outage_floor(dl3, grid, m)


@pytest.mark.parametrize("grid, m", TREE_GRIDS)
def test_tree_and_table_share_the_last_round_steps(dl3, grid, m, monkeypatch):
    # harq_analysis writes the last round's outage and cost once, and the
    # scan's node test, node bound and leaves, the outage floor and the
    # (..., M) formulas all call those steps: with other steps that keep
    # what the scan rests on (an outage monotone in F_M and never below
    # it, a cost monotone in the last rate), the tree still equals the
    # table, because both sides take the new steps. Here the outage grows
    # by a quarter and each round's rate costs three quarters of itself
    F = failure_table(grid, m, dl3)
    p_nack = np.full(m - 1, 0.1)
    P = harq_analysis.occurrence_probabilities(F, p_nack, p_nack)
    rhos = enumerate_units(grid, m) * grid.unit_rho
    before = (harq_analysis.outage_from_failures(F, p_nack),
              harq_analysis.expected_cost(rhos, P))
    real_outage, real_cost = harq_analysis._outage_step, harq_analysis._cost_step
    monkeypatch.setattr(harq_analysis, "_outage_step",
                        lambda inner, F_M: 1.25 * np.maximum(real_outage(inner, F_M), F_M))
    monkeypatch.setattr(harq_analysis, "_cost_step",
                        lambda cost, rho, P: real_cost(cost, 0.75 * rho, P))
    assert np.all(harq_analysis.outage_from_failures(F, p_nack) > before[0])
    assert np.all(harq_analysis.expected_cost(rhos, P) < before[1])
    check_tree_scan(dl3, grid, m)
    check_outage_floor(dl3, grid, m)


def check_whole_tree(dl, grid, m, eps):
    """The whole tree of the stream at epsilon holds no leaf level: its
    interior levels are the failure table's first M - 1 columns byte for
    byte, and per (M - 1)-round prefix (one root for M = 1), whose row
    counts are the prefix tree's last counts, it holds the smallest and
    largest F_M of the table's rows below it."""
    units = enumerate_units(grid, m)
    F = failure_table(grid, m, dl)
    whole = optimizer._stream(grid, m, dl, eps)[0]
    count = optimizer._prefix_tree(grid, m)[1][-1]
    assert len(whole.F) == m - 1
    # the first row of each (M - 1)-round prefix, in path order
    starts = np.flatnonzero(np.r_[True, np.any(units[1:, :-1] != units[:-1, :-1], axis=1)])
    assert count.tolist() == np.diff(np.r_[starts, len(units)]).tolist()
    assert whole.min_F.tobytes() == np.minimum.reduceat(F[:, -1], starts).tobytes()
    assert whole.max_F.tobytes() == np.maximum.reduceat(F[:, -1], starts).tobytes()
    if m > 1:
        assert expand_all(whole.F, whole.children + (count,)).tobytes() == \
            F[:, :-1].tobytes()


@pytest.mark.parametrize("blocks", ["default", "few"])
@pytest.mark.parametrize("grid, m", TREE_GRIDS)
def test_whole_tree_holds_per_prefix_extremes_of_the_table(dl3, grid, m, blocks, request):
    # formed by a stream that keeps no leaf, some or every leaf, with the
    # leaf table formed in calls of the default size or of five entries
    if blocks == "few":
        request.getfixturevalue("few_leaf_blocks")
    for eps in (-math.inf, 0.01, 1.0):
        optimizer._stream.cache_clear()
        check_whole_tree(dl3, grid, m, eps)


@pytest.fixture
def optimizer_q(monkeypatch):
    """The sizes of the Gaussian Q calls that the trees make from here on,
    one per call; p_fail_gaussian on a single policy, which calls Q from
    mi_model, is not counted."""
    formed = []
    real_q = mi_model._q_of_sums

    def q_spy(s1, s2, spec):
        if sys._getframe(1).f_globals["__name__"] == optimizer.__name__:
            formed.append(np.size(s1))
        return real_q(s1, s2, spec)

    monkeypatch.setattr(mi_model, "_q_of_sums", q_spy)
    return formed


def test_one_solve_and_its_floor_form_each_prefix_once(dl3, few_leaf_blocks, optimizer_q):
    # one alternating_optimize and the outage floor read on its stream
    # evaluate the Gaussian Q of each interior prefix of the grid once and
    # of each leaf once per distinct parent, in few-leaf blocks: the
    # stream that builds the kept tree also forms the whole tree, and
    # neither holds a leaf level. Parents whose child counts and running
    # sums (added in round order) are equal have children with equal F_M,
    # so Q is formed once per child of each such class of parents, after
    # one call per interior level
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    m = 4
    formed = optimizer_q
    fb = feedback_model.make_feedback_spec(-10.0)
    sol = optimizer.alternating_optimize(dl3, fb, default_template(), grid, 0.05)
    whole = optimizer._stream(grid, m, dl3, 0.05)[0]
    floor = optimizer._outage_floor(whole, oracles.error_pair(fb, sol.policy.alphas)[0])
    assert sol.feasible and floor <= sol.breakdown.p_out_unreliable
    units = enumerate_units(grid, m)
    interior = [len({tuple(row[:k + 1]) for row in units}) for k in range(m - 1)]
    parents, children = np.unique(units[:, :-1], axis=0, return_counts=True)
    rhos = parents * grid.unit_rho
    classes = set(zip(children.tolist(), np.cumsum(rhos, axis=1)[:, -1].tolist(),
                      np.cumsum(rhos * rhos, axis=1)[:, -1].tolist()))
    assert len(classes) < len(parents)
    assert formed[:m - 1] == interior
    # five entries per call
    table = sum(count for count, _, _ in classes)
    assert formed[m - 1:] == [5] * (table // 5) + [table % 5] * (table % 5 > 0)
    assert table < len(units)
    assert len(whole.F) == m - 1


def test_infeasible_bootstrap_reads_its_floor_lazily_on_its_stream(grid64, optimizer_q,
                                                                   monkeypatch):
    # at 0 dB no path has F_M <= 0.01, so the bootstrap raises before the
    # first iteration: it runs no outage floor until min_outage is read,
    # and reading it forms no Q, since the floor is read on the whole tree
    # of the solve's own stream
    dl0 = mi_model.make_downlink_spec(0.0)
    fb = feedback_model.make_feedback_spec(-10.0)
    floors = []
    real_floor = optimizer._outage_floor

    def floor_spy(*args):
        floors.append(args)
        return real_floor(*args)

    monkeypatch.setattr(optimizer, "_outage_floor", floor_spy)
    with pytest.raises(InfeasibleError) as exc:
        optimizer.alternating_optimize(dl0, fb, default_template(), grid64, 0.01)
    assert exc.value.iteration == 0 and not floors
    optimizer_q.clear()
    assert exc.value.min_outage > 0.01
    assert len(floors) == 1 and not optimizer_q
    assert floors[0][0] is optimizer._stream(grid64, 4, dl0, 0.01)[0]


def test_repeated_min_achievable_outage_streams_once(dl3, optimizer_q):
    # the public floor reads the whole tree of a stream that keeps no leaf
    # (epsilon -inf): a second call at other thresholds on the same grid
    # reads the same cache entry and forms no Q
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    fb = feedback_model.make_feedback_spec(-10.0)
    F = failure_table(grid, 3, dl3)
    optimizer._stream.cache_clear()
    for i, alphas in enumerate([(0.5, 0.5), (1.0, 1.5)]):
        floor = optimizer.min_achievable_outage(alphas, dl3, fb, grid)
        p_nack, _ = oracles.error_pair(fb, alphas)
        assert floor == harq_analysis.outage_from_failures(F, p_nack).min()
        assert bool(optimizer_q) == (i == 0)
        optimizer_q.clear()
    assert optimizer._stream.cache_info().currsize == 1


def test_feasible_argmax_prefers_fewer_units_then_path_order(dl3, monkeypatch):
    # real throughputs never tie across unit totals on the test grids, so
    # the tie rule is checked on planted ties: walking up from any leaf of
    # a block gives its row of the expanded table, and among tied leaves
    # the fewest total units win, then the first in path order, also when
    # the tied leaves lie in different blocks
    grid = optimizer.make_rate_grid(1024, 4096, 13)
    rhos = enumerate_units(grid, 3) * grid.unit_rho
    totals = np.rint(rhos / grid.unit_rho).sum(axis=1)
    many, few = np.flatnonzero(totals == 9)[[0, -1]], np.flatnonzero(totals == 5)[[-1, 0]]
    ties = ([many[0], few[0]], [few[0], many[0], few[1]], [many[1], many[0]])
    for size in (optimizer._BLOCK_LEAVES, 3):
        # epsilon 1 keeps every path, so the blocks' leaves are the table's rows
        monkeypatch.setattr(optimizer, "_BLOCK_LEAVES", size)
        optimizer._stream.cache_clear()
        blocks = optimizer._stream(grid, 3, dl3, 1.0)[1]
        ends = np.cumsum([0] + [b.nodes.count.sum() for b in blocks])
        for block, lo, hi in zip(blocks, ends, ends[1:]):
            assert optimizer._leaf_rates(block, np.arange(hi - lo)).tobytes() == \
                rhos[lo:hi].tobytes()
        for tied in ties:
            eta = np.full(rhos.shape[0], -np.inf)
            eta[::7] = 0.5
            eta[tied] = 1.0
            want = min(tied, key=lambda j: (totals[j], j))
            # per block with a feasible leaf, as the scan reads it: its
            # largest throughput and the rates of the leaves that reach it
            best = [(part.max(),
                     optimizer._leaf_rates(block, np.flatnonzero(part == part.max())))
                    for block, part in zip(blocks, np.split(eta, ends[1:-1]))
                    if part.max() > -np.inf]
            got, eta_max = optimizer._feasible_argmax(best, grid.unit_rho)
            assert got.tobytes() == rhos[want].tobytes() and eta_max == 1.0
    optimizer._stream.cache_clear()
    # with three-leaf blocks, every planted tie spans several blocks
    assert all(len(set(np.searchsorted(ends, tied, side="right"))) > 1 for tied in ties)


def test_m5_tree_build_peak_stays_under_twice_its_kept_tree():
    # m_max 5 on 32 units at 10 dB keeps 201,340 of 201,376 paths: the
    # stream that builds the kept tree must peak below 1.47 times the bytes
    # of that tree with its leaf level written out (about 4.1 MB; the
    # stream, which holds no leaf level, peaks at 4.8 MB with numpy 2.4 on
    # x86-64, 1.18 times, and the bound is 25% above that). Expanding the
    # kept paths into (paths, 5) rate and failure tables as well adds
    # 16.1 MB.
    grid = optimizer.make_rate_grid(1024, 4096, 32)
    dl = mi_model.make_downlink_spec(10.0)
    optimizer._stream.cache_clear()
    tracemalloc.start()
    try:
        blocks = optimizer._stream(grid, 5, dl, 0.01)[1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tree = kept_levels(blocks, 5, 0.01)
    assert [r.size for r in tree[0]] == [f.size for f in tree[1]] == \
        [27, 404, 4057, 31461, 201_340]
    kept = sum(a.nbytes for part in tree for a in part)
    # below twice the bytes of those expanded tables
    assert 2.0 * kept < 2 * 2 * 201_340 * 5 * 8
    assert peak < 1.47 * kept


def test_default_grid_stream_at_10_db_peaks_below_its_kept_leaves(grid64):
    # at 10 dB the default grid keeps 626,462 of its 635,376 leaves, whose
    # rates and failures take 10.0 MB. The stream holds no leaf array: it
    # forms each leaf's F_M once per distinct parent into a table of
    # 97,245 entries, and its traced peak stays below those 10.0 MB (about
    # 6.6 MB with numpy 2.4 on x86-64)
    dl = mi_model.make_downlink_spec(10.0)
    optimizer._stream.cache_clear()
    tracemalloc.start()
    try:
        blocks = optimizer._stream(grid64, 4, dl, 0.01)[1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    leaves = sum(int(is_kept(block_leaves(block)[2], 0.01).sum()) for block in blocks)
    assert leaves == 626_462
    assert blocks[0].table.size == 97_245
    assert peak < leaves * 2 * 8


def cli_optimize_high_water(tmp_path, config: str) -> tuple[float, float]:
    """(after import, at exit): the high-water marks in MiB of a child that
    imports the CLI and runs `optimize` on the config text. The child
    reports the high-water mark of its own memory map, VmHWM: its ru_maxrss
    would also count the memory of this process, which it inherits across
    fork and exec."""
    cfg = tmp_path / "optimize.cfg"
    cfg.write_text(config, encoding="utf-8")
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run_cli = ("import re, sys\n"
               "from harqopt import cli\n"
               "def high_water():\n"
               "    with open('/proc/self/status', encoding='ascii') as status:\n"
               "        return re.search(r'VmHWM:\\s*(\\d+) kB', status.read()).group(1)\n"
               "imported = high_water()\n"
               "rc = cli.main(sys.argv[1:])\n"
               "print(imported, high_water())\n"
               "sys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", run_cli, "optimize", "--config",
                           str(cfg), "--out", str(tmp_path / "out.csv")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    imported, peak = proc.stdout.split()[-2:]
    return int(imported) / 1024, int(peak) / 1024


@pytest.mark.parametrize("snr_d_db, bound_mib", [(3, 114), (10, 141)],
                         ids=["3dB", "10dB"])
def test_m5_cli_optimize_stays_under_its_peak_rss_bound(tmp_path, snr_d_db, bound_mib):
    # m_max 5 on 64 units: 7,624,512 paths, 122 MB of leaf rates and
    # failures, of which 3 dB keeps 3,030,226 and 10 dB nearly all, but
    # 190,786 entries of leaf table. CLI optimize must peak below 114 MiB
    # at 3 dB and 141 MiB at 10 dB: about 91 and 113 MiB with numpy 2.4 on
    # x86-64, and 25% above those
    _, peak_mib = cli_optimize_high_water(
        tmp_path, f"m_max = 5\nunits_total = 64\nsnr_d_db = {snr_d_db}\nsnr_u_db = -10\n")
    assert peak_mib < bound_mib


def test_default_cli_optimize_holds_no_whole_leaf_level(tmp_path):
    # on the default grid at 3 dB (635,376 paths, 67,254 kept), CLI optimize
    # holds no leaf level, only the leaf table of 97,245 entries: it must
    # raise the child's high-water mark less than 10 MiB above its mark
    # after import (about 6.5 MiB with numpy 2.4 on x86-64; holding the whole
    # tree's 10.2 MB of leaf rates and failures took 17 MiB)
    imported, peak = cli_optimize_high_water(tmp_path, "snr_d_db = 3\nsnr_u_db = -10\n")
    assert peak - imported < 10


def test_float_table_on_non_dyadic_grid(dl3):
    # unit_rho = 4000 / (36 * 1000) is not a power of two: the cached float
    # table must still round back to the enumerated units (epsilon 1 keeps
    # every path), and the production rate scan must match the scalar
    # oracle bit for bit
    grid = optimizer.make_rate_grid(1000, 4000, 36)
    kept_rhos, _, children = kept_levels(optimizer._stream(grid, 3, dl3, 1.0)[1], 3, 1.0)
    table_rhos = expand_all(kept_rhos, children)
    np.testing.assert_array_equal(np.rint(table_rhos / grid.unit_rho),
                                  enumerate_units(grid, 3))
    fb = feedback_model.make_feedback_spec(-10.0)
    p_nack, p_ack = oracles.error_pair(fb, (0.5, 1.0))
    feasible = [assert_scan_equals_brute_force(p_nack, p_ack, dl3, grid, 3, eps)
                for eps in (0.02, 0.05, 0.5)]
    assert feasible == [False, True, True]


@pytest.mark.parametrize("side", [-1, 0, 1])
def test_scan_keeps_paths_at_the_prune_boundary(dl3, side):
    # perfect feedback makes the outage 1 - (1 - F_M), which rounds to just
    # below F_M on the (4, 4, 4) path; that path meets a budget one ulp
    # under its own F_M and is the optimum there, so a prune of the rows
    # with F_M > epsilon that had no float slack would lose it
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    fb = feedback_model.make_feedback_spec(200.0)
    p_nack, p_ack = oracles.error_pair(fb, (0.5, 0.5))
    F = mi_model.p_fail_gaussian((1.0, 1.0, 1.0), dl3)
    f_m = float(F[-1])
    assert harq_analysis.outage_from_failures(F, p_nack) < f_m
    eps = float(np.nextafter(f_m, side)) if side else f_m
    assert assert_scan_equals_brute_force(p_nack, p_ack, dl3, grid, 3, eps)
    if side < 0:
        rhos, _ = optimizer.best_feasible_allocation((0.5, 0.5), dl3, fb, grid, eps)
        np.testing.assert_array_equal(rhos, [1.0, 1.0, 1.0])


def test_scan_with_no_kept_path_reports_whole_grid_floor(dl3):
    # a budget below every path's F_M keeps no row; the floor must still be
    # the smallest outage over all paths
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    p_nack, p_ack = oracles.error_pair(feedback_model.make_feedback_spec(-10.0), (0.5, 0.5))
    F = failure_table(grid, 3, dl3)
    eps = 0.5 * float(F[:, -1].min())
    blocks = optimizer._stream(grid, 3, dl3, eps)[1]
    kept_rhos, kept_F, children = kept_levels(blocks, 3, eps)
    assert all(a.size == 0 for a in kept_rhos + kept_F + children)
    assert blocks == ()
    assert not assert_scan_equals_brute_force(p_nack, p_ack, dl3, grid, 3, eps)


def test_scan_value_is_direct_throughput(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5, 1.0)
    snr_u = -10.0
    fb = feedback_model.make_feedback_spec(snr_u)
    rhos, value = optimizer.best_feasible_allocation(alphas, dl3, fb, grid, 0.05)
    direct = eval_policy(rhos, alphas, dl3, snr_u)
    assert direct.p_out_unreliable <= 0.05
    assert value == pytest.approx(direct.throughput, abs=1e-9)


def test_epsilon_at_floor_reaches_grid_minimum_outage(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5,)
    fb = feedback_model.make_feedback_spec(-10.0)
    floor = optimizer.min_achievable_outage(alphas, dl3, fb, grid)
    rhos, _ = optimizer.best_feasible_allocation(alphas, dl3, fb, grid, floor)
    achieved = eval_policy(rhos, alphas, dl3, -10.0).p_out_unreliable
    assert achieved == pytest.approx(floor, abs=1e-12)


def test_brute_force_single_round(dl3):
    # one round has no feedback: the empty thresholds give empty error pairs
    grid = optimizer.make_rate_grid(1024, 4096, 8)
    fb = feedback_model.make_feedback_spec(-10.0)
    p_nack, p_ack = oracles.error_pair(fb, ())
    assert p_nack.shape == p_ack.shape == (0,)
    r_bf, v_bf = oracles.brute_force_rate_allocation(p_nack, p_ack, dl3, grid, 1, 0.5)
    r_scan, v_scan = optimizer.best_feasible_allocation((), dl3, fb, grid, 0.5)
    assert v_bf == v_scan and r_bf[0] == r_scan[0]
    # the oracle takes m and requires error rates for m - 1 feedbacks
    with pytest.raises(ValueError):
        oracles.brute_force_rate_allocation(p_nack, p_ack, dl3, grid, 2, 0.5)


def test_single_round_outage_floor_is_the_least_failure(dl3):
    # with no feedback the outage of a one-round allocation is its F_1
    grid = optimizer.make_rate_grid(1024, 4096, 8)
    fb = feedback_model.make_feedback_spec(-10.0)
    floor = optimizer.min_achievable_outage((), dl3, fb, grid)
    assert floor == failure_table(grid, 1, dl3)[:, 0].min()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_scans_refuse_a_non_finite_threshold(dl3, bad):
    grid = optimizer.make_rate_grid(1024, 4096, 8)
    fb = feedback_model.make_feedback_spec(-10.0)
    with pytest.raises(ValueError, match="thresholds must be finite"):
        optimizer.best_feasible_allocation((0.5, bad), dl3, fb, grid, 0.05)
    with pytest.raises(ValueError, match="thresholds must be finite"):
        optimizer.min_achievable_outage((bad,), dl3, fb, grid)


def test_brute_force_value_monotone_in_epsilon(dl3):
    # a larger outage budget only enlarges the feasible set
    grid = optimizer.make_rate_grid(1024, 4096, 12)
    alphas = (0.5, 0.5)
    fb = feedback_model.make_feedback_spec(-10.0)
    p_nack, p_ack = oracles.error_pair(fb, alphas)
    floor = optimizer.min_achievable_outage(alphas, dl3, fb, grid)
    values = []
    for eps in np.geomspace(floor, 0.5, 12):
        _, v = oracles.brute_force_rate_allocation(p_nack, p_ack, dl3, grid, 3, float(eps))
        values.append(v)
    assert np.all(np.diff(values) >= 0.0)
    assert values[-1] > values[0]


def test_brute_force_budget_guard(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 64)
    alphas = (0.5,) * 5
    fb = feedback_model.make_feedback_spec(-10.0)
    p_nack, p_ack = oracles.error_pair(fb, alphas)
    with pytest.raises(GridError):
        oracles.brute_force_rate_allocation(p_nack, p_ack, dl3, grid, 6, 0.01)


def test_scan_at_loose_epsilon_returns_throughput_argmax(dl3):
    # with no binding budget the scan returns the grid's throughput argmax
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5,)
    fb = feedback_model.make_feedback_spec(-10.0)
    p_nack, p_ack = oracles.error_pair(fb, alphas)
    rhos, eta = optimizer.best_feasible_allocation(alphas, dl3, fb, grid, 0.999999)
    table_rhos = enumerate_units(grid, 2) * grid.unit_rho
    F = failure_table(grid, 2, dl3)
    P = harq_analysis.occurrence_probabilities(F, p_nack, p_ack)
    cost = harq_analysis.expected_cost(table_rhos, P)
    outage = harq_analysis.outage_from_failures(F, p_nack)
    assert outage.max() <= 0.999999
    best = int(np.argmax((1.0 - outage) / cost))
    np.testing.assert_array_equal(rhos, table_rhos[best])
    assert eta == (1.0 - outage[best]) / cost[best]


def test_scan_infeasible_names_floor(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5,)
    fb = feedback_model.make_feedback_spec(-10.0)
    with pytest.raises(InfeasibleError) as exc:
        optimizer.best_feasible_allocation(alphas, dl3, fb, grid, 0.02)
    floor = optimizer.min_achievable_outage(alphas, dl3, fb, grid)
    assert exc.value.min_outage == pytest.approx(floor, rel=1e-12)


def test_infeasible_scan_reads_whole_table_only_for_its_floor(dl3, monkeypatch):
    # callers that drop the error (the fixed-threshold scan) never pay for
    # the whole-grid outage floor; reading it evaluates it once, on the
    # whole tree, and the scan itself sees only the kept tree: some leaves
    # at epsilon 0.035, none at 0.02, below every path's F_M. Every pass
    # runs the outage recursion (_inner) on the interior levels of a tree
    # and records the node count of the last one
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    fb = feedback_model.make_feedback_spec(-10.0)
    nodes = len({row[0] for row in enumerate_units(grid, 2)})
    passes, floors = [], []
    real_inner, real_floor = harq_analysis._inner, optimizer._outage_floor

    def inner_spy(F, pn, spread):
        passes.append(F[-1].size)
        return real_inner(F, pn, spread)

    def floor_spy(*args):
        floors.append(args)
        return real_floor(*args)

    monkeypatch.setattr(harq_analysis, "_inner", inner_spy)
    monkeypatch.setattr(optimizer, "_outage_floor", floor_spy)
    for eps, kept in ((0.02, False), (0.035, True)):
        passes.clear()
        floors.clear()
        with pytest.raises(InfeasibleError) as exc:
            optimizer.best_feasible_allocation((0.5,), dl3, fb, grid, eps)
        assert bool(passes) == kept and not floors
        assert nodes not in passes
        scanned = len(passes)
        floor = exc.value.min_outage
        assert len(floors) == 1 and exc.value.min_outage == floor > eps
        assert passes[scanned:] == [nodes]


def random_scan_instances(seed, count, max_candidates):
    """Random scan instances (grid, m, dl, fb, alphas, epsilon): m_max 2-5
    on 8-32 units, at most max_candidates unit tuples before the budget
    filter (the brute-force oracle's loop), one threshold per feedback in
    ALPHA_BOX, uplink -15 to -5 dB, epsilon in [1e-3, 0.2], and the
    downlink at 3 and 10 dB in turn."""
    rng = np.random.default_rng(seed)
    dls = [mi_model.make_downlink_spec(3.0), mi_model.make_downlink_spec(10.0)]
    instances = []
    while len(instances) < count:
        m, units = int(rng.integers(2, 6)), int(rng.integers(8, 33))
        if units ** m > max_candidates:
            continue
        fb = feedback_model.make_feedback_spec(float(rng.uniform(-15.0, -5.0)))
        alphas = tuple(rng.uniform(*optimizer.ALPHA_BOX, size=m - 1))
        instances.append((optimizer.make_rate_grid(1024, 4096, units), m,
                          dls[len(instances) % 2], fb, alphas,
                          float(rng.uniform(1e-3, 0.2))))
    return instances


def check_node_outage_and_bound(blocks, kept_at, m, p_nack, p_ack, eps) -> int:
    """On every node of the last interior level of the tree kept at
    kept_at whose blocks are given, against its kept leaves evaluated row
    by row: the least outage is the smallest leaf outage bit for bit, so
    the node passes iff some leaf meets eps, and no positive leaf
    throughput exceeds the node's bound. The scan's leaves read the rows'
    throughput where the outage meets eps, and -inf elsewhere, also on
    the leaves that are not kept. Returns the number of nodes that pass."""
    tree_rhos, tree_F, children = kept_levels(blocks, m, kept_at)
    rhos = expand_all(tree_rhos, children)
    F = expand_all(tree_F, children)
    outage = harq_analysis.outage_from_failures(F, p_nack)
    P = harq_analysis.occurrence_probabilities(F, p_nack, p_ack)
    eta = (1.0 - outage) / harq_analysis.expected_cost(rhos, P)
    passed = start = 0
    for block in blocks:
        owner, _, leaf_F = block_leaves(block)
        keep = is_kept(leaf_F, kept_at)
        count = np.bincount(owner[keep], minlength=block.nodes.count.size)
        first = np.cumsum(count) - count
        rows = slice(start, start + keep.sum())
        start = rows.stop
        inner, least = optimizer._node_outage(block, p_nack)
        assert least.tobytes() == np.minimum.reduceat(outage[rows], first).tobytes()
        meets = np.logical_or.reduceat(outage[rows] <= eps, first)
        assert np.array_equal(least <= eps, meets)
        cost, p_last, bound = optimizer._node_bound(block, p_nack, p_ack, least)
        assert np.all((eta[rows] <= np.repeat(bound, count)) | (eta[rows] <= 0.0))
        leaves, leaf_eta = optimizer._leaf_eta(block, (inner, cost, p_last),
                                               np.arange(count.size), eps)
        assert leaves.tolist() == list(range(owner.size))
        want = np.full(owner.size, -np.inf)
        want[keep] = np.where(outage[rows] <= eps, eta[rows], -np.inf)
        assert leaf_eta.tobytes() == want.tobytes()
        passed += int(meets.sum())
    assert start == rhos.shape[0]
    return passed


@pytest.mark.parametrize("blocks", ["default", "few"])
def test_node_outage_and_bound_are_exact_on_random_instances(blocks, request):
    # the scan decides feasibility on the (M - 1)-round prefixes and reads
    # the leaves only below the nodes whose bound reaches its incumbent:
    # on random instances the test must be exact and the bound must hold
    # for every leaf, kept by the instance's epsilon or (epsilon 1) all
    if blocks == "few":
        request.getfixturevalue("few_leaf_blocks")
    passed = []
    for grid, m, dl, fb, alphas, eps in random_scan_instances(27, 16, 300_000):
        p_nack, p_ack = oracles.error_pair(fb, alphas)
        for budget in (eps, 1.0):
            blocks = optimizer._stream(grid, m, dl, budget)[1]
            passed.append(check_node_outage_and_bound(blocks, budget, m, p_nack, p_ack,
                                                      budget))
    assert sum(p > 0 for p in passed[::2]) >= 4


def test_node_outage_and_bound_are_exact_at_any_error_rates():
    # the same checks on error rates outside what thresholds give, up to
    # a NACK rate of 1: at -10 dB, where many prefixes fail for certain,
    # the outage's running term then rounds below zero on some nodes,
    # whose least outage lies at their largest F_M
    rng = np.random.default_rng(28)
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    below_zero = 0
    for m in (2, 3, 4, 5):
        blocks = optimizer._stream(grid, m, mi_model.make_downlink_spec(-10.0), 1.0)[1]
        for p_nack in (rng.uniform(0.0, 1.0, m - 1), np.ones(m - 1),
                       *(np.r_[rng.uniform(0.0, 1.0, m - 2), 1.0] for _ in range(3))):
            p_ack = rng.uniform(0.0, 1.0, m - 1)
            for eps in (0.5, 1.0):
                check_node_outage_and_bound(blocks, 1.0, m, p_nack, p_ack, eps)
            below_zero += sum(int(np.sum(optimizer._node_outage(block, p_nack)[0] < 0.0))
                              for block in blocks)
    assert below_zero > 0


@pytest.mark.parametrize("blocks", ["default", "few"])
def test_scan_equals_brute_force_on_random_instances_at_3_and_10_db(blocks, request):
    if blocks == "few":
        request.getfixturevalue("few_leaf_blocks")
    # each instance also at epsilon 1e-6, below every outage here, where
    # the scan and the oracle raise with the same floor
    feasible = []
    for grid, m, dl, fb, alphas, eps in random_scan_instances(29, 8, 60_000):
        p_nack, p_ack = oracles.error_pair(fb, alphas)
        for budget in (eps, 1e-6):
            feasible.append(assert_scan_equals_brute_force(p_nack, p_ack, dl, grid, m,
                                                           budget))
    assert sum(feasible) >= 5 and not all(feasible)


def test_min_achievable_outage_is_the_leaf_minimum_on_random_instances():
    for grid, m, dl, fb, alphas, _ in random_scan_instances(30, 10, 300_000):
        p_nack, _ = oracles.error_pair(fb, alphas)
        want = harq_analysis.outage_from_failures(failure_table(grid, m, dl), p_nack).min()
        assert optimizer.min_achievable_outage(alphas, dl, fb, grid) == want


@pytest.fixture
def failure_curve(monkeypatch):
    """use(curve) puts prefix failures curve(rate sum) in place of the
    Gaussian Q of every tree and of p_fail_gaussian; the stream cache is
    emptied each time and afterwards."""
    def use(curve):
        monkeypatch.setattr(mi_model, "_q_of_sums", lambda s1, s2, spec: curve(s1))
        optimizer._stream.cache_clear()

    yield use
    optimizer._stream.cache_clear()


@pytest.mark.parametrize("m", [3, 4, 5])
def test_node_bound_holds_where_failures_rise_along_a_path(dl3, failure_curve, m):
    # failures 0.1, then 0.5, then 0.001 as the rate sum grows: with the
    # first feedback always right, every later NACK missed and ACKs missed
    # at rate 0.2, P_M is negative on some nodes, so a leaf's cost falls
    # with its last rate and the least cost lies at the node's last child
    # (every cost stays positive). Node test and bound stay exact, and the
    # scan equals the oracle
    failure_curve(lambda s1: np.select([s1 < 1.0, s1 < 2.0], [0.1, 0.5], 0.001))
    grid = optimizer.make_rate_grid(1024, 4096, 12)
    p_nack, p_ack = (0.0,) + (1.0,) * (m - 2), (0.0,) + (0.2,) * (m - 2)
    blocks = optimizer._stream(grid, m, dl3, 1.0)[1]
    assert check_node_outage_and_bound(blocks, 1.0, m, p_nack, p_ack, 1.0) > 0
    negative = 0
    for block in blocks:
        _, least = optimizer._node_outage(block, p_nack)
        negative += int(np.sum(optimizer._node_bound(block, p_nack, p_ack, least)[1] < 0.0))
    assert negative > 0
    for eps in (0.2, 0.6, 1.0):
        assert_scan_equals_brute_force(p_nack, p_ack, dl3, grid, m, eps)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("blocks", ["default", "few"])
def test_scan_keeps_ties_planted_across_subtrees(dl3, failure_curve, m, blocks, request):
    # on 16 units of rate 1/4, with failures 1.0 below a rate sum of 12
    # units and 2^-10 from there on and with no feedback errors,
    # round i happens iff the first i - 1 rounds fail, so every allocation
    # of exactly 12 units costs 3.0 exactly and has the largest throughput
    # (1 - 2^-10) / 3, a tie across many (M - 1)-round prefixes (and, in
    # few-leaf blocks, across blocks) whose nodes' bounds equal it. The
    # scan must read them all and return the first in path order, as the
    # oracle does
    if blocks == "few":
        request.getfixturevalue("few_leaf_blocks")
    failure_curve(lambda s1: np.where(s1 < 2.875, 1.0, 2.0 ** -10))
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    zero = (0.0,) * (m - 1)
    rhos = enumerate_units(grid, m) * grid.unit_rho
    F = failure_table(grid, m, dl3)
    P = harq_analysis.occurrence_probabilities(F, zero, zero)
    eta = (1.0 - harq_analysis.outage_from_failures(F, zero)) / \
        harq_analysis.expected_cost(rhos, P)
    tied = np.flatnonzero(eta == eta.max())
    assert eta.max() == (1.0 - 2.0 ** -10) / 3.0
    assert len(tied) == math.comb(11, m - 1)
    assert len({tuple(row[:-1]) for row in rhos[tied]}) > 1
    assert assert_scan_equals_brute_force(zero, zero, dl3, grid, m, 0.01)
    got, _ = optimizer._rate_scan(zero, zero, dl3, grid, 0.01)
    assert got.tobytes() == rhos[tied[0]].tobytes()


@pytest.mark.parametrize("snr_d_db, alpha, most", [(3.0, 1.5, 0.05), (10.0, 1.0, 0.005)])
def test_scan_reads_few_kept_leaves_on_the_default_grid(grid64, monkeypatch,
                                                        snr_d_db, alpha, most):
    # the node bound leaves most kept leaves unread: at 3 / -10 dB (67,254
    # kept leaves, 2,516 read) and 10 / -10 dB (626,462 kept, 1,005 read),
    # at most the given share
    dl = mi_model.make_downlink_spec(snr_d_db)
    fb = feedback_model.make_feedback_spec(-10.0)
    read = []
    real_leaf_eta = optimizer._leaf_eta

    def leaf_eta_spy(block, last, nodes, eps):
        leaves, eta = real_leaf_eta(block, last, nodes, eps)
        read.append(leaves.size)
        return leaves, eta

    monkeypatch.setattr(optimizer, "_leaf_eta", leaf_eta_spy)
    optimizer.best_feasible_allocation((alpha,) * 3, dl, fb, grid64, 0.01)
    kept = sum(int(is_kept(block_leaves(block)[2], 0.01).sum())
               for block in optimizer._stream(grid64, 4, dl, 0.01)[1])
    assert 0 < sum(read) <= most * kept


def test_kept_rows_cache_is_bounded(dl3):
    # an epsilon ladder over one table, with a floor read at each rung,
    # holds at most four streams, so at most four kept trees and the four
    # whole trees they are pruned from
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    fb = feedback_model.make_feedback_spec(-10.0)
    for eps in np.geomspace(1e-4, 0.5, 20):
        optimizer._stream(grid, 3, dl3, float(eps))
        optimizer.min_achievable_outage((0.5, 0.5), dl3, fb, grid)
    assert optimizer._stream.cache_info().currsize <= 4


@pytest.mark.parametrize("eps", [0.045, 0.05, 0.07, 0.10])
def test_scan_matches_constrained_enumeration(dl3, eps):
    # the exact scan reaches the constrained optimum at every budget, also
    # off the cost/outage convex hull (0.05 here), where a Lagrangian
    # search over cost + lambda * outage cannot
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5,)
    fb = feedback_model.make_feedback_spec(-10.0)
    rhos, _ = optimizer.best_feasible_allocation(alphas, dl3, fb, grid, eps)
    got = eval_policy(rhos, alphas, dl3, -10.0)
    assert got.p_out_unreliable <= eps
    best = -1.0
    for u1 in range(1, 16):
        for u2 in range(1, 17 - u1):
            bd = eval_policy((u1 * grid.unit_rho, u2 * grid.unit_rho),
                             alphas, dl3, -10.0)
            if bd.p_out_unreliable <= eps:
                best = max(best, bd.throughput)
    assert got.throughput == best


def test_best_feasible_allocation_is_enumeration_argmax(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5,)
    fb = feedback_model.make_feedback_spec(-10.0)
    rhos, eta = optimizer.best_feasible_allocation(alphas, dl3, fb, grid, 0.05)
    best = (-1.0, None)
    for u1 in range(1, 16):
        for u2 in range(1, 17 - u1):
            bd = eval_policy((u1 * grid.unit_rho, u2 * grid.unit_rho),
                             alphas, dl3, -10.0)
            if bd.p_out_unreliable <= 0.05 and bd.throughput > best[0]:
                best = (bd.throughput, (u1 * grid.unit_rho, u2 * grid.unit_rho))
    assert eta == pytest.approx(best[0], rel=1e-12)
    assert tuple(rhos) == pytest.approx(best[1])
    with pytest.raises(InfeasibleError) as exc:
        optimizer.best_feasible_allocation(alphas, dl3, fb, grid, 1e-4)
    assert exc.value.min_outage > 1e-4


def tree_bisect_upper(lo, hi, ok, steps, depth):
    # an independent reference for the bisection: each call probes every
    # midpoint the next `depth` halvings can visit, a subtree in heap order
    # built with the same 0.5 (lo + hi) arithmetic, and walks it down
    while steps > 0:
        d = min(depth, steps)
        # node j of a level holds [edges[j], edges[j + 1]]
        edges = np.array([lo, hi])
        mids = []
        for _ in range(d):
            mid = 0.5 * (edges[:-1] + edges[1:])
            mids.append(mid)
            finer = np.empty(2 * edges.size - 1)
            finer[0::2] = edges
            finer[1::2] = mid
            edges = finer
        mids = np.concatenate(mids)
        good = [ok(float(p)) for p in mids]
        node = 0
        for _ in range(d):
            # node i has children 2i + 1 (ok) and 2i + 2
            if good[node]:
                hi = mids[node]
                node = 2 * node + 1
            else:
                lo = mids[node]
                node = 2 * node + 2
        steps -= d
    return hi


PREDICATES = {
    "monotone": lambda t: t >= 0.3183098861837907,
    "oscillating": lambda t: math.sin(1e4 * t) > 0.0,
    "mantissa-bits": lambda t: (int(np.float64(t).view(np.int64)) >> 17) % 3 == 0,
}


@pytest.mark.parametrize("name", sorted(PREDICATES))
@pytest.mark.parametrize("steps", [1, 9, 10, 23, 60])
@pytest.mark.parametrize("depth", [1, 3, 10])
def test_tree_bisection_equals_sequential(name, steps, depth):
    # the bootstrap's one-probe-per-halving bisection takes the decisions of
    # a batched probe tree of any depth bit for bit, monotone predicate or not
    pred = PREDICATES[name]
    probes = []

    def ok(t):
        probes.append(t)
        return pred(t)

    got = optimizer._bisect_upper(-0.7, 2.9, ok, steps)
    want = tree_bisect_upper(-0.7, 2.9, pred, steps, depth)
    assert float(got).hex() == float(want).hex()
    assert len(probes) == steps


def search(rhos, dl, fb, epsilon, start):
    # the threshold search takes a feasible start and its throughput, as the
    # alternating loop hands them over
    F = mi_model.p_fail_gaussian(rhos, dl)
    x = np.asarray(start, dtype=float)
    eta = optimizer._throughput(rhos, F, x, fb, epsilon)
    assert eta is not None
    al, eta_al = optimizer._search(rhos, F, fb, epsilon, x, eta)
    assert eta_al == optimizer._throughput(rhos, F, al, fb, epsilon) >= eta
    return al


def test_search_perfect_feedback_prefers_low_thresholds(dl3):
    # throughput is flat in every threshold below 1 here, and ties on a
    # downward step are taken, so the search settles at the box floor
    fb = feedback_model.make_feedback_spec(200.0)
    al = search((1.0, 1.0, 1.0, 1.0), dl3, fb, 0.01, (0.5,) * 3)
    np.testing.assert_allclose(al, optimizer.ALPHA_BOX[0], atol=1e-12)


def test_search_single_threshold_matches_dense_scan(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    rhos = (7 * grid.unit_rho, 7 * grid.unit_rho)
    fb = feedback_model.make_feedback_spec(-10.0)
    al = search(rhos, dl3, fb, 0.05, (0.5,))
    got = eval_policy(rhos, al, dl3, -10.0)
    assert got.p_out_unreliable <= 0.05 * (1.0 + 1e-9)
    best = -1.0
    for a in np.linspace(*optimizer.ALPHA_BOX, 3001):
        bd = eval_policy(rhos, (float(a),), dl3, -10.0)
        if bd.p_out_unreliable <= 0.05:
            best = max(best, bd.throughput)
    assert abs(got.throughput - best) <= 1e-3
    assert got.throughput >= best - 1e-6  # local method may only beat the scan


def test_search_beats_uniform_scan_at_equal_rates(dl3):
    # thresholds of 0.5 miss the budget at these rates; the top of the box
    # meets it
    rhos = (1.0, 1.0, 1.0, 1.0)
    fb = feedback_model.make_feedback_spec(-10.0)
    assert eval_policy(rhos, (0.5,) * 3, dl3, -10.0).p_out_unreliable > 0.01
    al = search(rhos, dl3, fb, 0.01, (optimizer.ALPHA_BOX[1],) * 3)
    got = eval_policy(rhos, al, dl3, -10.0)
    best = -1.0
    for a in np.linspace(*optimizer.ALPHA_BOX, 50):
        bd = eval_policy(rhos, (float(a),) * 3, dl3, -10.0)
        if bd.p_out_unreliable <= 0.01:
            best = max(best, bd.throughput)
    assert got.throughput >= best - 1e-6
    assert got.p_out_unreliable <= 0.01 * (1.0 + 1e-9)


def test_search_with_one_round_returns_no_thresholds_unprobed(dl3, monkeypatch):
    rhos = (1.5,)
    F = mi_model.p_fail_gaussian(rhos, dl3)
    fb = feedback_model.make_feedback_spec(-10.0)
    eta = optimizer._throughput(rhos, F, np.empty(0), fb, 0.05)
    probes = []
    monkeypatch.setattr(feedback_model, "nack_error_rate",
                        lambda *args: probes.append(args))
    al, eta_al = optimizer._search(rhos, F, fb, 0.05, np.empty(0), eta)
    assert al.shape == (0,) and eta_al == eta and probes == []


def default_template():
    return harq_analysis.HarqPolicy(
        rhos=(0.5, 0.5, 0.5, 0.5), alphas=(0.5, 0.5, 0.5), n_b=1024,
    )


def test_alternating_default_run(dl3, grid64):
    fb = feedback_model.make_feedback_spec(-10.0)
    sol = optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 0.01)
    assert sol.feasible and sol.converged
    assert sol.iterations <= optimizer._ALT_MAX_ITERS
    assert sol.breakdown.p_out_unreliable <= 0.01 * (1.0 + 1e-6)
    assert sum(sol.policy.rhos) <= 4.0 + 1e-12
    trace = np.asarray(sol.trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert trace[-1] == pytest.approx(sol.breakdown.throughput, abs=1e-12)


@pytest.mark.parametrize("snr_d_db, rhos, alphas, eta", [
    pytest.param(3.0, (1.3125, 0.9375, 0.875, 0.875),
                 (0.9865127101102189,) * 3, 0.42357617044804974, id="3dB"),
    pytest.param(10.0, (0.625, 0.3125, 0.3125, 0.5625),
                 (0.5, 0.5, 0.49107666015625), 1.2151407284268068, id="10dB"),
])
def test_alternating_pinned_outputs(grid64, snr_d_db, rhos, alphas, eta):
    # the exact results of the pattern search from the CLI default start at
    # -10 dB uplink; at 3 dB the outage budget binds at the bootstrap's
    # uniform level, where no single-coordinate step is both feasible and
    # better, so the thresholds stay there
    start = dataclasses.replace(default_template(), rhos=(1.0,) * 4)
    dl = mi_model.make_downlink_spec(snr_d_db)
    fb = feedback_model.make_feedback_spec(-10.0)
    sol = optimizer.alternating_optimize(dl, fb, start, grid64, 0.01)
    assert sol.policy.rhos == rhos
    assert [repr(a) for a in sol.policy.alphas] == [repr(a) for a in alphas]
    assert sol.breakdown.throughput == eta
    assert sol.iterations == 2


def test_alternating_search_starts_at_the_feasible_incumbent(grid64, monkeypatch):
    # the loop hands the threshold search the current thresholds and the
    # incumbent's throughput there without re-checking either: they must
    # meet epsilon for the incumbent rates, and eta_x must equal a fresh
    # evaluation at them bit for bit
    search = optimizer._search
    calls = []

    def spy(rhos, F, fb, epsilon, x, eta_x):
        fresh = optimizer._throughput(rhos, mi_model.p_fail_gaussian(rhos, dl), x,
                                      fb, epsilon)
        assert fresh is not None and fresh == eta_x
        assert np.all((optimizer.ALPHA_BOX[0] <= x) & (x <= optimizer.ALPHA_BOX[1]))
        calls.append(eta_x)
        return search(rhos, F, fb, epsilon, x, eta_x)

    monkeypatch.setattr(optimizer, "_search", spy)
    fb = feedback_model.make_feedback_spec(-10.0)
    default = dataclasses.replace(default_template(), rhos=(1.0,) * 4)
    rng = np.random.default_rng(20261018)
    starts = [(3.0, default), (10.0, default)]
    for snr_d_db in (3.0, 3.0, 3.0, 10.0, 10.0, 10.0):
        units = rng.multinomial(60, [0.25] * 4) + 1
        starts.append((snr_d_db, dataclasses.replace(
            default, rhos=tuple(units * grid64.unit_rho),
            alphas=tuple(rng.uniform(-0.5, 3.5, size=3)))))
    for snr_d_db, start in starts:
        dl = mi_model.make_downlink_spec(snr_d_db)
        before = len(calls)
        sol = optimizer.alternating_optimize(dl, fb, start, grid64, 0.01)
        # one search per iteration, whose result ends the trace
        assert len(calls) - before == sol.iterations
        assert sol.trace[-1] == pytest.approx(sol.breakdown.throughput, abs=1e-12)


def test_alternating_beats_the_gradient_solver_at_10db(grid64):
    # the gradient-ascent threshold step that the pattern search replaced
    # reached 1.2148289546899769 from the CLI default start at 10 / -10 dB
    start = dataclasses.replace(default_template(), rhos=(1.0,) * 4)
    dl = mi_model.make_downlink_spec(10.0)
    fb = feedback_model.make_feedback_spec(-10.0)
    sol = optimizer.alternating_optimize(dl, fb, start, grid64, 0.01)
    assert sol.feasible
    assert sol.breakdown.throughput > 1.2148289546899769


def test_alternating_deterministic(dl3, grid64):
    fb = feedback_model.make_feedback_spec(-10.0)
    a = optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 0.01)
    b = optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 0.01)
    assert a.policy.rhos == b.policy.rhos
    assert a.policy.alphas == b.policy.alphas
    assert a.breakdown.throughput == b.breakdown.throughput


def test_alternating_warm_start_converges_immediately(dl3, grid64):
    fb = feedback_model.make_feedback_spec(-10.0)
    cold = optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 0.01)
    warm = optimizer.alternating_optimize(dl3, fb, cold.policy, grid64, 0.01)
    assert warm.iterations == 1
    assert warm.breakdown.throughput >= cold.breakdown.throughput - 1e-12


def test_alternating_rejects_infeasible_seed(dl3, grid64):
    # a warm-start pair violating the outage budget must not survive as the
    # returned incumbent just because its (unconstrained) throughput is high
    start = dataclasses.replace(
        default_template(),
        rhos=tuple(u / 16 for u in (17, 11, 20, 16)),
        alphas=(0.373173, 0.662475, 0.517323),
    )
    fb = feedback_model.make_feedback_spec(-10.0)
    sol = optimizer.alternating_optimize(dl3, fb, start, grid64, 0.01)
    assert sol.feasible
    assert sol.breakdown.p_out_unreliable <= 0.01 * (1.0 + 1e-6)


def test_alternating_infeasible_carries_iteration(dl3, grid64):
    fb = feedback_model.make_feedback_spec(-15.0)
    with pytest.raises(InfeasibleError) as exc:
        optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 1e-5)
    assert hasattr(exc.value, "iteration")


def test_alternating_infeasible_box_certificate_at_0db(grid64):
    # at 0 dB no path has F_M <= 0.01, so the thresholds are never raised:
    # the error comes before the first iteration and names the outage
    # floor at the top of the box
    dl0 = mi_model.make_downlink_spec(0.0)
    fb = feedback_model.make_feedback_spec(-10.0)
    assert optimizer._stream(grid64, 4, dl0, 0.01)[1] == ()
    with pytest.raises(InfeasibleError) as exc:
        optimizer.alternating_optimize(dl0, fb, default_template(), grid64, 0.01)
    assert exc.value.iteration == 0
    top = np.full(3, optimizer.ALPHA_BOX[1])
    assert exc.value.min_outage == optimizer.min_achievable_outage(top, dl0, fb,
                                                                   grid64)
    assert exc.value.min_outage > 0.01


def test_alternating_in_few_leaf_blocks_equals_default_blocks(monkeypatch, caplog):
    # the rate scans, the feasibility bootstrap and the infeasibility
    # certificate read the trees block by block: with few-leaf blocks every
    # solution and certificate equals the one at the default block sizes
    cases = [(16, 10.0, -15.0, 1e-3), (23, 3.0, -10.0, 0.01), (23, 10.0, -10.0, 0.01),
             (23, 3.0, -15.0, 1e-3)]

    def solve_all():
        optimizer._stream.cache_clear()
        out = []
        for units, snr_d, snr_u, eps in cases:
            m = 3 if units == 16 else 4
            start = harq_analysis.HarqPolicy(rhos=(1.0,) * m, alphas=(0.0,) * (m - 1),
                                             n_b=1024)
            try:
                sol = optimizer.alternating_optimize(
                    mi_model.make_downlink_spec(snr_d), feedback_model.make_feedback_spec(snr_u),
                    start, optimizer.make_rate_grid(1024, 4096, units), eps)
            except InfeasibleError as err:
                out.append((float(err.min_outage).hex(), err.iteration))
            else:
                out.append((sol.policy, sol.breakdown, sol.trace, sol.converged, sol.feasible))
        return out

    want = solve_all()
    monkeypatch.setattr(optimizer, "_BLOCK_LEAVES", 3)
    with caplog.at_level(logging.DEBUG, logger=optimizer.__name__):
        got = solve_all()
    optimizer._stream.cache_clear()
    assert got == want
    # two cases raise their start thresholds, one solves from them and one
    # cannot meet its budget at any thresholds
    assert caplog.text.count("raised start thresholds") == 2
    assert [len(r) for r in want] == [5, 5, 5, 2]


def test_alternating_optimize_solves_the_two_slot_spec(dl3, grid64):
    # the bootstrap and the threshold search read the spec's maps, so the
    # duplicated ACK with a free threshold is solved like any scheme: at
    # alpha 0 it misses the budget at -10 dB, and the bootstrap raises it
    start = dataclasses.replace(default_template(), alphas=(0.0,) * 3)
    fb = feedback_model.make_feedback_spec(-10.0, slots=2)
    sol = optimizer.alternating_optimize(dl3, fb, start, grid64, 0.01)
    assert sol.feasible and min(sol.policy.alphas) > 0.0
    assert sol.breakdown == harq_analysis.unreliable_throughput(sol.policy, dl3, fb)
    one = optimizer.alternating_optimize(dl3, dataclasses.replace(fb, slots=1), start,
                                         grid64, 0.01)
    # two slots spend twice the uplink energy per feedback
    assert sol.breakdown.throughput > one.breakdown.throughput


def test_alternating_beats_duplicated_ack_baseline(dl3, grid64):
    # the two-slot ACK baseline cannot even meet the outage budget at this
    # uplink SNR, while the asymmetric solver can
    fb = feedback_model.make_feedback_spec(-10.0)
    sol = optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 0.01)
    with pytest.raises(InfeasibleError):
        optimizer.best_feasible_allocation((0.0,) * 3, dl3, dataclasses.replace(fb, slots=2),
                                           grid64, 0.01)
    assert sol.breakdown.throughput > 0.0
