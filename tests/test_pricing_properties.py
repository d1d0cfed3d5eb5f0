"""Property tests for the chain pricer: over unit blocks against brute
force over all chains and against the per-job heap sweep it replaced, over
coarser blocks against the per-completion-block loop of the block pricer it
replaced, and over several machines against the per-machine pricer with its
per-chain loop (``chain_reference``).  The references are kept here, as
they were in the library."""

import heapq
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from alphasched.chain_lp import (  # noqa: E402
    PRICE_TOL,
    CompressedTimeline,
    price_chain_multi,
)
from chain_reference import enumerate_chains, price_machine, price_machine_loop  # noqa: E402


def heap_sweep(xi_row, eta_j, weight, size, release, horizon, buckets):
    """Per completion bucket, (min reduced cost, first C reaching it): a
    sweep over C holding the p - 1 smallest window duals in a max-heap of
    the selected ones and a min-heap of the rest."""
    p = size
    first_c = release + p
    if first_c > horizon:
        return [(math.inf, -1)] * buckets
    span = horizon - first_c + 1
    selected: list = []
    reserve: list = []
    sel_sum = 0.0
    best = [(math.inf, -1)] * buckets
    for t in range(release + 1, first_c):
        heapq.heappush(selected, -xi_row[t - 1])
        sel_sum += xi_row[t - 1]
    for C in range(first_c, horizon + 1):
        if C > first_c:
            v = xi_row[C - 2]
            if len(selected) < p - 1:
                heapq.heappush(selected, -v)
                sel_sum += v
            elif selected and v < -selected[0]:
                worst = -heapq.heapreplace(selected, -v)
                sel_sum += v - worst
                heapq.heappush(reserve, worst)
            else:
                heapq.heappush(reserve, v)
        cost = weight * C + sel_sum + xi_row[C - 1] - eta_j
        b = (C - first_c) * buckets // span
        if cost < best[b][0] - 1e-15:
            best[b] = (cost, C)
    return best


def brute_force_buckets(xi_row, eta_j, weight, size, release, horizon, buckets):
    """Per completion bucket, the min reduced cost over every chain."""
    first_c = release + size
    best = [math.inf] * buckets
    if first_c > horizon:
        return best
    span = horizon - first_c + 1
    for slots in enumerate_chains(release, size, horizon):
        b = (slots[-1] - first_c) * buckets // span
        cost = weight * slots[-1] + sum(xi_row[t - 1] for t in slots) - eta_j
        best[b] = min(best[b], cost)
    return best


def close(a, b):
    return abs(a - b) <= 1e-12 * (1.0 + abs(b))


def sparse_duals(rng, size, density, grid):
    """Non-negative duals, mostly zero; on a grid of quarters they tie."""
    values = rng.integers(1, 12, size) / 4.0 if grid else rng.uniform(0.0, 3.0, size)
    return np.where(rng.random(size) < density, values, 0.0)


@st.composite
def pricing_cases(draw, max_horizon):
    H = draw(st.integers(1, max_horizon))
    n = draw(st.integers(1, 5))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xi = sparse_duals(rng, H, draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])), grid)
    sizes = rng.integers(1, min(H, 8) + 1, n)
    releases = rng.integers(0, H + 1, n)  # release + size may pass the horizon
    weights = rng.integers(1, 33, n) / 8.0 if grid else rng.uniform(0.1, 4.0, n)
    # eta around the cheapest completion's cost, so some buckets price
    # below zero and some do not
    eta = weights * (releases + sizes) + rng.uniform(-2.0, 0.5 * H, n)
    if grid:
        eta = np.round(eta * 8.0) / 8.0
    buckets = draw(st.sampled_from([1, 4]))
    jobs = rng.permutation(10)[:n]
    return xi, jobs, eta, weights, sizes, releases, H, buckets


def check_against(ref_buckets, case, found, best):
    """``ref_buckets[k]`` lists job k's per-bucket minimum costs."""
    xi, jobs, eta, weights, sizes, releases, H, buckets = case
    order = [list(jobs).index(c.job) for c, _ in found]
    assert order == sorted(order)  # job by job
    for k, job in enumerate(jobs):
        mins = ref_buckets[k]
        if math.isinf(min(mins)):
            assert math.isinf(best[k])
        else:
            assert close(best[k], min(mins))
        first_c = releases[k] + sizes[k]
        got = {}
        for chain, cost in found:
            if chain.job != job:
                continue
            chain.validate(int(releases[k]), H, int(sizes[k]))
            assert chain.machine == 3
            b = (chain.completion - first_c) * buckets // (H - first_c + 1)
            assert b not in got
            got[b] = cost
            assert close(cost, mins[b])
            rc = weights[k] * chain.completion + sum(xi[t - 1] for t in chain.slots) - eta[k]
            assert close(rc, mins[b])
        expected = {b for b, m in enumerate(mins) if m < -PRICE_TOL}
        unclear = {b for b, m in enumerate(mins) if abs(m + PRICE_TOL) < 1e-9}
        assert set(got) - unclear == expected - unclear


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pricing_cases(max_horizon=10))
def test_batched_pricer_matches_brute_force(case):
    xi, jobs, eta, weights, sizes, releases, H, buckets = case
    found, best = price_machine(3, xi, jobs, eta, weights, sizes, releases, H, buckets)
    ref = [
        brute_force_buckets(xi, eta[k], weights[k], int(sizes[k]), int(releases[k]), H, buckets)
        for k in range(len(jobs))
    ]
    check_against(ref, case, found, best)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pricing_cases(max_horizon=300))
def test_batched_pricer_matches_heap_sweep(case):
    xi, jobs, eta, weights, sizes, releases, H, buckets = case
    found, best = price_machine(3, xi, jobs, eta, weights, sizes, releases, H, buckets)
    ref = [
        [cost for cost, _ in heap_sweep(xi, eta[k], weights[k], int(sizes[k]), int(releases[k]), H, buckets)]
        for k in range(len(jobs))
    ]
    check_against(ref, case, found, best)


def test_batched_pricer_rejects_negative_duals():
    with pytest.raises(ValueError):
        price_machine(0, np.array([0.0, -1.0, 0.0]), [0], [5.0], [1.0], [2], [0], 3)


def block_loop(xi_blocks, eta_j, weight, size, release, timeline):
    """Per completion block k*, one slot there plus the p - 1 cheapest
    remaining slots in blocks up to k*, by an argsort per k*.  Returns
    (per-block slot counts or None, cost)."""
    ends, starts = timeline.ends, timeline.starts
    avail = np.maximum(ends - np.maximum(starts, release), 0).astype(np.int64)
    best = (math.inf, None)
    for kstar in range(len(ends)):
        if avail[kstar] < 1 or int(avail[: kstar + 1].sum()) < size:
            continue
        order = np.argsort(xi_blocks[: kstar + 1], kind="stable")
        need = size - 1
        cost = weight * float(ends[kstar]) + xi_blocks[kstar] - eta_j
        counts = np.zeros(len(ends), dtype=np.int64)
        counts[kstar] = 1
        for k in order:
            if need == 0:
                break
            take = int(min(avail[k] - counts[k], need))
            if take > 0:
                counts[k] += take
                need -= take
                cost += take * xi_blocks[k]
        if cost < best[0] - 1e-15:
            best = (cost, counts)
    return best[1], best[0]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.integers(2, 120),
    st.integers(1, 12),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_block_pricer_matches_per_block_loop(H, num_ends, grid, density, seed):
    rng = np.random.default_rng(seed)
    ends = np.unique(np.append(rng.integers(1, H, num_ends), H))
    timeline = CompressedTimeline(ends=ends, epsilon=0.5)
    xi = sparse_duals(rng, ends.size, density, grid)
    release = int(rng.integers(0, H))  # often inside a block, and blocks before it are empty
    size = int(rng.integers(1, min(H - release, 12) + 1))
    weight = float(rng.integers(1, 33) / 8.0) if grid else float(rng.uniform(0.1, 4.0))
    eta = weight * (release + size) + float(rng.uniform(-2.0, 2.0 * H))
    counts, ref_cost = block_loop(xi, eta, weight, size, release, timeline)
    found, best = price_machine(1, xi, [2], [eta], [weight], [size], [release], H, buckets=1, ends=ends)
    if counts is None:
        assert math.isinf(best[0]) and not found
        return
    assert close(best[0], ref_cost)
    if ref_cost >= -PRICE_TOL:
        assert not found
        return
    [(chain, cost)] = found
    assert close(cost, ref_cost)
    got = np.bincount(np.searchsorted(ends, chain.slots, side="left"), minlength=ends.size)
    assert got.tolist() == counts.tolist()
    chain.validate(release, H, size)
    assert (chain.machine, chain.job) == (1, 2)
    # Each block's slots are its earliest ones after the release.
    first = np.maximum(timeline.starts, release) + 1
    assert chain.slots == tuple(t for k in np.flatnonzero(counts) for t in range(first[k], first[k] + counts[k]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 150),
    st.integers(1, 3),
    st.integers(1, 6),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    st.sampled_from([1, 4]),
    st.integers(0, 2**32 - 1),
)
def test_pricer_matches_per_machine_loop(H, machines, jobs, coarse, grid, density, buckets, seed):
    """Every machine priced in one call: the same (chain, reduced cost) list,
    bit for bit and in the same order, as the per-machine pricer with its
    per-chain loop, pair by pair; chains whose key is in ``seen`` left out."""
    rng = np.random.default_rng(seed)
    ends = np.unique(np.append(rng.integers(1, H, rng.integers(1, 12)), H)) if coarse and H > 1 else None
    K = H if ends is None else ends.size
    xi = np.stack([sparse_duals(rng, K, density, grid) for _ in range(machines)])
    pairs = [(j, i) for j in range(jobs) for i in range(machines) if rng.random() < 0.8]
    rng.shuffle(pairs)
    sizes = rng.integers(1, min(H, 8) + 1, jobs)
    releases = rng.integers(0, H + 1, jobs)
    weights = rng.integers(1, 33, jobs) / 8.0 if grid else rng.uniform(0.1, 4.0, jobs)
    eta = weights * (releases + sizes) + rng.uniform(-2.0, 0.5 * H, jobs)
    job = np.array([j for j, _ in pairs], dtype=np.int64)
    machine = np.array([i for _, i in pairs], dtype=np.int64)
    per_pair = (eta[job], weights[job], sizes[job], releases[job])

    expected, best = {}, np.empty(len(pairs))
    for i in range(machines):
        on = np.flatnonzero(machine == i)
        found_i, best[on] = price_machine_loop(i, xi[i], job[on], *(a[on] for a in per_pair), H, buckets, ends)
        for chain, cost in found_i:
            expected.setdefault((chain.machine, chain.job), []).append((chain, cost))
    expected = [entry for j, i in pairs for entry in expected.get((i, j), [])]

    found, got_best = price_chain_multi(xi, machine, job, *per_pair, H, buckets, ends)
    assert found == expected
    assert np.array_equal(got_best, best)
    seen = {(c.machine, c.job, c.slots) for c, _ in expected[::2]}
    found, _ = price_chain_multi(xi, machine, job, *per_pair, H, buckets, ends, seen)
    assert found == expected[1::2]
