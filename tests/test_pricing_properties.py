"""Property tests for the chain pricer.  A pair's cost curve (its
cheapest chain's reduced cost per completion) comes from brute force over
all chains and from the per-job heap sweep over unit blocks, and from the
per-completion-block loop of the block pricer over coarser blocks; the
chains found must complete exactly at its valleys, with its costs and
slots.  Over several machines the pricer matches the per-machine pricer
with its per-chain loop (``chain_reference``) bit for bit.  Its load, the
slots per block of each job's cheapest chain, matches the one that loop
works out job by job.  The curve references are kept here, as they were in
the library."""

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


def heap_sweep(xi_row, eta_j, weight, size, release, horizon):
    """Per completion C = 1..horizon, the min reduced cost of a chain
    completing at C (inf before release + size): a sweep over C holding the
    p - 1 smallest window duals in a max-heap of the selected ones and a
    min-heap of the rest."""
    p = size
    first_c = release + p
    curve = [math.inf] * horizon
    if first_c > horizon:
        return curve
    selected: list = []
    reserve: list = []
    sel_sum = 0.0
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
        curve[C - 1] = weight * C + sel_sum + xi_row[C - 1] - eta_j
    return curve


def brute_force_curve(xi_row, eta_j, weight, size, release, horizon):
    """Per completion C = 1..horizon, the min reduced cost over every chain
    completing at C."""
    curve = [math.inf] * horizon
    for slots in enumerate_chains(release, size, horizon):
        cost = weight * slots[-1] + sum(xi_row[t - 1] for t in slots) - eta_j
        curve[slots[-1] - 1] = min(curve[slots[-1] - 1], cost)
    return curve


def valleys(curve, tol):
    """(valleys, unclear) of a cost curve over block ends, as 0-based ends.
    End k is a valley when its cost is below -1e-7, strictly below end
    k - 1's (inf before the first end) and at most end k + 1's (inf after
    the last).  An end is unclear when one of those comparisons is within
    ``tol`` > 0 relative (or its cost within 1e-9 of -1e-7), so rounding
    may decide it; it is left out of ``valleys``.  With ``tol`` 0 the sums
    are exact and ties are decided as ties."""
    ext = [math.inf, *curve, math.inf]
    found, unclear = set(), set()
    for k, cost in enumerate(curve):
        prev, after = ext[k], ext[k + 2]
        near = tol > 0.0 and any(abs(cost - x) <= tol * (1.0 + abs(x)) for x in (prev, after))
        if near or abs(cost + PRICE_TOL) < 1e-9:
            unclear.add(k)
        elif cost < -PRICE_TOL and cost < prev and cost <= after:
            found.add(k)
    return found, unclear


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
    # eta around the cheapest completion's cost, so some completions price
    # below zero and some do not
    eta = weights * (releases + sizes) + rng.uniform(-2.0, 0.5 * H, n)
    if grid:
        eta = np.round(eta * 8.0) / 8.0
    jobs = rng.permutation(10)[:n]
    return xi, jobs, eta, weights, sizes, releases, H, grid


def check_load(load, case, ends=None):
    """On machine 3, ``load`` is the per-block sum of the slot counts of
    each job's cheapest chain, as the per-machine loop picks it; the other
    machines carry none."""
    xi, jobs, eta, weights, sizes, releases, H, _ = case
    _, _, counts = price_machine_loop(3, xi, jobs, eta, weights, sizes, releases, H, ends)
    assert load.shape == (4, counts.shape[1])
    assert np.array_equal(load[3], counts.sum(axis=0)) and not load[:3].any()


def check_against(curves, case, found, best):
    """``curves[k]`` lists job k's min reduced cost per completion; the
    chains found complete exactly at its valleys.  On the grid every sum is
    exact, so plateaus are ties and each goes to its earliest end."""
    xi, jobs, eta, weights, sizes, releases, H, grid = case
    order = [(list(jobs).index(c.job), c.completion) for c, _ in found]
    assert order == sorted(set(order))  # job by job, then by completion, one chain per end
    for k, job in enumerate(jobs):
        curve = curves[k]
        if math.isinf(min(curve)):
            assert math.isinf(best[k])
        else:
            assert close(best[k], min(curve))
        got = set()
        for chain, cost in found:
            if chain.job != job:
                continue
            chain.validate(int(releases[k]), H, int(sizes[k]))
            assert chain.machine == 3
            end = chain.completion - 1
            got.add(end)
            assert close(cost, curve[end])
            rc = weights[k] * chain.completion + sum(xi[t - 1] for t in chain.slots) - eta[k]
            assert close(rc, curve[end])
        expected, unclear = valleys(curve, 0.0 if grid else 1e-12)
        assert got - unclear == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pricing_cases(max_horizon=10))
def test_batched_pricer_matches_brute_force(case):
    xi, jobs, eta, weights, sizes, releases, H, _ = case
    found, best, load = price_machine(3, xi, jobs, eta, weights, sizes, releases, H)
    ref = [
        brute_force_curve(xi, eta[k], weights[k], int(sizes[k]), int(releases[k]), H)
        for k in range(len(jobs))
    ]
    check_against(ref, case, found, best)
    check_load(load, case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pricing_cases(max_horizon=300))
def test_batched_pricer_matches_heap_sweep(case):
    xi, jobs, eta, weights, sizes, releases, H, _ = case
    found, best, load = price_machine(3, xi, jobs, eta, weights, sizes, releases, H)
    ref = [heap_sweep(xi, eta[k], weights[k], int(sizes[k]), int(releases[k]), H) for k in range(len(jobs))]
    check_against(ref, case, found, best)
    check_load(load, case)


def test_batched_pricer_rejects_negative_duals():
    with pytest.raises(ValueError):
        price_machine(0, np.array([0.0, -1.0, 0.0]), [0], [5.0], [1.0], [2], [0], 3)


def block_loop(xi_blocks, eta_j, weight, size, release, timeline):
    """Per completion block k*, one slot there plus the p - 1 cheapest
    remaining slots in blocks up to k*, by an argsort per k*.  Returns, per
    k*, (per-block slot counts, cost), or (None, inf) when the job does not
    fit by the end of k*."""
    ends = timeline.ends
    starts = ends - timeline.lengths
    avail = np.maximum(ends - np.maximum(starts, release), 0).astype(np.int64)
    curve = []
    for kstar in range(len(ends)):
        if avail[kstar] < 1 or int(avail[: kstar + 1].sum()) < size:
            curve.append((None, math.inf))
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
        curve.append((counts, cost))
    return curve


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
    if grid:
        eta = round(eta * 8.0) / 8.0
    curve = block_loop(xi, eta, weight, size, release, timeline)
    costs = [cost for _, cost in curve]
    found, best, load = price_machine(1, xi, [2], [eta], [weight], [size], [release], H, ends=ends)
    _, _, counts = price_machine_loop(1, xi, [2], [eta], [weight], [size], [release], H, ends)
    assert np.array_equal(load[1], counts[0]) and not load[0].any()
    if math.isinf(min(costs)):
        assert math.isinf(best[0]) and not found and not load.any()
        return
    assert close(best[0], min(costs))
    expected, unclear = valleys(costs, 0.0 if grid else 1e-12)
    got = set()
    first = np.maximum(timeline.ends - timeline.lengths, release) + 1
    for chain, cost in found:
        k = int(np.searchsorted(ends, chain.completion, side="left"))
        assert all(k > g for g in got)  # by completion, one chain per block
        got.add(k)
        counts = curve[k][0]
        assert close(cost, costs[k])
        per_block = np.bincount(np.searchsorted(ends, chain.slots, side="left"), minlength=ends.size)
        assert per_block.tolist() == counts.tolist()
        chain.validate(release, H, size)
        assert (chain.machine, chain.job) == (1, 2)
        # Each block's slots are its earliest ones after the release.
        assert chain.slots == tuple(t for b in np.flatnonzero(counts) for t in range(first[b], first[b] + counts[b]))
    assert got - unclear == expected


def check_against_per_machine_loop(xi, ends, pairs, jobs, rng, grid, release_max=None):
    """Every machine priced in one call: the same (chain, reduced cost) list,
    bit for bit and in the same order, as the per-machine pricer with its
    per-chain loop over every block end, pair by pair.  Its load holds each
    job's cheapest chain as that loop finds it on the first pair, in the
    given order, of the job's least cost.  ``pairs`` lists (job, machine)
    over ``jobs`` jobs, whose sizes, releases (up to ``release_max``, by
    default the horizon), weights and etas are drawn from ``rng``."""
    machines, K = xi.shape
    H = int(ends[-1])
    sizes = rng.integers(1, min(H, 8) + 1, jobs)
    releases = rng.integers(0, (H if release_max is None else release_max) + 1, jobs)
    weights = rng.integers(1, 33, jobs) / 8.0 if grid else rng.uniform(0.1, 4.0, jobs)
    eta = weights * (releases + sizes) + rng.uniform(-2.0, 0.5 * H, jobs)
    job = np.array([j for j, _ in pairs], dtype=np.int64)
    machine = np.array([i for _, i in pairs], dtype=np.int64)
    per_pair = (eta[job], weights[job], sizes[job], releases[job])

    expected, best = {}, np.empty(len(pairs))
    counts = np.zeros((len(pairs), K), dtype=np.int64)
    for i in range(machines):
        on = np.flatnonzero(machine == i)
        found_i, best[on], counts[on] = price_machine_loop(i, xi[i], job[on], *(a[on] for a in per_pair), H, ends)
        for chain, cost in found_i:
            expected.setdefault((chain.machine, chain.job), []).append((chain, cost))
    expected = [entry for j, i in pairs for entry in expected.get((i, j), [])]
    load = np.zeros((machines, K), dtype=np.int64)
    for j in range(jobs):
        on = [q for q in range(len(pairs)) if job[q] == j and best[q] < math.inf]
        if on:
            q = min(on, key=lambda q: best[q])  # the first of equal ones
            load[machine[q]] += counts[q]

    found, got_best, got_load = price_chain_multi(xi, machine, job, *per_pair, ends)
    assert found == expected
    assert np.array_equal(got_best, best)
    assert np.array_equal(got_load, load)


def random_ends(rng, H, coarse):
    return np.unique(np.append(rng.integers(1, H, rng.integers(1, 12)), H)) if coarse and H > 1 else np.arange(1, H + 1)


def random_pairs(rng, machines, jobs):
    pairs = [(j, i) for j in range(jobs) for i in range(machines) if rng.random() < 0.8]
    rng.shuffle(pairs)
    return pairs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 150),
    st.integers(1, 3),
    st.integers(1, 6),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_pricer_matches_per_machine_loop(H, machines, jobs, coarse, grid, density, seed):
    rng = np.random.default_rng(seed)
    ends = random_ends(rng, H, coarse)
    xi = np.stack([sparse_duals(rng, ends.size, density, grid) for _ in range(machines)])
    check_against_per_machine_loop(xi, ends, random_pairs(rng, machines, jobs), jobs, rng, grid)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 150),
    st.integers(1, 3),
    st.integers(1, 6),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_pricer_cut_past_the_last_positive_dual_matches_the_whole_timeline(
    H, machines, jobs, coarse, grid, density, seed
):
    """Duals that vanish past a random block of each machine (every dual
    when the block is the first, or the density 0), so the pricer prices
    only a prefix of the block ends: it still finds what the per-machine
    loop finds over the whole timeline.  Releases are drawn up to a random
    time, so many lie past a machine's last positive dual, and every chain
    of many cases can complete well before the horizon."""
    rng = np.random.default_rng(seed)
    ends = random_ends(rng, H, coarse)
    xi = np.stack([sparse_duals(rng, ends.size, density, grid) for _ in range(machines)])
    xi[np.arange(ends.size) >= rng.integers(0, ends.size + 1, (machines, 1))] = 0.0
    pairs = random_pairs(rng, machines, jobs)
    check_against_per_machine_loop(xi, ends, pairs, jobs, rng, grid, int(rng.integers(0, H + 1)))
