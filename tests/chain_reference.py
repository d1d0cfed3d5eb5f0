"""Test-only references for the chain pricer: every chain of a job, and the
batched pricer applied to one job."""

from itertools import combinations

import numpy as np

from alphasched.chain_lp import price_chain_multi
from alphasched.chains import Chain


def enumerate_chains(release: int, size: int, horizon: int):
    """All slot tuples for a job of the given size (test-scale oracle)."""
    return combinations(range(release + 1, horizon + 1), size)


def price_chain(
    machine: int,
    job: int,
    xi_row: np.ndarray,
    eta_j: float,
    weight: float,
    size: int,
    release: int,
    horizon: int,
) -> tuple[Chain | None, float]:
    """Cheapest chain by reduced cost w * C + sum(xi over slots) - eta, as
    ``price_chain_multi`` finds it for one job and one bucket.  Returns
    (chain, reduced cost) when it prices below -1e-7, else (None, best
    cost)."""
    found, best = price_chain_multi(
        machine, xi_row, [job], [eta_j], [weight], [size], [release], horizon, buckets=1
    )
    return (found[0][0] if found else None), float(best[0])
