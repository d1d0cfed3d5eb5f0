"""Chains: per-job preemptive schedules as strictly increasing unit slots.

A chain for a job of size p on machine i is a tuple (t_1 < ... < t_p) of
integer slot right-endpoints, all strictly after the job's release; the job
runs during (t_k - 1, t_k] for each k and completes at t_p.  Viewed as a
function, A(v) is the time by which v units of work are done, and
A_inverse(t) is the amount of work done by time t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Chain:
    machine: int
    job: int
    slots: tuple

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(map(int, self.slots)))

    @property
    def length(self) -> int:
        return len(self.slots)

    @property
    def completion(self) -> int:
        return self.slots[-1]

    def at(self, work: float) -> float:
        """A(v): the point in time at which v units of work are done,
        for v in (0, length]."""
        if not 0.0 < work <= self.length + 1e-12:
            raise ValueError(f"work argument {work} outside (0, {self.length}]")
        # A work value within 1e-12 of an integer counts as that integer,
        # and one in (0, 1e-12] lies in the first slot.
        k = min(max(math.ceil(work - 1e-12), 1), self.length)
        return self.slots[k - 1] + work - k

    def inverse(self, t: float) -> float:
        """A^{-1}(t): work done by time t (sup of admissible v)."""
        done = 0.0
        for k, slot in enumerate(self.slots):
            if t >= slot:
                done = k + 1.0
            elif t > slot - 1:
                return k + (t - (slot - 1))
            else:
                break
        return done

    def validate(self, release: int, horizon: int, size: int) -> None:
        if self.length != size:
            raise ValueError(f"chain length {self.length} != size {size}")
        prev = release
        for t in self.slots:
            if t <= prev:
                raise ValueError(f"slot {t} violates ordering/release (> {prev} required)")
            prev = t
        if self.slots[-1] > horizon:
            raise ValueError(f"slot {self.slots[-1]} exceeds horizon {horizon}")


def chain_eval_many(slot_matrix: np.ndarray, chain_idx: np.ndarray, work: np.ndarray) -> np.ndarray:
    """A(v) of each work value v on its chain, ``Chain.at`` to the bit.

    ``slot_matrix`` holds one chain per row, its slots padded to the width
    L of the longest, and ``chain_idx`` names each value's row.  As in
    ``Chain.at``, k = ceil(v - 1e-12) clipped to [1, L] is the slot v ends
    in; it is formed in floating point and clipped in place, and slot k is
    read by one take on the flat row-major table, at chain * L + k - 1.
    The result is float(slot) + v - k, summed in that order."""
    width = slot_matrix.shape[1]
    k = np.ceil(work - 1e-12)
    np.clip(k, 1, width, out=k)
    index = np.multiply(chain_idx, width, dtype=np.int64)
    index += k.astype(np.int64)
    index -= 1
    out = np.add(np.ravel(slot_matrix).take(index), work)
    out -= k
    return out
