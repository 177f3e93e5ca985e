"""Counter-based random streams for reproducible, order-independent trials.

Each (master_seed, trial, lane) triple addresses its own Philox substream;
the lane separates independent campaigns run from the same master seed.
Within a stream, draws are consumed in row-major order, so the uniform that
decides (trial, round, vertex) is a pure function of the address and does
not depend on scheduling or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_KEY_MASK = (1 << 128) - 1
_MAX_TRIAL = 1 << 64
_MAX_LANE = 1 << 64


@dataclass(frozen=True)
class TrialStream:
    """One trial's private uniform stream."""

    master_seed: int
    trial: int = 0
    lane: int = 0

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not 0 <= self.trial < _MAX_TRIAL:
            raise ValueError("trial index out of range")
        if not 0 <= self.lane < _MAX_LANE:
            raise ValueError("lane out of range")

    def generator(self) -> np.random.Generator:
        counter = (self.lane << 192) | (self.trial << 128)
        bitgen = np.random.Philox(key=self.master_seed & _KEY_MASK, counter=counter)
        return np.random.Generator(bitgen)

    def uniforms(self, count: int) -> np.ndarray:
        """The first ``count`` uniforms of this stream."""
        return self.generator().random(count)

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        """``rows * cols`` uniforms reshaped row-major; row i is "round" i."""
        return self.generator().random((rows, cols))


def uniform_block(master_seed: int, first: int, lane: int, count: int, n: int) -> np.ndarray:
    """``count`` x ``n`` uniforms whose row t is
    ``TrialStream(master_seed, first + t, lane).uniforms(n)``, bit for bit.

    One ``Philox`` serves the whole block: each row sets its counter to the
    trial's address and reuses the state of a fresh ``Philox``, whose output
    buffer is empty, so no draw of one row leaks into the next.
    """
    for trial in (first, first + max(count, 1) - 1):
        TrialStream(master_seed, trial, lane)  # raises as the trial's own stream would
    bitgen = np.random.Philox(key=master_seed & _KEY_MASK)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]  # 64-bit words, least significant first
    counter[3] = lane
    out = np.empty((count, n))
    for trial, row in enumerate(out, first):
        counter[2] = trial
        bitgen.state = state
        gen.random(out=row)
    return out
