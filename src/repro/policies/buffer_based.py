"""Buffer-Based (BB) rate adaptation — the paper's default policy.

Huang et al. [19] select the bitrate from the playback buffer occupancy
alone: below a *reservoir* the lowest rung is chosen, above
``reservoir + cushion`` the highest, and in between the rate ramps up
linearly with buffer level.  The constants (5 s reservoir, 10 s cushion)
are those of the BB implementation shipped with Pensieve, which the paper
says it uses.

BB "performs remarkably well in practice across a variety of network
conditions and is thus a suitable default policy" — its decisions never
depend on throughput estimates, so it cannot be fooled by unfamiliar
throughput dynamics.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import ConfigError
from repro.policies.base import DeterministicPolicy

__all__ = ["BufferBasedPolicy"]


class BufferBasedPolicy(DeterministicPolicy):
    """BBA with a linear ramp between reservoir and cushion."""

    def __init__(
        self,
        bitrates_kbps: np.ndarray | list[float],
        reservoir_s: float = 5.0,
        cushion_s: float = 10.0,
    ) -> None:
        super().__init__(bitrates_kbps)
        if reservoir_s <= 0 or cushion_s <= 0:
            raise ConfigError(
                f"reservoir and cushion must be positive, got "
                f"({reservoir_s}, {cushion_s})"
            )
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s
        self._ladder = self.bitrates_kbps.tolist()

    def select(self, observation: np.ndarray) -> int:
        """Map the buffer level through the reservoir/cushion ramp."""
        buffer_s = self.view(observation).buffer_s
        # Negated, so a NaN buffer takes the lowest rung too.
        if not buffer_s >= self.reservoir_s:
            return 0
        if buffer_s >= self.reservoir_s + self.cushion_s:
            return self.num_actions - 1
        fraction = (buffer_s - self.reservoir_s) / self.cushion_s
        # Linear ramp over the ladder, as in Pensieve's BB reference: the
        # highest rung at or below the target rate.
        ladder = self._ladder
        target_rate = ladder[0] + fraction * (ladder[-1] - ladder[0])
        return bisect_right(ladder, target_rate) - 1
