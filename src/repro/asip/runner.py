"""The record of one simulated FFT run.

:func:`repro.analysis.size_sweep` returns one :class:`AsipRunResult`
per size: the spectrum, the machine's :class:`SimStats`, the derived
throughput and the machine itself.  Single transforms run through the
facade, ``repro.engine(N, backend="asip").transform(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.stats import SimStats
from .fft_asip import FFTASIP
from .throughput import ThroughputReport

__all__ = ["AsipRunResult"]


@dataclass
class AsipRunResult:
    """Everything one simulated FFT run produces."""

    n_points: int
    spectrum: np.ndarray
    stats: SimStats
    throughput: ThroughputReport
    asip: FFTASIP

    @property
    def cycles(self) -> int:
        """Total simulated cycles."""
        return self.stats.cycles
