"""OFDM substrate: the communication chain the paper's intro motivates."""

from .channel import MultipathChannel, awgn, ebn0_to_noise_sigma
from .modulation import CONSTELLATIONS, Constellation

__all__ = [
    "Constellation",
    "CONSTELLATIONS",
    "awgn",
    "ebn0_to_noise_sigma",
    "MultipathChannel",
]
