"""The FFT ASIP: machine, code generator, runner and throughput metrics."""

from .codegen import CodegenLayout, generate_fft_program
from .fft_asip import FFTASIP, GROUP_SIZE_REG, STOUT_STRIDE_REG, STRIDE_REG
from .runner import AsipRunResult
from .streaming import StreamingFFT, StreamStats
from .throughput import (
    CLOCK_HZ,
    ThroughputReport,
    msamples_per_second,
    paper_mbps,
    throughput_report,
)

__all__ = [
    "FFTASIP",
    "STRIDE_REG",
    "STOUT_STRIDE_REG",
    "GROUP_SIZE_REG",
    "StreamingFFT",
    "StreamStats",
    "generate_fft_program",
    "CodegenLayout",
    "AsipRunResult",
    "CLOCK_HZ",
    "ThroughputReport",
    "throughput_report",
    "paper_mbps",
    "msamples_per_second",
]
