"""The paper's core contribution: the scalable array-structured FFT."""

from .array_fft import ArrayFFT
from .breaker import CircuitBreaker
from .butterfly import BUOperands, ButterflyUnit, radix2_butterfly
from .compiled import CompiledArrayFFT, CompiledStage
from .interleaved import InterleavedArrayFFT
from .fixed_point import (
    FixedComplex,
    FixedPointContext,
    fixed_to_complex_array,
    quantize,
    quantize_array,
    round_shift_array,
    snr_db,
)
from .parallel import ShardedEngine, available_workers
from .plan import ArrayFFTPlan, EpochPlan, StagePlan, build_plan
from .schedule import BUOp, horizontal_schedule, interleaved_schedule

__all__ = [
    "ArrayFFT",
    "ShardedEngine",
    "CircuitBreaker",
    "available_workers",
    "CompiledArrayFFT",
    "CompiledStage",
    "InterleavedArrayFFT",
    "quantize_array",
    "round_shift_array",
    "fixed_to_complex_array",
    "ButterflyUnit",
    "BUOperands",
    "radix2_butterfly",
    "FixedPointContext",
    "FixedComplex",
    "quantize",
    "snr_db",
    "ArrayFFTPlan",
    "EpochPlan",
    "StagePlan",
    "build_plan",
    "BUOp",
    "horizontal_schedule",
    "interleaved_schedule",
]
