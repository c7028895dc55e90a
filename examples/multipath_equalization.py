"""Frequency-selective channel + one-tap equalisation on the ASIP.

Runs the registered ``multipath-eq`` scenario preset (16-QAM on 128
subcarriers through a 3-tap Rayleigh multipath channel) through the
pipeline API — first on the instruction-level ASIP backend with cycle
accounting, then swept over SNR with the fast algorithm-level engine to
produce a small BER waterfall — the system context in which the paper's
FFT throughput numbers matter.

Run:  python examples/multipath_equalization.py
"""

import numpy as np

import repro
from repro.analysis import ber_sweep, render_table
from repro.scenarios import get_scenario


def main():
    spec = get_scenario("multipath-eq")
    channel = spec.make_channel()
    print(f"scenario: {spec.name} — {spec.description}")
    print("channel taps:", np.round(channel.taps, 3))

    # The preset through the full instruction-level receiver: same
    # scenario, different backend name — nothing else changes.
    result = repro.run_scenario("multipath-eq", symbols=1,
                                backend="asip-batch", seed=1)
    print(f"\nASIP-received symbol: {result.metrics['bit_errors']} bit "
          f"errors in {result.metrics['total_bits']} bits, "
          f"FFT = {result.total_cycles} cycles")

    # BER waterfall with the fast algorithm-level engine: one pipeline
    # built from the preset, rerun once per SNR point with the same
    # payload seed (add workers=2 to shard bursts of 64+ symbols across
    # a thread pool).
    curve = ber_sweep(snr_dbs=(8, 12, 16, 20, 24, 28), symbols=8,
                      scenario="multipath-eq", seed=3)
    rows = [(int(snr), f"{ber:.4f}") for snr, ber in curve.items()]
    print()
    print(render_table(
        ["SNR (dB)", "BER"],
        rows,
        title="16-QAM / 128-carrier BER over the multipath channel",
    ))


if __name__ == "__main__":
    main()
