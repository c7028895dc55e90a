"""Coded OFDM: the channel-coding subsystem end to end.

Every deployed receiver the paper's FFT processor targets (UWB, WiMAX,
DVB-T) runs behind a convolutional codec; this example shows that layer
as pure configuration:

1. Coded scenario presets — ``repro.run_scenario("dvbt-2k")`` runs the
   full chain (encode -> interleave -> modulate -> ... -> soft-demodulate
   -> deinterleave -> decode) and reports coded *and* uncoded BER.
2. The coding gain — ``analysis.coded_ber_sweep`` sweeps SNR and shows
   soft-decision Viterbi decoding cleaning up the raw channel.
3. The same chain on the instruction-level ASIP — only the backend name
   changes, and the result gains FFT cycle accounting.

Run:  python examples/coded_ofdm.py
"""

import repro
from repro.analysis import coded_ber_sweep, render_table


def main():
    # --- 1. coded scenario presets ------------------------------------
    coded = [name for name in repro.scenario_names()
             if "coded" in name or name.startswith("dvbt")]
    print("coded presets:", ", ".join(coded))

    result = repro.run_scenario("dvbt-2k", symbols=4)
    metrics = result.metrics
    print(f"\ndvbt-2k ({metrics['code']}): "
          f"coded BER = {metrics['coded_ber']:.5f}, "
          f"uncoded BER = {metrics['uncoded_ber']:.5f}, "
          f"FER = {metrics['fer']:.3f}")
    seconds = metrics["stage_seconds"]
    slowest = max(seconds, key=seconds.get)
    print(f"slowest stage: {slowest} ({seconds[slowest] * 1e3:.1f} ms "
          f"of {sum(seconds.values()) * 1e3:.1f} ms)")

    # --- 2. the coding gain across SNR --------------------------------
    snrs = (4.0, 6.0, 8.0, 10.0)
    curve = coded_ber_sweep(snrs, scenario="uwb-ofdm-coded",
                            n_points=256, symbols=16)
    print(render_table(
        ["SNR dB", "uncoded BER", "coded BER", "FER"],
        [(snr, f"{row['uncoded_ber']:.5f}", f"{row['coded_ber']:.5f}",
          f"{row['fer']:.3f}") for snr, row in curve.items()],
        title="\nuwb-ofdm-coded: soft-decision Viterbi coding gain",
    ))

    # --- 3. the same chain on the simulated ASIP ----------------------
    result = repro.run_scenario("wimax-ofdm-coded", symbols=2,
                                n_points=64, backend="asip-batch")
    print(f"\nwimax-ofdm-coded on the simulated ASIP: "
          f"{result.metrics['cycles_per_symbol']:.0f} FFT cycles/symbol, "
          f"coded BER = {result.metrics['coded_ber']:.5f}")


if __name__ == "__main__":
    main()
