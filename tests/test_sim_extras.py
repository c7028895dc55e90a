"""Remaining sim/stat/hw surfaces: stats, pipeline config, energy."""

import pytest

from repro.hw.energy import energy_per_fft_nj
from repro.sim import PipelineConfig, SimStats
from repro.sim.pipeline import PipelineConfig as PC


class TestSimStats:
    def test_derived_properties(self):
        stats = SimStats(cycles=100, instructions=50, loads=10, stores=5,
                         dcache_hits=12, dcache_misses=3)
        assert stats.memory_operations == 15
        assert stats.dcache_accesses == 15
        assert stats.miss_rate == 0.2
        assert stats.cpi == 2.0

    def test_empty_stats_do_not_divide_by_zero(self):
        stats = SimStats()
        assert stats.miss_rate == 0.0
        assert stats.cpi == 0.0

    def test_custom_op_counter(self):
        stats = SimStats()
        stats.count_custom("but4")
        stats.count_custom("but4")
        stats.count_custom("ldin")
        assert stats.custom_ops == {"but4": 2, "ldin": 1}

    def test_as_dict_includes_custom_ops(self):
        stats = SimStats(cycles=7)
        stats.count_custom("stout")
        flat = stats.as_dict()
        assert flat["cycles"] == 7
        assert flat["op_stout"] == 1


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.branch_penalty == 2
        assert config.but4_latency == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PC(branch_penalty=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            PipelineConfig().branch_penalty = 5


class TestEnergy:
    def test_report_arithmetic(self):
        report = energy_per_fft_nj(1024, 3600)
        assert report.time_us == pytest.approx(3600 / 300.0)
        assert report.energy_nj == pytest.approx(
            report.power_mw * report.time_us
        )
        assert report.nj_per_point == pytest.approx(
            report.energy_nj / 1024
        )

    def test_energy_scale_is_sub_microjoule(self):
        """~20 mW for ~12 us -> a few hundred nJ per 1024-point FFT."""
        report = energy_per_fft_nj(1024, 3602)
        assert 50 < report.energy_nj < 1000

    def test_rejects_bad_cycles(self):
        with pytest.raises(ValueError):
            energy_per_fft_nj(64, 0)

    def test_energy_per_point_improves_with_size(self):
        """Larger transforms amortise fixed overhead per point."""
        import numpy as np

        import repro

        def cycles(n):
            x = np.random.default_rng(0).standard_normal(n).astype(complex)
            with repro.engine(n, backend="asip") as eng:
                return eng.transform(x).stats.cycles

        small = cycles(64)
        large = cycles(1024)
        e_small = energy_per_fft_nj(64, small).nj_per_point
        e_large = energy_per_fft_nj(1024, large).nj_per_point
        # per-point energy grows only with the log2(N)/8 compute term
        assert e_large < 1.6 * e_small
