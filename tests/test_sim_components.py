"""Simulator components: cache, memory, CRF, ROM, AC logic, trace."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing.local import stage_input_addresses
from repro.sim import (
    AddressChangingLogic,
    CacheConfig,
    CoefficientROM,
    CustomRegisterFile,
    DataCache,
    ExecutionTrace,
    MainMemory,
)


class TestCache:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(sets=3)
        with pytest.raises(ValueError):
            CacheConfig(ways=0)

    def test_default_is_32kb(self):
        assert CacheConfig().size_bytes == 32 * 1024

    def test_cold_miss_then_hit(self):
        cache = DataCache()
        assert cache.access(0) > 1
        assert cache.access(1) == 1  # same line
        assert cache.miss_rate == 0.5

    def test_lru_eviction(self):
        config = CacheConfig(sets=1, ways=2, block_words=1)
        cache = DataCache(config)
        cache.access(0)        # {0}
        cache.access(1)        # {1, 0}
        cache.access(0)        # {0, 1}  — refreshes 0
        cache.access(2)        # evicts 1
        assert cache.access(0) == config.hit_latency
        assert cache.access(1) > config.hit_latency

    def test_writeback_counting(self):
        config = CacheConfig(sets=1, ways=1, block_words=1)
        cache = DataCache(config)
        cache.access(0, is_write=True)
        cache.access(1, is_write=False)  # evicts dirty block 0
        assert cache.writebacks == 1

    def test_reset(self):
        cache = DataCache()
        cache.access(0)
        cache.reset()
        assert cache.accesses == 0
        assert cache.access(0) > 1  # cold again

    @pytest.mark.parametrize("repeats", [1, 2, 5])
    def test_replay_equals_access_sweeps(self, repeats):
        """replay() leaves counters and state exactly as per-access
        sweeps would, on the memo's miss and hit paths alike."""
        config = CacheConfig(sets=4, ways=2, block_words=2)
        rng = np.random.default_rng(repeats)
        walk = (rng.integers(0, 64, 200) << 1) | rng.integers(0, 2, 200)
        replayed = DataCache(config)
        swept = DataCache(config)
        for _ in range(3):
            hits, misses = replayed.replay(walk, repeats)
            before = (swept.hits, swept.misses)
            for _ in range(repeats):
                for word in walk.tolist():
                    swept.access(word >> 1, bool(word & 1))
            assert (hits, misses) == (swept.hits - before[0],
                                      swept.misses - before[1])
            assert replayed.state_key() == swept.state_key()
            assert (replayed.hits, replayed.misses, replayed.writebacks) == (
                swept.hits, swept.misses, swept.writebacks)

    def test_replay_memo_is_bounded_and_skips_access(self, monkeypatch):
        cache = DataCache(CacheConfig(sets=2, ways=1, block_words=1))
        walks = [np.array([(a << 1) | 1 for a in range(k, k + 6)])
                 for k in range(2 * DataCache.REPLAY_MEMO_SIZE)]
        for walk in walks:
            cache.replay(walk, 3)
        assert len(cache._replay_memo) == DataCache.REPLAY_MEMO_SIZE
        calls = []
        access = cache.access
        monkeypatch.setattr(cache, "access",
                            lambda *a: calls.append(a) or access(*a))
        cache.replay(walks[-1], 4)  # the latest walk is still memoised
        assert calls == []


class TestMainMemory:
    def test_word_roundtrip(self):
        mem = MainMemory(16)
        mem.write_word(3, 99)
        assert mem.read_word(3) == 99

    def test_bounds(self):
        mem = MainMemory(4)
        with pytest.raises(IndexError):
            mem.read_word(4)
        with pytest.raises(IndexError):
            mem.write_word(-1, 0)
        with pytest.raises(ValueError):
            MainMemory(0)

    @given(st.builds(complex, st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)))
    def test_packed_fixed_point_roundtrip(self, value):
        mem = MainMemory(8, float_mode=False)
        mem.write_complex(2, value)
        # per-component error <= 2**-16, so complex magnitude <= sqrt(2)*2**-16
        assert abs(mem.read_complex(2) - value) < 2.2e-5

    def test_float_mode_is_exact(self):
        mem = MainMemory(8, float_mode=True)
        mem.write_complex(0, 1.2345 - 9.876j)
        assert mem.read_complex(0) == 1.2345 - 9.876j

    def test_vector_helpers(self):
        mem = MainMemory(8)
        mem.load_complex_vector(2, [1 + 1j, 2 + 2j])
        assert np.allclose(mem.read_complex_vector(2, 2), [1 + 1j, 2 + 2j])


class TestCRF:
    def test_ping_pong_banks(self):
        crf = CustomRegisterFile(4)
        crf.write(0, 1 + 0j)
        crf.write_shadow(0, 9 + 0j)
        assert crf.read(0) == 1 + 0j
        crf.swap_banks()
        assert crf.read(0) == 9 + 0j

    def test_access_counting(self):
        crf = CustomRegisterFile(4)
        crf.write(1, 1j)
        crf.read(1)
        assert crf.reads == 1 and crf.writes == 1

    def test_bounds(self):
        crf = CustomRegisterFile(4)
        with pytest.raises(IndexError):
            crf.read(4)
        with pytest.raises(ValueError):
            CustomRegisterFile(0)

    def test_load_vector_and_snapshot(self):
        crf = CustomRegisterFile(3)
        crf.load_vector([1, 2, 3])
        assert np.allclose(crf.snapshot(), [1, 2, 3])
        with pytest.raises(ValueError):
            crf.load_vector([1, 2])


class TestROM:
    def test_contents(self):
        rom = CoefficientROM(16)
        assert len(rom) == 8
        assert abs(rom.read(0) - 1.0) < 1e-12
        assert abs(rom.read(4) - (-1j)) < 1e-12

    def test_stride_addressing_for_smaller_group(self):
        rom = CoefficientROM(32)
        # W_8^1 == W_32^4
        assert abs(rom.read_for_size(1, 8) - np.exp(-2j * np.pi / 8)) < 1e-12

    def test_bounds(self):
        rom = CoefficientROM(16)
        with pytest.raises(IndexError):
            rom.read(8)
        with pytest.raises(ValueError):
            rom.read_for_size(0, 64)

    def test_read_counting(self):
        rom = CoefficientROM(8)
        rom.read(0)
        rom.read(1)
        assert rom.reads == 2


class TestACLogic:
    def test_requires_configuration(self):
        ac = AddressChangingLogic()
        with pytest.raises(RuntimeError):
            _ = ac.group_size

    def test_addresses_match_plan_tables(self):
        ac = AddressChangingLogic()
        ac.configure(32)
        reads = stage_input_addresses(5, 3)
        addr = ac.addresses(module=2, stage=3)
        assert addr.crf_reads_first == tuple(reads[4:8])
        assert addr.crf_reads_second == tuple(reads[20:24])
        assert addr.crf_writes_first == (4, 5, 6, 7)
        assert addr.crf_writes_second == (20, 21, 22, 23)

    def test_rom_addresses_follow_stride_rule(self):
        from repro.addressing.coefficients import rom_coefficient_index

        ac = AddressChangingLogic()
        ac.configure(32)
        addr = ac.addresses(module=3, stage=2)
        expected = tuple(
            rom_coefficient_index(32, 2, m) for m in (8, 9, 10, 11)
        )
        assert addr.rom_addresses == expected

    def test_small_group_lane_count(self):
        ac = AddressChangingLogic()
        ac.configure(4)
        assert ac.modules_per_stage() == 1
        assert ac.lanes_for_module(1) == 2
        addr = ac.addresses(module=1, stage=1)
        assert len(addr.crf_reads_first) == 2

    def test_operand_validation(self):
        ac = AddressChangingLogic()
        ac.configure(16)
        with pytest.raises(ValueError):
            ac.addresses(module=0, stage=1)
        with pytest.raises(ValueError):
            ac.addresses(module=1, stage=5)


class TestTrace:
    def test_records_and_bounds(self):
        from repro.isa import assemble
        from repro.sim import Machine, MainMemory

        machine = Machine(MainMemory(64))
        trace = ExecutionTrace(capacity=4)
        machine.step = trace.wrap(machine)
        machine.run(assemble("li r1, 3\nloop: addi r1, r1, -1\n"
                             "bne r1, r0, loop\nhalt"))
        assert len(trace) == 4  # capped at capacity
        assert "addi" in trace.listing()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ExecutionTrace(capacity=0)
