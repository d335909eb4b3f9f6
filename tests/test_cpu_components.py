"""Unit tests for the processor building blocks (predictors, FUs, resources, LSQ)."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.address_predictor import StrideAddressPredictor
from repro.cpu.branch_predictor import BimodalBranchPredictor
from repro.cpu.functional_units import (
    TABLE1_TIMINGS,
    FunctionalUnit,
    FunctionalUnitPool,
    OperationTiming,
)
from repro.cpu.isa import Instruction, OpClass
from repro.cpu.lsq import StoreForwardingBuffer
from repro.cpu.resources import ThroughputLimiter, WindowResource


class TestInstruction:
    def test_memory_needs_address(self):
        with pytest.raises(ValueError):
            Instruction(pc=4, op=OpClass.LOAD, dest=1)

    def test_branch_needs_outcome(self):
        with pytest.raises(ValueError):
            Instruction(pc=4, op=OpClass.BRANCH)

    def test_register_range_checked(self):
        with pytest.raises(ValueError):
            Instruction(pc=4, op=OpClass.INT_ALU, dest=99)
        with pytest.raises(ValueError):
            Instruction(pc=4, op=OpClass.INT_ALU, dest=1, srcs=(70,))

    def test_classification_properties(self):
        load = Instruction(pc=0, op=OpClass.LOAD, dest=1, address=64)
        assert load.is_load and load.is_memory and not load.is_store
        fp = Instruction(pc=0, op=OpClass.FP_ADD, dest=40, srcs=(33, 34))
        assert fp.writes_fp


class TestBranchPredictor:
    def test_learns_a_biased_branch(self):
        predictor = BimodalBranchPredictor(entries=64)
        pc = 0x400
        for _ in range(4):
            predictor.update(pc, taken=True)
        assert predictor.predict(pc) is True

    def test_counter_saturation_and_recovery(self):
        predictor = BimodalBranchPredictor(entries=64)
        pc = 0x404
        for _ in range(10):
            predictor.update(pc, taken=True)
        predictor.update(pc, taken=False)       # one anomaly
        assert predictor.predict(pc) is True     # still predicts taken

    def test_misprediction_ratio(self):
        predictor = BimodalBranchPredictor(entries=64)
        outcomes = [True, True, False, True]
        for taken in outcomes:
            predictor.update(0x500, taken)
        assert 0.0 <= predictor.misprediction_ratio <= 1.0
        assert predictor.predictions == len(outcomes)

    def test_distinct_branches_use_distinct_counters(self):
        predictor = BimodalBranchPredictor(entries=1024)
        for _ in range(4):
            predictor.update(0x100, True)
            predictor.update(0x200, False)
        assert predictor.predict(0x100) is True
        assert predictor.predict(0x200) is False

    def test_entries_power_of_two(self):
        with pytest.raises(ValueError):
            BimodalBranchPredictor(entries=100)

    def test_reset(self):
        predictor = BimodalBranchPredictor(entries=64)
        predictor.update(0, True)
        predictor.reset()
        assert predictor.predictions == 0


class TestAddressPredictor:
    def test_learns_constant_stride(self):
        predictor = StrideAddressPredictor(entries=64)
        pc = 0x400
        addresses = [1000 + 16 * i for i in range(10)]
        correct = [predictor.update(pc, a) for a in addresses]
        # After warm-up the predictions become confident and correct.
        assert correct[-1] is True
        prediction = predictor.predict(pc)
        assert prediction.usable
        assert prediction.predicted_address == addresses[-1] + 16

    def test_irregular_stream_not_confident(self):
        predictor = StrideAddressPredictor(entries=64)
        pc = 0x404
        for a in (10, 5000, 77, 123456, 42, 999):
            predictor.update(pc, a)
        assert not predictor.predict(pc).confident

    def test_stride_frozen_while_confident(self):
        """The paper's rule: the stride is only updated while the counter < 2."""
        predictor = StrideAddressPredictor(entries=64)
        pc = 0x408
        for i in range(8):
            predictor.update(pc, 100 + 8 * i)        # establish stride 8
        predictor.update(pc, 5000)                   # one irregular access
        entry = predictor._table[predictor._index(pc)]
        assert entry.stride == 8                     # stride survives

    def test_untagged_table_aliases(self):
        predictor = StrideAddressPredictor(entries=4)
        # PCs 0x0 and 0x10 map to the same entry (4-entry table, >>2 index).
        predictor.update(0x0, 100)
        predictor.update(0x10, 9999)
        entry0 = predictor._table[predictor._index(0x0)]
        entry1 = predictor._table[predictor._index(0x10)]
        assert entry0 is entry1

    def test_statistics(self):
        predictor = StrideAddressPredictor(entries=64)
        pc = 0x40C
        for i in range(20):
            predictor.predict(pc)
            predictor.update(pc, 64 * i)
        assert predictor.lookups == 20
        assert 0.0 <= predictor.coverage <= 1.0
        assert 0.0 <= predictor.accuracy <= 1.0

    def test_paper_configuration(self):
        predictor = StrideAddressPredictor(entries=1024)
        assert predictor.entries == 1024


class TestFunctionalUnits:
    def test_table1_latencies(self):
        assert TABLE1_TIMINGS[OpClass.INT_ALU].latency == 1
        assert TABLE1_TIMINGS[OpClass.INT_MUL].latency == 9
        assert TABLE1_TIMINGS[OpClass.INT_DIV].latency == 67
        assert TABLE1_TIMINGS[OpClass.FP_ADD].latency == 4
        assert TABLE1_TIMINGS[OpClass.FP_DIV].latency == 16
        assert TABLE1_TIMINGS[OpClass.FP_SQRT].latency == 35

    def test_pipelined_unit_repeat_rate_one(self):
        unit = FunctionalUnit("fp-mul", (OpClass.FP_MUL,), TABLE1_TIMINGS)
        s1, c1 = unit.issue(OpClass.FP_MUL, now=0)
        s2, c2 = unit.issue(OpClass.FP_MUL, now=0)
        assert (s1, c1) == (0, 4)
        assert (s2, c2) == (1, 5)       # fully pipelined: next cycle

    def test_unpipelined_divider_blocks(self):
        unit = FunctionalUnit("div", (OpClass.INT_DIV,), TABLE1_TIMINGS)
        unit.issue(OpClass.INT_DIV, now=0)
        start, _ = unit.issue(OpClass.INT_DIV, now=0)
        assert start == 67              # repeat rate equals the latency

    def test_unit_rejects_wrong_op(self):
        unit = FunctionalUnit("fp-mul", (OpClass.FP_MUL,), TABLE1_TIMINGS)
        with pytest.raises(ValueError):
            unit.issue(OpClass.INT_ALU, now=0)

    def test_pool_has_two_effective_address_units(self):
        pool = FunctionalUnitPool()
        # Three loads issued at the same cycle: the third must wait.
        starts = [pool.issue(OpClass.LOAD, now=0)[0] for _ in range(3)]
        assert starts.count(0) == 2
        assert max(starts) == 1

    def test_pool_breaks_ties_by_unit_order(self):
        pool = FunctionalUnitPool()
        first, second = [u for u in pool.units if u.serves(OpClass.LOAD)]
        # Both effective-address units free: the earlier one takes the op.
        pool.issue(OpClass.STORE, now=0)
        assert (first.operations, second.operations) == (1, 0)
        # At cycle 5 both are free again (a tie once clamped to ``now``).
        assert pool.earliest_unit(OpClass.LOAD, now=5) is first
        # At cycle 0 only the second is free; then both are busy until 1
        # and the tie goes back to the first.
        assert pool.earliest_unit(OpClass.LOAD, now=0) is second
        pool.issue(OpClass.LOAD, now=0)
        assert pool.earliest_unit(OpClass.LOAD, now=0) is first

    def test_pool_rejects_an_op_no_unit_serves(self):
        with pytest.raises(ValueError):
            FunctionalUnitPool().earliest_unit("vector_add", now=0)

    def test_pool_routes_to_correct_unit(self):
        pool = FunctionalUnitPool()
        _, done = pool.issue(OpClass.FP_SQRT, now=0)
        assert done == 35

    def test_operation_timing_validation(self):
        with pytest.raises(ValueError):
            OperationTiming(latency=0, repeat=1)


class TestResources:
    def test_window_resource_delays_when_full(self):
        rob = WindowResource(capacity=2)
        rob.acquire(0, release_cycle=10)
        rob.acquire(0, release_cycle=12)
        # Third acquisition must wait until the oldest holder releases.
        assert rob.earliest_acquire(0) == 10
        actual = rob.acquire(0, release_cycle=20)
        assert actual == 10
        assert rob.stall_events == 1

    def test_window_resource_free_slots_do_not_delay(self):
        regs = WindowResource(capacity=4)
        assert regs.acquire(3, release_cycle=9) == 3
        assert regs.stall_events == 0

    def test_window_release_before_acquire_rejected(self):
        with pytest.raises(ValueError):
            WindowResource(2).acquire(5, release_cycle=4)

    def test_throughput_limiter_enforces_width(self):
        fetch = ThroughputLimiter(width=2)
        cycles = [fetch.record(0) for _ in range(5)]
        assert cycles == [0, 0, 1, 1, 2]

    def test_throughput_limiter_gaps_reset_bandwidth(self):
        commit = ThroughputLimiter(width=2)
        commit.record(0)
        commit.record(0)
        assert commit.record(10) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowResource(0)
        with pytest.raises(ValueError):
            ThroughputLimiter(0)


class _OldWindow:
    """``WindowResource`` as first written: ``max(requested, deque[0])``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.held = deque()
        self.stall_events = 0

    def acquire(self, requested, release):
        actual = requested
        if len(self.held) >= self.capacity:
            actual = max(requested, self.held[0])
        if actual > requested:
            self.stall_events += 1
        if len(self.held) >= self.capacity:
            self.held.popleft()
        if release < actual:
            raise ValueError("release precedes acquisition")
        self.held.append(release)
        return actual


def _old_record(recent, width, requested):
    """``ThroughputLimiter.record`` as first written."""
    actual = requested
    if len(recent) >= width:
        actual = max(requested, recent[0] + 1)
        recent.popleft()
    recent.append(actual)
    return actual


_requests = st.lists(st.tuples(st.integers(0, 60), st.integers(-5, 40)),
                     max_size=40)


class TestResourcesAgainstModel:
    """Hypothesis differential of the single-call acquire/record paths."""

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 5), steps=_requests)
    def test_window_resource(self, capacity, steps):
        window = WindowResource(capacity)
        model = _OldWindow(capacity)
        for requested, hold in steps:
            release = requested + hold
            try:
                expected = model.acquire(requested, release)
            except ValueError:
                with pytest.raises(ValueError):
                    window.acquire(requested, release)
            else:
                assert window.acquire(requested, release) == expected
            assert window.stall_events == model.stall_events
            assert window.occupancy == len(model.held)

    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 5),
           requested=st.lists(st.integers(0, 60), max_size=40))
    def test_throughput_limiter(self, width, requested):
        limiter = ThroughputLimiter(width)
        recent = deque()
        for cycle in requested:
            assert limiter.record(cycle) == _old_record(recent, width, cycle)


class TestStoreForwarding:
    def test_forwarding_from_buffered_store(self):
        buffer = StoreForwardingBuffer()
        buffer.record_store(seq=5, address=0x100, address_ready_cycle=10,
                            commit_cycle=50)
        ready = buffer.forward(load_seq=7, address=0x100, load_ready_cycle=20)
        assert ready == 21
        assert buffer.forwards == 1

    def test_no_forwarding_from_younger_store(self):
        buffer = StoreForwardingBuffer()
        buffer.record_store(seq=9, address=0x100, address_ready_cycle=10,
                            commit_cycle=50)
        assert buffer.forward(load_seq=7, address=0x100, load_ready_cycle=20) is None

    def test_no_forwarding_after_store_drains(self):
        buffer = StoreForwardingBuffer()
        buffer.record_store(seq=1, address=0x200, address_ready_cycle=5,
                            commit_cycle=8)
        assert buffer.forward(load_seq=3, address=0x200, load_ready_cycle=20) is None

    def test_different_address_no_forwarding(self):
        buffer = StoreForwardingBuffer()
        buffer.record_store(seq=1, address=0x200, address_ready_cycle=5,
                            commit_cycle=100)
        assert buffer.forward(load_seq=2, address=0x240, load_ready_cycle=10) is None

    def test_youngest_store_wins(self):
        buffer = StoreForwardingBuffer()
        buffer.record_store(seq=1, address=0x300, address_ready_cycle=5,
                            commit_cycle=100)
        buffer.record_store(seq=4, address=0x300, address_ready_cycle=30,
                            commit_cycle=120)
        ready = buffer.forward(load_seq=6, address=0x300, load_ready_cycle=10)
        assert ready == 31      # waits for the younger store's address

    def test_reset(self):
        buffer = StoreForwardingBuffer()
        buffer.record_store(1, 0x10, 1, 10)
        buffer.reset()
        assert buffer.forward(2, 0x10, 5) is None
