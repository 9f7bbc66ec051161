"""Tests for the lockstep simulated process group."""

import numpy as np
import pytest

from repro.core.sharding import ShardedKV
from repro.distributed.process_group import SimProcessGroup, payload_elements
from repro.distributed.topology import gtt_topology


class TestPayloadElements:
    def test_array(self):
        assert payload_elements(np.zeros((3, 4))) == 12

    def test_nested(self):
        payload = {"a": [np.zeros(2), np.zeros(3)], "b": (np.zeros(5), 1.0)}
        assert payload_elements(payload) == 11

    def test_none(self):
        assert payload_elements(None) == 0

    def test_dataclass(self):
        kv = ShardedKV(
            k=np.zeros((2, 2, 4)), v=np.zeros((2, 2, 4)),
            positions=np.zeros(2, dtype=np.int64), seq_ids=np.zeros(2, dtype=np.int64),
        )
        assert payload_elements(kv) == 16 + 16 + 2 + 2

    def test_unsupported(self):
        with pytest.raises(TypeError):
            payload_elements(object())


class TestRingShift:
    def test_rotation(self):
        g = SimProcessGroup(4)
        payloads = [np.full(3, k) for k in range(4)]
        shifted = g.ring_shift(payloads)
        for k in range(4):
            np.testing.assert_array_equal(shifted[k], payloads[(k - 1) % 4])

    def test_no_aliasing(self):
        """Delivery is zero-copy, so aliasing is forbidden by freezing:
        writes through the received or the sent buffer both raise."""
        g = SimProcessGroup(2)
        payloads = [np.zeros(3), np.ones(3)]
        shifted = g.ring_shift(payloads)
        with pytest.raises(ValueError):
            shifted[0][0] = 99.0
        with pytest.raises(ValueError):
            payloads[1][0] = 99.0
        assert payloads[1][0] == 1.0  # sender's buffer untouched

    def test_zero_copy_in_fresh_containers(self):
        g = SimProcessGroup(2)
        payloads = [{"q": np.zeros(3), "meta": (np.arange(2), 7)} for _ in range(2)]
        shifted = g.ring_shift(payloads)
        assert shifted[1] is not payloads[0]
        assert shifted[1]["q"] is payloads[0]["q"]  # same buffer, no copy
        assert shifted[1]["meta"][1] == 7
        shifted[1]["q"] = None  # rebinding a received container is local
        assert payloads[0]["q"] is not None

    def test_singleton_world(self):
        g = SimProcessGroup(1)
        out = g.ring_shift([np.arange(3)])
        np.testing.assert_array_equal(out[0], np.arange(3))
        assert g.tracer.count("sendrecv") == 0  # no wire traffic

    def test_bytes_accounting(self):
        g = SimProcessGroup(2, wire_bytes_per_element=2)
        g.ring_shift([np.zeros(10), np.zeros(7)])
        events = list(g.tracer)
        assert len(events) == 1
        assert events[0].bytes == 10 * 2  # max payload sets the step size

    def test_wrong_world_size(self):
        g = SimProcessGroup(3)
        with pytest.raises(ValueError):
            g.ring_shift([np.zeros(1)] * 2)


class TestAllToAll:
    def test_transpose_semantics(self):
        g = SimProcessGroup(3)
        matrix = [[np.array([src * 10 + dst]) for dst in range(3)] for src in range(3)]
        out = g.all_to_all(matrix)
        for dst in range(3):
            for src in range(3):
                assert out[dst][src][0] == src * 10 + dst

    def test_egress_accounting_excludes_self(self):
        g = SimProcessGroup(2, wire_bytes_per_element=2)
        matrix = [[np.zeros(5), np.zeros(5)], [np.zeros(5), np.zeros(5)]]
        g.all_to_all(matrix)
        events = [e for e in g.tracer if e.kind == "all2all"]
        assert events[0].bytes == 5 * 2  # one off-diagonal payload per rank

    def test_received_buffers_read_only(self):
        g = SimProcessGroup(2)
        matrix = [[np.zeros(2), np.zeros(2)], [np.zeros(2), np.zeros(2)]]
        out = g.all_to_all(matrix)
        for row in out:
            for arr in row:
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        with pytest.raises(ValueError):
            matrix[0][1][0] = 1.0

    def test_non_square_rejected(self):
        g = SimProcessGroup(2)
        with pytest.raises(ValueError):
            g.all_to_all([[np.zeros(1)], [np.zeros(1)]])


class TestAllGather:
    def test_everyone_sees_everything(self):
        g = SimProcessGroup(3)
        out = g.all_gather([np.full(2, k) for k in range(3)])
        for k in range(3):
            for s in range(3):
                np.testing.assert_array_equal(out[k][s], np.full(2, s))

    def test_dataclass_payload_frozen_and_rebuilt(self):
        kv = ShardedKV(
            k=np.zeros((2, 2, 4)), v=np.zeros((2, 2, 4)),
            positions=np.arange(2), seq_ids=np.zeros(2, dtype=np.int64),
        )
        g = SimProcessGroup(2)
        out = g.all_gather([kv, kv])
        assert out[0][0] is not kv and out[0][0].k is kv.k
        with pytest.raises(ValueError):
            out[1][0].positions[0] = 5
        assert g.tracer.total_bytes("allgather") == 2 * payload_elements(kv)

    def test_bytes_scale_with_world(self):
        g2 = SimProcessGroup(2, wire_bytes_per_element=2)
        g4 = SimProcessGroup(4, wire_bytes_per_element=2)
        g2.all_gather([np.zeros(8)] * 2)
        g4.all_gather([np.zeros(8)] * 4)
        assert g4.tracer.total_bytes("allgather") == 3 * g2.tracer.total_bytes("allgather")


class TestAllReduce:
    def test_sum(self):
        g = SimProcessGroup(3)
        out = g.all_reduce_sum([np.full(4, float(k)) for k in range(3)])
        for arr in out:
            np.testing.assert_array_equal(arr, np.full(4, 3.0))

    def test_shape_mismatch(self):
        g = SimProcessGroup(2)
        with pytest.raises(ValueError):
            g.all_reduce_sum([np.zeros(3), np.zeros(4)])


class TestConstruction:
    def test_topology_world_mismatch(self):
        with pytest.raises(ValueError):
            SimProcessGroup(4, topology=gtt_topology(2))

    def test_matching_topology(self):
        g = SimProcessGroup(2, topology=gtt_topology(2))
        assert g.topology.name == "GTT-2n"

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SimProcessGroup(0)
        with pytest.raises(ValueError):
            SimProcessGroup(2, wire_bytes_per_element=0)
