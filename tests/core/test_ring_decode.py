"""Tests for batched ring pass-Q decode (Algorithm 4)."""

import numpy as np
import pytest

from repro.attention.reference import reference_attention_with_lse
from repro.core.ring_decode import DecodeBatch, ring_passq_decode, round_robin_assignment
from repro.core.sharding import ShardedKV
from repro.distributed.process_group import SimProcessGroup

from helpers import make_qkv


def build_decode_scenario(rng, world, batch, ctx_lens):
    """Per-sequence contexts sharded round-robin-ish across ranks, plus one
    new decode token per sequence (its KV appended to its owner's shard)."""
    assert len(ctx_lens) == batch
    nh, nkv, dh = 8, 2, 16
    seq_kv = {}
    refs = {}
    batch_q = np.zeros((batch, nh, dh))
    positions = np.zeros(batch, dtype=np.int64)
    assignment = round_robin_assignment(batch, world, step=0)

    rank_parts = [[] for _ in range(world)]
    for b, ctx in enumerate(ctx_lens):
        total = ctx + 1  # cached context + the new decode token
        q, k, v = make_qkv(rng, 1, total, n_heads=nh, n_kv_heads=nkv, head_dim=dh)
        seq_kv[b] = (k, v)
        batch_q[b] = q[0]
        positions[b] = ctx
        out, lse = reference_attention_with_lse(
            q, k, v, q_pos=np.array([ctx]), k_pos=np.arange(total)
        )
        refs[b] = (out[0], lse[0])
        # scatter the cached context across ranks by stripes; the decode
        # token's KV goes to the assigned rank
        stripes = np.array_split(np.arange(ctx), world)
        for rank, stripe in enumerate(stripes):
            pos = stripe
            if rank == assignment[b]:
                pos = np.concatenate([stripe, [ctx]])
            if pos.size:
                rank_parts[rank].append(
                    ShardedKV(
                        k=k[pos], v=v[pos],
                        positions=pos.astype(np.int64),
                        seq_ids=np.full(pos.shape[0], b, dtype=np.int64),
                    )
                )
    kv_shards = [
        ShardedKV.concat(parts) if parts else ShardedKV.empty(nkv, dh)
        for parts in rank_parts
    ]
    batch_obj = DecodeBatch(
        q=batch_q, positions=positions, seq_ids=np.arange(batch, dtype=np.int64)
    )
    return kv_shards, batch_obj, refs


class TestRoundRobin:
    def test_offset_rotates(self):
        a0 = round_robin_assignment(4, 4, 0)
        a1 = round_robin_assignment(4, 4, 1)
        np.testing.assert_array_equal(a0, [0, 1, 2, 3])
        np.testing.assert_array_equal(a1, [1, 2, 3, 0])

    def test_balanced_over_steps(self):
        """Over N steps every batch slot visits every rank once — the
        property that levels KV-cache growth (§3.6)."""
        world, batch = 4, 4
        visits = np.zeros((batch, world), dtype=int)
        for step in range(world):
            a = round_robin_assignment(batch, world, step)
            for b in range(batch):
                visits[b, a[b]] += 1
        assert np.all(visits == 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            round_robin_assignment(-1, 4, 0)
        with pytest.raises(ValueError):
            round_robin_assignment(4, 0, 0)
        with pytest.raises(ValueError):
            round_robin_assignment(4, 4, -1)


class TestDecodeExactness:
    @pytest.mark.parametrize("world,batch", [(1, 1), (2, 1), (2, 4), (3, 5), (4, 2)])
    def test_matches_reference(self, rng, world, batch):
        ctx_lens = [int(c) for c in rng.integers(5, 40, size=batch)]
        kv_shards, batch_obj, refs = build_decode_scenario(rng, world, batch, ctx_lens)
        group = SimProcessGroup(world)
        result, assignment = ring_passq_decode(group, kv_shards, batch_obj, step=0)
        for b in range(batch):
            np.testing.assert_allclose(result.out[b], refs[b][0], atol=1e-10)
            np.testing.assert_allclose(result.lse[b], refs[b][1], atol=1e-10)
        np.testing.assert_array_equal(
            assignment, round_robin_assignment(batch, world, 0)
        )

    def test_fp32_compute_merges_in_fp64(self, rng):
        """compute_dtype=float32 stays within fp32 rounding of the exact
        result, and the merged output is still float64."""
        kv_shards, batch_obj, refs = build_decode_scenario(rng, 2, 3, [20, 31, 9])
        result, _ = ring_passq_decode(
            SimProcessGroup(2), kv_shards, batch_obj, step=0, compute_dtype=np.float32
        )
        assert result.out.dtype == np.float64 and result.lse.dtype == np.float64
        for b in range(3):
            np.testing.assert_allclose(result.out[b], refs[b][0], atol=1e-5)
            np.testing.assert_allclose(result.lse[b], refs[b][1], atol=1e-5)

    def test_comm_pattern(self, rng):
        world = 4
        kv_shards, batch_obj, _ = build_decode_scenario(rng, world, 4, [12, 12, 12, 12])
        group = SimProcessGroup(world)
        ring_passq_decode(group, kv_shards, batch_obj, step=0)
        assert group.tracer.count("sendrecv") == world - 1
        assert group.tracer.count("all2all") == 1


class TestDecodeBatchValidation:
    def test_duplicate_seq_rejected(self, rng):
        q = rng.standard_normal((2, 4, 8))
        with pytest.raises(ValueError):
            DecodeBatch(q=q, positions=np.zeros(2, dtype=np.int64), seq_ids=np.array([1, 1]))

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            DecodeBatch(
                q=rng.standard_normal((2, 4)),
                positions=np.zeros(2, dtype=np.int64),
                seq_ids=np.array([0, 1]),
            )

    def test_kv_shard_count_checked(self, rng):
        kv_shards, batch_obj, _ = build_decode_scenario(rng, 2, 2, [8, 8])
        with pytest.raises(ValueError):
            ring_passq_decode(SimProcessGroup(3), kv_shards, batch_obj, step=0)
