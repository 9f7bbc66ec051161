"""Tests for the block-pool storage behind RankKVCache.

K/V live in ``[num_blocks, block_size, NKV, DH]`` pools addressed by the
paged allocator's block tables; ``get`` gathers them back in position
order. These pin the gather to contiguous storage exactly.
"""

import numpy as np
import pytest

from repro.attention.flash import flash_attention
from repro.kvcache.cache import CacheCapacityError, RankKVCache

from helpers import make_qkv


def store(num_blocks=16, block_size=4):
    return RankKVCache(
        1, n_kv_heads=2, head_dim=8,
        capacity_tokens=num_blocks * block_size, block_size=block_size,
    )


class TestBlockStore:
    def test_roundtrip_in_position_order(self, rng):
        s = store()
        _, k, v = make_qkv(rng, 1, 10, head_dim=8)
        s.append(0, 0, k, v, np.arange(10))
        got = s.get(0, [0])
        np.testing.assert_array_equal(got.k, k)
        np.testing.assert_array_equal(got.v, v)
        np.testing.assert_array_equal(got.positions, np.arange(10))

    def test_chunked_appends_cross_block_boundaries(self, rng):
        s = store(block_size=4)
        _, k, v = make_qkv(rng, 1, 11, head_dim=8)
        s.append(0, 0, k[:3], v[:3], np.arange(3))
        s.append(0, 0, k[3:7], v[3:7], np.arange(3, 7))
        s.append(0, 0, k[7:], v[7:], np.arange(7, 11))
        got = s.get(0, [0])
        np.testing.assert_array_equal(got.k, k)
        assert s.tokens(0) == 11
        assert len(s._allocator.stream_blocks((0,))) == 3  # ceil(11 / 4)

    def test_interleaved_sequences_isolated(self, rng):
        s = store(block_size=4)
        _, ka, va = make_qkv(rng, 1, 6, head_dim=8)
        _, kb, vb = make_qkv(rng, 1, 5, head_dim=8)
        s.append(0, 0, ka[:3], va[:3], np.arange(3))
        s.append(0, 1, kb[:2], vb[:2], np.arange(2))
        s.append(0, 0, ka[3:], va[3:], np.arange(3, 6))
        s.append(0, 1, kb[2:], vb[2:], np.arange(2, 5))
        # the two streams' blocks interleave in the pool
        assert s._allocator.stream_blocks((0,)) == (0, 2)
        assert s._allocator.stream_blocks((1,)) == (1, 3)
        np.testing.assert_array_equal(s.get(0, [0]).k, ka)
        np.testing.assert_array_equal(s.get(0, [1]).k, kb)
        both = s.get(0)
        np.testing.assert_array_equal(both.k, np.concatenate([ka, kb]))
        np.testing.assert_array_equal(both.seq_ids, [0] * 6 + [1] * 5)

    def test_attention_over_gathered_blocks_exact(self, rng):
        """Paged access yields identical attention to contiguous storage."""
        s = store(block_size=3)
        q, k, v = make_qkv(rng, 4, 13, head_dim=8)
        other = make_qkv(rng, 1, 13, head_dim=8)
        for start in range(0, 13, 5):  # interleave a second sequence's blocks
            rows = slice(start, start + 5)
            s.append(0, 0, k[rows], v[rows], np.arange(13)[rows])
            s.append(0, 1, other[1][rows], other[2][rows], np.arange(13)[rows])
        got = s.get(0, [0])
        paged = flash_attention(
            q, got.k, got.v,
            q_pos=np.arange(9, 13), k_pos=got.positions,
        )
        contiguous = flash_attention(q, k, v, q_pos=np.arange(9, 13), k_pos=np.arange(13))
        np.testing.assert_array_equal(got.k, k)
        np.testing.assert_allclose(paged.out, contiguous.out, atol=1e-12)

    def test_oom_is_transactional(self, rng):
        s = store(num_blocks=2, block_size=4)
        _, k, v = make_qkv(rng, 1, 8, head_dim=8)
        s.append(0, 0, k, v, np.arange(8))
        _, k2, v2 = make_qkv(rng, 1, 4, head_dim=8)
        with pytest.raises(CacheCapacityError):
            s.append(0, 1, k2, v2, np.arange(4))
        # pool unchanged; sequence 0 intact
        np.testing.assert_array_equal(s.get(0, [0]).k, k)
        assert s.tokens(1) == 0
        assert s._allocator.audit() == []

    def test_release_recycles_blocks(self, rng):
        s = store(num_blocks=2, block_size=4)
        _, k, v = make_qkv(rng, 1, 8, head_dim=8)
        s.append(0, 0, k, v, np.arange(8))
        s.drop(0)
        s.append(0, 1, k, v, np.arange(8))  # reuses the freed blocks
        np.testing.assert_array_equal(s.get(0, [1]).k, k)

    def test_fragmentation_accounting(self, rng):
        s = store(block_size=4)
        _, k, v = make_qkv(rng, 1, 5, head_dim=8)
        s.append(0, 0, k, v, np.arange(5))
        # 2 blocks claimed (8 slots), 5 used: the 3 slack slots stay
        # appendable by this stream only
        assert s.utilization() == pytest.approx(2 / 16)
        assert s.free_tokens() == 14 * 4 + 3
        assert s.can_append({0: 3}) and not s.can_append({1: 14 * 4 + 1})

    def test_empty_gather(self):
        got = store().get(0)
        assert len(got) == 0

    def test_validation(self, rng):
        s = store()
        with pytest.raises(ValueError):
            s.append(0, 0, np.zeros((2, 3, 8)), np.zeros((2, 3, 8)), np.arange(2))
        with pytest.raises(ValueError):
            _, k, v = make_qkv(rng, 1, 2, head_dim=8)
            s.append(0, 0, k, v, np.arange(3))
