"""Tests for the per-rank KV cache."""

import numpy as np
import pytest

from repro.kvcache.cache import CacheCapacityError, RankKVCache


def make_cache(**kwargs):
    return RankKVCache(n_layers=2, n_kv_heads=2, head_dim=4, **kwargs)


def kv_chunk(n, value=1.0):
    k = np.full((n, 2, 4), value)
    v = np.full((n, 2, 4), -value)
    return k, v


class TestAppendGet:
    def test_roundtrip(self):
        cache = make_cache()
        k, v = kv_chunk(3)
        cache.append(0, 7, k, v, np.array([0, 1, 2]))
        got = cache.get(0)
        assert len(got) == 3
        np.testing.assert_array_equal(got.k, k)
        np.testing.assert_array_equal(got.v, v)
        np.testing.assert_array_equal(got.positions, [0, 1, 2])
        np.testing.assert_array_equal(got.seq_ids, [7, 7, 7])

    def test_chunked_appends_concatenate(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2, 1.0), np.array([0, 1]))
        cache.append(0, 1, *kv_chunk(1, 2.0), np.array([2]))
        got = cache.get(0)
        assert len(got) == 3
        np.testing.assert_array_equal(got.positions, [0, 1, 2])
        assert got.k[2, 0, 0] == 2.0

    def test_layers_independent(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2), np.array([0, 1]))
        cache.append(1, 1, *kv_chunk(3), np.array([0, 1, 2]))
        assert len(cache.get(0)) == 2
        assert len(cache.get(1)) == 3

    def test_sequence_filter(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2), np.array([0, 1]))
        cache.append(0, 2, *kv_chunk(4), np.array([0, 1, 2, 3]))
        assert len(cache.get(0, [1])) == 2
        assert len(cache.get(0, [2])) == 4
        assert len(cache.get(0, [1, 2])) == 6
        assert len(cache.get(0, [99])) == 0

    def test_empty_get(self):
        cache = make_cache()
        got = cache.get(0)
        assert len(got) == 0
        assert got.k.shape == (0, 2, 4)

    def test_zero_token_append_noop(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(0), np.zeros(0, dtype=np.int64))
        assert cache.total_tokens(0) == 0


class TestCapacity:
    def test_oom_raised(self):
        cache = make_cache(capacity_tokens=8, block_size=4)
        cache.append(0, 1, *kv_chunk(8), np.arange(8))
        with pytest.raises(CacheCapacityError):
            cache.append(0, 2, *kv_chunk(1), np.array([0]))

    def test_only_layer0_charged(self):
        """All layers store the same tokens; capacity is counted once."""
        cache = make_cache(capacity_tokens=4, block_size=4)
        cache.append(0, 1, *kv_chunk(4), np.arange(4))
        cache.append(1, 1, *kv_chunk(4), np.arange(4))  # no extra charge
        assert cache.free_tokens() == 0

    def test_drop_releases(self):
        cache = make_cache(capacity_tokens=8, block_size=4)
        cache.append(0, 1, *kv_chunk(8), np.arange(8))
        cache.drop(1)
        assert cache.free_tokens() == 8
        cache.append(0, 2, *kv_chunk(8), np.arange(8))

    def test_unbounded_by_default(self):
        cache = make_cache()
        assert cache.free_tokens() is None

    def test_unbounded_pool_doubles_and_keeps_contents(self):
        cache = make_cache(block_size=4)
        assert cache.utilization() is None
        cache.append(0, 1, *kv_chunk(3, 1.0), np.arange(3))
        blocks = cache._allocator.num_blocks
        cache.append(0, 2, *kv_chunk(40, 2.0), np.arange(40))
        cache.append(0, 1, *kv_chunk(30, 3.0), np.arange(3, 33))
        assert cache._allocator.num_blocks > blocks
        assert cache._allocator.audit() == []
        got = cache.get(0, [1])
        np.testing.assert_array_equal(got.positions, np.arange(33))
        assert got.k[:3, 0, 0].tolist() == [1.0] * 3
        assert got.k[3:, 0, 0].tolist() == [3.0] * 30


class TestBookkeeping:
    def test_tokens_and_totals(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2), np.array([0, 1]))
        cache.append(0, 2, *kv_chunk(5), np.arange(5))
        assert cache.tokens(1) == 2
        assert cache.tokens(2) == 5
        assert cache.total_tokens(0) == 7
        assert cache.sequence_ids() == [1, 2]

    def test_drop_all_layers(self):
        cache = make_cache()
        for layer in range(2):
            cache.append(layer, 1, *kv_chunk(2), np.array([0, 1]))
        cache.drop(1)
        assert cache.tokens(1, layer=0) == 0
        assert cache.tokens(1, layer=1) == 0


class TestDropTail:
    def test_drops_positions_at_or_above_cutoff(self):
        cache = make_cache()
        for layer in range(2):
            # gapped positions, as load-balanced sharding leaves on a rank
            cache.append(layer, 1, *kv_chunk(3, 1.0), np.array([0, 2, 3]))
            cache.append(layer, 1, *kv_chunk(2, 2.0), np.array([5, 7]))
        freed = cache.drop_tail(1, from_pos=4)
        assert freed == 2  # positions 5 and 7 at layer 0
        for layer in range(2):
            got = cache.get(layer, [1])
            assert got.positions.tolist() == [0, 2, 3]
        # prefix values survive intact
        got = cache.get(0, [1])
        assert got.k[2, 0, 0] == 1.0

    def test_whole_chunk_dropped(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2), np.array([0, 1]))
        cache.append(0, 1, *kv_chunk(2), np.array([4, 5]))
        assert cache.drop_tail(1, from_pos=2) == 2
        assert cache.tokens(1) == 2

    def test_everything_dropped_removes_stream(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(3), np.array([0, 1, 2]))
        assert cache.drop_tail(1, from_pos=0) == 3
        assert cache.tokens(1) == 0
        assert cache.sequence_ids() == []

    def test_nothing_to_drop(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2), np.array([0, 1]))
        assert cache.drop_tail(1, from_pos=2) == 0
        assert cache.drop_tail(99, from_pos=0) == 0
        assert cache.tokens(1) == 2

    def test_allocator_blocks_returned(self):
        cache = make_cache(capacity_tokens=32, block_size=4)
        cache.append(0, 1, *kv_chunk(10), np.arange(10))
        before = cache.free_tokens()
        freed = cache.drop_tail(1, from_pos=3)
        assert freed == 7
        assert cache.free_tokens() == before + 7
        # the freed WHOLE blocks are claimable by another sequence (the
        # slack in seq 1's kept partial block is not)
        assert cache.can_append({2: 7 * 4})
        assert not cache.can_append({2: 7 * 4 + 1})

    def test_quantized_chunks_sliced(self):
        cache = make_cache(quantized=True)
        k, v = kv_chunk(4, 3.0)
        cache.append(0, 1, k, v, np.array([0, 1, 2, 3]))
        assert cache.drop_tail(1, from_pos=2) == 2
        got = cache.get(0, [1])
        np.testing.assert_array_equal(got.positions, [0, 1])
        np.testing.assert_allclose(got.k, k[:2], rtol=1e-2)

    def test_validation(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.drop_tail(1, from_pos=-1)


class TestValidation:
    def test_bad_layer(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.append(5, 1, *kv_chunk(1), np.array([0]))
        with pytest.raises(ValueError):
            cache.get(-1)

    def test_positions_must_increase_along_stream(self):
        cache = make_cache(capacity_tokens=16, block_size=4)
        with pytest.raises(ValueError):
            cache.append(0, 1, *kv_chunk(2), np.array([3, 1]))
        cache.append(0, 1, *kv_chunk(2), np.array([4, 6]))
        with pytest.raises(ValueError):
            cache.append(0, 1, *kv_chunk(1), np.array([6]))
        # a rejected append charges nothing
        assert cache.tokens(1) == 2
        assert cache.free_tokens() == 14

    def test_bad_shapes(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.append(0, 1, np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), np.arange(2))
        with pytest.raises(ValueError):
            k, v = kv_chunk(2)
            cache.append(0, 1, k, v, np.arange(3))
