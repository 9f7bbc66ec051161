"""Stateful property: the block-pool RankKVCache is a list of arrays.

The cache stores every layer's K/V and positions in block pools addressed
by the paged allocator's block tables; prefix sharing is a refcount bump,
tail eviction a block release and copy-on-write a one-block copy. None of
that may be visible through ``get``: under any schedule of appends (all
layers, as the engine writes them), ``share_prefix``, ``drop_tail`` and
``drop`` — copy-on-write splits included — every read is bit-identical to
a model that keeps each sequence's rows as plain per-layer arrays. Dense
and int8-quantized storage, bounded and growing pools are all swept; the
properties conftest also arms the allocator sanitizer underneath.
"""

import numpy as np
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.kvcache.cache import CacheCapacityError, RankKVCache
from repro.kvcache.quantized import dequantize_kv, quantize_kv

LAYERS, NKV, DH = 2, 2, 4
SEQS = st.integers(0, 4)


class CacheMachine(RuleBasedStateMachine):
    CAPACITY: int | None = 48
    BLOCK = 4
    QUANTIZED = False

    def __init__(self):
        super().__init__()
        self.cache = RankKVCache(
            LAYERS, NKV, DH,
            capacity_tokens=self.CAPACITY, block_size=self.BLOCK, quantized=self.QUANTIZED,
        )
        self.rng = np.random.default_rng(0)
        #: {seq_id: per-layer (k, v, positions)}
        self.model: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}

    def _rows(self, n: int):
        k = self.rng.standard_normal((n, NKV, DH))
        v = self.rng.standard_normal((n, NKV, DH))
        if self.QUANTIZED:  # the model holds what the codes decode to
            k, v = dequantize_kv(quantize_kv(k, v))
        return k, v

    @rule(sid=SEQS, n=st.integers(1, 9), gap=st.integers(1, 3))
    def append(self, sid, n, gap):
        layers = self.model.get(sid)
        start = int(layers[0][2][-1]) + gap if layers else gap - 1
        positions = start + np.arange(n) * gap
        fits = self.cache.can_append({sid: n})
        rows = [self._rows(n) for _ in range(LAYERS)]
        try:
            for layer, (k, v) in enumerate(rows):
                self.cache.append(layer, sid, k, v, positions)
        except CacheCapacityError:
            assert not fits, "can_append approved an append that overflowed"
            return
        assert fits, "append succeeded after can_append said no"
        old = layers or [
            (np.zeros((0, NKV, DH)), np.zeros((0, NKV, DH)), np.zeros(0, np.int64))
        ] * LAYERS
        self.model[sid] = [
            (np.concatenate([ok, k]), np.concatenate([ov, v]), np.concatenate([op, positions]))
            for (ok, ov, op), (k, v) in zip(old, rows)
        ]

    @rule(src=SEQS, dst=SEQS, upto=st.integers(1, 40))
    def share_prefix(self, src, dst, upto):
        if src == dst or dst in self.model or src not in self.model:
            return
        shared = self.cache.share_prefix(src, dst, upto)
        kept = [(k[p < upto], v[p < upto], p[p < upto]) for k, v, p in self.model[src]]
        assert shared == kept[0][2].size
        if shared:
            self.model[dst] = kept

    @rule(sid=SEQS, from_pos=st.integers(0, 40))
    def drop_tail(self, sid, from_pos):
        dropped = self.cache.drop_tail(sid, from_pos)
        if sid not in self.model:
            assert dropped == 0
            return
        kept = [(k[p < from_pos], v[p < from_pos], p[p < from_pos]) for k, v, p in self.model[sid]]
        assert dropped == self.model[sid][0][2].size - kept[0][2].size
        if kept[0][2].size:
            self.model[sid] = kept
        else:
            del self.model[sid]

    @rule(sid=SEQS)
    def drop(self, sid):
        freed = self.cache.drop(sid)
        layers = self.model.pop(sid, None)
        assert freed == (0 if layers is None else layers[0][2].size)

    @invariant()
    def reads_equal_model(self):
        sids = sorted(self.model)
        assert self.cache.sequence_ids() == sids
        for layer in range(LAYERS):
            got = self.cache.get(layer)
            want = [self.model[s][layer] for s in sids]
            if not want:
                assert len(got) == 0
                continue
            assert np.array_equal(got.k, np.concatenate([w[0] for w in want]))
            assert np.array_equal(got.v, np.concatenate([w[1] for w in want]))
            assert np.array_equal(got.positions, np.concatenate([w[2] for w in want]))
            assert np.array_equal(
                got.seq_ids, np.concatenate([np.full(w[2].size, s) for s, w in zip(sids, want)])
            )
            for s in sids:  # per-sequence reads (the decode/export path)
                one = self.cache.get(layer, [s])
                assert np.array_equal(one.k, self.model[s][layer][0])
                assert self.cache.tokens(s, layer) == self.model[s][layer][2].size

    @invariant()
    def allocator_books_clean(self):
        alloc = self.cache._allocator
        assert alloc.audit() == []
        for sid, layers in self.model.items():
            assert alloc.stream_tokens((sid,)) == layers[0][2].size

    def teardown(self):
        for sid in list(self.model):
            self.cache.drop(sid)
        assert self.cache._allocator.used_blocks == 0
        super().teardown()


class QuantizedCacheMachine(CacheMachine):
    QUANTIZED = True


class GrowingCacheMachine(CacheMachine):
    CAPACITY = None
    BLOCK = 3


TestCacheMachine = CacheMachine.TestCase
TestQuantizedCacheMachine = QuantizedCacheMachine.TestCase
TestGrowingCacheMachine = GrowingCacheMachine.TestCase
