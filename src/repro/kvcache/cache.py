"""Per-rank persistent KV cache on a paged block pool.

Each CP rank owns one :class:`RankKVCache` holding, for every transformer
layer and every live sequence, the K/V projections of the tokens *sharded to
this rank* — cached prompt tokens from earlier turns plus decode tokens the
round-robin assignment landed here. Absolute positions and sequence ids ride
along with the tensors so ring attention can mask exactly regardless of how
turns interleaved (the "load-balanced sharding for persistent KV cache"
contribution of the paper).

Storage is the PagedAttention layout (Kwon et al. 2023, cited in §2.2):
every layer keeps K/V — int8 codes plus per-(token, head) scales in
quantized mode — and absolute positions in ``[num_blocks, block_size, ...]``
pools, and the rank's :class:`repro.kvcache.paged.PagedAllocator` is the
index into them: a sequence's block list is its block table, shared by all
layers (every layer stores the same token set). Positions along a
sequence's stream only increase, so a stream is always in position order
and

- prefix sharing is :meth:`PagedAllocator.share`, a refcount bump;
- tail eviction is :meth:`PagedAllocator.release_tail`, and whole eviction
  :meth:`PagedAllocator.release`;
- copy-on-write (an append into a shared, partly filled last block)
  copies that one block;
- :meth:`RankKVCache.get` is one gather per tensor, sequence by sequence
  in position order.

A bounded cache sizes its pool from ``capacity_tokens``; exceeding it raises
:class:`CacheCapacityError`, which the decode-balance tests use to show the
round-robin scheme postpones OOM versus pinning decode to one rank (§3.6).
An unbounded cache doubles its pool whenever an append would not fit.
"""

from __future__ import annotations

import numpy as np

from repro.core.sharding import ShardedKV
from repro.kvcache.paged import OutOfBlocksError, PagedAllocator
from repro.kvcache.quantized import QuantizedKV, dequantize_kv, quantize_kv


class CacheCapacityError(RuntimeError):
    """A rank's KV pool overflowed."""


class RankKVCache:
    """One CP rank's KV cache across layers and sequences.

    Args:
        n_layers: transformer layers.
        n_kv_heads: KV heads per layer (this rank holds all of them; TP
            sharding inside the host is below this abstraction).
        head_dim: head dimension.
        capacity_tokens: optional per-rank token budget, enforced per layer
            (every layer stores the same token set, so one layer's pool is
            the binding constraint). ``None`` = unbounded.
        block_size: tokens per pool block.
        quantized: store KV int8-quantized per (token, head) (paper §2.2's
            memory lever); reads dequantize transparently, trading exact
            logits for ~2x KV capacity.
    """

    def __init__(
        self,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        *,
        capacity_tokens: int | None = None,
        block_size: int = 16,
        quantized: bool = False,
    ):
        if n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {n_layers}")
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.capacity_tokens = capacity_tokens
        self.block_size = block_size
        self.quantized = quantized
        num_blocks = 0 if capacity_tokens is None else -(-capacity_tokens // block_size)
        self._allocator = PagedAllocator(num_blocks=num_blocks, block_size=block_size)
        kv, scale = (n_kv_heads, head_dim), (n_kv_heads,)
        #: per-token row shape and dtype of each pool
        self._rows: dict[str, tuple[tuple[int, ...], type]] = (
            {"k": (kv, np.int8), "v": (kv, np.int8),
             "k_scale": (scale, np.float64), "v_scale": (scale, np.float64)}
            if quantized
            else {"k": (kv, np.float64), "v": (kv, np.float64)}
        )
        self._rows["pos"] = ((), np.int64)
        self._pools: dict[str, np.ndarray] = {}
        self._resize(num_blocks)
        #: per-layer ``{seq_id: tokens stored}``; only non-empty streams
        self._fill: list[dict[int, int]] = [{} for _ in range(n_layers)]
        #: ``{seq_id: token slots of its block table}``; dropped whenever
        #: the table changes and rebuilt on the next read
        self._tables: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #

    def append(
        self,
        layer: int,
        seq_id: int,
        k: np.ndarray,
        v: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Append projected KV for tokens of ``seq_id`` at ``layer``.

        Raises:
            ValueError: bad shapes, or ``positions`` that do not strictly
                increase past the stream's last stored position.
            CacheCapacityError: when the paged pool is exhausted (a layer
                claims blocks only once it outgrows the sequence's block
                table, so all layers share one charge).
        """
        self._check_layer(layer)
        k = np.asarray(k)
        v = np.asarray(v)
        positions = np.asarray(positions, dtype=np.int64)
        if k.shape != v.shape or k.ndim != 3:
            raise ValueError(f"bad KV shapes k{k.shape} v{v.shape}")
        if k.shape[1:] != (self.n_kv_heads, self.head_dim):
            raise ValueError(
                f"expected [*, {self.n_kv_heads}, {self.head_dim}], got {k.shape}"
            )
        if positions.shape != (k.shape[0],):
            raise ValueError("positions must match token count")
        n = k.shape[0]
        if n == 0:
            return
        fills = self._fill[layer]
        fill = fills.get(seq_id, 0)
        last = self._flat["pos"][layer][self._slots(seq_id)[fill - 1]] if fill else -1
        if positions[0] <= last or (n > 1 and np.any(positions[1:] <= positions[:-1])):
            raise ValueError(
                f"sequence {seq_id} layer {layer}: positions must increase along "
                f"the stream (last stored {last}, got {positions.tolist()})"
            )
        extra = fill + n - self._allocator.stream_tokens((seq_id,))
        if extra > 0:
            self._claim(seq_id, extra)
        slots = self._slots(seq_id)[fill : fill + n]
        if self.quantized:
            rec = quantize_kv(k, v)
            rows = {"k": rec.k_codes, "v": rec.v_codes,
                    "k_scale": rec.k_scales, "v_scale": rec.v_scales}
        else:
            rows = {"k": k, "v": v}
        rows["pos"] = positions
        for name, value in rows.items():
            self._flat[name][layer][slots] = value
        fills[seq_id] = fill + n

    def get(self, layer: int, seq_ids: list[int] | None = None) -> ShardedKV:
        """Fused :class:`ShardedKV` view of this rank's cache at ``layer``.

        One gather through the block tables: sequence by sequence, each in
        position order.

        Args:
            layer: transformer layer.
            seq_ids: restrict to these sequences (default: all, sorted).
        """
        self._check_layer(layer)
        fills = self._fill[layer]
        if seq_ids is None:
            seq_ids = sorted(fills)
        present, counts, parts = [], [], []
        for sid in seq_ids:
            n = fills.get(sid, 0)
            if n:
                present.append(sid)
                counts.append(n)
                parts.append(self._slots(sid)[:n])
        if not parts:
            return ShardedKV.empty(self.n_kv_heads, self.head_dim)
        idx = np.concatenate(parts) if len(parts) > 1 else parts[0]
        flat = self._flat
        k, v = flat["k"][layer][idx], flat["v"][layer][idx]
        if self.quantized:
            k, v = dequantize_kv(QuantizedKV(
                k_codes=k, v_codes=v,
                k_scales=flat["k_scale"][layer][idx], v_scales=flat["v_scale"][layer][idx],
            ))
        return ShardedKV(
            k=k,
            v=v,
            positions=flat["pos"][layer][idx],
            seq_ids=np.repeat(np.asarray(present, dtype=np.int64), counts),
        )

    # ------------------------------------------------------------------ #

    def tokens(self, seq_id: int, layer: int = 0) -> int:
        """Tokens cached for ``seq_id`` at ``layer`` on this rank."""
        return self._fill[layer].get(seq_id, 0)

    def total_tokens(self, layer: int = 0) -> int:
        """Total tokens cached at ``layer`` across sequences."""
        return sum(self._fill[layer].values())

    def free_tokens(self) -> int | None:
        """Remaining appendable tokens, or ``None`` when unbounded."""
        if self.capacity_tokens is None:
            return None
        return self._allocator.free_tokens()

    def utilization(self) -> float | None:
        """Claimed fraction of this rank's block pool (``None`` = unbounded)."""
        if self.capacity_tokens is None:
            return None
        return self._allocator.utilization()

    def sequence_ids(self, layer: int = 0) -> list[int]:
        return sorted(self._fill[layer])

    def can_append(self, demands: dict[int, int]) -> bool:
        """Whether per-sequence token demands fit in this rank's pool.

        Args:
            demands: ``{seq_id: tokens to append}`` for one upcoming engine
                round (prefill chunk or decode step).

        Exact against fragmentation: each sequence first fills the slack in
        its own partially-filled last block, then claims whole free blocks.
        The serving runtime uses this as its admission predicate before
        launching a round, so capacity pressure surfaces as a scheduling
        decision (preempt / wait) instead of a mid-layer
        :class:`CacheCapacityError`.
        """
        if self.capacity_tokens is None:
            return True
        return self._allocator.fits({(sid,): n for sid, n in demands.items()})

    def share_prefix(self, src_seq: int, dst_seq: int, upto_pos: int) -> int:
        """Reference ``src_seq``'s cached KV below ``upto_pos`` as ``dst_seq``.

        Prefix sharing: ``dst_seq``'s block table becomes the first blocks
        of ``src_seq``'s, each refcount bumped
        (:meth:`repro.kvcache.paged.PagedAllocator.share`); no KV is copied
        and the shared span occupies the pool once. Appends to either
        stream never mutate shared blocks: an append into a shared, partly
        filled last block first copies that one block (copy-on-write).

        Args:
            src_seq: resident donor sequence.
            dst_seq: new sequence; must not be cached on this rank.
            upto_pos: share every token at absolute position ``< upto_pos``.

        Returns:
            Tokens shared on this rank at layer 0 (every layer stores the
            same token set); 0 when the donor holds nothing below
            ``upto_pos`` here (the destination then simply starts empty).
        """
        if upto_pos < 1:
            raise ValueError(f"upto_pos must be >= 1, got {upto_pos}")
        if src_seq == dst_seq:
            raise ValueError(f"cannot share sequence {src_seq} with itself")
        if any(dst_seq in fills for fills in self._fill):
            raise ValueError(f"sequence {dst_seq} already cached on this rank")
        kept = [self._count_below(layer, src_seq, upto_pos) for layer in range(self.n_layers)]
        if not any(kept):
            return 0
        self._allocator.share((src_seq,), (dst_seq,), max(kept))
        self._tables.pop(dst_seq, None)
        for fills, n in zip(self._fill, kept):
            if n:
                fills[dst_seq] = n
        return kept[0]

    def drop_tail(self, seq_id: int, from_pos: int) -> int:
        """Evict every cached token of ``seq_id`` at position ``>= from_pos``.

        Partial (tail) eviction: the prefix this rank holds below
        ``from_pos`` stays resident, and only the whole blocks the dropped
        tokens vacate return to the pool. Positions are absolute and
        increase along the stream, so the tokens dropped here are a suffix
        of the stream: exactly this rank's share of the sequence's global
        tail, however sharding interleaved it.

        Returns:
            Tokens dropped at layer 0 (every layer stores the same token
            set); 0 when nothing at or above ``from_pos`` is cached here.
        """
        if from_pos < 0:
            raise ValueError(f"from_pos must be >= 0, got {from_pos}")
        dropped = 0
        for layer, fills in enumerate(self._fill):
            n = fills.get(seq_id, 0)
            keep = self._count_below(layer, seq_id, from_pos)
            if keep == n:
                continue
            if layer == 0:
                dropped = n - keep
            if keep:
                fills[seq_id] = keep
            else:
                del fills[seq_id]
        key = (seq_id,)
        surplus = self._allocator.stream_tokens(key) - max(
            layer_fills.get(seq_id, 0) for layer_fills in self._fill
        )
        if surplus > 0:
            self._allocator.release_tail(key, surplus)
            self._tables.pop(seq_id, None)
        return dropped

    def drop(self, seq_id: int) -> int:
        """Evict a sequence from all layers and release its blocks.

        Returns:
            Tokens freed at layer 0 (every layer stores the same token
            set); 0 when the sequence was not cached here. The serving
            runtime uses the return value for eviction accounting.
        """
        freed = self.tokens(seq_id)
        for fills in self._fill:
            fills.pop(seq_id, None)
        self._tables.pop(seq_id, None)
        self._allocator.release((seq_id,))
        return freed

    # ------------------------------------------------------------------ #

    def _slots(self, seq_id: int) -> np.ndarray:
        """Pool token slots of ``seq_id``'s block table, in stream order."""
        slots = self._tables.get(seq_id)
        if slots is None:
            blocks = np.asarray(self._allocator.stream_blocks((seq_id,)), dtype=np.int64)
            bs = self.block_size
            slots = self._tables[seq_id] = (blocks[:, None] * bs + np.arange(bs)).ravel()
        return slots

    def _count_below(self, layer: int, seq_id: int, pos: int) -> int:
        """Stored tokens of ``seq_id`` at ``layer`` with position ``< pos``."""
        n = self._fill[layer].get(seq_id, 0)
        if n == 0:
            return 0
        stored = self._flat["pos"][layer][self._slots(seq_id)[:n]]
        return int(np.searchsorted(stored, pos))

    def _claim(self, seq_id: int, n: int) -> None:
        """Charge ``n`` more tokens to ``seq_id``'s block table."""
        key = (seq_id,)
        alloc = self._allocator
        if self.capacity_tokens is None and not alloc.fits({key: n}):
            while not alloc.fits({key: n}):
                alloc.grow(max(alloc.num_blocks, 1))
            self._resize(alloc.num_blocks)
        held = len(self._slots(seq_id)) // self.block_size
        last = alloc.block_at(key, held - 1) if held else -1
        try:
            alloc.append(key, n)
        except OutOfBlocksError as exc:
            del self._tables[seq_id]
            raise CacheCapacityError(str(exc)) from exc
        fresh = alloc.block_at(key, held - 1) if held else -1
        if fresh != last:  # copy-on-write split of a shared last block
            for pool in self._pools.values():
                pool[:, fresh] = pool[:, last]
        if fresh != last or alloc.stream_tokens(key) > held * self.block_size:
            del self._tables[seq_id]

    def _resize(self, num_blocks: int) -> None:
        """(Re)allocate the pools at ``num_blocks``, keeping their contents."""
        for name, (row, dtype) in self._rows.items():
            grown = np.zeros((self.n_layers, num_blocks, self.block_size, *row), dtype=dtype)
            old = self._pools.get(name)
            if old is not None:
                grown[:, : old.shape[1]] = old
            self._pools[name] = grown
        #: token-slot views of the pools: slot = block * block_size + offset
        self._flat = {
            name: pool.reshape(self.n_layers, -1, *pool.shape[3:])
            for name, pool in self._pools.items()
        }

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.n_layers:
            raise ValueError(f"layer {layer} out of range [0, {self.n_layers})")
