"""Per-sequence segment-gather attention for batched decode.

In a decode round every query is one token of one sequence, yet a CP rank's
KV shard holds the keys of *every* sequence in the batch. Sweeping each
query over the whole shard under a dense ``[Tq, Tk]`` mask (what
:func:`repro.attention.flash.flash_attention` does) spends almost all of its
work on keys of other sequences, which the mask then discards.

This kernel reads each query's own sequence instead, the access pattern of
PagedAttention's decode kernel (Kwon et al. 2023, cited in §2.2):

1. :func:`kv_segments` indexes a KV shard once: a stable sort by sequence id
   plus each sequence's start and count in that order. The ring reuses the
   index at every ring step, and the shard-level skip summary
   (:meth:`KVSegments.min_positions`) is read off it too.
2. :func:`decode_attention` gathers every query's segment into a padded
   ``[Tq, Lmax, NKV, DH]`` tensor, masks padding, causality (or a
   ``mask_fn``) through the same gather index, and returns the exact
   ``(O, LSE)`` with one batched score matmul and one value matmul — no
   block loop.

The result is the same partial attention
:func:`repro.attention.reference.reference_attention_with_lse` computes
over the whole shard: keys of other sequences are masked there and simply
never visited here, so the two agree to rounding (``O = 0`` and
``LSE = -inf`` exactly where no key is visible), and the partials merge
through :mod:`repro.core.merge` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.flash import DEFAULT_COMPUTE_DTYPE, AttentionResult
from repro.attention.gqa import validate_gqa_shapes
from repro.attention.masks import PAD_SEQ


@dataclass(frozen=True)
class KVSegments:
    """A KV shard's keys grouped by sequence.

    Attributes:
        order: ``[Tk]`` stable argsort of the shard's sequence ids — within a
            sequence, keys keep their storage order.
        seq_ids: ``[S]`` distinct sequence ids, ascending.
        starts: ``[S]`` offset of each sequence's first key in ``order``.
        counts: ``[S]`` keys per sequence.
    """

    order: np.ndarray
    seq_ids: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    def min_positions(self, positions: np.ndarray) -> dict[int, int]:
        """``{seq_id: min key position}`` over non-pad sequences — the
        :func:`repro.core.ring_skip.kv_reach` summary, one reduction."""
        if self.order.size == 0:
            return {}
        mins = np.minimum.reduceat(np.asarray(positions)[self.order], self.starts)
        return {
            int(sid): int(m) for sid, m in zip(self.seq_ids, mins) if sid != PAD_SEQ
        }


def kv_segments(k_seq: np.ndarray) -> KVSegments:
    """Index a KV shard by sequence id (see :class:`KVSegments`)."""
    k_seq = np.asarray(k_seq)
    order = np.argsort(k_seq, kind="stable")
    seq_ids, starts, counts = np.unique(k_seq[order], return_index=True, return_counts=True)
    return KVSegments(order=order, seq_ids=seq_ids, starts=starts, counts=counts)


def decode_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    q_pos: np.ndarray,
    k_pos: np.ndarray,
    q_seq: np.ndarray,
    k_seq: np.ndarray,
    segments: KVSegments | None = None,
    scale: float | None = None,
    mask_fn=None,
    compute_dtype=None,
) -> AttentionResult:
    """Exact causal GQA attention of each query over its own sequence's keys.

    Args:
        q, k, v: GQA tensors ``[Tq, NH, DH]`` / ``[Tk, NKV, DH]``.
        q_pos, k_pos, q_seq, k_seq: token coordinates (see
            :mod:`repro.attention.masks`); ``PAD_SEQ`` queries see nothing,
            and keys may be stored in any order.
        segments: ``kv_segments(k_seq)``, when the caller already built it
            (the ring reuses one index for every ring step).
        scale: score scale, default ``1/sqrt(DH)``.
        mask_fn: optional mask override in absolute coordinates, evaluated
            on the whole shard and read through the gather index. Keys of
            other sequences are never visited, so the override can only
            restrict attention within a sequence (windows, sinks).
        compute_dtype: score/softmax/value arithmetic dtype (default
            ``float64``); ``O`` and ``LSE`` are returned in ``float64`` for
            the merge.

    Returns:
        ``(O [Tq, NH, DH], LSE [Tq, NH])``; ``O = 0`` and ``LSE = -inf`` for
        queries with no visible key.
    """
    tq, tk, nh, nkv = validate_gqa_shapes(q, k, v)
    dh = q.shape[-1]
    seg = kv_segments(k_seq) if segments is None else segments
    if tq == 0 or seg.seq_ids.size == 0:
        return AttentionResult.empty(tq, nh, dh)
    q_pos = np.asarray(q_pos)
    q_seq = np.asarray(q_seq)

    # Which segment each query reads, and how many keys it holds there.
    j = np.minimum(np.searchsorted(seg.seq_ids, q_seq), seg.seq_ids.size - 1)
    count = np.where((seg.seq_ids[j] == q_seq) & (q_seq != PAD_SEQ), seg.counts[j], 0)
    lmax = int(count.max())
    if lmax == 0:
        return AttentionResult.empty(tq, nh, dh)
    lane = np.arange(lmax)
    valid = lane < count[:, None]
    # [Tq, Lmax] key rows; padding lanes repeat a real row and are masked
    idx = seg.order[seg.starts[j][:, None] + np.minimum(lane, np.maximum(count - 1, 0)[:, None])]

    if mask_fn is not None:
        full = np.asarray(mask_fn(q_pos, k_pos, q_seq, k_seq), dtype=bool)
        if full.shape != (tq, tk):
            raise ValueError(f"mask_fn returned shape {full.shape}, expected {(tq, tk)}")
        mask = valid & np.take_along_axis(full, idx, axis=1)
    else:
        mask = valid & (np.asarray(k_pos)[idx] <= q_pos[:, None])

    dtype = np.dtype(DEFAULT_COMPUTE_DTYPE if compute_dtype is None else compute_dtype)
    if scale is None:
        scale = 1.0 / np.sqrt(dh)
    g = nh // nkv
    qg = np.asarray(q, dtype=dtype).reshape(tq, nkv, g, dh)
    kg = np.asarray(k)[idx].astype(dtype, copy=False).transpose(0, 2, 3, 1)  # [Tq, NKV, DH, L]
    vg = np.asarray(v)[idx].astype(dtype, copy=False).transpose(0, 2, 1, 3)  # [Tq, NKV, L, DH]

    scores = np.matmul(qg, kg)  # [Tq, NKV, G, L]
    scores *= dtype.type(scale)
    np.copyto(scores, dtype.type(-np.inf), where=~mask[:, None, None, :])
    # a row with no visible key has max -inf; flooring it at the lowest
    # finite value keeps its scores at -inf after the shift (exp -> 0)
    # and leaves every other row's max exactly as it was
    m = np.maximum(scores.max(axis=-1, keepdims=True), np.finfo(dtype).min)
    scores -= m
    p = np.exp(scores, out=scores)
    den = p.sum(axis=-1, dtype=np.float64)
    o = np.matmul(p, vg).astype(np.float64, copy=False)  # [Tq, NKV, G, DH]

    seen = den > 0
    lse = np.log(den, out=np.full(den.shape, -np.inf), where=seen)
    lse += m[..., 0]
    np.divide(o, den[..., None], out=o, where=seen[..., None])
    return AttentionResult(out=o.reshape(tq, nh, dh), lse=lse.reshape(tq, nh))
