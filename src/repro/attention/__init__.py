"""Attention substrate: exact GQA attention kernels used by context parallelism.

This package provides the single-device attention building blocks that the
ring algorithms in :mod:`repro.core` are built on:

- :mod:`repro.attention.masks` — position/sequence-id based causal masks that
  stay correct under arbitrary token permutations (load-balanced sharding
  reorders tokens, so masks must be derived from absolute positions rather
  than storage order).
- :mod:`repro.attention.reference` — a fully materialized, easy-to-audit
  exact GQA attention. This is the gold standard every other kernel and the
  distributed algorithms are tested against.
- :mod:`repro.attention.flash` — a blocked online-softmax kernel that returns
  ``(O, LSE)`` pairs, mirroring the FlashAttention-3 / Flash-Decoding
  contract the paper relies on for partial-attention merging.
- :mod:`repro.attention.decode` — the batched-decode kernel: each query
  gathers only its own sequence's keys through a per-shard segment index
  (PagedAttention-style) instead of sweeping the shard under a dense mask.
- :mod:`repro.attention.online_softmax` — the streaming softmax accumulator
  (Milakov & Gimelshein 2018) shared by the flash kernel and merge attention.
- :mod:`repro.attention.rope` — rotary position embeddings applied by the
  model substrate before attention.
- :mod:`repro.attention.gqa` — grouped-query-attention head bookkeeping.
"""

from repro.attention.decode import KVSegments, decode_attention, kv_segments
from repro.attention.flash import AttentionResult, flash_attention
from repro.attention.gqa import expand_kv_heads, kv_head_for_query_head, validate_gqa_shapes
from repro.attention.masks import attention_mask, causal_mask
from repro.attention.online_softmax import OnlineSoftmaxState
from repro.attention.reference import reference_attention, reference_attention_with_lse
from repro.attention.rope import apply_rope, rope_frequencies
from repro.attention.windowed import windowed_attention_mask_fn, windowed_mask

__all__ = [
    "AttentionResult",
    "KVSegments",
    "OnlineSoftmaxState",
    "apply_rope",
    "attention_mask",
    "causal_mask",
    "decode_attention",
    "expand_kv_heads",
    "flash_attention",
    "kv_head_for_query_head",
    "kv_segments",
    "reference_attention",
    "reference_attention_with_lse",
    "rope_frequencies",
    "validate_gqa_shapes",
    "windowed_attention_mask_fn",
    "windowed_mask",
]
