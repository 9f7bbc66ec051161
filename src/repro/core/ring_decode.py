"""Batched ring pass-Q decode — paper Algorithm 4 (§3.6).

Decode emits exactly one token per sequence per iteration. Two problems if
those tokens were always assigned to the same rank:

1. That rank's KV cache grows every step while the others stay flat — it
   OOMs long before the aggregate CP cache capacity is reached.
2. Its attention/comms load is higher every single step.

The paper's fix is **round-robin assignment offset by one each iteration**:
at decode step ``t``, the token of batch slot ``b`` is owned by rank
``(b + t) mod N``, so generated KV spreads evenly across all CP ranks. With
``T = 1`` per sequence, circulating Q (plus the batch ids, Algorithm 4) is
essentially always cheaper than circulating KV (Equation 1), so decode uses
the pass-Q ring followed by the same permute + All2All + merge as prefill.

The local kernel at each ring step is
:func:`repro.attention.decode.decode_attention`: each rank indexes its
resident shard by sequence once per call, and every ring step gathers each
visiting query's own sequence through that index instead of sweeping the
whole shard under a dense mask (prefill keeps the blocked flash kernel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.decode import decode_attention, kv_segments
# flash_attention is unused here but stays in this module's namespace:
# perfbench/layers.py wraps every ring module's flash_attention by name.
from repro.attention.flash import AttentionResult, flash_attention  # noqa: F401
from repro.attention.masks import PAD_SEQ
from repro.core.merge import merge_partials
from repro.core.ring_skip import partial_fully_masked, query_reach
from repro.core.sharding import ShardedKV, ShardedQueries
from repro.distributed.process_group import SimProcessGroup
from repro.distributed.ring import source_rank_at_step


@dataclass(frozen=True)
class DecodeBatch:
    """One decode iteration's inputs: one query token per active sequence.

    Attributes:
        q: ``[B, NH, DH]`` query projections of the freshly sampled tokens.
        positions: ``[B]`` absolute position of each new token (== current
            sequence length before this step).
        seq_ids: ``[B]`` sequence ids (must be unique within the batch).
    """

    q: np.ndarray
    positions: np.ndarray
    seq_ids: np.ndarray

    def __post_init__(self) -> None:
        if self.q.ndim != 3:
            raise ValueError(f"q must be [B, NH, DH], got {self.q.shape}")
        b = self.q.shape[0]
        if self.positions.shape != (b,) or self.seq_ids.shape != (b,):
            raise ValueError("positions and seq_ids must be [B]")
        if len(np.unique(self.seq_ids)) != b:
            raise ValueError("decode batch must contain each sequence at most once")

    @property
    def batch_size(self) -> int:
        return self.q.shape[0]


def round_robin_assignment(batch_size: int, world_size: int, step: int) -> np.ndarray:
    """Rank owning each batch slot at decode iteration ``step``.

    ``rank(b) = (b + step) mod N`` — the offset-by-one rotation that levels
    KV-cache growth across ranks (§3.6).
    """
    if batch_size < 0:
        raise ValueError(f"batch_size must be >= 0, got {batch_size}")
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return (np.arange(batch_size, dtype=np.int64) + step) % world_size


def ring_passq_decode(
    group: SimProcessGroup,
    kv_shards: list[ShardedKV],
    batch: DecodeBatch,
    *,
    step: int = 0,
    scale: float | None = None,
    mask_fn=None,
    compute_dtype=None,
    skip_masked_shards: bool = True,
) -> tuple[AttentionResult, np.ndarray]:
    """Batched ring pass-Q decode (Algorithm 4).

    Args:
        group: lockstep process group.
        kv_shards: per-rank resident KV shards covering all sequences
            (cached prompt + previously decoded tokens). The new tokens'
            own KV must be *included* already (a decode token attends to
            itself); the caller appends it to the owning rank's cache
            before calling, mirroring the production engine.
        batch: this iteration's single-token-per-sequence queries.
        step: decode iteration index, drives the round-robin offset.
        scale: attention score scale (default ``1/sqrt(DH)``).
        mask_fn: optional absolute-coordinate mask override — e.g. a
            windowed/sink mask for StreamingLLM-style decode; composes with
            the ring because masks never depend on storage order. It may
            only restrict attention within a sequence (the kernel never
            visits other sequences' keys).
        compute_dtype: arithmetic dtype of the local decode kernel (merge
            accumulation stays float64; default exact fp64).
        skip_masked_shards: replace provably all-masked ring-step partials
            with the exact identity element instead of calling the kernel —
            in decode this mostly fires for all-pad query payloads (when
            ``B`` is not a multiple of ``N``) and for empty or unrelated
            KV shards. Disabled under ``mask_fn``.

    Returns:
        ``(result, assignment)``: ``result`` holds the exact attention
        output/LSE in *original batch order* (``[B, NH, DH]`` / ``[B, NH]``),
        and ``assignment[b]`` is the rank that owned slot ``b`` this step
        (where its KV was appended).
    """
    n = group.world_size
    if len(kv_shards) != n:
        raise ValueError(f"need one KV shard per rank, got {len(kv_shards)} for world {n}")
    b = batch.batch_size
    assignment = round_robin_assignment(b, n, step)

    # Pad the per-rank query count to ceil(B / N): the paper notes this
    # padding inflates decode work when B is not divisible by N (Table 8).
    per_rank = -(-b // n) if b else 0
    nh, dh = batch.q.shape[1], batch.q.shape[2]

    local: list[dict] = []
    for rank in range(n):
        slots = np.nonzero(assignment == rank)[0]
        pad = per_rank - slots.shape[0]
        payload = {
            "q": np.concatenate([batch.q[slots], np.zeros((pad, nh, dh))], axis=0),
            "pos": np.concatenate([batch.positions[slots], np.zeros(pad, dtype=np.int64)]),
            "seq": np.concatenate([batch.seq_ids[slots], np.full(pad, PAD_SEQ, dtype=np.int64)]),
            "slots": np.concatenate([slots, np.full(pad, -1, dtype=np.int64)]),
        }
        local.append(payload)

    traveling = list(local)
    computed: list[dict[int, AttentionResult]] = [dict() for _ in range(n)]

    # One per-sequence segment index per resident shard, reused by every
    # ring step; the causal-reach summaries come from the same index
    # (local[s] is the payload originating at rank s; the ring schedule
    # recovers the origin later).
    segments = [kv_segments(kv.seq_ids) for kv in kv_shards]
    skip = skip_masked_shards and mask_fn is None
    if skip:
        q_summary = [query_reach(p["pos"], p["seq"]) for p in local]
        k_summary = [
            seg.min_positions(kv.positions) for seg, kv in zip(segments, kv_shards)
        ]

    for j in range(n):
        for rank in range(n):
            src = source_rank_at_step(rank, j, n)
            q = traveling[rank]
            if skip and partial_fully_masked(q_summary[src], k_summary[rank]):
                computed[rank][src] = AttentionResult.empty(per_rank, nh, dh)
                continue
            kv = kv_shards[rank]
            computed[rank][src] = decode_attention(
                q["q"],
                kv.k,
                kv.v,
                q_pos=q["pos"],
                k_pos=kv.positions,
                q_seq=q["seq"],
                k_seq=kv.seq_ids,
                segments=segments[rank],
                scale=scale,
                mask_fn=mask_fn,
                compute_dtype=compute_dtype,
            )
        if j < n - 1:
            traveling = group.ring_shift(traveling, step=j, tag="decode-passq")

    # Permute + All2All partial outputs back to the source ranks.
    matrix = [
        [(computed[holder][origin].out, computed[holder][origin].lse) for origin in range(n)]
        for holder in range(n)
    ]
    restored = group.all_to_all(matrix, tag="decode-merge")

    out = np.zeros((b, nh, dh), dtype=np.float64)
    lse = np.full((b, nh), -np.inf, dtype=np.float64)
    for rank in range(n):
        merged = merge_partials([AttentionResult(out=o, lse=l) for o, l in restored[rank]])
        slots = local[rank]["slots"]
        valid = slots >= 0
        out[slots[valid]] = merged.out[valid]
        lse[slots[valid]] = merged.lse[valid]
    return AttentionResult(out=out, lse=lse), assignment
