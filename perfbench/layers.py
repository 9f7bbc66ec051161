"""Traced replays: wall-time spans around calls into each layer.

The program is not edited. :class:`Instrumented` swaps each layer's public
entry points (module functions, class methods) for a wrapper that records a
span — name, start, end, parent — and restores the originals on exit.
Spans are kept in memory; :meth:`SpanLog.write` writes one replay's spans
through :func:`repro.obs.export.write_chrome`, one ``TraceEvent`` per span
whose attrs carry its id and parent id.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover. Children never overlap (the program is
single-threaded), so that part is the sum of the children's durations.

Counts are taken beside the spans from argument and result shapes only —
never by calling back into the program — so they add no spans and repeat
exactly across replays.
"""

from __future__ import annotations

import time
from collections import defaultdict

import repro.core.engine as core_engine
import repro.core.ring_decode as ring_decode
import repro.core.ring_passkv as ring_passkv
import repro.core.ring_passq as ring_passq
from repro.cluster.fleet import ReplicaFleet
from repro.cluster.router import PrefixAffinityRouter
from repro.core.engine import ContextParallelEngine
from repro.distributed.process_group import SimProcessGroup
from repro.kvcache.cache import RankKVCache
from repro.kvcache.paged import PagedAllocator
from repro.model.llama import LlamaModel
from repro.obs.export import write_chrome
from repro.obs.trace import TraceEvent
from repro.runtime.clock import SimulatedStepClock
from repro.runtime.runtime import ContinuousBatchingRuntime


def _count_flash(counts, args, out) -> None:
    q, k = args[0], args[1]
    tq, nh, dh = q.shape
    # dense-equivalent: QK^T plus PV, 2 flops per multiply-add, before
    # the kernel skips masked blocks
    counts["attention.flash.flops"] += 4 * tq * k.shape[0] * nh * dh
    counts["attention.flash.bytes"] += (
        q.nbytes + k.nbytes + args[2].nbytes + out.out.nbytes + out.lse.nbytes
    )


def _count_ring(counts, args, out) -> None:
    n = args[0].world_size
    counts["core.ring.shards"] += n * n


def _count_get(counts, args, out) -> None:
    counts["kvcache.cache.get_bytes"] += out.k.nbytes + out.v.nbytes


def _count_prefill(counts, args, out) -> None:
    counts["core.engine.prefill_tokens"] += sum(len(ids) for ids in args[1].values())


def _count_decode(counts, args, out) -> None:
    counts["runtime.decode_batch_total"] += len(args[1])


#: (owner, attribute, span name, count hook) for every instrumented
#: entry point. Ring functions are patched where the engine looks them
#: up, and flash where each ring module looks it up.
_ENTRY_POINTS = [
    *[(mod, "flash_attention", "attention.flash", _count_flash)
      for mod in (ring_passkv, ring_passq, ring_decode)],
    *[(core_engine, fn, "core.ring", _count_ring)
      for fn in ("ring_passkv_prefill", "ring_passq_prefill", "ring_passq_decode")],
    *[(SimProcessGroup, fn, "distributed.collectives", None)
      for fn in ("ring_shift", "all_to_all", "all_gather", "all_reduce_sum")],
    *[(LlamaModel, fn, "model.dense", None)
      for fn in ("embed", "attn_qkv", "attn_residual", "ffn_residual", "unembed")],
    (RankKVCache, "get", "kvcache.cache.get", _count_get),
    *[(RankKVCache, fn, "kvcache.cache.write", None)
      for fn in ("append", "share_prefix", "drop_tail", "drop")],
    *[(PagedAllocator, fn, "kvcache.paged", None)
      for fn in ("append", "share", "fits", "release", "release_tail", "utilization")],
    (ContextParallelEngine, "prefill", "core.engine.prefill", _count_prefill),
    (ContextParallelEngine, "decode", "core.engine.decode", _count_decode),
    *[(ContextParallelEngine, fn, "core.engine.transfer", None)
      for fn in ("export_kv", "import_kv")],
    *[(ContextParallelEngine, fn, "core.engine.admission", None)
      for fn in ("prefill_token_demand", "decode_token_demand", "import_token_demand",
                 "fits", "match_prefix", "adopt_prefix", "evict", "evict_tail",
                 "release", "kv_utilization")],
    (ContinuousBatchingRuntime, "step", "runtime.step", None),
    *[(SimulatedStepClock, fn, "runtime.clock", None)
      for fn in ("price_prefill", "price_decode", "price_transfer", "price_swap")],
    (ReplicaFleet, "step", "cluster.fleet.step", None),
    (PrefixAffinityRouter, "place", "cluster.router.place", None),
]


class SpanLog:
    """Spans of one replay, parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.stack: list[int] = []

    def layer_times(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls", "total_s", "self_s"}}``."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - covered[i]
        return out

    def write(self, path: str) -> None:
        """Write the spans as a Chrome/Perfetto trace (wall seconds from
        the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        events = [
            TraceEvent(
                name=name,
                phase="span",
                t=self.starts[i] - t0,
                dur=self.ends[i] - self.starts[i],
                attrs={"id": i, "parent": self.parents[i]},
            )
            for i, name in enumerate(self.names)
        ]
        write_chrome(events, path)


def _wrap(log: SpanLog, fn, name: str, hook):
    perf_counter = time.perf_counter
    names, parents, starts, ends, stack = (
        log.names, log.parents, log.starts, log.ends, log.stack
    )
    counts = log.counts

    def wrapper(*args, **kwargs):
        idx = len(names)
        names.append(name)
        parents.append(stack[-1] if stack else -1)
        starts.append(0.0)
        ends.append(0.0)
        stack.append(idx)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            starts[idx] = t0
            ends[idx] = t1
        if hook is not None:
            hook(counts, args, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


class Instrumented:
    """Context manager: every entry point records into ``log`` while
    active; the originals are restored on exit, also on error."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> SpanLog:
        for owner, attr, name, hook in _ENTRY_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.log, original, name, hook))
        return self.log

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def serving_metrics(report) -> list:
    """The :class:`~repro.serving.metrics.ServingMetrics` of every runtime
    behind a runtime or fleet report."""
    replicas = getattr(report.metrics, "replicas", None)
    return list(replicas.values()) if replicas is not None else [report.metrics]


def engines(target) -> list[ContextParallelEngine]:
    """Every numeric engine of a runtime or fleet."""
    runtimes = (
        [r.runtime for r in target.replicas] if isinstance(target, ReplicaFleet) else [target]
    )
    out = []
    for rt in runtimes:
        out.append(rt.engine)
        if rt.disaggregated:
            out.append(rt.decode_engine)
    return out


_ENGINE_SPANS = (
    "core.engine.prefill", "core.engine.decode", "core.engine.transfer", "core.engine.admission"
)


def layer_metrics(log: SpanLog, replay) -> dict[str, float]:
    """Per-layer metrics of one instrumented replay (times in ms)."""
    times = log.layer_times()

    def self_ms(*names: str) -> float:
        return 1e3 * sum(times[n]["self_s"] for n in names if n in times)

    def total_ms(name: str) -> float:
        return 1e3 * times[name]["total_s"] if name in times else 0.0

    def calls(name: str) -> int:
        return times[name]["calls"] if name in times else 0

    counts = log.counts
    report = replay.report
    metrics = serving_metrics(report)
    engs = engines(replay.target)
    hits = sum(m.prefix_hits for m in metrics)
    lookups = hits + sum(m.prefix_misses for m in metrics)
    reused = sum(m.prefix_reused_tokens for m in metrics)
    admitted = reused + counts["core.engine.prefill_tokens"]
    shards = counts["core.ring.shards"]
    decodes = calls("core.engine.decode")
    return {
        "attention.flash.self_ms": self_ms("attention.flash"),
        "attention.flash.calls": calls("attention.flash"),
        "attention.flash.flops": counts["attention.flash.flops"],
        "attention.flash.bytes": counts["attention.flash.bytes"],
        "core.ring.self_ms": self_ms("core.ring"),
        "core.ring.calls": calls("core.ring"),
        "core.ring.shard_compute_share": calls("attention.flash") / shards if shards else 0.0,
        "distributed.collectives.self_ms": self_ms("distributed.collectives"),
        "distributed.collectives.calls": calls("distributed.collectives"),
        "distributed.collectives.bytes": sum(e.tracer.total_bytes() for e in engs),
        "distributed.comm_tracer.events": sum(len(e.tracer) for e in engs),
        "model.dense.self_ms": self_ms("model.dense"),
        "model.dense.calls": calls("model.dense"),
        "kvcache.cache.get_ms": self_ms("kvcache.cache.get"),
        "kvcache.cache.get_bytes": counts["kvcache.cache.get_bytes"],
        "kvcache.cache.write_ms": self_ms("kvcache.cache.write"),
        "kvcache.paged.self_ms": self_ms("kvcache.paged"),
        "kvcache.paged.peak_utilization": max(
            max(m.peak_kv_utilization.values(), default=0.0) for m in metrics
        ),
        "kvcache.prefix.hit_rate": hits / lookups if lookups else 0.0,
        "kvcache.prefix.reused_token_share": reused / admitted,
        "kvcache.prefix.evictions": sum(m.prefix_evictions for m in metrics),
        "core.engine.prefill_ms": total_ms("core.engine.prefill"),
        "core.engine.decode_ms": total_ms("core.engine.decode"),
        "core.engine.transfer_ms": total_ms("core.engine.transfer"),
        "core.engine.self_ms": self_ms(*_ENGINE_SPANS),
        "runtime.step.self_ms": self_ms("runtime.step"),
        "runtime.clock.self_ms": self_ms("runtime.clock"),
        "runtime.rounds.prefill": report.prefill_rounds,
        "runtime.rounds.decode": report.decode_rounds,
        "runtime.decode_batch_mean": (
            counts["runtime.decode_batch_total"] / decodes if decodes else 0.0
        ),
        "runtime.preemptions": sum(m.preemptions for m in metrics),
        "runtime.swaps": sum(m.swaps_out for m in metrics),
        "cluster.fleet.step.self_ms": self_ms("cluster.fleet.step"),
        "cluster.router.place_ms": total_ms("cluster.router.place"),
    }
