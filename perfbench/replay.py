"""Workloads, replays and the correctness gate of the serving benchmark.

A workload is a seeded set of conversation scripts plus the deployment
that serves them. Only the generated scripts reach the program: they are
submitted through the public serving surface
(:func:`repro.workloads.replay.submit_scripts_to_runtime` over a
:class:`~repro.runtime.ContinuousBatchingRuntime` or a
:class:`~repro.cluster.ReplicaFleet`) and drained with ``run()``.

Conversation starts follow a fixed simulated arrival schedule (open loop:
conversation ``i`` starts at ``start_offset_s * (i + 1)`` whatever the
backlog); follow-up turns are closed loop (each waits for its predecessor
plus ``think_time_s``). In wall time every replay is an offline batch.

Prompt lengths are drawn stratified over each workload's range (one draw
per equal-width stratum, order shuffled), so every seed covers the whole
range and the total work of a replay barely moves with the seed.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import ReplicaFleet, make_router
from repro.core.engine import ContextParallelEngine
from repro.model.config import llama3_405b_config, tiny_config
from repro.model.llama import LlamaModel
from repro.obs.trace import NULL_TRACER
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.runtime import ContinuousBatchingRuntime, SimulatedStepClock
from repro.serving.scheduler import ChunkedPrefillPolicy
from repro.workloads.generator import ConversationScript, WorkloadGenerator
from repro.workloads.replay import (
    collect_generated,
    replay_scripts_sequential,
    submit_scripts_to_runtime,
)

#: CP size every round is priced at: Llama3 405B on CP4 GTT hosts.
PRICED_RANKS = 4
#: Upper bound on scheduler steps per replay (a wedged run fails loudly).
MAX_STEPS = 2_000_000
#: System-prompt length of the prefix-fleet templates.
SYSTEM_TOKENS = 64


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: CLI name.
        world: CP world size of the numeric engines (and of the
            sequential reference replay).
        start_offset_s / think_time_s: arrival schedule (see module doc).
        slo: ``(ttft_limit_s, ttit_limit_ms)``: a request meets the SLO
            when its TTFT and the mean gap between its tokens are within
            these limits (the workload's ``why`` in BENCHMARK.json states
            them too).
        make_scripts: ``generator -> scripts``.
        make_target: ``(model, sim, tracer) ->`` a fresh runtime or fleet.
    """

    name: str
    world: int
    start_offset_s: float
    think_time_s: float
    slo: tuple[float, float]
    make_scripts: Callable[[WorkloadGenerator], list[ConversationScript]]
    make_target: Callable

    def scripts(self, seed: int, vocab_size: int) -> list[ConversationScript]:
        return self.make_scripts(WorkloadGenerator(vocab_size, seed=seed))

    def build(self, model: LlamaModel, sim: LatencySimulator, tracer=NULL_TRACER):
        """A fresh runtime (or fleet) serving this workload."""
        return self.make_target(model, sim, tracer)


def _stratified(gen: WorkloadGenerator, n: int, lo: int, hi: int) -> list[int]:
    """``n`` lengths, one uniform draw per equal-width stratum of
    ``[lo, hi]``, in seeded random order."""
    edges = np.linspace(lo, hi, n + 1)
    lengths = [int(edges[i] + gen.rng.random() * (edges[i + 1] - edges[i])) for i in range(n)]
    return [lengths[i] for i in gen.rng.permutation(n)]


def _conversations(
    gen: WorkloadGenerator,
    n: int,
    *,
    turns: int,
    first: tuple[int, int],
    followup: tuple[int, int],
    response: tuple[int, int],
) -> list[ConversationScript]:
    """``n`` conversations whose first prompts, follow-ups and response
    budgets are each stratified over their range."""
    firsts = _stratified(gen, n, *first)
    followups = _stratified(gen, n * (turns - 1), *followup)
    budgets = _stratified(gen, n * turns, *response)
    scripts = []
    for i in range(n):
        script = ConversationScript(seq_id=i)
        for turn in range(turns):
            length = firsts[i] if turn == 0 else followups[i * (turns - 1) + turn - 1]
            script.prompts.append(gen.prompt(length))
            script.response_budgets.append(budgets[i * turns + turn])
        scripts.append(script)
    return scripts


def _long_prefill_scripts(gen: WorkloadGenerator) -> list[ConversationScript]:
    return _conversations(
        gen, 8, turns=4, first=(512, 2048), followup=(16, 48), response=(4, 8)
    )


def _chat_decode_scripts(gen: WorkloadGenerator) -> list[ConversationScript]:
    return _conversations(
        gen, 24, turns=2, first=(24, 96), followup=(8, 24), response=(32, 64)
    )


def _prefix_fleet_scripts(gen: WorkloadGenerator) -> list[ConversationScript]:
    scripts = gen.shared_prefix_traffic(
        n_system_prompts=3,
        n_fewshot_variants=2,
        conversations=108,
        system_tokens=SYSTEM_TOKENS,
        fewshot_tokens=24,
        unique_range=(8, 24),
        turns=2,
        followup_range=(6, 12),
        response_range=(3, 6),
    )
    # shared_prefix_traffic cycles templates round-robin; shuffle so the
    # router, not the cycle, decides where each template lands
    return [scripts[i] for i in gen.rng.permutation(len(scripts))]


# The colocated capacities never bind (peak use stays near a quarter and a
# half); they are set so the paged allocator does its accounting work.


def _long_prefill_runtime(model, sim, tracer):
    # a 2048-token chunk holds a whole document: one full prefill, then
    # persistent-KV partial prefills for the follow-ups
    return ContinuousBatchingRuntime(
        ContextParallelEngine(model, world_size=4, capacity_tokens=12_000),
        policy=ChunkedPrefillPolicy(
            chunk_tokens=2048, max_tokens_per_round=4096, max_seqs_per_round=4
        ),
        clock=SimulatedStepClock(sim, n_ranks=PRICED_RANKS),
        tracer=tracer,
    )


def _chat_decode_runtime(model, sim, tracer):
    return ContinuousBatchingRuntime(
        ContextParallelEngine(model, world_size=4, capacity_tokens=2_048),
        policy=ChunkedPrefillPolicy(
            chunk_tokens=256, max_tokens_per_round=512, max_seqs_per_round=4
        ),
        clock=SimulatedStepClock(sim, n_ranks=PRICED_RANKS),
        tracer=tracer,
    )


def _prefix_fleet(model, sim, tracer):
    # per-rank KV budgets tight enough to force prefix LRU evictions in the
    # prefill pool and swaps of active decodes in the decode pool
    def replica(i: int) -> ContinuousBatchingRuntime:
        return ContinuousBatchingRuntime(
            ContextParallelEngine(model, world_size=2, capacity_tokens=320),
            decode_engine=ContextParallelEngine(model, world_size=2, capacity_tokens=128),
            policy=ChunkedPrefillPolicy(
                chunk_tokens=64, max_tokens_per_round=128, max_seqs_per_round=4
            ),
            clock=SimulatedStepClock(sim, n_ranks=PRICED_RANKS, tp_decode=True),
            preemption="swap",
            prefix_cache=True,
            tracer=tracer.scoped(replica=i),
        )

    return ReplicaFleet.build(replica, 3, router=make_router("prefix"), tracer=tracer)


# Think times exceed every turn's residence, so a follow-up never waits on
# its predecessor and TTFT counts only the system's own delay.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long-prefill", world=4, start_offset_s=2.0, think_time_s=30.0, slo=(2.0, 150.0),
            make_scripts=_long_prefill_scripts, make_target=_long_prefill_runtime,
        ),
        Workload(
            "chat-decode", world=4, start_offset_s=0.1, think_time_s=30.0, slo=(3.0, 300.0),
            make_scripts=_chat_decode_scripts, make_target=_chat_decode_runtime,
        ),
        Workload(
            "prefix-fleet", world=2, start_offset_s=0.2, think_time_s=30.0, slo=(2.0, 120.0),
            make_scripts=_prefix_fleet_scripts, make_target=_prefix_fleet,
        ),
    )
}


# ---------------------------------------------------------------------- #
# set-up, replay, gate
# ---------------------------------------------------------------------- #


@dataclass
class Setup:
    """What every replay of a workload shares: weights, pricing, scripts."""

    workload: Workload
    seed: int
    model: LlamaModel
    sim: LatencySimulator
    scripts: list[ConversationScript]


def make_setup(workload: Workload, seed: int) -> Setup:
    model = LlamaModel(tiny_config(), seed=0)
    sim = LatencySimulator(llama3_405b_config(), gtt_host())
    return Setup(workload, seed, model, sim, workload.scripts(seed, model.config.vocab_size))


def reference_tokens(setup: Setup) -> dict[int, list[list[int]]]:
    """Ground truth: each conversation alone on a fresh engine."""
    return replay_scripts_sequential(
        lambda: ContextParallelEngine(setup.model, world_size=setup.workload.world),
        setup.scripts,
    )


@dataclass
class Replay:
    """One drained replay: the target it ran on and what it returned."""

    target: object  # ContinuousBatchingRuntime | ReplicaFleet
    report: object  # RuntimeReport | FleetReport
    rids: dict[int, list[int]]
    step_s: list[float]
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.step_s)


def run_replay(setup: Setup, tracer=NULL_TRACER) -> Replay:
    """Build a fresh target, submit every script and drain it.

    ``step_s`` holds the wall time of the submission (the fleet routes
    conversations at submit), of each ``step()`` and of the closing
    ``run()``, which only checks the drained target and builds its
    report. A seed's replays take the same steps, so step ``i`` of one
    replay does the same work as step ``i`` of another.
    """
    gc.collect()  # start every replay from the same heap, outside the timing
    target = setup.workload.build(setup.model, setup.sim, tracer)
    clock = time.perf_counter
    t0 = clock()
    rids = submit_scripts_to_runtime(
        target,
        setup.scripts,
        start_offset_s=setup.workload.start_offset_s,
        think_time_s=setup.workload.think_time_s,
    )
    step_s = [clock() - t0]
    more = True
    while more:
        if len(step_s) > MAX_STEPS:
            raise RuntimeError(f"{setup.workload.name} did not drain within {MAX_STEPS} steps")
        t0 = clock()
        more = target.step()
        step_s.append(clock() - t0)
    t0 = clock()
    report = target.run(max_steps=1)
    step_s.append(clock() - t0)
    return Replay(target, report, rids, step_s)


def leak_reports(target) -> list[str]:
    if isinstance(target, ReplicaFleet):
        return [
            f"replica {rid}: {leak}"
            for rid, leaks in target.kv_leak_reports().items()
            for leak in leaks
        ]
    return list(target.kv_leak_report())


def gate(replay: Replay, reference: dict[int, list[list[int]]]) -> dict[int, bool]:
    """Correctness gate; returns ``{request_id: passed}``.

    A request passes when it finished and its tokens are bit-identical to
    the sequential reference. A KV leak after the drain fails every
    request of the replay. Failure descriptions land in
    ``replay.failures``.
    """
    records = replay.report.records
    got = collect_generated(replay.report, replay.rids)
    leaks = leak_reports(replay.target)
    replay.failures.extend(f"KV leak after drain: {leak}" for leak in leaks)
    passed: dict[int, bool] = {}
    for seq_id, turn_rids in replay.rids.items():
        for turn, rid in enumerate(turn_rids):
            ok = records[rid].status == "finished"
            if not ok:
                replay.failures.append(f"request {rid} ended {records[rid].status}")
            elif got[seq_id][turn] != reference[seq_id][turn]:
                ok = False
                replay.failures.append(
                    f"request {rid} (seq {seq_id} turn {turn}) tokens differ "
                    "from sequential replay"
                )
            passed[rid] = ok and not leaks
    return passed


def tokens_processed(setup: Setup) -> int:
    """Prompt plus decoded tokens one replay serves."""
    return sum(
        s.total_prompt_tokens + sum(s.response_budgets) for s in setup.scripts
    )


# ---------------------------------------------------------------------- #
# simulated-clock serving metrics
# ---------------------------------------------------------------------- #

#: Candidate tail percentiles; the tail is the highest one that leaves at
#: least ``TAIL_MIN_BEYOND`` samples above it.
TAIL_LADDER = (50.0, 60.0, 70.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    fitting = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND]
    return fitting[-1] if fitting else TAIL_LADDER[0]


def serving_stats(replay: Replay, passed: dict[int, bool], slo: tuple[float, float]) -> dict:
    """Simulated TTFT/TTIT percentiles and SLO attainment of one replay.

    Populations are the requests that passed the gate. A request meets
    the SLO ``(ttft_limit_s, ttit_limit_ms)`` when it passed, its TTFT is
    within the first limit and the mean inter-token gap of its response
    within the second; the attainment share is over every request sent,
    so a failed request counts as a miss.
    """
    ttft_limit_s, ttit_limit_ms = slo
    records = replay.report.records
    ok = [records[rid] for rid in sorted(passed) if passed[rid]]
    ttft = [rec.ttft for rec in ok]
    ttit = [gap for rec in ok for gap in rec.ttit_samples()]
    met = 0
    for rec in ok:
        gaps = rec.ttit_samples()
        mean_gap_ms = 1e3 * sum(gaps) / len(gaps) if gaps else 0.0
        if rec.ttft <= ttft_limit_s and mean_gap_ms <= ttit_limit_ms:
            met += 1
    ttft_tail, ttit_tail = tail_percentile(len(ttft)), tail_percentile(len(ttit))
    nan = float("nan")
    return {
        "sim_ttft_p50_s": float(np.percentile(ttft, 50)) if ttft else nan,
        "sim_ttft_tail_s": float(np.percentile(ttft, ttft_tail)) if ttft else nan,
        "sim_ttit_p50_ms": 1e3 * float(np.percentile(ttit, 50)) if ttit else nan,
        "sim_ttit_tail_ms": 1e3 * float(np.percentile(ttit, ttit_tail)) if ttit else nan,
        "sim_slo_attainment": met / len(passed),
        "ttft_tail_pct": ttft_tail,
        "ttft_samples": len(ttft),
        "ttit_tail_pct": ttit_tail,
        "ttit_samples": len(ttit),
    }


def affinity_share(replay: Replay, scripts: list[ConversationScript]) -> float:
    """Share of conversations routed to a replica that already held their
    system prompt: an earlier conversation placed there shares at least
    ``SYSTEM_TOKENS`` leading tokens with this one. 0 for a lone runtime."""
    placements = getattr(replay.report, "placements", None)
    if not placements:
        return 0.0
    seen: dict[int, list[np.ndarray]] = {}
    affine = 0
    for script in scripts:  # submission order
        head = script.prompts[0][:SYSTEM_TOKENS]
        held = seen.setdefault(placements[script.seq_id], [])
        affine += any(np.array_equal(head, h) for h in held)
        held.append(head)
    return affine / len(scripts)
