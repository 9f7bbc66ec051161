"""Serving-replay benchmark: one workload, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chat-decode --seed 1 --seconds 20 --trace 0

Replays the workload's seeded scripts through the public serving API for
``--seconds`` seconds after one warm-up replay, gates every replay against
sequential per-conversation replay, and prints each metric as
``name value unit`` followed by one JSON line: ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
Exits 1 when the correctness gate fails and 2 when the program cannot be
imported.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Replays each timed series runs at least, whatever ``--seconds`` says.
MIN_REPLAYS = 3
#: Fresh processes whose median set-up time is ``setup_s``.
SETUP_REPEATS = 5

#: The benchmark's contract: workloads and the metric names and units
#: each mode prints.
SPEC_PATH = HERE.parent / "BENCHMARK.json"

#: Thread-pool variables of the BLAS/OpenMP builds NumPy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


#: Simulated-clock serving metrics: deterministic per seed, so every
#: replay of a run must reproduce them exactly.
SIM_KEYS = (
    "sim_ttft_p50_s", "sim_ttft_tail_s", "sim_ttit_p50_ms", "sim_ttit_tail_ms",
    "sim_slo_attainment",
)


class Gate:
    """Correctness bookkeeping over every replay of a run."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, replay) -> dict[int, bool]:
        from replay import gate

        passed = gate(replay, self.reference)
        self.attempted += len(passed)
        self.failed += sum(not ok for ok in passed.values())
        self.failures.extend(replay.failures)
        return passed

    def expect_equal(self, label: str, got, want) -> None:
        """A determinism check: a mismatch fails the run."""
        if got != want:
            self.failures.append(f"{label}: {got!r} != {want!r}")

    @property
    def correct(self) -> bool:
        return not self.failures


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_series(seconds: float, kinds: dict) -> dict[str, list]:
    """Round-robin the replay ``kinds`` (``name -> fn() -> summary``)
    until each ran ``MIN_REPLAYS`` times and another round, as long as
    the last, would end after ``seconds``; returns
    ``{name: [summary, ...]}``. Each summary is taken as its replay
    ends, so no replay outlives its turn."""
    runs: dict[str, list] = {name: [] for name in kinds}
    deadline = time.perf_counter() + seconds
    for rounds in itertools.count(1):
        start = time.perf_counter()
        for name, fn in kinds.items():
            runs[name].append(fn())
        end = time.perf_counter()
        if rounds >= MIN_REPLAYS and 2 * end - start > deadline:
            return runs


def fastest_steps_s(step_series: list[list[float]]) -> float:
    """Wall seconds of a replay made of each step's fastest time over
    the replays of ``step_series`` (their ``Replay.step_s``).

    The machine's slow spells only ever add time, and they last tens of
    seconds, so they take whole replays with them: a median over the
    replays of one run moves with how much of the run a spell covered.
    The fastest instance of each step is the time the program itself
    needs (the minimum estimator of Chen and Revels, "Robust
    benchmarking in noisy environments", 2016), and taking it step by
    step also uses the fast stretches of replays a spell cut into.
    """
    return sum(map(min, zip(*step_series, strict=True)))


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times of ``SETUP_REPEATS`` fresh processes, run one after
    another: each imports the program and builds the workload's weights,
    pricing, scripts and serving target, up to the first submit."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0", "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def expect_repeats(gate: Gate, label: str, values: list) -> None:
    """Deterministic figures must repeat exactly across replays."""
    for i, value in enumerate(values[1:], 1):
        gate.expect_equal(f"{label}, replay {i} vs 0", value, values[0])


def end_to_end(setup, gate: Gate, seconds: float, slo, info: dict) -> dict:
    from replay import run_replay, serving_stats, tokens_processed

    setup_s = setup_seconds(setup.workload.name, setup.seed)

    def plain():
        replay = run_replay(setup)
        passed = gate.check(replay)
        return replay.step_s, serving_stats(replay, passed, slo), passed

    runs = timed_series(seconds, {"off": plain})["off"]
    expect_repeats(gate, "simulated serving metrics", [stats for _, stats, _ in runs])
    expect_repeats(gate, "scheduler steps per replay", [len(steps) for steps, _, _ in runs])
    _, stats, passed = runs[0]
    wall_s = fastest_steps_s([steps for steps, _, _ in runs])
    info.update(
        setup_s=setup_s,
        replay_wall_s=[round(sum(steps), 3) for steps, _, _ in runs],
        fastest_steps_wall_s=wall_s,
        **{k: v for k, v in stats.items() if k not in SIM_KEYS},
    )
    return {
        "tokens_per_wall_s": tokens_processed(setup) / wall_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        **{k: stats[k] for k in SIM_KEYS},
        "completed_share": sum(passed.values()) / len(passed),
    }


def per_layer(setup, gate: Gate, seconds: float, slo, info: dict) -> dict:
    """Three interleaved series: tracer off, the program's recording
    tracer on (reconciliation, TTFT split, tracer overhead), and layer
    spans on (per-layer times and counts)."""
    from layers import Instrumented, SpanLog, layer_metrics
    from replay import affinity_share, run_replay, serving_stats

    from repro.cluster import ReplicaFleet
    from repro.obs import RecordingTracer, explain_ttft, reconcile, reconcile_fleet

    last_log: list[SpanLog] = []

    def plain():
        replay = run_replay(setup)
        passed = gate.check(replay)
        return replay.wall_s, serving_stats(replay, passed, slo), {}

    def recorded():
        tracer = RecordingTracer()
        replay = run_replay(setup, tracer)
        passed = gate.check(replay)
        check = reconcile_fleet if isinstance(replay.target, ReplicaFleet) else reconcile
        gate.failures.extend(
            f"trace/metrics drift: {d}" for d in check(tracer.events, replay.report.metrics)
        )
        split = dict.fromkeys(("queue_wait", "prefill_compute", "transfer_stall", "swap_stall"), 0.0)
        finished = [rid for rid, ok in sorted(passed.items()) if ok]
        for rid in finished:
            components = explain_ttft(tracer.events, rid).components
            for key in split:
                split[key] += components[key]
        figures = {f"runtime.sim.{k}_s": v / max(len(finished), 1) for k, v in split.items()}
        figures["obs.trace_events"] = len(tracer.events)
        figures["cluster.router.affinity_share"] = affinity_share(replay, setup.scripts)
        return replay.wall_s, serving_stats(replay, passed, slo), figures

    def instrumented():
        log = SpanLog()
        with Instrumented(log):
            replay = run_replay(setup)
        passed = gate.check(replay)
        last_log[:] = [log]
        return (
            replay.wall_s,
            serving_stats(replay, passed, slo),
            layer_metrics(log, replay),
        )

    runs = timed_series(seconds, {"off": plain, "recorded": recorded, "instrumented": instrumented})
    expect_repeats(
        gate, "simulated serving metrics", [stats for series in runs.values() for _, stats, _ in series]
    )
    expect_repeats(gate, "scheduling-trace figures", [f for _, _, f in runs["recorded"]])
    layer_runs = [f for _, _, f in runs["instrumented"]]
    expect_repeats(
        gate, "layer counts", [{k: v for k, v in f.items() if not k.endswith("_ms")} for f in layer_runs]
    )
    metrics = {
        k: statistics.median(f[k] for f in layer_runs) if k.endswith("_ms") else v
        for k, v in layer_runs[0].items()
    }
    metrics.update(runs["recorded"][0][2])
    # tokens are equal, so the throughput ratio is the inverse wall ratio;
    # pairing each round's adjacent replays cancels slow machine drift
    metrics["obs.trace_overhead_pct"] = 100.0 * statistics.median(
        rec[0] / off[0] - 1.0 for off, rec in zip(runs["off"], runs["recorded"])
    )

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{setup.workload.name}.trace.json"
    last_log[0].write(str(trace_path))
    wall_ms = 1e3 * statistics.median(w for w, _, _ in runs["instrumented"])
    scheduler_ms = sum(
        metrics[k] for k in ("runtime.step.self_ms", "core.engine.self_ms", "cluster.fleet.step.self_ms")
    )
    info.update(
        replays={kind: len(series) for kind, series in runs.items()},
        instrumented_wall_ms=wall_ms,
        wall_share={
            "attention.flash": metrics["attention.flash.self_ms"] / wall_ms,
            "kvcache.cache.get": metrics["kvcache.cache.get_ms"] / wall_ms,
            "scheduler": scheduler_ms / wall_ms,
        },
        span_trace=str(trace_path.relative_to(HERE.parent)),
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, then print the seconds it took (run by setup_s)",
    )
    args = parser.parse_args(argv)

    # single-threaded: pin the pools before NumPy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401  (timed with the program's imports)
        import replay
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    if args.workload not in replay.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(replay.WORKLOADS)}")
    workload = replay.WORKLOADS[args.workload]
    setup = replay.make_setup(workload, args.seed)
    if args.setup_probe:
        workload.build(setup.model, setup.sim)
        print(time.perf_counter() - t0)
        return 0

    spec = load_spec()
    info = {"import_s": import_s}
    gate = Gate(replay.reference_tokens(setup))
    gate.check(replay.run_replay(setup))  # warm-up, gated but untimed
    if args.trace:
        metrics = per_layer(setup, gate, args.seconds, workload.slo, info)
        names = spec["per_layer"]
    else:
        metrics = end_to_end(setup, gate, args.seconds, workload.slo, info)
        names = spec["end_to_end"]

    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# run {json.dumps(info, sort_keys=True)}")
    print(
        f"# requests: {sum(s.turns for s in setup.scripts)} per replay; over all replays "
        f"sent={gate.attempted} succeeded={gate.attempted - gate.failed} failed={gate.failed}"
    )
    for failure in gate.failures[:20]:
        print(f"# FAIL {failure}")
    for m in names:
        print(f"{m['name']:36s} {metrics[m['name']]:>16.6g} {m['unit']:6s} ({m['better']} is better)")
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names
        },
    }
    print(json.dumps(result))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
