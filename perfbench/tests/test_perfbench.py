"""The benchmark's own checks: the correctness gate, the emitted metric
set, span self time, and the refusal to run without the program.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import layers
import replay
import run as bench
from repro.runtime import ContinuousBatchingRuntime


@pytest.fixture(scope="module")
def fleet_setup():
    return replay.make_setup(replay.WORKLOADS["prefix-fleet"], seed=0)


@pytest.fixture(scope="module")
def reference(fleet_setup):
    return replay.reference_tokens(fleet_setup)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_gate_passes_a_clean_replay(fleet_setup, reference):
    r = replay.run_replay(fleet_setup)
    passed = replay.gate(r, reference)
    assert passed and all(passed.values())
    assert r.failures == []


def test_gate_fails_on_a_corrupted_token_stream(fleet_setup, reference):
    r = replay.run_replay(fleet_setup)
    seq_id, rids = next(iter(r.rids.items()))
    generated = r.report.records[rids[1]].generated
    generated[-1] = (generated[-1] + 1) % fleet_setup.model.config.vocab_size

    passed = replay.gate(r, reference)

    assert [rid for rid, ok in passed.items() if not ok] == [rids[1]]
    assert f"seq {seq_id} turn 1" in r.failures[0]


def test_run_exits_nonzero_when_the_gate_fails(monkeypatch, capsys, reference):
    corrupted = {seq: [list(t) for t in turns] for seq, turns in reference.items()}
    corrupted[0][0][0] += 1
    monkeypatch.setattr(replay, "reference_tokens", lambda setup: corrupted)

    code = bench.main(["--workload", "prefix-fleet", "--seed", "0", "--seconds", "0"])

    result = _last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(capsys, trace, section):
    code = bench.main(
        ["--workload", "prefix-fleet", "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    )

    result = _last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in bench.load_spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_spec_workloads_state_their_slo():
    for entry in bench.load_spec()["workloads"]:
        ttft_s, ttit_ms = replay.WORKLOADS[entry["name"]].slo
        assert f"SLO: TTFT<={ttft_s:g} s, mean TTIT<={ttit_ms:g} ms" in entry["why"]


def test_fastest_steps_takes_each_steps_minimum():
    assert bench.fastest_steps_s([[1.0, 5.0, 2.0], [3.0, 4.0, 2.5]]) == 1.0 + 4.0 + 2.0
    with pytest.raises(ValueError):
        bench.fastest_steps_s([[1.0, 2.0], [1.0]])


def test_replays_of_a_seed_take_the_same_steps(fleet_setup):
    first, second = replay.run_replay(fleet_setup), replay.run_replay(fleet_setup)
    assert len(first.step_s) == len(second.step_s) > 2
    assert all(t > 0 for t in first.step_s)


def test_self_time_subtracts_children():
    log = layers.SpanLog()
    log.names += ["outer", "inner", "inner", "leaf"]
    log.parents += [-1, 0, 0, 2]
    log.starts += [0.0, 1.0, 4.0, 5.0]
    log.ends += [10.0, 3.0, 8.0, 6.0]

    times = log.layer_times()

    assert times["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert times["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert times["leaf"]["self_s"] == 1.0


def test_instrumentation_is_removed_on_exit():
    original = ContinuousBatchingRuntime.step
    with layers.Instrumented(layers.SpanLog()):
        assert ContinuousBatchingRuntime.step is not original
    assert ContinuousBatchingRuntime.step is original


def test_refuses_to_run_without_the_program(tmp_path):
    root = bench.HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chat-decode",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )

    assert proc.returncode != 0
    assert "{" not in proc.stdout
