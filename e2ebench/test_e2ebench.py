"""Tests of the benchmark itself: determinism, seeding, output checks.

Run from the repository root with ``python3 -m pytest e2ebench -q``.
Every run here is a shortened version of a benchmark workload.
"""

import ast
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.storage import BLOCK_SIZE  # noqa: E402

#: Shortened workload shapes: same code paths, a few seconds of host time.
SHORT = {
    "grow_intent": {"DURATION": 3.0},
    "meta_cache": {"DURATION": 1.0},
    "fault_fuzz": {"SCHEDULES": 2},
}


def short_run(name, seed, tamper=None, pause=None, **overrides):
    """Set up, run and finish a shortened workload in this process."""
    w = workloads.make(name, seed)
    for attr, value in {**SHORT[name], **overrides}.items():
        setattr(w, attr, value)
    w.setup()
    if tamper is not None:
        tamper(w)
    if pause is None:
        w.run()
    else:
        w.run(pause)
    w.finish()
    return w


@pytest.mark.parametrize("name", sorted(SHORT))
def test_same_seed_repeats_exactly(name):
    a = short_run(name, 5)
    b = short_run(name, 5)
    assert a.failures == [] and b.failures == []
    assert a.sim_stats() == b.sim_stats()
    assert a.attempted > 0


@pytest.mark.parametrize("name", sorted(SHORT))
def test_pauses_change_nothing_simulated(name):
    # The measured child runs the reference load between chunks of the
    # timed phase; the cuts must not change what is simulated.
    pauses = []
    cut = short_run(name, 5, pause=lambda: pauses.append(1),
                    CHUNKS=7, CHUNK_SCHEDULES=1)
    assert pauses
    assert cut.sim_stats() == short_run(name, 5).sim_stats()


@pytest.mark.parametrize("name", sorted(SHORT))
def test_different_seed_changes_inputs(name):
    assert workloads.make(name, 1).inputs() != workloads.make(name, 2).inputs()
    assert workloads.make(name, 1).inputs() == workloads.make(name, 1).inputs()


def test_fault_fuzz_schedules_stay_in_the_fixed_block():
    # The seed picks schedules inside the block, never moves it.
    w = workloads.make("fault_fuzz", 7)
    seeds = w.inputs()["schedule_seeds"]
    assert len(set(seeds)) == w.SCHEDULES
    assert all(w.FIRST_SCHEDULE <= s < w.FIRST_SCHEDULE + w.BLOCK
               for s in seeds)


def test_grow_intent_size_check_fires():
    w = workloads.make("grow_intent", 3)
    w.DURATION = SHORT["grow_intent"]["DURATION"]
    w.setup()
    w.run()
    w.expected[0] += BLOCK_SIZE
    w.finish()
    assert [f for f in w.failures if "server size" in f] != []


def test_meta_cache_lookup_and_getattr_checks_fire():
    def tamper(w):
        for path in w.file_ids:
            w.file_ids[path] += 1
            w.sizes[path] += BLOCK_SIZE
    w = short_run("meta_cache", 3, tamper=tamper)
    assert any(f.startswith("lookup ") for f in w.failures)
    assert any(f.startswith("getattr ") for f in w.failures)


def test_meta_cache_readdir_check_fires():
    def tamper(w):
        for names in w.listing.values():
            names.add(next(iter(names)) + ".missing")
    w = short_run("meta_cache", 3, tamper=tamper)
    assert any(f.startswith("readdir ") for f in w.failures)


def test_fault_fuzz_oracle_check_fires_on_a_broken_protocol():
    w = short_run("fault_fuzz", 0, BREAK_MODE="steal_early")
    assert w.violations > 0
    assert any("theorem-3.1" in f for f in w.failures)


@pytest.mark.parametrize("key", ["lease_server_msgs", "lease_server_cpu_ops",
                                 "lease_server_state_bytes"])
def test_passive_server_check_fires(key):
    w = short_run("grow_intent", 3)
    assert w.failures == []
    w.counters.values[key] = 1
    workloads._check_passive_server(w)
    assert any(key in f for f in w.failures)


def test_tracing_does_not_change_the_simulation_and_names_match():
    plain = short_run("fault_fuzz", 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = short_run("fault_fuzz", 0)
    finally:
        tracer.uninstall()
    assert traced.sim_stats() == plain.sim_stats()
    assert tracer.calls["client.open"] > 0
    assert tracer.ops and all(rows for rows in tracer.ops.values())

    def as_run(w, **extra):
        return {"sim": w.sim_stats(), "host_s": 1.0, **extra}
    profiled = workloads.make("fault_fuzz", 0)
    profiled.SCHEDULES = 1
    profiled.setup()
    _, shares = tracing.profile_call(profiled.run)
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    metrics = run.per_layer(
        as_run(plain),
        as_run(traced, trace=run._trace_summary(tracer)),
        {"profile": shares})
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert list(run.END_TO_END_UNITS) == [m["name"]
                                          for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == run._layer_unit(k) for k in metrics)


def test_identity_check_fires_on_a_changed_statistic():
    base = {"sim": {"events": 10, "op_p99_ms": 1.5}}
    changed = {"sim": {"events": 11, "op_p99_ms": 1.5}}
    assert run.traced_identity_failures({"plain": base, "trace": base}) == []
    assert run.traced_identity_failures(
        {"plain": base, "trace": changed}) != []


def test_calibration_load_is_fixed_work():
    # The reference load must do the same work every time, and never
    # touch the simulator, or reference seconds would move with it.
    assert calibrate.load() == calibrate.load()
    assert calibrate.measure() > 0
    with open(calibrate.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not any(m.split(".")[0] in ("repro", "workloads", "tracing")
                   for m in imported)
