"""End-to-end benchmark of the Storage Tank simulator.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload grow_intent --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 40 --trace 1

``--trace 0`` measures: it runs fresh interpreters one after another
(never two at once), each doing one set-up and one timed phase of the
workload, until ``--seconds`` have passed, and reports the end-to-end
metrics as medians over those repeats.  ``--trace 1`` runs one untraced,
one span-traced and one cProfiled repeat, checks that all three
simulated the same thing, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every output check passed.  README.md documents the workloads and
the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Tuple

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".e2ebench-out")
WORKLOAD_NAMES = ("grow_intent", "meta_cache", "fault_fuzz")

#: Repeats per measured run: at least MIN_REPEATS, at most MAX_REPEATS.
MIN_REPEATS = 5
MAX_REPEATS = 30
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

#: Client op kinds reported per kind in the traced run.
OP_KINDS = ("open", "write", "write_ranges_locked", "close", "read",
            "lookup", "getattr", "readdir", "create", "unlink")
#: Server request kinds whose handler host time is reported.
SERVER_KINDS = ("fs.open", "fs.close", "fs.create", "fs.getattr",
                "fs.setattr", "fs.lookup", "fs.unlink", "fs.readdir",
                "lock.acquire", "lock.release", "lock.intent", "lock.batch",
                "lock.range_acquire", "lock.range_release",
                "lease.keepalive", "lock.reassert", "data.write")
#: Layers whose span self-time share is reported.
SPAN_LAYERS = ("sim", "net", "lease", "locks", "metadata", "storage",
               "client", "server", "netcache", "obs", "simtest")
#: Packages whose cProfile self-time share is reported.
PROFILE_PACKAGES = ("sim", "net", "lease", "locks", "metadata", "storage",
                    "client", "server", "netcache", "obs", "simtest",
                    "fault", "workloads")

END_TO_END_UNITS = {
    "sim_ops_per_host_s": "1/s",
    "host_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "msgs_per_op": "count",
    "completed_frac": "fraction",
}


# -- child: one repeat in a fresh interpreter ---------------------------------
class Stopwatch:
    """Times the timed phase, and in its pauses the reference load."""

    def __init__(self) -> None:
        self.run_s = 0.0
        self.cal_s = 0.0
        self.loads = 0
        self._t = perf_counter()

    def pause(self) -> None:
        """Called by the workload between two chunks of its timed phase."""
        self.run_s += perf_counter() - self._t
        self.cal_s += calibrate.measure()
        self.loads += 1
        self._t = perf_counter()

    def stop(self) -> None:
        self.run_s += perf_counter() - self._t


def child_main(mode: str, workload: str, seed: int) -> int:
    """Run one set-up + timed phase and print its result as JSON.

    Host times are reported twice: as measured (``raw_*``) and in
    reference seconds, scaled by how fast this process ran the reference
    load in the pauses of its timed phase (README.md, "Host speed").
    The profiled child makes no pauses, so the load stays out of its
    profile, and reports raw times only."""
    sys.path.insert(0, SRC)
    t_setup = perf_counter()
    import resource

    import tracing
    import workloads

    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    w = workloads.make(workload, seed)
    w.setup()
    setup_s = perf_counter() - t_setup
    if tracer is not None:
        tracer.reset()
    profile: Dict[str, float] = {}
    watch = Stopwatch()
    if mode == "profile":
        _, profile = tracing.profile_call(w.run)
    else:
        w.run(watch.pause)
    watch.stop()
    w.finish()
    scale = (calibrate.REFERENCE_S * watch.loads / watch.cal_s
             if watch.loads else 1.0)
    out: Dict[str, Any] = {
        "sim": w.sim_stats(),
        "failures": w.failures,
        "cal_s": watch.cal_s,
        "raw_setup_s": setup_s,
        "raw_host_s": watch.run_s,
        "setup_s": setup_s * scale,
        "host_s": watch.run_s * scale,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = _trace_summary(tracer)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    if profile:
        out["profile"] = profile
    print(json.dumps(out))
    return 0


def _trace_summary(tracer: Any) -> Dict[str, Any]:
    from workloads import percentile_ms
    ops: Dict[str, Any] = {}
    for kind, rows in tracer.ops.items():
        lat = [r[0] for r in rows if r[2]]
        ops[kind] = {
            "count": len(rows),
            "completed": len(lat),
            "p50_ms": percentile_ms(lat, 0.50),
            "p99_ms": percentile_ms(lat, 0.99),
            "host_ns": sum(r[1] for r in rows),
        }
    return {
        "calls": dict(tracer.calls),
        "active_ns": dict(tracer.active_ns),
        "self_by_layer": tracer.self_ns_by_layer(),
        "counts": dict(tracer.counts),
        "ops": ops,
        "spans": len(tracer.spans),
    }


def run_child(mode: str, workload: str, seed: int) -> Dict[str, Any]:
    """Run one child interpreter to completion and parse its result."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", workload, "--seed", str(seed)]
    # One fixed string-hash seed, so every repeat lays out its dicts and
    # sets alike; simulated results do not depend on it.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} child failed "
                           f"(exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- metrics ----------------------------------------------------------------
def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end metrics: host figures as medians over repeats, simulated
    figures from the (identical) simulated statistics."""
    sim = reps[0]["sim"]
    med = statistics.median
    return {
        "sim_ops_per_host_s": med(r["sim"]["ops_completed"] / r["host_s"]
                                  for r in reps),
        "host_s": med(r["host_s"] for r in reps),
        "setup_s": med(r["setup_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "op_p50_ms": sim["op_p50_ms"],
        "op_p99_ms": sim["op_p99_ms"],
        "msgs_per_op": _per(sim["msgs"], sim["client_ops"]),
        "completed_frac": _per(sim["ops_completed"], sim["ops_attempted"]),
    }


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any],
              profiled: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from one untraced, traced and profiled repeat."""
    sim = plain["sim"]
    ops = sim["ops_completed"]
    tr = traced["trace"]
    calls, active, counts = tr["calls"], tr["active_ns"], tr["counts"]

    def n(*names: str) -> int:
        return sum(calls.get(x, 0) for x in names)

    def host_us(*names: str) -> float:
        return _per(sum(active.get(x, 0) for x in names) / 1e3, n(*names))

    range_calls = sum(v for k, v in calls.items()
                      if k.startswith("locks.range."))
    m: Dict[str, float] = {
        "sim.events_per_op": _per(sim["events"], ops),
        "sim.host_us_per_event": _per(plain["host_s"] * 1e6, sim["events"]),
        "net.datagrams_per_op": _per(sim["datagrams"], ops),
        "net.request_calls_per_op": _per(n("net.request"), ops),
        "net.retry_frac": _per(counts.get("net.retransmits", 0),
                               counts.get("net.request_datagrams", 0)),
        "net.transmit_host_us": host_us("net.transmit"),
        "net.san_io_per_op": _per(n("net.san.read", "net.san.write"), ops),
        "net.san_host_us": host_us("net.san.read", "net.san.write"),
        "lease.renewals_per_op": _per(n("lease.renew"), ops),
        "lease.keepalives_per_op": _per(sim["keepalives"], ops),
        "lease.server_msgs": sim["lease_server_msgs"],
        "lease.server_cpu_ops": sim["lease_server_cpu_ops"],
        "lease.server_state_bytes": sim["lease_server_state_bytes"],
        "locks.grants_per_op": _per(sim["lock_grants"], ops),
        "locks.steals": sim["lock_steals"],
        "locks.try_acquire_host_us": host_us("locks.try_acquire",
                                             "locks.range.try_acquire"),
        "locks.range_calls_per_op": _per(range_calls, ops),
        "metadata.ops_per_op": _per(sim["meta_ops"], ops),
        "metadata.lookup_host_us": host_us("metadata.dir.lookup"),
        "metadata.listdir_host_us": host_us("metadata.dir.listdir"),
        "storage.extents_from_payload_calls_per_op": _per(
            n("storage.extents_from_payload"), ops),
        "storage.extents_from_payload_host_us": host_us(
            "storage.extents_from_payload"),
        "storage.extent_entries_shipped_per_op": _per(
            counts.get("storage.extent_entries_shipped", 0), ops),
        "storage.resolve_host_us": host_us("storage.resolve"),
        "storage.extents_per_file": sim["extents_per_file"],
    }
    for kind in OP_KINDS:
        rec = tr["ops"].get(kind, {"count": 0, "p50_ms": 0.0,
                                   "p99_ms": 0.0, "host_ns": 0})
        m[f"client.op_count.{kind}"] = rec["count"]
        m[f"client.op_sim_p50_ms.{kind}"] = rec["p50_ms"]
        m[f"client.op_sim_p99_ms.{kind}"] = rec["p99_ms"]
        m[f"client.op_host_us.{kind}"] = _per(rec["host_ns"] / 1e3,
                                              rec["count"])
    m["client.cache_hit_rate"] = _per(sim["page_hits"], sim["page_lookups"])
    m["client.materializations"] = sim["materializations"]
    m["client.parks"] = sim["parks"]
    m["server.txn_per_op"] = _per(sim["server_txn"], ops)
    for kind in SERVER_KINDS:
        m[f"server.handler_host_us.{kind}"] = host_us(
            f"server.handler.{kind}")
    lookups = sim["nc_hits"] + sim["nc_misses"]
    m["netcache.hit_rate"] = _per(sim["nc_hits"], lookups)
    m["netcache.installs_per_op"] = _per(sim["nc_installs"], ops)
    m["netcache.invalidations_per_op"] = _per(sim["nc_invalidations"], ops)
    m["obs.trace_records_per_op"] = _per(sim["trace_records"], ops)
    m["obs.trace_emit_host_us"] = host_us("obs.trace_emit")
    m["obs.registry_host_us"] = host_us("obs.registry_labels")
    m["obs.tracing_overhead"] = _per(traced["host_s"], plain["host_s"])
    m["simtest.oracle_host_s"] = sum(
        active.get(x, 0) for x in ("simtest.oracle.check_live",
                                   "simtest.oracle.check_final")) / 1e9
    m["simtest.trace_hash_host_s"] = active.get("simtest.trace_hash", 0) / 1e9
    m["fault.steps_applied"] = n("fault.apply_step")
    # Self time outside every wrapped call is the kernel loop, event
    # dispatch and unwrapped glue: reported as the sim layer's share.
    total_ns = traced["host_s"] * 1e9
    by_layer = tr["self_by_layer"]
    spanned = sum(by_layer.values())
    for layer in SPAN_LAYERS:
        ns = (total_ns - spanned if layer == "sim"
              else by_layer.get(layer, 0))
        m[f"{layer}.self_share"] = _per(ns, total_ns)
    prof = profiled["profile"]
    listed = 0.0
    for pkg in PROFILE_PACKAGES:
        m[f"profile.{pkg}"] = sum(
            share for module, share in prof.items()
            if module.split("/", 1)[0] == pkg)
        listed += m[f"profile.{pkg}"]
    # Every other package and everything outside the simulator.
    m["profile.other"] = 1.0 - listed
    return m


def traced_identity_failures(runs: Dict[str, Dict[str, Any]]) -> List[str]:
    """Tracing and profiling must not change what was simulated."""
    base = runs["plain"]["sim"]
    out = []
    for mode, r in runs.items():
        for key, val in base.items():
            if r["sim"].get(key) != val:
                out.append(f"{mode} run changed {key}: {r['sim'].get(key)!r}"
                           f" vs untraced {val!r}")
    return out


# -- parent --------------------------------------------------------------------
def _merge(failures: List[str], new: List[str]) -> None:
    """Add each failure not already reported (repeats report the same)."""
    for f in new:
        if f not in failures:
            failures.append(f)


def measure(workload: str, seed: int, seconds: float,
            ) -> Tuple[Dict[str, float], int, List[str]]:
    """Repeat fresh children for ``seconds``; return metrics, attempted
    ops and failures."""
    start = perf_counter()
    reps: List[Dict[str, Any]] = []
    failures: List[str] = []
    while len(reps) < MAX_REPEATS:
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPEATS:
            per_rep = elapsed / len(reps)
            if elapsed + per_rep > seconds:
                break
        rep = run_child("plain", workload, seed)
        if reps and rep["sim"] != reps[0]["sim"]:
            failures.append(f"repeat {len(reps) + 1} simulated differently "
                            f"from repeat 1 with the same seed")
        _merge(failures, rep["failures"])
        reps.append(rep)
    metrics = end_to_end(reps)
    _print_human(workload, seed, metrics, reps)
    return metrics, sum(r["sim"]["ops_attempted"] for r in reps), failures


def trace(workload: str, seed: int,
          ) -> Tuple[Dict[str, float], int, List[str]]:
    """One untraced, one traced and one profiled repeat."""
    runs = {mode: run_child(mode, workload, seed)
            for mode in ("plain", "trace", "profile")}
    failures: List[str] = []
    for r in runs.values():
        _merge(failures, r["failures"])
    failures.extend(traced_identity_failures(runs))
    metrics = per_layer(runs["plain"], runs["trace"], runs["profile"])
    print(f"# {workload} seed={seed} per-layer (traced run, "
          f"{runs['trace']['trace']['spans']} spans)")
    for name, value in metrics.items():
        print(f"{workload:12s} {name:44s} {value:.6g}")
    print(f"# {workload} cProfile self-time share by module (top 15)")
    for module, share in list(runs["profile"]["profile"].items())[:15]:
        print(f"{workload:12s} profile {module:36s} {100 * share:5.1f}%")
    return (metrics, sum(r["sim"]["ops_attempted"] for r in runs.values()),
            failures)


def _print_human(workload: str, seed: int, metrics: Dict[str, float],
                 reps: List[Dict[str, Any]]) -> None:
    sim = reps[0]["sim"]
    print(f"# {workload} seed={seed}: {len(reps)} fresh-process repeats; "
          f"{sim['ops_completed']}/{sim['ops_attempted']} ops completed; "
          f"latency percentiles over {sim['op_samples']} samples")
    for name, value in metrics.items():
        print(f"{workload:12s} {name:20s} {value:14.6f} "
              f"{END_TO_END_UNITS[name]}")
    for key in ("host_s", "raw_host_s", "cal_s"):
        print(f"{workload:12s} {key} per repeat: "
              + " ".join(f"{r[key]:.3f}" for r in reps))
    failed = sim["ops_attempted"] - sim["ops_completed"]
    print(f"{workload:12s} {'failed_frac':20s} "
          f"{_per(failed, sim['ops_attempted']):14.6f} fraction")


def parent_main(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    # Compile bytecode once so no measured repeat pays for it.
    subprocess.run([sys.executable, "-c", "import sys; sys.path[:0] = "
                    f"[{SRC!r}, {HERE!r}]; import workloads, tracing"],
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                   capture_output=True)
    metrics: Dict[str, Dict[str, Any]] = {}
    attempted = 0
    failures: List[str] = []
    for name in names:
        m, n_ops, fails = (trace(name, args.seed) if args.trace
                           else measure(name, args.seed, args.seconds))
        attempted += n_ops
        failures.extend(f"{name}: {f}" for f in fails)
        for key, value in m.items():
            unit = (END_TO_END_UNITS[key] if key in END_TO_END_UNITS
                    else _layer_unit(key))
            label = key if len(names) == 1 else f"{name}.{key}"
            metrics[label] = {"value": value, "unit": unit}
    for f in failures:
        print(f"CHECK FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def _layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    stem = name.split(".")[1]
    if "host_us" in stem:
        return "us"
    if stem.endswith("_ms"):
        return "ms"
    if stem.endswith("_host_s"):
        return "s"
    if stem.endswith(("_share", "_frac", "_rate")) or \
            name.startswith("profile."):
        return "fraction"
    if stem.endswith("_bytes"):
        return "bytes"
    if stem == "tracing_overhead":
        return "ratio"
    return "count"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("plain", "trace", "profile"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args.child, args.workload, args.seed)
    try:
        return parent_main(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
