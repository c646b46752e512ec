"""The benchmark's three closed-loop workloads.

Each workload turns the benchmark seed into inputs, builds and populates
an installation (the set-up phase), runs its timed phase and returns
exact simulated statistics plus the list of failed output checks.
Every worker is a closed loop: it issues its next op only after the
previous one returned, then thinks.  See README.md for why each
workload exists and which layers it loads.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Callable, Dict, Generator, List, Optional

import numpy as np

from repro.core.config import (LeaseConfig, NetCacheConfig, ScaleConfig,
                               SystemConfig, WorkloadConfig)
from repro.core.system import StorageTankSystem, build_system
from repro.net.message import MsgKind
from repro.simtest import runner
from repro.simtest.schedule import generate_schedule
from repro.storage import BLOCK_SIZE
from repro.workloads.generator import WorkloadDriver
from repro.workloads.zipf import ZipfSampler

#: Registered lazy-client population of the two large installs.
POPULATION = 10_000


def _no_pause() -> None:
    pass


def percentile_ms(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of simulated seconds, in milliseconds."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1] * 1000.0


class Counters:
    """Exact per-run totals, summed over every system a workload builds."""

    KEYS = ("events", "datagrams", "msgs", "keepalives", "server_txn",
            "meta_ops", "lock_grants", "lock_steals", "lease_server_msgs",
            "lease_server_cpu_ops", "lease_server_state_bytes", "san_io",
            "nc_hits", "nc_misses", "nc_installs", "nc_invalidations",
            "trace_records", "materializations", "parks", "page_hits",
            "page_lookups", "client_ops")

    def __init__(self) -> None:
        self.values: Dict[str, int] = {k: 0 for k in self.KEYS}

    def add_system(self, system: StorageTankSystem,
                   clients: Optional[List[Any]] = None) -> None:
        """Fold one finished system's counters in (``clients`` limits the
        client-side counts to the workload's workers)."""
        v = self.values
        snap = system.metrics_snapshot()
        v["events"] += system.sim.events_scheduled
        v["datagrams"] += (system.control_net.delivered_count
                           + system.control_net.dropped_count)
        v["server_txn"] += int(snap["server.transactions"])
        v["meta_ops"] += int(snap["server.meta_ops"])
        v["lock_grants"] += int(snap["server.lock_grants"])
        v["lock_steals"] += int(snap["server.lock_steals"])
        v["lease_server_msgs"] += int(snap["authority.msgs_sent"])
        v["lease_server_cpu_ops"] += int(snap["authority.cpu_ops"])
        v["lease_server_state_bytes"] += max(
            int(snap["authority.state_bytes"]),
            int(snap.get("authority.peak_state_bytes", 0)))
        v["san_io"] += int(snap["san.io_count"])
        for node in system.netcache.values():
            v["nc_hits"] += node.hits
            v["nc_misses"] += node.misses
            v["nc_installs"] += node.installs
            v["nc_invalidations"] += node.invalidations
        v["trace_records"] += len(system.trace)
        v["materializations"] += system.pool.materializations
        v["parks"] += system.pool.parks
        if clients is None:
            clients = [c for c in system.pool.iter_active()
                       if hasattr(c, "rpc_by_kind")]
        for c in clients:
            for kind, n in c.rpc_by_kind().items():
                if kind == MsgKind.KEEPALIVE:
                    v["keepalives"] += n
                else:
                    v["msgs"] += n
            v["client_ops"] += c.ops_completed
            v["page_hits"] += c.cache.stats.hits
            v["page_lookups"] += c.cache.stats.hits + c.cache.stats.misses


class Workload:
    """One benchmark workload: inputs from a seed, set-up, timed phase."""

    name = ""
    system: StorageTankSystem

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.latencies: List[float] = []
        self.attempted = 0
        self.completed = 0
        self.counters = Counters()
        self.failures: List[str] = []
        self.extents_per_file = 0.0

    def inputs(self) -> Dict[str, Any]:
        """The generated inputs, as plain data (tests compare these)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build and populate the installation."""
        raise NotImplementedError

    def run(self, pause: Callable[[], None] = _no_pause) -> None:
        """The timed phase, in chunks with ``pause()`` between them.

        The benchmark times its reference load in the pauses (README.md,
        "Host speed").  Where the timed phase is cut changes nothing
        that is simulated."""
        raise NotImplementedError

    def finish(self) -> None:
        """Collect counters and run the output checks."""
        raise NotImplementedError

    def sim_stats(self) -> Dict[str, Any]:
        """Exact simulated statistics: equal across repeats of one seed."""
        stats: Dict[str, Any] = {
            "ops_attempted": self.attempted,
            "ops_completed": self.completed,
            "op_samples": len(self.latencies),
            "op_p50_ms": percentile_ms(self.latencies, 0.50),
            "op_p99_ms": percentile_ms(self.latencies, 0.99),
            "extents_per_file": self.extents_per_file,
        }
        stats.update(self.counters.values)
        return stats

    def _timed(self, gen: Generator[Any, Any, Any],
               ) -> Generator[Any, Any, Any]:
        """Run one client call as one op, recording its simulated latency.

        The two failure-free workloads expect every op to complete, so
        an exception propagates and fails the run."""
        sim = self.system.sim
        self.attempted += 1
        start = sim.now
        result = yield from gen
        self.latencies.append(sim.now - start)
        self.completed += 1
        return result


class GrowIntent(Workload):
    """E-intent's growth cycle with intents on, in a 10k lazy install."""

    name = "grow_intent"
    WORKERS = 8
    RANGES = 4
    DURATION = 30.0
    CHUNKS = 20

    def inputs(self) -> Dict[str, Any]:
        rng = np.random.default_rng([self.seed, 1])
        tag = int(rng.integers(0, 1 << 30))
        return {
            "paths": [f"/grow/w{i}-{tag:08x}" for i in range(self.WORKERS)],
            "initial_blocks": [int(b) for b in
                               rng.integers(1, 5, size=self.WORKERS)],
            "think_rng": [int(s) for s in
                          rng.integers(0, 1 << 31, size=self.WORKERS)],
        }

    def setup(self) -> None:
        self.spec = self.inputs()
        self.system = build_system(SystemConfig(
            n_clients=POPULATION, seed=self.seed, protocol="storage_tank",
            record_trace=False, rpc_timeout=0.5, rpc_retries=2,
            writeback_interval=2.0, intents=True,
            scale=ScaleConfig(lazy_clients=True),
            lease=LeaseConfig(tau=8.0, epsilon=0.05),
            workload=WorkloadConfig(n_files=6, file_size_blocks=8)))
        self.clients = [self.system.client(f"c{i + 1}")
                        for i in range(self.WORKERS)]
        self.expected = [b * BLOCK_SIZE for b in self.spec["initial_blocks"]]
        procs = [self.system.spawn(
            c.create(path, size=size), f"grow-create:{c.name}")
            for c, path, size in zip(self.clients, self.spec["paths"],
                                     self.expected)]
        for p in procs:
            self.system.sim.run_until_event(p, hard_limit=60.0)

    def run(self, pause: Callable[[], None] = _no_pause) -> None:
        sim = self.system.sim
        t0 = sim.now
        for i, c in enumerate(self.clients):
            self.system.spawn(self._worker(i, c, t0 + self.DURATION),
                              f"grow:{c.name}")
        for k in range(1, self.CHUNKS + 1):
            self.system.run(until=t0 + self.DURATION * k / self.CHUNKS)
            pause()
        self.system.run(until=t0 + self.DURATION
                        + 2.0 * self.system.config.lease.tau)

    def _worker(self, i: int, c: Any, end: float) -> Generator[Any, Any, None]:
        rng = np.random.default_rng(self.spec["think_rng"][i])
        path = self.spec["paths"][i]
        stripe = self.RANGES * BLOCK_SIZE
        sim = self.system.sim
        it = 0
        while sim.now < end:
            base = it * stripe
            fd = yield from self._timed(c.open_file(path, "w"))
            yield from self._timed(c.write(fd, base, stripe))
            yield from self._timed(c.write_ranges_locked(
                fd, [(base + k * BLOCK_SIZE, BLOCK_SIZE)
                     for k in range(self.RANGES)]))
            yield from self._timed(c.close(fd))
            self.expected[i] = max(self.expected[i], base + stripe)
            it += 1
            yield sim.timeout(float(rng.uniform(0.15, 0.25)))

    def finish(self) -> None:
        self.counters.add_system(self.system, self.clients)
        meta = self.system.server.metadata
        extents = 0
        for path, want in zip(self.spec["paths"], self.expected):
            ino = meta.lookup(path)
            extents += len(ino.extents.extents)
            if ino.attrs.size != want:
                self.failures.append(
                    f"{path}: server size {ino.attrs.size}, writes grew it "
                    f"to {want}")
        self.extents_per_file = extents / len(self.spec["paths"])
        _check_passive_server(self)


class MetaCache(Workload):
    """E-cache's read-mostly metadata point: 48 workers, 4 cache nodes."""

    name = "meta_cache"
    WORKERS = 48
    FILES = 64
    DIRS = 4
    CACHE_NODES = 4
    ZIPF_S = 1.2
    THINK = 0.05
    CHURN = 0.05
    DURATION = 10.0
    CHUNKS = 20

    def inputs(self) -> Dict[str, Any]:
        rng = np.random.default_rng([self.seed, 2])
        tag = int(rng.integers(0, 1 << 30))
        paths = [f"/meta{tag:08x}/d{k % self.DIRS}/f{k:03d}"
                 for k in range(self.FILES)]
        workers = sorted(int(i) for i in rng.choice(
            np.arange(1, POPULATION), size=self.WORKERS, replace=False))
        return {
            "paths": paths,
            "sizes": [int(b) * BLOCK_SIZE for b in
                      rng.integers(0, 9, size=self.FILES)],
            "popularity": [int(i) for i in rng.permutation(self.FILES)],
            "workers": workers,
            "op_rng": [int(s) for s in
                       rng.integers(0, 1 << 31, size=self.WORKERS)],
        }

    def setup(self) -> None:
        self.spec = self.inputs()
        self.system = build_system(SystemConfig(
            n_clients=POPULATION, seed=self.seed, protocol="storage_tank",
            scale=ScaleConfig(lazy_clients=True),
            workload=WorkloadConfig(n_files=self.FILES, zipf_s=0.0),
            netcache=NetCacheConfig(enabled=True, n_nodes=self.CACHE_NODES)))
        populator = self.system.client(self.system.pool.name_of(0))
        self.file_ids: Dict[str, int] = {}

        def populate() -> Generator[Any, Any, None]:
            for path, size in zip(self.spec["paths"], self.spec["sizes"]):
                self.file_ids[path] = yield from populator.create(path, size)
        boot = self.system.spawn(populate(), "meta-populate")
        self.system.sim.run_until_event(boot, hard_limit=600.0)
        self.clients = [self.system.client(self.system.pool.name_of(i))
                        for i in self.spec["workers"]]
        self.sizes = dict(zip(self.spec["paths"], self.spec["sizes"]))
        self.listing: Dict[str, set] = {}
        for path in self.spec["paths"]:
            self.listing.setdefault(path.rsplit("/", 1)[0], set()).add(path)

    def run(self, pause: Callable[[], None] = _no_pause) -> None:
        sim = self.system.sim
        t0 = sim.now
        procs = [self.system.spawn(self._worker(i, c, t0 + self.DURATION),
                                   f"meta:{c.name}")
                 for i, c in enumerate(self.clients)]
        for k in range(1, self.CHUNKS + 1):
            self.system.run(until=t0 + self.DURATION * k / self.CHUNKS)
            pause()
        # Ops in flight at the deadline finish; none is cut off.
        for p in procs:
            sim.run_until_event(p, hard_limit=t0 + 10 * self.DURATION)

    def _worker(self, i: int, c: Any, end: float) -> Generator[Any, Any, None]:
        rng = np.random.default_rng(self.spec["op_rng"][i])
        zipf = ZipfSampler(self.FILES, self.ZIPF_S, rng)
        order = self.spec["popularity"]
        paths = self.spec["paths"]
        sim = self.system.sim
        scratch_seq = 0
        while True:
            think = float(rng.exponential(self.THINK))
            yield sim.timeout(min(think, max(end - sim.now, 1e-6)))
            if sim.now >= end:
                return
            path = paths[order[zipf.sample()]]
            if rng.random() < self.CHURN:
                scratch_seq += 1
                scratch = f"{path}.{c.name}.s{scratch_seq:04d}"
                yield from self._timed(c.create(scratch, 0))
                yield from self._timed(c.unlink(scratch))
                continue
            kind = int(rng.integers(0, 3))
            if kind == 0:
                got = yield from self._timed(c.lookup(path))
                if got != self.file_ids[path]:
                    self.failures.append(
                        f"lookup {path} -> {got}, created as "
                        f"{self.file_ids[path]}")
            elif kind == 1:
                attrs = yield from self._timed(c.getattr(path))
                if attrs.size != self.sizes[path]:
                    self.failures.append(
                        f"getattr {path}: size {attrs.size}, created "
                        f"with {self.sizes[path]}")
            else:
                parent = path.rsplit("/", 1)[0]
                entries = yield from self._timed(c.readdir(parent))
                missing = self.listing[parent] - set(entries)
                if missing:
                    self.failures.append(
                        f"readdir {parent} misses {sorted(missing)[:3]}")

    def finish(self) -> None:
        self.counters.add_system(self.system, self.clients)
        meta = self.system.server.metadata
        self.extents_per_file = sum(
            len(meta.lookup(p).extents.extents)
            for p in self.spec["paths"]) / self.FILES
        _check_passive_server(self)


class FaultFuzz(Workload):
    """Fail-stop fuzz schedules from a fixed block, under every oracle.

    The block is schedule seeds ``FIRST_SCHEDULE`` to ``FIRST_SCHEDULE +
    BLOCK - 1``.  The benchmark seed picks which ``SCHEDULES`` of them
    run; it never moves the block (README.md says why).
    """

    name = "fault_fuzz"
    FIRST_SCHEDULE = 1000
    BLOCK = 60
    SCHEDULES = 58
    STEPS = 8
    #: Schedules run between two pauses.
    CHUNK_SCHEDULES = 3
    #: A deliberate protocol break (``repro.simtest.runner.BREAK_MODES``);
    #: only the benchmark's own tests set it, to prove the check fires.
    BREAK_MODE = ""

    def inputs(self) -> Dict[str, Any]:
        rng = np.random.default_rng([self.seed, 3])
        picked = rng.choice(self.BLOCK, size=self.SCHEDULES, replace=False)
        return {"schedule_seeds": [self.FIRST_SCHEDULE + int(i)
                                   for i in sorted(picked)],
                "steps": self.STEPS}

    def setup(self) -> None:
        self.spec = self.inputs()
        self.schedules = [generate_schedule(s, self.STEPS,
                                            break_mode=self.BREAK_MODE)
                          for s in self.spec["schedule_seeds"]]
        self.drivers: List[WorkloadDriver] = []
        self.trace_hashes: List[str] = []
        self.violations = 0
        self._extents = 0
        self._files = 0
        drivers = self.drivers

        class RecordingDriver(WorkloadDriver):
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                super().__init__(*args, **kwargs)
                drivers.append(self)
        self._restore = runner.WorkloadDriver
        runner.WorkloadDriver = RecordingDriver  # type: ignore[misc]

    def run(self, pause: Callable[[], None] = _no_pause) -> None:
        try:
            for n, schedule in enumerate(self.schedules):
                if n and n % self.CHUNK_SCHEDULES == 0:
                    pause()
                first = len(self.drivers)
                result = runner.run_schedule(schedule, keep_system=True)
                self.trace_hashes.append(result.trace_hash)
                for v in result.violations:
                    self.violations += 1
                    self.failures.append(
                        f"schedule {schedule.seed}: {v.oracle} at "
                        f"t={v.time:.3f} on {v.node}: {v.message}")
                assert result.system is not None
                self.counters.add_system(result.system)
                self._fold_drivers(self.drivers[first:])
                meta = result.system.server.metadata
                files = list(meta.namespace)
                self._extents += sum(len(meta.lookup(p).extents.extents)
                                     for p in files)
                self._files += len(files)
        finally:
            runner.WorkloadDriver = self._restore  # type: ignore[misc]

    def _fold_drivers(self, drivers: List[WorkloadDriver]) -> None:
        for d in drivers:
            self.attempted += d.stats.ops_attempted
            self.completed += d.stats.ops_succeeded
            self.latencies.extend(d.stats.latencies)

    def finish(self) -> None:
        self.extents_per_file = self._extents / max(self._files, 1)

    def sim_stats(self) -> Dict[str, Any]:
        stats = super().sim_stats()
        digest = hashlib.sha256("\n".join(self.trace_hashes).encode())
        stats["trace_hash"] = digest.hexdigest()
        stats["schedules"] = len(self.trace_hashes)
        stats["violations"] = self.violations
        stats["steps_scheduled"] = sum(len(s.steps) for s in self.schedules)
        return stats


def _check_passive_server(w: Workload) -> None:
    """The paper's passive server: no lease work at all without failures."""
    v = w.counters.values
    for key in ("lease_server_msgs", "lease_server_cpu_ops",
                "lease_server_state_bytes"):
        if v[key]:
            w.failures.append(f"passive server broken: {key} = {v[key]}")
    if w.completed != w.attempted:
        w.failures.append(f"{w.attempted - w.completed} ops did not complete")


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (GrowIntent, MetaCache, FaultFuzz)}


def make(name: str, seed: int) -> Workload:
    """Instantiate a workload by name."""
    return WORKLOADS[name](seed)  # type: ignore[no-any-return]
