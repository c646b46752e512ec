"""System assembly: one server, N clients, two networks, shared disks.

Protocol variation is data-driven: ``build_system`` looks the configured
protocol name up in the registry (:mod:`repro.protocols.registry`) and
assembles purely from the returned spec — authority factory, client
kind, lease usage, fencing policy, client agent.  A shared
:class:`~repro.obs.Observability` bundle threads through every node so
all overhead counters land in one metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.client.node import ClientConfig, StorageTankClient
from repro.client.pool import ClientPool
from repro.core.config import SystemConfig
from repro.lease.pooled import PooledLeaseService
from repro.lease.server_lease import ServerLeaseAuthority
from repro.net.control import ControlNetwork
from repro.net.message import MsgKind
from repro.net.partition import PartitionController, combined_views, is_symmetric
from repro.net.san import SanFabric
from repro.netcache import MetadataCacheNode, install_cache_router
from repro.obs import Observability
from repro.obs import runlog as _runlog
from repro.obs.export import export_json, make_document, make_manifest, run_entry
from repro.protocols.base import ClientAgent
from repro.protocols.nfs_polling import NfsPollingClient
from repro.protocols.registry import get as get_protocol
from repro.server.node import ServerConfig, StorageTankServer
from repro.sim.clock import ClockEnsemble
from repro.sim.kernel import Simulator
from repro.sim.timer_pool import TimerPool
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder
from repro.storage.disk import VirtualDisk


@dataclass
class StorageTankSystem:
    """A built installation, ready to run.

    Client access goes through :attr:`pool` — the typed
    :class:`~repro.client.pool.ClientPool` accessor
    (``system.pool.get(name)``, ``system.pool.iter_active()``,
    ``len(system.pool)``), which is also the flyweight store on the
    scale path.  (The pre-pool ``clients``/``agents`` dict attributes
    finished their deprecation cycle and are gone.)
    """

    config: SystemConfig
    sim: Simulator
    streams: RandomStreams
    trace: TraceRecorder
    clocks: ClockEnsemble
    control_net: ControlNetwork
    san: SanFabric
    disks: Dict[str, VirtualDisk]
    server: StorageTankServer
    pool: ClientPool
    servers: Dict[str, StorageTankServer] = field(default_factory=dict)
    obs: Observability = field(default_factory=Observability)
    coordinator: Optional[Any] = None  # ClusterCoordinator when enabled
    #: Pooled timer substrate (scale path only; None on the eager path).
    timers: Optional[TimerPool] = None
    #: Coalesced lease-lapse tracking for parked flyweight clients.
    pooled_leases: Optional[PooledLeaseService] = None
    #: In-network metadata cache nodes by name (empty when the tier is off).
    netcache: Dict[str, MetadataCacheNode] = field(default_factory=dict)

    # -- convenience ------------------------------------------------------
    @property
    def ctrl_partitions(self) -> PartitionController:
        """Partition controller for the control network."""
        return PartitionController(self.control_net)

    @property
    def san_partitions(self) -> PartitionController:
        """Partition controller for the SAN."""
        return PartitionController(self.san)

    def client(self, name: str) -> ClientAgent:
        """Look up a client node (materializes a parked flyweight)."""
        return self.pool.get(name)

    def server_node(self, name: str) -> StorageTankServer:
        """Look up a server node by name."""
        return self.servers[name]

    def spawn(self, gen, name: Optional[str] = None):
        """Run a generator as a simulation process."""
        return self.sim.process(gen, name=name)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Advance the simulation."""
        return self.sim.run(until=until, max_events=max_events)

    def network_views(self) -> Dict[str, Any]:
        """Two-network combined views V(A) and symmetry verdict (paper §2).

        On the SAN, only computer↔device pairs can communicate: two
        clients never talk over the SAN, which is exactly what makes a
        symmetric control-network cut asymmetric overall (Fig. 2).
        """
        client_names = self.pool.live_names()
        entities = ([self.server.name] + client_names + list(self.disks))
        ctrl_members = {self.server.name, *client_names}
        devices = set(self.disks)

        class _SanView:
            """SAN reachability restricted to initiator↔device pairs."""

            def __init__(self, fabric):
                self._fabric = fabric

            def reachable(self, a: str, b: str) -> bool:
                if (a in devices) == (b in devices):
                    return False  # device↔device and computer↔computer: no path
                return self._fabric.reachable(a, b)

        san_members = {*client_names, *self.disks, self.server.name}
        views = combined_views(entities,
                               [(self.control_net, ctrl_members),
                                (_SanView(self.san), san_members)])
        return {"views": views, "symmetric": is_symmetric(views)}

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One dict of every counter the experiments report."""
        auth = self.server.authority
        auth_over = auth.overhead_snapshot()
        snap: Dict[str, Any] = {
            "time": self.sim.now,
            "server.transactions": self.server.transactions,
            "server.data_bytes_served": self.server.data_bytes_served,
            "server.meta_ops": self.server.metadata.ops,
            "server.lock_grants": self.server.locks.grants,
            "server.lock_steals": self.server.locks.steals,
            "authority.state_bytes": int(auth_over["state_bytes"]),
            "authority.cpu_ops": int(auth_over["lease_cpu_ops"]),
            "authority.msgs_sent": int(auth_over["lease_msgs_sent"]),
            "ctrl.delivered": self.control_net.delivered_count,
            "ctrl.dropped": self.control_net.dropped_count,
            "san.bytes_read": self.san.bytes_read,
            "san.bytes_written": self.san.bytes_written,
            "san.io_count": self.san.io_count,
        }
        if isinstance(auth, ServerLeaseAuthority):
            snap["authority.peak_state_bytes"] = auth.peak_state_bytes
            snap["authority.steals"] = auth.total_steals
        if len(self.servers) > 1:
            for sname, srv in self.servers.items():
                snap[f"{sname}.transactions"] = srv.transactions
                snap[f"{sname}.lock_grants"] = srv.locks.grants
                snap[f"{sname}.state_bytes"] = srv.authority.state_bytes()
        for cname, cache in self.netcache.items():
            for key, val in cache.counters().items():
                snap[f"{cname}.{key}"] = val
        if self.coordinator is not None:
            snap["cluster.map_epoch"] = self.coordinator.map.epoch
            snap["cluster.takeovers"] = self.coordinator.takeovers
            snap["cluster.failbacks"] = self.coordinator.failbacks
            for sname, srv in self.servers.items():
                if srv.cluster is not None:
                    snap[f"{sname}.wrong_owner_nacks"] = \
                        srv.cluster.wrong_owner_nacks
            for name, cl in self.pool.live_items():
                if hasattr(cl, "rerouted_ops"):
                    snap[f"{name}.rerouted_ops"] = cl.rerouted_ops
                    snap[f"{name}.shard_migrations"] = cl.shard_migrations
        ops_total = 0
        rpc_total = 0
        rpc_by_kind: Dict[str, int] = {}
        for name, cl in self.pool.live_items():
            over = cl.overhead_snapshot()
            snap[f"{name}.ops_completed"] = int(over["ops_completed"])
            snap[f"{name}.app_errors"] = int(over["app_errors"])
            if "polls_sent" in over:
                snap[f"{name}.polls"] = int(over["polls_sent"])
            else:
                snap[f"{name}.ops_rejected"] = int(over["ops_rejected"])
                snap[f"{name}.keepalives"] = int(over["keepalives_sent"])
                snap[f"{name}.cache_hit_rate"] = over["cache_hit_rate"]
            if hasattr(cl, "rpc_by_kind"):
                ops_total += int(over["ops_completed"])
                for kind, n in cl.rpc_by_kind().items():
                    rpc_by_kind[kind] = rpc_by_kind.get(kind, 0) + n
                    if kind != MsgKind.KEEPALIVE:
                        rpc_total += n
        if rpc_by_kind:
            snap["client.rpc_by_kind"] = dict(sorted(rpc_by_kind.items()))
            snap["client.messages_per_op"] = (
                rpc_total / ops_total if ops_total else 0.0)
        for name, agent in self.pool.agent_items():
            over = agent.overhead_snapshot()
            if "heartbeats" in over:
                snap[f"{name}.heartbeats"] = int(over["heartbeats"])
            if "renewals" in over:
                snap[f"{name}.vlease_renewals"] = int(over["renewals"])
                snap[f"{name}.vlease_purges"] = int(over["purges"])
        return snap

    def export_obs(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Export this system's registry/spans as a ``repro.obs`` document.

        Writes JSON to ``path`` (default: the configured
        ``observability.export_path``) when one is given, and returns the
        document either way.
        """
        manifest = make_manifest(experiment="", seed=self.config.seed,
                                 protocols=[self.config.protocol])
        run = run_entry(self.config.protocol,
                        labels={"protocol": self.config.protocol,
                                "n_clients": str(self.config.n_clients),
                                "seed": str(self.config.seed)},
                        metrics=self.obs.registry.snapshot(),
                        spans=self.obs.tracer.to_dicts())
        document = make_document(manifest, [run])
        target = path or self.config.observability.export_path
        if target:
            export_json(document, target)
        return document


def build_system(config: Optional[SystemConfig] = None) -> StorageTankSystem:
    """Assemble a full installation for the configured protocol.

    ``config=None`` builds :meth:`SystemConfig.default` — an explicit,
    named fallback rather than a silent one.  With
    ``config.scale.lazy_clients`` the client population is registered as
    flyweight records (see :mod:`repro.client.pool`) instead of being
    built eagerly; every other configuration keeps the exact historical
    construction order, which pinned golden trace hashes depend on.
    """
    cfg = config if config is not None else SystemConfig.default()
    spec = get_protocol(cfg.protocol)
    collector = _runlog.active()
    sim = Simulator()
    streams = RandomStreams(cfg.seed)
    trace = TraceRecorder(enabled=cfg.record_trace,
                          keep_kinds=(set(cfg.observability.trace_keep_kinds)
                                      or None))
    obs = Observability.from_config(cfg.observability, trace=trace,
                                    force_spans=collector is not None)
    clocks = ClockEnsemble(cfg.lease.epsilon, streams)
    contract = cfg.lease.contract()

    net = ControlNetwork(sim, streams, trace,
                         base_delay=cfg.network.ctrl_base_delay,
                         jitter=cfg.network.ctrl_jitter,
                         drop_probability=cfg.network.ctrl_drop_probability)
    net.bind_obs(obs)
    san = SanFabric(sim, streams, trace,
                    base_latency=cfg.network.san_base_latency,
                    per_block_latency=cfg.network.san_per_block_latency,
                    per_device_queueing=cfg.network.san_per_device_queueing)
    san.bind_obs(obs)
    disks = {}
    for dname in cfg.disk_names():
        disk = VirtualDisk(dname, n_blocks=cfg.disk_blocks)
        san.attach_device(disk)
        disks[dname] = disk

    fence = (spec.fence_on_steal if spec.fence_on_steal is not None
             else cfg.fence_on_steal)
    # Recovery grace must out-wait every pre-crash *lease*, not just an
    # idle client's next keep-alive: a client partitioned across the
    # whole window still holds a valid lease (and its pre-crash locks)
    # for up to tau(1+eps) after its last renewal, which is at latest
    # the crash.  Granting fresh locks any earlier than that after the
    # restart hands out objects an unreachable client legitimately
    # still covers — the same bound the suspect timer waits (§3, §6).
    server_cfg = ServerConfig(fence_on_steal=fence,
                              recovery_grace=contract.server_wait_local(),
                              grant_policy=cfg.intent_grant_policy)
    server_names = cfg.server_names()
    servers: Dict[str, StorageTankServer] = {}
    for i, sname in enumerate(server_names):
        servers[sname] = StorageTankServer(
            sim, net, san, sname, clocks.create(sname), contract,
            config=server_cfg, trace=trace,
            authority_factory=lambda srv: spec.authority(cfg, srv),
            id_base=i * 1_000_000_000,
            alloc_share=(i, len(server_names)),
            obs=obs)
    server = servers[server_names[0]]

    client_cfg_base = dict(writeback_interval=cfg.writeback_interval,
                           rpc_timeout=cfg.rpc_timeout,
                           rpc_retries=cfg.rpc_retries,
                           quiesce_behavior=cfg.quiesce_behavior,
                           data_path=cfg.data_path,
                           attr_cache_ttl=cfg.attr_cache_ttl,
                           use_intents=cfg.intents)
    timers: Optional[TimerPool] = None
    pooled: Optional[PooledLeaseService] = None
    if cfg.scale.lazy_clients:
        pool = _build_lazy_clients(cfg, spec, sim, net, san, clocks, contract,
                                   trace, obs, server_names, client_cfg_base)
        timers = pool_timers = TimerPool(sim)
        pooled = PooledLeaseService(pool_timers)
        _wire_scale_hooks(pool, pooled, net)
    else:
        clients: Dict[str, ClientAgent] = {}
        agents: Dict[str, ClientAgent] = {}
        for cname in cfg.client_names():
            clock = clocks.create(cname,
                                  violates_bound=cname in cfg.slow_clients)
            if spec.client_kind == "nfs":
                clients[cname] = NfsPollingClient(sim, net, san, cname,
                                                  server_names[0], clock,
                                                  attr_ttl=cfg.nfs_attr_ttl,
                                                  trace=trace, obs=obs)
                continue
            ccfg = ClientConfig(use_leases=spec.uses_leases, **client_cfg_base)
            client = StorageTankClient(sim, net, san, cname, server_names,
                                       clock, contract, config=ccfg,
                                       trace=trace, obs=obs)
            clients[cname] = client
            if spec.agent is not None:
                agents[cname] = spec.agent(cfg, client)
        pool = ClientPool.eager(clients, agents)

    coordinator = None
    if cfg.cluster.enabled:
        # Cluster membership: per-server shard roles plus the coordinator
        # process.  The coordinator only exists when enabled, so default
        # installations keep their exact historical event sequence.
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.cluster.shardmap import ShardMap
        from repro.cluster.takeover import ServerShardRole
        initial = ShardMap.initial(server_names, cfg.cluster.n_slots)
        peer_stores = {sname: srv.metadata for sname, srv in servers.items()}
        for sname, srv in servers.items():
            role = ServerShardRole(srv, initial,
                                   grace=cfg.cluster.takeover_grace,
                                   map_lease=cfg.cluster.map_lease)
            role.peer_stores = dict(peer_stores)
            role.order = server_names
            srv.attach_cluster(role)
        coordinator = ClusterCoordinator(
            sim, net, cfg.cluster.coordinator_name, server_names,
            clocks.create(cfg.cluster.coordinator_name), cfg.cluster,
            trace=trace, obs=obs,
            client_names=tuple(n for n, c in pool.live_items()
                               if isinstance(c, StorageTankClient)))
        for cl in pool.iter_active():
            if isinstance(cl, StorageTankClient):
                cl.attach_cluster(cfg.cluster.coordinator_name, initial)
        coordinator.start()

    netcache: Dict[str, MetadataCacheNode] = {}
    if cfg.netcache.enabled:
        # In-network metadata cache tier: per-rack soft-state nodes the
        # control network routes cacheable reads through.  Constructed
        # last so every other node's build order (and therefore every
        # existing golden trace) is untouched; when disabled this block
        # is a no-op and the transmit path has a None router.
        for mname in cfg.cache_names():
            netcache[mname] = MetadataCacheNode(
                sim, net, mname, server_names, clocks.create(mname),
                contract, cfg.netcache, trace=trace, obs=obs)
        for srv in servers.values():
            srv.attach_cache_nodes(cfg.cache_names())
        install_cache_router(net, netcache, server_names)

    system = StorageTankSystem(config=cfg, sim=sim, streams=streams,
                               trace=trace, clocks=clocks, control_net=net,
                               san=san, disks=disks, server=server,
                               pool=pool, servers=servers, obs=obs,
                               coordinator=coordinator, timers=timers,
                               pooled_leases=pooled, netcache=netcache)
    if collector is not None:
        collector.on_system_built(system)
    return system


def _build_lazy_clients(cfg: SystemConfig, spec: Any, sim: Simulator,
                        net: ControlNetwork, san: SanFabric,
                        clocks: ClockEnsemble, contract: Any,
                        trace: TraceRecorder, obs: Observability,
                        server_names: Any,
                        client_cfg_base: Dict[str, Any]) -> ClientPool:
    """Register the client population as flyweights behind one factory.

    Registration allocates struct-of-arrays columns only — no client
    objects, no endpoints, no closures per client, no kernel events.
    The single shared factory materializes a full facade on first touch
    and reuses the node's original clock on re-materialization.
    """
    facade_cfg = dict(client_cfg_base)
    facade_cfg["writeback_interval"] = cfg.scale.facade_writeback_interval
    slow = frozenset(cfg.slow_clients)

    def make_client(name: str, idx: int) -> StorageTankClient:
        clock = clocks.get_or_create(name, violates_bound=name in slow)
        ccfg = ClientConfig(use_leases=spec.uses_leases, **facade_cfg)
        client = StorageTankClient(sim, net, san, name, server_names, clock,
                                   contract, config=ccfg, trace=trace,
                                   obs=obs)
        if spec.agent is not None:
            pool.set_agent(name, spec.agent(cfg, client))
        return client

    pool = ClientPool.lazy(cfg.n_clients, make_client)
    return pool


def _wire_scale_hooks(pool: ClientPool, pooled: PooledLeaseService,
                      net: ControlNetwork) -> None:
    """Connect the flyweight store to the network and lease plumbing.

    - inbound datagrams to a parked name materialize the client through
      the network's lazy resolver (the NACK / server-demand wake path);
    - parking a clean client hands its live lease(s) to the pooled
      expiry service and tears down its endpoint and daemons;
    - materializing drops the pooled record — the facade re-obtains a
      lease opportunistically with its first acknowledged request.
    """

    def resolve(name: str) -> Optional[Any]:
        idx = pool.index_of(name)
        if idx is None:
            return None
        client = pool.get(name, reason="datagram")
        return getattr(client, "endpoint", None)

    net.set_lazy_resolver(resolve)

    def park_client(client: Any, idx: int) -> None:
        blockers = client.park_blockers()
        if blockers:
            raise ValueError(
                f"cannot park {client.name!r}: {'; '.join(blockers)}")
        lapse_at = None
        for mgr in client.leases.values():
            if not mgr.active:
                continue
            expiry_local = mgr.expiry_local()
            if expiry_local is not None:
                t = client.endpoint.clock.global_time(expiry_local)
                lapse_at = t if lapse_at is None else max(lapse_at, t)
        if lapse_at is not None:
            pooled.renew(idx, lapse_at)
        client.shutdown_for_park()

    pool.set_parker(park_client)

    def drop_record(_name: str, idx: int) -> None:
        # The facade starts lease-less and renews with its first ACK;
        # the stale pooled record would otherwise double-count a lapse.
        pooled.lapse(idx)

    pool.on_materialize = drop_record
