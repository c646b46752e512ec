"""The control network: connection-less datagram transport plus the
request/ACK/NACK endpoint discipline of paper §3.

The network itself only knows reachability (a directional blocked-pair
set, so asymmetric partitions are expressible), delay and loss.  All
protocol behaviour — retries, at-most-once execution, ACK/NACK, the
hooks the lease protocol attaches to — lives in :class:`Endpoint`.

The cluster control plane (:mod:`repro.cluster`) is an ordinary tenant
of this transport: coordinator pings, shard-map pushes/fetches and
slot-release handoffs are plain request/ACK exchanges (the
``CLUSTER_*`` kinds in :mod:`repro.net.message`), so every failure
mode expressible here — loss, delay, one-way partitions — applies to
membership traffic exactly as it does to lease traffic.

Hot-path design notes: delivery is a dedicated :class:`_DeliveryEvent`
(no per-datagram closure), the request/retry loops race events with
:class:`repro.sim.events.FirstOf` instead of building an ``AnyOf`` plus
result dict per attempt, trace emission is guarded by the recorder's
no-op flag, and the at-most-once eviction queue is a deque.  Event
scheduling order and RNG draw order are unchanged, so traces are
bit-identical to the pre-optimization transport.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Generator,
                    List, Optional, Set, Tuple)

from repro.net.message import (
    Ack,
    DeliveryError,
    Message,
    MsgKind,
    Nack,
    NackError,
)
from repro.sim.clock import LocalClock
from repro.sim.events import Event, FirstOf, Timeout
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.obs import Observability
    from repro.obs.registry import HistogramChild
    from repro.obs.spans import Span

# A request handler may return a decision tuple directly, or a generator
# that the endpoint runs as a process and whose return value is the
# decision tuple.  Decisions: ("ack", payload), ("nack", payload),
# ("silent", None).
HandlerResult = Tuple[str, Optional[Dict[str, Any]]]
Handler = Callable[[Message], Any]

_ACK = MsgKind.ACK
_NACK = MsgKind.NACK


@dataclass(frozen=True)
class RetryPolicy:
    """Sender-side datagram retry discipline (local-clock seconds).

    ``pending_timeout`` bounds how long a requester waits for the final
    result of a transaction the receiver acknowledged as *pending*
    (deferred lock grants can legitimately take a full lease interval).
    """

    timeout: float = 1.0
    retries: int = 3
    pending_timeout: float = 120.0

    @property
    def attempts(self) -> int:
        """Total number of transmissions."""
        return self.retries + 1


class _DeliveryEvent(Event):
    """An in-flight datagram: fires at arrival time and hands the message
    to the target endpoint.

    Replaces the per-datagram ``deliver`` closure + generic event pair:
    one allocation, no cell variables, and the arrival logic runs as an
    overridden ``_fire``.  Scheduling consumes exactly one sequence
    number at transmit time, as the old ``Event.succeed(delay=...)`` did.
    """

    __slots__ = ("net", "msg", "target")

    def __init__(self, net: "ControlNetwork", msg: Message,
                 target: "Endpoint", delay: float) -> None:
        sim = net.sim
        self.sim = sim
        self.callbacks = None
        self._value = None
        self._exc = None
        self._triggered = True
        self._processed = False
        self._defused = False
        self._waiter = None
        self.net = net
        self.msg = msg
        self.target = target
        sim._schedule(self, delay)

    def _fire(self) -> None:
        self._processed = True
        net = self.net
        msg = self.msg
        target = self.target
        # A partition may have formed while the datagram was in flight;
        # model cut links by re-checking at delivery time.
        blocked = net._blocked
        if (blocked and (msg.src, msg.dst) in blocked) or not target.alive:
            net.dropped_count += 1
            trace = net.trace
            if not trace._noop:
                trace.emit(net.sim._now, "msg.dropped", msg.src,
                           dst=msg.dst, msg_kind=msg.kind)
            return
        net.delivered_count += 1
        net.bytes_delivered += msg.size_bytes()
        trace = net.trace
        if not trace._noop:
            # Attribute the receive to the endpoint that actually takes
            # delivery: an in-network cache interposing on msg.dst must
            # not leave trace events claiming the origin server saw the
            # request (the nack-timed-out oracle audits exactly that).
            trace.emit(net.sim._now, "msg.recv", target.name,
                       msg_kind=msg.kind, src=msg.src, msg_id=msg.msg_id,
                       seq=msg.seq)
        target._on_datagram(msg)


class ControlNetwork:
    """Datagram fabric between named nodes.

    Reachability is directional: ``block(a, b)`` stops a→b datagrams
    only, which is how asymmetric partitions (paper §2) are modelled.
    """

    def __init__(self, sim: Simulator, streams: RandomStreams,
                 trace: Optional[TraceRecorder] = None,
                 base_delay: float = 0.001, jitter: float = 0.0005,
                 drop_probability: float = 0.0) -> None:
        self.sim = sim
        self.trace = trace if trace is not None else TraceRecorder(
            enabled=False, counting=False)
        self.base_delay = base_delay
        self.jitter = jitter
        self.drop_probability = drop_probability
        self._rng = streams.get("net.control")
        self._endpoints: Dict[str, "Endpoint"] = {}
        # Lazy-registration hook (scale path): consulted when a datagram
        # addresses an unattached name, so a parked flyweight client can
        # be materialized by its own inbound traffic instead of the
        # datagram dropping.  One resolver for the whole population — no
        # per-client closures.
        self._lazy_resolver: Optional[Callable[[str], Optional["Endpoint"]]] = None
        # Route-through-cache hook (netcache tier): consulted per datagram
        # after loss, before destination resolution.  Returns the cache
        # endpoint that should receive the message *in place of* its
        # addressed destination, or None for the normal direct path.
        # ``msg.dst`` is left untouched — the cache node reads it as the
        # upstream server to forward misses to.  None (the default) adds
        # zero branches of consequence and zero RNG draws: golden traces
        # are bit-identical with the tier disabled.
        self._cache_router: Optional[Callable[[Message], Optional["Endpoint"]]] = None
        self._blocked: Set[Tuple[str, str]] = set()
        self.delivered_count = 0
        self.dropped_count = 0
        self.bytes_delivered = 0

    def bind_obs(self, obs: "Observability") -> None:
        """Mirror the fabric counters into a metrics registry.

        Uses callback gauges so the registry samples the live counters
        at read time — no double bookkeeping on the delivery hot path.
        """
        reg = obs.registry
        reg.gauge("net.ctrl.delivered", "Datagrams delivered",
                  ).labels().set_function(lambda: self.delivered_count)
        reg.gauge("net.ctrl.dropped", "Datagrams dropped or blocked",
                  ).labels().set_function(lambda: self.dropped_count)
        reg.gauge("net.ctrl.bytes_delivered", "Payload bytes delivered",
                  ).labels().set_function(lambda: self.bytes_delivered)

    # -- membership ---------------------------------------------------------
    def attach(self, endpoint: "Endpoint") -> None:
        """Register an endpoint under its node name."""
        if endpoint.name in self._endpoints:
            raise ValueError(f"duplicate endpoint {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint

    def detach(self, name: str) -> None:
        """Forget an endpoint (a parked flyweight client's teardown)."""
        self._endpoints.pop(name, None)

    def set_lazy_resolver(
            self,
            resolver: Optional[Callable[[str], Optional["Endpoint"]]]) -> None:
        """Install the batch-registration resolver for unattached names.

        ``resolver(name)`` returns an endpoint (typically by
        materializing a parked client, whose constructor attaches it)
        or None for names outside the registered population.  Never
        consulted for already-attached names, so the default delivery
        path is untouched.
        """
        self._lazy_resolver = resolver

    def set_cache_router(
            self,
            router: Optional[Callable[[Message], Optional["Endpoint"]]]) -> None:
        """Install the route-through-cache attachment (netcache tier).

        ``router(msg)`` returns the interposed cache endpoint for
        cacheable read-path requests, or None to deliver directly.  The
        router must return None for dead cache nodes so a crashed cache
        degrades to plain forwarding — the sender's retry then reaches
        the authoritative server unmediated.
        """
        self._cache_router = router

    @property
    def node_names(self) -> List[str]:
        """All attached node names."""
        return list(self._endpoints)

    # -- reachability -------------------------------------------------------
    def block(self, src: str, dst: str) -> None:
        """Stop delivering src→dst datagrams (directional)."""
        self._blocked.add((src, dst))

    def unblock(self, src: str, dst: str) -> None:
        """Restore src→dst delivery."""
        self._blocked.discard((src, dst))

    def block_pair(self, a: str, b: str) -> None:
        """Symmetric cut between two nodes."""
        self.block(a, b)
        self.block(b, a)

    def unblock_pair(self, a: str, b: str) -> None:
        """Heal a symmetric cut."""
        self.unblock(a, b)
        self.unblock(b, a)

    def heal_all(self) -> None:
        """Remove every block."""
        self._blocked.clear()

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a datagram sent now from src would arrive at dst."""
        return (src, dst) not in self._blocked

    def blocked_pairs(self) -> Set[Tuple[str, str]]:
        """Snapshot of directional blocks."""
        return set(self._blocked)

    # -- transmission ---------------------------------------------------------
    def _delay(self) -> float:
        if self.jitter <= 0:
            return self.base_delay
        return self.base_delay + float(self._rng.exponential(self.jitter))

    def transmit(self, msg: Message) -> None:
        """Send one datagram.  Loss and partitions silently drop it."""
        endpoints = self._endpoints
        sender = endpoints.get(msg.src)
        if sender is not None and not sender.alive:
            # A crashed node neither receives nor sends: processes that
            # were mid-request when it died just spin into the void.
            self.dropped_count += 1
            return
        trace = self.trace
        noop = trace._noop
        if not noop:
            trace.emit(self.sim._now, "msg.send", msg.src,
                       msg_kind=msg.kind, dst=msg.dst, msg_id=msg.msg_id,
                       seq=msg.seq)
        blocked = self._blocked
        if blocked and (msg.src, msg.dst) in blocked:
            self.dropped_count += 1
            if not noop:
                trace.emit(self.sim._now, "msg.blocked", msg.src,
                           dst=msg.dst, msg_kind=msg.kind)
            return
        if self.drop_probability > 0 and self._rng.random() < self.drop_probability:
            self.dropped_count += 1
            if not noop:
                trace.emit(self.sim._now, "msg.dropped", msg.src,
                           dst=msg.dst, msg_kind=msg.kind)
            return
        router = self._cache_router
        if router is not None:
            interposed = router(msg)
            if interposed is not None:
                _DeliveryEvent(self, msg, interposed, self._delay())
                return
        target = endpoints.get(msg.dst)
        if target is None:
            resolver = self._lazy_resolver
            if resolver is not None:
                target = resolver(msg.dst)
            if target is None:
                self.dropped_count += 1
                return
        _DeliveryEvent(self, msg, target, self._delay())


class Endpoint:
    """A node's attachment to the control network.

    Provides the paper's messaging discipline:

    - per-destination request sequence numbers and receiver-side
      *at-most-once* execution with cached replies (§3: "version numbers
      for at most once delivery semantics");
    - sender-side retry with local-clock timeouts, surfacing
      :class:`DeliveryError` after the policy is exhausted — the event
      that makes a server declare a client *suspect*;
    - ACK/NACK dispatch plus listener hooks the lease protocol uses
      (opportunistic renewal rides on every ACK, §3.1);
    - an optional *gatekeeper* consulted before any inbound request is
      executed — the server lease authority uses it to refuse ACKs and
      send NACKs while timing a client out (§3.3).
    """

    def __init__(self, sim: Simulator, net: ControlNetwork, name: str,
                 clock: LocalClock, trace: Optional[TraceRecorder] = None,
                 default_policy: Optional[RetryPolicy] = None,
                 dedup_capacity: int = 4096) -> None:
        self.sim = sim
        self.net = net
        self.name = name
        self.clock = clock
        self.trace = trace if trace is not None else net.trace
        self.default_policy = default_policy or RetryPolicy()
        self.alive = True
        # Lease-lapse attestation generation (§6 containment).  The
        # lease layer bumps this when a lease *expires locally* — i.e.
        # the node ran its expected-failure path (quiesce, flush, drop
        # cache and locks).  Requests created while it is non-zero carry
        # it as ``__lapse_gen__``, so a server that fenced this node can
        # distinguish "the old incarnation is still talking" (no new
        # attestation: keep the fence) from "the node observed its lapse
        # and discarded stale state" (safe to lift the fence).
        self.lapse_gen = 0
        # Observability bundle (set by node constructors / build_system);
        # None means no metrics/span recording on this endpoint.
        self.obs: Optional["Observability"] = None

        self._handlers: Dict[str, Handler] = {}
        self._gatekeeper: Optional[Callable[[Message], Optional[str]]] = None
        self._pending: Dict[int, Event] = {}
        self._pending_results: Dict[int, Event] = {}
        # Results that arrived before their pending-ACK (datagram reordering).
        self._early_results: Dict[int, Tuple[str, Dict[str, Any]]] = {}
        self._next_seq = 0
        self._dedup_capacity = dedup_capacity
        # (src, seq) -> ("done", decision, payload) | ("in_progress", None, None)
        self._executed: Dict[Tuple[str, int], Tuple[str, Optional[str], Optional[Dict[str, Any]]]] = {}
        self._executed_order: Deque[Tuple[str, int]] = deque()
        # RPC latency histogram children by (kind, status), valid for the
        # registry they came from; re-binding ``obs`` to another registry
        # drops them.
        self._rpc_hist: Optional[Dict[Tuple[str, str], "HistogramChild"]] = None
        self._rpc_hist_registry: Optional[object] = None
        # Requests initiated through this endpoint, by message kind
        # (one count per logical RPC; retries share the count).  The
        # messages-per-op accounting divides these by completed ops.
        self.rpc_sent: Dict[str, int] = {}

        # Extra payload keys merged into transport-level *receipt* ACKs
        # (the ``__pending__`` acknowledgment of a deferred transaction).
        # Servers stamp their recovery epoch here: the receipt ACK
        # renews the sender's lease, so it must also carry the restart
        # signal — a client parked behind a deferred transaction (e.g. a
        # grant deferred into the post-restart grace window) otherwise
        # keeps a live lease while never learning the server restarted,
        # misses its reassertion window, and zombie-holds locks another
        # client can then legitimately re-acquire (§6).
        self.ack_stamp: Optional[Callable[[], Dict[str, Any]]] = None
        self.ack_listeners: List[Callable[[Message, float], None]] = []
        # Fired on a deferred transaction's *final* result, which never
        # passes through ``ack_listeners`` (the receipt ACK did, and the
        # completion is reconstructed locally from the RESULT payload).
        # The receipt already renewed the lease; finals only carry the
        # slow-path signals stamped into the payload, e.g. ``__epoch__``
        # — without this hook a client whose traffic is dominated by
        # deferred transactions never notices a server restart and never
        # reasserts its locks (§6).
        self.result_listeners: List[Callable[[Message, float], None]] = []
        self.nack_listeners: List[Callable[[Message], None]] = []
        self.delivery_failure_listeners: List[Callable[[str, Message], None]] = []

        net.attach(self)

    # -- configuration ---------------------------------------------------------
    def register(self, kind: str, handler: Handler) -> None:
        """Install the handler for an inbound request kind."""
        self._handlers[kind] = handler

    def set_gatekeeper(self, fn: Optional[Callable[[Message], Optional[str]]]) -> None:
        """Install the pre-execution gate (return ``"nack"``/``"silent"``/None)."""
        self._gatekeeper = fn

    def crash(self) -> None:
        """Stop receiving and lose volatile transport state.

        The replay (at-most-once) cache and deferred-result plumbing are
        in-memory: they die with the node.  Survivors re-polling a
        transaction that was in progress here will find no record and
        trigger a fresh execution after restart — exactly the recovery
        path §6's reassertion design expects.
        """
        self.alive = False
        self._executed.clear()
        self._executed_order.clear()
        self._pending_results.clear()
        self._early_results.clear()
        # Note: self._pending (reply events of *this node's own* in-flight
        # requests) is left intact.  The kernel cannot kill the arbitrary
        # processes driving those requests; their sends are suppressed
        # while the node is down, and letting the stragglers complete
        # after a restart is harmless — receivers treat them as ordinary
        # duplicates/late traffic.

    def restart(self) -> None:
        """Resume receiving after a crash."""
        self.alive = True

    def forget_peer(self, src: str) -> None:
        """Drop the at-most-once replay state kept for one peer.

        Called when the lease protocol *resolves* a peer (the τ(1+ε)
        suspect wait elapsed and its locks were stolen): the resolution
        is the protocol's declaration that the old incarnation is dead,
        so replay-cached results from it must not leak to a restarted
        incarnation that happens to reuse sequence numbers.  The stale
        keys left in the eviction order are popped harmlessly later.
        """
        dead = [key for key in self._executed if key[0] == src]
        for key in dead:
            del self._executed[key]

    # -- local time ---------------------------------------------------------
    def local_now(self) -> float:
        """This node's local-clock reading."""
        return self.clock.local_time(self.sim._now)

    def local_timeout(self, local_interval: float,
                      value: Any = None) -> Timeout:
        """A timeout measured on this node's local clock."""
        return Timeout(self.sim, self.clock.to_global_interval(local_interval), value)

    # -- sending ----------------------------------------------------------------
    def send_datagram(self, msg: Message) -> None:
        """Fire-and-forget transmit (used for ACK/NACK replies)."""
        self.net.transmit(msg)

    def request(self, dst: str, kind: str,
                payload: Optional[Dict[str, Any]] = None,
                policy: Optional[RetryPolicy] = None,
                ) -> Generator[Event, Any, Message]:
        """Send a request and wait for its ACK (process generator).

        Returns the ACK message.  Raises :class:`NackError` on NACK and
        :class:`DeliveryError` when every attempt times out.

        Every transmission — first send, retry, or pending re-poll — is a
        *fresh message initiation* under the lease contract: it gets its
        own msg_id and its own local send time, and an ACK renews from
        the send time of the exact attempt it answers (Fig. 3: t_C1 must
        provably precede the server's reply, which only holds for the
        matched attempt).  The receiver's at-most-once key is (src, seq),
        which all attempts share.
        """
        pol = policy or self.default_policy
        self._next_seq += 1
        self.rpc_sent[kind] = self.rpc_sent.get(kind, 0) + 1
        msg = Message(self.name, dst, kind,
                      dict(payload) if payload else {}, self._next_seq)
        if self.lapse_gen:
            # Attest the lapses this node has observed (and cleaned up
            # after).  Stamped at creation: a request initiated *before*
            # a lapse keeps its pre-lapse view across retries.
            msg.payload["__lapse_gen__"] = self.lapse_gen
        msg.sent_local_time = self.local_now()
        sim = self.sim
        pending = self._pending
        net = self.net
        reply_ev = Event(sim)
        attempt_times: Dict[int, float] = {}
        attempt_ids: List[int] = []

        obs = self.obs
        t0 = sim._now
        span = (obs.begin_span(t0, "net.rpc", self.name, msg_kind=kind, dst=dst)
                if obs is not None else None)
        try:
            attempt = msg
            for n in range(pol.attempts):
                # Each attempt is its own datagram object: earlier copies
                # may still be in flight and must keep their identity.
                if n:
                    attempt = Message(msg.src, msg.dst, msg.kind,
                                      msg.payload, msg.seq)
                sent_local = self.local_now()
                attempt.sent_local_time = sent_local
                mid = attempt.msg_id
                attempt_times[mid] = sent_local
                attempt_ids.append(mid)
                pending[mid] = reply_ev
                net.transmit(attempt)
                timeout_ev = Timeout(
                    sim, self.clock.to_global_interval(pol.timeout), None)
                winner = yield FirstOf(sim, (reply_ev, timeout_ev))
                if winner is reply_ev:
                    reply: Message = reply_ev._value
                    if reply.kind == _NACK:
                        for fn in self.nack_listeners:
                            fn(reply)
                        raise NackError(msg, reply)
                    renewal_time = attempt_times.get(reply.reply_to or -1,
                                                     msg.sent_local_time)
                    for fn in self.ack_listeners:
                        fn(reply, renewal_time)
                    if reply.payload.get("__pending__"):
                        final = yield from self._await_result(
                            msg, int(reply.payload["__ticket__"]), pol,
                            attempt_times, attempt_ids)
                        for fn in self.result_listeners:
                            fn(final, renewal_time)
                        self._rpc_done(span, kind, t0, "ack")
                        return final
                    self._rpc_done(span, kind, t0, "ack")
                    return reply
            for dfn in self.delivery_failure_listeners:
                dfn(dst, msg)
            raise DeliveryError(msg, pol.attempts)
        except NackError:
            self._rpc_done(span, kind, t0, "nack")
            raise
        except DeliveryError:
            self._rpc_done(span, kind, t0, "delivery_error")
            raise
        finally:
            for mid in attempt_ids:
                pending.pop(mid, None)

    def _rpc_done(self, span: Optional["Span"], kind: str, t0: float,
                  status: str) -> None:
        """Close a round-trip span and record its latency histogram."""
        obs = self.obs
        if obs is None:
            return
        if span is not None:
            span.end(self.sim._now, status=status)
        registry = obs.registry
        children = self._rpc_hist
        if children is None or self._rpc_hist_registry is not registry:
            children = self._rpc_hist = {}
            self._rpc_hist_registry = registry
        child = children.get((kind, status))
        if child is None:
            child = children[kind, status] = registry.histogram(
                "net.rpc.latency_s", "Request round-trip time (simulated s)",
                labels=("kind", "status")).labels(kind=kind, status=status)
        child.observe(self.sim._now - t0)

    def _fresh_result_event(self, ticket: int) -> Event:
        """Register a waiter for a deferred-transaction result, consuming
        any result that arrived ahead of its pending-ACK."""
        ev = Event(self.sim)
        early = self._early_results.pop(ticket, None)
        if early is not None:
            ev.succeed(early)
        self._pending_results[ticket] = ev
        return ev

    def _await_result(self, msg: Message, ticket: int, pol: RetryPolicy,
                      attempt_times: Dict[int, float],
                      attempt_ids: List[int],
                      ) -> Generator[Event, Any, Message]:
        """Wait for a deferred-transaction result, re-polling the server.

        While pending, the original datagram is periodically re-sent: a
        live server re-acknowledges "still pending" from its replay
        cache, while a *restarted* server (which lost the in-progress
        entry) re-executes the transaction under a fresh ticket.  The
        poll is what lets a client ride out a server crash instead of
        sleeping through the whole ``pending_timeout``.
        """
        sim = self.sim
        pending = self._pending
        result_ev = self._fresh_result_event(ticket)
        deadline_local = self.local_now() + pol.pending_timeout
        poll_local = max(pol.timeout * 2.0, 1e-6)
        try:
            while True:
                remaining = deadline_local - self.local_now()
                # Floor at a microsecond: a sub-epsilon remainder cannot
                # advance the float timeline and would spin forever.
                if remaining <= 1e-6:
                    raise DeliveryError(msg, pol.attempts)
                reply_ev = Event(sim)
                for mid in attempt_ids:
                    pending[mid] = reply_ev
                timeout_ev = self.local_timeout(
                    max(min(poll_local, remaining), 1e-6))
                winner = yield FirstOf(sim, (result_ev, reply_ev, timeout_ev))
                if winner is result_ev:
                    decision, payload = result_ev._value
                    if decision == "nack":
                        nack = Nack(msg.dst, self.name, msg.msg_id,
                                    payload=payload)
                        for fn in self.nack_listeners:
                            fn(nack)
                        raise NackError(msg, nack)
                    return Ack(msg.dst, self.name, msg.msg_id, payload=payload)
                if winner is reply_ev:
                    reply: Message = reply_ev._value
                    if reply.kind == _NACK:
                        for fn in self.nack_listeners:
                            fn(reply)
                        raise NackError(msg, reply)
                    renewal_time = attempt_times.get(reply.reply_to or -1,
                                                     msg.sent_local_time)
                    for fn in self.ack_listeners:
                        fn(reply, renewal_time)
                    if reply.payload.get("__pending__"):
                        new_ticket = int(reply.payload["__ticket__"])
                        if new_ticket != ticket:
                            self._pending_results.pop(ticket, None)
                            ticket = new_ticket
                            result_ev = self._fresh_result_event(ticket)
                        continue
                    return reply  # re-execution answered directly
                # Poll timeout: a fresh initiation nudging the server (its
                # ACK renews the lease from this new send time).
                poll_msg = Message(msg.src, msg.dst, msg.kind,
                                   msg.payload, msg.seq)
                poll_msg.sent_local_time = self.local_now()
                attempt_times[poll_msg.msg_id] = poll_msg.sent_local_time
                attempt_ids.append(poll_msg.msg_id)
                pending[poll_msg.msg_id] = reply_ev
                self.net.transmit(poll_msg)
        finally:
            self._pending_results.pop(ticket, None)

    # -- receiving -----------------------------------------------------------
    def _on_datagram(self, msg: Message) -> None:
        kind = msg.kind
        if kind == _ACK or kind == _NACK:
            ev = self._pending.get(msg.reply_to or -1)
            if ev is not None and not ev._triggered:
                ev.succeed(msg)
            # Replies to forgotten/duplicate requests are dropped silently.
            return
        self._on_request(msg)

    def _on_request(self, msg: Message) -> None:
        if self._gatekeeper is not None:
            verdict = self._gatekeeper(msg)
            if verdict == "nack":
                # A gatekeeper NACK is the §3.3 lease signal ("your cache
                # is invalid; I will not renew you") — distinct from an
                # application-level error reply, which must NOT make the
                # client abandon its lease.
                self.send_datagram(Nack(self.name, msg.src, msg.msg_id,
                                        payload={"__lease_nack__": True}))
                return
            if verdict == "silent":
                return

        if msg.kind == MsgKind.RESULT:
            self._h_result(msg)
            return

        key = (msg.src, msg.seq)
        cached = self._executed.get(key)
        if cached is not None:
            state, decision, payload = cached
            if state == "pending":
                # Re-acknowledge pending (the first pending ACK may be lost).
                self.send_datagram(Ack(self.name, msg.src, msg.msg_id,
                                       payload=self._pending_payload(decision)))
                return
            self._reply(msg, decision or "ack", payload)
            return

        handler = self._handlers.get(msg.kind)
        if handler is None:
            self.send_datagram(Nack(self.name, msg.src, msg.msg_id,
                                    payload={"error": f"no handler for {msg.kind}"}))
            return

        result = handler(msg)
        if hasattr(result, "send") and hasattr(result, "throw"):
            # Deferred transaction: ACK receipt now, deliver the outcome
            # later as a reliable server-initiated RESULT message.
            ticket = msg.msg_id
            self._remember(key, ("pending", ticket, None))
            self.send_datagram(Ack(self.name, msg.src, msg.msg_id,
                                   payload=self._pending_payload(ticket)))
            self.sim.process(self._run_deferred(key, msg, ticket, result),
                             name=f"{self.name}:{msg.kind}#{msg.seq}")
        else:
            decision, payload = self._normalize(result)
            self._remember(key, ("done", decision, payload))
            self._reply(msg, decision, payload)

    def _h_result(self, msg: Message) -> None:
        """Inbound deferred-transaction outcome (endpoint-level handler)."""
        ticket = int(msg.payload["__ticket__"])
        outcome = (msg.payload.get("__decision__", "ack"),
                   dict(msg.payload.get("__payload__") or {}))
        ev = self._pending_results.get(ticket)
        if ev is not None:
            if not ev._triggered:
                ev.succeed(outcome)
        else:
            # Reordered ahead of the pending ACK; park it for _await_result.
            self._early_results[ticket] = outcome
            if len(self._early_results) > 256:
                self._early_results.pop(next(iter(self._early_results)))
        # Always acknowledge so the sender's retries stop; duplicates and
        # results for abandoned requests are acknowledged-and-dropped.
        self.send_datagram(Ack(self.name, msg.src, msg.msg_id))

    def _run_deferred(self, key: Tuple[str, int], msg: Message, ticket: int,
                      gen: Generator[Event, Any, Any]) -> Generator[Event, Any, None]:
        proc = self.sim.process(gen, name=f"{self.name}:handler:{msg.kind}")
        try:
            result = yield proc
            decision, payload = self._normalize(result)
        except Exception as exc:
            decision, payload = "nack", {"error": repr(exc)}
        self._executed[key] = ("done", decision, payload)
        # Reliable delivery of the outcome; a delivery failure here feeds
        # the authority's suspect machinery like any server-initiated
        # message (the requester may have partitioned while waiting).
        def send_result() -> Generator[Event, Any, None]:
            try:
                yield from self.request(msg.src, MsgKind.RESULT,
                                        {"__ticket__": ticket,
                                         "__decision__": decision,
                                         "__payload__": payload})
            except (DeliveryError, NackError):
                pass
        self.sim.process(send_result(), name=f"{self.name}:result#{ticket}")

    @staticmethod
    def _normalize(result: Any) -> HandlerResult:
        if result is None:
            return ("ack", {})
        if isinstance(result, tuple) and len(result) == 2:
            return (result[0], result[1] or {})
        raise TypeError(f"handler returned invalid decision {result!r}")

    def _pending_payload(self, ticket: Any) -> Dict[str, Any]:
        """Receipt-ACK payload for a deferred transaction, including any
        node-level stamp (servers carry ``__epoch__`` so the ACK that
        renews a parked client's lease also proves the incarnation)."""
        payload: Dict[str, Any] = {"__pending__": True, "__ticket__": ticket}
        if self.ack_stamp is not None:
            payload.update(self.ack_stamp())
        return payload

    def _reply(self, msg: Message, decision: str, payload: Optional[Dict[str, Any]]) -> None:
        if decision == "ack":
            self.send_datagram(Ack(self.name, msg.src, msg.msg_id, payload=payload))
        elif decision == "nack":
            self.send_datagram(Nack(self.name, msg.src, msg.msg_id, payload=payload))
        elif decision == "silent":
            pass
        else:
            raise ValueError(f"unknown handler decision {decision!r}")

    def _remember(self, key: Tuple[str, int],
                  entry: Tuple[str, Any, Any]) -> None:
        executed = self._executed
        if key not in executed:
            order = self._executed_order
            order.append(key)
            if len(order) > self._dedup_capacity:
                executed.pop(order.popleft(), None)
        executed[key] = entry
