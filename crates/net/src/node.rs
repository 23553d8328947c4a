//! One tree node as reactor-owned, crash-restartable state.
//!
//! ## Ownership model
//!
//! A node is plain data — [`NodeRt`] — owned by exactly one reactor
//! thread (see [`crate::reactor`]): the automaton instances, the
//! per-edge [`EdgeLink`]s (sequencing + retransmit buffer + the live
//! connection), the client connections, and the per-node [`MsgStats`].
//! There are no per-node threads, no inbox channel, and no locks: every
//! byte this node reads or writes moves through its owning reactor's
//! event loop, which calls the `on_*` handlers below when a socket is
//! ready and [`NodeRt::flush`] after every wakeup that touched the node
//! (an event, or a timer that fired).
//!
//! Inbound bytes land in per-connection [`FrameDecoder`]s, so a frame
//! split across arbitrarily many TCP segments (or a client that stalls
//! mid-frame) consumes buffer space, never a thread — the decoder picks
//! up where the last segment left off. Outbound frames are queued on
//! per-connection [`WriteQueue`]s and leave in vectored writes at the
//! loop's flush point.
//!
//! ## Automaton instances
//!
//! A node serves a forest of aggregation trees over one set of links:
//! one table maps each tree id to an [`Inst`] — a [`MechNode`] plus the
//! combines parked on it. Every tree goes through the same dispatch
//! arms, the same outbox and the same waiter path; the frame layer
//! alone decides how a tree id is encoded ([`EdgePayload`],
//! [`decode_request`]). Instance 0 exists from birth. The others are
//! created on the first frame that names their tree. Every instance's
//! last written value is durable (WAL-logged with the tree id); instance
//! 0 alone feeds the ghost log and the completion log (the sim-parity
//! records).
//!
//! ## The sequenced edge link
//!
//! The paper assumes reliable FIFO channels; a single TCP connection
//! provides that only while it lives. Every payload frame between
//! neighbours therefore carries a per-directed-edge sequence number
//! (`TAG_SEQ`), the receiver delivers exactly the next expected number
//! and discards everything else, and acknowledges cumulatively
//! (`TAG_ACK`) at flush boundaries. The sender keeps unacknowledged
//! frames in a retransmit buffer and re-sends them (go-back-N) on an
//! RTO tick or after a reconnect, resuming from the watermark the
//! peer's hello reported. Together: per-edge FIFO **exactly-once**
//! delivery that survives killed connections and injected
//! drop/duplicate faults.
//!
//! Exactly-once forbids dropping unacknowledged frames, so the
//! retransmit buffer is bounded by *backpressure* instead of eviction:
//! past [`RTX_DEFAULT_HIGH`] (configurable via `NetConfig`) the node
//! stops reading its **client** connections — the intake that generates
//! new work — until the buffer drains below the low watermark. The
//! client sockets leave the poller outright for the duration
//! ([`Conn::park`]): epoll reports a hangup whatever the interest mask,
//! so a client that left mid-stall would spin a merely masked socket.
//! Edge connections are never stalled: acks and peer traffic must keep
//! flowing or the stall could never clear. Stall entries are counted in
//! [`NodeMetrics::backpressure_stalls`].
//!
//! Injected faults never touch the quiescence or message-count books:
//! stats and the in-flight gauge are recorded once, when a frame is
//! first buffered; retransmits and duplicates are not re-counted, and a
//! discarded duplicate decrements nothing. A fault-free run and a
//! faulty-but-recovered run have identical logical message counts.
//!
//! ## Crash-restart supervision and durability grades
//!
//! An injected crash (or a caught panic — each dispatch runs under
//! `catch_unwind`) destroys every automaton instance: leases, cached
//! aggregates, waiters. What survives in [`NodeRt`] is the transport —
//! edge links with their sequence state and retransmit buffers, client
//! connections — and each instance's last written value, the one datum
//! per tree the paper makes durable. On restart the node rebuilds every
//! instance from its value, and the new run's first act is a sequenced
//! `RESET` on every edge; neighbours answer with the mechanism's
//! peer-reset transition on every instance and a revoke cascade tears
//! down every cached aggregate that included the crashed subtree; the
//! leases come back by probing. Clients re-drive lost requests via
//! timeout + retry.
//!
//! A process-grade kill (`kill9` in the fault grammar) destroys the
//! whole `NodeRt` — links, retransmit buffers, client connections, the
//! in-memory escrow itself. Recovery then runs through the node's
//! [`Durability`] backend: [`NodeRt::kill9_restart`] demolishes the
//! runtime state, replays the write-ahead log into fresh link
//! watermarks + retransmit buffers + per-tree values, bumps the
//! incarnation epoch, and broadcasts `RESET` exactly like an in-process
//! crash. The same replay path serves *cold start*: a node spawned over
//! an existing WAL directory rejoins with its history intact. With the
//! default `Memory` backend there is nothing to replay, so kill9
//! schedules are rejected at spawn.
//!
//! ## Quiescence accounting
//!
//! A cluster-wide counter ([`crate::reactor::InFlight`], an `AtomicI64`
//! plus a condvar notified at zero) counts undelivered work. Client requests
//! are counted at decode and settled when their dispatch ends. Edge
//! frames settle on *acknowledgement*: the sender increments when a
//! frame is assigned its sequence number and decrements once per frame
//! trimmed from the retransmit buffer (cumulative ack, reconnect-hello
//! watermark — each frame leaves exactly once). Outstanding edge debt
//! therefore always equals the total frames parked in retransmit
//! buffers, which is what makes kill9 accounting exact: demolishing a
//! node forgives its buffered frames, replaying the WAL re-charges the
//! recovered ones. Work spawned by a delivered frame is counted before
//! the ack that settles its parent can be flushed, so the counter never
//! dips to zero while logical work remains and `quiesce()` stays exact
//! under connection kills and process kills alike.

use std::collections::{HashMap, VecDeque};
use std::net::Shutdown;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use oat_core::agg::AggOp;
use oat_core::fault::{EdgeFaults, FaultAction, FaultPlan, InjectedFaults};
use oat_core::ghost::GhostReq;
use oat_core::mechanism::{CombineOutcome, MechNode, Outbox};
use oat_core::policy::PolicySpec;
use oat_core::request::ReqOp;
use oat_core::tree::{NodeId, Tree};
use oat_core::wire::{put_u32, put_u64, WireReader, WireValue};
use oat_poll::{Poller, POLLIN};
use oat_sim::stats::MsgStats;
use std::os::unix::io::AsRawFd;
use std::rc::Rc;

use crate::durability::{Durability, LinkState, WalState};
use crate::frame::{
    decode_batch, decode_request, encode_batch, EdgePayload, TAG_ACK, TAG_HELLO_CLIENT,
    TAG_HELLO_EDGE, TAG_PARTIAL, TAG_REQ_BATCH, TAG_REQ_METRICS, TAG_RESP_BATCH, TAG_RESP_COMBINE,
    TAG_RESP_METRICS, TAG_RESP_WRITE, TAG_SEQ, TAG_SUB,
};
use crate::metrics::NodeMetrics;
use crate::reactor::{Conn, InFlight, NodeSeed, Tok, WriteQueue};
use crate::transport::{Listener, NodeAddr, Stream};

/// Identifies one client connection to one node.
pub(crate) type ClientId = u64;

/// Retransmission-timer granularity: when unacknowledged frames exist,
/// the reactor wakes at this cadence and re-sends on edges whose ack
/// watermark made no progress since the previous tick.
pub(crate) const RTO: Duration = Duration::from_millis(30);

/// Reconnect backoff: first delay, doubled per failed attempt up to the
/// cap, with seeded jitter in `[0, delay)` added on top.
const RECONNECT_BASE_MS: u64 = 2;
const RECONNECT_CAP_MS: u64 = 200;

/// Default retransmit-buffer backpressure watermarks (frames per edge):
/// at the high mark the node parks its client intake, below the low
/// mark it resumes. Overridable per cluster via `NetConfig`.
pub(crate) const RTX_DEFAULT_HIGH: usize = 1 << 16;
pub(crate) const RTX_DEFAULT_LOW: usize = 1 << 12;

/// Work-queue gauge: messages decoded but not yet dispatched, plus the
/// high-water mark. With the reactor model decode and dispatch happen
/// in the same loop iteration, so `depth` returns to zero at every
/// flush boundary — `peak` records how deep one readiness event got.
///
/// Monitoring only; all operations are `Relaxed` (each counter is still
/// individually coherent, which is all the metrics report needs).
#[derive(Default)]
pub(crate) struct QueueGauge {
    depth: AtomicUsize,
    peak: AtomicUsize,
}

impl QueueGauge {
    pub(crate) fn on_enqueue(&self) {
        let now = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn on_dequeue(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, u64) {
        (
            self.depth.load(Ordering::Relaxed) as u64,
            self.peak.load(Ordering::Relaxed) as u64,
        )
    }
}

/// A node's final state, collected by `Cluster::shutdown`.
pub(crate) struct NodeReport<V> {
    /// Messages this node sent, per directed edge and kind.
    pub stats: MsgStats,
    /// `(node, value)` per combine answered here, local completion order.
    pub completions: Vec<(NodeId, V)>,
    /// Ghost write/combine log, when ghost tracking was enabled (final
    /// incarnation only — a crash discards the automaton's log).
    pub log: Option<Vec<GhostReq<V>>>,
    /// Network messages this node received and processed.
    pub delivered: u64,
    /// Combine waiters still parked at shutdown (possible when clients
    /// gave up under faults); they were dropped, not answered.
    pub abandoned: u64,
    /// Fault-recovery counters accumulated across all incarnations.
    pub faults: FaultCounters,
    /// Durability-backend counters (all zero for the Memory backend).
    pub wal: crate::durability::WalCounters,
}

/// Fault-recovery counters, accumulated across crash-restarts (and in
/// [`crate::ClusterReport`], summed over all nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Edge connections re-established after a failure.
    pub reconnects: u64,
    /// Sequenced frames re-sent (RTO expiry or post-reconnect replay).
    pub retransmits: u64,
    /// Retransmission-timer expirations that triggered a resend.
    pub timeouts: u64,
    /// Automaton restarts performed by the supervisor — in-process
    /// crash-restarts plus process-grade kill9 recoveries.
    pub restarts: u64,
    /// Process-grade kills recovered through the durability backend
    /// (always counted in `restarts` too).
    pub kill9s: u64,
}

/// Settles one *client* work item's in-flight debt exactly once, when
/// dropped at the end of its dispatch — also when the handler panicked
/// (the node restarts its automata, but a leaked increment would wedge
/// `quiesce()` forever), and only after the restart has charged its
/// `RESET` frames. Edge frames are not guarded here: their debt belongs
/// to the sender and settles when the frame leaves its retransmit
/// buffer.
struct InFlightGuard<'a>(&'a InFlight);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Cluster-shared context, borrowed by every handler. Immutable for the
/// cluster's lifetime.
pub(crate) struct Ctx<'a, S, A: AggOp> {
    pub tree: &'a Tree,
    pub addrs: &'a [NodeAddr],
    pub op: &'a A,
    pub spec: &'a S,
    pub ghost: bool,
    /// Cluster-wide undelivered-work counter.
    pub in_flight: &'a InFlight,
    /// Cluster-wide count of mechanism messages sent.
    pub total_sent: &'a AtomicU64,
    /// Cluster-wide ledger of injected fault events.
    pub ledger: &'a InjectedFaults,
    /// Retransmit-buffer backpressure watermarks.
    pub rtx_high: usize,
    pub rtx_low: usize,
    /// The owning reactor's poller; every [`Conn`] registers itself.
    pub poller: &'a Rc<Poller>,
}

/// Send + receive state of one edge: the sequenced link, its live
/// connection (if any), and the redial timer. Survives both reconnects
/// and automaton crashes — the sequence space of an edge is continuous
/// across both.
struct EdgeLink {
    peer: NodeId,
    /// The live connection; `None` while down.
    conn: Option<Conn>,
    /// A dial in progress: connected, hello sent, awaiting the reply.
    pending_dial: Option<Conn>,
    /// When to attempt the next dial (dialer side, edge down).
    redial_at: Option<Instant>,
    backoff_ms: u64,
    /// splitmix64 state for reconnect jitter, seeded per directed edge.
    jitter_state: u64,
    /// Last sequence number assigned to an outgoing frame.
    tx_seq: u64,
    /// Highest sequence number the peer has acknowledged.
    acked: u64,
    /// `acked` as of the previous RTO tick (progress detection).
    acked_at_tick: u64,
    /// Unacknowledged frames: `(seq, inner tag, body, last transmit)`.
    /// The timestamp distinguishes a stalled peer from a frame sent just
    /// before an RTO tick — only frames at least one RTO old are
    /// eligible for go-back-N.
    rtx: VecDeque<(u64, u8, Vec<u8>, Instant)>,
    /// Highest in-order sequence number received from the peer.
    rx_seq: u64,
    /// Highest rx watermark we have acked back to the peer.
    rx_acked: u64,
    /// Re-send the cumulative ack at the next flush even though
    /// `rx_seq` did not advance: the peer retransmitted frames we
    /// already delivered, so our previous ack was evidently lost.
    reack: bool,
    /// Frames the sequencer discarded: duplicates, out-of-window
    /// futures (go-back-N re-delivers them in order), undecodables.
    dup_drops: u64,
    /// True when this endpoint owns redialing (lower id dials higher).
    dialer: bool,
    /// The edge was up at least once (distinguishes reconnects).
    ever_up: bool,
    /// Seeded fault-decision stream for this directed edge.
    faults: Option<EdgeFaults>,
}

impl EdgeLink {
    fn next_jitter(&mut self, bound: u64) -> u64 {
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound.max(1)
    }

    /// Arms the next dial attempt after a failed one: the current
    /// backoff plus seeded jitter, then doubles the backoff up to the cap.
    fn schedule_redial(&mut self) {
        let backoff = self.backoff_ms;
        let jitter = self.next_jitter(backoff);
        self.redial_at = Some(Instant::now() + Duration::from_millis(backoff + jitter));
        self.backoff_ms = (backoff * 2).min(RECONNECT_CAP_MS);
    }
}

/// One unit of decoded work, dispatched in decode order.
enum Work<V> {
    /// A sequenced frame from neighbour `from`: a mechanism message, a
    /// peer reset or a revoke — counted in the in-flight gauge by the
    /// *sender* before the bytes were buffered.
    Peer {
        from: NodeId,
        payload: EdgePayload<V>,
    },
    /// A combine or write request — counted in flight at decode.
    Client {
        conn: ClientId,
        req_id: u64,
        tree: u32,
        op: ReqOp<V>,
    },
    /// A continuous-query subscription (`TAG_SUB`) — counted in flight
    /// at decode (registering triggers a refresh combine).
    Sub {
        conn: ClientId,
        sub_id: u64,
        tree: u32,
    },
    /// A metrics request — not counted (it sends no mechanism messages).
    Metrics { conn: ClientId, req_id: u64 },
}

/// Accumulates responses for in-progress request batches.
///
/// A `TAG_REQ_BATCH` frame's members dispatch as ordinary
/// [`Work::Client`] items, so their responses arrive one at a time —
/// possibly much later (a parked combine), possibly after a crash
/// forced the client to re-drive members individually. The book routes
/// each `(client, req id)` response into its batch accumulator; at
/// every flush boundary the node *streams* whatever the accumulator
/// gathered as a `TAG_RESP_BATCH` frame, so completed members leave
/// immediately instead of waiting behind the roster's slowest member
/// (one request batch may be answered by several response frames whose
/// items concatenate to the full roster). A member is struck from the
/// index at its *first* response: an idempotent retry answered a
/// second time falls through to the direct path, where the client
/// discards unknown ids — never a duplicate item in a batch frame.
#[derive(Default)]
struct BatchBook {
    /// `(client, req id)` → batch key, while the member's answer is due.
    member: HashMap<(ClientId, u64), u64>,
    /// `(client, batch key)` → responses gathered since the last flush.
    accs: HashMap<(ClientId, u64), BatchAcc>,
    next_key: u64,
}

struct BatchAcc {
    /// Members that have not answered yet; the accumulator retires when
    /// this reaches zero *and* the gathered items have been streamed.
    remaining: usize,
    /// Responses gathered since the last flush-boundary emission.
    items: Vec<(u8, Vec<u8>)>,
}

impl BatchBook {
    /// Forgets everything owed to a departed client.
    fn purge(&mut self, cid: ClientId) {
        self.member.retain(|&(c, _), _| c != cid);
        self.accs.retain(|&(c, _), _| c != cid);
    }
}

/// The automaton instance serving one tree at this node, in the node's
/// one instance table. Instance 0 exists from birth; every other
/// instance is created on the first frame that names its tree. Either
/// way its last written value — `mech.val()`, set by nothing but a
/// write — is durable: logged before the write is acked, and restored
/// into the fresh instance by every restart.
struct Inst<N: oat_core::policy::NodePolicy, A: AggOp> {
    mech: MechNode<N, A>,
    /// Parked combine requests, answered at the next completion.
    waiters: Vec<(ClientId, u64)>,
}

/// One continuous-query subscription: a client that asked to be pushed
/// `TAG_PARTIAL` refinements for a tree served at this node.
struct Sub {
    conn: ClientId,
    id: u64,
    /// The subscriber has been sent at least one partial (a fresh
    /// subscriber is primed with the current value even when it equals
    /// the last pushed one).
    primed: bool,
}

/// Per-tree subscription state. Lives *outside* the automaton
/// instances: subscriptions are transport-level state like client
/// connections, so an automaton crash-restart must not silently end a
/// continuous query (a kill9 severs the client sockets, which drops
/// the subscriptions with them — subscribers re-subscribe on
/// reconnect, exactly like they re-drive requests).
struct TreeSubs<V> {
    subs: Vec<Sub>,
    /// Monotone per-tree refinement counter stamped on pushed partials.
    push_seq: u64,
    /// Last pushed value: a refresh that reproduces it is not a
    /// refinement and is pushed only to unprimed subscribers.
    last_push: Option<V>,
}

impl<V> Default for TreeSubs<V> {
    fn default() -> Self {
        TreeSubs {
            subs: Vec::new(),
            push_seq: 0,
            last_push: None,
        }
    }
}

/// One tree node: automaton + transport, owned by a reactor thread.
pub(crate) struct NodeRt<S: PolicySpec, A: AggOp> {
    id: NodeId,
    /// This node's index in its reactor's shard: the node half of every
    /// [`Tok`] its sockets are registered under.
    slot: usize,
    listener: Listener,
    links: Vec<EdgeLink>,
    /// Accepted connections that have not yet sent their hello.
    pending: HashMap<u64, Conn>,
    next_pending: u64,
    clients: HashMap<ClientId, Conn>,
    next_client: ClientId,
    /// In-progress request batches awaiting their combined response.
    book: BatchBook,
    /// The automaton instance of every tree this node has seen, keyed
    /// by tree id; instance 0 is always present.
    insts: HashMap<u32, Inst<S::Node, A>>,
    /// Continuous-query subscriptions, keyed by tree id.
    tree_subs: HashMap<u32, TreeSubs<A::Value>>,
    stats: MsgStats,
    completions: Vec<(NodeId, A::Value)>,
    delivered: u64,
    /// The durability backend: in-memory (no-op) or write-ahead log.
    backend: Box<dyn Durability>,
    /// Cached `backend.active()` — gates every logging hook so the
    /// Memory backend costs nothing on the hot path.
    durable: bool,
    /// Incarnation epoch: bumped on every restart (crash or kill9) and
    /// persisted through the backend so a recovered incarnation never
    /// reuses an epoch its predecessor already burned.
    epoch: u64,
    /// Injected crash trigger: crash after this many delivered messages
    /// (cumulative across restarts). Consumed when it fires.
    crash_at: Option<u64>,
    /// Injected process-kill trigger, same schedule semantics.
    kill9_at: Option<u64>,
    /// A kill9 fired during dispatch; the reactor demolishes and
    /// recovers the node at the next safe point (between dispatches).
    kill9_pending: bool,
    counters: FaultCounters,
    /// Times the node entered a client-intake stall (see module docs).
    backpressure_stalls: u64,
    stalled: bool,
    /// Edges currently up (for the ready signal).
    connected: usize,
    ready_sent: bool,
    ready_tx: Sender<()>,
    abandoned: u64,
    gauge: QueueGauge,
    /// Neighbour indices whose connection failed mid-handler; settled
    /// (marked down) at the next `settle_downed`.
    downed: Vec<usize>,
}

impl<S, A> NodeRt<S, A>
where
    S: PolicySpec,
    S::Node: 'static,
    A: AggOp,
    A::Value: WireValue,
{
    pub(crate) fn new(
        slot: usize,
        seed: NodeSeed,
        ctx: &Ctx<'_, S, A>,
        plan: &FaultPlan,
        ready_tx: Sender<()>,
    ) -> NodeRt<S, A> {
        let NodeSeed {
            id,
            listener,
            backend,
        } = seed;
        // The listener stays registered for the reactor's lifetime (a
        // kill9 leaves it open: the "new process" inherits the address).
        ctx.poller
            .add(listener.as_raw_fd(), Tok::Listener(slot).pack(), POLLIN)
            .expect("register listener");
        let now = Instant::now();
        let links: Vec<EdgeLink> = ctx
            .tree
            .nbrs(id)
            .iter()
            .map(|&v| {
                let dialer = id.0 < v.0;
                EdgeLink {
                    peer: v,
                    conn: None,
                    pending_dial: None,
                    // Dialers attempt immediately at the first timer pass.
                    redial_at: dialer.then_some(now),
                    backoff_ms: RECONNECT_BASE_MS,
                    jitter_state: plan.jitter_seed(id, v),
                    tx_seq: 0,
                    acked: 0,
                    acked_at_tick: 0,
                    rtx: VecDeque::new(),
                    rx_seq: 0,
                    rx_acked: 0,
                    reack: false,
                    dup_drops: 0,
                    dialer,
                    ever_up: false,
                    faults: (!plan.is_empty()).then(|| plan.edge_stream(id, v)),
                }
            })
            .collect();
        let ready_sent = links.is_empty();
        if ready_sent {
            let _ = ready_tx.send(());
        }
        let durable = backend.active();
        let mut node = NodeRt {
            id,
            slot,
            listener,
            links,
            pending: HashMap::new(),
            next_pending: 0,
            clients: HashMap::new(),
            next_client: 0,
            book: BatchBook::default(),
            insts: HashMap::from([(0, Self::new_inst(ctx, id, 0, 0))]),
            tree_subs: HashMap::new(),
            stats: MsgStats::new(ctx.tree),
            completions: Vec::new(),
            delivered: 0,
            backend,
            durable,
            epoch: 0,
            crash_at: plan.crash_after(id),
            kill9_at: plan.kill9_after(id),
            kill9_pending: false,
            counters: FaultCounters::default(),
            backpressure_stalls: 0,
            stalled: false,
            connected: 0,
            ready_sent,
            ready_tx,
            abandoned: 0,
            gauge: QueueGauge::default(),
            downed: Vec::new(),
        };
        // Cold start: a durable backend with history means this node is
        // a new incarnation of a previous process — replay the WAL and
        // rejoin with watermarks, retransmit buffers, and value intact.
        if durable {
            if let Some(state) = node.backend.recover() {
                node.restore_from(state, ctx);
            }
        }
        node
    }

    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// True when an RTO tick could re-send something: an up edge holds
    /// unacknowledged frames.
    pub(crate) fn wants_rto_tick(&self) -> bool {
        self.links
            .iter()
            .any(|l| l.conn.is_some() && !l.rtx.is_empty())
    }

    /// Earliest pending redial timer, if any.
    pub(crate) fn next_redial(&self) -> Option<Instant> {
        self.links.iter().filter_map(|l| l.redial_at).min()
    }

    /// Accepts everything the listener has ready; connections park in
    /// `pending` until their hello classifies them.
    pub(crate) fn on_accept_ready(&mut self, ctx: &Ctx<'_, S, A>) {
        loop {
            match self.listener.accept() {
                Ok(stream) => {
                    let tok = Tok::Pending(self.slot, self.next_pending);
                    if let Ok(conn) = Conn::new(stream, ctx.poller, tok) {
                        self.pending.insert(self.next_pending, conn);
                        self.next_pending += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// A pre-hello connection became readable: classify it by its first
    /// frame. Anything other than a well-formed hello is a stranger
    /// speaking the wrong protocol — dropped, never fatal.
    pub(crate) fn on_pending_ready(&mut self, pid: u64, ctx: &Ctx<'_, S, A>, scratch: &mut [u8]) {
        let Some(conn) = self.pending.get_mut(&pid) else {
            return;
        };
        let closed = conn.read_ready(scratch);
        match conn.dec.try_frame() {
            Ok(Some((TAG_HELLO_EDGE, payload))) => {
                let conn = self.pending.remove(&pid).expect("present above");
                let mut r = WireReader::new(&payload);
                let parsed = r.u32("hello node id").and_then(|id| {
                    Ok((
                        NodeId(id),
                        r.u64("hello rx watermark")?,
                        r.u64("hello ack watermark")?,
                    ))
                });
                if let Ok((peer, peer_rx, peer_acked)) = parsed {
                    if let Some(wi) = self.install_edge(peer, conn, peer_rx, peer_acked, true, ctx)
                    {
                        // The dialer may have pipelined nothing (it waits
                        // for our reply), but a *reconnecting* peer's
                        // replay can already sit behind the hello.
                        self.drain_edge(wi, ctx);
                    }
                }
            }
            Ok(Some((TAG_HELLO_CLIENT, _))) => {
                let mut conn = self.pending.remove(&pid).expect("present above");
                let cid = self.next_client;
                if conn.retoken(Tok::Client(self.slot, cid)).is_err() {
                    return;
                }
                self.next_client += 1;
                self.clients.insert(cid, conn);
                // Clients may pipeline requests behind the hello in one
                // segment; serve whatever already decoded.
                self.on_client_ready(cid, ctx, &mut []);
            }
            Ok(Some(_)) | Err(_) => {
                self.pending.remove(&pid);
            }
            Ok(None) => {
                if closed {
                    self.pending.remove(&pid);
                }
            }
        }
    }

    /// A dial-in-progress connection became readable: expect the hello
    /// reply carrying the peer's receive watermark, then promote it to
    /// the live edge connection.
    pub(crate) fn on_dial_ready(&mut self, wi: usize, ctx: &Ctx<'_, S, A>, scratch: &mut [u8]) {
        let link = &mut self.links[wi];
        let Some(conn) = link.pending_dial.as_mut() else {
            return;
        };
        let closed = conn.read_ready(scratch);
        match conn.dec.try_frame() {
            Ok(Some((TAG_HELLO_EDGE, payload))) => {
                let peer = link.peer;
                let conn = link.pending_dial.take().expect("present above");
                let mut r = WireReader::new(&payload);
                let parsed = r
                    .u32("hello reply id")
                    .and_then(|id| Ok((id, r.u64("hello reply rx")?, r.u64("hello reply acked")?)));
                match parsed {
                    Ok((id, peer_rx, peer_acked)) if id == peer.0 => {
                        if let Some(wi) =
                            self.install_edge(peer, conn, peer_rx, peer_acked, false, ctx)
                        {
                            // The peer's replay may ride the same segment
                            // as its hello reply; deliver it now.
                            self.drain_edge(wi, ctx);
                        }
                    }
                    _ => self.links[wi].schedule_redial(),
                }
            }
            Ok(Some(_)) | Err(_) => {
                self.links[wi].pending_dial = None;
                self.links[wi].schedule_redial();
            }
            Ok(None) => {
                if closed {
                    self.links[wi].pending_dial = None;
                    self.links[wi].schedule_redial();
                }
            }
        }
    }

    /// A live edge connection became readable.
    pub(crate) fn on_edge_ready(&mut self, wi: usize, ctx: &Ctx<'_, S, A>, scratch: &mut [u8]) {
        let Some(conn) = self.links[wi].conn.as_mut() else {
            return;
        };
        let closed = conn.read_ready(scratch);
        // Frames decoded before EOF/corruption are valid: drain first.
        let ok = self.drain_edge(wi, ctx);
        if closed || !ok {
            self.downed.push(wi);
            self.settle_downed();
        }
    }

    /// Decodes and dispatches everything buffered on edge `wi`'s live
    /// connection. Returns `false` when the stream is corrupt (bad
    /// frame length) and must be torn down.
    fn drain_edge(&mut self, wi: usize, ctx: &Ctx<'_, S, A>) -> bool {
        let mut work: Vec<Work<A::Value>> = Vec::new();
        let mut ok = true;
        let rx_before = self.links[wi].rx_seq;
        let acked_before = self.links[wi].acked;
        {
            let link = &mut self.links[wi];
            let Some(conn) = link.conn.as_mut() else {
                return true;
            };
            loop {
                match conn.dec.try_frame() {
                    Ok(None) => break,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                    Ok(Some((TAG_SEQ, payload))) => {
                        if payload.len() < 9 {
                            link.dup_drops += 1;
                            continue;
                        }
                        let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                        let inner = payload[8];
                        let body = &payload[9..];
                        if seq != link.rx_seq + 1 {
                            // A duplicate (below the window) or a future
                            // frame (something below it was lost — go-
                            // back-N re-delivers in order). Discard; the
                            // sender settles the logical frame's in-
                            // flight debt when it is acked, so copies
                            // are free.
                            link.dup_drops += 1;
                            if seq <= link.rx_seq {
                                // Already-delivered frames coming back
                                // mean the peer never saw our cumulative
                                // ack; repeat it even though rx_seq is
                                // not advancing.
                                link.reack = true;
                            }
                            continue;
                        }
                        link.rx_seq = seq;
                        oat_obs::trace_event!(
                            oat_obs::EventKind::FrameRx,
                            self.id.0,
                            link.peer.0,
                            (seq << 8) | u64::from(inner)
                        );
                        match EdgePayload::decode(inner, body) {
                            Some(payload) => {
                                self.gauge.on_enqueue();
                                work.push(Work::Peer {
                                    from: link.peer,
                                    payload,
                                });
                            }
                            // Undecodable payload: degrade, do not panic.
                            // The cumulative ack below settles the
                            // sender's account like any delivered frame.
                            None => link.dup_drops += 1,
                        }
                    }
                    Ok(Some((TAG_ACK, payload))) => {
                        let mut r = WireReader::new(&payload);
                        if let Ok(upto) = r.u64("ack watermark") {
                            if upto > link.acked {
                                link.acked = upto;
                            }
                            // Each trimmed frame settles its in-flight
                            // debt — the one and only settle for an edge
                            // frame (trims are the only rtx removals).
                            let mut settled = 0;
                            while link.rtx.front().is_some_and(|(s, ..)| *s <= link.acked) {
                                link.rtx.pop_front();
                                settled += 1;
                            }
                            if settled > 0 {
                                ctx.in_flight.sub(settled);
                            }
                        } else {
                            link.dup_drops += 1;
                        }
                    }
                    // Unknown frame on an authenticated edge: count, skip.
                    Ok(Some(_)) => {
                        link.dup_drops += 1;
                    }
                }
            }
        }
        if self.durable {
            // One watermark record per drain, not per frame: the WAL
            // needs the high-water marks, not the arrival history. Rx is
            // logged before dispatch so the delivered frames' own log
            // records (sends they trigger) sort after their cause.
            let link = &self.links[wi];
            if link.rx_seq > rx_before {
                self.backend.log_rx(link.peer.0, link.rx_seq);
            }
            if link.acked > acked_before {
                self.backend.log_ack(link.peer.0, link.acked);
            }
        }
        for w in work {
            self.dispatch(w, ctx);
        }
        ok
    }

    /// A client connection became readable. Pass an empty scratch to
    /// serve only already-buffered frames (hello promotion path).
    pub(crate) fn on_client_ready(
        &mut self,
        cid: ClientId,
        ctx: &Ctx<'_, S, A>,
        scratch: &mut [u8],
    ) {
        let Some(conn) = self.clients.get_mut(&cid) else {
            return;
        };
        let closed = !scratch.is_empty() && conn.read_ready(scratch);
        let keep = self.drain_client(cid, ctx);
        if closed || !keep {
            // Reaching EOF after a full drain means every request was
            // served (per-connection bytes are FIFO); stream gathered
            // batch responses and flush queued frames best-effort, then
            // retire the connection.
            self.stream_batches();
            if let Some(mut conn) = self.clients.remove(&cid) {
                let _ = conn.flush();
            }
            self.book.purge(cid);
            self.purge_subs(cid);
        }
    }

    /// Drops every subscription held by a departed client. The per-tree
    /// refinement counter survives — a reconnecting subscriber resumes
    /// on a monotone seq.
    fn purge_subs(&mut self, cid: ClientId) {
        for ts in self.tree_subs.values_mut() {
            ts.subs.retain(|s| s.conn != cid);
        }
    }

    /// Emits every non-empty batch accumulator as a `TAG_RESP_BATCH`
    /// frame and retires accumulators whose roster is exhausted. Runs at
    /// each flush boundary, so members completed during this loop
    /// iteration leave now — one request batch streams out as several
    /// response frames whose items concatenate to the full roster.
    fn stream_batches(&mut self) {
        if self.book.accs.is_empty() {
            return;
        }
        let clients = &mut self.clients;
        self.book.accs.retain(|&(cid, _), acc| {
            if !acc.items.is_empty() {
                let frame = encode_batch(&acc.items);
                acc.items.clear();
                if let Some(c) = clients.get_mut(&cid) {
                    c.out.frame(TAG_RESP_BATCH, &frame);
                }
            }
            acc.remaining > 0
        });
    }

    /// Decodes and dispatches everything buffered on client `cid`.
    /// Returns `false` on a protocol violation (drop the connection —
    /// clients are untrusted; requests already decoded still complete).
    fn drain_client(&mut self, cid: ClientId, ctx: &Ctx<'_, S, A>) -> bool {
        let mut work: Vec<Work<A::Value>> = Vec::new();
        let mut keep = true;
        {
            let Some(conn) = self.clients.get_mut(&cid) else {
                return false;
            };
            // A combine or write, counted in flight at decode.
            let admit = |req_id: u64, tree: u32, op: ReqOp<A::Value>| {
                ctx.in_flight.add(1);
                self.gauge.on_enqueue();
                oat_obs::trace_event!(oat_obs::EventKind::ReqRecv, self.id.0, cid as u32, req_id);
                Work::Client {
                    conn: cid,
                    req_id,
                    tree,
                    op,
                }
            };
            loop {
                match conn.dec.try_frame() {
                    Ok(None) => break,
                    Err(_) => {
                        keep = false;
                        break;
                    }
                    Ok(Some((TAG_SUB, payload))) => {
                        let mut r = WireReader::new(&payload);
                        let parsed = r.u64("sub id").and_then(|id| {
                            let tree = r.u32("sub tree id")?;
                            r.finish("sub trailing bytes")?;
                            Ok((id, tree))
                        });
                        let Ok((sub_id, tree)) = parsed else {
                            keep = false;
                            break;
                        };
                        // Counted like a client request: registering
                        // triggers a refresh combine whose messages must
                        // be charged before this item settles.
                        ctx.in_flight.add(1);
                        self.gauge.on_enqueue();
                        work.push(Work::Sub {
                            conn: cid,
                            sub_id,
                            tree,
                        });
                    }
                    Ok(Some((TAG_REQ_METRICS, payload))) => {
                        let mut r = WireReader::new(&payload);
                        let Ok(req_id) = r.u64("metrics req id") else {
                            keep = false;
                            break;
                        };
                        self.gauge.on_enqueue();
                        work.push(Work::Metrics { conn: cid, req_id });
                    }
                    Ok(Some((TAG_REQ_BATCH, payload))) => {
                        // All-or-nothing: every item must parse as a
                        // combine or write with a unique req id before
                        // anything is admitted, so a malformed batch
                        // can't half-execute.
                        let parsed = decode_batch(&payload).ok().and_then(|items| {
                            items
                                .iter()
                                .map(|(tag, p)| decode_request::<A::Value>(*tag, p).ok())
                                .collect::<Option<Vec<_>>>()
                        });
                        let Some(parsed) = parsed.filter(|reqs| {
                            let mut ids: Vec<u64> = reqs.iter().map(|(id, ..)| *id).collect();
                            ids.sort_unstable();
                            ids.dedup();
                            !ids.is_empty() && ids.len() == reqs.len()
                        }) else {
                            keep = false;
                            break;
                        };
                        let key = self.book.next_key;
                        self.book.next_key += 1;
                        self.book.accs.insert(
                            (cid, key),
                            BatchAcc {
                                remaining: parsed.len(),
                                items: Vec::with_capacity(parsed.len()),
                            },
                        );
                        for (req_id, tree, op) in parsed {
                            self.book.member.insert((cid, req_id), key);
                            work.push(admit(req_id, tree, op));
                        }
                    }
                    Ok(Some((tag, payload))) => match decode_request(tag, &payload) {
                        Ok((req_id, tree, op)) => work.push(admit(req_id, tree, op)),
                        Err(_) => {
                            keep = false;
                            break;
                        }
                    },
                }
            }
        }
        for w in work {
            self.dispatch(w, ctx);
        }
        keep
    }

    /// Runs one work item through the automata. Handler panics are
    /// caught and converted into a crash-restart; a client item's
    /// in-flight debt settles either way, after the restart.
    fn dispatch(&mut self, work: Work<A::Value>, ctx: &Ctx<'_, S, A>) {
        self.gauge.on_dequeue();
        let _done = matches!(work, Work::Client { .. } | Work::Sub { .. })
            .then(|| InFlightGuard(ctx.in_flight));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle(work, ctx)));
        if run.is_err() {
            self.crash_restart(ctx);
        }
        self.settle_downed();
    }

    /// The body of [`NodeRt::dispatch`]: one arm per kind of input, the
    /// same for every tree.
    fn handle(&mut self, work: Work<A::Value>, ctx: &Ctx<'_, S, A>) {
        match work {
            Work::Peer {
                from,
                payload: EdgePayload::Net { tree, msg },
            } => {
                self.delivered += 1;
                let mut out = Vec::new();
                let done = self
                    .inst(tree, ctx)
                    .mech
                    .handle_message(from, msg, &mut out);
                self.send_outbox(tree, out, ctx);
                match done {
                    Some(v) => {
                        self.answer_waiters(tree, &v);
                        self.push_partial(tree, &v);
                    }
                    // Propagated updates/invalidates refresh any
                    // subscribers served at this node.
                    None => self.refresh_tree(tree, ctx),
                }
                // Injected-fault triggers count delivered messages,
                // whatever tree carried them.
                if self.crash_at == Some(self.delivered) {
                    // Injected crash, at a clean point: the message is
                    // fully processed and accounted. Fires once.
                    self.crash_at = None;
                    ctx.ledger.crashes.fetch_add(1, Ordering::Relaxed);
                    self.crash_restart(ctx);
                } else if self.kill9_at == Some(self.delivered) {
                    // Injected process kill. Unlike a crash this cannot
                    // run inline — it demolishes the very state the
                    // enclosing drain loop is iterating — so it is
                    // flagged and the reactor performs the teardown
                    // between dispatch passes.
                    self.kill9_at = None;
                    self.kill9_pending = true;
                }
            }
            Work::Peer {
                from,
                payload: EdgePayload::Reset,
            } => {
                // The peer restarted and took every instance it hosted
                // with it: run the mechanism's peer-reset transition on
                // each of ours, tree 0 first (re-probes land in the
                // outbox), and start the revoke cascade toward unsound
                // grants.
                let mut trees: Vec<u32> = self.insts.keys().copied().collect();
                trees.sort_unstable();
                for tree in trees {
                    let mut out = Vec::new();
                    let revokes = self.inst(tree, ctx).mech.handle_peer_reset(from, &mut out);
                    self.send_outbox(tree, out, ctx);
                    self.send_revokes(tree, revokes, ctx);
                    self.refresh_tree(tree, ctx);
                }
            }
            Work::Peer {
                from,
                payload: EdgePayload::Revoke { tree },
            } => {
                // A revoke for a tree this node never instantiated has
                // nothing to tear down (and must not instantiate one).
                let Some(inst) = self.insts.get_mut(&tree) else {
                    return;
                };
                let mut out = Vec::new();
                let next_hops = inst.mech.handle_revoke(from, &mut out);
                self.send_outbox(tree, out, ctx);
                self.send_revokes(tree, next_hops, ctx);
                self.refresh_tree(tree, ctx);
            }
            Work::Client {
                conn,
                req_id,
                tree,
                op,
            } => {
                let t0 = oat_obs::now_ns();
                let mut out = Vec::new();
                match op {
                    ReqOp::Write(arg) => {
                        if self.durable {
                            // Logged (and fsynced — write records force a
                            // sync) before the ack below can flush: an
                            // acknowledged write survives any kill.
                            let mut bytes = Vec::with_capacity(16);
                            arg.encode(&mut bytes);
                            self.backend.log_write(tree, &bytes);
                        }
                        self.inst(tree, ctx).mech.handle_write(arg, &mut out);
                        self.send_outbox(tree, out, ctx);
                        respond(
                            &mut self.clients,
                            &mut self.book,
                            conn,
                            TAG_RESP_WRITE,
                            &req_id.to_le_bytes(),
                        );
                        oat_obs::trace_event!(
                            oat_obs::EventKind::RespTx,
                            self.id.0,
                            conn as u32,
                            req_id
                        );
                        self.refresh_tree(tree, ctx);
                    }
                    ReqOp::Combine => {
                        let inst = self.inst(tree, ctx);
                        let outcome = inst.mech.handle_combine(&mut out);
                        // A retried request must not park a second
                        // waiter (one response per (conn, req-id)).
                        if !matches!(outcome, CombineOutcome::Done(_))
                            && !inst.waiters.contains(&(conn, req_id))
                        {
                            inst.waiters.push((conn, req_id));
                        }
                        self.send_outbox(tree, out, ctx);
                        match outcome {
                            CombineOutcome::Done(v) => {
                                self.answer(tree, conn, req_id, &v);
                                self.push_partial(tree, &v);
                            }
                            CombineOutcome::Pending | CombineOutcome::Coalesced => {
                                self.refresh_tree(tree, ctx)
                            }
                        }
                    }
                }
                oat_obs::trace_span!(
                    oat_obs::EventKind::ReqServe,
                    t0,
                    self.id.0,
                    conn as u32,
                    req_id
                );
            }
            Work::Sub { conn, sub_id, tree } => {
                let subs = self.tree_subs.entry(tree).or_default();
                // Idempotent per (conn, sub id): a retried subscribe
                // must not register twice.
                if !subs.subs.iter().any(|s| s.conn == conn && s.id == sub_id) {
                    subs.subs.push(Sub {
                        conn,
                        id: sub_id,
                        primed: false,
                    });
                }
                oat_obs::trace_event!(oat_obs::EventKind::SubStart, self.id.0, conn as u32, sub_id);
                // Prime the subscriber with the current value right away
                // rather than waiting for the next write to touch the
                // tree.
                self.refresh_tree(tree, ctx);
            }
            Work::Metrics { conn, req_id } => {
                let metrics = self.snapshot_metrics(ctx);
                let mut payload = Vec::with_capacity(64);
                put_u64(&mut payload, req_id);
                metrics.encode(&mut payload);
                respond(
                    &mut self.clients,
                    &mut self.book,
                    conn,
                    TAG_RESP_METRICS,
                    &payload,
                );
            }
        }
    }

    /// The instance serving `tree`, created on first touch.
    fn inst(&mut self, tree: u32, ctx: &Ctx<'_, S, A>) -> &mut Inst<S::Node, A> {
        let (id, epoch) = (self.id, self.epoch);
        self.insts
            .entry(tree)
            .or_insert_with(|| Self::new_inst(ctx, id, epoch, tree))
    }

    /// A fresh automaton instance for `tree` at incarnation `epoch`: the
    /// one constructor, used at birth, on first touch and by
    /// [`NodeRt::reincarnate`]. Only instance 0 keeps a ghost log.
    fn new_inst(ctx: &Ctx<'_, S, A>, id: NodeId, epoch: u64, tree: u32) -> Inst<S::Node, A> {
        let mut mech = MechNode::new(
            ctx.tree,
            id,
            ctx.op.clone(),
            ctx.spec.build(ctx.tree.degree(id)),
            ctx.ghost && tree == 0,
        );
        mech.set_epoch(epoch);
        Inst {
            mech,
            waiters: Vec::new(),
        }
    }

    /// Buffers a handler's outbox for `tree` onto the sequenced links,
    /// recording stats and in-flight accounting per frame.
    fn send_outbox(&mut self, tree: u32, out: Outbox<A::Value>, ctx: &Ctx<'_, S, A>) {
        for (to, msg) in out {
            self.stats
                .record(ctx.tree.dir_edge_index(self.id, to), msg.kind());
            // Relaxed is sufficient: every read that must observe
            // `total_sent` happens after `quiesce()` saw `in_flight == 0`,
            // and the SeqCst decrement concluding each handler is
            // sequenced after this increment in the same thread.
            ctx.total_sent.fetch_add(1, Ordering::Relaxed);
            self.send_edge(self.nbr_index(to), EdgePayload::Net { tree, msg }, ctx);
        }
    }

    /// Queues a revoke for `tree` toward each of `to`.
    fn send_revokes(&mut self, tree: u32, to: Vec<NodeId>, ctx: &Ctx<'_, S, A>) {
        for t in to {
            self.send_edge(self.nbr_index(t), EdgePayload::Revoke { tree }, ctx);
        }
    }

    /// Encodes `payload` and sends it on edge `wi`'s sequenced link.
    fn send_edge(&mut self, wi: usize, payload: EdgePayload<A::Value>, ctx: &Ctx<'_, S, A>) {
        let mut body = Vec::with_capacity(36);
        let inner = payload.encode(&mut body);
        if send_seq(
            self.id,
            &mut self.links[wi],
            &mut *self.backend,
            inner,
            body,
            ctx,
        ) {
            self.downed.push(wi);
        }
    }

    /// Index of neighbour `v` in `links`, which follow `Tree::nbrs`
    /// order — ascending, like every instance's neighbour table.
    fn nbr_index(&self, v: NodeId) -> usize {
        self.links
            .binary_search_by_key(&v, |l| l.peer)
            .unwrap_or_else(|_| panic!("{v} is not a neighbour of {}", self.id))
    }

    /// Answers every combine parked on `tree`'s instance with `v`.
    fn answer_waiters(&mut self, tree: u32, v: &A::Value) {
        let Some(inst) = self.insts.get_mut(&tree) else {
            return;
        };
        for (conn, req_id) in std::mem::take(&mut inst.waiters) {
            self.answer(tree, conn, req_id, v);
        }
    }

    /// Sends the combine response `v` for request `req_id` of `conn`.
    fn answer(&mut self, tree: u32, conn: ClientId, req_id: u64, v: &A::Value) {
        let mut payload = Vec::with_capacity(16);
        put_u64(&mut payload, req_id);
        v.encode(&mut payload);
        respond(
            &mut self.clients,
            &mut self.book,
            conn,
            TAG_RESP_COMBINE,
            &payload,
        );
        oat_obs::trace_event!(oat_obs::EventKind::RespTx, self.id.0, conn as u32, req_id);
        if tree == 0 {
            // The completion log is a tree-0 sim-parity artifact.
            self.completions.push((self.id, v.clone()));
        }
    }

    /// Pushes a `TAG_PARTIAL` refinement to every subscriber of `tree`.
    /// A value equal to the last push is not a refinement — it goes only
    /// to subscribers that were never primed, under the unchanged seq.
    fn push_partial(&mut self, tree: u32, v: &A::Value) {
        let Some(ts) = self.tree_subs.get_mut(&tree) else {
            return;
        };
        if ts.subs.is_empty() {
            return;
        }
        let changed = ts.last_push.as_ref() != Some(v);
        if changed {
            ts.push_seq += 1;
            ts.last_push = Some(v.clone());
        }
        for s in &mut ts.subs {
            if !changed && s.primed {
                continue;
            }
            s.primed = true;
            let mut p = Vec::with_capacity(28);
            put_u64(&mut p, s.id);
            put_u32(&mut p, tree);
            put_u64(&mut p, ts.push_seq);
            v.encode(&mut p);
            if let Some(c) = self.clients.get_mut(&s.conn) {
                c.out.frame(TAG_PARTIAL, &p);
            }
            oat_obs::trace_event!(
                oat_obs::EventKind::PartialTx,
                self.id.0,
                s.conn as u32,
                ts.push_seq
            );
        }
    }

    /// Re-runs the combine for a subscribed tree and pushes the result
    /// as a partial. Called whenever work touched `tree` at a node that
    /// holds subscriptions: a `Done` pushes immediately; a `Pending`
    /// probe's completion pushes from the message arm when it lands.
    /// No-op on trees without subscribers, so non-serving nodes never
    /// issue extra combines.
    fn refresh_tree(&mut self, tree: u32, ctx: &Ctx<'_, S, A>) {
        if self
            .tree_subs
            .get(&tree)
            .is_none_or(|ts| ts.subs.is_empty())
        {
            return;
        }
        let mut out = Vec::new();
        let outcome = self.inst(tree, ctx).mech.handle_combine(&mut out);
        self.send_outbox(tree, out, ctx);
        if let CombineOutcome::Done(v) = outcome {
            self.push_partial(tree, &v);
        }
    }

    /// Destroys every automaton instance after a crash (injected or
    /// panicked) and starts the next incarnation. The transport and each
    /// instance's written value survive; waiters are dropped (clients
    /// recover via timeout + retry). Subscriptions are transport state
    /// and survive too, but fresh instances may regress below the last
    /// pushed value, so subscribers are re-primed at the next refresh;
    /// the refinement seq itself stays monotone across the restart.
    fn crash_restart(&mut self, ctx: &Ctx<'_, S, A>) {
        oat_obs::trace_event!(oat_obs::EventKind::Crash, self.id.0, 0, 0);
        self.counters.restarts += 1;
        for ts in self.tree_subs.values_mut() {
            ts.last_push = None;
            for s in &mut ts.subs {
                s.primed = false;
            }
        }
        let vals = self
            .insts
            .iter()
            .map(|(&tree, inst)| (tree, inst.mech.val().clone()))
            .collect();
        self.reincarnate(self.epoch + 1, 0, vals, ctx);
    }

    /// Starts incarnation `epoch`, persisted before anything else so the
    /// *next* incarnation moves past it even on a torn tail. The epoch
    /// lets the new automata discard responses addressed to the one that
    /// died (see the epoch guard in `MechNode::handle_message`). Every
    /// instance is dropped with its waiters; one fresh instance per
    /// entry of `vals` (which holds tree 0) comes back holding that
    /// tree's written value; and the new run's first act is a sequenced
    /// `RESET` on every edge — down edges queue it in the retransmit
    /// buffer, so the peer learns of the restart in FIFO position even
    /// across a connection failure. `kind` tags the trace event: 0 for a
    /// crash, 1 for a recovery from the log.
    fn reincarnate(
        &mut self,
        epoch: u64,
        kind: u32,
        vals: HashMap<u32, A::Value>,
        ctx: &Ctx<'_, S, A>,
    ) {
        self.abandoned += self
            .insts
            .values()
            .map(|i| i.waiters.len() as u64)
            .sum::<u64>();
        self.epoch = epoch;
        if self.durable {
            self.backend.log_epoch(epoch);
        }
        oat_obs::trace_event!(oat_obs::EventKind::Restart, self.id.0, kind, epoch);
        // A fresh instance holds no grants, so restoring its value emits
        // nothing.
        let id = self.id;
        self.insts = vals
            .into_iter()
            .map(|(tree, val)| {
                let mut inst = Self::new_inst(ctx, id, epoch, tree);
                let mut sink = Vec::new();
                inst.mech.handle_write(val, &mut sink);
                debug_assert!(sink.is_empty());
                (tree, inst)
            })
            .collect();
        debug_assert!(self.insts.contains_key(&0));
        for wi in 0..self.links.len() {
            self.send_edge(wi, EdgePayload::Reset, ctx);
        }
        self.settle_downed();
    }

    /// Whether a kill9 fired during the last dispatch pass; consumes the
    /// flag. The reactor calls [`NodeRt::kill9_restart`] when true.
    pub(crate) fn take_kill9(&mut self) -> bool {
        std::mem::take(&mut self.kill9_pending)
    }

    /// Process-grade kill + recovery: demolish everything a SIGKILL
    /// would take — links, retransmit buffers, client connections, the
    /// automata and their values — then rebuild the node from its
    /// durability backend as a cold-starting incarnation. The listener
    /// survives (the "new process" inherits the node's address) as do
    /// the pure observability accumulators (stats, counters, completion
    /// log), which belong to the harness, not the process.
    pub(crate) fn kill9_restart(&mut self, ctx: &Ctx<'_, S, A>) {
        oat_obs::trace_event!(oat_obs::EventKind::Crash, self.id.0, 1, 0);
        ctx.ledger.kill9s.fetch_add(1, Ordering::Relaxed);
        self.counters.restarts += 1;
        self.counters.kill9s += 1;
        // Sever every connection the dead process held.
        for (_, conn) in self.pending.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for (_, conn) in self.clients.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.book = BatchBook::default();
        // A process kill severs every client socket, and subscriptions
        // die with their connections — subscribers re-subscribe on
        // reconnect. The instances go at the restore below.
        self.tree_subs.clear();
        self.downed.clear();
        self.stalled = false;
        // Forgive the dead incarnation's buffered frames: outstanding
        // edge debt equals Σ rtx lengths, so this is exact. Recovery
        // below re-charges whatever the WAL preserved.
        let mut forgiven = 0;
        for link in &mut self.links {
            if let Some(conn) = link.conn.take() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            if let Some(conn) = link.pending_dial.take() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            forgiven += link.rtx.len() as i64;
            link.rtx.clear();
            link.tx_seq = 0;
            link.acked = 0;
            link.acked_at_tick = 0;
            link.rx_seq = 0;
            link.rx_acked = 0;
            link.reack = false;
            link.redial_at = None;
        }
        if forgiven > 0 {
            ctx.in_flight.sub(forgiven);
        }
        self.connected = 0;
        // Rebuild from the log, exactly like a cold start...
        let state = self.backend.recover().unwrap_or_default();
        self.restore_from(state, ctx);
        // ...and start redialing immediately on edges we own.
        let now = Instant::now();
        for link in &mut self.links {
            if link.dialer {
                link.backoff_ms = RECONNECT_BASE_MS;
                link.redial_at = Some(now);
            }
        }
    }

    /// Rebuilds the automata + transport state from recovered durable
    /// state: the cold-start path, shared by spawn-over-existing-WAL and
    /// [`NodeRt::kill9_restart`]. Expects link sequence state to be at
    /// its zero value on entry.
    fn restore_from(&mut self, state: WalState, ctx: &Ctx<'_, S, A>) {
        // Every tree's written value; tree 0 at identity when it has none.
        let mut vals = HashMap::from([(0, ctx.op.identity())]);
        for (&tree, bytes) in &state.vals {
            if let Ok(v) = A::Value::decode(&mut WireReader::new(bytes)) {
                vals.insert(tree, v);
            }
        }
        // Restore per-edge sequence state and re-charge the recovered
        // retransmit buffers into the in-flight gauge.
        let now = Instant::now();
        let mut recharged = 0;
        for ls in &state.links {
            let Some(link) = self.links.iter_mut().find(|l| l.peer.0 == ls.peer) else {
                continue;
            };
            link.tx_seq = ls.tx_seq;
            link.acked = ls.acked;
            link.acked_at_tick = ls.acked;
            link.rx_seq = ls.rx_seq;
            link.rx_acked = ls.rx_seq;
            link.rtx = ls
                .rtx
                .iter()
                .map(|(seq, inner, body)| (*seq, *inner, body.clone(), now))
                .collect();
            recharged += link.rtx.len() as i64;
        }
        if recharged > 0 {
            ctx.in_flight.add(recharged);
        }
        // A strictly newer epoch than any the dead incarnation could
        // have used.
        self.reincarnate(self.epoch.max(state.epoch) + 1, 1, vals, ctx);
    }

    /// Marks every queued-down edge as down exactly once and arms the
    /// redial timer when this endpoint owns the edge's dialing.
    fn settle_downed(&mut self) {
        while let Some(wi) = self.downed.pop() {
            let link = &mut self.links[wi];
            let Some(conn) = link.conn.take() else {
                continue;
            };
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.connected -= 1;
            if link.dialer && link.pending_dial.is_none() {
                link.backoff_ms = RECONNECT_BASE_MS;
                link.redial_at = Some(Instant::now());
            }
        }
    }

    /// Fires this node's due timers — the retransmission tick when
    /// `rto_tick` says the reactor's RTO cadence came round, and redials
    /// whose time has come. Memory-only unless something is due; returns
    /// `true` when a timer queued bytes, i.e. the node needs a flush.
    pub(crate) fn run_timers(&mut self, ctx: &Ctx<'_, S, A>, now: Instant, rto_tick: bool) -> bool {
        let mut fired = rto_tick && self.rto_tick();
        for wi in 0..self.links.len() {
            let link = &mut self.links[wi];
            if link.conn.is_some() || link.pending_dial.is_some() {
                link.redial_at = None;
                continue;
            }
            match link.redial_at {
                Some(at) if at <= now => {
                    // A blocking `connect` to a pre-bound loopback
                    // listener completes (or fails) immediately, then
                    // the hello waits for its reply like any other read.
                    link.redial_at = None;
                    self.try_dial(wi, ctx);
                    fired = true;
                }
                _ => {}
            }
        }
        fired
    }

    fn try_dial(&mut self, wi: usize, ctx: &Ctx<'_, S, A>) {
        let link = &mut self.links[wi];
        let tok = Tok::Dial(self.slot, wi);
        let attempt = Stream::connect(&ctx.addrs[link.peer.idx()])
            .and_then(|stream| Conn::new(stream, ctx.poller, tok));
        match attempt {
            Ok(mut conn) => {
                let mut hello = Vec::with_capacity(20);
                put_u32(&mut hello, self.id.0);
                put_u64(&mut hello, link.rx_seq);
                put_u64(&mut hello, link.acked);
                conn.out.frame(TAG_HELLO_EDGE, &hello);
                link.pending_dial = Some(conn);
            }
            Err(_) => link.schedule_redial(),
        }
    }

    /// Go-back-N on every up edge whose ack watermark stalled since the
    /// previous tick. A stalled watermark alone is not evidence of loss
    /// — the oldest unacked frame must also be at least one RTO old.
    /// Returns `true` when anything was re-queued.
    fn rto_tick(&mut self) -> bool {
        let id = self.id;
        let mut resent = false;
        for link in self.links.iter_mut() {
            let stale = link
                .rtx
                .front()
                .is_some_and(|(_, _, _, sent)| sent.elapsed() >= RTO);
            if stale && link.acked == link.acked_at_tick {
                if let Some(conn) = link.conn.as_mut() {
                    self.counters.timeouts += 1;
                    self.counters.retransmits += link.rtx.len() as u64;
                    oat_obs::trace_event!(oat_obs::EventKind::RtoExpire, id.0, link.peer.0, 0);
                    oat_obs::trace_event!(
                        oat_obs::EventKind::Retransmit,
                        id.0,
                        link.peer.0,
                        link.rtx.len() as u64
                    );
                    let now = Instant::now();
                    for (seq, inner, body, sent) in link.rtx.iter_mut() {
                        queue_seq(&mut conn.out, *seq, *inner, body);
                        *sent = now;
                    }
                    resent = true;
                }
            }
            link.acked_at_tick = link.acked;
        }
        resent
    }

    /// The flush of one node on its own: [`NodeRt::flush_edges`], then
    /// [`NodeRt::flush_clients`]. The reactor's per-wakeup pass calls the
    /// two halves itself, the first on every touched node before the
    /// second on any; this is for a node flushed alone (a timer that
    /// queued bytes, shutdown).
    ///
    /// Returns `true` when bytes stay queued that no readiness event is
    /// armed for — a ring link waiting for its space-freed nudge (ring
    /// doorbells get no `POLLOUT`). The reactor retries such a node's
    /// flush at every wakeup instead of trusting the nudge alone.
    pub(crate) fn flush(&mut self, ctx: &Ctx<'_, S, A>) -> bool {
        let edges = self.flush_edges(ctx);
        self.flush_clients() | edges
    }

    /// The peer half of a flush: piggy-back a cumulative ack on every
    /// edge whose receive watermark advanced, push every edge write
    /// queue into its socket, and update the backpressure stall state.
    /// Each [`Conn::flush`] keeps its own `POLLOUT` registration in
    /// step with the outcome. Returns the backlog flag of
    /// [`NodeRt::flush`].
    pub(crate) fn flush_edges(&mut self, ctx: &Ctx<'_, S, A>) -> bool {
        let mut backlog = false;
        let mut blocked =
            |conn: &Conn, drained: bool| backlog |= !drained && !conn.stream.wants_pollout();
        for (wi, link) in self.links.iter_mut().enumerate() {
            if let Some(conn) = link.pending_dial.as_mut() {
                if !conn.out.is_empty() {
                    match conn.flush() {
                        Ok(drained) => blocked(conn, drained),
                        Err(_) => {
                            link.pending_dial = None;
                            link.schedule_redial();
                        }
                    }
                }
            }
            if let Some(conn) = link.conn.as_mut() {
                if link.rx_seq > link.rx_acked || link.reack {
                    conn.out.frame(TAG_ACK, &link.rx_seq.to_le_bytes());
                    link.rx_acked = link.rx_seq;
                    link.reack = false;
                }
                if !conn.out.is_empty() {
                    match conn.flush() {
                        Ok(drained) => blocked(conn, drained),
                        Err(_) => self.downed.push(wi),
                    }
                }
            }
        }
        self.settle_downed();
        // Backpressure: enter a stall at the high watermark, leave only
        // once *every* edge drained below the low one (hysteresis).
        if !self.stalled {
            if self.links.iter().any(|l| l.rtx.len() >= ctx.rtx_high) {
                self.stalled = true;
                self.backpressure_stalls += 1;
            }
        } else if self.links.iter().all(|l| l.rtx.len() <= ctx.rtx_low) {
            self.stalled = false;
        }
        backlog
    }

    /// The client half of a flush, after [`NodeRt::flush_edges`] (so a
    /// flushed client response always trails the mechanism messages of
    /// the request that produced it): stream the batch accumulators,
    /// push every client write queue into its socket, and fold the log
    /// into a snapshot when due. Returns the backlog flag of
    /// [`NodeRt::flush`].
    pub(crate) fn flush_clients(&mut self) -> bool {
        let mut backlog = false;
        let mut blocked =
            |conn: &Conn, drained: bool| backlog |= !drained && !conn.stream.wants_pollout();
        let stalled = self.stalled;
        // Stream whatever each in-progress batch gathered since the last
        // boundary, before the client write queues flush below.
        self.stream_batches();
        // Clients: flush, and keep each socket out of the poller exactly
        // while the node is stalled (both calls are no-ops when already
        // so; a client promoted mid-stall is parked here, before the
        // reactor sleeps again). One that cannot rejoin is dropped like
        // a dead one.
        let mut dropped: Vec<ClientId> = Vec::new();
        self.clients.retain(|&cid, conn| {
            let mut serve = || {
                if !conn.out.is_empty() {
                    let drained = conn.flush()?;
                    blocked(conn, drained);
                }
                if stalled {
                    conn.park();
                    Ok(())
                } else {
                    conn.unpark()
                }
            };
            let keep = serve().is_ok();
            if !keep {
                dropped.push(cid);
            }
            keep
        });
        for cid in dropped {
            self.book.purge(cid);
            self.purge_subs(cid);
        }
        // Fold the log into a snapshot once enough has accumulated —
        // at the flush boundary the node's state is self-consistent.
        if self.durable && self.backend.wants_snapshot() {
            let state = self.wal_state();
            self.backend.snapshot(&state);
        }
        backlog
    }

    /// Folds the node's durable state into a snapshot image.
    fn wal_state(&self) -> WalState {
        WalState {
            epoch: self.epoch,
            vals: self
                .insts
                .iter()
                .map(|(&tree, inst)| {
                    let mut val = Vec::with_capacity(16);
                    inst.mech.val().encode(&mut val);
                    (tree, val)
                })
                .collect(),
            links: self
                .links
                .iter()
                .map(|l| LinkState {
                    peer: l.peer.0,
                    tx_seq: l.tx_seq,
                    acked: l.acked,
                    rx_seq: l.rx_seq,
                    rtx: l
                        .rtx
                        .iter()
                        .map(|(seq, inner, body, _)| (*seq, *inner, body.clone()))
                        .collect(),
                })
                .collect(),
        }
    }

    fn snapshot_metrics(&self, ctx: &Ctx<'_, S, A>) -> NodeMetrics {
        let mut leases_taken = 0;
        let mut leases_granted = 0;
        let mech = &self.insts[&0].mech;
        let mut edges = Vec::with_capacity(mech.nbrs().len());
        let mut dup_drops = 0;
        for (vi, &v) in mech.nbrs().iter().enumerate() {
            if mech.taken(vi) {
                leases_taken += 1;
            }
            if mech.granted(vi) {
                leases_granted += 1;
            }
            edges.push((
                v.0,
                self.stats.per_edge_counts()[ctx.tree.dir_edge_index(self.id, v)],
            ));
            dup_drops += self.links[vi].dup_drops;
        }
        let (queue_depth, queue_peak) = self.gauge.read();
        let wal = self.backend.counters();
        NodeMetrics {
            node: self.id.0,
            sent_by_kind: self.stats.kind_totals(),
            delivered: self.delivered,
            edges,
            leases_taken,
            leases_granted,
            queue_depth,
            queue_peak,
            pending_combines: self.insts[&0].waiters.len() as u64,
            combines_served: self.completions.len() as u64,
            reconnects: self.counters.reconnects,
            retransmits: self.counters.retransmits,
            dup_drops,
            timeouts: self.counters.timeouts,
            restarts: self.counters.restarts,
            kill9s: self.counters.kill9s,
            backpressure_stalls: self.backpressure_stalls,
            wal_records: wal.records,
            wal_fsyncs: wal.fsyncs,
            wal_replays: wal.replays,
            wal_torn_bytes: wal.torn_bytes,
            wal_snapshots: wal.snapshots,
        }
    }

    /// Installs a freshly connected edge stream: replies to the hello
    /// when we are the accepting side, replaces any previous connection,
    /// and replays every unacknowledged frame past the peer's receive
    /// watermark. Returns the neighbour index on success.
    ///
    /// The peer's two hello watermarks also *heal* this side after a
    /// torn-tail recovery, where our own log may understate what the
    /// wire already saw: `peer_rx` (what the peer delivered from us)
    /// fast-forwards our `tx_seq` so no sequence number is ever reused,
    /// and `peer_acked` (the highest of the peer's own frames that a
    /// previous incarnation of this node acknowledged) fast-forwards our
    /// receive watermark so the peer never waits for an ack of frames it
    /// already trimmed. Both are monotone maxes — no-ops on every
    /// non-torn reconnect.
    fn install_edge(
        &mut self,
        peer: NodeId,
        mut conn: Conn,
        peer_rx: u64,
        peer_acked: u64,
        accepted: bool,
        ctx: &Ctx<'_, S, A>,
    ) -> Option<usize> {
        // An unknown peer id is a protocol violation from an untrusted
        // connection: drop it.
        let wi = ctx.tree.nbrs(self.id).iter().position(|&v| v == peer)?;
        conn.retoken(Tok::Edge(self.slot, wi)).ok()?;
        let rx_before = self.links[wi].rx_seq;
        {
            // Apply the peer's watermarks *before* composing our reply,
            // so an accepting side's hello already reflects them.
            let link = &mut self.links[wi];
            if peer_acked > link.rx_seq {
                link.rx_seq = peer_acked;
            }
            if peer_acked > link.rx_acked {
                link.rx_acked = peer_acked;
            }
            if peer_rx > link.tx_seq {
                link.tx_seq = peer_rx;
            }
        }
        if accepted {
            // Reply with our id + watermarks so the dialer knows where
            // to resume. Queued first, so it precedes the replay.
            let link = &self.links[wi];
            let mut hello = Vec::with_capacity(20);
            put_u32(&mut hello, self.id.0);
            put_u64(&mut hello, link.rx_seq);
            put_u64(&mut hello, link.acked);
            conn.out.frame(TAG_HELLO_EDGE, &hello);
        }
        let link = &mut self.links[wi];
        let was_up = link.conn.is_some();
        if let Some(old) = link.conn.take() {
            // Sever the replaced connection (its drop deregisters it).
            // Frames still buffered in its decoder or queues are dropped
            // — the sequenced replay below (and the peer's own)
            // re-delivers everything unacknowledged.
            let _ = old.stream.shutdown(Shutdown::Both);
        }
        link.conn = Some(conn);
        link.pending_dial = None;
        link.redial_at = None;
        link.backoff_ms = RECONNECT_BASE_MS;
        if link.ever_up {
            self.counters.reconnects += 1;
            oat_obs::trace_event!(oat_obs::EventKind::Reconnect, self.id.0, peer.0, 0);
        }
        link.ever_up = true;
        // Resume the sequenced stream: everything the peer already has
        // is acknowledged by its hello watermark; replay the rest in
        // order (no fault actions — replays are recovery traffic). Each
        // trimmed frame settles its in-flight debt here, its only exit.
        let acked_before = link.acked;
        if peer_rx > link.acked {
            link.acked = peer_rx;
        }
        let mut settled = 0;
        while link.rtx.front().is_some_and(|(s, ..)| *s <= link.acked) {
            link.rtx.pop_front();
            settled += 1;
        }
        if settled > 0 {
            ctx.in_flight.sub(settled);
        }
        if self.durable {
            // Persist any watermark moves the hello produced.
            let (rx_now, acked_now) = (self.links[wi].rx_seq, self.links[wi].acked);
            if rx_now > rx_before {
                self.backend.log_rx(peer.0, rx_now);
            }
            if acked_now > acked_before {
                self.backend.log_ack(peer.0, acked_now);
            }
        }
        let link = &mut self.links[wi];
        if !link.rtx.is_empty() {
            self.counters.retransmits += link.rtx.len() as u64;
            oat_obs::trace_event!(
                oat_obs::EventKind::Retransmit,
                self.id.0,
                peer.0,
                link.rtx.len() as u64
            );
            let out = &mut link.conn.as_mut().expect("just installed").out;
            let now = Instant::now();
            for (seq, inner, body, sent) in link.rtx.iter_mut() {
                queue_seq(out, *seq, *inner, body);
                *sent = now;
            }
        }
        if !was_up {
            self.connected += 1;
            if self.connected == self.links.len() && !self.ready_sent {
                self.ready_sent = true;
                let _ = self.ready_tx.send(());
            }
        }
        Some(wi)
    }

    /// Orderly end of the node: record what the automaton still held.
    pub(crate) fn finish(mut self) -> NodeReport<A::Value> {
        // Under faults a client may have given up on a combine; dropping
        // the waiter lets shutdown proceed and the count surfaces here.
        self.abandoned += self
            .insts
            .values()
            .map(|i| i.waiters.len() as u64)
            .sum::<u64>();
        NodeReport {
            stats: self.stats,
            completions: self.completions,
            log: self.insts[&0].mech.ghost().map(|g| g.log.clone()),
            delivered: self.delivered,
            abandoned: self.abandoned,
            faults: self.counters,
            wal: self.backend.counters(),
        }
    }
}

/// Encodes one sequenced frame onto a write queue.
fn queue_seq(out: &mut WriteQueue, seq: u64, inner: u8, body: &[u8]) {
    let mut payload = Vec::with_capacity(9 + body.len());
    put_u64(&mut payload, seq);
    payload.push(inner);
    payload.extend_from_slice(body);
    out.frame(TAG_SEQ, &payload);
}

/// Assigns the next sequence number on `link`, logs the send to the
/// durability backend, appends the frame to the retransmit buffer
/// (in-flight accounting happens here, exactly once per logical frame —
/// the debt settles when the frame is trimmed after acknowledgement),
/// and attempts first transmission — subject to the edge's
/// fault-decision stream and kill schedule. Returns `true` when the
/// connection must be marked down.
fn send_seq<S, A: AggOp>(
    from: NodeId,
    link: &mut EdgeLink,
    dur: &mut dyn Durability,
    inner: u8,
    body: Vec<u8>,
    ctx: &Ctx<'_, S, A>,
) -> bool {
    ctx.in_flight.add(1);
    link.tx_seq += 1;
    let seq = link.tx_seq;
    dur.log_send(link.peer.0, seq, inner, &body);
    oat_obs::trace_event!(
        oat_obs::EventKind::FrameTx,
        from.0,
        link.peer.0,
        (seq << 8) | u64::from(inner)
    );
    link.rtx.push_back((seq, inner, body, Instant::now()));
    let body = &link.rtx.back().expect("just pushed").2;
    let Some(conn) = link.conn.as_mut() else {
        // Edge down: the frame waits in the retransmit buffer and is
        // replayed when the connection comes back.
        return false;
    };
    let action = link
        .faults
        .as_mut()
        .map(|f| f.next_action())
        .unwrap_or(FaultAction::Deliver);
    match action {
        FaultAction::Deliver => queue_seq(&mut conn.out, seq, inner, body),
        FaultAction::Drop => {
            // First transmission suppressed; the RTO resend recovers it.
            ctx.ledger.drops.fetch_add(1, Ordering::Relaxed);
        }
        FaultAction::Delay => {
            // Modeled as a suppressed first transmission too — the frame
            // arrives late, via the retransmission path, preserving
            // per-edge FIFO (a true in-stream delay would reorder).
            ctx.ledger.delays.fetch_add(1, Ordering::Relaxed);
        }
        FaultAction::Duplicate => {
            queue_seq(&mut conn.out, seq, inner, body);
            queue_seq(&mut conn.out, seq, inner, body);
            ctx.ledger.dups.fetch_add(1, Ordering::Relaxed);
        }
    }
    if let Some(f) = link.faults.as_mut() {
        if f.on_frame_carried() {
            // Scheduled connection kill: sever the socket with frames
            // potentially still in userspace/kernel buffers — they are
            // genuinely lost and must come back via reconnect replay.
            ctx.ledger.conns_killed.fetch_add(1, Ordering::Relaxed);
            let _ = conn.stream.shutdown(Shutdown::Both);
            return true;
        }
    }
    false
}

/// Queues one response frame for a client connection. A missing writer
/// means the client vanished; its responses are dropped — clients are
/// untrusted peers, their disappearance must not kill a node.
///
/// Responses owed to an in-progress batch are routed into its
/// accumulator instead; the gathered items *stream* out as
/// `TAG_RESP_BATCH` frames at flush boundaries (see [`BatchBook`] and
/// [`NodeRt::stream_batches`]), so a completed member never waits
/// behind the roster's slowest one.
fn respond(
    clients: &mut HashMap<ClientId, Conn>,
    book: &mut BatchBook,
    conn: ClientId,
    tag: u8,
    payload: &[u8],
) {
    if payload.len() >= 8 {
        let req_id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        if let Some(key) = book.member.remove(&(conn, req_id)) {
            let acc = book.accs.get_mut(&(conn, key)).expect("member implies acc");
            acc.items.push((tag, payload.to_vec()));
            acc.remaining -= 1;
            return;
        }
    }
    if let Some(c) = clients.get_mut(&conn) {
        c.out.frame(tag, payload);
    }
}
