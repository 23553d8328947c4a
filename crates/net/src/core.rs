//! The sans-IO node: everything one tree node decides, with no sockets
//! and no clock.
//!
//! ## Ownership
//!
//! A [`NodeCore`] is plain data with one owner, its driver (the reactor
//! thread serving the node, `crate::reactor`, or a test harness). It
//! holds the automaton instance table and its parked combines, one
//! sequenced [`Link`] per edge, one outbound byte queue per edge and per
//! client, the subscriptions, the batch book, the stats, the completion
//! log, the epoch, the crash and kill9 triggers, the [`FaultCounters`]
//! and the backpressure state. The driver holds what the operating
//! system hands out: listeners, connections, readiness registration, the
//! cluster's quiescence counter and the write-ahead log.
//!
//! There is one plain method per input — frames on an edge or from a
//! client, a client gone, an edge hello, up or down, a timer tick, a
//! kill9, a recovered [`WalState`] — each taking `now` (an `Instant` in
//! the runtime, a virtual `Duration` in the tests below). The core's only
//! timers are redials and ack deadlines, and [`NodeCore::next_deadline`]
//! names the earliest: no timer re-sends a frame, because a lost frame
//! severs its connection and the reconnect replays it (`crate::link`,
//! "Loss is a connection event"). Frames leave
//! through the core's byte queues; the rest comes back as a [`CoreStep`]:
//! the in-flight debt, the messages sent, the log records to append in
//! order, severs, a kill9 due, dials due. Nothing is allocated per frame
//! for the hand-off.
//!
//! ## Automaton instances
//!
//! One table maps each tree id of the forest to an [`Inst`]: a
//! [`MechNode`] plus the combines parked on it. Every tree goes through
//! the same dispatch arms, outbox and waiter path; only the frame layer
//! encodes tree ids ([`EdgePayload`], [`decode_request`]). Instance 0
//! exists from birth, the others from the first frame naming their tree.
//! Every instance's last written value is durable; instance 0 alone
//! feeds the ghost log and the completion log (the sim-parity records).
//!
//! ## Backpressure
//!
//! Exactly-once forbids dropping unacknowledged frames, so retransmit
//! buffers are bounded by backpressure instead: past the high watermark
//! ([`RTX_DEFAULT_HIGH`] unless `NetConfig` says otherwise) the core is
//! [`NodeCore::stalled`] and its driver stops reading the node's client
//! connections — the intake of new work — until every buffer is back at
//! the low watermark. Edges are never stalled: acks must keep flowing.
//!
//! ## Crash-restart supervision
//!
//! An injected crash, or a panic caught by the `catch_unwind` around
//! every dispatch, destroys every automaton instance: leases, cached
//! aggregates, waiters. The links, client queues and subscriptions
//! survive, and so does each instance's last written value, the one
//! datum per tree the paper makes durable. The fresh instances take
//! their values back, and the new incarnation's first act is a
//! sequenced `RESET` on every edge: neighbours run the peer-reset
//! transition on every instance, a revoke cascade tears down every
//! aggregate that included the crashed subtree, and leases return by
//! probing. Clients re-drive lost requests by timeout and retry.
//!
//! A kill9 ([`NodeCore::kill9`]) also destroys what a process holds —
//! links, retransmit buffers, client queues, batches, subscriptions —
//! and the node comes back from the state its driver recovered from the
//! log, then resets its edges like a crash. A cold start over an existing
//! log takes the same path ([`NodeCore::restore`]).
//!
//! ## Quiescence accounting
//!
//! An edge frame is charged when its link numbers it and settled when the
//! receiving link delivers it in order (`crate::link`), in the same input
//! that handles it. Each [`CoreStep`] carries the net change, which the
//! driver applies before any byte of that input reaches a socket, so a
//! frame is charged before it can be delivered, the frames a delivery
//! spawns are charged in the step that settles it, and the cluster's
//! counter never reaches zero while a frame is undelivered or unhandled.
//! Acks settle no frame: they only trim retransmit buffers, and the flush
//! boundary sends one only when it can ride a queued frame or is due
//! ([`NodeCore::flush_prep`]). A client request is decoded and served
//! within one input, so it carries no debt of its own.

use std::collections::HashMap;
use std::ops::Add;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use oat_core::agg::AggOp;
use oat_core::fault::{FaultPlan, InjectedFaults};
use oat_core::ghost::GhostReq;
use oat_core::mechanism::{CombineOutcome, MechNode, Outbox};
use oat_core::policy::{NodePolicy, PolicySpec};
use oat_core::request::ReqOp;
use oat_core::tree::{NodeId, Tree};
use oat_core::wire::{put_u32, put_u64, WireReader, WireValue};
use oat_sim::stats::MsgStats;
use oat_wal::{LinkState, Record, WalCounters, WalState};

use crate::frame::{
    decode_batch, decode_request, encode_batch, EdgePayload, FrameDecoder, WriteQueue, TAG_PARTIAL,
    TAG_REQ_BATCH, TAG_REQ_METRICS, TAG_RESP_BATCH, TAG_RESP_COMBINE, TAG_RESP_METRICS,
    TAG_RESP_WRITE, TAG_SUB,
};
use crate::link::{FrameSink, Link, Step};
use crate::metrics::NodeMetrics;

/// Identifies one client connection to one node.
pub(crate) type ClientId = u64;

/// Default backpressure watermarks, in frames per retransmit buffer.
pub(crate) const RTX_DEFAULT_HIGH: usize = 1 << 16;
pub(crate) const RTX_DEFAULT_LOW: usize = 1 << 12;

impl FrameSink for WriteQueue {
    fn frame(&mut self, tag: u8, payload: &[u8]) {
        WriteQueue::frame(self, tag, payload);
    }
}

/// What every node of one cluster shares. The policy is a spec, not a
/// built policy: every restart builds fresh policy state.
pub(crate) struct Env<S, A> {
    pub tree: Tree,
    pub op: A,
    pub spec: S,
    pub ghost: bool,
    /// Cluster-wide ledger of injected fault events.
    pub ledger: Arc<InjectedFaults>,
    pub rtx_high: usize,
    pub rtx_low: usize,
}

/// A node's final state, collected by `Cluster::shutdown`.
pub(crate) struct NodeReport<V> {
    /// Messages this node sent, per directed edge and kind.
    pub stats: MsgStats,
    /// `(node, value)` per tree-0 combine answered here, in order.
    pub completions: Vec<(NodeId, V)>,
    /// Ghost log of the final incarnation, when enabled.
    pub log: Option<Vec<GhostReq<V>>>,
    pub delivered: u64,
    /// Combine waiters dropped unanswered (clients that gave up).
    pub abandoned: u64,
    pub faults: FaultCounters,
    pub wal: WalCounters,
    /// Acks queued onto an otherwise empty edge queue: each one a write
    /// of its own.
    pub standalone_acks: u64,
}

/// Fault-recovery counters, accumulated across crash-restarts (and in
/// [`crate::ClusterReport`], summed over all nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Edge connections re-established after a failure.
    pub reconnects: u64,
    /// Sequenced frames re-sent by post-reconnect replays.
    pub retransmits: u64,
    /// Automaton restarts performed by the supervisor — in-process
    /// crash-restarts plus process-grade kill9 recoveries.
    pub restarts: u64,
    /// Process-grade kills recovered through the durability backend
    /// (always counted in `restarts` too).
    pub kill9s: u64,
}

/// One write-ahead-log operation, in the order the core made it.
pub(crate) enum WalOp {
    Append(Record),
    /// Fold the log into this image (links took new sequence numbers,
    /// so the sends logged for them are stale).
    Snapshot(WalState),
}

/// What one input asks of the driver.
#[must_use]
#[derive(Default)]
pub(crate) struct CoreStep {
    /// In-flight debt: edge frames charged minus frames settled.
    pub debt: i64,
    /// Mechanism messages sent.
    pub sent: u64,
    /// Log operations, to perform before any client queue is flushed.
    pub records: Vec<WalOp>,
    /// An edge went down in the core (a connection kill, a corrupt
    /// stream): close each connection whose edge is not [`NodeCore::is_up`].
    pub severed: bool,
    /// The client that sent the input broke the protocol: retire it.
    pub reject: bool,
    /// A kill9 fired: run [`NodeCore::kill9`] after the current pass.
    pub kill9: bool,
    /// Dial each edge that [`NodeCore::is_dialing`] without a dial.
    pub dial: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum EdgeState {
    Down,
    /// A dial was requested; the edge queue holds our hello.
    Dialing,
    Up,
}

/// One edge: its sequenced link and the bytes queued for its connection.
struct Edge<T> {
    link: Link<T>,
    out: WriteQueue,
    state: EdgeState,
    /// The edge was up at least once (distinguishes reconnects).
    ever_up: bool,
}

/// One unit of decoded work, dispatched in decode order.
enum Work<V> {
    /// A sequenced frame from neighbour `from`.
    Peer {
        from: NodeId,
        payload: EdgePayload<V>,
    },
    /// A combine or write request.
    Client {
        conn: ClientId,
        req_id: u64,
        tree: u32,
        op: ReqOp<V>,
    },
    Sub {
        conn: ClientId,
        sub_id: u64,
        tree: u32,
    },
    Metrics {
        conn: ClientId,
        req_id: u64,
    },
}

/// Accumulates responses for in-progress request batches.
///
/// A `TAG_REQ_BATCH` frame's members dispatch as ordinary
/// [`Work::Client`] items, so their responses arrive one at a time —
/// possibly much later (a parked combine), possibly after a crash
/// forced the client to re-drive members individually. Each `(client,
/// req id)` response is routed into its batch's accumulator, which
/// *streams* what it gathered as a `TAG_RESP_BATCH` frame at every flush
/// boundary, so completed members never wait behind the slowest. A
/// member is struck at its *first* response: a retry answered again
/// goes direct, where the client discards unknown ids — never a
/// duplicate item in a batch frame.
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

/// The automaton instance serving one tree at this node. Its last
/// written value — `mech.val()`, set by nothing but a write — is
/// durable: logged before the write is acked, and restored into the
/// fresh instance by every restart.
struct Inst<N: NodePolicy, A: AggOp> {
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

/// Per-tree subscription state. It lives outside the automaton
/// instances, like client queues, so a crash-restart does not end a
/// continuous query; a kill9 drops it with the client connections, and
/// subscribers re-subscribe on reconnect.
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

/// One tree node's protocol state (see the module docs).
pub(crate) struct NodeCore<S: PolicySpec, A: AggOp, T> {
    env: Rc<Env<S, A>>,
    id: NodeId,
    /// Per neighbour, in `Tree::nbrs` order (ascending).
    edges: Vec<Edge<T>>,
    clients: HashMap<ClientId, WriteQueue>,
    next_client: ClientId,
    book: BatchBook,
    /// The instance of every tree seen here; tree 0's always exists.
    insts: HashMap<u32, Inst<S::Node, A>>,
    tree_subs: HashMap<u32, TreeSubs<A::Value>>,
    stats: MsgStats,
    completions: Vec<(NodeId, A::Value)>,
    /// Combines answered here, on every tree.
    served: u64,
    delivered: u64,
    /// Whether the driver keeps a log: without one no record is built.
    durable: bool,
    /// The log's counters as the driver last reported them.
    wal: WalCounters,
    /// Incarnation epoch: bumped and logged by every restart, so no
    /// incarnation reuses one its predecessor burned.
    epoch: u64,
    /// Injected crash and kill9 triggers: the delivered-message count
    /// (across restarts) at which each fires, once.
    crash_at: Option<u64>,
    kill9_at: Option<u64>,
    counters: FaultCounters,
    backpressure_stalls: u64,
    stalled: bool,
    abandoned: u64,
    standalone_acks: u64,
    /// Work decoded but not yet dispatched, and the most one input held.
    queue_depth: u64,
    queue_peak: u64,
    /// Edges a link severed mid-dispatch, marked down at its end.
    downed: Vec<usize>,
    /// Reused buffer of decoded work.
    work: Vec<Work<A::Value>>,
    /// What the current input asks of the driver.
    step: CoreStep,
}

impl<S, A, T> NodeCore<S, A, T>
where
    S: PolicySpec,
    S::Node: 'static,
    A: AggOp,
    A::Value: WireValue,
    T: Copy + Ord + Add<Duration, Output = T>,
{
    /// Node `id` at birth: every edge down (dialers due at `now`), faults
    /// drawn from `plan`, log records built only when `durable`.
    pub(crate) fn new(
        env: Rc<Env<S, A>>,
        id: NodeId,
        plan: &FaultPlan,
        durable: bool,
        now: T,
    ) -> Self {
        let edges = env
            .tree
            .nbrs(id)
            .iter()
            .map(|&v| Edge {
                link: Link::new(id, v, plan, now),
                out: WriteQueue::default(),
                state: EdgeState::Down,
                ever_up: false,
            })
            .collect();
        NodeCore {
            id,
            edges,
            clients: HashMap::new(),
            next_client: 0,
            book: BatchBook::default(),
            insts: HashMap::from([(0, new_inst(&env, id, 0, 0))]),
            tree_subs: HashMap::new(),
            stats: MsgStats::new(&env.tree),
            completions: Vec::new(),
            served: 0,
            delivered: 0,
            durable,
            wal: WalCounters::default(),
            epoch: 0,
            crash_at: plan.crash_after(id),
            kill9_at: plan.kill9_after(id),
            counters: FaultCounters::default(),
            backpressure_stalls: 0,
            stalled: false,
            abandoned: 0,
            standalone_acks: 0,
            queue_depth: 0,
            queue_peak: 0,
            downed: Vec::new(),
            work: Vec::new(),
            step: CoreStep::default(),
            env,
        }
    }

    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    pub(crate) fn degree(&self) -> usize {
        self.edges.len()
    }

    pub(crate) fn peer(&self, wi: usize) -> NodeId {
        self.edges[wi].link.peer
    }

    /// Index of the edge toward `peer`, if it is a neighbour.
    pub(crate) fn edge_index(&self, peer: NodeId) -> Option<usize> {
        self.edges.binary_search_by_key(&peer, |e| e.link.peer).ok()
    }

    pub(crate) fn is_up(&self, wi: usize) -> bool {
        self.edges[wi].state == EdgeState::Up
    }

    pub(crate) fn is_dialing(&self, wi: usize) -> bool {
        self.edges[wi].state == EdgeState::Dialing
    }

    pub(crate) fn all_up(&self) -> bool {
        self.edges.iter().all(|e| e.state == EdgeState::Up)
    }

    pub(crate) fn stalled(&self) -> bool {
        self.stalled
    }

    /// When this node's timers next have work, if ever: the earliest
    /// redial, or ack an up edge owes on its own. [`NodeCore::tick`]
    /// dials, and the flush boundary at or after it sends the ack.
    pub(crate) fn next_deadline(&self) -> Option<T> {
        let due = |e: &Edge<T>| {
            let ack = e.link.next_ack().filter(|_| e.state == EdgeState::Up);
            e.link.next_redial().into_iter().chain(ack)
        };
        self.edges.iter().flat_map(due).min()
    }

    /// Bytes queued for edge `wi`'s connection (or dial).
    pub(crate) fn edge_out(&mut self, wi: usize) -> &mut WriteQueue {
        &mut self.edges[wi].out
    }

    pub(crate) fn client_out(&mut self, cid: ClientId) -> Option<&mut WriteQueue> {
        self.clients.get_mut(&cid)
    }

    pub(crate) fn set_wal_counters(&mut self, counters: WalCounters) {
        self.wal = counters;
    }

    /// Frames decoded on edge `wi`'s live connection. A corrupt stream
    /// (a bad frame length, a sequence gap) severs the edge; frames
    /// decoded before it still count.
    pub(crate) fn on_edge(&mut self, wi: usize, now: T, dec: &mut FrameDecoder) -> CoreStep {
        if self.edges[wi].state == EdgeState::Up && !self.drain_edge(wi, now, dec) {
            self.downed.push(wi);
            self.settle(now);
        }
        self.take_step()
    }

    /// A new client connection said hello; returns its id.
    pub(crate) fn client_up(&mut self) -> ClientId {
        let cid = self.next_client;
        self.next_client += 1;
        self.clients.insert(cid, WriteQueue::default());
        cid
    }

    /// Frames decoded on client `cid`'s connection. A protocol
    /// violation sets [`CoreStep::reject`]; requests decoded before it
    /// still complete.
    pub(crate) fn on_client(&mut self, cid: ClientId, now: T, dec: &mut FrameDecoder) -> CoreStep {
        let mut work = std::mem::take(&mut self.work);
        let keep = self.decode_client(cid, dec, &mut work);
        self.run_work(work, now);
        self.step.reject = !keep;
        self.take_step()
    }

    /// Client `cid` left or broke the protocol: forgets what was owed to
    /// it and hands back its queue (batches streamed) for a last flush.
    pub(crate) fn client_gone(&mut self, cid: ClientId) -> Option<WriteQueue> {
        self.stream_batches();
        self.book.purge(cid);
        // The per-tree refinement counter survives — a reconnecting
        // subscriber resumes on a monotone seq.
        for ts in self.tree_subs.values_mut() {
            ts.subs.retain(|s| s.conn != cid);
        }
        self.clients.remove(&cid)
    }

    /// A connection on edge `wi` carried the peer's hello: the link
    /// answers (our own hello first when `accepted`) and replays, and
    /// frames that rode in behind the hello are served. An accepted
    /// connection replaces the edge's; bytes queued for the old one are
    /// dropped — the sequenced replays re-deliver everything unacked.
    pub(crate) fn edge_up(
        &mut self,
        wi: usize,
        now: T,
        peer: (u64, u64),
        accepted: bool,
        dec: &mut FrameDecoder,
    ) -> CoreStep {
        let e = &mut self.edges[wi];
        if accepted {
            e.out.clear();
        }
        let step = e.link.on_hello(peer.0, peer.1, accepted, &mut e.out);
        e.state = EdgeState::Up;
        if std::mem::replace(&mut e.ever_up, true) {
            self.counters.reconnects += 1;
            oat_obs::trace_event!(oat_obs::EventKind::Reconnect, self.id.0, e.link.peer.0, 0);
        }
        self.apply(wi, step);
        self.on_edge(wi, now, dec)
    }

    /// Edge `wi`'s connection died (EOF, reset, a failed write), or its
    /// dial failed (connect, write, or a bad reply): a dialer redials at
    /// once after a lost connection, after a backoff after a failed dial.
    pub(crate) fn edge_down(&mut self, wi: usize, now: T) {
        let e = &mut self.edges[wi];
        match std::mem::replace(&mut e.state, EdgeState::Down) {
            EdgeState::Up => e.link.down(now),
            EdgeState::Dialing => e.link.dial_failed(now),
            EdgeState::Down => {}
        }
        e.out.clear();
    }

    /// The timers: every redial due at `now`.
    pub(crate) fn tick(&mut self, now: T) -> CoreStep {
        for e in &mut self.edges {
            if e.link.redial_due(now, e.state == EdgeState::Down) {
                e.state = EdgeState::Dialing;
                e.out.clear();
                e.link.hello(&mut e.out);
                self.step.dial = true;
            }
        }
        self.take_step()
    }

    /// The flush boundary at `now`, before the driver writes any queue:
    /// the acks owed on edges that have a frame queued for them to ride,
    /// or that are due ([`NodeCore::next_deadline`]); the backpressure state;
    /// and every batch accumulator streamed into its client queue.
    pub(crate) fn flush_prep(&mut self, now: T) {
        for e in &mut self.edges {
            let riding = !e.out.is_empty();
            if e.state == EdgeState::Up && e.link.flush_ack(now, riding, &mut e.out) && !riding {
                self.standalone_acks += 1;
            }
        }
        // Enter a stall at the high watermark, leave only once *every*
        // edge drained below the low one (hysteresis).
        let fullest = self.edges.iter().map(|e| e.link.unacked()).max();
        let fullest = fullest.unwrap_or(0);
        if !self.stalled && fullest >= self.env.rtx_high {
            self.stalled = true;
            self.backpressure_stalls += 1;
        } else if self.stalled && fullest <= self.env.rtx_low {
            self.stalled = false;
        }
        self.stream_batches();
    }

    /// Process-grade kill: what a SIGKILL takes goes — links, queues,
    /// batches, subscriptions, automata — and the node comes back from
    /// `state`, which its driver recovered from the log. Stats, counters
    /// and the completion log belong to the harness and survive.
    pub(crate) fn kill9(&mut self, now: T, state: WalState) -> CoreStep {
        oat_obs::trace_event!(oat_obs::EventKind::Crash, self.id.0, 1, 0);
        self.env.ledger.kill9s.fetch_add(1, Ordering::Relaxed);
        self.counters.restarts += 1;
        self.counters.kill9s += 1;
        for e in &mut self.edges {
            e.state = EdgeState::Down;
            e.out.clear();
        }
        self.clients.clear();
        self.book = BatchBook::default();
        self.tree_subs.clear();
        self.downed.clear();
        self.stalled = false;
        self.restore(now, state)
    }

    /// Rebuilds automata and links from recovered durable state: a cold
    /// start over an existing log, and the second half of a kill9.
    pub(crate) fn restore(&mut self, now: T, state: WalState) -> CoreStep {
        // Every tree's written value; tree 0 at identity when it has none.
        let mut vals = HashMap::from([(0, self.env.op.identity())]);
        for (&tree, bytes) in &state.vals {
            if let Ok(v) = A::Value::decode(&mut WireReader::new(bytes)) {
                vals.insert(tree, v);
            }
        }
        // Every link takes its recovered image (zero without one). What
        // that adds to the debt is charged now, what it removes at the
        // edge's next hello.
        let none = LinkState::default();
        for wi in 0..self.edges.len() {
            let peer = self.edges[wi].link.peer.0;
            let image = state.links.iter().find(|l| l.peer == peer);
            let step = self.edges[wi].link.restore(now, image.unwrap_or(&none));
            self.apply(wi, step);
        }
        // Newer than any epoch the dead incarnation could have used.
        self.reincarnate(self.epoch.max(state.epoch) + 1, 1, vals, now);
        self.take_step()
    }

    /// The node's durable state as a snapshot image.
    pub(crate) fn wal_state(&self) -> WalState {
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
            links: self.edges.iter().map(|e| e.link.snapshot()).collect(),
        }
    }

    /// Orderly end of the node. Combines still parked (a client gave up
    /// under faults) are dropped and counted.
    pub(crate) fn finish(mut self) -> NodeReport<A::Value> {
        self.abandoned += self.parked();
        NodeReport {
            log: self.insts[&0].mech.ghost().map(|g| g.log.clone()),
            stats: self.stats,
            completions: self.completions,
            delivered: self.delivered,
            abandoned: self.abandoned,
            faults: self.counters,
            wal: self.wal,
            standalone_acks: self.standalone_acks,
        }
    }

    fn take_step(&mut self) -> CoreStep {
        std::mem::take(&mut self.step)
    }

    /// Decodes and dispatches everything buffered on edge `wi`. Returns
    /// `false` when the stream is corrupt: a bad frame length, or a gap
    /// in the sequence.
    fn drain_edge(&mut self, wi: usize, now: T, dec: &mut FrameDecoder) -> bool {
        let mut work = std::mem::take(&mut self.work);
        let mut step = Step::default();
        let e = &mut self.edges[wi];
        let ok = loop {
            match dec.try_frame() {
                Ok(None) => break true,
                Err(_) => break false,
                Ok(Some((tag, payload))) => {
                    let (s, got) = e.link.receive(now, tag, &payload, EdgePayload::decode);
                    step += s;
                    if let Some(payload) = got {
                        work.push(Work::Peer {
                            from: e.link.peer,
                            payload,
                        });
                    }
                    // A gap: what follows on this connection is lost too.
                    if s.sever {
                        break false;
                    }
                }
            }
        };
        // One watermark record per drain, not per frame, logged before
        // dispatch so the delivered frames' own log records (sends they
        // trigger) sort after their cause.
        self.apply(wi, step);
        self.run_work(work, now);
        ok
    }

    /// Dispatches decoded work in order, then keeps the emptied buffer.
    fn run_work(&mut self, mut work: Vec<Work<A::Value>>, now: T) {
        let n = work.len() as u64;
        self.queue_peak = self.queue_peak.max(n);
        for (i, w) in (1..=n).zip(work.drain(..)) {
            self.queue_depth = n - i;
            self.dispatch(w, now);
        }
        self.work = work;
    }

    /// Decodes everything buffered on client `cid` into `work`. Returns
    /// `false` on a protocol violation (clients are untrusted).
    fn decode_client(
        &mut self,
        cid: ClientId,
        dec: &mut FrameDecoder,
        work: &mut Vec<Work<A::Value>>,
    ) -> bool {
        // A decoded combine or write.
        let admit = |id: NodeId, (req_id, tree, op)| {
            oat_obs::trace_event!(oat_obs::EventKind::ReqRecv, id.0, cid as u32, req_id);
            Work::Client {
                conn: cid,
                req_id,
                tree,
                op,
            }
        };
        loop {
            let (tag, payload) = match dec.try_frame() {
                Ok(None) => return true,
                Ok(Some(frame)) => frame,
                Err(_) => return false,
            };
            let mut r = WireReader::new(&payload);
            let item = match tag {
                TAG_SUB => r.u64("sub id").ok().and_then(|sub_id| {
                    let tree = r.u32("sub tree id").ok()?;
                    r.finish("sub trailing bytes").ok()?;
                    Some(Work::Sub {
                        conn: cid,
                        sub_id,
                        tree,
                    })
                }),
                TAG_REQ_METRICS => r
                    .u64("metrics req id")
                    .ok()
                    .map(|req_id| Work::Metrics { conn: cid, req_id }),
                TAG_REQ_BATCH => {
                    // All-or-nothing: every item must parse as a combine
                    // or write with a unique req id before anything is
                    // admitted, so a malformed batch can't half-execute.
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
                        return false;
                    };
                    let key = self.book.next_key;
                    self.book.next_key += 1;
                    let acc = BatchAcc {
                        remaining: parsed.len(),
                        items: Vec::with_capacity(parsed.len()),
                    };
                    self.book.accs.insert((cid, key), acc);
                    for req in parsed {
                        self.book.member.insert((cid, req.0), key);
                        work.push(admit(self.id, req));
                    }
                    continue;
                }
                tag => decode_request(tag, &payload)
                    .ok()
                    .map(|req| admit(self.id, req)),
            };
            let Some(item) = item else {
                return false;
            };
            work.push(item);
        }
    }

    /// Runs one work item through the automata. A handler panic is
    /// caught and converted into a crash-restart.
    fn dispatch(&mut self, work: Work<A::Value>, now: T) {
        let run = catch_unwind(AssertUnwindSafe(|| self.handle(work, now)));
        if run.is_err() {
            self.crash_restart(now);
        }
        self.settle(now);
    }

    /// The body of [`NodeCore::dispatch`]: one arm per kind of input,
    /// the same for every tree.
    fn handle(&mut self, work: Work<A::Value>, now: T) {
        match work {
            Work::Peer {
                from,
                payload: EdgePayload::Net { tree, msg },
            } => {
                self.delivered += 1;
                let mut out = Vec::new();
                let done = self.inst(tree).mech.handle_message(from, msg, &mut out);
                self.send_outbox(tree, out);
                match done {
                    Some(v) => {
                        self.answer_waiters(tree, &v);
                        self.push_partial(tree, &v);
                    }
                    // Propagated updates/invalidates refresh any
                    // subscribers served at this node.
                    None => self.refresh_tree(tree),
                }
                // Injected-fault triggers count delivered messages,
                // whatever tree carried them.
                if self.crash_at == Some(self.delivered) {
                    // Injected crash, at a clean point: the message is
                    // fully processed and accounted. Fires once.
                    self.crash_at = None;
                    self.env.ledger.crashes.fetch_add(1, Ordering::Relaxed);
                    self.crash_restart(now);
                } else if self.kill9_at == Some(self.delivered) {
                    // Injected process kill: the driver runs it once its
                    // current pass stops feeding this state.
                    self.kill9_at = None;
                    self.step.kill9 = true;
                }
            }
            Work::Peer {
                from,
                payload: EdgePayload::Reset,
            } => {
                // The peer restarted with every instance it hosted: run
                // the peer-reset transition on each of ours, tree 0
                // first, and start the revoke cascade.
                let mut trees: Vec<u32> = self.insts.keys().copied().collect();
                trees.sort_unstable();
                for tree in trees {
                    let mut out = Vec::new();
                    let revokes = self.inst(tree).mech.handle_peer_reset(from, &mut out);
                    self.send_outbox(tree, out);
                    self.send_revokes(tree, revokes);
                    self.refresh_tree(tree);
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
                self.send_outbox(tree, out);
                self.send_revokes(tree, next_hops);
                self.refresh_tree(tree);
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
                            // Logged (and synced) before the ack can flush:
                            // an acknowledged write survives any kill.
                            let mut bytes = Vec::with_capacity(16);
                            arg.encode(&mut bytes);
                            self.log(Record::write(tree, bytes));
                        }
                        self.inst(tree).mech.handle_write(arg, &mut out);
                        self.send_outbox(tree, out);
                        self.respond(conn, TAG_RESP_WRITE, &req_id.to_le_bytes());
                        oat_obs::trace_event!(
                            oat_obs::EventKind::RespTx,
                            self.id.0,
                            conn as u32,
                            req_id
                        );
                        self.refresh_tree(tree);
                    }
                    ReqOp::Combine => {
                        let inst = self.inst(tree);
                        let outcome = inst.mech.handle_combine(&mut out);
                        // A retried request must not park a second
                        // waiter (one response per (conn, req-id)).
                        if !matches!(outcome, CombineOutcome::Done(_))
                            && !inst.waiters.contains(&(conn, req_id))
                        {
                            inst.waiters.push((conn, req_id));
                        }
                        self.send_outbox(tree, out);
                        match outcome {
                            CombineOutcome::Done(v) => {
                                self.answer(tree, conn, req_id, &v);
                                self.push_partial(tree, &v);
                            }
                            CombineOutcome::Pending | CombineOutcome::Coalesced => {
                                self.refresh_tree(tree)
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
                // Prime the subscriber with the current value now.
                self.refresh_tree(tree);
            }
            Work::Metrics { conn, req_id } => {
                let metrics = self.snapshot_metrics();
                let mut payload = Vec::with_capacity(64);
                put_u64(&mut payload, req_id);
                metrics.encode(&mut payload);
                self.respond(conn, TAG_RESP_METRICS, &payload);
            }
        }
    }

    /// The instance serving `tree`, created on first touch.
    fn inst(&mut self, tree: u32) -> &mut Inst<S::Node, A> {
        let (env, id, epoch) = (&self.env, self.id, self.epoch);
        self.insts
            .entry(tree)
            .or_insert_with(|| new_inst(env, id, epoch, tree))
    }

    fn log(&mut self, rec: Record) {
        self.step.records.push(WalOp::Append(rec));
    }

    /// Buffers a handler's outbox for `tree` onto the sequenced links,
    /// recording stats per frame.
    fn send_outbox(&mut self, tree: u32, out: Outbox<A::Value>) {
        for (to, msg) in out {
            self.stats
                .record(self.env.tree.dir_edge_index(self.id, to), msg.kind());
            self.step.sent += 1;
            let wi = self.edge_index(to).expect("messages go to neighbours");
            self.send_edge(wi, EdgePayload::Net { tree, msg });
        }
    }

    /// Queues a revoke for `tree` toward each of `to`.
    fn send_revokes(&mut self, tree: u32, to: Vec<NodeId>) {
        for t in to {
            let wi = self.edge_index(t).expect("revokes go to neighbours");
            self.send_edge(wi, EdgePayload::Revoke { tree });
        }
    }

    /// Sends `payload` on edge `wi`, logged before it can reach a socket.
    fn send_edge(&mut self, wi: usize, payload: EdgePayload<A::Value>) {
        let mut body = Vec::with_capacity(36);
        let inner = payload.encode(&mut body);
        let e = &mut self.edges[wi];
        let out = (e.state == EdgeState::Up).then_some(&mut e.out);
        let step = e.link.send(inner, body, out, &self.env.ledger);
        if self.durable {
            let (seq, inner, body) = e.link.newest();
            let send = Record::Send {
                peer: e.link.peer.0,
                seq,
                inner,
                body: body.to_vec(),
            };
            self.log(send);
        }
        self.apply(wi, step);
    }

    /// Takes in a link [`Step`]: debt, moved watermarks and renumberings
    /// for the log, counts, a sever.
    fn apply(&mut self, wi: usize, step: Step) {
        self.step.debt += step.debt;
        self.counters.retransmits += step.resent;
        if self.durable {
            let peer = self.edges[wi].link.peer.0;
            if let Some(rx_seq) = step.rx {
                self.log(Record::Rx { peer, rx_seq });
            }
            if let Some(acked) = step.acked {
                self.log(Record::Ack { peer, acked });
            }
            if step.renumbered {
                let image = self.wal_state();
                self.step.records.push(WalOp::Snapshot(image));
            }
        }
        if step.sever {
            self.downed.push(wi);
        }
    }

    /// Marks every severed edge down exactly once.
    fn settle(&mut self, now: T) {
        while let Some(wi) = self.downed.pop() {
            if self.edges[wi].state == EdgeState::Up {
                self.edge_down(wi, now);
                self.step.severed = true;
            }
        }
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
        self.respond(conn, TAG_RESP_COMBINE, &payload);
        oat_obs::trace_event!(oat_obs::EventKind::RespTx, self.id.0, conn as u32, req_id);
        self.served += 1;
        if tree == 0 {
            // The completion log is a tree-0 sim-parity artifact.
            self.completions.push((self.id, v.clone()));
        }
    }

    /// Queues one response frame for a client. A missing queue means the
    /// client vanished; its responses are dropped — clients are
    /// untrusted peers, their disappearance must not kill a node.
    ///
    /// Responses owed to an in-progress batch are routed into its
    /// accumulator instead; the gathered items *stream* out as
    /// `TAG_RESP_BATCH` frames at flush boundaries (see [`BatchBook`]),
    /// so a completed member never waits behind the roster's slowest.
    fn respond(&mut self, conn: ClientId, tag: u8, payload: &[u8]) {
        if payload.len() >= 8 {
            let req_id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            if let Some(key) = self.book.member.remove(&(conn, req_id)) {
                let acc = self
                    .book
                    .accs
                    .get_mut(&(conn, key))
                    .expect("member implies acc");
                acc.items.push((tag, payload.to_vec()));
                acc.remaining -= 1;
                return;
            }
        }
        if let Some(q) = self.clients.get_mut(&conn) {
            q.frame(tag, payload);
        }
    }

    /// Emits every non-empty batch accumulator as a `TAG_RESP_BATCH`
    /// frame and retires accumulators whose roster is exhausted.
    fn stream_batches(&mut self) {
        if self.book.accs.is_empty() {
            return;
        }
        let clients = &mut self.clients;
        self.book.accs.retain(|&(cid, _), acc| {
            if !acc.items.is_empty() {
                let frame = encode_batch(&acc.items);
                acc.items.clear();
                if let Some(q) = clients.get_mut(&cid) {
                    q.frame(TAG_RESP_BATCH, &frame);
                }
            }
            acc.remaining > 0
        });
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
            if let Some(q) = self.clients.get_mut(&s.conn) {
                q.frame(TAG_PARTIAL, &p);
            }
            oat_obs::trace_event!(
                oat_obs::EventKind::PartialTx,
                self.id.0,
                s.conn as u32,
                ts.push_seq
            );
        }
    }

    /// Re-runs the combine of a tree with subscribers here whenever work
    /// touched it: a `Done` pushes now, a pending probe's completion
    /// pushes from the message arm. No-op without subscribers.
    fn refresh_tree(&mut self, tree: u32) {
        if self
            .tree_subs
            .get(&tree)
            .is_none_or(|ts| ts.subs.is_empty())
        {
            return;
        }
        let mut out = Vec::new();
        let outcome = self.inst(tree).mech.handle_combine(&mut out);
        self.send_outbox(tree, out);
        if let CombineOutcome::Done(v) = outcome {
            self.push_partial(tree, &v);
        }
    }

    /// Destroys every automaton instance after a crash (injected or
    /// panicked) and starts the next incarnation; see the module docs.
    /// Fresh instances may regress below the last pushed value, so every
    /// subscriber is re-primed at the next refresh, on a monotone seq.
    fn crash_restart(&mut self, now: T) {
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
        self.reincarnate(self.epoch + 1, 0, vals, now);
    }

    /// Starts incarnation `epoch`, logged first so the next one moves past
    /// it even on a torn tail (the epoch lets new automata discard
    /// responses addressed to the dead ones). Every instance goes with
    /// its waiters; one per entry of `vals` (tree 0 included) comes back
    /// holding its written value; then a sequenced `RESET` on every edge,
    /// kept in the retransmit buffer of a down edge so the peer learns of
    /// the restart in FIFO position. `kind` tags the trace: 0 for a crash,
    /// 1 for a recovery from the log.
    fn reincarnate(&mut self, epoch: u64, kind: u32, vals: HashMap<u32, A::Value>, now: T) {
        self.abandoned += self.parked();
        self.epoch = epoch;
        if self.durable {
            self.log(Record::Epoch { epoch });
        }
        oat_obs::trace_event!(oat_obs::EventKind::Restart, self.id.0, kind, epoch);
        // A fresh instance holds no grants, so restoring its value emits
        // nothing.
        let (env, id) = (&self.env, self.id);
        self.insts = vals
            .into_iter()
            .map(|(tree, val)| {
                let mut inst = new_inst(env, id, epoch, tree);
                let mut sink = Vec::new();
                inst.mech.handle_write(val, &mut sink);
                debug_assert!(sink.is_empty());
                (tree, inst)
            })
            .collect();
        debug_assert!(self.insts.contains_key(&0));
        for wi in 0..self.edges.len() {
            self.send_edge(wi, EdgePayload::Reset);
        }
        self.settle(now);
    }

    /// Combines parked on every instance, dropped unanswered with them.
    fn parked(&self) -> u64 {
        self.insts.values().map(|i| i.waiters.len() as u64).sum()
    }

    /// This node's metrics: leases, parked combines and served combines
    /// count over every tree instance (a lease once per tree).
    fn snapshot_metrics(&self) -> NodeMetrics {
        let tree = &self.env.tree;
        let edges = self.edges.iter().map(|e| {
            let sent = self.stats.per_edge_counts()[tree.dir_edge_index(self.id, e.link.peer)];
            (e.link.peer.0, sent)
        });
        let (mut taken, mut granted) = (0, 0);
        for inst in self.insts.values() {
            let mech = &inst.mech;
            let nbrs = 0..mech.nbrs().len();
            taken += nbrs.clone().filter(|&vi| mech.taken(vi)).count() as u32;
            granted += nbrs.filter(|&vi| mech.granted(vi)).count() as u32;
        }
        NodeMetrics {
            node: self.id.0,
            sent_by_kind: self.stats.kind_totals(),
            delivered: self.delivered,
            edges: edges.collect(),
            leases_taken: taken,
            leases_granted: granted,
            queue_depth: self.queue_depth,
            queue_peak: self.queue_peak,
            pending_combines: self.parked(),
            combines_served: self.served,
            reconnects: self.counters.reconnects,
            retransmits: self.counters.retransmits,
            dup_drops: self.edges.iter().map(|e| e.link.dup_drops).sum(),
            timeouts: 0,
            restarts: self.counters.restarts,
            kill9s: self.counters.kill9s,
            backpressure_stalls: self.backpressure_stalls,
            wal_records: self.wal.records,
            wal_fsyncs: self.wal.fsyncs,
            wal_replays: self.wal.replays,
            wal_torn_bytes: self.wal.torn_bytes,
            wal_snapshots: self.wal.snapshots,
        }
    }
}

/// A fresh automaton instance for `tree` at incarnation `epoch`: the
/// one constructor, used at birth, on first touch and by every restart.
/// Only instance 0 keeps a ghost log.
fn new_inst<S: PolicySpec, A: AggOp>(
    env: &Env<S, A>,
    id: NodeId,
    epoch: u64,
    tree: u32,
) -> Inst<S::Node, A> {
    let mut mech = MechNode::new(
        &env.tree,
        id,
        env.op.clone(),
        env.spec.build(env.tree.degree(id)),
        env.ghost && tree == 0,
    );
    mech.set_epoch(epoch);
    Inst {
        mech,
        waiters: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_request, write_frame, TAG_HELLO_EDGE};
    use crate::link::parse_hello;
    use oat_core::agg::SumI64;
    use oat_core::fault::{CrashNode, KillConn};
    use oat_core::policy::rww::RwwSpec;
    use oat_core::request::Request;
    use oat_wal::{encode_record, replay_log};
    use oat_workloads::{random_tree, uniform};

    type Core = NodeCore<RwwSpec, SumI64, Duration>;

    /// Everything `q` holds, as bytes.
    fn bytes_of(q: &mut WriteQueue) -> Vec<u8> {
        let mut bytes = Vec::new();
        let drained = q.write_to(|iov| {
            Ok(iov
                .iter()
                .map(|s| {
                    bytes.extend_from_slice(s);
                    s.len()
                })
                .sum())
        });
        assert!(drained.unwrap());
        bytes
    }

    /// Every complete frame in `dec`.
    fn frames(dec: &mut FrameDecoder) -> Vec<(u8, Vec<u8>)> {
        std::iter::from_fn(|| dec.try_frame().expect("well-formed frames")).collect()
    }

    /// The request id (or sub id) that leads every response payload.
    fn id_of(payload: &[u8]) -> u64 {
        u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"))
    }

    /// `(sub id, tree, seq, value)` of every partial among `frames`.
    fn partials(frames: &[(u8, Vec<u8>)]) -> Vec<(u64, u32, u64, i64)> {
        let word = |p: &[u8], at: usize| u64::from_le_bytes(p[at..at + 8].try_into().unwrap());
        frames
            .iter()
            .filter(|(tag, _)| *tag == TAG_PARTIAL)
            .map(|(_, p)| {
                let tree = u32::from_le_bytes(p[8..12].try_into().unwrap());
                (word(p, 0), tree, word(p, 12), word(p, 20) as i64)
            })
            .collect()
    }

    fn sub(id: u64, tree: u32) -> Vec<u8> {
        let mut p = id.to_le_bytes().to_vec();
        p.extend_from_slice(&tree.to_le_bytes());
        p
    }

    /// One harness node: its core, the log it emitted, its end of every
    /// edge's in-memory connection, and one client.
    struct Node {
        core: Core,
        /// Per edge: bytes received on the open connection, and whether
        /// that connection's hello was taken.
        inbox: Vec<(FrameDecoder, bool)>,
        /// The log, folded in memory: the last snapshot and the records
        /// appended since.
        base: WalState,
        log: Vec<u8>,
        client: ClientId,
        /// Bytes the client received.
        replies: FrameDecoder,
    }

    /// `n` cores wired through in-memory connections on a virtual clock:
    /// the two-end channel of `link.rs`'s tests, extended to a tree. The
    /// lower id of each edge dials, as in the runtime.
    struct Net {
        nodes: Vec<Node>,
        /// Undirected edges `(lo, hi)` with an open connection.
        open: HashMap<(usize, usize), bool>,
        now: Duration,
        /// Σ debt over every step: never below the frames numbered and
        /// not yet delivered, and equal to them once every hello is done.
        debt: i64,
        sent: u64,
        /// splitmix64 state of the delivery order.
        rng: u64,
        env: Rc<Env<RwwSpec, SumI64>>,
    }

    impl Net {
        fn new(tree: &Tree, plan: &FaultPlan, seed: u64) -> Net {
            let env = Rc::new(Env {
                tree: tree.clone(),
                op: SumI64,
                spec: RwwSpec,
                ghost: false,
                ledger: Arc::default(),
                rtx_high: RTX_DEFAULT_HIGH,
                rtx_low: RTX_DEFAULT_LOW,
            });
            let nodes = tree
                .nodes()
                .map(|u| {
                    let mut core = Core::new(Rc::clone(&env), u, plan, true, Duration::ZERO);
                    Node {
                        client: core.client_up(),
                        inbox: (0..core.degree()).map(|_| Default::default()).collect(),
                        core,
                        base: WalState::default(),
                        log: Vec::new(),
                        replies: FrameDecoder::new(),
                    }
                })
                .collect();
            let mut net = Net {
                nodes,
                open: HashMap::new(),
                now: Duration::ZERO,
                debt: 0,
                sent: 0,
                rng: seed,
                env,
            };
            net.run().expect("the tree links up");
            net
        }

        fn below(&mut self, n: usize) -> usize {
            self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// The other end of node `u`'s edge `wi`: `(v, wj, edge key)`.
        fn far(&self, u: usize, wi: usize) -> (usize, usize, (usize, usize)) {
            let v = self.nodes[u].core.peer(wi).idx();
            let wj = self.nodes[v].core.edge_index(NodeId(u as u32)).unwrap();
            (v, wj, (u.min(v), u.max(v)))
        }

        /// Carries out a step the way the driver does.
        fn absorb(&mut self, u: usize, step: CoreStep) {
            self.debt += step.debt;
            self.sent += step.sent;
            let n = &mut self.nodes[u];
            for op in step.records {
                match op {
                    WalOp::Append(rec) => encode_record(&rec, &mut n.log),
                    WalOp::Snapshot(image) => {
                        n.base = image;
                        n.log.clear();
                    }
                }
            }
            // Fold the log now and then, like the driver's snapshots.
            if n.log.len() > 4096 {
                n.base = n.core.wal_state();
                n.log.clear();
            }
            for wi in 0..self.nodes[u].core.degree() {
                let core = &self.nodes[u].core;
                if step.severed && !core.is_up(wi) {
                    self.cut(u, wi);
                } else if step.dial && core.is_dialing(wi) {
                    let (v, wj, key) = self.far(u, wi);
                    self.open.insert(key, true);
                    self.nodes[u].inbox[wi] = Default::default();
                    self.nodes[v].inbox[wj] = Default::default();
                }
            }
            if step.kill9 {
                self.kill9(u);
            }
        }

        /// The connection under node `u`'s edge `wi` dies: both ends
        /// see it go.
        fn cut(&mut self, u: usize, wi: usize) {
            let (v, wj, key) = self.far(u, wi);
            if self.open.insert(key, false) != Some(true) {
                return;
            }
            for (x, wx) in [(u, wi), (v, wj)] {
                let n = &mut self.nodes[x];
                n.inbox[wx] = Default::default();
                n.core.edge_down(wx, self.now);
            }
        }

        /// Node `u` loses its process and comes back from its log; its
        /// client reconnects.
        fn kill9(&mut self, u: usize) {
            for wi in 0..self.nodes[u].core.degree() {
                self.cut(u, wi);
            }
            let n = &mut self.nodes[u];
            let state = replay_log(n.base.clone(), &n.log).state;
            let step = n.core.kill9(self.now, state);
            n.client = n.core.client_up();
            n.replies = FrameDecoder::new();
            self.absorb(u, step);
        }

        /// Moves what node `u` queued on edge `wi` to the far end.
        fn pump(&mut self, u: usize, wi: usize) -> bool {
            let bytes = bytes_of(self.nodes[u].core.edge_out(wi));
            let (v, wj, key) = self.far(u, wi);
            if bytes.is_empty() || self.open.get(&key) != Some(&true) {
                return !bytes.is_empty();
            }
            let n = &mut self.nodes[v];
            let (dec, hello) = &mut n.inbox[wj];
            dec.extend(&bytes);
            let step = if *hello {
                n.core.on_edge(wj, self.now, dec)
            } else {
                match dec.try_frame().unwrap() {
                    None => return true,
                    Some((TAG_HELLO_EDGE, p)) => {
                        *hello = true;
                        let (id, rx, acked) = parse_hello(&p).unwrap();
                        assert_eq!(id.idx(), u);
                        n.core.edge_up(wj, self.now, (rx, acked), v > u, dec)
                    }
                    Some(other) => panic!("{other:?} before the hello"),
                }
            };
            self.absorb(v, step);
            true
        }

        /// Moves bytes, in a seeded order, until nothing is undelivered,
        /// advancing the clock to the earliest timer (a redial, an ack
        /// due) whenever no byte moves.
        fn run(&mut self) -> Result<(), String> {
            for _ in 0..8000 {
                let mut moved = false;
                let (n, start) = (self.nodes.len(), self.below(self.nodes.len()));
                for u in (0..n).map(|k| (start + k) % n) {
                    self.nodes[u].core.flush_prep(self.now);
                    for wi in 0..self.nodes[u].core.degree() {
                        moved |= self.pump(u, wi);
                    }
                    let node = &mut self.nodes[u];
                    if let Some(q) = node.core.client_out(node.client) {
                        node.replies.extend(&bytes_of(q));
                    }
                }
                self.check_debt()?;
                if moved {
                    continue;
                }
                if self.debt == 0 && self.nodes.iter().all(|n| n.core.all_up()) {
                    return Ok(());
                }
                let deadlines = self.nodes.iter().filter_map(|n| n.core.next_deadline());
                let Some(next) = deadlines.min() else {
                    return Err("the network wedged: nothing moves, no timer is armed".into());
                };
                self.now = self.now.max(next);
                for u in 0..n {
                    let step = self.nodes[u].core.tick(self.now);
                    self.absorb(u, step);
                }
            }
            Err("the network never settled".into())
        }

        /// The debt is never below the frames numbered and not yet
        /// delivered, and equals Σ (sender `tx_seq` − receiver `rx_seq`)
        /// over the directed edges once every edge is up with its hellos
        /// done.
        fn check_debt(&self) -> Result<(), String> {
            let (mut undelivered, mut owed, mut settled) = (0, 0, true);
            for (u, node) in self.nodes.iter().enumerate() {
                for (wi, e) in node.core.edges.iter().enumerate() {
                    let (v, wj, _) = self.far(u, wi);
                    let far = &self.nodes[v].core.edges[wj];
                    let peer_rx = far.link.seqs().1;
                    undelivered += e.link.undelivered(peer_rx);
                    owed += e.link.seqs().0 as i64 - peer_rx as i64;
                    settled &= e.state == EdgeState::Up && e.link.restore_settled();
                }
            }
            if self.debt < undelivered as i64 {
                return Err(format!(
                    "debt {} below {undelivered} undelivered frames",
                    self.debt
                ));
            }
            if settled && self.debt != owed {
                return Err(format!("debt {} but Σ(tx − peer rx) = {owed}", self.debt));
            }
            Ok(())
        }

        /// Hands client `cid` of node `u` one frame.
        fn client_frame(&mut self, u: usize, cid: ClientId, tag: u8, payload: &[u8]) {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, tag, payload).unwrap();
            let mut dec = FrameDecoder::new();
            dec.extend(&bytes);
            let step = self.nodes[u].core.on_client(cid, self.now, &mut dec);
            assert!(!step.reject);
            self.absorb(u, step);
        }

        /// Runs one request of the harness client at `u` to its answer,
        /// re-sending it under the same id while it goes unanswered: a
        /// crash drops parked combines, a kill9 the client's connection.
        /// A combine's answer is `Some`.
        fn request(&mut self, u: usize, id: u64, op: &ReqOp<i64>) -> Result<Option<i64>, String> {
            let (tag, payload) = encode_request(id, 0, op);
            for _ in 0..20 {
                self.client_frame(u, self.nodes[u].client, tag, &payload);
                self.run()?;
                for (tag, p) in frames(&mut self.nodes[u].replies) {
                    match tag {
                        _ if id_of(&p) != id => {}
                        TAG_RESP_COMBINE => return Ok(Some(id_of(&p[8..]) as i64)),
                        _ => return Ok(None),
                    }
                }
            }
            Err(format!("request {id} at node {u} never answered"))
        }

        fn stats(&self, tree: &Tree) -> MsgStats {
            let mut stats = MsgStats::new(tree);
            for n in &self.nodes {
                stats.merge(&n.core.stats);
            }
            stats
        }
    }

    /// Sequential replays give the simulator's per-edge, per-kind counts.
    #[test]
    fn sequential_replays_match_the_simulator_without_sockets() {
        for (tree, seed) in [
            (Tree::path(6), 1),
            (Tree::star(7), 2),
            (Tree::kary(10, 3), 3),
            (random_tree(12, 4), 4),
            (random_tree(9, 5), 5),
        ] {
            let seq = uniform(&tree, 60, 0.5, seed);
            let sim = oat_sim::run_sequential(
                &tree,
                SumI64,
                &RwwSpec,
                oat_sim::Schedule::Fifo,
                &seq,
                false,
            );
            let mut net = Net::new(&tree, &FaultPlan::default(), seed);
            let mut combines = Vec::new();
            let mut per_request = Vec::new();
            for (i, Request { node, op }) in seq.iter().enumerate() {
                let before = net.sent;
                if let Some(v) = net.request(node.idx(), i as u64 + 1, op).unwrap() {
                    combines.push((i, v));
                }
                per_request.push(net.sent - before);
            }
            assert_eq!(combines, sim.combines, "seed {seed}");
            assert_eq!(per_request, sim.per_request_msgs, "seed {seed}");
            let stats = net.stats(&tree);
            let want = sim.engine.stats();
            assert_eq!(
                stats.per_edge_counts(),
                want.per_edge_counts(),
                "seed {seed}"
            );
        }
    }

    /// One seeded schedule: drops, duplicates and delays on every edge,
    /// two connection kills, one crash and one kill9 recovered from the
    /// records the core emitted. Every combine must equal the oracle.
    fn faulted_schedule(seed: u64) -> Result<[u64; 3], String> {
        let tree = match seed % 4 {
            0 => Tree::path(5),
            1 => Tree::star(5),
            2 => Tree::kary(7, 2),
            _ => random_tree(6, seed),
        };
        let mut pick = Net::new(&Tree::pair(), &FaultPlan::default(), seed);
        let n = tree.len();
        let mut kills = Vec::new();
        for _ in 0..2 {
            let from = NodeId(pick.below(n) as u32);
            let nbrs = tree.nbrs(from);
            let to = nbrs[pick.below(nbrs.len())];
            let after_frames = 1 + pick.below(12) as u64;
            kills.push(KillConn {
                from,
                to,
                after_frames,
            });
        }
        // Two distinct victims; every combine at a victim after the
        // workload is answered through messages it receives.
        let first = pick.below(n);
        let second = (first + 1 + pick.below(n - 1)) % n;
        let victims = [first, second].map(|v| NodeId(v as u32));
        let mut node = |node: NodeId| CrashNode {
            node,
            after_delivered: 1 + pick.below(6) as u64,
        };
        let plan = FaultPlan {
            seed,
            drop_p: 0.05,
            dup_p: 0.05,
            delay_p: 0.02,
            kills,
            crashes: vec![node(victims[0])],
            kill9s: vec![node(victims[1])],
            ..FaultPlan::default()
        };
        let mut seq = uniform(&tree, 24, 0.5, seed);
        for round in 0..4 {
            for v in victims {
                let other = NodeId((v.0 + 1 + round) % n as u32);
                seq.push(Request::write(other, i64::from(round) - 7));
                seq.push(Request::combine(v));
            }
        }
        let mut net = Net::new(&tree, &plan, seed);
        let mut latest = vec![0i64; n];
        for (i, Request { node, op }) in seq.iter().enumerate() {
            if let ReqOp::Write(v) = op {
                latest[node.idx()] = *v;
            }
            let got = net.request(node.idx(), i as u64 + 1, op)?;
            let want: i64 = latest.iter().sum();
            if got.is_some_and(|v| v != want) {
                return Err(format!("request {i}: combine {got:?}, oracle {want}"));
            }
        }
        let ledger = &net.env.ledger;
        let fired = [&ledger.crashes, &ledger.kill9s].map(|c| c.load(Ordering::Relaxed));
        if fired != [1, 1] {
            return Err(format!("crash and kill9 fired {fired:?} times"));
        }
        let injected = [&ledger.drops, &ledger.dups, &ledger.conns_killed];
        Ok(injected.map(|c| c.load(Ordering::Relaxed)))
    }

    #[test]
    fn faulted_schedules_match_the_oracle_without_sockets() {
        let mut injected = [0; 3];
        let mut failed = Vec::new();
        // Seeds 3140 and 3271 once caught a fan-out's probe sent twice
        // after a peer reset (see `MechNode::probing`).
        let seeds: Vec<u64> = (0..500).chain([3140, 3271]).collect();
        for &seed in &seeds {
            match faulted_schedule(seed) {
                Ok(counts) => (0..3).for_each(|k| injected[k] += counts[k]),
                Err(e) => failed.push(format!("seed {seed}: {e}")),
            }
        }
        assert!(
            failed.is_empty(),
            "{} of {} seeds failed:\n{}",
            failed.len(),
            seeds.len(),
            failed[..failed.len().min(5)].join("\n")
        );
        assert!(
            injected.iter().all(|&c| c > 100),
            "drops, dups, kills: {injected:?}"
        );
    }

    /// A batch whose combine member is retried: the parked waiter is not
    /// doubled, the member's first answer (to the retry, after a crash
    /// dropped the original waiter) goes into the batch and strikes it,
    /// a later answer goes direct, no item appears twice across the
    /// batch's response frames, and the accumulator retires.
    #[test]
    fn a_retried_batch_member_is_struck_once_and_the_batch_retires() {
        let mut net = Net::new(&Tree::pair(), &FaultPlan::default(), 0);
        let cid = net.nodes[1].client;
        let combine = encode_request(1, 0, &ReqOp::<i64>::Combine).1;
        let items = [
            encode_request(1, 0, &ReqOp::<i64>::Combine),
            encode_request(2, 0, &ReqOp::Write(4i64)),
        ];
        net.client_frame(1, cid, TAG_REQ_BATCH, &encode_batch(&items));
        net.client_frame(1, cid, 3, &combine);
        assert_eq!(net.nodes[1].core.insts[&0].waiters, [(cid, 1)]);
        // The crash drops the parked combine before its probe returns.
        net.nodes[1].core.crash_restart(net.now);
        let step = net.nodes[1].core.take_step();
        net.absorb(1, step);
        net.run().unwrap();
        for _ in 0..2 {
            net.client_frame(1, cid, 3, &combine);
            net.run().unwrap();
        }
        let (mut batched, mut direct) = (Vec::new(), Vec::new());
        for (tag, p) in frames(&mut net.nodes[1].replies) {
            if tag == TAG_RESP_BATCH {
                batched.extend(decode_batch(&p).unwrap().iter().map(|(_, q)| id_of(q)));
            } else {
                direct.push((tag, id_of(&p)));
            }
        }
        batched.sort_unstable();
        assert_eq!(batched, [1, 2], "each member once across the batch frames");
        assert_eq!(
            direct,
            [(TAG_RESP_COMBINE, 1)],
            "the later retry answered direct"
        );
        let book = &net.nodes[1].core.book;
        assert!(
            book.member.is_empty() && book.accs.is_empty(),
            "the batch retired"
        );
    }

    /// Subscriptions: idempotent per (conn, sub id); a fresh subscriber is
    /// primed although the value is unchanged, primed ones are not pushed
    /// it again; a crash re-primes every subscriber on a monotone seq.
    #[test]
    fn subscribers_are_primed_once_and_reprimed_after_a_crash() {
        let mut net = Net::new(&Tree::pair(), &FaultPlan::default(), 0);
        let (a, b) = (net.nodes[0].client, net.nodes[0].core.client_up());
        // What client `cid` of node 0 was pushed since the last look.
        let heard = |net: &mut Net, cid| {
            let node = &mut net.nodes[0];
            let mut dec = match cid == node.client {
                true => std::mem::take(&mut node.replies),
                false => FrameDecoder::new(),
            };
            dec.extend(&bytes_of(node.core.client_out(cid).unwrap()));
            partials(&frames(&mut dec))
        };
        net.client_frame(0, a, TAG_SUB, &sub(7, 3));
        net.client_frame(0, a, TAG_SUB, &sub(7, 3));
        net.run().unwrap();
        assert_eq!(net.nodes[0].core.tree_subs[&3].subs.len(), 1);
        assert_eq!(heard(&mut net, a), [(7, 3, 1, 0)], "one priming push");
        net.client_frame(0, b, TAG_SUB, &sub(8, 3));
        net.run().unwrap();
        assert_eq!(
            heard(&mut net, b),
            [(8, 3, 1, 0)],
            "primed on an unchanged value"
        );
        assert_eq!(heard(&mut net, a), [], "not pushed again");
        let write = encode_request(1, 3, &ReqOp::Write(5i64));
        let writer = net.nodes[1].client;
        net.client_frame(1, writer, write.0, &write.1);
        net.run().unwrap();
        assert_eq!(heard(&mut net, a), [(7, 3, 2, 5)]);
        assert_eq!(heard(&mut net, b), [(8, 3, 2, 5)]);
        net.nodes[0].core.crash_restart(net.now);
        let step = net.nodes[0].core.take_step();
        net.absorb(0, step);
        net.run().unwrap();
        let combine = encode_request(2, 3, &ReqOp::<i64>::Combine);
        net.client_frame(0, a, combine.0, &combine.1);
        net.run().unwrap();
        assert_eq!(
            heard(&mut net, a),
            [(7, 3, 3, 5)],
            "re-primed, seq still rising"
        );
        assert_eq!(heard(&mut net, b), [(8, 3, 3, 5)]);
    }
}
