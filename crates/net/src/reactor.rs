//! The reactor runtime: event-loop threads that move bytes between
//! non-blocking sockets and the nodes' sans-IO cores.
//!
//! ## Thread model
//!
//! A cluster runs a small fixed pool of reactor threads (default
//! `min(cores, 4)`), each owning one contiguous block of a depth-first
//! preorder of the tree (`crate::placement`: connected subtrees, so most
//! edges join two nodes of one thread) and *all* of their I/O —
//! listener, edge and client connections, redial timers, write-ahead
//! log — so per-node state needs no locks, no inbox channel and no
//! reader threads. Thread count is O(pool), not O(nodes)
//! (`ClusterReport::threads_spawned`).
//!
//! ## Ownership
//!
//! Each node is a [`NodeIo`] around its [`NodeCore`] (`crate::core`),
//! which decides everything and touches nothing. The `NodeIo` holds what
//! the operating system hands out — the listener, the pre-hello, edge,
//! dial and client [`Conn`]s, the [`WalDurability`] log — and carries out
//! each [`CoreStep`]: log records appended, the cluster's [`InFlight`]
//! counter charged or settled, severed edges closed, dials placed, a
//! kill9 run at the end of the pass. Its timers are the core's redials
//! and ack deadlines, of which the reactor keeps one per node, the
//! earliest ([`NodeCore::next_deadline`]): an ack no frame carried goes
//! out on its own at the first flush past its deadline. No timer
//! re-sends a frame: a lost frame severs its connection, and the
//! reconnect replays it.
//!
//! ## The readiness loop
//!
//! Each reactor owns one [`Poller`], a level-triggered epoll instance. A
//! socket is registered once, where it is adopted (the waker and the
//! listeners at spawn, every other socket by [`Conn::new`]), under a
//! packed [`Tok`] naming its node and role; a hello that promotes it
//! re-tokens it, and [`Conn`]'s drop removes it before the descriptor
//! closes. `POLLOUT` is armed by a flush that hits `WouldBlock` and
//! disarmed by one that drains. While a core is stalled (backpressure)
//! its client sockets leave the poller outright ([`Conn::park`]): epoll
//! reports a hangup whatever the mask, so a masked socket would spin.
//!
//! A wakeup costs what is ready, not what exists: each ready socket is
//! read in bounded chunks into its [`FrameDecoder`] and its core takes
//! the complete frames inline. Cores only *queue* bytes; then the nodes
//! an event named, those whose timer fired and those holding bytes no
//! `POLLOUT` announces (a ring link awaiting its space-freed nudge) are
//! flushed — every such node's edges first ([`NodeIo::flush_edges`]),
//! then their clients ([`NodeIo::flush_clients`]), so a client a response
//! wakes never runs ahead of mechanism frames already queued. The only
//! walk over all nodes is the memory-only scan of their deadlines, which
//! yields the sleep bound and the nodes whose timers are due; the waker,
//! for shutdown, is the only cross-thread signal.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use oat_core::agg::AggOp;
use oat_core::fault::{FaultPlan, InjectedFaults};
use oat_core::policy::PolicySpec;
use oat_core::tree::{NodeId, Tree};
use oat_core::wire::WireValue;
use oat_poll::{Events, Poller, POLLIN, POLLOUT};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;

use crate::core::{ClientId, CoreStep, Env, NodeCore, NodeReport};
use crate::durability::WalDurability;
use crate::frame::{FrameDecoder, WriteQueue, TAG_HELLO_CLIENT, TAG_HELLO_EDGE};
use crate::link::parse_hello;
use crate::transport::{Listener, NodeAddr, Stream};

/// Cluster-wide in-flight work counter: each edge frame holds one unit
/// of debt from the step that numbers it to the step that delivers and
/// handles it (`crate::link`, "Quiescence accounting"), and
/// [`InFlight::wait_zero`] parks on a condvar that [`InFlight::add`]
/// notifies exactly when the count hits zero. Acks settle no frame, so
/// the count never waits on one.
pub(crate) struct InFlight {
    n: AtomicI64,
    mu: Mutex<()>,
    cv: Condvar,
}

impl InFlight {
    pub(crate) fn new() -> InFlight {
        InFlight {
            n: AtomicI64::new(0),
            mu: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Charges `d` units of debt (settles `-d` when negative). A step
    /// whose charges and settles cancel still calls this with 0: the
    /// read-modify-write is what orders its `total_sent` increment
    /// before a `quiesce()` that sees zero (`Cluster::total_messages`).
    pub(crate) fn add(&self, d: i64) {
        let n = self.n.fetch_add(d, Ordering::SeqCst) + d;
        debug_assert!(n >= 0, "in-flight debt went negative: {n}");
        if n == 0 {
            // Take the lock before notifying so a waiter that observed a
            // non-zero count cannot park between our decrement and this
            // notification (it re-checks the count under the lock).
            let _g = self.mu.lock().unwrap();
            self.cv.notify_all();
        }
    }

    pub(crate) fn load(&self) -> i64 {
        self.n.load(Ordering::SeqCst)
    }

    /// Blocks until the count reaches zero. With a deadline, returns
    /// `false` if it expires first. The 50 ms cap on each park is a
    /// safety net against a lost wakeup, not the detection mechanism.
    pub(crate) fn wait_zero(&self, deadline: Option<Instant>) -> bool {
        loop {
            if self.load() == 0 {
                return true;
            }
            let guard = self.mu.lock().unwrap();
            if self.load() == 0 {
                return true;
            }
            let mut wait = Duration::from_millis(50);
            if let Some(d) = deadline {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return false;
                }
                wait = wait.min(left);
            }
            let _ = self.cv.wait_timeout(guard, wait).unwrap();
        }
    }
}

/// Bytes read per `read` call on a ready socket.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Reads issued per readiness event before yielding back to the loop
/// (level-triggered `poll` re-reports anything left in the kernel).
const READS_PER_EVENT: usize = 4;

/// One non-blocking connection: the stream, its incremental frame
/// decoder, and its registration with the reactor's [`Poller`], which it
/// owns for life (see the module docs). The bytes it writes live in a
/// [`WriteQueue`] of its node's core.
pub(crate) struct Conn {
    pub(crate) stream: Stream,
    pub(crate) dec: FrameDecoder,
    poller: Rc<Poller>,
    tok: Tok,
    /// Interest bits currently registered; `None` while parked.
    interest: Option<i16>,
    /// The last flush left bytes queued.
    backlog: bool,
}

impl Conn {
    /// Adopts a freshly accepted/connected stream into reactor mode and
    /// registers it for reads under `tok`.
    pub(crate) fn new(stream: Stream, poller: &Rc<Poller>, tok: Tok) -> io::Result<Conn> {
        stream.prepare()?;
        poller.add(stream.as_raw_fd(), tok.pack(), POLLIN)?;
        Ok(Conn {
            stream,
            dec: FrameDecoder::new(),
            poller: Rc::clone(poller),
            tok,
            interest: Some(POLLIN),
            backlog: false,
        })
    }

    /// Re-registers the connection under a new token (a hello promoted
    /// it from pending/dialing to an edge or a client).
    pub(crate) fn retoken(&mut self, tok: Tok) -> io::Result<()> {
        self.tok = tok;
        match self.interest {
            Some(bits) => self
                .poller
                .set_interest(self.stream.as_raw_fd(), tok.pack(), bits),
            None => Ok(()),
        }
    }

    /// Reads, plus writes while bytes are queued on a transport where
    /// `POLLOUT` means something: ring doorbells are almost always
    /// writable, so a blocked ring write waits for the peer's nudge.
    fn wanted(&self) -> i16 {
        if self.backlog && self.stream.wants_pollout() {
            POLLIN | POLLOUT
        } else {
            POLLIN
        }
    }

    /// Takes the socket out of the poller without closing it.
    pub(crate) fn park(&mut self) {
        if self.interest.take().is_some() {
            let _ = self.poller.remove(self.stream.as_raw_fd());
        }
    }

    /// Puts a parked socket back, with `POLLOUT` if bytes are waiting.
    pub(crate) fn unpark(&mut self) -> io::Result<()> {
        if self.interest.is_none() {
            let bits = self.wanted();
            self.poller
                .add(self.stream.as_raw_fd(), self.tok.pack(), bits)?;
            self.interest = Some(bits);
        }
        Ok(())
    }

    /// Reads a bounded amount of what is available into the decoder.
    /// `true` when the connection is dead (EOF or a hard error); what
    /// was decoded stays valid and must be served first.
    pub(crate) fn read_ready(&mut self, scratch: &mut [u8]) -> bool {
        let mut reads = 0;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return true,
                Ok(n) => {
                    self.dec.extend(&scratch[..n]);
                    reads += 1;
                    if n < scratch.len() || reads >= READS_PER_EVENT {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }

    /// Writes `out` into the socket and syncs `POLLOUT` to the outcome
    /// (one `epoll_ctl` per transition, none while every flush drains).
    /// `Ok(true)` when bytes stay queued that no readiness event is
    /// armed for (a ring link waiting for its space-freed nudge).
    pub(crate) fn flush(&mut self, out: &mut WriteQueue) -> io::Result<bool> {
        let stream = &mut self.stream;
        self.backlog = !out.write_to(|iov| stream.write_vectored(iov))?;
        let bits = self.wanted();
        if self.interest.is_some_and(|cur| cur != bits) {
            self.poller
                .set_interest(self.stream.as_raw_fd(), self.tok.pack(), bits)?;
            self.interest = Some(bits);
        }
        Ok(self.backlog && !self.stream.wants_pollout())
    }

    /// Severs the connection (its drop then deregisters it).
    fn close(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        // Explicitly, while the descriptor is still open: whoever gets
        // this fd number next starts from a clean slate.
        self.park();
    }
}

/// Cross-thread nudge for a reactor parked in its wait: one byte down a
/// socketpair whose read half the reactor polls.
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    pub(crate) fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; errors are
        // irrelevant.
        let _ = (&self.tx).write(&[1]);
    }
}

/// Creates a waker and the read half the reactor polls.
pub(crate) fn waker_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Everything one reactor thread needs: its shard of nodes plus the
/// cluster-shared handles.
pub(crate) struct ReactorCfg<S, A: AggOp> {
    /// This reactor's index in the pool (the `shard` word of its
    /// `poll_wake`/`dispatch` trace spans).
    pub shard: u32,
    pub shard_nodes: Vec<NodeSeed>,
    pub tree: Tree,
    pub addrs: Vec<NodeAddr>,
    pub op: A,
    pub spec: S,
    pub ghost: bool,
    pub in_flight: Arc<InFlight>,
    pub total_sent: Arc<AtomicU64>,
    pub shutting_down: Arc<AtomicBool>,
    pub plan: Arc<FaultPlan>,
    pub ledger: Arc<InjectedFaults>,
    pub ready_tx: Sender<()>,
    pub waker_rx: UnixStream,
    pub rtx_high: usize,
    pub rtx_low: usize,
}

/// One node assigned to a reactor: its pre-bound (non-blocking)
/// listener and its write-ahead log, if any (opened on the main thread,
/// where an open error can still fail the spawn).
pub(crate) struct NodeSeed {
    pub id: NodeId,
    pub listener: Listener,
    pub wal: Option<WalDurability>,
}

/// What a registered descriptor refers to; travels through the kernel
/// as the registration's `u64` token ([`Tok::pack`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tok {
    /// The reactor's waker read-half.
    Waker,
    /// Node `i`'s listener.
    Listener(usize),
    /// Node `i`'s pending (pre-hello) connection `pid`.
    Pending(usize, u64),
    /// Node `i`'s live edge connection to neighbour index `wi`.
    Edge(usize, usize),
    /// Node `i`'s dial-in-progress connection on neighbour index `wi`.
    Dial(usize, usize),
    /// Node `i`'s client connection `cid`.
    Client(usize, u64),
}

/// Token layout: `[kind:4][node slot:20][id:40]`. A shard holds far
/// fewer than 2^20 nodes, and ids are per-node connection counters: a
/// node would have to accept a connection every microsecond for two
/// weeks to reach 2^40.
const TOK_SLOT_BITS: u32 = 20;
const TOK_ID_BITS: u32 = 40;

impl Tok {
    pub(crate) fn pack(self) -> u64 {
        let (kind, slot, id) = match self {
            Tok::Waker => (0, 0, 0),
            Tok::Listener(i) => (1, i, 0),
            Tok::Pending(i, pid) => (2, i, pid),
            Tok::Edge(i, wi) => (3, i, wi as u64),
            Tok::Dial(i, wi) => (4, i, wi as u64),
            Tok::Client(i, cid) => (5, i, cid),
        };
        debug_assert!(slot < 1 << TOK_SLOT_BITS && id < 1 << TOK_ID_BITS);
        (kind << (TOK_SLOT_BITS + TOK_ID_BITS)) | ((slot as u64) << TOK_ID_BITS) | id
    }

    /// Inverse of [`Tok::pack`]; `None` for a kind this reactor never
    /// registered.
    fn unpack(token: u64) -> Option<Tok> {
        let slot = ((token >> TOK_ID_BITS) & ((1 << TOK_SLOT_BITS) - 1)) as usize;
        let id = token & ((1 << TOK_ID_BITS) - 1);
        Some(match token >> (TOK_SLOT_BITS + TOK_ID_BITS) {
            0 => Tok::Waker,
            1 => Tok::Listener(slot),
            2 => Tok::Pending(slot, id),
            3 => Tok::Edge(slot, id as usize),
            4 => Tok::Dial(slot, id as usize),
            5 => Tok::Client(slot, id),
            _ => return None,
        })
    }
}

/// The reactor-wide handles. Only `now` changes: the loop reads its
/// clock once per wakeup.
struct Ctx<'a> {
    addrs: &'a [NodeAddr],
    in_flight: &'a InFlight,
    /// Cluster-wide count of mechanism messages sent.
    total_sent: &'a AtomicU64,
    poller: &'a Rc<Poller>,
    ready_tx: &'a Sender<()>,
    now: Instant,
}

/// One node's socket half around its [`NodeCore`] (see the module docs).
struct NodeIo<S: PolicySpec, A: AggOp> {
    core: NodeCore<S, A, Instant>,
    /// This node's index in the shard, in every [`Tok`] of its sockets.
    slot: usize,
    /// Survives a kill9: the "new process" inherits the address.
    listener: Listener,
    wal: Option<WalDurability>,
    /// Per edge, the live connection, or the dial awaiting its hello
    /// reply while the core [`NodeCore::is_dialing`].
    conns: Vec<Option<Conn>>,
    /// Accepted connections that have not yet sent their hello.
    pending: HashMap<u64, Conn>,
    next_pending: u64,
    clients: HashMap<ClientId, Conn>,
    ready_sent: bool,
    /// A kill9 fired during the current pass.
    kill9: bool,
}

impl<S, A> NodeIo<S, A>
where
    S: PolicySpec,
    S::Node: 'static,
    A: AggOp,
    A::Value: WireValue,
{
    fn new(
        slot: usize,
        seed: NodeSeed,
        env: &Rc<Env<S, A>>,
        plan: &FaultPlan,
        ctx: &Ctx<'_>,
    ) -> Self {
        let NodeSeed { id, listener, wal } = seed;
        ctx.poller
            .add(listener.as_raw_fd(), Tok::Listener(slot).pack(), POLLIN)
            .expect("register listener");
        let core = NodeCore::new(Rc::clone(env), id, plan, wal.is_some(), ctx.now);
        let degree = core.degree();
        let mut node = NodeIo {
            core,
            slot,
            listener,
            wal,
            conns: (0..degree).map(|_| None).collect(),
            pending: HashMap::new(),
            next_pending: 0,
            clients: HashMap::new(),
            ready_sent: false,
            kill9: false,
        };
        node.note_ready(ctx);
        // Cold start: a log with history means this node is a new
        // incarnation of a previous process — replay the WAL and rejoin
        // with watermarks, retransmit buffers, and values intact.
        if let Some(state) = node.wal.as_mut().and_then(WalDurability::recover) {
            let step = node.core.restore(ctx.now, state);
            node.absorb(step, ctx);
        }
        node
    }

    /// Signals the cluster once every edge of this node is up.
    fn note_ready(&mut self, ctx: &Ctx<'_>) {
        if !self.ready_sent && self.core.all_up() {
            self.ready_sent = true;
            let _ = ctx.ready_tx.send(());
        }
    }

    /// Carries out a [`CoreStep`]: the log records first (durable before
    /// any flush), the messages-sent count before the debt (a `quiesce()`
    /// that sees zero then sees every message), then severs and kill9.
    fn absorb(&mut self, step: CoreStep, ctx: &Ctx<'_>) {
        if let Some(wal) = &mut self.wal {
            if !step.records.is_empty() {
                wal.apply(step.records);
                self.core.set_wal_counters(wal.counters());
            }
        }
        if step.sent > 0 {
            ctx.total_sent.fetch_add(step.sent, Ordering::Relaxed);
        }
        if step.sent > 0 || step.debt != 0 {
            ctx.in_flight.add(step.debt);
        }
        if step.severed {
            for (wi, conn) in self.conns.iter_mut().enumerate() {
                if !self.core.is_up(wi) && !self.core.is_dialing(wi) {
                    if let Some(conn) = conn.take() {
                        conn.close();
                    }
                }
            }
        }
        self.kill9 |= step.kill9;
    }

    /// Accepts everything the listener has ready; connections park in
    /// `pending` until their hello classifies them.
    fn on_accept_ready(&mut self, ctx: &Ctx<'_>) {
        loop {
            match self.listener.accept() {
                Ok(stream) => {
                    let tok = Tok::Pending(self.slot, self.next_pending);
                    if let Ok(conn) = Conn::new(stream, ctx.poller, tok) {
                        self.pending.insert(self.next_pending, conn);
                        self.next_pending += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// A pre-hello connection became readable: classify it by its first
    /// frame. Anything other than a well-formed hello is a stranger
    /// speaking the wrong protocol — dropped, never fatal.
    fn on_pending_ready(&mut self, pid: u64, ctx: &Ctx<'_>, scratch: &mut [u8]) {
        let Some(conn) = self.pending.get_mut(&pid) else {
            return;
        };
        let closed = conn.read_ready(scratch);
        match conn.dec.try_frame() {
            Ok(None) if !closed => {}
            Ok(Some((TAG_HELLO_EDGE, payload))) => {
                let conn = self.pending.remove(&pid).expect("present above");
                if let Some((peer, rx, acked)) = parse_hello(&payload) {
                    self.install_edge(peer, conn, (rx, acked), true, ctx);
                }
            }
            Ok(Some((TAG_HELLO_CLIENT, _))) => {
                let mut conn = self.pending.remove(&pid).expect("present above");
                let cid = self.core.client_up();
                if conn.retoken(Tok::Client(self.slot, cid)).is_err() {
                    self.core.client_gone(cid);
                    return;
                }
                self.clients.insert(cid, conn);
                // Clients may pipeline requests behind the hello in one
                // segment; serve whatever already decoded.
                self.serve_client(cid, ctx, None);
            }
            _ => {
                self.pending.remove(&pid);
            }
        }
    }

    /// A dial became readable: expect the hello reply, then promote the
    /// dial to the edge's live connection.
    fn on_dial_ready(&mut self, wi: usize, ctx: &Ctx<'_>, scratch: &mut [u8]) {
        let dialing = self.core.is_dialing(wi);
        let Some(conn) = self.conns[wi].as_mut().filter(|_| dialing) else {
            return;
        };
        let closed = conn.read_ready(scratch);
        let hello = match conn.dec.try_frame() {
            Ok(None) if !closed => return,
            Ok(Some((TAG_HELLO_EDGE, payload))) => parse_hello(&payload),
            _ => None,
        };
        let conn = self.conns[wi].take().expect("present above");
        match hello {
            Some((id, rx, acked)) if id == self.core.peer(wi) => {
                self.install_edge(id, conn, (rx, acked), false, ctx);
            }
            _ => self.core.edge_down(wi, ctx.now),
        }
    }

    /// Installs a connection whose hello named `peer` in place of the
    /// edge's previous one; the core answers the hello.
    fn install_edge(
        &mut self,
        peer: NodeId,
        mut conn: Conn,
        marks: (u64, u64),
        accepted: bool,
        ctx: &Ctx<'_>,
    ) {
        // An unknown peer id is a protocol violation from an untrusted
        // connection: drop it.
        let Some(wi) = self.core.edge_index(peer) else {
            return;
        };
        if conn.retoken(Tok::Edge(self.slot, wi)).is_err() {
            if !accepted {
                self.core.edge_down(wi, ctx.now);
            }
            return;
        }
        if let Some(old) = self.conns[wi].replace(conn) {
            old.close();
        }
        let dec = &mut self.conns[wi].as_mut().expect("just installed").dec;
        let step = self.core.edge_up(wi, ctx.now, marks, accepted, dec);
        self.absorb(step, ctx);
        self.note_ready(ctx);
    }

    /// A live edge connection became readable. (A token of the other
    /// kind than the slot now holds is stale: level-triggered polling
    /// re-reports the socket under its new token.)
    fn on_edge_ready(&mut self, wi: usize, ctx: &Ctx<'_>, scratch: &mut [u8]) {
        let up = self.core.is_up(wi);
        let Some(conn) = self.conns[wi].as_mut().filter(|_| up) else {
            return;
        };
        let closed = conn.read_ready(scratch);
        // Frames decoded before EOF are valid: the core takes them first.
        let step = self.core.on_edge(wi, ctx.now, &mut conn.dec);
        self.absorb(step, ctx);
        if closed {
            if let Some(conn) = self.conns[wi].take() {
                conn.close();
                self.core.edge_down(wi, ctx.now);
            }
        }
    }

    /// Serves what client `cid` sent, reading into `scratch` first when
    /// given one. At EOF every request was served (bytes are FIFO); EOF
    /// or a protocol violation ends the connection, after a best-effort
    /// flush of what the core still queued for it.
    fn serve_client(&mut self, cid: ClientId, ctx: &Ctx<'_>, scratch: Option<&mut [u8]>) {
        let Some(conn) = self.clients.get_mut(&cid) else {
            return;
        };
        let closed = scratch.is_some_and(|s| conn.read_ready(s));
        let step = self.core.on_client(cid, ctx.now, &mut conn.dec);
        let reject = step.reject;
        self.absorb(step, ctx);
        if closed || reject {
            let out = self.core.client_gone(cid);
            if let (Some(mut conn), Some(mut out)) = (self.clients.remove(&cid), out) {
                let _ = conn.flush(&mut out);
            }
        }
    }

    /// Fires this node's due redials and places the dials. An ack due
    /// goes out at the flush that follows.
    fn run_timers(&mut self, ctx: &Ctx<'_>) {
        let step = self.core.tick(ctx.now);
        let dial = step.dial;
        self.absorb(step, ctx);
        for wi in (0..self.conns.len()).filter(|_| dial) {
            if !self.core.is_dialing(wi) || self.conns[wi].is_some() {
                continue;
            }
            // A blocking `connect` to a pre-bound local listener ends at
            // once; the hello reply is awaited like any other read.
            let tok = Tok::Dial(self.slot, wi);
            let attempt = Stream::connect(&ctx.addrs[self.core.peer(wi).idx()])
                .and_then(|stream| Conn::new(stream, ctx.poller, tok));
            match attempt {
                Ok(conn) => self.conns[wi] = Some(conn),
                Err(_) => self.core.edge_down(wi, ctx.now),
            }
        }
    }

    /// The peer half of a flush: the core's flush boundary (acks that
    /// ride or are due), then every edge queue into its connection (or
    /// its dial: our hello).
    fn flush_edges(&mut self, ctx: &Ctx<'_>) -> bool {
        self.core.flush_prep(ctx.now);
        let mut backlog = false;
        for wi in 0..self.conns.len() {
            let out = self.core.edge_out(wi);
            let Some(conn) = self.conns[wi].as_mut().filter(|_| !out.is_empty()) else {
                continue;
            };
            match conn.flush(out) {
                Ok(blocked) => backlog |= blocked,
                Err(_) => {
                    self.conns[wi].take().expect("flushed above").close();
                    self.core.edge_down(wi, ctx.now);
                }
            }
        }
        backlog
    }

    /// The client half, after [`NodeIo::flush_edges`]: every client queue
    /// into its socket, each socket parked exactly while the core is
    /// stalled, and the log folded into a snapshot when due.
    fn flush_clients(&mut self) -> bool {
        let mut backlog = false;
        let stalled = self.core.stalled();
        let core = &mut self.core;
        // A client that cannot flush or rejoin is dropped like a dead one.
        let mut dropped: Vec<ClientId> = Vec::new();
        self.clients.retain(|&cid, conn| {
            let mut serve = || {
                if let Some(out) = core.client_out(cid).filter(|q| !q.is_empty()) {
                    backlog |= conn.flush(out)?;
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
            self.core.client_gone(cid);
        }
        // Fold the log into a snapshot once enough has accumulated — at
        // the flush boundary the node's state is self-consistent.
        if let Some(wal) = self.wal.as_mut().filter(|w| w.wants_snapshot()) {
            wal.snapshot(&self.core.wal_state());
            self.core.set_wal_counters(wal.counters());
        }
        backlog
    }

    /// Process-grade kill: every connection is severed and the core comes
    /// back from the log.
    fn kill9_restart(&mut self, ctx: &Ctx<'_>) {
        self.kill9 = false;
        let conns = self.pending.drain().chain(self.clients.drain());
        let edges = self.conns.iter_mut().filter_map(Option::take);
        for conn in conns.map(|(_, c)| c).chain(edges) {
            conn.close();
        }
        let state = self
            .wal
            .as_mut()
            .and_then(WalDurability::recover)
            .unwrap_or_default();
        let step = self.core.kill9(ctx.now, state);
        self.absorb(step, ctx);
    }

    /// Orderly end of the node.
    fn finish(mut self, ctx: &Ctx<'_>) -> (NodeId, NodeReport<A::Value>) {
        self.flush_edges(ctx);
        self.flush_clients();
        let id = self.core.id();
        let mut report = self.core.finish();
        if let Some(wal) = &self.wal {
            report.wal = wal.counters();
        }
        (id, report)
    }
}

/// Events taken per wait. A fuller ready set re-reports on the next
/// wait (level-triggered), so this bounds latency, not correctness.
const EVENTS_PER_WAIT: usize = 256;

/// The nodes (by shard slot) that need a flush before the next sleep,
/// each listed once.
struct Touched {
    marked: Vec<bool>,
    slots: Vec<usize>,
}

impl Touched {
    fn mark(&mut self, slot: usize) {
        if !std::mem::replace(&mut self.marked[slot], true) {
            self.slots.push(slot);
        }
    }
}

/// The reactor thread body: serves its shard until cluster shutdown,
/// then returns every owned node's final report.
pub(crate) fn reactor_main<S, A>(cfg: ReactorCfg<S, A>) -> Vec<(NodeId, NodeReport<A::Value>)>
where
    S: PolicySpec,
    S::Node: 'static,
    A: AggOp,
    A::Value: WireValue,
{
    let ReactorCfg {
        shard,
        shard_nodes,
        tree,
        addrs,
        op,
        spec,
        ghost,
        in_flight,
        total_sent,
        shutting_down,
        plan,
        ledger,
        ready_tx,
        waker_rx,
        rtx_high,
        rtx_low,
    } = cfg;
    let poller = Rc::new(Poller::new().expect("create poller"));
    poller
        .add(waker_rx.as_raw_fd(), Tok::Waker.pack(), POLLIN)
        .expect("register waker");
    let env = Rc::new(Env {
        tree,
        op,
        spec,
        ghost,
        ledger,
        rtx_high,
        rtx_low,
    });
    let mut ctx = Ctx {
        addrs: &addrs,
        in_flight: &in_flight,
        total_sent: &total_sent,
        poller: &poller,
        ready_tx: &ready_tx,
        now: Instant::now(),
    };
    let mut nodes: Vec<NodeIo<S, A>> = shard_nodes
        .into_iter()
        .enumerate()
        .map(|(slot, seed)| NodeIo::new(slot, seed, &env, &plan, &ctx))
        .collect();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    // Every node starts touched: dialers are born with a redial due.
    let mut touched = Touched {
        marked: vec![true; nodes.len()],
        slots: (0..nodes.len()).collect(),
    };
    // Each node's earliest timer, as its last flush left it: every
    // wakeup that changes a node ends in that node's flush, which notes
    // its deadline anew, so the loop never asks a core between flushes.
    let mut deadlines: Vec<Option<Instant>> = vec![None; nodes.len()];
    loop {
        // Cores only ever *queue* bytes; this is the single point where
        // they hit sockets — for the nodes the last wakeup touched. A
        // node stays listed while it holds bytes no POLLOUT will
        // announce, and is retried at every wakeup.
        //
        // Two passes: every touched node's edges, then every touched
        // node's clients. A response written to a client wakes its
        // thread, which on a busy CPU runs at once in the reactor's
        // place; node by node, that held back the mechanism frames the
        // nodes further down the list had already queued.
        for &slot in &touched.slots {
            touched.marked[slot] = nodes[slot].flush_edges(&ctx);
        }
        touched.slots.retain(|&slot| {
            let node = &mut nodes[slot];
            touched.marked[slot] |= node.flush_clients();
            deadlines[slot] = node.core.next_deadline();
            touched.marked[slot]
        });

        // Sleep until the earliest deadline, else until a socket or the
        // waker fires. The wait counts whole milliseconds, so round up:
        // rounding down wakes the loop just before the deadline.
        let timeout = deadlines.iter().flatten().min().map(|at| {
            let left = at.saturating_duration_since(ctx.now);
            Duration::from_millis(left.as_micros().div_ceil(1000) as u64)
        });

        // A wait error (EINTR aside, which is Ok(0)) leaves the buffer
        // empty and retries; nothing registered can make epoll_wait
        // fail persistently.
        let t_poll = oat_obs::now_ns();
        let _ = poller.wait(&mut events, timeout);
        // The loop's one clock read: the inputs and timers of this pass
        // all run at this instant.
        ctx.now = Instant::now();
        if t_poll != 0 {
            let ready = events.len() as u32;
            oat_obs::trace_span!(oat_obs::EventKind::PollWake, t_poll, shard, ready, 0);
        }

        if shutting_down.load(Ordering::SeqCst) {
            return nodes.into_iter().map(|node| node.finish(&ctx)).collect();
        }

        let t_dispatch = oat_obs::now_ns();
        for ev in events.iter() {
            // Handlers tolerate a token whose connection is gone or was
            // replaced earlier in this batch: the lookup misses, or the
            // spurious read returns WouldBlock.
            let slot = match Tok::unpack(ev.token) {
                None => continue,
                Some(Tok::Waker) => {
                    // Drain the nudge bytes; the flag check above is the
                    // actual signal.
                    let mut byte = [0u8; 64];
                    while matches!((&waker_rx).read(&mut byte), Ok(n) if n > 0) {}
                    continue;
                }
                Some(Tok::Listener(i)) => {
                    nodes[i].on_accept_ready(&ctx);
                    i
                }
                Some(Tok::Pending(i, pid)) => {
                    if ev.readable() {
                        nodes[i].on_pending_ready(pid, &ctx, &mut scratch);
                    }
                    i
                }
                Some(Tok::Dial(i, wi)) => {
                    if ev.readable() {
                        nodes[i].on_dial_ready(wi, &ctx, &mut scratch);
                    }
                    i
                }
                Some(Tok::Edge(i, wi)) => {
                    if ev.readable() {
                        nodes[i].on_edge_ready(wi, &ctx, &mut scratch);
                    }
                    i
                }
                Some(Tok::Client(i, cid)) => {
                    if ev.readable() {
                        nodes[i].serve_client(cid, &ctx, Some(&mut scratch));
                    }
                    i
                }
            };
            // A pure POLLOUT wakeup needs no handler: the flush pass at
            // the top of the next iteration makes the progress.
            touched.mark(slot);
        }
        // A kill9 scheduled mid-pass demolishes the node's state, so it
        // runs here, after the event loop is done touching it. Only an
        // input can schedule one, so only touched nodes are asked.
        for &slot in &touched.slots {
            if nodes[slot].kill9 {
                nodes[slot].kill9_restart(&ctx);
            }
        }
        if !events.is_empty() {
            let handled = events.len() as u32;
            oat_obs::trace_span!(oat_obs::EventKind::Dispatch, t_dispatch, shard, handled, 0);
        }

        // Timers: only the nodes whose deadline has passed, each flushed
        // at the top of the loop, which sends the acks due and notes the
        // node's next deadline.
        for (slot, node) in nodes.iter_mut().enumerate() {
            if deadlines[slot].is_some_and(|at| at <= ctx.now) {
                node.run_timers(&ctx);
                touched.mark(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use std::net::{TcpListener, TcpStream};

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn write_queue_coalesces_and_survives_partial_drains() {
        let (a, mut b) = loopback_pair();
        let poller = Rc::new(Poller::new().unwrap());
        let mut conn = Conn::new(Stream::Tcp(a), &poller, Tok::Pending(0, 0)).unwrap();
        let mut out = WriteQueue::default();
        let mut expected = Vec::new();
        for i in 0..100u8 {
            let payload = vec![i; 1 + (i as usize % 300)];
            out.frame(i, &payload);
            write_frame(&mut expected, i, &payload).unwrap();
        }
        // Small frames coalesce: far fewer chunks than frames.
        assert!(out.chunks.len() < 20, "got {}", out.chunks.len());
        while !out.is_empty() {
            conn.flush(&mut out).unwrap();
        }
        b.set_nonblocking(true).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match b.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if got.len() >= expected.len() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, expected, "byte-exact across vectored flushes");
    }

    #[test]
    fn write_queue_requeues_on_wouldblock_and_finishes_later() {
        let (a, mut b) = loopback_pair();
        let poller = Rc::new(Poller::new().unwrap());
        let mut conn = Conn::new(Stream::Tcp(a), &poller, Tok::Pending(0, 0)).unwrap();
        let mut out = WriteQueue::default();
        // Enough data to overwhelm the kernel buffers of an unread peer.
        let big = vec![0xAB; 256 * 1024];
        for _ in 0..32 {
            out.frame(9, &big);
        }
        conn.flush(&mut out).unwrap();
        assert!(!out.is_empty(), "unread peer must WouldBlock eventually");
        // Drain the peer concurrently, then finish the flush.
        let reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            let mut total = 0usize;
            loop {
                match b.read(&mut buf) {
                    Ok(0) => break total,
                    Ok(n) => total += n,
                    Err(e) => panic!("{e}"),
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !out.is_empty() {
            conn.flush(&mut out).unwrap();
            assert!(Instant::now() < deadline, "flush never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(conn);
        let total = reader.join().unwrap();
        assert_eq!(total, 32 * (5 + big.len()));
    }

    #[test]
    fn waker_unblocks_a_wait() {
        let (waker, rx) = waker_pair().unwrap();
        let h = std::thread::spawn(move || {
            let poller = Poller::new().unwrap();
            poller
                .add(rx.as_raw_fd(), Tok::Waker.pack(), POLLIN)
                .unwrap();
            let mut events = Events::with_capacity(4);
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            events.iter().map(|ev| Tok::unpack(ev.token)).collect()
        });
        std::thread::sleep(Duration::from_millis(10));
        waker.wake();
        let got: Vec<Option<Tok>> = h.join().unwrap();
        assert_eq!(got, vec![Some(Tok::Waker)]);
    }

    #[test]
    fn tokens_round_trip_through_their_packed_form() {
        let max_id = (1u64 << TOK_ID_BITS) - 1;
        let max_slot = (1usize << TOK_SLOT_BITS) - 1;
        for tok in [
            Tok::Waker,
            Tok::Listener(0),
            Tok::Listener(max_slot),
            Tok::Pending(3, 0),
            Tok::Pending(max_slot, max_id),
            Tok::Edge(15, 63),
            Tok::Dial(15, 63),
            Tok::Client(0, max_id),
            Tok::Client(7, 12345),
        ] {
            assert_eq!(Tok::unpack(tok.pack()), Some(tok), "{tok:?}");
        }
        assert_eq!(Tok::unpack(u64::MAX), None);
    }

    #[test]
    fn conn_arms_pollout_on_wouldblock_and_disarms_when_drained() {
        let (a, mut b) = loopback_pair();
        let poller = Rc::new(Poller::new().unwrap());
        let tok = Tok::Client(2, 9);
        let mut conn = Conn::new(Stream::Tcp(a), &poller, Tok::Pending(2, 0)).unwrap();
        conn.retoken(tok).unwrap();
        let mut events = Events::with_capacity(4);
        let mut wait = |ms| {
            poller
                .wait(&mut events, Some(Duration::from_millis(ms)))
                .unwrap();
            events.iter().collect::<Vec<_>>()
        };
        // Idle and writable, but POLLOUT is not armed: silence.
        assert!(wait(5).is_empty());
        let big = vec![0xCD; 256 * 1024];
        let mut out = WriteQueue::default();
        for _ in 0..32 {
            out.frame(9, &big);
        }
        conn.flush(&mut out).unwrap();
        assert!(!out.is_empty(), "unread peer must WouldBlock");
        // Armed, but the kernel buffer is full: still silence (no spin).
        assert!(wait(5).is_empty());
        // The peer reads; writability is announced under the new token.
        let mut sink = vec![0u8; 1 << 20];
        b.set_nonblocking(true).unwrap();
        let mut total = 0;
        while total < 32 * (5 + big.len()) {
            match b.read(&mut sink) {
                Ok(n) => total += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let got = wait(1000);
                    assert_eq!(got.len(), 1);
                    assert_eq!(Tok::unpack(got[0].token), Some(tok));
                    assert!(got[0].writable());
                    conn.flush(&mut out).unwrap();
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(out.is_empty());
        // Drained: disarmed again, so the writable socket is silent.
        assert!(wait(5).is_empty());
        // Parked sockets are silent even through a hangup; dropping the
        // connection leaves nothing registered.
        conn.park();
        drop(b);
        assert!(wait(5).is_empty());
        conn.unpark().unwrap();
        assert!(wait(1000)[0].readable());
        drop(conn);
        assert!(wait(5).is_empty());
    }
}
