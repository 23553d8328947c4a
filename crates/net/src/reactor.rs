//! The reactor runtime: event-loop threads that move bytes between
//! non-blocking sockets (or, for an edge inside one thread, local pipes)
//! and the nodes' sans-IO cores.
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
//! (`ClusterReport::threads_spawned`). No edge dials a listener: the
//! dialing reactor makes both ends of the connection
//! ([`NodeIo::run_timers`]). To a peer the same reactor owns it places a
//! [`LocalStream`] pair, one end the dial, the other adopted into the
//! peer's pending connections as if accepted, so no descriptor or system
//! call carries the edge. To a peer on another reactor it places a
//! `UnixStream` socketpair, the far end posted to that reactor's
//! [`Mailbox`], which adopts it the same way when its waker fires. Hellos,
//! sequencing, severs, kill9s and redials run over both unchanged; only
//! clients use the configured transport.
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
//! Each reactor owns one [`Readiness`]: a [`Poller`], a level-triggered
//! epoll instance, and the [`ReadyList`] of its local pipes. A
//! socket is registered once, where it is adopted (the waker and the
//! listeners at spawn, every other socket by [`Conn::new`]), under a
//! packed [`Tok`] naming its node and role; a hello that promotes it
//! re-tokens it, and [`Conn`]'s drop removes it before the descriptor
//! closes. `POLLOUT` is armed by a flush that hits `WouldBlock` and
//! disarmed by one that drains. While a core is stalled (backpressure)
//! its client sockets leave the poller outright ([`Conn::park`]): epoll
//! reports a hangup whatever the mask, so a masked socket would spin. A
//! local pipe has no registration: its reader's token goes on the ready
//! list when a write makes the pipe non-empty, when a read leaves bytes
//! behind, and when the peer closes, and [`Conn::retoken`] keeps that
//! token current.
//!
//! A wakeup costs what is ready, not what exists: each ready socket, and
//! each pipe on the ready list, is read in bounded chunks into its
//! [`FrameDecoder`] and its core takes the complete frames inline. Every
//! loop makes one `epoll_wait`, with a zero timeout while the ready list
//! is non-empty, and dispatches the list's batch beside its events. Cores only *queue* bytes; then the nodes
//! an event named and those whose timer fired are flushed — every such
//! node's edges first ([`NodeIo::flush_edges`]),
//! then their clients ([`NodeIo::flush_clients`]), so a client a response
//! wakes never runs ahead of mechanism frames already queued. The only
//! walk over all nodes is the memory-only scan of their deadlines, which
//! yields the sleep bound and the nodes whose timers are due; the waker,
//! for shutdown and for a posted crossing edge, is the only cross-thread
//! signal.

use std::cell::Cell;
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

use crate::cluster::IoCounts;
use crate::core::{ClientId, CoreStep, Env, NodeCore, NodeReport};
use crate::durability::WalDurability;
use crate::frame::{FrameDecoder, WriteQueue, TAG_HELLO_CLIENT, TAG_HELLO_EDGE};
use crate::link::Hello;
use crate::transport::{Listener, LocalStream, ReadyList, Stream};

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
    /// Parks that ran out their timeout with the count already at zero:
    /// a wakeup the notify missed.
    #[cfg(test)]
    missed: std::sync::atomic::AtomicUsize,
}

impl InFlight {
    pub(crate) fn new() -> InFlight {
        InFlight {
            n: AtomicI64::new(0),
            mu: Mutex::new(()),
            cv: Condvar::new(),
            #[cfg(test)]
            missed: Default::default(),
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
            // Pass through the lock before notifying so a waiter that
            // observed a non-zero count cannot park between our decrement
            // and this notification (it re-checks the count under the
            // lock). Notify after releasing it: a woken waiter that runs
            // at once would otherwise block on the lock we still hold.
            drop(self.mu.lock().expect("no thread panics holding `mu`"));
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
            let (_guard, _timeout) = self.cv.wait_timeout(guard, wait).unwrap();
            #[cfg(test)]
            if _timeout.timed_out() && self.load() == 0 {
                self.missed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Bytes read per `read` call on a ready socket.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Reads issued per readiness event before yielding back to the loop
/// (level-triggered `poll` re-reports anything left in the kernel; a
/// local pipe requeues its reader).
const READS_PER_EVENT: usize = 4;

/// The readiness sources every connection of one reactor reports to:
/// the poller its sockets are registered with, the ready list its local
/// pipes queue on, and the count of the kernel crossings they cost.
pub(crate) struct Readiness {
    poller: Poller,
    ready: Rc<ReadyList>,
    counts: Cell<IoCounts>,
}

impl Readiness {
    pub(crate) fn new() -> io::Result<Rc<Readiness>> {
        Ok(Rc::new(Readiness {
            poller: Poller::new()?,
            ready: Rc::default(),
            counts: Cell::default(),
        }))
    }

    fn count(&self, f: impl FnOnce(&mut IoCounts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }
}

/// One non-blocking connection: the stream, its incremental frame
/// decoder, and its registration with the reactor's [`Readiness`] (a
/// socket's with the poller, which it owns for life; a local pipe's by
/// the token it queues). The bytes it writes live in a [`WriteQueue`]
/// of its node's core.
pub(crate) struct Conn {
    pub(crate) stream: Stream,
    pub(crate) dec: FrameDecoder,
    rd: Rc<Readiness>,
    tok: Tok,
    /// Interest bits currently registered; `None` while parked, and
    /// always for a local pipe.
    interest: Option<i16>,
    /// The last flush left bytes queued.
    backlog: bool,
}

impl Conn {
    /// Adopts a freshly accepted/connected stream into reactor mode and
    /// registers it for reads under `tok`.
    pub(crate) fn new(stream: Stream, rd: &Rc<Readiness>, tok: Tok) -> io::Result<Conn> {
        stream.prepare()?;
        let mut conn = Conn {
            stream,
            dec: FrameDecoder::new(),
            rd: Rc::clone(rd),
            tok,
            interest: None,
            backlog: false,
        };
        conn.retoken(tok)?;
        conn.unpark()?;
        Ok(conn)
    }

    /// Re-registers the connection under a new token (a hello promoted
    /// it from pending/dialing to an edge or a client).
    pub(crate) fn retoken(&mut self, tok: Tok) -> io::Result<()> {
        self.tok = tok;
        if let Stream::Local(pipe) = &self.stream {
            pipe.set_token(tok.pack());
        }
        match (self.interest, self.stream.fd()) {
            (Some(bits), Some(fd)) => self.rd.poller.set_interest(fd, tok.pack(), bits),
            _ => Ok(()),
        }
    }

    /// Reads, plus writes while bytes are queued (a local pipe takes
    /// every write whole, so it never has a backlog).
    fn wanted(&self) -> i16 {
        if self.backlog {
            POLLIN | POLLOUT
        } else {
            POLLIN
        }
    }

    /// Takes the socket out of the poller without closing it.
    pub(crate) fn park(&mut self) {
        if let (Some(_), Some(fd)) = (self.interest.take(), self.stream.fd()) {
            let _ = self.rd.poller.remove(fd);
        }
    }

    /// Puts a parked socket back, with `POLLOUT` if bytes are waiting.
    pub(crate) fn unpark(&mut self) -> io::Result<()> {
        if let (None, Some(fd)) = (self.interest, self.stream.fd()) {
            let bits = self.wanted();
            self.rd.poller.add(fd, self.tok.pack(), bits)?;
            self.interest = Some(bits);
        }
        Ok(())
    }

    /// Reads a bounded amount of what is available into the decoder.
    /// `true` when the connection is dead (EOF or a hard error); what
    /// was decoded stays valid and must be served first.
    pub(crate) fn read_ready(&mut self, scratch: &mut [u8]) -> bool {
        let syscall = self.stream.fd().is_some();
        let mut reads = 0;
        loop {
            if syscall {
                self.rd.count(|c| c.read += 1);
            }
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

    /// Writes `out` into the stream and syncs `POLLOUT` to the outcome
    /// (one `epoll_ctl` per transition, none while every flush drains).
    pub(crate) fn flush(&mut self, out: &mut WriteQueue) -> io::Result<()> {
        let local = self.stream.fd().is_none();
        let edge = matches!(self.tok, Tok::Edge(..) | Tok::Dial(..));
        let (stream, rd) = (&mut self.stream, &self.rd);
        self.backlog = !out.write_to(|iov| {
            let n = stream.write_vectored(iov);
            let wrote = n.as_ref().map_or(0, |&w| w as u64);
            rd.count(|c| {
                c.writev += u64::from(!local);
                match (edge, local) {
                    (true, true) => c.local_edge_bytes += wrote,
                    (true, false) => c.socket_edge_bytes += wrote,
                    _ => {}
                }
            });
            n
        })?;
        let bits = self.wanted();
        if let (Some(cur), Some(fd)) = (self.interest, self.stream.fd()) {
            if cur != bits {
                self.rd.poller.set_interest(fd, self.tok.pack(), bits)?;
                self.interest = Some(bits);
            }
        }
        Ok(())
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

/// A reactor's inbox from the rest of the cluster: the far ends of the
/// edge socketpairs other reactors dialed to its nodes, each with its
/// node's shard slot, and the waker that announces them (and shutdown) —
/// one byte down a socketpair whose read half the reactor polls.
pub(crate) struct Mailbox {
    conns: Mutex<Vec<(usize, UnixStream)>>,
    waker: UnixStream,
}

impl Mailbox {
    /// An empty mailbox and the read half of its waker.
    pub(crate) fn new() -> io::Result<(Mailbox, UnixStream)> {
        let (waker, rx) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let conns = Mutex::new(Vec::new());
        Ok((Mailbox { conns, waker }, rx))
    }

    /// Nudges the reactor out of its wait.
    pub(crate) fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; errors are
        // irrelevant.
        let _ = (&self.waker).write(&[1]);
    }

    /// Hands `stream` to the owner's node at `slot`, then wakes it.
    fn post(&self, slot: usize, stream: UnixStream) {
        let mut conns = self.conns.lock().expect("no thread panics holding it");
        conns.push((slot, stream));
        drop(conns);
        self.wake();
    }

    /// Everything posted so far. The owner drains its waker first, so a
    /// post that misses this take leaves a wake byte for the next wait.
    fn take(&self) -> Vec<(usize, UnixStream)> {
        let mut conns = self.conns.lock().expect("no thread panics holding it");
        std::mem::take(&mut *conns)
    }
}

/// Everything one reactor thread needs: its shard of nodes plus the
/// cluster-shared handles.
pub(crate) struct ReactorCfg<S, A: AggOp> {
    /// This reactor's index in the pool (the `shard` word of its
    /// `poll_wake`/`dispatch` trace spans).
    pub shard: u32,
    pub shard_nodes: Vec<NodeSeed>,
    pub tree: Tree,
    /// Per node id, its reactor and its slot in that reactor's shard.
    pub homes: Vec<(usize, usize)>,
    /// Every reactor's mailbox, indexed like `shard`.
    pub mailboxes: Arc<[Mailbox]>,
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
    in_flight: &'a InFlight,
    /// Cluster-wide count of mechanism messages sent.
    total_sent: &'a AtomicU64,
    rd: &'a Rc<Readiness>,
    /// This reactor's index in `mailboxes`.
    shard: usize,
    /// Per node id, its reactor and its shard slot there.
    homes: &'a [(usize, usize)],
    mailboxes: &'a [Mailbox],
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
    /// Connections that have not yet sent their hello, each with the one
    /// hello tag its origin allows: a client's on the listener, an
    /// edge's on a local pipe or a socketpair from the mailbox.
    pending: HashMap<u64, (u8, Conn)>,
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
        ctx.rd
            .poller
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
        // with its values and epoch, its links reset.
        if let Some(state) = node.wal.as_mut().map(WalDurability::recover) {
            let step = node.core.start(ctx.now, state);
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

    /// Accepts everything the listener has ready.
    fn on_accept_ready(&mut self, ctx: &Ctx<'_>) {
        loop {
            match self.listener.accept() {
                Ok(stream) => self.adopt(stream, TAG_HELLO_CLIENT, ctx),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Takes in an accepted connection, off the listener, the far end of
    /// a local dial or a socketpair from the mailbox: it parks in
    /// `pending` until its hello, which must carry tag `hello`, classifies
    /// it.
    fn adopt(&mut self, stream: Stream, hello: u8, ctx: &Ctx<'_>) {
        let tok = Tok::Pending(self.slot, self.next_pending);
        if let Ok(conn) = Conn::new(stream, ctx.rd, tok) {
            self.pending.insert(self.next_pending, (hello, conn));
            self.next_pending += 1;
        }
    }

    /// A pre-hello connection became readable: classify it by its first
    /// frame. Anything other than a well-formed hello of the kind its
    /// origin allows is a stranger speaking the wrong protocol — dropped,
    /// never fatal. An edge hello on the listener is one: every edge is
    /// made in-process, so it could only replace a live edge with a
    /// stranger's socket.
    fn on_pending_ready(&mut self, pid: u64, ctx: &Ctx<'_>, scratch: &mut [u8]) {
        let Some(&mut (allowed, ref mut conn)) = self.pending.get_mut(&pid) else {
            return;
        };
        let closed = conn.read_ready(scratch);
        match conn.dec.try_frame() {
            Ok(None) if !closed => {}
            Ok(Some((TAG_HELLO_EDGE, payload))) if allowed == TAG_HELLO_EDGE => {
                let (_, conn) = self.pending.remove(&pid).expect("present above");
                if let Some(hello) = Hello::parse(&payload) {
                    self.install_edge(conn, &hello, true, ctx);
                }
            }
            Ok(Some((TAG_HELLO_CLIENT, _))) if allowed == TAG_HELLO_CLIENT => {
                let (_, mut conn) = self.pending.remove(&pid).expect("present above");
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
            Ok(Some((TAG_HELLO_EDGE, payload))) => Hello::parse(&payload),
            _ => None,
        };
        let conn = self.conns[wi].take().expect("present above");
        match hello {
            Some(hello) if hello.id == self.core.peer(wi) => {
                self.install_edge(conn, &hello, false, ctx);
            }
            _ => self.core.edge_down(wi, ctx.now),
        }
    }

    /// Installs a connection whose `hello` named its peer in place of
    /// the edge's previous one; the core answers the hello.
    fn install_edge(&mut self, mut conn: Conn, hello: &Hello, accepted: bool, ctx: &Ctx<'_>) {
        // An unknown peer id is a protocol violation from an untrusted
        // connection: drop it.
        let Some(wi) = self.core.edge_index(hello.id) else {
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
        let step = self.core.edge_up(wi, ctx.now, hello, accepted, dec);
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

    /// Fires this node's due redials and places the dials. A peer this
    /// reactor owns is dialed in-process: the far end of a local pipe
    /// pair goes to `accepted`, for the peer to adopt. A peer on another
    /// reactor gets the far end of a socketpair through that reactor's
    /// mailbox. An ack due goes out at the flush that follows.
    fn run_timers(&mut self, ctx: &Ctx<'_>, accepted: &mut Vec<(usize, Stream)>) {
        let step = self.core.tick(ctx.now);
        let dial = step.dial;
        self.absorb(step, ctx);
        for wi in (0..self.conns.len()).filter(|_| dial) {
            if !self.core.is_dialing(wi) || self.conns[wi].is_some() {
                continue;
            }
            let tok = Tok::Dial(self.slot, wi);
            let (shard, slot) = ctx.homes[self.core.peer(wi).idx()];
            let stream = if shard == ctx.shard {
                let (ours, theirs) = LocalStream::pair(&ctx.rd.ready);
                accepted.push((slot, Stream::Local(theirs)));
                Ok(Stream::Local(ours))
            } else {
                UnixStream::pair().map(|(ours, theirs)| {
                    ctx.mailboxes[shard].post(slot, theirs);
                    Stream::Uds(ours)
                })
            };
            match stream.and_then(|stream| Conn::new(stream, ctx.rd, tok)) {
                Ok(conn) => self.conns[wi] = Some(conn),
                Err(_) => self.core.edge_down(wi, ctx.now),
            }
        }
    }

    /// The peer half of a flush: the core's flush boundary (acks that
    /// ride or are due), then every edge queue into its connection (or
    /// its dial: our hello).
    fn flush_edges(&mut self, ctx: &Ctx<'_>) {
        self.core.flush_prep(ctx.now);
        for wi in 0..self.conns.len() {
            let out = self.core.edge_out(wi);
            let Some(conn) = self.conns[wi].as_mut().filter(|_| !out.is_empty()) else {
                continue;
            };
            if conn.flush(out).is_err() {
                self.conns[wi].take().expect("flushed above").close();
                self.core.edge_down(wi, ctx.now);
            }
        }
    }

    /// The client half, after [`NodeIo::flush_edges`]: every client queue
    /// into its socket, each socket parked exactly while the core is
    /// stalled, and the log folded into a snapshot when due.
    fn flush_clients(&mut self) {
        let stalled = self.core.stalled();
        let core = &mut self.core;
        // A client that cannot flush or rejoin is dropped like a dead one.
        let mut dropped: Vec<ClientId> = Vec::new();
        self.clients.retain(|&cid, conn| {
            let mut serve = || {
                if let Some(out) = core.client_out(cid).filter(|q| !q.is_empty()) {
                    conn.flush(out)?;
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
    }

    /// Process-grade kill: every connection is severed and the core comes
    /// back from the log.
    fn kill9_restart(&mut self, ctx: &Ctx<'_>) {
        self.kill9 = false;
        let pending = self.pending.drain().map(|(_, (_, c))| c);
        let clients = self.clients.drain().map(|(_, c)| c);
        let edges = self.conns.iter_mut().filter_map(Option::take);
        for conn in pending.chain(clients).chain(edges) {
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

/// What a reactor returns at shutdown: the final report of every node
/// in its shard, and the reactor's kernel crossings.
pub(crate) type ShardReport<V> = (Vec<(NodeId, NodeReport<V>)>, IoCounts);

/// The reactor thread body: serves its shard until cluster shutdown,
/// then returns its [`ShardReport`].
pub(crate) fn reactor_main<S, A>(cfg: ReactorCfg<S, A>) -> ShardReport<A::Value>
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
        homes,
        mailboxes,
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
    let rd = Readiness::new().expect("create poller");
    rd.poller
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
        in_flight: &in_flight,
        total_sent: &total_sent,
        rd: &rd,
        shard: shard as usize,
        homes: &homes,
        mailboxes: &mailboxes,
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
    let mut ready_pipes: Vec<u64> = Vec::new();
    let mut accepted: Vec<(usize, Stream)> = Vec::new();
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
        // they hit sockets and pipes — for the nodes the last wakeup
        // touched.
        //
        // Two passes: every touched node's edges, then every touched
        // node's clients. A response written to a client wakes its
        // thread, which on a busy CPU runs at once in the reactor's
        // place; node by node, that held back the mechanism frames the
        // nodes further down the list had already queued.
        for &slot in &touched.slots {
            nodes[slot].flush_edges(&ctx);
        }
        for slot in touched.slots.drain(..) {
            let node = &mut nodes[slot];
            node.flush_clients();
            deadlines[slot] = node.core.next_deadline();
            touched.marked[slot] = false;
        }

        // Sleep until the earliest deadline, else until a socket or the
        // waker fires; not at all while a local pipe has a reader to
        // run. The wait counts whole milliseconds, so round up:
        // rounding down wakes the loop just before the deadline.
        let timeout = if rd.ready.is_empty() {
            deadlines.iter().flatten().min().map(|at| {
                let left = at.saturating_duration_since(ctx.now);
                Duration::from_millis(left.as_micros().div_ceil(1000) as u64)
            })
        } else {
            Some(Duration::ZERO)
        };

        // A wait error (EINTR aside, which is Ok(0)) leaves the buffer
        // empty and retries; nothing registered can make epoll_wait
        // fail persistently.
        let t_poll = oat_obs::now_ns();
        let _ = rd.poller.wait(&mut events, timeout);
        rd.count(|c| c.epoll_wait += 1);
        // The pipes ready now are this pass's batch; a reader requeued
        // while it runs waits for the next pass, as a socket left
        // readable waits for the next wait.
        rd.ready.take_into(&mut ready_pipes);
        // The loop's one clock read: the inputs and timers of this pass
        // all run at this instant.
        ctx.now = Instant::now();
        let ready = (events.len() + ready_pipes.len()) as u32;
        if t_poll != 0 {
            oat_obs::trace_span!(oat_obs::EventKind::PollWake, t_poll, shard, ready, 0);
        }

        if shutting_down.load(Ordering::SeqCst) {
            let reports = nodes.into_iter().map(|node| node.finish(&ctx)).collect();
            return (reports, rd.counts.get());
        }

        let t_dispatch = oat_obs::now_ns();
        let sockets = events.iter().map(|ev| (ev.token, ev.readable()));
        let pipes = ready_pipes.drain(..).map(|token| (token, true));
        for (token, readable) in sockets.chain(pipes) {
            // Handlers tolerate a token whose connection is gone or was
            // replaced earlier in this batch: the lookup misses, or the
            // spurious read returns WouldBlock.
            let slot = match Tok::unpack(token) {
                None => continue,
                Some(Tok::Waker) => {
                    // Drain the nudge bytes, then adopt what the other
                    // reactors posted; the shutdown flag was checked above.
                    let mut byte = [0u8; 64];
                    while matches!((&waker_rx).read(&mut byte), Ok(n) if n > 0) {}
                    for (slot, stream) in mailboxes[shard as usize].take() {
                        nodes[slot].adopt(Stream::Uds(stream), TAG_HELLO_EDGE, &ctx);
                    }
                    continue;
                }
                Some(Tok::Listener(i)) => {
                    nodes[i].on_accept_ready(&ctx);
                    i
                }
                Some(Tok::Pending(i, pid)) => {
                    if readable {
                        nodes[i].on_pending_ready(pid, &ctx, &mut scratch);
                    }
                    i
                }
                Some(Tok::Dial(i, wi)) => {
                    if readable {
                        nodes[i].on_dial_ready(wi, &ctx, &mut scratch);
                    }
                    i
                }
                Some(Tok::Edge(i, wi)) => {
                    if readable {
                        nodes[i].on_edge_ready(wi, &ctx, &mut scratch);
                    }
                    i
                }
                Some(Tok::Client(i, cid)) => {
                    if readable {
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
        if ready > 0 {
            oat_obs::trace_span!(oat_obs::EventKind::Dispatch, t_dispatch, shard, ready, 0);
        }

        // Timers: only the nodes whose deadline has passed, each flushed
        // at the top of the loop, which sends the acks due and notes the
        // node's next deadline. Their local dials land in the peers'
        // `pending` here.
        for (slot, node) in nodes.iter_mut().enumerate() {
            if deadlines[slot].is_some_and(|at| at <= ctx.now) {
                node.run_timers(&ctx, &mut accepted);
                touched.mark(slot);
            }
        }
        for (slot, stream) in accepted.drain(..) {
            nodes[slot].adopt(stream, TAG_HELLO_EDGE, &ctx);
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
        let rd = Readiness::new().unwrap();
        let mut conn = Conn::new(Stream::Tcp(a), &rd, Tok::Pending(0, 0)).unwrap();
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
        let rd = Readiness::new().unwrap();
        let mut conn = Conn::new(Stream::Tcp(a), &rd, Tok::Pending(0, 0)).unwrap();
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
        let (mailbox, rx) = Mailbox::new().unwrap();
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
        mailbox.wake();
        let got: Vec<Option<Tok>> = h.join().unwrap();
        assert_eq!(got, vec![Some(Tok::Waker)]);
    }

    #[test]
    fn in_flight_wakes_every_wait_without_the_safety_net() {
        // The waiter charges a unit and waits; the settler, polling the
        // count, settles it at once, so each round the count goes
        // 0 → 1 → 0 and the settle races the waiter's check and park. A
        // lost wakeup leaves the waiter parked until the 50 ms cap with
        // the count already at zero, which `missed` counts; a thread
        // descheduled for a while on a loaded host does not.
        const ROUNDS: usize = 10_000;
        let in_flight = InFlight::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    while in_flight.load() == 0 {
                        std::thread::yield_now();
                    }
                    in_flight.add(-1);
                }
            });
            for _ in 0..ROUNDS {
                in_flight.add(1);
                assert!(in_flight.wait_zero(None));
            }
        });
        assert_eq!(in_flight.load(), 0);
        let missed = in_flight.missed.load(Ordering::Relaxed);
        assert_eq!(missed, 0, "waits that ran into the safety net");
    }

    #[test]
    fn in_flight_deadline_wait_reports_whether_the_count_drained() {
        let in_flight = InFlight::new();
        in_flight.add(2);
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(
            !in_flight.wait_zero(Some(deadline)),
            "the count is stuck at 2"
        );
        assert!(Instant::now() >= deadline);
        in_flight.add(-1);
        let soon = Some(Instant::now() + Duration::from_millis(5));
        assert!(!in_flight.wait_zero(soon), "the count is stuck at 1");
        in_flight.add(-1);
        // At zero, even a deadline already past reports drained.
        assert!(in_flight.wait_zero(Some(Instant::now())));
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
        let rd = Readiness::new().unwrap();
        let tok = Tok::Client(2, 9);
        let mut conn = Conn::new(Stream::Tcp(a), &rd, Tok::Pending(2, 0)).unwrap();
        conn.retoken(tok).unwrap();
        let mut events = Events::with_capacity(4);
        let mut wait = |ms| {
            rd.poller
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
