//! The reactor runtime: event-loop threads driving non-blocking
//! sockets through a persistent epoll registration.
//!
//! ## Thread model
//!
//! A cluster runs a small fixed pool of reactor threads (default
//! `min(cores, 4)`), each owning the shard of nodes with
//! `node_id % pool == shard`. *All* of a node's I/O — its listener, its
//! edge connections, its client connections, its redial timers — is
//! served by its owning reactor thread, so every per-node structure
//! (automaton, sequenced links, waiters, stats) is plain single-owner
//! state with no locks, no inbox channel, and no reader threads. The
//! previous runtime spawned ~3 blocking threads per node; this one
//! spawns exactly `pool` threads regardless of tree size (the figure
//! `ClusterReport::threads_spawned` records).
//!
//! ## The readiness loop
//!
//! Each reactor owns one [`Poller`]: a level-triggered epoll instance
//! whose interest set lives in the kernel. A socket is registered once,
//! where it is adopted — the waker and every listener at spawn, every
//! other socket by [`Conn::new`] on accept or dial — under a packed
//! [`Tok`] naming its node and role. A hello that promotes a connection
//! to an edge or a client re-tokens it; [`Conn`]'s drop removes it
//! before the descriptor closes, so a reused fd number never aliases a
//! dead registration. `POLLOUT` is armed by the flush that hits
//! `WouldBlock` and disarmed by the one that drains the queue.
//!
//! One wakeup then costs what is ready, not what exists. `wait` returns
//! the ready `(token, bits)` pairs; each is read in bounded chunks into
//! its connection's [`FrameDecoder`] (level-triggered: leftovers
//! re-report) and every complete frame is dispatched inline on the
//! owning node. Dispatches only *queue* bytes; afterwards exactly the
//! nodes an event named — plus those whose retransmit or redial timer
//! fired, plus any still holding bytes that no `POLLOUT` can announce
//! (a ring link waiting for its space-freed nudge) — are flushed, the
//! single point where bytes hit sockets: first every such node's edges
//! ([`NodeRt::flush_edges`]), then every such node's clients
//! ([`NodeRt::flush_clients`]), so the thread a client response wakes
//! never runs ahead of mechanism frames already queued. The
//! only per-iteration walk over all nodes is the memory-only timer scan
//! that also yields the sleep bound. The cluster's waker nudges the
//! loop for shutdown, the only cross-thread signal.
//!
//! Cross-node delivery needs no special case: a node writes to the TCP
//! edge exactly as before, and the peer's socket becomes readable on
//! its own reactor — whether that is the same thread (next iteration)
//! or another one. Quiescence, sequencing, retransmission, and fault
//! injection are all per-node state transitions and survive the move
//! from threads to events wholesale (see [`crate::node`]).

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
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

use crate::frame::{write_frame, FrameDecoder};
use crate::node::{Ctx, NodeReport, NodeRt, RTO};
use crate::transport::{Listener, NodeAddr, Stream};

/// Cluster-wide in-flight work counter with event-driven quiescence.
///
/// Client requests and unacked edge frames each hold one unit of debt;
/// [`InFlight::wait_zero`] parks on a condvar that [`InFlight::sub`]
/// notifies exactly when the count hits zero — replacing the
/// sleep-polling loop that used to dominate the sequential path.
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

    pub(crate) fn add(&self, d: i64) {
        self.n.fetch_add(d, Ordering::SeqCst);
    }

    pub(crate) fn sub(&self, d: i64) {
        if self.n.fetch_sub(d, Ordering::SeqCst) - d == 0 {
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

/// Target size for coalescing small frames into one owned chunk, and
/// therefore one `iovec` of the vectored write.
const COALESCE: usize = 8 * 1024;

/// Max `iovec`s per `write_vectored` call.
const MAX_IOVECS: usize = 32;

/// Bytes read per `read` call on a ready socket.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Reads issued per readiness event before yielding back to the loop
/// (level-triggered `poll` re-reports anything left in the kernel).
const READS_PER_EVENT: usize = 4;

/// Outbound byte queue of one connection: whole frames, coalesced into
/// chunks, drained with `write_vectored` and `WouldBlock` requeueing.
#[derive(Default)]
pub(crate) struct WriteQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of `chunks[0]` already written (a partial vectored write).
    offset: usize,
}

impl WriteQueue {
    pub(crate) fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Encodes one frame onto the queue. Small frames append to the
    /// tail chunk (one future iovec); a frame arriving at a full tail
    /// starts a new chunk. Infallible: the queue is memory, and every
    /// frame the runtime produces is well under `MAX_FRAME`.
    pub(crate) fn frame(&mut self, tag: u8, payload: &[u8]) {
        match self.chunks.back_mut() {
            Some(tail) if tail.len() < COALESCE => {
                write_frame(tail, tag, payload).expect("runtime frames are bounded");
            }
            _ => {
                let mut chunk = Vec::with_capacity((5 + payload.len()).max(64));
                write_frame(&mut chunk, tag, payload).expect("runtime frames are bounded");
                self.chunks.push_back(chunk);
            }
        }
    }

    /// Writes as much as the socket accepts. `Ok(true)` means drained,
    /// `Ok(false)` means `WouldBlock` with bytes still queued (the
    /// caller arms `POLLOUT`), `Err` means the connection is dead.
    pub(crate) fn flush(&mut self, stream: &mut Stream) -> io::Result<bool> {
        loop {
            if self.chunks.is_empty() {
                return Ok(true);
            }
            let mut iovecs: Vec<IoSlice<'_>> =
                Vec::with_capacity(MAX_IOVECS.min(self.chunks.len()));
            for (i, chunk) in self.chunks.iter().take(MAX_IOVECS).enumerate() {
                let slice = if i == 0 {
                    &chunk[self.offset..]
                } else {
                    &chunk[..]
                };
                iovecs.push(IoSlice::new(slice));
            }
            match stream.write_vectored(&iovecs) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(mut n) => {
                    while n > 0 {
                        let front_left = self.chunks[0].len() - self.offset;
                        if n >= front_left {
                            n -= front_left;
                            self.chunks.pop_front();
                            self.offset = 0;
                        } else {
                            self.offset += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// One non-blocking connection: the stream, its incremental frame
/// decoder (read side) and write queue (write side), and its
/// registration with the owning reactor's [`Poller`].
///
/// The connection owns that registration for its whole life: added on
/// adoption, re-tokened when a hello reveals what it is, `POLLOUT`
/// armed and disarmed by its own flushes, and removed on drop — before
/// the descriptor closes.
pub(crate) struct Conn {
    pub(crate) stream: Stream,
    pub(crate) dec: FrameDecoder,
    pub(crate) out: WriteQueue,
    poller: Rc<Poller>,
    tok: Tok,
    /// Interest bits currently registered; `None` while parked.
    interest: Option<i16>,
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
            out: WriteQueue::default(),
            poller: Rc::clone(poller),
            tok,
            interest: Some(POLLIN),
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

    /// The interest this connection should be registered with: reads,
    /// plus writes while bytes are queued on a transport where `POLLOUT`
    /// means something. Ring doorbells are almost always writable, so
    /// arming `POLLOUT` on them would busy-spin; a blocked ring write
    /// recovers via the peer's space-freed nudge (`POLLIN`).
    fn wanted(&self) -> i16 {
        if !self.out.is_empty() && self.stream.wants_pollout() {
            POLLIN | POLLOUT
        } else {
            POLLIN
        }
    }

    /// Takes the socket out of the poller without closing it. A parked
    /// connection reports nothing — not even a hangup, which epoll
    /// delivers whatever the interest mask (so masking would not do).
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

    /// Reads a bounded amount of whatever is available into the
    /// decoder. Returns `true` when the connection is dead (EOF or a
    /// hard error) — already-decoded bytes remain valid and must be
    /// drained by the caller before tearing the connection down.
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

    /// Flushes the write queue (see [`WriteQueue::flush`]) and syncs
    /// the registration to the outcome: `WouldBlock` arms `POLLOUT`, a
    /// drained queue disarms it. One `epoll_ctl` per transition, none
    /// in the steady state where every flush drains.
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        let drained = self.out.flush(&mut self.stream)?;
        let bits = self.wanted();
        if self.interest.is_some_and(|cur| cur != bits) {
            self.poller
                .set_interest(self.stream.as_raw_fd(), self.tok.pack(), bits)?;
            self.interest = Some(bits);
        }
        Ok(drained)
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
/// socketpair whose read half is registered with the reactor's poller.
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
/// listener and its durability backend (opened by the cluster on the
/// main thread, where open errors can still fail the spawn).
pub(crate) struct NodeSeed {
    pub id: NodeId,
    pub listener: Listener,
    pub backend: Box<dyn crate::durability::Durability>,
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

/// How many of the shard's nodes have a timer pending, so the loop
/// knows its sleep bound — and whether any timer work exists at all —
/// without walking them. Every wakeup that changes a node ends in that
/// node's flush, after which [`Timers::note`] brings its entry up to
/// date.
struct Timers {
    /// Per slot: `(wants the RTO tick, has a redial pending)`.
    noted: Vec<(bool, bool)>,
    rto: usize,
    redial: usize,
}

impl Timers {
    fn note(&mut self, slot: usize, wants_rto: bool, redialing: bool) {
        let was = std::mem::replace(&mut self.noted[slot], (wants_rto, redialing));
        self.rto = self.rto + usize::from(wants_rto) - usize::from(was.0);
        self.redial = self.redial + usize::from(redialing) - usize::from(was.1);
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
    let ctx = Ctx {
        tree: &tree,
        addrs: &addrs,
        op: &op,
        spec: &spec,
        ghost,
        in_flight: &in_flight,
        total_sent: &total_sent,
        ledger: &ledger,
        rtx_high,
        rtx_low,
        poller: &poller,
    };
    let mut nodes: Vec<NodeRt<S, A>> = shard_nodes
        .into_iter()
        .enumerate()
        .map(|(slot, seed)| NodeRt::new(slot, seed, &ctx, &plan, ready_tx.clone()))
        .collect();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    // Every node starts touched: dialers are born with a redial due.
    let mut touched = Touched {
        marked: vec![true; nodes.len()],
        slots: (0..nodes.len()).collect(),
    };
    let mut timers = Timers {
        noted: vec![(false, false); nodes.len()],
        rto: 0,
        redial: 0,
    };
    let mut last_tick = Instant::now();
    loop {
        // Dispatches only ever *queue* bytes; this is the single point
        // where they hit sockets — for the nodes the last wakeup
        // touched. A node stays listed while it holds bytes no POLLOUT
        // will announce, and is retried at every wakeup.
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
            timers.note(slot, node.wants_rto_tick(), node.next_redial().is_some());
            touched.marked[slot]
        });

        // Timers: the retransmission tick at RTO cadence, redials due.
        // The nodes are walked only on a tick (33 Hz at most) or while
        // some edge is down; a node whose timer queued bytes is flushed
        // on the spot.
        let now = Instant::now();
        let tick = now.duration_since(last_tick) >= RTO;
        if tick {
            last_tick = now;
        }
        if tick || timers.redial > 0 {
            for (slot, node) in nodes.iter_mut().enumerate() {
                if node.run_timers(&ctx, now, tick) && node.flush(&ctx) {
                    touched.mark(slot);
                }
                timers.note(slot, node.wants_rto_tick(), node.next_redial().is_some());
            }
        }
        // Sleep until the next RTO tick if anyone has unacked frames,
        // the earliest redial timer, else until a socket or the waker
        // fires.
        let mut deadline = (timers.rto > 0).then(|| last_tick + RTO);
        if timers.redial > 0 {
            let redials = nodes.iter().filter_map(NodeRt::next_redial);
            deadline = deadline.into_iter().chain(redials).min();
        }
        let timeout = deadline.map(|at| at.saturating_duration_since(now));

        // A wait error (EINTR aside, which is Ok(0)) leaves the buffer
        // empty and retries; nothing registered can make epoll_wait
        // fail persistently.
        let t_poll = oat_obs::now_ns();
        let _ = poller.wait(&mut events, timeout);
        if t_poll != 0 {
            let ready = events.len() as u32;
            oat_obs::trace_span!(oat_obs::EventKind::PollWake, t_poll, shard, ready, 0);
        }

        if shutting_down.load(Ordering::SeqCst) {
            return nodes
                .into_iter()
                .map(|mut node| {
                    node.flush(&ctx);
                    (node.id(), node.finish())
                })
                .collect();
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
                        nodes[i].on_client_ready(cid, &ctx, &mut scratch);
                    }
                    i
                }
            };
            // A pure POLLOUT wakeup needs no handler: the flush pass at
            // the top of the next iteration makes the progress.
            touched.mark(slot);
        }
        // A kill9 scheduled mid-dispatch demolishes the node's state, so
        // it runs here, after the event loop is done touching it. Only a
        // dispatch can schedule one, so only touched nodes are asked.
        for &slot in &touched.slots {
            if nodes[slot].take_kill9() {
                nodes[slot].kill9_restart(&ctx);
            }
        }
        if !events.is_empty() {
            let handled = events.len() as u32;
            oat_obs::trace_span!(oat_obs::EventKind::Dispatch, t_dispatch, shard, handled, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut expected = Vec::new();
        for i in 0..100u8 {
            let payload = vec![i; 1 + (i as usize % 300)];
            conn.out.frame(i, &payload);
            write_frame(&mut expected, i, &payload).unwrap();
        }
        // Small frames coalesce: far fewer chunks than frames.
        assert!(conn.out.chunks.len() < 20, "got {}", conn.out.chunks.len());
        while !conn.flush().unwrap() {}
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
        // Enough data to overwhelm the kernel buffers of an unread peer.
        let big = vec![0xAB; 256 * 1024];
        for _ in 0..32 {
            conn.out.frame(9, &big);
        }
        let drained = conn.flush().unwrap();
        assert!(!drained, "unread peer must WouldBlock eventually");
        assert!(!conn.out.is_empty());
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
        while !conn.flush().unwrap() {
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
        for _ in 0..32 {
            conn.out.frame(9, &big);
        }
        assert!(!conn.flush().unwrap(), "unread peer must WouldBlock");
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
                    conn.flush().unwrap();
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(conn.out.is_empty());
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
