//! The sequenced edge link: the protocol half of one tree edge.
//!
//! The paper assumes reliable FIFO channels; a single connection
//! provides that only while it lives. Every payload frame between
//! neighbours therefore carries a per-directed-edge sequence number
//! (`TAG_SEQ`), the receiver delivers exactly the next expected number
//! and discards duplicates, and acknowledges cumulatively (`TAG_ACK`).
//! The sender keeps unacknowledged frames in a retransmit buffer and
//! re-sends them after a reconnect, resuming from the watermark the
//! peer's hello reported. Together: per-edge FIFO **exactly-once**
//! delivery within one incarnation of each end, across killed
//! connections and injected faults.
//!
//! ## Loss is a connection event
//!
//! A byte stream never loses one frame and then delivers the next, so a
//! lost frame is a lost connection. An injected drop or delay suppresses
//! the frame and severs the connection after it, as a scheduled kill
//! does ([`Link::send`]); a frame above the next expected number on a
//! live connection is a corrupt stream and severs it too
//! ([`Link::receive`]). The reconnect's hello exchange and replay is the
//! only way a frame is ever re-sent, so no timer judges a frame lost: a
//! delayed frame arrives late and in order, through the replay.
//!
//! Injected faults never touch the quiescence or message-count books:
//! stats are recorded once, when a frame is numbered, and the in-flight
//! gauge is charged then and settled once, when the frame is delivered;
//! retransmits and duplicates are not re-counted, and a discarded
//! duplicate settles nothing. A fault-free run and a faulty-but-recovered
//! run have identical logical message counts.
//!
//! ## A restart is a reset
//!
//! A link's state lives only in memory. A kill9 or a cold start loses it
//! ([`Link::reset`]): the end comes back with `tx_seq = rx_seq = 0`, an
//! empty retransmit buffer and a new *incarnation* token, which its edge
//! hello carries. An in-process crash keeps the links and the token. A
//! peer whose hello shows a new incarnation of the far end drops its
//! retransmit buffer toward it and zeroes both watermarks
//! ([`Link::on_hello`]): every frame either end had in flight was for a
//! dead incarnation, and the restarted node's `RESET`, the first frame of
//! its new stream, makes the peer void what those frames carried. The
//! hello also names the incarnation of the receiver its watermark was
//! kept for, so a watermark about a dead incarnation trims nothing.
//!
//! ## Quiescence accounting for edge frames
//!
//! Edge frames settle on *delivery*: a frame charges one unit of
//! in-flight debt when it is assigned its sequence number and settles
//! it when the receiving end delivers it in order. Each end of a link
//! therefore owes `tx_seq − rx_seq`, and the ends of every edge together
//! owe Σ over its two directions of (sender `tx_seq` − receiver
//! `rx_seq`): the frames numbered and not yet delivered.
//!
//! A reset leaves what the dead incarnation owed on the books as the
//! link's `dead` debt, except that a negative balance settles at once.
//! Until the peer applies the new incarnation's hello it may still
//! deliver frames of the dead one from the old stream, and the dead debt
//! covers them. The peer settles its own share when it applies that
//! hello and zeroes its watermarks; the reset end settles the dead debt
//! once it knows the peer did: at the peer's reply when it dialed, and
//! at the dialer's first frame after the exchange when it accepted. So
//! the debt can only over-count during recovery, never under-count.
//!
//! ## Acks
//!
//! An ack trims the retransmit buffer; it settles no frame's debt, so no
//! quiescence waits on it, and it is lost only together with its
//! connection, whose next hello carries the watermark. [`Link::flush_ack`]
//! sends one only when a frame is already queued on the connection (the
//! ack rides its write), when the oldest unacknowledged delivery is
//! [`ACK_DELAY`] old, or, once per connection, when the dialing end has
//! just applied a hello exchange ([`Link::on_hello`]).
//!
//! ## No sockets, no clock
//!
//! A [`Link`] has one plain method per input. One that arms a timer (an
//! ack deadline, a redial) takes `now` (an `Instant` in the runtime, a
//! virtual `Duration` in the tests below); each writes frames into a
//! [`FrameSink`] the caller supplies and returns a [`Step`]: what the
//! caller must charge, settle, count or sever.

use std::collections::VecDeque;
use std::ops::{Add, AddAssign};
use std::sync::atomic::Ordering;
use std::time::Duration;

use oat_core::fault::{EdgeFaults, FaultAction, FaultPlan, InjectedFaults};
use oat_core::tree::NodeId;
use oat_core::wire::{put_u32, put_u64, WireReader};

use crate::frame::{TAG_ACK, TAG_HELLO_EDGE, TAG_SEQ};

/// How long a delivered frame may wait for its ack when no frame of the
/// reverse direction comes to carry it. Only an ack trims the sender's
/// retransmit buffer, so the deadline bounds that buffer's growth on an
/// edge whose traffic runs one way, and lets a node stalled at its high
/// watermark leave backpressure (`rtx_low`).
pub(crate) const ACK_DELAY: Duration = Duration::from_micros(7_500);

/// Reconnect backoff: first delay, doubled per failed attempt up to the
/// cap, with seeded jitter in `[0, delay)` added on top.
const RECONNECT_BASE_MS: u64 = 2;
const RECONNECT_CAP_MS: u64 = 200;

/// Where a link writes its frames: a write queue, or a test channel.
pub(crate) trait FrameSink {
    fn frame(&mut self, tag: u8, payload: &[u8]);
}

/// What one link input asks of its caller.
#[must_use]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Step {
    /// In-flight debt: frames charged (positive) or settled (negative).
    pub(crate) debt: i64,
    /// Sequenced frames re-sent by the post-hello replay.
    pub(crate) resent: u64,
    /// The connection lost a frame (an injected drop or delay, a gap) or
    /// a scheduled kill fired: sever it.
    pub(crate) sever: bool,
}

impl Step {
    fn debt(debt: i64) -> Step {
        Step {
            debt,
            ..Step::default()
        }
    }
}

impl AddAssign for Step {
    fn add_assign(&mut self, s: Step) {
        self.debt += s.debt;
        self.resent += s.resent;
        self.sever |= s.sever;
    }
}

/// An edge hello: the first frame each end writes on a new connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Hello {
    /// The sender's node id.
    pub(crate) id: NodeId,
    /// The sender's rx watermark on the edge.
    pub(crate) rx: u64,
    /// The sender's incarnation: it changes only when the sender lost
    /// its link state (a kill9, a cold start).
    pub(crate) inc: u64,
    /// The receiver's incarnation that `rx` was kept for.
    pub(crate) seen: u64,
}

impl Hello {
    /// Parses a hello payload: `[u32 id][u64 rx][u64 inc][u64 seen]`.
    pub(crate) fn parse(payload: &[u8]) -> Option<Hello> {
        let mut r = WireReader::new(payload);
        let hello = Hello {
            id: NodeId(r.u32("hello node id").ok()?),
            rx: r.u64("hello rx watermark").ok()?,
            inc: r.u64("hello incarnation").ok()?,
            seen: r.u64("hello seen incarnation").ok()?,
        };
        r.finish("hello trailing bytes").ok()?;
        Some(hello)
    }
}

/// Both directions of one edge, seen from one end. The sequence space
/// survives reconnects and crashes; a kill9 resets it.
pub(crate) struct Link<T> {
    me: NodeId,
    pub(crate) peer: NodeId,
    /// This end's incarnation, carried by its hellos.
    inc: u64,
    /// The peer's incarnation as the last hello applied since this end's
    /// own birth or reset named it.
    peer_inc: Option<u64>,
    /// Last sequence number assigned to an outgoing frame.
    tx_seq: u64,
    /// Unacknowledged frames: `(seq, inner tag, body)`.
    rtx: VecDeque<(u64, u8, Vec<u8>)>,
    /// Highest in-order sequence number received from the peer.
    rx_seq: u64,
    /// Highest rx watermark acked back to the peer.
    rx_acked: u64,
    /// Send the cumulative ack at the next flush even though `rx_seq`
    /// did not advance: the dialing end just applied a hello exchange,
    /// and the accepting end settles its dead debt on that frame.
    reack: bool,
    /// When the ack owed since the oldest delivery above `rx_acked` is
    /// due on its own ([`ACK_DELAY`] after that delivery).
    ack_at: Option<T>,
    /// What dead incarnations of this end owed, settled once the peer
    /// applied this incarnation's hello (see the module docs).
    dead: u64,
    /// Frames discarded: duplicates, a frame past a gap (which severs),
    /// undecodables, malformed acks.
    pub(crate) dup_drops: u64,
    /// Seeded fault-decision stream for this directed edge.
    faults: Option<EdgeFaults>,
    /// When to attempt the next dial (dialer side, edge down).
    redial_at: Option<T>,
    backoff_ms: u64,
    /// splitmix64 state for reconnect jitter, seeded per directed edge.
    jitter_state: u64,
}

/// `T` is the clock: anything ordered that a `Duration` can be added to.
impl<T: Copy + Ord + Add<Duration, Output = T>> Link<T> {
    /// The link from `me` to `peer`, down, in incarnation 0; a dialer is
    /// due to dial at `now`. Faults are drawn from `plan`'s stream for
    /// this edge.
    pub(crate) fn new(me: NodeId, peer: NodeId, plan: &FaultPlan, now: T) -> Link<T> {
        let mut link = Link {
            me,
            peer,
            inc: 0,
            peer_inc: None,
            tx_seq: 0,
            rtx: VecDeque::new(),
            rx_seq: 0,
            rx_acked: 0,
            reack: false,
            ack_at: None,
            dead: 0,
            dup_drops: 0,
            faults: (!plan.is_empty()).then(|| plan.edge_stream(me, peer)),
            redial_at: None,
            backoff_ms: RECONNECT_BASE_MS,
            jitter_state: plan.jitter_seed(me, peer),
        };
        link.down(now);
        link
    }

    /// Frames in the retransmit buffer.
    pub(crate) fn unacked(&self) -> usize {
        self.rtx.len()
    }

    /// When the next dial is due, if one is armed.
    pub(crate) fn next_redial(&self) -> Option<T> {
        self.redial_at
    }

    /// When the owed ack is due on its own, if one is owed.
    pub(crate) fn next_ack(&self) -> Option<T> {
        self.ack_at
    }

    /// Numbers `(inner, body)` and buffers it, charging its debt once;
    /// transmits it when the connection is up (`out` is `Some`), subject
    /// to the edge's fault stream, whose injections go to `ledger`.
    pub(crate) fn send(
        &mut self,
        inner: u8,
        body: Vec<u8>,
        out: Option<&mut impl FrameSink>,
        ledger: &InjectedFaults,
    ) -> Step {
        self.tx_seq += 1;
        let seq = self.tx_seq;
        oat_obs::trace_event!(
            oat_obs::EventKind::FrameTx,
            self.me.0,
            self.peer.0,
            (seq << 8) | u64::from(inner)
        );
        self.rtx.push_back((seq, inner, body));
        let mut step = Step::debt(1);
        let Some(out) = out else {
            return step;
        };
        let body = &self.rtx.back().expect("just pushed").2;
        let action = self.faults.as_mut().map(EdgeFaults::next_action);
        // A drop or a delay suppresses the frame and severs the
        // connection after it (see the module docs): the reconnect
        // replays it, late but in per-edge FIFO order.
        let (copies, injected) = match action {
            None | Some(FaultAction::Deliver) => (1, None),
            Some(FaultAction::Drop) => (0, Some(&ledger.drops)),
            Some(FaultAction::Delay) => (0, Some(&ledger.delays)),
            Some(FaultAction::Duplicate) => (2, Some(&ledger.dups)),
        };
        for _ in 0..copies {
            put_seq(out, seq, inner, body);
        }
        if let Some(counter) = injected {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        step.sever = copies == 0;
        if self
            .faults
            .as_mut()
            .is_some_and(EdgeFaults::on_frame_carried)
        {
            // Scheduled connection kill: the caller severs the stream with
            // frames possibly still in its buffers — they are genuinely
            // lost and come back via reconnect replay.
            ledger.conns_killed.fetch_add(1, Ordering::Relaxed);
            step.sever = true;
        }
        step
    }

    /// One frame read from the live connection at `now`. The next
    /// expected `TAG_SEQ` frame is delivered through `decode` and settles
    /// its debt; the caller handles it in the same step. A later one
    /// shows a gap, so the step severs the connection (see the module
    /// docs). It, everything else, and a delivered frame `decode`
    /// rejects (the rx watermark still covers it), count in `dup_drops`.
    pub(crate) fn receive<X>(
        &mut self,
        now: T,
        tag: u8,
        payload: &[u8],
        decode: impl FnOnce(u8, &[u8]) -> Option<X>,
    ) -> (Step, Option<X>) {
        // Any frame after a hello shows that the peer applied its side of
        // the exchange: the dead debt settles now.
        let mut step = Step::debt(-(std::mem::take(&mut self.dead) as i64));
        let word = payload
            .get(..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8")));
        match (tag, word) {
            (TAG_SEQ, Some(seq)) if payload.len() > 8 && seq == self.rx_seq + 1 => {
                self.rx_seq = seq;
                self.ack_at = self.ack_at.or(Some(now + ACK_DELAY));
                let inner = payload[8];
                oat_obs::trace_event!(
                    oat_obs::EventKind::FrameRx,
                    self.me.0,
                    self.peer.0,
                    (seq << 8) | u64::from(inner)
                );
                let got = decode(inner, &payload[9..]);
                self.dup_drops += u64::from(got.is_none());
                step.debt -= 1;
                return (step, got);
            }
            // A frame past a gap: the next hello replays from the gap.
            (TAG_SEQ, Some(seq)) if payload.len() > 8 && seq > self.rx_seq => step.sever = true,
            // A cumulative ack is exactly one u64, never past a number
            // this end assigned (that would settle frames not yet sent).
            (TAG_ACK, Some(upto)) if payload.len() == 8 && upto <= self.tx_seq => {
                self.trim(upto);
                return (step, None);
            }
            _ => {}
        }
        self.dup_drops += 1;
        (step, None)
    }

    /// Queues the cumulative ack at `now` once after the dialing end's
    /// hello, or when the rx watermark moved since the last one and
    /// either `riding` (a frame is already queued for the connection, so
    /// the ack shares its write) or the ack is due. Returns whether it
    /// queued one.
    pub(crate) fn flush_ack(&mut self, now: T, riding: bool, out: &mut impl FrameSink) -> bool {
        let owed = self.rx_seq > self.rx_acked;
        let due = self.ack_at.is_some_and(|at| at <= now);
        if !(self.reack || owed && (riding || due)) {
            return false;
        }
        out.frame(TAG_ACK, &self.rx_seq.to_le_bytes());
        self.rx_acked = self.rx_seq;
        self.reack = false;
        self.ack_at = None;
        true
    }

    /// Queues our edge hello (see [`Hello`]). A link that has applied no
    /// hello since its birth or reset holds no watermark, so the peer
    /// incarnation it names then is immaterial.
    pub(crate) fn hello(&self, out: &mut impl FrameSink) {
        let mut hello = Vec::with_capacity(28);
        put_u32(&mut hello, self.me.0);
        put_u64(&mut hello, self.rx_seq);
        put_u64(&mut hello, self.inc);
        put_u64(&mut hello, self.peer_inc.unwrap_or(0));
        out.frame(TAG_HELLO_EDGE, &hello);
    }

    /// A new connection carried the peer's hello: queue our hello first
    /// when `reply` (the accepting end), trim what the peer has and
    /// replay the rest, with no fault actions.
    ///
    /// A hello from a new incarnation of the peer first resets this end
    /// toward it: the retransmit buffer goes, both watermarks return to
    /// zero, and the step settles what this end owed (see the module
    /// docs). A watermark kept for a dead incarnation of this end trims
    /// nothing. The two hellos carried both rx watermarks, so no ack is
    /// owed after them.
    ///
    /// The dead debt settles once both ends applied the exchange: here at
    /// the dialing end, which applies it last, and at the accepting end
    /// with the dialer's first frame after it (see [`Link::receive`]),
    /// which the dialer sends at once as a repeated ack.
    pub(crate) fn on_hello(
        &mut self,
        hello: &Hello,
        reply: bool,
        out: &mut impl FrameSink,
    ) -> Step {
        let mut step = Step::default();
        if self.peer_inc.is_some_and(|p| p != hello.inc) {
            step.debt -= self.tx_seq as i64 - self.rx_seq as i64;
            self.tx_seq = 0;
            self.rtx.clear();
            self.rx_seq = 0;
        }
        self.peer_inc = Some(hello.inc);
        self.rx_acked = self.rx_seq;
        self.ack_at = None;
        if reply {
            self.hello(out);
        }
        self.redial_at = None;
        self.backoff_ms = RECONNECT_BASE_MS;
        if hello.seen == self.inc {
            self.trim(hello.rx.min(self.tx_seq));
        }
        if !reply {
            step.debt -= std::mem::take(&mut self.dead) as i64;
            self.reack = true;
        }
        step.resent = self.replay(out);
        step
    }

    /// The connection went down: the dialer (the lower id) redials now.
    pub(crate) fn down(&mut self, now: T) {
        if self.me.0 < self.peer.0 {
            self.backoff_ms = RECONNECT_BASE_MS;
            self.redial_at = Some(now);
        }
    }

    /// A dial failed: retry after the current backoff plus seeded
    /// jitter, then double the backoff up to the cap.
    pub(crate) fn dial_failed(&mut self, now: T) {
        let backoff = self.backoff_ms;
        let jitter = self.next_jitter(backoff);
        self.redial_at = Some(now + Duration::from_millis(backoff + jitter));
        self.backoff_ms = (backoff * 2).min(RECONNECT_CAP_MS);
    }

    /// Whether a dial is due at `now`, consuming the timer; one found
    /// while not `idle` (a connection or dial exists) is dropped.
    pub(crate) fn redial_due(&mut self, now: T, idle: bool) -> bool {
        let due = idle && self.redial_at.is_some_and(|at| at <= now);
        if due || !idle {
            self.redial_at = None;
        }
        due
    }

    /// A kill9 or a cold start: this end lost its link state and comes
    /// back as incarnation `inc`, with fresh sequence state; a dialer
    /// redials at once. What the lost incarnation owed stays on the books
    /// as dead debt, except that a negative balance settles now (see the
    /// module docs). The fault and jitter streams go on where they were.
    pub(crate) fn reset(&mut self, now: T, inc: u64) -> Step {
        let owed = self.tx_seq as i64 - self.rx_seq as i64;
        self.dead += owed.max(0) as u64;
        self.inc = inc;
        self.peer_inc = None;
        self.tx_seq = 0;
        self.rtx.clear();
        self.rx_seq = 0;
        self.rx_acked = 0;
        self.reack = false;
        self.ack_at = None;
        self.redial_at = None;
        self.down(now);
        Step::debt((-owed).max(0))
    }

    /// Trims the frames the peer's watermark `upto` covers.
    fn trim(&mut self, upto: u64) {
        while self.rtx.front().is_some_and(|f| f.0 <= upto) {
            self.rtx.pop_front();
        }
    }

    /// Re-sends the retransmit buffer in order; returns its length.
    fn replay(&self, out: &mut impl FrameSink) -> u64 {
        if self.rtx.is_empty() {
            return 0;
        }
        let n = self.rtx.len() as u64;
        oat_obs::trace_event!(oat_obs::EventKind::Retransmit, self.me.0, self.peer.0, n);
        for (seq, inner, body) in &self.rtx {
            put_seq(out, *seq, *inner, body);
        }
        n
    }

    fn next_jitter(&mut self, bound: u64) -> u64 {
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound.max(1)
    }
}

/// What the node core's tests read of a link's books.
#[cfg(test)]
impl<T> Link<T> {
    /// `(tx_seq, rx_seq)`.
    pub(crate) fn seqs(&self) -> (u64, u64) {
        (self.tx_seq, self.rx_seq)
    }

    /// The dead debt not yet settled.
    pub(crate) fn dead(&self) -> u64 {
        self.dead
    }

    /// Buffered frames the far end `far` has not delivered and will: none
    /// when they were buffered for a dead incarnation of it (its next
    /// hello drops them), else those above its rx watermark, which is 0
    /// for this incarnation when `far` last heard from a dead one.
    pub(crate) fn undelivered(&self, far: &Link<T>) -> usize {
        if self.peer_inc.is_some_and(|inc| inc != far.inc) {
            return 0;
        }
        let peer_rx = match far.peer_inc {
            Some(inc) if inc != self.inc => 0,
            _ => far.rx_seq,
        };
        self.rtx.iter().filter(|f| f.0 > peer_rx).count()
    }
}

/// Encodes one sequenced frame into `out`.
fn put_seq(out: &mut impl FrameSink, seq: u64, inner: u8, body: &[u8]) {
    let mut payload = Vec::with_capacity(9 + body.len());
    put_u64(&mut payload, seq);
    payload.push(inner);
    payload.extend_from_slice(body);
    out.frame(TAG_SEQ, &payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames in flight on one direction of the simulated connection.
    type Wire = VecDeque<(u8, Vec<u8>)>;

    impl FrameSink for Wire {
        fn frame(&mut self, tag: u8, payload: &[u8]) {
            self.push_back((tag, payload.to_vec()));
        }
    }

    const INNER: u8 = 7;

    /// splitmix64: the schedule generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// One end of the edge with the books its caller would keep.
    struct End {
        link: Link<Duration>,
        /// Σ step.debt: this end's share of the in-flight counter.
        debt: i64,
        /// Bodies handed to `send`, in order.
        sent: Vec<u64>,
        /// `(seq, body)` per delivered frame, in delivery order.
        got: Vec<(u64, u64)>,
        /// `sent.len()` at each hello that dropped this end's buffer.
        drops: Vec<usize>,
    }

    impl End {
        fn new(me: u32, peer: u32) -> End {
            let plan = FaultPlan::default();
            End {
                link: Link::new(NodeId(me), NodeId(peer), &plan, Duration::ZERO),
                debt: 0,
                sent: Vec::new(),
                got: Vec::new(),
                drops: Vec::new(),
            }
        }

        /// Applies `hello`, noting whether it dropped the buffer.
        fn on_hello(&mut self, hello: &Hello, reply: bool, out: &mut Wire) {
            if self.link.peer_inc.is_some_and(|p| p != hello.inc) {
                self.drops.push(self.sent.len());
            }
            self.debt += self.link.on_hello(hello, reply, out).debt;
        }
    }

    /// Two links joined by an in-memory connection on a virtual clock.
    /// End 0 dials (the lower id); end 1 accepts. Every input is followed
    /// by an audit of the debt, whose first failure is kept.
    struct Pair {
        ends: [End; 2],
        /// `wire[i]`: frames from end `i` to end `1 - i`.
        wire: [Wire; 2],
        up: bool,
        now: Duration,
        next_body: u64,
        /// The last incarnation a reset handed out.
        inc: u64,
        ledger: InjectedFaults,
        broken: Option<String>,
    }

    impl Pair {
        fn new() -> Pair {
            Pair {
                ends: [End::new(0, 1), End::new(1, 0)],
                wire: Default::default(),
                up: false,
                now: Duration::ZERO,
                next_body: 0,
                inc: 0,
                ledger: InjectedFaults::default(),
                broken: None,
            }
        }

        /// A connected pair after `frames` frames each way, delivered
        /// and acked.
        fn warm(frames: usize) -> Pair {
            let mut p = Pair::new();
            p.connect();
            for _ in 0..frames {
                p.send(0);
                p.send(1);
            }
            assert!(p.drain());
            p
        }

        /// The debt each end charged equals `tx_seq − rx_seq` plus its
        /// dead debt; the two together are never below the frames still
        /// to be delivered, and once the connection is up with no dead
        /// debt left (both ends applied the hellos) equal Σ (sender
        /// `tx_seq` − receiver `rx_seq`) over both directions.
        fn audit(&mut self, what: &str) {
            if self.broken.is_some() {
                return;
            }
            let [a, b] = &self.ends;
            let (la, lb) = (&a.link, &b.link);
            let fail = if let Some(e) = [a, b].into_iter().find(|e| {
                let l = &e.link;
                e.debt != l.tx_seq as i64 - l.rx_seq as i64 + l.dead as i64
            }) {
                Some(format!("end {} charged {}", e.link.me.0, e.debt))
            } else {
                let debt = a.debt + b.debt;
                let undelivered = la.undelivered(lb) + lb.undelivered(la);
                let owed =
                    la.tx_seq as i64 - lb.rx_seq as i64 + lb.tx_seq as i64 - la.rx_seq as i64;
                if debt < undelivered as i64 {
                    Some(format!(
                        "debt {debt} below {undelivered} undelivered frames"
                    ))
                } else if self.up && la.dead + lb.dead == 0 && debt != owed {
                    Some(format!("debt {debt} but Σ(tx − peer rx) = {owed}"))
                } else {
                    None
                }
            };
            self.broken = fail.map(|f| format!("after {what}: {f}"));
        }

        fn send(&mut self, i: usize) {
            let body = self.next_body;
            self.next_body += 1;
            let end = &mut self.ends[i];
            let out = self.up.then_some(&mut self.wire[i]);
            let step = end
                .link
                .send(INNER, body.to_le_bytes().to_vec(), out, &self.ledger);
            end.debt += step.debt;
            end.sent.push(body);
            self.audit("a send");
        }

        /// Hands end `1 - i` the next frame end `i` put on the wire; the
        /// connection dies when the frame shows a gap.
        fn deliver(&mut self, i: usize) {
            let Some((tag, payload)) = self.wire[i].pop_front() else {
                return;
            };
            let end = &mut self.ends[1 - i];
            let (step, got) = end.link.receive(self.now, tag, &payload, |inner, body| {
                assert_eq!(inner, INNER);
                body.try_into().ok().map(u64::from_le_bytes)
            });
            end.debt += step.debt;
            if let Some(body) = got {
                end.got.push((end.link.rx_seq, body));
            }
            self.audit("a delivery");
            if step.sever {
                self.kill_conn();
            }
        }

        /// Delivers both directions until the wire is empty.
        fn flow(&mut self) {
            while !self.wire[0].is_empty() || !self.wire[1].is_empty() {
                self.deliver(0);
                self.deliver(1);
            }
        }

        /// End `i`'s flush boundary, with a frame queued to ride on when
        /// `riding`.
        fn flush_ack(&mut self, i: usize, riding: bool) {
            if self.up {
                let link = &mut self.ends[i].link;
                let _ = link.flush_ack(self.now, riding, &mut self.wire[i]);
            }
        }

        /// The connection dies with whatever it carried.
        fn kill_conn(&mut self) {
            self.up = false;
            self.wire = Default::default();
            for end in &mut self.ends {
                end.link.down(self.now);
            }
            self.audit("a connection kill");
        }

        /// End `i`'s hello, as the far end parses it.
        fn hello_of(&self, i: usize) -> Hello {
            let mut wire = Wire::new();
            self.ends[i].link.hello(&mut wire);
            let (tag, payload) = wire.pop_front().expect("one hello");
            assert_eq!(tag, TAG_HELLO_EDGE);
            let hello = Hello::parse(&payload).expect("well-formed hello");
            assert_eq!(hello.id, NodeId(i as u32));
            hello
        }

        /// The accepting end applies end 0's hello and replies; the reply
        /// leads its wire.
        fn accept(&mut self) {
            let hello = self.hello_of(0);
            self.ends[1].on_hello(&hello, true, &mut self.wire[1]);
            self.audit("the accepting end's hello");
        }

        /// A fresh connection: end 0's hello, end 1's reply and replay,
        /// then end 0's replay.
        fn connect(&mut self) {
            self.accept();
            let (_, reply) = self.wire[1].pop_front().expect("the reply leads");
            let reply = Hello::parse(&reply).expect("well-formed reply");
            assert_eq!(reply, self.hello_of(1));
            self.ends[0].on_hello(&reply, false, &mut self.wire[0]);
            self.up = true;
            self.audit("the dialing end's hello");
        }

        /// The accepting end applies end 0's hello, and the connection
        /// dies before the reply reaches end 0.
        fn half_connect(&mut self) {
            self.accept();
            self.kill_conn();
        }

        /// End `k` loses its process and resets into a new incarnation.
        fn kill9(&mut self, k: usize) {
            self.kill_conn();
            self.inc += 1;
            let end = &mut self.ends[k];
            end.debt += end.link.reset(self.now, self.inc).debt;
            self.audit("a reset");
        }

        /// Runs fault-free, connecting first when down, until every frame
        /// is delivered and every ack due; `false` when a retransmit
        /// buffer still holds a frame.
        fn drain(&mut self) -> bool {
            if !self.up {
                self.connect();
            }
            self.flow();
            self.now += ACK_DELAY;
            self.flush_ack(0, false);
            self.flush_ack(1, false);
            self.flow();
            self.ends.iter().all(|e| e.link.unacked() == 0)
        }

        /// End `to`'s delivered bodies.
        fn bodies(&self, to: usize) -> Vec<u64> {
            self.ends[to].got.iter().map(|&(_, b)| b).collect()
        }

        /// The audit held throughout, and the drained pair owes nothing.
        fn settled(mut self) -> Result<Pair, String> {
            if !self.drain() {
                return Err("the retransmit buffers never drained".into());
            }
            if let Some(e) = self.broken.take() {
                return Err(e);
            }
            let debt = self.ends[0].debt + self.ends[1].debt;
            if debt != 0 {
                return Err(format!("the drained pair still owes {debt}"));
            }
            Ok(self)
        }
    }

    /// One seeded schedule: sends, deliveries, drops (each losing its
    /// connection, as in the runtime), duplicates, acks (riding or not),
    /// the clock, connection kills, hello exchanges whole or cut after
    /// the accepting end's half, and, on odd seeds, one kill9 of either
    /// end. The debt is audited after every input. Within one incarnation
    /// of each end delivery is exactly once and in order; the survivor of
    /// the kill9 drops its buffer exactly once, at the first hello of the
    /// new incarnation, and never on even seeds. Returns why it failed.
    fn run(seed: u64) -> Result<(), String> {
        let mut rng = Rng(seed);
        let mut p = Pair::new();
        p.connect();
        let killed = (seed % 2 == 1).then(|| rng.below(2) as usize);
        let kill_at = 20 + rng.below(120);
        // `(sent.len(), got.len())` of both ends at the kill9.
        let mut cut = None;
        for step in 0..200 {
            if let Some(k) = killed.filter(|_| step == kill_at) {
                cut = Some(p.ends.each_ref().map(|e| (e.sent.len(), e.got.len())));
                p.kill9(k);
            }
            let i = rng.below(2) as usize;
            let at = rng.below(p.wire[i].len() as u64 + 1) as usize;
            match rng.below(100) {
                // The last quarter sends nothing, so schedules also end
                // with every frame delivered and only acks at stake.
                0..25 if step < 150 => p.send(i),
                25..60 => p.deliver(i),
                60..66 if p.up => {
                    drop(p.wire[i].remove(at));
                    p.kill_conn();
                }
                66..70 => {
                    if let Some(f) = p.wire[i].get(at).cloned() {
                        p.wire[i].insert(at, f);
                    }
                }
                70..80 => p.flush_ack(i, rng.below(2) == 0),
                80..89 => p.now += ACK_DELAY,
                89..92 if p.up => p.kill_conn(),
                92..97 if !p.up => p.connect(),
                97..100 if !p.up => p.half_connect(),
                _ => {}
            }
            if let Some(e) = p.broken.take() {
                return Err(format!("step {step}: {e}"));
            }
        }
        let p = p.settled()?;
        for i in 0..2 {
            let (from, to) = (&p.ends[i], &p.ends[1 - i]);
            // What end `1 - i` must have delivered, one run of sequence
            // numbers from 1 per incarnation of the pair.
            let want: Vec<&[u64]> = match (cut, killed) {
                (Some(cut), Some(k)) if k == i => {
                    // The survivor delivered what it had of the dead
                    // sender, then everything the new incarnation sent.
                    vec![&from.sent[..cut[1 - i].1], &from.sent[cut[i].0..]]
                }
                (Some(cut), Some(_)) => match from.drops[..] {
                    // The killed receiver delivered what it had, then
                    // everything the survivor sent since it dropped its
                    // buffer, at the new incarnation's first hello.
                    [at] => vec![&from.sent[..cut[1 - i].1], &from.sent[at..]],
                    _ => return Err(format!("the survivor dropped at {:?}", from.drops)),
                },
                _ => vec![&from.sent[..]],
            };
            // Only the survivor of a kill9 ever drops its buffer.
            if killed.is_none_or(|k| k == i) && !from.drops.is_empty() {
                return Err(format!("end {i} dropped its buffer at {:?}", from.drops));
            }
            let runs = want
                .iter()
                .flat_map(|run| (1..=run.len() as u64).zip(run.iter().copied()));
            if !to.got.iter().copied().eq(runs) {
                return Err(format!(
                    "end {} got {:?}, want {want:?} from end {i}'s {:?}",
                    1 - i,
                    to.got,
                    from.sent
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn seeded_schedules_deliver_exactly_once_in_order_per_incarnation() {
        let failed: Vec<String> = (0..1000u64)
            .filter_map(|seed| run(seed).err().map(|e| format!("seed {seed}: {e}")))
            .collect();
        assert!(
            failed.is_empty(),
            "{} of 1000 seeds failed:\n{}",
            failed.len(),
            failed[..failed.len().min(5)].join("\n")
        );
    }

    /// The sender dies with frames on the wire: its dead debt keeps the
    /// counter where it was, the survivor's hello drops what it buffered
    /// for the dead incarnation, and the new incarnation's first frame
    /// is the first the survivor delivers after what it had.
    #[test]
    fn a_killed_sender_holds_its_debt_until_the_peer_applies_its_hello() {
        let mut p = Pair::warm(2);
        for _ in 0..4 {
            p.send(0);
        }
        p.deliver(0);
        p.deliver(0);
        let before = p.ends[0].debt + p.ends[1].debt;
        p.kill9(0);
        assert_eq!(p.ends[0].debt + p.ends[1].debt, before, "nothing settled");
        assert_eq!(p.ends[0].link.dead, 4, "tx 6 − rx 2");
        p.send(0);
        p.accept();
        assert_eq!(p.ends[1].drops, [2], "the survivor drops at the hello");
        assert_eq!(p.ends[0].link.dead, 4, "the dialer has not seen the reply");
        p.kill_conn();
        p.connect();
        assert_eq!(p.ends[1].drops, [2], "once");
        assert_eq!(p.ends[0].link.dead, 0);
        let p = p.settled().unwrap();
        let sent = &p.ends[0].sent;
        let want: Vec<u64> = sent[..4].iter().chain(&sent[6..]).copied().collect();
        assert_eq!(p.bodies(1), want, "the two in flight died with the sender");
    }

    /// A receiver that delivered more than it sent dies: its negative
    /// balance settles at once (a raise), and the survivor's reset
    /// settles what it charged for frames the dead end never acked.
    #[test]
    fn a_killed_receiver_with_a_negative_balance_is_charged_at_once() {
        let mut p = Pair::warm(1);
        for _ in 0..3 {
            p.send(0);
        }
        p.flow();
        let before = p.ends[0].debt + p.ends[1].debt;
        assert_eq!(before, 0, "everything delivered");
        p.kill9(1);
        assert_eq!(p.ends[1].debt, 0, "rx 4 − tx 1 raised at once");
        assert_eq!(p.ends[1].link.dead, 0);
        assert_eq!(p.ends[0].debt, 3, "an over-count until the survivor resets");
        p.connect();
        assert_eq!(p.ends[0].drops, [4]);
        assert!(
            seqs_on(&p.wire[0]).is_empty(),
            "nothing replayed to the new end"
        );
        let p = p.settled().unwrap();
        assert_eq!(p.bodies(1), p.ends[0].sent);
    }

    /// Reconnects replay the buffer whatever the peer did in process (a
    /// crash keeps its links, its incarnation and its sequence space, and
    /// its `RESET` is one more frame); only a hello from a new
    /// incarnation drops it.
    #[test]
    fn a_peer_drops_its_buffer_only_on_a_new_incarnation() {
        let mut p = Pair::warm(1);
        for _ in 0..3 {
            p.send(0);
        }
        p.kill_conn();
        p.connect();
        assert_eq!(seqs_on(&p.wire[0]), [2, 3, 4], "a plain reconnect replays");
        p.kill_conn();
        p.send(1);
        p.connect();
        assert_eq!(seqs_on(&p.wire[0]), [2, 3, 4], "a crash of end 1 too");
        assert_eq!(seqs_on(&p.wire[1]), [2]);
        assert!(p.ends.iter().all(|e| e.drops.is_empty()));
        p.kill9(1);
        p.send(1);
        p.connect();
        assert_eq!(p.ends[0].drops, [4], "a kill9 of end 1 drops it once");
        assert!(seqs_on(&p.wire[0]).is_empty());
        assert_eq!(
            seqs_on(&p.wire[1]),
            [1],
            "the new incarnation numbers from 1"
        );
        let p = p.settled().unwrap();
        assert_eq!(p.bodies(0), [p.ends[1].sent[0], p.ends[1].sent[2]]);
    }

    /// Both ends die, or a cold start meets two fresh links: neither end
    /// knows a dead incarnation of the other, so no hello drops a buffer,
    /// and what each sent since is delivered once.
    #[test]
    fn ends_killed_together_drop_nothing_they_sent_since() {
        for warm in [0, 3] {
            let mut p = Pair::warm(warm);
            for _ in 0..3 {
                p.send(0);
                p.send(1);
            }
            p.deliver(0);
            p.deliver(1);
            p.kill9(0);
            p.kill9(1);
            p.send(0);
            p.send(1);
            let p = p.settled().unwrap_or_else(|e| panic!("warm {warm}: {e}"));
            assert!(p.ends.iter().all(|e| e.drops.is_empty()));
            for i in 0..2 {
                let sent = &p.ends[1 - i].sent;
                let had = warm + 1;
                let want: Vec<u64> = sent[..had].iter().chain(sent.last()).copied().collect();
                assert_eq!(p.bodies(i), want, "warm {warm}: end {i}");
            }
        }
    }

    /// A restarted acceptor answers a hello whose watermark was kept for
    /// its dead incarnation: the watermark trims none of its new frames,
    /// and when the connection dies before the reply lands, the next
    /// exchange drops the survivor's buffer once.
    #[test]
    fn a_stale_watermark_trims_nothing() {
        let mut p = Pair::warm(4);
        p.kill9(1);
        p.send(1);
        p.send(1);
        assert!(p.hello_of(0).rx > 2, "end 0 delivered four frames");
        p.half_connect();
        assert_eq!(p.ends[1].link.unacked(), 2, "nothing trimmed");
        assert!(p.ends[0].drops.is_empty(), "end 0 never saw the reply");
        p.connect();
        assert_eq!(p.ends[0].drops, [4]);
        let p = p.settled().unwrap();
        assert_eq!(p.bodies(0)[4..], p.ends[1].sent[4..]);
    }
    /// A delivery owes an ack that rides the next queued frame, or goes
    /// out on its own once [`ACK_DELAY`] old; a duplicate owes none.
    #[test]
    fn acks_ride_a_queued_frame_or_wait_for_their_deadline() {
        let mut p = Pair::warm(1);
        p.send(0);
        p.deliver(0);
        let b = &mut p.ends[1].link;
        assert_eq!(b.next_ack(), Some(p.now + ACK_DELAY));
        let mut out = Wire::new();
        assert!(!b.flush_ack(p.now, false, &mut out), "not due yet");
        assert!(b.flush_ack(p.now, true, &mut out), "rides a queued frame");
        assert_eq!(b.next_ack(), None);
        p.send(0);
        p.deliver(0);
        let b = &mut p.ends[1].link;
        let due = p.now + ACK_DELAY;
        assert!(!b.flush_ack(due - Duration::from_nanos(1), false, &mut out));
        assert!(b.flush_ack(due, false, &mut out), "due on its own");
        // An ack is lost only with its connection, whose next hello
        // carries the watermark: a re-delivered frame asks for nothing.
        let mut dup = Wire::new();
        put_seq(&mut dup, 1, INNER, &0u64.to_le_bytes());
        let (tag, frame) = dup.pop_front().unwrap();
        let (step, got) = b.receive(p.now, tag, &frame, |_, _| Some(()));
        assert_eq!(
            (step, got),
            (Step::default(), None),
            "a duplicate settles nothing"
        );
        assert!(!b.flush_ack(due, true, &mut out), "a duplicate owes no ack");
    }

    /// The sequence numbers of the `TAG_SEQ` frames on `wire`.
    fn seqs_on(wire: &Wire) -> Vec<u64> {
        wire.iter()
            .filter(|(tag, _)| *tag == TAG_SEQ)
            .map(|(_, f)| u64::from_le_bytes(f[..8].try_into().expect("seq")))
            .collect()
    }

    #[test]
    fn bogus_acks_change_nothing() {
        let mut p = Pair::new();
        p.connect();
        let a = &mut p.ends[0].link;
        for bad in [&5u64.to_le_bytes()[..], &[0u8; 9][..]] {
            let (step, _) = a.receive(p.now, TAG_ACK, bad, |_, _| Some(()));
            assert_eq!(step, Step::default());
        }
        assert_eq!(a.dup_drops, 2);
        for _ in 0..3 {
            p.send(0);
        }
        p.wire[0].clear();
        let (step, _) =
            p.ends[0]
                .link
                .receive(p.now, TAG_ACK, &0u64.to_le_bytes(), |_, _| Some(()));
        assert_eq!(step, Step::default());
        assert_eq!(p.ends[0].link.unacked(), 3);
        p.kill_conn();
        p.connect();
        assert_eq!(
            seqs_on(&p.wire[0]),
            [1, 2, 3],
            "the hello replays all three"
        );
    }

    /// A frame past a gap on a live connection is not delivered: it
    /// severs the connection, and the next hello replays from the gap.
    #[test]
    fn a_gap_on_a_live_connection_severs() {
        let mut p = Pair::warm(1);
        for _ in 0..3 {
            p.send(0);
        }
        p.wire[0].pop_front();
        let (tag, frame) = p.wire[0].pop_front().expect("the frame after the gap");
        let b = &mut p.ends[1].link;
        let (step, got) = b.receive(p.now, tag, &frame, |_, _| Some(()));
        assert!(step.sever, "the gap severs");
        assert_eq!(
            (got, step.debt, b.seqs().1),
            (None, 0, 1),
            "nothing delivered"
        );
        p.kill_conn();
        p.connect();
        assert_eq!(seqs_on(&p.wire[0]), [2, 3, 4], "replayed from the gap");
        let p = p.settled().unwrap();
        assert_eq!(p.bodies(1), p.ends[0].sent);
    }

    /// No timer re-sends: with acks held back, however much time passes,
    /// a flush queues the owed ack and no sequenced frame.
    #[test]
    fn time_alone_resends_nothing() {
        let mut p = Pair::warm(1);
        for _ in 0..3 {
            p.send(0);
        }
        p.flow();
        p.now += Duration::from_secs(10);
        p.flush_ack(0, false);
        p.flush_ack(1, false);
        assert!(seqs_on(&p.wire[0]).is_empty(), "nothing re-sent");
        assert_eq!(p.ends[0].link.unacked(), 3);
        assert_eq!(p.wire[1].len(), 1, "only the owed ack");
        p.flow();
        assert_eq!(p.ends[0].link.unacked(), 0);
        p.settled().unwrap();
    }
}
