//! The sequenced edge link: the protocol half of one tree edge.
//!
//! The paper assumes reliable FIFO channels; a single TCP connection
//! provides that only while it lives. Every payload frame between
//! neighbours therefore carries a per-directed-edge sequence number
//! (`TAG_SEQ`), the receiver delivers exactly the next expected number
//! and discards everything else, and acknowledges cumulatively
//! (`TAG_ACK`). The sender keeps unacknowledged frames in a retransmit
//! buffer and re-sends them (go-back-N) on an RTO tick or after a
//! reconnect, resuming from the watermark the peer's hello reported.
//! Together: per-edge FIFO **exactly-once** delivery that survives
//! killed connections and injected drop/duplicate faults.
//!
//! Injected faults never touch the quiescence or message-count books:
//! stats are recorded once, when a frame is numbered, and the in-flight
//! gauge is charged then and settled once, when the frame is delivered;
//! retransmits and duplicates are not re-counted, and a discarded
//! duplicate settles nothing. A fault-free run and a faulty-but-recovered
//! run have identical logical message counts.
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
//! A restore ([`Link::restore`]: a kill9, or a cold start over a log)
//! moves both watermarks at once. The moves that raise the debt (a
//! `tx_seq` that grows, an `rx_seq` that falls back) are charged at once;
//! the moves that lower it are held until both ends have applied the
//! edge's next hello exchange, which also applies its own fast-forwards
//! ([`Link::on_hello`]). Until then the peer may still deliver frames of
//! the dead incarnation, and the peer's restore or renumbering may not
//! have charged its frames yet, so the debt can only over-count during
//! recovery, never under-count.
//!
//! ## Acks
//!
//! An ack trims the retransmit buffer and feeds the RTO; it settles no
//! frame's debt, so no quiescence waits on it. [`Link::flush_ack`] sends
//! one only when a frame is already queued on the connection (the ack
//! rides its write), when a duplicate showed that the previous ack was
//! lost, when the oldest unacknowledged delivery is [`ACK_DELAY`] old,
//! or, once per connection, when the dialing end has just applied a
//! hello exchange ([`Link::on_hello`]). The deadline keeps an ack well
//! inside one RTO, so an RTO expiry means a frame or ack was lost, not
//! that an ack was waiting.
//!
//! ## No sockets, no clock
//!
//! A [`Link`] has one plain method per input. Each takes `now` (an
//! `Instant` in the runtime, a virtual `Duration` in the tests below),
//! writes frames into a [`FrameSink`] the caller supplies, and returns
//! a [`Step`]: what the caller must charge, settle, log, count or sever.

use std::collections::VecDeque;
use std::ops::{Add, AddAssign};
use std::sync::atomic::Ordering;
use std::time::Duration;

use oat_core::fault::{EdgeFaults, FaultAction, FaultPlan, InjectedFaults};
use oat_core::tree::NodeId;
use oat_core::wire::{put_u32, put_u64, WireReader};

use crate::durability::LinkState;
use crate::frame::{TAG_ACK, TAG_HELLO_EDGE, TAG_SEQ};

/// Retransmission-timer granularity: the reactor ticks at this cadence
/// while frames are unacknowledged.
pub(crate) const RTO: Duration = Duration::from_millis(30);

/// How long a delivered frame may wait for its ack when no frame of the
/// reverse direction comes to carry it: a quarter of [`RTO`].
pub(crate) const ACK_DELAY: Duration = Duration::from_nanos(RTO.as_nanos() as u64 / 4);

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
    /// The receive watermark, when this step advanced it.
    pub(crate) rx: Option<u64>,
    /// The ack watermark, when this step advanced it.
    pub(crate) acked: Option<u64>,
    /// Sequenced frames re-sent (RTO expiry or post-hello replay).
    pub(crate) resent: u64,
    /// Retransmission-timer expirations that triggered a resend.
    pub(crate) timeouts: u64,
    /// A scheduled connection kill fired: sever the connection.
    pub(crate) sever: bool,
    /// Buffered frames took new sequence numbers, so the sends logged
    /// for them are stale: the caller must rewrite its durable image.
    pub(crate) renumbered: bool,
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
        self.rx = s.rx.or(self.rx);
        self.acked = s.acked.or(self.acked);
        self.resent += s.resent;
        self.timeouts += s.timeouts;
        self.sever |= s.sever;
        self.renumbered |= s.renumbered;
    }
}

/// Both directions of one edge, seen from one end. The sequence space
/// survives reconnects and crashes; a kill9 takes the log's image.
pub(crate) struct Link<T> {
    me: NodeId,
    pub(crate) peer: NodeId,
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
    rtx: VecDeque<(u64, u8, Vec<u8>, T)>,
    /// Highest in-order sequence number received from the peer.
    rx_seq: u64,
    /// Highest rx watermark acked back to the peer.
    rx_acked: u64,
    /// Re-send the cumulative ack at the next flush even though
    /// `rx_seq` did not advance: the peer retransmitted frames already
    /// delivered, so the previous ack was evidently lost.
    reack: bool,
    /// When the ack owed since the oldest delivery above `rx_acked` is
    /// due on its own ([`ACK_DELAY`] after that delivery).
    ack_at: Option<T>,
    /// `tx_seq` as the last restore found it, until the next hello.
    /// Frames numbered above it were assigned since and never left this
    /// end (a kill9 severs every connection), whatever the image says.
    restored_tx: Option<u64>,
    /// Debt the restores since the last hello lowered, settled once both
    /// ends applied the next hello exchange (see the module docs).
    held: u64,
    /// Frames discarded: duplicates, out-of-window futures (go-back-N
    /// re-delivers them in order), undecodables, malformed acks.
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
    /// The link from `me` to `peer`, down; a dialer is due to dial at
    /// `now`. Faults are drawn from `plan`'s stream for this edge.
    pub(crate) fn new(me: NodeId, peer: NodeId, plan: &FaultPlan, now: T) -> Link<T> {
        let mut link = Link {
            me,
            peer,
            tx_seq: 0,
            acked: 0,
            acked_at_tick: 0,
            rtx: VecDeque::new(),
            rx_seq: 0,
            rx_acked: 0,
            reack: false,
            ack_at: None,
            restored_tx: None,
            held: 0,
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
        now: T,
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
        self.rtx.push_back((seq, inner, body, now));
        let mut step = Step::debt(1);
        let Some(out) = out else {
            return step;
        };
        let body = &self.rtx.back().expect("just pushed").2;
        let action = self.faults.as_mut().map(EdgeFaults::next_action);
        // A drop suppresses the first transmission; the RTO resend
        // recovers the frame. A delay is modeled the same way, so the
        // frame arrives late but in per-edge FIFO order.
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

    /// The frame the last [`Link::send`] buffered: `(seq, inner, body)`.
    pub(crate) fn newest(&self) -> (u64, u8, &[u8]) {
        let (seq, inner, body, _) = self.rtx.back().expect("a frame was sent");
        (*seq, *inner, body)
    }

    /// One frame read from the live connection at `now`. The next
    /// expected `TAG_SEQ` frame is delivered through `decode` and settles
    /// its debt; the caller handles it in the same step. Everything
    /// else, and a delivered frame `decode` rejects (the rx watermark
    /// still covers it), counts in `dup_drops`.
    pub(crate) fn receive<X>(
        &mut self,
        now: T,
        tag: u8,
        payload: &[u8],
        decode: impl FnOnce(u8, &[u8]) -> Option<X>,
    ) -> (Step, Option<X>) {
        // Any frame after a hello shows that the peer applied its side of
        // the exchange: what this end's restores held settles now.
        let mut step = Step::debt(-(std::mem::take(&mut self.held) as i64));
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
                step.rx = Some(seq);
                return (step, got);
            }
            // A duplicate or a future frame (go-back-N re-delivers it in
            // order). Already-delivered frames coming back mean the peer
            // never saw our cumulative ack: repeat it.
            (TAG_SEQ, Some(seq)) if payload.len() > 8 => self.reack |= seq <= self.rx_seq,
            // A cumulative ack is exactly one u64, never past a number
            // this end assigned (that would settle frames not yet sent).
            (TAG_ACK, Some(upto)) if payload.len() == 8 && upto <= self.tx_seq => {
                step += self.trim(upto);
                return (step, None);
            }
            _ => {}
        }
        self.dup_drops += 1;
        (step, None)
    }

    /// Queues the cumulative ack at `now` when a re-delivered frame
    /// showed that the last one was lost, or when the rx watermark moved
    /// since the last one and either `riding` (a frame is already queued
    /// for the connection, so the ack shares its write) or the ack is
    /// due. Returns whether it queued one.
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

    /// Queues our edge hello: id, rx watermark, ack watermark.
    pub(crate) fn hello(&self, out: &mut impl FrameSink) {
        let mut hello = Vec::with_capacity(20);
        put_u32(&mut hello, self.me.0);
        put_u64(&mut hello, self.rx_seq);
        put_u64(&mut hello, self.acked);
        out.frame(TAG_HELLO_EDGE, &hello);
    }

    /// A new connection carried the peer's hello: apply its watermarks,
    /// queue our hello first when `reply` (the accepting end), trim what
    /// the peer has and replay the rest, with no fault actions.
    ///
    /// The watermarks also *heal* a torn-tail recovery, whose image may
    /// understate what the wire saw: `peer_rx` (what the peer delivered
    /// from us) fast-forwards `tx_seq`, carrying the frames numbered
    /// since the restore above it, and `peer_acked` (the peer's frames a
    /// previous incarnation of ours acked) fast-forwards `rx_seq`. The
    /// step charges the first and settles the second. The two hellos
    /// carried both rx watermarks, so no ack is owed after them.
    ///
    /// What the restores held settles once both ends applied the
    /// exchange: here at the dialing end, which applies it last, and at
    /// the accepting end with the dialer's first frame after it (see
    /// [`Link::receive`]), which the dialer sends at once as a repeated
    /// ack. Settled at the accepting end's hello, a rise in its `rx_seq`
    /// could run ahead of the dialer's renumbering that charges for it.
    pub(crate) fn on_hello(
        &mut self,
        now: T,
        peer_rx: u64,
        peer_acked: u64,
        reply: bool,
        out: &mut impl FrameSink,
    ) -> Step {
        let rx_before = self.rx_seq;
        self.rx_seq = self.rx_seq.max(peer_acked);
        self.rx_acked = self.rx_seq;
        self.ack_at = None;
        let base = self.restored_tx.take().unwrap_or(self.tx_seq);
        let shift = peer_rx.saturating_sub(base);
        let mut renumbered = false;
        for frame in self.rtx.iter_mut().filter(|f| f.0 > base) {
            frame.0 += shift;
            renumbered |= shift > 0;
        }
        self.tx_seq += shift;
        if reply {
            self.hello(out);
        }
        self.redial_at = None;
        self.backoff_ms = RECONNECT_BASE_MS;
        let mut step = self.trim(peer_rx);
        let held = if reply {
            0
        } else {
            std::mem::take(&mut self.held)
        };
        self.reack |= !reply;
        let settled = self.rx_seq - rx_before + held;
        step.debt = shift as i64 - settled as i64;
        step.rx = (self.rx_seq > rx_before).then_some(self.rx_seq);
        step.resent = self.replay(now, out);
        step.renumbered = renumbered;
        step
    }

    /// The RTO tick: go-back-N on an up edge when the ack watermark
    /// stalled since the previous tick *and* the oldest unacked frame is
    /// at least one RTO old (a stalled watermark alone is no loss).
    pub(crate) fn rto_tick(&mut self, now: T, out: Option<&mut impl FrameSink>) -> Step {
        let stale = self.rtx.front().is_some_and(|f| f.3 + RTO <= now);
        let mut step = Step::default();
        if let Some(out) = out.filter(|_| stale && self.acked == self.acked_at_tick) {
            oat_obs::trace_event!(oat_obs::EventKind::RtoExpire, self.me.0, self.peer.0, 0);
            step.timeouts = 1;
            step.resent = self.replay(now, out);
        }
        self.acked_at_tick = self.acked;
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

    /// A kill9 or cold start: the durable image (zero when the log has
    /// none) replaces the sequence state; a dialer redials at once. Of
    /// the debt `tx_seq − rx_seq` moves by, the rises are charged now
    /// and the falls held until the next hello (see the module docs).
    pub(crate) fn restore(&mut self, now: T, image: &LinkState) -> Step {
        let (tx, rx) = (image.tx_seq, image.rx_seq);
        let raise = tx.saturating_sub(self.tx_seq) + self.rx_seq.saturating_sub(rx);
        self.held += self.tx_seq.saturating_sub(tx) + rx.saturating_sub(self.rx_seq);
        self.tx_seq = tx;
        self.restored_tx = Some(tx);
        self.acked = image.acked;
        self.acked_at_tick = image.acked;
        self.rx_seq = rx;
        self.rx_acked = rx;
        self.reack = false;
        self.ack_at = None;
        self.rtx = image
            .rtx
            .iter()
            .map(|(seq, inner, body)| (*seq, *inner, body.clone(), now))
            .collect();
        self.redial_at = None;
        self.down(now);
        Step::debt(raise as i64)
    }

    /// The durable image of this link.
    pub(crate) fn snapshot(&self) -> LinkState {
        LinkState {
            peer: self.peer.0,
            tx_seq: self.tx_seq,
            acked: self.acked,
            rx_seq: self.rx_seq,
            rtx: self
                .rtx
                .iter()
                .map(|(seq, inner, body, _)| (*seq, *inner, body.clone()))
                .collect(),
        }
    }

    /// Raises the ack watermark to `upto` and trims the frames it covers.
    fn trim(&mut self, upto: u64) -> Step {
        let before = self.acked;
        self.acked = self.acked.max(upto);
        while self.rtx.front().is_some_and(|f| f.0 <= self.acked) {
            self.rtx.pop_front();
        }
        Step {
            acked: (self.acked > before).then_some(self.acked),
            ..Step::default()
        }
    }

    /// Re-sends the retransmit buffer in order; returns its length.
    fn replay(&mut self, now: T, out: &mut impl FrameSink) -> u64 {
        if self.rtx.is_empty() {
            return 0;
        }
        let n = self.rtx.len() as u64;
        oat_obs::trace_event!(oat_obs::EventKind::Retransmit, self.me.0, self.peer.0, n);
        for (seq, inner, body, sent) in self.rtx.iter_mut() {
            put_seq(out, *seq, *inner, body);
            *sent = now;
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

    /// Buffered frames the peer has not delivered, given its rx
    /// watermark: those above it, and those numbered since a restore
    /// (the next hello moves them above it).
    pub(crate) fn undelivered(&self, peer_rx: u64) -> usize {
        let base = self.restored_tx.unwrap_or(u64::MAX);
        let out = |f: &&(u64, u8, Vec<u8>, T)| f.0 > peer_rx || f.0 > base;
        self.rtx.iter().filter(out).count()
    }

    /// No restore's debt awaits the next hello exchange.
    pub(crate) fn restore_settled(&self) -> bool {
        self.restored_tx.is_none() && self.held == 0
    }
}

/// Parses an edge hello into `(id, rx watermark, ack watermark)`.
pub(crate) fn parse_hello(payload: &[u8]) -> Option<(NodeId, u64, u64)> {
    let mut r = WireReader::new(payload);
    let id = r.u32("hello node id").ok()?;
    let rx = r.u64("hello rx watermark").ok()?;
    let acked = r.u64("hello ack watermark").ok()?;
    Some((NodeId(id), rx, acked))
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
    }

    impl End {
        fn new(me: u32, peer: u32) -> End {
            let plan = FaultPlan::default();
            End {
                link: Link::new(NodeId(me), NodeId(peer), &plan, Duration::ZERO),
                debt: 0,
                sent: Vec::new(),
                got: Vec::new(),
            }
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
                ledger: InjectedFaults::default(),
                broken: None,
            }
        }

        /// A connected pair after `frames` frames each way, delivered
        /// and acked, so no image of it starts at zero.
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

        /// The debt each end charged equals `tx_seq − rx_seq` plus what
        /// it holds for the next hello; the two together are never below
        /// the frames still to be delivered, and once the connection is
        /// up with nothing held (both ends applied the hellos) equal
        /// Σ (sender `tx_seq` − receiver `rx_seq`) over both directions.
        fn audit(&mut self, what: &str) {
            if self.broken.is_some() {
                return;
            }
            let [a, b] = &self.ends;
            let fail = if let Some(e) = [a, b].into_iter().find(|e| {
                let l = &e.link;
                e.debt != l.tx_seq as i64 - l.rx_seq as i64 + l.held as i64
            }) {
                Some(format!("end {} charged {}", e.link.me.0, e.debt))
            } else {
                let debt = a.debt + b.debt;
                let undelivered =
                    a.link.undelivered(b.link.rx_seq) + b.link.undelivered(a.link.rx_seq);
                let owed = a.link.tx_seq as i64 - b.link.rx_seq as i64 + b.link.tx_seq as i64
                    - a.link.rx_seq as i64;
                if debt < undelivered as i64 {
                    Some(format!(
                        "debt {debt} below {undelivered} undelivered frames"
                    ))
                } else if self.up && a.link.held + b.link.held == 0 && debt != owed {
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
            let step = end.link.send(
                self.now,
                INNER,
                body.to_le_bytes().to_vec(),
                out,
                &self.ledger,
            );
            end.debt += step.debt;
            end.sent.push(body);
            self.audit("a send");
        }

        /// Hands end `1 - i` the next frame end `i` put on the wire.
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

        fn tick(&mut self) {
            self.now += RTO;
            for i in 0..2 {
                let out = self.up.then_some(&mut self.wire[i]);
                let step = self.ends[i].link.rto_tick(self.now, out);
                self.ends[i].debt += step.debt;
            }
            self.audit("an RTO tick");
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

        /// A fresh connection: end 0's hello, end 1's reply and replay,
        /// then end 0's replay.
        fn connect(&mut self) {
            let mut hello = Wire::new();
            self.ends[0].link.hello(&mut hello);
            let (_, rx, acked) = parse_hello(&hello[0].1).expect("well-formed hello");
            let step = self.ends[1]
                .link
                .on_hello(self.now, rx, acked, true, &mut self.wire[1]);
            self.ends[1].debt += step.debt;
            self.audit("the accepting end's hello");
            let (tag, reply) = self.wire[1].pop_front().expect("the reply leads");
            assert_eq!(tag, TAG_HELLO_EDGE);
            let (id, rx, acked) = parse_hello(&reply).expect("well-formed reply");
            assert_eq!(id, NodeId(1));
            let step = self.ends[0]
                .link
                .on_hello(self.now, rx, acked, false, &mut self.wire[0]);
            self.ends[0].debt += step.debt;
            self.up = true;
            self.audit("the dialing end's hello");
        }

        /// End `k` is killed and restored from `image`.
        fn kill9(&mut self, k: usize, image: &LinkState) {
            self.kill_conn();
            let end = &mut self.ends[k];
            end.debt += end.link.restore(self.now, image).debt;
            self.audit("a restore");
        }

        /// Runs fault-free until both retransmit buffers drain; `false`
        /// when they never do.
        fn drain(&mut self) -> bool {
            if !self.up {
                self.connect();
            }
            for _ in 0..64 {
                self.flow();
                self.now += ACK_DELAY;
                self.flush_ack(0, false);
                self.flush_ack(1, false);
                self.flow();
                if self.ends.iter().all(|e| e.link.unacked() == 0) {
                    return true;
                }
                self.tick();
            }
            false
        }

        /// Both ends' bodies as the peer delivered them.
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

    /// Every seq of `got` above the one before it.
    fn ascending(got: &[(u64, u64)]) -> bool {
        got.windows(2).all(|w| w[0].0 < w[1].0)
    }

    /// The bodies of `got` that belong to `want`, in delivery order.
    fn among(got: &[(u64, u64)], want: &[u64]) -> Vec<u64> {
        got.iter()
            .map(|&(_, b)| b)
            .filter(|b| want.contains(b))
            .collect()
    }

    /// One seeded schedule: sends, deliveries, drops, duplicates, acks
    /// (riding or not), RTO ticks, connection kills with hello exchanges,
    /// and one kill9 of either end, restored from its exact image (even
    /// seeds) or an older one (odd seeds, a torn log). The debt is
    /// audited after every input. Returns why it failed.
    fn run(seed: u64) -> Result<(), String> {
        let mut rng = Rng(seed);
        let mut p = Pair::new();
        p.connect();
        let torn = seed % 2 == 1;
        let k = rng.below(2) as usize;
        let kill_at = 20 + rng.below(120);
        let mut image = p.ends[k].link.snapshot();
        let mut cut = None;
        for step in 0..200 {
            if step == kill_at {
                if !torn {
                    image = p.ends[k].link.snapshot();
                }
                p.kill9(k, &image);
                cut = Some((
                    [p.ends[0].sent.len(), p.ends[1].sent.len()],
                    p.ends[k].got.len(),
                ));
            }
            let i = rng.below(2) as usize;
            let at = rng.below(p.wire[i].len() as u64 + 1) as usize;
            match rng.below(100) {
                // The last quarter sends nothing, so schedules also end
                // with every frame delivered and only acks at stake.
                0..25 if step < 150 => p.send(i),
                25..60 => p.deliver(i),
                60..66 => drop(p.wire[i].remove(at)),
                66..70 => {
                    if let Some(f) = p.wire[i].get(at).cloned() {
                        p.wire[i].insert(at, f);
                    }
                }
                70..80 => p.flush_ack(i, rng.below(2) == 0),
                80..85 => p.now += ACK_DELAY,
                85..89 => p.tick(),
                89..92 if p.up => p.kill_conn(),
                92..97 if !p.up => p.connect(),
                97..100 if cut.is_none() => image = p.ends[k].link.snapshot(),
                _ => {}
            }
            if let Some(e) = p.broken.take() {
                return Err(format!("step {step}: {e}"));
            }
        }
        let p = p.settled()?;
        let (sent_cut, got_cut) = cut.expect("the kill9 fired");
        for (i, &sent_cut) in sent_cut.iter().enumerate() {
            let (from, to) = (&p.ends[i], &p.ends[1 - i]);
            let got = if 1 - i == k {
                &to.got[got_cut..]
            } else {
                &to.got[..]
            };
            if !ascending(got) || (1 - i == k && !ascending(&to.got[..got_cut])) {
                return Err(format!("end {} delivered a seq twice", 1 - i));
            }
            let whole = p.bodies(1 - i);
            if !torn && whole != from.sent {
                return Err(format!(
                    "exact image: end {} got {whole:?}, end {i} sent {:?}",
                    1 - i,
                    from.sent
                ));
            }
            let after = &from.sent[sent_cut..];
            if among(got, after) != after {
                return Err(format!(
                    "end {} lost or repeated a frame sent after the restore",
                    1 - i
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn seeded_schedules_deliver_exactly_once_in_order_across_kills() {
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

    /// The sender dies with frames on the wire and comes back from an
    /// exact image: its watermarks do not move, so neither does the
    /// debt, and the replay delivers what the wire lost.
    #[test]
    fn a_sender_restored_from_an_exact_image_owes_what_it_owed() {
        let mut p = Pair::warm(2);
        for _ in 0..4 {
            p.send(0);
        }
        p.deliver(0);
        p.deliver(0);
        let before = p.ends[0].debt + p.ends[1].debt;
        let image = p.ends[0].link.snapshot();
        p.kill9(0, &image);
        assert_eq!(p.ends[0].debt + p.ends[1].debt, before);
        let p = p.settled().unwrap();
        assert_eq!(p.bodies(1), p.ends[0].sent);
    }

    /// The sender comes back from an older image: `tx_seq` falls, and
    /// the fall is held until the hello, which also renumbers the frame
    /// sent since the restore above what the receiver delivered.
    #[test]
    fn a_sender_restored_from_a_torn_image_holds_the_fall_until_the_hello() {
        let mut p = Pair::warm(2);
        let image = p.ends[0].link.snapshot();
        for _ in 0..4 {
            p.send(0);
        }
        for _ in 0..3 {
            p.deliver(0);
        }
        let before = p.ends[0].debt + p.ends[1].debt;
        p.kill9(0, &image);
        assert_eq!(p.ends[0].link.held, 4, "tx_seq fell by four");
        assert_eq!(
            p.ends[0].debt + p.ends[1].debt,
            before,
            "nothing settled yet"
        );
        p.send(0);
        let fresh = *p.ends[0].sent.last().unwrap();
        p.connect();
        assert_eq!(p.ends[0].link.held, 0);
        let p = p.settled().unwrap();
        let got = p.bodies(1);
        assert_eq!(got.iter().filter(|&&b| b == fresh).count(), 1);
        assert!(ascending(&p.ends[1].got));
    }

    /// The receiver comes back from an exact image, then from an older
    /// one: the second lowers `rx_seq`, which is charged at once, and the
    /// hello's fast-forward to the sender's ack watermark settles it once.
    #[test]
    fn a_restored_receiver_is_charged_at_once_and_settled_by_the_hello() {
        for torn in [false, true] {
            let mut p = Pair::warm(2);
            let old = p.ends[1].link.snapshot();
            for _ in 0..4 {
                p.send(0);
            }
            for _ in 0..3 {
                p.deliver(0);
            }
            p.flush_ack(1, true);
            p.deliver(1);
            p.deliver(0);
            let image = if torn { old } else { p.ends[1].link.snapshot() };
            let before = p.ends[0].debt + p.ends[1].debt;
            p.kill9(1, &image);
            let raised = p.ends[0].debt + p.ends[1].debt - before;
            assert_eq!(raised, if torn { 4 } else { 0 }, "torn {torn}");
            let p = p.settled().unwrap();
            if !torn {
                assert_eq!(p.bodies(1), p.ends[0].sent);
            }
        }
    }

    /// Both ends die with traffic both ways, one from an exact image and
    /// one from an older one, and come back in either order.
    #[test]
    fn both_ends_restored_over_count_until_both_hellos() {
        for first in 0..2 {
            let mut p = Pair::warm(3);
            let old = p.ends[1 - first].link.snapshot();
            for _ in 0..3 {
                p.send(0);
                p.send(1);
            }
            p.deliver(0);
            p.deliver(1);
            p.flush_ack(0, false);
            let exact = p.ends[first].link.snapshot();
            p.kill9(first, &exact);
            p.kill9(1 - first, &old);
            let p = p.settled().unwrap();
            assert!(ascending(&p.ends[first].got[3..]), "first {first}");
        }
    }

    /// A cold start over a log: fresh links, which owe nothing, take
    /// their images. The rise in `tx_seq` is charged at once, the rise
    /// in `rx_seq` is held until both ends applied the hellos, and the
    /// frames the images buffered are delivered once. In the torn case
    /// the dialer's log lost the frames the acceptor's log says it
    /// delivered, so only the dialer's renumbering at the second hello
    /// charges for them.
    #[test]
    fn a_cold_start_charges_the_images_and_settles_after_the_hellos() {
        for torn in [false, true] {
            let mut old = Pair::warm(usize::from(!torn) * 3);
            let early = old.ends[0].link.snapshot();
            for _ in 0..3 {
                old.send(0);
                if !torn {
                    old.send(1);
                }
            }
            old.deliver(0);
            old.deliver(1);
            let mut images = [0, 1].map(|i| old.ends[i].link.snapshot());
            if torn {
                images[0] = early;
            }
            let mut p = Pair::new();
            p.next_body = old.next_body;
            for (i, image) in images.iter().enumerate() {
                let end = &mut p.ends[i];
                end.debt += end.link.restore(p.now, image).debt;
                p.audit("a cold start");
            }
            let charged = p.ends[0].debt + p.ends[1].debt;
            assert_eq!(charged, (images[0].tx_seq + images[1].tx_seq) as i64);
            let p = p.settled().unwrap_or_else(|e| panic!("torn {torn}: {e}"));
            // What each image buffered above the peer's rx watermark.
            for i in 0..2 {
                let rx = images[1 - i].rx_seq;
                let want: Vec<u64> = images[i]
                    .rtx
                    .iter()
                    .filter(|f| f.0 > rx)
                    .map(|f| u64::from_le_bytes(f.2[..].try_into().unwrap()))
                    .collect();
                assert_eq!(p.bodies(1 - i), want, "torn {torn}: end {}", 1 - i);
            }
        }
    }

    /// A delivery owes an ack that rides the next queued frame, or goes
    /// out on its own once [`ACK_DELAY`] old; a duplicate makes it due
    /// at once.
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
        // A re-delivered frame makes the lost ack due at once.
        let mut dup = Wire::new();
        put_seq(&mut dup, 1, INNER, &0u64.to_le_bytes());
        let (tag, frame) = dup.pop_front().unwrap();
        let (step, got) = b.receive(p.now, tag, &frame, |_, _| Some(()));
        assert!(
            got.is_none() && step.debt == 0,
            "a duplicate settles nothing"
        );
        assert!(b.flush_ack(p.now, false, &mut out));
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
        p.tick();
        let resent: Vec<u64> = p.wire[0]
            .iter()
            .map(|(tag, f)| {
                assert_eq!(*tag, TAG_SEQ);
                u64::from_le_bytes(f[..8].try_into().expect("seq"))
            })
            .collect();
        assert_eq!(
            resent,
            [1, 2, 3],
            "all three frames re-sent on the RTO tick"
        );
    }
}
