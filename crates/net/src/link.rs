//! The sequenced edge link: the protocol half of one tree edge.
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
//! Injected faults never touch the quiescence or message-count books:
//! stats and the in-flight gauge are recorded once, when a frame is
//! first buffered; retransmits and duplicates are not re-counted, and a
//! discarded duplicate decrements nothing. A fault-free run and a
//! faulty-but-recovered run have identical logical message counts.
//!
//! ## Quiescence accounting for edge frames
//!
//! Edge frames settle on *acknowledgement*: a frame charges one unit of
//! in-flight debt when it is assigned its sequence number and settles
//! it once, when it is trimmed from the retransmit buffer (cumulative
//! ack, reconnect-hello watermark — each frame leaves exactly once).
//! Outstanding edge debt therefore always equals the total frames
//! parked in retransmit buffers, which is what makes kill9 accounting
//! exact: [`Link::restore`] forgives the dead incarnation's buffered
//! frames and re-charges the recovered ones.
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
    /// `tx_seq` as the last restore found it, until the next hello.
    /// Frames numbered above it were assigned since and never left this
    /// end (a kill9 severs every connection), whatever the image says.
    restored_tx: Option<u64>,
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
            restored_tx: None,
            dup_drops: 0,
            faults: (!plan.is_empty()).then(|| plan.edge_stream(me, peer)),
            redial_at: None,
            backoff_ms: RECONNECT_BASE_MS,
            jitter_state: plan.jitter_seed(me, peer),
        };
        link.down(now);
        link
    }

    /// Frames in the retransmit buffer: this link's in-flight debt.
    pub(crate) fn unacked(&self) -> usize {
        self.rtx.len()
    }

    /// When the next dial is due, if one is armed.
    pub(crate) fn next_redial(&self) -> Option<T> {
        self.redial_at
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

    /// One frame read from the live connection. The next expected
    /// `TAG_SEQ` frame is delivered through `decode`. Everything else,
    /// and a delivered frame `decode` rejects (the rx watermark still
    /// covers it, so the sender settles), counts in `dup_drops`.
    pub(crate) fn receive<X>(
        &mut self,
        tag: u8,
        payload: &[u8],
        decode: impl FnOnce(u8, &[u8]) -> Option<X>,
    ) -> (Step, Option<X>) {
        let word = payload
            .get(..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8")));
        match (tag, word) {
            (TAG_SEQ, Some(seq)) if payload.len() > 8 && seq == self.rx_seq + 1 => {
                self.rx_seq = seq;
                let inner = payload[8];
                oat_obs::trace_event!(
                    oat_obs::EventKind::FrameRx,
                    self.me.0,
                    self.peer.0,
                    (seq << 8) | u64::from(inner)
                );
                let got = decode(inner, &payload[9..]);
                self.dup_drops += u64::from(got.is_none());
                let step = Step {
                    rx: Some(seq),
                    ..Step::default()
                };
                return (step, got);
            }
            // A duplicate or a future frame (go-back-N re-delivers it in
            // order). Already-delivered frames coming back mean the peer
            // never saw our cumulative ack: repeat it.
            (TAG_SEQ, Some(seq)) if payload.len() > 8 => self.reack |= seq <= self.rx_seq,
            // A cumulative ack is exactly one u64, never past a number
            // this end assigned (that would settle frames not yet sent).
            (TAG_ACK, Some(upto)) if payload.len() == 8 && upto <= self.tx_seq => {
                return (self.trim(upto), None);
            }
            _ => {}
        }
        self.dup_drops += 1;
        (Step::default(), None)
    }

    /// Queues the cumulative ack when the rx watermark moved since the
    /// last one, or when a re-delivered frame showed that one was lost.
    pub(crate) fn flush_ack(&mut self, out: &mut impl FrameSink) {
        if self.rx_seq > self.rx_acked || self.reack {
            out.frame(TAG_ACK, &self.rx_seq.to_le_bytes());
            self.rx_acked = self.rx_seq;
            self.reack = false;
        }
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
    /// previous incarnation of ours acked) fast-forwards `rx_seq`.
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
        self.rx_acked = self.rx_acked.max(peer_acked);
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
    /// none) replaces the sequence state, forgiving the buffered frames'
    /// debt and re-charging the image's; a dialer redials at once.
    pub(crate) fn restore(&mut self, now: T, image: &LinkState) -> Step {
        let debt = image.rtx.len() as i64 - self.rtx.len() as i64;
        self.tx_seq = image.tx_seq;
        self.restored_tx = Some(image.tx_seq);
        self.acked = image.acked;
        self.acked_at_tick = image.acked;
        self.rx_seq = image.rx_seq;
        self.rx_acked = image.rx_seq;
        self.reack = false;
        self.rtx = image
            .rtx
            .iter()
            .map(|(seq, inner, body)| (*seq, *inner, body.clone(), now))
            .collect();
        self.redial_at = None;
        self.down(now);
        Step::debt(debt)
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

    /// Raises the ack watermark to `upto` and trims the frames it covers:
    /// the one place an edge frame's debt settles.
    fn trim(&mut self, upto: u64) -> Step {
        let before = self.acked;
        self.acked = self.acked.max(upto);
        let mut settled = 0;
        while self.rtx.front().is_some_and(|f| f.0 <= self.acked) {
            self.rtx.pop_front();
            settled += 1;
        }
        let mut step = Step::debt(-settled);
        step.acked = (self.acked > before).then_some(self.acked);
        step
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
        /// Σ step.debt: must equal the retransmit buffer's length.
        debt: i64,
        /// Bodies handed to `send`, in order.
        sent: Vec<u64>,
        /// `(seq, body)` per delivered frame, in delivery order.
        got: Vec<(u64, u64)>,
    }

    /// Two links joined by an in-memory connection on a virtual clock.
    /// End 0 dials (the lower id); end 1 accepts.
    struct Pair {
        ends: [End; 2],
        /// `wire[i]`: frames from end `i` to end `1 - i`.
        wire: [Wire; 2],
        up: bool,
        now: Duration,
        next_body: u64,
        ledger: InjectedFaults,
    }

    impl Pair {
        fn new() -> Pair {
            let plan = FaultPlan::default();
            let end = |me, peer| End {
                link: Link::new(NodeId(me), NodeId(peer), &plan, Duration::ZERO),
                debt: 0,
                sent: Vec::new(),
                got: Vec::new(),
            };
            Pair {
                ends: [end(0, 1), end(1, 0)],
                wire: Default::default(),
                up: false,
                now: Duration::ZERO,
                next_body: 0,
                ledger: InjectedFaults::default(),
            }
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
        }

        /// Hands end `1 - i` the next frame end `i` put on the wire.
        fn deliver(&mut self, i: usize) {
            let Some((tag, payload)) = self.wire[i].pop_front() else {
                return;
            };
            let end = &mut self.ends[1 - i];
            let (step, got) = end.link.receive(tag, &payload, |inner, body| {
                assert_eq!(inner, INNER);
                body.try_into().ok().map(u64::from_le_bytes)
            });
            end.debt += step.debt;
            if let Some(body) = got {
                end.got.push((end.link.rx_seq, body));
            }
        }

        fn flush_ack(&mut self, i: usize) {
            if self.up {
                self.ends[i].link.flush_ack(&mut self.wire[i]);
            }
        }

        fn tick(&mut self) {
            self.now += RTO;
            for i in 0..2 {
                let out = self.up.then_some(&mut self.wire[i]);
                let step = self.ends[i].link.rto_tick(self.now, out);
                self.ends[i].debt += step.debt;
            }
        }

        /// The connection dies with whatever it carried.
        fn kill_conn(&mut self) {
            self.up = false;
            self.wire = Default::default();
            for end in &mut self.ends {
                end.link.down(self.now);
            }
        }

        /// A fresh connection: end 0's hello, end 1's reply and replay,
        /// then end 0's replay.
        fn connect(&mut self) {
            self.up = true;
            let mut hello = Wire::new();
            self.ends[0].link.hello(&mut hello);
            let (_, rx, acked) = parse_hello(&hello[0].1).expect("well-formed hello");
            let step = self.ends[1]
                .link
                .on_hello(self.now, rx, acked, true, &mut self.wire[1]);
            self.ends[1].debt += step.debt;
            let (tag, reply) = self.wire[1].pop_front().expect("the reply leads");
            assert_eq!(tag, TAG_HELLO_EDGE);
            let (id, rx, acked) = parse_hello(&reply).expect("well-formed reply");
            assert_eq!(id, NodeId(1));
            let step = self.ends[0]
                .link
                .on_hello(self.now, rx, acked, false, &mut self.wire[0]);
            self.ends[0].debt += step.debt;
        }

        /// End `k` is killed and restored from `image`.
        fn kill9(&mut self, k: usize, image: &LinkState) {
            self.kill_conn();
            let end = &mut self.ends[k];
            end.debt += end.link.restore(self.now, image).debt;
        }

        fn books_balance(&self) -> bool {
            self.ends.iter().all(|e| e.debt == e.link.unacked() as i64)
        }

        /// Runs fault-free until both retransmit buffers drain; `false`
        /// when they never do.
        fn drain(&mut self) -> bool {
            if !self.up {
                self.connect();
            }
            for _ in 0..64 {
                for _ in 0..2 {
                    while !self.wire[0].is_empty() || !self.wire[1].is_empty() {
                        self.deliver(0);
                        self.deliver(1);
                    }
                    self.flush_ack(0);
                    self.flush_ack(1);
                }
                if self.ends.iter().all(|e| e.link.unacked() == 0) {
                    return true;
                }
                self.tick();
            }
            false
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

    /// One seeded schedule: sends, deliveries, drops, duplicates, acks,
    /// RTO ticks, connection kills with hello exchanges, and one kill9
    /// of either end, restored from its exact image (even seeds) or an
    /// older one (odd seeds, a torn log). Returns why it failed.
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
                70..85 => p.flush_ack(i),
                85..89 => p.tick(),
                89..92 if p.up => p.kill_conn(),
                92..97 if !p.up => p.connect(),
                97..100 if cut.is_none() => image = p.ends[k].link.snapshot(),
                _ => {}
            }
            if !p.books_balance() {
                return Err(format!("step {step}: debt differs from the rtx length"));
            }
        }
        if !p.drain() {
            return Err("the retransmit buffers never drained".into());
        }
        if !p.books_balance() {
            return Err("debt differs from the rtx length after the drain".into());
        }
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
            let whole: Vec<u64> = to.got.iter().map(|&(_, b)| b).collect();
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

    #[test]
    fn bogus_acks_change_nothing() {
        let mut p = Pair::new();
        p.connect();
        let a = &mut p.ends[0].link;
        for bad in [&5u64.to_le_bytes()[..], &[0u8; 9][..]] {
            let (step, _) = a.receive(TAG_ACK, bad, |_, _| Some(()));
            assert_eq!(step, Step::default());
        }
        assert_eq!(a.dup_drops, 2);
        for _ in 0..3 {
            p.send(0);
        }
        p.wire[0].clear();
        let (step, _) = p.ends[0]
            .link
            .receive(TAG_ACK, &0u64.to_le_bytes(), |_, _| Some(()));
        assert_eq!(step.debt, 0);
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
