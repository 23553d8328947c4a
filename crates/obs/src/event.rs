//! The fixed-size trace event record and its taxonomy.
//!
//! Every event is four machine words: a monotonic timestamp (nanoseconds
//! since sink installation), an optional span duration, a kind tag, the
//! emitting ring's id, and three kind-specific payload words `a`/`b`/`c`.
//! The per-kind meaning of the payload words is documented on
//! [`EventKind`] and mirrored in DESIGN.md §12; exporters emit them under
//! those generic names so the wire schema never changes when a kind is
//! added.

/// What happened. Grouped into coarse categories (see
/// [`EventKind::category`]) for filtering and for the CI trace smoke.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Client submitted a request. `a`=node, `c`=req id.
    ReqStart = 1,
    /// Client received the matching response. `a`=node, `c`=req id,
    /// `dur`=measured latency.
    ReqEnd = 2,
    /// Node decoded a client request frame. `a`=node, `b`=client conn id,
    /// `c`=req id.
    ReqRecv = 3,
    /// Node ran the request handler. Span: `ts`=handler start,
    /// `dur`=handler time. `a`=node, `b`=client conn id, `c`=req id.
    ReqServe = 4,
    /// Node enqueued the response frame. `a`=node, `b`=client conn id,
    /// `c`=req id.
    RespTx = 5,
    /// A frame was queued for transmission. `a`=node, `b`=peer,
    /// `c`=`(link seq << 8) | frame tag` — the per-link sequence number
    /// lets a matching [`EventKind::FrameRx`] attribute per-edge wire
    /// latency (see `wire_latency`).
    FrameTx = 6,
    /// A frame was decoded off a connection (in sequence order; dups and
    /// replayed frames already delivered are dropped before this event). `a`=node,
    /// `b`=peer, `c`=`(link seq << 8) | frame tag`, matching the
    /// originating [`EventKind::FrameTx`].
    FrameRx = 7,
    /// This node granted a lease. `a`=granter, `b`=grantee.
    LeaseSet = 8,
    /// This node took a lease (accepted `flag=true`). `a`=holder,
    /// `b`=granter.
    LeaseTaken = 9,
    /// A lease was broken (released by the holder, or the grant was
    /// cleared by an incoming release). `a`=node, `b`=peer.
    LeaseBreak = 10,
    /// A grant was torn down involuntarily by the crash-recovery cascade.
    /// `a`=node, `b`=former grantee.
    LeaseRevoke = 11,
    /// Sequenced frames were re-sent. `a`=node, `b`=peer, `c`=frames.
    Retransmit = 12,
    /// An edge connection was re-established. `a`=node, `b`=peer.
    Reconnect = 13,
    /// A stale-epoch response was discarded by the prober. `a`=node,
    /// `b`=peer, `c`=stale epoch.
    StaleDrop = 14,
    /// A node's automaton panicked / was killed. `a`=node.
    Crash = 15,
    /// A node's automaton was restarted. `a`=node, `c`=new epoch.
    Restart = 16,
    /// A reactor readiness wait. Span: `ts`=entry, `dur`=blocked time.
    /// `a`=shard, `b`=ready events returned.
    PollWake = 17,
    /// One reactor readiness-dispatch pass. Span. `a`=shard,
    /// `b`=descriptors handled.
    Dispatch = 18,
    /// The simulator delivered one message. `a`=from, `b`=to,
    /// `c`=message kind index (the MLAP engine reuses this with `c`=4
    /// for a flush edge child→parent).
    SimDeliver = 19,
    /// The simulator initiated a request. `a`=node, `c`=0 combine /
    /// 1 write / 2 MLAP request arrival.
    SimInitiate = 20,
    /// A WAL record was appended (`write(2)`, not yet necessarily
    /// synced). `a`=node, `b`=record type tag, `c`=framed bytes.
    WalAppend = 21,
    /// A WAL group-commit fsync completed. `a`=node, `c`=records in the
    /// batch.
    WalFsync = 22,
    /// A WAL recovery replay ran. `a`=node, `b`=torn bytes discarded,
    /// `c`=records replayed.
    WalRecover = 23,
    /// A continuous-query subscription was registered. `a`=node,
    /// `b`=client conn id, `c`=sub id.
    SubStart = 24,
    /// A node pushed a `TAG_PARTIAL` refinement. `a`=node, `b`=client
    /// conn id, `c`=per-tree refinement seq.
    PartialTx = 25,
    /// A client decoded a pushed partial. `a`=tree id, `c`=refinement
    /// seq.
    PartialRx = 26,
    /// The query engine emitted one refined partial to its consumer.
    /// `a`=group key, `b`=window index, `c`=engine refine seq.
    QueryEmit = 27,
}

impl EventKind {
    /// Every kind, for exhaustive iteration in tests and exporters.
    pub const ALL: [EventKind; 27] = [
        EventKind::ReqStart,
        EventKind::ReqEnd,
        EventKind::ReqRecv,
        EventKind::ReqServe,
        EventKind::RespTx,
        EventKind::FrameTx,
        EventKind::FrameRx,
        EventKind::LeaseSet,
        EventKind::LeaseTaken,
        EventKind::LeaseBreak,
        EventKind::LeaseRevoke,
        EventKind::Retransmit,
        EventKind::Reconnect,
        EventKind::StaleDrop,
        EventKind::Crash,
        EventKind::Restart,
        EventKind::PollWake,
        EventKind::Dispatch,
        EventKind::SimDeliver,
        EventKind::SimInitiate,
        EventKind::WalAppend,
        EventKind::WalFsync,
        EventKind::WalRecover,
        EventKind::SubStart,
        EventKind::PartialTx,
        EventKind::PartialRx,
        EventKind::QueryEmit,
    ];

    /// Decodes a kind tag byte; `None` for unknown tags.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v.wrapping_sub(1) as usize).copied()
    }

    /// Stable snake_case name, used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ReqStart => "req_start",
            EventKind::ReqEnd => "req_end",
            EventKind::ReqRecv => "req_recv",
            EventKind::ReqServe => "req_serve",
            EventKind::RespTx => "resp_tx",
            EventKind::FrameTx => "frame_tx",
            EventKind::FrameRx => "frame_rx",
            EventKind::LeaseSet => "lease_set",
            EventKind::LeaseTaken => "lease_taken",
            EventKind::LeaseBreak => "lease_break",
            EventKind::LeaseRevoke => "lease_revoke",
            EventKind::Retransmit => "retransmit",
            EventKind::Reconnect => "reconnect",
            EventKind::StaleDrop => "stale_drop",
            EventKind::Crash => "crash",
            EventKind::Restart => "restart",
            EventKind::PollWake => "poll_wake",
            EventKind::Dispatch => "dispatch",
            EventKind::SimDeliver => "sim_deliver",
            EventKind::SimInitiate => "sim_initiate",
            EventKind::WalAppend => "wal_append",
            EventKind::WalFsync => "wal_fsync",
            EventKind::WalRecover => "wal_recover",
            EventKind::SubStart => "sub_start",
            EventKind::PartialTx => "partial_tx",
            EventKind::PartialRx => "partial_rx",
            EventKind::QueryEmit => "query_emit",
        }
    }

    /// Coarse category: `request`, `frame`, `lease`, `fault`, `reactor`,
    /// `sim`, or `query`. The CI trace smoke requires at least one event
    /// of the first six categories in a recorded chaos workload (`query`
    /// events only appear when a continuous query is running).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::ReqStart
            | EventKind::ReqEnd
            | EventKind::ReqRecv
            | EventKind::ReqServe
            | EventKind::RespTx => "request",
            EventKind::FrameTx | EventKind::FrameRx => "frame",
            EventKind::LeaseSet
            | EventKind::LeaseTaken
            | EventKind::LeaseBreak
            | EventKind::LeaseRevoke => "lease",
            EventKind::Retransmit
            | EventKind::Reconnect
            | EventKind::StaleDrop
            | EventKind::Crash
            | EventKind::Restart
            | EventKind::WalAppend
            | EventKind::WalFsync
            | EventKind::WalRecover => "fault",
            EventKind::PollWake | EventKind::Dispatch => "reactor",
            EventKind::SimDeliver | EventKind::SimInitiate => "sim",
            EventKind::SubStart
            | EventKind::PartialTx
            | EventKind::PartialRx
            | EventKind::QueryEmit => "query",
        }
    }

    /// All category names, in display order.
    pub const CATEGORIES: [&'static str; 7] = [
        "request", "frame", "lease", "fault", "reactor", "sim", "query",
    ];

    /// Whether this kind carries a meaningful duration (rendered as a
    /// Chrome "complete" event rather than an instant).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::ReqServe | EventKind::ReqEnd | EventKind::PollWake | EventKind::Dispatch
        )
    }
}

/// One trace record. 32 bytes, `Copy`, no heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic nanoseconds since the sink was installed.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instants; saturates at
    /// `u32::MAX` ≈ 4.3 s).
    pub dur_ns: u32,
    /// What happened.
    pub kind: EventKind,
    /// Id of the ring (≈ thread) that emitted the event.
    pub tid: u32,
    /// First payload word (see [`EventKind`]).
    pub a: u32,
    /// Second payload word.
    pub b: u32,
    /// Third payload word.
    pub c: u64,
}

impl Event {
    /// Packs into the four ring-slot words.
    pub(crate) fn pack(&self) -> [u64; 4] {
        [
            self.ts_ns,
            (u64::from(self.dur_ns) << 32) | u64::from(self.kind as u8),
            u64::from(self.a) | (u64::from(self.b) << 32),
            self.c,
        ]
    }

    /// Unpacks a ring slot; `None` when the kind tag is invalid (an
    /// unwritten or torn slot).
    pub(crate) fn unpack(w: [u64; 4], tid: u32) -> Option<Event> {
        let kind = EventKind::from_u8((w[1] & 0xFF) as u8)?;
        Some(Event {
            ts_ns: w[0],
            dur_ns: (w[1] >> 32) as u32,
            kind,
            tid,
            a: w[2] as u32,
            b: (w[2] >> 32) as u32,
            c: w[3],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_roundtrip_and_names_are_unique() {
        let mut names = std::collections::HashSet::new();
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
            assert!(EventKind::CATEGORIES.contains(&k.category()));
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(EventKind::ALL.len() as u8 + 1), None);
    }

    #[test]
    fn every_category_has_a_kind() {
        for cat in EventKind::CATEGORIES {
            assert!(
                EventKind::ALL.iter().any(|k| k.category() == cat),
                "empty category {cat}"
            );
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let e = Event {
            ts_ns: u64::MAX - 7,
            dur_ns: u32::MAX,
            kind: EventKind::SimInitiate,
            tid: 3,
            a: 0xDEAD_BEEF,
            b: 0xFEED_FACE,
            c: u64::MAX,
        };
        assert_eq!(Event::unpack(e.pack(), 3), Some(e));
        assert_eq!(Event::unpack([0; 4], 0), None);
    }
}
