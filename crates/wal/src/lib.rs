//! # oat-wal
//!
//! Per-node durability for the TCP runtime (`oat-net`): an append-only
//! write-ahead log plus periodic snapshots, built so a node can be
//! SIGKILLed mid-request and rejoin the tree with its write history and
//! exactly-once edge sequencing intact.
//!
//! ## Log format
//!
//! The log (`wal.log`) is a sequence of records, each framed as
//!
//! ```text
//! [u32 len][u32 crc32(payload)][payload]        (little-endian)
//! ```
//!
//! where `payload[0]` is a record type tag followed by type-specific
//! fields (see [`Record`]). Recovery replays records in order and stops
//! at the first short, oversized, or CRC-failing record — a torn tail is
//! *expected* after a machine crash, never an error, and the number of
//! discarded bytes is reported ([`Recovered::torn_bytes`]).
//!
//! ## Group commit
//!
//! Every [`Wal::append`] issues a `write(2)` immediately (there is no
//! userspace buffering, so an in-process kill loses nothing that was
//! appended), but `fsync` is batched: the log is synced once per
//! [`WalOptions::fsync_every`] records. Two record classes override the
//! batch and force a sync on append — writes ([`Record::Write`] for
//! tree 0, [`Record::WriteTree`] for the others: a client write is
//! acknowledged only after it is durable) and [`Record::Epoch`]
//! (incarnation bumps must never regress). Only the batched region is at
//! risk from a power loss, which is exactly what the seeded `torn-tail`
//! disk fault simulates.
//!
//! ## Snapshots
//!
//! When [`WalOptions::snapshot_every`] records have accumulated, the
//! runtime folds its state into a [`WalState`] and calls
//! [`Wal::snapshot`]: the blob is written to `snap.tmp`, fsynced,
//! atomically renamed to `snap` (then the directory is synced), and the
//! log is truncated to zero. Recovery seeds its replay from `snap` when
//! present; a corrupt or torn snapshot is ignored (the log then replays
//! from empty state), and a leftover `snap.tmp` from an interrupted
//! snapshot is deleted.
//!
//! ## Disk faults
//!
//! [`DiskFaults`] injects two seeded failure modes for chaos testing:
//! `torn_tail_max` chops up to that many *unsynced* bytes off the log
//! tail at the start of each recovery (modelling a machine crash that
//! lost the page cache), and `fsync_fail_p` makes each log fsync fail
//! silently with that probability (the synced watermark does not
//! advance; the next group commit retries). Both are counted in
//! [`WalCounters`] so the chaos ledger can record them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use oat_obs::trace_event;

/// Hard cap on a single record's payload, mirroring the wire codec's
/// 64 MiB frame cap with headroom to spare: anything larger in the
/// length field is corruption, not data.
pub const MAX_RECORD: u32 = 16 << 20;

/// Magic prefix of a snapshot file (`snap`).
pub const SNAP_MAGIC: &[u8; 8] = b"OATSNAP1";

const LOG_FILE: &str = "wal.log";
const SNAP_FILE: &str = "snap";
const SNAP_TMP: &str = "snap.tmp";

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), hand-rolled: the environment is offline, so no
// crc32fast — a 256-entry table built at compile time is plenty for WAL
// record sizes.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (the polynomial used by zip, png, ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One durable state transition. The runtime logs a record *before* the
/// corresponding side effect becomes externally visible (write-ahead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A client write to tree 0 was accepted: `val` is the wire encoding
    /// of the node's new value on that tree. Forces an fsync — the
    /// client's ack is a durability promise. Build writes with
    /// [`Record::write`], which picks this form for tree 0.
    Write {
        /// Wire-encoded aggregate value.
        val: Vec<u8>,
    },
    /// An edge frame was assigned sequence number `seq` toward `peer`.
    /// Replay rebuilds the retransmit buffer from unacked `Send`s.
    Send {
        /// Destination neighbour id.
        peer: u32,
        /// Per-directed-edge sequence number (1-based).
        seq: u64,
        /// Inner frame tag (`INNER_NET` / `INNER_RESET` / `INNER_REVOKE`).
        inner: u8,
        /// Inner frame body bytes.
        body: Vec<u8>,
    },
    /// Frames from `peer` were delivered up to and including `rx_seq`.
    Rx {
        /// Source neighbour id.
        peer: u32,
        /// Cumulative receive watermark.
        rx_seq: u64,
    },
    /// `peer` acknowledged our frames up to and including `acked`.
    Ack {
        /// Destination neighbour id.
        peer: u32,
        /// Cumulative acknowledgement watermark.
        acked: u64,
    },
    /// The lease state on the edge toward `peer` changed. `bits` packs
    /// (granted << 1) | taken. No longer written — a restarted node
    /// holds no leases and rebuilds them by probing — but still decoded
    /// and counted, so an older log replays; it folds to nothing.
    Lease {
        /// Neighbour id.
        peer: u32,
        /// Packed lease flags.
        bits: u8,
    },
    /// The node's incarnation epoch advanced. Forces an fsync.
    Epoch {
        /// New epoch value.
        epoch: u64,
    },
    /// A client write to forest tree `tree` was accepted; otherwise
    /// exactly [`Record::Write`], fsync included.
    WriteTree {
        /// Tree id.
        tree: u32,
        /// Wire-encoded aggregate value.
        val: Vec<u8>,
    },
}

impl Record {
    /// The write record for `tree`: tree 0 keeps [`Record::Write`]'s
    /// bytes, every other tree is a [`Record::WriteTree`].
    pub fn write(tree: u32, val: Vec<u8>) -> Record {
        match tree {
            0 => Record::Write { val },
            tree => Record::WriteTree { tree, val },
        }
    }

    /// The payload type tag (first payload byte).
    pub fn tag(&self) -> u8 {
        match self {
            Record::Write { .. } => 1,
            Record::Send { .. } => 2,
            Record::Rx { .. } => 3,
            Record::Ack { .. } => 4,
            Record::Lease { .. } => 5,
            Record::Epoch { .. } => 6,
            Record::WriteTree { .. } => 7,
        }
    }

    /// Whether this record overrides group commit and syncs on append.
    pub fn forces_sync(&self) -> bool {
        matches!(
            self,
            Record::Write { .. } | Record::WriteTree { .. } | Record::Epoch { .. }
        )
    }

    /// Appends this record's payload (tag + fields) to `out`.
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Record::Write { val } => out.extend_from_slice(val),
            Record::WriteTree { tree, val } => {
                out.extend_from_slice(&tree.to_le_bytes());
                out.extend_from_slice(val);
            }
            Record::Send {
                peer,
                seq,
                inner,
                body,
            } => {
                out.extend_from_slice(&peer.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.push(*inner);
                out.extend_from_slice(body);
            }
            Record::Rx { peer, rx_seq } => {
                out.extend_from_slice(&peer.to_le_bytes());
                out.extend_from_slice(&rx_seq.to_le_bytes());
            }
            Record::Ack { peer, acked } => {
                out.extend_from_slice(&peer.to_le_bytes());
                out.extend_from_slice(&acked.to_le_bytes());
            }
            Record::Lease { peer, bits } => {
                out.extend_from_slice(&peer.to_le_bytes());
                out.push(*bits);
            }
            Record::Epoch { epoch } => out.extend_from_slice(&epoch.to_le_bytes()),
        }
    }

    /// Decodes a record from a CRC-verified payload. `None` means the
    /// payload is structurally invalid (short fields) or carries an
    /// unknown tag — replay treats the former as corruption and the
    /// latter as a skippable future record; this function cannot tell
    /// them apart, so it returns `None` for both and replay decides by
    /// tag range.
    pub fn decode_payload(payload: &[u8]) -> Option<Record> {
        let mut r = Cursor::new(payload);
        let rec = match r.u8()? {
            1 => Record::Write {
                val: r.rest().to_vec(),
            },
            2 => {
                let peer = r.u32()?;
                let seq = r.u64()?;
                let inner = r.u8()?;
                Record::Send {
                    peer,
                    seq,
                    inner,
                    body: r.rest().to_vec(),
                }
            }
            3 => Record::Rx {
                peer: r.u32()?,
                rx_seq: r.u64()?,
            },
            4 => Record::Ack {
                peer: r.u32()?,
                acked: r.u64()?,
            },
            5 => Record::Lease {
                peer: r.u32()?,
                bits: r.u8()?,
            },
            6 => Record::Epoch { epoch: r.u64()? },
            7 => Record::WriteTree {
                tree: r.u32()?,
                val: r.rest().to_vec(),
            },
            _ => return None,
        };
        Some(rec)
    }
}

/// Encodes one record with its `[len][crc]` frame, appending to `out`.
pub fn encode_record(rec: &Record, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]); // frame header placeholder
    rec.encode_payload(out);
    let payload_len = (out.len() - start - 8) as u32;
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// A bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.buf.get(self.at..end)?;
        self.at = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
    /// A `u32` length followed by that many bytes.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }
    fn is_empty(&self) -> bool {
        self.at == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Recovered state
// ---------------------------------------------------------------------------

/// Durable state of one directed-edge pair (us ↔ `peer`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkState {
    /// Neighbour id.
    pub peer: u32,
    /// Highest sequence number we assigned toward `peer`.
    pub tx_seq: u64,
    /// Highest of our frames `peer` has acknowledged.
    pub acked: u64,
    /// Highest frame from `peer` we delivered.
    pub rx_seq: u64,
    /// Unacknowledged sends, ascending by sequence number:
    /// `(seq, inner_tag, body)` — the recovered retransmit buffer.
    pub rtx: Vec<(u64, u8, Vec<u8>)>,
}

/// The full durable image of a node: what a snapshot stores and what
/// replay produces.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalState {
    /// Incarnation epoch (highest logged).
    pub epoch: u64,
    /// Wire encoding of the last acknowledged write, per tree id; a
    /// tree never written here has no entry.
    pub vals: BTreeMap<u32, Vec<u8>>,
    /// Per-neighbour link state, sorted by peer id.
    pub links: Vec<LinkState>,
}

/// The outcome of replaying a log (optionally seeded from a snapshot).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// The folded state.
    pub state: WalState,
    /// Valid records applied.
    pub records: u64,
    /// Bytes of log discarded at the first short/oversized/CRC-failing
    /// record.
    pub torn_bytes: u64,
    /// Offset of the end of the valid prefix (where appends may resume).
    pub valid_len: u64,
    /// CRC-valid records with an unknown type tag, skipped.
    pub skipped: u64,
}

/// What [`Wal::recover`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// The recovered state (empty/default when nothing was durable).
    pub state: WalState,
    /// True when a snapshot or at least one log record existed — i.e.
    /// this is a restart, not a first boot.
    pub found: bool,
    /// Log records replayed (excludes the snapshot).
    pub records: u64,
    /// Log bytes discarded as a torn tail (including any injected chop).
    pub torn_bytes: u64,
}

fn fold(state: &mut WalState, rec: &Record) {
    match rec {
        Record::Write { val } => {
            state.vals.insert(0, val.clone());
        }
        Record::WriteTree { tree, val } => {
            state.vals.insert(*tree, val.clone());
        }
        Record::Send {
            peer,
            seq,
            inner,
            body,
        } => {
            let link = link_mut(state, *peer);
            link.tx_seq = link.tx_seq.max(*seq);
            if *seq > link.acked {
                link.rtx.push((*seq, *inner, body.clone()));
            }
        }
        Record::Rx { peer, rx_seq } => {
            let link = link_mut(state, *peer);
            link.rx_seq = link.rx_seq.max(*rx_seq);
        }
        Record::Ack { peer, acked } => {
            let link = link_mut(state, *peer);
            link.acked = link.acked.max(*acked);
            let upto = link.acked;
            link.rtx.retain(|(seq, _, _)| *seq > upto);
        }
        Record::Lease { .. } => {}
        Record::Epoch { epoch } => state.epoch = state.epoch.max(*epoch),
    }
}

fn link_mut(state: &mut WalState, peer: u32) -> &mut LinkState {
    // Links stay sorted by peer; trees are narrow so a linear probe wins.
    match state.links.binary_search_by_key(&peer, |l| l.peer) {
        Ok(i) => &mut state.links[i],
        Err(i) => {
            state.links.insert(
                i,
                LinkState {
                    peer,
                    ..LinkState::default()
                },
            );
            &mut state.links[i]
        }
    }
}

/// Replays a raw log buffer on top of `base`, stopping at the first
/// torn or corrupt record. Pure — this is the function the fuzz tests
/// hammer; [`Wal::recover`] is a thin I/O wrapper around it.
pub fn replay_log(base: WalState, log: &[u8]) -> Replay {
    let mut out = Replay {
        state: base,
        ..Replay::default()
    };
    let mut at = 0usize;
    while let Some(header) = log.get(at..at + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len == 0 || len > MAX_RECORD {
            break;
        }
        let Some(payload) = log.get(at + 8..at + 8 + len as usize) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        match Record::decode_payload(payload) {
            Some(rec) => {
                fold(&mut out.state, &rec);
                out.records += 1;
            }
            None => out.skipped += 1,
        }
        at += 8 + len as usize;
    }
    out.valid_len = at as u64;
    out.torn_bytes = (log.len() - at) as u64;
    out
}

/// Encodes a snapshot blob (magic + framed, CRC-protected state).
///
/// Payload: epoch; tree 0's value (a presence byte, then length +
/// bytes); the links, each with one reserved zero byte where the lease
/// flags used to be; and, only when some other tree has a value, a
/// count followed by `(tree, length, bytes)` per tree. A tree-0-only
/// image thus has the layout snapshots had before forest trees were
/// durable, so those older snapshots still decode (their lease flags
/// ignored).
pub fn encode_snapshot(state: &WalState) -> Vec<u8> {
    let put_bytes = |out: &mut Vec<u8>, v: &[u8]| {
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
    };
    let mut payload = Vec::new();
    payload.extend_from_slice(&state.epoch.to_le_bytes());
    match state.vals.get(&0) {
        Some(v) => {
            payload.push(1);
            put_bytes(&mut payload, v);
        }
        None => payload.push(0),
    }
    payload.extend_from_slice(&(state.links.len() as u32).to_le_bytes());
    for l in &state.links {
        payload.extend_from_slice(&l.peer.to_le_bytes());
        payload.extend_from_slice(&l.tx_seq.to_le_bytes());
        payload.extend_from_slice(&l.acked.to_le_bytes());
        payload.extend_from_slice(&l.rx_seq.to_le_bytes());
        payload.push(0);
        payload.extend_from_slice(&(l.rtx.len() as u32).to_le_bytes());
        for (seq, inner, body) in &l.rtx {
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.push(*inner);
            put_bytes(&mut payload, body);
        }
    }
    let forest: Vec<_> = state.vals.range(1..).collect();
    if !forest.is_empty() {
        payload.extend_from_slice(&(forest.len() as u32).to_le_bytes());
        for (tree, v) in forest {
            payload.extend_from_slice(&tree.to_le_bytes());
            put_bytes(&mut payload, v);
        }
    }
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes a snapshot file. `None` for anything short, misframed, or
/// CRC-failing — recovery then falls back to replaying the log from
/// empty state. Never panics.
pub fn decode_snapshot(bytes: &[u8]) -> Option<WalState> {
    let mut r = Cursor::new(bytes);
    if r.take(8)? != SNAP_MAGIC {
        return None;
    }
    let len = r.u32()? as usize;
    let crc = r.u32()?;
    let payload = r.take(len)?;
    if crc32(payload) != crc {
        return None;
    }
    let mut p = Cursor::new(payload);
    let mut state = WalState {
        epoch: p.u64()?,
        ..WalState::default()
    };
    if p.u8()? != 0 {
        state.vals.insert(0, p.bytes()?.to_vec());
    }
    let nlinks = p.u32()?;
    let mut links = BTreeMap::new();
    for _ in 0..nlinks {
        let peer = p.u32()?;
        let mut link = LinkState {
            peer,
            tx_seq: p.u64()?,
            acked: p.u64()?,
            rx_seq: p.u64()?,
            rtx: Vec::new(),
        };
        p.u8()?; // reserved: the retired lease flags
        let nrtx = p.u32()?;
        for _ in 0..nrtx {
            let seq = p.u64()?;
            let inner = p.u8()?;
            link.rtx.push((seq, inner, p.bytes()?.to_vec()));
        }
        links.insert(peer, link);
    }
    state.links = links.into_values().collect();
    if !p.is_empty() {
        for _ in 0..p.u32()? {
            let tree = p.u32()?;
            state.vals.insert(tree, p.bytes()?.to_vec());
        }
    }
    Some(state)
}

// ---------------------------------------------------------------------------
// Counters, options, faults
// ---------------------------------------------------------------------------

/// Monotone durability counters, surfaced in `NodeMetrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalCounters {
    /// Records appended to the log.
    pub records: u64,
    /// Bytes appended to the log (frames included).
    pub appended_bytes: u64,
    /// Successful log fsyncs.
    pub fsyncs: u64,
    /// Log fsyncs failed by the `fsync-fail` disk fault.
    pub fsync_failures: u64,
    /// Recoveries that found durable state to replay.
    pub replays: u64,
    /// Log bytes discarded as torn tails across all recoveries.
    pub torn_bytes: u64,
    /// Torn-tail faults injected (recoveries where the fault chopped).
    pub torn_events: u64,
    /// Snapshots written (each truncates the log).
    pub snapshots: u64,
    /// Append/snapshot I/O errors swallowed (availability over
    /// durability; see `Wal::append`).
    pub io_errors: u64,
}

impl WalCounters {
    /// Accumulates `other` into `self`, field by field — used to sum
    /// per-node counters into a cluster-wide report.
    pub fn merge(&mut self, other: &WalCounters) {
        self.records += other.records;
        self.appended_bytes += other.appended_bytes;
        self.fsyncs += other.fsyncs;
        self.fsync_failures += other.fsync_failures;
        self.replays += other.replays;
        self.torn_bytes += other.torn_bytes;
        self.torn_events += other.torn_events;
        self.snapshots += other.snapshots;
        self.io_errors += other.io_errors;
    }
}

/// Seeded disk-fault injection knobs (see crate docs).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiskFaults {
    /// RNG seed (deterministic per node).
    pub seed: u64,
    /// Max unsynced bytes chopped off the log tail per recovery
    /// (0 = disabled).
    pub torn_tail_max: u64,
    /// Probability each log fsync silently fails (0.0 = disabled).
    pub fsync_fail_p: f64,
}

/// Tuning and identification for one node's [`Wal`].
#[derive(Clone, Debug, PartialEq)]
pub struct WalOptions {
    /// Node id, used only to label obs events.
    pub node: u32,
    /// Group-commit batch: fsync once per this many records (≥ 1).
    /// `Write` and `Epoch` records always sync regardless.
    pub fsync_every: u64,
    /// Snapshot (and truncate the log) after this many records.
    pub snapshot_every: u64,
    /// Optional seeded disk faults.
    pub faults: Option<DiskFaults>,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            node: 0,
            fsync_every: 8,
            snapshot_every: 4096,
            faults: None,
        }
    }
}

// SplitMix64 — same generator the fault plan uses, so disk faults are
// reproducible from the plan seed alone.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn splitmix_f64(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// The Wal itself
// ---------------------------------------------------------------------------

/// One node's durable log + snapshot pair rooted at a directory.
pub struct Wal {
    dir: PathBuf,
    log: File,
    /// Current end-of-log offset (where the next append lands).
    log_len: u64,
    /// Offset covered by the last successful fsync. Pre-existing file
    /// content at open is assumed synced (the previous process exited;
    /// its page cache writes are durable or already lost).
    synced_len: u64,
    /// Records appended since the last successful fsync.
    pending: u64,
    records_since_snapshot: u64,
    opts: WalOptions,
    rng: u64,
    counters: WalCounters,
    buf: Vec<u8>,
}

impl Wal {
    /// Opens (creating if needed) the log under `dir`. Does **not**
    /// replay — call [`Wal::recover`] for that.
    pub fn open(dir: impl Into<PathBuf>, opts: WalOptions) -> io::Result<Wal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(LOG_FILE))?;
        let log_len = log.metadata()?.len();
        let rng = opts.faults.map(|f| f.seed).unwrap_or(0) ^ ((opts.node as u64) << 32);
        Ok(Wal {
            dir,
            log,
            log_len,
            synced_len: log_len,
            pending: 0,
            records_since_snapshot: 0,
            opts,
            rng,
            counters: WalCounters::default(),
            buf: Vec::with_capacity(256),
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current counter values.
    pub fn counters(&self) -> WalCounters {
        self.counters
    }

    /// Appends one record (`write(2)` now, fsync per group commit).
    ///
    /// An I/O error is counted and returned; the runtime's policy is to
    /// count-and-continue (availability over durability) because a node
    /// that halts on a full disk takes its whole subtree's aggregate
    /// with it.
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        self.buf.clear();
        let mut buf = std::mem::take(&mut self.buf);
        encode_record(rec, &mut buf);
        let res = self.log.write_all(&buf);
        let len = buf.len() as u64;
        self.buf = buf;
        if let Err(e) = res {
            self.counters.io_errors += 1;
            return Err(e);
        }
        self.log_len += len;
        self.counters.records += 1;
        self.counters.appended_bytes += len;
        self.pending += 1;
        self.records_since_snapshot += 1;
        trace_event!(
            oat_obs::EventKind::WalAppend,
            self.opts.node,
            rec.tag() as u32,
            len
        );
        if rec.forces_sync() || self.pending >= self.opts.fsync_every.max(1) {
            self.fsync_log()?;
        }
        Ok(())
    }

    /// Explicit group-commit point: fsyncs if anything is pending.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.pending > 0 {
            self.fsync_log()?;
        }
        Ok(())
    }

    fn fsync_log(&mut self) -> io::Result<()> {
        if let Some(f) = self.opts.faults {
            if f.fsync_fail_p > 0.0 && splitmix_f64(&mut self.rng) < f.fsync_fail_p {
                // Injected transient failure: the batch stays unsynced
                // and is retried at the next commit point.
                self.counters.fsync_failures += 1;
                return Ok(());
            }
        }
        self.log.sync_data()?;
        let n = self.pending;
        self.pending = 0;
        self.synced_len = self.log_len;
        self.counters.fsyncs += 1;
        trace_event!(oat_obs::EventKind::WalFsync, self.opts.node, 0, n);
        Ok(())
    }

    /// True once enough records have accumulated that the runtime
    /// should fold its state and call [`Wal::snapshot`].
    pub fn wants_snapshot(&self) -> bool {
        self.opts.snapshot_every > 0 && self.records_since_snapshot >= self.opts.snapshot_every
    }

    /// Writes `state` as the new snapshot (tmp + fsync + atomic rename
    /// + directory sync) and truncates the log.
    pub fn snapshot(&mut self, state: &WalState) -> io::Result<()> {
        let res = self.snapshot_inner(state);
        if res.is_err() {
            self.counters.io_errors += 1;
        }
        res
    }

    fn snapshot_inner(&mut self, state: &WalState) -> io::Result<()> {
        let blob = encode_snapshot(state);
        let tmp = self.dir.join(SNAP_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&blob)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(SNAP_FILE))?;
        // Persist the rename itself before truncating the log it
        // replaces.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.log.set_len(0)?;
        self.log_len = 0;
        self.synced_len = 0;
        self.pending = 0;
        self.records_since_snapshot = 0;
        self.counters.snapshots += 1;
        Ok(())
    }

    /// Recovers durable state: injects the torn-tail fault (if armed),
    /// seeds from the snapshot, replays the log's valid prefix, and
    /// truncates any torn tail so appends resume cleanly. Never panics
    /// on corrupt input.
    pub fn recover(&mut self) -> io::Result<Recovered> {
        // A leftover tmp from an interrupted snapshot is garbage by
        // definition (the rename never happened).
        let _ = fs::remove_file(self.dir.join(SNAP_TMP));

        // Torn-tail injection: chop up to `torn_tail_max` bytes, but
        // never below the synced watermark — fsynced data survives any
        // crash, and the write-ack durability contract depends on that.
        if let Some(f) = self.opts.faults {
            let unsynced = self.log_len.saturating_sub(self.synced_len);
            if f.torn_tail_max > 0 && unsynced > 0 {
                let chop = 1 + splitmix(&mut self.rng) % f.torn_tail_max.min(unsynced);
                self.log_len -= chop;
                self.log.set_len(self.log_len)?;
                self.counters.torn_events += 1;
            }
        }

        let base = match fs::read(self.dir.join(SNAP_FILE)) {
            Ok(bytes) => decode_snapshot(&bytes),
            Err(_) => None,
        };
        let had_snapshot = base.is_some();
        let log = fs::read(self.dir.join(LOG_FILE))?;
        let replay = replay_log(base.unwrap_or_default(), &log);

        if replay.torn_bytes > 0 {
            // Truncate to the valid prefix so new records don't append
            // after garbage.
            self.log.set_len(replay.valid_len)?;
        }
        self.log_len = replay.valid_len;
        self.synced_len = self.synced_len.min(self.log_len);
        self.pending = 0;

        let found = had_snapshot || replay.records > 0;
        if found {
            self.counters.replays += 1;
        }
        self.counters.torn_bytes += replay.torn_bytes;
        trace_event!(
            oat_obs::EventKind::WalRecover,
            self.opts.node,
            replay.torn_bytes as u32,
            replay.records
        );
        Ok(Recovered {
            state: replay.state,
            found,
            records: replay.records,
            torn_bytes: replay.torn_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("oat-wal-test-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn record_payloads_roundtrip() {
        let recs = [
            Record::Write { val: vec![1, 2, 3] },
            Record::Send {
                peer: 7,
                seq: 42,
                inner: 2,
                body: vec![9; 5],
            },
            Record::Rx {
                peer: 1,
                rx_seq: 10,
            },
            Record::Ack { peer: 1, acked: 9 },
            Record::Lease {
                peer: 3,
                bits: 0b10,
            },
            Record::Epoch { epoch: 4 },
            Record::WriteTree {
                tree: 3,
                val: vec![4, 5],
            },
        ];
        for rec in &recs {
            let mut buf = Vec::new();
            rec.encode_payload(&mut buf);
            assert_eq!(Record::decode_payload(&buf).as_ref(), Some(rec));
        }
    }

    /// Tags 1–6 keep the bytes every existing log was written with, and
    /// a tree-0 write is still tag 1 — forest durability added tag 7
    /// and changed nothing else on disk.
    #[test]
    fn record_bytes_are_golden() {
        let golden: [(Record, &[u8]); 8] = [
            (Record::Write { val: vec![7, 8] }, &[1, 7, 8]),
            (
                Record::Send {
                    peer: 2,
                    seq: 3,
                    inner: 4,
                    body: vec![5],
                },
                &[2, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 5],
            ),
            (
                Record::Rx { peer: 1, rx_seq: 9 },
                &[3, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0],
            ),
            (
                Record::Ack { peer: 1, acked: 9 },
                &[4, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0],
            ),
            (Record::Lease { peer: 6, bits: 3 }, &[5, 6, 0, 0, 0, 3]),
            (Record::Epoch { epoch: 2 }, &[6, 2, 0, 0, 0, 0, 0, 0, 0]),
            (Record::write(0, vec![7, 8]), &[1, 7, 8]),
            (Record::write(3, vec![7, 8]), &[7, 3, 0, 0, 0, 7, 8]),
        ];
        for (rec, bytes) in golden {
            let mut buf = Vec::new();
            rec.encode_payload(&mut buf);
            assert_eq!(buf, bytes, "{rec:?}");
        }
        let mut framed = Vec::new();
        encode_record(&Record::Write { val: vec![7, 8] }, &mut framed);
        let mut want = vec![3, 0, 0, 0];
        want.extend_from_slice(&crc32(&[1, 7, 8]).to_le_bytes());
        want.extend_from_slice(&[1, 7, 8]);
        assert_eq!(framed, want, "the record frame is unchanged too");
    }

    #[test]
    fn replay_keeps_the_last_write_of_every_tree() {
        let mut log = Vec::new();
        for (tree, v) in [(0, 1), (3, 2), (7, 3), (3, 4), (0, 5), (7, 6), (3, 7)] {
            encode_record(&Record::write(tree, vec![v]), &mut log);
        }
        // A lease record from an older log replays, counted, as a no-op.
        encode_record(&Record::Lease { peer: 1, bits: 3 }, &mut log);
        let r = replay_log(WalState::default(), &log);
        assert_eq!(r.records, 8);
        assert_eq!(
            r.state.vals,
            BTreeMap::from([(0, vec![5]), (3, vec![7]), (7, vec![6])])
        );
        assert!(r.state.links.is_empty(), "a lease record folds to nothing");
    }

    #[test]
    fn replay_folds_watermarks_and_rtx() {
        let mut log = Vec::new();
        for rec in [
            Record::Epoch { epoch: 1 },
            Record::Send {
                peer: 2,
                seq: 1,
                inner: 0,
                body: vec![0xAA],
            },
            Record::Send {
                peer: 2,
                seq: 2,
                inner: 0,
                body: vec![0xBB],
            },
            Record::Rx { peer: 2, rx_seq: 5 },
            Record::Ack { peer: 2, acked: 1 },
            Record::Write { val: vec![7] },
        ] {
            encode_record(&rec, &mut log);
        }
        let r = replay_log(WalState::default(), &log);
        assert_eq!(r.records, 6);
        assert_eq!(r.torn_bytes, 0);
        assert_eq!(r.state.epoch, 1);
        assert_eq!(r.state.vals, BTreeMap::from([(0, vec![7])]));
        let link = &r.state.links[0];
        assert_eq!(
            (link.peer, link.tx_seq, link.acked, link.rx_seq),
            (2, 2, 1, 5)
        );
        assert_eq!(
            link.rtx,
            vec![(2, 0, vec![0xBB])],
            "acked sends are trimmed"
        );
    }

    #[test]
    fn replay_stops_at_torn_tail_and_reports_it() {
        let mut log = Vec::new();
        encode_record(&Record::Rx { peer: 1, rx_seq: 3 }, &mut log);
        let whole = log.len();
        encode_record(&Record::Rx { peer: 1, rx_seq: 4 }, &mut log);
        for cut in whole + 1..log.len() {
            let r = replay_log(WalState::default(), &log[..cut]);
            assert_eq!(r.records, 1, "cut at {cut}");
            assert_eq!(r.valid_len, whole as u64);
            assert_eq!(r.torn_bytes, (cut - whole) as u64);
            assert_eq!(r.state.links[0].rx_seq, 3);
        }
    }

    #[test]
    fn replay_stops_at_crc_mismatch() {
        let mut log = Vec::new();
        encode_record(&Record::Rx { peer: 1, rx_seq: 3 }, &mut log);
        encode_record(&Record::Rx { peer: 1, rx_seq: 4 }, &mut log);
        let n = log.len();
        log[n - 1] ^= 0x40; // corrupt the final record's body
        let r = replay_log(WalState::default(), &log);
        assert_eq!(r.records, 1);
        assert!(r.torn_bytes > 0);
        assert_eq!(r.state.links[0].rx_seq, 3);
    }

    #[test]
    fn snapshot_blob_roundtrips() {
        let link = LinkState {
            peer: 4,
            tx_seq: 100,
            acked: 98,
            rx_seq: 55,
            rtx: vec![(99, 1, vec![]), (100, 0, vec![5, 6])],
        };
        let tree0 = WalState {
            epoch: 9,
            vals: BTreeMap::from([(0, vec![1, 2, 3])]),
            links: vec![link.clone()],
        };
        let forest = WalState {
            vals: BTreeMap::from([(0, vec![1, 2, 3]), (3, vec![4]), (7, vec![])]),
            ..tree0.clone()
        };
        let no_tree0 = WalState {
            vals: BTreeMap::from([(5, vec![6, 6])]),
            ..tree0.clone()
        };
        for state in [tree0, forest, no_tree0, WalState::default()] {
            let blob = encode_snapshot(&state);
            assert_eq!(decode_snapshot(&blob), Some(state.clone()));
            assert_eq!(
                decode_snapshot(&blob[..blob.len() - 1]),
                None,
                "torn snapshot ignored"
            );
            let mut bad = blob.clone();
            bad[20] ^= 1;
            assert_eq!(decode_snapshot(&bad), None, "bit-flipped snapshot ignored");
        }
    }

    /// A tree-0-only image has the bytes snapshots had before forest
    /// trees were durable, lease byte included, so a snapshot written
    /// by an older node still recovers — its lease flags are ignored.
    #[test]
    fn tree_zero_snapshot_bytes_are_golden() {
        let state = WalState {
            epoch: 2,
            vals: BTreeMap::from([(0, vec![9])]),
            links: vec![LinkState {
                peer: 1,
                tx_seq: 3,
                acked: 3,
                rx_seq: 4,
                rtx: vec![],
            }],
        };
        let mut payload = vec![2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 9, 1, 0, 0, 0];
        payload.extend_from_slice(&[1, 0, 0, 0]);
        payload.extend_from_slice(&[3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]);
        payload.extend_from_slice(&[4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let frame = |payload: &[u8]| {
            let mut blob = SNAP_MAGIC.to_vec();
            blob.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            blob.extend_from_slice(&crc32(payload).to_le_bytes());
            blob.extend_from_slice(payload);
            blob
        };
        assert_eq!(encode_snapshot(&state), frame(&payload));
        // The same image with lease flags 0b11, as an older node wrote it.
        payload[46] = 3;
        assert_eq!(decode_snapshot(&frame(&payload)), Some(state));
    }

    #[test]
    fn wal_append_recover_cycle() {
        let dir = tmpdir("cycle");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(!wal.recover().unwrap().found, "fresh dir has nothing");
        wal.append(&Record::Write { val: vec![42] }).unwrap();
        wal.append(&Record::Send {
            peer: 1,
            seq: 1,
            inner: 0,
            body: vec![1],
        })
        .unwrap();
        drop(wal);

        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        let rec = wal.recover().unwrap();
        assert!(rec.found);
        assert_eq!(rec.records, 2);
        assert_eq!(rec.state.vals.get(&0).map(Vec::as_slice), Some(&[42u8][..]));
        assert_eq!(rec.state.links[0].rtx.len(), 1);
        assert_eq!(wal.counters().replays, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_log_and_seeds_recovery() {
        let dir = tmpdir("snap");
        let mut wal = Wal::open(
            &dir,
            WalOptions {
                snapshot_every: 1,
                ..WalOptions::default()
            },
        )
        .unwrap();
        wal.append(&Record::Write { val: vec![9] }).unwrap();
        assert!(wal.wants_snapshot());
        let state = WalState {
            epoch: 2,
            vals: BTreeMap::from([(0, vec![9])]),
            links: vec![],
        };
        wal.snapshot(&state).unwrap();
        assert_eq!(fs::metadata(dir.join(LOG_FILE)).unwrap().len(), 0);
        wal.append(&Record::Rx { peer: 1, rx_seq: 7 }).unwrap();
        drop(wal);

        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        let rec = wal.recover().unwrap();
        assert!(rec.found);
        assert_eq!(rec.state.epoch, 2, "epoch came from the snapshot");
        assert_eq!(rec.state.vals.get(&0).map(Vec::as_slice), Some(&[9u8][..]));
        assert_eq!(
            rec.state.links[0].rx_seq, 7,
            "post-snapshot log applied on top"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_snapshot_tmp_is_ignored_and_removed() {
        let dir = tmpdir("tmpfile");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&Record::Write { val: vec![1] }).unwrap();
        fs::write(dir.join(SNAP_TMP), b"half-written garbage").unwrap();
        let rec = wal.recover().unwrap();
        assert_eq!(rec.state.vals.get(&0).map(Vec::as_slice), Some(&[1u8][..]));
        assert!(!dir.join(SNAP_TMP).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_fsyncs_but_writes_force_them() {
        let dir = tmpdir("fsync");
        let mut wal = Wal::open(
            &dir,
            WalOptions {
                fsync_every: 100,
                ..WalOptions::default()
            },
        )
        .unwrap();
        for i in 0..10 {
            wal.append(&Record::Rx { peer: 1, rx_seq: i }).unwrap();
        }
        assert_eq!(wal.counters().fsyncs, 0, "batch not reached");
        wal.append(&Record::Write { val: vec![1] }).unwrap();
        assert_eq!(wal.counters().fsyncs, 1, "write forces the sync");
        wal.sync().unwrap();
        assert_eq!(
            wal.counters().fsyncs,
            1,
            "nothing pending after forced sync"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_fault_chops_only_unsynced_bytes() {
        let dir = tmpdir("torn");
        let faults = DiskFaults {
            seed: 7,
            torn_tail_max: 1 << 20,
            fsync_fail_p: 0.0,
        };
        let opts = WalOptions {
            fsync_every: 1000,
            faults: Some(faults),
            ..WalOptions::default()
        };
        let mut wal = Wal::open(&dir, opts).unwrap();
        wal.append(&Record::Write { val: vec![5] }).unwrap(); // forces sync
        for i in 0..20 {
            wal.append(&Record::Rx { peer: 1, rx_seq: i }).unwrap(); // unsynced
        }
        let rec = wal.recover().unwrap();
        assert_eq!(wal.counters().torn_events, 1, "fault fired");
        assert!(rec.torn_bytes > 0);
        assert_eq!(
            rec.state.vals.get(&0).map(Vec::as_slice),
            Some(&[5u8][..]),
            "synced write survives"
        );
        assert!(
            rec.state.links.first().map_or(0, |l| l.rx_seq) < 20,
            "tail records lost"
        );

        // Appends resume cleanly after the truncation, and synced bytes
        // are immune to the fault on the next recovery.
        wal.append(&Record::Rx {
            peer: 1,
            rx_seq: 99,
        })
        .unwrap();
        wal.sync().unwrap();
        let rec2 = wal.recover().unwrap();
        assert_eq!(
            wal.counters().torn_events,
            1,
            "nothing unsynced, fault idle"
        );
        assert_eq!(rec2.state.links[0].rx_seq, 99);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_fail_fault_counts_and_stays_transient() {
        let dir = tmpdir("fsyncfail");
        let faults = DiskFaults {
            seed: 3,
            torn_tail_max: 0,
            fsync_fail_p: 1.0,
        };
        let opts = WalOptions {
            fsync_every: 1,
            faults: Some(faults),
            ..WalOptions::default()
        };
        let mut wal = Wal::open(&dir, opts).unwrap();
        for i in 0..5 {
            wal.append(&Record::Rx { peer: 1, rx_seq: i }).unwrap();
        }
        let c = wal.counters();
        assert_eq!(c.fsyncs, 0);
        assert_eq!(c.fsync_failures, 5);
        // The data itself was written — recovery still sees it.
        assert_eq!(wal.recover().unwrap().state.links[0].rx_seq, 4);
        let _ = fs::remove_dir_all(&dir);
    }
}
