//! Pluggable durability backends for a node's escrowed state.
//!
//! What a node must not lose is what the paper makes durable — every
//! tree instance's last written value — plus its link watermarks and
//! retransmit buffers. An in-process crash keeps them in `NodeRt`
//! (enough to survive an automaton panic, useless against a process
//! kill). The [`Durability`] trait makes the escrow a backend decision:
//!
//! * [`MemoryDurability`] — the default. Every hook is a no-op
//!   ([`Durability::active`] is `false`, so the runtime skips the calls
//!   entirely); simulator parity stays byte-for-byte.
//! * [`WalDurability`] — wraps an [`oat_wal::Wal`]: writes on every
//!   tree, edge sequence watermarks and epoch bumps are logged
//!   write-ahead, so the *cold-start* path (process kill, `kill9`, or a
//!   cluster re-spawned on the same directory) can rebuild the node from
//!   disk. Leases are not logged: a restarted node holds none and its
//!   neighbours' RESET handling rebuilds them by probing.
//!
//! Backends are selected per cluster via `NetConfig::durability` and
//! constructed per node in `Cluster::spawn_with`.

use std::io;
use std::path::Path;
use std::sync::Arc;

use oat_core::fault::{FaultPlan, InjectedFaults};
use oat_core::tree::NodeId;
use oat_wal::{DiskFaults, Record, Wal, WalOptions};

pub use oat_wal::{LinkState, WalCounters, WalState};

/// The durability escrow contract. Hooks are infallible by design: a
/// node that halts on a full disk takes its whole subtree's aggregate
/// with it, so the WAL backend counts I/O errors and keeps serving
/// (availability over durability — see `WalCounters::io_errors`).
pub trait Durability: Send {
    /// False when every hook is a no-op; the runtime then skips the
    /// calls (and their argument encoding) entirely.
    fn active(&self) -> bool {
        false
    }

    /// Whether a process-grade kill (`kill9`) can be recovered from
    /// this backend. `Cluster::spawn_with` rejects kill9 schedules when
    /// any node's backend answers false.
    fn cold_start_capable(&self) -> bool {
        false
    }

    /// A client write to `tree` was accepted; `val` is the wire encoding
    /// of the instance's new value. Must be durable before the ack goes
    /// out.
    fn log_write(&mut self, _tree: u32, _val: &[u8]) {}

    /// Sequence number `seq` was assigned to an edge frame toward
    /// `peer`. Logged before the frame can reach a socket.
    fn log_send(&mut self, _peer: u32, _seq: u64, _inner: u8, _body: &[u8]) {}

    /// Frames from `peer` were delivered through `rx_seq`.
    fn log_rx(&mut self, _peer: u32, _rx_seq: u64) {}

    /// `peer` acknowledged our frames through `acked`.
    fn log_ack(&mut self, _peer: u32, _acked: u64) {}

    /// The incarnation epoch advanced.
    fn log_epoch(&mut self, _epoch: u64) {}

    /// True when enough log has accumulated that the runtime should
    /// fold its state and call [`Durability::snapshot`].
    fn wants_snapshot(&self) -> bool {
        false
    }

    /// Persist a full state image and truncate the log.
    fn snapshot(&mut self, _state: &WalState) {}

    /// Replay durable state. `None` when nothing was durable (first
    /// boot) or the backend cannot recover.
    fn recover(&mut self) -> Option<WalState> {
        None
    }

    /// Monotone counters for metrics.
    fn counters(&self) -> WalCounters {
        WalCounters::default()
    }
}

/// The in-memory escrow. `crash_restart` rebuilds every instance from
/// the value it already holds in `NodeRt`, so this backend stores
/// nothing at all.
#[derive(Debug, Default)]
pub struct MemoryDurability;

impl Durability for MemoryDurability {}

/// The write-ahead-log escrow. All hooks delegate to [`oat_wal::Wal`];
/// disk-fault events (torn tails, failed fsyncs) are mirrored into the
/// cluster's [`InjectedFaults`] ledger as they surface.
pub struct WalDurability {
    wal: Wal,
    ledger: Arc<InjectedFaults>,
    seen_torn: u64,
    seen_fsync_fails: u64,
}

impl WalDurability {
    /// Opens (creating if needed) the log for `node` under `dir`, with
    /// disk faults armed from `plan`.
    pub fn open(
        dir: &Path,
        node: NodeId,
        fsync_every: u64,
        snapshot_every: u64,
        plan: &FaultPlan,
        ledger: Arc<InjectedFaults>,
    ) -> io::Result<WalDurability> {
        let faults = (plan.torn_tail_max > 0 || plan.fsync_fail_p > 0.0).then(|| DiskFaults {
            seed: plan.disk_seed(node),
            torn_tail_max: plan.torn_tail_max,
            fsync_fail_p: plan.fsync_fail_p,
        });
        let wal = Wal::open(
            dir,
            WalOptions {
                node: node.0,
                fsync_every,
                snapshot_every,
                faults,
            },
        )?;
        Ok(WalDurability {
            wal,
            ledger,
            seen_torn: 0,
            seen_fsync_fails: 0,
        })
    }

    /// Mirrors newly-surfaced disk-fault events into the shared ledger.
    fn publish_faults(&mut self) {
        let c = self.wal.counters();
        if c.torn_events > self.seen_torn {
            self.ledger.torn_tails.fetch_add(
                c.torn_events - self.seen_torn,
                std::sync::atomic::Ordering::Relaxed,
            );
            self.seen_torn = c.torn_events;
        }
        if c.fsync_failures > self.seen_fsync_fails {
            self.ledger.fsync_fails.fetch_add(
                c.fsync_failures - self.seen_fsync_fails,
                std::sync::atomic::Ordering::Relaxed,
            );
            self.seen_fsync_fails = c.fsync_failures;
        }
    }
}

impl Durability for WalDurability {
    fn active(&self) -> bool {
        true
    }

    fn cold_start_capable(&self) -> bool {
        true
    }

    fn log_write(&mut self, tree: u32, val: &[u8]) {
        let _ = self.wal.append(&Record::write(tree, val.to_vec()));
        self.publish_faults();
    }

    fn log_send(&mut self, peer: u32, seq: u64, inner: u8, body: &[u8]) {
        let _ = self.wal.append(&Record::Send {
            peer,
            seq,
            inner,
            body: body.to_vec(),
        });
        self.publish_faults();
    }

    fn log_rx(&mut self, peer: u32, rx_seq: u64) {
        let _ = self.wal.append(&Record::Rx { peer, rx_seq });
        self.publish_faults();
    }

    fn log_ack(&mut self, peer: u32, acked: u64) {
        let _ = self.wal.append(&Record::Ack { peer, acked });
        self.publish_faults();
    }

    fn log_epoch(&mut self, epoch: u64) {
        let _ = self.wal.append(&Record::Epoch { epoch });
        self.publish_faults();
    }

    fn wants_snapshot(&self) -> bool {
        self.wal.wants_snapshot()
    }

    fn snapshot(&mut self, state: &WalState) {
        let _ = self.wal.snapshot(state);
    }

    fn recover(&mut self) -> Option<WalState> {
        let rec = self.wal.recover().ok()?;
        self.publish_faults();
        rec.found.then_some(rec.state)
    }

    fn counters(&self) -> WalCounters {
        self.wal.counters()
    }
}
