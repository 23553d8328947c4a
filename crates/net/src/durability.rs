//! The write-ahead-log escrow for a node's durable state.
//!
//! What a node must not lose is what the paper makes durable — every
//! tree instance's last written value — and its epoch, which must never
//! regress. An in-process crash keeps them in the node's core; a process
//! kill does not. With `NetConfig::durability` set to
//! `DurabilityMode::Wal`, the core emits a record for every write and
//! every epoch bump, and the node's driver appends them to its
//! [`WalDurability`] write-ahead, each synced before the step's client
//! queues flush, so a *cold start* (`kill9`, or a cluster re-spawned on
//! the same directory) rebuilds the node's values from disk. Nothing
//! else is logged. Leases are not: a restarted node holds none and its
//! neighbours' RESET handling rebuilds them by probing. Links are not:
//! a restart resets them, and the peers drop what was in flight
//! (`crate::link`, "A restart is a reset"). Under
//! `DurabilityMode::Memory` there is no log and the core builds no record.
//!
//! Appends are infallible by design: a node that halts on a full disk
//! takes its whole subtree's aggregate with it, so the log counts I/O
//! errors and keeps serving (availability over durability — see
//! `WalCounters::io_errors`).

use std::io;
use std::path::Path;
use std::sync::Arc;

use oat_core::fault::{FaultPlan, InjectedFaults};
use oat_core::tree::NodeId;
use oat_wal::{DiskFaults, Record, Wal, WalOptions};

pub use oat_wal::{WalCounters, WalState};

/// A node's write-ahead log, delegating to [`oat_wal::Wal`];
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

    /// Appends a node core's records, in order. Write and epoch records
    /// force a sync, so a step's records are durable once this returns —
    /// before its driver flushes any client queue.
    pub(crate) fn apply(&mut self, records: Vec<Record>) {
        for rec in &records {
            let _ = self.wal.append(rec);
        }
        self.publish_faults();
    }

    /// True when enough log has accumulated that the runtime should
    /// fold its state and call [`WalDurability::snapshot`].
    pub(crate) fn wants_snapshot(&self) -> bool {
        self.wal.wants_snapshot()
    }

    /// Persist a full state image and truncate the log.
    pub(crate) fn snapshot(&mut self, state: &WalState) {
        let _ = self.wal.snapshot(state);
    }

    /// Replay durable state. `None` when nothing was durable (first
    /// boot) or the log cannot be read.
    pub(crate) fn recover(&mut self) -> Option<WalState> {
        let rec = self.wal.recover().ok()?;
        self.publish_faults();
        rec.found.then_some(rec.state)
    }

    /// Monotone counters for metrics.
    pub(crate) fn counters(&self) -> WalCounters {
        self.wal.counters()
    }
}
