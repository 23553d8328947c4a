//! The write-ahead-log escrow for a node's durable state.
//!
//! What a node must not lose is what the paper makes durable — every
//! tree instance's last written value — plus its link watermarks and
//! retransmit buffers. An in-process crash keeps them in `NodeRt`
//! (enough to survive an automaton panic, useless against a process
//! kill). With `NetConfig::durability` set to `DurabilityMode::Wal`,
//! each node also owns a [`WalDurability`]: writes on every tree, edge
//! sequence watermarks and epoch bumps are logged write-ahead, so the
//! *cold-start* path (process kill, `kill9`, or a cluster re-spawned on
//! the same directory) can rebuild the node from disk. Leases are not
//! logged: a restarted node holds none and its neighbours' RESET
//! handling rebuilds them by probing. With `DurabilityMode::Memory` a
//! node has no log at all and the runtime skips every hook.
//!
//! The hooks are infallible by design: a node that halts on a full disk
//! takes its whole subtree's aggregate with it, so the log counts I/O
//! errors and keeps serving (availability over durability — see
//! `WalCounters::io_errors`).

use std::io;
use std::path::Path;
use std::sync::Arc;

use oat_core::fault::{FaultPlan, InjectedFaults};
use oat_core::tree::NodeId;
use oat_wal::{DiskFaults, Record, Wal, WalOptions};

pub use oat_wal::{LinkState, WalCounters, WalState};

/// A node's write-ahead log. All hooks delegate to [`oat_wal::Wal`];
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

    /// A client write to `tree` was accepted; `val` is the wire encoding
    /// of the instance's new value. Durable before the ack goes out.
    pub(crate) fn log_write(&mut self, tree: u32, val: &[u8]) {
        let _ = self.wal.append(&Record::write(tree, val.to_vec()));
        self.publish_faults();
    }

    /// Sequence number `seq` was assigned to an edge frame toward
    /// `peer`. Logged before the frame can reach a socket.
    pub(crate) fn log_send(&mut self, peer: u32, seq: u64, inner: u8, body: &[u8]) {
        let _ = self.wal.append(&Record::Send {
            peer,
            seq,
            inner,
            body: body.to_vec(),
        });
        self.publish_faults();
    }

    /// Frames from `peer` were delivered through `rx_seq`.
    pub(crate) fn log_rx(&mut self, peer: u32, rx_seq: u64) {
        let _ = self.wal.append(&Record::Rx { peer, rx_seq });
        self.publish_faults();
    }

    /// `peer` acknowledged our frames through `acked`.
    pub(crate) fn log_ack(&mut self, peer: u32, acked: u64) {
        let _ = self.wal.append(&Record::Ack { peer, acked });
        self.publish_faults();
    }

    /// The incarnation epoch advanced.
    pub(crate) fn log_epoch(&mut self, epoch: u64) {
        let _ = self.wal.append(&Record::Epoch { epoch });
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
