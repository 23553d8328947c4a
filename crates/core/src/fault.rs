//! Seeded fault plans: the adversary as a first-class, replayable object.
//!
//! The paper's network model (Section 2) assumes reliable FIFO channels
//! and immortal nodes; everything the mechanism guarantees is proved on
//! that substrate. A [`FaultPlan`] describes a *deterministic, seeded*
//! deviation from it:
//!
//! * per-edge **drop / duplicate / delay** probabilities, decided by a
//!   per-directed-edge RNG stream (so the decision sequence for an edge
//!   depends only on the seed and the edge, never on cross-edge timing —
//!   the same plan replays identically in the single-threaded simulator
//!   and in the multi-threaded TCP runtime),
//! * a **connection-kill schedule**: directed edges whose underlying
//!   transport link is severed after carrying a given number of frames,
//! * a **node-crash schedule**: nodes whose automaton is killed after
//!   processing a given number of network messages.
//!
//! Consumers differ in what they do with a decision: the simulator
//! applies drops/duplicates directly to its channel queues (losing
//! messages for real, to *demonstrate* consistency violations), while
//! `oat-net` injects them below its sequenced link layer, whose
//! retransmission machinery must then mask them. Both record what they
//! injected in an [`InjectedFaults`] ledger so a chaos harness can assert
//! the plan actually fired.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::tree::NodeId;

/// What the plan says to do with one message/frame on an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Lose it (the transport must recover it, or the run shows a
    /// violation).
    Drop,
    /// Deliver it twice.
    Duplicate,
    /// Deliver it late (transport-defined delay; FIFO order preserved).
    Delay,
}

/// Sever the transport link under the directed edge `from → to` after it
/// has carried `after_frames` sequenced frames in that direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillConn {
    /// Sending side of the directed edge.
    pub from: NodeId,
    /// Receiving side.
    pub to: NodeId,
    /// Frames written in that direction before the link is cut.
    pub after_frames: u64,
}

/// Crash the node `node` after it has processed `after_delivered`
/// network messages (measured across restarts: the trigger fires when
/// the node's cumulative delivered count reaches the threshold).
///
/// The same shape schedules both fault grades: an in-process automaton
/// crash (`crash:`, the mechanism restarts from its in-memory escrow)
/// and a process-grade `kill9:` (all of the node's runtime state is
/// torn down without a handoff; recovery must come from the durability
/// backend).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashNode {
    /// The node to kill.
    pub node: NodeId,
    /// Cumulative delivered-message count that triggers the crash.
    pub after_delivered: u64,
}

/// A complete, seeded fault plan. `FaultPlan::default()` is the empty
/// plan: every probability zero, no schedules — the reliable network.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-edge decision stream.
    pub seed: u64,
    /// Per-frame probability of a drop on every directed edge.
    pub drop_p: f64,
    /// Per-frame probability of a duplicate delivery.
    pub dup_p: f64,
    /// Per-frame probability of a delayed delivery.
    pub delay_p: f64,
    /// Connection-kill schedule.
    pub kills: Vec<KillConn>,
    /// Node-crash schedule.
    pub crashes: Vec<CrashNode>,
    /// Process-kill (`kill9`) schedule: these nodes lose *all* runtime
    /// state at the trigger and must recover from a durability backend.
    pub kill9s: Vec<CrashNode>,
    /// Disk fault: max unsynced bytes chopped off a node's WAL tail per
    /// recovery (0 = off). Injected inside the WAL backend.
    pub torn_tail_max: u64,
    /// Disk fault: probability each WAL fsync silently fails (0.0 = off).
    pub fsync_fail_p: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            kills: Vec::new(),
            crashes: Vec::new(),
            kill9s: Vec::new(),
            torn_tail_max: 0,
            fsync_fail_p: 0.0,
        }
    }
}

impl FaultPlan {
    /// True when the plan injects nothing — consumers may skip all fault
    /// bookkeeping entirely (the zero-cost-when-off contract).
    pub fn is_empty(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.delay_p == 0.0
            && self.kills.is_empty()
            && self.crashes.is_empty()
            && self.kill9s.is_empty()
            && self.torn_tail_max == 0
            && self.fsync_fail_p == 0.0
    }

    /// The decision stream for the directed edge `from → to`.
    pub fn edge_stream(&self, from: NodeId, to: NodeId) -> EdgeFaults {
        EdgeFaults {
            rng: SplitMix::new(
                self.seed ^ 0x9E37_79B9_7F4A_7C15 ^ ((from.0 as u64) << 32 | to.0 as u64),
            ),
            drop_p: self.drop_p,
            dup_p: self.dup_p,
            delay_p: self.delay_p,
            kill_after: self
                .kills
                .iter()
                .find(|k| k.from == from && k.to == to)
                .map(|k| k.after_frames),
            frames: 0,
        }
    }

    /// The crash threshold for `node`, if scheduled.
    pub fn crash_after(&self, node: NodeId) -> Option<u64> {
        self.crashes
            .iter()
            .find(|c| c.node == node)
            .map(|c| c.after_delivered)
    }

    /// The kill9 threshold for `node`, if scheduled.
    pub fn kill9_after(&self, node: NodeId) -> Option<u64> {
        self.kill9s
            .iter()
            .find(|c| c.node == node)
            .map(|c| c.after_delivered)
    }

    /// Seed for the reconnect redial jitter stream of the directed edge
    /// `from → to`. Derived from the plan seed (not ambient entropy) so
    /// chaos runs are bit-reproducible across machines; the empty plan's
    /// seed 0 still yields per-edge-distinct, deterministic jitter.
    pub fn jitter_seed(&self, from: NodeId, to: NodeId) -> u64 {
        SplitMix::new(self.seed ^ 0xBF58_476D_1CE4_E5B9 ^ ((from.0 as u64) << 32 | to.0 as u64))
            .next_u64()
    }

    /// Seed for `node`'s disk-fault stream (torn-tail / fsync-fail draws
    /// inside its WAL backend).
    pub fn disk_seed(&self, node: NodeId) -> u64 {
        SplitMix::new(self.seed ^ 0x94D0_49BB_1331_11EB ^ node.0 as u64).next_u64()
    }

    /// Parses a comma-separated fault spec, e.g.
    /// `seed:7,drop:0.01,dup:0.02,delay:0.01,kill:0-1@20,crash:3@50`.
    ///
    /// Items: `seed:N`, `drop:P`, `dup:P`, `delay:P`,
    /// `kill:FROM-TO@FRAMES` (repeatable; kills the link under the
    /// directed edge), `crash:NODE@DELIVERED` (repeatable),
    /// `kill9:NODE@DELIVERED` (repeatable; process-grade kill, requires
    /// the WAL durability backend), `torn-tail:BYTES` (disk fault: chop
    /// up to BYTES unsynced log bytes per recovery), `fsync-fail:P`
    /// (disk fault: each WAL fsync fails with probability P). `none`
    /// (or an empty string) is the empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(plan);
        }
        for item in spec.split(',') {
            let item = item.trim();
            let (key, val) = item
                .split_once(':')
                .ok_or_else(|| format!("bad fault item `{item}` (want key:value)"))?;
            let p = |v: &str| -> Result<f64, String> {
                let p: f64 = v.parse().map_err(|_| format!("bad probability `{v}`"))?;
                if (0.0..=1.0).contains(&p) {
                    Ok(p)
                } else {
                    Err(format!("probability `{v}` out of [0,1]"))
                }
            };
            match key {
                "seed" => {
                    plan.seed = val.parse().map_err(|_| format!("bad seed `{val}`"))?;
                }
                "drop" => plan.drop_p = p(val)?,
                "dup" => plan.dup_p = p(val)?,
                "delay" => plan.delay_p = p(val)?,
                "kill" => {
                    let (edge, after) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad kill `{val}` (want FROM-TO@FRAMES)"))?;
                    let (from, to) = edge
                        .split_once('-')
                        .ok_or_else(|| format!("bad kill edge `{edge}` (want FROM-TO)"))?;
                    plan.kills.push(KillConn {
                        from: NodeId(
                            from.parse()
                                .map_err(|_| format!("bad kill node `{from}`"))?,
                        ),
                        to: NodeId(to.parse().map_err(|_| format!("bad kill node `{to}`"))?),
                        after_frames: after
                            .parse()
                            .map_err(|_| format!("bad kill frame count `{after}`"))?,
                    });
                }
                "crash" | "kill9" => {
                    let (node, after) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad {key} `{val}` (want NODE@DELIVERED)"))?;
                    let entry = CrashNode {
                        node: NodeId(
                            node.parse()
                                .map_err(|_| format!("bad {key} node `{node}`"))?,
                        ),
                        after_delivered: after
                            .parse()
                            .map_err(|_| format!("bad {key} threshold `{after}`"))?,
                    };
                    if key == "crash" {
                        plan.crashes.push(entry);
                    } else {
                        plan.kill9s.push(entry);
                    }
                }
                "torn-tail" => {
                    plan.torn_tail_max = val
                        .parse()
                        .map_err(|_| format!("bad torn-tail byte count `{val}`"))?;
                }
                "fsync-fail" => plan.fsync_fail_p = p(val)?,
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// The seeded decision stream for one directed edge: consulted once per
/// sequenced frame, in frame order. Deterministic given (seed, edge).
#[derive(Clone, Debug)]
pub struct EdgeFaults {
    rng: SplitMix,
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    kill_after: Option<u64>,
    frames: u64,
}

impl EdgeFaults {
    /// Decides the fate of the next frame on this edge.
    ///
    /// Drop, duplicate, and delay are mutually exclusive per frame
    /// (drop wins, then duplicate, then delay), each decided from one
    /// RNG draw so the stream is a pure function of the frame index.
    pub fn next_action(&mut self) -> FaultAction {
        if self.drop_p == 0.0 && self.dup_p == 0.0 && self.delay_p == 0.0 {
            return FaultAction::Deliver;
        }
        let x = self.rng.next_f64();
        if x < self.drop_p {
            FaultAction::Drop
        } else if x < self.drop_p + self.dup_p {
            FaultAction::Duplicate
        } else if x < self.drop_p + self.dup_p + self.delay_p {
            FaultAction::Delay
        } else {
            FaultAction::Deliver
        }
    }

    /// Records one sequenced frame carried by this edge's link and
    /// reports whether the kill schedule says to sever the link *after*
    /// this frame.
    pub fn on_frame_carried(&mut self) -> bool {
        self.frames += 1;
        self.kill_after.take_if(|k| self.frames >= *k).is_some()
    }
}

/// Cluster-wide ledger of injected fault events, shared by every
/// injection site. A chaos harness compares it against the recovery
/// counters in the per-node metrics: recoveries without injections (or
/// injections without a matching plan) both indicate a bug.
#[derive(Debug, Default)]
pub struct InjectedFaults {
    /// Frames dropped by injection.
    pub drops: AtomicU64,
    /// Frames duplicated by injection.
    pub dups: AtomicU64,
    /// Frames delayed by injection.
    pub delays: AtomicU64,
    /// Transport links severed by the kill schedule.
    pub conns_killed: AtomicU64,
    /// Node automatons crashed by the crash schedule.
    pub crashes: AtomicU64,
    /// Nodes process-killed by the kill9 schedule.
    pub kill9s: AtomicU64,
    /// Torn-tail disk faults injected (WAL recoveries that chopped).
    pub torn_tails: AtomicU64,
    /// WAL fsyncs failed by the fsync-fail disk fault.
    pub fsync_fails: AtomicU64,
}

impl InjectedFaults {
    /// Snapshot as `(drops, dups, delays, conns_killed, crashes)`.
    /// Process and disk faults are reported separately by
    /// [`InjectedFaults::snapshot_process`].
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.drops.load(Ordering::Relaxed),
            self.dups.load(Ordering::Relaxed),
            self.delays.load(Ordering::Relaxed),
            self.conns_killed.load(Ordering::Relaxed),
            self.crashes.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of the process/disk-grade faults as
    /// `(kill9s, torn_tails, fsync_fails)`.
    pub fn snapshot_process(&self) -> (u64, u64, u64) {
        (
            self.kill9s.load(Ordering::Relaxed),
            self.torn_tails.load(Ordering::Relaxed),
            self.fsync_fails.load(Ordering::Relaxed),
        )
    }

    /// Total injected events of any kind.
    pub fn total(&self) -> u64 {
        let (d, u, l, k, c) = self.snapshot();
        let (k9, tt, ff) = self.snapshot_process();
        d + u + l + k + c + k9 + tt + ff
    }
}

/// splitmix64: tiny, seedable, high-quality enough for fault decisions.
/// Hand-rolled so `oat-core` keeps zero dependencies.
#[derive(Clone, Debug)]
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_parses_and_is_empty() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("none").unwrap().is_empty());
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn full_spec_parses() {
        let plan = FaultPlan::parse(
            "seed:7,drop:0.01,dup:0.02,kill:0-1@20,crash:3@50,kill9:0@60,torn-tail:128,fsync-fail:0.25",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop_p, 0.01);
        assert_eq!(plan.dup_p, 0.02);
        assert_eq!(plan.kill9_after(NodeId(0)), Some(60));
        assert_eq!(plan.kill9_after(NodeId(3)), None);
        assert_eq!(plan.torn_tail_max, 128);
        assert_eq!(plan.fsync_fail_p, 0.25);
        assert_eq!(
            plan.kills,
            vec![KillConn {
                from: NodeId(0),
                to: NodeId(1),
                after_frames: 20
            }]
        );
        assert_eq!(plan.crash_after(NodeId(3)), Some(50));
        assert_eq!(plan.crash_after(NodeId(4)), None);
        assert!(!plan.is_empty());
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultPlan::parse("drop:2.0").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("kill:0@5").is_err());
        assert!(FaultPlan::parse("crash:x@5").is_err());
        assert!(FaultPlan::parse("kill9:5").is_err());
        assert!(FaultPlan::parse("torn-tail:x").is_err());
        assert!(FaultPlan::parse("fsync-fail:1.5").is_err());
        assert!(FaultPlan::parse("wibble:1").is_err());
    }

    #[test]
    fn kill9_and_disk_faults_make_the_plan_nonempty() {
        assert!(!FaultPlan::parse("kill9:0@1").unwrap().is_empty());
        assert!(!FaultPlan::parse("torn-tail:64").unwrap().is_empty());
        assert!(!FaultPlan::parse("fsync-fail:0.1").unwrap().is_empty());
    }

    #[test]
    fn jitter_and_disk_seeds_are_deterministic_and_distinct() {
        let plan = FaultPlan {
            seed: 9,
            ..FaultPlan::default()
        };
        assert_eq!(
            plan.jitter_seed(NodeId(1), NodeId(2)),
            plan.jitter_seed(NodeId(1), NodeId(2))
        );
        assert_ne!(
            plan.jitter_seed(NodeId(1), NodeId(2)),
            plan.jitter_seed(NodeId(2), NodeId(1)),
            "directions get independent jitter streams"
        );
        assert_ne!(plan.disk_seed(NodeId(0)), plan.disk_seed(NodeId(1)));
        let other = FaultPlan {
            seed: 10,
            ..FaultPlan::default()
        };
        assert_ne!(
            plan.jitter_seed(NodeId(1), NodeId(2)),
            other.jitter_seed(NodeId(1), NodeId(2))
        );
    }

    #[test]
    fn edge_streams_are_deterministic_and_independent() {
        let plan = FaultPlan {
            seed: 42,
            drop_p: 0.3,
            dup_p: 0.3,
            ..FaultPlan::default()
        };
        let take =
            |mut s: EdgeFaults| -> Vec<FaultAction> { (0..64).map(|_| s.next_action()).collect() };
        let a1 = take(plan.edge_stream(NodeId(0), NodeId(1)));
        let a2 = take(plan.edge_stream(NodeId(0), NodeId(1)));
        let b = take(plan.edge_stream(NodeId(1), NodeId(0)));
        assert_eq!(a1, a2, "same seed + edge must replay identically");
        assert_ne!(a1, b, "opposite directions get independent streams");
        assert!(a1.contains(&FaultAction::Drop));
        assert!(a1.contains(&FaultAction::Duplicate));
        assert!(a1.contains(&FaultAction::Deliver));
    }

    #[test]
    fn kill_schedule_fires_once_at_threshold() {
        let plan = FaultPlan {
            kills: vec![KillConn {
                from: NodeId(2),
                to: NodeId(5),
                after_frames: 3,
            }],
            ..FaultPlan::default()
        };
        let mut s = plan.edge_stream(NodeId(2), NodeId(5));
        assert!(!s.on_frame_carried());
        assert!(!s.on_frame_carried());
        assert!(s.on_frame_carried(), "fires when the threshold is reached");
        assert!(!s.on_frame_carried(), "fires exactly once");
        let mut other = plan.edge_stream(NodeId(5), NodeId(2));
        for _ in 0..10 {
            assert!(!other.on_frame_carried());
        }
    }

    #[test]
    fn injected_ledger_counts() {
        let led = InjectedFaults::default();
        led.drops.fetch_add(2, Ordering::Relaxed);
        led.crashes.fetch_add(1, Ordering::Relaxed);
        led.kill9s.fetch_add(1, Ordering::Relaxed);
        led.torn_tails.fetch_add(1, Ordering::Relaxed);
        assert_eq!(led.total(), 5);
        assert_eq!(led.snapshot(), (2, 0, 0, 0, 1));
        assert_eq!(led.snapshot_process(), (1, 1, 0));
    }
}
