//! The six cluster workloads: generate the requests, precompute the
//! oracles, spawn the cluster, drive it from at most two generator
//! threads through `ClusterClient`, and check every output.
//!
//! The load generator is a closed loop. It never uses
//! `Cluster::replay_pipelined` / `replay_batched`: those spawn one
//! client thread per active node, which on a small box starves the
//! reactors into spurious retransmits (README, "known cliffs").

use std::path::Path;
use std::time::{Duration, Instant};

use oat::core::agg::SumI64;
use oat::core::fault::FaultPlan;
use oat::core::mechanism::CombineOutcome;
use oat::core::message::MsgKind;
use oat::core::policy::rww::RwwSpec;
use oat::core::request::{ReqOp, Request};
use oat::core::tree::{NodeId, Tree};
use oat::net::{
    Cluster, ClusterClient, DurabilityMode, NetConfig, NodeMetrics, Response, TransportKind,
    WalConfig,
};
use oat::offline::opt_dp::opt_total_cost;
use oat::offline::replay::rww_total_cost;
use oat::sim::{Engine, Schedule};

use crate::gen;
use crate::lane::{Lane, SpanKind};
use crate::metrics::LayerValues;
use crate::proc_stat::ProcSample;
use crate::stats::{
    self, mid_band_mean, quantile_sorted, supported_quantile, tail_band_mean, SLICES,
};
use crate::workload::{Drive, Workload, CLUSTER_NODES, MAX_GENERATORS, REACTOR_THREADS};

/// The frontends of the concurrent workloads, one per generator thread:
/// leaves in opposite subtrees of `kary:31:2`, 8 edges apart through
/// the root.
pub const FRONTENDS: [NodeId; MAX_GENERATORS] = [NodeId(15), NodeId(30)];

/// Requests of a concurrent run the policy's bill and the offline
/// optimum are computed over.
pub const BILLED_PREFIX: usize = 200_000;

/// Retry events per hundred frames sent beyond which a fault-free run
/// is a retransmit storm and fails.
pub const STORM_RETRIES_PER_100_FRAMES: u64 = 1;

/// The overload guard's ledger: what the nodes of a fault-free run
/// retried, against the mechanism frames they sent.
///
/// No fault is ever injected, so a retry means a node sat out its 30 ms
/// RTO: the host stalled, an fsync took that long, or the generator
/// starved the reactors. The first two are isolated (a stall re-sends
/// the frames in flight on one edge: tens per run, one in 10^4 frames or
/// fewer) and land in one slice, which no quartile over slices sees; the
/// run keeps them and prints them. The third is a storm that feeds
/// itself (`oat bench`'s thread-per-node replay re-sends more frames than
/// it sends: README, "known cliffs") and means the run measured the
/// scheduler: past [`STORM_RETRIES_PER_100_FRAMES`] the run fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Retries {
    /// Sequenced frames re-sent.
    pub retransmits: u64,
    /// Retransmission-timer expirations.
    pub rto_timeouts: u64,
    /// Frames the edge sequencer discarded as duplicates.
    pub dup_drops: u64,
    /// Edge connections re-established.
    pub reconnects: u64,
    /// Mechanism frames sent, all kinds.
    pub frames_sent: u64,
}

impl Retries {
    /// Adds another round's ledger to this one.
    pub fn absorb(&mut self, other: Retries) {
        self.retransmits += other.retransmits;
        self.rto_timeouts += other.rto_timeouts;
        self.dup_drops += other.dup_drops;
        self.reconnects += other.reconnects;
        self.frames_sent += other.frames_sent;
    }

    /// Retry events of every kind.
    pub fn events(&self) -> u64 {
        self.retransmits + self.rto_timeouts + self.dup_drops + self.reconnects
    }

    /// What to report if the run was a retransmit storm.
    pub fn storm(&self) -> Option<String> {
        (self.events() * 100 > self.frames_sent * STORM_RETRIES_PER_100_FRAMES).then(|| {
            format!(
                "retransmit storm on a fault-free run: {} retransmits, {} RTO expiries, \
                 {} duplicate drops, {} reconnects against {} frames sent (the generator \
                 starved the reactors; the run measured the scheduler)",
                self.retransmits,
                self.rto_timeouts,
                self.dup_drops,
                self.reconnects,
                self.frames_sent
            )
        })
    }
}

/// A client read that blocks this long is a failed operation, not a hang.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(20);

/// What one cluster run measured.
#[derive(Debug, Default)]
pub struct ClusterOutcome {
    /// Operations attempted (requests plus the final oracle combines).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Oracle violations and I/O problems, human readable.
    pub problems: Vec<String>,
    /// What the nodes retried (the caller sums the rounds and applies
    /// the overload guard to the run).
    pub retries: Retries,
    /// Seconds from the start of the round until every generator
    /// connection has its first response: generation, oracle precompute,
    /// cluster spawn, connects and the cold path of the first request.
    pub setup_s: f64,
    /// Seconds the discarded warm-up (first 10 %) then took. In no
    /// metric: how long a fresh cluster takes to settle into its steady
    /// lease regime is bistable (README, "known cliffs").
    pub warmup_s: f64,
    /// Per-slice requests per second (lanes summed).
    pub req_per_s: Vec<f64>,
    /// Per-slice writes per second.
    pub writes_per_s: Vec<f64>,
    /// Per-slice typical latency, µs: the p50 region, smoothed (see
    /// [`stats::mid_band_mean`]).
    pub lat_mid_us: Vec<f64>,
    /// Per-slice tail latency, µs: the p99 region, smoothed (see
    /// [`stats::tail_band_mean`]).
    pub lat_tail_us: Vec<f64>,
    /// Per-slice mean combine latency, ms.
    pub combine_mean_ms: Vec<f64>,
    /// Per-slice plain percentiles — the p50, the p99 (lowered until
    /// ≥ 10 samples lie beyond it) and the combines' p50 — reported per
    /// layer beside the smoothed figures above, in µs, µs and ms.
    pub plain_p50_us: Vec<f64>,
    /// See `plain_p50_us`.
    pub plain_p99_us: Vec<f64>,
    /// See `plain_p50_us`.
    pub plain_combine_p50_ms: Vec<f64>,
    /// The policy's bill: mechanism messages per request when the
    /// billed requests execute sequentially (simulator; exact). On the
    /// sequential workload the cluster's own count is checked equal.
    pub msgs_per_req: f64,
    /// That bill ÷ the offline optimum for the same requests (exact).
    pub ratio_vs_opt: f64,
    /// Per-layer values (filled on traced runs).
    pub layer: LayerValues,
    /// Client spans of a traced run, for `--spans-out`.
    pub spans: Vec<crate::lane::Span>,
}

/// How one run is set up.
pub struct ClusterRun<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Requests in the run (warm-up included).
    pub count: usize,
    /// Workload seed.
    pub seed: u64,
    /// Record client spans, install `oat_obs`, sample `/proc`.
    pub traced: bool,
    /// Scratch directory (WAL files); must exist.
    pub tmp: &'a Path,
}

/// Sums of the nodes' own counters, read after quiescence.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NodeTotals {
    /// Messages sent, per kind (`MsgKind::ALL` order).
    pub sent_by_kind: [u64; 4],
    /// Probes sent by the frontends themselves.
    pub frontend_probes: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Largest inbox high-water mark.
    pub queue_peak_max: u64,
    /// Sequenced frames re-sent.
    pub retransmits: u64,
    /// Retransmission-timer expirations.
    pub rto_timeouts: u64,
    /// Frames the edge sequencer discarded.
    pub dup_drops: u64,
    /// Edge connections re-established.
    pub reconnects: u64,
    /// Client intake parked by backpressure.
    pub backpressure_stalls: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL fsync batches.
    pub wal_fsyncs: u64,
    /// WAL snapshots written.
    pub wal_snapshots: u64,
}

impl NodeTotals {
    /// Reads every node's counters (call after quiescence) and sums them.
    pub fn read(cluster: &Cluster<SumI64>) -> Result<NodeTotals, String> {
        let mut metrics = Vec::with_capacity(cluster.tree().len());
        for u in cluster.tree().nodes() {
            metrics.push(
                cluster
                    .node_metrics(u)
                    .map_err(|e| format!("metrics of node {}: {e}", u.0))?,
            );
        }
        Ok(NodeTotals::sum(&metrics))
    }

    /// Sums per-node snapshots.
    pub fn sum(metrics: &[NodeMetrics]) -> NodeTotals {
        let mut t = NodeTotals::default();
        for m in metrics {
            for (slot, c) in t.sent_by_kind.iter_mut().zip(m.sent_by_kind) {
                *slot += c;
            }
            if FRONTENDS.iter().any(|f| f.0 == m.node) {
                t.frontend_probes += m.sent_by_kind[MsgKind::Probe.index()];
            }
            t.delivered += m.delivered;
            t.queue_peak_max = t.queue_peak_max.max(m.queue_peak);
            t.retransmits += m.retransmits;
            t.rto_timeouts += m.timeouts;
            t.dup_drops += m.dup_drops;
            t.reconnects += m.reconnects;
            t.backpressure_stalls += m.backpressure_stalls;
            t.wal_records += m.wal_records;
            t.wal_fsyncs += m.wal_fsyncs;
            t.wal_snapshots += m.wal_snapshots;
        }
        t
    }

    /// Messages sent, all kinds.
    pub fn sent_total(&self) -> u64 {
        self.sent_by_kind.iter().sum()
    }

    /// The retry counters, for the overload guard.
    pub fn retries(&self) -> Retries {
        Retries {
            retransmits: self.retransmits,
            rto_timeouts: self.rto_timeouts,
            dup_drops: self.dup_drops,
            reconnects: self.reconnects,
            frames_sent: self.sent_total(),
        }
    }
}

/// Spawns the cluster every workload and micro section measures: RWW,
/// `SumI64`, no faults, [`REACTOR_THREADS`] reactors (fewer when the tree
/// is smaller).
pub fn spawn(
    tree: &Tree,
    transport: TransportKind,
    durability: DurabilityMode,
) -> Result<Cluster<SumI64>, String> {
    let net = NetConfig {
        threads: Some(REACTOR_THREADS),
        transport,
        durability,
        ..NetConfig::default()
    };
    Cluster::spawn_with(tree, SumI64, &RwwSpec, false, FaultPlan::default(), net)
        .map_err(|e| format!("cluster spawn: {e}"))
}

/// The sequential oracle: combine values per request index and the
/// simulator's final per-edge, per-kind counts.
struct SimOracle {
    combines: Vec<Option<i64>>,
    per_edge: Vec<[u64; 4]>,
}

fn sim_oracle(tree: &Tree, seq: &[Request<i64>]) -> Result<SimOracle, String> {
    let mut engine = Engine::new(tree.clone(), SumI64, &RwwSpec, Schedule::Fifo, false);
    let mut combines = Vec::with_capacity(seq.len());
    for q in seq {
        combines.push(match &q.op {
            ReqOp::Write(arg) => {
                engine.initiate_write(q.node, *arg);
                engine.run_to_quiescence();
                None
            }
            ReqOp::Combine => match engine.initiate_combine(q.node) {
                CombineOutcome::Done(v) => Some(v),
                CombineOutcome::Pending => Some(
                    engine
                        .run_to_quiescence()
                        .into_iter()
                        .find(|(n, _)| *n == q.node)
                        .map(|(_, v)| v)
                        .ok_or("simulator: combine did not complete sequentially")?,
                ),
                CombineOutcome::Coalesced => {
                    return Err("simulator: coalesced combine in a sequential run".into())
                }
            },
        });
    }
    Ok(SimOracle {
        combines,
        per_edge: engine.stats().per_edge_counts().to_vec(),
    })
}

/// Sum over nodes of the last value written there (`SumI64`, all nodes
/// start at 0): what a combine must return once the cluster is quiet.
fn final_sum(seq: &[Request<i64>]) -> i64 {
    let mut last = std::collections::BTreeMap::new();
    for q in seq {
        if let ReqOp::Write(v) = &q.op {
            last.insert(q.node, *v);
        }
    }
    last.values().sum()
}

/// Runs one cluster workload once.
pub fn run(cfg: &ClusterRun<'_>) -> Result<ClusterOutcome, String> {
    let wl = cfg.workload;
    let t0 = Instant::now();
    let tree = Tree::kary(CLUSTER_NODES, 2);

    // ---- inputs and oracles (all part of set-up) ----
    let (streams, seq) = match wl.drive {
        Drive::Sequential => (
            Vec::new(),
            oat::workloads::uniform(&tree, cfg.count, wl.write_fraction, cfg.seed),
        ),
        Drive::Query => return Err("query workloads are run by query::run".into()),
        _ => {
            let per_lane = cfg.count / FRONTENDS.len();
            let streams: Vec<Vec<ReqOp<i64>>> = (0..FRONTENDS.len())
                .map(|l| gen::frontend_stream(per_lane, wl.write_fraction, cfg.seed, l as u64))
                .collect();
            let seq = gen::interleave(&FRONTENDS, &streams);
            (streams, seq)
        }
    };
    let requests = seq.len() as u64;
    let want_final = final_sum(&seq);
    // Message counts are only defined for a sequential execution, so the
    // policy's bill and the offline optimum are taken there. A
    // sequential run is billed by the simulator, which is also its
    // oracle. A concurrent run is billed analytically (Lemma 4.5:
    // `rww_total_cost` equals the simulator's count, and unlike the
    // simulator stays linear on read-heavy streams — README, "known
    // cliffs") over a fixed-length prefix of its canonical interleave;
    // what the cluster really sent depends on the interleaving and is
    // reported per layer instead.
    let (sim, billed, bill) = match wl.drive {
        Drive::Sequential => {
            let sim = sim_oracle(&tree, &seq)?;
            let bill = sim.per_edge.iter().flatten().sum();
            (Some(sim), &seq[..], bill)
        }
        _ => {
            let billed = &seq[..seq.len().min(BILLED_PREFIX)];
            (None, billed, rww_total_cost(&tree, billed))
        }
    };
    let opt_cost = opt_total_cost(&tree, billed);

    // ---- cluster ----
    let wal_dir = cfg
        .tmp
        .join(format!("wal-{}-{}", wl.name, std::process::id()));
    let durability = if wl.wal {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let mut wal = WalConfig::new(&wal_dir);
        wal.fsync_every = 8;
        DurabilityMode::Wal(wal)
    } else {
        DurabilityMode::Memory
    };
    let cluster = spawn(&tree, wl.transport, durability)?;
    let connect = |node: NodeId| -> Result<ClusterClient<i64>, String> {
        let mut c = cluster
            .client(node)
            .map_err(|e| format!("connect to node {}: {e}", node.0))?;
        c.set_timeout(Some(RESPONSE_DEADLINE), 0)
            .map_err(|e| format!("arm client deadline: {e}"))?;
        Ok(c)
    };

    if cfg.traced {
        oat_obs::install(oat_obs::DEFAULT_RING_CAPACITY);
    }
    let proc_before = cfg.traced.then(ProcSample::now);

    // ---- drive ----
    let mut lease_hits = None;
    let lanes: Vec<Lane> = match wl.drive {
        Drive::Sequential => {
            let mut clients = Vec::with_capacity(tree.len());
            for u in tree.nodes() {
                clients.push(connect(u)?);
            }
            let mut lane = Lane::new(0, seq.len(), t0, cfg.traced);
            let oracle = sim.as_ref().expect("sequential runs have a sim oracle");
            lease_hits = Some(drive_sequential(
                &cluster,
                &mut clients,
                &seq,
                &oracle.combines,
                &mut lane,
            ));
            vec![lane]
        }
        Drive::Pipelined { .. } | Drive::Batched { .. } => {
            let mut clients = Vec::with_capacity(FRONTENDS.len());
            for f in FRONTENDS {
                clients.push(connect(f)?);
            }
            let drive = wl.drive;
            let traced = cfg.traced;
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .zip(&streams)
                    .enumerate()
                    .map(|(l, (client, ops))| {
                        scope.spawn(move || {
                            let mut lane = Lane::new(l, ops.len(), t0, traced);
                            match drive {
                                Drive::Pipelined { depth } => {
                                    drive_pipelined(client, ops, depth, &mut lane)
                                }
                                Drive::Batched { size } => {
                                    drive_batched(client, ops, size, &mut lane)
                                }
                                _ => unreachable!("concurrent drives only"),
                            }
                            lane
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("generator thread panicked"))
                    .collect()
            })
        }
        Drive::Query => unreachable!("rejected above"),
    };
    // Write acks do not imply the resulting updates have drained.
    cluster.quiesce();
    let proc_after = cfg.traced.then(ProcSample::now);
    let trace = cfg.traced.then(|| {
        oat_obs::disable();
        oat_obs::drain()
    });

    // ---- outputs and oracles ----
    let mut out = ClusterOutcome {
        attempted: requests,
        ..ClusterOutcome::default()
    };
    for lane in &lanes {
        out.failed += lane.failed;
        out.problems.extend(lane.problems.iter().cloned());
    }
    let totals = NodeTotals::read(&cluster)?;
    out.retries = totals.retries();
    if let Some(oracle) = &sim {
        // Per directed edge and per kind, bit for bit.
        let net_stats = cluster.stats().map_err(|e| format!("cluster stats: {e}"))?;
        if net_stats.per_edge_counts() != oracle.per_edge.as_slice() {
            out.problems.push(format!(
                "per-edge message counts differ from the simulator (net {} vs sim {bill} total)",
                net_stats.total()
            ));
        }
    }
    if wl.wal && (totals.wal_records == 0 || totals.wal_fsyncs == 0) {
        out.problems.push(format!(
            "durable run logged wal_records = {}, wal_fsyncs = {} (both must be > 0)",
            totals.wal_records, totals.wal_fsyncs
        ));
    }
    out.msgs_per_req = bill as f64 / billed.len().max(1) as f64;
    out.ratio_vs_opt = bill as f64 / opt_cost.max(1) as f64;
    for f in FRONTENDS {
        out.attempted += 1;
        match connect(f).and_then(|mut c| c.combine().map_err(|e| e.to_string())) {
            Ok(v) if v == want_final => {}
            Ok(v) => {
                out.failed += 1;
                out.problems.push(format!(
                    "quiescent combine at node {} returned {v}, the last writes sum to {want_final}",
                    f.0
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.problems
                    .push(format!("final combine at node {}: {e}", f.0));
            }
        }
    }
    let report = cluster.shutdown();
    if !report.dead_nodes.is_empty() {
        out.problems
            .push(format!("nodes dead at shutdown: {:?}", report.dead_nodes));
    }
    if wl.wal {
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    summarise_slices(&lanes, t0, &mut out)?;
    if let (Some(before), Some(after), Some(trace)) = (proc_before, proc_after, trace) {
        let combines = seq.iter().filter(|q| q.op.is_combine()).count();
        // Sequential runs count combines answered with zero messages
        // exactly. Concurrent combines cannot be attributed messages, so
        // there the hits are combines − probes the frontends sent (a leaf
        // frontend sends one probe per combine its lease does not cover;
        // combines that coalesce onto a pending probe count as hits).
        let hits =
            lease_hits.unwrap_or_else(|| (combines as u64).saturating_sub(totals.frontend_probes));
        out.layer = layer_values(&lanes, &totals, &trace, requests, out.warmup_s);
        for (name, series) in [
            ("net.cluster.lat_p50_us", &out.plain_p50_us),
            ("net.cluster.lat_p99_us", &out.plain_p99_us),
            ("net.cluster.combine_p50_ms", &out.plain_combine_p50_ms),
        ] {
            if let Some(median) = stats::median(series) {
                out.layer.set(name, median);
            }
        }
        out.layer.set(
            "net.node.lease_hit_share",
            hits as f64 / combines.max(1) as f64,
        );
        out.layer.set(
            "proc.cpu_us_per_req",
            after.cpu_us_since(&before) / requests as f64,
        );
        out.layer.set(
            "proc.ctx_switches_per_req",
            after.ctx_switches_since(&before) as f64 / requests as f64,
        );
        out.layer.set("proc.rss_peak_mb", after.rss_peak_mb);
        for lane in &lanes {
            out.spans.extend(lane.spans.iter().flatten().copied());
        }
    }
    Ok(out)
}

/// Set-up and warm-up times, and one value per slice of every timing
/// series (the lanes' k-th slices taken together).
fn summarise_slices(lanes: &[Lane], t0: Instant, out: &mut ClusterOutcome) -> Result<(), String> {
    let (Some(setup_end), Some(warm_end)) = (
        lanes.iter().filter_map(|l| l.first_done).max(),
        lanes.iter().filter_map(|l| l.warm_end).max(),
    ) else {
        return Err(format!(
            "no lane finished its warm-up: {}",
            out.problems.join("; ")
        ));
    };
    out.setup_s = setup_end.duration_since(t0).as_secs_f64();
    out.warmup_s = warm_end.duration_since(setup_end).as_secs_f64();
    for k in 0..SLICES {
        let mut lat: Vec<u64> = Vec::new();
        let mut combine_lat: Vec<u64> = Vec::new();
        let (mut rate, mut write_rate) = (0.0, 0.0);
        for lane in lanes {
            let s = &lane.slices[k];
            let secs = s.dur.as_secs_f64();
            if secs > 0.0 {
                rate += s.lat_ns.len() as f64 / secs;
                write_rate += s.writes as f64 / secs;
            }
            lat.extend(s.lat_ns.iter().map(|&n| u64::from(n)));
            combine_lat.extend(s.combine_lat_ns.iter().map(|&n| u64::from(n)));
        }
        lat.sort_unstable();
        combine_lat.sort_unstable();
        let (Some(mid), Some(tail)) = (mid_band_mean(&lat), tail_band_mean(&lat)) else {
            continue; // a lane died before this slice; already counted as failed
        };
        out.req_per_s.push(rate);
        out.writes_per_s.push(write_rate);
        out.lat_mid_us.push(mid / 1e3);
        out.lat_tail_us.push(tail / 1e3);
        let plain = |sorted: &[u64], q| quantile_sorted(sorted, q).map(|ns| ns as f64);
        out.plain_p50_us.extend(plain(&lat, 0.5).map(|ns| ns / 1e3));
        out.plain_p99_us
            .extend(plain(&lat, supported_quantile(lat.len(), 0.99)).map(|ns| ns / 1e3));
        if let Some(mean) = stats::mean(&combine_lat) {
            out.combine_mean_ms.push(mean / 1e6);
        }
        out.plain_combine_p50_ms
            .extend(plain(&combine_lat, 0.5).map(|ns| ns / 1e6));
    }
    Ok(())
}

/// The per-layer values of a traced round that come from the client
/// spans, the nodes' own counters and the `oat_obs` trace.
fn layer_values(
    lanes: &[Lane],
    totals: &NodeTotals,
    trace: &oat_obs::Trace,
    requests: u64,
    warmup_s: f64,
) -> LayerValues {
    let timed: usize = lanes
        .iter()
        .flat_map(|l| &l.slices)
        .map(|s| s.lat_ns.len())
        .sum();
    let timed = timed.max(1) as f64;
    let per_req = |n: u64| n as f64 / requests as f64;
    let span_ns = |kind| lanes.iter().map(|l| l.timed_span_ns(kind)).sum::<u64>() as f64;
    let mut v = LayerValues::default();
    trace_layer_values(trace, &mut v);
    for (name, value) in [
        (
            "net.cluster.client_submit_ns",
            span_ns(SpanKind::Submit) / timed,
        ),
        (
            "net.cluster.client_wait_us",
            span_ns(SpanKind::Wait) / timed / 1e3,
        ),
        (
            "net.cluster.quiesce_wait_us",
            span_ns(SpanKind::Quiesce) / timed / 1e3,
        ),
        ("net.cluster.warmup_s", warmup_s),
        ("net.node.msgs_per_req", per_req(totals.sent_total())),
        (
            "net.node.probe_per_req",
            per_req(totals.sent_by_kind[MsgKind::Probe.index()]),
        ),
        (
            "net.node.response_per_req",
            per_req(totals.sent_by_kind[MsgKind::Response.index()]),
        ),
        (
            "net.node.update_per_req",
            per_req(totals.sent_by_kind[MsgKind::Update.index()]),
        ),
        (
            "net.node.release_per_req",
            per_req(totals.sent_by_kind[MsgKind::Release.index()]),
        ),
        ("net.node.delivered_per_req", per_req(totals.delivered)),
        ("net.node.queue_peak_max", totals.queue_peak_max as f64),
        ("net.node.retransmits", totals.retransmits as f64),
        ("net.node.rto_timeouts", totals.rto_timeouts as f64),
        ("net.node.dup_drops", totals.dup_drops as f64),
        (
            "net.node.backpressure_stalls",
            totals.backpressure_stalls as f64,
        ),
        ("net.node.reconnects", totals.reconnects as f64),
        (
            "net.durability.wal_records_per_req",
            per_req(totals.wal_records),
        ),
        (
            "net.durability.wal_fsyncs_per_req",
            per_req(totals.wal_fsyncs),
        ),
        ("net.durability.wal_snapshots", totals.wal_snapshots as f64),
    ] {
        v.set(name, value);
    }
    v
}

/// What the `oat_obs` trace says about where a request's time went:
/// the four phases of `phase_breakdown`, edge wire latency, and the
/// share of client requests the breakdown could match.
pub fn trace_layer_values(trace: &oat_obs::Trace, v: &mut LayerValues) {
    let phases = oat_obs::phase_breakdown(&trace.events);
    let wire = oat_obs::wire_latency(&trace.events);
    v.set("net.reactor.poll_p50_us", phases.poll.quantile_us(0.5));
    v.set("net.node.queue_p50_us", phases.queue.quantile_us(0.5));
    v.set("net.node.dispatch_p50_us", phases.dispatch.quantile_us(0.5));
    v.set("net.transport.wire_p50_us", phases.wire.quantile_us(0.5));
    v.set("net.edge.wire_p50_us", wire.hist.quantile_us(0.5));
    v.set(
        "obs.matched_share",
        phases.matched as f64 / phases.requests.max(1) as f64,
    );
}

/// Submits `op` on `client` without waiting; returns its request id.
fn submit(client: &mut ClusterClient<i64>, op: &ReqOp<i64>) -> std::io::Result<u64> {
    match op {
        ReqOp::Combine => client.submit_combine(),
        ReqOp::Write(arg) => client.submit_write(*arg),
    }
}

/// Sequential execution: one request in flight cluster-wide, the
/// network drained to quiescence after each. Returns the number of
/// combines answered without a single message (lease hits).
fn drive_sequential(
    cluster: &Cluster<SumI64>,
    clients: &mut [ClusterClient<i64>],
    seq: &[Request<i64>],
    want: &[Option<i64>],
    lane: &mut Lane,
) -> u64 {
    let mut lease_hits = 0;
    for (i, q) in seq.iter().enumerate() {
        let client = &mut clients[q.node.idx()];
        let msgs_before = cluster.total_messages();
        let submitted = Instant::now();
        let sent = submit(client, &q.op).and_then(|id| client.flush().map(|()| id));
        let flushed = if lane.traced() {
            Instant::now()
        } else {
            submitted
        };
        lane.span(SpanKind::Submit, i, submitted, flushed);
        let got = sent.and_then(|id| client.next_response().map(|(got, resp)| (id, got, resp)));
        let now = Instant::now();
        lane.span(SpanKind::Wait, i, flushed, now);
        match got {
            Ok((id, got, resp)) => {
                let ok = got == id
                    && match (&q.op, &resp) {
                        (ReqOp::Combine, Response::Combine(v)) => Some(*v) == want[i],
                        (ReqOp::Write(_), Response::Write) => true,
                        _ => false,
                    };
                if !ok {
                    lane.fail(|| {
                        format!(
                            "request {i} at node {}: got {resp:?} for id {got}, the simulator says {:?} for id {id}",
                            q.node.0, want[i]
                        )
                    });
                }
            }
            Err(e) => {
                lane.abandon(seq.len(), format!("request {i} at node {}: {e}", q.node.0));
                return lease_hits;
            }
        }
        lane.complete(now, submitted, q.op.is_combine());
        cluster.quiesce();
        if lane.traced() {
            lane.span(SpanKind::Quiesce, i, now, Instant::now());
        }
        if q.op.is_combine() && cluster.total_messages() == msgs_before {
            lease_hits += 1;
        }
    }
    lease_hits
}

/// A request in flight: submitted, not yet answered.
#[derive(Clone, Copy)]
struct InFlight {
    id: u64,
    submitted: Instant,
    is_combine: bool,
}

/// Removes and returns the entry for `id` from the requests in flight
/// on one connection; `None` if `id` was never asked for or was already
/// answered. Responses come back in any order (a write is acked while
/// an earlier combine still waits on the tree), so the ids outstanding
/// are not a contiguous range; there are at most a batch of them, which
/// a linear scan handles.
fn take(window: &mut Vec<InFlight>, id: u64) -> Option<InFlight> {
    let at = window.iter().position(|e| e.id == id)?;
    Some(window.swap_remove(at))
}

/// Checks a response against the operation it answers and records the
/// completion.
fn settle(
    window: &mut Vec<InFlight>,
    lane: &mut Lane,
    now: Instant,
    id: u64,
    resp: &Response<i64>,
) {
    match take(window, id) {
        Some(e) => {
            let kind_ok = matches!(
                (e.is_combine, resp),
                (true, Response::Combine(_)) | (false, Response::Write)
            );
            if !kind_ok {
                lane.fail(|| format!("request id {id}: wrong response kind {resp:?}"));
            }
            lane.complete(now, e.submitted, e.is_combine);
        }
        None => lane.fail(|| format!("response for id {id}, which is not outstanding")),
    }
}

/// Closed loop keeping `depth` requests in flight on one connection.
fn drive_pipelined(
    client: &mut ClusterClient<i64>,
    ops: &[ReqOp<i64>],
    depth: usize,
    lane: &mut Lane,
) {
    let mut window = Vec::with_capacity(depth);
    let mut next = 0;
    loop {
        let fill_start = Instant::now();
        let first = next;
        let mut sent = Ok(());
        while window.len() < depth && next < ops.len() && sent.is_ok() {
            let submitted = Instant::now();
            match submit(client, &ops[next]) {
                Ok(id) => window.push(InFlight {
                    id,
                    submitted,
                    is_combine: ops[next].is_combine(),
                }),
                Err(e) => sent = Err(e),
            }
            next += 1;
        }
        if window.is_empty() && sent.is_ok() {
            return;
        }
        let sent = sent.and_then(|()| client.flush());
        let wait_start = if lane.traced() && next > first {
            let t = Instant::now();
            lane.span(SpanKind::Submit, first, fill_start, t);
            t
        } else {
            fill_start
        };
        match sent.and_then(|()| client.next_response()) {
            Ok((id, resp)) => {
                let now = Instant::now();
                lane.span(SpanKind::Wait, lane.done(), wait_start, now);
                settle(&mut window, lane, now, id, &resp);
            }
            Err(e) => {
                lane.abandon(ops.len(), format!("pipelined lane: {e}"));
                return;
            }
        }
    }
}

/// Closed loop sending `REQ_BATCH` frames of `size` requests, one batch
/// in flight; every member's latency runs from the batch's submit.
fn drive_batched(
    client: &mut ClusterClient<i64>,
    ops: &[ReqOp<i64>],
    size: usize,
    lane: &mut Lane,
) {
    let mut window = Vec::with_capacity(size);
    for (b, chunk) in ops.chunks(size).enumerate() {
        let submitted = Instant::now();
        let ids = client
            .submit_batch(chunk)
            .and_then(|ids| client.flush().map(|()| ids));
        let mut wait_start = if lane.traced() {
            Instant::now()
        } else {
            submitted
        };
        lane.span(SpanKind::Submit, b * size, submitted, wait_start);
        let ids = match ids {
            Ok(ids) => ids,
            Err(e) => {
                lane.abandon(ops.len(), format!("batched lane: {e}"));
                return;
            }
        };
        for (id, op) in ids.into_iter().zip(chunk) {
            window.push(InFlight {
                id,
                submitted,
                is_combine: op.is_combine(),
            });
        }
        while !window.is_empty() {
            match client.next_response() {
                Ok((id, resp)) => {
                    let now = Instant::now();
                    lane.span(SpanKind::Wait, lane.done(), wait_start, now);
                    wait_start = now;
                    settle(&mut window, lane, now, id, &resp);
                }
                Err(e) => {
                    lane.abandon(ops.len(), format!("batched lane: {e}"));
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(node: u32) -> NodeMetrics {
        NodeMetrics {
            node,
            sent_by_kind: [1, 2, 3, 4],
            delivered: 10,
            edges: Vec::new(),
            leases_taken: 0,
            leases_granted: 0,
            queue_depth: 0,
            queue_peak: u64::from(node),
            pending_combines: 0,
            combines_served: 0,
            reconnects: 0,
            retransmits: 0,
            dup_drops: 0,
            timeouts: 0,
            restarts: 0,
            backpressure_stalls: 0,
            kill9s: 0,
            wal_records: 5,
            wal_fsyncs: 1,
            wal_replays: 0,
            wal_torn_bytes: 0,
            wal_snapshots: 0,
        }
    }

    #[test]
    fn totals_sum_nodes_and_single_out_the_frontends() {
        let t = NodeTotals::sum(&[metrics(0), metrics(15), metrics(30)]);
        assert_eq!(t.sent_by_kind, [3, 6, 9, 12]);
        assert_eq!(t.sent_total(), 30);
        assert_eq!(t.frontend_probes, 2);
        assert_eq!((t.delivered, t.queue_peak_max), (30, 30));
        assert_eq!((t.wal_records, t.wal_fsyncs), (15, 3));
        assert_eq!(t.retries().events(), 0);
        assert_eq!(t.retries().frames_sent, 30);
        assert_eq!(t.retries().storm(), None);
    }

    /// The overload guard: a host stall's handful of re-sent frames is
    /// kept and printed; a storm that feeds itself fails the run. That
    /// is what starved reactors look like from outside (README, "known
    /// cliffs"), and no fault is ever injected here.
    #[test]
    fn a_retransmit_storm_fails_a_run_and_an_isolated_stall_does_not() {
        // One 30 ms stall in a `pipe-mixed` run: the frames in flight on
        // one edge, re-sent once, and their duplicates dropped.
        let mut stalled = metrics(3);
        stalled.sent_by_kind = [100_000, 100_000, 200_000, 40_000];
        stalled.retransmits = 16;
        stalled.timeouts = 2;
        stalled.dup_drops = 16;
        let isolated = NodeTotals::sum(&[metrics(0), stalled]).retries();
        assert_eq!(isolated.events(), 34);
        assert_eq!(isolated.storm(), None);

        // `oat bench --workload uniform:0.5:20000` on 31 client threads:
        // tens of thousands of retransmits against 140k frames.
        let mut storm = metrics(3);
        storm.sent_by_kind = [40_000, 40_000, 50_000, 10_000];
        storm.retransmits = 41_000;
        storm.timeouts = 9_000;
        let storm = NodeTotals::sum(&[metrics(0), storm]).retries();
        let why = storm.storm().expect("a storm is reported");
        assert!(
            why.contains("41000 retransmits, 9000 RTO expiries"),
            "{why}"
        );

        // Rounds add up before the guard is applied, so the threshold is
        // a share of the run, and every counter counts.
        let mut run = Retries::default();
        run.absorb(isolated);
        run.absorb(isolated);
        assert_eq!((run.events(), run.frames_sent), (68, 880_020));
        for field in 0..4 {
            let mut r = Retries {
                frames_sent: 1_000,
                ..Retries::default()
            };
            *[
                &mut r.retransmits,
                &mut r.rto_timeouts,
                &mut r.dup_drops,
                &mut r.reconnects,
            ][field] = 11;
            assert!(r.storm().is_some(), "{r:?}");
        }
    }

    #[test]
    fn in_flight_ids_match_in_any_order_and_strangers_are_rejected() {
        let now = Instant::now();
        let mut w: Vec<InFlight> = (1..=8)
            .map(|id| InFlight {
                id,
                submitted: now,
                is_combine: id % 2 == 0,
            })
            .collect();
        assert!(take(&mut w, 3).is_some());
        assert!(take(&mut w, 3).is_none(), "answered twice");
        assert!(take(&mut w, 11).is_none(), "never asked for");
        // Out-of-order answers leave a gap; a far later id still fits.
        w.push(InFlight {
            id: 17,
            submitted: now,
            is_combine: true,
        });
        assert!(take(&mut w, 17).is_some_and(|e| e.is_combine));
        assert_eq!(w.len(), 7);
    }

    #[test]
    fn final_sum_takes_the_last_write_per_node() {
        let seq = vec![
            Request::write(NodeId(15), 5),
            Request::combine(NodeId(30)),
            Request::write(NodeId(30), -2),
            Request::write(NodeId(15), 7),
        ];
        assert_eq!(final_sum(&seq), 5);
        assert_eq!(final_sum(&[Request::combine(NodeId(0))]), 0);
    }

    #[test]
    fn sim_oracle_answers_every_combine() {
        let tree = Tree::kary(7, 2);
        let seq = oat::workloads::uniform(&tree, 200, 0.5, 42);
        let oracle = sim_oracle(&tree, &seq).unwrap();
        for (q, want) in seq.iter().zip(&oracle.combines) {
            assert_eq!(q.op.is_combine(), want.is_some());
        }
        assert_eq!(oracle.per_edge.len(), tree.num_dir_edges());
    }
}
