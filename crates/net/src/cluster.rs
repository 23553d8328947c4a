//! The cluster harness and its blocking client.
//!
//! [`Cluster::spawn`] binds one listener per tree node on the
//! configured transport (loopback TCP, Unix-domain sockets, or
//! in-process SPSC rings — see [`TransportKind`]), starts a fixed pool
//! of reactor threads (default `min(cores, 4)`; see [`NetConfig`])
//! that own contiguous blocks of a depth-first preorder of the tree
//! (connected subtrees; `crate::placement`), waits until every tree
//! edge has a live connection, and returns a handle that can mint
//! [`ClusterClient`]s, wait for quiescence, collect metrics, and shut
//! the whole thing down gracefully.
//!
//! ## Shutdown protocol
//!
//! 1. wait for quiescence (no mechanism message in flight),
//! 2. raise the cluster-wide `shutting_down` flag,
//! 3. wake every reactor through its waker socketpair — each reactor
//!    observes the flag at the top of its loop, flushes every write
//!    queue one final time, and returns its nodes' final reports,
//! 4. join the reactor threads and merge the reports.
//!
//! Client connections still open simply see EOF on their next read.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oat_core::agg::AggOp;
use oat_core::fault::{FaultPlan, InjectedFaults};
use oat_core::ghost::GhostReq;
use oat_core::message::MsgKind;
use oat_core::policy::PolicySpec;
use oat_core::request::{ReqOp, Request};
use oat_core::tree::{NodeId, Tree};
use oat_core::wire::{put_u32, put_u64, WireError, WireReader, WireValue};
use oat_obs::Json;
use oat_sim::MsgStats;

use crate::core::{FaultCounters, NodeReport, RTX_DEFAULT_HIGH, RTX_DEFAULT_LOW};
use crate::durability::{WalCounters, WalDurability};
use crate::frame::{
    decode_batch, encode_batch, encode_request, write_frame, FrameDecoder, TAG_HELLO_CLIENT,
    TAG_PARTIAL, TAG_REQ_BATCH, TAG_REQ_METRICS, TAG_RESP_BATCH, TAG_RESP_COMBINE,
    TAG_RESP_METRICS, TAG_RESP_WRITE, TAG_SUB,
};
use crate::metrics::NodeMetrics;
use crate::placement::place;
use crate::reactor::{reactor_main, waker_pair, InFlight, NodeSeed, ReactorCfg, Waker};
use crate::transport::{ring_listen, ClientStream, Listener, NodeAddr, TransportKind, UdsDir};

/// How long [`Cluster::shutdown`] waits for a reactor thread to exit
/// before declaring its nodes dead and abandoning the join (the thread
/// is leaked — a diagnosis aid, not a resource policy; the process is
/// ending anyway).
const JOIN_DEADLINE: Duration = Duration::from_secs(10);

/// Transport tuning knobs for [`Cluster::spawn_with`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Reactor threads serving the cluster. `None` (the default) uses
    /// `min(available cores, 4)`; any value is clamped to `[1, nodes]`.
    pub threads: Option<usize>,
    /// Backpressure high watermark: a node whose edge retransmit buffer
    /// reaches this many frames stops reading its client connections.
    pub rtx_high: usize,
    /// Backpressure low watermark: a stalled node resumes client intake
    /// once every edge's retransmit buffer is at or below this.
    pub rtx_low: usize,
    /// Durability backend for node state (default: in-memory).
    pub durability: DurabilityMode,
    /// Connection transport for edges and clients (default: TCP).
    /// Framing, sequencing, retransmit, and fault injection are
    /// identical across transports — only the byte substrate differs.
    pub transport: TransportKind,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            threads: None,
            rtx_high: RTX_DEFAULT_HIGH,
            rtx_low: RTX_DEFAULT_LOW,
            durability: DurabilityMode::Memory,
            transport: TransportKind::Tcp,
        }
    }
}

/// Which durability backend the cluster's nodes escrow state into.
#[derive(Clone, Debug, Default)]
pub enum DurabilityMode {
    /// In-memory escrow: survives automaton crash-restarts, not process
    /// kills. Exactly the pre-WAL behavior — the default, and the mode
    /// the simulator-parity tests run under.
    #[default]
    Memory,
    /// Write-ahead log + snapshots on disk; survives `kill9` process
    /// kills and supports cold-starting a cluster over existing logs.
    Wal(WalConfig),
}

/// Configuration of the write-ahead-log backend.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding one `node-N` subdirectory per node.
    pub dir: PathBuf,
    /// Group-commit batch: fsync after this many appended records.
    /// Write and epoch records always force an immediate sync (the
    /// write-ack durability contract). `1` = sync every record.
    pub fsync_every: u64,
    /// Fold the log into a snapshot (and truncate it) after this many
    /// records.
    pub snapshot_every: u64,
}

impl WalConfig {
    /// WAL under `dir` with default batching (fsync every 8 records,
    /// snapshot every 4096).
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            fsync_every: 8,
            snapshot_every: 4096,
        }
    }
}

/// What a reactor thread returns at shutdown: the final report of every
/// node in its shard.
type ShardHandle<V> = JoinHandle<Vec<(NodeId, NodeReport<V>)>>;

/// A running cluster: a reactor pool serving one listener per node
/// over the configured transport.
pub struct Cluster<A: AggOp> {
    tree: Tree,
    addrs: Vec<NodeAddr>,
    wakers: Vec<Waker>,
    /// The reactor owning each node, indexed by node id; reactors are
    /// indexed like `handles`.
    placement: Vec<usize>,
    in_flight: Arc<InFlight>,
    total_sent: Arc<AtomicU64>,
    shutting_down: Arc<AtomicBool>,
    handles: Vec<ShardHandle<A::Value>>,
    policy_name: String,
    ledger: Arc<InjectedFaults>,
    threads_spawned: usize,
    /// Keeps the UDS socket directory alive (and removed on drop).
    _uds_dir: Option<UdsDir>,
}

/// Final state of a cluster after [`Cluster::shutdown`].
pub struct ClusterReport<V> {
    /// Merged per-directed-edge, per-kind message counters — directly
    /// comparable with [`oat_sim::Engine::stats`].
    pub stats: MsgStats,
    /// `(node, value)` for every answered combine, grouped by node.
    pub combines: Vec<(NodeId, V)>,
    /// Per-node ghost logs when ghost tracking was enabled.
    pub logs: Option<Vec<Vec<GhostReq<V>>>>,
    /// Network messages delivered across all nodes.
    pub delivered: u64,
    /// Nodes whose reactor did not exit within the join deadline (or
    /// panicked); their counters are missing from the other fields.
    pub dead_nodes: Vec<NodeId>,
    /// Combine waiters abandoned at shutdown across all nodes (clients
    /// that gave up under faults).
    pub abandoned: u64,
    /// Fault-recovery counters summed over all nodes.
    pub faults: FaultCounters,
    /// Durability-backend counters summed over all nodes (all zero with
    /// the Memory backend).
    pub wal: WalCounters,
    /// OS threads the cluster ran: the reactor pool size. Grows with
    /// the configured pool, *not* with the node count.
    pub threads_spawned: usize,
    /// Acks summed over all nodes that no queued frame carried: each
    /// one a write of its own.
    pub standalone_acks: u64,
}

/// Result of [`Cluster::replay_sequential`] — the TCP analogue of
/// [`oat_sim::sequential::SeqChunk`].
pub struct NetSeqChunk<V> {
    /// `(request index, returned value)` for every combine, in order.
    pub combines: Vec<(usize, V)>,
    /// Mechanism messages sent while executing each request.
    pub per_request_msgs: Vec<u64>,
    /// Wall-clock latency of each request: submit → response received
    /// (the quiescence wait between requests is *not* included).
    pub latencies: Vec<Duration>,
}

impl<V> NetSeqChunk<V> {
    /// Total messages over the whole sequence — the paper's `C_A(σ)`.
    pub fn total_msgs(&self) -> u64 {
        self.per_request_msgs.iter().sum()
    }
}

/// Result of [`Cluster::replay_pipelined`] — the concurrent,
/// pipeline-depth-N counterpart of [`NetSeqChunk`]. Requests overlap,
/// so there is no per-request message attribution; combine values are
/// only comparable to the sequential oracle when the workload phase
/// structure makes them deterministic (e.g. no writes concurrent with
/// the combines).
pub struct PipelinedChunk<V> {
    /// `(request index, returned value)` for every combine, sorted by
    /// request index.
    pub combines: Vec<(usize, V)>,
    /// Wall-clock latency of each request (submit → response), indexed
    /// like the input sequence.
    pub latencies: Vec<Duration>,
    /// Wall time of the whole replay (all clients, first submit to last
    /// response).
    pub elapsed: Duration,
}

impl<A: AggOp> Cluster<A>
where
    A::Value: WireValue,
{
    /// Boots an `n`-node cluster for `tree` on loopback over a reliable
    /// substrate (no injected faults).
    ///
    /// Binds every listener first (so dial order cannot race), starts
    /// the reactor pool, and returns once every tree edge has a live
    /// TCP connection.
    pub fn spawn<S: PolicySpec>(tree: &Tree, op: A, spec: &S, ghost: bool) -> io::Result<Self>
    where
        S::Node: 'static,
    {
        Self::spawn_with(
            tree,
            op,
            spec,
            ghost,
            FaultPlan::default(),
            NetConfig::default(),
        )
    }

    /// Boots a cluster whose transport is subjected to `plan`: seeded
    /// drop/duplicate/delay decisions per directed edge, scheduled
    /// connection kills, and scheduled node crashes. An empty plan is
    /// exactly [`Cluster::spawn`] — the fault machinery stays disarmed
    /// and costs nothing per frame.
    pub fn spawn_with_faults<S: PolicySpec>(
        tree: &Tree,
        op: A,
        spec: &S,
        ghost: bool,
        plan: FaultPlan,
    ) -> io::Result<Self>
    where
        S::Node: 'static,
    {
        Self::spawn_with(tree, op, spec, ghost, plan, NetConfig::default())
    }

    /// Boots a cluster with explicit transport tuning: reactor pool
    /// size and backpressure watermarks (see [`NetConfig`]).
    pub fn spawn_with<S: PolicySpec>(
        tree: &Tree,
        op: A,
        spec: &S,
        ghost: bool,
        plan: FaultPlan,
        cfg: NetConfig,
    ) -> io::Result<Self>
    where
        S::Node: 'static,
    {
        let n = tree.len();
        if !plan.kill9s.is_empty() && matches!(cfg.durability, DurabilityMode::Memory) {
            // A kill9 destroys the in-memory escrow — with nothing on
            // disk the node could never rejoin. Refuse early instead of
            // wedging the cluster mid-run.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "kill9 faults require the Wal durability backend (NetConfig::durability)",
            ));
        }
        let uds_dir = match cfg.transport {
            TransportKind::Uds => Some(UdsDir::new()?),
            _ => None,
        };
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for i in 0..n {
            match cfg.transport {
                TransportKind::Tcp => {
                    let listener = TcpListener::bind("127.0.0.1:0")?;
                    listener.set_nonblocking(true)?;
                    addrs.push(NodeAddr::Tcp(listener.local_addr()?));
                    listeners.push(Listener::Tcp(listener));
                }
                TransportKind::Uds => {
                    let path = uds_dir.as_ref().expect("uds dir").sock_path(i);
                    let listener = UnixListener::bind(&path)?;
                    listener.set_nonblocking(true)?;
                    addrs.push(NodeAddr::Uds(path));
                    listeners.push(Listener::Uds(listener));
                }
                TransportKind::Ring => {
                    let listener = ring_listen()?;
                    addrs.push(NodeAddr::Ring(listener.id()));
                    listeners.push(Listener::Ring(listener));
                }
            }
        }

        let pool = cfg
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
                    .min(4)
            })
            .clamp(1, n.max(1));
        let rtx_high = cfg.rtx_high.max(1);
        let rtx_low = cfg.rtx_low.min(rtx_high);

        let in_flight = Arc::new(InFlight::new());
        let total_sent = Arc::new(AtomicU64::new(0));
        let shutting_down = Arc::new(AtomicBool::new(false));
        let plan = Arc::new(plan);
        let ledger = Arc::new(InjectedFaults::default());
        let (ready_tx, ready_rx) = channel();

        let placement = place(tree, pool);
        let mut shard_seeds: Vec<Vec<NodeSeed>> = (0..pool).map(|_| Vec::new()).collect();
        for (u, listener) in tree.nodes().zip(listeners) {
            // Logs open on the main thread, where an unwritable WAL
            // directory can still fail the spawn with a real error.
            let wal = match &cfg.durability {
                DurabilityMode::Memory => None,
                DurabilityMode::Wal(wal) => Some(WalDurability::open(
                    &wal.dir.join(format!("node-{}", u.0)),
                    u,
                    wal.fsync_every,
                    wal.snapshot_every,
                    &plan,
                    Arc::clone(&ledger),
                )?),
            };
            shard_seeds[placement[u.idx()]].push(NodeSeed {
                id: u,
                listener,
                wal,
            });
        }

        let mut wakers = Vec::with_capacity(pool);
        let mut handles = Vec::with_capacity(pool);
        for (shard, seeds) in shard_seeds.into_iter().enumerate() {
            let (waker, waker_rx) = waker_pair()?;
            let rcfg = ReactorCfg {
                shard: shard as u32,
                shard_nodes: seeds,
                tree: tree.clone(),
                addrs: addrs.clone(),
                op: op.clone(),
                // Reactors get the spec, not a built policy: every
                // crash-restart rebuilds a fresh policy state.
                spec: spec.clone(),
                ghost,
                in_flight: Arc::clone(&in_flight),
                total_sent: Arc::clone(&total_sent),
                shutting_down: Arc::clone(&shutting_down),
                plan: Arc::clone(&plan),
                ledger: Arc::clone(&ledger),
                ready_tx: ready_tx.clone(),
                waker_rx,
                rtx_high,
                rtx_low,
            };
            handles.push(std::thread::spawn(move || reactor_main::<S, A>(rcfg)));
            wakers.push(waker);
        }
        drop(ready_tx);

        // Every node signals once all of its edge connections are up.
        for _ in 0..n {
            ready_rx.recv().map_err(|_| {
                io::Error::new(io::ErrorKind::ConnectionAborted, "node died during setup")
            })?;
        }

        Ok(Cluster {
            tree: tree.clone(),
            addrs,
            wakers,
            placement,
            in_flight,
            total_sent,
            shutting_down,
            handles,
            policy_name: spec.name(),
            ledger,
            threads_spawned: pool,
            _uds_dir: uds_dir,
        })
    }

    /// Opens a client connection to `node`.
    pub fn client(&self, node: NodeId) -> io::Result<ClusterClient<A::Value>> {
        ClusterClient::connect(self.addrs[node.idx()].clone(), node)
    }

    /// Fetches one node's metrics snapshot over the cluster transport.
    pub fn node_metrics(&self, node: NodeId) -> io::Result<NodeMetrics> {
        self.client(node)?.metrics()
    }

    /// Merged message counters, assembled from per-node TCP metrics.
    /// After [`Cluster::quiesce`], comparable 1:1 with the simulator's
    /// [`oat_sim::Engine::stats`] on the same workload.
    pub fn stats(&self) -> io::Result<MsgStats> {
        let mut stats = MsgStats::new(&self.tree);
        for u in self.tree.nodes() {
            let m = self.node_metrics(u)?;
            for (to, counts) in m.edges {
                let edge = self.tree.dir_edge_index(u, NodeId(to));
                for (kind, count) in MsgKind::ALL.iter().zip(counts) {
                    stats.add(edge, *kind, count);
                }
            }
        }
        Ok(stats)
    }

    /// The `stats` document of the merged counters, pretty-printed: the
    /// [`MsgStats::to_json`] shape a simulator run gives too.
    pub fn stats_json(&self) -> io::Result<String> {
        Ok(self.stats()?.to_json(&self.tree).to_pretty())
    }

    /// Every node's metrics document, in node order, as one
    /// pretty-printed array.
    pub fn metrics_json(&self) -> io::Result<String> {
        let nodes = self
            .tree
            .nodes()
            .map(|u| Ok(self.node_metrics(u)?.to_json()));
        Ok(Json::Arr(nodes.collect::<io::Result<_>>()?).to_pretty())
    }

    /// Replays `seq` as a sequential execution: each request is sent to
    /// its node over TCP, awaited, and the network drained to quiescence
    /// before the next — the setting in which the paper's (and the
    /// simulator's) message counts are defined.
    pub fn replay_sequential(
        &self,
        seq: &[Request<A::Value>],
    ) -> io::Result<NetSeqChunk<A::Value>> {
        let mut clients: Vec<Option<ClusterClient<A::Value>>> =
            (0..self.tree.len()).map(|_| None).collect();
        let mut combines = Vec::new();
        let mut per_request_msgs = Vec::with_capacity(seq.len());
        let mut latencies = Vec::with_capacity(seq.len());
        for (i, q) in seq.iter().enumerate() {
            let before = self.total_messages();
            let slot = &mut clients[q.node.idx()];
            let client = match slot {
                Some(c) => c,
                None => slot.insert(self.client(q.node)?),
            };
            let start = Instant::now();
            match &q.op {
                ReqOp::Combine => combines.push((i, client.combine()?)),
                ReqOp::Write(arg) => client.write(arg.clone())?,
            }
            latencies.push(start.elapsed());
            self.quiesce();
            per_request_msgs.push(self.total_messages() - before);
        }
        Ok(NetSeqChunk {
            combines,
            per_request_msgs,
            latencies,
        })
    }

    /// Replays `seq` with client-side pipelining: one client per node
    /// that appears in the sequence, each keeping up to `depth` requests
    /// in flight on its connection, all clients running concurrently.
    ///
    /// Per-node request order is preserved (each node's subsequence is
    /// submitted FIFO on one connection); cross-node order — which the
    /// network model leaves free anyway — is abandoned, and nothing
    /// quiesces between requests. This is the throughput mode: wall
    /// clock scales with pipeline depth instead of per-request
    /// round-trips. Call [`Cluster::quiesce`] afterwards before reading
    /// message counters — write responses do not imply the resulting
    /// updates have drained.
    pub fn replay_pipelined(
        &self,
        seq: &[Request<A::Value>],
        depth: usize,
    ) -> io::Result<PipelinedChunk<A::Value>>
    where
        A::Value: Send,
    {
        self.replay_pipelined_multi(seq, depth, 1)
    }

    /// [`Cluster::replay_pipelined`] with `clients` concurrent
    /// connections per node: each node's subsequence is dealt
    /// round-robin across its clients, every client keeping up to
    /// `depth` requests in flight. With `clients > 1` even per-node
    /// submission order is abandoned (each client's share is FIFO on
    /// its own connection); this is the contention mode for measuring
    /// how a node serves many independent frontends.
    pub fn replay_pipelined_multi(
        &self,
        seq: &[Request<A::Value>],
        depth: usize,
        clients: usize,
    ) -> io::Result<PipelinedChunk<A::Value>>
    where
        A::Value: Send,
    {
        let depth = depth.max(1);
        let clients = clients.max(1);
        let mut by_client: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); clients]; self.tree.len()];
        let mut counts = vec![0usize; self.tree.len()];
        for (i, q) in seq.iter().enumerate() {
            let u = q.node.idx();
            by_client[u][counts[u] % clients].push(i);
            counts[u] += 1;
        }
        let start = Instant::now();
        let mut results: Vec<io::Result<PerClientResults<A::Value>>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (node_idx, shares) in by_client.iter().enumerate() {
                for indices in shares {
                    if indices.is_empty() {
                        continue;
                    }
                    let node = NodeId(node_idx as u32);
                    let addr = self.addrs[node_idx].clone();
                    handles.push(scope.spawn(move || {
                        let mut client = ClusterClient::<A::Value>::connect(addr, node)?;
                        client.run_window(seq, indices, depth)
                    }));
                }
            }
            for h in handles {
                results.push(h.join().expect("pipelined client thread panicked"));
            }
        });
        let elapsed = start.elapsed();
        let mut combines = Vec::new();
        let mut latencies = vec![Duration::ZERO; seq.len()];
        for r in results {
            let r = r?;
            combines.extend(r.combines);
            for (i, d) in r.latencies {
                latencies[i] = d;
            }
        }
        combines.sort_by_key(|&(i, _)| i);
        Ok(PipelinedChunk {
            combines,
            latencies,
            elapsed,
        })
    }

    /// Graceful shutdown; returns the merged final state. Never hangs:
    /// reactor threads that fail to exit within the join deadline have
    /// their nodes reported in [`ClusterReport::dead_nodes`] instead.
    pub fn shutdown(mut self) -> ClusterReport<A::Value> {
        self.shutdown_inner().expect("shutdown on a live cluster")
    }
}

// Methods that need no wire-codec bound (notably everything Drop uses).
impl<A: AggOp> Cluster<A> {
    /// The tree this cluster serves.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The policy the nodes run.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Listener addresses, indexed by node id.
    pub fn addrs(&self) -> &[NodeAddr] {
        &self.addrs
    }

    /// OS threads serving this cluster: the reactor pool size.
    pub fn threads_spawned(&self) -> usize {
        self.threads_spawned
    }

    /// The reactor thread (`0..threads_spawned()`) that owns `node`.
    pub fn reactor_of(&self, node: NodeId) -> usize {
        self.placement[node.idx()]
    }

    /// Mechanism messages sent cluster-wide so far.
    ///
    /// Relaxed load: the count is only meaningful after
    /// [`Cluster::quiesce`]. Every step that sends a message performs a
    /// SeqCst read-modify-write on `in_flight` after its (relaxed)
    /// `total_sent` increment — even a forwarding step, whose charge for
    /// the frames it sends and settle for the frame it delivered cancel
    /// to zero. Every write to `in_flight` is such an RMW, so the
    /// quiescing read that sees zero synchronizes with all of them, and
    /// every increment is visible here by then. Between quiescent points
    /// the value is a monotone lower bound — fine for progress display,
    /// not for exact windows.
    pub fn total_messages(&self) -> u64 {
        self.total_sent.load(Ordering::Relaxed)
    }

    /// Blocks until every edge frame sent has been delivered and handled:
    /// no mechanism message is queued, on the wire or being handled.
    /// Acks do not count; one may still be owed when this returns.
    ///
    /// Meaningful when no client request is concurrently outstanding —
    /// the sequential-execution contract of the paper (and of
    /// [`Cluster::replay_sequential`]).
    ///
    /// `in_flight` stays SeqCst on both sides: it is the cluster's one
    /// true synchronizer — the acquire edge its zero-read provides is
    /// what licenses the relaxed ordering on `total_sent`. The wait
    /// itself is event-driven: reactors notify a condvar when the count
    /// hits zero, so this parks instead of spinning (see
    /// `crate::reactor::InFlight`).
    pub fn quiesce(&self) {
        self.in_flight.wait_zero(None);
    }

    /// Bounded [`Cluster::quiesce`]: waits up to `deadline`, returning
    /// whether the cluster actually drained. Use instead of `quiesce`
    /// whenever a node might be wedged (shutdown does).
    pub fn quiesce_for(&self, deadline: Duration) -> bool {
        self.in_flight.wait_zero(Some(Instant::now() + deadline))
    }

    /// The cluster-wide ledger of injected fault events (all zero when
    /// the cluster was spawned without a fault plan).
    pub fn injected(&self) -> &InjectedFaults {
        &self.ledger
    }

    fn shutdown_inner(&mut self) -> Option<ClusterReport<A::Value>> {
        if self.handles.is_empty() {
            return None;
        }
        // Bounded: a wedged node must not turn shutdown (or Drop) into
        // a hang — it gets reported as dead below instead.
        self.quiesce_for(JOIN_DEADLINE);
        self.shutting_down.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        let mut stats = MsgStats::new(&self.tree);
        let mut combines = Vec::new();
        let mut logs: Vec<(NodeId, Vec<GhostReq<A::Value>>)> = Vec::new();
        let mut delivered = 0;
        let mut have_logs = true;
        let mut dead_nodes = Vec::new();
        let mut abandoned = 0;
        let mut faults = FaultCounters::default();
        let mut wal = WalCounters::default();
        let mut standalone_acks = 0;
        let deadline = Instant::now() + JOIN_DEADLINE;
        for (shard, handle) in self.handles.drain(..).enumerate() {
            let shard_nodes = self
                .tree
                .nodes()
                .filter(|u| self.placement[u.idx()] == shard);
            // JoinHandle has no timed join; poll `is_finished` against
            // the deadline and leak the thread if it never exits — a
            // dead reactor must not turn shutdown into a hang.
            while !handle.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if !handle.is_finished() {
                dead_nodes.extend(shard_nodes);
                continue;
            }
            match handle.join() {
                Ok(reports) => {
                    for (u, report) in reports {
                        stats.merge(&report.stats);
                        combines.extend(report.completions);
                        delivered += report.delivered;
                        abandoned += report.abandoned;
                        faults.reconnects += report.faults.reconnects;
                        faults.retransmits += report.faults.retransmits;
                        faults.restarts += report.faults.restarts;
                        faults.kill9s += report.faults.kill9s;
                        wal.merge(&report.wal);
                        standalone_acks += report.standalone_acks;
                        match report.log {
                            Some(log) => logs.push((u, log)),
                            None => have_logs = false,
                        }
                    }
                }
                // The reactor itself panicked (it already absorbs
                // automaton panics, so this is a harness bug, not an
                // injected fault) — report, don't propagate.
                Err(_) => dead_nodes.extend(shard_nodes),
            }
        }
        // Reactors return their shards in node order within a shard but
        // shards interleave; restore global node order for the logs.
        logs.sort_by_key(|&(u, _)| u);
        Some(ClusterReport {
            stats,
            combines,
            logs: have_logs.then(|| logs.into_iter().map(|(_, l)| l).collect()),
            delivered,
            dead_nodes,
            abandoned,
            faults,
            wal,
            threads_spawned: self.threads_spawned,
            standalone_acks,
        })
    }
}

impl<A: AggOp> Drop for Cluster<A> {
    fn drop(&mut self) {
        if !self.handles.is_empty() && !std::thread::panicking() {
            // Best-effort graceful teardown when shutdown() wasn't called.
            let _ = self.shutdown_inner();
        }
    }
}

/// One response frame received by a client.
#[derive(Clone, Debug, PartialEq)]
pub enum Response<V> {
    /// A combine result carrying the aggregate value.
    Combine(V),
    /// A write acknowledgement (the write's transitions have run).
    Write,
    /// An unsolicited pushed refinement for a subscribed forest tree
    /// (see [`ClusterClient::subscribe`]); paired with the sub id.
    Partial {
        /// Forest tree the refinement is for.
        tree: u32,
        /// The node's per-tree refinement sequence — monotone across
        /// automaton crash-restarts, reset only when a kill9 severs
        /// the subscription's connection itself.
        seq: u64,
        /// The refined aggregate value.
        value: V,
    },
}

/// Per-client outcome of one pipelined window run.
struct PerClientResults<V> {
    combines: Vec<(usize, V)>,
    latencies: Vec<(usize, Duration)>,
}

/// A blocking client bound to one node of a running cluster, over
/// whatever transport the cluster was spawned with.
///
/// Three usage modes share one connection:
///
/// * **Synchronous** ([`ClusterClient::combine`] /
///   [`ClusterClient::write`] / [`ClusterClient::metrics`]): strict
///   request/response, one outstanding request at a time.
/// * **Pipelined** ([`ClusterClient::submit_combine`] /
///   [`ClusterClient::submit_write`] + [`ClusterClient::next_response`]):
///   keep many requests in flight; responses are matched by request id,
///   because a node may answer a later write before an earlier combine
///   that is still waiting on the tree.
/// * **Batched** ([`ClusterClient::submit_batch`]): one `REQ_BATCH`
///   frame carries N requests; the node replies with one `RESP_BATCH`
///   once all N resolve. Ids are minted from the same sequence, and
///   [`ClusterClient::next_response`] unpacks batch responses
///   transparently — callers still consume one `(id, response)` at a
///   time.
///
/// Submissions are buffered — a burst of submits coalesces into one
/// wire write; every read flushes first, so a client can never deadlock
/// against its own unflushed requests. All reads go through one loop
/// and an incremental [`FrameDecoder`]: a timeout that fires mid-frame
/// loses nothing.
///
/// ## Timeouts and idempotent retry
///
/// With [`ClusterClient::set_timeout`] armed, a read that waits longer
/// than the timeout re-sends every unanswered request — *same ids*,
/// batch members as individual frames — and keeps reading. The ids make
/// the retry idempotent end to end: the node parks at most one combine
/// waiter per `(connection, id)`, strikes a batch member at its first
/// answer, re-applies a written value harmlessly, and the client
/// discards any response whose id it no longer has outstanding. This is
/// the client-side half of crash recovery: a restart destroys parked
/// waiters, and the retry re-drives them. The client also survives the
/// *connection* dying (what a `kill9`'d node does to its clients): it
/// redials, re-hellos, re-sends every unanswered request and
/// subscription, and keeps reading on a fresh stream.
pub struct ClusterClient<V> {
    node: NodeId,
    /// The node's address, kept for retry-policy reconnects.
    addr: NodeAddr,
    /// The blocking connection (any transport).
    stream: ClientStream,
    /// Write buffer; submissions append frames here, flushed to the
    /// stream before every blocking read.
    wbuf: Vec<u8>,
    /// Responses unpacked from a `RESP_BATCH` frame, delivered before
    /// the next wire read.
    queued: VecDeque<(u8, Vec<u8>)>,
    /// Incremental decoder for the read half: partial frames survive
    /// read timeouts instead of desynchronizing the stream.
    dec: FrameDecoder,
    next_id: u64,
    /// Read timeout; `None` blocks forever (the default).
    timeout: Option<Duration>,
    /// Timed-out reads allowed per blocking call before giving up.
    max_retries: u32,
    /// Submitted, not yet answered: `id → (tag, payload)` for re-send.
    pending: HashMap<u64, (u8, Vec<u8>)>,
    /// Timed-out reads that triggered a retry, for reporting.
    timeouts: u64,
    /// Dead connections replaced under the retry policy.
    reconnects: u64,
    /// Live subscriptions `(sub id, tree)`, re-registered on reconnect
    /// (the fresh server-side connection knows nothing of the old subs).
    subs: Vec<(u64, u32)>,
    /// Partials that arrived while a synchronous call was draining the
    /// stream; surfaced by [`ClusterClient::try_next_response`].
    parked_partials: VecDeque<(u64, Response<V>)>,
    _value: std::marker::PhantomData<fn() -> V>,
}

/// A client stream read: [`ClientStream::read`] (waits up to the read
/// timeout) or [`ClientStream::read_nowait`].
type StreamRead = fn(&mut ClientStream, &mut [u8]) -> io::Result<usize>;

/// What [`ClusterClient::read_loop`] waits for.
#[derive(Clone, Copy)]
enum Wait {
    /// The next response, with this many retries already spent.
    Next(u32),
    /// The next response, if one arrives within the read timeout.
    Try,
    /// The reply to metrics request `id`.
    Metrics(u64),
}

/// What resolved a [`Wait`].
enum Got<V> {
    Resp(u64, Response<V>),
    Metrics(NodeMetrics),
}

impl<V: WireValue> ClusterClient<V> {
    /// Connects and announces itself as a client. Accepts anything
    /// convertible to a [`NodeAddr`] (a bare `SocketAddr` dials TCP).
    pub fn connect(addr: impl Into<NodeAddr>, node: NodeId) -> io::Result<Self> {
        let addr = addr.into();
        let mut stream = ClientStream::connect(&addr)?;
        let mut hello = Vec::with_capacity(8);
        write_frame(&mut hello, TAG_HELLO_CLIENT, &[])?;
        stream.write_all(&hello)?;
        Ok(ClusterClient {
            node,
            addr,
            stream,
            wbuf: Vec::with_capacity(16 * 1024),
            queued: VecDeque::new(),
            dec: FrameDecoder::new(),
            next_id: 0,
            timeout: None,
            max_retries: 0,
            pending: HashMap::new(),
            timeouts: 0,
            reconnects: 0,
            subs: Vec::new(),
            parked_partials: VecDeque::new(),
            _value: std::marker::PhantomData,
        })
    }

    /// The node this client talks to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Arms (or with `None` disarms) the per-read timeout: a blocking
    /// read that exceeds it re-sends every unanswered request (same
    /// ids) and retries, up to `max_retries` times per call before
    /// surfacing `TimedOut`.
    pub fn set_timeout(&mut self, timeout: Option<Duration>, max_retries: u32) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.timeout = timeout;
        self.max_retries = max_retries;
        Ok(())
    }

    /// Timed-out reads that triggered a retry over this client's life.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Dead connections replaced under the retry policy.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Pushed partials a synchronous call set aside that
    /// [`ClusterClient::try_next_response`] has not handed over yet.
    pub fn parked_partials(&self) -> usize {
        self.parked_partials.len()
    }

    /// True when `err` means the connection died (as opposed to a
    /// timeout or a protocol error) — recoverable by redialing.
    fn is_disconnect(err: &io::Error) -> bool {
        matches!(
            err.kind(),
            io::ErrorKind::UnexpectedEof
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
        )
    }

    /// Replaces a dead connection: redial, re-hello, re-send every
    /// unanswered request. Bytes of a partially received frame are
    /// discarded with the old decoder — the new stream starts clean.
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = ClientStream::connect(&self.addr)?;
        stream.set_read_timeout(self.timeout)?;
        self.stream = stream;
        self.dec = FrameDecoder::new();
        self.wbuf.clear();
        write_frame(&mut self.wbuf, TAG_HELLO_CLIENT, &[])?;
        self.reconnects += 1;
        self.resend_pending()?;
        self.resubscribe()
    }

    /// Re-registers every subscription on a fresh connection. The node
    /// side keys subs by `(connection, sub id)`, so re-registering the
    /// same sub id on the new connection resumes pushes; the per-tree
    /// refinement seq continues monotonically unless the node itself
    /// was kill9'd.
    fn resubscribe(&mut self) -> io::Result<()> {
        for &(id, tree) in &self.subs {
            let mut payload = Vec::with_capacity(12);
            put_u64(&mut payload, id);
            put_u32(&mut payload, tree);
            write_frame(&mut self.wbuf, TAG_SUB, &payload)?;
        }
        self.flush()
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Reads the next frame through the incremental decoder: an error
    /// (a timeout, `WouldBlock` from [`ClientStream::read_nowait`]) keeps
    /// partial bytes buffered, so the stream stays frame-aligned.
    fn read_frame(&mut self, read: StreamRead) -> io::Result<(u8, Vec<u8>)> {
        loop {
            if let Some(frame) = self.dec.try_frame()? {
                return Ok(frame);
            }
            let mut chunk = [0u8; 4096];
            match read(&mut self.stream, &mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        if self.dec.is_empty() {
                            "connection closed"
                        } else {
                            "connection closed mid-frame"
                        },
                    ))
                }
                Ok(n) => self.dec.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits a combine without waiting; returns its request id.
    /// Buffered — the frame reaches the wire at the next
    /// [`ClusterClient::flush`] or [`ClusterClient::next_response`].
    pub fn submit_combine(&mut self) -> io::Result<u64> {
        self.submit(0, ReqOp::Combine)
    }

    /// Submits a write without waiting; returns its request id.
    pub fn submit_write(&mut self, arg: V) -> io::Result<u64> {
        self.submit(0, ReqOp::Write(arg))
    }

    /// Submits a combine against forest tree `tree` without waiting;
    /// returns its request id. `submit_combine_tree(0)` is
    /// [`ClusterClient::submit_combine`], down to the bytes.
    pub fn submit_combine_tree(&mut self, tree: u32) -> io::Result<u64> {
        self.submit(tree, ReqOp::Combine)
    }

    /// Submits a write against forest tree `tree` without waiting;
    /// returns its request id. Durable like a tree-0 write: with a WAL
    /// backend it is logged before the ack, and every restart restores
    /// it. `submit_write_tree(0, v)` is [`ClusterClient::submit_write`].
    pub fn submit_write_tree(&mut self, tree: u32, arg: V) -> io::Result<u64> {
        self.submit(tree, ReqOp::Write(arg))
    }

    /// Buffers one request for `tree` and tracks it for re-send.
    fn submit(&mut self, tree: u32, op: ReqOp<V>) -> io::Result<u64> {
        let id = self.fresh_id();
        let (tag, payload) = encode_request(id, tree, &op);
        write_frame(&mut self.wbuf, tag, &payload)?;
        oat_obs::trace_event!(oat_obs::EventKind::ReqStart, self.node.0, 0, id);
        self.pending.insert(id, (tag, payload));
        Ok(id)
    }

    /// Subscribes to pushed partial refinements of forest tree `tree`
    /// served at this node. Every refinement arrives as an unsolicited
    /// frame surfaced as [`Response::Partial`] paired with the returned
    /// sub id (from [`ClusterClient::next_response`] or
    /// [`ClusterClient::try_next_response`]). Registration is
    /// fire-and-forget (no ack frame); the node answers with an
    /// immediate priming partial carrying the tree's current value.
    /// Subscriptions are re-registered automatically when the retry
    /// policy replaces a dead connection.
    pub fn subscribe(&mut self, tree: u32) -> io::Result<u64> {
        let id = self.fresh_id();
        let mut payload = Vec::with_capacity(12);
        put_u64(&mut payload, id);
        put_u32(&mut payload, tree);
        write_frame(&mut self.wbuf, TAG_SUB, &payload)?;
        self.subs.push((id, tree));
        self.flush_retry()?;
        Ok(id)
    }

    /// Submits `ops` as one `REQ_BATCH` frame; returns the request ids
    /// in op order. The node answers with a single `RESP_BATCH` once
    /// every member resolves; [`ClusterClient::next_response`] unpacks
    /// it into individual `(id, response)` pairs. Each member is also
    /// tracked in the pending set as its standalone frame, so the
    /// timeout policy retries stragglers individually.
    pub fn submit_batch(&mut self, ops: &[ReqOp<V>]) -> io::Result<Vec<u64>> {
        let mut ids = Vec::with_capacity(ops.len());
        let mut items = Vec::with_capacity(ops.len());
        for op in ops {
            let id = self.fresh_id();
            oat_obs::trace_event!(oat_obs::EventKind::ReqStart, self.node.0, 0, id);
            ids.push(id);
            items.push(encode_request(id, 0, op));
        }
        write_frame(&mut self.wbuf, TAG_REQ_BATCH, &encode_batch(&items))?;
        for (&id, (tag, payload)) in ids.iter().zip(items) {
            self.pending.insert(id, (tag, payload));
        }
        Ok(ids)
    }

    /// Pushes all buffered submissions to the wire.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Like [`ClusterClient::flush`], but a dead connection is replaced
    /// (pending requests re-driven, subscriptions re-registered)
    /// instead of surfacing the disconnect. Only pending-tracked frames
    /// survive the swap, so callers submitting untracked frames should
    /// use [`ClusterClient::flush`] and handle the error themselves.
    pub fn flush_retry(&mut self) -> io::Result<()> {
        match self.flush() {
            Err(e) if Self::is_disconnect(&e) => self.reconnect(),
            other => other,
        }
    }

    /// True when `err` is a read-timeout (platform-dependent kind).
    fn is_timeout(err: &io::Error) -> bool {
        matches!(
            err.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }

    /// Re-sends every unanswered request, in submission (= id) order.
    /// Batch members go out as individual frames here — the node
    /// strikes them from the batch roster on direct answer, keeping
    /// retries exactly-once (see the struct docs).
    fn resend_pending(&mut self) -> io::Result<()> {
        let mut ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let (tag, payload) = &self.pending[&id];
            write_frame(&mut self.wbuf, *tag, payload)?;
        }
        self.flush()
    }

    /// Blocks for the next combine/write response on this connection,
    /// whatever request it answers. Flushes buffered submissions first;
    /// applies the timeout/retry policy when armed.
    pub fn next_response(&mut self) -> io::Result<(u64, Response<V>)> {
        let mut retries = 0;
        if let Err(e) = self.flush() {
            if Self::is_disconnect(&e) && retries < self.max_retries {
                retries += 1;
                self.reconnect()?;
            } else {
                return Err(e);
            }
        }
        match self.read_loop(Wait::Next(retries), ClientStream::read)? {
            Some(Got::Resp(id, resp)) => Ok((id, resp)),
            _ => unreachable!("a blocking read resolves a response or fails"),
        }
    }

    /// The one read loop: takes frames (unpacked batch responses first,
    /// except for a metrics call) until [`ClusterClient::accept_frame`]
    /// resolves `wait`. Under [`Wait::Try`] a timeout ends the wait with
    /// `Ok(None)`, and so does a dead connection, replaced first.
    /// Otherwise, up to the armed retries, a timeout re-sends every
    /// unanswered request and a dead connection is redialed (a kill9'd
    /// node's listener survives); a metrics call re-sends its own too.
    fn read_loop(&mut self, wait: Wait, read: StreamRead) -> io::Result<Option<Got<V>>> {
        let (mut retries, metrics) = match wait {
            Wait::Next(spent) => (spent, None),
            Wait::Try => (0, None),
            Wait::Metrics(id) => (0, Some(id)),
        };
        loop {
            let queued = metrics.is_none().then(|| self.queued.pop_front()).flatten();
            let (tag, payload) = match queued.map_or_else(|| self.read_frame(read), Ok) {
                Ok(frame) => frame,
                Err(e) if matches!(wait, Wait::Try) && Self::is_timeout(&e) => return Ok(None),
                Err(e) if matches!(wait, Wait::Try) && Self::is_disconnect(&e) => {
                    self.reconnect()?;
                    return Ok(None);
                }
                Err(e) if Self::is_timeout(&e) && retries < self.max_retries => {
                    retries += 1;
                    self.timeouts += 1;
                    if let Some(id) = metrics {
                        Self::queue_metrics(&mut self.wbuf, id)?;
                    }
                    self.resend_pending()?;
                    continue;
                }
                Err(e) if Self::is_disconnect(&e) && retries < self.max_retries => {
                    retries += 1;
                    self.reconnect()?;
                    if let Some(id) = metrics {
                        Self::queue_metrics(&mut self.wbuf, id)?;
                        self.flush()?;
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            if let Some(got) = self.accept_frame(tag, &payload, metrics)? {
                return Ok(Some(got));
            }
        }
    }

    /// Routes one frame; `Ok(None)` when it does not resolve the wait: a
    /// batch unpacked into the queue, a duplicate (unknown ids are
    /// discarded), or — while metrics reply `metrics` is awaited — an
    /// answer queued for the next read or a partial parked for
    /// [`ClusterClient::try_next_response`].
    fn accept_frame(
        &mut self,
        tag: u8,
        payload: &[u8],
        metrics: Option<u64>,
    ) -> io::Result<Option<Got<V>>> {
        let invalid = |e: WireError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        if tag == TAG_RESP_BATCH {
            self.queued.extend(decode_batch(payload)?);
            return Ok(None);
        }
        if metrics.is_some() && matches!(tag, TAG_RESP_COMBINE | TAG_RESP_WRITE) {
            self.queued.push_back((tag, payload.to_vec()));
            return Ok(None);
        }
        let mut r = WireReader::new(payload);
        let id = r.u64("response req id").map_err(invalid)?;
        let resp = match tag {
            TAG_RESP_COMBINE => Response::Combine(V::decode(&mut r).map_err(invalid)?),
            TAG_RESP_WRITE => Response::Write,
            TAG_PARTIAL => {
                // An unsolicited pushed refinement; `id` is the sub id.
                let parsed = r.u32("partial tree id").and_then(|tree| {
                    let seq = r.u64("partial refine seq")?;
                    let value = V::decode(&mut r)?;
                    Ok((tree, seq, value))
                });
                let (tree, seq, value) = parsed.map_err(invalid)?;
                oat_obs::trace_event!(oat_obs::EventKind::PartialRx, tree, 0, seq);
                let partial = Response::Partial { tree, seq, value };
                if metrics.is_some() {
                    self.parked_partials.push_back((id, partial));
                    return Ok(None);
                }
                return Ok(Some(Got::Resp(id, partial)));
            }
            TAG_RESP_METRICS if metrics == Some(id) => {
                let m = NodeMetrics::decode(&payload[8..]).map_err(invalid)?;
                return Ok(Some(Got::Metrics(m)));
            }
            TAG_RESP_METRICS => return Ok(None),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected response tag {other}"),
                ))
            }
        };
        if self.pending.remove(&id).is_none() {
            return Ok(None);
        }
        oat_obs::trace_event!(oat_obs::EventKind::ReqEnd, self.node.0, 0, id);
        Ok(Some(Got::Resp(id, resp)))
    }

    /// Waits up to `wait` for the next response (pushed partials
    /// included); `Ok(None)` when nothing arrived in time, so a
    /// subscriber can interleave polling with submitting work.
    /// `Duration::ZERO` does not block: an empty poll costs one
    /// zero-timeout poll(2). A dead connection is replaced (requests
    /// re-driven, subscriptions re-registered) even with no retry policy
    /// armed, and reported as `Ok(None)` for this round.
    pub fn try_next_response(&mut self, wait: Duration) -> io::Result<Option<(u64, Response<V>)>> {
        if let Some(parked) = self.parked_partials.pop_front() {
            return Ok(Some(parked));
        }
        if let Err(e) = self.flush() {
            if Self::is_disconnect(&e) {
                self.reconnect()?;
                return Ok(None);
            }
            return Err(e);
        }
        let got = if wait.is_zero() {
            self.read_loop(Wait::Try, ClientStream::read_nowait)
        } else {
            // Swap the bounded wait in for this read only.
            self.stream.set_read_timeout(Some(wait))?;
            let got = self.read_loop(Wait::Try, ClientStream::read);
            self.stream.set_read_timeout(self.timeout)?;
            got
        };
        Ok(match got? {
            Some(Got::Resp(id, resp)) => Some((id, resp)),
            _ => None,
        })
    }

    /// Runs the subsequence `indices` of `seq` through this connection
    /// with a sliding window of `depth` outstanding requests.
    fn run_window(
        &mut self,
        seq: &[Request<V>],
        indices: &[usize],
        depth: usize,
    ) -> io::Result<PerClientResults<V>>
    where
        V: Clone,
    {
        let mut combines = Vec::new();
        let mut latencies = Vec::with_capacity(indices.len());
        let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::with_capacity(depth);
        let mut next = indices.iter();
        loop {
            while in_flight.len() < depth {
                let Some(&i) = next.next() else { break };
                let started = Instant::now();
                let id = match &seq[i].op {
                    ReqOp::Combine => self.submit_combine()?,
                    ReqOp::Write(arg) => self.submit_write(arg.clone())?,
                };
                in_flight.insert(id, (i, started));
            }
            if in_flight.is_empty() {
                break;
            }
            let (id, resp) = self.next_response()?;
            // next_response only surfaces ids it still had pending, and
            // pending mirrors this window's in_flight — but stay
            // defensive and skip rather than die on a mismatch.
            let Some((i, started)) = in_flight.remove(&id) else {
                continue;
            };
            latencies.push((i, started.elapsed()));
            if let Response::Combine(v) = resp {
                combines.push((i, v));
            }
        }
        Ok(PerClientResults {
            combines,
            latencies,
        })
    }

    /// Issues a combine at this node and blocks for the aggregate value
    /// (retrying under the armed timeout policy).
    pub fn combine(&mut self) -> io::Result<V> {
        let id = self.submit_combine()?;
        self.await_combine(id)
    }

    /// Issues a combine against forest tree `tree` and blocks for the
    /// aggregate value (retrying under the armed timeout policy).
    pub fn combine_tree(&mut self, tree: u32) -> io::Result<V> {
        let id = self.submit_combine_tree(tree)?;
        self.await_combine(id)
    }

    fn await_combine(&mut self, id: u64) -> io::Result<V> {
        match self.await_response(id)? {
            Response::Combine(v) => Ok(v),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "write ack for a combine request id",
            )),
        }
    }

    /// Blocks for the response to request `id`, parking pushed partials
    /// for `try_next_response` and skipping other ids.
    fn await_response(&mut self, id: u64) -> io::Result<Response<V>> {
        loop {
            let (got, resp) = self.next_response()?;
            if let Response::Partial { .. } = resp {
                // A pushed refinement arriving mid-call: park it, don't
                // drop a subscription event.
                self.parked_partials.push_back((got, resp));
            } else if got == id {
                return Ok(resp);
            }
            // Otherwise an older pipelined submission resolving late; the
            // caller of this sync API gave up on pairing those.
        }
    }

    /// Issues a write at this node and blocks until it has been applied
    /// (its transitions have run; resulting updates may still be in
    /// flight — use [`Cluster::quiesce`] for sequential semantics).
    /// Retries under the armed timeout policy; the node re-applies the
    /// same value, so retried writes are idempotent.
    pub fn write(&mut self, arg: V) -> io::Result<()> {
        let id = self.submit_write(arg)?;
        self.await_write(id)
    }

    /// Issues a write against forest tree `tree` and blocks until it
    /// has been applied (see [`ClusterClient::write`] for semantics,
    /// [`ClusterClient::submit_write_tree`] for durability caveats).
    pub fn write_tree(&mut self, tree: u32, arg: V) -> io::Result<()> {
        let id = self.submit_write_tree(tree, arg)?;
        self.await_write(id)
    }

    fn await_write(&mut self, id: u64) -> io::Result<()> {
        match self.await_response(id)? {
            Response::Write => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "combine value for a write request id",
            )),
        }
    }

    /// Fetches this node's metrics snapshot.
    ///
    /// Safe with combines and writes outstanding on this connection:
    /// their answers arriving first are queued for the caller's next
    /// [`ClusterClient::next_response`].
    pub fn metrics(&mut self) -> io::Result<NodeMetrics> {
        let id = self.fresh_id();
        Self::queue_metrics(&mut self.wbuf, id)?;
        self.flush()?;
        match self.read_loop(Wait::Metrics(id), ClientStream::read)? {
            Some(Got::Metrics(m)) => Ok(m),
            _ => unreachable!("a metrics read resolves the metrics reply or fails"),
        }
    }

    /// Buffers metrics request `id`.
    fn queue_metrics(wbuf: &mut Vec<u8>, id: u64) -> io::Result<()> {
        write_frame(wbuf, TAG_REQ_METRICS, &id.to_le_bytes())
    }
}
