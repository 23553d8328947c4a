//! The continuous-query engine: progressive refinement over a forest.
//!
//! ## Execution model
//!
//! The fact stream is pre-generated, so its total length is known up
//! front and **coverage** — the fraction of facts whose writes the
//! cluster has acknowledged — is monotone by construction. Each group
//! key owns one lazily-instantiated forest tree (`tree = key + 1`;
//! tree 0 stays the sim-parity built-in), multiplexed over the same
//! nodes and connections as everything else.
//!
//! Facts are **sharded** round-robin across nodes. A node's tree value
//! is whatever was last written there, so the engine keeps an absolute
//! per-`(key, shard)` accumulator — the running fold of the shard's
//! facts — and writes the accumulator value, not the delta, on every
//! fact. Every tree's written value is durable at its node (logged
//! before the ack, restored by every crash or `kill9` restart), so
//! nothing the engine has had acknowledged is ever written twice.
//!
//! ## Visibility contract
//!
//! A write ack means "applied at that node"; the updates it caused may
//! still be on their way to the root (the paper promises strict
//! consistency only for sequential executions, causal otherwise). So
//! an exact read needs a **propagation barrier** first: every write
//! acked, then [`Cluster::quiesce`] — sufficient because the engine is
//! the cluster's only client and is blocked meanwhile. Nothing in the
//! engine waits on a timer: it writes one fact at a time (a sequential
//! client), waits for that ack, takes the pushes that have already
//! arrived, and moves on.
//!
//! ## Refinement sources
//!
//! Partials are emitted from three places, all stamped with an
//! engine-assigned per-key `refine_seq`, the ack high-water mark and
//! coverage:
//!
//! 1. **Pushed refinements** — the engine subscribes to each key's tree
//!    at node 0; the node pushes `TAG_PARTIAL` whenever the tree's
//!    aggregate changes (plus one priming push at subscribe time). The
//!    engine drains the arrived pushes after every fact.
//! 2. **Window finals** — facts arrive in non-decreasing `at_ms` order,
//!    so the first fact of a later tumbling window closes every open
//!    window at once: one propagation barrier, the keys' combines
//!    pipelined on the subscriber connection, one exact final per key,
//!    and the keys' shards reset to identity.
//! 3. **Settlement** — after the stream ends: one pre-final snapshot
//!    per key, the barrier, and one exact final per key whose window is
//!    still open.
//!
//! The subscriber connection is FIFO, so every push sent before a
//! combine's response is read — and emitted — before that response:
//! no partial of a window surfaces after the window's final.
//!
//! Every key therefore emits at least three partials (priming push,
//! pre-final snapshot, final), and finals equal the sequential oracle
//! exactly ([`QueryRun::matches_oracle`]).

use crate::oracle::{oracle_finals, Final};
use crate::spec::{QuerySpec, WindowSpec};
use oat_core::agg::AggOp;
use oat_core::tree::NodeId;
use oat_net::{Cluster, ClusterClient, Response};
use oat_workloads::facts::Fact;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::io;
use std::time::{Duration, Instant};

/// One emitted partial: a progressively refined answer plus the
/// freshness metadata needed to interpret it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartialRecord {
    /// Group key (`0` when the query has no `group by`).
    pub key: u32,
    /// Window index the value refers to (`at_ms / T` for tumbling,
    /// else `0`).
    pub window: u64,
    /// Engine-assigned per-key refinement sequence, strictly
    /// increasing.
    pub refine_seq: u64,
    /// The current aggregate as reported by the cluster.
    pub value: i64,
    /// Fraction of the total fact stream already acknowledged —
    /// monotone across the whole emission sequence.
    pub coverage: f64,
    /// Count of acknowledged fact writes when this partial was emitted
    /// (the "last applied write" high-water mark).
    pub last_write_seq: u64,
    /// Fact writes submitted but not yet acknowledged. The engine
    /// awaits each write's ack before it takes the next fact, so this
    /// is 0 on every partial; the field stays for `oat-query-v1`.
    pub staleness: u64,
    /// Fact-stream time high-water mark (ms) at emission.
    pub at_ms: u64,
    /// Wall-clock ms since the query started.
    pub wall_ms: f64,
    /// True for exact finals (window finalization or settlement).
    pub is_final: bool,
}

/// Refinement-latency statistics for one query run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefineStats {
    /// Total wall-clock ms from first fact to last final.
    pub elapsed_ms: f64,
    /// p50 across keys of the time to each key's first partial (ms).
    pub first_partial_p50_ms: f64,
    /// p99 across keys of the time to each key's first partial (ms).
    pub first_partial_p99_ms: f64,
    /// Wall-clock ms until coverage first reached 0.95 (`None` when
    /// the stream was empty or coverage jumped straight past it before
    /// any ack was observed).
    pub t95_coverage_ms: Option<f64>,
    /// Partials emitted in total (including finals).
    pub partials_total: u64,
    /// `TAG_PARTIAL` push frames received from the cluster.
    pub pushes_rx: u64,
}

/// The full result of one query run.
#[derive(Clone, Debug)]
pub struct QueryRun {
    /// The spec the run executed.
    pub spec: QuerySpec,
    /// Every emitted partial, in emission order.
    pub partials: Vec<PartialRecord>,
    /// Exact finals, one per `(key, window)` that saw facts.
    pub finals: Vec<Final>,
    /// Refinement-latency statistics.
    pub stats: RefineStats,
}

impl QueryRun {
    /// Coverage never decreases across the emission sequence.
    pub fn coverage_monotone(&self) -> bool {
        self.partials
            .windows(2)
            .all(|w| w[0].coverage <= w[1].coverage + 1e-12)
    }

    /// Per-key refinement sequences are strictly increasing.
    pub fn refine_seq_monotone(&self) -> bool {
        let mut last: HashMap<u32, u64> = HashMap::new();
        self.partials.iter().all(|p| {
            let prev = last.insert(p.key, p.refine_seq);
            prev.is_none_or(|s| p.refine_seq > s)
        })
    }

    /// Minimum number of partials any key emitted (0 when no facts).
    pub fn min_partials_per_key(&self) -> u64 {
        let mut per_key: HashMap<u32, u64> = HashMap::new();
        for p in &self.partials {
            *per_key.entry(p.key).or_insert(0) += 1;
        }
        per_key.values().copied().min().unwrap_or(0)
    }

    /// Engine finals equal the sequential oracle exactly.
    pub fn matches_oracle(&self, facts: &[Fact]) -> bool {
        let want = oracle_finals(&self.spec, facts);
        let mut got = self.finals.clone();
        got.sort_by_key(|f| (f.key, f.window));
        got == want
    }
}

struct Driver<'a, A: AggOp<Value = i64>> {
    cluster: &'a Cluster<A>,
    spec: &'a QuerySpec,
    n: usize,
    total: u64,
    start: Instant,
    sub: ClusterClient<i64>,
    writers: Vec<ClusterClient<i64>>,
    /// Absolute per-(key, shard) accumulators: the fold of the shard's
    /// facts in the key's open window, which is the value every write
    /// to that shard carries.
    accs: BTreeMap<(u32, usize), i64>,
    /// Shards written in the key's open window; a key is here exactly
    /// while a final is owed for it.
    touched: BTreeMap<u32, BTreeSet<usize>>,
    /// Sliding-window rings: the last N `(mapped value, shard)` per
    /// key.
    rings: HashMap<u32, VecDeque<(i64, usize)>>,
    /// The window each key's tree is accumulating.
    cur_window: HashMap<u32, u64>,
    key_count: BTreeMap<u32, u64>,
    subscribed: HashSet<u32>,
    /// Fact writes acknowledged so far.
    acked: u64,
    at_hw: u64,
    refine_seq: HashMap<u32, u64>,
    t95_ms: Option<f64>,
    first_partial_ms: BTreeMap<u32, f64>,
    pushes_rx: u64,
    partials: Vec<PartialRecord>,
    finals: Vec<Final>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-read timeout armed on every engine connection: under injected
/// faults (kill9 severing a node) the retry policy redials and re-sends
/// rather than blocking forever.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(500);
const CLIENT_RETRIES: u32 = 120;

impl<'a, A: AggOp<Value = i64>> Driver<'a, A> {
    fn new(cluster: &'a Cluster<A>, spec: &'a QuerySpec, total: usize) -> io::Result<Self> {
        let n = cluster.tree().len();
        let mut sub = cluster.client(NodeId(0))?;
        sub.set_timeout(Some(CLIENT_TIMEOUT), CLIENT_RETRIES)?;
        let mut writers = Vec::with_capacity(n);
        for i in 0..n {
            let mut c = cluster.client(NodeId(i as u32))?;
            c.set_timeout(Some(CLIENT_TIMEOUT), CLIENT_RETRIES)?;
            writers.push(c);
        }
        Ok(Driver {
            cluster,
            spec,
            n,
            total: total as u64,
            start: Instant::now(),
            sub,
            writers,
            accs: BTreeMap::new(),
            touched: BTreeMap::new(),
            rings: HashMap::new(),
            cur_window: HashMap::new(),
            key_count: BTreeMap::new(),
            subscribed: HashSet::new(),
            acked: 0,
            at_hw: 0,
            refine_seq: HashMap::new(),
            t95_ms: None,
            first_partial_ms: BTreeMap::new(),
            pushes_rx: 0,
            partials: Vec::new(),
            finals: Vec::new(),
        })
    }

    fn tree_of(key: u32) -> u32 {
        key + 1
    }

    /// The window `key`'s tree is accumulating (0 unless tumbling).
    fn window_of(&self, key: u32) -> u64 {
        self.cur_window.get(&key).copied().unwrap_or(0)
    }

    fn emit(&mut self, key: u32, window: u64, value: i64, is_final: bool) {
        let seq = {
            let e = self.refine_seq.entry(key).or_insert(0);
            *e += 1;
            *e
        };
        let wall = ms(self.start.elapsed());
        self.first_partial_ms.entry(key).or_insert(wall);
        let coverage = if self.total == 0 {
            1.0
        } else {
            self.acked as f64 / self.total as f64
        };
        oat_obs::trace_event!(oat_obs::EventKind::QueryEmit, key, window as u32, seq);
        self.partials.push(PartialRecord {
            key,
            window,
            refine_seq: seq,
            value,
            coverage,
            last_write_seq: self.acked,
            staleness: 0,
            at_ms: self.at_hw,
            wall_ms: wall,
            is_final,
        });
    }

    /// Writes one absolute value to the key's tree at node `shard` and
    /// waits for the ack. One write at a time keeps the engine a
    /// sequential client — the execution the paper's consistency
    /// guarantee is stated for — and each wait is where the pushes of
    /// earlier facts get the time to arrive. `is_fact` marks the one
    /// write that carries a fact's contribution; refolds and window
    /// resets do not count towards coverage.
    fn write(&mut self, shard: usize, key: u32, value: i64, is_fact: bool) -> io::Result<()> {
        self.writers[shard].write_tree(Self::tree_of(key), value)?;
        if is_fact {
            self.acked += 1;
            if self.t95_ms.is_none() && self.acked as f64 / self.total as f64 >= 0.95 {
                self.t95_ms = Some(ms(self.start.elapsed()));
            }
        }
        Ok(())
    }

    /// Emits one partial for a pushed refinement.
    fn on_push(&mut self, resp: Response<i64>) {
        if let Response::Partial { tree, value, .. } = resp {
            self.pushes_rx += 1;
            let key = tree - 1;
            self.emit(key, self.window_of(key), value, false);
        }
    }

    /// Emits the pushed refinements that have already arrived; never
    /// waits for one.
    fn drain_pushes(&mut self) -> io::Result<()> {
        while let Some((_sid, resp)) = self.sub.try_next_response(Duration::ZERO)? {
            self.on_push(resp);
        }
        Ok(())
    }

    /// Reads each key's tree at the root, the combines pipelined on the
    /// subscriber connection; pushes that arrive ahead of the responses
    /// are emitted on the way.
    fn combine_keys(&mut self, keys: &[u32]) -> io::Result<Vec<i64>> {
        let mut slot: HashMap<u64, usize> = HashMap::with_capacity(keys.len());
        for (i, &key) in keys.iter().enumerate() {
            slot.insert(self.sub.submit_combine_tree(Self::tree_of(key))?, i);
        }
        let mut values = vec![self.spec.op.identity(); keys.len()];
        while !slot.is_empty() {
            let (id, resp) = self.sub.next_response()?;
            match resp {
                Response::Combine(v) => {
                    if let Some(i) = slot.remove(&id) {
                        values[i] = v;
                    }
                }
                push => self.on_push(push),
            }
        }
        Ok(values)
    }

    /// Emits `value`, read behind the propagation barrier, as the exact
    /// final of the key's current window.
    fn emit_final(&mut self, key: u32, value: i64) {
        // The engine reads `sub` only through `next_response` and
        // `try_next_response`, which hand pushes over in arrival order;
        // a parked one would be emitted after this final, stamped with
        // the next window.
        debug_assert_eq!(
            self.sub.parked_partials(),
            0,
            "a pushed partial is parked behind a final"
        );
        let window = self.window_of(key);
        self.emit(key, window, value, true);
        self.finals.push(Final { key, window, value });
    }

    /// Closes every open tumbling window — the stream's clock has moved
    /// on to window `next` — behind one shared propagation barrier: an
    /// exact final per key, then the key's shards reset to identity.
    fn close_windows(&mut self, next: u64) -> io::Result<()> {
        let open = std::mem::take(&mut self.touched);
        let keys: Vec<u32> = open.keys().copied().collect();
        // The propagation barrier: every write is acked, so once the
        // cluster is quiet a combine at the root is the sequential fold
        // of everything written so far.
        self.cluster.quiesce();
        let values = self.combine_keys(&keys)?;
        for (&key, &v) in keys.iter().zip(&values) {
            self.emit_final(key, v);
        }
        let ident = self.spec.op.identity();
        for (key, shards) in open {
            self.cur_window.insert(key, next);
            for s in shards {
                self.accs.insert((key, s), ident);
                self.write(s, key, ident, false)?;
            }
        }
        Ok(())
    }

    fn process_fact(&mut self, f: &Fact) -> io::Result<()> {
        let key = if self.spec.group_by_key { f.key } else { 0 };
        if let WindowSpec::Tumbling(width) = self.spec.window {
            let w = f.at_ms / width;
            if w > self.at_hw / width && !self.touched.is_empty() {
                self.close_windows(w)?;
            }
            self.cur_window.insert(key, w);
        }
        if self.subscribed.insert(key) {
            self.sub.subscribe(Self::tree_of(key))?;
        }
        let cnt = self.key_count.entry(key).or_insert(0);
        let shard = ((u64::from(key) + *cnt) % self.n as u64) as usize;
        *cnt += 1;
        let op = self.spec.op;
        let mv = op.map_val(f.val);
        let mut retired: Option<(usize, i64)> = None;
        match self.spec.window {
            WindowSpec::LastN(cap) => {
                let ring = self.rings.entry(key).or_default();
                ring.push_back((mv, shard));
                if ring.len() > cap {
                    // Retire-on-expiry: refold every shard the eviction
                    // touched from the surviving ring contents.
                    let (_, evicted_shard) = ring.pop_front().expect("ring non-empty");
                    let refold = |s: usize, ring: &VecDeque<(i64, usize)>| {
                        ring.iter()
                            .filter(|&&(_, rs)| rs == s)
                            .fold(op.identity(), |a, &(v, _)| op.combine(a, v))
                    };
                    let nv = refold(shard, ring);
                    if evicted_shard != shard {
                        let ev = refold(evicted_shard, ring);
                        retired = Some((evicted_shard, ev));
                    }
                    self.accs.insert((key, shard), nv);
                    if let Some((s, v)) = retired {
                        self.accs.insert((key, s), v);
                    }
                } else {
                    let e = self
                        .accs
                        .entry((key, shard))
                        .or_insert_with(|| op.identity());
                    *e = op.combine(*e, mv);
                }
            }
            _ => {
                let e = self
                    .accs
                    .entry((key, shard))
                    .or_insert_with(|| op.identity());
                *e = op.combine(*e, mv);
            }
        }
        self.at_hw = f.at_ms;
        let marks = self.touched.entry(key).or_default();
        marks.insert(shard);
        if let Some((s, v)) = retired {
            marks.insert(s);
            self.write(s, key, v, false)?;
        }
        let v = self.accs[&(key, shard)];
        self.write(shard, key, v, true)?;
        self.drain_pushes()
    }
}

/// Runs `spec` over `facts` against `cluster`, blocking until the
/// stream is fully applied and the finals are exact.
///
/// The cluster's operator must implement the same monoid over `i64` as
/// `spec.op` (`sum`/`count` → `SumI64`, `min` → `MinI64`, `max` →
/// `MaxI64`); the engine folds its shard accumulators with `spec.op`
/// and the nodes fold shard values with the cluster's operator, so a
/// mismatch silently corrupts finals.
pub fn run<A>(cluster: &Cluster<A>, spec: &QuerySpec, facts: &[Fact]) -> io::Result<QueryRun>
where
    A: AggOp<Value = i64>,
{
    let mut d = Driver::new(cluster, spec, facts.len())?;
    for f in facts {
        d.process_fact(f)?;
    }

    // ---- Settlement ------------------------------------------------
    let keys: Vec<u32> = d.key_count.keys().copied().collect();
    // Pre-final snapshots: one last in-flight refinement per key before
    // the barrier, so consumers see where the answer stood at stream end.
    let snapshots = d.combine_keys(&keys)?;
    for (&key, &v) in keys.iter().zip(&snapshots) {
        d.emit(key, d.window_of(key), v, false);
    }
    cluster.quiesce();
    // Exact finals for the windows still open (every key, unless the
    // query tumbles and the key's last window already closed).
    let open: Vec<u32> = d.touched.keys().copied().collect();
    let values = d.combine_keys(&open)?;
    for (&key, &v) in open.iter().zip(&values) {
        d.emit_final(key, v);
    }

    let elapsed_ms = ms(d.start.elapsed());
    let mut firsts: Vec<f64> = d.first_partial_ms.values().copied().collect();
    firsts.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let pct = |q: f64| -> f64 {
        if firsts.is_empty() {
            0.0
        } else {
            firsts[((firsts.len() - 1) as f64 * q).round() as usize]
        }
    };
    let stats = RefineStats {
        elapsed_ms,
        first_partial_p50_ms: pct(0.50),
        first_partial_p99_ms: pct(0.99),
        t95_coverage_ms: d.t95_ms,
        partials_total: d.partials.len() as u64,
        pushes_rx: d.pushes_rx,
    };
    Ok(QueryRun {
        spec: spec.clone(),
        partials: d.partials,
        finals: d.finals,
        stats,
    })
}
