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
//! ## Retiring facts
//!
//! A window retires facts: a closed tumbling window, or the fact a
//! `last-N` window evicts. Which write retires them depends on the
//! operator's algebra ([`OpKind::is_group`]):
//!
//! * `sum`/`count` have an inverse. Accumulators are never reset; the
//!   engine keeps a per-key `retired` total, and every write to node 0
//!   carries `acc(key, 0) − retired`, so the tree's aggregate is
//!   exactly the open window (or the last N facts) for any reader. A
//!   closed window costs one node-0 write per key, an eviction at most
//!   one node-0 write in its fact's round.
//! * `min`/`max` do not. A closed window resets the key's touched
//!   shards to identity; an eviction refolds the expired fact's shard
//!   from the surviving ring and re-writes it.
//!
//! ## Visibility contract
//!
//! A write ack means "applied at that node"; the updates it caused may
//! still be on their way to the root (the paper promises strict
//! consistency only for sequential executions, causal otherwise). So
//! an exact read needs a **propagation barrier** first: every write
//! acked, then [`Cluster::quiesce`] — sufficient because the engine is
//! the cluster's only client and is blocked meanwhile. Nothing in the
//! engine waits on a timer. It writes in **rounds**: every write of a
//! round goes out before any ack is awaited, and the next round starts
//! only once all of them are acked. A fact is one round (with its
//! `last-N` retire write, if any), and so is a window boundary's whole
//! set of retire writes. Facts still go one at a time, so the engine is
//! a sequential client; after each fact's round it takes the pushes
//! that have already arrived and moves on.
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
//!    and the keys' retire writes in one write round. A key that only
//!    its priming push has refined is read once more before the
//!    barrier, a pre-final snapshot.
//! 3. **Settlement** — after the stream ends: one pre-final snapshot
//!    per key whose window is still open, the barrier, and its exact
//!    final.
//!
//! A key's window is open from its first fact in it until its final.
//! Only an open window is refined: a push that arrives while the key
//! has none (the one its retire write causes, say) is counted and
//! dropped, so every partial's `(key, window)` gets a final. The
//! subscriber connection is FIFO, so every push sent before a combine's
//! response is read — and emitted — before that response: no partial
//! of a window surfaces after the window's final.
//!
//! Every key therefore emits at least three partials (its priming push,
//! a pushed refinement or a pre-final snapshot, and a final), and
//! finals equal the sequential oracle exactly
//! ([`QueryRun::matches_oracle`]).

use crate::oracle::{oracle_finals, Final};
use crate::spec::{OpKind, QuerySpec, WindowSpec};
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

    /// Every verdict the run must pass over `facts`: finals equal the
    /// oracle, coverage and per-key refine seqs are monotone, and —
    /// when there were facts — every key emitted at least three
    /// partials (priming push, a refinement, final). The error
    /// names the first verdict that failed, as `oat-query-v1` spells it.
    pub fn verdict(&self, facts: &[Fact]) -> Result<(), String> {
        if !self.matches_oracle(facts) {
            return Err("oracle_match failed: a final differs from the sequential oracle".into());
        }
        if !self.coverage_monotone() {
            return Err("coverage_monotone failed: coverage fell between partials".into());
        }
        if !self.refine_seq_monotone() {
            return Err("refine_seq_monotone failed: a key's refine seq did not rise".into());
        }
        let min = self.min_partials_per_key();
        if !facts.is_empty() && min < 3 {
            return Err(format!(
                "min_partials_per_key failed: a key emitted {min} partials, fewer than 3"
            ));
        }
        Ok(())
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
    /// facts — since the stream began for a group operator, in the
    /// key's open window for `min`/`max` — which is the value every
    /// write to that shard carries (see [`Driver::written`]).
    accs: BTreeMap<(u32, usize), i64>,
    /// Group operators only: per key, the wrapping total of everything
    /// closed windows and `last-N` evictions retired, which node 0's
    /// writes subtract.
    retired: HashMap<u32, i64>,
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
            retired: HashMap::new(),
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

    /// The value a write of `key` to `shard` carries: the shard's
    /// accumulator, less — at node 0, where every read is made — what
    /// the key has retired, so the tree's aggregate is exactly the open
    /// window.
    fn written(&self, key: u32, shard: usize) -> i64 {
        let acc = self
            .accs
            .get(&(key, shard))
            .copied()
            .unwrap_or_else(|| self.spec.op.identity());
        match self.retired.get(&key) {
            Some(&r) if shard == 0 => acc.wrapping_sub(r),
            _ => acc,
        }
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

    /// Writes `(shard, key, value)` absolute values as one round: every
    /// write is submitted and its connection flushed before any ack is
    /// awaited, so the round costs one round trip, not one per write. A
    /// round writes no `(key, shard)` twice, and the next one starts
    /// only once this one is acked, so a shard sees each key's writes
    /// in order on its one FIFO connection. The ack waits are where the
    /// pushes of earlier facts get the time to arrive. `facts` counts
    /// the writes that carry a fact's contribution; refolds and window
    /// resets add no coverage.
    fn write_round(&mut self, writes: &[(usize, u32, i64)], facts: u64) -> io::Result<()> {
        for &(shard, key, value) in writes {
            self.writers[shard].submit_write_tree(Self::tree_of(key), value)?;
        }
        // A writer already flushed has nothing buffered: the repeat is free.
        for &(shard, ..) in writes {
            self.writers[shard].flush_retry()?;
        }
        // Writers hold no subscription, so every response is an ack of
        // this round; an unanswered write is re-driven under the armed
        // timeout and retry.
        for &(shard, ..) in writes {
            self.writers[shard].next_response()?;
        }
        self.acked += facts;
        if self.t95_ms.is_none() && self.acked as f64 / self.total as f64 >= 0.95 {
            self.t95_ms = Some(ms(self.start.elapsed()));
        }
        Ok(())
    }

    /// Emits one partial for a pushed refinement of a key whose window
    /// is open; a push between a key's final and its next fact (the one
    /// its retire write causes, say) refines no window and is dropped.
    fn on_push(&mut self, resp: Response<i64>) {
        if let Response::Partial { tree, value, .. } = resp {
            self.pushes_rx += 1;
            let key = tree - 1;
            if self.touched.contains_key(&key) {
                self.emit(key, self.window_of(key), value, false);
            }
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

    /// Ends every open window: a pre-final snapshot for each key of
    /// `snap` — where its answer stood when the window ended — then one
    /// shared propagation barrier and an exact final per key, returned
    /// in `touched`'s key order.
    fn end_windows(&mut self, snap: &[u32]) -> io::Result<Vec<i64>> {
        let snapshots = self.combine_keys(snap)?;
        for (&key, &v) in snap.iter().zip(&snapshots) {
            self.emit(key, self.window_of(key), v, false);
        }
        // The propagation barrier: every write is acked, so once the
        // cluster is quiet a combine at the root is the sequential fold
        // of everything written so far.
        self.cluster.quiesce();
        let keys: Vec<u32> = self.touched.keys().copied().collect();
        let values = self.combine_keys(&keys)?;
        for (&key, &v) in keys.iter().zip(&values) {
            self.emit_final(key, v);
        }
        Ok(values)
    }

    /// Closes every open tumbling window — the stream's clock has moved
    /// on — with [`Driver::end_windows`], then one write round that
    /// empties the keys' trees. A group operator cancels each closed
    /// window with one write at node 0 that subtracts the total the root
    /// just answered; `min`/`max` reset the key's touched shards to
    /// identity.
    fn close_windows(&mut self) -> io::Result<()> {
        // Only a key its priming push alone has refined gets a snapshot
        // before its final, so every key emits at least three partials
        // and a window whose pushes refined it costs no extra read.
        let thin: Vec<u32> = (self.touched.keys().copied())
            .filter(|key| self.refine_seq.get(key).is_none_or(|&n| n < 2))
            .collect();
        let finals = self.end_windows(&thin)?;
        // The keys leave `touched`: a key's next window opens with its
        // next fact.
        let closed = std::mem::take(&mut self.touched);
        let op = self.spec.op;
        let mut round = Vec::new();
        for ((key, shards), total) in closed.into_iter().zip(finals) {
            if op.is_group() {
                // Only node 0 reads, so this write updates no leased
                // edge: the window is gone from the tree at once.
                let r = self.retired.entry(key).or_insert(0);
                *r = r.wrapping_add(total);
                round.push((0, key, self.written(key, 0)));
            } else {
                for s in shards {
                    self.accs.insert((key, s), op.identity());
                    round.push((s, key, op.identity()));
                }
            }
        }
        self.write_round(&round, 0)
    }

    fn process_fact(&mut self, f: &Fact) -> io::Result<()> {
        let key = if self.spec.group_by_key { f.key } else { 0 };
        if let WindowSpec::Tumbling(width) = self.spec.window {
            let w = f.at_ms / width;
            if w > self.at_hw / width && !self.touched.is_empty() {
                self.close_windows()?;
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
        let acc = self.accs.entry((key, shard)).or_insert(op.identity());
        *acc = op.combine(*acc, mv);
        // A `last-N` eviction rewrites one more shard in the fact's round.
        let mut retire: Option<usize> = None;
        if let WindowSpec::LastN(cap) = self.spec.window {
            let ring = self.rings.entry(key).or_default();
            ring.push_back((mv, shard));
            if ring.len() > cap {
                let (expired, expired_shard) = ring.pop_front().expect("ring non-empty");
                if op.is_group() {
                    // Subtract-on-evict: node 0 cancels the expired value.
                    let r = self.retired.entry(key).or_insert(0);
                    *r = r.wrapping_add(expired);
                    retire = Some(0);
                } else {
                    // Retire-on-expiry: refold both shards the eviction
                    // touched from the surviving ring contents.
                    for s in [shard, expired_shard] {
                        let v = ring
                            .iter()
                            .filter(|&&(_, rs)| rs == s)
                            .fold(op.identity(), |a, &(v, _)| op.combine(a, v));
                        self.accs.insert((key, s), v);
                    }
                    retire = Some(expired_shard);
                }
            }
        }
        self.at_hw = f.at_ms;
        let fact = (shard, key, self.written(key, shard));
        match retire.filter(|&s| s != shard) {
            // The retire write goes to another shard, so the two share
            // one round; it is submitted first, so a push rarely shows
            // the new fact without the retirement.
            Some(s) => {
                self.touched.entry(key).or_default().extend([s, shard]);
                let retire = (s, key, self.written(key, s));
                self.write_round(&[retire, fact], 1)?;
            }
            None => {
                self.touched.entry(key).or_default().insert(shard);
                self.write_round(&[fact], 1)?;
            }
        }
        self.drain_pushes()
    }
}

/// Whether the cluster folds the monoid `op` names, judged by its
/// identity and two probe combines (one of them past `i64::MAX`, which
/// the `sum`/`count` retire writes rely on wrapping).
fn same_monoid<A: AggOp<Value = i64>>(cluster_op: &A, op: OpKind) -> bool {
    cluster_op.identity() == op.identity()
        && [(3, -5), (i64::MAX, 1)]
            .iter()
            .all(|&(a, b)| cluster_op.combine(&a, &b) == op.combine(a, b))
}

/// Runs `spec` over `facts` against `cluster`, blocking until the
/// stream is fully applied and the finals are exact.
///
/// The cluster's operator must implement the same monoid over `i64` as
/// `spec.op` (`sum`/`count` → `SumI64`, `min` → `MinI64`, `max` →
/// `MaxI64`): the engine folds its shard accumulators with `spec.op`
/// and the nodes fold shard values with the cluster's operator. A
/// mismatch is an `InvalidInput` error naming both operators.
pub fn run<A>(cluster: &Cluster<A>, spec: &QuerySpec, facts: &[Fact]) -> io::Result<QueryRun>
where
    A: AggOp<Value = i64>,
{
    if !same_monoid(cluster.op(), spec.op) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "query operator `{}` does not match the cluster's operator `{}`",
                spec.op.name(),
                cluster.op().name()
            ),
        ));
    }
    let mut d = Driver::new(cluster, spec, facts.len())?;
    for f in facts {
        d.process_fact(f)?;
    }

    // Settlement: every window still open ends with a pre-final
    // snapshot, so consumers see where each answer stood at stream end,
    // and nothing to retire.
    let open: Vec<u32> = d.touched.keys().copied().collect();
    d.end_windows(&open)?;

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

#[cfg(test)]
mod tests {
    use super::*;

    fn partial(refine_seq: u64, value: i64, coverage: f64, is_final: bool) -> PartialRecord {
        PartialRecord {
            key: 0,
            window: 0,
            refine_seq,
            value,
            coverage,
            last_write_seq: 0,
            staleness: 0,
            at_ms: 0,
            wall_ms: 0.0,
            is_final,
        }
    }

    #[test]
    fn verdict_requires_three_partials_per_key() {
        let facts = [
            Fact {
                key: 0,
                val: 5,
                at_ms: 0,
            },
            Fact {
                key: 0,
                val: 7,
                at_ms: 1,
            },
        ];
        let stats = RefineStats {
            elapsed_ms: 1.0,
            first_partial_p50_ms: 0.0,
            first_partial_p99_ms: 0.0,
            t95_coverage_ms: None,
            partials_total: 2,
            pushes_rx: 1,
        };
        // Key 0 was refined twice: a pushed partial, then its final.
        let mut run = QueryRun {
            spec: "sum".parse().unwrap(),
            partials: vec![partial(1, 5, 0.5, false), partial(2, 12, 1.0, true)],
            finals: vec![Final {
                key: 0,
                window: 0,
                value: 12,
            }],
            stats,
        };
        assert!(run.matches_oracle(&facts));
        assert!(run.coverage_monotone() && run.refine_seq_monotone());
        let err = run.verdict(&facts).unwrap_err();
        assert!(err.starts_with("min_partials_per_key"), "{err}");
        // With no facts there is no key to refine.
        run.finals.clear();
        assert_eq!(run.verdict(&[]), Ok(()));
        // A third refinement passes; a wrong final names the oracle.
        run.finals.push(Final {
            key: 0,
            window: 0,
            value: 12,
        });
        run.partials.insert(1, partial(2, 12, 1.0, false));
        run.partials[2].refine_seq = 3;
        assert_eq!(run.verdict(&facts), Ok(()));
        run.finals[0].value = 13;
        assert!(run.verdict(&facts).unwrap_err().starts_with("oracle_match"));
    }
}
