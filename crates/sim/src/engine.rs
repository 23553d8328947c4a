//! The simulated tree network.
//!
//! An [`Engine`] instantiates one [`MechNode`] per tree node and one FIFO
//! queue per directed edge (the paper's reliable FIFO channels). Drivers
//! initiate requests ([`Engine::initiate_combine`] /
//! [`Engine::initiate_write`]) and pump message deliveries
//! ([`Engine::deliver_next`], [`Engine::run_to_quiescence`]); the engine
//! records every sent message in [`MsgStats`].

use std::collections::VecDeque;

use oat_core::agg::AggOp;
use oat_core::fault::{EdgeFaults, FaultAction, FaultPlan, InjectedFaults};
use oat_core::mechanism::{CombineOutcome, MechNode, Outbox};
use oat_core::message::Message;
use oat_core::policy::PolicySpec;
use oat_core::tree::{NodeId, Tree};

use crate::schedule::{Schedule, SchedulerState};
use crate::stats::MsgStats;

/// One message delivery: the receiving node, any combine it completed
/// there, and the causal depth of the delivered message (1 = sent
/// directly by a request's initiation, `d+1` = sent while handling a
/// depth-`d` message). Depth is the hop count of the causal chain and
/// therefore the latency measure of the network model: a combine answered
/// by a depth-`d` response took `d` sequential hops.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery<V> {
    /// Node that sent the message.
    pub from: NodeId,
    /// Node that processed the message.
    pub node: NodeId,
    /// Kind of the delivered message.
    pub kind: oat_core::message::MsgKind,
    /// Value of a locally initiated combine that completed, if any.
    pub completed: Option<V>,
    /// Causal depth (hops) of the delivered message.
    pub depth: u32,
}

/// A simulated tree network running one lease-based algorithm.
///
/// ```
/// use oat_core::{agg::SumI64, policy::rww::RwwSpec, tree::{NodeId, Tree}};
/// use oat_sim::{Engine, Schedule};
///
/// let mut eng = Engine::new(Tree::path(3), SumI64, &RwwSpec, Schedule::Fifo, false);
/// eng.initiate_write(NodeId(2), 9);
/// eng.run_to_quiescence();             // writes are silent without leases
/// assert_eq!(eng.stats().total(), 0);
///
/// eng.initiate_combine(NodeId(0));     // cold read probes the tree
/// let done = eng.run_to_quiescence();
/// assert_eq!(done, vec![(NodeId(0), 9)]);
/// assert_eq!(eng.stats().total(), 4);  // 2 probes + 2 responses
/// ```
pub struct Engine<S: PolicySpec, A: AggOp> {
    tree: Tree,
    op: A,
    nodes: Vec<MechNode<S::Node, A>>,
    chans: Vec<VecDeque<(Message<A::Value>, u32)>>,
    /// One token per undelivered message, in global send order; each token
    /// names the directed edge whose channel head it refers to.
    ///
    /// Tokens consumed out of band (by [`Engine::deliver_from`] /
    /// [`Engine::drop_one`]) are deleted *lazily*: the edge's entry in
    /// `stale_tokens` is bumped instead of scanning the deque, and
    /// [`Engine::deliver_next`] skips that many tokens for the edge as it
    /// pops them. Removal is therefore O(1), which matters to the model
    /// checker — it delivers almost exclusively through `deliver_from`.
    tokens: VecDeque<usize>,
    /// Per-directed-edge count of tokens in `tokens` that refer to
    /// already-consumed messages (lazy deletions pending).
    stale_tokens: Vec<u64>,
    /// Undelivered messages: `tokens.len()` minus all pending deletions.
    live_tokens: usize,
    sched: SchedulerState,
    stats: MsgStats,
    scratch: Outbox<A::Value>,
    /// Maximum delivered depth since the last [`Engine::reset_depth_window`].
    window_max_depth: u32,
    /// Seeded fault injection, when armed via [`Engine::set_fault_plan`].
    /// `None` is the reliable network — the hot path pays one branch.
    faults: Option<SimFaults>,
}

/// Armed fault state: one decision stream per directed edge, plus the
/// ledger of everything injected so far.
struct SimFaults {
    streams: Vec<EdgeFaults>,
    ledger: InjectedFaults,
}

impl<S: PolicySpec, A: AggOp> Clone for Engine<S, A>
where
    S::Node: Clone,
{
    fn clone(&self) -> Self {
        Engine {
            tree: self.tree.clone(),
            op: self.op.clone(),
            nodes: self.nodes.clone(),
            chans: self.chans.clone(),
            tokens: self.tokens.clone(),
            stale_tokens: self.stale_tokens.clone(),
            live_tokens: self.live_tokens,
            sched: self.sched.clone(),
            stats: self.stats.clone(),
            scratch: Vec::new(),
            window_max_depth: self.window_max_depth,
            // The model checker (the only cloner) explores reliable
            // networks; an armed plan does not survive a clone.
            faults: None,
        }
    }
}

impl<S: PolicySpec, A: AggOp> Engine<S, A>
where
    S::Node: std::hash::Hash,
    A::Value: std::hash::Hash,
{
    /// Feeds the complete observable network state (every node's
    /// mechanism + policy + ghost state, and every channel's contents)
    /// into a hasher. Two engines with equal hashes behave identically
    /// under identical future inputs; the model checker uses this to
    /// deduplicate its state space. Message depths are included so
    /// latency-observable differences are not conflated.
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        for node in &self.nodes {
            node.hash_state(h);
        }
        for chan in &self.chans {
            chan.len().hash(h);
            for (msg, depth) in chan {
                msg.hash(h);
                depth.hash(h);
            }
        }
    }
}

impl<S: PolicySpec, A: AggOp> Engine<S, A> {
    /// Builds the network in the paper's initial state.
    ///
    /// `ghost` enables the Section-5 ghost logs (needed by the causal
    /// consistency checker; costs memory proportional to history length).
    pub fn new(tree: Tree, op: A, spec: &S, schedule: Schedule, ghost: bool) -> Self {
        let nodes = tree
            .nodes()
            .map(|u| MechNode::new(&tree, u, op.clone(), spec.build(tree.degree(u)), ghost))
            .collect();
        let chans = vec![VecDeque::new(); tree.num_dir_edges()];
        let stats = MsgStats::new(&tree);
        Engine {
            op,
            nodes,
            chans,
            tokens: VecDeque::new(),
            stale_tokens: vec![0; tree.num_dir_edges()],
            live_tokens: 0,
            sched: schedule.state(),
            stats,
            scratch: Vec::new(),
            window_max_depth: 0,
            faults: None,
            tree,
        }
    }

    /// Arms a seeded [`FaultPlan`]: subsequent deliveries consult the
    /// plan's per-directed-edge decision streams and may drop, duplicate,
    /// or delay messages *on the wire* — the mechanism underneath is not
    /// told, so the run demonstrates exactly what the paper's reliable
    /// FIFO assumption buys. The kill/crash schedules are transport
    /// concepts and are ignored here (the TCP runtime consumes them).
    /// An empty plan disarms injection entirely.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            self.faults = None;
            return;
        }
        let streams = (0..self.tree.num_dir_edges())
            .map(|e| {
                let (from, to) = self.tree.dir_edge(e);
                plan.edge_stream(from, to)
            })
            .collect();
        self.faults = Some(SimFaults {
            streams,
            ledger: InjectedFaults::default(),
        });
    }

    /// The injected-fault ledger, when a plan is armed.
    pub fn injected(&self) -> Option<&InjectedFaults> {
        self.faults.as_ref().map(|f| &f.ledger)
    }

    /// Pre-establishes leases in both directions on every edge (a valid
    /// warm quiescent state; models Astrolabe-style push-all operation).
    pub fn prewarm_leases(&mut self) {
        for node in &mut self.nodes {
            node.prewarm_leases();
        }
    }

    /// The topology.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Message counters so far.
    pub fn stats(&self) -> &MsgStats {
        &self.stats
    }

    /// The node automaton for `u`.
    pub fn node(&self, u: NodeId) -> &MechNode<S::Node, A> {
        &self.nodes[u.idx()]
    }

    /// Number of undelivered messages.
    pub fn in_flight(&self) -> usize {
        self.live_tokens
    }

    /// True when no message is in transit (conditions (1)/(2) of the
    /// paper's quiescent state; condition (3) is the driver's business).
    pub fn is_quiescent(&self) -> bool {
        self.live_tokens == 0
    }

    /// The true global aggregate over current local values — the value a
    /// strictly consistent combine must return (the oracle `f(A(σ,q))`).
    pub fn global_oracle(&self) -> A::Value {
        let mut x = self.op.identity();
        for node in &self.nodes {
            x = self.op.combine(&x, node.val());
        }
        x
    }

    /// Initiates a combine request at `u` (`T1`).
    pub fn initiate_combine(&mut self, u: NodeId) -> CombineOutcome<A::Value> {
        oat_obs::trace_event!(oat_obs::EventKind::SimInitiate, u.0, 0, 0);
        let outcome = {
            let node = &mut self.nodes[u.idx()];
            node.handle_combine(&mut self.scratch)
        };
        self.route_scratch(u, 1);
        outcome
    }

    /// Initiates a write request at `u` (`T2`).
    pub fn initiate_write(&mut self, u: NodeId, arg: A::Value) {
        oat_obs::trace_event!(oat_obs::EventKind::SimInitiate, u.0, 0, 1);
        {
            let node = &mut self.nodes[u.idx()];
            node.handle_write(arg, &mut self.scratch);
        }
        self.route_scratch(u, 1);
    }

    /// Maximum message depth delivered since the last reset — the hop
    /// latency of the busiest causal chain in the window.
    pub fn window_max_depth(&self) -> u32 {
        self.window_max_depth
    }

    /// Resets the depth window (typically at each request boundary).
    pub fn reset_depth_window(&mut self) {
        self.window_max_depth = 0;
    }

    /// Delivers the next message according to the schedule.
    ///
    /// `None` when no message is in flight.
    pub fn deliver_next(&mut self) -> Option<Delivery<A::Value>> {
        let mut deferrals = 0usize;
        let edge = loop {
            if self.live_tokens == 0 {
                return None;
            }
            let pos = self.sched.pick(self.tokens.len());
            let edge = if pos == 0 {
                self.tokens.pop_front().expect("tokens non-empty")
            } else {
                self.tokens
                    .swap_remove_back(pos)
                    .expect("token index in range")
            };
            // Skip tokens whose message was consumed out of band; for an
            // edge, the first token popped is its oldest, which is exactly
            // the message `deliver_from`/`drop_one` took — so lazy
            // deletion preserves per-edge FIFO alignment.
            if self.stale_tokens[edge] > 0 {
                self.stale_tokens[edge] -= 1;
                continue;
            }
            if let Some(f) = self.faults.as_mut() {
                use std::sync::atomic::Ordering::Relaxed;
                match f.streams[edge].next_action() {
                    FaultAction::Deliver => {}
                    FaultAction::Drop => {
                        // The popped token was this edge's oldest, so
                        // dropping the channel head keeps them aligned.
                        self.chans[edge].pop_front().expect("token implies message");
                        self.live_tokens -= 1;
                        f.ledger.drops.fetch_add(1, Relaxed);
                        continue;
                    }
                    FaultAction::Duplicate => {
                        // Clone the head in place and mint a token for
                        // it; the original is delivered now, the twin on
                        // a later pick. Stats are *not* recorded — the
                        // duplicate is a wire artifact, not a send.
                        let twin = self.chans[edge]
                            .front()
                            .cloned()
                            .expect("token implies message");
                        self.chans[edge].push_front(twin);
                        self.tokens.push_back(edge);
                        self.live_tokens += 1;
                        f.ledger.dups.fetch_add(1, Relaxed);
                    }
                    FaultAction::Delay if deferrals < self.live_tokens => {
                        // Defer the whole edge: its head stays put and
                        // the token goes to the back of the pick order,
                        // so per-edge FIFO is preserved.
                        deferrals += 1;
                        self.tokens.push_back(edge);
                        f.ledger.delays.fetch_add(1, Relaxed);
                        continue;
                    }
                    FaultAction::Delay => {
                        // Every live token has already been deferred
                        // during this pick (possible when delay_p is at
                        // or near 1.0): force delivery so the pick loop
                        // terminates. Not ledgered — no delay happened.
                    }
                }
            }
            break edge;
        };
        self.live_tokens -= 1;
        let (from, to) = self.tree.dir_edge(edge);
        let (msg, depth) = self.chans[edge]
            .pop_front()
            .expect("token implies pending message");
        self.window_max_depth = self.window_max_depth.max(depth);
        let kind = msg.kind();
        oat_obs::trace_event!(
            oat_obs::EventKind::SimDeliver,
            from.0,
            to.0,
            kind.index() as u64
        );
        let completed = {
            let node = &mut self.nodes[to.idx()];
            node.handle_message(from, msg, &mut self.scratch)
        };
        self.route_scratch(to, depth + 1);
        Some(Delivery {
            from,
            node: to,
            kind,
            completed,
            depth,
        })
    }

    /// Delivers messages until the network is quiescent; returns every
    /// `(node, value)` combine completion observed on the way.
    pub fn run_to_quiescence(&mut self) -> Vec<(NodeId, A::Value)> {
        let mut done = Vec::new();
        while let Some(d) = self.deliver_next() {
            if let Some(v) = d.completed {
                done.push((d.node, v));
            }
        }
        done
    }

    /// Directed edges with at least one undelivered message, in dense
    /// edge-index order. The model checker branches over these.
    pub fn nonempty_channels(&self) -> Vec<(NodeId, NodeId)> {
        self.chans
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(i, _)| self.tree.dir_edge(i))
            .collect()
    }

    /// Delivers the head message of the specific channel `from → to`
    /// (bypassing the schedule); `None` when that channel is empty.
    ///
    /// Per-channel FIFO order is preserved — this only overrides the
    /// *cross-channel* choice, which the network model leaves free.
    pub fn deliver_from(&mut self, from: NodeId, to: NodeId) -> Option<Delivery<A::Value>> {
        let edge = self.tree.dir_edge_index(from, to);
        let (msg, depth) = self.chans[edge].pop_front()?;
        // O(1) lazy token deletion: deliver_next skips one token for this
        // edge instead of us scanning the deque here.
        self.stale_tokens[edge] += 1;
        self.live_tokens -= 1;
        self.window_max_depth = self.window_max_depth.max(depth);
        let kind = msg.kind();
        let completed = {
            let node = &mut self.nodes[to.idx()];
            node.handle_message(from, msg, &mut self.scratch)
        };
        self.route_scratch(to, depth + 1);
        Some(Delivery {
            from,
            node: to,
            kind,
            completed,
            depth,
        })
    }

    /// Drops the oldest undelivered message on the directed edge
    /// `from → to` without delivering it; returns its kind, or `None`
    /// when nothing was in flight there.
    ///
    /// **Fault injection for tests only.** The paper's network model
    /// (Section 2) assumes reliable FIFO channels, and the mechanism's
    /// guarantees genuinely depend on it — the test suite uses this hook
    /// to demonstrate that a single lost `update` produces a stale
    /// (strict-consistency-violating) read.
    pub fn drop_one(&mut self, from: NodeId, to: NodeId) -> Option<oat_core::message::MsgKind> {
        let edge = self.tree.dir_edge_index(from, to);
        let (msg, _) = self.chans[edge].pop_front()?;
        self.stale_tokens[edge] += 1;
        self.live_tokens -= 1;
        Some(msg.kind())
    }

    /// Routes everything the last handler emitted, tagging each message
    /// with causal depth `depth`. Drains the outbox in place so its
    /// allocation is reused across handlers — the per-delivery hot path
    /// allocates nothing once the outbox has grown to the working size.
    fn route_scratch(&mut self, from: NodeId, depth: u32) {
        for (to, msg) in self.scratch.drain(..) {
            let edge = self.tree.dir_edge_index(from, to);
            self.stats.record(edge, msg.kind());
            self.tokens.push_back(edge);
            self.live_tokens += 1;
            self.chans[edge].push_back((msg, depth));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat_core::agg::SumI64;
    use oat_core::policy::rww::RwwSpec;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn combine_on_cold_path_probes_whole_tree() {
        // MDS-style first combine: probes flood to all n-1 other nodes and
        // responses flow back: 2(n-1) messages.
        let tree = Tree::path(5);
        let mut eng = Engine::new(tree, SumI64, &RwwSpec, Schedule::Fifo, false);
        for i in 0..5u32 {
            eng.initiate_write(n(i), i as i64 + 1);
        }
        assert!(eng.is_quiescent(), "writes without leases send nothing");
        let outcome = eng.initiate_combine(n(0));
        assert!(matches!(outcome, CombineOutcome::Pending));
        let done = eng.run_to_quiescence();
        assert_eq!(done, vec![(n(0), 15)]);
        assert_eq!(eng.stats().total(), 8, "4 probes + 4 responses");
    }

    #[test]
    fn second_combine_at_same_node_is_free() {
        let tree = Tree::path(4);
        let mut eng = Engine::new(tree, SumI64, &RwwSpec, Schedule::Fifo, false);
        eng.initiate_combine(n(0));
        eng.run_to_quiescence();
        let before = eng.stats().total();
        match eng.initiate_combine(n(0)) {
            CombineOutcome::Done(v) => assert_eq!(v, 0),
            o => panic!("expected local completion, got {o:?}"),
        }
        assert_eq!(eng.stats().total(), before, "leases answer locally");
    }

    #[test]
    fn write_after_combine_pushes_updates_down_lease_graph() {
        let tree = Tree::path(3);
        let mut eng = Engine::new(tree, SumI64, &RwwSpec, Schedule::Fifo, false);
        eng.initiate_combine(n(0));
        eng.run_to_quiescence();
        let before = eng.stats().total();
        eng.initiate_write(n(2), 9);
        eng.run_to_quiescence();
        // Update 2->1 then 1->0: 2 messages, no releases on first write.
        assert_eq!(eng.stats().total() - before, 2);
        match eng.initiate_combine(n(0)) {
            CombineOutcome::Done(v) => assert_eq!(v, 9),
            o => panic!("expected Done, got {o:?}"),
        }
    }

    #[test]
    fn prewarmed_engine_answers_combines_locally_everywhere() {
        let tree = Tree::star(6);
        let mut eng = Engine::new(tree, SumI64, &RwwSpec, Schedule::Fifo, false);
        eng.prewarm_leases();
        for i in 0..6u32 {
            match eng.initiate_combine(n(i)) {
                CombineOutcome::Done(v) => assert_eq!(v, 0),
                o => panic!("expected Done at {i}, got {o:?}"),
            }
        }
        assert_eq!(eng.stats().total(), 0);
    }

    #[test]
    fn empty_fault_plan_is_disarmed() {
        let mut eng = Engine::new(Tree::path(3), SumI64, &RwwSpec, Schedule::Fifo, false);
        eng.set_fault_plan(&oat_core::FaultPlan::default());
        assert!(eng.injected().is_none(), "empty plan must cost nothing");
        eng.initiate_combine(n(0));
        let done = eng.run_to_quiescence();
        assert_eq!(done, vec![(n(0), 0)]);
    }

    #[test]
    fn dropped_update_produces_a_stale_read() {
        // The reliable-FIFO assumption is load-bearing: establish leases,
        // then lose the update traffic on the wire and watch a combine
        // return a value that is not the global oracle.
        let mut eng = Engine::new(Tree::path(3), SumI64, &RwwSpec, Schedule::Fifo, false);
        eng.initiate_combine(n(0));
        eng.run_to_quiescence();
        let plan = oat_core::FaultPlan {
            seed: 1,
            drop_p: 1.0,
            ..Default::default()
        };
        eng.set_fault_plan(&plan);
        eng.initiate_write(n(2), 9);
        eng.run_to_quiescence();
        let ledger = eng.injected().expect("plan armed");
        assert!(ledger.snapshot().0 > 0, "updates were dropped");
        match eng.initiate_combine(n(0)) {
            CombineOutcome::Done(v) => {
                assert_eq!(v, 0, "stale: the dropped update never arrived");
                assert_ne!(v, eng.global_oracle(), "strict consistency violated");
            }
            o => panic!("leases held, expected local Done, got {o:?}"),
        }
    }

    #[test]
    fn delay_probability_one_still_terminates() {
        // Every pick draws Delay; the bounded-deferral rule must force
        // delivery after one full token cycle instead of livelocking
        // the pick loop. Delays only defer — nothing is lost — so the
        // combine still returns the oracle.
        let mut eng = Engine::new(Tree::kary(7, 2), SumI64, &RwwSpec, Schedule::Fifo, false);
        let plan = oat_core::FaultPlan {
            seed: 3,
            delay_p: 1.0,
            ..Default::default()
        };
        eng.set_fault_plan(&plan);
        eng.initiate_write(n(6), 5);
        eng.run_to_quiescence();
        eng.initiate_combine(n(0));
        let done = eng.run_to_quiescence();
        assert_eq!(done, vec![(n(0), 5)]);
        let (_, _, delays, _, _) = eng.injected().expect("plan armed").snapshot();
        assert!(delays > 0, "deferrals must be ledgered before the bound");
    }

    #[test]
    fn faulty_runs_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut eng = Engine::new(Tree::kary(7, 2), SumI64, &RwwSpec, Schedule::Fifo, false);
            let plan = oat_core::FaultPlan {
                seed,
                drop_p: 0.2,
                dup_p: 0.2,
                delay_p: 0.2,
                ..Default::default()
            };
            eng.set_fault_plan(&plan);
            for i in 0..7u32 {
                eng.initiate_write(n(i), i as i64);
                eng.run_to_quiescence();
                eng.initiate_combine(n(i % 3));
                eng.run_to_quiescence();
            }
            let led = eng.injected().unwrap().snapshot();
            (led, eng.stats().total())
        };
        let a = run(5);
        assert_eq!(a, run(5), "same seed, same injected faults");
        assert!(a.0 .0 + a.0 .1 + a.0 .2 > 0, "plan actually fired");
        assert_ne!(a, run(6), "different seed, different trajectory");
    }

    #[test]
    fn random_schedule_same_results_as_fifo_sequentially() {
        let tree = Tree::kary(7, 2);
        let mut results = Vec::new();
        for sched in [Schedule::Fifo, Schedule::Random(1), Schedule::Random(99)] {
            let mut eng = Engine::new(tree.clone(), SumI64, &RwwSpec, sched, false);
            eng.initiate_write(n(3), 100);
            eng.run_to_quiescence();
            eng.initiate_combine(n(6));
            let done = eng.run_to_quiescence();
            eng.initiate_write(n(4), 50);
            eng.run_to_quiescence();
            eng.initiate_combine(n(6));
            let done2 = eng.run_to_quiescence();
            results.push((done, done2, eng.stats().total()));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }
}
