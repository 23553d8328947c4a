//! The lease-based aggregation mechanism: Figure 1, transcribed.
//!
//! A [`MechNode`] is the per-node automaton of Figure 1 (with the ghost
//! actions of Figure 6 / Section 5.2 available behind a runtime switch).
//! It is transport-agnostic: the three entry points
//! [`MechNode::handle_combine`] (`T1`), [`MechNode::handle_write`] (`T2`)
//! and [`MechNode::handle_message`] (`T3`–`T6`) mutate local state and push
//! outgoing messages into a caller-provided [`Outbox`]; a driver (the
//! deterministic simulator in `oat-sim`, or real threads in
//! `oat-concurrent`) owns the channels.
//!
//! ## State (Figure 1, `var` block)
//!
//! | paper            | here                  |
//! |------------------|-----------------------|
//! | `taken[v]`       | `taken[vi]`           |
//! | `granted[v]`     | `granted[vi]`         |
//! | `aval[v]`        | `aval[vi]`            |
//! | `val`            | `val`                 |
//! | `uaw[v]`         | `uaw[vi]`, kept ascending |
//! | `pndg`           | `pndg`                |
//! | `snt[w]`         | `snt` (assoc. list keyed by requester node) |
//! | `upcntr`         | `upcntr`              |
//! | `sntupdates`     | `sntupdates[vi]`: one queue of `(rcvid, sntid)` per source `v` |
//!
//! where `vi` is the index of neighbour `v` in the node's sorted neighbour
//! list. `snt` is keyed by the *requesting* node (`snt[u] := …` in `T1`
//! indexes by the node itself), which is either the node or one of its
//! neighbours.
//!
//! ## The ledgers are monotone
//!
//! Figure 1 treats `uaw[v]` and `sntupdates` as sets and gives their
//! operations no cost. Two facts of the paper's model order them for
//! free, and every ledger operation here leans on that order so that a
//! handler costs `O(degree)` amortised however long a lease has stood:
//!
//! 1. **`uaw[vi]` is ascending.** Update ids from one neighbour are its
//!    `newid()` values, which increase, and channels are FIFO, so an
//!    append keeps the list sorted. `min(uaw[v])` is `first()` and
//!    `onrelease`'s "ids ≥ β" is a `partition_point` plus a front drain.
//! 2. **`sntupdates[vi]` is strictly increasing in both components,
//!    front to back.** `sntid` is our own `newid()`; `rcvid` increases
//!    for the reason above. So "`sntid` below the watermark" and
//!    "`rcvid < min(uaw[v])`" are both prefixes (pruned by `pop_front`),
//!    "`sntid ≥ min(S)`" is a suffix, and `β = argmin rcvid` over that
//!    suffix is its first entry.
//!
//! An id that arrives duplicated or out of order (only the simulator's
//! lossy scheduler does that; it is outside the paper's model) does not
//! break either invariant: it is inserted into `uaw[vi]` at its sorted
//! position, duplicates kept, and before its tuple is appended to
//! `sntupdates[vi]` every entry at the back whose `rcvid` is not below
//! the new one is popped. That pop loses nothing: the new entry is in
//! every `sntid`-suffix that contains an older one, so an older entry
//! with an equal or larger `rcvid` can never again be the `argmin` of a
//! suffix, nor the max-`sntid` stale representative. Every β answer is
//! therefore the one the flat ledger of Figure 1 gives on any delivery
//! order; the differential test in `mechanism/ledger_diff.rs` pins that
//! against the flat code kept verbatim. [`MechNode::ledger_ok`] audits
//! both invariants after every handler in debug builds.
//!
//! The policy stubs (underlined in the paper) are dispatched through
//! [`NodePolicy`].

use crate::agg::AggOp;
use crate::ghost::GhostState;
use crate::message::Message;
use crate::policy::NodePolicy;
use crate::tree::{NodeId, Tree};
use std::collections::VecDeque;

/// Buffer of outgoing `(destination, message)` pairs filled by handlers.
pub type Outbox<V> = Vec<(NodeId, Message<V>)>;

/// Result of initiating a combine request at a node (`T1`).
#[derive(Clone, Debug, PartialEq)]
pub enum CombineOutcome<V> {
    /// All neighbours hold leases toward us: answered locally with the
    /// global aggregate value (`T1` line 6).
    Done(V),
    /// Probes were sent; the combine completes later in `T4`.
    Pending,
    /// The node was already in `pndg`: this combine coalesces with the
    /// in-flight fan-out and completes together with it.
    Coalesced,
}

/// The per-node automaton of Figure 1.
pub struct MechNode<P: NodePolicy, A: AggOp> {
    id: NodeId,
    nbrs: Vec<NodeId>,
    op: A,
    // --- mechanism state (Figure 1 `var` block) ---
    val: A::Value,
    taken: Vec<bool>,
    granted: Vec<bool>,
    aval: Vec<A::Value>,
    uaw: Vec<Vec<u64>>,
    pndg: Vec<NodeId>,
    snt: Vec<(NodeId, Vec<NodeId>)>,
    upcntr: u64,
    /// Figure 1's `{node, rcvid, sntid}` records of forwarded updates,
    /// one queue of `(rcvid, sntid)` per source neighbour index, strictly
    /// increasing in both components front to back (module docs).
    sntupdates: Vec<VecDeque<(u64, u64)>>,
    /// Incarnation of this automaton (0 for the first). Outgoing probes
    /// carry it; responses echo the probe's epoch; `T4` discards
    /// responses whose echo does not match, so an answer addressed to a
    /// pre-crash incarnation can neither complete a fresh fan-out with a
    /// stale value nor plant a phantom `taken` lease that a later
    /// `forward_release` would spuriously release. Always 0 outside the
    /// crash-restarting TCP runtime.
    epoch: u64,
    /// Per neighbour: the epoch carried by the most recent probe received
    /// from it, echoed back in the eventual response. Constant within one
    /// peer incarnation (FIFO links deliver the peer's RESET before any
    /// post-restart probe).
    probe_epoch: Vec<u64>,
    /// Stale-epoch responses discarded by `T4` (diagnostic counter).
    stale_responses: u64,
    /// Per neighbour: a probe to it is in flight (sent, not answered).
    /// Figure 1 reads this off `snt` (`v ∈ sntprobes()`), and on a
    /// fault-free run the two agree; but a peer reset drops the reset
    /// peer's fan-out from `snt` while that fan-out's probes to other
    /// neighbours are still in flight, and a second probe sent beside
    /// one of them would be answered twice — a `release` crossing the
    /// second answer then leaves a lease taken at one end and not
    /// granted at the other.
    probing: Vec<bool>,
    /// Pruning watermark per neighbour `w`: every update id we sent to
    /// `w` *before* `watermark[w]` has been acknowledged (by a release
    /// from `w`, or because `w`'s lease was granted afresh with an empty
    /// `uaw`). A future `release(S)` from `w` therefore satisfies
    /// `min(S) ≥ watermark[w]`, so `sntupdates` tuples with `sntid`
    /// below every granted neighbour's watermark can never be consulted
    /// again. They are a prefix of every source queue and are popped from
    /// its front, which keeps the ledger bounded by what is still
    /// unacknowledged instead of by history. Pure optimisation: behaviour
    /// is unchanged (tested).
    watermark: Vec<u64>,
    // --- policy + ghost ---
    policy: P,
    ghost: Option<GhostState<A::Value>>,
}

impl<P: NodePolicy + Clone, A: AggOp> Clone for MechNode<P, A> {
    fn clone(&self) -> Self {
        MechNode {
            id: self.id,
            nbrs: self.nbrs.clone(),
            op: self.op.clone(),
            val: self.val.clone(),
            taken: self.taken.clone(),
            granted: self.granted.clone(),
            aval: self.aval.clone(),
            uaw: self.uaw.clone(),
            pndg: self.pndg.clone(),
            snt: self.snt.clone(),
            upcntr: self.upcntr,
            sntupdates: self.sntupdates.clone(),
            epoch: self.epoch,
            probe_epoch: self.probe_epoch.clone(),
            stale_responses: self.stale_responses,
            probing: self.probing.clone(),
            watermark: self.watermark.clone(),
            policy: self.policy.clone(),
            ghost: self.ghost.clone(),
        }
    }
}

impl<P: NodePolicy + std::hash::Hash, A: AggOp> MechNode<P, A>
where
    A::Value: std::hash::Hash,
{
    /// Feeds the complete node state (mechanism variables, policy state,
    /// and ghost log) into a hasher. Used by the model checker to
    /// deduplicate explored global states; two nodes with equal hashes
    /// behave identically for every future input (modulo negligible
    /// collision probability).
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.id.hash(h);
        self.val.hash(h);
        self.taken.hash(h);
        self.granted.hash(h);
        self.aval.hash(h);
        self.uaw.hash(h);
        self.pndg.hash(h);
        self.snt.hash(h);
        self.upcntr.hash(h);
        // In `sntid` order, as a flat `{node, rcvid, sntid}` list would
        // be: the state classes do not depend on the per-source layout.
        let mut tuples: Vec<(u64, usize, u64)> = self
            .sntupdates
            .iter()
            .enumerate()
            .flat_map(|(vi, q)| q.iter().map(move |&(rcvid, sntid)| (sntid, vi, rcvid)))
            .collect();
        tuples.sort_unstable();
        for (sntid, vi, rcvid) in tuples {
            (vi, rcvid, sntid).hash(h);
        }
        self.epoch.hash(h);
        self.probe_epoch.hash(h);
        self.probing.hash(h);
        self.watermark.hash(h);
        self.policy.hash(h);
        if let Some(g) = &self.ghost {
            g.completed.hash(h);
            g.log.hash(h);
        }
    }
}

impl<P: NodePolicy, A: AggOp> MechNode<P, A> {
    /// Creates the node `id` of `tree` with the given operator and policy
    /// state, in the paper's initial state (all leases down, identity
    /// values everywhere).
    pub fn new(tree: &Tree, id: NodeId, op: A, policy: P, ghost: bool) -> Self {
        let nbrs = tree.nbrs(id).to_vec();
        let k = nbrs.len();
        MechNode {
            id,
            op: op.clone(),
            val: op.identity(),
            taken: vec![false; k],
            granted: vec![false; k],
            aval: vec![op.identity(); k],
            uaw: vec![Vec::new(); k],
            watermark: vec![0; k],
            pndg: Vec::new(),
            snt: Vec::new(),
            upcntr: 0,
            sntupdates: vec![VecDeque::new(); k],
            epoch: 0,
            probe_epoch: vec![0; k],
            stale_responses: 0,
            probing: vec![false; k],
            policy,
            ghost: if ghost { Some(GhostState::new()) } else { None },
            nbrs,
        }
    }

    /// Pre-establishes leases in **both** directions on every incident
    /// edge, as if a probe/response pass had completed everywhere. This is
    /// a valid quiescent state (it satisfies Lemmas 3.1 and 3.2 globally
    /// when applied to all nodes) used to model Astrolabe-style push-all
    /// operation from time zero.
    pub fn prewarm_leases(&mut self) {
        for i in 0..self.nbrs.len() {
            self.taken[i] = true;
            self.granted[i] = true;
        }
        self.policy.on_prewarm();
    }

    // ---- small accessors used by drivers, checkers, and tests ----

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sorted neighbour list.
    pub fn nbrs(&self) -> &[NodeId] {
        &self.nbrs
    }

    /// The local value `val`.
    pub fn val(&self) -> &A::Value {
        &self.val
    }

    /// `taken[v]` by neighbour index.
    pub fn taken(&self, vi: usize) -> bool {
        self.taken[vi]
    }

    /// `granted[v]` by neighbour index.
    pub fn granted(&self, vi: usize) -> bool {
        self.granted[vi]
    }

    /// `aval[v]` by neighbour index.
    pub fn aval(&self, vi: usize) -> &A::Value {
        &self.aval[vi]
    }

    /// `uaw[v]` by neighbour index.
    pub fn uaw(&self, vi: usize) -> &[u64] {
        &self.uaw[vi]
    }

    /// The pending-requester set `pndg`.
    pub fn pndg(&self) -> &[NodeId] {
        &self.pndg
    }

    /// True when every `snt[w]` is empty (quiescence check, Lemma 3.4).
    pub fn snt_all_empty(&self) -> bool {
        self.snt.iter().all(|(_, s)| s.is_empty())
    }

    /// Current `sntupdates` ledger size (bounded-memory tests).
    pub fn sntupdates_len(&self) -> usize {
        self.sntupdates.iter().map(VecDeque::len).sum()
    }

    /// Self-audit of the two ledgers' ordering invariants (module docs):
    /// each `uaw[v]` ascending, each `sntupdates[v]` strictly increasing
    /// in both components, and no `sntid` beyond `upcntr`. Checked after
    /// every public handler in debug builds.
    pub fn ledger_ok(&self) -> Result<(), String> {
        for (vi, ids) in self.uaw.iter().enumerate() {
            if let Some(w) = ids.windows(2).find(|w| w[0] > w[1]) {
                return Err(format!(
                    "{}: uaw[{}] not ascending: {} before {}",
                    self.id, self.nbrs[vi], w[0], w[1]
                ));
            }
        }
        for (vi, q) in self.sntupdates.iter().enumerate() {
            let mut prev: Option<(u64, u64)> = None;
            for &(rcvid, sntid) in q {
                if prev.is_some_and(|(r, s)| r >= rcvid || s >= sntid) {
                    return Err(format!(
                        "{}: sntupdates[{}] not increasing: {prev:?} before ({rcvid}, {sntid})",
                        self.id, self.nbrs[vi]
                    ));
                }
                if sntid > self.upcntr {
                    return Err(format!(
                        "{}: sntupdates[{}] holds sntid {sntid} > upcntr {}",
                        self.id, self.nbrs[vi], self.upcntr
                    ));
                }
                prev = Some((rcvid, sntid));
            }
        }
        Ok(())
    }

    /// [`MechNode::ledger_ok`] as a debug assertion.
    fn debug_audit(&self) {
        debug_assert_eq!(self.ledger_ok(), Ok(()));
    }

    /// This automaton's incarnation number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the incarnation number. Call once, right after constructing
    /// the replacement automaton of a restarted node, with a value
    /// strictly greater than any previous incarnation's.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Responses discarded because they echoed a dead incarnation.
    pub fn stale_responses(&self) -> u64 {
        self.stale_responses
    }

    /// Immutable access to the policy state (for invariant checks).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Ghost state, when tracking is enabled.
    pub fn ghost(&self) -> Option<&GhostState<A::Value>> {
        self.ghost.as_ref()
    }

    /// Index of neighbour `v`; panics when not adjacent.
    pub fn nbr_index(&self, v: NodeId) -> usize {
        self.nbrs
            .binary_search(&v)
            .unwrap_or_else(|_| panic!("{v} is not a neighbour of {}", self.id))
    }

    // ---- Figure 1 helper functions ----

    /// `tkn()`: indices of neighbours with `taken` set.
    fn tkn(&self) -> Vec<usize> {
        (0..self.nbrs.len()).filter(|&i| self.taken[i]).collect()
    }

    /// `grntd()` is non-empty excluding `except`.
    fn grntd_nonempty_except(&self, except: Option<usize>) -> bool {
        self.granted
            .iter()
            .enumerate()
            .any(|(i, &g)| g && Some(i) != except)
    }

    /// `isgoodforrelease(w)`: `grntd() \ {w} = ∅`.
    fn is_good_for_release(&self, wi: usize) -> bool {
        !self.grntd_nonempty_except(Some(wi))
    }

    /// `newid()`.
    fn newid(&mut self) -> u64 {
        self.upcntr += 1;
        self.upcntr
    }

    /// `gval()`: the global aggregate as known locally.
    pub fn gval(&self) -> A::Value {
        let mut x = self.val.clone();
        for a in &self.aval {
            x = self.op.combine(&x, a);
        }
        x
    }

    /// `subval(w)`: aggregate over `subtree(self, w)` as known locally.
    pub fn subval(&self, wi: usize) -> A::Value {
        let mut x = self.val.clone();
        for (i, a) in self.aval.iter().enumerate() {
            if i != wi {
                x = self.op.combine(&x, a);
            }
        }
        x
    }

    /// Snapshot of the ghost write-log for piggy-backing, if enabled.
    fn wlog_snapshot(&self) -> Option<Vec<crate::ghost::WriteRec<A::Value>>> {
        self.ghost.as_ref().map(|g| g.wlog())
    }

    /// `sendprobes(w)`: mark `w` pending and probe every neighbour not
    /// already leased, probed (`v ∈ sntprobes()`, kept in `probing`), or
    /// equal to `w`.
    fn send_probes(&mut self, w: NodeId, out: &mut Outbox<A::Value>) {
        if !self.pndg.contains(&w) {
            self.pndg.push(w);
        }
        for (i, &v) in self.nbrs.iter().enumerate() {
            if self.taken[i] || v == w || self.probing[i] {
                continue;
            }
            self.probing[i] = true;
            out.push((v, Message::Probe { epoch: self.epoch }));
        }
    }

    /// `forwardupdates(w, id)`: push `subval` to every granted neighbour
    /// except `exclude`.
    fn forward_updates(&mut self, exclude: Option<usize>, id: u64, out: &mut Outbox<A::Value>) {
        let wlog = self.wlog_snapshot();
        for i in 0..self.nbrs.len() {
            if self.granted[i] && Some(i) != exclude {
                out.push((
                    self.nbrs[i],
                    Message::Update {
                        x: self.subval(i),
                        id,
                        wlog: wlog.clone(),
                    },
                ));
            }
        }
    }

    /// Drops `sntupdates` tuples that can no longer influence any future
    /// `onrelease`, in two provably-equivalent steps, each a `pop_front`
    /// loop because the tuples it drops are a prefix of a source queue:
    ///
    /// 1. **Watermark**: a future `release(S)` from `w` has
    ///    `min(S) ≥ watermark[w]`, so tuples with `sntid` below every
    ///    granted neighbour's watermark never match `A` again. With no
    ///    grants outstanding every queue clears.
    /// 2. **Stale-β collapse**: for a source `v`, tuples with
    ///    `rcvid < min(uaw[v])` all produce the same outcome when they
    ///    win the `β = argmin rcvid` race — "retain all of `uaw[v]`" —
    ///    and `min(uaw[v])` only grows over time. Keeping just the one
    ///    with the largest `sntid` (the most likely to qualify for
    ///    future `A` sets) preserves behaviour exactly; it is the last
    ///    stale entry of the queue, so the front goes while the *second*
    ///    entry is stale too.
    ///
    /// A call visits each source queue once and otherwise pays only for
    /// the tuples it drops, so it is `O(degree)` amortised whatever the
    /// ledger holds; the long-run tests pin the resulting size bound.
    fn prune_sntupdates(&mut self) {
        let min_watermark = (0..self.nbrs.len())
            .filter(|&i| self.granted[i])
            .map(|i| self.watermark[i])
            .min();
        let Some(wm) = min_watermark else {
            self.sntupdates.iter_mut().for_each(VecDeque::clear);
            return;
        };
        for (q, ids) in self.sntupdates.iter_mut().zip(&self.uaw) {
            while q.front().is_some_and(|&(_, sntid)| sntid < wm) {
                q.pop_front();
            }
            let min_uaw = ids.first().copied().unwrap_or(u64::MAX);
            while q.get(1).is_some_and(|&(rcvid, _)| rcvid < min_uaw) {
                q.pop_front();
            }
        }
    }

    /// `sendresponse(w)`: possibly grant a lease, then reply with
    /// `subval(w)` and the grant flag.
    fn send_response(&mut self, wi: usize, out: &mut Outbox<A::Value>) {
        // if (nbrs() \ {tkn() ∪ {w}} = ∅) → granted[w] := setlease(w)
        let others_all_taken = (0..self.nbrs.len()).all(|i| i == wi || self.taken[i]);
        if others_all_taken {
            let was = self.granted[wi];
            self.granted[wi] = self.policy.set_lease(wi);
            if self.granted[wi] {
                if !was {
                    oat_obs::trace_event!(
                        oat_obs::EventKind::LeaseSet,
                        self.id.0,
                        self.nbrs[wi].0,
                        0
                    );
                }
                // A fresh grant starts with an empty uaw at w: nothing
                // sent before now can come back in a release from w.
                self.watermark[wi] = self.upcntr + 1;
            }
        }
        out.push((
            self.nbrs[wi],
            Message::Response {
                x: self.subval(wi),
                flag: self.granted[wi],
                epoch: self.probe_epoch[wi],
                wlog: self.wlog_snapshot(),
            },
        ));
    }

    /// `forwardrelease()`: break and release every taken lease the policy
    /// wants to drop, provided no other grant pins it.
    fn forward_release(&mut self, out: &mut Outbox<A::Value>) {
        for vi in 0..self.nbrs.len() {
            if self.taken[vi] && self.is_good_for_release(vi) && self.policy.break_lease(vi) {
                self.taken[vi] = false;
                oat_obs::trace_event!(
                    oat_obs::EventKind::LeaseBreak,
                    self.id.0,
                    self.nbrs[vi].0,
                    0
                );
                let ids = std::mem::take(&mut self.uaw[vi]);
                out.push((self.nbrs[vi], Message::Release { ids }));
            }
        }
    }

    /// `β.rcvid` of `onrelease` for the source whose queue is `q`:
    /// `A = { α ∈ sntupdates : α.node = v ∧ α.sntid ≥ id }` is a suffix
    /// of `q`, and `β = argmin` over `A` of `rcvid` is its first entry.
    /// `None` when `A = ∅`.
    fn beta_rcvid(q: &VecDeque<(u64, u64)>, id_min: u64) -> Option<u64> {
        q.get(q.partition_point(|&(_, sntid)| sntid < id_min))
            .map(|&(rcvid, _)| rcvid)
    }

    /// `onrelease(w, S)`: trim `uaw` sets against the acknowledged update
    /// ids, consult the release policy, then try to cascade the release.
    ///
    /// `S` lists the update ids (in our id space) the releasing neighbour
    /// `w` never acknowledged; everything we forwarded to `w` with a
    /// smaller id was acknowledged — i.e. a combine/probe at `w`'s side
    /// cleared it, which counts as a read of those writes. For each other
    /// taken neighbour `v`, the surviving `uaw[v]` is therefore the ids
    /// received from `v` at or after `β.rcvid`, where `β` is the earliest
    /// still-unacknowledged forward originating from `v`; when no such
    /// forward exists (`A = ∅`), every update from `v` was acknowledged
    /// and `uaw[v]` empties.
    fn on_release(&mut self, wi: usize, s: &[u64], out: &mut Outbox<A::Value>) {
        // "Let id is the smallest id in S". An empty S (possible for
        // policies that break before any update flows) matches no tuples.
        let id_min = s.iter().copied().min().unwrap_or(u64::MAX);
        for vi in 0..self.nbrs.len() {
            if vi == wi || !self.taken[vi] {
                continue;
            }
            let ids = &mut self.uaw[vi];
            match Self::beta_rcvid(&self.sntupdates[vi], id_min) {
                // S' = ids in uaw[v] with id ≥ β.rcvid
                Some(beta) => {
                    let acked = ids.partition_point(|&x| x < beta);
                    ids.drain(..acked);
                }
                None => ids.clear(),
            }
            if self.is_good_for_release(vi) {
                self.policy.release_policy(vi, self.uaw[vi].len());
            }
        }
        self.forward_release(out);
    }

    // ---- transitions T1–T6 ----

    /// `T1`: a combine request is initiated at this node.
    pub fn handle_combine(&mut self, out: &mut Outbox<A::Value>) -> CombineOutcome<A::Value> {
        let outcome = self.t1_combine(out);
        self.debug_audit();
        outcome
    }

    fn t1_combine(&mut self, out: &mut Outbox<A::Value>) -> CombineOutcome<A::Value> {
        let tkn = self.tkn();
        self.policy.on_combine(&tkn);
        for &v in &tkn {
            self.uaw[v].clear();
        }
        if self.pndg.contains(&self.id) {
            return CombineOutcome::Coalesced;
        }
        let all_taken = tkn.len() == self.nbrs.len();
        if all_taken {
            let g = self.gval();
            if let Some(gh) = self.ghost.as_mut() {
                gh.append_local_combine(self.id, g.clone());
            }
            CombineOutcome::Done(g)
        } else {
            // sendprobes(u); snt[u] := nbrs() \ tkn()
            self.send_probes(self.id, out);
            let missing: Vec<NodeId> = self
                .nbrs
                .iter()
                .enumerate()
                .filter(|&(i, _)| !self.taken[i])
                .map(|(_, &v)| v)
                .collect();
            self.set_snt(self.id, missing);
            CombineOutcome::Pending
        }
    }

    /// `T2`: a write request with argument `arg` executes at this node.
    pub fn handle_write(&mut self, arg: A::Value, out: &mut Outbox<A::Value>) {
        self.val = arg.clone();
        if let Some(gh) = self.ghost.as_mut() {
            gh.append_local_write(self.id, arg);
        }
        self.policy.on_local_write();
        if self.grntd_nonempty_except(None) {
            let id = self.newid();
            self.forward_updates(None, id, out);
        }
        self.debug_audit();
    }

    /// `T3`–`T6`: a message arrives from neighbour `from`.
    ///
    /// Returns `Some(value)` when a locally initiated combine completes
    /// during this step (`T4`, `v = u` branch).
    pub fn handle_message(
        &mut self,
        from: NodeId,
        msg: Message<A::Value>,
        out: &mut Outbox<A::Value>,
    ) -> Option<A::Value> {
        let wi = self.nbr_index(from);
        let completed = match msg {
            Message::Probe { epoch } => {
                self.probe_epoch[wi] = epoch;
                self.t3_probe(from, wi, out);
                None
            }
            Message::Response {
                x,
                flag,
                epoch,
                wlog,
            } => {
                // Probe-epoch guard: an answer to a dead incarnation's
                // probe must not touch the fresh automaton — accepting it
                // could double-count the fan-out answer (the live re-probe
                // is also answered) or plant a phantom `taken` lease whose
                // eventual break would be a spurious `release`.
                if epoch != self.epoch {
                    self.stale_responses += 1;
                    oat_obs::trace_event!(oat_obs::EventKind::StaleDrop, self.id.0, from.0, epoch);
                    None
                } else {
                    self.t4_response(from, wi, x, flag, wlog, out)
                }
            }
            Message::Update { x, id, wlog } => {
                self.t5_update(wi, x, id, wlog, out);
                None
            }
            Message::Release { ids } => {
                self.t6_release(wi, &ids, out);
                None
            }
        };
        self.debug_audit();
        completed
    }

    /// `T3`: probe received from `w`.
    fn t3_probe(&mut self, w: NodeId, wi: usize, out: &mut Outbox<A::Value>) {
        let tkn = self.tkn();
        self.policy.on_probe_rcvd(wi, &tkn);
        for &v in &tkn {
            if v != wi {
                self.uaw[v].clear();
            }
        }
        if self.pndg.contains(&w) {
            return;
        }
        // B = nbrs() \ { tkn() ∪ {w} }
        let b: Vec<NodeId> = self
            .nbrs
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.taken[i] && i != wi)
            .map(|(_, &v)| v)
            .collect();
        if b.is_empty() {
            self.send_response(wi, out);
        } else {
            self.send_probes(w, out);
            self.set_snt(w, b);
        }
    }

    /// `T4`: response received from `w`.
    fn t4_response(
        &mut self,
        w: NodeId,
        wi: usize,
        x: A::Value,
        flag: bool,
        wlog: Option<Vec<crate::ghost::WriteRec<A::Value>>>,
        out: &mut Outbox<A::Value>,
    ) -> Option<A::Value> {
        self.policy.on_response_rcvd(flag, wi);
        self.probing[wi] = false;
        self.aval[wi] = x;
        if let (Some(gh), Some(wl)) = (self.ghost.as_mut(), wlog.as_ref()) {
            gh.merge_wlog(wl);
        }
        if flag && !self.taken[wi] {
            oat_obs::trace_event!(oat_obs::EventKind::LeaseTaken, self.id.0, w.0, 0);
        }
        self.taken[wi] = flag;

        let mut completed_local = None;
        // foreach v ∈ pndg: snt[v] := snt[v] \ {w}; if snt[v] = ∅ → …
        let pndg_snapshot = self.pndg.clone();
        for v in pndg_snapshot {
            let emptied = {
                let entry = self.snt_mut(v);
                if let Some(set) = entry {
                    set.retain(|&x| x != w);
                    set.is_empty()
                } else {
                    false
                }
            };
            if emptied {
                self.pndg.retain(|&p| p != v);
                self.snt.retain(|(k, _)| *k != v);
                if v == self.id {
                    let g = self.gval();
                    if let Some(gh) = self.ghost.as_mut() {
                        gh.append_local_combine(self.id, g.clone());
                    }
                    completed_local = Some(g);
                } else {
                    let vi = self.nbr_index(v);
                    self.send_response(vi, out);
                }
            }
        }
        completed_local
    }

    /// `T5`: update received from `w`.
    fn t5_update(
        &mut self,
        wi: usize,
        x: A::Value,
        id: u64,
        wlog: Option<Vec<crate::ghost::WriteRec<A::Value>>>,
        out: &mut Outbox<A::Value>,
    ) {
        let lone = !self.grntd_nonempty_except(Some(wi));
        self.policy.on_update_rcvd(wi, lone);
        self.aval[wi] = x;
        if let (Some(gh), Some(wl)) = (self.ghost.as_mut(), wlog.as_ref()) {
            gh.merge_wlog(wl);
        }
        // Ascending; off the FIFO model a late or repeated id goes to its
        // sorted position.
        let ids = &mut self.uaw[wi];
        if ids.last().is_some_and(|&last| last > id) {
            ids.insert(ids.partition_point(|&x| x <= id), id);
        } else {
            ids.push(id);
        }
        if !lone {
            let nid = self.newid();
            // Entries the new one supersedes (module docs); none on FIFO.
            let q = &mut self.sntupdates[wi];
            while q.back().is_some_and(|&(rcvid, _)| rcvid >= id) {
                q.pop_back();
            }
            q.push_back((id, nid));
            self.forward_updates(Some(wi), nid, out);
            self.prune_sntupdates();
        } else {
            self.forward_release(out);
        }
    }

    /// `T6`: release received from `w`.
    fn t6_release(&mut self, wi: usize, ids: &[u64], out: &mut Outbox<A::Value>) {
        self.policy.on_release_rcvd(wi);
        if self.granted[wi] {
            oat_obs::trace_event!(
                oat_obs::EventKind::LeaseBreak,
                self.id.0,
                self.nbrs[wi].0,
                0
            );
        }
        self.granted[wi] = false;
        self.on_release(wi, ids, out);
        // Everything sent to w so far is now acknowledged.
        self.watermark[wi] = self.upcntr + 1;
        self.prune_sntupdates();
    }

    // ---- crash-recovery transitions (not in Figure 1) ----
    //
    // Figure 1 assumes immortal nodes on reliable FIFO channels. When a
    // node crashes and restarts with a fresh automaton (only `val` is
    // durable), its neighbours hold lease state the restarted peer no
    // longer remembers, and — transitively — every cached aggregate that
    // includes the crashed node's subtree is no longer refreshed. The two
    // transitions below restore the mechanism's invariants: a RESET from
    // the restarted peer clears the shared edge in both directions, and a
    // REVOKE cascade tears down exactly the grants whose cached `subval`
    // contains the crashed subtree (grants pointing *away* from the
    // crash). Leases are a performance device, never a correctness one,
    // so tearing them down is always safe; re-probing rebuilds them.

    /// Peer `from` crashed and restarted with a fresh automaton.
    ///
    /// Clears both directions of the shared edge (the peer forgot every
    /// lease, probe, and update id on it), purges bookkeeping tied to the
    /// peer's old update-id space, and un-stalls pending combine chains:
    /// any fan-out still waiting on (or having already consumed) the
    /// peer's answer gets `from` re-added to its `snt` set and a fresh
    /// probe, because the pre-crash answer no longer reflects a held
    /// lease and the cached `aval` was cleared.
    ///
    /// Returns the neighbours whose grants became unsound (their cached
    /// aggregate includes the peer's subtree): the driver must deliver a
    /// revoke — [`MechNode::handle_revoke`] — to each.
    pub fn handle_peer_reset(&mut self, from: NodeId, out: &mut Outbox<A::Value>) -> Vec<NodeId> {
        let wi = self.nbr_index(from);
        // Both directions of the shared edge are void: the peer forgot
        // the lease it granted us and the one it took from us.
        if self.taken[wi] || self.granted[wi] {
            oat_obs::trace_event!(oat_obs::EventKind::LeaseBreak, self.id.0, from.0, 0);
        }
        self.taken[wi] = false;
        self.granted[wi] = false;
        self.aval[wi] = self.op.identity();
        self.uaw[wi].clear();
        // Tuples recording forwards of the peer's updates reference its
        // old id space; no future release can match them.
        self.sntupdates[wi].clear();
        self.watermark[wi] = self.upcntr + 1;
        self.prune_sntupdates();
        // The peer forgot it probed us: drop its pending fan-out. Its
        // client will retry and re-probe through a fresh `T1`/`T3`.
        self.pndg.retain(|&p| p != from);
        self.snt.retain(|(k, _)| *k != from);
        // Grants to other neighbours cache a subtree aggregate that
        // includes the peer's side and will no longer be refreshed.
        let revoke = self.revoke_grants_except(wi);
        // Re-fetch the peer's subtree value for every still-pending
        // fan-out: whether its response was still outstanding (the crash
        // dropped it) or already consumed (the crash voided it), the
        // completion reads `aval[wi]`, which we just reset.
        let mut need_probe = false;
        for (_, set) in &mut self.snt {
            if !set.contains(&from) {
                set.push(from);
            }
            need_probe = true;
        }
        // The peer forgot any probe we sent it, too.
        self.probing[wi] = need_probe;
        if need_probe {
            out.push((from, Message::Probe { epoch: self.epoch }));
        }
        self.debug_audit();
        revoke
    }

    /// Neighbour `from` can no longer honour the lease we hold on it
    /// (its own cached inputs were voided by a crash behind it).
    ///
    /// Drops `taken[from]` and answers with a normal `release` carrying
    /// `uaw[from]`, so the granter's ledger bookkeeping runs through the
    /// ordinary `T6` path; then cascades to our own now-unsound grants.
    /// Returns the neighbours the driver must forward the revoke to.
    pub fn handle_revoke(&mut self, from: NodeId, out: &mut Outbox<A::Value>) -> Vec<NodeId> {
        let wi = self.nbr_index(from);
        if self.taken[wi] {
            self.taken[wi] = false;
            let ids = std::mem::take(&mut self.uaw[wi]);
            out.push((from, Message::Release { ids }));
        }
        self.debug_audit();
        self.revoke_grants_except(wi)
    }

    /// Involuntarily drops every grant except toward `wi` (whose cached
    /// aggregate excludes the invalidated subtree and stays sound).
    /// Returns the former grantees, who must each be sent a revoke.
    fn revoke_grants_except(&mut self, wi: usize) -> Vec<NodeId> {
        let mut targets = Vec::new();
        for j in 0..self.nbrs.len() {
            if j != wi && self.granted[j] {
                self.granted[j] = false;
                self.policy.on_release_rcvd(j);
                oat_obs::trace_event!(
                    oat_obs::EventKind::LeaseRevoke,
                    self.id.0,
                    self.nbrs[j].0,
                    0
                );
                targets.push(self.nbrs[j]);
            }
        }
        targets
    }

    // ---- snt association-list plumbing ----

    fn set_snt(&mut self, key: NodeId, val: Vec<NodeId>) {
        if let Some(entry) = self.snt.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = val;
        } else {
            self.snt.push((key, val));
        }
    }

    fn snt_mut(&mut self, key: NodeId) -> Option<&mut Vec<NodeId>> {
        self.snt.iter_mut().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod ledger_diff;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::SumI64;
    use crate::policy::rww::RwwSpec;
    use crate::policy::PolicySpec;
    use crate::tree::Tree;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn node(tree: &Tree, id: u32) -> MechNode<crate::policy::rww::RwwNode, SumI64> {
        MechNode::new(
            tree,
            n(id),
            SumI64,
            RwwSpec.build(tree.degree(n(id))),
            false,
        )
    }

    #[test]
    fn single_node_combine_is_local() {
        let t = Tree::from_edges(1, &[]).unwrap();
        let mut u = node(&t, 0);
        let mut out = Vec::new();
        u.handle_write(42, &mut out);
        assert!(out.is_empty(), "write with no grants sends nothing");
        match u.handle_combine(&mut out) {
            CombineOutcome::Done(v) => assert_eq!(v, 42),
            other => panic!("expected Done, got {other:?}"),
        }
        assert!(out.is_empty());
    }

    #[test]
    fn combine_without_lease_probes() {
        let t = Tree::pair();
        let mut u = node(&t, 0);
        let mut out = Vec::new();
        assert_eq!(u.handle_combine(&mut out), CombineOutcome::Pending);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, n(1));
        assert_eq!(out[0].1.kind(), crate::message::MsgKind::Probe);
        assert_eq!(u.pndg(), &[n(0)]);
    }

    #[test]
    fn probe_at_leaf_grants_and_responds() {
        let t = Tree::pair();
        let mut v = node(&t, 1);
        let mut out = Vec::new();
        v.handle_write(7, &mut out);
        v.handle_message(n(0), Message::Probe { epoch: 0 }, &mut out);
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            Message::Response { x, flag, .. } => {
                assert_eq!(*x, 7);
                assert!(*flag, "RWW setlease always grants");
            }
            m => panic!("expected response, got {m:?}"),
        }
        assert!(v.granted(0));
    }

    #[test]
    fn full_probe_response_roundtrip_on_pair() {
        let t = Tree::pair();
        let mut u = node(&t, 0);
        let mut v = node(&t, 1);
        let mut out = Vec::new();

        v.handle_write(5, &mut out);
        assert!(out.is_empty());

        // combine at u: probe u -> v
        assert_eq!(u.handle_combine(&mut out), CombineOutcome::Pending);
        let (to, probe) = out.pop().unwrap();
        assert_eq!(to, n(1));

        // v answers with a response granting the lease
        v.handle_message(n(0), probe, &mut out);
        let (to, resp) = out.pop().unwrap();
        assert_eq!(to, n(0));

        // u completes the combine
        let done = u.handle_message(n(1), resp, &mut out);
        assert_eq!(done, Some(5));
        assert!(out.is_empty());
        assert!(u.taken(0), "u took the lease");
        assert!(u.pndg().is_empty());
        assert!(u.snt_all_empty());
    }

    #[test]
    fn write_pushes_update_along_lease_then_two_writes_release() {
        let t = Tree::pair();
        let mut u = node(&t, 0);
        let mut v = node(&t, 1);
        let mut out = Vec::new();

        // Establish the lease v -> u ... (u takes from v) via a combine at u.
        u.handle_combine(&mut out);
        let (_, probe) = out.pop().unwrap();
        v.handle_message(n(0), probe, &mut out);
        let (_, resp) = out.pop().unwrap();
        u.handle_message(n(1), resp, &mut out);
        assert!(v.granted(0));

        // First write at v: one update v -> u, no release yet.
        v.handle_write(10, &mut out);
        let (to, upd) = out.pop().unwrap();
        assert_eq!(to, n(0));
        assert!(out.is_empty());
        u.handle_message(n(1), upd, &mut out);
        assert!(out.is_empty(), "RWW tolerates one write");
        assert_eq!(u.aval(0), &10);

        // Second write at v: update then release u -> v.
        v.handle_write(20, &mut out);
        let (_, upd) = out.pop().unwrap();
        u.handle_message(n(1), upd, &mut out);
        let (to, rel) = out.pop().unwrap();
        assert_eq!(to, n(1));
        match &rel {
            Message::Release { ids } => assert_eq!(ids.len(), 2),
            m => panic!("expected release, got {m:?}"),
        }
        assert!(!u.taken(0));
        v.handle_message(n(0), rel, &mut out);
        assert!(!v.granted(0), "lease broken after two writes");
        assert!(out.is_empty());
    }

    #[test]
    fn prewarm_sets_symmetric_leases() {
        let t = Tree::path(3);
        let mut m = node(&t, 1);
        m.prewarm_leases();
        assert!(m.taken(0) && m.taken(1));
        assert!(m.granted(0) && m.granted(1));
        // A combine is now local.
        let mut out = Vec::new();
        match m.handle_combine(&mut out) {
            CombineOutcome::Done(v) => assert_eq!(v, 0),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn peer_reset_clears_edge_and_reprobes_pending_fanout() {
        let t = Tree::path(3); // 0 - 1 - 2
        let mut m = node(&t, 1);
        let mut out = Vec::new();

        // Combine at 1 probes both neighbours.
        assert_eq!(m.handle_combine(&mut out), CombineOutcome::Pending);
        assert_eq!(out.len(), 2);
        out.clear();

        // 2's response arrives and grants; 0 is still outstanding.
        m.handle_message(
            n(2),
            Message::Response {
                x: 7,
                flag: true,
                epoch: 0,
                wlog: None,
            },
            &mut out,
        );
        assert!(m.taken(1));
        assert_eq!(m.aval(1), &7);

        // 2 crashes and restarts: its edge state is void, and the
        // pending fan-out must re-fetch its subtree value.
        let revoke = m.handle_peer_reset(n(2), &mut out);
        assert!(revoke.is_empty(), "no grants yet, nothing to revoke");
        assert!(!m.taken(1));
        assert_eq!(m.aval(1), &0, "cached aggregate reset to identity");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, n(2));
        assert_eq!(out[0].1.kind(), crate::message::MsgKind::Probe);
        out.clear();

        // Fresh responses from both sides now complete the combine with
        // post-crash values only.
        m.handle_message(
            n(2),
            Message::Response {
                x: 3,
                flag: true,
                epoch: 0,
                wlog: None,
            },
            &mut out,
        );
        let done = m.handle_message(
            n(0),
            Message::Response {
                x: 10,
                flag: true,
                epoch: 0,
                wlog: None,
            },
            &mut out,
        );
        assert_eq!(done, Some(13));
        assert!(m.pndg().is_empty());
        assert!(m.snt_all_empty());
    }

    #[test]
    fn peer_reset_keeps_the_dropped_fan_out_s_probes_in_flight() {
        let t = Tree::path(3); // 0 - 1 - 2
        let mut m = node(&t, 1);
        let mut out = Vec::new();
        let probe = |epoch| Message::Probe { epoch };
        let response = |x| Message::Response {
            x,
            flag: true,
            epoch: 0,
            wlog: None,
        };

        // 0 probes 1, which fans out to 2.
        m.handle_message(n(0), probe(0), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        // 0 restarts: its fan-out is dropped, but the probe to 2 is
        // still in flight. 0's fresh incarnation probes again: 1 must
        // wait for the answer already on its way, not probe 2 a second
        // time — two answers to one edge let a release (of the lease
        // the first grants) cross the second grant.
        m.handle_peer_reset(n(0), &mut out);
        assert!(out.is_empty());
        m.handle_message(n(0), probe(1), &mut out);
        assert!(out.is_empty(), "a second probe to 2: {out:?}");
        // The one answer completes the fresh fan-out, under 0's new epoch.
        m.handle_message(n(2), response(5), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], (v, Message::Response { x: 5, epoch: 1, .. }) if v == n(0)));
    }

    #[test]
    fn peer_reset_revokes_grants_and_revoke_cascades() {
        let t = Tree::path(3); // 0 - 1 - 2
        let mut m = node(&t, 1);
        let mut out = Vec::new();

        // Probe from 0 while 2 is leased: 1 fans out to 2, gets the
        // grant, then grants 0 — now granted[0] caches subval(0) which
        // includes 2's subtree.
        m.handle_message(n(0), Message::Probe { epoch: 0 }, &mut out);
        out.clear();
        m.handle_message(
            n(2),
            Message::Response {
                x: 5,
                flag: true,
                epoch: 0,
                wlog: None,
            },
            &mut out,
        );
        assert!(m.granted(0), "1 granted node 0's probe");
        out.clear();

        // 2 crashes: the grant to 0 is unsound and must be revoked.
        let revoke = m.handle_peer_reset(n(2), &mut out);
        assert_eq!(revoke, vec![n(0)]);
        assert!(!m.granted(0));
        assert!(!m.taken(1));

        // The taker side of a revoke releases through the normal path
        // and cascades to its own grants (none here).
        let mut taker = node(&t, 1);
        let mut out2 = Vec::new();
        taker.handle_combine(&mut out2);
        out2.clear();
        taker.handle_message(
            n(0),
            Message::Response {
                x: 1,
                flag: true,
                epoch: 0,
                wlog: None,
            },
            &mut out2,
        );
        taker.handle_message(
            n(2),
            Message::Response {
                x: 2,
                flag: true,
                epoch: 0,
                wlog: None,
            },
            &mut out2,
        );
        assert!(taker.taken(0));
        out2.clear();
        let next = taker.handle_revoke(n(0), &mut out2);
        assert!(next.is_empty());
        assert!(!taker.taken(0));
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].0, n(0));
        assert_eq!(out2[0].1.kind(), crate::message::MsgKind::Release);
    }

    #[test]
    fn peer_reset_is_idempotent_and_drops_peer_fanout() {
        let t = Tree::pair();
        let mut v = node(&t, 1);
        let mut out = Vec::new();
        // 0 probes 1 (leaf): 1 grants and responds.
        v.handle_message(n(0), Message::Probe { epoch: 0 }, &mut out);
        assert!(v.granted(0));
        out.clear();
        let r1 = v.handle_peer_reset(n(0), &mut out);
        assert!(
            r1.is_empty(),
            "grant toward the resetting peer is dropped, not revoked"
        );
        assert!(!v.granted(0));
        assert!(out.is_empty(), "no pending fan-out, no re-probe");
        let r2 = v.handle_peer_reset(n(0), &mut out);
        assert!(r2.is_empty() && out.is_empty(), "reset is idempotent");
        assert!(v.pndg().is_empty() && v.snt_all_empty());
    }

    #[test]
    fn coalesced_combine_while_pending() {
        let t = Tree::pair();
        let mut u = node(&t, 0);
        let mut out = Vec::new();
        assert_eq!(u.handle_combine(&mut out), CombineOutcome::Pending);
        out.clear();
        assert_eq!(u.handle_combine(&mut out), CombineOutcome::Coalesced);
        assert!(out.is_empty(), "no duplicate probes for coalesced combine");
    }

    /// The exact post-crash duplicate-response interleaving the probe
    /// epochs close (ISSUE 5 satellite):
    ///
    /// 1. `u@0` probes `v`; `v` grants and answers — but the answer sits
    ///    in flight.
    /// 2. `u` crashes and restarts as `u@1`; its RESET reaches `v`
    ///    (FIFO), which re-grants nothing yet.
    /// 3. A client retry makes `u@1` probe `v` again *before* the stale
    ///    answer arrives.
    /// 4. The stale `response(flag=true, epoch=0)` is delivered to `u@1`.
    ///
    /// Without the epoch guard, step 4 completes `u@1`'s fan-out with the
    /// pre-crash value AND plants `taken[v]` for a lease `v` no longer
    /// remembers granting — then `v`'s real answer arrives as a duplicate
    /// and a later break emits a spurious `release`.
    #[test]
    fn stale_epoch_response_is_discarded_not_double_counted() {
        let t = Tree::pair();
        let mut u = node(&t, 0);
        let mut v = node(&t, 1);
        let mut out = Vec::new();

        // Step 1: u@0 probes v; v answers with a grant (in flight).
        v.handle_write(10, &mut out);
        assert_eq!(u.handle_combine(&mut out), CombineOutcome::Pending);
        assert_eq!(out.pop(), Some((n(1), Message::Probe { epoch: 0 })));
        v.handle_message(n(0), Message::Probe { epoch: 0 }, &mut out);
        let stale = out.pop().expect("v answered").1;
        assert!(matches!(
            stale,
            Message::Response {
                flag: true,
                epoch: 0,
                ..
            }
        ));

        // Step 2: u crashes; only `val` survives. v processes the RESET.
        let mut u = node(&t, 0);
        u.set_epoch(1);
        v.handle_peer_reset(n(0), &mut out);
        out.clear();

        // Step 3: the restarted u re-probes before the stale answer lands.
        v.handle_write(32, &mut out);
        assert_eq!(u.handle_combine(&mut out), CombineOutcome::Pending);
        assert_eq!(out.pop(), Some((n(1), Message::Probe { epoch: 1 })));

        // Step 4: the stale answer arrives at u@1 — and is discarded.
        let completed = u.handle_message(n(1), stale, &mut out);
        assert_eq!(
            completed, None,
            "stale response must not complete the fan-out"
        );
        assert!(!u.taken(0), "no phantom lease from a dead incarnation");
        assert!(u.pndg().contains(&n(0)), "fan-out still waiting");
        assert!(out.is_empty());
        assert_eq!(u.stale_responses(), 1);

        // v answers the live probe; u@1 completes exactly once, with the
        // post-crash value, and takes the lease for real.
        v.handle_message(n(0), Message::Probe { epoch: 1 }, &mut out);
        let (dst, fresh) = out.pop().expect("fresh response");
        assert_eq!(dst, n(0));
        let completed = u.handle_message(n(1), fresh, &mut out);
        assert_eq!(completed, Some(32), "exactly one completion, fresh value");
        assert!(u.taken(0) && u.pndg().is_empty());

        // A policy-driven break now releases only the *real* lease; had
        // the stale flag been honoured, u would have sent a second,
        // spurious release for a grant v no longer holds.
        assert_eq!(u.stale_responses(), 1);
    }

    /// A stale response arriving when the restarted node has *no*
    /// outstanding probe (the client retry came later) must be a pure
    /// no-op — previously it planted `taken` + a stale `aval` that a
    /// later break would release spuriously.
    #[test]
    fn stale_epoch_response_without_outstanding_probe_is_a_noop() {
        let t = Tree::pair();
        let mut u = node(&t, 0);
        let mut v = node(&t, 1);
        let mut out = Vec::new();
        v.handle_write(7, &mut out);
        assert_eq!(u.handle_combine(&mut out), CombineOutcome::Pending);
        out.clear();
        v.handle_message(n(0), Message::Probe { epoch: 0 }, &mut out);
        let stale = out.pop().unwrap().1;

        // Crash-restart; stale answer arrives before any new activity.
        let mut u = node(&t, 0);
        u.set_epoch(1);
        assert_eq!(u.handle_message(n(1), stale, &mut out), None);
        assert!(!u.taken(0), "no lease");
        assert_eq!(*u.aval(0), 0, "no stale cached aggregate");
        assert!(out.is_empty(), "no messages, so no spurious release later");
        assert_eq!(u.stale_responses(), 1);
    }

    /// Epochs are sticky per probe: a node relaying a chained fan-out
    /// echoes each requester's own epoch, so a restarted *relay* cannot
    /// misdirect answers either.
    #[test]
    fn chained_response_echoes_the_requesters_probe_epoch() {
        let t = Tree::path(3); // 0 — 1 — 2
        let mut mid = node(&t, 1);
        let mut leaf = node(&t, 2);
        let mut out = Vec::new();
        // Node 0 (epoch 4) probes the relay; the relay fans out to 2
        // with its own epoch (0 here).
        mid.handle_message(n(0), Message::Probe { epoch: 4 }, &mut out);
        assert_eq!(out.pop(), Some((n(2), Message::Probe { epoch: 0 })));
        leaf.handle_message(n(1), Message::Probe { epoch: 0 }, &mut out);
        let (_, resp) = out.pop().unwrap();
        mid.handle_message(n(2), resp, &mut out);
        // The relay's answer back to 0 echoes 0's epoch, not its own.
        match out.pop() {
            Some((dst, Message::Response { epoch, .. })) => {
                assert_eq!(dst, n(0));
                assert_eq!(epoch, 4, "response echoes the requester's probe epoch");
            }
            other => panic!("expected response to 0, got {other:?}"),
        }
    }
}
