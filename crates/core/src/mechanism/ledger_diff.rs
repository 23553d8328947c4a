//! Differential test of the monotone ledgers against Figure 1's flat one.
//!
//! [`Flat`] carries the ledger code this crate shipped before the
//! per-source queues — one `Vec<SntUpdate>`, `uaw` in arrival order,
//! `prune_sntupdates` and `on_release` verbatim — wrapped in the few
//! lines of each handler that touch lease flags or ledger state. It and
//! a real [`MechNode`] are driven by the same random operation
//! sequences and compared after every step.

use super::*;
use crate::agg::SumI64;
use crate::policy::NodePolicy;
use proptest::prelude::*;

/// Degree of the node under test (the hub of a star).
const K: usize = 4;

/// Grants every lease, breaks the ones `break_mask` names, and records
/// what `onrelease` reports to `releasepolicy`.
#[derive(Clone, Default)]
struct Scripted {
    break_mask: [bool; K],
    released: Vec<(usize, usize)>,
}

impl NodePolicy for Scripted {
    fn on_combine(&mut self, _tkn: &[usize]) {}
    fn on_probe_rcvd(&mut self, _w: usize, _tkn: &[usize]) {}
    fn on_response_rcvd(&mut self, _flag: bool, _w: usize) {}
    fn on_update_rcvd(&mut self, _w: usize, _lone_grant: bool) {}
    fn on_release_rcvd(&mut self, _w: usize) {}
    fn set_lease(&mut self, _w: usize) -> bool {
        true
    }
    fn break_lease(&mut self, v: usize) -> bool {
        self.break_mask[v]
    }
    fn release_policy(&mut self, v: usize, uaw_len: usize) {
        self.released.push((v, uaw_len));
    }
}

/// What a handler sent, reduced to the parts the ledgers decide.
#[derive(Clone, Debug, PartialEq)]
enum Sent {
    Update { to: usize, id: u64 },
    Release { to: usize, ids: Vec<u64> },
}

/// A record of a forwarded update: `{node, rcvid, sntid}` (Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SntUpdate {
    from: usize,
    rcvid: u64,
    sntid: u64,
}

/// The flat-ledger reference.
#[derive(Default)]
struct Flat {
    taken: [bool; K],
    granted: [bool; K],
    uaw: [Vec<u64>; K],
    upcntr: u64,
    sntupdates: Vec<SntUpdate>,
    watermark: [u64; K],
    policy: Scripted,
}

impl Flat {
    fn grntd_nonempty_except(&self, except: Option<usize>) -> bool {
        self.granted
            .iter()
            .enumerate()
            .any(|(i, &g)| g && Some(i) != except)
    }

    fn is_good_for_release(&self, wi: usize) -> bool {
        !self.grntd_nonempty_except(Some(wi))
    }

    fn newid(&mut self) -> u64 {
        self.upcntr += 1;
        self.upcntr
    }

    fn forward_updates(&mut self, exclude: Option<usize>, id: u64, out: &mut Vec<Sent>) {
        for i in 0..K {
            if self.granted[i] && Some(i) != exclude {
                out.push(Sent::Update { to: i, id });
            }
        }
    }

    // Verbatim from the flat implementation.
    fn prune_sntupdates(&mut self) {
        let min_watermark = (0..K)
            .filter(|&i| self.granted[i])
            .map(|i| self.watermark[i])
            .min();
        match min_watermark {
            Some(wm) => self.sntupdates.retain(|t| t.sntid >= wm),
            None => {
                self.sntupdates.clear();
                return;
            }
        }
        // Per source, the best (max-sntid) stale-β representative.
        let mut best_stale: Vec<Option<u64>> = vec![None; K];
        for t in &self.sntupdates {
            let m = self.uaw[t.from].iter().copied().min().unwrap_or(u64::MAX);
            if t.rcvid < m {
                let slot = &mut best_stale[t.from];
                *slot = Some(slot.map_or(t.sntid, |s: u64| s.max(t.sntid)));
            }
        }
        self.sntupdates.retain(|t| {
            let m = self.uaw[t.from].iter().copied().min().unwrap_or(u64::MAX);
            t.rcvid >= m || best_stale[t.from] == Some(t.sntid)
        });
    }

    fn forward_release(&mut self, out: &mut Vec<Sent>) {
        for vi in 0..K {
            if self.taken[vi] && self.is_good_for_release(vi) && self.policy.break_lease(vi) {
                self.taken[vi] = false;
                let ids = std::mem::take(&mut self.uaw[vi]);
                out.push(Sent::Release { to: vi, ids });
            }
        }
    }

    fn beta_rcvid(&self, vi: usize, id_min: u64) -> Option<u64> {
        self.sntupdates
            .iter()
            .filter(|t| t.from == vi && t.sntid >= id_min)
            .map(|t| t.rcvid)
            .min()
    }

    // Verbatim from the flat implementation.
    fn on_release(&mut self, wi: usize, s: &[u64], out: &mut Vec<Sent>) {
        let id_min = s.iter().copied().min().unwrap_or(u64::MAX);
        for vi in 0..K {
            if vi == wi || !self.taken[vi] {
                continue;
            }
            match self.beta_rcvid(vi, id_min) {
                Some(beta) => self.uaw[vi].retain(|&x| x >= beta),
                None => self.uaw[vi].clear(),
            }
            if self.is_good_for_release(vi) {
                self.policy.release_policy(vi, self.uaw[vi].len());
            }
        }
        self.forward_release(out);
    }

    // ---- the ledger-relevant part of each handler ----

    fn combine(&mut self) {
        for v in 0..K {
            if self.taken[v] {
                self.uaw[v].clear();
            }
        }
    }

    fn write(&mut self, out: &mut Vec<Sent>) {
        if self.grntd_nonempty_except(None) {
            let id = self.newid();
            self.forward_updates(None, id, out);
        }
    }

    /// `T3` with nothing pending: clear, then answer (and grant) when
    /// every other neighbour is leased.
    fn probe(&mut self, wi: usize) {
        for v in 0..K {
            if self.taken[v] && v != wi {
                self.uaw[v].clear();
            }
        }
        if (0..K).all(|i| i == wi || self.taken[i]) {
            self.granted[wi] = true;
            self.watermark[wi] = self.upcntr + 1;
        }
    }

    fn response(&mut self, wi: usize, flag: bool) {
        self.taken[wi] = flag;
    }

    fn update(&mut self, wi: usize, id: u64, out: &mut Vec<Sent>) {
        let lone = !self.grntd_nonempty_except(Some(wi));
        self.uaw[wi].push(id);
        if !lone {
            let nid = self.newid();
            self.sntupdates.push(SntUpdate {
                from: wi,
                rcvid: id,
                sntid: nid,
            });
            self.forward_updates(Some(wi), nid, out);
            self.prune_sntupdates();
        } else {
            self.forward_release(out);
        }
    }

    fn release(&mut self, wi: usize, ids: &[u64], out: &mut Vec<Sent>) {
        self.granted[wi] = false;
        self.on_release(wi, ids, out);
        self.watermark[wi] = self.upcntr + 1;
        self.prune_sntupdates();
    }

    fn revoke_grants_except(&mut self, wi: usize) {
        for j in 0..K {
            if j != wi {
                self.granted[j] = false;
            }
        }
    }

    fn peer_reset(&mut self, wi: usize) {
        self.taken[wi] = false;
        self.granted[wi] = false;
        self.uaw[wi].clear();
        self.sntupdates.retain(|t| t.from != wi);
        self.watermark[wi] = self.upcntr + 1;
        self.prune_sntupdates();
        self.revoke_grants_except(wi);
    }

    fn revoke(&mut self, wi: usize, out: &mut Vec<Sent>) {
        if self.taken[wi] {
            self.taken[wi] = false;
            let ids = std::mem::take(&mut self.uaw[wi]);
            out.push(Sent::Release { to: wi, ids });
        }
        self.revoke_grants_except(wi);
    }
}

/// One generated step: an operation selector, a neighbour, a break mask,
/// a free parameter, and offsets below `upcntr` for a release's `S`.
type RawOp = (u8, usize, u8, u64, Vec<u64>);

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (
            0u8..32,
            0usize..K,
            0u8..64,
            0u64..1000,
            proptest::collection::vec(0u64..10, 0..=3),
        ),
        0..=200,
    )
}

/// How update ids are drawn.
#[derive(Clone, Copy, PartialEq)]
enum Ids {
    /// Strictly increasing per neighbour, restarting when it resets: what
    /// a FIFO exactly-once channel delivers.
    Fifo,
    /// Duplicated and reordered, as under the simulator's lossy schedules.
    Lossy,
}

/// The real node's tuples as a flat ledger would list them.
fn tuples_by_sntid(node: &MechNode<Scripted, SumI64>) -> Vec<SntUpdate> {
    let mut all: Vec<SntUpdate> = node
        .sntupdates
        .iter()
        .enumerate()
        .flat_map(|(from, q)| {
            q.iter()
                .map(move |&(rcvid, sntid)| SntUpdate { from, rcvid, sntid })
        })
        .collect();
    all.sort_unstable_by_key(|t| t.sntid);
    all
}

/// Tuples of `flat` that no later tuple of the same source supersedes
/// (a later one with `rcvid` not above theirs): what the queues keep.
fn not_superseded(flat: &[SntUpdate]) -> Vec<SntUpdate> {
    flat.iter()
        .enumerate()
        .filter(|(i, t)| {
            !flat[i + 1..]
                .iter()
                .any(|l| l.from == t.from && l.rcvid <= t.rcvid)
        })
        .map(|(_, t)| *t)
        .collect()
}

/// Drives both ledgers through `ops`, from the all-leases-down state or
/// (`prewarm`) with every lease up both ways, where updates are
/// forwarded from the first step.
fn run(ops: &[RawOp], mode: Ids, prewarm: bool) {
    let tree = Tree::star(K + 1);
    let hub = NodeId(0);
    let mut node = MechNode::new(&tree, hub, SumI64, Scripted::default(), false);
    let mut flat = Flat::default();
    if prewarm {
        node.prewarm_leases();
        flat.taken = [true; K];
        flat.granted = [true; K];
    }
    let mut next_id = [0u64; K];
    let mut outbox = Vec::new();

    for (step, (sel, wi, mask, x, offs)) in ops.iter().enumerate() {
        let (wi, x) = (*wi, *x);
        let from = node.nbrs[wi];
        // A quarter of the steps let the policy break leases.
        let break_mask: [bool; K] = std::array::from_fn(|i| *mask >= 48 && mask >> i & 1 == 1);
        node.policy.break_mask = break_mask;
        flat.policy.break_mask = break_mask;
        let mut sent = Vec::new();
        outbox.clear();

        match sel {
            // Updates dominate: they are what the ledgers record.
            0..=21 => {
                let id = match mode {
                    Ids::Fifo => {
                        next_id[wi] += 1 + x % 3;
                        next_id[wi]
                    }
                    // Half the time near the last id (late or repeated),
                    // otherwise anywhere in a small range.
                    Ids::Lossy if x % 2 == 0 => {
                        next_id[wi] += x % 3;
                        (next_id[wi] + x % 5).saturating_sub(2)
                    }
                    Ids::Lossy => 1 + x % 12,
                };
                let msg = Message::Update {
                    x: 0,
                    id,
                    wlog: None,
                };
                node.handle_message(from, msg, &mut outbox);
                flat.update(wi, id, &mut sent);
            }
            22 | 23 => {
                let ids: Vec<u64> = offs
                    .iter()
                    .map(|o| node.upcntr.saturating_sub(*o))
                    .collect();
                let msg = Message::Release { ids: ids.clone() };
                node.handle_message(from, msg, &mut outbox);
                flat.release(wi, &ids, &mut sent);
            }
            24 => {
                node.handle_combine(&mut outbox);
                flat.combine();
            }
            25 | 26 => {
                node.handle_message(from, Message::Probe { epoch: 0 }, &mut outbox);
                flat.probe(wi);
            }
            27..=29 => {
                // Mostly lease-taking answers, so grants become possible.
                let flag = x % 8 != 0;
                let msg = Message::Response {
                    x: 0,
                    flag,
                    epoch: 0,
                    wlog: None,
                };
                node.handle_message(from, msg, &mut outbox);
                flat.response(wi, flag);
            }
            30 => {
                node.handle_write(x as i64, &mut outbox);
                flat.write(&mut sent);
            }
            _ if x % 2 == 0 => {
                node.handle_peer_reset(from, &mut outbox);
                flat.peer_reset(wi);
                next_id[wi] = 0;
            }
            _ => {
                node.handle_revoke(from, &mut outbox);
                flat.revoke(wi, &mut sent);
            }
        }
        // The reference models no fan-out bookkeeping: every probe is
        // answered at once.
        node.pndg.clear();
        node.snt.clear();

        let mut got: Vec<Sent> = outbox
            .drain(..)
            .filter_map(|(to, m)| match m {
                Message::Update { id, .. } => Some(Sent::Update {
                    to: node.nbr_index(to),
                    id,
                }),
                Message::Release { ids } => Some(Sent::Release {
                    to: node.nbr_index(to),
                    ids,
                }),
                _ => None,
            })
            .collect();
        let mut flat_uaw = flat.uaw.clone();
        let mut flat_tuples = flat.sntupdates.clone();
        if mode == Ids::Lossy {
            // Same ids and same tuples up to the order the flat ledger
            // never promised and the entries no β can ever select.
            for s in sent.iter_mut().chain(got.iter_mut()) {
                if let Sent::Release { ids, .. } = s {
                    ids.sort_unstable();
                }
            }
            flat_uaw.iter_mut().for_each(|ids| ids.sort_unstable());
            flat_tuples = not_superseded(&flat_tuples);
            assert!(node.sntupdates_len() <= flat.sntupdates.len());
        }

        let at = format!("step {step}: {:?}", ops[step]);
        assert_eq!(node.ledger_ok(), Ok(()), "{at}");
        assert_eq!(got, sent, "outbox, {at}");
        assert_eq!(node.taken, flat.taken, "taken, {at}");
        assert_eq!(node.granted, flat.granted, "granted, {at}");
        assert_eq!(node.watermark, flat.watermark, "watermark, {at}");
        assert_eq!(node.upcntr, flat.upcntr, "upcntr, {at}");
        for (vi, ids) in flat_uaw.iter().enumerate() {
            assert_eq!(node.uaw(vi), &ids[..], "uaw[{vi}], {at}");
        }
        assert_eq!(tuples_by_sntid(&node), flat_tuples, "tuples, {at}");
        assert_eq!(node.sntupdates_len(), flat_tuples.len(), "{at}");
        assert_eq!(node.policy.released, flat.policy.released, "{at}");
        // β only changes where min(S) crosses a recorded sntid.
        let mut cuts: Vec<u64> = vec![0, u64::MAX];
        cuts.extend(flat.sntupdates.iter().flat_map(|t| [t.sntid, t.sntid + 1]));
        for vi in 0..K {
            for &id_min in &cuts {
                assert_eq!(
                    MechNode::<Scripted, SumI64>::beta_rcvid(&node.sntupdates[vi], id_min),
                    flat.beta_rcvid(vi, id_min),
                    "β for source {vi} at min(S) = {id_min}, {at}"
                );
            }
        }
    }
}

proptest! {
    /// On FIFO id sequences every observable is equal after every step:
    /// each `uaw[v]`, every β answer, the surviving tuples, the messages
    /// sent (release ids included) and the `releasepolicy` arguments.
    #[test]
    fn monotone_ledgers_equal_the_flat_ledger_on_fifo_ids(ops in raw_ops(), prewarm in any::<bool>()) {
        run(&ops, Ids::Fifo, prewarm);
    }

    /// With duplicated and reordered ids both stay total, the audit
    /// holds, the queues never hold more than the flat ledger, and the
    /// answers still agree: the same `uaw` ids (sorted), the same β for
    /// every `min(S)`, the same tuples but for the superseded ones.
    #[test]
    fn monotone_ledgers_stay_total_and_agree_on_lossy_ids(ops in raw_ops(), prewarm in any::<bool>()) {
        run(&ops, Ids::Lossy, prewarm);
    }
}
