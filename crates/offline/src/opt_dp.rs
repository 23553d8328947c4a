//! The optimal offline lease-based algorithm OPT, as an exact per-edge
//! dynamic program.
//!
//! Lemma 3.9 decomposes the cost of any lease-based algorithm into the
//! per-ordered-pair costs `C(σ,u,v)`, and Figure 2 shows that the
//! per-pair cost depends only on how `u.granted[v]` evolves over
//! `σ'(u,v)`. An offline algorithm may steer that single bit freely
//! through the legal Figure-2 transitions, independently per ordered pair
//! — so the global offline optimum is the sum over ordered pairs of a
//! two-state shortest path.
//!
//! The noop slots of `σ'(u,v)` model the paper's charging scheme for
//! releases piggy-backed on writes of `σ(v,u)` (at most one release per
//! noop, Lemma 4.6).
//!
//! The shortest path is a min-plus product of per-event 2×2 tables read
//! off Figure 2. The totals compose each request's table with the noop
//! that follows it in `σ'(u,v)`, so a run of `k` identical requests is
//! that table's `k`-th min-plus power, which has a closed form
//! ([`Powers`]): the single sweep of [`crate::sweep`] advances a pair by
//! a whole run in one table step, and `σ'(u,v)` is never built.

use oat_core::request::{sigma, sigma_prime_of, EdgeEvent, Request};
use oat_core::tree::{NodeId, Tree};

use crate::cost_model::edge_cost;
use crate::sweep::sweep;

/// Cost of a transition Figure 2 forbids. A sum of a few stays far from
/// overflow, and a finite path (never granting) always exists, so no
/// `INF` reaches a result.
const INF: u64 = u64::MAX / 4;

/// A min-plus step over `granted`: `m[s][t]` is the cheapest cost of
/// moving from `granted == (s == 1)` to `granted == (t == 1)`.
type Step = [[u64; 2]; 2];

/// The Figure-2 rows of `ev` as a [`Step`]; without `noop_break` the
/// `(true, N, false)` row is left out (see
/// [`opt_edge_cost_realizable`]).
fn step_table(ev: EdgeEvent, noop_break: bool) -> Step {
    let mut m = [[INF; 2]; 2];
    for (s, row) in m.iter_mut().enumerate() {
        for (t, cell) in row.iter_mut().enumerate() {
            if !noop_break && ev == EdgeEvent::N && s == 1 && t == 0 {
                continue;
            }
            if let Some(c) = edge_cost(s == 1, ev, t == 1) {
                *cell = c;
            }
        }
    }
    m
}

/// The cheapest cost of reaching each `granted` value after `m`, from
/// the costs `dp` before it.
#[inline]
fn advance(dp: [u64; 2], m: &Step) -> [u64; 2] {
    let to = |t: usize| (dp[0] + m[0][t]).min(dp[1] + m[1][t]);
    [to(0), to(1)]
}

/// `a` followed by `b`, as one step.
fn then(a: &Step, b: &Step) -> Step {
    [advance(a[0], b), advance(a[1], b)].map(|row| row.map(|c| c.min(INF)))
}

/// `M^k`, the min-plus power that serves a run of `k` events of table
/// `M`, in closed form for every `k`. Each table the totals use is
/// linear in `k` from `k = 2` on, entry by entry:
/// `M^k = M^2 + (k − 2)·(M^3 − M^2)`. With `noop_break`, "combine, then
/// noop" has `R^k = R^2` and "write, then noop" has
/// `W^k = [[0, ∞], [2, k]]`; without it, `R^k = [[2k, 2], [∞, 0]]`.
struct Powers {
    one: Step,
    two: Step,
    /// `M^3 − M^2`, and 0 where `M^2` is `INF`.
    growth: Step,
}

impl Powers {
    fn new(m: Step) -> Self {
        let two = then(&m, &m);
        let three = then(&two, &m);
        let growth = minus(&three, &two);
        assert_eq!(
            minus(&then(&three, &m), &three),
            growth,
            "M^k must grow linearly from k = 2 on"
        );
        Powers {
            one: m,
            two,
            growth,
        }
    }

    #[inline]
    fn pow(&self, k: u64) -> Step {
        match k {
            0 => [[0, INF], [INF, 0]],
            1 => self.one,
            _ => std::array::from_fn(|s| {
                std::array::from_fn(|t| self.two[s][t] + (k - 2) * self.growth[s][t])
            }),
        }
    }
}

/// `a − b` entry by entry, for `a` at least `b` and `INF` in the same
/// places.
fn minus(a: &Step, b: &Step) -> Step {
    std::array::from_fn(|s| {
        std::array::from_fn(|t| {
            assert_eq!(
                a[s][t] >= INF,
                b[s][t] >= INF,
                "a power gained or lost an INF"
            );
            if a[s][t] >= INF {
                0
            } else {
                a[s][t]
                    .checked_sub(b[s][t])
                    .expect("a longer run never costs less")
            }
        })
    })
}

/// The two-state shortest path over a `σ'(u,v)` event sequence,
/// starting from `granted = false`.
fn edge_dp(events: &[EdgeEvent], noop_break: bool) -> u64 {
    let [r, w, n] = [EdgeEvent::R, EdgeEvent::W, EdgeEvent::N].map(|ev| step_table(ev, noop_break));
    let dp = events.iter().fold([0, INF], |dp, &ev| {
        let m = match ev {
            EdgeEvent::R => &r,
            EdgeEvent::W => &w,
            EdgeEvent::N => &n,
        };
        advance(dp, m)
    });
    dp[0].min(dp[1])
}

/// Sum over all ordered pairs of [`edge_dp`] on `σ'(u,v)`, in one sweep
/// over `seq`: a run of `k` requests steps each pair's state by
/// "event, then noop" to the `k`-th power.
fn total_dp<V>(tree: &Tree, seq: &[Request<V>], noop_break: bool) -> u64 {
    let noop = step_table(EdgeEvent::N, noop_break);
    let [read, write] = [EdgeEvent::R, EdgeEvent::W]
        .map(|ev| Powers::new(then(&step_table(ev, noop_break), &noop)));
    // `σ'(u,v)` opens with a noop.
    let start = advance([0, INF], &noop);
    sweep(tree, seq, start, |dp, ev, k| {
        let run = if ev == EdgeEvent::W { &write } else { &read };
        *dp = advance(*dp, &run.pow(k))
    })
    .iter()
    .map(|dp| dp[0].min(dp[1]))
    .sum()
}

/// Minimal Figure-2 cost of serving an `σ'(u,v)` event sequence, starting
/// from `granted = false` (the paper's initial quiescent state).
pub fn opt_edge_cost(events: &[EdgeEvent]) -> u64 {
    edge_dp(events, true)
}

/// The chosen optimal state trajectory (granted values after each event),
/// reconstructed for diagnostics and the Figure-4 experiments.
pub fn opt_edge_trajectory(events: &[EdgeEvent]) -> (u64, Vec<bool>) {
    let n = events.len();
    let mut dp = vec![[INF; 2]; n + 1];
    let mut parent = vec![[0usize; 2]; n + 1];
    dp[0][0] = 0;
    for (i, &ev) in events.iter().enumerate() {
        for s in 0..2 {
            let cur = dp[i][s];
            if cur >= INF {
                continue;
            }
            for t in 0..2 {
                if let Some(c) = edge_cost(s == 1, ev, t == 1) {
                    if cur + c < dp[i + 1][t] {
                        dp[i + 1][t] = cur + c;
                        parent[i + 1][t] = s;
                    }
                }
            }
        }
    }
    let (mut s, cost) = if dp[n][0] <= dp[n][1] {
        (0, dp[n][0])
    } else {
        (1, dp[n][1])
    };
    let mut states = vec![false; n];
    for i in (0..n).rev() {
        states[i] = s == 1;
        s = parent[i + 1][s];
    }
    (cost, states)
}

/// The *realizable* per-edge optimum: like [`opt_edge_cost`] but without
/// the `(true, N, false)` noop-break row.
///
/// Figure 2 lets OPT drop a lease for one message during a request of
/// `σ(v,u)` — a release piggy-backed on unrelated traffic. The Figure-1
/// mechanism only emits releases from `forwardrelease`, which runs when a
/// node receives an `update` or a `release`; at a **leaf** (or on the
/// two-node tree) no such trigger exists during `σ(v,u)` requests, so the
/// noop break is not mechanically realizable there. This variant
/// restricts OPT to the transitions every topology can realise; the gap
/// between the two is reported by the ablation experiment. All of the
/// paper's bounds use the (more generous) [`opt_edge_cost`], so measured
/// ratios against it are conservative.
pub fn opt_edge_cost_realizable(events: &[EdgeEvent]) -> u64 {
    edge_dp(events, false)
}

/// Sum of [`opt_edge_cost_realizable`] over all ordered pairs.
pub fn opt_total_cost_realizable<V>(tree: &Tree, seq: &[Request<V>]) -> u64 {
    total_dp(tree, seq, false)
}

/// `C_OPT(σ)`: the sum of per-ordered-pair optima over all directed
/// edges of the tree — the offline lease-based optimum for the whole
/// request sequence.
///
/// ```
/// use oat_core::{request::Request, tree::{NodeId, Tree}};
/// use oat_offline::opt_dp::opt_total_cost;
///
/// let tree = Tree::pair();
/// // R W W repeated: OPT never takes the lease and pays 2 per combine.
/// let mut seq = Vec::new();
/// for i in 0..10 {
///     seq.push(Request::combine(NodeId(1)));
///     seq.push(Request::write(NodeId(0), i));
///     seq.push(Request::write(NodeId(0), i + 1));
/// }
/// assert_eq!(opt_total_cost(&tree, &seq), 20);
/// ```
pub fn opt_total_cost<V>(tree: &Tree, seq: &[Request<V>]) -> u64 {
    total_dp(tree, seq, true)
}

/// `C_OPT(σ, u, v)` for one ordered pair.
pub fn opt_pair_cost<V>(tree: &Tree, seq: &[Request<V>], u: NodeId, v: NodeId) -> u64 {
    let events = sigma_prime_of(&sigma(tree, seq, u, v));
    opt_edge_cost(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat_core::request::EdgeEvent::*;

    /// Brute force over all 2^n state paths, for cross-checking the DP.
    fn brute_force(events: &[EdgeEvent]) -> u64 {
        fn rec(events: &[EdgeEvent], state: bool) -> u64 {
            match events.split_first() {
                None => 0,
                Some((&ev, rest)) => {
                    let mut best = u64::MAX;
                    for next in [false, true] {
                        if let Some(c) = edge_cost(state, ev, next) {
                            best = best.min(c + rec(rest, next));
                        }
                    }
                    best
                }
            }
        }
        rec(events, false)
    }

    #[test]
    fn powers_equal_repeated_tables() {
        for noop_break in [true, false] {
            let noop = step_table(N, noop_break);
            for ev in [R, W] {
                let m = then(&step_table(ev, noop_break), &noop);
                let powers = Powers::new(m);
                let mut want = [[0, INF], [INF, 0]];
                for k in 0..=64 {
                    assert_eq!(powers.pow(k), want, "{ev:?}^{k}, noop_break {noop_break}");
                    want = then(&want, &m);
                }
            }
        }
        let noop = step_table(N, true);
        let [r, w] = [R, W].map(|ev| Powers::new(then(&step_table(ev, true), &noop)));
        for k in 2..=64 {
            assert_eq!(r.pow(k), r.pow(2));
            assert_eq!(w.pow(k), [[0, INF], [2, k]]);
        }
    }

    #[test]
    fn dp_matches_brute_force_on_random_short_sequences() {
        let mut seed = 0xdeadbeefu64;
        for _ in 0..500 {
            let mut events = Vec::new();
            for _ in 0..12 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                events.push(match (seed >> 33) % 3 {
                    0 => R,
                    1 => W,
                    _ => N,
                });
            }
            assert_eq!(opt_edge_cost(&events), brute_force(&events), "{events:?}");
        }
    }

    #[test]
    fn opt_on_rww_cycle_is_two_per_cycle() {
        // R W W cycles: OPT never takes the lease and pays 2 per combine.
        let mut events = vec![N];
        for _ in 0..10 {
            events.extend([R, N, W, N, W, N]);
        }
        assert_eq!(opt_edge_cost(&events), 20);
    }

    #[test]
    fn opt_on_read_heavy_takes_lease() {
        // R R R R ... : pay 2 once, then free.
        let mut events = vec![N];
        for _ in 0..10 {
            events.extend([R, N]);
        }
        assert_eq!(opt_edge_cost(&events), 2);
    }

    #[test]
    fn opt_on_write_heavy_stays_leaseless() {
        let mut events = vec![N];
        for _ in 0..10 {
            events.extend([W, N]);
        }
        events.extend([R, N]);
        assert_eq!(opt_edge_cost(&events), 2, "writes free without lease");
    }

    #[test]
    fn opt_alternating_rw() {
        // (R W)^k: with lease: 2 + (1 per W, 0 per R) = 2 + k - ... vs
        // leaseless: 2 per R. For k cycles leaseless costs 2k; leased
        // costs 2 + k. Lease wins for k > 2.
        let mut events = vec![N];
        for _ in 0..10 {
            events.extend([R, N, W, N]);
        }
        assert_eq!(opt_edge_cost(&events), 2 + 10);
    }

    #[test]
    fn trajectory_reconstruction_is_consistent() {
        let events = vec![N, R, N, W, N, W, N, R, N];
        let (cost, states) = opt_edge_trajectory(&events);
        assert_eq!(cost, opt_edge_cost(&events));
        assert_eq!(states.len(), events.len());
        // Recompute the cost along the reconstructed path.
        let mut s = false;
        let mut total = 0;
        for (i, &ev) in events.iter().enumerate() {
            total += edge_cost(s, ev, states[i]).expect("legal transition");
            s = states[i];
        }
        assert_eq!(total, cost);
    }

    #[test]
    fn realizable_opt_never_below_opt_and_differs_on_noop_breaks() {
        // Realizable OPT is a restriction, so always ≥ OPT; they differ
        // exactly when the noop break pays off, e.g. the (2,4)
        // adversary: 2 R's then 4 W's per cycle. OPT per cycle:
        // set (2) + ride the R's (0) + break on noop (1) = 3; realizable
        // must either stay leaseless (4) or hold through writes (4).
        let mut events = vec![N];
        for _ in 0..10 {
            for _ in 0..2 {
                events.extend([R, N]);
            }
            for _ in 0..4 {
                events.extend([W, N]);
            }
        }
        let opt = opt_edge_cost(&events);
        let real = opt_edge_cost_realizable(&events);
        assert!(real >= opt);
        assert_eq!(opt, 30, "3 per cycle");
        assert_eq!(real, 40, "4 per cycle without noop breaks");

        // On the RWW adversary they coincide (the noop break never pays).
        let mut events = vec![N];
        for _ in 0..10 {
            events.extend([R, N, W, N, W, N]);
        }
        assert_eq!(opt_edge_cost(&events), opt_edge_cost_realizable(&events));
    }

    #[test]
    fn realizable_matches_brute_force_without_noop_breaks() {
        fn brute(events: &[EdgeEvent], state: bool) -> u64 {
            match events.split_first() {
                None => 0,
                Some((&ev, rest)) => {
                    let mut best = u64::MAX;
                    for next in [false, true] {
                        if ev == EdgeEvent::N && state && !next {
                            continue;
                        }
                        if let Some(c) = edge_cost(state, ev, next) {
                            best = best.min(c + brute(rest, next));
                        }
                    }
                    best
                }
            }
        }
        let mut seed = 99u64;
        for _ in 0..200 {
            let mut events = Vec::new();
            for _ in 0..12 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(17);
                events.push(match (seed >> 33) % 3 {
                    0 => R,
                    1 => W,
                    _ => N,
                });
            }
            assert_eq!(
                opt_edge_cost_realizable(&events),
                brute(&events, false),
                "{events:?}"
            );
        }
    }

    #[test]
    fn opt_total_on_pair_tree() {
        use oat_core::tree::Tree;
        let tree = Tree::pair();
        let u = NodeId(0);
        let v = NodeId(1);
        let seq = vec![
            Request::combine(v),
            Request::write(u, 1i64),
            Request::write(u, 2),
            Request::combine(v),
        ];
        // σ(0,1) = R? Let's see: combines at 1 are in subtree(1,0); writes
        // at 0 in subtree(0,1): events R W W R. OPT: leaseless, 2 per R = 4.
        assert_eq!(opt_pair_cost(&tree, &seq, u, v), 4);
        // σ(1,0): writes at 0 are not in subtree(1,0); combines at 1 are
        // not in subtree(0,1): empty. Cost 0.
        assert_eq!(opt_pair_cost(&tree, &seq, v, u), 0);
        assert_eq!(opt_total_cost(&tree, &seq), 4);
    }
}
