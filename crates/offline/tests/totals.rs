//! The five whole-tree totals against their definitions: each must equal
//! the sum over ordered pairs of its per-pair cost, computed by
//! projecting `σ(u,v)` (Lemma 3.9) and replaying it on its own.

use oat_core::request::{sigma, sigma_prime_of, Request};
use oat_core::tree::{NodeId, Tree};
use oat_offline::cost_model::{AbAutomaton, RwwAutomaton};
use oat_offline::nopt::{epoch_count, nopt_total_lower_bound};
use oat_offline::opt_dp::{
    opt_edge_cost, opt_edge_cost_realizable, opt_total_cost, opt_total_cost_realizable,
};
use oat_offline::replay::{ab_total_cost, rww_total_cost};

/// SplitMix64: the case generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A tree of one of the six shapes with `n ≤ 64` nodes (a caterpillar
/// rounds `n` down to a multiple of its leg count plus one). A path
/// rooted at node 0 has depth `n − 1`.
fn shape(rng: &mut Rng, n: usize) -> (String, Tree) {
    match rng.range(0, 5) {
        0 => (format!("path:{n}"), Tree::path(n)),
        1 => (format!("star:{n}"), Tree::star(n)),
        2 => {
            let k = rng.range(1, 4) as usize;
            (format!("kary:{n}:{k}"), Tree::kary(n, k))
        }
        3 => {
            let seed = rng.next();
            (
                format!("random:{n}:{seed}"),
                oat_workloads::random_tree(n, seed),
            )
        }
        4 => {
            let legs = rng.range(0, 3) as usize;
            let spine = (n / (legs + 1)).max(1);
            (
                format!("caterpillar:{spine}:{legs}"),
                oat_workloads::caterpillar(spine, legs),
            )
        }
        _ => ("path:1".into(), Tree::path(1)),
    }
}

/// A request stream of one of five shapes. Besides short uniform mixes
/// these are run-heavy: long stretches of one request kind, at one leaf
/// or anywhere, and two leaves taking turns (the cluster benchmark's
/// frontend shape), so that pairs see long runs of identical events.
fn stream(rng: &mut Rng, tree: &Tree) -> (String, Vec<Request<i64>>) {
    let leaves: Vec<NodeId> = tree.nodes().filter(|&x| tree.degree(x) <= 1).collect();
    let leaf = |rng: &mut Rng| leaves[rng.range(0, leaves.len() as u64 - 1) as usize];
    match rng.range(0, 4) {
        0 => ("empty".into(), Vec::new()),
        1 => {
            let len = rng.range(1, 32) as usize;
            let wf = rng.range(0, 10) as f64 / 10.0;
            let seq = oat_workloads::uniform(tree, len, wf, rng.next());
            (format!("uniform, {len} requests, write fraction {wf}"), seq)
        }
        2 => {
            let x = leaf(rng);
            (format!("stretches at leaf {x}"), stretches(rng, |_| x))
        }
        3 => {
            let lanes = [leaf(rng), leaf(rng)];
            let permille = [0, 20, 100, 500][rng.range(0, 3) as usize];
            let len = rng.range(1, 300);
            let seq = (0..len)
                .map(|i| {
                    let x = lanes[i as usize % 2];
                    if rng.range(0, 999) < permille {
                        Request::write(x, i as i64)
                    } else {
                        Request::combine(x)
                    }
                })
                .collect();
            (
                format!(
                    "leaves {} and {} alternating, {len} requests, {permille}‰ writes",
                    lanes[0], lanes[1]
                ),
                seq,
            )
        }
        _ => {
            let n = tree.len() as u64;
            let seq = stretches(rng, |rng| NodeId(rng.range(0, n - 1) as u32));
            ("stretches anywhere".into(), seq)
        }
    }
}

/// One to four alternating all-write and all-read stretches of up to 80
/// requests each, at the nodes `at` picks.
fn stretches(rng: &mut Rng, mut at: impl FnMut(&mut Rng) -> NodeId) -> Vec<Request<i64>> {
    let mut seq = Vec::new();
    let mut write = rng.next().is_multiple_of(2);
    for _ in 0..rng.range(1, 4) {
        for _ in 0..rng.range(1, 80) {
            let x = at(rng);
            seq.push(if write {
                Request::write(x, 1)
            } else {
                Request::combine(x)
            });
        }
        write = !write;
    }
    seq
}

#[test]
fn every_total_is_the_sum_of_its_pair_costs() {
    let mut rng = Rng(0x5eed_0fa7);
    for case in 0..1500 {
        let n = rng.range(1, 64) as usize;
        let (name, tree) = shape(&mut rng, n);
        let (kind, seq) = stream(&mut rng, &tree);
        let (a, b) = (rng.range(1, 5) as u32, rng.range(1, 5) as u32);
        // Per pair: OPT, realizable OPT, RWW, (a,b), epochs, each from
        // the pair's own σ(u,v) (what `opt_pair_cost`, `rww_pair_cost`,
        // `ab_pair_cost` and `nopt_pair_lower_bound` compute).
        let mut want = [0u64; 5];
        for (u, v) in tree.dir_edges() {
            let events = sigma(&tree, &seq, u, v);
            let primed = sigma_prime_of(&events);
            want[0] += opt_edge_cost(&primed);
            want[1] += opt_edge_cost_realizable(&primed);
            want[2] += RwwAutomaton::replay(&events);
            want[3] += AbAutomaton::replay(a, b, &events);
            want[4] += epoch_count(&events);
        }
        let got = [
            opt_total_cost(&tree, &seq),
            opt_total_cost_realizable(&tree, &seq),
            rww_total_cost(&tree, &seq),
            ab_total_cost(&tree, &seq, a, b),
            nopt_total_lower_bound(&tree, &seq),
        ];
        assert_eq!(
            got, want,
            "[OPT, realizable OPT, RWW, ({a},{b}), NOPT] on case {case}: {name}, {kind}"
        );
    }
}
