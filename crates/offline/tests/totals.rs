//! The five whole-tree totals against their definitions: each must equal
//! the sum over ordered pairs of its per-pair cost, computed by
//! projecting `σ(u,v)` (Lemma 3.9) and replaying it on its own.

use oat_core::request::{sigma, sigma_prime_of, Request};
use oat_core::tree::Tree;
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

/// A tree of one of the five shapes with `n ≤ 64` nodes (a caterpillar
/// rounds `n` down to a multiple of its leg count plus one).
fn shape(rng: &mut Rng, n: usize) -> (String, Tree) {
    match rng.range(0, 4) {
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
        _ => {
            let legs = rng.range(0, 3) as usize;
            let spine = (n / (legs + 1)).max(1);
            (
                format!("caterpillar:{spine}:{legs}"),
                oat_workloads::caterpillar(spine, legs),
            )
        }
    }
}

#[test]
fn every_total_is_the_sum_of_its_pair_costs() {
    let mut rng = Rng(0x5eed_0fa7);
    for case in 0..1000 {
        let n = rng.range(1, 64) as usize;
        let (name, tree) = shape(&mut rng, n);
        // Every tenth σ is empty; the rest are short mixes of any skew.
        let len = if case % 10 == 0 {
            0
        } else {
            rng.range(1, 32) as usize
        };
        let wf = rng.range(0, 10) as f64 / 10.0;
        let seq: Vec<Request<i64>> = oat_workloads::uniform(&tree, len, wf, rng.next());
        let (a, b) = (rng.range(1, 3) as u32, rng.range(1, 3) as u32);
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
            "[OPT, realizable OPT, RWW, ({a},{b}), NOPT] on case {case}: \
             {name}, {len} requests, write fraction {wf}"
        );
    }
}
