//! Offline machinery: the per-edge OPT dynamic program, the analytic RWW
//! replay, and the full-tree `C_OPT(σ)` computation that every
//! competitive experiment divides by.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oat_core::request::{sigma_prime_of, EdgeEvent};
use oat_core::tree::Tree;
use oat_offline::cost_model::RwwAutomaton;
use oat_offline::opt_dp::{opt_edge_cost, opt_total_cost};
use oat_offline::replay::rww_total_cost;

fn random_events(len: usize, seed: u64) -> Vec<EdgeEvent> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (s >> 35).is_multiple_of(2) {
                EdgeEvent::R
            } else {
                EdgeEvent::W
            }
        })
        .collect()
}

fn bench_edge_dp(c: &mut Criterion) {
    let mut g = c.benchmark_group("offline/edge-dp");
    for len in [100usize, 1_000, 10_000] {
        let events = sigma_prime_of(&random_events(len, 5));
        g.throughput(Throughput::Elements(events.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &events, |b, ev| {
            b.iter(|| opt_edge_cost(ev))
        });
    }
    g.finish();
}

fn bench_rww_automaton(c: &mut Criterion) {
    let mut g = c.benchmark_group("offline/rww-automaton");
    let events = random_events(10_000, 9);
    g.throughput(Throughput::Elements(events.len() as u64));
    g.bench_function("replay-10k", |b| b.iter(|| RwwAutomaton::replay(&events)));
    g.finish();
}

fn bench_tree_totals(c: &mut Criterion) {
    let mut g = c.benchmark_group("offline/tree-totals");
    for n in [16usize, 64, 256] {
        let tree = Tree::kary(n, 2);
        let seq = oat_workloads::uniform(&tree, 500, 0.5, n as u64);
        g.bench_with_input(BenchmarkId::new("opt", n), &n, |b, _| {
            b.iter(|| opt_total_cost(&tree, &seq))
        });
        g.bench_with_input(BenchmarkId::new("rww-analytic", n), &n, |b, _| {
            b.iter(|| rww_total_cost(&tree, &seq))
        });
    }
    g.finish();
}

/// The shape the cluster benchmark bills: `kary:31:2` with 200k
/// `uniform:0.5` requests. Reported per request (elem/s).
fn bench_cluster_shape(c: &mut Criterion) {
    let mut g = c.benchmark_group("offline/kary31-200k");
    let tree = Tree::kary(31, 2);
    let seq = oat_workloads::uniform(&tree, 200_000, 0.5, 42);
    g.throughput(Throughput::Elements(seq.len() as u64));
    g.bench_function("opt", |b| b.iter(|| opt_total_cost(&tree, &seq)));
    g.bench_function("rww-analytic", |b| b.iter(|| rww_total_cost(&tree, &seq)));
    g.finish();
}

/// Billing at scale: `kary:4095:2` with 200k `uniform:0.5` requests.
/// The sweep's work per request grows with depth (11 here), not with
/// the 8,188 ordered pairs.
fn bench_large_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("offline/kary4095-200k");
    let tree = Tree::kary(4095, 2);
    let seq = oat_workloads::uniform(&tree, 200_000, 0.5, 42);
    g.throughput(Throughput::Elements(seq.len() as u64));
    g.bench_function("opt", |b| b.iter(|| opt_total_cost(&tree, &seq)));
    g.bench_function("rww-analytic", |b| b.iter(|| rww_total_cost(&tree, &seq)));
    g.finish();
}

criterion_group!(
    benches,
    bench_edge_dp,
    bench_rww_automaton,
    bench_tree_totals,
    bench_cluster_shape,
    bench_large_tree
);
criterion_main!(benches);
