//! Request-stream generation. Everything the program under test sees is
//! produced here from `--seed`; the same seed gives byte-identical
//! streams.

use oat::core::request::{ReqOp, Request};
use oat::core::tree::NodeId;
use oat::workloads::Fact;

/// SplitMix64: the stream generator for frontend workloads. (The
/// sequential workload uses the repository's own `uniform` generator.)
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One frontend's operation stream: `len` operations issued at that
/// frontend, a write of a value in `-100..=100` with probability
/// `write_fraction`, else a combine. `lane` separates the frontends'
/// streams under one seed.
pub fn frontend_stream(len: usize, write_fraction: f64, seed: u64, lane: u64) -> Vec<ReqOp<i64>> {
    let mut rng = SplitMix::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
    (0..len)
        .map(|_| {
            if rng.next_f64() < write_fraction {
                ReqOp::Write((rng.next_u64() % 201) as i64 - 100)
            } else {
                ReqOp::Combine
            }
        })
        .collect()
}

/// The canonical order of a concurrent run, for the offline optimum:
/// the frontends' streams interleaved one operation at a time.
pub fn interleave(frontends: &[NodeId], streams: &[Vec<ReqOp<i64>>]) -> Vec<Request<i64>> {
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    for i in 0..longest {
        for (node, stream) in frontends.iter().zip(streams) {
            if let Some(op) = stream.get(i) {
                out.push(Request {
                    node: *node,
                    op: op.clone(),
                });
            }
        }
    }
    out
}

/// The fact stream of the query workload: Zipf(1.0)-keyed facts over
/// `keys` keys, 4 ms of stream time apart (25 facts per 100 ms window).
///
/// The stream opens with one fact per key, in seeded order. A key's
/// first partial can only follow its first fact, so with a purely
/// random opening time-to-first-partial would measure the draw (when
/// does the median key happen to turn up) and not the engine.
pub fn fact_stream(len: usize, keys: u32, seed: u64) -> Vec<Fact> {
    let mut facts = oat::workloads::zipf_facts(len, keys, 1.0, 4, seed);
    let mut rng = SplitMix::new(seed);
    let mut order: Vec<u32> = (0..keys).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    for (fact, key) in facts.iter_mut().zip(order) {
        fact.key = key;
    }
    facts
}

/// A byte rendering of a request stream, for the determinism tests.
pub fn stream_bytes(seq: &[Request<i64>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(seq.len() * 13);
    for q in seq {
        out.extend_from_slice(&q.node.0.to_le_bytes());
        match &q.op {
            ReqOp::Combine => out.push(0),
            ReqOp::Write(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat::core::tree::Tree;
    use oat::workloads::uniform;

    fn frontends() -> [NodeId; 2] {
        [NodeId(15), NodeId(30)]
    }

    fn concurrent_bytes(seed: u64) -> Vec<u8> {
        let streams: Vec<_> = (0..2)
            .map(|l| frontend_stream(5000, 0.5, seed, l))
            .collect();
        stream_bytes(&interleave(&frontends(), &streams))
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let tree = Tree::kary(31, 2);
        assert_eq!(
            stream_bytes(&uniform(&tree, 5000, 0.5, 42)),
            stream_bytes(&uniform(&tree, 5000, 0.5, 42))
        );
        assert_eq!(concurrent_bytes(42), concurrent_bytes(42));
        assert_eq!(fact_stream(500, 8, 42), fact_stream(500, 8, 42));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let tree = Tree::kary(31, 2);
        assert_ne!(
            stream_bytes(&uniform(&tree, 5000, 0.5, 42)),
            stream_bytes(&uniform(&tree, 5000, 0.5, 7))
        );
        assert_ne!(concurrent_bytes(42), concurrent_bytes(7));
        assert_ne!(fact_stream(500, 8, 42), fact_stream(500, 8, 7));
    }

    #[test]
    fn frontends_get_distinct_lanes_and_the_asked_write_share() {
        let a = frontend_stream(20_000, 0.02, 42, 0);
        let b = frontend_stream(20_000, 0.02, 42, 1);
        assert_ne!(a, b);
        let writes = a.iter().filter(|op| op.is_write()).count();
        assert!((300..500).contains(&writes), "2% of 20000, got {writes}");
    }

    #[test]
    fn fact_streams_open_with_every_key_once() {
        for seed in [42, 7] {
            let facts = fact_stream(100, 8, seed);
            let mut opening: Vec<u32> = facts[..8].iter().map(|f| f.key).collect();
            opening.sort_unstable();
            assert_eq!(opening, (0..8).collect::<Vec<_>>());
            assert!(facts.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        }
        assert_eq!(fact_stream(3, 8, 42).len(), 3);
    }

    #[test]
    fn interleave_alternates_and_keeps_every_operation() {
        let streams = vec![
            vec![ReqOp::Write(1), ReqOp::Write(2), ReqOp::Write(3)],
            vec![ReqOp::Combine],
        ];
        let seq = interleave(&frontends(), &streams);
        let nodes: Vec<u32> = seq.iter().map(|q| q.node.0).collect();
        assert_eq!(nodes, [15, 30, 15, 15]);
    }
}
