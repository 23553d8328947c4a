//! Epoch lower bound on any *nice* offline algorithm (Theorem 2).
//!
//! A *nice* algorithm provides strict consistency in sequential executions
//! (Section 2). The proof of Theorem 2 partitions each `σ(u,v)` into
//! *epochs*: an epoch ends at every write→combine transition. Strict
//! consistency forces at least one message between `u` and `v`
//! (attributable to the pair `(u,v)`) per completed epoch: the data about
//! the epoch's writes must cross the edge before the next combine can
//! return, and the crossing message windows of distinct epochs are
//! disjoint in a sequential execution.
//!
//! Lemma 4.3 bounds RWW at 5 messages per epoch, giving the factor 5.
//! We report ratios against this lower bound; because it is a *lower*
//! bound on NOPT's true cost, measured ratios are conservative (an upper
//! bound on RWW / NOPT).

use oat_core::request::{sigma, EdgeEvent, Request};
use oat_core::tree::{NodeId, Tree};

use crate::replay::billed_total;

/// The per-pair epoch counter's state: whether the last non-noop event
/// was a write. A step returns the epochs it completes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Epochs {
    prev_was_write: bool,
}

impl Epochs {
    #[inline]
    fn step(&mut self, e: EdgeEvent) -> u64 {
        match e {
            EdgeEvent::W => {
                self.prev_was_write = true;
                0
            }
            // A combine after a write closes an epoch.
            EdgeEvent::R => std::mem::take(&mut self.prev_was_write) as u64,
            EdgeEvent::N => 0,
        }
    }
}

/// Number of completed epochs (write→combine transitions) in an event
/// sequence.
pub fn epoch_count(events: &[EdgeEvent]) -> u64 {
    let mut epochs = Epochs::default();
    events.iter().map(|&e| epochs.step(e)).sum()
}

/// Epoch lower bound for one ordered pair: `#epochs(σ(u,v))`.
pub fn nopt_pair_lower_bound<V>(tree: &Tree, seq: &[Request<V>], u: NodeId, v: NodeId) -> u64 {
    epoch_count(&sigma(tree, seq, u, v))
}

/// Epoch lower bound on `C_NOPT(σ)`: sum over all ordered pairs.
pub fn nopt_total_lower_bound<V>(tree: &Tree, seq: &[Request<V>]) -> u64 {
    billed_total(tree, seq, Epochs::default(), Epochs::step)
}

/// Per-pair RWW cost cap from Lemma 4.3: at most 5 messages per epoch plus
/// a bounded tail for the final (incomplete) epoch. Exposed so tests can
/// assert the Theorem-2 inequality structurally per pair.
pub fn rww_epoch_bound(epochs: u64) -> u64 {
    5 * epochs + 5
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat_core::request::EdgeEvent::*;

    #[test]
    fn epoch_counting() {
        assert_eq!(epoch_count(&[]), 0);
        assert_eq!(epoch_count(&[R, R, R]), 0);
        assert_eq!(epoch_count(&[W, W, W]), 0);
        assert_eq!(epoch_count(&[W, R]), 1);
        assert_eq!(epoch_count(&[R, W, W, R, W, R, R, W]), 2);
        assert_eq!(epoch_count(&[W, N, R]), 1, "noops do not break epochs");
        assert_eq!(epoch_count(&[W, R, W, R, W, R]), 3);
    }

    #[test]
    fn epoch_runs_equal_repeated_steps() {
        crate::cost_model::assert_run_is_repeated_step(Epochs::default(), Epochs::step);
    }

    #[test]
    fn rww_cost_within_five_per_epoch() {
        use crate::cost_model::RwwAutomaton;
        // Adversarial R W W cycles: RWW pays 5 per epoch exactly.
        let mut events = Vec::new();
        for _ in 0..20 {
            events.extend([R, W, W]);
        }
        let cost = RwwAutomaton::replay(&events);
        let epochs = epoch_count(&events);
        assert_eq!(cost, 100);
        assert_eq!(epochs, 19, "the final epoch has no closing combine");
        assert!(cost <= rww_epoch_bound(epochs));
    }

    #[test]
    fn theorem2_structure_on_random_event_sequences() {
        use crate::cost_model::RwwAutomaton;
        let mut seed = 77u64;
        for _ in 0..300 {
            let mut events = Vec::new();
            for _ in 0..200 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
                events.push(if (seed >> 40).is_multiple_of(2) { R } else { W });
            }
            let cost = RwwAutomaton::replay(&events);
            let epochs = epoch_count(&events);
            assert!(
                cost <= rww_epoch_bound(epochs),
                "cost {cost} exceeds 5*{epochs}+5"
            );
        }
    }
}
