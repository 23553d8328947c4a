//! The per-edge cost model of Figure 2 and the per-edge automata.
//!
//! Figure 2 tabulates, for an ordered pair of neighbours `(u,v)`, every
//! possible change of `u.granted[v]` and the messages charged to
//! `C(σ,u,v)` while executing one request of `σ(u,v)` (or a noop — the
//! slot where a `release` triggered by a write in `σ(v,u)` may be
//! charged):
//!
//! | `granted` before | request | `granted` after | cost |
//! |------------------|---------|-----------------|------|
//! | false            | R       | false           | 2    |
//! | false            | R       | true            | 2    |
//! | false            | W       | false           | 0    |
//! | false            | N       | false           | 0    |
//! | true             | R       | true            | 0    |
//! | true             | W       | false           | 2    |
//! | true             | W       | true            | 1    |
//! | true             | N       | false           | 1    |
//! | true             | N       | true            | 0    |
//!
//! Any lease-based algorithm's per-edge behaviour is a path through this
//! table (Lemma 3.8); an *offline* algorithm may pick transitions freely,
//! an online one must pick them deterministically from the past. The
//! deterministic automata below replay **RWW** (via its configuration
//! `F ∈ {0,1,2}`, Section 4.2) and general **(a,b)**-algorithms.

use oat_core::request::EdgeEvent;

/// Cost charged to `C(σ,u,v)` for executing `ev` when `u.granted[v]`
/// moves from `state` to `next`; `None` when Figure 2 forbids the
/// transition.
pub fn edge_cost(state: bool, ev: EdgeEvent, next: bool) -> Option<u64> {
    use EdgeEvent::*;
    match (state, ev, next) {
        (false, R, false) => Some(2),
        (false, R, true) => Some(2),
        (false, W, false) => Some(0),
        (false, N, false) => Some(0),
        (true, R, true) => Some(0),
        (true, W, false) => Some(2),
        (true, W, true) => Some(1),
        (true, N, false) => Some(1),
        (true, N, true) => Some(0),
        _ => None,
    }
}

/// All legal Figure-2 rows, in table order: `(state, event, next, cost)`.
pub const FIGURE2_ROWS: [(bool, EdgeEvent, bool, u64); 9] = [
    (false, EdgeEvent::R, false, 2),
    (false, EdgeEvent::R, true, 2),
    (false, EdgeEvent::W, false, 0),
    (false, EdgeEvent::N, false, 0),
    (true, EdgeEvent::R, true, 0),
    (true, EdgeEvent::W, false, 2),
    (true, EdgeEvent::W, true, 1),
    (true, EdgeEvent::N, false, 1),
    (true, EdgeEvent::N, true, 0),
];

/// The deterministic per-edge automaton of RWW.
///
/// The configuration `F_RWW(u,v) ∈ {0,1,2}` (Section 4.2) counts the
/// remaining write budget: 0 = no lease; 2 = lease fresh (last request a
/// combine); 1 = lease with one write absorbed. Lemma 4.4:
/// `F_RWW(u,v) > 0 ⟺ u.granted[v]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RwwAutomaton {
    /// The current configuration `F_RWW(u,v)`.
    pub f: u8,
}

impl Default for RwwAutomaton {
    fn default() -> Self {
        Self::new()
    }
}

impl RwwAutomaton {
    /// Initial configuration (no lease).
    pub fn new() -> Self {
        RwwAutomaton { f: 0 }
    }

    /// Whether the lease is currently granted.
    pub fn granted(&self) -> bool {
        self.f > 0
    }

    /// Executes one event, returning its Figure-2 cost.
    #[inline]
    pub fn step(&mut self, ev: EdgeEvent) -> u64 {
        let before = self.granted();
        // `(next F, cost)` by `[F][event]`, events in `R, W, N` order: a
        // combine refreshes F to 2 and pays only without a lease, a
        // write under a lease spends one unit and pays 2 for the one
        // that releases, a noop changes nothing. A table rather than a
        // match keeps the sweep's runs free of unpredictable branches.
        const NEXT: [[(u8, u64); 3]; 3] = [
            [(2, 2), (0, 0), (0, 0)],
            [(2, 0), (0, 2), (1, 0)],
            [(2, 0), (1, 1), (2, 0)],
        ];
        let (f, cost) = NEXT[self.f as usize][ev as usize];
        self.f = f;
        debug_assert_eq!(
            edge_cost(before, ev, self.granted()),
            Some(cost),
            "RWW transition must be a legal Figure-2 row"
        );
        cost
    }

    /// Replays a whole event sequence, returning the total cost.
    pub fn replay(events: &[EdgeEvent]) -> u64 {
        let mut a = RwwAutomaton::new();
        events.iter().map(|&e| a.step(e)).sum()
    }
}

/// The deterministic per-edge automaton of an `(a,b)`-algorithm
/// (Section 4.2): the lease is set after `a` consecutive combines in
/// `σ(u,v)` and broken after `b` consecutive writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbAutomaton {
    a: u32,
    b: u32,
    granted: bool,
    /// Consecutive combines seen while not granted.
    creads: u32,
    /// Remaining write budget while granted.
    wleft: u32,
}

impl AbAutomaton {
    /// New automaton for parameters `(a, b)`, both positive.
    pub fn new(a: u32, b: u32) -> Self {
        assert!(a >= 1 && b >= 1);
        AbAutomaton {
            a,
            b,
            granted: false,
            creads: 0,
            wleft: 0,
        }
    }

    /// Whether the lease is currently granted.
    pub fn granted(&self) -> bool {
        self.granted
    }

    /// Executes one event, returning its Figure-2 cost.
    #[inline]
    pub fn step(&mut self, ev: EdgeEvent) -> u64 {
        let before = self.granted;
        let cost = if !self.granted {
            match ev {
                EdgeEvent::R => {
                    self.creads += 1;
                    if self.creads >= self.a {
                        self.granted = true;
                        self.creads = 0;
                        self.wleft = self.b;
                    }
                    2
                }
                EdgeEvent::W => {
                    self.creads = 0;
                    0
                }
                EdgeEvent::N => 0,
            }
        } else {
            match ev {
                EdgeEvent::R => {
                    self.wleft = self.b;
                    0
                }
                EdgeEvent::W => {
                    self.wleft -= 1;
                    if self.wleft == 0 {
                        self.granted = false;
                        2
                    } else {
                        1
                    }
                }
                EdgeEvent::N => 0,
            }
        };
        debug_assert_eq!(
            edge_cost(before, ev, self.granted),
            Some(cost),
            "(a,b) transition must be a legal Figure-2 row"
        );
        cost
    }

    /// Replays a whole event sequence, returning the total cost.
    pub fn replay(a: u32, b: u32, events: &[EdgeEvent]) -> u64 {
        let mut aut = AbAutomaton::new(a, b);
        events.iter().map(|&e| aut.step(e)).sum()
    }
}

/// The summed cost of `k` calls of `step(state, ev)`, leaving `state`
/// where they would. The automata are deterministic, so once one step
/// leaves the state as it was, every later step repeats it at the same
/// cost: this takes at most as many steps as the state needs to stop
/// changing under `ev` (three for RWW, `max(a, b) + 1` for `(a,b)`).
pub(crate) fn run<A: Copy + PartialEq>(
    state: &mut A,
    ev: EdgeEvent,
    k: u64,
    step: impl Fn(&mut A, EdgeEvent) -> u64,
) -> u64 {
    let mut cost = 0;
    for done in 1..=k {
        let before = *state;
        let c = step(state, ev);
        cost += c;
        if *state == before {
            return cost + c * (k - done);
        }
    }
    cost
}

/// Checks [`run`] against `k` calls of `step` for `k` in `0..=64`, from
/// every state reachable from `init`.
#[cfg(test)]
pub(crate) fn assert_run_is_repeated_step<A: Copy + PartialEq + std::fmt::Debug>(
    init: A,
    step: impl Fn(&mut A, EdgeEvent) -> u64,
) {
    let events = [EdgeEvent::R, EdgeEvent::W, EdgeEvent::N];
    let mut reachable = vec![init];
    let mut i = 0;
    while let Some(&from) = reachable.get(i) {
        i += 1;
        for ev in events {
            let mut next = from;
            step(&mut next, ev);
            if !reachable.contains(&next) {
                reachable.push(next);
            }
        }
    }
    for from in reachable {
        for ev in events {
            let mut stepped = from;
            let mut cost = 0;
            for k in 0..=64 {
                let mut ran = from;
                assert_eq!(
                    (run(&mut ran, ev, k, &step), ran),
                    (cost, stepped),
                    "{k} × {ev:?} from {from:?}"
                );
                cost += step(&mut stepped, ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat_core::request::EdgeEvent::*;

    #[test]
    fn figure2_rows_are_exactly_the_legal_transitions() {
        let mut legal = 0;
        for &state in &[false, true] {
            for &ev in &[R, W, N] {
                for &next in &[false, true] {
                    if let Some(cost) = edge_cost(state, ev, next) {
                        legal += 1;
                        assert!(
                            FIGURE2_ROWS.contains(&(state, ev, next, cost)),
                            "({state},{ev:?},{next},{cost}) missing from table"
                        );
                    }
                }
            }
        }
        assert_eq!(legal, FIGURE2_ROWS.len());
    }

    #[test]
    fn rww_rww_cycle_costs_five() {
        // R W W repeated: 2 + 1 + 2 per cycle.
        let cycle = [R, W, W];
        let events: Vec<_> = cycle.iter().copied().cycle().take(30).collect();
        assert_eq!(RwwAutomaton::replay(&events), 50);
    }

    #[test]
    fn rww_combines_after_lease_are_free() {
        assert_eq!(RwwAutomaton::replay(&[R, R, R, R]), 2);
    }

    #[test]
    fn rww_writes_without_lease_are_free() {
        assert_eq!(RwwAutomaton::replay(&[W, W, W]), 0);
        assert_eq!(RwwAutomaton::replay(&[R, W, W, W, W]), 5);
    }

    #[test]
    fn rww_combine_refreshes_write_budget() {
        // R W R W W: 2 + 1 + 0 + 1 + 2.
        assert_eq!(RwwAutomaton::replay(&[R, W, R, W, W]), 6);
    }

    #[test]
    fn rww_noop_free() {
        assert_eq!(RwwAutomaton::replay(&[N, R, N, W, N, W, N]), 5);
    }

    #[test]
    fn ab_12_equals_rww_on_random_sequences() {
        // (1,2)-automaton and the RWW automaton are the same machine.
        let mut seed = 0x12345u64;
        for _ in 0..200 {
            let mut events = Vec::new();
            for _ in 0..50 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                events.push(match (seed >> 33) % 3 {
                    0 => R,
                    1 => W,
                    _ => N,
                });
            }
            assert_eq!(
                AbAutomaton::replay(1, 2, &events),
                RwwAutomaton::replay(&events)
            );
        }
    }

    #[test]
    fn runs_equal_repeated_steps() {
        assert_run_is_repeated_step(RwwAutomaton::new(), RwwAutomaton::step);
        for a in 1..=5 {
            for b in 1..=5 {
                assert_run_is_repeated_step(AbAutomaton::new(a, b), AbAutomaton::step);
            }
        }
    }

    #[test]
    fn ab_grant_needs_consecutive_reads() {
        let mut a = AbAutomaton::new(2, 1);
        assert_eq!(a.step(R), 2);
        assert!(!a.granted());
        assert_eq!(a.step(W), 0); // breaks the run
        assert_eq!(a.step(R), 2);
        assert!(!a.granted());
        assert_eq!(a.step(R), 2);
        assert!(a.granted());
        // b = 1: the next write both updates and releases.
        assert_eq!(a.step(W), 2);
        assert!(!a.granted());
    }

    #[test]
    fn ab_cycle_cost_formula() {
        // On the ADV cycle (a combines then b writes), an (a,b)-algorithm
        // pays 2a + (b-1) + 2 = 2a + b + 1 per cycle in steady state.
        for (a, b) in [(1, 1), (1, 2), (2, 2), (3, 4)] {
            let mut events = Vec::new();
            for _ in 0..10 {
                events.extend(std::iter::repeat_n(R, a as usize));
                events.extend(std::iter::repeat_n(W, b as usize));
            }
            let cost = AbAutomaton::replay(a, b, &events);
            assert_eq!(cost, 10 * (2 * a as u64 + b as u64 + 1));
        }
    }
}
