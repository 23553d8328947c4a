//! # oat-offline — offline optima and competitive analysis
//!
//! Everything Section 4 of the paper needs that is *not* the online
//! mechanism itself:
//!
//! * [`cost_model`] — the per-edge cost table of **Figure 2**: the legal
//!   `(state, request, next state, cost)` tuples for any lease-based
//!   algorithm, plus the deterministic per-edge automata of RWW and of
//!   general `(a,b)`-algorithms,
//! * [`opt_dp`] — the optimal offline lease-based algorithm **OPT** as an
//!   exact per-edge dynamic program over `σ'(u,v)` (justified by the
//!   per-pair decomposition of Lemma 3.9),
//! * [`replay`] — analytic replays: compute `C_RWW(σ,u,v)` (and the
//!   `(a,b)` generalisation) without running the simulator; equality with
//!   simulated message counts is a strong end-to-end test,
//! * [`nopt`] — the epoch lower bound on any *nice* (strictly consistent)
//!   algorithm used by **Theorem 2**,
//! * [`adversary`] — the request generator of **Theorem 3** (`a` combines
//!   at one endpoint, `b` writes at the other, repeated),
//! * [`ratio`] — end-to-end competitive-ratio measurements tying the
//!   simulator and the offline optima together,
//! * [`mlap_opt`] — the exact offline optimum for the second problem
//!   family, MLAP (`oat-mlap`): a nested-subset DP over candidate flush
//!   times, for both the deadline and linear-delay cost models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod cost_model;
pub mod mlap_opt;
pub mod nopt;
pub mod opt_dp;
pub mod ratio;
pub mod replay;
mod sweep;

pub use cost_model::{edge_cost, AbAutomaton, RwwAutomaton};
pub use mlap_opt::{candidate_times, mlap_opt, MAX_CANDIDATE_TIMES};
pub use opt_dp::{opt_edge_cost, opt_total_cost};
pub use ratio::RatioReport;
