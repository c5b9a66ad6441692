//! # Trace-driven refinement checking
//!
//! Proves — run by run — that the timing simulator conforms to the
//! verified `tokencmp-mcheck` protocol models. The timing stack and the
//! exhaustively-checked models were, until this crate, connected only
//! by human reasoning: the models verify the *rules*, the simulator
//! implements the *rules plus timing*, and nothing machine-checked that
//! they are the same rules. This crate closes that gap (DESIGN.md §13):
//!
//! - [`ConformChecker`] — a [`tokencmp_trace::TraceSink`] that replays
//!   a real run's event stream against the substrate abstraction the
//!   models verify: token conservation and send/read/write guards, the
//!   in-flight bundle multiset, persistent-table activations, the
//!   directory holder map, and sequencer issue/commit matching. The
//!   first inadmissible step yields a frozen violation report with the
//!   flight-recorder tail at the offending instant.
//! - [`coverage`] — per-protocol model-transition universes, read from
//!   an unreduced model-checking run of each downscaled model
//!   ([`tokencmp_mcheck::ExploreReport::kinds`]); the checker labels each
//!   observed action with the model transition it refines, so a run
//!   also *measures* which verified transitions the simulator
//!   exercises.
//! - [`grid`] — the conformance sweep (litmus shapes, lock and barrier
//!   micro-benchmarks, a capacity-thrashing eviction cell × all nine
//!   protocols × seeds × clean, lossy, and token-lossy fault tiers)
//!   behind the `conformance` bench and the
//!   `target/sweep/conformance.json` report.
//! - [`Mutation`] — deliberately-broken replay modes (a forged
//!   sequencer commit, a dropped token delivery) proving the checker
//!   can say no.
//!
//! Online use: install a checker as a run's trace sink and set
//! [`RunOptions::with_conformance`](tokencmp_system::RunOptions::with_conformance)
//! — the runner queries the sink's verdict at quiescence and panics on
//! a refinement violation, mirroring the token-conservation audit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod coverage;
pub mod grid;

pub use checker::{ConformChecker, Mutation};
pub use coverage::{family_universe, universe, Family};
pub use grid::{
    conformance_grid, conformance_report, export_conformance, lossy_plan, run_conform,
    token_lossy_plan, token_substrate_pct, ConformPoint, ConformWork, FaultTier,
};
