//! # Full M-CMP system assembly
//!
//! Builds the paper's target system (Table 3: four 4-processor chips,
//! split L1s, banked shared L2s, per-chip memory controllers, three-tier
//! interconnect) around any of the evaluated protocols — the six TokenCMP
//! variants, DirectoryCMP (DRAM or zero-cycle directory) and the PerfectL2
//! lower bound — drives it with a [`Workload`], and returns unified
//! measurements ([`RunResult`]): runtime, per-class traffic, and protocol
//! counters. Protocol invariants (token conservation, single-writer) are
//! audited at quiescence.

mod directory;
mod nodes;
pub mod perfect;
pub mod run;
pub mod sequencer;
pub mod telemetry;
mod token;
pub mod workload;

pub use perfect::{PerfectL2, PerfectStats};
pub use run::{run_workload, run_workload_traced, ConformOptions, Protocol, RunOptions, RunResult};
pub use sequencer::{uniform_work, Sequencer};
pub use telemetry::TelemetryOptions;
pub use workload::{Completed, ScriptedWorkload, Step, ValueStore, Workload};
