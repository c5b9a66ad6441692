//! # tokencmp — Improving Multiple-CMP Systems Using Token Coherence
//!
//! A production-quality Rust reproduction of **Marty, Bingham, Hill, Hu,
//! Martin & Wood, HPCA 2005**: the TokenCMP family of cache-coherence
//! protocols that are *flat for correctness* but *hierarchical for
//! performance*, together with everything needed to regenerate the
//! paper's evaluation — a discrete-event M-CMP simulator, the
//! DirectoryCMP hierarchical-directory baseline, the paper's
//! micro-benchmarks and synthetic commercial workloads, and an
//! explicit-state model checker for the Section 5 verification study.
//!
//! ## Quick start
//!
//! ```
//! use tokencmp::{
//!     run_workload, LockingWorkload, Protocol, RunOptions, SystemConfig, Variant,
//! };
//!
//! // The paper's Table 3 target system: four 4-processor CMPs.
//! let cfg = SystemConfig::default();
//! // The Table 2 locking micro-benchmark: 16 processors, 32 locks.
//! let workload = LockingWorkload::new(cfg.layout().procs(), 32, 5, 42);
//! // Run it under TokenCMP-dst1, the paper's preferred variant.
//! let (result, workload) = run_workload(
//!     &cfg,
//!     Protocol::Token(Variant::Dst1),
//!     workload,
//!     &RunOptions::default(),
//! );
//! assert_eq!(workload.total_acquires, 16 * 5);
//! println!("runtime: {:.1} ns", result.runtime_ns());
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `tokencmp-sim` | discrete-event kernel, time, stats, RNG |
//! | [`proto`] | `tokencmp-proto` | addresses, layout, message classes, Table 3 config |
//! | [`cache`] | `tokencmp-cache` | set-associative arrays |
//! | [`net`] | `tokencmp-net` | three-tier interconnect + traffic accounting |
//! | [`core`] | `tokencmp-core` | **the paper's contribution**: token substrate + TokenCMP policies |
//! | [`directory`] | `tokencmp-directory` | DirectoryCMP two-level MOESI baseline |
//! | [`system`] | `tokencmp-system` | system assembly, sequencers, PerfectL2, runner |
//! | [`workloads`] | `tokencmp-workloads` | locking/barrier micro-benchmarks, commercial generators |
//! | [`mcheck`] | `tokencmp-mcheck` | explicit-state model checker + protocol models (§5) |
//! | [`sweep`] | `tokencmp-sweep` | deterministic parallel sweep engine + JSON export |
//! | [`trace`] | `tokencmp-trace` | structured event tracing, latency attribution, flight recorder |
//! | [`litmus`] | `tokencmp-litmus` | litmus-test engine + axiomatic SC oracle (differential consistency checking) |
//! | [`conform`] | `tokencmp-conform` | trace-driven refinement checking against the verified models + transition coverage |

pub use tokencmp_cache as cache;
pub use tokencmp_conform as conform;
pub use tokencmp_core as core;
pub use tokencmp_directory as directory;
pub use tokencmp_litmus as litmus;
pub use tokencmp_mcheck as mcheck;
pub use tokencmp_net as net;
pub use tokencmp_proto as proto;
pub use tokencmp_sim as sim;
pub use tokencmp_sweep as sweep;
pub use tokencmp_system as system;
pub use tokencmp_trace as trace;
pub use tokencmp_workloads as workloads;

pub use tokencmp_conform::{
    conformance_grid, conformance_report, export_conformance, ConformChecker, ConformPoint,
    ConformWork, FaultTier, Mutation,
};
pub use tokencmp_core::{ReqKind, TokenBundle, TokenMsg, Variant};
pub use tokencmp_litmus::{
    classic_shapes, differential_check, sc_allowed, DiffOptions, LitmusWorkload, Outcome, Pinning,
    Program,
};
pub use tokencmp_net::{FaultCounters, FaultPlan, FaultSpec, Tier, Traffic};
pub use tokencmp_proto::{
    AccessKind, Block, CmpId, Fabric, Layout, MsgClass, ProcId, SystemConfig,
};
pub use tokencmp_sim::{Dur, HostProfiler, ProfilerHandle, RunOutcome, Time};
pub use tokencmp_sweep::{latency_table, par_map, PointRecord, PointResult, Sweep, SweepPoint};
pub use tokencmp_system::{
    run_workload, run_workload_traced, ConformOptions, Protocol, RunOptions, RunResult, Step,
    TelemetryOptions, Workload,
};
pub use tokencmp_trace::{
    block_timeline, chrome_trace_json, chrome_trace_with_counters, HostProfile, LatencyBreakdown,
    ProfiledSink, RingRecorder, Segment, SegmentParts, TimeSeries, TraceEvent, TraceHandle,
    TraceRecord, TraceSink, TIMESERIES_SCHEMA,
};
pub use tokencmp_workloads::{
    BarrierWorkload, CommercialParams, CommercialWorkload, LockingWorkload,
};
