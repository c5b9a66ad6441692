//! The repository benchmark: host cost of the TokenCMP simulator and of
//! the explicit-state model checker, end to end and per crate.
//!
//! One invocation measures one workload for a fixed number of seconds by
//! repeating a fixed unit of work (a *pass*) and reporting medians, with
//! times scaled by a host-speed reference run after every pass
//! ([`reference`]). With `--trace 0` it reports the end-to-end metrics
//! ([`END_TO_END`]); with `--trace 1` it alternates plain and
//! instrumented passes and reports the per-layer metrics ([`PER_LAYER`]).
//! Every pass checks its outputs; a failed check is counted, never
//! skipped.
//!
//! The metric names and units here are the ones `BENCHMARK.json` at the
//! repository root declares; `tests/contract.rs` keeps the two in step.

pub mod host;
pub mod mc;
pub mod measure;
pub mod reference;
pub mod report;
pub mod sim;

/// The seed the golden digests are pinned at.
pub const DEFAULT_SEED: u64 = 7;

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Table 3 system, all nine protocols on the locking and barrier
    /// micro-benchmarks.
    Table3Micro,
    /// The synthetic commercial workloads on the Figure 6/7 protocols.
    Commercial,
    /// 64 CMPs × 16 cores on the 8 × 8 mesh.
    Mesh1024,
    /// The token-loss recovery model under arbiter activation.
    McheckRecovery,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Table3Micro,
        Workload::Commercial,
        Workload::Mesh1024,
        Workload::McheckRecovery,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3Micro => "table3-micro",
            Workload::Commercial => "commercial",
            Workload::Mesh1024 => "mesh-1024",
            Workload::McheckRecovery => "mcheck-recovery",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics: name, unit, and the share of the baseline median
/// by which the metric may worsen before a change counts as a
/// regression. All are lower-is-better.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("wall_s", "s", 0.25),
    ("ns_per_event", "ns", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mib", "MiB", 0.10),
];

/// Per-layer metrics: name and unit. Layers are named after the crates;
/// a metric of a layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sim.sched_pop_ns", "ns"),
    ("sim.sched_push_ns", "ns"),
    ("sim.unattributed_ns", "ns"),
    ("sim.events", "count"),
    ("sim.runtime_us", "us"),
    ("net.dispatch_ns", "ns"),
    ("net.intra_bytes", "B"),
    ("net.inter_bytes", "B"),
    ("net.inter_msgs", "count"),
    ("core.l1_ns", "ns"),
    ("core.l2_ns", "ns"),
    ("core.mem_ns", "ns"),
    ("core.persistent_frac", "ratio"),
    ("core.retry_frac", "ratio"),
    ("core.l2_filter_frac", "ratio"),
    ("directory.l1_ns", "ns"),
    ("directory.l2_ns", "ns"),
    ("directory.home_ns", "ns"),
    ("directory.local_frac", "ratio"),
    ("system.seq_ns", "ns"),
    ("system.perfect_l2_ns", "ns"),
    ("workloads.next_ns", "ns"),
    ("workloads.calls", "count"),
    ("cache.l1_hit_frac", "ratio"),
    ("mcheck.states", "count"),
    ("mcheck.transitions", "count"),
    ("mcheck.depth", "count"),
    ("mcheck.states_per_s", "1/s"),
    ("mcheck.successors_s", "s"),
    ("mcheck.invariant_s", "s"),
    ("mcheck.canonicalize_s", "s"),
    ("mcheck.model_frac", "ratio"),
    ("mcheck.dedup_hit_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.read_ns", "ns"),
    ("trace.raw_sum_ns", "ns"),
    ("trace.handler_reads_ns", "ns"),
];
