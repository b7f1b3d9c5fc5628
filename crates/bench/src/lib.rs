//! # fedhh-bench — benchmark harness for the paper's evaluation
//!
//! Every table and figure of the paper's Section 7 has a corresponding
//! experiment module here that regenerates it (on the synthetic stand-in
//! datasets, see DESIGN.md):
//!
//! | Experiment | Paper artefact | Module |
//! |---|---|---|
//! | `fig4` | Figure 4 — F1 vs ε for k ∈ {10, 20, 40} | [`experiments::fig4`] |
//! | `fig5` | Figure 5 — NCR vs ε for k ∈ {10, 20, 40} | [`experiments::fig5`] |
//! | `fig6` | Figure 6 — F1 vs ε under OUE and OLH | [`experiments::fig6`] |
//! | `fig7` | Figure 7 — TAPS vs TAP (pruning ablation) | [`experiments::fig7`] |
//! | `table1` | Table 1 — communication/computation cost model | [`experiments::table1`] |
//! | `table3` | Table 3 — F1 vs step size | [`experiments::table3`] |
//! | `table4` | Table 4 — scalability on UBA | [`experiments::table4`] |
//! | `table5` | Table 5 — fixed vs adaptive extension | [`experiments::table5`] |
//! | `table6` | Table 6 — shared shallow trie ablation | [`experiments::table6`] |
//! | `table7` | Table 7 — average local recall (heterogeneity) | [`experiments::table7`] |
//! | `table8` | Table 8 — Dirichlet β heterogeneity sweep | [`experiments::table8`] |
//!
//! The `fedhh-bench` binary runs them by name (`fedhh-bench run fig4`);
//! `fedhh-bench run all` reproduces the entire evaluation and prints every
//! table to stdout (and optionally JSON for EXPERIMENTS.md).
//!
//! Besides the accuracy experiments, `fedhh-bench perf` runs the pinned
//! performance-baseline suite of the [`perf`] module: frequency-oracle and
//! mechanism hot-path workloads measured as ns/report and reports/sec,
//! emitted as machine-readable `BENCH_perf.json`, with
//! `--check <baseline.json>` acting as the CI regression gate (see the
//! [`perf`] module docs for the schema and gate semantics); and
//! `fedhh-bench scale` sweeps `user_scale` up through the paper's full
//! populations on the streamed chunked data plane, emitting
//! `BENCH_scale.json` with throughput and peak-RSS per point (see the
//! [`scale`] module docs and CI's `scale-smoke` ceiling); and
//! `fedhh-bench epochs` runs the epoch service over a churning, drifting
//! population through both warm-start arms, emitting `BENCH_epochs.json`
//! with per-epoch F1/NCR/uplink and the budget ledger's admission split
//! (see the [`epochs`] module docs and CI's `epoch-smoke` job); and
//! `fedhh-bench scenario` sweeps every mechanism against every adversary
//! model of the scenario plane over a list of compromised fractions,
//! emitting the deterministic robustness matrix `BENCH_scenario.json`
//! with F1/NCR degradation per cell (see the [`scenario`] module docs and
//! CI's `scenario-smoke` job); and `fedhh-bench topology` sweeps the
//! aggregation tree's fanouts × quorum fractions against the flat star,
//! emitting `BENCH_topology.json` with per-cell F1, uplink and the
//! root-inbound frame/byte counters (see the [`topology`] module docs and
//! CI's `topology-smoke` job).
//!
//! The harness's place in the system is mapped in `ARCHITECTURE.md` at the
//! repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod epochs;
pub mod experiments;
pub mod nodespec;
pub mod perf;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod topology;

pub use epochs::{run_epochs, EpochServiceSpec, EpochsOptions, EpochsReport, MechanismExecutor};
pub use experiments::BenchError;
pub use nodespec::{partition_parties, NodeRunSpec};
pub use perf::{
    check_report, run_overhead_suite, run_suite, run_suite_traced, PerfEntry, PerfReport,
    PerfViolation,
};
pub use report::ExperimentReport;
pub use runner::{ExperimentScale, TrialMetrics};
pub use scale::{run_scale, run_scale_traced, ScaleOptions, ScalePoint, ScaleReport};
pub use scenario::{
    adversary_by_name, check_scenario, run_scenario, ScenarioOptions, ScenarioReport, ScenarioRow,
};
pub use topology::{check_topology, run_topology, TopologyOptions, TopologyReport, TopologyRow};
