//! The repository benchmark of the Spaden stack.
//!
//! One command, one process, one thread. It generates every input from
//! the seed, runs one named workload through the public entry points of
//! the stack, checks every output against an f64 oracle, and prints the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run) as one JSON object on the last line of standard output. See
//! `README.md` in this directory.

pub mod common;
pub mod corpus;
pub mod evolve_hot;
pub mod json;
pub mod probes;
pub mod report;
pub mod serve_steady;
pub mod serving;
pub mod trace;

use probes::{SimWork, UnitCosts};
use report::{Outcome, Values};
use trace::Tracer;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["corpus-spmv", "serve-steady", "evolve-hot"];

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Host seconds of timed passes per phase.
    pub seconds: f64,
    /// Also run the traced phase and report per-layer metrics.
    pub trace: bool,
}

/// Workload sizes: the benchmark's own, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The configuration `BENCHMARK.json` measures.
    Standard,
    /// Seconds-scale inputs for self-tests.
    Tiny,
}

/// Runs workload `name`. `Err` is a failure that produced no result
/// (an engine error, an unknown workload).
pub fn run_workload(name: &str, args: &RunArgs, size: Size) -> Result<Outcome, String> {
    let tiny = size == Size::Tiny;
    match name {
        "corpus-spmv" => corpus::run(
            &if tiny {
                corpus::Config::tiny()
            } else {
                corpus::Config::standard()
            },
            args,
        ),
        "serve-steady" => serve_steady::run(
            &if tiny {
                serve_steady::Config::tiny()
            } else {
                serve_steady::Config::standard()
            },
            args,
        ),
        "evolve-hot" => evolve_hot::run(
            &if tiny {
                evolve_hot::Config::tiny()
            } else {
                evolve_hot::Config::standard()
            },
            args,
        ),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Records the exact simulator counts of one pass.
pub(crate) fn set_sim_work(v: &mut Values, work: &SimWork) {
    let c = &work.counters;
    v.set("gpusim.mma_m16n16k16", c.mma_m16n16k16 as f64);
    v.set("gpusim.load_insts", c.load_insts as f64);
    v.set("gpusim.sectors_read", c.sectors_read as f64);
    v.set("gpusim.l2_hit_rate", c.l2_hit_rate());
    v.set("gpusim.dram_bytes", c.dram_bytes() as f64);
    v.set("gpusim.warps", c.warps as f64);
    v.set("gpusim.launches", work.launches as f64);
    v.set("gpusim.sim_s", work.sim_s);
}

/// Records the unit costs and the shares of `wall_s` they explain.
pub(crate) fn set_probe_metrics(v: &mut Values, costs: &UnitCosts, work: &SimWork, wall_s: f64) {
    v.set("gpusim.mma_ns", costs.mma_ns);
    v.set("gpusim.l2_access_ns", costs.l2_access_ns);
    v.set("gpusim.coalesce_ns.unit", costs.coalesce_unit_ns);
    v.set("gpusim.coalesce_ns.scattered", costs.coalesce_scattered_ns);
    v.set("gpusim.launch_fixed_us", costs.launch_fixed_us);
    let s = probes::shares(costs, work, wall_s);
    v.set("gpusim.mma_share", s.mma);
    v.set("gpusim.memory_share", s.memory);
    v.set("gpusim.launch_share", s.launch);
    v.set("gpusim.unexplained_share", s.unexplained);
    if work.sim_s > 0.0 {
        v.set("gpusim.host_s_per_sim_s", wall_s / work.sim_s);
    }
    println!(
        "derived (estimate) host-time split of one pass: mma {:.1}% + memory {:.1}% + launch {:.1}% \
         = {:.1}%; unexplained residual {:.1}%",
        100.0 * s.mma,
        100.0 * s.memory,
        100.0 * s.launch,
        100.0 * (s.mma + s.memory + s.launch),
        100.0 * s.unexplained
    );
}

/// Directory the traced run writes its spans to, relative to the
/// working directory.
pub const TRACE_DIR: &str = ".bench_out";

/// Prints the per-layer table and writes the spans of a traced run.
pub(crate) fn finish_trace(tr: &Tracer, workload: &str, seed: u64) {
    println!("per-layer spans (traced run):\n{}", tr.layer_table());
    let path = std::path::Path::new(TRACE_DIR).join(format!("trace-{workload}-{seed}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}
