//! The repository benchmark.
//!
//! Three closed-loop workloads, each generated from a seed by this one
//! process, measured on two clocks: the *simulated* flash clock (the
//! paper's Table-1 cost model, deterministic for a seed) and the *host*
//! clock (the CPU time this implementation spends). A run repeats
//! fixed-size passes — set up, measure, crash, recover, verify — until
//! `--seconds` of measured time has accumulated, so every pass of a seed
//! does identical work and the per-op figures do not drift with host
//! speed.
//!
//! `--trace 1` makes a separate traced run: it times the calls into each
//! layer's public functions from the benchmark's own code (spans with a
//! shared op id, self time = span − children), attributes the simulated
//! clock to them, writes a Chrome trace, and replays the same pass
//! untraced to prove the tracing did not perturb the program and to
//! measure its overhead.

pub mod cli;
pub mod harness;
pub mod layers;
pub mod page_update;
pub mod report;
pub mod snapshot_scan;
pub mod stats;
pub mod tpcc;
pub mod trace;
pub mod traced_store;

use cli::{Args, Workload};
use report::Report;

/// Run one workload as `args` asks; `Err` names the correctness check
/// (or the operation) that failed.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload {
        Workload::PageUpdate => page_update::run(args),
        Workload::Tpcc => tpcc::run(args),
        Workload::SnapshotScan => snapshot_scan::run(args),
    }
}

/// Label an operation's error with what was being done.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Fail a correctness check with a message naming it.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness check failed: {}", what()))
    }
}
