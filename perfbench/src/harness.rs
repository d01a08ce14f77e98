//! The pass loop shared by every workload, and the end-to-end metrics
//! computed from its passes.

use crate::report::{Metric, Report, END_TO_END};
use crate::stats::{median, peak_rss_mb, percentile_us, ratio};
use pdl_flash::FlashStats;
use std::time::{Duration, Instant};

/// Passes every untraced run makes at least, so `setup_s` and
/// `recovery_ms` are medians of several set-ups and recoveries.
pub const MIN_PASSES: usize = 5;

/// No pass starts after this much wall time (the run must end within
/// 180 s on a slow host).
const WALL_CAP: Duration = Duration::from_secs(100);

/// Recoveries timed per pass: the store each recovery rebuilds is
/// crashed again untouched and recovered anew, and the pass reports the
/// fastest. A few-millisecond recovery —
/// on a sharded store, one thread per shard — is otherwise at the mercy
/// of one scheduler stall.
pub const RECOVERIES: usize = 5;

/// Recover `crashed` [`RECOVERIES`] times in a row, each recovered state
/// crashed again untouched. Returns the last recovered state, the
/// fastest host time in seconds, and the first recovery's simulated-clock
/// delta.
pub fn recover_repeatedly<C, S>(
    mut crashed: C,
    ledger: impl Fn(&C) -> FlashStats,
    mut recover: impl FnMut(C) -> Result<S, String>,
    recovered_ledger: impl Fn(&S) -> FlashStats,
    crash: impl Fn(S) -> C,
) -> Result<(S, f64, FlashStats), String> {
    let mut times = Vec::with_capacity(RECOVERIES);
    let mut first = None;
    loop {
        let before = ledger(&crashed);
        let t0 = Instant::now();
        let state = recover(crashed)?;
        times.push(t0.elapsed().as_secs_f64());
        let delta = recovered_ledger(&state).delta_since(&before);
        first.get_or_insert(delta);
        if times.len() == RECOVERIES {
            let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
            return Ok((state, fastest, first.expect("set above")));
        }
        crashed = crash(state);
    }
}

/// What one pass measured. Host-clock figures are summarized per pass
/// and the run reports their median over passes, which keeps a pass that
/// a noisy neighbour slowed from moving the result.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Load + warm-up wall time.
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub measured_s: f64,
    /// Primary operations completed in the measured phase.
    pub ops: u64,
    pub op_p50_us: f64,
    pub op_p99_us: f64,
    pub read_p50_us: f64,
    /// Pages the read ops delivered per second of read-op time.
    pub read_pages_per_s: f64,
    /// Simulated-clock ledger of the measured phase (every chip).
    pub sim: FlashStats,
    /// Host time from crashed chips to a usable store (+ structures).
    pub recovery_s: f64,
    /// Simulated flash time of that recovery, µs.
    pub recovery_io_us: u64,
}

/// A pass's raw measurements, before they are summarized.
pub struct PassRaw {
    pub setup_s: f64,
    pub measured_s: f64,
    pub ops: u64,
    /// Host latency of every primary op.
    pub op_ns: Vec<u64>,
    /// Host latency of every read op.
    pub read_ns: Vec<u64>,
    /// Pages the read ops delivered.
    pub read_pages: u64,
    pub sim: FlashStats,
    pub recovery_s: f64,
    pub recovery_io_us: u64,
}

impl From<PassRaw> for Pass {
    fn from(mut r: PassRaw) -> Pass {
        let read_s = r.read_ns.iter().sum::<u64>() as f64 / 1e9;
        Pass {
            setup_s: r.setup_s,
            measured_s: r.measured_s,
            ops: r.ops,
            op_p50_us: percentile_us(&mut r.op_ns, 0.5),
            op_p99_us: percentile_us(&mut r.op_ns, 0.99),
            read_p50_us: percentile_us(&mut r.read_ns, 0.5),
            read_pages_per_s: ratio(r.read_pages as f64, read_s),
            sim: r.sim,
            recovery_s: r.recovery_s,
            recovery_io_us: r.recovery_io_us,
        }
    }
}

/// Repeat `pass` until `seconds` of measured time has accumulated and at
/// least [`MIN_PASSES`] ran. `deterministic` workloads must produce the
/// same simulated ledger on every pass of a seed — checked.
pub fn repeat_passes(
    seconds: u64,
    deterministic: bool,
    mut pass: impl FnMut() -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let measured: f64 = passes.iter().map(|p| p.measured_s).sum();
        if passes.len() >= MIN_PASSES
            && (measured >= seconds as f64 || started.elapsed() >= WALL_CAP)
        {
            break;
        }
        let p = pass()?;
        if deterministic {
            if let Some(first) = passes.first() {
                crate::check(p.sim == first.sim && p.ops == first.ops, || {
                    format!(
                        "pass {} of one seed diverged on the simulated clock: {:?} vs {:?}",
                        passes.len(),
                        p.sim.total(),
                        first.sim.total()
                    )
                })?;
            }
        }
        passes.push(p);
    }
    Ok(passes)
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order: the median
/// over passes of each per-pass figure.
pub fn end_to_end(passes: &[Pass]) -> Result<Report, String> {
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<f64>>());
    let per_op = |v: u64, p: &Pass| ratio(v as f64, p.ops as f64);
    let values = [
        med(&|p| p.setup_s),
        peak_rss_mb()?,
        med(&|p| ratio(p.ops as f64, p.measured_s)),
        med(&|p| p.op_p50_us),
        med(&|p| p.op_p99_us),
        med(&|p| p.read_p50_us),
        med(&|p| p.read_pages_per_s),
        med(&|p| per_op(p.sim.total().total_us(), p)),
        med(&|p| per_op(p.sim.total().erases, p)),
        med(&|p| p.recovery_s * 1e3),
        med(&|p| p.recovery_io_us as f64 / 1e3),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let attempted = passes.iter().map(|p| p.ops).sum();
    Ok(Report { attempted, failed: 0, metrics })
}
