//! Per-layer metrics of the traced run, named after this repository's
//! modules (`flash`, `ftl`, `pdl`, `recovery`, `buffer`, `db`, `tpcc`,
//! `view`, `pool`, `shard`), plus the measured phase's first/last
//! quarter (`phase`) and the tracing itself (`trace`).
//!
//! Every workload reports every metric; a layer a workload bypasses
//! reads 0.

use crate::cli::Args;
use crate::harness::Pass;
use crate::report::{Metric, Report};
use crate::stats::{percentile_us, ratio};
use crate::trace::Tracer;
use crate::traced_store::STORE_LAYER;
use pdl_flash::FlashStats;
use pdl_storage::BufferStats;
use std::collections::BTreeMap;

/// Per-layer metrics, `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("flash.io_us_per_op", "us"),
    ("flash.user_read_us_per_op", "us"),
    ("flash.user_program_us_per_op", "us"),
    ("flash.user_erase_us_per_op", "us"),
    ("flash.gc_read_us_per_op", "us"),
    ("flash.gc_program_us_per_op", "us"),
    ("flash.gc_erase_us_per_op", "us"),
    ("flash.recovery_read_us_per_op", "us"),
    ("flash.recovery_program_us_per_op", "us"),
    ("flash.recovery_erase_us_per_op", "us"),
    ("flash.reads_per_op", "1"),
    ("flash.programs_per_op", "1"),
    ("ftl.gc_us_per_op", "us"),
    ("ftl.write_amp", "1"),
    ("ftl.migrated_pages_per_op", "1"),
    ("ftl.gc_runs_per_op", "1"),
    ("pdl.store_us_per_op", "us"),
    ("pdl.store_calls_per_op", "1"),
    ("pdl.read_page_p50_us", "us"),
    ("pdl.read_page_p99_us", "us"),
    ("pdl.apply_update_p50_us", "us"),
    ("pdl.evict_page_p50_us", "us"),
    ("pdl.evict_page_p99_us", "us"),
    ("pdl.evict_gc_p50_us", "us"),
    ("pdl.reads_per_recreation_max", "count"),
    ("pdl.user_programs_per_reflection_mean", "1"),
    ("pdl.user_programs_per_reflection_max", "count"),
    ("pdl.case1_frac", "1"),
    ("pdl.case2_frac", "1"),
    ("pdl.case3_frac", "1"),
    ("pdl.dwb_flushes_per_op", "1"),
    ("pdl.txn_calls_us_per_txn", "us"),
    ("pdl.checkpoints_per_op", "1"),
    ("recovery.store_ms", "ms"),
    ("recovery.structures_ms", "ms"),
    ("recovery.pages_read", "count"),
    ("buffer.hit_rate", "1"),
    ("buffer.misses_per_op", "1"),
    ("buffer.evictions_per_op", "1"),
    ("buffer.dirty_writebacks_per_op", "1"),
    ("db.self_us_per_txn", "us"),
    ("tpcc.new_order_p50_us", "us"),
    ("tpcc.payment_p50_us", "us"),
    ("tpcc.order_status_p50_us", "us"),
    ("tpcc.delivery_p50_us", "us"),
    ("tpcc.stock_level_p50_us", "us"),
    ("tpcc.rollback_frac", "1"),
    ("view.open_close_p50_us", "us"),
    ("view.page_read_p50_us", "us"),
    ("view.version_reads_per_op", "1"),
    ("view.spilled_versions_per_op", "1"),
    ("view.ledger_hits_per_op", "1"),
    ("view.flash_resolves_per_op", "1"),
    ("pool.commit_p50_us", "us"),
    ("pool.commit_p99_us", "us"),
    ("pool.page_mut_p50_us", "us"),
    ("pool.commit_flush_us_per_commit", "us"),
    ("shard.busy_max_ms", "ms"),
    ("phase.q1_io_us_per_op", "us"),
    ("phase.q4_io_us_per_op", "us"),
    ("phase.q1_checkpoints_per_op", "1"),
    ("phase.q4_checkpoints_per_op", "1"),
    ("trace.ops_per_s", "op/s"),
    ("trace.overhead_frac", "1"),
    ("trace.spans", "count"),
];

/// Where the traced run writes its Chrome trace (relative to the
/// working directory, the repository root).
pub const TRACE_DIR: &str = "bench_out";

/// Collects per-layer values by name; [`LayerMetrics::into_report`]
/// emits them in [`PER_LAYER`] order, 0 for every layer not set.
#[derive(Default)]
pub struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
}

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.values.insert(name, value);
    }

    pub fn into_report(self, attempted: u64, failed: u64) -> Report {
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        Report { attempted, failed, metrics }
    }

    /// The simulated clock by context × operation, per op. The nine parts
    /// sum to the total exactly in integer µs; that conservation is
    /// checked here, before any division.
    pub fn set_flash(&mut self, sim: &FlashStats, ops: u64) -> Result<(), String> {
        let per = |us: u64| ratio(us as f64, ops as f64);
        let parts = [
            ("flash.user_read_us_per_op", sim.user.read_us),
            ("flash.user_program_us_per_op", sim.user.write_us),
            ("flash.user_erase_us_per_op", sim.user.erase_us),
            ("flash.gc_read_us_per_op", sim.gc.read_us),
            ("flash.gc_program_us_per_op", sim.gc.write_us),
            ("flash.gc_erase_us_per_op", sim.gc.erase_us),
            ("flash.recovery_read_us_per_op", sim.recovery.read_us),
            ("flash.recovery_program_us_per_op", sim.recovery.write_us),
            ("flash.recovery_erase_us_per_op", sim.recovery.erase_us),
        ];
        let total = sim.total().total_us();
        let sum: u64 = parts.iter().map(|(_, us)| us).sum();
        crate::check(sum == total, || {
            format!("simulated parts sum to {sum} us, total is {total} us")
        })?;
        for (name, us) in parts {
            self.set(name, per(us));
        }
        self.set("flash.io_us_per_op", per(total));
        self.set("flash.reads_per_op", per(sim.total().reads));
        self.set("flash.programs_per_op", per(sim.total().writes));
        self.set("ftl.gc_us_per_op", per(sim.gc.total_us()));
        self.set("ftl.write_amp", sim.write_amplification());
        self.set("ftl.migrated_pages_per_op", per(sim.migrated_pages()));
        Ok(())
    }

    /// PDL method counters (deltas over the measured phase), per op.
    pub fn set_pdl_counters(&mut self, counters: &Counters, ops: u64) {
        let per = |v: u64| ratio(v as f64, ops as f64);
        let case1 = counters.get("case1_staged");
        let case2 = counters.get("case2_flush_then_staged");
        let case3 = counters.get("case3_new_base");
        let cases = (case1 + case2 + case3) as f64;
        self.set("pdl.case1_frac", ratio(case1 as f64, cases));
        self.set("pdl.case2_frac", ratio(case2 as f64, cases));
        self.set("pdl.case3_frac", ratio(case3 as f64, cases));
        self.set("pdl.dwb_flushes_per_op", per(counters.get("dwb_flushes")));
        self.set("pdl.checkpoints_per_op", per(counters.get("checkpoints")));
        self.set("ftl.gc_runs_per_op", per(counters.get("gc_runs")));
    }

    /// Host-clock figures of the store calls the wrapper timed.
    pub fn set_store_calls(&mut self, tracer: &Tracer, ops: u64) {
        let per = |v: f64| ratio(v, ops as f64);
        let store = tracer.aggs().iter().filter(|(n, _)| n.starts_with(STORE_LAYER));
        let (calls, ns) = store.fold((0, 0), |(c, t), (_, a)| (c + a.count, t + a.total_ns));
        self.set("pdl.store_us_per_op", per(ns as f64 / 1e3));
        self.set("pdl.store_calls_per_op", per(calls as f64));
        let mut read = tracer.agg("pdl.read_page");
        self.set("pdl.read_page_p50_us", percentile_us(&mut read.durations_ns, 0.5));
        self.set("pdl.read_page_p99_us", percentile_us(&mut read.durations_ns, 0.99));
        self.set("pdl.reads_per_recreation_max", read.max_user_reads as f64);
        let mut apply = tracer.agg("pdl.apply_update");
        self.set("pdl.apply_update_p50_us", percentile_us(&mut apply.durations_ns, 0.5));
        // Reflections: plain evictions plus transactional stages.
        let mut evict = tracer.agg("pdl.evict_page");
        let stage = tracer.agg("pdl.txn_stage");
        self.set("pdl.evict_page_p50_us", percentile_us(&mut evict.durations_ns, 0.5));
        self.set("pdl.evict_page_p99_us", percentile_us(&mut evict.durations_ns, 0.99));
        let mut erasing = evict.erasing_ns.clone();
        erasing.extend_from_slice(&stage.erasing_ns);
        self.set("pdl.evict_gc_p50_us", percentile_us(&mut erasing, 0.5));
        let reflections = evict.count + stage.count;
        let user_programs = evict.flash.user.writes + stage.flash.user.writes;
        self.set(
            "pdl.user_programs_per_reflection_mean",
            ratio(user_programs as f64, reflections as f64),
        );
        self.set(
            "pdl.user_programs_per_reflection_max",
            evict.max_user_writes.max(stage.max_user_writes) as f64,
        );
    }
}

/// `after - before` for the counters; the gauges keep `after`'s value.
pub fn buffer_delta(after: &BufferStats, before: &BufferStats) -> BufferStats {
    BufferStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        dirty_writebacks: after.dirty_writebacks - before.dirty_writebacks,
        version_reads: after.version_reads - before.version_reads,
        spilled_versions: after.spilled_versions - before.spilled_versions,
        ledger_hits: after.ledger_hits - before.ledger_hits,
        flash_resolves: after.flash_resolves - before.flash_resolves,
        commit_flush_us_sum: after.commit_flush_us_sum - before.commit_flush_us_sum,
        commit_flush_us_max: after.commit_flush_us_max - before.commit_flush_us_max,
        ..*after
    }
}

/// A snapshot of a store's `counters()`, subtractable.
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn of(list: Vec<(&'static str, u64)>) -> Counters {
        let mut m = BTreeMap::new();
        for (k, v) in list {
            *m.entry(k).or_insert(0) += v;
        }
        Counters(m)
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// `self - earlier`, per counter (gauges that fell read 0).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(self.0.iter().map(|(k, v)| (*k, v.saturating_sub(earlier.get(k)))).collect())
    }
}

impl LayerMetrics {
    /// Buffer-pool and read-view counters (deltas over the measured
    /// phase), per op.
    pub fn set_buffer(&mut self, b: &BufferStats, ops: u64) {
        let per = |v: u64| ratio(v as f64, ops as f64);
        self.set("buffer.hit_rate", b.hit_rate());
        self.set("buffer.misses_per_op", per(b.misses));
        self.set("buffer.evictions_per_op", per(b.evictions));
        self.set("buffer.dirty_writebacks_per_op", per(b.dirty_writebacks));
        self.set("view.version_reads_per_op", per(b.version_reads));
        self.set("view.spilled_versions_per_op", per(b.spilled_versions));
        self.set("view.ledger_hits_per_op", per(b.ledger_hits));
        self.set("view.flash_resolves_per_op", per(b.flash_resolves));
    }

    /// First- and last-quarter simulated cost per op of the measured
    /// phase (`quarters` = [q1, q4] ledgers).
    pub fn set_phase(&mut self, quarters: &[FlashStats; 2], quarter_ops: u64) {
        let per = |s: &FlashStats| ratio(s.total().total_us() as f64, quarter_ops as f64);
        self.set("phase.q1_io_us_per_op", per(&quarters[0]));
        self.set("phase.q4_io_us_per_op", per(&quarters[1]));
    }

    /// The tracing's own figures — traced throughput, its overhead over
    /// the untraced `reference` pass of the same seed, span count — and
    /// the Chrome trace file.
    pub fn set_trace(
        &mut self,
        tracer: &Tracer,
        traced: &Pass,
        reference: &Pass,
        args: &Args,
    ) -> Result<(), String> {
        self.set("trace.ops_per_s", ratio(traced.ops as f64, traced.measured_s));
        let per_op = |p: &Pass| ratio(p.measured_s, p.ops as f64);
        self.set("trace.overhead_frac", ratio(per_op(traced), per_op(reference)) - 1.0);
        self.set("trace.spans", tracer.span_count() as f64);
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("creating {TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/trace_{}_{}.json", args.workload.name(), args.seed);
        std::fs::write(&path, tracer.chrome_trace()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("trace written to {path}");
        Ok(())
    }
}
