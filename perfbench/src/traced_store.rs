//! A forwarding [`PageStore`] that times every call into the store.
//!
//! The traced `tpcc` run puts this wrapper between [`pdl_storage::Database`]
//! and the PDL store, so each store call a transaction makes becomes a
//! child span of the transaction's root span, carrying the simulated-clock
//! delta the call caused. Every trait method is forwarded — the defaulted
//! ones too — because a default left in place would silently change
//! behaviour (a `txn_supported` left at `false`, for instance, would take
//! the database off the transactional commit path).

use crate::check;
use crate::trace::Tracer;
use pdl_core::{ChangeRange, PageStore, Result, StoreOptions, StructRootsSnapshot};
use pdl_flash::{FlashChip, FlashStats, WearSummary};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A tracer shared between the driving loop and the wrapped store.
pub type SharedTracer = Arc<Mutex<Tracer>>;

/// Prefix of every span the wrapper records (the store's layer).
pub const STORE_LAYER: &str = "pdl.";

/// Run `f` on the shared tracer, when there is one.
pub fn with_tracer(tracer: Option<&SharedTracer>, f: impl FnOnce(&mut Tracer)) {
    if let Some(t) = tracer {
        f(&mut t.lock().expect("tracer lock poisoned by a panicking thread"));
    }
}

/// The traced run of a single-threaded, deterministic workload: one pass
/// of the seed with the tracer installed, then the same pass untraced as
/// the reference. The tracing must not move the simulated clock by a
/// single µs or flash op (`sim` picks a pass's measured-phase ledger).
pub fn traced_pair<M>(
    mut pass: impl FnMut(Option<&SharedTracer>) -> std::result::Result<M, String>,
    sim: impl Fn(&M) -> FlashStats,
) -> std::result::Result<(M, M, Tracer), String> {
    let tracer: SharedTracer = Arc::new(Mutex::new(Tracer::new(Instant::now())));
    let traced = pass(Some(&tracer))?;
    let reference = pass(None)?;
    check(sim(&traced) == sim(&reference), || {
        format!(
            "tracing perturbed the simulated clock: traced {:?}, untraced {:?}",
            sim(&traced).total(),
            sim(&reference).total()
        )
    })?;
    let tracer = Arc::try_unwrap(tracer)
        .map_err(|_| "the tracer is still shared after the pass".to_string())?
        .into_inner()
        .map_err(|_| "tracer lock poisoned by a panicking thread".to_string())?;
    Ok((traced, reference, tracer))
}

/// Forwards every [`PageStore`] call to `inner`, recording a span for
/// each call that can touch flash.
pub struct TracedStore {
    inner: Box<dyn PageStore>,
    tracer: SharedTracer,
}

impl TracedStore {
    pub fn new(inner: Box<dyn PageStore>, tracer: SharedTracer) -> TracedStore {
        TracedStore { inner, tracer }
    }

    fn timed<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut dyn PageStore) -> Result<R>,
    ) -> Result<R> {
        let before = self.inner.stats();
        with_tracer(Some(&self.tracer), |t| t.enter(name));
        let r = f(self.inner.as_mut());
        let delta = self.inner.stats().delta_since(&before);
        with_tracer(Some(&self.tracer), |t| {
            t.exit_with(Some(delta));
        });
        r
    }
}

impl PageStore for TracedStore {
    fn options(&self) -> &StoreOptions {
        self.inner.options()
    }

    fn read_page(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
        self.timed("pdl.read_page", |s| s.read_page(pid, out))
    }

    fn apply_update(&mut self, pid: u64, page_after: &[u8], changes: &[ChangeRange]) -> Result<()> {
        self.timed("pdl.apply_update", |s| s.apply_update(pid, page_after, changes))
    }

    fn evict_page(&mut self, pid: u64, page: &[u8]) -> Result<()> {
        self.timed("pdl.evict_page", |s| s.evict_page(pid, page))
    }

    fn flush(&mut self) -> Result<()> {
        self.timed("pdl.flush", |s| s.flush())
    }

    fn prefetch(&mut self, pid: u64) -> Result<()> {
        self.timed("pdl.prefetch", |s| s.prefetch(pid))
    }

    fn pipeline_busy_us(&self) -> u64 {
        self.inner.pipeline_busy_us()
    }

    fn chip(&self) -> &FlashChip {
        self.inner.chip()
    }

    fn chip_mut(&mut self) -> &mut FlashChip {
        self.inner.chip_mut()
    }

    fn stats(&self) -> FlashStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn wear_summary(&self) -> WearSummary {
        self.inner.wear_summary()
    }

    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }

    fn into_chip(self: Box<Self>) -> FlashChip {
        self.inner.into_chip()
    }

    fn into_chips(self: Box<Self>) -> Vec<FlashChip> {
        self.inner.into_chips()
    }

    fn logical_page_size(&self) -> usize {
        self.inner.logical_page_size()
    }

    fn write_page(&mut self, pid: u64, page: &[u8]) -> Result<()> {
        self.timed("pdl.write_page", |s| s.write_page(pid, page))
    }

    fn txn_supported(&self) -> bool {
        self.inner.txn_supported()
    }

    fn txn_reserve(&mut self, pages: u64) -> Result<()> {
        self.timed("pdl.txn_reserve", |s| s.txn_reserve(pages))
    }

    fn txn_stage(&mut self, pid: u64, page: &[u8], txn: u64) -> Result<()> {
        self.timed("pdl.txn_stage", |s| s.txn_stage(pid, page, txn))
    }

    fn txn_flush_stage(&mut self) -> Result<()> {
        self.timed("pdl.txn_flush_stage", |s| s.txn_flush_stage())
    }

    fn txn_append_commit(&mut self, txn: u64) -> Result<()> {
        self.timed("pdl.txn_append_commit", |s| s.txn_append_commit(txn))
    }

    fn txn_append_commit_epoch(&mut self, txns: &[u64]) -> Result<()> {
        self.timed("pdl.txn_append_commit_epoch", |s| s.txn_append_commit_epoch(txns))
    }

    fn spill_supported(&self) -> bool {
        self.inner.spill_supported()
    }

    fn spill_page(&mut self, pid: u64, page: &[u8]) -> Result<u64> {
        self.timed("pdl.spill_page", |s| s.spill_page(pid, page))
    }

    fn read_spill(&mut self, pid: u64, handle: u64, out: &mut [u8]) -> Result<()> {
        self.timed("pdl.read_spill", |s| s.read_spill(pid, handle, out))
    }

    fn free_spill(&mut self, pid: u64, handle: u64) -> Result<()> {
        self.timed("pdl.free_spill", |s| s.free_spill(pid, handle))
    }

    fn txn_finalize(&mut self) -> Result<()> {
        self.timed("pdl.txn_finalize", |s| s.txn_finalize())
    }

    fn txn_id_floor(&self) -> u64 {
        self.inner.txn_id_floor()
    }

    fn checkpoint(&mut self) -> Result<()> {
        self.timed("pdl.checkpoint", |s| s.checkpoint())
    }

    fn txn_stage_struct_roots(&mut self, roots: &StructRootsSnapshot, txn: u64) -> Result<()> {
        self.timed("pdl.txn_stage_struct_roots", |s| s.txn_stage_struct_roots(roots, txn))
    }

    fn struct_roots(&self) -> Option<StructRootsSnapshot> {
        self.inner.struct_roots()
    }

    fn struct_root_log_space(&self) -> u64 {
        self.inner.struct_root_log_space()
    }

    fn per_shard_busy_us(&self) -> Vec<u64> {
        self.inner.per_shard_busy_us()
    }
}
