//! The sharded concurrent engine: [`ShardedStore`] partitions the logical
//! page space across N independent [`PageStore`] instances, each over its
//! own [`FlashChip`].
//!
//! PDL's invariants are all *per logical page* (a write reflects only the
//! difference of one page; at most one page is programmed per reflection;
//! at most two pages are read to recreate one), so any partition of the
//! page space preserves them while unlocking parallelism — the same
//! argument made for partition-parallel page-mapping FTLs and for
//! partitioned recovery in distributed in-memory databases.
//!
//! Pages are striped round-robin: page `p` lives on shard `p % N` as that
//! shard's local page `p / N`. The mapping is deterministic and
//! stateless, so crash recovery reconstructs it from `(total, N)` alone,
//! and both sequential and uniform-random workloads spread evenly.
//!
//! Each shard sits behind its own lock; operations on different shards
//! never serialize. The `*_shared` methods take `&self` and return the
//! [`FlashStats`] delta the operation caused on its shard's chip, which is
//! how the multi-threaded workload driver attributes simulated I/O time
//! per thread without a global stats lock.

use crate::page_store::{ChangeRange, MethodKind, PageStore, StoreOptions};
use crate::{build_store, error::CoreError, recover_store, Pdl, Result};
use pdl_flash::{FlashChip, FlashStats, WearSummary};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Nanoseconds of CPU time consumed by the calling thread, from the
/// kernel's per-thread clock. Unlike a wall clock, this does not inflate
/// when the scheduler preempts a thread mid-operation (e.g. more worker
/// threads than cores), so per-shard busy accounting stays a faithful
/// critical-path measure on oversubscribed machines.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid out-pointer and the clock id is a Linux
    // constant; the call writes the timespec and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Monotonic fallback where no per-thread CPU clock is exposed.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed().as_nanos() as u64
}

/// Number of logical pages shard `s` owns when `total` pages are striped
/// across `n` shards.
pub fn shard_pages(total: u64, n: usize, s: usize) -> u64 {
    let (n, s) = (n as u64, s as u64);
    if s >= total {
        0
    } else {
        (total - s).div_ceil(n)
    }
}

/// A hash-partitioned (striped) page store over N per-shard stores.
pub struct ShardedStore {
    shards: Vec<Mutex<Box<dyn PageStore>>>,
    /// CPU nanoseconds each shard's lock was held by `*_shared`
    /// operations. The maximum over shards is the engine's critical path:
    /// `ops / max_busy` bounds the throughput any number of worker
    /// threads can reach, independent of how many cores the measuring
    /// machine happens to have.
    busy_ns: Vec<AtomicU64>,
    /// Shards staged into by the current exclusive (`&mut self`) commit
    /// batch — the involved set whose shards receive the commit record.
    txn_staged_shards: Mutex<HashSet<usize>>,
    opts: StoreOptions,
    kind: MethodKind,
    data_size: usize,
}

impl ShardedStore {
    /// Build a sharded store of `chips.len()` shards: chip `i` backs shard
    /// `i`, holding every logical page `p` with `p % N == i`.
    ///
    /// All chips must share the same page data size, and there must be at
    /// least as many logical pages as shards (otherwise a shard would own
    /// an empty page range).
    pub fn new(
        chips: Vec<FlashChip>,
        kind: MethodKind,
        opts: StoreOptions,
    ) -> Result<ShardedStore> {
        Self::build(chips, kind, opts, false)
    }

    /// Rebuild a sharded store from chips that survived a crash. Shard
    /// recovery scans run in parallel, one thread per shard.
    pub fn recover(
        chips: Vec<FlashChip>,
        kind: MethodKind,
        opts: StoreOptions,
    ) -> Result<ShardedStore> {
        Self::build(chips, kind, opts, true)
    }

    fn build(
        chips: Vec<FlashChip>,
        kind: MethodKind,
        opts: StoreOptions,
        recovering: bool,
    ) -> Result<ShardedStore> {
        let n = chips.len();
        if n == 0 {
            return Err(CoreError::BadConfig("a sharded store needs at least one chip".into()));
        }
        if (opts.num_logical_pages as u128) < n as u128 {
            return Err(CoreError::BadConfig(format!(
                "{} logical pages cannot stripe across {} shards",
                opts.num_logical_pages, n
            )));
        }
        let data_size = chips[0].geometry().data_size;
        if chips.iter().any(|c| c.geometry().data_size != data_size) {
            return Err(CoreError::BadConfig(
                "all shard chips must share the same page data size".into(),
            ));
        }

        let total = opts.num_logical_pages;
        // PDL recovery resolves torn transactions *globally*: a commit is
        // valid only if every shard that carries its tags also carries a
        // local commit record, so the read-only precheck runs over every
        // chip first and the union of the per-shard torn sets gates every
        // shard's table rebuild. The precheck is checkpoint-aware: under
        // a fresh checkpoint it only sweeps the blocks changed since, and
        // it hands the loaded checkpoint delta to the table rebuild so
        // the checkpoint region is read exactly once per shard.
        if recovering && matches!(kind, MethodKind::Pdl { .. }) {
            let mut chips = chips;
            let prechecks: Vec<Result<(HashSet<u64>, Option<crate::pdl::CheckpointDelta>)>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = chips
                        .iter_mut()
                        .enumerate()
                        .map(|(s, chip)| {
                            let shard_opts = StoreOptions {
                                num_logical_pages: shard_pages(total, n, s),
                                ..opts
                            };
                            scope.spawn(move || crate::pdl::txn_precheck_fast(chip, &shard_opts))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("precheck panicked")).collect()
                });
            let mut union = HashSet::new();
            let mut deltas = Vec::with_capacity(n);
            for r in prechecks {
                let (torn, delta) = r?;
                union.extend(torn);
                deltas.push(delta);
            }
            return Self::build_shards(
                chips,
                kind,
                opts,
                recovering,
                Some(union),
                deltas,
                data_size,
            );
        }
        let no_deltas = (0..n).map(|_| None).collect();
        Self::build_shards(chips, kind, opts, recovering, None, no_deltas, data_size)
    }

    fn build_shards(
        chips: Vec<FlashChip>,
        kind: MethodKind,
        opts: StoreOptions,
        recovering: bool,
        uncommitted: Option<HashSet<u64>>,
        deltas: Vec<Option<crate::pdl::CheckpointDelta>>,
        data_size: usize,
    ) -> Result<ShardedStore> {
        let n = chips.len();
        let total = opts.num_logical_pages;
        // Per-shard recovery is embarrassingly parallel: each shard scans
        // only its own chip. Building fresh stores is cheap, but recovery
        // reads every page header, so both paths share the scoped-thread
        // fan-out (§4.5's recovery cost divided by N).
        let results: Vec<Result<Box<dyn PageStore>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chips
                .into_iter()
                .zip(deltas)
                .enumerate()
                .map(|(s, (chip, delta))| {
                    let shard_opts =
                        StoreOptions { num_logical_pages: shard_pages(total, n, s), ..opts };
                    let uncommitted = uncommitted.clone();
                    scope.spawn(move || -> Result<Box<dyn PageStore>> {
                        match (recovering, kind) {
                            (true, MethodKind::Pdl { max_diff_size }) => match delta {
                                Some(delta) => Ok(Box::new(Pdl::recover_with_delta(
                                    chip,
                                    shard_opts,
                                    max_diff_size,
                                    uncommitted.unwrap_or_default(),
                                    delta,
                                )?)),
                                None => Ok(Box::new(Pdl::recover_with_uncommitted(
                                    chip,
                                    shard_opts,
                                    max_diff_size,
                                    uncommitted,
                                )?)),
                            },
                            (true, _) => recover_store(chip, kind, shard_opts),
                            (false, _) => build_store(chip, kind, shard_opts),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard builder panicked")).collect()
        });
        let mut shards = Vec::with_capacity(n);
        for r in results {
            shards.push(Mutex::new(r?));
        }
        let busy_ns = (0..n).map(|_| AtomicU64::new(0)).collect();
        Ok(ShardedStore {
            shards,
            busy_ns,
            txn_staged_shards: Mutex::new(HashSet::new()),
            opts,
            kind,
            data_size,
        })
    }

    /// Convenience: N identically-configured chips from one config.
    pub fn with_uniform_chips(
        config: pdl_flash::FlashConfig,
        num_shards: usize,
        kind: MethodKind,
        opts: StoreOptions,
    ) -> Result<ShardedStore> {
        let chips = (0..num_shards).map(|_| FlashChip::new(config)).collect();
        ShardedStore::new(chips, kind, opts)
    }

    /// The shard that owns logical page `pid`.
    pub fn shard_of(&self, pid: u64) -> usize {
        (pid % self.shards.len() as u64) as usize
    }

    /// `pid`'s shard-local page id (the striping contract: page `p` is
    /// shard `p % N`'s local page `p / N`).
    pub fn local_pid(&self, pid: u64) -> u64 {
        pid / self.shards.len() as u64
    }

    /// The method every shard runs.
    pub fn kind(&self) -> MethodKind {
        self.kind
    }

    fn locate(&self, pid: u64) -> Result<(usize, u64)> {
        self.opts.check_pid(pid)?;
        let n = self.shards.len() as u64;
        Ok(((pid % n) as usize, pid / n))
    }

    fn lock_shard(&self, s: usize) -> std::sync::MutexGuard<'_, Box<dyn PageStore>> {
        self.shards[s].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` against shard `s`'s store (its pids are shard-local).
    pub fn with_shard<R>(&self, s: usize, f: impl FnOnce(&mut dyn PageStore) -> R) -> R {
        let mut guard = self.lock_shard(s);
        f(guard.as_mut())
    }

    fn tracked<R>(
        &self,
        pid: u64,
        f: impl FnOnce(&mut dyn PageStore, u64) -> Result<R>,
    ) -> Result<(R, FlashStats)> {
        let (s, local) = self.locate(pid)?;
        let mut guard = self.lock_shard(s);
        let started = thread_cpu_ns();
        let before = guard.stats();
        let r = f(guard.as_mut(), local)?;
        let delta = guard.stats().delta_since(&before);
        self.busy_ns[s].fetch_add(thread_cpu_ns().saturating_sub(started), Ordering::Relaxed);
        Ok((r, delta))
    }

    /// Concurrent [`PageStore::read_page`]: locks only the owning shard
    /// and returns the flash-cost delta of the operation.
    pub fn read_page_shared(&self, pid: u64, out: &mut [u8]) -> Result<FlashStats> {
        Ok(self.tracked(pid, |s, local| s.read_page(local, out))?.1)
    }

    /// Concurrent [`PageStore::apply_update`].
    pub fn apply_update_shared(
        &self,
        pid: u64,
        page_after: &[u8],
        changes: &[ChangeRange],
    ) -> Result<FlashStats> {
        Ok(self.tracked(pid, |s, local| s.apply_update(local, page_after, changes))?.1)
    }

    /// Concurrent [`PageStore::evict_page`].
    pub fn evict_page_shared(&self, pid: u64, page: &[u8]) -> Result<FlashStats> {
        Ok(self.tracked(pid, |s, local| s.evict_page(local, page))?.1)
    }

    /// Concurrent whole-page write (update notification + reflection).
    pub fn write_page_shared(&self, pid: u64, page: &[u8]) -> Result<FlashStats> {
        Ok(self
            .tracked(pid, |s, local| {
                s.apply_update(local, page, &[ChangeRange::new(0, page.len())])?;
                s.evict_page(local, page)
            })?
            .1)
    }

    /// Write-through every shard.
    pub fn flush_shared(&self) -> Result<()> {
        for s in 0..self.shards.len() {
            self.lock_shard(s).flush()?;
        }
        Ok(())
    }

    /// Aggregate flash statistics over every shard, without `&mut`.
    pub fn stats_shared(&self) -> FlashStats {
        self.per_shard_stats().into_iter().fold(FlashStats::default(), |a, b| a + b)
    }

    /// Reset every shard chip's statistics ledger and the busy-time
    /// counters.
    pub fn reset_stats_shared(&self) {
        for s in 0..self.shards.len() {
            self.lock_shard(s).reset_stats();
        }
        self.reset_busy();
    }

    /// Per-shard flash statistics, shard order.
    pub fn per_shard_stats(&self) -> Vec<FlashStats> {
        (0..self.shards.len()).map(|s| self.lock_shard(s).stats()).collect()
    }

    /// CPU time each shard's lock has been held by `*_shared` operations
    /// since the last [`ShardedStore::reset_busy`]. The maximum entry is
    /// the engine's critical path: no thread count can push past
    /// `ops / max_busy` operations per second, so shrinking it by adding
    /// shards is exactly the concurrency sharding buys.
    pub fn per_shard_busy(&self) -> Vec<Duration> {
        self.busy_ns.iter().map(|b| Duration::from_nanos(b.load(Ordering::Relaxed))).collect()
    }

    /// Zero the per-shard busy-time counters.
    pub fn reset_busy(&self) {
        for b in &self.busy_ns {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Per-shard wear summaries, shard order.
    pub fn per_shard_wear(&self) -> Vec<WearSummary> {
        (0..self.shards.len()).map(|s| self.lock_shard(s).wear_summary()).collect()
    }

    /// Concurrent [`PageStore::spill_page`]: park a cold version's bytes
    /// on the owning shard's chip, returning the retention-ledger handle
    /// plus the flash-cost delta. The handle is shard-local; `pid` routes
    /// every later [`ShardedStore::read_spill_shared`] /
    /// [`ShardedStore::free_spill_shared`] back to the same shard, so
    /// `(pid, handle)` is globally unambiguous.
    pub fn spill_page_shared(&self, pid: u64, page: &[u8]) -> Result<(u64, FlashStats)> {
        self.tracked(pid, |s, local| s.spill_page(local, page))
    }

    /// Concurrent [`PageStore::read_spill`].
    pub fn read_spill_shared(&self, pid: u64, handle: u64, out: &mut [u8]) -> Result<FlashStats> {
        Ok(self.tracked(pid, |s, local| s.read_spill(local, handle, out))?.1)
    }

    /// Concurrent [`PageStore::free_spill`].
    pub fn free_spill_shared(&self, pid: u64, handle: u64) -> Result<FlashStats> {
        Ok(self.tracked(pid, |s, local| s.free_spill(local, handle))?.1)
    }

    /// Whether the shard method supports version spill (uniform across
    /// shards: they all run the same method).
    pub fn spill_supported_shared(&self) -> bool {
        self.lock_shard(0).spill_supported()
    }

    /// Concurrent [`PageStore::prefetch`]: hint the owning shard without
    /// waiting for the reads (range-scan read-ahead).
    pub fn prefetch_shared(&self, pid: u64) -> Result<()> {
        let (s, local) = self.locate(pid)?;
        self.lock_shard(s).prefetch(local)
    }

    /// Per-shard pipeline busy time (µs) since the last stats reset,
    /// shard order. The maximum entry is the flash critical path of the
    /// engine: shards are independent chips, so simulated time advances
    /// on each in parallel.
    pub fn per_shard_pipeline_us(&self) -> Vec<u64> {
        (0..self.shards.len()).map(|s| self.lock_shard(s).pipeline_busy_us()).collect()
    }

    /// Tear down and return every shard's chip, shard order.
    pub fn into_shard_chips(self) -> Vec<FlashChip> {
        self.shards
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()).into_chips())
            .flat_map(|chips| {
                debug_assert_eq!(chips.len(), 1, "shards are single-chip stores");
                chips
            })
            .collect()
    }
}

impl PageStore for ShardedStore {
    fn options(&self) -> &StoreOptions {
        &self.opts
    }

    fn read_page(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
        let (s, local) = self.locate(pid)?;
        self.shards[s].get_mut().unwrap_or_else(|e| e.into_inner()).read_page(local, out)
    }

    fn apply_update(&mut self, pid: u64, page_after: &[u8], changes: &[ChangeRange]) -> Result<()> {
        let (s, local) = self.locate(pid)?;
        self.shards[s]
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .apply_update(local, page_after, changes)
    }

    fn evict_page(&mut self, pid: u64, page: &[u8]) -> Result<()> {
        let (s, local) = self.locate(pid)?;
        self.shards[s].get_mut().unwrap_or_else(|e| e.into_inner()).evict_page(local, page)
    }

    fn flush(&mut self) -> Result<()> {
        for shard in &mut self.shards {
            shard.get_mut().unwrap_or_else(|e| e.into_inner()).flush()?;
        }
        Ok(())
    }

    fn prefetch(&mut self, pid: u64) -> Result<()> {
        let (s, local) = self.locate(pid)?;
        self.shards[s].get_mut().unwrap_or_else(|e| e.into_inner()).prefetch(local)
    }

    fn pipeline_busy_us(&self) -> u64 {
        // Shards are independent chips: the engine's flash critical path
        // is the slowest shard, not the sum.
        self.per_shard_pipeline_us().into_iter().max().unwrap_or(0)
    }

    // --- pdl-txn routing (exclusive commit batches, one txn at a time).
    // The concurrent group-commit coordinator in pdl-storage drives the
    // per-shard stores through `with_shard` instead, batching many
    // transactions' records per shard flush.

    fn txn_supported(&self) -> bool {
        self.lock_shard(0).txn_supported()
    }

    fn txn_reserve(&mut self, pages: u64) -> Result<()> {
        for shard in &mut self.shards {
            shard.get_mut().unwrap_or_else(|e| e.into_inner()).txn_reserve(pages)?;
        }
        Ok(())
    }

    fn txn_stage(&mut self, pid: u64, page: &[u8], txn: u64) -> Result<()> {
        let (s, local) = self.locate(pid)?;
        self.txn_staged_shards.get_mut().unwrap_or_else(|e| e.into_inner()).insert(s);
        self.shards[s].get_mut().unwrap_or_else(|e| e.into_inner()).txn_stage(local, page, txn)
    }

    fn txn_flush_stage(&mut self) -> Result<()> {
        let staged: Vec<usize> = self
            .txn_staged_shards
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect();
        for s in staged {
            self.shards[s].get_mut().unwrap_or_else(|e| e.into_inner()).txn_flush_stage()?;
        }
        Ok(())
    }

    fn txn_append_commit(&mut self, txn: u64) -> Result<()> {
        // One record per involved shard: recovery treats the commit as
        // torn unless every shard carrying the transaction's tags also
        // carries a record.
        let staged: Vec<usize> = self
            .txn_staged_shards
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect();
        for s in staged {
            self.shards[s].get_mut().unwrap_or_else(|e| e.into_inner()).txn_append_commit(txn)?;
        }
        Ok(())
    }

    fn txn_append_commit_epoch(&mut self, txns: &[u64]) -> Result<()> {
        // One epoch record per involved shard, mirroring
        // `txn_append_commit`. The concurrent group-commit coordinator
        // instead drives per-shard stores through `with_shard` with each
        // shard's own involved list, so only transactions that actually
        // staged on a shard are proven there.
        let staged: Vec<usize> = self
            .txn_staged_shards
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect();
        for s in staged {
            self.shards[s]
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .txn_append_commit_epoch(txns)?;
        }
        Ok(())
    }

    fn txn_finalize(&mut self) -> Result<()> {
        let staged =
            std::mem::take(self.txn_staged_shards.get_mut().unwrap_or_else(|e| e.into_inner()));
        // Every involved shard's commit record must be durable before any
        // shard finalizes: finalizing releases that shard's deferred
        // obsolete marks (superseded pre-images, retired commit records),
        // which recovery still needs if the transaction is torn on
        // another shard.
        for s in staged {
            self.shards[s].get_mut().unwrap_or_else(|e| e.into_inner()).txn_flush_stage()?;
        }
        // txn_reserve opened a batch on every shard; close them all.
        for shard in &mut self.shards {
            shard.get_mut().unwrap_or_else(|e| e.into_inner()).txn_finalize()?;
        }
        Ok(())
    }

    fn txn_id_floor(&self) -> u64 {
        (0..self.shards.len()).map(|s| self.lock_shard(s).txn_id_floor()).max().unwrap_or(1)
    }

    fn spill_supported(&self) -> bool {
        self.lock_shard(0).spill_supported()
    }

    fn spill_page(&mut self, pid: u64, page: &[u8]) -> Result<u64> {
        let (s, local) = self.locate(pid)?;
        self.shards[s].get_mut().unwrap_or_else(|e| e.into_inner()).spill_page(local, page)
    }

    fn read_spill(&mut self, pid: u64, handle: u64, out: &mut [u8]) -> Result<()> {
        let (s, local) = self.locate(pid)?;
        self.shards[s].get_mut().unwrap_or_else(|e| e.into_inner()).read_spill(local, handle, out)
    }

    fn free_spill(&mut self, pid: u64, handle: u64) -> Result<()> {
        let (s, local) = self.locate(pid)?;
        self.shards[s].get_mut().unwrap_or_else(|e| e.into_inner()).free_spill(local, handle)
    }

    fn txn_stage_struct_roots(
        &mut self,
        roots: &crate::page_store::StructRootsSnapshot,
        txn: u64,
    ) -> Result<()> {
        // Structure roots live on shard 0's root region. Marking shard 0
        // staged guarantees it also gets a commit record, so the winner
        // check at recovery can prove the record's transaction committed
        // from shard 0's own tables (the torn verdict is already global).
        self.txn_staged_shards.get_mut().unwrap_or_else(|e| e.into_inner()).insert(0);
        self.shards[0]
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .txn_stage_struct_roots(roots, txn)
    }

    fn struct_roots(&self) -> Option<crate::page_store::StructRootsSnapshot> {
        self.lock_shard(0).struct_roots()
    }

    fn struct_root_log_space(&self) -> u64 {
        self.lock_shard(0).struct_root_log_space()
    }

    fn per_shard_busy_us(&self) -> Vec<u64> {
        self.per_shard_pipeline_us()
    }

    fn checkpoint(&mut self) -> Result<()> {
        for shard in &mut self.shards {
            shard.get_mut().unwrap_or_else(|e| e.into_inner()).checkpoint()?;
        }
        Ok(())
    }

    fn chip(&self) -> &FlashChip {
        panic!(
            "ShardedStore spans {} chips and has no single chip; \
             use stats()/wear_summary()/with_shard()",
            self.shards.len()
        );
    }

    fn chip_mut(&mut self) -> &mut FlashChip {
        panic!(
            "ShardedStore spans {} chips and has no single chip; \
             use reset_stats()/with_shard()",
            self.shards.len()
        );
    }

    fn stats(&self) -> FlashStats {
        self.stats_shared()
    }

    fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.get_mut().unwrap_or_else(|e| e.into_inner()).reset_stats();
        }
    }

    fn wear_summary(&self) -> WearSummary {
        WearSummary::merged(self.per_shard_wear())
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn name(&self) -> String {
        format!("Sharded x{} [{}]", self.shards.len(), self.kind.label())
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        // Sum per-shard counters by key, preserving shard 0's key order.
        let mut keys: Vec<&'static str> = Vec::new();
        let mut sums: Vec<u64> = Vec::new();
        for s in 0..self.shards.len() {
            for (k, v) in self.lock_shard(s).counters() {
                match keys.iter().position(|x| *x == k) {
                    Some(i) => sums[i] += v,
                    None => {
                        keys.push(k);
                        sums.push(v);
                    }
                }
            }
        }
        keys.into_iter().zip(sums).collect()
    }

    fn into_chips(self: Box<Self>) -> Vec<FlashChip> {
        self.into_shard_chips()
    }

    fn logical_page_size(&self) -> usize {
        self.opts.frames_per_page as usize * self.data_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_flash::FlashConfig;

    fn sharded(n: usize, pages: u64) -> ShardedStore {
        ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            n,
            MethodKind::Pdl { max_diff_size: 64 },
            StoreOptions::new(pages),
        )
        .unwrap()
    }

    #[test]
    fn shard_pages_partition_the_space() {
        for total in [1u64, 5, 16, 17, 100] {
            for n in 1..=4usize {
                if (total as usize) < n {
                    continue;
                }
                let sum: u64 = (0..n).map(|s| shard_pages(total, n, s)).sum();
                assert_eq!(sum, total, "total {total} over {n} shards");
            }
        }
        assert_eq!(shard_pages(10, 4, 0), 3); // pids 0, 4, 8
        assert_eq!(shard_pages(10, 4, 1), 3); // pids 1, 5, 9
        assert_eq!(shard_pages(10, 4, 2), 2); // pids 2, 6
        assert_eq!(shard_pages(10, 4, 3), 2); // pids 3, 7
    }

    #[test]
    fn striping_routes_and_round_trips() {
        let mut s = sharded(3, 12);
        assert_eq!(s.num_shards(), 3);
        assert_eq!(s.shard_of(7), 1);
        let size = s.logical_page_size();
        for pid in 0..12u64 {
            let page = vec![pid as u8 + 1; size];
            s.write_page(pid, &page).unwrap();
        }
        let mut out = vec![0u8; size];
        for pid in 0..12u64 {
            s.read_page(pid, &mut out).unwrap();
            assert_eq!(out, vec![pid as u8 + 1; size], "pid {pid}");
        }
        assert!(s.read_page(12, &mut out).is_err(), "out-of-range pid");
    }

    #[test]
    fn shared_ops_report_flash_deltas() {
        let s = sharded(2, 8);
        let size = s.logical_page_size();
        let page = vec![7u8; size];
        let d = s.write_page_shared(3, &page).unwrap();
        assert!(d.total().writes > 0, "{d:?}");
        let mut out = vec![0u8; size];
        let d = s.read_page_shared(3, &mut out).unwrap();
        assert_eq!(out, page);
        assert!(d.total().reads > 0, "{d:?}");
        // The delta only covers the owning shard: aggregate equals sum.
        let agg = s.stats();
        let per: FlashStats =
            s.per_shard_stats().into_iter().fold(FlashStats::default(), |a, b| a + b);
        assert_eq!(agg, per);
    }

    #[test]
    fn aggregates_span_all_shards() {
        let mut s = sharded(4, 16);
        let size = s.logical_page_size();
        for pid in 0..16u64 {
            s.write_page(pid, &vec![0xA5; size]).unwrap();
        }
        s.flush().unwrap();
        let stats = PageStore::stats(&s);
        assert!(stats.total().writes >= 16);
        let wear = PageStore::wear_summary(&s);
        assert_eq!(wear.num_blocks, 4 * FlashConfig::tiny().geometry.num_blocks);
        PageStore::reset_stats(&mut s);
        assert_eq!(PageStore::stats(&s).total().total_ops(), 0);
        let counters = PageStore::counters(&s);
        assert!(!counters.is_empty(), "PDL shards expose counters");
    }

    #[test]
    fn recover_restores_every_shard() {
        let mut s = sharded(4, 16);
        let size = s.logical_page_size();
        for pid in 0..16u64 {
            s.write_page(pid, &vec![pid as u8; size]).unwrap();
        }
        s.flush().unwrap();
        let chips = s.into_shard_chips();
        assert_eq!(chips.len(), 4);
        let mut back = ShardedStore::recover(
            chips,
            MethodKind::Pdl { max_diff_size: 64 },
            StoreOptions::new(16),
        )
        .unwrap();
        let mut out = vec![0u8; size];
        for pid in 0..16u64 {
            back.read_page(pid, &mut out).unwrap();
            assert_eq!(out, vec![pid as u8; size], "pid {pid}");
        }
    }

    #[test]
    fn single_shard_behaves_like_into_chip() {
        let mut s = sharded(1, 6);
        let size = s.logical_page_size();
        s.write_page(2, &vec![9u8; size]).unwrap();
        s.flush().unwrap();
        let boxed: Box<dyn PageStore> = Box::new(s);
        let chip = boxed.into_chip(); // n == 1: the default into_chip works
        let mut back =
            crate::recover_store(chip, MethodKind::Pdl { max_diff_size: 64 }, StoreOptions::new(6))
                .unwrap();
        let mut out = vec![0u8; size];
        back.read_page(2, &mut out).unwrap();
        assert_eq!(out, vec![9u8; size]);
    }

    #[test]
    fn rejects_bad_configurations() {
        assert!(ShardedStore::new(Vec::new(), MethodKind::Opu, StoreOptions::new(4)).is_err());
        // More shards than pages.
        assert!(ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            5,
            MethodKind::Opu,
            StoreOptions::new(4),
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "no single chip")]
    fn chip_access_panics_on_multi_shard() {
        let s = sharded(2, 8);
        let _ = PageStore::chip(&s);
    }

    #[test]
    fn gc_policy_propagates_to_every_shard() {
        use crate::ftl::GcPolicy;
        const PAGES: usize = 16;
        let mut s = ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            2,
            MethodKind::Pdl { max_diff_size: 64 },
            StoreOptions::new(PAGES as u64).with_gc_policy(GcPolicy::HotCold),
        )
        .unwrap();
        assert_eq!(s.options().gc_policy, GcPolicy::HotCold);
        // The real witness: every per-shard store was *constructed* with
        // the policy (each constructor hands opts.gc_policy to its
        // allocator — covered by the method unit tests), not just the
        // facade echoing its own input.
        for shard in 0..s.num_shards() {
            s.with_shard(shard, |st| {
                assert_eq!(st.options().gc_policy, GcPolicy::HotCold, "shard {shard}");
            });
        }
        // And the engine stays correct when churned into GC under the
        // policy: a hot 4-page set over write-once cold pages.
        let size = s.logical_page_size();
        let mut truth: Vec<Vec<u8>> = (0..PAGES).map(|i| vec![i as u8; size]).collect();
        for (pid, t) in truth.iter().enumerate() {
            s.write_page(pid as u64, t).unwrap();
        }
        for round in 0..600u32 {
            let pid = (round % 4) as usize;
            let at = (round as usize * 13) % (size - 16);
            truth[pid][at..at + 16].fill(round as u8);
            let p = truth[pid].clone();
            s.write_page(pid as u64, &p).unwrap();
        }
        let counters = PageStore::counters(&s);
        let gc_runs = counters.iter().find(|(k, _)| *k == "gc_runs").map(|(_, v)| *v).unwrap();
        assert!(gc_runs > 0, "churn must have garbage-collected");
        let mut out = vec![0u8; size];
        for pid in 0..PAGES {
            s.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(out, truth[pid], "pid {pid}");
        }
    }
}
