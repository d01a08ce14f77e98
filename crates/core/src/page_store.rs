//! The [`PageStore`] trait: the contract between a storage system (DBMS
//! buffer manager or experiment driver) and a page-update method.
//!
//! The paper's update operation is "(1) reading the addressed page;
//! (2) changing the data in the page; (3) writing the updated page". The
//! trait mirrors that protocol:
//!
//! * [`PageStore::read_page`] recreates a logical page from flash
//!   (the reading step);
//! * [`PageStore::apply_update`] notifies the method that the in-memory
//!   copy changed. Log-based methods (IPL) are *tightly coupled* and act
//!   here, writing update logs; loosely-coupled methods (PDL, OPU, IPU)
//!   ignore it;
//! * [`PageStore::evict_page`] reflects the up-to-date logical page into
//!   flash memory (the writing step — e.g. a buffer-pool eviction).
//!
//! A logical page may be larger than a physical page: it then spans
//! `frames_per_page` physical *frames* (Experiment 2(b) uses 8 Kbyte
//! logical pages on the 2 Kbyte-page chip).

use crate::error::CoreError;
use crate::ftl::GcPolicy;
use crate::Result;
use pdl_flash::{FlashChip, FlashStats, WearSummary};

/// A changed byte range within a logical page, reported by the storage
/// system to [`PageStore::apply_update`]. Only log-based methods consume
/// it — that is precisely the DBMS coupling the paper discusses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChangeRange {
    pub offset: u32,
    pub len: u32,
}

impl ChangeRange {
    pub fn new(offset: usize, len: usize) -> ChangeRange {
        ChangeRange { offset: offset as u32, len: len as u32 }
    }

    pub fn end(&self) -> usize {
        (self.offset + self.len) as usize
    }
}

/// Configuration shared by all page-update methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreOptions {
    /// Number of logical pages the store must address.
    pub num_logical_pages: u64,
    /// Physical frames per logical page (logical page size =
    /// `frames_per_page * data_size`). 1 for the paper's main setup,
    /// 4 for the 8 Kbyte-logical-page experiment.
    pub frames_per_page: u32,
    /// Free blocks the allocator keeps in reserve for garbage collection.
    pub reserve_blocks: u32,
    /// Gap (in bytes) below which adjacent differential runs are merged;
    /// trades run metadata against payload (ablation bench).
    pub coalesce_gap: usize,
    /// Blocks reserved at the start of the chip as PDL's checkpoint root
    /// region (0 = checkpointing disabled). Implements the paper's §4.5
    /// future work: recovering the mapping tables without a full scan.
    /// Must hold two complete checkpoints; see `Pdl::checkpoint`.
    pub checkpoint_blocks: u32,
    /// Garbage-collection victim-selection / data-placement policy.
    /// Applies to the out-place methods (PDL, OPU) and — where its block
    /// structure permits — to IPL's merge-target choice; IPU has no GC.
    /// Recovery must be given the same policy the store ran with so the
    /// rebuilt allocator resumes the same victim-selection and placement
    /// rules (the in-memory update-frequency gauge itself restarts cold
    /// and re-warms over the first updates, like any unflushed state).
    pub gc_policy: GcPolicy,
    /// Upper bound on the committed page versions a buffer pool retains
    /// (per frame cache / stripe) for MVCC snapshot readers. When a
    /// commit would exceed the cap, the oldest versions are discarded and
    /// read views older than the discard watermark fail with
    /// "snapshot too old" — so the pool's memory stays flat no matter how
    /// long a reader lingers.
    pub snapshot_version_cap: u32,
    /// Byte-accounted companion to `snapshot_version_cap` (0 = no byte
    /// budget; the count cap alone governs). Counting versions bounds
    /// DRAM only when every logical page is the same size — with mixed
    /// `frames_per_page` configurations an 8 Kbyte page costs 32x a
    /// 256-byte one. A byte budget bounds the retained payload itself;
    /// whichever cap trips first discards the oldest versions. When set,
    /// it must hold at least one logical page (validated at
    /// construction).
    pub snapshot_retention_bytes: u64,
    /// Verify the spare-area FNV-1a checksum on every data-path read
    /// (default: on). A mismatch surfaces as
    /// [`pdl_flash::FlashError::ChecksumMismatch`] /
    /// [`CoreError::PageCorrupt`] instead of silently serving rotten
    /// bytes; PDL additionally attempts online repair from a redundant
    /// source. Off reproduces the historical trust-the-media behaviour
    /// (ablation benches).
    pub verify_checksums: bool,
    /// Enable the observability recorder (latency histograms + span ring
    /// on the simulated clock; see `pdl_obs`). Default: off — every hook
    /// is then a single branch and timing claims are untouched.
    pub obs: bool,
}

/// Observability hook for composite activities (a GC cycle, a recovery
/// phase, a repair detour): record one `class` sample and a span from
/// `t0` to the chip's current simulated horizon. Maintenance spans run
/// on the lane just past the planes so they stack above the per-plane
/// command rows in the trace viewer. No-op while recording is disabled.
pub(crate) fn obs_event(
    chip: &mut FlashChip,
    class: pdl_flash::LatencyClass,
    name: &'static str,
    ctx: &'static str,
    t0: u64,
    block: u64,
    id: u64,
) {
    if !chip.recorder().is_enabled() {
        return;
    }
    let t1 = chip.sim_now_us();
    let lane = chip.config().pipeline.planes;
    chip.recorder_mut().event(class, name, ctx, lane, t0, t1, block, id);
}

impl StoreOptions {
    pub fn new(num_logical_pages: u64) -> StoreOptions {
        StoreOptions {
            num_logical_pages,
            frames_per_page: 1,
            reserve_blocks: 3,
            coalesce_gap: 8,
            checkpoint_blocks: 0,
            gc_policy: GcPolicy::default(),
            snapshot_version_cap: 1024,
            snapshot_retention_bytes: 0,
            verify_checksums: true,
            obs: false,
        }
    }

    /// Enable or disable observability recording (default: disabled).
    pub fn with_obs(mut self, obs: bool) -> StoreOptions {
        self.obs = obs;
        self
    }

    /// Enable or disable checksum verification on data-path reads
    /// (default: enabled).
    pub fn with_verify_checksums(mut self, verify: bool) -> StoreOptions {
        self.verify_checksums = verify;
        self
    }

    /// Bound the committed page versions retained for snapshot readers
    /// (default: 1024 per frame cache).
    pub fn with_snapshot_version_cap(mut self, cap: u32) -> StoreOptions {
        self.snapshot_version_cap = cap;
        self
    }

    /// Bound the *bytes* of committed page versions retained for snapshot
    /// readers (default: 0 = no byte budget). Composes with the count
    /// cap: whichever trips first wins.
    pub fn with_snapshot_retention_bytes(mut self, bytes: u64) -> StoreOptions {
        self.snapshot_retention_bytes = bytes;
        self
    }

    /// Select the garbage-collection policy (default: greedy, the
    /// paper's setup).
    pub fn with_gc_policy(mut self, policy: GcPolicy) -> StoreOptions {
        self.gc_policy = policy;
        self
    }

    /// Enable PDL checkpointing with a root region of `blocks` blocks.
    pub fn with_checkpoint_blocks(mut self, blocks: u32) -> StoreOptions {
        self.checkpoint_blocks = blocks;
        self
    }

    pub fn with_frames_per_page(mut self, frames: u32) -> StoreOptions {
        self.frames_per_page = frames;
        self
    }

    pub fn with_coalesce_gap(mut self, gap: usize) -> StoreOptions {
        self.coalesce_gap = gap;
        self
    }

    /// Logical page size for a given chip data-area size.
    pub fn logical_page_size(&self, data_size: usize) -> usize {
        self.frames_per_page as usize * data_size
    }

    /// Total number of physical frames the store manages.
    pub fn num_frames(&self) -> u64 {
        self.num_logical_pages * self.frames_per_page as u64
    }

    /// Validate the options against the chip the store is being built
    /// over. Everything that used to surface as a panic (or an index
    /// error) deep in FTL setup — a checkpoint root region larger than
    /// the chip, a GC reserve that swallows every block, zero logical
    /// pages — is rejected here with a [`CoreError::BadConfig`] instead.
    pub(crate) fn validate(&self, chip: &FlashChip) -> Result<()> {
        let g = chip.geometry();
        if self.num_logical_pages == 0 {
            return Err(CoreError::BadConfig("num_logical_pages must be > 0".into()));
        }
        if !(1..=8).contains(&self.frames_per_page) {
            return Err(CoreError::BadConfig(format!(
                "frames_per_page must be in 1..=8, got {}",
                self.frames_per_page
            )));
        }
        let logical = self.logical_page_size(g.data_size);
        if logical > u16::MAX as usize {
            return Err(CoreError::BadConfig(format!(
                "logical page of {logical} bytes exceeds differential offset range"
            )));
        }
        if self.checkpoint_blocks == 1 || self.checkpoint_blocks >= g.num_blocks {
            return Err(CoreError::BadConfig(format!(
                "checkpoint root region of {} blocks must be 0 (disabled) or 2..{} blocks \
                 within the chip",
                self.checkpoint_blocks, g.num_blocks
            )));
        }
        if self.snapshot_version_cap == 0 {
            return Err(CoreError::BadConfig(
                "snapshot_version_cap must be >= 1 so read views can retain at least one \
                 superseded page version"
                    .into(),
            ));
        }
        if self.snapshot_retention_bytes != 0 && self.snapshot_retention_bytes < logical as u64 {
            return Err(CoreError::BadConfig(format!(
                "snapshot_retention_bytes of {} cannot hold even one {logical}-byte logical \
                 page; use 0 to disable the byte budget",
                self.snapshot_retention_bytes
            )));
        }
        if self.reserve_blocks == 0 {
            return Err(CoreError::BadConfig(
                "reserve_blocks must be >= 1 so GC can always relocate a victim".into(),
            ));
        }
        if self.reserve_blocks + self.checkpoint_blocks + 1 >= g.num_blocks {
            return Err(CoreError::BadConfig(format!(
                "reserve ({}) + checkpoint ({}) blocks leave no allocatable space on a \
                 {}-block chip",
                self.reserve_blocks, self.checkpoint_blocks, g.num_blocks
            )));
        }
        Ok(())
    }

    pub(crate) fn check_pid(&self, pid: u64) -> Result<()> {
        if pid < self.num_logical_pages {
            Ok(())
        } else {
            Err(CoreError::PageIdOutOfRange { pid, num_pages: self.num_logical_pages })
        }
    }

    pub(crate) fn check_page_buf(&self, data_size: usize, buf: &[u8]) -> Result<()> {
        let expected = self.logical_page_size(data_size);
        if buf.len() == expected {
            Ok(())
        } else {
            Err(CoreError::BadPageSize { expected, got: buf.len() })
        }
    }
}

/// One registered structure's durable root, as persisted in the PDL
/// checkpoint root region. `kind` distinguishes the handle family the
/// storage layer rebuilds from it: 0 = B+-tree (a single root pid),
/// 1 = heap file (the ordered page list).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StructRootEntry {
    pub id: u64,
    pub kind: u8,
    pub pids: Vec<u64>,
}

impl StructRootEntry {
    pub const KIND_BTREE: u8 = 0;
    pub const KIND_HEAP: u8 = 1;
}

/// A point-in-time snapshot of every registered structure root plus the
/// page-allocator high-water mark, staged into the commit batch that
/// created it. The store programs only its difference from the previous
/// committed snapshot; recovery applies every committed record on top of
/// the last checkpoint's snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StructRootsSnapshot {
    /// Page-allocator high-water mark at commit time: every pid
    /// referenced by `entries` is below it, so a rebuilt allocator can
    /// resume from here without re-walking the structures.
    pub next_pid: u64,
    pub entries: Vec<StructRootEntry>,
}

impl StructRootsSnapshot {
    /// Byte length of the durable record holding this whole snapshot
    /// (header + entries + trailing checksum): an upper bound on the
    /// record a commit stages for it, which carries only what changed;
    /// see `pdl::checkpoint::RootDelta`.
    pub fn encoded_len(&self) -> usize {
        // magic u32 + total_len u32 + version u16 + flags u16 + txn u64 +
        // next_pid u64 + count u32 = 32 bytes of header.
        let mut len = 32usize;
        for e in &self.entries {
            // id u64 + kind u8 + pad [u8;3] + keep u32 + npids u32 + pids.
            len += 20 + 8 * e.pids.len();
        }
        len + 4 + 8 // removed-id count u32 + trailing fnv1a64 checksum
    }
}

/// A page-update method: stores logical pages into flash memory.
///
/// The trait is object-safe and `Send`, so `Box<dyn PageStore>` can move
/// between threads — the property the sharded engine
/// ([`crate::ShardedStore`]) builds on by placing one boxed store behind
/// each shard lock.
pub trait PageStore: Send {
    /// The options this store was built with.
    fn options(&self) -> &StoreOptions;

    /// Recreate logical page `pid` from flash into `out`
    /// (`out.len() == logical_page_size`). Never-written pages read as
    /// zeroes.
    fn read_page(&mut self, pid: u64, out: &mut [u8]) -> Result<()>;

    /// Notify the method that the in-memory copy of `pid` has been updated
    /// once (one update command). `page_after` is the full post-update
    /// image; `changes` lists the byte ranges the command modified.
    ///
    /// Loosely-coupled methods (PDL, OPU, IPU) ignore this; the log-based
    /// method (IPL) appends update logs to its write buffer here and may
    /// write log sectors to flash.
    fn apply_update(&mut self, pid: u64, page_after: &[u8], changes: &[ChangeRange]) -> Result<()>;

    /// Reflect the up-to-date logical page into flash memory (the page is
    /// being swapped out of the DBMS buffer).
    fn evict_page(&mut self, pid: u64, page: &[u8]) -> Result<()>;

    /// Write-through: force everything buffered in memory (differential
    /// write buffer, pending log sectors) out to flash.
    fn flush(&mut self) -> Result<()>;

    /// Read-ahead hint: issue the flash reads that recreating `pid` will
    /// need, without waiting for them (B+-tree range scans hint the next
    /// leaf while the current one is consumed). Methods that can't map
    /// the page cheaply may ignore the hint; the default does nothing.
    fn prefetch(&mut self, _pid: u64) -> Result<()> {
        Ok(())
    }

    /// Pipeline busy time (µs) since the last stats reset — the flash
    /// critical path under the configured queue depth; on a sharded
    /// store, the maximum over shards (they are independent chips). At
    /// queue depth 1 this equals `stats().total().total_us()`.
    fn pipeline_busy_us(&self) -> u64 {
        self.chip().pipeline_busy_us()
    }

    /// Access to the underlying chip (statistics, wear, timing).
    ///
    /// # Panics
    ///
    /// Panics on stores that span more than one chip
    /// ([`PageStore::num_shards`] > 1); those expose aggregate accounting
    /// via [`PageStore::stats`] / [`PageStore::wear_summary`] instead.
    fn chip(&self) -> &FlashChip;
    fn chip_mut(&mut self) -> &mut FlashChip;

    /// Aggregate flash statistics — on a sharded store, summed over every
    /// shard's chip. Prefer this over `chip().stats()` in engine-agnostic
    /// code (drivers, buffer pools, reports).
    fn stats(&self) -> FlashStats {
        self.chip().stats()
    }

    /// Reset the statistics ledgers of every underlying chip.
    fn reset_stats(&mut self) {
        self.chip_mut().reset_stats();
    }

    /// Aggregate wear (erase-count) summary over every underlying chip's
    /// blocks.
    fn wear_summary(&self) -> WearSummary {
        self.chip().wear_summary()
    }

    /// Number of independent partitions this store routes pages across
    /// (1 for the plain single-chip methods).
    fn num_shards(&self) -> usize {
        1
    }

    /// Short human-readable method label, e.g. `PDL (256B)`.
    fn name(&self) -> String;

    /// Method-specific event counters (GC runs, merges, buffer flushes...),
    /// for reports and ablations.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Tear down and return the chip (e.g. to simulate a crash + restart:
    /// in-memory tables are dropped, the chip survives).
    ///
    /// # Panics
    ///
    /// Panics on stores that span more than one chip; use
    /// [`PageStore::into_chips`] there.
    fn into_chip(self: Box<Self>) -> FlashChip {
        let mut chips = self.into_chips();
        assert_eq!(
            chips.len(),
            1,
            "into_chip on a store spanning {} chips; use into_chips",
            chips.len()
        );
        chips.pop().expect("one chip")
    }

    /// Tear down and return every underlying chip, shard order preserved.
    fn into_chips(self: Box<Self>) -> Vec<FlashChip>;

    /// Logical page size in bytes.
    fn logical_page_size(&self) -> usize {
        self.options().frames_per_page as usize * self.chip().geometry().data_size
    }

    /// Convenience: overwrite a whole logical page and reflect it.
    ///
    /// Storage systems driving a *tightly-coupled* method must report every
    /// change before eviction, so this reports one whole-page update and
    /// then evicts. Loosely-coupled methods ignore the notification and
    /// just reflect the page.
    fn write_page(&mut self, pid: u64, page: &[u8]) -> Result<()> {
        self.apply_update(pid, page, &[ChangeRange::new(0, page.len())])?;
        self.evict_page(pid, page)
    }

    // ------------------------------------------------------------------
    // Transactional reflection (the `pdl-txn` subsystem).
    //
    // A commit batch runs txn_reserve -> txn_stage* -> txn_flush_stage ->
    // txn_append_commit* -> txn_finalize. PDL implements it atomically:
    // staged differentials and Case-3 base pages carry the transaction
    // id, the commit record is the durable commit point, and obsolete
    // marks on the superseded pre-images are deferred until the record
    // is on flash — so a crash anywhere in the batch rolls the whole
    // transaction back at recovery. The defaults below give the other
    // methods (OPU / IPU / IPL) plain durable-but-not-atomic semantics,
    // which is exactly the DBMS-independence gap the paper leaves open.
    // ------------------------------------------------------------------

    /// Whether this store makes commit batches all-or-nothing across a
    /// crash (PDL); `false` means the batch is merely written through.
    fn txn_supported(&self) -> bool {
        false
    }

    /// Open a commit batch expected to reflect at most `pages` logical
    /// pages, pre-running garbage collection so the batch itself never
    /// triggers it mid-flight.
    fn txn_reserve(&mut self, pages: u64) -> Result<()> {
        let _ = pages;
        Ok(())
    }

    /// Reflect one page on behalf of `txn` (tagged so recovery can
    /// discard it if the commit record never lands).
    fn txn_stage(&mut self, pid: u64, page: &[u8], txn: u64) -> Result<()> {
        let _ = txn;
        self.evict_page(pid, page)
    }

    /// Make everything staged so far durable *without* committing it
    /// (multi-shard batches flush every shard before any commit record
    /// is written).
    fn txn_flush_stage(&mut self) -> Result<()> {
        self.flush()
    }

    /// Append the durable commit record for `txn` to the write stream.
    fn txn_append_commit(&mut self, txn: u64) -> Result<()> {
        let _ = txn;
        Ok(())
    }

    /// Append one codec-v3 *epoch record* proving the durable commit of
    /// every transaction in `txns` at once (group commit writes one
    /// record per batch instead of one per transaction). The default
    /// falls back to per-transaction commit records — identical
    /// durability semantics, just more record bytes.
    fn txn_append_commit_epoch(&mut self, txns: &[u64]) -> Result<()> {
        for &t in txns {
            self.txn_append_commit(t)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Retention-ledger spill tier (cold MVCC versions on flash).
    //
    // When DRAM retention pressure would evict a committed pre-image an
    // active read view still needs, the buffer pool spills the image to
    // flash through these hooks and records the handle in its retention
    // ledger; reads fall back DRAM chain -> ledger -> flash. Spilled
    // versions are a cache of in-memory state: no view survives a crash,
    // so recovery discards them.
    // ------------------------------------------------------------------

    /// Whether this store can hold spilled cold versions (PDL writes them
    /// as dedicated `Spill` pages; other methods report `false` and the
    /// pool keeps its old evict-and-fail behaviour).
    fn spill_supported(&self) -> bool {
        false
    }

    /// Write one logical-page pre-image to flash as a spill page set.
    /// Returns an opaque handle for [`PageStore::read_spill`] /
    /// [`PageStore::free_spill`]. `pid` routes sharded stores and aids
    /// debugging; it does not alias the live logical page.
    fn spill_page(&mut self, pid: u64, page: &[u8]) -> Result<u64> {
        let _ = (pid, page);
        Err(CoreError::BadConfig(format!("{} does not support version spill", self.name())))
    }

    /// Read a spilled pre-image back into `out` (logical page size).
    fn read_spill(&mut self, pid: u64, handle: u64, out: &mut [u8]) -> Result<()> {
        let _ = (pid, handle, out);
        Err(CoreError::BadConfig(format!("{} does not support version spill", self.name())))
    }

    /// Drop a spilled pre-image: the last read view that could resolve
    /// it has closed. The pages become reclaimable garbage.
    fn free_spill(&mut self, pid: u64, handle: u64) -> Result<()> {
        let _ = (pid, handle);
        Err(CoreError::BadConfig(format!("{} does not support version spill", self.name())))
    }

    /// Flush the commit records and close the batch (PDL additionally
    /// applies the deferred obsolete marks and releases its GC pins).
    fn txn_finalize(&mut self) -> Result<()> {
        self.flush()
    }

    /// A safe lower bound for new transaction ids: above every id whose
    /// commit record (or live tag) still exists on flash, so a fresh id
    /// can never be "proven" committed by a stale record after a crash.
    fn txn_id_floor(&self) -> u64 {
        1
    }

    /// Persist a recovery checkpoint of the store's mapping tables, when
    /// the method supports it (PDL with a configured root region; the
    /// sharded store checkpoints every shard). Other methods report
    /// [`CoreError::BadConfig`].
    fn checkpoint(&mut self) -> Result<()> {
        Err(CoreError::BadConfig(format!("{} does not support checkpointing", self.name())))
    }

    /// Stage a durable structure-root record on behalf of `txn`, inside
    /// an open commit batch (between the page stages and the commit
    /// record). The record becomes authoritative exactly when `txn`'s
    /// commit record does — a crash before it rolls both back together.
    /// PDL with a configured checkpoint root region programs the
    /// snapshot's difference from the last committed one into the
    /// region's live-half tail; everything else (and PDL without
    /// a root region) accepts and discards it, leaving roots
    /// memory-resident only.
    fn txn_stage_struct_roots(&mut self, roots: &StructRootsSnapshot, txn: u64) -> Result<()> {
        let _ = (roots, txn);
        Ok(())
    }

    /// The newest committed structure-root snapshot this store knows
    /// about — after recovery, the one resolved from the checkpoint
    /// region ([§4.5]'s mapping-table recovery extended to DBMS roots).
    /// `None` when the store does not persist roots.
    fn struct_roots(&self) -> Option<StructRootsSnapshot> {
        None
    }

    /// Free bytes remaining in the structure-root log before the next
    /// checkpoint must compact it (u64::MAX when the store does not
    /// persist roots, so callers never trigger a checkpoint for it).
    fn struct_root_log_space(&self) -> u64 {
        u64::MAX
    }

    /// Busy time (µs of simulated flash pipeline) accumulated per shard
    /// since the last stats reset, index = shard. Single-chip stores
    /// report one entry; the sharded store reports each chip's own
    /// pipeline clock, whose maximum is the critical-path bound the
    /// `struct_writers` bench gates on.
    fn per_shard_busy_us(&self) -> Vec<u64> {
        vec![self.pipeline_busy_us()]
    }
}

/// Which page-update method to build, with its method-specific parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodKind {
    /// Page-based, out-place update with page-level mapping.
    Opu,
    /// Page-based, in-place update.
    Ipu,
    /// Page-differential logging with the given `Max_Differential_Size`
    /// in bytes (the paper evaluates 256 and 2048).
    Pdl { max_diff_size: usize },
    /// In-page logging with the given amount of log space per block in
    /// bytes (the paper evaluates 18 Kbytes and 64 Kbytes).
    Ipl { log_bytes_per_block: usize },
}

impl MethodKind {
    /// Label formatted like the paper's figures: `PDL (256B)`,
    /// `IPL (18KB)`, `OPU`, `IPU`.
    pub fn label(&self) -> String {
        fn size(bytes: usize) -> String {
            if bytes.is_multiple_of(1024) {
                format!("{}KB", bytes / 1024)
            } else {
                format!("{bytes}B")
            }
        }
        match self {
            MethodKind::Opu => "OPU".to_string(),
            MethodKind::Ipu => "IPU".to_string(),
            MethodKind::Pdl { max_diff_size } => format!("PDL ({})", size(*max_diff_size)),
            MethodKind::Ipl { log_bytes_per_block } => {
                format!("IPL ({})", size(*log_bytes_per_block))
            }
        }
    }

    /// The six configurations of Figure 12, in the paper's legend order.
    pub fn paper_six() -> Vec<MethodKind> {
        vec![
            MethodKind::Ipl { log_bytes_per_block: 18 * 1024 },
            MethodKind::Ipl { log_bytes_per_block: 64 * 1024 },
            MethodKind::Pdl { max_diff_size: 2048 },
            MethodKind::Pdl { max_diff_size: 256 },
            MethodKind::Opu,
            MethodKind::Ipu,
        ]
    }

    /// The five methods of Figures 17/18 (IPU excluded, as in the paper).
    pub fn paper_five() -> Vec<MethodKind> {
        vec![
            MethodKind::Ipl { log_bytes_per_block: 18 * 1024 },
            MethodKind::Ipl { log_bytes_per_block: 64 * 1024 },
            MethodKind::Pdl { max_diff_size: 2048 },
            MethodKind::Pdl { max_diff_size: 256 },
            MethodKind::Opu,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_flash::FlashConfig;

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(MethodKind::Opu.label(), "OPU");
        assert_eq!(MethodKind::Ipu.label(), "IPU");
        assert_eq!(MethodKind::Pdl { max_diff_size: 256 }.label(), "PDL (256B)");
        assert_eq!(MethodKind::Pdl { max_diff_size: 2048 }.label(), "PDL (2KB)");
        assert_eq!(MethodKind::Ipl { log_bytes_per_block: 18 * 1024 }.label(), "IPL (18KB)");
        assert_eq!(MethodKind::Ipl { log_bytes_per_block: 64 * 1024 }.label(), "IPL (64KB)");
    }

    #[test]
    fn options_validate() {
        let chip = FlashChip::new(FlashConfig::tiny()); // 16 blocks
        assert!(StoreOptions::new(0).validate(&chip).is_err());
        assert!(StoreOptions::new(4).with_frames_per_page(9).validate(&chip).is_err());
        assert!(StoreOptions::new(4).validate(&chip).is_ok());
        // Misconfigurations that used to blow up deep in FTL setup now
        // surface as BadConfig at construction.
        assert!(StoreOptions::new(4).with_checkpoint_blocks(1).validate(&chip).is_err());
        assert!(StoreOptions::new(4).with_checkpoint_blocks(16).validate(&chip).is_err());
        assert!(StoreOptions::new(4).with_checkpoint_blocks(99).validate(&chip).is_err());
        let mut no_reserve = StoreOptions::new(4);
        no_reserve.reserve_blocks = 0;
        assert!(no_reserve.validate(&chip).is_err());
        let mut all_reserve = StoreOptions::new(4);
        all_reserve.reserve_blocks = 15;
        assert!(all_reserve.validate(&chip).is_err());
        assert!(StoreOptions::new(4).with_checkpoint_blocks(2).validate(&chip).is_ok());
        // A byte budget smaller than one logical page can never retain a
        // version; 0 disables it.
        assert!(StoreOptions::new(4).with_snapshot_retention_bytes(255).validate(&chip).is_err());
        assert!(StoreOptions::new(4).with_snapshot_retention_bytes(256).validate(&chip).is_ok());
        assert!(StoreOptions::new(4).with_snapshot_retention_bytes(0).validate(&chip).is_ok());
        let opts = StoreOptions::new(4).with_frames_per_page(2);
        assert_eq!(opts.logical_page_size(256), 512);
        assert_eq!(opts.num_frames(), 8);
        assert!(opts.check_pid(3).is_ok());
        assert!(opts.check_pid(4).is_err());
        assert!(opts.check_page_buf(256, &[0u8; 512]).is_ok());
        assert!(opts.check_page_buf(256, &[0u8; 256]).is_err());
    }

    #[test]
    fn paper_method_sets() {
        assert_eq!(MethodKind::paper_six().len(), 6);
        assert_eq!(MethodKind::paper_five().len(), 5);
        assert!(!MethodKind::paper_five().contains(&MethodKind::Ipu));
    }
}
