//! PDL — **page-differential logging**, the paper's contribution (§4).
//!
//! A logical page is stored as a *base page* (a whole copy, possibly old)
//! plus at most one *differential* (the byte-wise difference between the
//! base page and the up-to-date page). The method obeys the paper's three
//! design principles:
//!
//! * **writing-difference-only** — only the differential is written when a
//!   page is reflected into flash;
//! * **at-most-one-page writing** — the differential is computed *once*, at
//!   reflection time, regardless of how many times the page was updated in
//!   memory;
//! * **at-most-two-page reading** — recreating a page reads the base page
//!   and at most one differential page.
//!
//! Writing follows Figure 7's three cases: the differential is staged into
//! the one-page *differential write buffer* (Case 1), the buffer is written
//! out first when the differential no longer fits (Case 2), or — when the
//! differential exceeds `Max_Differential_Size` — the logical page itself
//! is written as a new base page (Case 3, where "PDL becomes the same as
//! the page-based method").
//!
//! Garbage collection relocates valid base pages and *compacts* valid
//! differentials into fresh differential pages (§4.1). Crash recovery
//! (§4.5) is in [`recovery`].
//!
//! # Transactional durability (`pdl-txn`)
//!
//! The paper's method is DBMS-independent at the page level, leaving
//! transaction atomicity to the layer above. This store closes that gap
//! with *differential commit records*: a commit batch
//! ([`crate::PageStore::txn_reserve`] → `txn_stage`* → `txn_flush_stage`
//! → `txn_append_commit` → `txn_finalize`) tags every staged differential
//! (and Case-3 base page) with the owning transaction id and appends a
//! durable [`CommitRecord`] through the same differential write buffer.
//! The record is the commit point; until it is on flash,
//!
//! * obsolete marks on the superseded pre-images are **deferred** (they
//!   are applied in `txn_finalize`, after the record is durable), and
//! * the blocks holding those pre-images are **pinned** against garbage
//!   collection,
//!
//! so recovery can always roll a torn commit back to the previous
//! committed state by discarding tagged pages whose transaction has no
//! commit record. Commit records stay alive — compaction re-stages them —
//! while any non-obsolete page still carries their transaction's tag (the
//! `presence` gauge below), and the tags themselves are shed as GC
//! rewrites committed data, so steady state carries no transactional
//! litter.

mod checkpoint;
mod dwb;
mod recovery;

pub(crate) use checkpoint::{txn_precheck_fast, CheckpointDelta};

use crate::diff::{CommitRecord, Differential, EpochRecord, PageRecord, NO_TXN};
use crate::error::CoreError;
use crate::ftl::{
    make_spare, make_spare_preserving, make_spare_txn, mark_obsolete_lenient, AllocOutcome,
    AllocStream, BlockManager, GcPolicy, HeatTable,
};
use crate::page_store::{ChangeRange, MethodKind, PageStore, StoreOptions, StructRootsSnapshot};
use crate::Result;
use dwb::{DiffWriteBuffer, DwbEntry};
use pdl_flash::{FlashChip, OpContext, PageKind, Ppn, SpareInfo};
use std::collections::{HashMap, HashSet};

pub(crate) const NONE: u32 = u32::MAX;
pub(crate) const MAX_FRAMES: usize = 8;

/// One entry of the physical page mapping table: `<base page address,
/// differential page address>` (Figure 6). `NONE` marks absent entries;
/// multi-frame logical pages keep one base address per frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PpmtEntry {
    pub base: [u32; MAX_FRAMES],
    pub diff: u32,
}

impl Default for PpmtEntry {
    fn default() -> Self {
        PpmtEntry { base: [NONE; MAX_FRAMES], diff: NONE }
    }
}

/// Event counters exposed through [`PageStore::counters`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PdlCounters {
    pub case1: u64,
    pub case2: u64,
    pub case3: u64,
    pub initial_base_writes: u64,
    pub dwb_flushes: u64,
    pub diff_pages_obsoleted: u64,
    pub gc_runs: u64,
    pub compacted_diffs: u64,
    pub relocated_bases: u64,
    /// GC base-page migrations routed to the hot / cold stream
    /// (hot/cold policy; both zero under the single-stream policies).
    pub migrated_hot: u64,
    pub migrated_cold: u64,
    pub unchanged_skips: u64,
    pub checkpoints: u64,
    pub bad_blocks: u64,
    /// Transactionally tagged reflections staged (diffs + base frames).
    pub txn_staged: u64,
    /// Commit records appended to the differential stream.
    pub txn_commits: u64,
    /// Commit records kept alive across GC compaction.
    pub commit_records_restaged: u64,
    /// Obsolete marks deferred past a commit record and applied at
    /// batch finalize.
    pub deferred_marks: u64,
    /// Single-page failures rebuilt online from a registered twin.
    pub repaired_pages: u64,
    /// Logical pages poisoned: corrupt with no redundant source left.
    pub poisoned_pages: u64,
    /// Cold MVCC versions spilled to flash for the retention ledger.
    pub spilled_versions: u64,
    /// Spilled versions read back for a snapshot reader.
    pub spill_reads: u64,
    /// Spill pages GC relocated (never destroyed while pinned).
    pub spill_relocations: u64,
    /// Epoch records appended by group commit.
    pub epoch_commits: u64,
    /// Committed ids coalesced into epoch records during compaction.
    pub epoch_coalesced: u64,
}

/// Page-differential logging store.
pub struct Pdl {
    chip: FlashChip,
    opts: StoreOptions,
    /// `Max_Differential_Size`: differentials larger than this (encoded)
    /// are discarded and the page is rewritten as a new base (Case 3).
    max_diff_size: usize,
    /// Physical page mapping table, indexed by logical page id.
    ppmt: Vec<PpmtEntry>,
    /// Valid differential count table, indexed by physical page number.
    /// Live commit records count too: a differential page is reclaimable
    /// only once nothing in it gates visibility.
    vdct: Vec<u16>,
    dwb: DiffWriteBuffer,
    alloc: BlockManager,
    /// Per-logical-page update-frequency gauge: the hotness signal the
    /// hot/cold policy separates allocation streams by.
    heat: HeatTable,
    ts: u64,
    in_gc: bool,
    /// Checkpoint bookkeeping (see `checkpoint.rs`): last committed
    /// sequence number and which root half holds it.
    ckpt_seq: u64,
    ckpt_live_half: Option<u8>,
    // --- durable structure roots (checkpoint root-region tail log) ----
    /// Newest *committed* structure-root snapshot (what
    /// `PageStore::struct_roots` reports, what the next root record is
    /// diffed against, and what the next checkpoint compacts into its
    /// payload baseline).
    struct_roots: StructRootsSnapshot,
    /// The snapshot the open commit batch's root record produces,
    /// promoted to `struct_roots` at finalize (i.e. once its commit
    /// record is durable); discarded if the batch never finalizes.
    pending_roots: Option<(u64, StructRootsSnapshot)>,
    /// Transactions of the committed tail records, in log order. Each
    /// record is a delta that recovery must apply, so each commit record
    /// is pinned (one presence ref) until a checkpoint compacts the log.
    live_root_txns: Vec<u64>,
    /// Next free ppn for tail records in the live half, and the
    /// exclusive end of that half.
    root_tail: u32,
    root_tail_end: u32,
    /// Records were written into half 0 before any checkpoint existed
    /// (forces the first checkpoint into half 1).
    root_tail_used: bool,
    // --- pdl-txn state ---------------------------------------------------
    /// Transaction of each logical page's current durable differential
    /// ([`NO_TXN`] when untagged or absent).
    diff_txn: Vec<u64>,
    /// Transaction of each live base frame (indexed `pid * k + j`).
    base_txn: Vec<u64>,
    /// Live tagged items (current differentials, staged buffer entries,
    /// live base frames) referencing each transaction: its commit record
    /// must stay durable while > 0. Superseded (dead) tags drop out here
    /// the moment the superseding committed data is durable — recovery's
    /// torn-commit verdict ignores dead tags symmetrically, via the same
    /// time-stamp domination the Figure-11 resolution uses.
    presence: HashMap<u64, u32>,
    /// Durably committed transactions still referenced by live tags.
    committed: HashSet<u64>,
    /// Physical page holding each transaction's live commit record.
    commit_locs: HashMap<u64, u32>,
    /// Obsolete marks deferred until the data superseding them is safely
    /// on flash: past the commit record inside a commit batch, past the
    /// compaction flush inside GC.
    deferred: Vec<Ppn>,
    /// Blocks holding the current batch's pre-images: excluded from GC
    /// victim selection until finalize.
    batch_pins: HashSet<u32>,
    /// Whether a `txn_reserve` .. `txn_finalize` batch is open.
    in_txn_batch: bool,
    // --- single-page failure handling --------------------------------
    /// Logical pages known corrupt with no redundant source, mapped to
    /// the physical page whose checksum failed. Reads report
    /// [`CoreError::PageCorrupt`] immediately; a full overwrite (which
    /// needs none of the stored state) heals the page and clears the
    /// entry.
    poisoned: HashMap<u64, u32>,
    /// Single-page repair registry: live base ppn -> byte-identical twin
    /// still readable on flash (in a block whose erase failed, or a
    /// recovery duplicate that lost time-stamp resolution).
    twins: HashMap<u32, u32>,
    /// `(old, new)` base relocations of the current GC pass; committed
    /// into `twins` only when the victim's erase fails, leaving the old
    /// copies readable.
    gc_moves: Vec<(u32, u32)>,
    // --- retention-ledger spill tier ----------------------------------
    /// Spilled cold versions: handle -> the per-frame ppns holding the
    /// pre-image. Volatile by design — spill pages cache in-memory
    /// version-chain state for live read views, and no view survives a
    /// crash, so recovery starts this empty and GC reclaims any spill
    /// page it no longer finds here.
    spills: HashMap<u64, Vec<u32>>,
    /// Reverse map: spill ppn -> (handle, frame index), so GC can
    /// relocate a pinned spill page and re-point the handle.
    spill_rev: HashMap<u32, (u64, u32)>,
    /// Next spill handle.
    next_spill: u64,
    // Workhorse buffers.
    base_buf: Vec<u8>,
    frame_buf: Vec<u8>,
    page_img: Vec<u8>,
    counters: PdlCounters,
}

impl Pdl {
    /// Create a PDL store over a fresh chip.
    pub fn new(chip: FlashChip, opts: StoreOptions, max_diff_size: usize) -> Result<Pdl> {
        opts.validate(&chip)?;
        let g = chip.geometry();
        if max_diff_size == 0 {
            return Err(CoreError::BadConfig("max_diff_size must be > 0".into()));
        }
        if max_diff_size > g.data_size {
            return Err(CoreError::BadConfig(format!(
                "max_diff_size of {max_diff_size} bytes exceeds the {}-byte differential \
                 write buffer (one flash page)",
                g.data_size
            )));
        }
        let frames = opts.num_frames();
        let usable = (g.num_blocks.saturating_sub(opts.reserve_blocks + 1 + opts.checkpoint_blocks))
            as u64
            * g.pages_per_block as u64;
        if frames > usable {
            return Err(CoreError::BadConfig(format!(
                "{frames} base frames do not fit: only {usable} pages usable outside the reserve"
            )));
        }
        let mut alloc = BlockManager::new(g.num_blocks, g.pages_per_block, opts.reserve_blocks);
        alloc.set_policy(opts.gc_policy);
        for b in 0..opts.checkpoint_blocks {
            alloc.reserve_block(pdl_flash::BlockId(b));
        }
        let nl = opts.num_logical_pages as usize;
        let k = opts.frames_per_page as usize;
        Ok(Pdl {
            opts,
            max_diff_size,
            ppmt: vec![PpmtEntry::default(); nl],
            vdct: vec![0u16; g.num_pages() as usize],
            dwb: DiffWriteBuffer::new(g.data_size),
            alloc,
            heat: HeatTable::new(opts.num_logical_pages),
            ts: 1,
            in_gc: false,
            ckpt_seq: 0,
            ckpt_live_half: None,
            struct_roots: StructRootsSnapshot::default(),
            pending_roots: None,
            live_root_txns: Vec::new(),
            root_tail: 0,
            root_tail_end: if opts.checkpoint_blocks >= 2 {
                (opts.checkpoint_blocks / 2) * g.pages_per_block
            } else {
                0
            },
            root_tail_used: false,
            diff_txn: vec![NO_TXN; nl],
            base_txn: vec![NO_TXN; nl * k],
            presence: HashMap::new(),
            committed: HashSet::new(),
            commit_locs: HashMap::new(),
            deferred: Vec::new(),
            batch_pins: HashSet::new(),
            in_txn_batch: false,
            poisoned: HashMap::new(),
            twins: HashMap::new(),
            gc_moves: Vec::new(),
            spills: HashMap::new(),
            spill_rev: HashMap::new(),
            next_spill: 0,
            base_buf: vec![0u8; opts.logical_page_size(g.data_size)],
            frame_buf: vec![0u8; g.data_size],
            page_img: vec![0u8; g.data_size],
            counters: PdlCounters::default(),
            chip,
        })
    }

    /// `Max_Differential_Size` this store runs with.
    pub fn max_diff_size(&self) -> usize {
        self.max_diff_size
    }

    /// Use a different GC victim-selection policy (ablation). Also
    /// recorded in [`PageStore::options`], so recovering with the
    /// store's own options resumes the same policy.
    pub fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.opts.gc_policy = policy;
        self.alloc.set_policy(policy);
    }

    /// Bytes currently staged in the differential write buffer.
    pub fn dwb_used(&self) -> usize {
        self.dwb.used()
    }

    /// Whether `txn`'s commit record is durable (diagnostics and tests).
    pub fn txn_committed(&self, txn: u64) -> bool {
        self.committed.contains(&txn)
    }

    fn next_ts(&mut self) -> u64 {
        let t = self.ts;
        self.ts += 1;
        t
    }

    fn frames(&self) -> usize {
        self.opts.frames_per_page as usize
    }

    /// Which allocation stream `pid`'s pages belong on.
    fn stream_for(&self, pid: u64) -> AllocStream {
        self.heat.stream_for(self.alloc.policy(), pid)
    }

    /// Pin the block containing `ppn` against GC for the rest of the
    /// open commit batch (it holds a pre-image a torn commit rolls back
    /// to).
    fn pin_block(&mut self, ppn: u32) {
        if self.in_txn_batch {
            self.batch_pins.insert(ppn / self.chip.geometry().pages_per_block);
        }
    }

    // ------------------------------------------------------------------
    // Allocation & capacity
    // ------------------------------------------------------------------

    fn alloc_page(&mut self, stream: AllocStream) -> Result<Ppn> {
        match self.alloc.alloc_in(self.in_gc, stream)? {
            AllocOutcome::Page(p) => Ok(p),
            AllocOutcome::NeedsGc => {
                debug_assert!(false, "allocation after ensure_capacity must not need GC");
                self.gc_once()?;
                match self.alloc.alloc_in(self.in_gc, stream)? {
                    AllocOutcome::Page(p) => Ok(p),
                    AllocOutcome::NeedsGc => Err(CoreError::StorageFull),
                }
            }
        }
    }

    /// Run GC until `n` pages are allocatable in normal mode. Invoked at
    /// operation entry, so GC never interleaves with a half-applied write.
    fn ensure_capacity(&mut self, n: u64) -> Result<()> {
        let mut guard = 0u32;
        while self.alloc.normal_capacity() < n {
            self.gc_once()?;
            guard += 1;
            if guard > 2 * self.alloc.num_blocks() {
                return Err(CoreError::StorageFull);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transaction presence bookkeeping
    // ------------------------------------------------------------------

    fn presence_inc(&mut self, txn: u64) {
        *self.presence.entry(txn).or_insert(0) += 1;
    }

    /// One tagged item of `txn` is gone. At zero the transaction's commit
    /// record no longer gates anything: retire it (unless it sits in
    /// `dying_page`, which the caller is already tearing down).
    fn presence_dec(&mut self, txn: u64, dying_page: Option<u32>) -> Result<()> {
        let Some(c) = self.presence.get_mut(&txn) else {
            debug_assert!(false, "presence underflow for txn {txn}");
            return Ok(());
        };
        *c -= 1;
        if *c > 0 {
            return Ok(());
        }
        self.presence.remove(&txn);
        self.committed.remove(&txn);
        if let Some(loc) = self.commit_locs.remove(&txn) {
            if Some(loc) != dying_page {
                self.decrease_vdct(loc)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Valid differential count table
    // ------------------------------------------------------------------

    /// `decreaseValidDifferentialCount` (Figure 8): decrement and, at zero,
    /// set the differential page to obsolete (one write operation) so it
    /// becomes available for garbage collection.
    fn decrease_vdct(&mut self, dp: u32) -> Result<()> {
        let c = &mut self.vdct[dp as usize];
        debug_assert!(*c > 0, "vdct underflow for page {dp}");
        *c -= 1;
        if *c == 0 {
            self.mark_dead_page(Ppn(dp), true)?;
        }
        Ok(())
    }

    /// `ppn` no longer holds anything valid: account for it and set it
    /// obsolete on flash — immediately, or deferred until the data that
    /// superseded it is durable (the commit record inside a batch, the
    /// compaction flush inside GC).
    fn mark_dead_page(&mut self, ppn: Ppn, diff_page: bool) -> Result<()> {
        if diff_page {
            self.counters.diff_pages_obsoleted += 1;
        }
        self.alloc.note_obsolete(ppn);
        if self.in_txn_batch || self.in_gc {
            self.deferred.push(ppn);
        } else {
            mark_obsolete_lenient(&mut self.chip, ppn)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Differential write buffer flushing
    // ------------------------------------------------------------------

    /// `writingDifferentialWriteBuffer` (Figure 8): write the buffer's
    /// contents into a newly allocated differential page, then update the
    /// physical page mapping table and the valid differential count table.
    ///
    /// Precondition: the caller has ensured one page of allocation
    /// capacity (or is inside GC, which allocates from the reserve).
    fn flush_dwb(&mut self) -> Result<()> {
        if self.dwb.is_empty() {
            return Ok(());
        }
        let g = self.chip.geometry();
        // Step 1: write the buffer into a new differential page q.
        // Differential pages hold deltas of recently-updated pages, so
        // they live on the hot stream under hot/cold separation.
        let q = self.alloc_page(AllocStream::Hot)?;
        let mut img = std::mem::take(&mut self.page_img);
        self.dwb.serialize_into(&mut img);
        // Every flash page consumes its own creation time stamp — Case-2
        // flushes and explicit write-throughs bump the same counter, so
        // recovery's newest-wins tie-break never sees two pages sharing
        // a ts with a later write.
        let ts = self.next_ts();
        let spare = make_spare(g.spare_size, PageKind::Diff, u64::MAX, ts, &img);
        let programmed = self.chip.program_page(q, &img, &spare);
        self.page_img = img;
        programmed?;
        // Step 2: update ppmt and vdct for every record in the buffer.
        // An epoch record counts one vdct reference per member: each
        // member behaves like its own commit record sharing the location,
        // so the page stays alive until the last member's presence drops.
        let drained = self.dwb.drain();
        self.vdct[q.0 as usize] = drained
            .iter()
            .map(|e| match e {
                DwbEntry::Epoch(ep) => ep.len() as u16,
                _ => 1,
            })
            .sum();
        for e in &drained {
            match e {
                DwbEntry::Diff(d) => {
                    let pid = d.pid as usize;
                    let old_dp = self.ppmt[pid].diff;
                    if old_dp != NONE {
                        // The superseded differential's tag dies with it.
                        let old_txn = self.diff_txn[pid];
                        if old_txn != NO_TXN {
                            self.presence_dec(old_txn, None)?;
                        }
                        self.decrease_vdct(old_dp)?;
                    }
                    self.ppmt[pid].diff = q.0;
                    self.diff_txn[pid] = d.txn;
                }
                DwbEntry::Commit(c) => {
                    // The record is durable: this is the commit point.
                    self.commit_locs.insert(c.txn, q.0);
                    self.committed.insert(c.txn);
                }
                DwbEntry::Epoch(ep) => {
                    // The epoch record is durable: the commit point of
                    // every member transaction at once.
                    for txn in ep.ids() {
                        self.commit_locs.insert(txn, q.0);
                        self.committed.insert(txn);
                    }
                }
            }
        }
        self.counters.dwb_flushes += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Base-page writing
    // ------------------------------------------------------------------

    /// `writingNewBasePage` (Figure 8): write the logical page itself as a
    /// new base page, obsolete the old base page and release the old
    /// differential. Also used for the very first write of a page.
    /// Inside a commit batch the new frames carry `txn` in their spare
    /// (per-page commit visibility) and the obsolete marks are deferred.
    ///
    /// Precondition: `ensure_capacity(frames)` done by the caller.
    fn write_new_base(&mut self, pid: u64, page: &[u8], initial: bool, txn: u64) -> Result<()> {
        let g = self.chip.geometry();
        let ds = g.data_size;
        let k = self.frames();
        let ts = self.next_ts();
        let stream = self.stream_for(pid);
        let mut new_frames = [NONE; MAX_FRAMES];
        for (j, frame_data) in page.chunks_exact(ds).enumerate() {
            let q = self.alloc_page(stream)?;
            let tag = pid * k as u64 + j as u64;
            let spare = make_spare_txn(g.spare_size, PageKind::Base, tag, ts, txn, frame_data);
            self.chip.program_page(q, frame_data, &spare)?;
            new_frames[j] = q.0;
        }
        // Read the entry only now: GC during allocation may have moved it.
        let old = self.ppmt[pid as usize];
        // Any staged differential is against the old base: discard it.
        if let Some(staged) = self.dwb.remove(pid) {
            if staged.txn != NO_TXN {
                self.presence_dec(staged.txn, None)?;
            }
        }
        for j in 0..k {
            let frame = pid as usize * k + j;
            if old.base[j] != NONE {
                if txn != NO_TXN {
                    self.pin_block(old.base[j]);
                }
                let old_txn = self.base_txn[frame];
                if old_txn != NO_TXN {
                    self.presence_dec(old_txn, None)?;
                }
                self.mark_dead_page(Ppn(old.base[j]), false)?;
            }
            self.base_txn[frame] = txn;
            if txn != NO_TXN {
                self.presence_inc(txn);
                self.counters.txn_staged += 1;
            }
        }
        if old.diff != NONE {
            if txn != NO_TXN {
                self.pin_block(old.diff);
            }
            let old_txn = self.diff_txn[pid as usize];
            if old_txn != NO_TXN {
                self.presence_dec(old_txn, None)?;
            }
            self.decrease_vdct(old.diff)?;
        }
        self.ppmt[pid as usize] = PpmtEntry { base: new_frames, diff: NONE };
        self.diff_txn[pid as usize] = NO_TXN;
        if initial {
            self.counters.initial_base_writes += 1;
        }
        Ok(())
    }

    /// Read `pid`'s base frames into `out`. With verification on, every
    /// frame is checked against its spare-area checksum; a failing frame
    /// is rebuilt online from a registered twin when one exists, and
    /// otherwise poisons the page and reports [`CoreError::PageCorrupt`]
    /// — corrupt bytes are never returned. The mapping is re-read per
    /// frame because a repair can trigger GC, which relocates entries.
    fn read_base_into(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
        let ds = self.chip.geometry().data_size;
        for j in 0..self.frames() {
            let ppn = self.ppmt[pid as usize].base[j];
            debug_assert_ne!(ppn, NONE, "base frames are written together");
            let slice = &mut out[j * ds..(j + 1) * ds];
            if !self.opts.verify_checksums {
                self.chip.read_data(Ppn(ppn), slice)?;
                continue;
            }
            match self.chip.read_data_verified(Ppn(ppn), slice) {
                Ok(()) => {}
                Err(pdl_flash::FlashError::ChecksumMismatch(p)) => {
                    if self.repair_base_frame(pid, j)? {
                        slice.copy_from_slice(&self.frame_buf);
                    } else {
                        slice.fill(0);
                        self.poison(pid, p.0);
                        return Err(CoreError::PageCorrupt { pid, ppn: p.0 });
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Online single-page repair: rebuild base frame `j` of `pid` from a
    /// byte-identical twin left on flash by a failed GC erase or a
    /// recovery duplicate. On success the verified-good bytes are left in
    /// `frame_buf`, re-programmed through the normal allocation path, and
    /// the corrupt copy is marked obsolete. Costs two flash reads (twin
    /// spare + data) and one program — no recovery scan.
    fn repair_base_frame(&mut self, pid: u64, j: usize) -> Result<bool> {
        let t0 = self.chip.sim_now_us();
        let repaired = self.repair_base_frame_inner(pid, j);
        if matches!(repaired, Ok(true)) {
            crate::page_store::obs_event(
                &mut self.chip,
                pdl_flash::LatencyClass::RepairDetour,
                "repair",
                "user",
                t0,
                0,
                pid,
            );
        }
        repaired
    }

    fn repair_base_frame_inner(&mut self, pid: u64, j: usize) -> Result<bool> {
        // GC inside `ensure_capacity` may relocate the corrupt frame (its
        // stored checksum travels with it, so it stays detectable) and
        // re-key the twin registry; fetch the mapping only afterwards.
        self.ensure_capacity(1)?;
        let cur = self.ppmt[pid as usize].base[j];
        let Some(&twin) = self.twins.get(&cur) else { return Ok(false) };
        let k = self.frames() as u64;
        let Some(tinfo) = self.chip.read_spare(Ppn(twin))? else { return Ok(false) };
        if tinfo.kind != PageKind::Base || tinfo.tag != pid * k + j as u64 {
            return Ok(false); // registry gone stale: not our frame any more
        }
        let mut buf = std::mem::take(&mut self.frame_buf);
        let read = self.chip.read_data_verified(Ppn(twin), &mut buf);
        self.frame_buf = buf;
        match read {
            Ok(()) => {}
            Err(pdl_flash::FlashError::ChecksumMismatch(_)) => return Ok(false),
            Err(e) => return Err(e.into()),
        }
        let g = self.chip.geometry();
        let q = self.alloc_page(self.stream_for(pid))?;
        // The twin passed verification, so the fresh checksum computed
        // here covers known-good bytes; the original creation time stamp
        // and the frame's current visibility tag are carried over.
        let txn = self.base_txn[pid as usize * self.frames() + j];
        let spare =
            make_spare_txn(g.spare_size, PageKind::Base, tinfo.tag, tinfo.ts, txn, &self.frame_buf);
        self.chip.program_page(q, &self.frame_buf, &spare)?;
        self.twins.remove(&cur);
        self.twins.insert(q.0, twin);
        self.mark_dead_page(Ppn(cur), false)?;
        self.ppmt[pid as usize].base[j] = q.0;
        self.chip.note_repaired();
        self.counters.repaired_pages += 1;
        Ok(true)
    }

    /// Record that `pid` is corrupt with no redundant source (the failing
    /// physical page is kept for the error report).
    fn poison(&mut self, pid: u64, ppn: u32) {
        if self.poisoned.insert(pid, ppn).is_none() {
            self.counters.poisoned_pages += 1;
        }
    }

    // ------------------------------------------------------------------
    // Page reflection (Figure 7), shared by `evict_page` and `txn_stage`
    // ------------------------------------------------------------------

    /// `PDL_Writing` (Figure 7), with the differential tagged by `txn`
    /// ([`NO_TXN`] for the plain auto-committed path).
    fn stage_page(&mut self, pid: u64, page: &[u8], txn: u64) -> Result<()> {
        self.opts.check_pid(pid)?;
        let ds = self.chip.geometry().data_size;
        self.opts.check_page_buf(ds, page)?;
        let k = self.frames() as u64;
        // Worst case allocations: Case 3 writes k base frames; Case 2
        // writes one differential page.
        self.ensure_capacity(k + 1)?;
        let entry = self.ppmt[pid as usize];
        if entry.base[0] == NONE {
            return self.write_new_base(pid, page, true, txn);
        }
        if self.poisoned.contains_key(&pid) {
            // A full overwrite needs none of the unreadable stored state:
            // write the caller's complete image as a new base, healing
            // the page.
            self.write_new_base(pid, page, false, txn)?;
            self.poisoned.remove(&pid);
            self.counters.case3 += 1;
            return Ok(());
        }
        // Step 1: read the base page (charged to the writing step, as in
        // Figure 12(b) where lighter areas of write bars are read time).
        let mut base = std::mem::take(&mut self.base_buf);
        let read = self.read_base_into(pid, &mut base);
        if matches!(read, Err(CoreError::PageCorrupt { .. })) {
            // An unrepairable base frame surfaced during the read (which
            // poisoned the page); the overwrite in hand heals it. Repair
            // attempts may have consumed allocations, so top up first.
            self.base_buf = base;
            self.ensure_capacity(k)?;
            self.write_new_base(pid, page, false, txn)?;
            self.poisoned.remove(&pid);
            self.counters.case3 += 1;
            return Ok(());
        }
        // Step 2: create the differential by comparison.
        let ts = self.next_ts();
        let d = read.map(|()| Differential::compute(pid, ts, &base, page, self.opts.coalesce_gap));
        self.base_buf = base;
        let d = d?.with_txn(txn);
        // A repair inside the base read may have run GC: re-read the
        // mapping entry before relying on it below.
        let entry = self.ppmt[pid as usize];
        if d.is_empty() && entry.diff == NONE && self.dwb.get(pid).is_none() {
            // Nothing changed relative to the stored state.
            self.counters.unchanged_skips += 1;
            return Ok(());
        }
        // Step 3: write the differential into the differential write buffer.
        if let Some(old) = self.dwb.remove(pid) {
            if old.txn != NO_TXN {
                self.presence_dec(old.txn, None)?;
            }
        }
        let size = d.encoded_len();
        let limit = self.max_diff_size.min(self.dwb.capacity());
        if size > limit {
            // Case 3: discard the differential, write a new base page.
            self.counters.case3 += 1;
            return self.write_new_base(pid, page, false, txn);
        }
        if txn != NO_TXN {
            // The pre-image differential must survive until the commit
            // record is durable.
            if entry.diff != NONE {
                self.pin_block(entry.diff);
            }
            self.presence_inc(txn);
            self.counters.txn_staged += 1;
        }
        if size <= self.dwb.free_space() {
            self.counters.case1 += 1;
        } else {
            // Case 2: flush the buffer first.
            self.counters.case2 += 1;
            self.flush_dwb()?;
        }
        self.dwb.push(d);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    fn gc_once(&mut self) -> Result<()> {
        debug_assert!(!self.in_gc, "nested GC");
        self.in_gc = true;
        self.chip.set_context(OpContext::Gc);
        let t0 = self.chip.sim_now_us();
        let result = self.gc_inner();
        crate::page_store::obs_event(
            &mut self.chip,
            pdl_flash::LatencyClass::GcPause,
            "gc",
            "gc",
            t0,
            0,
            self.counters.gc_runs,
        );
        self.chip.set_context(OpContext::User);
        self.in_gc = false;
        result
    }

    fn gc_inner(&mut self) -> Result<()> {
        let g = self.chip.geometry();
        // Only victims whose relocation (plus slack) fits the free pool:
        // a failed erase must never strand GC mid-relocation.
        let budget = self.alloc.gc_capacity().saturating_sub(4) as u32;
        let victim = self
            .alloc
            .pick_victim_excluding(budget, &self.batch_pins)
            .ok_or(CoreError::StorageFull)?;
        self.gc_moves.clear();
        let written = self.alloc.written_in(victim);
        let mut staged_from_victim = false;
        for idx in 0..written {
            let ppn = g.page_at(victim, idx);
            let Some(info) = self.chip.read_spare(ppn)? else { continue };
            if info.kind == PageKind::Free || info.obsolete {
                continue;
            }
            match info.kind {
                PageKind::Base => self.relocate_base(ppn, info)?,
                PageKind::Diff => staged_from_victim |= self.compact_diff_page(ppn)?,
                PageKind::Spill => self.relocate_spill(ppn, info)?,
                other => {
                    return Err(CoreError::Corruption(format!(
                        "PDL GC found a {other:?} page at {ppn}"
                    )))
                }
            }
        }
        // Crash safety: compacted differentials must reach flash before
        // their only durable copy is erased with the victim.
        if staged_from_victim && !self.dwb.is_empty() {
            self.flush_dwb()?;
        }
        // Obsolete marks raised during this GC pass were deferred past
        // the compaction flush (the superseding copies are durable only
        // now). Marks aimed at the victim are moot — it is about to be
        // erased — and inside a commit batch everything keeps waiting
        // for the commit record.
        self.deferred.retain(|p| g.block_of(*p) != victim);
        if !self.in_txn_batch {
            for ppn in std::mem::take(&mut self.deferred) {
                mark_obsolete_lenient(&mut self.chip, ppn)?;
                self.counters.deferred_marks += 1;
            }
        }
        // The erase is *submitted*, not waited for: on a chip with queue
        // depth > 1 it completes in an otherwise-idle queue slot while
        // the foreground operation that tripped the GC threshold
        // proceeds (the `overlapped_erases` gauge attributes this).
        // Failure detection stays synchronous — the emulator reports it
        // at submission.
        match self.chip.erase_block(victim) {
            Ok(()) => {
                self.alloc.on_erased(victim);
                // Twin copies living in the erased block are gone.
                self.twins.retain(|_, t| g.block_of(Ppn(*t)) != victim);
            }
            // Bad-block management: everything valid was relocated or
            // compacted, so retire the block and move on — whether its
            // erase failed just now (`EraseFailed`) or before a crash
            // whose recovery rebuilt it as a regular `Used` block
            // (`BadBlock`); without retirement GC would pick the broken
            // block as a victim forever.
            Err(pdl_flash::FlashError::EraseFailed(b) | pdl_flash::FlashError::BadBlock(b)) => {
                self.alloc.retire_block(b);
                self.counters.bad_blocks += 1;
                // The failed erase leaves the victim's contents readable:
                // every base page just relocated out of it now has a
                // byte-identical twin there — free redundancy for online
                // single-page repair.
                for (old, new) in self.gc_moves.drain(..) {
                    self.twins.insert(new, old);
                }
            }
            Err(e) => return Err(e.into()),
        }
        self.gc_moves.clear();
        self.counters.gc_runs += 1;
        Ok(())
    }

    /// Move a valid base page to a new location, preserving its creation
    /// time stamp so recovery ordering is unaffected. A commit-visibility
    /// tag is shed once its transaction is durably committed (and the
    /// presence that kept the commit record alive goes with it); an
    /// in-flight tag travels with the copy.
    fn relocate_base(&mut self, ppn: Ppn, info: SpareInfo) -> Result<()> {
        let k = self.frames() as u64;
        let pid = (info.tag / k) as usize;
        let j = (info.tag % k) as usize;
        if pid >= self.ppmt.len() || self.ppmt[pid].base[j] != ppn.0 {
            // A stale copy that predates recovery; it dies with the block.
            return Ok(());
        }
        let g = self.chip.geometry();
        let mut buf = std::mem::take(&mut self.frame_buf);
        let read = self.chip.read_data(ppn, &mut buf);
        self.frame_buf = buf;
        read?;
        // Detection during migration: count a mismatch, but keep moving
        // the frame — with its *original* stored checksum, so the damage
        // stays detectable at the new location instead of being laundered
        // by the rewrite. (For an intact frame the preserved checksum is
        // identical to a freshly computed one.)
        let corrupt =
            self.opts.verify_checksums && self.chip.verify_read(ppn, &self.frame_buf).is_err();
        let frame = pid * self.frames() + j;
        let txn = if info.txn != NO_TXN && self.committed.contains(&info.txn) {
            self.base_txn[frame] = NO_TXN;
            self.presence_dec(info.txn, None)?;
            NO_TXN
        } else {
            info.txn
        };
        // Migration target by hotness: pages that survived GC unchanged
        // are usually cold, but a hot page caught between rewrites keeps
        // riding the hot stream so it does not pollute a cold block.
        let stream = self.stream_for(pid as u64);
        let q = self.alloc_page(stream)?;
        let spare = if corrupt {
            make_spare_preserving(g.spare_size, &SpareInfo { txn, ..info })
        } else {
            make_spare_txn(g.spare_size, PageKind::Base, info.tag, info.ts, txn, &self.frame_buf)
        };
        self.chip.program_page(q, &self.frame_buf, &spare)?;
        self.ppmt[pid].base[j] = q.0;
        // Keep the repair registry pointing at the live copy, and record
        // the move in case the victim's erase fails (old copy becomes a
        // twin).
        if let Some(t) = self.twins.remove(&ppn.0) {
            self.twins.insert(q.0, t);
        }
        self.gc_moves.push((ppn.0, q.0));
        self.counters.relocated_bases += 1;
        match stream {
            AllocStream::Hot => self.counters.migrated_hot += 1,
            AllocStream::Cold => self.counters.migrated_cold += 1,
        }
        Ok(())
    }

    /// Move a live retention-ledger spill page out of a GC victim,
    /// re-pointing its handle — "GC never reclaims a ledger-pinned
    /// pre-image" means relocated, never destroyed. A spill page with no
    /// ledger entry (a crash leftover, or freed moments ago) is dead and
    /// dies with the block.
    fn relocate_spill(&mut self, ppn: Ppn, info: SpareInfo) -> Result<()> {
        let Some(&(handle, j)) = self.spill_rev.get(&ppn.0) else {
            return Ok(());
        };
        let g = self.chip.geometry();
        let mut buf = std::mem::take(&mut self.frame_buf);
        let read = self.chip.read_data(ppn, &mut buf);
        self.frame_buf = buf;
        read?;
        // As with base relocation: a failing checksum travels with the
        // copy (never laundered), surfacing at the reader instead.
        let corrupt =
            self.opts.verify_checksums && self.chip.verify_read(ppn, &self.frame_buf).is_err();
        // Cold by definition: a spilled pre-image is never rewritten.
        let q = self.alloc_page(AllocStream::Cold)?;
        let spare = if corrupt {
            make_spare_preserving(g.spare_size, &info)
        } else {
            make_spare(g.spare_size, PageKind::Spill, info.tag, info.ts, &self.frame_buf)
        };
        self.chip.program_page(q, &self.frame_buf, &spare)?;
        self.spill_rev.remove(&ppn.0);
        self.spill_rev.insert(q.0, (handle, j));
        self.spills.get_mut(&handle).expect("rev map implies entry")[j as usize] = q.0;
        self.alloc.note_released(ppn);
        self.alloc.note_retained(q);
        self.counters.spill_relocations += 1;
        Ok(())
    }

    /// Re-stage durable proof of commit for `ids` through the write
    /// buffer: a plain commit record for a single id, epoch records
    /// (chunked to fit the buffer) for more. Returns whether anything was
    /// staged.
    fn stage_commit_proofs(&mut self, ids: &[u64]) -> Result<bool> {
        if ids.is_empty() {
            return Ok(false);
        }
        let ts = self.next_ts();
        if ids.len() == 1 {
            if CommitRecord::ENCODED_LEN > self.dwb.free_space() {
                if !self.in_gc {
                    self.ensure_capacity(2)?;
                }
                self.flush_dwb()?;
            }
            self.dwb.push_commit(CommitRecord { txn: ids[0], ts });
            return Ok(true);
        }
        let full = EpochRecord::from_ids(ts, ids);
        let ranges_per_rec = ((self.dwb.capacity() - crate::diff::EPOCH_HEADER) / 16).max(1);
        for chunk in full.ranges.chunks(ranges_per_rec) {
            let rec = EpochRecord { ts, ranges: chunk.to_vec() };
            if rec.encoded_len() > self.dwb.free_space() {
                if !self.in_gc {
                    self.ensure_capacity(2)?;
                }
                self.flush_dwb()?;
            }
            self.dwb.push_epoch(rec);
        }
        Ok(true)
    }

    /// Compaction (§4.1): "for differential pages, we move only valid
    /// differentials into a new differential page". Valid differentials are
    /// re-staged through the write buffer; superseded ones die with the
    /// victim. Committed tags are shed on the way; live commit records are
    /// re-staged so they outlive every page still tagged with their
    /// transaction. Returns whether anything was staged.
    fn compact_diff_page(&mut self, ppn: Ppn) -> Result<bool> {
        let mut buf = std::mem::take(&mut self.frame_buf);
        let read = if self.opts.verify_checksums {
            self.chip.read_data_verified(ppn, &mut buf)
        } else {
            self.chip.read_data(ppn, &mut buf)
        };
        let parsed = read.map_err(CoreError::from).and_then(|()| Differential::parse_page(&buf));
        self.frame_buf = buf;
        let records = match parsed {
            Ok(r) => r,
            Err(CoreError::Flash(pdl_flash::FlashError::ChecksumMismatch(_))) => {
                return self.salvage_corrupt_diff_page(ppn)
            }
            Err(e) => return Err(e),
        };
        let mut staged = false;
        // Commit proofs found live in this page — per-txn records and
        // epoch members alike — are coalesced into fresh epoch records at
        // the end of the pass, so long-lived committed tags cost one
        // compact record instead of one record each.
        let mut live_commits: Vec<u64> = Vec::new();
        for rec in &records {
            match rec {
                PageRecord::Diff(d) => {
                    let pid = d.pid as usize;
                    if pid >= self.ppmt.len() || self.ppmt[pid].diff != ppn.0 {
                        continue; // superseded or foreign: not the current differential
                    }
                    if self.dwb.get(d.pid).is_some() {
                        // A newer differential is already staged in memory;
                        // the durable truth moves to the buffer. (A tagged
                        // pre-image can never land here: its block is
                        // pinned for the whole batch.)
                        if self.diff_txn[pid] != NO_TXN {
                            let t = self.diff_txn[pid];
                            self.diff_txn[pid] = NO_TXN;
                            self.presence_dec(t, Some(ppn.0))?;
                        }
                        self.ppmt[pid].diff = NONE;
                        continue;
                    }
                    let d = if d.txn != NO_TXN && self.committed.contains(&d.txn) {
                        // Committed: shed the tag (the live reference moves
                        // to the untagged staged copy).
                        self.diff_txn[pid] = NO_TXN;
                        self.presence_dec(d.txn, Some(ppn.0))?;
                        d.clone().with_txn(NO_TXN)
                    } else {
                        // Untagged, or in-flight: the tag (and its live
                        // reference) travels with the staged copy.
                        d.clone()
                    };
                    if d.encoded_len() > self.dwb.free_space() {
                        self.flush_dwb()?;
                    }
                    self.ppmt[pid].diff = NONE; // pending in the buffer until flush
                    self.dwb.push(d);
                    self.counters.compacted_diffs += 1;
                    staged = true;
                }
                PageRecord::Commit(c) => {
                    if self.commit_locs.get(&c.txn) != Some(&ppn.0) {
                        // A stale twin (GC copy, or a superseded location):
                        // it dies with the block.
                        continue;
                    }
                    if self.presence.get(&c.txn).copied().unwrap_or(0) > 0 {
                        live_commits.push(c.txn);
                    } else {
                        // Nothing live references the transaction any
                        // more: retire its bookkeeping with the record.
                        self.commit_locs.remove(&c.txn);
                        self.committed.remove(&c.txn);
                        self.presence.remove(&c.txn);
                    }
                }
                PageRecord::Epoch(e) => {
                    // Each member behaves like its own commit record
                    // sharing this location.
                    for txn in e.ids() {
                        if self.commit_locs.get(&txn) != Some(&ppn.0) {
                            continue;
                        }
                        if self.presence.get(&txn).copied().unwrap_or(0) > 0 {
                            live_commits.push(txn);
                        } else {
                            self.commit_locs.remove(&txn);
                            self.committed.remove(&txn);
                            self.presence.remove(&txn);
                        }
                    }
                }
            }
        }
        if !live_commits.is_empty() {
            self.counters.commit_records_restaged += live_commits.len() as u64;
            if live_commits.len() > 1 {
                self.counters.epoch_coalesced += live_commits.len() as u64;
            }
            staged |= self.stage_commit_proofs(&live_commits)?;
        }
        self.vdct[ppn.0 as usize] = 0;
        Ok(staged)
    }

    /// A differential page failed verification during compaction: its
    /// records are unreadable. Every logical page whose only durable
    /// differential lived here is poisoned (the base alone would be
    /// silently stale — knowledge of the loss must outlive the mapping
    /// entry, which is cleared below); pages whose newer differential is
    /// already staged in the write buffer lose nothing. Live commit
    /// records stored here are rewritten from the in-memory tables.
    fn salvage_corrupt_diff_page(&mut self, ppn: Ppn) -> Result<bool> {
        let mut staged = false;
        for pid in 0..self.ppmt.len() {
            if self.ppmt[pid].diff != ppn.0 {
                continue;
            }
            let t = self.diff_txn[pid];
            if t != NO_TXN {
                self.diff_txn[pid] = NO_TXN;
                self.presence_dec(t, Some(ppn.0))?;
            }
            self.ppmt[pid].diff = NONE;
            if self.dwb.get(pid as u64).is_none() {
                self.poison(pid as u64, ppn.0);
            }
        }
        let lost: Vec<u64> =
            self.commit_locs.iter().filter(|(_, l)| **l == ppn.0).map(|(t, _)| *t).collect();
        let mut lost_live: Vec<u64> = Vec::new();
        for txn in lost {
            self.commit_locs.remove(&txn);
            if self.presence.get(&txn).copied().unwrap_or(0) > 0 {
                // Still gating visibility: re-stage fresh proof.
                lost_live.push(txn);
            } else {
                self.committed.remove(&txn);
                self.presence.remove(&txn);
            }
        }
        if !lost_live.is_empty() {
            self.counters.commit_records_restaged += lost_live.len() as u64;
            staged |= self.stage_commit_proofs(&lost_live)?;
        }
        self.vdct[ppn.0 as usize] = 0;
        Ok(staged)
    }
}

impl PageStore for Pdl {
    fn options(&self) -> &StoreOptions {
        &self.opts
    }

    /// `PDL_Reading` (Figure 9): read the base page, find the differential
    /// (write buffer first, then the differential page), and merge.
    fn read_page(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
        self.opts.check_pid(pid)?;
        let ds = self.chip.geometry().data_size;
        self.opts.check_page_buf(ds, out)?;
        if let Some(&ppn) = self.poisoned.get(&pid) {
            // Known corrupt with no redundant source: report, never
            // serve. A full overwrite clears this state.
            out.fill(0);
            return Err(CoreError::PageCorrupt { pid, ppn });
        }
        if self.ppmt[pid as usize].base[0] == NONE {
            out.fill(0);
            return Ok(());
        }
        // Step 1: read the base page (verified; repairs online).
        self.read_base_into(pid, out)?;
        // Step 2: find the differential. (Re-read the mapping entry: a
        // repair in Step 1 can run GC, which moves differential pages.)
        let entry = self.ppmt[pid as usize];
        if let Some(d) = self.dwb.get(pid) {
            d.apply(out);
            return Ok(());
        }
        if entry.diff != NONE {
            let mut buf = std::mem::take(&mut self.frame_buf);
            let read = if self.opts.verify_checksums {
                self.chip.read_data_verified(Ppn(entry.diff), &mut buf)
            } else {
                self.chip.read_data(Ppn(entry.diff), &mut buf)
            };
            let found =
                read.map_err(CoreError::from).and_then(|()| Differential::find_in_page(&buf, pid));
            self.frame_buf = buf;
            let d = match found {
                Ok(Some(d)) => d,
                Ok(None) => {
                    return Err(CoreError::Corruption(format!(
                        "differential for page {pid} missing from differential page {}",
                        entry.diff
                    )))
                }
                Err(CoreError::Flash(pdl_flash::FlashError::ChecksumMismatch(p))) => {
                    // The page's only durable differential is unreadable
                    // and the base alone is stale: serving it would be
                    // silently wrong. Poison until a full overwrite.
                    self.poison(pid, p.0);
                    out.fill(0);
                    return Err(CoreError::PageCorrupt { pid, ppn: p.0 });
                }
                Err(e) => return Err(e),
            };
            // Step 3: merge the base page with the differential.
            d.apply(out);
        }
        Ok(())
    }

    /// Read-ahead: issue the reads `PDL_Reading` will need — the base
    /// frames, plus the differential page unless the write buffer already
    /// holds the page's differential — without waiting on them.
    fn prefetch(&mut self, pid: u64) -> Result<()> {
        self.opts.check_pid(pid)?;
        let entry = self.ppmt[pid as usize];
        if entry.base[0] == NONE {
            return Ok(());
        }
        for j in 0..self.frames() {
            self.chip.prefetch_page(Ppn(entry.base[j]))?;
        }
        if entry.diff != NONE && self.dwb.get(pid).is_none() {
            self.chip.prefetch_page(Ppn(entry.diff))?;
        }
        Ok(())
    }

    fn apply_update(&mut self, pid: u64, _page: &[u8], _changes: &[ChangeRange]) -> Result<()> {
        // Loosely coupled: "when a logical page is simply updated, we just
        // update the logical page in memory without recording the log".
        // The notification still feeds the hot/cold policy's per-page
        // update-frequency gauge (no flash operation is performed).
        self.heat.note_update(pid);
        Ok(())
    }

    /// `PDL_Writing` (Figure 7).
    fn evict_page(&mut self, pid: u64, page: &[u8]) -> Result<()> {
        self.stage_page(pid, page, NO_TXN)
    }

    /// Write-through (§4.5): "when the write-through command is called, PDL
    /// flushes the differential write buffer out into flash memory".
    fn flush(&mut self) -> Result<()> {
        if self.dwb.is_empty() {
            return Ok(());
        }
        self.ensure_capacity(1)?;
        self.flush_dwb()
    }

    // --- pdl-txn: the atomic commit batch -----------------------------

    fn txn_supported(&self) -> bool {
        true
    }

    fn txn_reserve(&mut self, pages: u64) -> Result<()> {
        // Worst case per page: k base frames (Case 3) plus one flushed
        // differential page; plus one page for the commit-record flush
        // and one for any pre-existing buffer content. Reserving up
        // front keeps GC out of the batch in the common case (and the
        // pre-image pins keep it safe when an interleaved operation
        // triggers it anyway).
        let k = self.frames() as u64;
        self.ensure_capacity(pages.saturating_mul(k + 1) + 2)?;
        self.in_txn_batch = true;
        Ok(())
    }

    fn txn_stage(&mut self, pid: u64, page: &[u8], txn: u64) -> Result<()> {
        debug_assert!(self.in_txn_batch, "txn_stage outside a reserve..finalize batch");
        debug_assert_ne!(txn, NO_TXN, "txn_stage needs a real transaction id");
        self.stage_page(pid, page, txn)
    }

    fn txn_flush_stage(&mut self) -> Result<()> {
        if self.dwb.is_empty() {
            return Ok(());
        }
        self.ensure_capacity(1)?;
        self.flush_dwb()
    }

    fn txn_append_commit(&mut self, txn: u64) -> Result<()> {
        if CommitRecord::ENCODED_LEN > self.dwb.free_space() {
            self.ensure_capacity(2)?;
            self.flush_dwb()?;
        }
        let ts = self.next_ts();
        self.dwb.push_commit(CommitRecord { txn, ts });
        self.counters.txn_commits += 1;
        Ok(())
    }

    fn txn_append_commit_epoch(&mut self, txns: &[u64]) -> Result<()> {
        if txns.is_empty() {
            return Ok(());
        }
        self.stage_commit_proofs(txns)?;
        self.counters.txn_commits += txns.len() as u64;
        if txns.len() > 1 {
            self.counters.epoch_commits += 1;
        }
        Ok(())
    }

    // --- retention-ledger spill tier ----------------------------------

    fn spill_supported(&self) -> bool {
        true
    }

    fn spill_page(&mut self, pid: u64, page: &[u8]) -> Result<u64> {
        self.opts.check_pid(pid)?;
        let ds = self.chip.geometry().data_size;
        self.opts.check_page_buf(ds, page)?;
        let k = self.frames() as u64;
        self.ensure_capacity(k)?;
        let g = self.chip.geometry();
        let ts = self.next_ts();
        let handle = self.next_spill;
        self.next_spill += 1;
        let mut ppns = Vec::with_capacity(k as usize);
        for (j, frame_data) in page.chunks_exact(ds).enumerate() {
            // Spilled pre-images are cold by definition (never rewritten),
            // so they ride the cold stream and stay out of hot blocks.
            let q = self.alloc_page(AllocStream::Cold)?;
            let tag = pid * k + j as u64;
            let spare = make_spare(g.spare_size, PageKind::Spill, tag, ts, frame_data);
            self.chip.program_page(q, frame_data, &spare)?;
            self.alloc.note_retained(q);
            self.spill_rev.insert(q.0, (handle, j as u32));
            ppns.push(q.0);
        }
        self.spills.insert(handle, ppns);
        self.counters.spilled_versions += 1;
        Ok(handle)
    }

    fn read_spill(&mut self, pid: u64, handle: u64, out: &mut [u8]) -> Result<()> {
        let ds = self.chip.geometry().data_size;
        self.opts.check_page_buf(ds, out)?;
        let ppns = self
            .spills
            .get(&handle)
            .cloned()
            .ok_or_else(|| CoreError::Corruption(format!("unknown spill handle {handle}")))?;
        for (j, &ppn) in ppns.iter().enumerate() {
            let slice = &mut out[j * ds..(j + 1) * ds];
            if self.opts.verify_checksums {
                match self.chip.read_data_verified(Ppn(ppn), slice) {
                    Ok(()) => {}
                    Err(pdl_flash::FlashError::ChecksumMismatch(p)) => {
                        // A spill page has no twin: the cold version is
                        // lost. Surface it — the live page is unaffected.
                        slice.fill(0);
                        return Err(CoreError::PageCorrupt { pid, ppn: p.0 });
                    }
                    Err(e) => return Err(e.into()),
                }
            } else {
                self.chip.read_data(Ppn(ppn), slice)?;
            }
        }
        self.counters.spill_reads += 1;
        Ok(())
    }

    fn free_spill(&mut self, _pid: u64, handle: u64) -> Result<()> {
        let Some(ppns) = self.spills.remove(&handle) else {
            return Ok(()); // already freed: releasing is idempotent
        };
        for ppn in ppns {
            self.spill_rev.remove(&ppn);
            self.alloc.note_released(Ppn(ppn));
            self.mark_dead_page(Ppn(ppn), false)?;
        }
        Ok(())
    }

    fn txn_id_floor(&self) -> u64 {
        let recorded = self.commit_locs.keys().chain(self.committed.iter()).max().copied();
        let tagged = self.presence.keys().max().copied();
        recorded.max(tagged).map(|m| m + 1).unwrap_or(1)
    }

    fn checkpoint(&mut self) -> Result<()> {
        Pdl::checkpoint(self)
    }

    fn txn_stage_struct_roots(&mut self, roots: &StructRootsSnapshot, txn: u64) -> Result<()> {
        if self.opts.checkpoint_blocks < 2 {
            return Ok(()); // no root region: roots stay memory-resident
        }
        debug_assert!(self.in_txn_batch, "root staging outside a reserve..finalize batch");
        // Program only the difference from the committed roots. After a
        // batch that aborted mid-protocol, its record is on flash and
        // might still prove committed at recovery, so the next record is
        // a reset that does not depend on whether it applied.
        let delta =
            checkpoint::RootDelta::between(&self.struct_roots, roots, self.pending_roots.is_some());
        let mut next = self.struct_roots.clone();
        delta.apply(&mut next)?;
        let record = delta.encode(txn);
        let g = self.chip.geometry();
        let npages = record.len().div_ceil(g.data_size) as u32;
        if self.root_tail + npages > self.root_tail_end {
            return Err(CoreError::StorageFull);
        }
        // The aborted batch's pending record left a presence ref behind;
        // replace it before taking our own.
        if let Some((orphan, _)) = self.pending_roots.take() {
            self.presence_dec(orphan, None)?;
        }
        // The record is programmed now but becomes authoritative only if
        // `txn`'s commit record lands: recovery's tail scan skips records
        // of torn transactions, so the crash-atomicity of the roots is
        // exactly the batch's.
        let ts = self.ts.saturating_sub(1);
        let mut img = vec![0xFFu8; g.data_size];
        for (i, chunk) in record.chunks(g.data_size).enumerate() {
            img.fill(0xFF);
            img[..chunk.len()].copy_from_slice(chunk);
            let spare = make_spare(g.spare_size, PageKind::Checkpoint, txn, ts, &img);
            self.chip.program_page(Ppn(self.root_tail + i as u32), &img, &spare)?;
        }
        self.root_tail += npages;
        if self.ckpt_live_half.is_none() {
            self.root_tail_used = true;
        }
        self.presence_inc(txn);
        self.pending_roots = Some((txn, next));
        Ok(())
    }

    fn struct_roots(&self) -> Option<StructRootsSnapshot> {
        if self.opts.checkpoint_blocks < 2 {
            return None;
        }
        Some(self.struct_roots.clone())
    }

    fn struct_root_log_space(&self) -> u64 {
        if self.opts.checkpoint_blocks < 2 {
            return u64::MAX;
        }
        (self.root_tail_end - self.root_tail) as u64 * self.chip.geometry().data_size as u64
    }

    fn txn_finalize(&mut self) -> Result<()> {
        if !self.dwb.is_empty() {
            self.ensure_capacity(1)?;
            self.flush_dwb()?;
        }
        // The commit records are durable: the superseded pre-images are
        // now garbage on every timeline, so their obsolete marks can go
        // out.
        for ppn in std::mem::take(&mut self.deferred) {
            mark_obsolete_lenient(&mut self.chip, ppn)?;
            self.counters.deferred_marks += 1;
        }
        // The batch's root record is committed along with it: promote its
        // snapshot to the authoritative one. Its commit record stays
        // pinned, like every earlier record's, until the next checkpoint.
        if let Some((txn, snap)) = self.pending_roots.take() {
            self.struct_roots = snap;
            self.live_root_txns.push(txn);
        }
        self.batch_pins.clear();
        self.in_txn_batch = false;
        Ok(())
    }

    fn chip(&self) -> &FlashChip {
        &self.chip
    }

    fn chip_mut(&mut self) -> &mut FlashChip {
        &mut self.chip
    }

    fn name(&self) -> String {
        MethodKind::Pdl { max_diff_size: self.max_diff_size }.label()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let c = &self.counters;
        vec![
            ("case1_staged", c.case1),
            ("case2_flush_then_staged", c.case2),
            ("case3_new_base", c.case3),
            ("initial_base_writes", c.initial_base_writes),
            ("dwb_flushes", c.dwb_flushes),
            ("diff_pages_obsoleted", c.diff_pages_obsoleted),
            ("gc_runs", c.gc_runs),
            ("compacted_diffs", c.compacted_diffs),
            ("relocated_bases", c.relocated_bases),
            ("migrated_hot", c.migrated_hot),
            ("migrated_cold", c.migrated_cold),
            ("unchanged_skips", c.unchanged_skips),
            ("checkpoints", c.checkpoints),
            ("bad_blocks", c.bad_blocks),
            ("txn_staged", c.txn_staged),
            ("txn_commits", c.txn_commits),
            ("commit_records_restaged", c.commit_records_restaged),
            ("deferred_marks", c.deferred_marks),
            ("repaired_pages", c.repaired_pages),
            ("poisoned_pages", c.poisoned_pages),
            ("spilled_versions", c.spilled_versions),
            ("spill_reads", c.spill_reads),
            ("spill_relocations", c.spill_relocations),
            ("epoch_commits", c.epoch_commits),
            ("epoch_coalesced", c.epoch_coalesced),
            ("retention_pinned_skips", self.alloc.retention_skips()),
        ]
    }

    fn into_chips(self: Box<Self>) -> Vec<FlashChip> {
        vec![self.chip]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_flash::FlashConfig;

    fn store(pages: u64, max_diff: usize) -> Pdl {
        Pdl::new(FlashChip::new(FlashConfig::tiny()), StoreOptions::new(pages), max_diff).unwrap()
    }

    fn filled(s: &Pdl, fill: u8) -> Vec<u8> {
        vec![fill; s.logical_page_size()]
    }

    #[test]
    fn first_write_is_a_base_page() {
        let mut s = store(8, 64);
        let p = filled(&s, 5);
        let before = s.chip().stats().total();
        s.write_page(2, &p).unwrap();
        let d = s.chip().stats().total() - before;
        assert_eq!(d.writes, 1); // one base-page program, nothing else
        let mut out = filled(&s, 0);
        s.read_page(2, &mut out).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn small_update_stays_in_write_buffer() {
        let mut s = store(8, 64);
        let mut p = filled(&s, 5);
        s.write_page(0, &p).unwrap();
        let before = s.chip().stats().total();
        p[10] = 99;
        s.write_page(0, &p).unwrap();
        let d = s.chip().stats().total() - before;
        // Case 1: one base read to compute the differential, zero writes.
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 0);
        assert_eq!(s.counters.case1, 1);
        // The read path merges from the buffer.
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn buffer_overflow_flushes_a_differential_page() {
        let mut s = store(8, 256);
        let ds = s.chip().geometry().data_size; // 256 on the tiny chip
        for pid in 0..8u64 {
            s.write_page(pid, &filled(&s, 1)).unwrap();
        }
        // Each differential is ~100 bytes encoded; the tiny 256-byte buffer
        // fits two, so repeated updates force Case 2 flushes.
        let mut flushed = false;
        for round in 0..6u8 {
            for pid in 0..8u64 {
                let mut p = filled(&s, 1);
                let at = (pid as usize * 17 + round as usize * 31) % (ds - 80);
                p[at..at + 80].fill(round + 2);
                s.write_page(pid, &p).unwrap();
                flushed |= s.counters.dwb_flushes > 0;
            }
        }
        assert!(flushed, "expected at least one dwb flush");
        assert!(s.counters.case2 > 0);
    }

    #[test]
    fn read_merges_base_and_flushed_differential() {
        let mut s = store(4, 256);
        let base = filled(&s, 0x11);
        s.write_page(1, &base).unwrap();
        let mut v2 = base.clone();
        v2[20..40].fill(0x22);
        s.write_page(1, &v2).unwrap();
        s.flush().unwrap(); // differential now on flash
        assert!(s.dwb.is_empty());
        let before = s.chip().stats().total();
        let mut out = filled(&s, 0);
        s.read_page(1, &mut out).unwrap();
        let d = s.chip().stats().total() - before;
        assert_eq!(out, v2);
        // At-most-two-page reading: base + differential page.
        assert_eq!(d.reads, 2);
    }

    #[test]
    fn read_without_differential_is_one_read() {
        let mut s = store(4, 256);
        s.write_page(0, &filled(&s, 9)).unwrap();
        let before = s.chip().stats().total();
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!((s.chip().stats().total() - before).reads, 1);
    }

    #[test]
    fn oversized_differential_triggers_case3() {
        let mut s = store(4, 64);
        let p = filled(&s, 1);
        s.write_page(0, &p).unwrap();
        // Change far more than 64 bytes.
        let p2 = filled(&s, 2);
        s.write_page(0, &p2).unwrap();
        assert_eq!(s.counters.case3, 1);
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p2);
        // No differential page involved afterwards.
        let before = s.chip().stats().total();
        s.read_page(0, &mut out).unwrap();
        assert_eq!((s.chip().stats().total() - before).reads, 1);
    }

    #[test]
    fn unchanged_eviction_is_free() {
        let mut s = store(4, 256);
        let p = filled(&s, 3);
        s.write_page(0, &p).unwrap();
        let before = s.chip().stats().total();
        s.write_page(0, &p).unwrap();
        let d = s.chip().stats().total() - before;
        // One base read to compute the (empty) differential; no writes.
        assert_eq!(d.writes, 0);
        assert_eq!(s.counters.unchanged_skips, 1);
    }

    #[test]
    fn differential_supersedes_older_one_in_buffer() {
        let mut s = store(4, 256);
        let base = filled(&s, 0);
        s.write_page(0, &base).unwrap();
        let mut v1 = base.clone();
        v1[0] = 1;
        s.write_page(0, &v1).unwrap();
        let mut v2 = base.clone();
        v2[0] = 2;
        s.write_page(0, &v2).unwrap();
        assert_eq!(s.dwb.len(), 1, "only the newest differential is buffered");
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, v2);
    }

    #[test]
    fn sustained_updates_gc_and_preserve_data() {
        let mut s = store(8, 128);
        let ds = s.chip().geometry().data_size;
        let mut truth: Vec<Vec<u8>> =
            (0..8).map(|i| vec![i as u8; s.logical_page_size()]).collect();
        for (pid, t) in truth.iter().enumerate() {
            s.write_page(pid as u64, t).unwrap();
        }
        let mut x: u32 = 12345;
        for round in 0..400u32 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let pid = (x >> 8) as usize % 8;
            let at = (x >> 11) as usize % (ds - 16);
            truth[pid][at..at + 16].fill(round as u8);
            let p = truth[pid].clone();
            s.write_page(pid as u64, &p).unwrap();
        }
        assert!(s.counters.gc_runs > 0, "GC should have run");
        for pid in 0..8usize {
            let mut out = filled(&s, 0);
            s.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(out, truth[pid], "pid {pid}");
        }
    }

    #[test]
    fn multi_frame_logical_pages() {
        let chip = FlashChip::new(FlashConfig::tiny());
        let mut s = Pdl::new(chip, StoreOptions::new(4).with_frames_per_page(2), 128).unwrap();
        let ds = s.chip().geometry().data_size;
        let mut p = vec![0u8; 2 * ds];
        p[..ds].fill(1);
        p[ds..].fill(2);
        s.write_page(0, &p).unwrap();
        // Small cross-frame change -> differential.
        p[ds - 4..ds + 4].fill(9);
        s.write_page(0, &p).unwrap();
        let mut out = vec![0u8; 2 * ds];
        let before = s.chip().stats().total();
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
        // Two base frames + differential still buffered: 2 reads.
        assert_eq!((s.chip().stats().total() - before).reads, 2);
        s.flush().unwrap();
        let before = s.chip().stats().total();
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
        // Two base frames + one differential page.
        assert_eq!((s.chip().stats().total() - before).reads, 3);
    }

    #[test]
    fn write_buffer_survives_reads_until_flush() {
        let mut s = store(4, 256);
        let base = filled(&s, 0);
        s.write_page(0, &base).unwrap();
        let mut v = base.clone();
        v[5] = 5;
        s.write_page(0, &v).unwrap();
        // Reading must not disturb the buffer.
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        s.read_page(0, &mut out).unwrap();
        assert_eq!(s.dwb.len(), 1);
        s.flush().unwrap();
        assert!(s.dwb.is_empty());
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, v);
    }

    #[test]
    fn oversized_max_diff_size_is_rejected() {
        let chip = FlashChip::new(FlashConfig::tiny());
        let err = match Pdl::new(chip, StoreOptions::new(4), 2048) {
            Err(e) => e,
            Ok(_) => panic!("2048-byte max_diff_size must not fit a 256-byte page"),
        };
        assert!(matches!(err, CoreError::BadConfig(_)), "{err}");
    }

    #[test]
    fn commit_batch_lands_record_with_differentials() {
        let mut s = store(8, 128);
        for pid in 0..4u64 {
            s.write_page(pid, &filled(&s, 1)).unwrap();
        }
        s.flush().unwrap();
        let txn = 7u64;
        s.txn_reserve(2).unwrap();
        let mut p = filled(&s, 1);
        p[3..9].fill(0xEE);
        s.txn_stage(0, &p, txn).unwrap();
        let mut p2 = filled(&s, 1);
        p2[40..44].fill(0xDD);
        s.txn_stage(1, &p2, txn).unwrap();
        assert!(!s.txn_committed(txn), "not committed until the record is durable");
        s.txn_append_commit(txn).unwrap();
        s.txn_finalize().unwrap();
        assert!(s.txn_committed(txn));
        assert_eq!(s.counters.txn_commits, 1);
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
        s.read_page(1, &mut out).unwrap();
        assert_eq!(out, p2);
    }

    #[test]
    fn committed_tags_are_shed_by_gc_churn() {
        let mut s = store(8, 128);
        let size = s.logical_page_size();
        for pid in 0..8u64 {
            s.write_page(pid, &vec![pid as u8; size]).unwrap();
        }
        s.flush().unwrap();
        // One tagged commit...
        s.txn_reserve(2).unwrap();
        let mut p = vec![0u8; size];
        p[7] = 7;
        s.txn_stage(0, &p, 42).unwrap();
        s.txn_append_commit(42).unwrap();
        s.txn_finalize().unwrap();
        assert!(s.presence.contains_key(&42));
        // ...then heavy untagged churn: compaction strips the tag and
        // eventually retires the commit record and every map entry.
        let mut truth: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; size]).collect();
        truth[0] = p;
        for round in 0..600u32 {
            let pid = (round % 8) as usize;
            let at = (round as usize * 13) % (size - 8);
            truth[pid][at..at + 8].fill(round as u8);
            let q = truth[pid].clone();
            s.write_page(pid as u64, &q).unwrap();
        }
        assert!(s.counters.gc_runs > 0);
        assert!(!s.presence.contains_key(&42), "presence must drain");
        assert!(!s.committed.contains(&42), "bookkeeping must retire");
        assert!(!s.commit_locs.contains_key(&42));
        for pid in 0..8usize {
            let mut out = vec![0u8; size];
            s.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(out, truth[pid], "pid {pid}");
        }
    }
}
