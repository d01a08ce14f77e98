//! The database facade: a buffer pool plus a logical-page allocator.
//!
//! Heap files and B+-trees allocate their pages here; the page-update
//! method underneath decides how those logical pages land in flash.
//!
//! Reads take `&Database`. Plain reads see the *live* page image —
//! including an open transaction's in-flight writes, since transactions
//! mutate frames in place (the write transaction reading its own
//! writes). Isolation comes from [`Database::begin_read`]: an MVCC
//! [`ReadView`] freezes the whole page space at its commit-clock
//! position, hiding both in-flight writes and every later commit.
//!
//! # Concurrent structural writers
//!
//! Mutations take `&Database` too: the database is interior-mutable
//! (allocator, transaction table and structure registry each behind
//! their own lock), and structural writers — B+-tree splits, heap
//! growth — serialize per *page* through the buffer pool's latch table
//! ([`Database::latch_page`]), not per database. Transactions are keyed
//! by thread: [`Database::begin`] opens at most one transaction per
//! thread, and every `with_page_mut` on that thread is tracked against
//! it. Cross-thread writes to a page dirtied by another uncommitted
//! transaction fail with [`StorageError::TxnConflict`] — the caller
//! aborts and retries, optimistic-concurrency style.
//!
//! # Durable structure roots
//!
//! On a store with a PDL checkpoint region, every durable commit that
//! changed a registered structure hands the full `StructId → StructRoot`
//! snapshot to the store ([`pdl_core::PageStore::txn_stage_struct_roots`]),
//! which programs only its difference from the last committed snapshot
//! into the checkpoint region's root log, inside the same commit batch as
//! the data — the record is authoritative exactly when the transaction's
//! commit record is durable. After a crash,
//! [`Database::recover_structures`] rebuilds the registered handles from
//! the store alone; `attach` from externally remembered pids remains as
//! a compatibility path.

use crate::btree::BTree;
use crate::buffer::{BufferPool, BufferStats, PageLatch, PageMut};
use crate::error::StorageError;
use crate::heap::HeapFile;
use crate::view::{PageRead, StructId, StructRoot, ViewRegistry};
use crate::{ReadGuard, ReadView, Result};
use pdl_core::{PageStore, StructRootEntry, StructRootsSnapshot};
use pdl_flash::FlashStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

/// A record locator: logical page + slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    pub pid: u64,
    pub slot: u16,
}

impl RecordId {
    pub fn new(pid: u64, slot: u16) -> RecordId {
        RecordId { pid, slot }
    }

    /// Pack into a u64 (B+-tree value encoding).
    ///
    /// Only 48 bits are available for the page id — a pid at or above
    /// 2^48 would silently collide with another record's encoding.
    pub fn to_u64(self) -> u64 {
        debug_assert!(
            self.pid < 1 << 48,
            "RecordId pid {} exceeds the 48-bit encoding range",
            self.pid
        );
        (self.pid << 16) | self.slot as u64
    }

    pub fn from_u64(v: u64) -> RecordId {
        RecordId { pid: v >> 16, slot: (v & 0xFFFF) as u16 }
    }
}

/// A transaction handle (see [`Database::begin`]).
pub type TxnId = u64;

/// What a [`Database::commit`] guarantees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Durability {
    /// Commit releases the transaction's pages back to ordinary lazy
    /// eviction: atomic in memory (abort restores pre-images), but a
    /// crash rolls back to the last write-through, exactly as before the
    /// `pdl-txn` subsystem. This is the paper's own setting and keeps
    /// the experiment I/O profiles unchanged.
    #[default]
    Relaxed,
    /// Commit stages every dirtied page through the store's transactional
    /// path, appends a durable commit record and flushes: all-or-nothing
    /// across a crash (on PDL; other methods degrade to write-through
    /// durability without atomicity).
    Commit,
}

/// A structure rebuilt from the store's checkpointed root log (see
/// [`Database::recover_structures`]), already registered in the
/// database's structure-root registry.
pub enum RecoveredStructure {
    BTree(BTree),
    Heap(HeapFile),
}

impl RecoveredStructure {
    /// Unwrap a recovered B+-tree (panics on a heap entry — recovery
    /// order is registration order, so callers know which is which).
    pub fn into_btree(self) -> BTree {
        match self {
            RecoveredStructure::BTree(t) => t,
            RecoveredStructure::Heap(_) => panic!("recovered structure is a heap, not a b+-tree"),
        }
    }

    /// Unwrap a recovered heap file (panics on a B+-tree entry).
    pub fn into_heap(self) -> HeapFile {
        match self {
            RecoveredStructure::Heap(h) => h,
            RecoveredStructure::BTree(_) => panic!("recovered structure is a b+-tree, not a heap"),
        }
    }
}

/// The logical-page allocator, behind one lock: a monotonic frontier
/// plus a free list fed by rolled-back structured allocations.
struct AllocState {
    next_pid: u64,
    /// Pids reclaimed from rolled-back structured allocations, reissued
    /// before the monotonic frontier advances.
    free_pids: Vec<u64>,
    /// Pages each open transaction allocated, as `(pid, structured)`.
    txn_allocs: HashMap<TxnId, Vec<(u64, bool)>>,
    /// Raw-allocation pids stranded by rollbacks so far (the
    /// [`BufferStats::leaked_pids`] gauge).
    leaked: u64,
}

/// A database: buffer pool + logical-page allocator + transactions.
///
/// All of it behind `&self`: readers, writers and transaction control
/// are safe to call from any number of threads (`Database: Sync`).
pub struct Database {
    pool: BufferPool,
    alloc: Mutex<AllocState>,
    max_pages: u64,
    durability: Durability,
    next_txn: AtomicU64,
    /// Open transactions, keyed by the thread that opened them: at most
    /// one per thread, so `with_page_mut` can attribute mutations without
    /// threading a handle through every call.
    open_txns: Mutex<HashMap<ThreadId, TxnId>>,
    /// Each open transaction's uncommitted structural changes (B+-tree
    /// roots, heap page lists), keyed by [`StructId`]: published into the
    /// pool's structure-root log at the commit timestamp, discarded on
    /// abort. Current-state reads on the owning thread see them
    /// (read-your-writes, like the in-place frame mutations); snapshot
    /// reads never do.
    txn_structs: Mutex<HashMap<TxnId, HashMap<StructId, StructRoot>>>,
    /// Bumped on every rollback (abort or failed durable commit):
    /// lets heap handles invalidate their free-space estimates, which a
    /// rollback can leave *under*-estimating restored space.
    abort_epoch: AtomicU64,
    /// Serializes the durable commit protocol (reserve → stage → commit
    /// record → finalize) across threads. Latched structural mutation
    /// runs concurrently; only the batch boundary is exclusive.
    commit_lock: Mutex<()>,
}

impl Database {
    /// Wrap a page store with a buffer of `buffer_pages` pages.
    ///
    /// On a store carrying a checkpointed root log
    /// ([`pdl_core::PageStore::struct_roots`]), the allocation frontier
    /// auto-initializes past every persisted structure page, so a
    /// recovered database never reissues a pid a recovered structure
    /// still references.
    pub fn new(store: Box<dyn PageStore>, buffer_pages: usize) -> Database {
        let max_pages = store.options().num_logical_pages;
        let next_txn = store.txn_id_floor();
        let next_pid = store.struct_roots().map_or(0, |snap| {
            let past_entries =
                snap.entries.iter().flat_map(|e| e.pids.iter().map(|p| p + 1)).max().unwrap_or(0);
            snap.next_pid.max(past_entries)
        });
        let pool = BufferPool::new(store, buffer_pages);
        pool.set_pin_owned(false); // Durability::Relaxed is the default
        Database {
            pool,
            alloc: Mutex::new(AllocState {
                next_pid,
                free_pids: Vec::new(),
                txn_allocs: HashMap::new(),
                leaked: 0,
            }),
            max_pages,
            durability: Durability::Relaxed,
            next_txn: AtomicU64::new(next_txn),
            open_txns: Mutex::new(HashMap::new()),
            txn_structs: Mutex::new(HashMap::new()),
            abort_epoch: AtomicU64::new(0),
            commit_lock: Mutex::new(()),
        }
    }

    /// Re-wrap a store whose first `allocated` pages are already in use
    /// (e.g. to change the buffer size after loading a database).
    pub fn new_with_allocated(
        store: Box<dyn PageStore>,
        buffer_pages: usize,
        allocated: u64,
    ) -> Database {
        let db = Database::new(store, buffer_pages);
        db.lock_alloc().next_pid = allocated;
        db
    }

    /// Choose the commit guarantee (default: [`Durability::Relaxed`]).
    pub fn with_durability(mut self, durability: Durability) -> Database {
        self.durability = durability;
        self.pool.set_pin_owned(durability == Durability::Commit);
        self
    }

    pub fn durability(&self) -> Durability {
        self.durability
    }

    fn lock_alloc(&self) -> std::sync::MutexGuard<'_, AllocState> {
        self.alloc.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_open_txns(&self) -> std::sync::MutexGuard<'_, HashMap<ThreadId, TxnId>> {
        self.open_txns.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_txn_structs(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<TxnId, HashMap<StructId, StructRoot>>> {
        self.txn_structs.lock().unwrap_or_else(|e| e.into_inner())
    }

    // ------------------------------------------------------------------
    // Transactions (pdl-txn): at most one open transaction per *thread*;
    // every `with_page_mut` on that thread between begin and
    // commit/abort is tracked against it.
    // ------------------------------------------------------------------

    /// Open a transaction on the calling thread. Until
    /// [`Database::commit`] or [`Database::abort`] (on the same thread),
    /// every mutation is tagged with the returned id, its first touch of
    /// a page snapshots the pre-image, and (in [`Durability::Commit`]
    /// mode) its dirty pages are pinned in the buffer pool.
    pub fn begin(&self) -> Result<TxnId> {
        let me = std::thread::current().id();
        let mut open = self.lock_open_txns();
        if open.contains_key(&me) {
            return Err(StorageError::TxnState(
                "a transaction is already open on this thread".into(),
            ));
        }
        let txn = self.next_txn.fetch_add(1, Ordering::SeqCst);
        open.insert(me, txn);
        Ok(txn)
    }

    /// The calling thread's open transaction, if any.
    pub fn current_txn(&self) -> Option<TxnId> {
        self.lock_open_txns().get(&std::thread::current().id()).copied()
    }

    /// Close the calling thread's transaction entry, returning its id.
    fn take_thread_txn(&self, what: &str) -> Result<TxnId> {
        self.lock_open_txns()
            .remove(&std::thread::current().id())
            .ok_or_else(|| StorageError::TxnState(format!("{what} without an open transaction")))
    }

    /// Commit the calling thread's transaction according to the
    /// configured [`Durability`].
    pub fn commit(&self) -> Result<()> {
        let txn = self.take_thread_txn("commit")?;
        let structs: Vec<(StructId, StructRoot)> = self
            .lock_txn_structs()
            .remove(&txn)
            .map(|m| m.into_iter().collect())
            .unwrap_or_default();
        match self.durability {
            Durability::Relaxed => {
                self.clear_allocs(txn);
                self.pool.release_owned(txn, structs);
                Ok(())
            }
            Durability::Commit => {
                let staged = self.pool.collect_owned(txn);
                let roots = self.durable_roots(&structs);
                if staged.is_empty() && roots.is_none() {
                    // Read-only (or no root log): nothing to make durable.
                    self.clear_allocs(txn);
                    self.pool.release_owned(txn, structs);
                    return Ok(());
                }
                // One durable batch at a time: latched mutation runs
                // concurrently, only the reserve→finalize protocol is
                // exclusive.
                let _serial = self.commit_lock.lock().unwrap_or_else(|e| e.into_inner());
                let result = self.pool.with_store(|store| -> Result<()> {
                    if let Some(r) = roots.as_ref() {
                        // The root log is append-only between
                        // checkpoints: when this record would overflow
                        // the tail, fold the store into a fresh
                        // checkpoint first — *before* the batch opens,
                        // so the batch itself never straddles one.
                        if store.struct_root_log_space() < r.encoded_len() as u64 {
                            store.checkpoint()?;
                        }
                    }
                    store.txn_reserve(staged.len() as u64)?;
                    for (pid, data) in &staged {
                        store.txn_stage(*pid, data, txn)?;
                    }
                    if store.num_shards() > 1 {
                        // Multi-shard: every shard's differentials must
                        // be durable before any commit record is.
                        store.txn_flush_stage()?;
                    }
                    if let Some(r) = roots.as_ref() {
                        // After the stage flush, before the commit
                        // record: the record is on flash either way, and
                        // it becomes authoritative exactly when the
                        // commit record it names does.
                        store.txn_stage_struct_roots(r, txn)?;
                    }
                    store.txn_append_commit(txn)?;
                    store.txn_finalize()?;
                    Ok(())
                });
                match result {
                    Ok(()) => {
                        self.clear_allocs(txn);
                        self.pool.commit_release(txn, structs);
                        Ok(())
                    }
                    Err(e) => {
                        // The commit record never became durable: roll
                        // the frames back to their pre-images (dirty, so
                        // a later write-back also supersedes whatever
                        // tagged staging reached the store) and report
                        // the transaction failed (`structs` is dropped
                        // unpublished).
                        let _ = self.pool.rollback(txn);
                        self.rollback_allocs(txn);
                        self.abort_epoch.fetch_add(1, Ordering::SeqCst);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Abort the calling thread's transaction: every touched page
    /// returns to its pre-image (the base page plus the last committed
    /// differential, as cached at first touch), and every structural
    /// change the transaction made — B+-tree splits, heap-file growth —
    /// is undone with them: the pending root publications are discarded,
    /// so registered handles resolve the last *committed* root/page list
    /// again (physiological structural undo: the pages hold the restored
    /// bytes, the root log holds the restored shape).
    ///
    /// Pages the transaction allocated through
    /// [`Database::alloc_page_structured`] return to the allocator's free
    /// list: their only references — page bytes and pending root
    /// publications — are undone with the rollback, so reissuing them
    /// cannot alias two structures onto one page. Raw
    /// [`Database::alloc_page`] pids are *not* reissued (the caller may
    /// hold them outside any registered structure); they are stranded and
    /// counted in the [`BufferStats::leaked_pids`] gauge, so the once
    /// silent leak is at least observable.
    pub fn abort(&self) -> Result<()> {
        let txn = self.take_thread_txn("abort")?;
        self.lock_txn_structs().remove(&txn);
        self.abort_epoch.fetch_add(1, Ordering::SeqCst);
        let r = self.pool.rollback(txn);
        self.rollback_allocs(txn);
        r
    }

    /// Forget a committed transaction's allocation log.
    fn clear_allocs(&self, txn: TxnId) {
        self.lock_alloc().txn_allocs.remove(&txn);
    }

    /// Undo a transaction's page allocations on a rollback path:
    /// structured pids go back to the free list, raw pids are stranded
    /// but counted.
    fn rollback_allocs(&self, txn: TxnId) {
        let mut alloc = self.lock_alloc();
        for (pid, structured) in alloc.txn_allocs.remove(&txn).unwrap_or_default() {
            if structured {
                alloc.free_pids.push(pid);
            } else {
                alloc.leaked += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // MVCC read views
    // ------------------------------------------------------------------

    /// Open a snapshot of the whole page space at the current commit
    /// clock: commits after this point — including any open
    /// transaction's eventual commit — are invisible through the view.
    pub fn begin_read(&self) -> ReadView {
        self.pool.begin_read()
    }

    /// Release a view, letting the pool prune versions no reader needs.
    pub fn release_read(&self, view: ReadView) {
        self.pool.release_read(view)
    }

    /// Open a leak-proof snapshot: the returned guard releases the view
    /// when dropped, so a `?` mid-scan (e.g. on
    /// [`StorageError::SnapshotTooOld`]) or a panic can never leak the
    /// view and freeze the version-retention floor.
    pub fn read_view(&self) -> ReadGuard<'_, Database> {
        ReadGuard::new(self)
    }

    /// Run `f` under a freshly opened view, releasing it on every exit
    /// path — the recommended shape for whole-scan read-only
    /// transactions.
    pub fn with_read_view<R>(&self, f: impl FnOnce(&ReadView) -> R) -> R {
        let guard = self.read_view();
        f(guard.view())
    }

    /// Snapshot read of one page as of `view`.
    pub fn with_page_at<R>(
        &self,
        view: &ReadView,
        pid: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.pool.with_page_at(view, pid, f)
    }

    /// A [`PageRead`] adapter over `view`: hand it to the read entry
    /// points (`BTree::get_at`, `HeapFile::get_at`, ...) to run a whole
    /// scan against one frozen snapshot.
    pub fn snapshot<'a>(&'a self, view: &'a ReadView) -> DbSnapshot<'a> {
        DbSnapshot { db: self, view }
    }

    // ------------------------------------------------------------------
    // Structure-root log: registered structures (B+-trees, heap files)
    // version their root state through the pool's commit clock, so stale
    // handles and snapshot scans always resolve the right shape.
    // ------------------------------------------------------------------

    /// Register a structure at its creation-time state. A view opened
    /// *before* the structure was created is not snapshot-safe for it
    /// (its pages read as their pre-creation bytes).
    pub fn register_struct(&self, root: StructRoot) -> StructId {
        self.pool.register_struct(root)
    }

    /// The structure's state as the calling thread sees it: its open
    /// transaction's pending change if any, else the last committed
    /// state.
    pub fn struct_current(&self, id: StructId) -> Option<StructRoot> {
        if let Some(txn) = self.current_txn() {
            if let Some(root) = self.lock_txn_structs().get(&txn).and_then(|m| m.get(&id)) {
                return Some(root.clone());
            }
        }
        self.pool.struct_current(id)
    }

    /// [`Database::struct_current`] gated on a generation counter: `None`
    /// when the committed state has not changed since generation `seen`
    /// (and the calling thread's transaction, if any, has no pending
    /// change for `id`), sparing mirroring handles the clone on their hot
    /// path.
    pub fn struct_current_if_newer(&self, id: StructId, seen: u64) -> Option<(u64, StructRoot)> {
        if let Some(txn) = self.current_txn() {
            if self.lock_txn_structs().get(&txn).is_some_and(|m| m.contains_key(&id)) {
                // A pending change exists — and only the handle that made
                // it sees it, so the caller's mirror already reflects it;
                // the commit will bump the committed generation and
                // trigger a re-fetch, an abort bumps the rollback epoch
                // which resets the caller's generation.
                return None;
            }
        }
        self.pool.struct_current_if_newer(id, seen)
    }

    /// Record a structural change. Inside the calling thread's
    /// transaction it stays pending (visible to this thread, published at
    /// commit, discarded on abort); outside one it auto-commits onto the
    /// root log immediately.
    pub fn publish_struct(&self, id: StructId, root: StructRoot) {
        match self.current_txn() {
            Some(txn) => {
                self.lock_txn_structs().entry(txn).or_default().insert(id, root);
            }
            None => self.pool.publish_struct(id, root),
        }
    }

    /// Drop a structure's registration (handle teardown: `BTree::detach`
    /// / `HeapFile::detach` call this so dead handles do not strand
    /// registry entries).
    pub fn deregister_struct(&self, id: StructId) {
        self.pool.deregister_struct(id)
    }

    /// Rollbacks (aborts and failed durable commits) so far — heap
    /// handles watch this to invalidate free-space estimates a rollback
    /// made stale.
    pub fn abort_epoch(&self) -> u64 {
        self.abort_epoch.load(Ordering::SeqCst)
    }

    /// Structure-root pre-states currently retained (diagnostics/tests).
    pub fn retained_struct_versions(&self) -> usize {
        self.pool.retained_struct_versions()
    }

    /// Retained committed page versions (diagnostics/tests).
    pub fn retained_versions(&self) -> usize {
        self.pool.retained_versions()
    }

    /// Build the durable root-log record a committing transaction
    /// stages: every registered structure's committed state, overlaid
    /// with the transaction's own pending structural changes, plus the
    /// allocation frontier. `None` when the transaction changed no
    /// structure (the previously staged snapshot stays authoritative) or
    /// the backing store has no root log.
    fn durable_roots(&self, structs: &[(StructId, StructRoot)]) -> Option<StructRootsSnapshot> {
        if structs.is_empty() {
            return None;
        }
        if self.pool.with_store(|s| s.struct_root_log_space()) == u64::MAX {
            return None;
        }
        let mut roots = self.pool.current_roots();
        for (id, root) in structs {
            match roots.binary_search_by_key(id, |(i, _)| *i) {
                Ok(at) => roots[at].1 = root.clone(),
                Err(at) => roots.insert(at, (*id, root.clone())),
            }
        }
        let next_pid = self.lock_alloc().next_pid;
        let entries = roots
            .into_iter()
            .map(|(id, root)| match root {
                StructRoot::BTree { root } => {
                    StructRootEntry { id, kind: StructRootEntry::KIND_BTREE, pids: vec![root] }
                }
                StructRoot::Heap { pages } => {
                    StructRootEntry { id, kind: StructRootEntry::KIND_HEAP, pids: pages }
                }
            })
            .collect();
        Some(StructRootsSnapshot { next_pid, entries })
    }

    /// Rebuild every structure persisted in the store's checkpointed
    /// root log, in registration order (ascending stored id), each
    /// re-registered in this database's structure-root registry. This is
    /// the self-contained recovery path: no externally remembered root
    /// pids, no `attach`.
    pub fn recover_structures(&self) -> Vec<RecoveredStructure> {
        let Some(snap) = self.pool.with_store(|s| s.struct_roots()) else {
            return Vec::new();
        };
        let mut entries = snap.entries;
        entries.sort_unstable_by_key(|e| e.id);
        entries
            .into_iter()
            .map(|e| match e.kind {
                StructRootEntry::KIND_HEAP => {
                    RecoveredStructure::Heap(HeapFile::attach(self, e.pids))
                }
                _ => RecoveredStructure::BTree(BTree::attach(
                    self,
                    e.pids.first().copied().unwrap_or(0),
                )),
            })
            .collect()
    }

    /// Fold the store's durable state — including the structure-root
    /// log — into a fresh checkpoint (PDL §4.5's fuzzy checkpoint; a
    /// no-op on methods without one).
    pub fn checkpoint(&self) -> Result<()> {
        Ok(self.pool.with_store(|s| s.checkpoint())?)
    }

    /// Allocate the next logical page for a caller that may keep the pid
    /// anywhere — including outside every registered structure. If the
    /// calling thread's transaction rolls back, such a pid cannot be
    /// reissued safely and is stranded (see [`BufferStats::leaked_pids`]);
    /// allocations owned by a registered structure should use
    /// [`Database::alloc_page_structured`] instead.
    pub fn alloc_page(&self) -> Result<u64> {
        self.alloc_inner(false)
    }

    /// Allocate a logical page whose only references will be page bytes
    /// and structure-root publications — both undone by a rollback — so
    /// an abort (or failed durable commit) can safely return the pid to
    /// the free list for reissue. B+-tree splits and heap-file growth
    /// allocate here.
    pub fn alloc_page_structured(&self) -> Result<u64> {
        self.alloc_inner(true)
    }

    fn alloc_inner(&self, structured: bool) -> Result<u64> {
        let txn = self.current_txn();
        let mut alloc = self.lock_alloc();
        let pid = match alloc.free_pids.pop() {
            Some(pid) => pid,
            None => {
                if alloc.next_pid >= self.max_pages {
                    return Err(StorageError::OutOfPages);
                }
                let pid = alloc.next_pid;
                alloc.next_pid += 1;
                pid
            }
        };
        if let Some(txn) = txn {
            alloc.txn_allocs.entry(txn).or_default().push((pid, structured));
        }
        Ok(pid)
    }

    /// Pages allocated so far (the "database size" of Experiment 7): the
    /// allocation frontier, counting stranded and free-listed pids too.
    pub fn allocated_pages(&self) -> u64 {
        self.lock_alloc().next_pid
    }

    /// Raw-allocation pids stranded by rollbacks so far (the same value
    /// the [`BufferStats::leaked_pids`] gauge reports).
    pub fn leaked_pages(&self) -> u64 {
        self.lock_alloc().leaked
    }

    pub fn page_size(&self) -> usize {
        self.pool.page_size()
    }

    /// Read access to the current image of a page (`&self`: concurrent
    /// readers are expressible in the type system).
    pub fn with_page<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.pool.with_page(pid, f)
    }

    /// Mutable page access; tracked against the calling thread's open
    /// transaction, if any. A page dirtied by *another* uncommitted
    /// transaction fails with [`StorageError::TxnConflict`].
    pub fn with_page_mut<R>(&self, pid: u64, f: impl FnOnce(&mut PageMut) -> R) -> Result<R> {
        match self.current_txn() {
            Some(txn) => self.pool.with_page_mut_txn(pid, txn, f),
            None => self.pool.with_page_mut(pid, f),
        }
    }

    /// Structural-descent read: like [`Database::with_page`], but fails
    /// with [`StorageError::TxnConflict`] when the page is dirty and
    /// owned by *another* uncommitted transaction. A structural writer
    /// must never navigate a shape another transaction changed but has
    /// not committed — the change may still be rolled back, and
    /// descending its half-published geometry could route an insert into
    /// the wrong subtree. Callers hold the page's latch, so the
    /// check-then-read is not racy against other structural writers.
    pub(crate) fn with_page_struct<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let owner = self.pool.dirty_owner(pid);
        if owner != pdl_core::NO_TXN && Some(owner) != self.current_txn() {
            return Err(StorageError::TxnConflict { pid });
        }
        self.with_page(pid, f)
    }

    /// Acquire the structural-writer latch on `pid` (see
    /// [`BufferPool::latch_page`]): blocks while another thread holds it,
    /// releases on drop.
    pub fn latch_page(&self, pid: u64) -> PageLatch<'_> {
        self.pool.latch_page(pid)
    }

    /// Host-clock µs for a structural span's start (`None` with
    /// observability off; pass it straight to [`Database::struct_span`]).
    pub fn struct_span_start(&self) -> Option<u64> {
        self.pool.obs_now_us()
    }

    /// Record a structural-operation span (`split`, `root-publish`, ...)
    /// attributed to `pid`, the calling thread's transaction and the
    /// pid's stripe. No-op when `start_us` is `None`.
    pub fn struct_span(&self, name: &'static str, pid: u64, start_us: Option<u64>) {
        self.pool.struct_span(name, pid, self.current_txn().unwrap_or(0), start_us)
    }

    pub fn buffer_stats(&self) -> BufferStats {
        let mut stats = self.pool.stats();
        stats.leaked_pids = self.lock_alloc().leaked;
        stats
    }

    /// Flash statistics of the underlying chip.
    pub fn io_stats(&self) -> FlashStats {
        self.pool.with_store(|s| s.stats())
    }

    /// Whether observability recording is on (set by `StoreOptions::obs`).
    pub fn obs_enabled(&self) -> bool {
        self.pool.with_store(|s| s.options().obs)
    }

    /// Snapshot of the underlying chip's recorder: latency histograms
    /// per op class × context, plus the span ring.
    pub fn obs_snapshot(&self) -> pdl_obs::RecorderSnapshot {
        self.pool.with_store(|s| s.chip().recorder().snapshot())
    }

    /// Snapshot of the pool-side recorder: the `latch_wait` contention
    /// histogram plus structural-operation spans.
    pub fn pool_obs_snapshot(&self) -> pdl_obs::RecorderSnapshot {
        self.pool.pool_obs_snapshot()
    }

    /// Chrome trace-event JSON of the chip's simulated-clock track.
    /// Deterministic for a fixed seed; the host-clock structural track
    /// is exported separately via [`Database::obs_struct_trace_json`].
    pub fn obs_trace_json(&self) -> String {
        let chip = self.obs_snapshot();
        let tracks = vec![pdl_obs::TraceTrack {
            name: "chip".to_string(),
            spans: chip.spans,
            dropped_spans: chip.dropped_spans,
        }];
        pdl_obs::chrome_trace(&tracks)
    }

    /// Chrome trace-event JSON of the pool's host-clock structural track
    /// (split / root-publish / heap-grow). Concurrent writers show as
    /// parallel lanes; timestamps are wall-clock, so this export is not
    /// byte-deterministic across runs.
    pub fn obs_struct_trace_json(&self) -> String {
        let pool = self.pool.pool_obs_snapshot();
        let tracks = vec![pdl_obs::TraceTrack {
            name: "struct".to_string(),
            spans: pool.spans,
            dropped_spans: pool.dropped_spans,
        }];
        pdl_obs::chrome_trace(&tracks)
    }

    pub fn reset_io_stats(&self) {
        self.pool.with_store(|s| s.reset_stats());
    }

    /// Method label of the underlying page store.
    pub fn method_name(&self) -> String {
        self.pool.with_store(|s| s.name())
    }

    /// Run `f` against the underlying page store (exclusive access).
    pub fn with_store<R>(&self, f: impl FnOnce(&mut dyn PageStore) -> R) -> R {
        self.pool.with_store(f)
    }

    /// Write-through everything (durability point).
    pub fn flush(&self) -> Result<()> {
        self.pool.flush_all()
    }

    /// Tear down, flushing, and hand back the page store.
    pub fn into_store(self) -> Result<Box<dyn PageStore>> {
        self.pool.into_store()
    }

    /// Tear down *without* flushing (crash simulation).
    pub fn into_store_without_flush(self) -> Box<dyn PageStore> {
        self.pool.into_store_without_flush()
    }
}

/// Current-state reads: what the read path sees without a view.
impl PageRead for Database {
    fn page_size(&self) -> usize {
        Database::page_size(self)
    }

    fn with_page<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        Database::with_page(self, pid, f)
    }

    fn prefetch(&self, pid: u64) {
        self.pool.prefetch(pid);
    }

    fn struct_root(&self, id: StructId) -> Option<StructRoot> {
        // Pending-aware: the open transaction reads its own structural
        // writes, matching the in-place frame mutations it also sees.
        self.struct_current(id)
    }
}

impl ViewRegistry for Database {
    fn begin_read(&self) -> ReadView {
        Database::begin_read(self)
    }

    fn release_read(&self, view: ReadView) {
        Database::release_read(self, view)
    }
}

/// A [`ReadView`] bound to its database: every read through it resolves
/// at the view's snapshot timestamp.
pub struct DbSnapshot<'a> {
    db: &'a Database,
    view: &'a ReadView,
}

impl DbSnapshot<'_> {
    pub fn read_ts(&self) -> u64 {
        self.view.read_ts()
    }
}

impl PageRead for DbSnapshot<'_> {
    fn page_size(&self) -> usize {
        self.db.page_size()
    }

    fn with_page<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.db.with_page_at(self.view, pid, f)
    }

    fn prefetch(&self, pid: u64) {
        self.db.pool.prefetch(pid);
    }

    fn struct_root(&self, id: StructId) -> Option<StructRoot> {
        // As of the view: a root moved by a later split resolves to its
        // pre-split pre-state, never to any open transaction's pending
        // changes.
        self.db.pool.resolve_struct(id, self.view.read_ts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::{build_store, MethodKind, StoreOptions};
    use pdl_flash::{FlashChip, FlashConfig};

    fn db() -> Database {
        let chip = FlashChip::new(FlashConfig::tiny());
        let store = build_store(chip, MethodKind::Opu, StoreOptions::new(16)).unwrap();
        Database::new(store, 4)
    }

    #[test]
    fn record_id_packs() {
        let rid = RecordId::new(123456, 789);
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
    }

    #[test]
    fn record_id_round_trips_at_the_encoding_boundary() {
        let rid = RecordId::new((1 << 48) - 1, u16::MAX);
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "48-bit encoding range"))]
    fn record_id_rejects_oversized_pids_in_debug() {
        // In release builds the assertion compiles out; the encoding is
        // then silently lossy, which is exactly what the debug assertion
        // is there to catch during development.
        let v = RecordId::new(1 << 48, 0).to_u64();
        if cfg!(debug_assertions) {
            unreachable!("debug_assert must have fired");
        }
        assert_eq!(RecordId::from_u64(v).pid, 0, "demonstrates the silent corruption");
    }

    #[test]
    fn database_accepts_a_sharded_store() {
        let store = pdl_core::ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            4,
            MethodKind::Pdl { max_diff_size: 128 },
            StoreOptions::new(16),
        )
        .unwrap();
        let d = Database::new(Box::new(store), 4);
        for _ in 0..16 {
            let pid = d.alloc_page().unwrap();
            d.with_page_mut(pid, |p| p.write(0, &[pid as u8 + 1, 0xAB])).unwrap();
        }
        d.flush().unwrap();
        for pid in 0..16u64 {
            let b = d.with_page(pid, |p| p[0]).unwrap();
            assert_eq!(b, pid as u8 + 1);
        }
        // Aggregate I/O stats span all four shard chips.
        assert!(d.io_stats().total().writes >= 16);
        assert!(d.method_name().contains("Sharded x4"));
    }

    #[test]
    fn allocates_until_capacity() {
        let d = db();
        for expect in 0..16u64 {
            assert_eq!(d.alloc_page().unwrap(), expect);
        }
        assert!(matches!(d.alloc_page(), Err(StorageError::OutOfPages)));
        assert_eq!(d.allocated_pages(), 16);
    }

    #[test]
    fn page_round_trip_through_pool() {
        let d = db();
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, b"data")).unwrap();
        d.flush().unwrap();
        let first = d.with_page(pid, |p| p[0]).unwrap();
        assert_eq!(first, b'd');
        assert!(d.io_stats().total().writes > 0);
    }

    #[test]
    fn view_does_not_see_the_open_transactions_writes() {
        let d = db();
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[1; 4])).unwrap();
        // A view opened before the transaction must never observe its
        // writes — neither while it is open nor after it commits.
        let view = d.begin_read();
        d.begin().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[2; 4])).unwrap();
        assert_eq!(d.with_page_at(&view, pid, |p| p[0]).unwrap(), 1, "in-flight writes hidden");
        d.commit().unwrap();
        assert_eq!(d.with_page_at(&view, pid, |p| p[0]).unwrap(), 1, "commit after open hidden");
        assert_eq!(d.with_page(pid, |p| p[0]).unwrap(), 2, "current reads see the commit");
        d.release_read(view);
    }

    #[test]
    fn view_after_abort_keeps_reading_the_pre_image() {
        let d = db();
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[5; 4])).unwrap();
        let view = d.begin_read();
        d.begin().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[6; 4])).unwrap();
        d.abort().unwrap();
        assert_eq!(d.with_page_at(&view, pid, |p| p[0]).unwrap(), 5);
        assert_eq!(d.with_page(pid, |p| p[0]).unwrap(), 5, "abort restored the pre-image");
        d.release_read(view);
    }

    #[test]
    fn snapshot_adapter_reads_through_page_read() {
        use crate::view::PageRead as _;
        let d = db();
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[9; 4])).unwrap();
        let view = d.begin_read();
        d.with_page_mut(pid, |p| p.write(0, &[10; 4])).unwrap();
        let snap = d.snapshot(&view);
        assert_eq!(snap.with_page(pid, |p| p[0]).unwrap(), 9);
        assert_eq!(snap.page_size(), d.page_size());
        let _ = snap;
        d.release_read(view);
    }

    #[test]
    fn transactions_are_thread_keyed() {
        let d = db();
        let a = d.alloc_page().unwrap();
        let b = d.alloc_page().unwrap();
        d.begin().unwrap();
        d.with_page_mut(a, |p| p.write(0, &[1; 4])).unwrap();
        std::thread::scope(|scope| {
            let d = &d;
            scope
                .spawn(move || {
                    // Another thread opens its own transaction...
                    d.begin().unwrap();
                    d.with_page_mut(b, |p| p.write(0, &[2; 4])).unwrap();
                    // ...but touching the first thread's dirty page
                    // conflicts instead of silently sharing ownership.
                    let err = d.with_page_mut(a, |p| p.write(0, &[3; 4])).unwrap_err();
                    assert!(matches!(err, StorageError::TxnConflict { .. }), "got {err:?}");
                    d.commit().unwrap();
                })
                .join()
                .unwrap();
        });
        d.commit().unwrap();
        assert_eq!(d.with_page(a, |p| p[0]).unwrap(), 1);
        assert_eq!(d.with_page(b, |p| p[0]).unwrap(), 2);
    }

    #[test]
    fn page_latches_serialize_holders() {
        let d = db();
        let l = d.latch_page(7);
        assert_eq!(l.pid(), 7);
        // A second latch on a *different* page does not block.
        let other = d.latch_page(8);
        drop(other);
        // A blocked acquirer proceeds once the holder drops.
        std::thread::scope(|scope| {
            let d = &d;
            let t = scope.spawn(move || {
                let _l = d.latch_page(7);
                true
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(!t.is_finished(), "latch 7 is held: the second acquirer must wait");
            drop(l);
            assert!(t.join().unwrap());
        });
    }
}
