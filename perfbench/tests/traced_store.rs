//! The tracing wrapper must not change what the store does: a wrapped and
//! a bare store driven by the same seeded operations end with identical
//! flash statistics, method counters and page bytes.

use pdl_core::{build_store, MethodKind, PageStore, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig, FlashStats};
use pdl_storage::{BTree, Database, Durability, KeyBuf};
use pdl_workload::UpdateGen;
use perfbench::trace::Tracer;
use perfbench::traced_store::{SharedTracer, TracedStore};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const PAGES: u64 = 160;

fn options() -> StoreOptions {
    StoreOptions::new(PAGES).with_checkpoint_blocks(2).with_snapshot_version_cap(1)
}

fn bare() -> Box<dyn PageStore> {
    let chip = FlashChip::new(FlashConfig::scaled(24));
    build_store(chip, MethodKind::Pdl { max_diff_size: 256 }, options()).unwrap()
}

fn tracer() -> SharedTracer {
    let mut t = Tracer::new(Instant::now());
    t.set_recording(true);
    Arc::new(Mutex::new(t))
}

type Outcome = (FlashStats, Vec<(&'static str, u64)>, Vec<Vec<u8>>);

/// Read every page back, then hand over the final accounting.
fn outcome(mut store: Box<dyn PageStore>) -> Outcome {
    let mut pages = Vec::new();
    for pid in 0..PAGES {
        let mut page = vec![0u8; store.logical_page_size()];
        store.read_page(pid, &mut page).unwrap();
        pages.push(page);
    }
    (store.stats(), store.counters(), pages)
}

/// The paper's update operation straight into the store, with GC,
/// flushes and a checkpoint.
fn direct(mut store: Box<dyn PageStore>) -> Outcome {
    let size = store.logical_page_size();
    let mut gen = UpdateGen::new(7, size, 2.0);
    let mut page = vec![0u8; size];
    for pid in 0..PAGES {
        UpdateGen::fill_initial(pid, &mut page);
        store.write_page(pid, &page).unwrap();
    }
    for i in 0..4_000u64 {
        let pid = gen.pick_page(PAGES);
        store.read_page(pid, &mut page).unwrap();
        let changes = gen.apply(pid, &mut page);
        store.apply_update(pid, &page, &changes).unwrap();
        store.evict_page(pid, &page).unwrap();
        if i % 1_000 == 999 {
            store.flush().unwrap();
            store.checkpoint().unwrap();
        }
    }
    store.flush().unwrap();
    outcome(store)
}

/// A durable-commit database: B+-tree growth, commits, an abort, and a
/// long read view that forces cold versions to spill to flash.
fn through_database(store: Box<dyn PageStore>) -> Outcome {
    let db = Database::new(store, 8).with_durability(Durability::Commit);
    let tree = BTree::create(&db).unwrap();
    let view = db.begin_read();
    for batch in 0..12u64 {
        db.begin().unwrap();
        for i in 0..40u64 {
            let k = batch * 40 + i;
            tree.insert(&db, &KeyBuf::new().push_u64(k).finish(), k).unwrap();
        }
        if batch % 5 == 4 {
            db.abort().unwrap();
        } else {
            db.commit().unwrap();
        }
    }
    for pid in 0..4 {
        db.with_page_at(&view, pid, |p| p.len()).unwrap();
    }
    db.release_read(view);
    assert!(db.buffer_stats().spilled_versions > 0, "the view must force spills");
    db.flush().unwrap();
    outcome(db.into_store().unwrap())
}

#[test]
fn wrapper_preserves_direct_store_behaviour() {
    let t = tracer();
    let wrapped = direct(Box::new(TracedStore::new(bare(), t.clone())));
    assert_eq!(wrapped, direct(bare()));
    let t = t.lock().unwrap();
    assert!(t.agg("pdl.evict_page").count >= 4_000);
    assert!(t.agg("pdl.checkpoint").count >= 4);
}

#[test]
fn wrapper_preserves_the_transactional_path() {
    let t = tracer();
    let inner = bare();
    assert!(inner.txn_supported() && inner.spill_supported());
    let wrapped = TracedStore::new(inner, t.clone());
    assert!(wrapped.txn_supported() && wrapped.spill_supported(), "capability flags forwarded");
    let w = through_database(Box::new(wrapped));
    let b = through_database(bare());
    assert_eq!(w, b);
    let commits = w.1.iter().find(|(n, _)| *n == "txn_commits").map(|(_, v)| *v);
    assert!(commits.unwrap_or(0) > 0, "the database must commit through the txn path");
    let t = t.lock().unwrap();
    for name in ["pdl.txn_stage", "pdl.txn_append_commit", "pdl.spill_page", "pdl.read_spill"] {
        assert!(t.agg(name).count > 0, "{name} was never called");
    }
    // Every flash op the wrapper saw belongs to a recorded store span.
    let attributed = t.aggs().values().fold(FlashStats::default(), |acc, a| acc + a.flash);
    assert_eq!(attributed.total(), w.0.total());
}
