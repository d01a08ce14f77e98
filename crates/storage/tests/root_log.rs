//! The structure-root log is page-differential: each durable commit
//! programs only the root entries it changed, and recovery rebuilds the
//! roots by applying every committed record, in log order, on top of the
//! last checkpoint's snapshot.
//!
//! A model test drives random structural histories — heap appends,
//! shrinks and replacements, B+-tree root moves, structures added and
//! removed, checkpoints in between — through a durable-commit
//! [`Database`], crashes at every flash operation of the run, and
//! requires the recovered `struct_roots()` to equal the last committed
//! snapshot (or the in-flight one, when its commit record landed). A pin
//! test checks that a record stays applicable after every page its
//! transaction wrote has been superseded.

use pdl_core::{
    build_store, is_power_loss, recover_store, MethodKind, StoreOptions, StructRootEntry,
    StructRootsSnapshot,
};
use pdl_flash::{FlashChip, FlashConfig};
use pdl_storage::{Database, Durability, StorageError, StructId, StructRoot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 256 };
const PAGES: u64 = 256;
const COMMITS: usize = 24;

fn options() -> StoreOptions {
    StoreOptions::new(PAGES).with_checkpoint_blocks(2)
}

fn fresh_db() -> Database {
    let store = build_store(FlashChip::new(FlashConfig::scaled(16)), KIND, options()).unwrap();
    Database::new(store, 32).with_durability(Durability::Commit)
}

/// The durable form of a set of registered structures.
fn snapshot(live: &BTreeMap<StructId, StructRoot>, next_pid: u64) -> StructRootsSnapshot {
    let entries = live
        .iter()
        .map(|(&id, root)| match root {
            StructRoot::BTree { root } => {
                StructRootEntry { id, kind: StructRootEntry::KIND_BTREE, pids: vec![*root] }
            }
            StructRoot::Heap { pages } => {
                StructRootEntry { id, kind: StructRootEntry::KIND_HEAP, pids: pages.clone() }
            }
        })
        .collect();
    StructRootsSnapshot { next_pid, entries }
}

/// Where a run stopped.
struct Outcome {
    chip: FlashChip,
    /// The snapshot of the last commit that returned `Ok`.
    committed: StructRootsSnapshot,
    /// The snapshot of the commit the crash interrupted, if any: its
    /// commit record may or may not have reached flash.
    in_flight: Option<StructRootsSnapshot>,
    /// Whether the armed fault fired (the run ended early).
    crashed: bool,
    /// Structure ids in registration order (ids are unique process-wide,
    /// so runs compare through these positions).
    ids: Vec<StructId>,
}

impl Outcome {
    /// `snap` with every structure id replaced by its registration index.
    fn by_position(&self, snap: &StructRootsSnapshot) -> StructRootsSnapshot {
        let mut snap = snap.clone();
        for e in &mut snap.entries {
            e.id = self.ids.iter().position(|id| *id == e.id).expect("registered id") as u64;
        }
        snap
    }
}

/// The crash ends the run: every error must be the injected power loss.
fn assert_power_loss(e: &StorageError) {
    assert!(matches!(e, StorageError::Store(c) if is_power_loss(c)), "unexpected error: {e}");
}

/// One structural change inside the open transaction.
fn change(
    db: &Database,
    rng: &mut StdRng,
    live: &mut BTreeMap<StructId, StructRoot>,
) -> Result<(), StorageError> {
    let ids: Vec<StructId> = live.keys().copied().collect();
    let id = ids[rng.gen_range(0..ids.len())];
    let root = match live[&id].clone() {
        StructRoot::BTree { .. } => StructRoot::BTree { root: db.alloc_page_structured()? },
        StructRoot::Heap { mut pages } => {
            match rng.gen_range(0..4u32) {
                // Grow (the common case: a full heap page).
                0 | 1 => {
                    for _ in 0..rng.gen_range(1..=3) {
                        pages.push(db.alloc_page_structured()?);
                    }
                }
                // Shrink to a prefix.
                2 => pages.truncate(rng.gen_range(0..=pages.len())),
                // Replace the tail after a random prefix.
                _ => {
                    pages.truncate(rng.gen_range(0..=pages.len()));
                    pages.push(db.alloc_page_structured()?);
                }
            }
            StructRoot::Heap { pages }
        }
    };
    db.publish_struct(id, root.clone());
    live.insert(id, root);
    Ok(())
}

/// One durable commit: a data-page write plus one to three structural
/// changes.
fn commit_one(
    db: &Database,
    rng: &mut StdRng,
    live: &mut BTreeMap<StructId, StructRoot>,
    data: u64,
    i: usize,
) -> Result<(), StorageError> {
    db.with_page_mut(data, |p| p.write(0, &(i as u64).to_le_bytes()))?;
    for _ in 0..rng.gen_range(1..=3) {
        change(db, rng, live)?;
    }
    Ok(())
}

/// Run `COMMITS` random structural commits from `seed`. With `budget`,
/// the chip loses power after that many destructive flash operations.
fn run(seed: u64, budget: Option<u64>) -> Outcome {
    let db = fresh_db();
    let mut rng = StdRng::seed_from_u64(seed);
    let data = db.alloc_page().unwrap();
    if let Some(b) = budget {
        db.with_store(|s| s.chip_mut().arm_fault(b));
    }
    let mut live: BTreeMap<StructId, StructRoot> = BTreeMap::new();
    let mut committed = StructRootsSnapshot::default();
    let mut in_flight = None;
    let mut crashed = false;
    let mut ids = Vec::new();
    let mut register = |root: StructRoot, live: &mut BTreeMap<StructId, StructRoot>| {
        let id = db.register_struct(root.clone());
        ids.push(id);
        live.insert(id, root);
    };
    for i in 0..COMMITS {
        // Between commits: add or remove a structure, or checkpoint.
        match rng.gen_range(0..8u32) {
            0 | 1 if live.len() < 6 => {
                let root = if rng.gen_bool(0.5) {
                    StructRoot::Heap { pages: Vec::new() }
                } else {
                    StructRoot::BTree { root: data }
                };
                register(root, &mut live);
            }
            2 if live.len() > 1 => {
                let ids: Vec<StructId> = live.keys().copied().collect();
                let id = ids[rng.gen_range(0..ids.len())];
                db.deregister_struct(id);
                live.remove(&id);
            }
            3 => {
                if let Err(e) = db.checkpoint() {
                    assert_power_loss(&e);
                    crashed = true;
                    break;
                }
            }
            _ => {}
        }
        if live.is_empty() {
            register(StructRoot::Heap { pages: Vec::new() }, &mut live);
        }
        db.begin().unwrap();
        if let Err(e) = commit_one(&db, &mut rng, &mut live, data, i) {
            assert_power_loss(&e);
            let _ = db.abort();
            crashed = true;
            break;
        }
        let expect = snapshot(&live, db.allocated_pages());
        match db.commit() {
            Ok(()) => {
                let now = db.with_store(|s| s.struct_roots()).expect("root log");
                assert_eq!(
                    now, expect,
                    "seed {seed}: commit {i} left the store's roots off the model"
                );
                committed = expect;
            }
            Err(e) => {
                assert_power_loss(&e);
                in_flight = Some(expect);
                crashed = true;
                break;
            }
        }
    }
    let mut chip = db.into_store_without_flush().into_chips().pop().unwrap();
    chip.disarm_fault();
    Outcome { chip, committed, in_flight, crashed, ids }
}

/// Recover a crashed chip and return the resolved roots, checking that a
/// second crash-and-recover resolves the same.
fn recovered_roots(chip: FlashChip) -> StructRootsSnapshot {
    let store = recover_store(chip, KIND, options()).expect("recover");
    let roots = store.struct_roots().expect("root log");
    let again = recover_store(store.into_chips().pop().unwrap(), KIND, options()).expect("again");
    assert_eq!(again.struct_roots().expect("root log"), roots, "recovery is not idempotent");
    roots
}

#[test]
fn crash_at_every_flash_op_recovers_a_committed_root_snapshot() {
    for seed in [1u64, 2, 3] {
        let clean = run(seed, None);
        let full = clean.by_position(&clean.committed);
        assert_eq!(recovered_roots(clean.chip.clone()), clean.committed, "seed {seed}: clean run");
        let mut budget = 0u64;
        loop {
            let out = run(seed, Some(budget));
            let got = recovered_roots(out.chip.clone());
            let ok = got == out.committed || out.in_flight.as_ref() == Some(&got);
            assert!(
                ok,
                "seed {seed}, budget {budget}: recovered {got:?}, committed {:?}, in flight {:?}",
                out.committed, out.in_flight
            );
            if !out.crashed {
                let end = out.by_position(&out.committed);
                assert_eq!(end, full, "seed {seed}: an uncrashed run diverged");
                break;
            }
            budget += 1;
        }
        assert!(budget > 3 * COMMITS as u64, "seed {seed}: the sweep covered only {budget} ops");
    }
}

#[test]
fn record_of_a_fully_superseded_transaction_still_applies() {
    let db = fresh_db();
    let data = db.alloc_page().unwrap();
    // T0 gives the data page its base, so later writes are differentials.
    db.begin().unwrap();
    db.with_page_mut(data, |p| p.write(0, b"base")).unwrap();
    db.commit().unwrap();
    // T1 updates the data page and grows heap `h`: its record is the only
    // one that carries `h`.
    let h = db.register_struct(StructRoot::Heap { pages: Vec::new() });
    db.begin().unwrap();
    db.with_page_mut(data, |p| p.write(0, b"first")).unwrap();
    let p = db.alloc_page_structured().unwrap();
    db.publish_struct(h, StructRoot::Heap { pages: vec![p] });
    db.commit().unwrap();
    // T2 supersedes T1's only page tag and changes another structure, so
    // its record says nothing about `h`. T1's commit record now gates no
    // page, only the root record.
    let t = db.register_struct(StructRoot::BTree { root: data });
    db.begin().unwrap();
    db.with_page_mut(data, |p| p.write(0, b"second")).unwrap();
    let root = db.alloc_page_structured().unwrap();
    db.publish_struct(t, StructRoot::BTree { root });
    db.commit().unwrap();
    let expect = db.with_store(|s| s.struct_roots()).expect("root log");
    assert_eq!(expect.entries.len(), 2);

    let chip = db.into_store_without_flush().into_chips().pop().unwrap();
    assert_eq!(recovered_roots(chip), expect, "T1's root record was lost with its page tags");
}
