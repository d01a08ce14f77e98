//! Sharding correctness: a [`ShardedStore`] must be observably identical
//! to a single store of the same method over any update trace, because
//! striping only partitions the page space — it never changes per-page
//! behaviour. Plus: a multi-writer smoke test (8 threads, overlapping
//! pages), whole-engine crash recovery of every shard, and a commit torn
//! across shards rolling back on all of them.

use pdl_core::{build_store, ChangeRange, MethodKind, PageStore, ShardedStore, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig};
use proptest::prelude::*;

const PAGES: u64 = 20;

/// One step of an update trace.
#[derive(Clone, Debug)]
enum Step {
    /// Whole-page write.
    Write {
        pid: u64,
        fill: u8,
    },
    /// Read-modify-reflect cycle changing one byte range.
    Update {
        pid: u64,
        offset: u16,
        len: u8,
        fill: u8,
    },
    Flush,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (0..PAGES, any::<u8>()).prop_map(|(pid, fill)| Step::Write { pid, fill }),
        3 => (0..PAGES, 0u16..250, 1u8..40, any::<u8>())
            .prop_map(|(pid, offset, len, fill)| Step::Update { pid, offset, len, fill }),
        1 => Just(Step::Flush),
    ]
}

/// Drive one step against any store through the `PageStore` trait.
fn run_step(store: &mut dyn PageStore, step: &Step, buf: &mut [u8]) {
    let size = buf.len();
    match step {
        Step::Write { pid, fill } => {
            buf.fill(*fill);
            store.write_page(*pid, buf).unwrap();
        }
        Step::Update { pid, offset, len, fill } => {
            store.read_page(*pid, buf).unwrap();
            let at = *offset as usize % (size - *len as usize);
            buf[at..at + *len as usize].fill(*fill);
            store.apply_update(*pid, buf, &[ChangeRange::new(at, *len as usize)]).unwrap();
            store.evict_page(*pid, buf).unwrap();
        }
        Step::Flush => store.flush().unwrap(),
    }
}

fn read_all(store: &mut dyn PageStore) -> Vec<Vec<u8>> {
    let size = store.logical_page_size();
    (0..PAGES)
        .map(|pid| {
            let mut out = vec![0u8; size];
            store.read_page(pid, &mut out).unwrap();
            out
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For N in {1, 2, 4}, the sharded store's observable state after any
    /// trace is byte-identical to the single store's, for both PDL and
    /// OPU.
    #[test]
    fn sharded_store_matches_single_store(
        steps in proptest::collection::vec(step_strategy(), 1..50),
    ) {
        for kind in [MethodKind::Pdl { max_diff_size: 64 }, MethodKind::Opu] {
            let chip = FlashChip::new(FlashConfig::tiny());
            let mut single = build_store(chip, kind, StoreOptions::new(PAGES)).unwrap();
            let mut buf = vec![0u8; single.logical_page_size()];
            for step in &steps {
                run_step(single.as_mut(), step, &mut buf);
            }
            let expect = read_all(single.as_mut());

            for n in [1usize, 2, 4] {
                let mut sharded = ShardedStore::with_uniform_chips(
                    FlashConfig::tiny(),
                    n,
                    kind,
                    StoreOptions::new(PAGES),
                )
                .unwrap();
                for step in &steps {
                    run_step(&mut sharded, step, &mut buf);
                }
                let got = read_all(&mut sharded);
                prop_assert_eq!(
                    &got, &expect,
                    "{} with {} shards diverged from the single store",
                    kind.label(), n
                );
            }
        }
    }
}

/// 8 writer threads hammer overlapping pages through the shared entry
/// points; after the join every page must hold exactly one of the writes
/// that targeted it (page programming is atomic per shard), and crash
/// recovery of all shards must preserve the flushed state.
#[test]
fn concurrent_writers_then_crash_recovery() {
    const WRITERS: u64 = 8;
    const ROUNDS: u64 = 30;
    let kind = MethodKind::Pdl { max_diff_size: 64 };
    let store =
        ShardedStore::with_uniform_chips(FlashConfig::tiny(), 4, kind, StoreOptions::new(PAGES))
            .unwrap();
    let size = store.logical_page_size();

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let store = &store;
            scope.spawn(move || {
                let mut page = vec![0u8; size];
                for r in 0..ROUNDS {
                    // Overlapping page sets: every writer visits every pid.
                    let pid = (w + r) % PAGES;
                    // Tag pattern: writer id in every byte pair, round in
                    // the second byte — any torn mix would break the pair
                    // structure.
                    for i in (0..size).step_by(2) {
                        page[i] = w as u8 + 1;
                        page[i + 1] = r as u8;
                    }
                    store.write_page_shared(pid, &page).unwrap();
                }
            });
        }
    });

    // Post-join: every page is a consistent snapshot of one write.
    let mut out = vec![0u8; size];
    for pid in 0..PAGES {
        store.read_page_shared(pid, &mut out).unwrap();
        let (w, r) = (out[0], out[1]);
        assert!(w >= 1 && w as u64 <= WRITERS, "pid {pid}: writer tag {w}");
        assert!((r as u64) < ROUNDS, "pid {pid}: round tag {r}");
        for i in (0..size).step_by(2) {
            assert_eq!(out[i], w, "pid {pid}: torn page at byte {i}");
            assert_eq!(out[i + 1], r, "pid {pid}: torn page at byte {i}");
        }
    }
    store.flush_shared().unwrap();
    let expect: Vec<Vec<u8>> = (0..PAGES)
        .map(|pid| {
            let mut p = vec![0u8; size];
            store.read_page_shared(pid, &mut p).unwrap();
            p
        })
        .collect();

    // Crash: drop all in-memory state, recover every shard from its chip.
    let chips = store.into_shard_chips();
    assert_eq!(chips.len(), 4);
    let mut back = ShardedStore::recover(chips, kind, StoreOptions::new(PAGES)).unwrap();
    for (pid, want) in expect.iter().enumerate() {
        back.read_page(pid as u64, &mut out).unwrap();
        assert_eq!(&out, want, "pid {pid} after recovery");
    }
}

/// Concurrent readers and writers on disjoint page sets scale without
/// interference: all data lands correctly.
#[test]
fn disjoint_writers_round_trip() {
    let kind = MethodKind::Opu;
    let store =
        ShardedStore::with_uniform_chips(FlashConfig::tiny(), 4, kind, StoreOptions::new(PAGES))
            .unwrap();
    let size = store.logical_page_size();
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let store = &store;
            scope.spawn(move || {
                let mut page = vec![0u8; size];
                // Disjoint sets: writer w owns pids congruent to w mod 4.
                for pid in (w..PAGES).step_by(4) {
                    page.fill(pid as u8 + 1);
                    store.write_page_shared(pid, &page).unwrap();
                }
            });
        }
    });
    let mut out = vec![0u8; size];
    for pid in 0..PAGES {
        store.read_page_shared(pid, &mut out).unwrap();
        assert_eq!(out, vec![pid as u8 + 1; size], "pid {pid}");
    }
}

/// Commit one transaction writing `pages` (every pid `0..pages.len()`)
/// through the sharded commit batch; `fail_shard_commit` arms that
/// shard's chip to lose power at the batch's first program after the
/// commit records are staged — its commit-record flush.
fn commit_pages(
    store: &mut ShardedStore,
    txn: u64,
    pages: &[Vec<u8>],
    fail_shard_commit: Option<usize>,
) -> pdl_core::Result<()> {
    store.txn_reserve(pages.len() as u64)?;
    for (pid, page) in pages.iter().enumerate() {
        store.txn_stage(pid as u64, page, txn)?;
    }
    store.txn_flush_stage()?;
    store.txn_append_commit(txn)?;
    if let Some(s) = fail_shard_commit {
        store.with_shard(s, |st| st.chip_mut().arm_fault(0));
    }
    store.txn_finalize()
}

/// A commit torn across shards must leave every shard able to roll back:
/// shard 1 loses power at its commit-record program after shard 0's
/// record is durable. No shard may have released its pre-images (the
/// superseded base pages and the old transaction's commit record), so
/// recovery hands back the pre-commit bytes on both shards.
#[test]
fn torn_cross_shard_commit_keeps_every_pre_image() {
    let kind = MethodKind::Pdl { max_diff_size: 64 };
    let opts = StoreOptions::new(PAGES);
    let mut store = ShardedStore::with_uniform_chips(FlashConfig::tiny(), 2, kind, opts).unwrap();
    let size = store.logical_page_size();
    // Pages 0 and 1 live on shards 0 and 1. Whole-page rewrites exceed
    // the differential limit, so the second commit writes new bases and
    // defers obsoleting the first commit's.
    let old = vec![vec![0x11u8; size], vec![0x33u8; size]];
    let new = vec![vec![0x22u8; size], vec![0x44u8; size]];
    commit_pages(&mut store, 1, &old, None).unwrap();
    let err = commit_pages(&mut store, 2, &new, Some(1)).unwrap_err();
    assert!(pdl_core::is_power_loss(&err), "expected a power loss, got {err}");

    let mut chips = Box::new(store).into_chips();
    for c in &mut chips {
        c.disarm_fault();
    }
    let mut back = ShardedStore::recover(chips, kind, opts).unwrap();
    let mut out = vec![0u8; size];
    for (pid, want) in old.iter().enumerate() {
        back.read_page(pid as u64, &mut out).unwrap();
        assert_eq!(&out, want, "pid {pid}: the torn commit's pre-image was lost");
    }
}
