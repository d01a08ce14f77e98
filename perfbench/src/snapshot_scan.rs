//! `snapshot_scan`: a [`ShardedBufferPool`] over two PDL (256B) shards
//! holding a 4096-page database that fits the pool entirely. The retention
//! budget is 1 % of the database bytes with the version cap parked, and an
//! epoch-long read view is held across the whole pass. Each step of the
//! closed loop opens a short view, commits one writer transaction through
//! the group-commit coordinator (an aligned 8-page group, each page
//! getting the round's stamp and a 40-byte change), then scans 64 aligned
//! pages through the short view — which must still see the state from
//! before that commit — and releases it. A pass ends by checking the epoch
//! view byte-exact, crashing, recovering every shard, and checking every
//! page against the shadow of the committed state.
//!
//! One client thread drives both roles. With a writer and a reader on
//! two threads of a 2-vCPU machine, each run settled into one of two
//! contention regimes and the reader's latency moved by up to 26 % across
//! ten seeds — too unsteady to gate on.

use crate::cli::Args;
use crate::harness::{end_to_end, recover_repeatedly, repeat_passes, Pass, PassRaw};
use crate::layers::{buffer_delta, Counters, LayerMetrics};
use crate::report::Report;
use crate::stats::{percentile_us, ratio};
use crate::trace::Tracer;
use crate::{check, err};
use pdl_core::{MethodKind, ShardedStore, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig, FlashStats};
use pdl_storage::{BufferStats, ShardedBufferPool};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 256 };
const SHARDS: usize = 2;
const PAGES: u64 = 4096;
/// Blocks per shard chip: ~5x the shard's logical footprint.
const BLOCKS_PER_SHARD: u32 = 256;
/// Pages one writer transaction stamps (an aligned group).
const GROUP: u64 = 8;
/// Pages one short view scans (aligned).
const SCAN: u64 = 64;
/// Bytes of the per-page change besides the 8-byte round stamp.
const CHANGE: usize = 40;
/// Steps (one commit + one short-view scan each) per pass.
const COMMITS_PER_PASS: u64 = 20_000;
/// Writer commits before measuring (part of set-up: brings GC and the
/// spill tier towards steady state).
const WARMUP_COMMITS: u64 = 5_000;

fn options() -> StoreOptions {
    // The pool's DRAM retention budget: 1 % of the database bytes; the
    // version-count cap is parked so the byte budget is the only trigger.
    StoreOptions::new(PAGES)
        .with_snapshot_version_cap(u32::MAX)
        .with_snapshot_retention_bytes(PAGES * 2048 / 100)
}

fn stamp_of(page: &[u8]) -> u64 {
    u64::from_le_bytes(page[0..8].try_into().expect("pages hold at least 8 bytes"))
}

fn enter(tracer: &mut Option<Tracer>, name: &'static str) {
    if let Some(t) = tracer.as_mut() {
        t.enter(name);
    }
}

fn exit(tracer: &mut Option<Tracer>) {
    if let Some(t) = tracer.as_mut() {
        t.exit();
    }
}

/// The committed state the benchmark expects: every page's bytes and
/// every group's latest round stamp.
struct Shadow {
    pages: Vec<u8>,
    stamps: Vec<u64>,
    size: usize,
}

/// One writer transaction: stamp a random aligned group with `round` plus
/// a 40-byte change per page, commit it through the group-commit
/// coordinator, and mirror the writes into `shadow`.
fn commit_group(
    pool: &ShardedBufferPool,
    rng: &mut StdRng,
    round: u64,
    shadow: &mut Shadow,
    tracer: &mut Option<Tracer>,
) -> Result<(), String> {
    let size = shadow.size;
    let group = rng.gen_range(0..PAGES / GROUP);
    let mut change = [0u8; CHANGE];
    enter(tracer, "pool.begin");
    let txn = pool.begin();
    exit(tracer);
    for pid in group * GROUP..(group + 1) * GROUP {
        let at = rng.gen_range(8..=size - CHANGE);
        rng.fill_bytes(&mut change);
        enter(tracer, "pool.page_mut");
        pool.with_page_mut_txn(pid, txn, |p| {
            p.write(0, &round.to_le_bytes());
            p.write(at, &change);
        })
        .map_err(err("with_page_mut_txn"))?;
        exit(tracer);
        let base = pid as usize * size;
        shadow.pages[base..base + 8].copy_from_slice(&round.to_le_bytes());
        shadow.pages[base + at..base + at + CHANGE].copy_from_slice(&change);
    }
    enter(tracer, "pool.commit");
    pool.commit(txn).map_err(err("commit"))?;
    exit(tracer);
    shadow.stamps[group as usize] = round;
    Ok(())
}

struct Measured {
    pass: Pass,
    quarters: [FlashStats; 2],
    counters: Counters,
    buffer: BufferStats,
    busy_max: Duration,
    store_ms: f64,
    recovery_reads: u64,
    tracer: Tracer,
}

fn counters(pool: &ShardedBufferPool) -> Counters {
    Counters::of((0..SHARDS).flat_map(|s| pool.store().with_shard(s, |st| st.counters())).collect())
}

fn pass(seed: u64, traced: bool) -> Result<Measured, String> {
    let started = Instant::now();
    let chips =
        (0..SHARDS).map(|_| FlashChip::new(FlashConfig::scaled(BLOCKS_PER_SHARD))).collect();
    let store = ShardedStore::new(chips, KIND, options()).map_err(err("ShardedStore::new"))?;
    let pool = ShardedBufferPool::new(store, PAGES as usize);
    let size = pool.page_size();
    let mut shadow = Shadow {
        pages: vec![0u8; PAGES as usize * size],
        stamps: vec![0; (PAGES / GROUP) as usize],
        size,
    };
    StdRng::seed_from_u64(seed).fill_bytes(&mut shadow.pages);
    for (pid, page) in shadow.pages.chunks_mut(size).enumerate() {
        page[0..8].copy_from_slice(&0u64.to_le_bytes());
        pool.with_page_mut(pid as u64, |p| p.write(0, page)).map_err(err("load"))?;
    }
    pool.flush_all().map_err(err("load flush"))?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5752_4954);
    for round in 1..=WARMUP_COMMITS {
        commit_group(&pool, &mut rng, round, &mut shadow, &mut None)?;
    }
    let setup_s = started.elapsed().as_secs_f64();

    // The epoch view, held across the whole pass.
    let epoch = pool.begin_read();
    let oracle = shadow.pages.clone();
    let counters_before = counters(&pool);
    let buffer_before = pool.stats();
    let busy_before = pool.store().per_shard_busy();
    let mut tracer = traced.then(|| Tracer::new(Instant::now()));
    if let Some(t) = tracer.as_mut() {
        t.set_recording(true);
    }
    let mut op_ns = Vec::with_capacity(COMMITS_PER_PASS as usize);
    let mut read_ns = Vec::with_capacity(COMMITS_PER_PASS as usize);
    let mut marks = Vec::with_capacity(5);
    let mut seen = Vec::with_capacity(SCAN as usize);
    let measured_start = Instant::now();
    for i in 0..COMMITS_PER_PASS {
        if i % (COMMITS_PER_PASS / 4) == 0 {
            marks.push(pool.io_stats());
        }
        let start = rng.gen_range(0..PAGES / SCAN) * SCAN;
        let groups = (start / GROUP) as usize..((start + SCAN) / GROUP) as usize;
        let expected = shadow.stamps[groups].to_vec();
        if let Some(t) = tracer.as_mut() {
            t.begin_op("snapshot.step");
        }
        let t0 = Instant::now();
        enter(&mut tracer, "view.open");
        let view = pool.begin_read();
        exit(&mut tracer);
        let opened = t0.elapsed();

        let t1 = Instant::now();
        enter(&mut tracer, "pool.txn");
        commit_group(&pool, &mut rng, WARMUP_COMMITS + 1 + i, &mut shadow, &mut tracer)?;
        exit(&mut tracer);
        op_ns.push(t1.elapsed().as_nanos() as u64);

        let t2 = Instant::now();
        seen.clear();
        let mut failure = None;
        for pid in start..start + SCAN {
            enter(&mut tracer, "view.page_read");
            let r = pool.with_page_at(&view, pid, stamp_of);
            exit(&mut tracer);
            match r {
                Ok(s) => seen.push(s),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        enter(&mut tracer, "view.close");
        pool.release_read(view);
        exit(&mut tracer);
        read_ns.push((opened + t2.elapsed()).as_nanos() as u64);
        exit(&mut tracer);
        if let Some(e) = failure {
            return Err(format!("correctness check failed: short view read: {e}"));
        }
        // Every group reads one stamp, and it is the one committed before
        // the view opened: the view neither tears a group nor sees the
        // commit made while it was open.
        for (g, want) in seen.chunks(GROUP as usize).zip(&expected) {
            check(g.iter().all(|s| s == want), || {
                format!("a short view over pages {start}.. read stamps {g:?}, expected {want}")
            })?;
        }
    }
    let measured_s = measured_start.elapsed().as_secs_f64();
    marks.push(pool.io_stats());
    let sim = marks[4].delta_since(&marks[0]);
    let quarters = [marks[1].delta_since(&marks[0]), marks[4].delta_since(&marks[3])];

    for pid in 0..PAGES {
        let base = pid as usize * size;
        let same = pool
            .with_page_at(&epoch, pid, |p| p == &oracle[base..base + size])
            .map_err(|e| format!("correctness check failed: epoch view: {e}"))?;
        check(same, || format!("epoch view read of page {pid} changed"))?;
    }
    pool.release_read(epoch);
    let buffer_after = pool.stats();
    check(buffer_after.active_views == 0, || format!("{} views open", buffer_after.active_views))?;
    check(buffer_after.leaked_pids == 0, || format!("{} pids leaked", buffer_after.leaked_pids))?;
    let counters = counters(&pool).since(&counters_before);
    let busy_max = pool
        .store()
        .per_shard_busy()
        .iter()
        .zip(&busy_before)
        .map(|(a, b)| a.saturating_sub(*b))
        .max()
        .unwrap_or_default();
    let stats = pool.io_stats();
    check(stats.pipeline.ordering_violations == 0, || "flash ordering violated".into())?;
    check(stats.integrity.detected_corruptions == 0, || "corruption detected".into())?;

    // Power loss: every commit returned, so every one must survive.
    let (store, recovery_s, rec) = recover_repeatedly(
        pool.into_store_without_flush().into_shard_chips(),
        |chips| chips.iter().fold(FlashStats::default(), |acc, c| acc + c.stats()),
        |chips| ShardedStore::recover(chips, KIND, options()).map_err(err("recover")),
        |store| store.stats_shared(),
        |store| store.into_shard_chips(),
    )?;
    let mut page = vec![0u8; size];
    for pid in 0..PAGES {
        store.read_page_shared(pid, &mut page).map_err(err("read after recovery"))?;
        let base = pid as usize * size;
        check(page == shadow.pages[base..base + size], || {
            format!("page {pid} differs from the committed state after recovery")
        })?;
    }
    let stats = store.stats_shared();
    check(stats.pipeline.ordering_violations == 0, || "flash ordering violated".into())?;
    check(stats.integrity.detected_corruptions == 0, || "corruption detected".into())?;

    Ok(Measured {
        pass: Pass::from(PassRaw {
            setup_s,
            measured_s,
            ops: COMMITS_PER_PASS,
            op_ns,
            read_ns,
            read_pages: COMMITS_PER_PASS * SCAN,
            sim,
            recovery_s,
            recovery_io_us: rec.total().total_us(),
        }),
        quarters,
        counters,
        buffer: buffer_delta(&buffer_after, &buffer_before),
        busy_max,
        store_ms: recovery_s * 1e3,
        recovery_reads: rec.total().reads,
        tracer: tracer.unwrap_or_else(|| Tracer::new(Instant::now())),
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    if !args.trace {
        let passes = repeat_passes(args.seconds, true, || pass(args.seed, false).map(|m| m.pass))?;
        return end_to_end(&passes);
    }
    let traced = pass(args.seed, true)?;
    let reference = pass(args.seed, false)?;
    check(traced.pass.sim == reference.pass.sim, || {
        format!(
            "tracing perturbed the simulated clock: traced {:?}, untraced {:?}",
            traced.pass.sim.total(),
            reference.pass.sim.total()
        )
    })?;
    let tracer = &traced.tracer;
    let commits = traced.pass.ops;
    let mut m = LayerMetrics::default();
    m.set_flash(&traced.pass.sim, commits)?;
    m.set_pdl_counters(&traced.counters, commits);
    m.set("recovery.store_ms", traced.store_ms);
    m.set("recovery.pages_read", traced.recovery_reads as f64);
    let b = &traced.buffer;
    m.set_buffer(b, commits);
    let open = tracer.agg("view.open").durations_ns;
    let close = tracer.agg("view.close").durations_ns;
    let mut open_close: Vec<u64> = open.iter().zip(&close).map(|(a, b)| a + b).collect();
    m.set("view.open_close_p50_us", percentile_us(&mut open_close, 0.5));
    m.set(
        "view.page_read_p50_us",
        percentile_us(&mut tracer.agg("view.page_read").durations_ns, 0.5),
    );
    let mut commit = tracer.agg("pool.commit").durations_ns;
    m.set("pool.commit_p50_us", percentile_us(&mut commit, 0.5));
    m.set("pool.commit_p99_us", percentile_us(&mut commit, 0.99));
    m.set(
        "pool.page_mut_p50_us",
        percentile_us(&mut tracer.agg("pool.page_mut").durations_ns, 0.5),
    );
    m.set("pool.commit_flush_us_per_commit", ratio(b.commit_flush_us_sum as f64, commits as f64));
    m.set("shard.busy_max_ms", traced.busy_max.as_secs_f64() * 1e3);
    m.set_phase(&traced.quarters, commits / 4);
    m.set_trace(tracer, &traced.pass, &reference.pass, args)?;
    Ok(m.into_report(commits, 0))
}
