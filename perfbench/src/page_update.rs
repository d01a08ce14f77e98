//! `page_update`: the paper's update operation (Experiment 1) straight
//! into the page store — read the page (recreation), apply one 2 %
//! change, evict it (reflection) — on PDL (2KB) over the default-scale
//! geometry (256 blocks, database ≈ 25 % of the frames), single-threaded,
//! warmed until GC has erased every block several times. A pass ends by
//! flushing, crashing, recovering by full scan and checking every page
//! against a byte-exact shadow.

use crate::cli::Args;
use crate::harness::{end_to_end, recover_repeatedly, repeat_passes, Pass, PassRaw};
use crate::layers::{Counters, LayerMetrics};
use crate::report::Report;
use crate::traced_store::{traced_pair, with_tracer, SharedTracer, TracedStore};
use crate::{check, err};
use pdl_core::{build_store, recover_store, MethodKind, PageStore, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig, FlashStats};
use pdl_workload::{db_pages_for, load_database, Scale, UpdateGen};
use std::time::Instant;

const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 2048 };
const SCALE: Scale = Scale::Default;
/// `%ChangedByOneU_Op` of the paper's Experiment 1.
const PCT_CHANGED: f64 = 2.0;
/// Update operations measured per pass.
const OPS_PER_PASS: u64 = 200_000;
/// Warm-up target: GC erases per block before measuring.
const WARMUP_ERASES_PER_BLOCK: u64 = 4;
/// Phase decoherence before warm-up: each page is updated a uniform
/// 0..JITTER times first (the `pdl-bench` runner's PDL (2KB) setting,
/// `ceil(220 / %changed)`), so PDL's per-page differential saw-tooth is
/// in steady state rather than phase-locked from the load.
const JITTER: u64 = 110;
/// The paper's bound: a recreation reads at most two pages.
const MAX_READS_PER_RECREATION: u64 = 2;

fn options() -> StoreOptions {
    StoreOptions::new(db_pages_for(SCALE, 1))
}

/// A loaded, warmed store plus the benchmark-side shadow of every page.
struct Warm {
    store: Box<dyn PageStore>,
    gen: UpdateGen,
    shadow: Vec<u8>,
    setup_s: f64,
}

/// One warm-up update operation.
fn update_op(
    store: &mut dyn PageStore,
    gen: &mut UpdateGen,
    page: &mut [u8],
    pid: u64,
) -> Result<(), String> {
    store.read_page(pid, page).map_err(err("read_page"))?;
    let changes = gen.apply(pid, page);
    store.apply_update(pid, page, &changes).map_err(err("apply_update"))?;
    store.evict_page(pid, page).map_err(err("evict_page"))
}

fn set_up(seed: u64) -> Result<Warm, String> {
    let started = Instant::now();
    let chip = FlashChip::new(FlashConfig::scaled(SCALE.num_blocks()));
    let mut store = build_store(chip, KIND, options()).map_err(err("build_store"))?;
    load_database(store.as_mut()).map_err(err("load"))?;
    let size = store.logical_page_size();
    let pages = store.options().num_logical_pages;
    let mut shadow = vec![0u8; size * pages as usize];
    for (pid, page) in shadow.chunks_mut(size).enumerate() {
        UpdateGen::fill_initial(pid as u64, page);
    }
    let mut gen = UpdateGen::new(seed, size, PCT_CHANGED);
    let mut page = vec![0u8; size];
    let mut op = |store: &mut dyn PageStore, gen: &mut UpdateGen, shadow: &mut [u8], pid: u64| {
        update_op(store, gen, &mut page, pid)?;
        let at = pid as usize * size;
        shadow[at..at + size].copy_from_slice(&page);
        Ok::<(), String>(())
    };
    for pid in 0..pages {
        for _ in 0..gen.pick_page(JITTER) {
            op(store.as_mut(), &mut gen, &mut shadow, pid)?;
        }
    }
    let target = WARMUP_ERASES_PER_BLOCK * SCALE.num_blocks() as u64;
    while store.stats().total().erases < target {
        let pid = gen.pick_page(pages);
        op(store.as_mut(), &mut gen, &mut shadow, pid)?;
    }
    store.reset_stats();
    Ok(Warm { store, gen, shadow, setup_s: started.elapsed().as_secs_f64() })
}

/// A measured pass plus what the traced run derives its layers from.
struct Measured {
    pass: Pass,
    /// Measured-phase ledger in quarters: [q1, q4].
    quarters: [FlashStats; 2],
    counters: Counters,
    store_ms: f64,
    recovery_reads: u64,
}

fn pass(seed: u64, tracer: Option<&SharedTracer>) -> Result<Measured, String> {
    let Warm { store, mut gen, mut shadow, setup_s } = set_up(seed)?;
    let mut store: Box<dyn PageStore> = match tracer {
        Some(t) => Box::new(TracedStore::new(store, t.clone())),
        None => store,
    };
    let size = store.logical_page_size();
    let pages = store.options().num_logical_pages;
    let mut page = vec![0u8; size];
    let mut op_ns = Vec::with_capacity(OPS_PER_PASS as usize);
    let mut read_ns = Vec::with_capacity(OPS_PER_PASS as usize);
    let mut max_reads = 0u64;
    let mut marks = Vec::with_capacity(5);
    let counters_before = Counters::of(store.counters());
    with_tracer(tracer, |t| t.set_recording(true));
    let started = Instant::now();
    for i in 0..OPS_PER_PASS {
        if i % (OPS_PER_PASS / 4) == 0 {
            marks.push(store.stats());
        }
        let pid = gen.pick_page(pages);
        with_tracer(tracer, |t| t.begin_op("page_update.op"));
        let t0 = Instant::now();
        let s0 = store.stats();
        store.read_page(pid, &mut page).map_err(err("read_page"))?;
        let t1 = Instant::now();
        let reads = store.stats().user.reads - s0.user.reads;
        let changes = gen.apply(pid, &mut page);
        store.apply_update(pid, &page, &changes).map_err(err("apply_update"))?;
        store.evict_page(pid, &page).map_err(err("evict_page"))?;
        let t2 = Instant::now();
        with_tracer(tracer, |t| {
            t.exit();
        });
        op_ns.push(t2.duration_since(t0).as_nanos() as u64);
        read_ns.push(t1.duration_since(t0).as_nanos() as u64);
        max_reads = max_reads.max(reads);
        let at = pid as usize * size;
        shadow[at..at + size].copy_from_slice(&page);
    }
    let measured_s = started.elapsed().as_secs_f64();
    with_tracer(tracer, |t| t.set_recording(false));
    marks.push(store.stats());
    let sim = marks[4].delta_since(&marks[0]);
    let quarters = [marks[1].delta_since(&marks[0]), marks[4].delta_since(&marks[3])];
    let counters = Counters::of(store.counters()).since(&counters_before);
    check(max_reads <= MAX_READS_PER_RECREATION, || {
        format!("a recreation read {max_reads} user pages (bound {MAX_READS_PER_RECREATION})")
    })?;

    // Durability point, then power loss: the chip alone survives.
    store.flush().map_err(err("flush"))?;
    let (mut store, recovery_s, rec) = recover_repeatedly(
        store.into_chip(),
        |chip| chip.stats(),
        |chip| recover_store(chip, KIND, options()).map_err(err("recover_store")),
        |store| store.stats(),
        |store| store.into_chip(),
    )?;
    for pid in 0..pages {
        store.read_page(pid, &mut page).map_err(err("read after recovery"))?;
        let at = pid as usize * size;
        check(page == shadow[at..at + size], || format!("page {pid} differs from its shadow"))?;
    }
    let integrity = store.stats().integrity;
    check(integrity.detected_corruptions == 0, || {
        format!("{} corruptions detected", integrity.detected_corruptions)
    })?;
    check(store.stats().pipeline.ordering_violations == 0, || "flash ordering violated".into())?;
    Ok(Measured {
        pass: Pass::from(PassRaw {
            setup_s,
            measured_s,
            ops: OPS_PER_PASS,
            op_ns,
            read_ns,
            read_pages: OPS_PER_PASS,
            sim,
            recovery_s,
            recovery_io_us: rec.total().total_us(),
        }),
        quarters,
        counters,
        store_ms: recovery_s * 1e3,
        recovery_reads: rec.recovery.reads,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    if !args.trace {
        let passes = repeat_passes(args.seconds, true, || pass(args.seed, None).map(|m| m.pass))?;
        return end_to_end(&passes);
    }
    let (traced, reference, tracer) = traced_pair(|t| pass(args.seed, t), |m| m.pass.sim)?;
    let ops = traced.pass.ops;
    let mut m = LayerMetrics::default();
    m.set_flash(&traced.pass.sim, ops)?;
    m.set_pdl_counters(&traced.counters, ops);
    m.set_store_calls(&tracer, ops);
    m.set("recovery.store_ms", traced.store_ms);
    m.set("recovery.pages_read", traced.recovery_reads as f64);
    m.set_phase(&traced.quarters, ops / 4);
    m.set_trace(&tracer, &traced.pass, &reference.pass, args)?;
    Ok(m.into_report(ops, 0))
}
