//! `tpcc`: the TPC-C standard mix through `run_transaction` on a
//! [`Database`] with [`Durability::Commit`], over PDL (256B) with a
//! checkpoint root region (so structures recover from the root log
//! alone). Two warehouses, a buffer of 1 % of the loaded pages, 4x flash
//! headroom (no GC), single-threaded. A pass ends by crashing without a
//! flush, recovering the store and its structures, and checking that
//! every acknowledged NEW-ORDER survived, `D_NEXT_O_ID` kept its
//! pre-crash value and `W_YTD = Σ D_YTD`.

use crate::cli::Args;
use crate::harness::{end_to_end, recover_repeatedly, repeat_passes, Pass, PassRaw};
use crate::layers::{buffer_delta, Counters, LayerMetrics};
use crate::report::Report;
use crate::stats::{percentile_us, ratio};
use crate::traced_store::{traced_pair, with_tracer, SharedTracer, TracedStore};
use crate::{check, err};
use pdl_core::{build_store, recover_store, MethodKind, PageStore, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig, FlashStats};
use pdl_storage::{BufferStats, Database, Durability, RecoveredStructure};
use pdl_tpcc::schema::Order;
use pdl_tpcc::{load, run_transaction, TpccDb, TpccRand, TpccScale, TxnKind};
use std::collections::HashSet;
use std::time::Instant;

const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 256 };
const WAREHOUSES: u32 = 2;
/// DBMS buffer as a percentage of the loaded pages.
const BUFFER_PCT: f64 = 1.0;
/// Checkpoint root region (two halves used alternately).
const CHECKPOINT_BLOCKS: u32 = 32;
/// Transactions run after the re-wrap, before measuring (fills the buffer).
const WARMUP_TXNS: u64 = 500;
/// Transactions measured per pass.
const TXNS_PER_PASS: u64 = 10_000;

fn scale() -> TpccScale {
    TpccScale::scaled(WAREHOUSES)
}

fn options() -> StoreOptions {
    // Loaded pages plus room for the run's growth, at 4x flash headroom.
    let est = scale().estimated_loaded_pages(2048);
    StoreOptions::new(est * 2 + WARMUP_TXNS + TXNS_PER_PASS + 128)
        .with_checkpoint_blocks(CHECKPOINT_BLOCKS)
}

fn chip() -> FlashChip {
    let pages = options().num_logical_pages;
    let blocks = ((pages * 4).div_ceil(64) + 16) as u32 + CHECKPOINT_BLOCKS;
    FlashChip::new(FlashConfig::scaled(blocks))
}

/// The standard mix dealt from a shuffled deck of 100 cards (the deck
/// method of TPC-C clause 5.2.4.2): 45 NEW-ORDER, 43 PAYMENT and 4 each of
/// the rest. Every seed then runs exactly the same mix proportions, so
/// the latency percentiles of the mixed distribution do not move with
/// the seed's share of each kind.
struct Deck {
    cards: Vec<TxnKind>,
}

impl Deck {
    const SHARES: [(TxnKind, usize); 5] = [
        (TxnKind::NewOrder, 45),
        (TxnKind::Payment, 43),
        (TxnKind::OrderStatus, 4),
        (TxnKind::Delivery, 4),
        (TxnKind::StockLevel, 4),
    ];

    fn new() -> Deck {
        Deck { cards: Vec::new() }
    }

    fn deal(&mut self, r: &mut TpccRand) -> TxnKind {
        if self.cards.is_empty() {
            self.cards =
                Self::SHARES.iter().flat_map(|&(kind, n)| std::iter::repeat_n(kind, n)).collect();
            r.shuffle(&mut self.cards);
        }
        self.cards.pop().expect("a refilled deck holds 100 cards")
    }
}

/// `D_NEXT_O_ID` of every district, warehouse-major.
fn next_order_ids(t: &TpccDb) -> Result<Vec<u32>, String> {
    let mut ids = Vec::new();
    for w in 1..=t.scale.warehouses {
        for d in 1..=t.scale.districts_per_warehouse as u8 {
            ids.push(t.district_row(w, d).map_err(err("district read"))?.1.next_o_id);
        }
    }
    Ok(ids)
}

/// Pages served to readers so far: cache hits and misses plus
/// version-chain reads (which bypass the frame lookup).
fn pages_served(b: &BufferStats) -> u64 {
    b.hits + b.misses + b.version_reads
}

fn root_span(kind: TxnKind) -> &'static str {
    match kind {
        TxnKind::NewOrder => "tpcc.new_order",
        TxnKind::Payment => "tpcc.payment",
        TxnKind::OrderStatus => "tpcc.order_status",
        TxnKind::Delivery => "tpcc.delivery",
        TxnKind::StockLevel => "tpcc.stock_level",
    }
}

/// Load, re-wrap at the benchmark's buffer size (behind the tracing
/// wrapper when `tracer` is given), warm up.
fn set_up(
    seed: u64,
    tracer: Option<&SharedTracer>,
) -> Result<(TpccDb, TpccRand, Deck, usize), String> {
    let store = build_store(chip(), KIND, options()).map_err(err("build_store"))?;
    let mut t = load(Database::new(store, 256), scale(), seed).map_err(err("load"))?;
    let loaded = t.db.allocated_pages();
    let buffer = ((loaded as f64 * BUFFER_PCT / 100.0).round() as usize).max(2);
    t.detach_structures();
    let store = t.db.into_store().map_err(err("re-wrap"))?;
    let store: Box<dyn PageStore> = match tracer {
        Some(tr) => Box::new(TracedStore::new(store, tr.clone())),
        None => store,
    };
    t.db = Database::new_with_allocated(store, buffer, loaded).with_durability(Durability::Commit);
    t.attach_structures();
    let mut r = TpccRand::new(seed ^ 0xABCD);
    let mut deck = Deck::new();
    for _ in 0..WARMUP_TXNS {
        let kind = deck.deal(&mut r);
        run_transaction(&mut t, &mut r, kind).map_err(err(kind.name()))?;
    }
    Ok((t, r, deck, buffer))
}

/// Rebuild the TPC-C handles from the recovered structures, in
/// registration order: the ten indexes, then the nine heaps.
fn rebuild(db: Database, structs: Vec<RecoveredStructure>) -> Result<TpccDb, String> {
    check(structs.len() == 19, || format!("{} structures recovered, expected 19", structs.len()))?;
    let mut it = structs.into_iter();
    let mut index = || match it.next() {
        Some(RecoveredStructure::BTree(b)) => Ok(b),
        _ => Err("recovered structure order: expected a B+-tree".to_string()),
    };
    let (i0, i1, i2, i3, i4) = (index()?, index()?, index()?, index()?, index()?);
    let (i5, i6, i7, i8, i9) = (index()?, index()?, index()?, index()?, index()?);
    let mut heap = || match it.next() {
        Some(RecoveredStructure::Heap(h)) => Ok(h),
        _ => Err("recovered structure order: expected a heap".to_string()),
    };
    Ok(TpccDb {
        scale: scale(),
        warehouse: heap()?,
        district: heap()?,
        customer: heap()?,
        history: heap()?,
        new_order: heap()?,
        order: heap()?,
        order_line: heap()?,
        item: heap()?,
        stock: heap()?,
        idx_warehouse: i0,
        idx_district: i1,
        idx_customer: i2,
        idx_customer_name: i3,
        idx_order: i4,
        idx_order_customer: i5,
        idx_new_order: i6,
        idx_order_line: i7,
        idx_item: i8,
        idx_stock: i9,
        db,
    })
}

/// The post-recovery checks.
fn verify(t: &TpccDb, next_ids: &[u32]) -> Result<(), String> {
    check(next_order_ids(t)? == next_ids, || "D_NEXT_O_ID changed across the crash".into())?;
    let mut orders = HashSet::new();
    t.order
        .scan(&t.db, |_, bytes| {
            let o = Order::decode(bytes);
            orders.insert((o.w_id, o.d_id, o.o_id));
        })
        .map_err(err("order scan"))?;
    let districts = t.scale.districts_per_warehouse;
    for (i, &next) in next_ids.iter().enumerate() {
        let (w, d) = (i as u32 / districts + 1, (i as u32 % districts + 1) as u8);
        for o in 1..next {
            check(orders.contains(&(w, d, o)), || {
                format!("acknowledged order ({w}, {d}, {o}) lost in the crash")
            })?;
        }
    }
    let acknowledged: u64 = next_ids.iter().map(|&n| n as u64 - 1).sum();
    check(orders.len() as u64 == acknowledged, || {
        format!("{} orders on flash, {acknowledged} acknowledged", orders.len())
    })?;
    for w in 1..=t.scale.warehouses {
        let w_ytd = t.warehouse_row(w).map_err(err("warehouse read"))?.1.ytd;
        let mut d_ytd = 0.0;
        for d in 1..=districts as u8 {
            d_ytd += t.district_row(w, d).map_err(err("district read"))?.1.ytd;
        }
        check((w_ytd - d_ytd).abs() <= 1e-6 * w_ytd.abs().max(1.0), || {
            format!("warehouse {w}: W_YTD {w_ytd} != sum of D_YTD {d_ytd}")
        })?;
    }
    Ok(())
}

/// A measured pass plus what the traced run derives its layers from.
struct Measured {
    pass: Pass,
    quarters: [FlashStats; 2],
    quarter_checkpoints: [u64; 2],
    counters: Counters,
    buffer: BufferStats,
    rollbacks: u64,
    new_orders: u64,
    store_ms: f64,
    structures_ms: f64,
    recovery_reads: u64,
}

fn pass(seed: u64, tracer: Option<&SharedTracer>) -> Result<Measured, String> {
    let started = Instant::now();
    let (mut t, mut r, mut deck, buffer_pages) = set_up(seed, tracer)?;
    let setup_s = started.elapsed().as_secs_f64();
    let ids_before = next_order_ids(&t)?;
    let counters = |t: &TpccDb| Counters::of(t.db.with_store(|s| s.counters()));
    let counters_before = counters(&t);
    let buffer_before = t.db.buffer_stats();
    let mut marks = Vec::with_capacity(5);
    let mut op_ns = Vec::with_capacity(TXNS_PER_PASS as usize);
    let mut read_ns = Vec::new();
    let (mut read_pages, mut rollbacks, mut new_orders, mut acknowledged) = (0, 0, 0, 0u64);
    with_tracer(tracer, |t| t.set_recording(true));
    let measured_start = Instant::now();
    for i in 0..TXNS_PER_PASS {
        if i % (TXNS_PER_PASS / 4) == 0 {
            marks.push((t.db.io_stats(), counters(&t).get("checkpoints")));
        }
        let kind = deck.deal(&mut r);
        let served = (kind == TxnKind::StockLevel).then(|| pages_served(&t.db.buffer_stats()));
        with_tracer(tracer, |t| t.begin_op(root_span(kind)));
        let t0 = Instant::now();
        let committed = run_transaction(&mut t, &mut r, kind).map_err(err(kind.name()))?;
        let ns = t0.elapsed().as_nanos() as u64;
        with_tracer(tracer, |t| {
            t.exit();
        });
        op_ns.push(ns);
        if let Some(before) = served {
            read_ns.push(ns);
            read_pages += pages_served(&t.db.buffer_stats()) - before;
        }
        if kind == TxnKind::NewOrder {
            new_orders += 1;
            if committed {
                acknowledged += 1;
            } else {
                rollbacks += 1;
            }
        }
    }
    let measured_s = measured_start.elapsed().as_secs_f64();
    with_tracer(tracer, |t| t.set_recording(false));
    marks.push((t.db.io_stats(), counters(&t).get("checkpoints")));
    let sim = marks[4].0.delta_since(&marks[0].0);
    let quarters = [marks[1].0.delta_since(&marks[0].0), marks[4].0.delta_since(&marks[3].0)];
    let quarter_checkpoints = [marks[1].1 - marks[0].1, marks[4].1 - marks[3].1];
    let counters = counters(&t).since(&counters_before);
    let buffer_after = t.db.buffer_stats();
    let buffer = buffer_delta(&buffer_after, &buffer_before);
    check(buffer_after.leaked_pids == 0, || format!("{} pids leaked", buffer_after.leaked_pids))?;
    check(buffer_after.active_views == 0, || format!("{} views open", buffer_after.active_views))?;

    // Every NEW-ORDER the mix acknowledged advanced exactly one district.
    let ids = next_order_ids(&t)?;
    let advanced: u64 = ids.iter().zip(&ids_before).map(|(a, b)| (a - b) as u64).sum();
    check(advanced == acknowledged, || {
        format!("{acknowledged} NEW-ORDERs acknowledged, districts advanced {advanced}")
    })?;
    let stats = t.db.io_stats();
    check(stats.pipeline.ordering_violations == 0, || "flash ordering violated".into())?;
    check(stats.integrity.detected_corruptions == 0, || "corruption detected".into())?;

    // Power loss with the buffer unflushed: only committed state survives.
    let crashed = t.db.into_store_without_flush().into_chip();
    let ((db, structs, store_s, structures_s), recovery_s, rec) = recover_repeatedly(
        crashed,
        |chip| chip.stats(),
        |chip| {
            let t0 = Instant::now();
            let store = recover_store(chip, KIND, options()).map_err(err("recover_store"))?;
            let db = Database::new(store, buffer_pages).with_durability(Durability::Commit);
            let store_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let structs = db.recover_structures();
            Ok((db, structs, store_s, t1.elapsed().as_secs_f64()))
        },
        |(db, ..)| db.io_stats(),
        |(db, ..)| db.into_store_without_flush().into_chip(),
    )?;
    let t = rebuild(db, structs)?;
    verify(&t, &ids)?;
    let stats = t.db.io_stats();
    check(stats.pipeline.ordering_violations == 0, || "flash ordering violated".into())?;
    check(stats.integrity.detected_corruptions == 0, || "corruption detected".into())?;
    Ok(Measured {
        pass: Pass::from(PassRaw {
            setup_s,
            measured_s,
            ops: TXNS_PER_PASS,
            op_ns,
            read_ns,
            read_pages,
            sim,
            recovery_s,
            recovery_io_us: rec.total().total_us(),
        }),
        quarters,
        quarter_checkpoints,
        counters,
        buffer,
        rollbacks,
        new_orders,
        store_ms: store_s * 1e3,
        structures_ms: structures_s * 1e3,
        recovery_reads: rec.total().reads,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    if !args.trace {
        let passes = repeat_passes(args.seconds, true, || pass(args.seed, None).map(|m| m.pass))?;
        return end_to_end(&passes);
    }
    let (traced, reference, tracer) = traced_pair(|t| pass(args.seed, t), |m| m.pass.sim)?;
    // Every flash op of the measured phase ran inside a timed store call.
    let attributed = tracer.aggs().values().fold(FlashStats::default(), |acc, a| acc + a.flash);
    check(attributed.total() == traced.pass.sim.total(), || {
        format!(
            "store calls account for {:?}, the measured phase for {:?}",
            attributed.total(),
            traced.pass.sim.total()
        )
    })?;

    let txns = traced.pass.ops;
    let per = |v: f64| ratio(v, txns as f64);
    let mut m = LayerMetrics::default();
    m.set_flash(&traced.pass.sim, txns)?;
    m.set_pdl_counters(&traced.counters, txns);
    m.set_store_calls(&tracer, txns);
    let txn_ns: u64 = tracer
        .aggs()
        .iter()
        .filter(|(name, _)| name.starts_with("pdl.txn_"))
        .map(|(_, a)| a.total_ns)
        .sum();
    m.set("pdl.txn_calls_us_per_txn", per(txn_ns as f64 / 1e3));
    m.set("recovery.store_ms", traced.store_ms);
    m.set("recovery.structures_ms", traced.structures_ms);
    m.set("recovery.pages_read", traced.recovery_reads as f64);
    m.set_buffer(&traced.buffer, txns);
    let roots = TxnKind::ALL.map(|k| tracer.agg(root_span(k)));
    let db_self_ns: u64 = roots.iter().map(|a| a.self_ns).sum();
    m.set("db.self_us_per_txn", per(db_self_ns as f64 / 1e3));
    let p50 = |k: TxnKind| percentile_us(&mut tracer.agg(root_span(k)).durations_ns, 0.5);
    m.set("tpcc.new_order_p50_us", p50(TxnKind::NewOrder));
    m.set("tpcc.payment_p50_us", p50(TxnKind::Payment));
    m.set("tpcc.order_status_p50_us", p50(TxnKind::OrderStatus));
    m.set("tpcc.delivery_p50_us", p50(TxnKind::Delivery));
    m.set("tpcc.stock_level_p50_us", p50(TxnKind::StockLevel));
    m.set("tpcc.rollback_frac", ratio(traced.rollbacks as f64, traced.new_orders as f64));
    let quarter = txns / 4;
    m.set_phase(&traced.quarters, quarter);
    m.set(
        "phase.q1_checkpoints_per_op",
        ratio(traced.quarter_checkpoints[0] as f64, quarter as f64),
    );
    m.set(
        "phase.q4_checkpoints_per_op",
        ratio(traced.quarter_checkpoints[1] as f64, quarter as f64),
    );
    m.set_trace(&tracer, &traced.pass, &reference.pass, args)?;
    Ok(m.into_report(txns, 0))
}
