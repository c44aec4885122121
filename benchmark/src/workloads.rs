//! The five workloads. Sizes are frozen here (and restated in the README
//! and in `BENCHMARK.json`'s `why` lines): a change that edits them needs a
//! fresh baseline.
//!
//! Every workload is a closed loop with one client thread, stores rebuild
//! inline (no background thread exists), and every workload ends the same
//! way: its final key set is checked key by key against the oracle, its
//! false-positive rate is scanned with absent keys, and a durable copy of
//! its state is reopened and checked again.

use crate::host::bytes_written;
use crate::keys::{AbsentStream, ProbeBatch, Rng};
use crate::ladder::{Ladder, Site};
use crate::run::{Footprint, Run};
use pof_bloom::{Addressing, BloomConfig};
use pof_core::FilterConfig;
use pof_filter::SelectionVector;
use pof_persist::FileKind;
use pof_store::{
    FsyncPolicy, LevelSpec, PersistOptions, ProbeScratch, ShardedFilterStore, StoreOptions,
    StoreStats, TieredProbeScratch, TieredStore, TieredStoreBuilder,
};
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

/// Keys per probe and write call unless a workload says otherwise.
pub const BATCH: usize = 4096;
/// Shards of every flat store and of every tiered level.
pub const SHARDS: usize = 2;
/// Filter budget of every flat store.
pub const BITS_PER_KEY: f64 = 12.0;
/// Live keys per thousand positions of a mixed probe batch.
pub const PRESENT_PERMILLE: usize = 100;
/// Probe calls per repetition of a probe window.
const SLICE_CALLS: usize = 1024;
/// Times a volatile workload's durable twin is reopened (`reopen_ms` is the
/// median; a reopen takes 4–45 ms).
const TWIN_REOPENS: usize = 11;

/// `StoreOptions::default()`'s filter: cache-sectorized Bloom, 512-bit
/// blocks, 64-bit sectors, z = 2, k = 8, magic addressing.
pub fn default_bloom() -> BloomConfig {
    BloomConfig::cache_sectorized(512, 64, 2, 8, Addressing::Magic)
}

/// Options of a flat store at `site`'s configuration with `shards` shards.
pub fn flat_options(site: &Site, shards: usize) -> StoreOptions {
    StoreOptions {
        config: FilterConfig::Bloom(site.config),
        shard_count: shards,
        capacity_per_shard: site.expected_keys / shards,
        bits_per_key: site.bits_per_key,
        ..StoreOptions::default()
    }
}

fn default_site(expected_keys: usize, batch: usize) -> Site {
    Site {
        config: default_bloom(),
        bits_per_key: BITS_PER_KEY,
        expected_keys,
        shards: SHARDS,
        batch,
        present_permille: PRESENT_PERMILLE,
        keys: Vec::new(),
    }
}

/// The flush policy of every durable flat store: fsync after every batch,
/// automatic checkpoint after 64Ki journal records per shard.
pub fn durable_options() -> PersistOptions {
    PersistOptions::durable()
}

/// A batch whose every key is live.
fn all_present(keys: &[u32]) -> ProbeBatch {
    ProbeBatch {
        keys: keys.to_vec(),
        present: (0..keys.len() as u32).collect(),
    }
}

/// Probe every live key of the oracle (each must qualify) and compare the
/// store's exact key count.
fn verify_membership(
    run: &mut Run,
    name: &'static str,
    key_count: usize,
    mut probe: impl FnMut(&[u32], &mut SelectionVector),
) {
    let live = run.oracle.live_keys();
    for chunk in live.chunks(BATCH) {
        run.probe_call(name, &all_present(chunk), &mut probe);
    }
    run.verify(1, u64::from(key_count != live.len()));
}

/// The closing false-positive scan over `probes` absent keys.
fn fpr_scan(
    run: &mut Run,
    name: &'static str,
    probes: usize,
    mut probe: impl FnMut(&[u32], &mut SelectionVector),
) {
    for _ in 0..probes / BATCH {
        let batch = run.absent.batch(BATCH);
        run.fpr_call(name, &batch, &mut probe);
    }
}

fn flat_footprint(stats: &StoreStats) -> Footprint {
    Footprint {
        live_keys: stats.total_keys(),
        filter_bits: stats.total_size_bits(),
        bookkeeping_bytes: stats.total_bookkeeping_bytes(),
        sidecar_bytes: stats.total_counting_sidecar_bytes(),
    }
}

fn record_flat_counts(run: &mut Run, store: &ShardedFilterStore) {
    let stats = store.stats();
    run.footprint = flat_footprint(&stats);
    run.layer
        .insert("store.final_keys", stats.total_keys() as f64);
    run.layer
        .insert("store.rebuilds", stats.total_rebuilds() as f64);
    run.layer.insert(
        "store.bookkeeping_bytes",
        stats.total_bookkeeping_bytes() as f64,
    );
    run.layer
        .insert("store.filter_bytes", (stats.total_size_bits() / 8) as f64);
    // A flat store has no levels to compact.
    run.layer.insert("tiered.compactions", 0.0);
    run.layer.insert("tiered.keys_moved", 0.0);
    track_peaks(run, stats.total_tombstones(), stats.total_overflow());
    run.layer.insert(
        "model.fpr_observed_over_modeled",
        run.fpr() / stats.weighted_modeled_fpr(),
    );
    run.fact("kernel.store", stats.shards[0].kernel);
    run.fact("config.store", &stats.shards[0].config_label);
}

fn track_peaks(run: &mut Run, tombstones: u64, overflow: u64) {
    for (name, value) in [
        ("store.tombstones_peak", tombstones),
        ("store.overflow_peak", overflow),
    ] {
        let peak = run.layer.entry(name).or_insert(0.0);
        *peak = peak.max(value as f64);
    }
}

/// Journal bytes, snapshot bytes and checkpoint generations under a store
/// directory (tiered stores keep one subdirectory per level).
fn record_dir_counts(run: &mut Run, dir: &Path) {
    fn walk(dir: &Path, totals: &mut (u64, u64, u64)) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut newest = std::collections::BTreeMap::new();
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, totals);
                continue;
            }
            let len = entry.metadata().map_or(0, |meta| meta.len());
            let name = entry.file_name();
            match pof_persist::parse_shard_file(&name.to_string_lossy()) {
                Some((shard, generation, FileKind::Snapshot)) => {
                    totals.1 += len;
                    let slot = newest.entry(shard).or_insert(0);
                    *slot = generation.max(*slot);
                }
                Some((_, _, FileKind::Wal)) => totals.0 += len,
                None => {}
            }
        }
        totals.2 += newest.values().sum::<u64>();
    }
    let mut totals = (0, 0, 0);
    walk(dir, &mut totals);
    run.layer.insert("persist.wal_bytes", totals.0 as f64);
    run.layer.insert("persist.snapshot_bytes", totals.1 as f64);
    run.layer.insert("persist.checkpoints", totals.2 as f64);
}

/// Bytes passed to write calls since `before`, per 4-byte acknowledged key.
fn record_write_amplification(run: &mut Run, before: u64, acknowledged_keys: usize) {
    let written = bytes_written().saturating_sub(before);
    run.layer.insert(
        "persist.write_amplification",
        written as f64 / (4.0 * acknowledged_keys as f64),
    );
}

/// Reopen the store directory `reps` times, timing each `open`; the last
/// recovered store is checked against the oracle key by key.
fn reopen_and_verify(run: &mut Run, dir: &Path, options: &StoreOptions, reps: usize) {
    for rep in 0..reps {
        let start = Instant::now();
        let store = ShardedFilterStore::open_with(dir, options.clone(), durable_options())
            .expect("reopen store");
        run.reopen_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if rep + 1 == reps {
            let snapshot = store.snapshot();
            let mut scratch = ProbeScratch::new();
            verify_membership(
                run,
                "reopened.snapshot_probe",
                store.key_count(),
                |k, sel| snapshot.contains_batch_with(k, sel, &mut scratch),
            );
        }
    }
}

/// A volatile workload's durability epilogue: journal its final key set
/// into a durable twin of the same configuration, checkpoint, drop, and
/// reopen.
fn twin_reopen(run: &mut Run, options: &StoreOptions, reps: usize) {
    let dir = run.dir.join("twin");
    let _ = std::fs::remove_dir_all(&dir);
    let live = run.oracle.live_keys();
    let before = bytes_written();
    let twin = ShardedFilterStore::open_with(&dir, options.clone(), durable_options())
        .expect("open durable twin");
    twin.insert_batch(&live);
    twin.persist_checkpoint().expect("checkpoint durable twin");
    record_write_amplification(run, before, live.len());
    record_dir_counts(run, &dir);
    drop(twin);
    reopen_and_verify(run, &dir, options, reps);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Build the ladder of a traced run at `site`, and note its facts.
fn build_ladder(run: &mut Run, site: Site) {
    let ladder = Ladder::build(site, run.oracle.space(), &run.dir);
    for (key, value) in ladder.facts() {
        run.fact(&key, value);
    }
    run.layer.extend(ladder.counts());
    run.ladder = Some(ladder);
}

/// The write, tiered and persistence rungs of a traced run.
fn finish_ladder(run: &mut Run) {
    let Some(mut ladder) = run.ladder.take() else {
        return;
    };
    ladder.probe_rungs(&mut run.tracer, &mut run.sel);
    ladder.write_rungs(&mut run.tracer, 2.0);
    let rates = ladder.persist_rungs(&mut run.tracer);
    run.layer.extend(rates);
    ladder.cleanup();
}

/// Start the next lifecycle from the same inputs as the first.
fn restart_inputs(run: &mut Run) {
    run.oracle.reset();
    run.rng = Rng::new(run.seed);
    run.absent = AbsentStream::new(run.oracle.space());
}

/// Repeat `lifecycle` on fresh state until the window closes, and return
/// what the last one left behind. A traced run first runs one untraced
/// lifecycle (whose outcome becomes the ladder's site), then alternates
/// traced and untraced lifecycles.
fn repeat_lifecycles<T>(
    run: &mut Run,
    mut lifecycle: impl FnMut(&mut Run) -> T,
    site_after_first: impl FnOnce(&Run, &T) -> Site,
) -> T {
    if run.traced {
        let first = lifecycle(run);
        run.end_repetition();
        let site = site_after_first(run, &first);
        drop(first);
        build_ladder(run, site);
    }
    let window = Instant::now();
    let mut iteration = 0usize;
    let mut last = None;
    while iteration == 0 || run.window_open(window) {
        // Drop the previous lifecycle's state first: two resident stores
        // would double the peak the workload reports.
        drop(last.take());
        restart_inputs(run);
        run.tracing_now = run.traced && iteration.is_multiple_of(2);
        last = Some(lifecycle(run));
        run.end_repetition();
        iteration += 1;
    }
    run.tracing_now = false;
    run.fact("lifecycles", iteration);
    last.expect("at least one lifecycle")
}

// ---------------------------------------------------------------------------
// probe_cached / probe_dram
// ---------------------------------------------------------------------------

/// Sizes of a read-only probe workload.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizes {
    /// Keys the store is sized for (sets the filter footprint).
    pub expected_keys: usize,
    /// Keys loaded, in `BATCH`-key insert calls.
    pub loaded_keys: usize,
    /// Times the store is built and loaded; `setup_s` is their median.
    pub setup_reps: usize,
    /// Distinct probe batches cycled through the window.
    pub pool_batches: usize,
    /// Absent keys of the closing false-positive scan.
    pub fpr_probes: usize,
}

/// 2^17-key sizing, 192 KiB of filter (well inside the 2 MiB per-core L2 of
/// the host this was sized on), loaded to
/// 15/16 so no seed tips a shard over its capacity.
pub const PROBE_CACHED: ProbeSizes = ProbeSizes {
    expected_keys: 1 << 17,
    loaded_keys: 30 * BATCH,
    setup_reps: 7,
    pool_batches: 128,
    fpr_probes: 1 << 22,
};

/// 2^23-key sizing, 12 MiB of filter (three L2s; each shard's 6 MiB is past
/// the 2 MiB staged-routing floor), loaded to 3 % because load cost grows
/// quadratically; the false-positive scan is longer because the filter is
/// nearly empty.
pub const PROBE_DRAM: ProbeSizes = ProbeSizes {
    expected_keys: 1 << 23,
    loaded_keys: 1 << 18,
    setup_reps: 3,
    pool_batches: 128,
    fpr_probes: 1 << 24,
};

pub fn probe(run: &mut Run, sizes: ProbeSizes) {
    let mut site = default_site(sizes.expected_keys, BATCH);
    let options = flat_options(&site, SHARDS);
    run.fact("expected_keys", sizes.expected_keys);
    run.fact("loaded_keys", sizes.loaded_keys);
    run.fact("batch", BATCH);
    run.fact("shards", SHARDS);

    let keys = run.oracle.fresh(sizes.loaded_keys);
    let mut store = None;
    let reps = if run.traced { 1 } else { sizes.setup_reps };
    for _ in 0..reps {
        // Free the previous build first: two resident stores would double
        // the peak this workload reports.
        drop(store.take());
        let start = Instant::now();
        let built = ShardedFilterStore::from_options(options.clone());
        for chunk in keys.chunks(BATCH) {
            run.write_call("store.insert_batch", chunk.len(), || {
                built.insert_batch(chunk)
            });
        }
        run.setup_s.push(start.elapsed().as_secs_f64());
        run.end_repetition();
        store = Some(built);
    }
    let store = store.expect("at least one set-up");
    run.oracle.inserted(&keys);

    let pool: Vec<ProbeBatch> = (0..sizes.pool_batches)
        .map(|_| {
            run.absent
                .mixed_batch(&mut run.rng, BATCH, PRESENT_PERMILLE, |rng| {
                    keys[rng.below(keys.len())]
                })
        })
        .collect();
    if run.traced {
        site.keys = keys.clone();
        build_ladder(run, site);
    }

    let snapshot = store.snapshot();
    let mut scratch = ProbeScratch::new();
    let window = Instant::now();
    let mut calls = 0usize;
    while run.window_open(window) {
        // A traced run alternates untraced and traced slices.
        run.tracing_now = run.traced && (calls / SLICE_CALLS) % 2 == 1;
        let batch = &pool[calls % pool.len()];
        run.probe_call("store.snapshot_probe", batch, |k, sel| {
            snapshot.contains_batch_with(k, sel, &mut scratch)
        });
        calls += 1;
        if calls.is_multiple_of(SLICE_CALLS) {
            run.end_repetition();
        }
    }
    run.tracing_now = false;
    run.end_repetition();

    fpr_scan(run, "store.snapshot_probe", sizes.fpr_probes, |k, sel| {
        snapshot.contains_batch_with(k, sel, &mut scratch)
    });
    verify_membership(run, "store.snapshot_probe", store.key_count(), |k, sel| {
        snapshot.contains_batch_with(k, sel, &mut scratch)
    });
    run.end_repetition();
    record_flat_counts(run, &store);
    drop((snapshot, store));
    twin_reopen(run, &options, TWIN_REOPENS);
    finish_ladder(run);
}

// ---------------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------------

/// Keys the churn store is sized for at birth; it grows by doubling.
pub const CHURN_EXPECTED: usize = 1 << 14;
/// Insert batches of the set-up (the backlog deletes lag behind).
pub const CHURN_LAG: usize = 16;
/// Steps of one lifecycle after the set-up.
pub const CHURN_STEPS: usize = 40;
/// Absent keys of the closing false-positive scan of each lifecycle.
pub const CHURN_FPR_PROBES: usize = 1 << 20;

pub fn churn(run: &mut Run) {
    let site = default_site(CHURN_EXPECTED, BATCH);
    let options = flat_options(&site, SHARDS);
    run.top_rung = "store.contains_batch_ns";
    run.fact("expected_keys", CHURN_EXPECTED);
    run.fact("steps", CHURN_STEPS);
    run.fact("lag_batches", CHURN_LAG);
    run.fact("batch", BATCH);
    run.fact("shards", SHARDS);

    let lifecycle = |run: &mut Run| {
        let start = Instant::now();
        let store = ShardedFilterStore::from_options(options.clone());
        let mut backlog: VecDeque<Vec<u32>> = VecDeque::new();
        for _ in 0..CHURN_LAG {
            let fresh = run.oracle.fresh(BATCH);
            run.write_call("store.insert_batch", BATCH, || store.insert_batch(&fresh));
            run.oracle.inserted(&fresh);
            backlog.push_back(fresh);
        }
        run.setup_s.push(start.elapsed().as_secs_f64());

        for step in 0..CHURN_STEPS {
            for _ in 0..2 {
                let fresh = run.oracle.fresh(BATCH);
                run.write_call("store.insert_batch", BATCH, || store.insert_batch(&fresh));
                run.oracle.inserted(&fresh);
                backlog.push_back(fresh);
            }
            let old = backlog.pop_front().expect("backlog holds the lag");
            let removed = run.write_call("store.delete_batch", BATCH, || store.delete_batch(&old));
            run.oracle.deleted(&old);
            run.verify(1, u64::from(removed != old.len()));
            for _ in 0..4 {
                let batch = run
                    .absent
                    .mixed_batch(&mut run.rng, BATCH, PRESENT_PERMILLE, |rng| {
                        let resident = &backlog[rng.below(backlog.len())];
                        resident[rng.below(resident.len())]
                    });
                run.probe_call("store.contains_batch", &batch, |k, sel| {
                    store.contains_batch(k, sel)
                });
            }
            if step % 8 == 7 {
                let stats = store.stats();
                track_peaks(run, stats.total_tombstones(), stats.total_overflow());
                run.write_call("store.maintain", 0, || store.maintain());
            }
        }
        fpr_scan(run, "store.contains_batch", CHURN_FPR_PROBES, |k, sel| {
            store.contains_batch(k, sel)
        });
        verify_membership(run, "store.contains_batch", store.key_count(), |k, sel| {
            store.contains_batch(k, sel)
        });
        store
    };
    // The ladder stands where the churned store ends up.
    let store = repeat_lifecycles(run, lifecycle, |run, _| Site {
        keys: run.oracle.live_keys(),
        ..default_site(run.oracle.live_count().next_power_of_two(), BATCH)
    });
    record_flat_counts(run, &store);
    drop(store);
    // The twin is born at the size the churned store grew to.
    let grown = StoreOptions {
        capacity_per_shard: run.oracle.live_count().next_power_of_two() / SHARDS,
        ..options
    };
    twin_reopen(run, &grown, TWIN_REOPENS);
    finish_ladder(run);
}

// ---------------------------------------------------------------------------
// tiered_lsm
// ---------------------------------------------------------------------------

/// Work a negative probe saves at each level, in cycles: a skipped memtable
/// probe at the hot end, a skipped disk read at the cold end.
pub const TIERED_WORK_SAVED: [f64; 4] = [32.0, 4_096.0, 131_072.0, 16_777_216.0];
/// Level `i` is sized for `2^14 · 8^i` keys.
pub const TIERED_L0_EXPECTED: u64 = 1 << 14;
/// Cold levels are loaded to half their sizing, capped here.
pub const TIERED_LOAD_CAP: u64 = 1 << 17;
pub const TIERED_STEPS: usize = 256;
pub const TIERED_WAVE: usize = 1024;
/// Waves that stay fully resident before half of the oldest is deleted.
pub const TIERED_RESIDENT_WAVES: usize = 4;
/// Half of each hot-phase probe batch is drawn from the resident waves.
pub const TIERED_PRESENT_PERMILLE: usize = 500;
pub const TIERED_COLD_SCAN: usize = 1 << 22;

fn tiered_specs() -> Vec<LevelSpec> {
    TIERED_WORK_SAVED
        .iter()
        .enumerate()
        .map(|(level, &work_saved_cycles)| LevelSpec {
            expected_keys: TIERED_L0_EXPECTED << (3 * level),
            work_saved_cycles,
            delete_rate: if level == 0 { 0.4 } else { 0.0 },
            ..LevelSpec::default()
        })
        .collect()
}

fn tiered_builder() -> TieredStoreBuilder {
    tiered_specs().into_iter().fold(
        TieredStoreBuilder::new().shards_per_level(SHARDS),
        |b, spec| b.level(spec),
    )
}

/// The tiered store journals like an LSM's filter hierarchy would: fsync at
/// checkpoints only (compactions checkpoint both levels they touch).
fn tiered_persist_options() -> PersistOptions {
    PersistOptions {
        fsync: FsyncPolicy::OnCheckpoint,
        ..PersistOptions::durable()
    }
}

fn record_tiered_counts(run: &mut Run, store: &TieredStore) {
    let stats = store.stats();
    let mut footprint = Footprint::default();
    let (mut rebuilds, mut tombstones, mut overflow, mut moved) = (0, 0, 0, 0);
    let mut modeled = 1.0;
    for level in &stats.levels {
        let flat = flat_footprint(&level.store);
        footprint.live_keys += flat.live_keys;
        footprint.filter_bits += flat.filter_bits;
        footprint.bookkeeping_bytes += flat.bookkeeping_bytes;
        footprint.sidecar_bytes += flat.sidecar_bytes;
        rebuilds += level.rebuilds;
        tombstones += level.tombstones;
        overflow += level.store.total_overflow();
        moved += level.compacted_out;
        // An absent key qualifies when any level reports it.
        modeled *= 1.0 - level.store.weighted_modeled_fpr();
        run.fact(
            &format!("level{}", level.level),
            format!(
                "{} @ {} bits/key, {:?} deletes, kernel {}",
                level.config_label,
                level.bits_per_key_budget,
                level.delete_mode,
                level.store.shards[0].kernel
            ),
        );
    }
    run.footprint = footprint;
    run.layer
        .insert("store.final_keys", footprint.live_keys as f64);
    run.layer.insert("store.rebuilds", rebuilds as f64);
    run.layer.insert(
        "store.bookkeeping_bytes",
        footprint.bookkeeping_bytes as f64,
    );
    run.layer
        .insert("store.filter_bytes", (footprint.filter_bits / 8) as f64);
    track_peaks(run, tombstones, overflow);
    run.layer
        .insert("tiered.compactions", stats.compactions as f64);
    run.layer.insert("tiered.keys_moved", moved as f64);
    run.layer.insert(
        "model.fpr_observed_over_modeled",
        run.fpr() / (1.0 - modeled),
    );
}

pub fn tiered(run: &mut Run) {
    run.top_rung = "tiered.cascade_ns";
    run.fact("wave", TIERED_WAVE);
    run.fact("steps", TIERED_STEPS);
    run.fact("load_cap", TIERED_LOAD_CAP);
    run.fact("shards_per_level", SHARDS);
    let dir = run.dir.join("tiered");

    let lifecycle = |run: &mut Run| {
        let _ = std::fs::remove_dir_all(&dir);
        let before = bytes_written();
        let start = Instant::now();
        let store = TieredStore::open_with(&dir, tiered_builder(), tiered_persist_options())
            .expect("open tiered store");
        let level1 = (
            store.level_store(1).config(),
            store.level_store(1).bits_per_key(),
        );
        let mut acknowledged = 0usize;
        for (level, spec) in tiered_specs().iter().enumerate().skip(1) {
            let keys = run
                .oracle
                .fresh((spec.expected_keys / 2).min(TIERED_LOAD_CAP) as usize);
            run.write_call("tiered.load_level", keys.len(), || {
                store.load_level(level, &keys)
            });
            run.oracle.inserted(&keys);
            acknowledged += keys.len();
        }
        run.setup_s.push(start.elapsed().as_secs_f64());

        let mut scratch = TieredProbeScratch::new();
        let mut waves: VecDeque<Vec<u32>> = VecDeque::new();
        for step in 0..TIERED_STEPS {
            let wave = run.oracle.fresh(TIERED_WAVE);
            run.write_call("tiered.insert_batch", wave.len(), || {
                store.insert_batch(&wave)
            });
            run.oracle.inserted(&wave);
            acknowledged += wave.len();
            waves.push_back(wave);
            if waves.len() > TIERED_RESIDENT_WAVES {
                // Half of the oldest wave dies; the other half ages into
                // the hot level until a size-ratio compaction moves it down.
                let old = waves.pop_front().expect("a wave to retire");
                let doomed = &old[..old.len() / 2];
                let removed = run.write_call("tiered.delete_batch", doomed.len(), || {
                    store.delete_batch(doomed)
                });
                run.oracle.deleted(doomed);
                run.verify(1, u64::from(removed != doomed.len()));
                acknowledged += doomed.len();
            }
            let batch =
                run.absent
                    .mixed_batch(&mut run.rng, BATCH, TIERED_PRESENT_PERMILLE, |rng| {
                        let wave = &waves[rng.below(waves.len())];
                        wave[rng.below(wave.len())]
                    });
            run.probe_call("tiered.contains_batch", &batch, |k, sel| {
                store.contains_batch_with(k, sel, &mut scratch)
            });
            if step % 8 == 7 {
                run.write_call("tiered.maintain", 0, || store.maintain());
            }
        }
        fpr_scan(run, "tiered.contains_batch", TIERED_COLD_SCAN, |k, sel| {
            store.contains_batch_with(k, sel, &mut scratch)
        });
        verify_membership(run, "tiered.contains_batch", store.key_count(), |k, sel| {
            store.contains_batch_with(k, sel, &mut scratch)
        });
        run.write_call("tiered.persist_checkpoint", 0, || {
            store.persist_checkpoint().expect("checkpoint tiered store")
        });
        record_tiered_counts(run, &store);
        record_write_amplification(run, before, acknowledged);
        record_dir_counts(run, &dir);
        drop(store);

        let start = Instant::now();
        let reopened = TieredStore::open_with(&dir, tiered_builder(), tiered_persist_options())
            .expect("reopen tiered store");
        run.reopen_ms.push(start.elapsed().as_secs_f64() * 1e3);
        verify_membership(
            run,
            "reopened.contains_batch",
            reopened.key_count(),
            |k, sel| reopened.contains_batch_with(k, sel, &mut scratch),
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
        level1
    };
    // The ladder stands at level 1 — the advisor's cache-sectorized Bloom
    // pick — with the keys the set-up loaded there (the first handed out).
    repeat_lifecycles(run, lifecycle, |run, &(config, bits_per_key)| {
        let FilterConfig::Bloom(config) = config else {
            panic!("the advisor no longer puts level 1 on a Bloom filter");
        };
        let spec = tiered_specs()[1];
        let mut keys = run.oracle.live_keys();
        keys.truncate((spec.expected_keys / 2).min(TIERED_LOAD_CAP) as usize);
        Site {
            config,
            bits_per_key,
            expected_keys: spec.expected_keys as usize,
            shards: SHARDS,
            batch: BATCH,
            present_permille: TIERED_PRESENT_PERMILLE,
            keys,
        }
    });
    finish_ladder(run);
}

// ---------------------------------------------------------------------------
// durable_ingest
// ---------------------------------------------------------------------------

/// Keys the durable store is sized for.
pub const DURABLE_EXPECTED: usize = 1 << 18;
/// Keys bulk-loaded and checkpointed by the set-up, in one call.
pub const DURABLE_BASE: usize = 1 << 15;
/// Keys ingested in journaled batches.
pub const DURABLE_INGEST: usize = 1 << 17;
/// Keys per journaled call.
pub const DURABLE_BATCH: usize = 1024;
/// Keys journaled after the checkpoint, replayed by the reopen.
pub const DURABLE_TAIL: usize = 1 << 15;
pub const DURABLE_FPR_PROBES: usize = 1 << 20;

pub fn durable(run: &mut Run) {
    let site = default_site(DURABLE_EXPECTED, DURABLE_BATCH);
    let options = flat_options(&site, SHARDS);
    run.fact("expected_keys", DURABLE_EXPECTED);
    run.fact("base_keys", DURABLE_BASE);
    run.fact("ingest_keys", DURABLE_INGEST);
    run.fact("tail_keys", DURABLE_TAIL);
    run.fact("batch", DURABLE_BATCH);
    run.fact("shards", SHARDS);
    run.fact(
        "flush_policy",
        "fsync every batch; checkpoint per 64Ki records",
    );
    let dir = run.dir.join("durable");

    let lifecycle = |run: &mut Run| {
        let _ = std::fs::remove_dir_all(&dir);
        let before = bytes_written();
        let start = Instant::now();
        let store = ShardedFilterStore::open_with(&dir, options.clone(), durable_options())
            .expect("open durable store");
        let base = run.oracle.fresh(DURABLE_BASE);
        run.write_call("store.insert_batch", base.len(), || {
            store.insert_batch(&base)
        });
        run.oracle.inserted(&base);
        store.persist_checkpoint().expect("checkpoint base");
        run.setup_s.push(start.elapsed().as_secs_f64());
        let mut acknowledged = base.len();

        let mut backlog: VecDeque<Vec<u32>> = VecDeque::new();
        let mut ingest = |run: &mut Run, batches: usize, acknowledged: &mut usize| {
            for call in 0..batches {
                let fresh = run.oracle.fresh(DURABLE_BATCH);
                run.write_call("store.journaled_insert", fresh.len(), || {
                    store.insert_batch(&fresh)
                });
                run.oracle.inserted(&fresh);
                backlog.push_back(fresh);
                *acknowledged += DURABLE_BATCH;
                if call % 4 == 3 {
                    let old = backlog.pop_front().expect("four batches back");
                    backlog.clear();
                    let removed = run.write_call("store.journaled_delete", old.len(), || {
                        store.delete_batch(&old)
                    });
                    run.oracle.deleted(&old);
                    run.verify(1, u64::from(removed != old.len()));
                    *acknowledged += old.len();
                }
            }
        };
        ingest(run, DURABLE_INGEST / DURABLE_BATCH, &mut acknowledged);
        run.write_call("store.persist_checkpoint", 0, || {
            store.persist_checkpoint().expect("checkpoint ingest")
        });
        ingest(run, DURABLE_TAIL / DURABLE_BATCH, &mut acknowledged);
        record_write_amplification(run, before, acknowledged);
        record_dir_counts(run, &dir);
        drop(store);

        let start = Instant::now();
        let reopened = ShardedFilterStore::open_with(&dir, options.clone(), durable_options())
            .expect("reopen durable store");
        run.reopen_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let snapshot = reopened.snapshot();
        let mut scratch = ProbeScratch::new();
        verify_membership(
            run,
            "store.snapshot_probe",
            reopened.key_count(),
            |k, sel| snapshot.contains_batch_with(k, sel, &mut scratch),
        );
        fpr_scan(run, "store.snapshot_probe", DURABLE_FPR_PROBES, |k, sel| {
            snapshot.contains_batch_with(k, sel, &mut scratch)
        });
        record_flat_counts(run, &reopened);
        drop((snapshot, reopened));
        let _ = std::fs::remove_dir_all(&dir);
    };
    repeat_lifecycles(run, lifecycle, |run, ()| Site {
        keys: run.oracle.live_keys(),
        ..default_site(DURABLE_EXPECTED, DURABLE_BATCH)
    });
    finish_ladder(run);
}
