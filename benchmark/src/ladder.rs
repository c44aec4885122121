//! The outside-in layer ladder of a traced run.
//!
//! A ladder is built once per traced run at the workload's *site* — its
//! filter configuration, budget, sizing and resident keys — and holds one
//! structure per layer, each loaded with the same keys: the bare hash and
//! addressing arithmetic, a standalone filter of every family, an
//! `AnyFilter`, a 1-shard store, the sharded store, a 2-level tiered store
//! over it and a journaled twin. [`Ladder::probe_rungs`] replays one probe
//! stream through them innermost first, so a rung's self time is its span
//! minus the previous rung's on the same batch. The write, tiered and
//! persistence rungs ([`Ladder::write_rungs`], [`Ladder::persist_rungs`])
//! run on keys nothing else uses, and undo what they insert so the site
//! keeps its size.

use crate::keys::{AbsentStream, KeySpace, Rng, LADDER_BASE};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{durable_options, flat_options};
use pof_bloom::{Addressing, BlockedBloom, BloomConfig};
use pof_core::{AnyFilter, FilterConfig, FuseConfig, FuseFilter};
use pof_cuckoo::{CuckooAddressing, CuckooConfig, CuckooFilter};
use pof_filter::probe::{staged_worthwhile_for, ProbePlan};
use pof_filter::{Filter, SelectionVector};
use pof_hash::Modulus;
use pof_persist::{read_wal, write_snapshot, WalOp, WalWriter};
use pof_store::{
    BloomDeleteMode, LevelSpec, ManualCompaction, ProbeScratch, ShardedFilterStore, StoreSnapshot,
    TieredProbeScratch, TieredStore, TieredStoreBuilder,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Bits per key the ladder's Cuckoo filter is sized at: a 16-bit-signature,
/// 2-slot Cuckoo table cannot hold its keys below ~19 bits per key, so it
/// gets the budget the tiered advisor gives its Cuckoo level.
const CUCKOO_BITS_PER_KEY: f64 = 20.0;

/// Batches in the probe stream the read-side rungs replay.
const POOL_BATCHES: usize = 128;

/// Timed passes over the pool per read-side rung (after one untimed pass).
const TIMED_PASSES: usize = 2;

/// Where a ladder stands: the workload's configuration, sizing and keys.
#[derive(Debug, Clone)]
pub struct Site {
    pub config: BloomConfig,
    pub bits_per_key: f64,
    pub expected_keys: usize,
    pub shards: usize,
    pub batch: usize,
    /// Live keys per thousand positions of the workload's probe batches.
    pub present_permille: usize,
    pub keys: Vec<u32>,
}

pub struct Ladder {
    site: Site,
    space: KeySpace,
    modulus: Modulus,
    bloom: BlockedBloom,
    cuckoo: CuckooFilter,
    fuse: FuseFilter,
    any: AnyFilter,
    any_insert: AnyFilter,
    store1: StoreSnapshot,
    /// Level 0 is a small hot level, level 1 the site's sharded store.
    tiered: TieredStore,
    twin: Option<ShardedFilterStore>,
    twin_dir: PathBuf,
    raw_dir: PathBuf,
    plan: ProbePlan,
    scratch: ProbeScratch,
    tiered_scratch: TieredProbeScratch,
    next_fresh: u32,
    write_samples: u64,
    /// The probe stream every read-side rung replays.
    pool: Vec<Vec<u32>>,
}

fn load(store: &ShardedFilterStore, keys: &[u32], batch: usize) {
    for chunk in keys.chunks(batch) {
        store.insert_batch(chunk);
    }
}

impl Ladder {
    pub fn build(site: Site, space: KeySpace, dir: &Path) -> Self {
        // The pool restarts the absent stream: an absent key is absent from
        // every structure, whoever else probed it.
        let mut absent = AbsentStream::new(space);
        let mut rng = Rng::new(u64::from(space.key(0)));
        let pool = (0..POOL_BATCHES)
            .map(|_| {
                absent
                    .mixed_batch(&mut rng, site.batch, site.present_permille, |rng| {
                        site.keys[rng.below(site.keys.len())]
                    })
                    .keys
            })
            .collect();
        let config = FilterConfig::Bloom(site.config);
        let m_bits = (site.expected_keys as f64 * site.bits_per_key).ceil() as u64;
        let modulus = site.config.addressing_for_bits(m_bits);

        let mut bloom =
            BlockedBloom::with_bits_per_key(site.config, site.expected_keys, site.bits_per_key);
        let mut cuckoo = CuckooFilter::with_bits_per_key(
            CuckooConfig::new(16, 2, CuckooAddressing::PowerOfTwo),
            site.expected_keys,
            CUCKOO_BITS_PER_KEY,
        );
        let mut any = AnyFilter::build(&config, site.expected_keys, site.bits_per_key);
        for &key in &site.keys {
            bloom.insert(key);
            any.insert(key);
            assert!(cuckoo.insert(key), "ladder Cuckoo filter refused a key");
        }
        let any_insert = any.clone();
        let fuse = FuseFilter::build(FuseConfig::fuse16(), &site.keys);

        let one_shard = ShardedFilterStore::from_options(flat_options(&site, 1));
        load(&one_shard, &site.keys, site.batch);
        let store1 = one_shard.snapshot();

        let hot = LevelSpec {
            expected_keys: site.batch as u64,
            work_saved_cycles: 32.0,
            delete_rate: 0.4,
            ..LevelSpec::default()
        };
        let cold = LevelSpec {
            expected_keys: site.expected_keys as u64,
            work_saved_cycles: 4096.0,
            ..LevelSpec::default()
        };
        let tiered = TieredStoreBuilder::new()
            .shards_per_level(site.shards)
            .level_pinned(
                hot,
                FilterConfig::Bloom(BloomConfig::register_blocked(64, 5, Addressing::PowerOfTwo)),
                10.0,
                BloomDeleteMode::Counting,
            )
            .level_pinned(cold, config, site.bits_per_key, BloomDeleteMode::Tombstone)
            .compaction(Arc::new(ManualCompaction))
            .build();
        load(tiered.level_store(1), &site.keys, site.batch);
        // A resident wave in the hot level, so the cascade has hits to prune.
        let hot_wave: Vec<u32> = (0..site.batch as u32 / 4)
            .map(|i| space.key(LADDER_BASE + i))
            .collect();
        tiered.insert_batch(&hot_wave);

        let twin_dir = dir.join("ladder-twin");
        let raw_dir = dir.join("ladder-raw");
        let _ = std::fs::remove_dir_all(&twin_dir);
        let _ = std::fs::remove_dir_all(&raw_dir);
        std::fs::create_dir_all(&raw_dir).expect("create ladder directory");
        let twin = ShardedFilterStore::open_with(
            &twin_dir,
            flat_options(&site, site.shards),
            durable_options(),
        )
        .expect("open ladder twin");
        twin.insert_batch(&site.keys);
        twin.persist_checkpoint().expect("checkpoint ladder twin");

        Self {
            next_fresh: LADDER_BASE + site.batch as u32,
            site,
            space,
            modulus,
            bloom,
            cuckoo,
            fuse,
            any,
            any_insert,
            store1,
            tiered,
            twin: Some(twin),
            twin_dir,
            raw_dir,
            plan: ProbePlan::new(),
            scratch: ProbeScratch::new(),
            tiered_scratch: TieredProbeScratch::new(),
            write_samples: 0,
            pool,
        }
    }

    fn flat(&self) -> &ShardedFilterStore {
        self.tiered.level_store(1)
    }

    /// Keys no workload and no earlier rung has used.
    fn fresh(&mut self, n: usize) -> Vec<u32> {
        let start = self.next_fresh;
        self.next_fresh += n as u32;
        (start..self.next_fresh)
            .map(|i| self.space.key(i))
            .collect()
    }

    /// Kernel and routing facts for the result's stamp.
    pub fn facts(&self) -> Vec<(String, String)> {
        let any_bytes = self.any.size_bits() / 8;
        let staged = staged_worthwhile_for(self.any.kind(), self.site.batch, any_bytes);
        let shard_filter = self.flat().snapshot().shard_filter(0).size_bits() / 8;
        let shard_staged = staged_worthwhile_for(
            self.any.kind(),
            self.site.batch / self.site.shards,
            shard_filter,
        );
        let route = |staged: bool| if staged { "staged" } else { "batch" };
        vec![
            ("kernel.bloom".into(), self.bloom.kernel_name().into()),
            ("kernel.cuckoo".into(), self.cuckoo.kernel_name().into()),
            ("kernel.xorfuse".into(), "scalar".into()),
            ("kernel.anyfilter".into(), self.any.kernel_name().into()),
            ("routing.anyfilter".into(), route(staged).into()),
            ("routing.store_shard".into(), route(shard_staged).into()),
            (
                "ladder.bloom_bytes".into(),
                (self.bloom.size_bits() / 8).to_string(),
            ),
            (
                "ladder.cuckoo_bytes".into(),
                (self.cuckoo.size_bits() / 8).to_string(),
            ),
            (
                "ladder.xorfuse_bytes".into(),
                (self.fuse.size_bits() / 8).to_string(),
            ),
        ]
    }

    /// Waste ratios of the ladder's own filters.
    pub fn counts(&self) -> [(&'static str, f64); 2] {
        [
            ("cuckoo.load_factor", self.cuckoo.load_factor()),
            (
                "xorfuse.construction_retries",
                f64::from(self.fuse.construction_retries()),
            ),
        ]
    }

    /// Climb the read side: every rung probes the same pool of batches on
    /// its own structure, one untimed pass to settle the structure into the
    /// cache level it lives at, then [`TIMED_PASSES`] timed ones — one span
    /// per batch, `op` naming the batch so rungs pair up batch by batch.
    ///
    /// Each rung runs alone, as the workload's own probe loop does. (Pushing
    /// every sixteenth batch of the live loop through all rungs was tried
    /// first: at the DRAM site each rung then found its rarely touched
    /// structure evicted and read 2.4x the end-to-end cost.)
    pub fn probe_rungs(&mut self, tracer: &mut Tracer, sel: &mut SelectionVector) {
        let pool = std::mem::take(&mut self.pool);
        let root = tracer.reserve("ladder.probe", 0, 0);
        let modulus = self.modulus;
        let Self {
            bloom,
            cuckoo,
            fuse,
            any,
            store1,
            tiered,
            plan,
            scratch,
            tiered_scratch,
            ..
        } = self;
        let flat = tiered.level_store(1);
        let snapshot = flat.snapshot();
        let hot = tiered.level_store(0).snapshot();
        let mut rung = |name: &'static str, f: &mut dyn FnMut(&[u32], &mut SelectionVector)| {
            for pass in 0..=TIMED_PASSES {
                for (index, keys) in pool.iter().enumerate() {
                    sel.clear();
                    if pass == 0 {
                        f(keys, sel);
                    } else {
                        let op = (index + (pass - 1) * pool.len()) as u64 + 1;
                        tracer.span(name, root, op, keys.len(), || f(keys, sel));
                    }
                    black_box(sel.len());
                }
            }
        };
        rung("hash.hash_ns", &mut |k, _| {
            black_box(k.iter().fold(0u32, |acc, &k| acc ^ pof_hash::hash32(k)));
        });
        rung("hash.address_ns", &mut |k, _| {
            black_box(
                k.iter()
                    .fold(0u32, |acc, &k| acc ^ modulus.reduce(pof_hash::hash32(k))),
            );
        });
        rung("bloom.probe_scalar_ns", &mut |k, sel| {
            bloom.contains_batch_scalar(k, sel)
        });
        rung("bloom.probe_batch_ns", &mut |k, sel| {
            bloom.contains_batch(k, sel)
        });
        rung("bloom.probe_staged_ns", &mut |k, sel| {
            bloom.contains_batch_staged(k, sel, plan)
        });
        rung("cuckoo.probe_scalar_ns", &mut |k, sel| {
            cuckoo.contains_batch_scalar(k, sel)
        });
        rung("cuckoo.probe_batch_ns", &mut |k, sel| {
            cuckoo.contains_batch(k, sel)
        });
        rung("cuckoo.probe_staged_ns", &mut |k, sel| {
            cuckoo.contains_batch_staged(k, sel, plan)
        });
        rung("xorfuse.probe_scalar_ns", &mut |k, sel| {
            fuse.contains_batch_scalar(k, sel)
        });
        rung("xorfuse.probe_batch_ns", &mut |k, sel| {
            fuse.contains_batch(k, sel)
        });
        rung("xorfuse.probe_staged_ns", &mut |k, sel| {
            fuse.contains_batch_staged(k, sel, plan)
        });
        rung("core.anyfilter_probe_ns", &mut |k, sel| {
            any.contains_batch_planned(k, sel, plan)
        });
        rung("store.snapshot1_probe_ns", &mut |k, sel| {
            store1.contains_batch_with(k, sel, scratch)
        });
        rung("store.snapshot_probe_ns", &mut |k, sel| {
            snapshot.contains_batch_with(k, sel, scratch)
        });
        rung("store.contains_batch_ns", &mut |k, sel| {
            flat.contains_batch(k, sel)
        });
        rung("tiered.level_probe_ns", &mut |k, sel| {
            hot.contains_batch_with(k, sel, scratch);
            sel.clear();
            snapshot.contains_batch_with(k, sel, scratch);
        });
        rung("tiered.cascade_ns", &mut |k, sel| {
            tiered.contains_batch_with(k, sel, tiered_scratch)
        });
        tracer.close(root);
        self.pool = pool;
    }

    /// One sample of every write-side rung on a fresh batch, undone
    /// afterwards so the site keeps its size.
    fn write_sample(&mut self, tracer: &mut Tracer) {
        let keys = self.fresh(self.site.batch);
        let n = keys.len();
        self.write_samples += 1;
        let op = self.write_samples;
        let root = tracer.reserve("ladder.write", op, n);
        let any_insert = &mut self.any_insert;
        tracer.span("core.anyfilter_insert_ns", root, op, n, || {
            for &key in &keys {
                black_box(any_insert.insert(key));
            }
        });
        let flat = self.tiered.level_store(1);
        tracer.span("store.insert_ns", root, op, n, || flat.insert_batch(&keys));
        tracer.span("store.delete_ns", root, op, n, || flat.delete_batch(&keys));
        if op.is_multiple_of(4) {
            // Four delete batches of tombstones to purge per shard rebuild.
            tracer.span("store.maintain_ms", root, op, 4 * n, || flat.maintain());
        }
        let twin = self.twin.as_ref().expect("twin is open during write rungs");
        tracer.span("store.journaled_insert_ns", root, op, n, || {
            twin.insert_batch(&keys)
        });
        twin.delete_batch(&keys);
        // A wave lands in the hot level, spills into the site's store, and
        // is deleted again.
        self.tiered.insert_batch(&keys);
        tracer.span("tiered.compact_ms", root, op, n, || self.tiered.compact(0));
        self.tiered.delete_batch(&keys);
        tracer.close(root);
    }

    /// Sample the write-side rungs until `budget_s` is spent (at least
    /// eight samples, at most 64).
    pub fn write_rungs(&mut self, tracer: &mut Tracer, budget_s: f64) {
        let start = Instant::now();
        for sample in 0..64 {
            if sample >= 8 && start.elapsed().as_secs_f64() > budget_s {
                break;
            }
            self.write_sample(tracer);
        }
        self.flat().maintain();
    }

    /// The persistence rungs: raw journal append, fsync, journal read-back
    /// and snapshot write at the site's sizes, then the twin's reopen from
    /// its snapshots alone and with a journal tail to replay. Returns the
    /// three rates that are not a span's length.
    pub fn persist_rungs(&mut self, tracer: &mut Tracer) -> [(&'static str, f64); 3] {
        let n = self.site.batch;
        let wal_path = self.raw_dir.join("raw.wal");
        let mut wal = WalWriter::create(&wal_path).expect("create raw journal");
        for op in 1..=16u64 {
            let keys = self.fresh(n);
            tracer.span("persist.wal_append_ns_per_record", 0, op, n, || {
                wal.append(WalOp::Insert, &keys, false).expect("append")
            });
            tracer.span("persist.fsync_us", 0, op, n, || wal.sync().expect("fsync"));
        }
        let records = wal.records();
        drop(wal);
        let mut read_rates = Vec::new();
        for op in 1..=3u64 {
            let (replay, ns) = tracer.span("persist.read_wal", 0, op, 0, || {
                read_wal(&wal_path).expect("read raw journal")
            });
            assert_eq!(replay.ops.len() as u64, records);
            read_rates.push(records as f64 * 1e3 / ns as f64);
        }

        // One shard's snapshot of the twin, rewritten as the store would.
        let payload = largest_snapshot(&self.twin_dir);
        let mut write_rates = Vec::new();
        for op in 1..=3u64 {
            let path = self.raw_dir.join("raw.snap");
            let ((), ns) = tracer.span("persist.snapshot_write", 0, op, 0, || {
                write_snapshot(&path, &payload, None).expect("write snapshot")
            });
            write_rates.push(payload.len() as f64 * 1e3 / ns as f64);
        }

        let options = flat_options(&self.site, self.site.shards);
        let twin = self.twin.take().expect("twin is open before reopen rungs");
        twin.persist_checkpoint().expect("checkpoint ladder twin");
        drop(twin);
        let mut snapshot_ns = Vec::new();
        for op in 1..=3u64 {
            let (store, ns) = tracer.span("store.reopen_snapshot_ms", 0, op, 0, || {
                ShardedFilterStore::open_with(&self.twin_dir, options.clone(), durable_options())
                    .expect("reopen ladder twin")
            });
            snapshot_ns.push(ns as f64);
            if op == 3 {
                // Leave a journal tail behind for the replay rung.
                for _ in 0..4 {
                    store.insert_batch(&self.fresh(n));
                }
            }
            drop(store);
        }
        let tail_keys = 4 * n;
        let (store, ns) = tracer.span("store.reopen_replay", 0, 1, tail_keys, || {
            ShardedFilterStore::open_with(&self.twin_dir, options.clone(), durable_options())
                .expect("reopen ladder twin with a tail")
        });
        drop(store);
        let replay_ns = (ns as f64 - median(&snapshot_ns)).max(1.0);
        [
            ("persist.snapshot_write_mb_s", median(&write_rates)),
            ("persist.read_wal_mrecords_s", median(&read_rates)),
            (
                "store.reopen_replay_mkeys_s",
                tail_keys as f64 * 1e3 / replay_ns,
            ),
        ]
    }

    /// Remove the ladder's directories.
    pub fn cleanup(&mut self) {
        self.twin = None;
        let _ = std::fs::remove_dir_all(&self.twin_dir);
        let _ = std::fs::remove_dir_all(&self.raw_dir);
    }
}

/// Payload-sized bytes of the largest snapshot file under `dir`.
fn largest_snapshot(dir: &Path) -> Vec<u8> {
    let largest = std::fs::read_dir(dir)
        .expect("list twin directory")
        .filter_map(Result::ok)
        .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "snap"))
        .max_by_key(|entry| entry.metadata().map_or(0, |meta| meta.len()))
        .expect("the twin was checkpointed");
    let bytes = std::fs::read(largest.path()).expect("read snapshot");
    bytes[pof_persist::HEADER_BYTES.min(bytes.len())..].to_vec()
}
