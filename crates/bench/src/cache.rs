//! The persistent, content-addressed campaign result store.
//!
//! A campaign row — one kernel on one device configuration under the
//! three mapping policies — is a pure function of *(program words,
//! dataset, configuration, policy set, engine semantics)*. This module
//! stores rows on disk keyed by a canonical FNV-1a/64 digest of exactly
//! those inputs ([`campaign_key`]), so a sweep that has run once never
//! runs again: repeated campaigns, policy studies and CI jobs simulate
//! only the delta.
//!
//! Layout: one JSON-lines shard per kernel (`<dir>/<kernel>.jsonl`), in
//! the same hand-rolled serde-free dialect as the probe shards. Every
//! row carries **all** raw `MemStats`/`DispatchStats` counters (not the
//! derived rates), so results reassembled from the store merge exactly
//! like freshly simulated ones. Writes are atomic (tmp-file + rename via
//! [`crate::persist::atomic_write`]); loads skip truncated or foreign lines, so
//! a store that survived a kill simply re-derives the lost tail.
//!
//! The cache is process-wide opt-in: binaries take a `--cache DIR` flag,
//! and the `VORTEX_CAMPAIGN_CACHE=0` environment escape hatch disables
//! all reuse (every lookup misses, nothing is persisted) without touching
//! command lines. Invalidation is by key construction: the engine
//! semantics version ([`vortex_core::ENGINE_SEMANTICS_VERSION`]) is
//! folded into every digest, so rows written by a semantically different
//! engine can never be returned.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use vortex_asm::Program;
use vortex_core::ENGINE_SEMANTICS_VERSION as SEMVER;
use vortex_core::{digest_device_config, digest_program, DispatchStats, Fnv64};
use vortex_sim::{CacheStats, DeviceConfig, MemStats};

use crate::campaign::{ConfigRow, Scale};
use crate::persist::atomic_write;

/// Computes the content key of one campaign row: the digest of every
/// input the row's cycles and counters are a function of.
///
/// The dataset is identified by `(kernel name, scale)` — kernel inputs
/// are generated from fixed per-kernel seeds, so name and scale pin the
/// exact bytes uploaded to the device. The mapping policy set of a
/// [`ConfigRow`] is the fixed `naive1+fixed32+auto` triple and is folded
/// in literally, so future row shapes cannot alias today's.
pub fn campaign_key(kernel: &str, scale: Scale, program: &Program, config: &DeviceConfig) -> u64 {
    campaign_key_from_digest(kernel, scale, digest_program(program), config)
}

/// [`campaign_key`] with the program digest precomputed (one assembly
/// serves a whole sweep).
pub fn campaign_key_from_digest(
    kernel: &str,
    scale: Scale,
    program_digest: u64,
    config: &DeviceConfig,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u32(SEMVER);
    h.write_str(kernel);
    h.write_str(scale.tag());
    h.write_u64(program_digest);
    h.write_u64(digest_device_config(config));
    h.write_str("naive1+fixed32+auto");
    h.finish()
}

/// Whether campaign caching is enabled in this environment
/// (`VORTEX_CAMPAIGN_CACHE=0` is the escape hatch — see the README's
/// campaign-cache section).
pub fn cache_enabled_by_env() -> bool {
    std::env::var("VORTEX_CAMPAIGN_CACHE").map(|v| v != "0").unwrap_or(true)
}

/// Transport counters of one cache handle: what the store did for this
/// process (all raw sums, so shard reports merge exactly).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the store (simulations avoided).
    pub hits: u64,
    /// Lookups that found nothing (simulations performed by the caller).
    pub misses: u64,
    /// Rows appended by this process.
    pub insertions: u64,
    /// Bytes of shard data read at open time.
    pub bytes_read: u64,
    /// Bytes of shard data written (each atomic flush counts its full
    /// shard rewrite).
    pub bytes_written: u64,
    /// Rows currently resident (all kernels).
    pub entries: u64,
}

/// One kernel's shard: rows by key, ordered so flushed files are
/// deterministic.
#[derive(Debug, Default)]
struct Shard {
    rows: BTreeMap<u64, StoredRow>,
    dirty: bool,
}

#[derive(Debug)]
struct Inner {
    shards: HashMap<String, Shard>,
    hits: u64,
    misses: u64,
    insertions: u64,
    bytes_read: u64,
    bytes_written: u64,
}

/// A handle on an on-disk campaign result store (see the module docs).
///
/// Thread-safe: campaign workers share one handle across threads; all
/// state is behind one mutex (lookups and inserts are microseconds
/// against multi-millisecond simulations).
#[derive(Debug)]
pub struct CampaignCache {
    dir: PathBuf,
    enabled: bool,
    /// Flush the affected shard synchronously on every insert. The
    /// resumable driver turns this on so a kill between two
    /// configurations loses at most the in-flight one; batch probes leave
    /// it off and flush once per kernel.
    autoflush: bool,
    inner: Mutex<Inner>,
}

impl CampaignCache {
    /// Opens (creating if necessary) the store at `dir` and loads every
    /// shard. Unreadable lines — truncated tails from a killed writer,
    /// rows from another engine-semantics version — are skipped.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-read errors (a *corrupt*
    /// store never errors; a *missing or unreadable* one does).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut inner = Inner {
            shards: HashMap::new(),
            hits: 0,
            misses: 0,
            insertions: 0,
            bytes_read: 0,
            bytes_written: 0,
        };
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some(name) = shard_kernel_name(&path) else { continue };
            let text = std::fs::read_to_string(&path)?;
            inner.bytes_read += text.len() as u64;
            let mut shard = Shard::default();
            for line in text.lines() {
                if let Some((key, row)) = StoredRow::parse_line(line) {
                    shard.rows.insert(key, row);
                }
            }
            inner.shards.insert(name, shard);
        }
        Ok(CampaignCache {
            dir,
            enabled: cache_enabled_by_env(),
            autoflush: false,
            inner: Mutex::new(inner),
        })
    }

    /// Enables per-insert synchronous flushing (see the field docs).
    pub fn with_autoflush(mut self, autoflush: bool) -> Self {
        self.autoflush = autoflush;
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether lookups can hit (false under `VORTEX_CAMPAIGN_CACHE=0`).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Fetches the stored row for `key`, counting a hit or miss. The
    /// caller's `config` becomes the returned row's configuration (it is
    /// part of the key's preimage); a stored topology mismatch — only
    /// possible on a digest collision — is treated as a miss.
    pub fn lookup(&self, kernel: &str, key: u64, config: &DeviceConfig) -> Option<ConfigRow> {
        if !self.enabled {
            return None;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        let row = inner
            .shards
            .get(kernel)
            .and_then(|s| s.rows.get(&key))
            .filter(|r| r.topo == config.topology_name())
            .map(|r| r.to_config_row(*config));
        match row {
            Some(row) => {
                inner.hits += 1;
                Some(row)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// [`lookup`](CampaignCache::lookup) without touching the hit/miss
    /// counters — for assembling final results from rows already known
    /// to be present.
    pub fn get(&self, kernel: &str, key: u64, config: &DeviceConfig) -> Option<ConfigRow> {
        if !self.enabled {
            return None;
        }
        let inner = self.inner.lock().expect("cache lock");
        inner
            .shards
            .get(kernel)
            .and_then(|s| s.rows.get(&key))
            .filter(|r| r.topo == config.topology_name())
            .map(|r| r.to_config_row(*config))
    }

    /// Whether `key` is resident (no counter traffic).
    pub fn contains(&self, kernel: &str, key: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let inner = self.inner.lock().expect("cache lock");
        inner.shards.get(kernel).is_some_and(|s| s.rows.contains_key(&key))
    }

    /// Stores a freshly simulated row. With autoflush on, the kernel's
    /// shard is atomically rewritten before this returns (I/O failures
    /// degrade to in-memory-only with a warning — simulation results are
    /// never discarded over a persistence error).
    pub fn insert(&self, kernel: &str, key: u64, row: &ConfigRow) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        let shard = inner.shards.entry(kernel.to_owned()).or_default();
        shard.rows.insert(key, StoredRow::of_config_row(row));
        shard.dirty = true;
        inner.insertions += 1;
        if self.autoflush {
            if let Err(e) = flush_kernel(&self.dir, &mut inner, kernel) {
                eprintln!("campaign cache: flushing {kernel} shard failed: {e}");
            }
        }
    }

    /// Atomically rewrites every dirty shard.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O failure; remaining dirty shards keep
    /// their data in memory and stay flushable.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("cache lock");
        let kernels: Vec<String> =
            inner.shards.iter().filter(|(_, s)| s.dirty).map(|(k, _)| k.clone()).collect();
        for kernel in kernels {
            flush_kernel(&self.dir, &mut inner, &kernel)?;
        }
        Ok(())
    }

    /// This handle's transport counters.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.inner.lock().expect("cache lock");
        CacheCounters {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            bytes_read: inner.bytes_read,
            bytes_written: inner.bytes_written,
            entries: inner.shards.values().map(|s| s.rows.len() as u64).sum(),
        }
    }

    /// Absorbs every row of the store at `dir` into this handle — the
    /// multi-process campaign merge: each worker process writes a
    /// private store, and the parent absorbs them so the final sweep
    /// assembles entirely from residency. Rows already present win on
    /// key collision (same key ⇒ same content by construction, so the
    /// choice is immaterial); foreign-semver and truncated lines are
    /// skipped exactly as in [`open`](CampaignCache::open). Returns the
    /// number of rows newly added.
    ///
    /// # Errors
    ///
    /// Propagates directory- and file-read errors on `dir`.
    pub fn absorb_dir(&self, dir: &Path) -> io::Result<usize> {
        if !self.enabled {
            return Ok(0);
        }
        let mut added = 0;
        let mut inner = self.inner.lock().expect("cache lock");
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = shard_kernel_name(&path) else { continue };
            let text = std::fs::read_to_string(&path)?;
            inner.bytes_read += text.len() as u64;
            let shard = inner.shards.entry(name).or_default();
            for line in text.lines() {
                if let Some((key, row)) = StoredRow::parse_line(line) {
                    if let std::collections::btree_map::Entry::Vacant(slot) = shard.rows.entry(key)
                    {
                        slot.insert(row);
                        shard.dirty = true;
                        added += 1;
                    }
                }
            }
        }
        inner.insertions += added as u64;
        Ok(added)
    }

    /// Resident row count per kernel, sorted by kernel name (store
    /// inspection — the `throughput --cache` summary).
    pub fn entries_by_kernel(&self) -> Vec<(String, usize)> {
        let inner = self.inner.lock().expect("cache lock");
        let mut out: Vec<(String, usize)> =
            inner.shards.iter().map(|(k, s)| (k.clone(), s.rows.len())).collect();
        out.sort();
        out
    }
}

/// Rewrites one kernel's shard file atomically and clears its dirty bit.
fn flush_kernel(dir: &Path, inner: &mut Inner, kernel: &str) -> io::Result<()> {
    let Some(shard) = inner.shards.get_mut(kernel) else { return Ok(()) };
    let mut text = String::new();
    for (key, row) in &shard.rows {
        row.render_line(*key, &mut text);
    }
    atomic_write(&dir.join(format!("{kernel}.jsonl")), &text)?;
    shard.dirty = false;
    inner.bytes_written += text.len() as u64;
    Ok(())
}

/// `<dir>/<kernel>.jsonl` → `kernel` (anything else is not a shard).
fn shard_kernel_name(path: &Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let kernel = name.strip_suffix(".jsonl")?;
    if kernel.is_empty() {
        None
    } else {
        Some(kernel.to_owned())
    }
}

/// One stored campaign row: everything a [`ConfigRow`] carries except
/// the device configuration (which is the lookup key's preimage and is
/// supplied by the caller on a hit). All counters are raw.
#[derive(Clone, Debug, PartialEq)]
struct StoredRow {
    topo: String,
    cycles_naive: u64,
    cycles_fixed: u64,
    cycles_auto: u64,
    lws_auto: u32,
    dram_utilization: f64,
    mem: MemStats,
    dispatch: DispatchStats,
    instructions: u64,
    port_accesses: u64,
    port_stall_slots: u64,
}

impl StoredRow {
    fn of_config_row(row: &ConfigRow) -> Self {
        StoredRow {
            topo: row.config.topology_name(),
            cycles_naive: row.cycles_naive,
            cycles_fixed: row.cycles_fixed,
            cycles_auto: row.cycles_auto,
            lws_auto: row.lws_auto,
            dram_utilization: row.dram_utilization,
            mem: row.mem,
            dispatch: row.dispatch,
            instructions: row.instructions,
            port_accesses: row.port_accesses,
            port_stall_slots: row.port_stall_slots,
        }
    }

    fn to_config_row(&self, config: DeviceConfig) -> ConfigRow {
        ConfigRow {
            config,
            cycles_naive: self.cycles_naive,
            cycles_fixed: self.cycles_fixed,
            cycles_auto: self.cycles_auto,
            lws_auto: self.lws_auto,
            dram_utilization: self.dram_utilization,
            mem: self.mem,
            dispatch: self.dispatch,
            instructions: self.instructions,
            port_accesses: self.port_accesses,
            port_stall_slots: self.port_stall_slots,
        }
    }

    /// Appends this row as one JSON line. `dram_utilization` uses Rust's
    /// shortest-roundtrip float formatting, so the parsed value is
    /// bit-exact — warm results must be byte-identical to cold ones.
    fn render_line(&self, key: u64, out: &mut String) {
        use std::fmt::Write;
        let m = &self.mem;
        let d = &self.dispatch;
        writeln!(
            out,
            "{{\"key\": \"{key:016x}\", \"semver\": {SEMVER}, \"topo\": \"{}\", \
             \"cycles_naive\": {}, \"cycles_fixed\": {}, \"cycles_auto\": {}, \
             \"lws_auto\": {}, \"dram_utilization\": {}, \
             \"loads\": {}, \"stores\": {}, \
             \"l1_hits\": {}, \"l1_misses\": {}, \"l1_evictions\": {}, \
             \"l2_hits\": {}, \"l2_misses\": {}, \"l2_evictions\": {}, \
             \"dram_requests\": {}, \
             \"launches\": {}, \"dispatch_rounds\": {}, \"round_tasks\": {}, \
             \"instructions\": {}, \"issued_instructions\": {}, \
             \"port_accesses\": {}, \"port_stall_slots\": {}}}",
            self.topo,
            self.cycles_naive,
            self.cycles_fixed,
            self.cycles_auto,
            self.lws_auto,
            self.dram_utilization,
            m.loads,
            m.stores,
            m.l1.hits,
            m.l1.misses,
            m.l1.evictions,
            m.l2.hits,
            m.l2.misses,
            m.l2.evictions,
            m.dram_requests,
            d.launches,
            d.rounds,
            d.round_tasks,
            d.instructions,
            self.instructions,
            self.port_accesses,
            self.port_stall_slots,
        )
        .expect("writing to String cannot fail");
    }

    /// Parses one shard line. Returns `None` for anything unusable — a
    /// truncated tail, a foreign semantics version, a malformed field —
    /// so a damaged store degrades to extra simulation, never to an
    /// error or a wrong result.
    fn parse_line(line: &str) -> Option<(u64, StoredRow)> {
        if !(line.starts_with('{') && line.ends_with('}')) {
            return None;
        }
        fn field<T: std::str::FromStr>(obj: &str, key: &str) -> Option<T> {
            let pat = format!("\"{key}\": ");
            let at = obj.find(&pat)?;
            let rest = &obj[at + pat.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().trim_matches('"').parse().ok()
        }
        let semver: u32 = field(line, "semver")?;
        if semver != SEMVER {
            return None;
        }
        let key = u64::from_str_radix(&field::<String>(line, "key")?, 16).ok()?;
        let mem = MemStats {
            loads: field(line, "loads")?,
            stores: field(line, "stores")?,
            l1: CacheStats {
                hits: field(line, "l1_hits")?,
                misses: field(line, "l1_misses")?,
                evictions: field(line, "l1_evictions")?,
            },
            l2: CacheStats {
                hits: field(line, "l2_hits")?,
                misses: field(line, "l2_misses")?,
                evictions: field(line, "l2_evictions")?,
            },
            dram_requests: field(line, "dram_requests")?,
        };
        let dispatch = DispatchStats {
            launches: field(line, "launches")?,
            rounds: field(line, "dispatch_rounds")?,
            round_tasks: field(line, "round_tasks")?,
            instructions: field(line, "instructions")?,
        };
        Some((
            key,
            StoredRow {
                topo: field(line, "topo")?,
                cycles_naive: field(line, "cycles_naive")?,
                cycles_fixed: field(line, "cycles_fixed")?,
                cycles_auto: field(line, "cycles_auto")?,
                lws_auto: field(line, "lws_auto")?,
                dram_utilization: field(line, "dram_utilization")?,
                mem,
                dispatch,
                // Issued-instruction and port counters post-date the
                // store format; rows written before they existed parse
                // as zero (the counters were zero-reported then, so
                // merges stay exact).
                instructions: field(line, "issued_instructions").unwrap_or(0),
                port_accesses: field(line, "port_accesses").unwrap_or(0),
                port_stall_slots: field(line, "port_stall_slots").unwrap_or(0),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row(topo: &str, scale: u64) -> ConfigRow {
        let config: DeviceConfig = topo.parse().unwrap();
        let mem = MemStats {
            loads: 11 * scale,
            stores: 5 * scale,
            l1: CacheStats { hits: 100 * scale, misses: 10 * scale, evictions: 2 * scale },
            l2: CacheStats { hits: 8 * scale, misses: 2 * scale, evictions: scale },
            dram_requests: 3 * scale,
        };
        ConfigRow {
            config,
            cycles_naive: 1000 * scale,
            cycles_fixed: 900 * scale,
            cycles_auto: 800 * scale,
            lws_auto: 4,
            dram_utilization: 0.123456789012345,
            mem,
            dispatch: DispatchStats {
                launches: scale,
                rounds: 4 * scale,
                round_tasks: 32 * scale,
                instructions: 1000 * scale,
            },
            instructions: 3500 * scale,
            port_accesses: 60 * scale,
            port_stall_slots: 7 * scale,
        }
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vortex_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn row_roundtrips_bit_exactly_through_a_line() {
        let row = sample_row("4c8w16t", 3);
        let stored = StoredRow::of_config_row(&row);
        let mut line = String::new();
        stored.render_line(0xdead_beef_0123_4567, &mut line);
        let (key, parsed) = StoredRow::parse_line(line.trim_end()).unwrap();
        assert_eq!(key, 0xdead_beef_0123_4567);
        assert_eq!(parsed, stored);
        // f64 exactness is the load-bearing part: bit-identical, not close.
        assert_eq!(parsed.dram_utilization.to_bits(), row.dram_utilization.to_bits());
        let old = with_fusion_counters(&line);
        assert_ne!(old, line);
        assert_eq!(StoredRow::parse_line(old.trim_end()), Some((key, stored)));
    }

    /// `text` as written while the store still carried the block-fusion
    /// counters: every line has two extra dispatch fields.
    fn with_fusion_counters(text: &str) -> String {
        text.replace(
            "\"issued_instructions\"",
            "\"fused_instructions\": 40, \"fused_blocks\": 8, \"issued_instructions\"",
        )
    }

    #[test]
    fn foreign_semver_and_garbage_lines_are_skipped() {
        let row = sample_row("1c2w2t", 1);
        let mut line = String::new();
        StoredRow::of_config_row(&row).render_line(1, &mut line);
        let foreign = line.replace(&format!("\"semver\": {SEMVER}"), "\"semver\": 999999");
        assert!(StoredRow::parse_line(foreign.trim_end()).is_none());
        assert!(StoredRow::parse_line("").is_none());
        assert!(StoredRow::parse_line("{\"key\": \"0000000000000001\", \"semv").is_none());
        assert!(StoredRow::parse_line("not json at all").is_none());
    }

    #[test]
    fn store_roundtrips_and_counts() {
        let dir = temp_store("roundtrip");
        let cache = CampaignCache::open(&dir).unwrap();
        let row = sample_row("2c4w8t", 2);
        let key = 42u64;
        assert!(cache.lookup("vecadd", key, &row.config).is_none());
        cache.insert("vecadd", key, &row);
        cache.flush().unwrap();
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.insertions, c.entries), (0, 1, 1, 1));
        assert!(c.bytes_written > 0);

        // A fresh handle reads the flushed shard back, bit-exact.
        let reopened = CampaignCache::open(&dir).unwrap();
        let hit = reopened.lookup("vecadd", key, &row.config).expect("persisted row");
        assert_eq!(hit.cycles_auto, row.cycles_auto);
        assert_eq!(hit.dram_utilization.to_bits(), row.dram_utilization.to_bits());
        assert_eq!(hit.mem, row.mem);
        assert_eq!(hit.dispatch, row.dispatch);
        assert_eq!(reopened.counters().bytes_read, cache.counters().bytes_written);
        // Wrong key and wrong kernel miss.
        assert!(reopened.lookup("vecadd", 43, &row.config).is_none());
        assert!(reopened.lookup("relu", key, &row.config).is_none());
        // A shard written while the store carried the block-fusion
        // counters answers warm with the same row.
        let path = dir.join("vecadd.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, with_fusion_counters(&text)).unwrap();
        let old = CampaignCache::open(&dir).unwrap();
        assert_eq!(old.lookup("vecadd", key, &row.config), Some(hit));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_shard_tail_degrades_to_a_miss() {
        let dir = temp_store("truncated");
        let cache = CampaignCache::open(&dir).unwrap();
        cache.insert("vecadd", 1, &sample_row("1c2w2t", 1));
        cache.insert("vecadd", 2, &sample_row("1c2w4t", 2));
        cache.flush().unwrap();
        // Simulate a kill mid-write of the final line.
        let path = dir.join("vecadd.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 40]).unwrap();
        let reopened = CampaignCache::open(&dir).unwrap();
        assert_eq!(reopened.counters().entries, 1, "only the intact line survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_keys_separate_all_inputs() {
        let program =
            crate::campaign::kernel_factories(Scale::Sweep)[0].make_kernel().build().unwrap();
        let c1: DeviceConfig = "1c2w2t".parse().unwrap();
        let c2: DeviceConfig = "1c2w4t".parse().unwrap();
        let k = |kernel: &str, scale, config| campaign_key(kernel, scale, &program, config);
        let base = k("vecadd", Scale::Sweep, &c1);
        assert_eq!(base, k("vecadd", Scale::Sweep, &c1), "stable across calls");
        assert_ne!(base, k("vecadd", Scale::Sweep, &c2), "config must re-key");
        assert_ne!(base, k("relu", Scale::Sweep, &c1), "kernel name must re-key");
        assert_ne!(base, k("vecadd", Scale::Paper, &c1), "dataset scale must re-key");
    }

    #[test]
    fn env_escape_hatch_reports_disabled() {
        // The env var is process-global, so only exercise the pure logic.
        assert!(cache_enabled_by_env() || std::env::var("VORTEX_CAMPAIGN_CACHE").is_ok());
    }
}
