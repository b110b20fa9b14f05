//! Row digests and the reference table they are checked against.
//!
//! A row digest folds every simulated number of a campaign row: the
//! three policies' cycles, the resolved lws, and the auto run's memory,
//! dispatch and port counters plus the issued-instruction count. It
//! leaves out the block-fusion counters (a host-speed mechanism with no
//! effect on cycles) and the DRAM utilisation (derived from counters
//! already folded).
//!
//! `reference/rows.txt` holds the digest of every row a sample can
//! draw, recorded with the program's own campaign runner
//! (`vortex_bench::run_campaign`, execute mode). A seed's expected digest
//! is the fold of its rows' reference digests, so every seed has one.
//! Regenerate the table with `perfbench --record-reference` only when
//! the simulated semantics change on purpose.

use std::collections::HashMap;

use vortex_bench::ConfigRow;

use crate::sample::Topo;

/// 64-bit FNV-1a, kept local so the digest does not depend on the
/// program's own hashing code.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one value.
    pub fn u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The digest folded to 32 bits.
    pub fn finish32(self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// The digest of one campaign row.
pub fn row_digest(row: &ConfigRow) -> u32 {
    let m = &row.mem;
    let d = &row.dispatch;
    [
        row.cycles_naive,
        row.cycles_fixed,
        row.cycles_auto,
        u64::from(row.lws_auto),
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
        row.instructions,
        row.port_accesses,
        row.port_stall_slots,
    ]
    .into_iter()
    .fold(Fnv::new(), Fnv::u64)
    .finish32()
}

/// Folds row digests, in sample order, into a seed digest.
pub fn fold_digests(digests: impl IntoIterator<Item = u32>) -> u32 {
    digests.into_iter().fold(Fnv::new(), |h, d| h.u64(u64::from(d))).finish32()
}

/// Which table a row belongs to: the grid (variant 0) or the
/// micro-architecture pool (variants 1..).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Table {
    /// The 450-configuration grid.
    Grid,
    /// The micro-architecture pool.
    Pool,
}

/// The parsed reference table.
#[derive(Debug, Default)]
pub struct Reference {
    lines: HashMap<(Table, String, usize), Vec<u32>>,
}

/// The committed reference table.
pub const REFERENCE_TEXT: &str = include_str!("../reference/rows.txt");

impl Reference {
    /// Parses the table text: `#` comments, then lines of
    /// `<grid|pool> <kernel> <variant> <8 hex digits per row>`.
    ///
    /// # Errors
    ///
    /// On a malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: malformed", n + 1);
            let mut parts = line.split_whitespace();
            let table = match parts.next() {
                Some("grid") => Table::Grid,
                Some("pool") => Table::Pool,
                _ => return Err(bad()),
            };
            let kernel = parts.next().ok_or_else(bad)?.to_owned();
            let variant: usize = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let hex = parts.next().ok_or_else(bad)?;
            if hex.len() % 8 != 0 || !hex.is_ascii() {
                return Err(bad());
            }
            let digests = (0..hex.len() / 8)
                .map(|i| u32::from_str_radix(&hex[8 * i..8 * i + 8], 16).map_err(|_| bad()))
                .collect::<Result<Vec<u32>, String>>()?;
            lines.insert((table, kernel, variant), digests);
        }
        Ok(Reference { lines })
    }

    /// The committed table.
    ///
    /// # Errors
    ///
    /// When the committed text is malformed.
    pub fn committed() -> Result<Self, String> {
        Self::parse(REFERENCE_TEXT)
    }

    /// The reference digest of `kernel` on variant `variant` of `topo`.
    pub fn expected(&self, kernel: &str, topo: &Topo, variant: usize) -> Option<u32> {
        let (table, index) = if variant == 0 {
            (Table::Grid, topo.grid_index())
        } else {
            (Table::Pool, topo.pool_index()?)
        };
        self.lines.get(&(table, kernel.to_owned(), variant))?.get(index).copied()
    }

    /// Renders a table in the format [`Reference::parse`] reads.
    pub fn render(entries: &[(Table, String, usize, Vec<u32>)]) -> String {
        let mut out = String::from(
            "# Reference row digests for perfbench (see src/rowcheck.rs).\n\
             # <grid|pool> <kernel> <variant> <8 hex digits per row, grid or pool order>\n",
        );
        for (table, kernel, variant, digests) in entries {
            let name = match table {
                Table::Grid => "grid",
                Table::Pool => "pool",
            };
            let hex: String = digests.iter().map(|d| format!("{d:08x}")).collect();
            out.push_str(&format!("{name} {kernel} {variant} {hex}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{grid_sample, uarch_pool};
    use vortex_bench::sweep::{CORE_STEPS, THREAD_STEPS, WARP_STEPS};

    #[test]
    fn table_round_trips() {
        let entries = vec![
            (Table::Grid, "vecadd".to_owned(), 0, vec![1u32, 0xdead_beef]),
            (Table::Pool, "relu".to_owned(), 3, vec![7u32]),
        ];
        let parsed = Reference::parse(&Reference::render(&entries)).unwrap();
        let grid0 = Topo { core: 0, warp: 0, thread: 1 };
        assert_eq!(parsed.expected("vecadd", &grid0, 0), Some(0xdead_beef));
        let pool0 = uarch_pool()[0];
        assert_eq!(parsed.expected("relu", &pool0, 3), Some(7));
        assert_eq!(parsed.expected("relu", &pool0, 2), None);
        assert!(Reference::parse("grid vecadd 0 123").is_err());
    }

    #[test]
    fn committed_table_covers_every_kernel_grid_and_pool_row() {
        let reference = Reference::committed().unwrap();
        for kernel in vortex_bench::kernel_factories(vortex_bench::Scale::Sweep) {
            for core in 0..CORE_STEPS.len() {
                for warp in 0..WARP_STEPS.len() {
                    for thread in 0..THREAD_STEPS.len() {
                        let topo = Topo { core, warp, thread };
                        assert!(reference.expected(kernel.name, &topo, 0).is_some());
                    }
                }
            }
            for topo in uarch_pool() {
                for v in 0..crate::sample::UARCH_VARIANTS {
                    assert!(reference.expected(kernel.name, &topo, v).is_some());
                }
            }
        }
    }

    /// A seed's expected digest: the fold of its rows' reference digests.
    fn seed_digest(reference: &Reference, seed: u64) -> u32 {
        let kernels = vortex_bench::kernel_factories(vortex_bench::Scale::Sweep);
        fold_digests(
            grid_sample(seed)
                .iter()
                .map(|c| reference.expected(kernels[c.kernel].name, &c.topo, 0).unwrap()),
        )
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let reference = Reference::committed().unwrap();
        assert_eq!(seed_digest(&reference, 3), seed_digest(&reference, 3));
        assert_ne!(seed_digest(&reference, 3), seed_digest(&reference, 4));
    }

    /// The committed table agrees with the program's campaign runner.
    #[test]
    fn committed_rows_match_the_campaign_runner() {
        let reference = Reference::committed().unwrap();
        let pool = uarch_pool();
        let topos = [pool[5], pool[16]]; // 2c8w2t and 4c8w4t
        let factories = vortex_bench::kernel_factories(vortex_bench::Scale::Sweep);
        for factory in factories.iter().take(3) {
            for variant in [0, 1] {
                let configs: Vec<_> = topos
                    .iter()
                    .map(|t| crate::sample::uarch_variant(&t.config(), variant))
                    .collect();
                let rows = vortex_bench::run_campaign(factory, &configs, 1).unwrap().rows;
                for (topo, row) in topos.iter().zip(&rows) {
                    let want = reference.expected(factory.name, topo, variant);
                    assert_eq!(want, Some(row_digest(row)), "{} variant {variant}", factory.name);
                }
            }
        }
    }

    #[test]
    fn seed_digest_is_order_sensitive() {
        assert_ne!(fold_digests([1, 2]), fold_digests([2, 1]));
        assert_eq!(fold_digests([1, 2]), fold_digests(vec![1, 2]));
    }
}
