//! Seeded samples of (kernel, topology) rows.
//!
//! A row's host cost spans three orders of magnitude (under a
//! millisecond to half a second), so a sample of whole topologies gives
//! every seed a different mix of cheap and dear rows, and the row
//! latency percentiles move with the seed. Samples are instead drawn
//! row by row from a *frame*, `reference/strata.txt`: every row a
//! workload can use, in ascending order of measured host cost. The frame
//! is cut into equal strata of neighbouring cost and a seed draws one
//! row from each, so every seed gets the same spread of row costs and a
//! different set of rows. The dearest row and both ends of the topology
//! range, the smallest device with the narrowest warps and the largest
//! with the widest, are in every sample.
//!
//! [`grid_sample`] draws [`GRID_STRATA`] rows of the 450-topology paper
//! grid; [`uarch_sample`] draws [`POOL_STRATA`] rows of the 8-warp pool,
//! each run in [`UARCH_VARIANTS`] variants. Both keep a pass near three
//! to five seconds.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use vortex_bench::sweep::{CORE_STEPS, THREAD_STEPS, WARP_STEPS};
use vortex_bench::{kernel_factories, Scale};
use vortex_rng::Rng;
use vortex_sim::DeviceConfig;

/// Strata of the grid frame, and rows of a grid sample.
pub const GRID_STRATA: usize = 100;

/// Strata of the pool frame, and rows of a micro-architecture sample.
pub const POOL_STRATA: usize = 50;

/// Warp count of every topology in the micro-architecture pool.
pub const UARCH_POOL_WARPS: usize = 8;

/// Variants per topology in `uarch_replay`: variant 0 (the unmodified
/// configuration) records, variant 1 replays.
pub const UARCH_VARIANTS: usize = 2;

/// A grid topology by its step indices.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Topo {
    /// Index into [`CORE_STEPS`].
    pub core: usize,
    /// Index into [`WARP_STEPS`].
    pub warp: usize,
    /// Index into [`THREAD_STEPS`].
    pub thread: usize,
}

impl Topo {
    /// Position in the 450-configuration grid (`paper_sweep` order).
    pub fn grid_index(&self) -> usize {
        (self.core * WARP_STEPS.len() + self.warp) * THREAD_STEPS.len() + self.thread
    }

    /// Position in the micro-architecture pool (topologies with
    /// [`UARCH_POOL_WARPS`] warps, in grid order).
    pub fn pool_index(&self) -> Option<usize> {
        (WARP_STEPS[self.warp] == UARCH_POOL_WARPS)
            .then_some(self.core * THREAD_STEPS.len() + self.thread)
    }

    /// The device configuration of this topology.
    pub fn config(&self) -> DeviceConfig {
        DeviceConfig::with_topology(
            CORE_STEPS[self.core],
            WARP_STEPS[self.warp],
            THREAD_STEPS[self.thread],
        )
    }
}

/// Every topology of the micro-architecture pool, in pool order.
pub fn uarch_pool() -> Vec<Topo> {
    let warp = WARP_STEPS.iter().position(|&w| w == UARCH_POOL_WARPS).expect("pool warp step");
    (0..CORE_STEPS.len())
        .flat_map(|core| (0..THREAD_STEPS.len()).map(move |thread| Topo { core, warp, thread }))
        .collect()
}

/// A (kernel, topology) row of a sample.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Index of the kernel in `kernel_factories` order.
    pub kernel: usize,
    /// The topology.
    pub topo: Topo,
}

/// The sampling frame: the grid and pool rows in ascending host cost.
#[derive(Debug)]
pub struct Frame {
    /// Every (kernel, grid topology) row.
    pub grid: Vec<Cell>,
    /// Every (kernel, pool topology) row.
    pub pool: Vec<Cell>,
}

/// The committed frame.
pub const FRAME_TEXT: &str = include_str!("../reference/strata.txt");

impl Frame {
    /// Parses `<grid|pool> <kernel> <topology> <ms>` lines, skipping `#`
    /// comments, and checks that each table holds every row of its
    /// topologies exactly once.
    ///
    /// # Errors
    ///
    /// On a malformed line, an unknown kernel or topology, or a missing
    /// or repeated row.
    pub fn parse(text: &str) -> Result<Self, String> {
        let kernels: Vec<&str> = kernel_factories(Scale::Sweep).iter().map(|f| f.name).collect();
        let by_name: HashMap<String, Topo> = (0..CORE_STEPS.len())
            .flat_map(|core| {
                (0..WARP_STEPS.len()).flat_map(move |warp| {
                    (0..THREAD_STEPS.len()).map(move |thread| Topo { core, warp, thread })
                })
            })
            .map(|t| (t.config().topology_name(), t))
            .collect();
        let mut frame = Frame { grid: Vec::new(), pool: Vec::new() };
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("strata line {}: {line:?}", n + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [table, kernel, topo, cost] = fields[..] else { return Err(bad()) };
            cost.parse::<f64>().map_err(|_| bad())?;
            let kernel = kernels.iter().position(|&k| k == kernel).ok_or_else(bad)?;
            let topo = *by_name.get(topo).ok_or_else(bad)?;
            match table {
                "grid" => frame.grid.push(Cell { kernel, topo }),
                "pool" if topo.pool_index().is_some() => frame.pool.push(Cell { kernel, topo }),
                _ => return Err(bad()),
            }
        }
        for (name, rows, topos) in
            [("grid", &frame.grid, by_name.len()), ("pool", &frame.pool, uarch_pool().len())]
        {
            let distinct: HashSet<&Cell> = rows.iter().collect();
            if rows.len() != kernels.len() * topos || distinct.len() != rows.len() {
                return Err(format!("strata: the {name} table does not hold every row once"));
            }
        }
        Ok(frame)
    }

    /// The committed frame, parsed once.
    ///
    /// # Panics
    ///
    /// If the committed file does not parse (a unit test checks it does).
    pub fn committed() -> &'static Frame {
        static FRAME: OnceLock<Frame> = OnceLock::new();
        FRAME.get_or_init(|| Frame::parse(FRAME_TEXT).expect("committed strata parse"))
    }
}

/// `rows` cut into `strata` equal strata of neighbouring cost
/// (`rows` is in cost order).
pub fn strata(rows: &[Cell], strata: usize) -> impl Iterator<Item = &[Cell]> {
    let n = rows.len();
    (0..strata).map(move |i| &rows[i * n / strata..(i + 1) * n / strata])
}

/// One row from each stratum, in the order a campaign would run them:
/// topology by topology, kernels in `kernel_factories` order.
///
/// Three rows are in every sample: the dearest row of the table (the
/// draw of the top stratum, whose costs span a factor of two), and both
/// corner topologies, the smallest device with the narrowest warps and
/// the largest with the widest, each with a kernel the seed chooses (the
/// draw of the stratum its row lies in). The largest device and the
/// dearest row's trace set the peak resident set of `uarch_replay`, so
/// this keeps its `peak_rss_mb` and the latency tail of both workloads
/// from depending much on the seed.
fn draw(rng: &mut Rng, rows: &[Cell], count: usize) -> Vec<Cell> {
    let stratum_of = |cell: &Cell| {
        let at = rows.iter().position(|c| c == cell).expect("cell of the frame");
        (0..count).find(|&i| at < (i + 1) * rows.len() / count).expect("a stratum")
    };
    let first = rows.iter().map(|c| c.topo.grid_index()).min().expect("rows");
    let last = rows.iter().map(|c| c.topo.grid_index()).max().expect("rows");
    let mut sample: Vec<Cell> = strata(rows, count).map(|s| *rng.choose(s)).collect();
    sample[count - 1] = *rows.last().expect("rows");
    let mut forced: Vec<usize> = vec![count - 1];
    for corner in [first, last] {
        let candidates: Vec<&Cell> = rows
            .iter()
            .filter(|c| c.topo.grid_index() == corner && !forced.contains(&stratum_of(c)))
            .collect();
        let cell = **rng.choose(&candidates);
        let at = stratum_of(&cell);
        sample[at] = cell;
        forced.push(at);
    }
    sample.sort_by_key(|c| (c.topo.grid_index(), c.kernel));
    sample
}

fn rng_for(seed: u64, salt: u64) -> Rng {
    Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// The grid sample of a seed ([`GRID_STRATA`] rows), shared by
/// `sweep_cold` and `campaign_warm`.
pub fn grid_sample(seed: u64) -> Vec<Cell> {
    draw(&mut rng_for(seed, 0x3a7d_0c55), &Frame::committed().grid, GRID_STRATA)
}

/// The micro-architecture sample of a seed ([`POOL_STRATA`] rows of
/// the pool).
pub fn uarch_sample(seed: u64) -> Vec<Cell> {
    draw(&mut rng_for(seed, 0x0a7c_4e11), &Frame::committed().pool, POOL_STRATA)
}

/// Variant `v` of `base`: functional-unit latencies, cache geometry and
/// DRAM parameters change, the topology never does. Variant 0 is `base`.
/// The family of `speed_probe --uarch`.
pub fn uarch_variant(base: &DeviceConfig, v: usize) -> DeviceConfig {
    let mut c = *base;
    if v == 0 {
        return c;
    }
    let k = v as u64;
    c.timing.alu = 1 + (k & 1);
    c.timing.mul = 2 + k % 5;
    c.timing.div = 12 + 2 * (k % 4);
    c.timing.fpu = 3 + k % 4;
    c.timing.fdiv = 12 + 3 * (k % 3);
    c.timing.fsqrt = 16 + 4 * (k % 3);
    c.timing.branch_bubble = 1 + k % 3;
    c.timing.wspawn = 8 + 4 * (k % 4);
    c.timing.barrier = 2 + k % 4;
    c.mem.l1_latency = 1 + k % 3;
    c.mem.l2_latency = 12 + 6 * (k % 4);
    c.mem.l2_interval = 1 + k % 2;
    c.mem.l1.size_bytes = (8 * 1024) << (k % 3);
    c.mem.l1.ways = 2 << (k % 3);
    c.mem.l2.size_bytes = (128 * 1024) << (k % 3);
    c.mem.dram.latency = 60 + 30 * (k % 4);
    c.mem.dram.interval = 1 + k % 3;
    c.mem.dram.channels = 2 << (k % 3);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_bench::paper_sweep;

    #[test]
    fn same_seed_same_sample() {
        assert_eq!(grid_sample(7), grid_sample(7));
        assert_eq!(uarch_sample(7), uarch_sample(7));
    }

    #[test]
    fn different_seeds_different_samples() {
        let grids: HashSet<Vec<Cell>> = (0..20).map(grid_sample).collect();
        let pools: HashSet<Vec<Cell>> = (0..20).map(uarch_sample).collect();
        assert_eq!((grids.len(), pools.len()), (20, 20));
    }

    #[test]
    fn committed_frame_holds_every_row_once() {
        let frame = Frame::committed();
        assert_eq!(frame.grid.len(), 10 * 450);
        assert_eq!(frame.pool.len(), 10 * 90);
        assert!(frame.pool.iter().all(|c| c.topo.pool_index().is_some()));
        assert!(Frame::parse("grid vecadd 1c2w2t 1.0").is_err(), "incomplete table");
        assert!(Frame::parse("grid nosuch 1c2w2t 1.0").is_err(), "unknown kernel");
    }

    #[test]
    fn samples_take_one_row_from_every_stratum() {
        let frame = Frame::committed();
        for seed in 0..20 {
            for (sample, rows, count) in [
                (grid_sample(seed), &frame.grid, GRID_STRATA),
                (uarch_sample(seed), &frame.pool, POOL_STRATA),
            ] {
                assert_eq!(sample.len(), count);
                for stratum in strata(rows, count) {
                    let hits = sample.iter().filter(|c| stratum.contains(c)).count();
                    assert_eq!(hits, 1, "seed {seed}");
                }
                let order: Vec<_> =
                    sample.iter().map(|c| (c.topo.grid_index(), c.kernel)).collect();
                assert!(order.windows(2).all(|w| w[0] < w[1]), "campaign order");
                let topos: Vec<_> = rows.iter().map(|c| c.topo.grid_index()).collect();
                let (first, last) = (topos.iter().min().unwrap(), topos.iter().max().unwrap());
                assert_eq!(&order[0].0, first, "seed {seed}: smallest device");
                assert_eq!(&order[count - 1].0, last, "seed {seed}: largest device");
                assert!(sample.contains(rows.last().unwrap()), "seed {seed}: dearest row");
            }
        }
    }

    #[test]
    fn indices_match_the_grid_and_pool() {
        let grid = paper_sweep();
        for cell in grid_sample(3) {
            assert_eq!(grid[cell.topo.grid_index()], cell.topo.config());
        }
        let pool = uarch_pool();
        assert_eq!(pool.len(), 90);
        for cell in uarch_sample(3) {
            assert_eq!(pool[cell.topo.pool_index().unwrap()], cell.topo);
            assert_eq!(cell.topo.config().warps, UARCH_POOL_WARPS);
        }
    }

    #[test]
    fn variants_keep_the_topology() {
        let base = DeviceConfig::with_topology(4, 8, 16);
        assert_eq!(uarch_variant(&base, 0), base);
        for v in 1..UARCH_VARIANTS {
            let c = uarch_variant(&base, v);
            assert_ne!(c, base);
            assert_eq!(c.topology_name(), base.topology_name());
        }
    }
}
