//! The three workloads and the measured and traced runs over them.
//!
//! Every workload is a closed loop of *passes* on one thread: a pass is
//! the seed's whole sample, started again from a fresh store, so every
//! pass does the same work, operation for operation. A run repeats
//! passes until `--seconds` have passed and at least `MIN_PASSES` passes
//! were made, and reports figures per pass built from medians over the
//! passes (see `Phase::typical`).
//!
//! * `sweep_cold`: the Fig. 2 path. Each operation is one (kernel,
//!   configuration) row, simulated in execute mode and written to a
//!   fresh campaign store.
//! * `uarch_replay`: each topology of the sample in two
//!   micro-architecture variants with a fresh trace store. Variant 0
//!   records; variant 1 replays. Each operation is one row.
//! * `campaign_warm`: set-up fills a store with the sample's rows. Each
//!   operation opens that store, answers every row and renders the
//!   report, simulating nothing.
//!
//! The traced run (`--trace 1`) first times passes untraced, then the
//! same passes with spans, then re-times the simulated runs of one pass
//! layer by layer (replay without execution, and a memory-only walk).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use vortex_bench::{cache::campaign_key_from_digest, TraceStore};
use vortex_bench::{render_json, CampaignCache, CampaignResult, ConfigRow, KernelRow, ProbeFile};
use vortex_core::Runtime;
use vortex_trace::{decode_trace, encode_trace};

use crate::procfs::{self, SchedStat};
use crate::rowcheck::{fold_digests, row_digest, Reference};
use crate::rows::{self, measure_row, RowOutcome, RunKind, Slot, Store, SCALE};
use crate::sample::{grid_sample, uarch_sample, uarch_variant, Cell, Topo, UARCH_VARIANTS};
use crate::spans::Tracer;
use crate::stats::{geomean, lower_decile, median, percentile, samples_for};

/// Share of `--seconds` the traced run spends on alternating untraced
/// and traced passes.
const TRACED_SHARE: f64 = 0.5;
/// Most pairs of passes in the traced run.
const TRACED_PASS_CAP: usize = 200;
/// Fewest passes of a measured run, so that every median has a middle.
const MIN_PASSES: usize = 3;
/// Complete set-ups of `campaign_warm` per run; `setup_s` is their
/// median.
const WARM_SETUPS: usize = 3;
/// Warm operations in a `campaign_warm` pass, as many as the rows of a
/// simulating pass, so that every workload's latency percentiles are
/// over 100 operations.
const WARM_OPS: usize = 100;
/// The latency percentile reported beside the median: the highest one
/// with ten samples beyond it among the 100 operations of a
/// simulating pass (see `Phase::typical`).
const TAIL: f64 = 0.90;

/// A workload name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold Fig. 2 sweep.
    SweepCold,
    /// Micro-architecture variants by record and replay.
    UarchReplay,
    /// Report regeneration from a filled store.
    CampaignWarm,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::SweepCold, Workload::UarchReplay, Workload::CampaignWarm];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::UarchReplay => "uarch_replay",
            Workload::CampaignWarm => "campaign_warm",
        }
    }

    /// Whether set-up is repeated through the run. Building the kernels
    /// takes under a millisecond, so it is timed again in short bursts
    /// between passes and `setup_s` is the median over the whole run: a
    /// set-up timed only at start-up reads whichever speed the machine
    /// had in that moment. The warm set-up simulates the whole sample to
    /// fill the store (seconds), so it is instead repeated
    /// `WARM_SETUPS` times before the passes.
    pub fn repeats_setup(self) -> bool {
        self != Workload::CampaignWarm
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output checked out.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The figures, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced run, as JSON lines.
    pub spans_jsonl: Option<String>,
}

/// A row produced in a pass, with where it came from.
struct RowRecord {
    slot: usize,
    topo: Topo,
    variant: usize,
    out: RowOutcome,
}

/// What one pass did.
#[derive(Default)]
struct Pass {
    op_ms: Vec<f64>,
    digests: Vec<u32>,
    rows: Vec<RowRecord>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    store: Option<vortex_bench::CacheCounters>,
    trace_counts: (u64, u64),
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// A prepared workload.
struct Job {
    workload: Workload,
    slots: Vec<Slot>,
    sample: Vec<Cell>,
    dir: PathBuf,
    reference: Rc<Reference>,
    /// `campaign_warm`: the rows the cold fill produced, kernel-major.
    warm: Vec<WarmRow>,
    /// `campaign_warm`: the report text of the first warm pass.
    warm_report: Option<String>,
    /// Set-up operations that failed.
    setup_failures: Vec<String>,
}

struct WarmRow {
    kernel: usize,
    topo: Topo,
    key: u64,
    row: ConfigRow,
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("clearing {}: {e}", dir.display())),
    }
}

impl Job {
    /// Set-up: builds the kernels, draws the sample and (for
    /// `campaign_warm`) fills the store.
    fn prepare(
        workload: Workload,
        seed: u64,
        workdir: &Path,
        reference: Rc<Reference>,
    ) -> Result<Job, String> {
        let slots = rows::build_slots().map_err(|e| e.to_string())?;
        let sample = match workload {
            Workload::SweepCold | Workload::CampaignWarm => grid_sample(seed),
            Workload::UarchReplay => uarch_sample(seed),
        };
        let mut job = Job {
            workload,
            slots,
            sample,
            dir: workdir.join(workload.name()),
            reference,
            warm: Vec::new(),
            warm_report: None,
            setup_failures: Vec::new(),
        };
        if workload == Workload::CampaignWarm {
            job.fill()?;
        }
        Ok(job)
    }

    /// The cold fill of `campaign_warm`. It simulates in `sweep_cold`'s
    /// order, topology by topology, which keeps the peak resident set the
    /// same for every seed (kernel by kernel it depended on the sample);
    /// the rows are then kept kernel-major, like the report.
    fn fill(&mut self) -> Result<(), String> {
        fresh_dir(&self.dir)?;
        let cache = CampaignCache::open(&self.dir).map_err(|e| e.to_string())?;
        let mut tr = Tracer::off();
        for &Cell { kernel, topo } in &self.sample {
            let config = topo.config();
            let slot = &mut self.slots[kernel];
            let what = format!("cold fill of {} on {}", slot.name, topo_name(&topo));
            // Without the row the store cannot be checked: stop.
            let out = measure_row(slot, &config, Store::Campaign(&cache), &mut tr)
                .map_err(|e| format!("{what}: {e}"))?;
            if self.reference.expected(slot.name, &topo, 0) != Some(row_digest(&out.row)) {
                self.setup_failures.push(format!("{what}: row differs from the reference"));
            }
            let key = campaign_key_from_digest(slot.name, SCALE, slot.digest, &config);
            self.warm.push(WarmRow { kernel, topo, key, row: out.row });
        }
        self.warm.sort_by_key(|w| (w.kernel, w.topo.grid_index()));
        cache.flush().map_err(|e| e.to_string())
    }

    /// The warm rows of each kernel that has any, kernel-major.
    fn warm_by_kernel(&self) -> impl Iterator<Item = &[WarmRow]> {
        self.warm.chunk_by(|a, b| a.kernel == b.kernel)
    }

    /// Operations per pass.
    fn ops_per_pass(&self) -> usize {
        match self.workload {
            Workload::SweepCold => self.sample.len(),
            Workload::UarchReplay => self.sample.len() * UARCH_VARIANTS,
            Workload::CampaignWarm => WARM_OPS,
        }
    }

    fn pass(&mut self, tr: &mut Tracer, op_base: u64) -> Result<Pass, String> {
        match self.workload {
            Workload::SweepCold | Workload::UarchReplay => self.sim_pass(tr, op_base),
            Workload::CampaignWarm => self.warm_pass(tr, op_base),
        }
    }

    /// One pass of a simulating workload.
    fn sim_pass(&mut self, tr: &mut Tracer, op_base: u64) -> Result<Pass, String> {
        fresh_dir(&self.dir)?;
        let uarch = self.workload == Workload::UarchReplay;
        let open = tr.begin(if uarch { "bench.tracestore.open" } else { "bench.store.open" });
        let opened = if uarch {
            TraceStore::open(&self.dir).map(|t| (None, Some(t)))
        } else {
            CampaignCache::open(&self.dir).map(|c| (Some(c), None))
        };
        tr.end(open);
        let (cache, traces) = opened.map_err(|e| e.to_string())?;
        let store = match (&cache, &traces) {
            (Some(c), _) => Store::Campaign(c),
            (_, Some(t)) => Store::Traces(t),
            _ => unreachable!("one store is open"),
        };
        let variants = if uarch { UARCH_VARIANTS } else { 1 };
        let mut pass = Pass::default();
        let mut op = op_base;
        for &Cell { kernel: slot_idx, topo } in &self.sample {
            for variant in 0..variants {
                let config = uarch_variant(&topo.config(), variant);
                let slot = &mut self.slots[slot_idx];
                tr.set_op(op);
                op += 1;
                pass.attempted += 1;
                let start = Instant::now();
                let res = measure_row(slot, &config, store, tr);
                // Every operation is timed, failed or not.
                pass.op_ms.push(start.elapsed().as_secs_f64() * 1e3);
                let what = || format!("{} on {} variant {variant}", slot.name, topo_name(&topo));
                let out = match res {
                    Ok(out) => out,
                    Err(e) => {
                        pass.fail(format!("{}: {e}", what()));
                        continue;
                    }
                };
                let digest = row_digest(&out.row);
                pass.digests.push(digest);
                let expected_kind = if variant == 0 { RunKind::Record } else { RunKind::Replay };
                if out.cached {
                    pass.fail(format!("{}: a fresh store answered the row", what()));
                } else if self.reference.expected(slot.name, &topo, variant) != Some(digest) {
                    pass.fail(format!("{}: row digest differs from the reference", what()));
                } else if uarch && out.runs.iter().any(|r| r.kind != expected_kind) {
                    pass.fail(format!("{}: expected every run to {expected_kind:?}", what()));
                }
                pass.rows.push(RowRecord { slot: slot_idx, topo, variant, out });
            }
        }
        pass.store = cache.as_ref().map(CampaignCache::counters);
        pass.trace_counts = traces.as_ref().map_or((0, 0), TraceStore::counters);
        Ok(pass)
    }

    /// One warm pass: [`WARM_OPS`] warm operations.
    fn warm_pass(&mut self, tr: &mut Tracer, op_base: u64) -> Result<Pass, String> {
        let mut pass = Pass::default();
        for op in op_base..op_base + WARM_OPS as u64 {
            self.warm_op(tr, op, &mut pass)?;
        }
        Ok(pass)
    }

    /// One warm operation: open the store, answer every row, render the
    /// report.
    fn warm_op(&mut self, tr: &mut Tracer, op: u64, pass: &mut Pass) -> Result<(), String> {
        tr.set_op(op);
        pass.attempted += 1;
        let start = Instant::now();
        let open = tr.begin("bench.store.open");
        let opened = CampaignCache::open(&self.dir);
        tr.end(open);
        let cache = opened.map_err(|e| e.to_string())?;
        let mut results: Vec<CampaignResult> = Vec::with_capacity(self.slots.len());
        let mut kernels: Vec<KernelRow> = Vec::with_capacity(self.slots.len());
        for mine in self.warm_by_kernel() {
            let slot = &self.slots[mine[0].kernel];
            let mut rows = Vec::with_capacity(mine.len());
            for w in mine {
                let config = w.topo.config();
                rows.extend(
                    tr.time("bench.store.lookup", || cache.lookup(slot.name, w.key, &config)),
                );
            }
            let n = rows.len();
            let result =
                CampaignResult { kernel: slot.name, rows, trace_records: 0, trace_replays: 0 };
            let (port_accesses, port_stall_slots) = result.total_ports();
            kernels.push(KernelRow {
                name: slot.name.to_owned(),
                configs: n,
                util: result.mean_dram_utilization(),
                mem: result.total_mem(),
                dispatch: result.total_dispatch(),
                instructions: result.total_instructions(),
                cache_hits: n as u64,
                port_accesses,
                port_stall_slots,
                ..KernelRow::default()
            });
            results.push(result);
        }
        let file = ProbeFile {
            configs: self.topologies(),
            jobs: 1,
            rows: kernels,
            ..ProbeFile::default()
        }
        .with_cache_totals(&cache.counters());
        let report = tr.time("bench.report.render", || render_json(&file));
        pass.op_ms.push(start.elapsed().as_secs_f64() * 1e3);

        // Checks, outside the timed operation: every row answered and
        // equal to the cold row, and the same report every pass.
        for (result, mine) in results.iter().zip(self.warm_by_kernel()) {
            let cold: Vec<&ConfigRow> = mine.iter().map(|w| &w.row).collect();
            if result.rows.iter().collect::<Vec<_>>() != cold {
                pass.fail(format!("{}: warm rows differ from the cold rows", result.kernel));
            }
            pass.digests.extend(result.rows.iter().map(row_digest));
        }
        match &self.warm_report {
            Some(first) if *first != report => pass.fail("warm report text changed".into()),
            Some(_) => {}
            None => self.warm_report = Some(report),
        }
        pass.store = Some(cache.counters());
        Ok(())
    }

    /// Distinct topologies of the sample.
    fn topologies(&self) -> usize {
        self.sample.iter().map(|c| c.topo).collect::<std::collections::HashSet<_>>().len()
    }

    /// Rows of the sample in pass order (cold rows for `campaign_warm`).
    fn sample_rows<'a>(&'a self, first: &'a Pass) -> Vec<&'a ConfigRow> {
        match self.workload {
            Workload::CampaignWarm => self.warm.iter().map(|w| &w.row).collect(),
            _ => first.rows.iter().map(|r| &r.out.row).collect(),
        }
    }
}

fn topo_name(topo: &Topo) -> String {
    topo.config().topology_name()
}

/// Passes and their totals.
///
/// Only the first pass is kept whole. Later passes are checked against
/// it and reduced to their timings, so that memory does not grow with
/// the number of passes (it would show in `peak_rss_mb`).
#[derive(Default)]
struct Phase {
    first: Option<Pass>,
    /// (wall, on-CPU) seconds of every pass.
    times: Vec<(f64, f64)>,
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    wall_s: f64,
    sched: SchedStat,
}

impl Phase {
    /// Runs one pass and adds it to the totals.
    fn run_pass(&mut self, job: &mut Job, tr: &mut Tracer) -> Result<(), String> {
        let before = procfs::schedstat().map_err(|e| e.to_string())?;
        let start = Instant::now();
        let mut pass = job.pass(tr, (self.passes() * job.ops_per_pass()) as u64)?;
        let wall_s = start.elapsed().as_secs_f64();
        let sched = procfs::schedstat().map_err(|e| e.to_string())?.since(&before);
        self.times.push((wall_s, sched.cpu_s()));
        self.wall_s += wall_s;
        self.sched = self.sched.plus(&sched);
        self.op_ms.extend_from_slice(&pass.op_ms);
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        let mut failures = std::mem::take(&mut pass.failures);
        match &self.first {
            None => self.first = Some(pass),
            Some(first) if first.digests != pass.digests => {
                self.failed += 1;
                failures.push("a later pass produced different rows".into());
            }
            Some(_) => {}
        }
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(failures.into_iter().take(room));
        Ok(())
    }

    fn passes(&self) -> usize {
        self.times.len()
    }

    fn first(&self) -> &Pass {
        self.first.as_ref().expect("at least one pass")
    }

    fn per_pass(&self, total: f64) -> f64 {
        total / self.passes().max(1) as f64
    }

    /// The undisturbed pass. Operation `i` of every pass is the same
    /// operation, so its undisturbed latency is the lower decile of its
    /// latencies over the passes; the pass's wall time is the sum of
    /// those plus the lower decile of the time outside them (store
    /// opening, the benchmark's own checks). Returns that wall time and
    /// the undisturbed latency of each operation (ms).
    ///
    /// On a shared machine, neighbours slow stretches of a run, from
    /// seconds to minutes long and by up to a factor of two, and take a
    /// share of the run that differs from run to run. Noise only ever
    /// adds time, so the low end of repeated timings of one operation is
    /// the estimate of its own cost that depends least on that share: a
    /// median or a mean follows it, and the lower decile, unlike the
    /// minimum, still leaves out one lucky timing once a run has more
    /// than ten passes.
    fn typical(&self, ops_per_pass: usize) -> (f64, Vec<f64>) {
        let passes: Vec<&[f64]> = self.op_ms.chunks(ops_per_pass).collect();
        let op_ms: Vec<f64> = (0..ops_per_pass)
            .map(|i| lower_decile(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
            .collect();
        let outside: Vec<f64> = passes
            .iter()
            .zip(&self.times)
            .map(|(ops, &(wall, _))| wall - ops.iter().sum::<f64>() / 1e3)
            .collect();
        let wall = op_ms.iter().sum::<f64>() / 1e3 + lower_decile(&outside);
        (wall, op_ms)
    }

    /// Median wall seconds of one pass.
    fn median_pass_s(&self) -> f64 {
        let walls: Vec<f64> = self.times.iter().map(|&(wall, _)| wall).collect();
        median(&walls).expect("at least one pass")
    }
}

/// Whether a loop that has run `passes` passes in `elapsed` seconds
/// should stop: the next pass would probably end after `budget`.
fn next_pass_overruns(passes: usize, elapsed: f64, budget: f64) -> bool {
    elapsed + elapsed / passes as f64 > budget
}

/// Run options.
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Sample seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for stores and span files.
    pub workdir: PathBuf,
}

/// Runs one workload and reports.
///
/// # Errors
///
/// When set-up fails or `/proc` is unreadable; failed operations are
/// counted, not returned.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let reference = Rc::new(Reference::committed()?);
    let prepare = || -> Result<(Job, f64), String> {
        let start = Instant::now();
        let job = Job::prepare(opts.workload, opts.seed, &opts.workdir, Rc::clone(&reference))?;
        Ok((job, start.elapsed().as_secs_f64()))
    };
    let (mut job, first_s) = prepare()?;
    let mut setup = SetupClock { times: vec![first_s] };
    let mut fill_rows = job.warm.len();
    if !opts.trace && !opts.workload.repeats_setup() {
        // Each repeat fills a fresh store from scratch and must give the
        // same rows; the last store stays for the passes.
        for _ in 1..WARM_SETUPS {
            // The previous job goes first, so that two never coexist
            // (that would show in `peak_rss_mb`).
            let rows: Vec<ConfigRow> = job.warm.iter().map(|w| w.row.clone()).collect();
            let mut failures = std::mem::take(&mut job.setup_failures);
            drop(job);
            let (again, seconds) = prepare()?;
            job = again;
            setup.times.push(seconds);
            fill_rows += job.warm.len();
            if !job.warm.iter().map(|w| &w.row).eq(rows.iter()) {
                failures.push("a repeated cold fill gave other rows".into());
            }
            failures.append(&mut job.setup_failures);
            job.setup_failures = failures;
        }
    }

    let mut report = if opts.trace {
        traced_run(&mut job, opts.seconds)?
    } else {
        measured_run(&mut job, opts.seconds, &mut setup)?
    };
    // The cold fills' rows are operations too.
    report.attempted += fill_rows as u64;
    report.failed += job.setup_failures.len() as u64;
    report.correct &= job.setup_failures.is_empty();
    for f in job.setup_failures.iter().take(5) {
        report.notes.push(format!("FAILED {f}"));
    }
    report.notes.push(format!(
        "failed_frac {} ({} of {})",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    let peak = procfs::peak_rss_mb().map_err(|e| e.to_string())?;
    if !opts.trace {
        report.metrics.push(Metric { name: "peak_rss_mb", value: peak, unit: "MB" });
    }
    report.notes.insert(
        0,
        format!(
            "workload {} seed {} sample {} rows on {} topologies; set-up {:.4} s (median of {})",
            opts.workload.name(),
            opts.seed,
            job.sample.len(),
            job.topologies(),
            median(&setup.times).expect("one set-up"),
            setup.times.len()
        ),
    );
    fresh_dir(&job.dir)?;
    Ok(report)
}

fn tally(report: &mut Report, phase: &Phase) {
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    for f in &phase.failures {
        if report.notes.len() < 12 {
            report.notes.push(format!("FAILED {f}"));
        }
    }
}

/// Prints the run-quality line: run-queue wait (neighbours inside this
/// machine) and the rest of the wall time spent off the CPU (on a
/// virtual machine, mostly time the host gave the virtual CPU to others).
/// Either above 5 % of the wall time marks the run as contaminated.
fn runq_note(report: &mut Report, sched: &SchedStat, wall_s: f64) {
    let wall_s = wall_s.max(1e-9);
    let runq = sched.runq_s() / wall_s;
    let off_cpu = ((wall_s - sched.cpu_s() - sched.runq_s()) / wall_s).max(0.0);
    report.notes.push(format!(
        "runq_wait_s {:.4} ({:.1} % of wall), other off-CPU time {:.1} % of wall{}",
        sched.runq_s(),
        100.0 * runq,
        100.0 * off_cpu,
        if runq.max(off_cpu) > 0.05 { " CONTAMINATED: the CPU was taken by others" } else { "" }
    ));
}

/// Simulated figures of the sample's rows: the Fig. 2 ratios.
fn speedups(rows: &[&ConfigRow]) -> (f64, f64) {
    let naive = geomean(rows.iter().map(|r| r.ratio_naive())).unwrap_or(f64::NAN);
    let fixed = geomean(rows.iter().map(|r| r.ratio_fixed())).unwrap_or(f64::NAN);
    (naive, fixed)
}

/// Set-up times: the first set-up, then a burst of kernel builds before
/// each pass (see [`Workload::repeats_setup`]).
struct SetupClock {
    times: Vec<f64>,
}

impl SetupClock {
    /// Builds per burst, about 25 ms. A fixed count, not a time budget,
    /// keeps the allocations of a run the same from run to run.
    const BURST_BUILDS: usize = 64;

    /// Times [`Self::BURST_BUILDS`] kernel builds.
    fn burst(&mut self) -> Result<(), String> {
        for _ in 0..Self::BURST_BUILDS {
            let start = Instant::now();
            rows::build_slots().map_err(|e| e.to_string())?;
            self.times.push(start.elapsed().as_secs_f64());
        }
        Ok(())
    }
}

fn measured_run(job: &mut Job, seconds: f64, setup: &mut SetupClock) -> Result<Report, String> {
    let min_ops = samples_for(TAIL);
    let mut tr = Tracer::off();
    // Whole passes, stopping before one that would end past `seconds`,
    // but never before MIN_PASSES passes or before the tail percentile
    // has ten samples beyond it. Set-up bursts run between passes,
    // outside their timing.
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        if job.workload.repeats_setup() {
            setup.burst()?;
        }
        phase.run_pass(job, &mut tr)?;
        let elapsed = start.elapsed().as_secs_f64();
        let enough = phase.passes() >= MIN_PASSES && job.ops_per_pass() >= min_ops;
        if enough && next_pass_overruns(phase.passes(), elapsed, seconds) {
            break;
        }
    }
    let mut report = Report::default();
    tally(&mut report, &phase);

    let first = phase.first();
    let rows = job.sample_rows(first);
    let instructions: u64 = rows.iter().map(|r| r.instructions).sum();
    // A busy neighbour slows stretches of a run; the undisturbed pass
    // leaves them out.
    // Its on-CPU time is its wall time times the share of the run's wall
    // time this process spent on the CPU (schedstat advances in
    // scheduler ticks, too coarse for single operations).
    let (wall, op_ms) = phase.typical(job.ops_per_pass());
    let cpu = wall * phase.sched.cpu_s() / phase.wall_s.max(1e-9);
    let (vs1, vs32) = speedups(&rows);
    let p50 = median(&op_ms).expect("at least one operation");
    let tail = percentile(&op_ms, TAIL).ok_or("too few operations for the tail percentile")?;

    report.correct = report.failed == 0;
    report.notes.push(format!(
        "{} passes, {} operations, op_ms n={} (each operation's lower decile over the passes), \
         seed digest {:08x}",
        phase.passes(),
        report.attempted,
        op_ms.len(),
        fold_digests(first.digests.iter().copied())
    ));
    runq_note(&mut report, &phase.sched, phase.wall_s);
    report.notes.push(
        "sim_speedup_* are simulated by a model never validated against Vortex hardware".into(),
    );
    let rows_per_pass = rows.len() as f64;
    report.metrics = vec![
        Metric { name: "wall_s", value: wall, unit: "s" },
        Metric { name: "cpu_s", value: cpu, unit: "s" },
        Metric {
            name: "host_ns_per_instr",
            value: cpu * 1e9 / instructions.max(1) as f64,
            unit: "ns",
        },
        Metric { name: "configs_per_s", value: rows_per_pass / wall, unit: "1/s" },
        Metric { name: "op_ms_p50", value: p50, unit: "ms" },
        Metric { name: "op_ms_p90", value: tail, unit: "ms" },
        Metric { name: "setup_s", value: median(&setup.times).expect("one set-up"), unit: "s" },
        Metric { name: "sim_speedup_vs_lws1", value: vs1, unit: "x" },
        Metric { name: "sim_speedup_vs_lws32", value: vs32, unit: "x" },
    ];
    Ok(report)
}

/// The per-layer metric names and units, in print order.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("kernels.setup_s", "s"),
    ("kernels.verify_s", "s"),
    ("kernels.record_s", "s"),
    ("core.new_s", "s"),
    ("core.reset_s", "s"),
    ("core.launch_s", "s"),
    ("core.launch_replay_s", "s"),
    ("core.replay_of_executed_s", "s"),
    ("core.launches", "count"),
    ("core.dispatch_rounds", "count"),
    ("core.plan_cache_hits", "count"),
    ("core.plan_cache_misses", "count"),
    ("sim.exec_s", "s"),
    ("sim.timing_s", "s"),
    ("sim.instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.ipc", "instr/cycle"),
    ("sim.lane_util", "ratio"),
    ("mem.walk_s", "s"),
    ("mem.accesses", "count"),
    ("mem.ns_per_access", "ns"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.dram_requests", "count"),
    ("mem.dram_util", "ratio"),
    ("mem.port_stall_slots", "count"),
    ("trace.encode_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.bytes", "bytes"),
    ("bench.tracestore.open_s", "s"),
    ("bench.tracestore.load_s", "s"),
    ("bench.tracestore.save_s", "s"),
    ("bench.tracestore.records", "count"),
    ("bench.tracestore.replays", "count"),
    ("bench.store.open_s", "s"),
    ("bench.store.lookup_s", "s"),
    ("bench.store.insert_s", "s"),
    ("bench.store.flush_s", "s"),
    ("bench.store.bytes_read", "bytes"),
    ("bench.store.bytes_written", "bytes"),
    ("bench.store.hit_ratio", "ratio"),
    ("bench.report.render_s", "s"),
    ("layers.bench_s", "s"),
    ("layers.kernels_s", "s"),
    ("layers.core_s", "s"),
    ("layers.sim_s", "s"),
    ("layers.mem_s", "s"),
    ("layers.trace_s", "s"),
    ("layers.harness_s", "s"),
    ("traced.passes", "count"),
    ("traced.wall_s", "s"),
    ("traced.cpu_s", "s"),
    ("traced.untraced_wall_s", "s"),
    ("traced.untraced_cpu_s", "s"),
    ("traced.overhead_frac", "ratio"),
    ("traced.accounted_frac", "ratio"),
    ("traced.spans", "count"),
    ("run.runq_wait_s", "s"),
];

/// Layer re-timing of one pass's simulated runs (the attribution probe).
#[derive(Default)]
struct Probe {
    replay_of_executed_s: f64,
    walk_s: f64,
    accesses: u64,
    encode_s: f64,
    decode_s: f64,
    bytes: u64,
}

/// Re-times the runs of `pass`: each executed run is recorded (untimed)
/// and replayed on its own configuration (timed), every run's trace is
/// walked through a fresh memory system (timed), and with a trace store
/// each saved trace is encoded and each loaded one decoded (timed).
fn probe(job: &mut Job, pass: &Pass, report: &mut Report) -> Probe {
    let mut tp = Tracer::on();
    let mut probe = Probe::default();
    let traces = match job.workload {
        Workload::UarchReplay => TraceStore::open(&job.dir).ok(),
        _ => None,
    };
    let fail = |report: &mut Report, what: String| {
        report.failed += 1;
        if report.notes.len() < 12 {
            report.notes.push(format!("FAILED probe: {what}"));
        }
    };
    for rec_row in &pass.rows {
        let slot = &mut job.slots[rec_row.slot];
        let config = uarch_variant(&rec_row.topo.config(), rec_row.variant);
        let mut rt = Runtime::new(config);
        rt.load_program(&slot.program);
        for run in &rec_row.out.runs {
            let what = format!("{} on {} {:?}", slot.name, topo_name(&rec_row.topo), run.policy);
            let trace = match (&traces, run.key) {
                (Some(store), Some(key)) => store.load(key),
                _ => {
                    rows::record(slot, &mut rt, run.policy, &mut Tracer::off()).ok().map(|(_, t)| t)
                }
            };
            let Some(trace) = trace else {
                fail(report, format!("{what}: no trace"));
                continue;
            };
            if run.kind != RunKind::Replay {
                match rows::replay(slot, &mut rt, run.policy, &trace, &mut tp) {
                    Ok(out) if out.cycles == run.cycles => {}
                    Ok(_) => fail(report, format!("{what}: replay cycles differ from execution")),
                    Err(e) => fail(report, format!("{what}: {e}")),
                }
            }
            let walk = tp.time("mem.walk", || rows::mem_walk(&trace, &config));
            probe.accesses += walk.accesses;
            if walk.accesses != run.port_accesses {
                fail(
                    report,
                    format!(
                        "{what}: memory walk made {} accesses, the run {}",
                        walk.accesses, run.port_accesses
                    ),
                );
            }
            if let (Some(_), Some(key)) = (&traces, run.key) {
                // Saved traces are encoded once per pass, loaded ones
                // decoded once per replay.
                let bytes = if run.kind == RunKind::Record {
                    let bytes = tp.time("trace.encode", || encode_trace(key, &trace));
                    probe.bytes += bytes.len() as u64;
                    bytes
                } else {
                    encode_trace(key, &trace)
                };
                if run.kind == RunKind::Replay {
                    match tp.time("trace.decode", || decode_trace(&bytes)) {
                        Ok((k, t)) if k == key && t == trace => {}
                        _ => fail(report, format!("{what}: trace does not round-trip")),
                    }
                }
            }
        }
    }
    let selfs = tp.self_seconds();
    let get = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    probe.replay_of_executed_s = get("core.launch_replay");
    probe.walk_s = get("mem.walk");
    probe.encode_s = get("trace.encode");
    probe.decode_s = get("trace.decode");
    probe
}

fn traced_run(job: &mut Job, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    // A warm-up pass first, so that neither side pays first-touch costs;
    // then untraced (A) and traced (B) passes in turn, so that both see
    // the same machine.
    let mut off = Tracer::off();
    let mut tr = Tracer::on();
    let mut warmup = Phase::default();
    warmup.run_pass(job, &mut off)?;
    tally(&mut report, &warmup);
    let (mut a, mut b) = (Phase::default(), Phase::default());
    let start = Instant::now();
    loop {
        a.run_pass(job, &mut off)?;
        b.run_pass(job, &mut tr)?;
        let (pairs, elapsed) = (a.passes(), start.elapsed().as_secs_f64());
        if pairs >= TRACED_PASS_CAP || next_pass_overruns(pairs, elapsed, TRACED_SHARE * seconds) {
            break;
        }
    }
    tally(&mut report, &a);
    tally(&mut report, &b);
    // Each phase checked its passes against its first; the first traced
    // pass must match the first untraced one.
    if b.first().digests != a.first().digests {
        report.failed += 1;
        report.notes.push("FAILED traced rows differ from untraced rows".into());
    }
    // C: layer re-timing of one pass.
    let first = b.first();
    let probe = if job.workload == Workload::CampaignWarm {
        Probe::default()
    } else {
        probe(job, first, &mut report)
    };
    report.attempted += 1;
    report.correct = report.failed == 0;

    let per = |x: f64| x / b.passes() as f64;
    let selfs: BTreeMap<&str, f64> =
        tr.self_seconds().into_iter().map(|(k, v)| (k, per(v))).collect();
    let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let wall = b.per_pass(b.wall_s);
    let top = per(tr.top_level_seconds());

    // Simulated counters of one pass.
    let runs = first.rows.iter().flat_map(|r| r.out.runs.iter().map(move |run| (r, run)));
    let (mut instr, mut lanes, mut lane_slots, mut cycles) = (0u64, 0u64, 0u64, 0u64);
    for (r, run) in runs {
        instr += run.instructions;
        lanes += run.lane_instructions;
        lane_slots += run.instructions * r.out.row.config.threads as u64;
        cycles += run.cycles;
    }
    let rows = job.sample_rows(first);
    let mut mem = vortex_sim::MemStats::default();
    for row in &rows {
        mem.accumulate(&row.mem);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let launches: u64 = rows.iter().map(|r| r.dispatch.launches).sum();
    let rounds: u64 = rows.iter().map(|r| r.dispatch.rounds).sum();
    let (plan_hits, plan_misses) =
        first.rows.iter().fold((0, 0), |(h, m), r| (h + r.out.plan.0, m + r.out.plan.1));
    let stall_slots: u64 = rows.iter().map(|r| r.port_stall_slots).sum();
    let dram_util = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|r| r.dram_utilization).sum::<f64>() / rows.len() as f64
    };
    let store = first.store.unwrap_or_default();
    let lookups = store.hits + store.misses;

    // Host time by layer, per pass.
    let launch = s("core.launch");
    let launch_replay = s("core.launch_replay");
    let exec = (launch - probe.replay_of_executed_s).max(0.0);
    let timing = (probe.replay_of_executed_s + launch_replay - probe.walk_s).max(0.0);
    let load = (s("bench.tracestore.load") - probe.decode_s).max(0.0);
    let save = (s("bench.tracestore.save") - probe.encode_s).max(0.0);
    let store_s = ["open", "lookup", "insert", "flush"].map(|k| s(&format!("bench.store.{k}")));
    let bench_s = store_s.iter().sum::<f64>()
        + s("bench.tracestore.open")
        + load
        + save
        + s("bench.report.render");
    let kernels_s = s("kernels.setup") + s("kernels.verify") + s("kernels.record");
    let core_s = s("core.new") + s("core.reset");
    let sim_s = launch + launch_replay - probe.walk_s.min(launch + launch_replay);
    let mem_s = probe.walk_s.min(launch + launch_replay);
    let trace_s = (s("bench.tracestore.load") - load) + (s("bench.tracestore.save") - save);
    let harness_s = (wall - top).max(0.0);

    let values: BTreeMap<&str, f64> = [
        ("kernels.setup_s", s("kernels.setup")),
        ("kernels.verify_s", s("kernels.verify")),
        ("kernels.record_s", s("kernels.record")),
        ("core.new_s", s("core.new")),
        ("core.reset_s", s("core.reset")),
        ("core.launch_s", launch),
        ("core.launch_replay_s", launch_replay),
        ("core.replay_of_executed_s", probe.replay_of_executed_s),
        ("core.launches", launches as f64),
        ("core.dispatch_rounds", rounds as f64),
        ("core.plan_cache_hits", plan_hits as f64),
        ("core.plan_cache_misses", plan_misses as f64),
        ("sim.exec_s", exec),
        ("sim.timing_s", timing),
        ("sim.instructions", instr as f64),
        ("sim.cycles", cycles as f64),
        ("sim.ipc", ratio(instr, cycles)),
        ("sim.lane_util", ratio(lanes, lane_slots)),
        ("mem.walk_s", probe.walk_s),
        ("mem.accesses", probe.accesses as f64),
        (
            "mem.ns_per_access",
            if probe.accesses == 0 { 0.0 } else { probe.walk_s * 1e9 / probe.accesses as f64 },
        ),
        ("mem.l1_hit_rate", ratio(mem.l1.hits, mem.l1.hits + mem.l1.misses)),
        ("mem.l2_hit_rate", ratio(mem.l2.hits, mem.l2.hits + mem.l2.misses)),
        ("mem.dram_requests", mem.dram_requests as f64),
        ("mem.dram_util", dram_util),
        ("mem.port_stall_slots", stall_slots as f64),
        ("trace.encode_s", probe.encode_s),
        ("trace.decode_s", probe.decode_s),
        ("trace.bytes", probe.bytes as f64),
        ("bench.tracestore.open_s", s("bench.tracestore.open")),
        ("bench.tracestore.load_s", load),
        ("bench.tracestore.save_s", save),
        ("bench.tracestore.records", first.trace_counts.0 as f64),
        ("bench.tracestore.replays", first.trace_counts.1 as f64),
        ("bench.store.open_s", store_s[0]),
        ("bench.store.lookup_s", store_s[1]),
        ("bench.store.insert_s", store_s[2]),
        ("bench.store.flush_s", store_s[3]),
        ("bench.store.bytes_read", store.bytes_read as f64),
        ("bench.store.bytes_written", store.bytes_written as f64),
        ("bench.store.hit_ratio", ratio(store.hits, lookups)),
        ("bench.report.render_s", s("bench.report.render")),
        ("layers.bench_s", bench_s),
        ("layers.kernels_s", kernels_s),
        ("layers.core_s", core_s),
        ("layers.sim_s", sim_s),
        ("layers.mem_s", mem_s),
        ("layers.trace_s", trace_s),
        ("layers.harness_s", harness_s),
        ("traced.passes", b.passes() as f64),
        ("traced.wall_s", wall),
        ("traced.cpu_s", b.per_pass(b.sched.cpu_s())),
        ("traced.untraced_wall_s", a.per_pass(a.wall_s)),
        ("traced.untraced_cpu_s", a.per_pass(a.sched.cpu_s())),
        ("traced.overhead_frac", b.median_pass_s() / a.median_pass_s() - 1.0),
        ("traced.accounted_frac", top / wall),
        ("traced.spans", tr.spans().len() as f64),
        ("run.runq_wait_s", a.sched.runq_s() + b.sched.runq_s()),
    ]
    .into_iter()
    .collect();
    report.metrics =
        PER_LAYER.iter().map(|&(name, unit)| Metric { name, value: values[name], unit }).collect();

    report.notes.push(format!(
        "traced run: {} untraced passes, {} traced passes, {} spans; per-layer figures are per pass",
        a.passes(),
        b.passes(),
        tr.spans().len()
    ));
    report.notes.push(format!(
        "layer split of traced cpu_s {:.4}: bench {bench_s:.4} kernels {kernels_s:.4} core {core_s:.4} \
         sim {sim_s:.4} mem {mem_s:.4} trace {trace_s:.4} harness {harness_s:.4} (s per pass)",
        b.per_pass(b.sched.cpu_s())
    ));
    runq_note(&mut report, &b.sched, b.wall_s);
    report.spans_jsonl = Some(tr.to_jsonl());
    Ok(report)
}
