//! Producing one campaign row: one kernel on one configuration under
//! the three lws policies.
//!
//! The steps are those of the program's campaign runner: look the row up
//! in the campaign store, build a runtime, run each distinct policy
//! mapping once (by execution, or with a trace store by record or
//! replay), assemble the row and store it. They run here, on the calling
//! thread, so `/proc/self/schedstat` sees all of the work.
//!
//! With the tracer off, each policy run goes through the `kernels`
//! crate's public run, record and replay functions. With it on, the same
//! run is taken apart at the layer boundaries (`Runtime::reset`,
//! `Kernel::setup`, `Runtime::launch_with`/`launch_replay`,
//! `Kernel::verify`) and each call gets a span. Both paths must give the
//! same row, and every row is checked against the reference table.

use std::fmt;

use vortex_asm::Program;
use vortex_bench::cache::campaign_key_from_digest;
use vortex_bench::{kernel_factories, trace_key, CampaignCache, ConfigRow, Scale, TraceStore};
use vortex_core::{digest_program, DispatchStats, LaunchParams, LaunchReport, LwsPolicy, Runtime};
use vortex_kernels::{
    record_kernel_prepared, replay_kernel_prepared, run_kernel_prepared, Kernel, KernelError,
    RunOutcome,
};
use vortex_mem::{coalesce_lines, MemSystem};
use vortex_sim::{DeviceConfig, NullSink, RecordedTrace, TraceRecorder, WarpEvent};

use crate::spans::Tracer;

/// The dataset scale of every workload.
pub const SCALE: Scale = Scale::Sweep;

/// Why an operation failed.
#[derive(Debug)]
pub enum Failure {
    /// Assembly, launch or verification failed.
    Kernel(KernelError),
    /// A replay did not reproduce its execution, or a store gave back a
    /// different row.
    Diverged(String),
    /// Store or trace-store I/O failed.
    Io(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Kernel(e) => write!(f, "kernel: {e}"),
            Failure::Diverged(s) => write!(f, "divergence: {s}"),
            Failure::Io(s) => write!(f, "I/O: {s}"),
        }
    }
}

impl From<KernelError> for Failure {
    fn from(e: KernelError) -> Self {
        Failure::Kernel(e)
    }
}

/// One kernel, built once: its instance (holding the generated dataset),
/// its assembled program and the program's digest.
pub struct Slot {
    /// Kernel name.
    pub name: &'static str,
    /// The instance.
    pub kernel: Box<dyn Kernel>,
    /// The assembled program.
    pub program: Program,
    /// Digest of the program (part of store and trace keys).
    pub digest: u64,
}

/// Builds the ten campaign kernels: dataset generation and assembly.
///
/// # Errors
///
/// On an assembly failure.
pub fn build_slots() -> Result<Vec<Slot>, Failure> {
    kernel_factories(SCALE)
        .into_iter()
        .map(|factory| {
            let kernel = factory.make_kernel();
            let program = kernel.build().map_err(KernelError::from)?;
            let digest = digest_program(&program);
            Ok(Slot { name: factory.name, kernel, program, digest })
        })
        .collect()
}

/// Where rows and traces are kept while a row is produced.
#[derive(Clone, Copy)]
pub enum Store<'a> {
    /// A campaign store: looked up first, filled after simulating.
    Campaign(&'a CampaignCache),
    /// A trace store: each policy run replays a stored trace or records
    /// one.
    Traces(&'a TraceStore),
}

/// How a policy run was measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// Executed without recording.
    Execute,
    /// Executed and recorded.
    Record,
    /// Replayed from a stored trace.
    Replay,
}

/// One policy run of a row, as needed to re-time it later.
#[derive(Clone, Debug)]
pub struct RunInfo {
    /// The policy.
    pub policy: LwsPolicy,
    /// How it was measured.
    pub kind: RunKind,
    /// The trace key (with a trace store).
    pub key: Option<u64>,
    /// The run's cycles.
    pub cycles: u64,
    /// The run's memory-port accesses.
    pub port_accesses: u64,
    /// Warp instructions the run issued.
    pub instructions: u64,
    /// Active-lane instructions the run issued.
    pub lane_instructions: u64,
}

/// A produced row and how it was produced.
pub struct RowOutcome {
    /// The row.
    pub row: ConfigRow,
    /// Whether the campaign store answered it.
    pub cached: bool,
    /// The policy runs performed (empty when cached).
    pub runs: Vec<RunInfo>,
    /// Launch-plan cache `(hits, misses)` of the row's runtime.
    pub plan: (u64, u64),
}

/// Produces the row of `slot` on `config`.
///
/// # Errors
///
/// See [`Failure`].
pub fn measure_row(
    slot: &mut Slot,
    config: &DeviceConfig,
    store: Store<'_>,
    tr: &mut Tracer,
) -> Result<RowOutcome, Failure> {
    let campaign_key = match store {
        Store::Campaign(cache) => {
            let key = campaign_key_from_digest(slot.name, SCALE, slot.digest, config);
            let hit = tr.time("bench.store.lookup", || cache.lookup(slot.name, key, config));
            if let Some(row) = hit {
                return Ok(RowOutcome { row, cached: true, runs: Vec::new(), plan: (0, 0) });
            }
            Some((cache, key))
        }
        Store::Traces(_) => None,
    };
    let mut rt = tr.time("core.new", || {
        let mut rt = Runtime::new(*config);
        rt.load_program(&slot.program);
        rt
    });

    // Policies that resolve to the same lws in every phase simulate
    // identically; each distinct mapping runs once, as in the campaign.
    let phases = slot.kernel.phases();
    let resolve = |policy: LwsPolicy| -> Vec<u32> {
        phases.iter().map(|p| policy.lws_for(p.gws, config)).collect()
    };
    let policies = [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto];
    let sigs: Vec<Vec<u32>> = policies.iter().map(|&p| resolve(p)).collect();
    let mut outcomes: Vec<RunOutcome> = Vec::with_capacity(3);
    let mut runs: Vec<RunInfo> = Vec::with_capacity(3);
    let mut instructions = 0;
    let mut pick = [0usize; 3];
    for (i, &policy) in policies.iter().enumerate() {
        if let Some(j) = (0..i).find(|&j| sigs[j] == sigs[i]) {
            pick[i] = pick[j];
            continue;
        }
        let key = match store {
            Store::Traces(_) => {
                let phase_lws: Vec<(u32, u32)> =
                    phases.iter().zip(&sigs[i]).map(|(p, &lws)| (p.gws, lws)).collect();
                Some(trace_key(slot.name, SCALE, slot.digest, config, &phase_lws))
            }
            Store::Campaign(_) => None,
        };
        let (out, kind) = policy_run(slot, &mut rt, policy, store, key, tr)?;
        instructions += out.instructions;
        runs.push(RunInfo {
            policy,
            kind,
            key,
            cycles: out.cycles,
            port_accesses: out.port_accesses,
            instructions: out.instructions,
            lane_instructions: rt.device().counters().lane_instructions,
        });
        pick[i] = outcomes.len();
        outcomes.push(out);
    }
    let (naive, fixed, auto) = (&outcomes[pick[0]], &outcomes[pick[1]], &outcomes[pick[2]]);
    let row = ConfigRow {
        config: *config,
        cycles_naive: naive.cycles,
        cycles_fixed: fixed.cycles,
        cycles_auto: auto.cycles,
        lws_auto: auto.reports.first().map_or(1, |r| r.lws),
        dram_utilization: auto.dram_utilization,
        mem: auto.mem,
        dispatch: auto.dispatch,
        instructions,
        port_accesses: auto.port_accesses,
        port_stall_slots: auto.port_stall_slots,
    };
    if let Some((cache, key)) = campaign_key {
        tr.time("bench.store.insert", || cache.insert(slot.name, key, &row));
        tr.time("bench.store.flush", || cache.flush()).map_err(|e| Failure::Io(e.to_string()))?;
    }
    Ok(RowOutcome { row, cached: false, runs, plan: rt.plan_cache_stats() })
}

fn policy_run(
    slot: &mut Slot,
    rt: &mut Runtime,
    policy: LwsPolicy,
    store: Store<'_>,
    key: Option<u64>,
    tr: &mut Tracer,
) -> Result<(RunOutcome, RunKind), Failure> {
    let (Store::Traces(traces), Some(key)) = (store, key) else {
        return Ok((execute(slot, rt, policy, tr)?, RunKind::Execute));
    };
    if let Some(rec) = tr.time("bench.tracestore.load", || traces.load(key)) {
        let out = replay(slot, rt, policy, &rec, tr)?;
        traces.note_replay();
        return Ok((out, RunKind::Replay));
    }
    let (out, rec) = record(slot, rt, policy, tr)?;
    tr.time("bench.tracestore.save", || traces.save(key, &rec))
        .map_err(|e| Failure::Io(e.to_string()))?;
    traces.note_record();
    Ok((out, RunKind::Record))
}

/// One execute-mode policy run.
///
/// # Errors
///
/// On a launch or verification failure.
pub fn execute(
    slot: &mut Slot,
    rt: &mut Runtime,
    policy: LwsPolicy,
    tr: &mut Tracer,
) -> Result<RunOutcome, Failure> {
    if !tr.enabled() {
        return Ok(run_kernel_prepared(slot.kernel.as_mut(), &slot.program, rt, policy)?);
    }
    exec_phases(slot, rt, policy, None, tr)
}

/// One recorded policy run and its trace.
///
/// # Errors
///
/// On a launch or verification failure.
pub fn record(
    slot: &mut Slot,
    rt: &mut Runtime,
    policy: LwsPolicy,
    tr: &mut Tracer,
) -> Result<(RunOutcome, RecordedTrace), Failure> {
    if !tr.enabled() {
        return Ok(record_kernel_prepared(slot.kernel.as_mut(), &slot.program, rt, policy)?);
    }
    let open = tr.begin("kernels.record");
    let config = *rt.device().config();
    let mut rec = TraceRecorder::new(config.cores, config.warps);
    let out = exec_phases(slot, rt, policy, Some(&mut rec), tr);
    let trace = rec.finish();
    tr.end(open);
    Ok((out?, trace))
}

/// One replayed policy run.
///
/// # Errors
///
/// When the trace does not fit the run or the replay fails.
pub fn replay(
    slot: &mut Slot,
    rt: &mut Runtime,
    policy: LwsPolicy,
    rec: &RecordedTrace,
    tr: &mut Tracer,
) -> Result<RunOutcome, Failure> {
    if !tr.enabled() {
        return replay_kernel_prepared(slot.kernel.as_mut(), &slot.program, rt, policy, rec)
            .map_err(|e| Failure::Diverged(e.to_string()));
    }
    let config = *rt.device().config();
    let phases = slot.kernel.phases();
    if rec.cores != config.cores || rec.warps != config.warps || rec.launches.len() != phases.len()
    {
        return Err(Failure::Diverged("trace shape does not fit the run".into()));
    }
    tr.time("core.reset", || rt.reset());
    let mut reports = Vec::with_capacity(phases.len());
    for (phase, launch) in phases.iter().zip(&rec.launches) {
        let params = params_for(&slot.program, &phase.symbol, phase.gws, policy)?;
        let mut cursor = launch.cursor();
        let open = tr.begin("core.launch_replay");
        let report = rt.launch_replay::<NullSink>(&params, None, launch, &mut cursor);
        tr.end(open);
        reports.push(report.map_err(|e| Failure::Diverged(e.to_string()))?);
    }
    Ok(outcome(rt, reports))
}

fn params_for(
    program: &Program,
    symbol: &str,
    gws: u32,
    policy: LwsPolicy,
) -> Result<LaunchParams, Failure> {
    let entry = program
        .symbol(symbol)
        .ok_or_else(|| KernelError::MissingSymbol { symbol: symbol.to_owned() })?;
    Ok(LaunchParams::new(gws).policy(policy).entry(entry))
}

/// The execute-mode phase loop, one span per layer call.
fn exec_phases(
    slot: &mut Slot,
    rt: &mut Runtime,
    policy: LwsPolicy,
    mut sink: Option<&mut TraceRecorder>,
    tr: &mut Tracer,
) -> Result<RunOutcome, Failure> {
    tr.time("core.reset", || rt.reset());
    let kernel = slot.kernel.as_mut();
    tr.time("kernels.setup", || kernel.setup(rt)).map_err(KernelError::from)?;
    let mut reports = Vec::new();
    for phase in kernel.phases() {
        let params = params_for(&slot.program, &phase.symbol, phase.gws, policy)?;
        let open = tr.begin("core.launch");
        let report = match sink.as_deref_mut() {
            Some(rec) => rt.launch_with(&params, Some(rec)),
            None => rt.launch_with::<NullSink>(&params, None),
        };
        tr.end(open);
        reports.push(report.map_err(KernelError::from)?);
    }
    tr.time("kernels.verify", || kernel.verify(rt)).map_err(KernelError::from)?;
    Ok(outcome(rt, reports))
}

fn outcome(rt: &Runtime, reports: Vec<LaunchReport>) -> RunOutcome {
    let mut dispatch = DispatchStats::default();
    for report in &reports {
        dispatch.accumulate(&DispatchStats::of_launch(report));
    }
    let device = rt.device();
    let (port_accesses, port_stall_slots) = device.port_totals();
    RunOutcome {
        cycles: reports.iter().map(|r| r.cycles).sum(),
        reports,
        mem: device.mem_stats(),
        dram_utilization: device.dram_utilization(),
        instructions: device.counters().instructions,
        dispatch,
        port_accesses,
        port_stall_slots,
    }
}

/// Memory accesses a trace holds, walked through a fresh memory system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkCount {
    /// Accesses that carried at least one line.
    pub accesses: u64,
    /// Line requests (L1 hits plus misses).
    pub lines: u64,
}

/// Feeds the recorded `MemSpan`/`MemLanes` events of `trace` into a
/// fresh [`MemSystem`] configured as `config`, warp stream by warp
/// stream. The access count equals the run's port accesses; the event
/// order is not the timed interleaving, so the walk times the memory
/// layer's host cost, not its simulated cycles.
pub fn mem_walk(trace: &RecordedTrace, config: &DeviceConfig) -> WalkCount {
    let mut mem = MemSystem::new(config.cores, config.mem);
    let line_bytes = mem.line_bytes();
    let mut now = 0;
    for launch in &trace.launches {
        let warps = launch.warps().max(1);
        for (stream_idx, stream) in launch.streams().iter().enumerate() {
            let core = stream_idx / warps;
            for event in stream {
                let out = match event {
                    WarpEvent::MemSpan { addr0, last, store } => {
                        mem.access_span(core, *addr0, *last, now, *store)
                    }
                    WarpEvent::MemLanes { addrs, store } => {
                        let lines = coalesce_lines(addrs.iter().copied(), line_bytes);
                        if lines.is_empty() {
                            continue;
                        }
                        mem.access_batch(core, lines.as_slice(), now, *store)
                    }
                    _ => continue,
                };
                now += out.port_slots.max(1);
            }
        }
    }
    let stats = mem.stats();
    WalkCount { accesses: mem.port_totals().0, lines: stats.l1.hits + stats.l1.misses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_bench::run_campaign;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perfbench_rows_{tag}_{}", std::process::id()))
    }

    /// Both row paths reproduce the program's own campaign runner.
    #[test]
    fn rows_match_the_campaign_runner_on_every_path() {
        let configs = [DeviceConfig::with_topology(1, 2, 4), DeviceConfig::with_topology(3, 4, 8)];
        let dir = tmp("paths");
        let _ = std::fs::remove_dir_all(&dir);
        let mut slots = build_slots().unwrap();
        let factories = kernel_factories(SCALE);
        for (slot, factory) in slots.iter_mut().zip(&factories).take(4) {
            let expected = run_campaign(factory, &configs, 1).unwrap().rows;
            for traced in [false, true] {
                let mut tr = if traced { Tracer::on() } else { Tracer::off() };
                let cache = CampaignCache::open(dir.join(format!("c{traced}"))).unwrap();
                let traces = TraceStore::open(&dir.join(format!("t{traced}"))).unwrap();
                for (config, want) in configs.iter().zip(&expected) {
                    let cold = measure_row(slot, config, Store::Campaign(&cache), &mut tr).unwrap();
                    assert!(!cold.cached);
                    assert_eq!(&cold.row, want, "{} execute", slot.name);
                    let warm = measure_row(slot, config, Store::Campaign(&cache), &mut tr).unwrap();
                    assert!(warm.cached);
                    assert_eq!(&warm.row, want, "{} store", slot.name);
                    for variant in [*config, crate::sample::uarch_variant(config, 0)] {
                        let r =
                            measure_row(slot, &variant, Store::Traces(&traces), &mut tr).unwrap();
                        assert_eq!(&r.row, want, "{} trace", slot.name);
                    }
                }
                assert_eq!(traced, !tr.spans().is_empty());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_walk_counts_the_runs_port_accesses() {
        let config = DeviceConfig::with_topology(2, 4, 8);
        let mut slots = build_slots().unwrap();
        for slot in &mut slots {
            let mut rt = Runtime::new(config);
            rt.load_program(&slot.program);
            for policy in [LwsPolicy::Naive1, LwsPolicy::Auto] {
                let (out, rec) = record(slot, &mut rt, policy, &mut Tracer::off()).unwrap();
                let walk = mem_walk(&rec, &config);
                assert_eq!(walk.accesses, out.port_accesses, "{}", slot.name);
                assert!(walk.lines >= walk.accesses);
            }
        }
    }
}
