//! Record/replay engine validation over real kernels: bit-identity with
//! execute mode (same config, different timing),
//! record→replay→re-record idempotence, and mismatch rejection.

use vortex_core::{LwsPolicy, Runtime};
use vortex_kernels::{
    record_kernel_prepared, replay_kernel_prepared, replay_kernel_traced, run_kernel_prepared,
    sweep_kernels, Kernel, Reduce, RunOutcome, Saxpy,
};
use vortex_sim::{DeviceConfig, RecordedTrace, TimingConfig, TraceRecorder};

/// The whole observable outcome, as the probe would print it.
fn fingerprint(o: &RunOutcome) -> String {
    format!("{o:?}")
}

fn record(
    kernel: &mut dyn Kernel,
    config: &DeviceConfig,
    policy: LwsPolicy,
) -> (RunOutcome, RecordedTrace) {
    let program = kernel.build().unwrap();
    let mut rt = Runtime::new(*config);
    rt.load_program(&program);
    record_kernel_prepared(kernel, &program, &mut rt, policy).unwrap()
}

fn replay(
    kernel: &mut dyn Kernel,
    config: &DeviceConfig,
    policy: LwsPolicy,
    rec: &RecordedTrace,
) -> RunOutcome {
    let program = kernel.build().unwrap();
    let mut rt = Runtime::new(*config);
    rt.load_program(&program);
    replay_kernel_prepared(kernel, &program, &mut rt, policy, rec).unwrap()
}

#[test]
fn replay_is_bit_identical_to_execute() {
    let config = DeviceConfig::with_topology(2, 2, 4);
    for policy in [LwsPolicy::Naive1, LwsPolicy::Auto] {
        let mut k = Saxpy::new(256);
        let (executed, rec) = record(&mut k, &config, policy);
        assert!(!rec.tainted, "saxpy reads no timing CSRs");
        let replayed = replay(&mut k, &config, policy, &rec);
        assert_eq!(fingerprint(&executed), fingerprint(&replayed), "{policy}");
    }
}

#[test]
fn barrier_kernel_trace_replays_bit_identically() {
    // The reduction's log-depth phase tree is the non-dense regime: tiny
    // shrinking launches, one record per phase.
    let config = DeviceConfig::with_topology(2, 2, 4);
    let mut k = Reduce::new(200);
    let (executed, rec) = record(&mut k, &config, LwsPolicy::Auto);
    assert_eq!(rec.launches.len(), k.phases().len());
    let replayed = replay(&mut k, &config, LwsPolicy::Auto, &rec);
    assert_eq!(fingerprint(&executed), fingerprint(&replayed));
}

/// Kernels whose recordings read a timing CSR: a tainted trace is only
/// valid for the configuration that recorded it, so it is not re-timed.
const TAINTED: &[&str] = &[];

#[test]
fn replay_retimes_under_a_different_timing_model() {
    // The engine's purpose: one recording drives many timing configs.
    // Replaying under altered latencies must equal *executing* under
    // those latencies. Every latency is distinct from every other and
    // from its default, so no two latency classes time alike.
    let base = DeviceConfig::with_topology(2, 2, 4);
    let mut slow = base;
    slow.timing = TimingConfig {
        alu: 2,
        mul: 5,
        div: 17,
        fpu: 7,
        fdiv: 19,
        fsqrt: 23,
        branch_bubble: 3,
        wspawn: 11,
        barrier: 13,
    };
    slow.mem.l2_latency += 7;

    for mut k in sweep_kernels() {
        let k = k.as_mut();
        let (_, rec) = record(k, &base, LwsPolicy::Auto);
        assert_eq!(rec.tainted, TAINTED.contains(&k.name()), "{}", k.name());
        if rec.tainted {
            continue;
        }
        let program = k.build().unwrap();
        let mut rt = Runtime::new(slow);
        rt.load_program(&program);
        let executed = run_kernel_prepared(k, &program, &mut rt, LwsPolicy::Auto).unwrap();
        let replayed = replay(k, &slow, LwsPolicy::Auto, &rec);
        assert_eq!(fingerprint(&executed), fingerprint(&replayed), "{}", k.name());
    }
}

#[test]
fn replay_retimes_under_a_different_cache_geometry() {
    // Lane addresses are recorded pre-coalescing, so replay re-coalesces
    // against whatever line size the replaying configuration uses —
    // cache geometry (sizes, ways, line bytes, DRAM shape) is re-timed
    // like the latencies are.
    let base = DeviceConfig::with_topology(2, 2, 4);
    let mut small = base;
    small.mem.l1.size_bytes = 4 * 1024;
    small.mem.l1.ways = 2;
    small.mem.l1.line_bytes = 32;
    small.mem.l2.size_bytes = 64 * 1024;
    small.mem.l2.line_bytes = 32;
    small.mem.dram.latency = 160;
    small.mem.dram.channels = 2;

    for k in [&mut Saxpy::new(256) as &mut dyn Kernel, &mut Reduce::new(200)] {
        let (_, rec) = record(k, &base, LwsPolicy::Auto);
        let program = k.build().unwrap();
        let mut rt = Runtime::new(small);
        rt.load_program(&program);
        let executed = run_kernel_prepared(k, &program, &mut rt, LwsPolicy::Auto).unwrap();
        let replayed = replay(k, &small, LwsPolicy::Auto, &rec);
        assert_eq!(fingerprint(&executed), fingerprint(&replayed));
    }
}

#[test]
fn rerecording_a_replay_reproduces_the_trace() {
    let config = DeviceConfig::with_topology(2, 2, 4);
    let mut k = Reduce::new(100);
    let (_, rec) = record(&mut k, &config, LwsPolicy::Auto);

    let program = k.build().unwrap();
    let mut rt = Runtime::new(config);
    rt.load_program(&program);
    let mut rerec = TraceRecorder::new(config.cores, config.warps);
    replay_kernel_traced(&mut k, &program, &mut rt, LwsPolicy::Auto, &rec, Some(&mut rerec))
        .unwrap();
    assert_eq!(rerec.finish(), rec, "record→replay→re-record must be a fixed point");
}

#[test]
fn mismatched_traces_are_rejected() {
    let config = DeviceConfig::with_topology(2, 2, 4);
    let mut k = Saxpy::new(256);
    let (_, rec) = record(&mut k, &config, LwsPolicy::Auto);

    // Different topology: structural rejection before any launch.
    let other = DeviceConfig::with_topology(4, 2, 4);
    let program = k.build().unwrap();
    let mut rt = Runtime::new(other);
    rt.load_program(&program);
    let err = replay_kernel_prepared(&mut k, &program, &mut rt, LwsPolicy::Auto, &rec);
    assert!(err.is_err(), "topology mismatch must be rejected");

    // Different phase structure: a saxpy trace holds one launch record,
    // the reduction needs one per tree level.
    let mut wrong = Reduce::new(64);
    let program = wrong.build().unwrap();
    let mut rt = Runtime::new(config);
    rt.load_program(&program);
    let err = replay_kernel_prepared(&mut wrong, &program, &mut rt, LwsPolicy::Auto, &rec);
    assert!(err.is_err(), "phase-count mismatch must be rejected");

    // Structurally compatible but empty streams: the first consumed
    // record is missing and the replay faults instead of guessing.
    // (A foreign program with the *same* dynamic event shape replays its
    // recorded control flow cleanly — that class is excluded by trace
    // keying on the program digest, not by the stream check.)
    let empty = RecordedTrace {
        cores: config.cores,
        warps: config.warps,
        tainted: false,
        launches: vec![vortex_sim::LaunchRecord::new(config.cores, config.warps)],
    };
    let mut k = Saxpy::new(256);
    let program = k.build().unwrap();
    let mut rt = Runtime::new(config);
    rt.load_program(&program);
    let err = replay_kernel_prepared(&mut k, &program, &mut rt, LwsPolicy::Auto, &empty);
    assert!(err.is_err(), "exhausted stream must raise ReplayDiverged");
}
