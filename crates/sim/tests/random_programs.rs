//! Randomised tests over the full assemble→execute pipeline: random
//! straight-line ALU programs must compute exactly what a host-side
//! interpreter of the same instruction sequence computes, and a
//! recording of each must replay to the cycles and counters of execute
//! mode. Seeds are fixed so failures reproduce exactly.

use vortex_asm::{Assembler, Program};
use vortex_isa::{reg, AluOp, Reg};
use vortex_rng::Rng;
use vortex_sim::{Device, DeviceConfig, NullSink, TimingConfig, TraceRecorder};

const BASE: u32 = 0x8000_0000;
const DATA: u32 = 0xA000_0000;

/// The registers the generated programs operate on.
const POOL: [Reg; 6] = [reg::T0, reg::T1, reg::T2, reg::T3, reg::T4, reg::T5];

#[derive(Clone, Debug)]
enum Op {
    /// `li pool[dst], imm`
    Li { dst: usize, imm: i32 },
    /// `op pool[dst], pool[a], pool[b]`
    Alu { op: AluOp, dst: usize, a: usize, b: usize },
}

const ALU_OPS: [AluOp; 17] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Sll,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Xor,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Or,
    AluOp::And,
    AluOp::Mul,
    AluOp::Mulh,
    AluOp::Mulhu,
    AluOp::Div,
    AluOp::Divu,
    AluOp::Rem,
    AluOp::Remu,
];

fn arb_op(rng: &mut Rng) -> Op {
    if rng.gen_bool() {
        Op::Li { dst: rng.gen_range_usize(0, POOL.len()), imm: rng.next_u32() as i32 }
    } else {
        Op::Alu {
            op: *rng.choose(&ALU_OPS),
            dst: rng.gen_range_usize(0, POOL.len()),
            a: rng.gen_range_usize(0, POOL.len()),
            b: rng.gen_range_usize(0, POOL.len()),
        }
    }
}

/// Host-side model of the same operation semantics (RISC-V).
fn host_alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => (((a as i32 as i64).wrapping_mul(b as i32 as i64)) >> 32) as u32,
        AluOp::Mulhsu => (((a as i32 as i64).wrapping_mul(b as u64 as i64)) >> 32) as u32,
        AluOp::Mulhu => (((a as u64).wrapping_mul(b as u64)) >> 32) as u32,
        AluOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32).wrapping_div(b as i32)) as u32
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32).wrapping_rem(b as i32)) as u32
            }
        }
        AluOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

/// A timing model whose latencies are pairwise distinct and differ from
/// the defaults, so no two latency classes time alike.
fn distinct_timing() -> TimingConfig {
    TimingConfig {
        alu: 2,
        mul: 5,
        div: 17,
        fpu: 7,
        fdiv: 19,
        fsqrt: 23,
        branch_bubble: 3,
        wspawn: 11,
        barrier: 13,
    }
}

const LIMIT: u64 = 10_000_000;

/// A 1-core, 1-warp, 2-lane device under `timing` with `program` loaded
/// and warp 0 started at its base.
fn device(program: &Program, timing: TimingConfig) -> Device {
    let mut config = DeviceConfig::with_topology(1, 1, 2);
    config.timing = timing;
    let mut device = Device::new(config);
    device.load_program(program);
    device.start_warp(0, BASE);
    device
}

/// Records `program` under default timing, then replays the recording
/// under default timing and under [`distinct_timing`]: each replay must
/// finish at the cycle, and with the counters, of executing under the
/// same timing, and consume the whole recording.
fn assert_replay_matches_execute(program: &Program, case: usize) {
    let mut recorder = TraceRecorder::new(1, 1);
    device(program, TimingConfig::default()).run_with(LIMIT, Some(&mut recorder)).expect("records");
    let trace = recorder.finish();
    assert!(!trace.tainted, "case {case}: no timing CSR is read");
    let launch = &trace.launches[0];
    for timing in [TimingConfig::default(), distinct_timing()] {
        let mut executed = device(program, timing);
        let exec_end = executed.run_untraced(LIMIT).expect("executes");
        let mut replayed = device(program, timing);
        let mut cursor = launch.cursor();
        let replay_end =
            replayed.run_replay::<NullSink>(LIMIT, None, launch, &mut cursor).expect("replays");
        assert_eq!(replay_end, exec_end, "case {case}: finish cycle under {timing:?}");
        assert_eq!(replayed.counters(), executed.counters(), "case {case}: counters");
        assert_eq!(launch.leftover(&cursor), 0, "case {case}: recording fully consumed");
    }
}

/// Random straight-line programs agree with the host model on every pool
/// register, and replay their own recording to execute mode's cycles.
#[test]
fn straight_line_alu_agrees_with_host() {
    let mut rng = Rng::seed_from_u64(0x5EEDA1);
    for case in 0..128 {
        let ops: Vec<Op> = (0..rng.gen_range_usize(1, 60)).map(|_| arb_op(&mut rng)).collect();

        // Host execution.
        let mut host = [0u32; 6];
        for op in &ops {
            match *op {
                Op::Li { dst, imm } => host[dst] = imm as u32,
                Op::Alu { op, dst, a, b } => host[dst] = host_alu(op, host[a], host[b]),
            }
        }

        // Device execution: same sequence, then store the pool to DATA.
        let mut asm = Assembler::new(BASE);
        for op in &ops {
            match *op {
                Op::Li { dst, imm } => asm.li(POOL[dst], imm),
                Op::Alu { op, dst, a, b } => {
                    asm.emit(vortex_isa::Instr::Op {
                        op,
                        rd: POOL[dst],
                        rs1: POOL[a],
                        rs2: POOL[b],
                    });
                }
            }
        }
        asm.la(reg::S0, DATA);
        for (i, r) in POOL.iter().enumerate() {
            asm.sw(*r, (i * 4) as i32, reg::S0);
        }
        asm.vx_tmc(reg::ZERO);
        let program = asm.assemble().expect("assembles");

        let mut device = device(&program, TimingConfig::default());
        device.run(LIMIT, None).expect("runs");
        let device_regs = device.memory().read_u32_vec(DATA, POOL.len());
        assert_eq!(&device_regs[..], &host[..], "case {case}: {ops:?}");
        assert_replay_matches_execute(&program, case);
    }
}

/// The scoreboard never changes results: a dependent chain and the same
/// chain with unrelated instructions interleaved produce the same values
/// (timing differs; architecture must not).
#[test]
fn interleaving_does_not_change_results() {
    for seed in 0u32..200 {
        let build = |pad: bool| {
            let mut asm = Assembler::new(BASE);
            asm.li(reg::T0, seed as i32);
            asm.li(reg::T1, 3);
            for _ in 0..8 {
                asm.mul(reg::T0, reg::T0, reg::T1);
                if pad {
                    asm.addi(reg::T2, reg::T2, 1);
                    asm.addi(reg::T3, reg::T3, 7);
                }
                asm.addi(reg::T0, reg::T0, 13);
            }
            asm.la(reg::S0, DATA);
            asm.sw(reg::T0, 0, reg::S0);
            asm.vx_tmc(reg::ZERO);
            asm.assemble().expect("assembles")
        };
        let run = |program: &vortex_asm::Program| {
            let mut device = Device::new(DeviceConfig::with_topology(1, 2, 2));
            device.load_program(program);
            device.start_warp(0, BASE);
            device.run(1_000_000, None).expect("runs");
            device.memory().read_u32(DATA)
        };
        assert_eq!(run(&build(false)), run(&build(true)), "seed {seed}");
    }
}
