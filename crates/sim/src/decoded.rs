//! The decode cache: per-instruction static metadata derived once at
//! program-load time.
//!
//! Before this cache the hot path re-ran five separate matches over
//! [`Instr`] per issued instruction (`src_regs` building an option array,
//! `dst_reg`, `exec_class` twice, `is_control`); now each is one field
//! load. The instruction and its metadata are stored side by side
//! ([`DecodedInstr`]) so a fetch touches one contiguous entry instead of
//! two parallel arrays. The per-op monomorphic execute kernels of the
//! big ALU/FPU arms are *not* cached here: their op-indexed dispatch
//! tables (see [`exec::tables`](crate::exec::tables)) resolve from the
//! cached instruction's operation in one table load at issue, so caching
//! the pointer would only grow this entry (and the per-warp next-issue
//! cache) by 16 bytes per slot — measured as a net loss.

use vortex_isa::{ExecClass, FpBinOp, Instr};
use vortex_mem::Cycle;

use crate::config::TimingConfig;

/// Static facts about one instruction, in load-and-go form.
#[derive(Copy, Clone, Debug)]
pub(crate) struct InstrMeta {
    /// Dense scoreboard indices of the source operands; `0` (= `x0`,
    /// whose scoreboard entry is permanently zero) encodes "no operand",
    /// which makes the hazard check a branchless chain of four `max`es.
    pub src: [u8; 3],
    /// Dense scoreboard index of the destination (`0` = none).
    pub dst: u8,
    /// Functional-unit class (drives the class counters).
    pub class: ExecClass,
    /// Contends for the memory port.
    pub is_mem: bool,
    /// May redirect control flow (taken-branch bubble accounting).
    pub is_control: bool,
    /// How the destination's scoreboard entry is timed.
    pub wb: WriteBack,
}

/// The write-back latency class of an instruction: when its destination
/// register becomes readable. Decided from the instruction itself, not
/// from [`ExecClass`] — `vote` and `csr` write at ALU latency, and FP
/// compares, converts and moves to integer registers write an integer
/// register at FPU latency.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum WriteBack {
    /// No architectural destination (none, or `x0`).
    None,
    Alu,
    Mul,
    Div,
    Fpu,
    Fdiv,
    Fsqrt,
    /// Readable when the memory access completes.
    Mem,
}

impl WriteBack {
    fn of(instr: &Instr) -> Self {
        match *instr {
            _ if instr.dst_reg().is_none() => WriteBack::None,
            Instr::Load { .. } | Instr::Flw { .. } => WriteBack::Mem,
            Instr::Op { op, .. } if op.is_mul() => WriteBack::Mul,
            Instr::Op { op, .. } if op.is_div() => WriteBack::Div,
            Instr::FpOp { op: FpBinOp::Div, .. } => WriteBack::Fdiv,
            Instr::FpSqrt { .. } => WriteBack::Fsqrt,
            Instr::FpOp { .. }
            | Instr::FpFma { .. }
            | Instr::FpCmp { .. }
            | Instr::FpCvtToInt { .. }
            | Instr::FpCvtFromInt { .. }
            | Instr::FpMvToInt { .. }
            | Instr::FpMvFromInt { .. }
            | Instr::FpClass { .. } => WriteBack::Fpu,
            // `lui`, `auipc`, link registers, `op`/`op-imm`, CSR reads
            // and `vote`.
            _ => WriteBack::Alu,
        }
    }

    /// Write-back latency per class, indexed by `WriteBack as usize`
    /// and built once per run — the one latency-class lookup of the
    /// simulator. A destination becomes readable at the issue cycle (or,
    /// for `Mem`, the access's completion cycle) plus this latency.
    pub fn latencies(timing: &TimingConfig) -> [Cycle; 8] {
        let mut lat = [0; 8];
        lat[WriteBack::Alu as usize] = timing.alu;
        lat[WriteBack::Mul as usize] = timing.mul;
        lat[WriteBack::Div as usize] = timing.div;
        lat[WriteBack::Fpu as usize] = timing.fpu;
        lat[WriteBack::Fdiv as usize] = timing.fdiv;
        lat[WriteBack::Fsqrt as usize] = timing.fsqrt;
        lat
    }
}

impl InstrMeta {
    /// Decodes the static facts of one instruction.
    pub fn of(instr: &Instr) -> Self {
        let mut src = [0u8; 3];
        for (slot, reg) in src.iter_mut().zip(instr.src_regs()) {
            if let Some(r) = reg {
                if !r.is_zero() {
                    *slot = r.dense_index() as u8;
                }
            }
        }
        let dst = instr.dst_reg().map_or(0, |d| d.dense_index() as u8);
        InstrMeta {
            src,
            dst,
            class: instr.exec_class(),
            is_mem: instr.is_mem(),
            is_control: instr.is_control(),
            wb: WriteBack::of(instr),
        }
    }

    pub(crate) const INVALID: InstrMeta = InstrMeta {
        src: [0; 3],
        dst: 0,
        class: ExecClass::Simt,
        is_mem: false,
        is_control: false,
        wb: WriteBack::None,
    };
}

/// Whether `instr`'s outcome depends on register values, so a recording
/// sink receives exactly one [`WarpEvent`](crate::WarpEvent) for it and
/// replay consumes exactly one. Not cached in [`InstrMeta`]: the extra
/// byte per entry measured ~3 % slower replay.
#[inline]
pub(crate) fn records_event(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Jalr { .. }
            | Instr::Branch { .. }
            | Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Flw { .. }
            | Instr::Fsw { .. }
            | Instr::Tmc { .. }
            | Instr::Wspawn { .. }
            | Instr::Split { .. }
            | Instr::Join
            | Instr::Bar { .. }
    )
}

/// One fetchable program slot: the instruction plus its decoded facts.
#[derive(Copy, Clone, Debug)]
pub(crate) struct DecodedInstr {
    pub instr: Instr,
    pub meta: InstrMeta,
}

impl DecodedInstr {
    /// Decodes one instruction.
    pub fn of(instr: Instr) -> Self {
        DecodedInstr { meta: InstrMeta::of(&instr), instr }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_isa::{fregs, reg, AluOp, BranchOp, LoadWidth};

    #[test]
    fn operand_indices_use_the_dense_scoreboard_space() {
        let m =
            InstrMeta::of(&Instr::Op { op: AluOp::Add, rd: reg::A0, rs1: reg::T1, rs2: reg::ZERO });
        assert_eq!(m.src[0], reg::T1.num());
        assert_eq!(m.src[1], 0, "x0 source encodes as no-operand");
        assert_eq!(m.src[2], 0);
        assert_eq!(m.dst, reg::A0.num());
        assert!(!m.is_mem);
        assert!(!m.is_control);

        let fp = InstrMeta::of(&Instr::Flw { rd: fregs::FA0, rs1: reg::A1, offset: 0 });
        assert_eq!(fp.dst, 32 + fregs::FA0.num(), "FP file sits above the integer file");
        assert!(fp.is_mem);
    }

    #[test]
    fn control_and_class_flags_match_the_instruction() {
        let br = InstrMeta::of(&Instr::Branch {
            op: BranchOp::Eq,
            rs1: reg::A0,
            rs2: reg::A1,
            offset: 8,
        });
        assert!(br.is_control);
        assert_eq!(br.class, ExecClass::Branch);
        assert_eq!(br.dst, 0, "branches write no register");

        let ld = InstrMeta::of(&Instr::Load {
            width: LoadWidth::Word,
            rd: reg::A0,
            rs1: reg::A1,
            offset: 0,
        });
        assert!(ld.is_mem);
        assert_eq!(ld.class, ExecClass::Load);
    }

    #[test]
    fn write_back_class_follows_the_instruction_not_the_exec_class() {
        use vortex_isa::{csrs, CsrOp, CsrSrc, FpCmpOp, VoteOp};
        let wb = |i: Instr| InstrMeta::of(&i).wb;
        let (a0, a1, f0, f1) = (reg::A0, reg::A1, fregs::FA0, fregs::FA1);
        // `vote` and `csr` carry the SIMT/ALU classes but write at ALU
        // latency.
        assert_eq!(wb(Instr::Vote { op: VoteOp::Ballot, rd: a0, rs1: a1 }), WriteBack::Alu);
        let csr =
            Instr::Csr { op: CsrOp::ReadSet, rd: a0, src: CsrSrc::Imm(0), csr: csrs::WARP_ID };
        assert_eq!(wb(csr), WriteBack::Alu);
        // FP ops that write an integer register do so at FPU latency.
        assert_eq!(wb(Instr::FpCmp { op: FpCmpOp::Lt, rd: a0, rs1: f0, rs2: f1 }), WriteBack::Fpu);
        assert_eq!(wb(Instr::FpCvtToInt { signed: true, rd: a0, rs1: f0 }), WriteBack::Fpu);
        assert_eq!(wb(Instr::FpMvToInt { rd: a0, rs1: f0 }), WriteBack::Fpu);
        assert_eq!(wb(Instr::FpClass { rd: a0, rs1: f0 }), WriteBack::Fpu);
        assert_eq!(wb(Instr::FpOp { op: FpBinOp::Div, rd: f0, rs1: f0, rs2: f1 }), WriteBack::Fdiv);
        assert_eq!(wb(Instr::FpSqrt { rd: f0, rs1: f1 }), WriteBack::Fsqrt);
        assert_eq!(wb(Instr::Op { op: AluOp::Mulhu, rd: a0, rs1: a0, rs2: a1 }), WriteBack::Mul);
        assert_eq!(wb(Instr::Op { op: AluOp::Remu, rd: a0, rs1: a0, rs2: a1 }), WriteBack::Div);
        assert_eq!(wb(Instr::Flw { rd: f0, rs1: a1, offset: 0 }), WriteBack::Mem);
        // A write to x0 is no write at all, whatever the class.
        let ld = Instr::Load { width: LoadWidth::Word, rd: reg::ZERO, rs1: a1, offset: 0 };
        assert_eq!(wb(ld), WriteBack::None);
        assert_eq!(
            wb(Instr::Op { op: AluOp::Div, rd: reg::ZERO, rs1: a0, rs2: a1 }),
            WriteBack::None
        );

        let timing = TimingConfig { fpu: 7, ..TimingConfig::default() };
        let lat = WriteBack::latencies(&timing);
        assert_eq!(lat[WriteBack::Fpu as usize], 7);
        assert_eq!(lat[WriteBack::Mem as usize], 0, "readable at the access's completion");
    }
}
