//! One SIMT core: warp scheduling, hazard checking and instruction
//! execution.
//!
//! Every issue is split in two. A *frontend* decides what the
//! instruction did — next PC and thread mask, memory footprint, and any
//! halt, wspawn or barrier — as an [`Effects`] value: [`Core::execute`]
//! computes it with row kernels and functional memory, [`Core::replay`]
//! reads it from a recorded [`WarpEvent`] stream. A single timing
//! *backend*, [`Core::retire`], then applies the scoreboard write-back
//! (its latency class decoded once per instruction, see
//! [`WriteBack`]), memory timing, the sync ops and the control gap, and
//! hands the warp event to a recording sink. The timing rules therefore
//! exist once, whichever frontend ran.
//!
//! The execute loops are written against the core-owned lane-major
//! register file ([`RegFile`]): each opcode arm materialises its source
//! rows (a contiguous `threads`-word copy into a stack buffer, which also
//! resolves `dst == src` aliasing without `unsafe`), then writes the
//! destination row in a single pass — branch-free when the thread mask is
//! full, a set-bit walk otherwise. The register scoreboard is a flat
//! per-core array rather than a per-warp heap allocation, so hazard
//! checks stay within one cache line per warp.

use std::collections::HashMap;

use vortex_isa::{csrs, AluImmOp, AluOp, Csr, ExecClass, Instr, LoadWidth, StoreWidth, VoteOp};
use vortex_mem::{coalesce_lines, Cycle, MainMemory, MemSystem};

use crate::config::TimingConfig;
use crate::counters::DeviceCounters;
use crate::decoded::{records_event, DecodedInstr, InstrMeta, WriteBack};
use crate::error::SimError;
use crate::exec::span::{self, Span};
use crate::exec::tables;
use crate::exec::{BinKernel, FmaKernel, ImmKernel, UnKernel};
use crate::ipdom::IpdomEntry;
use crate::regfile::{RegFile, FP_BASE};
use crate::trace_api::{IssueEvent, ReplayCtx, TraceSink, WarpEvent};
use crate::warp::{WarpState, NEVER};

/// Everything a core needs from the device while stepping.
///
/// Generic over the trace sink so untraced runs (`S = NullSink`) are
/// monomorphised with the trace hook compiled away entirely — no virtual
/// dispatch on the per-instruction hot path — and likewise over the
/// issue [`Frontend`].
pub(crate) struct CoreCtx<'a, S: TraceSink + ?Sized, F: Frontend> {
    /// The loaded program with its decode cache, one entry per slot.
    pub code: &'a [DecodedInstr],
    pub code_base: u32,
    pub mem: &'a mut MainMemory,
    pub memsys: &'a mut MemSystem,
    pub timing: &'a TimingConfig,
    /// [`WriteBack::latencies`] of `timing`.
    pub wb_latency: [Cycle; 8],
    pub num_cores: usize,
    pub ipdom_depth: usize,
    pub counters: &'a mut DeviceCounters,
    pub trace: Option<&'a mut S>,
    /// Latest completion time of any memory event (for drain accounting).
    pub horizon: &'a mut Cycle,
    /// Cache-line size (hoisted from the memory system once per run).
    pub line_bytes: u32,
    /// Where each issue's [`Effects`] come from: [`Execute`] runs the
    /// instruction, a [`ReplayCtx`] reads the recorded [`WarpEvent`]s.
    /// The timing backend is the same for both, so a replay's cycles and
    /// counters are bit-identical to execute mode.
    pub frontend: F,
}

/// The frontend of an issue: decides what an instruction did. Runs are
/// monomorphised per frontend, as they are per sink, so the mode choice
/// costs nothing per issue.
pub(crate) trait Frontend: Sized {
    fn effects<S: TraceSink + ?Sized>(
        core: &mut Core,
        w: usize,
        instr: Instr,
        meta: &InstrMeta,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S, Self>,
    ) -> Result<Effects, SimError>;
}

/// The execute frontend (see [`Core::execute`]).
pub(crate) struct Execute;

impl Frontend for Execute {
    #[inline]
    fn effects<S: TraceSink + ?Sized>(
        core: &mut Core,
        w: usize,
        instr: Instr,
        _meta: &InstrMeta,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S, Self>,
    ) -> Result<Effects, SimError> {
        core.execute(w, instr, now, ctx)
    }
}

/// The replay frontend (see [`Core::replay`]).
impl Frontend for ReplayCtx<'_> {
    #[inline]
    fn effects<S: TraceSink + ?Sized>(
        core: &mut Core,
        w: usize,
        instr: Instr,
        meta: &InstrMeta,
        _now: Cycle,
        ctx: &mut CoreCtx<'_, S, Self>,
    ) -> Result<Effects, SimError> {
        core.replay(w, instr, meta, &mut ctx.frontend)
    }
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: Vec<usize>,
}

/// What one issued instruction did, as the timing backend
/// ([`Core::retire`]) needs it — the [`WarpEvent`] vocabulary in
/// fixed-size form. The execute frontend computes it; the replay
/// frontend reads it from the recorded stream.
pub(crate) struct Effects {
    /// The warp's PC after the instruction.
    next_pc: u32,
    /// The warp's thread mask after the instruction.
    tmask: u32,
    mem: MemFootprint,
    sync: SyncOp,
}

impl Effects {
    /// An instruction that falls through and leaves the mask alone.
    fn fall_through(pc: u32, tmask: u32) -> Self {
        Effects { next_pc: pc.wrapping_add(4), tmask, mem: MemFootprint::None, sync: SyncOp::None }
    }

    /// The warp event a recording sink receives for a value-dependent
    /// instruction (`lanes` is the core's lane-address row).
    fn event(&self, lanes: &[u32; 32]) -> WarpEvent {
        match self.mem {
            MemFootprint::Span { addr0, last, store } => {
                return WarpEvent::MemSpan { addr0, last, store };
            }
            MemFootprint::Lanes { mask, store } => {
                // Pre-coalescing lane addresses in lane order: replay
                // re-coalesces against its own line size, so the trace
                // stays valid across cache geometries.
                let addrs = lane_indices(mask).map(|l| lanes[l]).collect();
                return WarpEvent::MemLanes { addrs, store };
            }
            MemFootprint::None => {}
        }
        match self.sync {
            SyncOp::None => WarpEvent::Ctl { next_pc: self.next_pc, tmask: self.tmask },
            SyncOp::Halt => WarpEvent::Halt,
            SyncOp::Wspawn { count, target } => WarpEvent::Wspawn { count, target },
            SyncOp::Bar { id, count } => WarpEvent::Bar { id, count },
        }
    }
}

/// The memory access of one instruction, if any.
pub(crate) enum MemFootprint {
    None,
    /// A contiguous ascending span of lane addresses `addr0..=last` (the
    /// broadcast and unit-stride fast paths).
    Span {
        addr0: u32,
        last: u32,
        store: bool,
    },
    /// A general gather/scatter: the core's lane-address row
    /// ([`Core::lanes`]) at each set bit of `mask`, in ascending order.
    Lanes {
        mask: u32,
        store: bool,
    },
}

/// The warp-synchronisation effect of one instruction, if any.
pub(crate) enum SyncOp {
    None,
    /// `vx_tmc` to an empty mask.
    Halt,
    /// `vx_wspawn`: start warps `1..count` at `target`.
    Wspawn {
        count: u32,
        target: u32,
    },
    /// `vx_bar`: arrive at barrier `id`, released at `count` arrivals.
    Bar {
        id: u32,
        count: u32,
    },
}

/// The outcome of running a core up to an event horizon.
pub(crate) enum CoreOutcome {
    /// The core's next internal event lies at this cycle (≥ the horizon);
    /// re-run it when global time gets there.
    Next(Cycle),
    /// All warps halted; core is idle.
    Idle,
}

/// Cached scheduling state for one warp's *next* instruction, filled
/// eagerly when the warp issues (or lazily on first examination), so a
/// warp wakes exactly at its next issue cycle with the instruction already
/// fetched and its register hazards already resolved.
#[derive(Copy, Clone, Debug)]
struct NextIssue {
    /// The fetched instruction.
    instr: Instr,
    /// The instruction's decode-cache entry.
    meta: InstrMeta,
    /// PC the cache was computed for; a mismatch (branch target rewrite,
    /// respawn) invalidates it.
    pc: u32,
    /// Earliest issue cycle from warp-local state only (control gap and
    /// register hazards). Warp-local state cannot change while the warp is
    /// dormant, so this stays exact until the warp issues again.
    t_local: Cycle,
    /// Whether the instruction also contends for the memory port
    /// (`mem_port_free` moves when *other* warps issue, so it is folded in
    /// at wake time rather than cached).
    is_mem: bool,
    /// Whether the entry is usable at all.
    valid: bool,
}

impl NextIssue {
    const INVALID: NextIssue = NextIssue {
        instr: Instr::Join,
        meta: InstrMeta::INVALID,
        pc: 0,
        t_local: 0,
        is_mem: false,
        valid: false,
    };
}

#[derive(Debug)]
pub(crate) struct Core {
    id: usize,
    pub(crate) warps: Vec<WarpState>,
    /// Lane-major register rows + scoreboard of every warp (see
    /// [`RegFile`]).
    rf: RegFile,
    barriers: HashMap<u32, BarrierState>,
    last_issued: usize,
    mem_port_free: Cycle,
    /// Per-warp lower bound on the next possible issue cycle (`NEVER` for
    /// halted or barrier-blocked warps). Kept exact-or-early at every
    /// scheduling-state transition, so the scheduler may skip any warp
    /// with `warp_next[w] > now` without fetching or hazard-checking it —
    /// the cached bound never exceeds the true earliest issue time, which
    /// keeps cycle results bit-identical to the full rescan.
    warp_next: Vec<Cycle>,
    /// Per-warp pre-fetched next instruction and its hazard time.
    next_issue: Vec<NextIssue>,
    /// Lane-address row of the issuing instruction's gather/scatter
    /// ([`MemFootprint::Lanes`]): written by the frontend, read by the
    /// timing backend. Execute fills the active lanes' slots; replay
    /// packs the recorded addresses into the low slots.
    lanes: [u32; 32],
    /// Whether any warp was ever started since the last reset. An
    /// untouched core holds only default state, so [`Core::reset`] can
    /// skip it entirely — device resets stay O(touched cores), not
    /// O(topology).
    touched: bool,
}

impl Core {
    pub fn new(id: usize, warps: usize, threads: usize) -> Self {
        Core {
            id,
            warps: (0..warps).map(|_| WarpState::new(threads)).collect(),
            rf: RegFile::new(warps, threads),
            barriers: HashMap::new(),
            last_issued: 0,
            mem_port_free: 0,
            warp_next: vec![NEVER; warps],
            next_issue: vec![NextIssue::INVALID; warps],
            lanes: [0; 32],
            touched: false,
        }
    }

    /// Activates warp `w` at `pc` with a full thread mask.
    pub fn start_warp(&mut self, w: usize, pc: u32, ready_at: Cycle) {
        self.touched = true;
        let full = self.warps[w].full_mask();
        self.warps[w].start(pc, full, ready_at);
        self.rf.clear_warp(w);
        self.warp_next[w] = if self.warps[w].active { ready_at } else { NEVER };
        self.next_issue[w].valid = false;
    }

    /// Earliest cached next-issue bound across warps (`NEVER` when no warp
    /// is schedulable).
    fn next_event(&self) -> Cycle {
        self.warp_next.iter().copied().min().unwrap_or(NEVER)
    }

    pub fn any_active(&self) -> bool {
        self.warps.iter().any(|w| w.active)
    }

    /// Whether any warp was ever started since the last reset — the flag
    /// the device's O(touched) start/reset bookkeeping rides.
    pub fn is_touched(&self) -> bool {
        self.touched
    }

    /// Bit mask of active warps (CSR `active_warps`).
    fn active_warp_mask(&self) -> u32 {
        let mut m = 0;
        for (i, w) in self.warps.iter().enumerate() {
            if w.active {
                m |= 1 << i;
            }
        }
        m
    }

    /// Returns a core to its post-construction state. A core no warp was
    /// ever started on still *is* in that state, so the sweep is skipped
    /// wholesale; the return value reports whether any work was done
    /// (the device aggregates it into [`ResetWork`](crate::ResetWork)).
    pub fn reset(&mut self) -> bool {
        if !self.touched {
            return false;
        }
        for w in &mut self.warps {
            w.deactivate();
        }
        // Register rows and scoreboard entries are deliberately left
        // stale: a warp's block is zeroed when the warp (re)starts, and a
        // dormant warp's contents are unobservable (see
        // `WarpState::deactivate`).
        self.barriers.clear();
        self.last_issued = 0;
        self.mem_port_free = 0;
        self.warp_next.fill(NEVER);
        self.next_issue.fill(NextIssue::INVALID);
        self.touched = false;
        true
    }

    fn fetch<S: TraceSink + ?Sized, F: Frontend>(
        &self,
        w: usize,
        ctx: &CoreCtx<'_, S, F>,
    ) -> Result<(Instr, InstrMeta), SimError> {
        let pc = self.warps[w].pc;
        if pc < ctx.code_base || !pc.is_multiple_of(4) {
            return Err(SimError::UnmappedPc { core: self.id, warp: w, pc });
        }
        let idx = ((pc - ctx.code_base) / 4) as usize;
        match ctx.code.get(idx) {
            Some(&DecodedInstr { instr, meta }) => Ok((instr, meta)),
            None => Err(SimError::UnmappedPc { core: self.id, warp: w, pc }),
        }
    }

    /// Earliest cycle warp `w` could issue considering only warp-local
    /// state: the control gap and register hazards. Branchless: the
    /// decode cache encodes absent operands as dense index 0, whose
    /// scoreboard entry is permanently zero, so four unconditional
    /// `max`es cover every operand shape. The memory-port structural
    /// hazard is folded in by the caller (it moves when *other* warps
    /// issue, so it cannot be cached per warp).
    fn earliest_issue_local(&self, w: usize, meta: &InstrMeta) -> Cycle {
        let ready = self.warps[w].ready_at;
        // Every scoreboard entry is bounded by the warp watermark; when
        // that bound is already covered by the control gap, the operand
        // loads cannot raise the answer (exactness argued at
        // [`RegFile::busy_watermark`]).
        if self.rf.busy_watermark(w) <= ready {
            return ready;
        }
        ready
            .max(self.rf.busy_until(w, meta.src[0] as usize))
            .max(self.rf.busy_until(w, meta.src[1] as usize))
            .max(self.rf.busy_until(w, meta.src[2] as usize))
            .max(self.rf.busy_until(w, meta.dst as usize))
    }

    /// The warp's fetched-and-hazard-checked next instruction, from the
    /// cache when the warp's PC still matches, fetched on demand
    /// otherwise. Returns the instruction and its earliest issue cycle.
    fn next_for<S: TraceSink + ?Sized, F: Frontend>(
        &mut self,
        w: usize,
        ctx: &CoreCtx<'_, S, F>,
    ) -> Result<(Instr, InstrMeta, Cycle), SimError> {
        let cached = self.next_issue[w];
        if cached.valid && cached.pc == self.warps[w].pc {
            let t =
                if cached.is_mem { cached.t_local.max(self.mem_port_free) } else { cached.t_local };
            return Ok((cached.instr, cached.meta, t));
        }
        let (instr, meta) = self.fetch(w, ctx)?;
        let t_local = self.earliest_issue_local(w, &meta);
        let is_mem = meta.is_mem;
        self.next_issue[w] =
            NextIssue { instr, meta, pc: self.warps[w].pc, t_local, is_mem, valid: true };
        let t = if is_mem { t_local.max(self.mem_port_free) } else { t_local };
        Ok((instr, meta, t))
    }

    /// Eagerly prepares warp `w`'s next wake-up after it issued: fetch the
    /// next instruction, resolve its hazards, and point `warp_next` at the
    /// exact issue cycle so no intermediate scheduler steps are wasted. A
    /// fetch failure is deliberately swallowed — the warp wakes at its
    /// control-gap bound and the error surfaces on that scheduled scan.
    /// Note this can report a fault a few cycles later than the seed
    /// scheduler did (which fetched even not-yet-ready warps on every
    /// step), and a `max_cycles` limit falling inside that gap yields
    /// `CycleLimit` instead of the fetch fault. Only failing programs are
    /// affected; successful runs are cycle-for-cycle identical.
    fn refresh_after_issue<S: TraceSink + ?Sized, F: Frontend>(
        &mut self,
        w: usize,
        ctx: &CoreCtx<'_, S, F>,
    ) {
        if !self.warps[w].schedulable() {
            return;
        }
        match self.fetch(w, ctx) {
            Ok((instr, meta)) => {
                let t_local = self.earliest_issue_local(w, &meta);
                let is_mem = meta.is_mem;
                self.next_issue[w] =
                    NextIssue { instr, meta, pc: self.warps[w].pc, t_local, is_mem, valid: true };
                // `mem_port_free` only grows, so folding today's value in
                // keeps `warp_next` a valid lower bound.
                self.warp_next[w] = if is_mem { t_local.max(self.mem_port_free) } else { t_local };
            }
            Err(_) => {
                self.next_issue[w].valid = false;
                self.warp_next[w] = self.warps[w].ready_at;
            }
        }
    }

    /// Runs this core from cycle `start` until its next internal event
    /// would land at or beyond `horizon` — the conservative-lookahead
    /// core of the event loop. The caller (the device) guarantees that no
    /// *other* core acts in `[start, horizon)`, so everything this core
    /// does in that window — issues, counter increments, memory-system
    /// traffic, trace events — happens in exactly the global
    /// `(cycle, core)` order the one-step-per-pop loop produced, while
    /// paying the event-queue cost once per *window* instead of once per
    /// issue. `clock` tracks the last cycle actually simulated (the
    /// device's clock, also read by `mcycle`).
    ///
    /// Within one cycle: warps whose cached
    /// [`warp_next`](Core::warp_next) bound lies in the future are
    /// skipped with a single `u64` compare, and at most one instruction
    /// issues per cycle (in-order SIMT pipe).
    pub fn run_until<S: TraceSink + ?Sized, F: Frontend>(
        &mut self,
        start: Cycle,
        horizon: Cycle,
        clock: &mut Cycle,
        ctx: &mut CoreCtx<'_, S, F>,
    ) -> Result<CoreOutcome, SimError> {
        let n = self.warps.len();
        let mut now = start;
        loop {
            *clock = now;
            // Arbitration: the first warp in round-robin order (wrapping
            // by compare — `% n` would put a hardware division on every
            // slot) whose resolved issue time is due. Slots whose cached
            // bound lies in the future are skipped with a single `u64`
            // compare; optimistic bounds resolve through `next_for` and
            // are tightened in place, so a lost round never repeats work.
            let mut issued = false;
            let mut issued_next: Cycle = 0;
            let mut w = self.last_issued;
            for _ in 0..n {
                w += 1;
                if w >= n {
                    w = 0;
                }
                if self.warp_next[w] > now {
                    continue;
                }
                let (instr, meta, t) = self.next_for(w, ctx)?;
                if t <= now {
                    self.issue(w, instr, &meta, now, ctx)?;
                    self.last_issued = w;
                    self.refresh_after_issue(w, ctx);
                    issued = true;
                    issued_next = self.warp_next[w];
                    break;
                }
                self.warp_next[w] = t;
            }
            // Next event. An issued warp due again by `now + 1`
            // (latency-1 result, untaken branch) short-circuits the
            // bounds min — the dominant case in ALU-dense stretches.
            // Otherwise one vectorisable min pass over the contiguous
            // bounds array decides the jump; it runs *after* the issue,
            // so bounds rewritten by the instruction itself (barrier
            // release, wspawn) are already visible. During a stall no
            // warp is walked at all beyond the arbitration pass that
            // tightened the bounds.
            let next = if issued && issued_next <= now + 1 {
                now + 1
            } else {
                let m = self.next_event();
                if m == NEVER {
                    return if self.warps.iter().any(|x| x.active) {
                        // Only barrier-blocked warps remain.
                        Err(SimError::BarrierDeadlock { cycle: now })
                    } else {
                        Ok(CoreOutcome::Idle)
                    };
                }
                // One issue per core per cycle; beyond that, resume at
                // the earliest time any warp could possibly issue.
                if issued {
                    m.max(now + 1)
                } else {
                    m
                }
            };
            if next >= horizon {
                return Ok(CoreOutcome::Next(next));
            }
            now = next;
        }
    }

    /// Issues `instr` for warp `w` at cycle `now` in three steps: the
    /// shared prologue (counters, `on_issue`), a frontend that decides
    /// what the instruction did — [`Core::execute`] by running it,
    /// [`Core::replay`] by reading the warp's next recorded event — and
    /// the one timing backend, [`Core::retire`], that times the outcome.
    fn issue<S: TraceSink + ?Sized, F: Frontend>(
        &mut self,
        w: usize,
        instr: Instr,
        meta: &InstrMeta,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S, F>,
    ) -> Result<(), SimError> {
        let pc = self.warps[w].pc;
        let tmask = self.warps[w].tmask;
        ctx.counters.instructions += 1;
        ctx.counters.lane_instructions += u64::from(tmask.count_ones());
        ctx.counters.classes.record(meta.class);
        if let Some(sink) = ctx.trace.as_mut() {
            sink.on_issue(&IssueEvent { cycle: now, core: self.id, warp: w, pc, tmask, instr });
        }
        let eff = F::effects(self, w, instr, meta, now, ctx)?;
        self.retire(w, instr, meta, &eff, now, ctx)
    }

    /// The execute frontend: runs `instr`'s row kernels and functional
    /// memory traffic with every architectural fault check, and returns
    /// what the timing backend needs to know about the outcome.
    #[inline]
    fn execute<S: TraceSink + ?Sized, F: Frontend>(
        &mut self,
        w: usize,
        instr: Instr,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S, F>,
    ) -> Result<Effects, SimError> {
        let pc = self.warps[w].pc;
        let tmask = self.warps[w].tmask;
        // Whether every lane participates: selects the branch-free
        // contiguous row loops over the masked set-bit walks.
        let full = tmask == self.warps[w].full_mask();
        let mut eff = Effects::fall_through(pc, tmask);

        // The row-kernel application paths (broadcast, binary, immediate,
        // unary, FMA, div/rem strength reduction) are shared methods —
        // `broadcast_k`, `run_bin_k`, … — called from several arms each.
        // No arm times anything: write-back latencies, memory timing and
        // the sync ops are applied by `retire`.

        match instr {
            Instr::Lui { rd, imm } => {
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, imm as u32);
                }
            }
            Instr::Auipc { rd, imm } => {
                if !rd.is_zero() {
                    self.broadcast_k(
                        w,
                        full,
                        tmask,
                        rd.num() as usize,
                        pc.wrapping_add(imm as u32),
                    );
                }
            }
            Instr::Jal { rd, offset } => {
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, pc.wrapping_add(4));
                }
                eff.next_pc = pc.wrapping_add(offset as u32);
            }
            Instr::Jalr { rd, rs1, offset } => {
                let base = self.uniform(w, rs1, pc)?;
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, pc.wrapping_add(4));
                }
                eff.next_pc = base.wrapping_add(offset as u32) & !1;
            }
            Instr::Branch { op, rs1, rs2, offset } => {
                let ra = self.rf.row(w, rs1.num() as usize);
                let rb = self.rf.row(w, rs2.num() as usize);
                let k = tables::branch_kernel(op);
                let ballot = if full { (k.full)(ra, rb) } else { (k.masked)(ra, rb, tmask) };
                if ballot != 0 {
                    if ballot != tmask {
                        return Err(SimError::DivergentBranch { core: self.id, warp: w, pc });
                    }
                    eff.next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Instr::Load { width, rd, rs1, offset } => {
                let (d, base) = (rd.num() as usize, rs1.num() as usize);
                eff.mem = self.exec_load(w, full, tmask, width, d, base, offset, pc, ctx.mem)?;
            }
            Instr::Store { width, rs2, rs1, offset } => {
                let (base, vals) = (rs1.num() as usize, rs2.num() as usize);
                eff.mem =
                    self.exec_store(w, full, tmask, width, base, vals, offset, pc, ctx.mem)?;
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                if !rd.is_zero() {
                    self.run_imm_k(
                        w,
                        full,
                        tmask,
                        tables::alu_imm_kernel(op),
                        rd.num() as usize,
                        rs1.num() as usize,
                        imm,
                    );
                }
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                if !rd.is_zero() {
                    if matches!(op, AluOp::Divu | AluOp::Remu) {
                        // Uniform power-of-two strength reduction (see
                        // [`Core::run_divrem_k`]).
                        self.run_divrem_k(
                            w,
                            full,
                            tmask,
                            matches!(op, AluOp::Remu),
                            tables::alu_kernel(op),
                            rd.num() as usize,
                            rs1.num() as usize,
                            rs2.num() as usize,
                        );
                    } else {
                        self.run_bin_k(
                            w,
                            full,
                            tmask,
                            tables::alu_kernel(op),
                            rd.num() as usize,
                            rs1.num() as usize,
                            rs2.num() as usize,
                        );
                    }
                }
            }
            Instr::Fence => {}
            Instr::Ecall => return Err(SimError::Trap { pc, breakpoint: false }),
            Instr::Ebreak => return Err(SimError::Trap { pc, breakpoint: true }),
            Instr::Csr { op: _, rd, src, csr } => {
                // All architectural CSRs are read-only; writes are ignored.
                let _ = src;
                // Timing-dependent CSR values poison cross-configuration
                // replay; a recording sink taints the trace.
                if csr == csrs::MCYCLE
                    || csr == csrs::MCYCLE_H
                    || csr == csrs::MINSTRET
                    || csr == csrs::MINSTRET_H
                    || csr == csrs::ACTIVE_WARPS
                {
                    if let Some(sink) = ctx.trace.as_mut() {
                        if sink.wants_warp_events() {
                            sink.on_timing_csr_read();
                        }
                    }
                }
                if csr == csrs::THREAD_ID {
                    if !rd.is_zero() {
                        let dst = self.rf.row_mut(w, rd.num() as usize);
                        for l in lane_indices(tmask) {
                            dst[l] = l as u32;
                        }
                    }
                } else {
                    // Every other CSR is lane-invariant: resolve it once
                    // and broadcast instead of re-matching per lane.
                    let v = self.read_csr(csr, w, 0, now, ctx);
                    if !rd.is_zero() {
                        self.broadcast_k(w, full, tmask, rd.num() as usize, v);
                    }
                }
            }
            Instr::Flw { rd, rs1, offset } => {
                let (d, base) = (FP_BASE + rd.num() as usize, rs1.num() as usize);
                let word = LoadWidth::Word;
                eff.mem = self.exec_load(w, full, tmask, word, d, base, offset, pc, ctx.mem)?;
            }
            Instr::Fsw { rs2, rs1, offset } => {
                let (base, vals) = (rs1.num() as usize, FP_BASE + rs2.num() as usize);
                let word = StoreWidth::Word;
                eff.mem = self.exec_store(w, full, tmask, word, base, vals, offset, pc, ctx.mem)?;
            }
            Instr::FpOp { op, rd, rs1, rs2 } => {
                self.run_bin_k(
                    w,
                    full,
                    tmask,
                    tables::fp_bin_kernel(op),
                    FP_BASE + rd.num() as usize,
                    FP_BASE + rs1.num() as usize,
                    FP_BASE + rs2.num() as usize,
                );
            }
            Instr::FpFma { op, rd, rs1, rs2, rs3 } => {
                self.run_fma_k(
                    w,
                    full,
                    tmask,
                    tables::fma_kernel(op),
                    FP_BASE + rd.num() as usize,
                    FP_BASE + rs1.num() as usize,
                    FP_BASE + rs2.num() as usize,
                    FP_BASE + rs3.num() as usize,
                );
            }
            Instr::FpSqrt { rd, rs1 } => {
                self.run_un_k(
                    w,
                    full,
                    tmask,
                    tables::fsqrt_kernel(),
                    FP_BASE + rd.num() as usize,
                    FP_BASE + rs1.num() as usize,
                );
            }
            Instr::FpCmp { op, rd, rs1, rs2 } => {
                if !rd.is_zero() {
                    self.run_bin_k(
                        w,
                        full,
                        tmask,
                        tables::fp_cmp_kernel(op),
                        rd.num() as usize,
                        FP_BASE + rs1.num() as usize,
                        FP_BASE + rs2.num() as usize,
                    );
                }
            }
            Instr::FpCvtToInt { signed, rd, rs1 } => {
                if !rd.is_zero() {
                    self.run_un_k(
                        w,
                        full,
                        tmask,
                        tables::fcvt_to_int_kernel(signed),
                        rd.num() as usize,
                        FP_BASE + rs1.num() as usize,
                    );
                }
            }
            Instr::FpCvtFromInt { signed, rd, rs1 } => {
                self.run_un_k(
                    w,
                    full,
                    tmask,
                    tables::fcvt_from_int_kernel(signed),
                    FP_BASE + rd.num() as usize,
                    rs1.num() as usize,
                );
            }
            Instr::FpMvToInt { rd, rs1 } => {
                if !rd.is_zero() {
                    self.run_un_k(
                        w,
                        full,
                        tmask,
                        tables::fmv_bits_kernel(),
                        rd.num() as usize,
                        FP_BASE + rs1.num() as usize,
                    );
                }
            }
            Instr::FpMvFromInt { rd, rs1 } => {
                self.run_un_k(
                    w,
                    full,
                    tmask,
                    tables::fmv_bits_kernel(),
                    FP_BASE + rd.num() as usize,
                    rs1.num() as usize,
                );
            }
            Instr::FpClass { rd, rs1 } => {
                if !rd.is_zero() {
                    self.run_un_k(
                        w,
                        full,
                        tmask,
                        tables::fclass_kernel(),
                        rd.num() as usize,
                        FP_BASE + rs1.num() as usize,
                    );
                }
            }
            Instr::Tmc { rs1 } => {
                let mask = self.uniform(w, rs1, pc)? & self.warps[w].full_mask();
                if mask == 0 {
                    eff.sync = SyncOp::Halt;
                } else {
                    eff.tmask = mask;
                }
            }
            Instr::Wspawn { rs1, rs2 } => {
                let count = self.uniform(w, rs1, pc)?;
                let target = self.uniform(w, rs2, pc)?;
                eff.sync = SyncOp::Wspawn { count, target };
            }
            Instr::Split { rs1, offset } => {
                if self.warps[w].ipdom.len() >= ctx.ipdom_depth {
                    return Err(SimError::IpdomOverflow { pc });
                }
                let row = self.rf.row(w, rs1.num() as usize);
                let mut taken = 0u32;
                for l in lane_indices(tmask) {
                    taken |= u32::from(row[l] != 0) << l;
                }
                let not_taken = tmask & !taken;
                let else_pc = pc.wrapping_add(offset as u32);
                if not_taken == 0 {
                    self.warps[w].ipdom.push(IpdomEntry::Uniform { restore_mask: tmask });
                } else if taken == 0 {
                    self.warps[w].ipdom.push(IpdomEntry::Uniform { restore_mask: tmask });
                    eff.next_pc = else_pc;
                } else {
                    self.warps[w].ipdom.push(IpdomEntry::ElsePending {
                        restore_mask: tmask,
                        else_mask: not_taken,
                        else_pc,
                    });
                    eff.tmask = taken;
                }
            }
            Instr::Join => match self.warps[w].ipdom.pop() {
                None => return Err(SimError::IpdomUnderflow { pc }),
                Some(IpdomEntry::Uniform { restore_mask })
                | Some(IpdomEntry::ElseRunning { restore_mask }) => {
                    eff.tmask = restore_mask;
                }
                Some(IpdomEntry::ElsePending { restore_mask, else_mask, else_pc }) => {
                    self.warps[w].ipdom.push(IpdomEntry::ElseRunning { restore_mask });
                    eff.tmask = else_mask;
                    eff.next_pc = else_pc;
                }
            },
            Instr::Bar { rs1, rs2 } => {
                let id = self.uniform(w, rs1, pc)?;
                let count = self.uniform(w, rs2, pc)?;
                eff.sync = SyncOp::Bar { id, count };
            }
            Instr::Vote { op, rd, rs1 } => {
                let row = self.rf.row(w, rs1.num() as usize);
                let mut ballot = 0u32;
                for l in lane_indices(tmask) {
                    ballot |= u32::from(row[l] != 0) << l;
                }
                let result = match op {
                    VoteOp::Any => u32::from(ballot != 0),
                    VoteOp::All => u32::from(ballot == tmask),
                    VoteOp::Ballot => ballot,
                };
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, result);
                }
            }
        }
        Ok(eff)
    }

    /// The replay frontend: the [`Effects`] of a value-dependent
    /// instruction come from warp `w`'s next recorded [`WarpEvent`]
    /// instead of from row kernels and functional memory. Register and
    /// memory *values* are not maintained, and uniformity and divergence
    /// checks are skipped — the recorded run already passed them.
    #[inline]
    fn replay(
        &mut self,
        w: usize,
        instr: Instr,
        meta: &InstrMeta,
        replay: &mut ReplayCtx<'_>,
    ) -> Result<Effects, SimError> {
        let pc = self.warps[w].pc;
        let mut eff = Effects::fall_through(pc, self.warps[w].tmask);
        match instr {
            Instr::Jal { offset, .. } => eff.next_pc = pc.wrapping_add(offset as u32),
            Instr::Ecall => return Err(SimError::Trap { pc, breakpoint: false }),
            Instr::Ebreak => return Err(SimError::Trap { pc, breakpoint: true }),
            _ => {}
        }
        if !records_event(&instr) {
            return Ok(eff);
        }
        let diverged = || SimError::ReplayDiverged { core: self.id, warp: w, pc };
        let store = meta.class == ExecClass::Store;
        match (instr, replay.next(self.id, w).ok_or_else(diverged)?) {
            (
                Instr::Jalr { .. }
                | Instr::Branch { .. }
                | Instr::Split { .. }
                | Instr::Join
                | Instr::Tmc { .. },
                &WarpEvent::Ctl { next_pc, tmask },
            ) => {
                eff.next_pc = next_pc;
                eff.tmask = tmask;
            }
            (Instr::Tmc { .. }, WarpEvent::Halt) => eff.sync = SyncOp::Halt,
            (Instr::Wspawn { .. }, &WarpEvent::Wspawn { count, target }) => {
                eff.sync = SyncOp::Wspawn { count, target };
            }
            (Instr::Bar { .. }, &WarpEvent::Bar { id, count }) => {
                eff.sync = SyncOp::Bar { id, count };
            }
            (_, &WarpEvent::MemSpan { addr0, last, store: s }) if meta.is_mem && s == store => {
                eff.mem = MemFootprint::Span { addr0, last, store };
            }
            // Lane addresses are recorded pre-coalescing, one per active
            // lane in lane order. Packed into the low slots of the lane
            // row, they reach the backend in the same order, and it
            // re-coalesces them against this run's line size.
            (_, WarpEvent::MemLanes { addrs: recorded, store: s })
                if meta.is_mem
                    && *s == store
                    && recorded.len() == eff.tmask.count_ones() as usize =>
            {
                let n = recorded.len();
                self.lanes[..n].copy_from_slice(recorded);
                let mask = ((1u64 << n) - 1) as u32;
                eff.mem = MemFootprint::Lanes { mask, store };
            }
            _ => return Err(diverged()),
        }
        Ok(eff)
    }

    /// The timing backend, shared by both frontends: applies one issued
    /// instruction's [`Effects`] — memory timing, the scoreboard
    /// write-back, the warp event for a recording sink, wspawn
    /// activation, barrier arrival and release, halt, and the control
    /// gap. Because replay re-emits the warp event from the same place
    /// execute does, replay under a recorder reproduces the trace.
    #[inline]
    fn retire<S: TraceSink + ?Sized, F: Frontend>(
        &mut self,
        w: usize,
        instr: Instr,
        meta: &InstrMeta,
        eff: &Effects,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S, F>,
    ) -> Result<(), SimError> {
        let timing = ctx.timing;
        if let SyncOp::Wspawn { count, .. } = eff.sync {
            if count as usize > self.warps.len() {
                return Err(SimError::WspawnTooManyWarps {
                    requested: count,
                    available: self.warps.len(),
                });
            }
        }
        if let Some(sink) = ctx.trace.as_mut() {
            if records_event(&instr) && sink.wants_warp_events() {
                sink.on_warp_event(self.id, w, &eff.event(&self.lanes));
            }
        }

        // Memory timing: a span's coalesced lines are the ascending run
        // of line bases it covers, generated arithmetically inside the
        // walk; a lane set is coalesced here and handed over as one batch
        // (L1 bank serialisation, L2 bandwidth slots and DRAM queueing
        // all happen inside the walk).
        let completion = match eff.mem {
            MemFootprint::None => now,
            MemFootprint::Span { addr0, last, store } => {
                let out = ctx.memsys.access_span(self.id, addr0, last, now, store);
                self.mem_port_free = now + out.port_slots;
                *ctx.horizon = (*ctx.horizon).max(out.completion);
                out.completion
            }
            MemFootprint::Lanes { mask, store } => {
                let lanes = lane_indices(mask).map(|l| self.lanes[l]);
                let lines = coalesce_lines(lanes, ctx.line_bytes);
                let out = ctx.memsys.access_batch(self.id, lines.as_slice(), now, store);
                self.mem_port_free = now + out.port_slots;
                if !lines.is_empty() {
                    *ctx.horizon = (*ctx.horizon).max(out.completion);
                }
                out.completion
            }
        };
        if meta.wb != WriteBack::None {
            let ready = completion + ctx.wb_latency[meta.wb as usize];
            self.rf.set_busy(w, meta.dst as usize, ready);
        }

        match eff.sync {
            SyncOp::None => {}
            SyncOp::Halt => {
                self.warps[w].halt();
                self.warp_next[w] = NEVER;
                return Ok(());
            }
            SyncOp::Wspawn { count, target } => {
                self.activate_round(w, count as usize, target, now + timing.wspawn);
            }
            SyncOp::Bar { id, count } => {
                self.warps[w].pc = eff.next_pc;
                let state = self.barriers.entry(id).or_default();
                state.arrived.push(w);
                if state.arrived.len() >= count as usize {
                    // Warp `w` is among the released warps.
                    let released = self.barriers.remove(&id).expect("just inserted");
                    for rw in released.arrived {
                        self.warps[rw].at_barrier = None;
                        self.warps[rw].ready_at = now + timing.barrier;
                        self.warp_next[rw] = now + timing.barrier;
                        self.next_issue[rw].valid = false;
                    }
                } else {
                    self.warps[w].at_barrier = Some(id);
                    self.warps[w].ready_at = NEVER;
                    self.warp_next[w] = NEVER;
                }
                return Ok(());
            }
        }

        let taken = eff.next_pc != self.warps[w].pc.wrapping_add(4);
        let gap = if taken && meta.is_control { 1 + timing.branch_bubble } else { 1 };
        self.warps[w].pc = eff.next_pc;
        self.warps[w].tmask = eff.tmask;
        self.warps[w].ready_at = now + gap;
        // `ready_at` ignores the next instruction's register hazards,
        // so it is a valid (early) lower bound for the skip cache.
        self.warp_next[w] = now + gap;
        Ok(())
    }

    /// Snapshots source row `dense` into `buf`: whole-row move under a
    /// full mask, active-lane gather otherwise (divergent wide warps
    /// would pay more for the 128-byte copy than for the compute).
    #[inline]
    fn read_src(&self, w: usize, full: bool, tmask: u32, dense: usize, buf: &mut [u32; 32]) {
        if full {
            let _ = self.rf.copy_row(w, dense, buf);
        } else {
            self.rf.gather_row(w, dense, tmask, buf);
        }
    }

    /// Broadcasts one value to every active lane of destination row `d`.
    #[inline]
    fn broadcast_k(&mut self, w: usize, full: bool, tmask: u32, d: usize, v: u32) {
        let dst = self.rf.row_mut(w, d);
        if full {
            dst.fill(v);
        } else {
            for l in lane_indices(tmask) {
                dst[l] = v;
            }
        }
    }

    /// Applies a two-source row kernel: copy-free when no source row
    /// aliases the destination ([`RegFile::dst_src2`]), snapshot buffers
    /// otherwise. Identical values either way — the copy path exists only
    /// to resolve `dst == src` aliasing.
    #[inline]
    #[allow(clippy::too_many_arguments)] // hot-path kernel call: flat scalar args keep it register-passed
    fn run_bin_k(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        k: &'static BinKernel,
        d: usize,
        s1: usize,
        s2: usize,
    ) {
        match self.rf.dst_src2(w, d, s1, s2) {
            Some((dst, a, b)) => {
                if full {
                    (k.full)(dst, a, b)
                } else {
                    (k.masked)(dst, a, b, tmask)
                }
            }
            None => {
                let mut a = [0u32; 32];
                let mut b = [0u32; 32];
                self.read_src(w, full, tmask, s1, &mut a);
                self.read_src(w, full, tmask, s2, &mut b);
                let dst = self.rf.row_mut(w, d);
                if full {
                    (k.full)(dst, &a, &b)
                } else {
                    (k.masked)(dst, &a, &b, tmask)
                }
            }
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)] // hot-path kernel call: flat scalar args keep it register-passed
    fn run_imm_k(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        k: &'static ImmKernel,
        d: usize,
        s: usize,
        imm: i32,
    ) {
        match self.rf.dst_src1(w, d, s) {
            Some((dst, a)) => {
                if full {
                    (k.full)(dst, a, imm)
                } else {
                    (k.masked)(dst, a, imm, tmask)
                }
            }
            None => {
                let mut a = [0u32; 32];
                self.read_src(w, full, tmask, s, &mut a);
                let dst = self.rf.row_mut(w, d);
                if full {
                    (k.full)(dst, &a, imm)
                } else {
                    (k.masked)(dst, &a, imm, tmask)
                }
            }
        }
    }

    #[inline]
    fn run_un_k(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        k: &'static UnKernel,
        d: usize,
        s: usize,
    ) {
        match self.rf.dst_src1(w, d, s) {
            Some((dst, a)) => {
                if full {
                    (k.full)(dst, a)
                } else {
                    (k.masked)(dst, a, tmask)
                }
            }
            None => {
                let mut a = [0u32; 32];
                self.read_src(w, full, tmask, s, &mut a);
                let dst = self.rf.row_mut(w, d);
                if full {
                    (k.full)(dst, &a)
                } else {
                    (k.masked)(dst, &a, tmask)
                }
            }
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)] // the operand shape of an FMA
    fn run_fma_k(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        k: &'static FmaKernel,
        d: usize,
        s1: usize,
        s2: usize,
        s3: usize,
    ) {
        match self.rf.dst_src3(w, d, s1, s2, s3) {
            Some((dst, a, b, c)) => {
                if full {
                    (k.full)(dst, a, b, c)
                } else {
                    (k.masked)(dst, a, b, c, tmask)
                }
            }
            None => {
                let mut a = [0u32; 32];
                let mut b = [0u32; 32];
                let mut c = [0u32; 32];
                self.read_src(w, full, tmask, s1, &mut a);
                self.read_src(w, full, tmask, s2, &mut b);
                self.read_src(w, full, tmask, s3, &mut c);
                let dst = self.rf.row_mut(w, d);
                if full {
                    (k.full)(dst, &a, &b, &c)
                } else {
                    (k.masked)(dst, &a, &b, &c, tmask)
                }
            }
        }
    }

    /// `divu`/`remu` by a uniform power-of-two divisor (the `item / hs`,
    /// `item % hs` indexing idiom) becomes a shift/mask — a host hardware
    /// division per lane is the single most expensive ALU op and cannot
    /// be vectorised. The uniformity check reads the divisor row in
    /// place; the rewrite reuses the `srli`/`andi` kernels, whose scalar
    /// semantics are exactly `a >> sh` and `a & mask`.
    #[inline]
    #[allow(clippy::too_many_arguments)] // mirrors the binary-op shape plus the op flag
    fn run_divrem_k(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        rem: bool,
        k: &'static BinKernel,
        d: usize,
        s1: usize,
        s2: usize,
    ) {
        let b = self.rf.row(w, s2);
        let first = tmask.trailing_zeros() as usize;
        let uniform = if full {
            b[1..].iter().all(|&x| x == b[0])
        } else {
            lane_indices(tmask).all(|l| b[l] == b[first])
        };
        let uni = uniform.then_some(b[first]);
        if let Some(dv) = uni {
            if dv != 0 && dv.is_power_of_two() {
                let (ik, imm) = if rem {
                    (tables::alu_imm_kernel(AluImmOp::And), (dv - 1) as i32)
                } else {
                    (tables::alu_imm_kernel(AluImmOp::Srl), dv.trailing_zeros() as i32)
                };
                self.run_imm_k(w, full, tmask, ik, d, s1, imm);
                return;
            }
        }
        self.run_bin_k(w, full, tmask, k, d, s1, s2);
    }

    /// First-class dispatch-round activation — the `vx_wspawn` half of
    /// the in-kernel round loop (spawn → work → barrier → respawn).
    /// (Re)starts warps `1..count`, except the spawning warp, at
    /// `target`: the warp slots stay **resident** across rounds — a
    /// reactivation reuses the slot's control block, divergence stack
    /// and register storage in place (one bulk [`RegFile::clear_warp`]
    /// per slot; a *dirty-row* clear that re-zeroed only the previous
    /// round's writes was prototyped here and reverted — tracking
    /// dirtiness cost more on the per-instruction path than the bulk
    /// clear it saved, see README "PR5 results").
    fn activate_round(&mut self, spawner: usize, count: usize, target: u32, ready_at: Cycle) {
        for i in 1..count {
            if i == spawner {
                continue;
            }
            let full = self.warps[i].full_mask();
            self.warps[i].start(target, full, ready_at);
            self.rf.clear_warp(i);
            self.warp_next[i] = ready_at;
            // Respawn resets scheduling state; a cached entry could alias
            // the same PC with stale hazards.
            self.next_issue[i].valid = false;
        }
    }

    /// The load half of the execute frontend, shared by `Load` and `Flw`
    /// (`dense` is the destination's dense register index, `0` for
    /// `x0`): functional reads with per-lane alignment faults, returning
    /// the access's footprint. Full-mask broadcast and unit-stride word
    /// loads — the two dominant SIMT shapes — are served bulk, with
    /// values and faults identical to the lane loop: a misaligned
    /// *broadcast* faults there (lane 0 is the first lane the lane loop
    /// would check), while a misaligned *stride* never classifies and
    /// falls back to the lane loop, which raises the same fault on lane 0.
    #[inline]
    #[allow(clippy::too_many_arguments)] // hot-path helper: flat scalar args keep it register-passed
    fn exec_load(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        width: LoadWidth,
        dense: usize,
        base_dense: usize,
        offset: i32,
        pc: u32,
        mem: &MainMemory,
    ) -> Result<MemFootprint, SimError> {
        let word = matches!(width, LoadWidth::Word);
        if full && dense != 0 && word {
            // Only this path snapshots the base row (the row write below
            // needs `&mut self`).
            let mut buf = [0u32; 32];
            match span::classify(self.rf.copy_row(w, base_dense, &mut buf), offset) {
                Span::Broadcast { addr0 } => {
                    if addr0 & 3 != 0 {
                        return Err(SimError::MisalignedAccess { pc, addr: addr0, align: 4 });
                    }
                    self.rf.row_mut(w, dense).fill(mem.read_u32(addr0));
                    return Ok(MemFootprint::Span { addr0, last: addr0, store: false });
                }
                Span::UnitStride { addr0, last } => {
                    mem.read_u32_into(addr0, self.rf.row_mut(w, dense));
                    return Ok(MemFootprint::Span { addr0, last, store: false });
                }
                Span::Irregular => {}
            }
        }
        // The general path reads the base row in place: every active
        // lane's address is validated first (fault on the lowest bad
        // lane), which also ends the row borrow before the destination
        // row is taken.
        let bytes = load_width_bytes(width);
        let base = self.rf.row(w, base_dense);
        for l in lane_indices(tmask) {
            let addr = base[l].wrapping_add(offset as u32);
            if addr & (bytes - 1) != 0 {
                return Err(SimError::MisalignedAccess { pc, addr, align: bytes });
            }
            self.lanes[l] = addr;
        }
        if dense == 0 {
            // Address fault/timing only; x0 swallows the values.
        } else if word {
            // Masked/strided word gather: batch the functional reads page
            // run by page run instead of one page walk per lane.
            mem.read_u32_gather(&self.lanes, tmask, self.rf.row_mut(w, dense));
        } else {
            let dst = self.rf.row_mut(w, dense);
            for l in lane_indices(tmask) {
                let addr = self.lanes[l];
                dst[l] = match width {
                    LoadWidth::Byte => mem.read_u8(addr) as i8 as i32 as u32,
                    LoadWidth::ByteU => mem.read_u8(addr) as u32,
                    LoadWidth::Half => mem.read_u16(addr) as i16 as i32 as u32,
                    LoadWidth::HalfU => mem.read_u16(addr) as u32,
                    LoadWidth::Word => mem.read_u32(addr),
                };
            }
        }
        Ok(MemFootprint::Lanes { mask: tmask, store: false })
    }

    /// The store half of the execute frontend, shared by `Store` and
    /// `Fsw` (`vals_dense` is the source row's dense register index).
    /// Full-mask unit-stride word stores are served bulk. Broadcast rows
    /// deliberately stay on the lane loop: overlapping stores must land
    /// in lane order, which only the lane loop preserves.
    #[inline]
    #[allow(clippy::too_many_arguments)] // hot-path helper: flat scalar args keep it register-passed
    fn exec_store(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        width: StoreWidth,
        base_dense: usize,
        vals_dense: usize,
        offset: i32,
        pc: u32,
        mem: &mut MainMemory,
    ) -> Result<MemFootprint, SimError> {
        let base = self.rf.row(w, base_dense);
        let vals = self.rf.row(w, vals_dense);
        if full && matches!(width, StoreWidth::Word) {
            if let Span::UnitStride { addr0, last } = span::classify(base, offset) {
                mem.write_u32_from(addr0, vals);
                return Ok(MemFootprint::Span { addr0, last, store: true });
            }
        }
        let bytes = match width {
            StoreWidth::Byte => 1,
            StoreWidth::Half => 2,
            StoreWidth::Word => 4,
        };
        for l in lane_indices(tmask) {
            let addr = base[l].wrapping_add(offset as u32);
            if addr & (bytes - 1) != 0 {
                return Err(SimError::MisalignedAccess { pc, addr, align: bytes });
            }
            match width {
                StoreWidth::Byte => mem.write_u8(addr, vals[l] as u8),
                StoreWidth::Half => mem.write_u16(addr, vals[l] as u16),
                StoreWidth::Word => mem.write_u32(addr, vals[l]),
            }
            self.lanes[l] = addr;
        }
        Ok(MemFootprint::Lanes { mask: tmask, store: true })
    }

    /// The value of `reg` in the lowest active lane of warp `w`, with a
    /// uniformity check across all active lanes.
    fn uniform(&self, w: usize, reg: vortex_isa::Reg, pc: u32) -> Result<u32, SimError> {
        let tmask = self.warps[w].tmask;
        let err = SimError::NonUniformOperand { core: self.id, warp: w, pc };
        if tmask == 0 {
            return Err(err);
        }
        let row = self.rf.row(w, reg.num() as usize);
        let v = row[tmask.trailing_zeros() as usize];
        if lane_indices(tmask).any(|l| row[l] != v) {
            return Err(err);
        }
        Ok(v)
    }

    fn read_csr<S: TraceSink + ?Sized, F: Frontend>(
        &self,
        csr: Csr,
        w: usize,
        lane: usize,
        now: Cycle,
        ctx: &CoreCtx<'_, S, F>,
    ) -> u32 {
        match csr {
            c if c == csrs::THREAD_ID => lane as u32,
            c if c == csrs::WARP_ID => w as u32,
            c if c == csrs::CORE_ID => self.id as u32,
            c if c == csrs::THREAD_MASK => self.warps[w].tmask,
            c if c == csrs::ACTIVE_WARPS => self.active_warp_mask(),
            c if c == csrs::NUM_THREADS => self.warps[w].threads() as u32,
            c if c == csrs::NUM_WARPS => self.warps.len() as u32,
            c if c == csrs::NUM_CORES => ctx.num_cores as u32,
            c if c == csrs::MCYCLE => now as u32,
            c if c == csrs::MCYCLE_H => (now >> 32) as u32,
            c if c == csrs::MINSTRET => ctx.counters.instructions as u32,
            c if c == csrs::MINSTRET_H => (ctx.counters.instructions >> 32) as u32,
            _ => 0,
        }
    }
}

fn load_width_bytes(width: LoadWidth) -> u32 {
    match width {
        LoadWidth::Byte | LoadWidth::ByteU => 1,
        LoadWidth::Half | LoadWidth::HalfU => 2,
        LoadWidth::Word => 4,
    }
}

/// The set-bit lane indices of `mask`, ascending: cost scales with the
/// active lanes, not with the 32-lane SIMT width.
#[inline]
fn lane_indices(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let l = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(l)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_isa::reg;

    #[test]
    fn uniform_check_reads_active_lanes_only() {
        let mut core = Core::new(0, 1, 4);
        core.start_warp(0, 0x100, 0);
        core.warps[0].tmask = 0b0110;
        core.rf.row_mut(0, reg::T1.num() as usize).copy_from_slice(&[99, 7, 7, 99]);
        assert_eq!(core.uniform(0, reg::T1, 0x100).unwrap(), 7);
        core.rf.row_mut(0, reg::T1.num() as usize)[2] = 8;
        assert!(core.uniform(0, reg::T1, 0x100).is_err());
        // x0 is uniform zero regardless of lane contents.
        assert_eq!(core.uniform(0, reg::ZERO, 0x100).unwrap(), 0);
    }

    #[test]
    fn start_warp_clears_register_block() {
        let mut core = Core::new(0, 2, 4);
        core.start_warp(0, 0x100, 0);
        core.rf.row_mut(0, 5)[1] = 42;
        core.rf.set_busy(0, 5, 9);
        core.rf.row_mut(1, 5)[0] = 17;
        core.start_warp(0, 0x200, 0);
        assert_eq!(core.rf.row(0, 5), &[0; 4]);
        assert_eq!(core.rf.busy_until(0, 5), 0);
        // Warp 1's rows are untouched by warp 0's restart.
        assert_eq!(core.rf.read(1, 5, 0), 17);
    }
}
