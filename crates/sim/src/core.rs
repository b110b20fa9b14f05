//! One SIMT core: warp scheduling, hazard checking and instruction
//! execution.
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

use vortex_isa::{
    csrs, AluImmOp, AluOp, Csr, ExecClass, FpBinOp, Instr, LoadWidth, StoreWidth, VoteOp,
};
use vortex_mem::{coalesce_lines, Cycle, MainMemory, MemSystem};

use crate::config::TimingConfig;
use crate::counters::DeviceCounters;
use crate::decoded::{DecodedInstr, InstrMeta};
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
/// dispatch on the per-instruction hot path.
pub(crate) struct CoreCtx<'a, S: TraceSink + ?Sized> {
    /// The loaded program with its decode cache, one entry per slot.
    pub code: &'a [DecodedInstr],
    pub code_base: u32,
    pub mem: &'a mut MainMemory,
    pub memsys: &'a mut MemSystem,
    pub timing: &'a TimingConfig,
    pub num_cores: usize,
    pub ipdom_depth: usize,
    pub counters: &'a mut DeviceCounters,
    pub trace: Option<&'a mut S>,
    /// Latest completion time of any memory event (for drain accounting).
    pub horizon: &'a mut Cycle,
    /// Cache-line size (hoisted from the memory system once per run).
    pub line_bytes: u32,
    /// When set, the run is a *replay*: [`Core::issue`] consumes recorded
    /// [`WarpEvent`]s instead of executing row kernels — scheduling,
    /// hazards and memory-system timing run unchanged off trace-visible
    /// data, so cycles and counters are bit-identical to execute mode.
    pub replay: Option<ReplayCtx<'a>>,
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: Vec<usize>,
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

    fn fetch<S: TraceSink + ?Sized>(
        &self,
        w: usize,
        ctx: &CoreCtx<'_, S>,
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
    fn next_for<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        ctx: &CoreCtx<'_, S>,
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
    fn refresh_after_issue<S: TraceSink + ?Sized>(&mut self, w: usize, ctx: &CoreCtx<'_, S>) {
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
    pub fn run_until<S: TraceSink + ?Sized>(
        &mut self,
        start: Cycle,
        horizon: Cycle,
        clock: &mut Cycle,
        ctx: &mut CoreCtx<'_, S>,
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

    /// Executes `instr` for warp `w` at cycle `now`.
    fn issue<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        instr: Instr,
        meta: &InstrMeta,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Result<(), SimError> {
        // A replay run consumes recorded outcomes instead of executing
        // row kernels; the twin issues with identical timing.
        if ctx.replay.is_some() {
            return self.issue_replay(w, instr, meta, now, ctx);
        }
        let pc = self.warps[w].pc;
        let tmask = self.warps[w].tmask;
        // Whether every lane participates: selects the branch-free
        // contiguous row loops over the masked set-bit walks.
        let full = tmask == self.warps[w].full_mask();

        ctx.counters.instructions += 1;
        ctx.counters.lane_instructions += u64::from(tmask.count_ones());
        ctx.counters.classes.record(meta.class);
        if let Some(sink) = ctx.trace.as_mut() {
            sink.on_issue(&IssueEvent { cycle: now, core: self.id, warp: w, pc, tmask, instr });
        }

        let timing = ctx.timing;
        let mut next_pc = pc.wrapping_add(4);
        let mut halted = false;

        // Walks the active lanes of `tmask` (cost scales with set bits,
        // not the warp width).
        macro_rules! for_lanes {
            (|$l:ident| $body:expr) => {{
                let mut m = tmask;
                while m != 0 {
                    let $l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    $body
                }
            }};
        }
        // Fills the destination row `$dense` with `$val` (an expression of
        // the lane index): a contiguous pass under a full mask, a set-bit
        // walk otherwise. `$val` must not touch `self` — sources are
        // snapshot into stack buffers first (`RegFile::copy_row`).
        macro_rules! write_row {
            ($dense:expr, |$l:ident| $val:expr) => {{
                let dst = self.rf.row_mut(w, $dense);
                if full {
                    for $l in 0..dst.len() {
                        dst[$l] = $val;
                    }
                } else {
                    for_lanes!(|$l| dst[$l] = $val);
                }
            }};
        }
        // The row-kernel application paths (broadcast, binary, immediate,
        // unary, FMA, div/rem strength reduction) are shared methods —
        // `broadcast_k`, `run_bin_k`, … — called from several arms each.
        macro_rules! wb_int {
            ($rd:expr, $lat:expr) => {{
                if !$rd.is_zero() {
                    self.rf.set_busy(w, $rd.num() as usize, now + $lat);
                }
            }};
        }
        macro_rules! wb_fp {
            ($rd:expr, $lat:expr) => {{
                self.rf.set_busy(w, FP_BASE + $rd.num() as usize, now + $lat);
            }};
        }

        match instr {
            Instr::Lui { rd, imm } => {
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, imm as u32);
                }
                wb_int!(rd, timing.alu);
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
                wb_int!(rd, timing.alu);
            }
            Instr::Jal { rd, offset } => {
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, pc.wrapping_add(4));
                }
                wb_int!(rd, timing.alu);
                next_pc = pc.wrapping_add(offset as u32);
            }
            Instr::Jalr { rd, rs1, offset } => {
                let base = self.uniform(w, rs1, pc)?;
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, pc.wrapping_add(4));
                }
                wb_int!(rd, timing.alu);
                next_pc = base.wrapping_add(offset as u32) & !1;
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
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Instr::Load { width, rd, rs1, offset } => 'load: {
                let (bytes, _) = load_width_bytes(width);
                let mut addrs = [0u32; 32];
                // Full-mask word-load fast paths for the two dominant SIMT
                // shapes — broadcast and unit-stride — via the shared
                // helper (see [`Core::fast_word_load`]). Only this path
                // snapshots the base row (the helper needs `&mut self`).
                if full && !rd.is_zero() && matches!(width, LoadWidth::Word) {
                    let mut base = [0u32; 32];
                    let _ = self.rf.copy_row(w, rs1.num() as usize, &mut base);
                    if self.fast_word_load(w, rd.num() as usize, &base, offset, pc, now, ctx)? {
                        break 'load;
                    }
                }
                // General paths read the base row in place: every active
                // lane's address is validated first (fault on the lowest
                // bad lane, as the fused loop did), which also ends the
                // row borrow before the destination row is taken.
                {
                    let base = self.rf.row(w, rs1.num() as usize);
                    for_lanes!(|l| {
                        let addr = base[l].wrapping_add(offset as u32);
                        if addr & (bytes - 1) != 0 {
                            return Err(SimError::MisalignedAccess { pc, addr, align: bytes });
                        }
                        addrs[l] = addr;
                    });
                }
                if rd.is_zero() {
                    // Address fault/timing only; x0 swallows the values.
                } else if matches!(width, LoadWidth::Word) {
                    // Masked/strided word gather: batch the functional
                    // reads page run by page run instead of one page walk
                    // per lane.
                    let dst = self.rf.row_mut(w, rd.num() as usize);
                    ctx.mem.read_u32_gather(&addrs, tmask, dst);
                } else {
                    let dst = self.rf.row_mut(w, rd.num() as usize);
                    for_lanes!(|l| {
                        let addr = addrs[l];
                        dst[l] = match width {
                            LoadWidth::Byte => ctx.mem.read_u8(addr) as i8 as i32 as u32,
                            LoadWidth::ByteU => ctx.mem.read_u8(addr) as u32,
                            LoadWidth::Half => ctx.mem.read_u16(addr) as i16 as i32 as u32,
                            LoadWidth::HalfU => ctx.mem.read_u16(addr) as u32,
                            LoadWidth::Word => ctx.mem.read_u32(addr),
                        };
                    });
                }
                let completion = self.memory_access(w, &addrs, tmask, false, now, ctx);
                if !rd.is_zero() {
                    self.rf.set_busy(w, rd.num() as usize, completion);
                }
            }
            Instr::Store { width, rs2, rs1, offset } => 'store: {
                let bytes = match width {
                    StoreWidth::Byte => 1,
                    StoreWidth::Half => 2,
                    StoreWidth::Word => 4,
                };
                // Unit-stride full-mask word stores take the shared bulk
                // helper; broadcast stores stay on the lane loop (see
                // [`Core::fast_word_store`]).
                if full
                    && matches!(width, StoreWidth::Word)
                    && self.fast_word_store(
                        w,
                        rs1.num() as usize,
                        rs2.num() as usize,
                        offset,
                        now,
                        ctx,
                    )
                {
                    break 'store;
                }
                let mut addrs = [0u32; 32];
                let base = self.rf.row(w, rs1.num() as usize);
                let vals = self.rf.row(w, rs2.num() as usize);
                for_lanes!(|l| {
                    let addr = base[l].wrapping_add(offset as u32);
                    if addr & (bytes - 1) != 0 {
                        return Err(SimError::MisalignedAccess { pc, addr, align: bytes });
                    }
                    match width {
                        StoreWidth::Byte => ctx.mem.write_u8(addr, vals[l] as u8),
                        StoreWidth::Half => ctx.mem.write_u16(addr, vals[l] as u16),
                        StoreWidth::Word => ctx.mem.write_u32(addr, vals[l]),
                    }
                    addrs[l] = addr;
                });
                self.memory_access(w, &addrs, tmask, true, now, ctx);
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
                wb_int!(rd, timing.alu);
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
                let lat = match meta.class {
                    ExecClass::Mul => timing.mul,
                    ExecClass::Div => timing.div,
                    _ => timing.alu,
                };
                wb_int!(rd, lat);
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
                        write_row!(rd.num() as usize, |l| l as u32);
                    }
                } else {
                    // Every other CSR is lane-invariant: resolve it once
                    // and broadcast instead of re-matching per lane.
                    let v = self.read_csr(csr, w, 0, now, ctx);
                    if !rd.is_zero() {
                        self.broadcast_k(w, full, tmask, rd.num() as usize, v);
                    }
                }
                wb_int!(rd, timing.alu);
            }
            Instr::Flw { rd, rs1, offset } => 'flw: {
                let mut addrs = [0u32; 32];
                // Broadcast / unit-stride fast paths via the shared
                // helper, as for integer word loads.
                if full {
                    let mut base = [0u32; 32];
                    let _ = self.rf.copy_row(w, rs1.num() as usize, &mut base);
                    if self.fast_word_load(
                        w,
                        FP_BASE + rd.num() as usize,
                        &base,
                        offset,
                        pc,
                        now,
                        ctx,
                    )? {
                        break 'flw;
                    }
                }
                // Masked/strided gather, as for integer word loads (the
                // base row is read in place; validation ends its borrow).
                {
                    let base = self.rf.row(w, rs1.num() as usize);
                    for_lanes!(|l| {
                        let addr = base[l].wrapping_add(offset as u32);
                        if addr & 3 != 0 {
                            return Err(SimError::MisalignedAccess { pc, addr, align: 4 });
                        }
                        addrs[l] = addr;
                    });
                }
                let dst = self.rf.row_mut(w, FP_BASE + rd.num() as usize);
                ctx.mem.read_u32_gather(&addrs, tmask, dst);
                let completion = self.memory_access(w, &addrs, tmask, false, now, ctx);
                self.rf.set_busy(w, FP_BASE + rd.num() as usize, completion);
            }
            Instr::Fsw { rs2, rs1, offset } => 'fsw: {
                // Unit-stride full-mask bulk path via the shared helper,
                // as for word stores.
                if full
                    && self.fast_word_store(
                        w,
                        rs1.num() as usize,
                        FP_BASE + rs2.num() as usize,
                        offset,
                        now,
                        ctx,
                    )
                {
                    break 'fsw;
                }
                let mut addrs = [0u32; 32];
                let base = self.rf.row(w, rs1.num() as usize);
                let vals = self.rf.row(w, FP_BASE + rs2.num() as usize);
                for_lanes!(|l| {
                    let addr = base[l].wrapping_add(offset as u32);
                    if addr & 3 != 0 {
                        return Err(SimError::MisalignedAccess { pc, addr, align: 4 });
                    }
                    ctx.mem.write_u32(addr, vals[l]);
                    addrs[l] = addr;
                });
                self.memory_access(w, &addrs, tmask, true, now, ctx);
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
                let lat = if matches!(op, FpBinOp::Div) { timing.fdiv } else { timing.fpu };
                wb_fp!(rd, lat);
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
                wb_fp!(rd, timing.fpu);
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
                wb_fp!(rd, timing.fsqrt);
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
                wb_int!(rd, timing.fpu);
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
                wb_int!(rd, timing.fpu);
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
                wb_fp!(rd, timing.fpu);
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
                wb_int!(rd, timing.fpu);
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
                wb_fp!(rd, timing.fpu);
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
                wb_int!(rd, timing.fpu);
            }
            Instr::Tmc { rs1 } => {
                let mask = self.uniform(w, rs1, pc)? & self.warps[w].full_mask();
                if mask == 0 {
                    self.warps[w].halt();
                    self.warp_next[w] = NEVER;
                    halted = true;
                } else {
                    self.warps[w].tmask = mask;
                }
            }
            Instr::Wspawn { rs1, rs2 } => {
                let count = self.uniform(w, rs1, pc)?;
                let target = self.uniform(w, rs2, pc)?;
                if count as usize > self.warps.len() {
                    return Err(SimError::WspawnTooManyWarps {
                        requested: count,
                        available: self.warps.len(),
                    });
                }
                if let Some(sink) = ctx.trace.as_mut() {
                    if sink.wants_warp_events() {
                        sink.on_warp_event(self.id, w, &WarpEvent::Wspawn { count, target });
                    }
                }
                self.activate_round(w, count as usize, target, now + timing.wspawn);
            }
            Instr::Split { rs1, offset } => {
                if self.warps[w].ipdom.len() >= ctx.ipdom_depth {
                    return Err(SimError::IpdomOverflow { pc });
                }
                let row = self.rf.row(w, rs1.num() as usize);
                let mut taken = 0u32;
                for_lanes!(|l| taken |= u32::from(row[l] != 0) << l);
                let not_taken = tmask & !taken;
                let else_pc = pc.wrapping_add(offset as u32);
                if not_taken == 0 {
                    self.warps[w].ipdom.push(IpdomEntry::Uniform { restore_mask: tmask });
                } else if taken == 0 {
                    self.warps[w].ipdom.push(IpdomEntry::Uniform { restore_mask: tmask });
                    next_pc = else_pc;
                } else {
                    self.warps[w].ipdom.push(IpdomEntry::ElsePending {
                        restore_mask: tmask,
                        else_mask: not_taken,
                        else_pc,
                    });
                    self.warps[w].tmask = taken;
                }
            }
            Instr::Join => match self.warps[w].ipdom.pop() {
                None => return Err(SimError::IpdomUnderflow { pc }),
                Some(IpdomEntry::Uniform { restore_mask })
                | Some(IpdomEntry::ElseRunning { restore_mask }) => {
                    self.warps[w].tmask = restore_mask;
                }
                Some(IpdomEntry::ElsePending { restore_mask, else_mask, else_pc }) => {
                    self.warps[w].ipdom.push(IpdomEntry::ElseRunning { restore_mask });
                    self.warps[w].tmask = else_mask;
                    next_pc = else_pc;
                }
            },
            Instr::Bar { rs1, rs2 } => {
                let id = self.uniform(w, rs1, pc)?;
                let count = self.uniform(w, rs2, pc)?;
                if let Some(sink) = ctx.trace.as_mut() {
                    if sink.wants_warp_events() {
                        sink.on_warp_event(self.id, w, &WarpEvent::Bar { id, count });
                    }
                }
                let count = count as usize;
                let state = self.barriers.entry(id).or_default();
                state.arrived.push(w);
                if state.arrived.len() >= count {
                    let released = self.barriers.remove(&id).expect("just inserted");
                    for rw in released.arrived {
                        self.warps[rw].at_barrier = None;
                        self.warps[rw].ready_at = now + timing.barrier;
                        self.warp_next[rw] = now + timing.barrier;
                        self.next_issue[rw].valid = false;
                    }
                    // `self` (warp w) is among the released warps.
                    self.warps[w].pc = next_pc;
                    return Ok(());
                } else {
                    self.warps[w].at_barrier = Some(id);
                    self.warps[w].ready_at = NEVER;
                    self.warp_next[w] = NEVER;
                    self.warps[w].pc = next_pc;
                    return Ok(());
                }
            }
            Instr::Vote { op, rd, rs1 } => {
                let row = self.rf.row(w, rs1.num() as usize);
                let mut ballot = 0u32;
                for_lanes!(|l| ballot |= u32::from(row[l] != 0) << l);
                let result = match op {
                    VoteOp::Any => u32::from(ballot != 0),
                    VoteOp::All => u32::from(ballot == tmask),
                    VoteOp::Ballot => ballot,
                };
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, result);
                }
                wb_int!(rd, timing.alu);
            }
        }

        // Value-dependent control outcomes, recorded *after* the arm so
        // the post-instruction PC and mask are final. (`Bar` returned
        // above and records in its arm; `Jal` is static and needs none.)
        if let Some(sink) = ctx.trace.as_mut() {
            if sink.wants_warp_events() {
                match instr {
                    Instr::Branch { .. }
                    | Instr::Jalr { .. }
                    | Instr::Split { .. }
                    | Instr::Join => {
                        let tmask = self.warps[w].tmask;
                        sink.on_warp_event(self.id, w, &WarpEvent::Ctl { next_pc, tmask });
                    }
                    Instr::Tmc { .. } => {
                        let ev = if halted {
                            WarpEvent::Halt
                        } else {
                            WarpEvent::Ctl { next_pc, tmask: self.warps[w].tmask }
                        };
                        sink.on_warp_event(self.id, w, &ev);
                    }
                    _ => {}
                }
            }
        }

        if !halted {
            let taken = next_pc != pc.wrapping_add(4);
            let gap = if taken && meta.is_control { 1 + timing.branch_bubble } else { 1 };
            self.warps[w].pc = next_pc;
            self.warps[w].ready_at = now + gap;
            // `ready_at` ignores the next instruction's register hazards,
            // so it is a valid (early) lower bound for the skip cache.
            self.warp_next[w] = now + gap;
        }
        Ok(())
    }

    /// The replay twin of [`Core::issue`]: consumes recorded
    /// [`WarpEvent`]s for every value-dependent outcome and skips all row
    /// kernels and functional memory traffic, while issuing with exactly
    /// the same write-back registers, latencies, control gaps, barrier
    /// bookkeeping and memory-system timing calls as execute mode —
    /// cycles and counters are bit-identical by construction (CI gates
    /// the identity over the extended cycle_dump grid). Register *values*
    /// are not maintained: value-shaped work (CSR reads, votes, loads)
    /// only touches the scoreboard, and uniformity/divergence checks are
    /// skipped — the recorded run already passed them.
    fn issue_replay<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        instr: Instr,
        meta: &InstrMeta,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Result<(), SimError> {
        let pc = self.warps[w].pc;
        let tmask = self.warps[w].tmask;

        ctx.counters.instructions += 1;
        ctx.counters.lane_instructions += u64::from(tmask.count_ones());
        ctx.counters.classes.record(meta.class);
        if let Some(sink) = ctx.trace.as_mut() {
            sink.on_issue(&IssueEvent { cycle: now, core: self.id, warp: w, pc, tmask, instr });
        }

        let timing = ctx.timing;
        let mut next_pc = pc.wrapping_add(4);
        let mut halted = false;

        macro_rules! wb_int {
            ($rd:expr, $lat:expr) => {{
                if !$rd.is_zero() {
                    self.rf.set_busy(w, $rd.num() as usize, now + $lat);
                }
            }};
        }
        macro_rules! wb_fp {
            ($rd:expr, $lat:expr) => {{
                self.rf.set_busy(w, FP_BASE + $rd.num() as usize, now + $lat);
            }};
        }

        // Write-back register and latency mirror `issue` arm by arm (on
        // the *instruction*, not the exec class: `vote`/`csr` write at ALU
        // latency despite their classes, FP compares/converts write
        // integer registers at FPU latency — a class-based mapping would
        // break bit-identity under non-default timing).
        match instr {
            Instr::Lui { rd, .. } | Instr::Auipc { rd, .. } => wb_int!(rd, timing.alu),
            Instr::Jal { rd, offset } => {
                wb_int!(rd, timing.alu);
                next_pc = pc.wrapping_add(offset as u32);
            }
            Instr::Jalr { rd, .. } => {
                wb_int!(rd, timing.alu);
                let (npc, tm) = self.replay_ctl(w, pc, ctx)?;
                self.warps[w].tmask = tm;
                next_pc = npc;
            }
            Instr::Branch { .. } | Instr::Split { .. } | Instr::Join => {
                let (npc, tm) = self.replay_ctl(w, pc, ctx)?;
                self.warps[w].tmask = tm;
                next_pc = npc;
            }
            Instr::Load { rd, .. } => {
                let completion = self.replay_mem(w, pc, false, now, ctx)?;
                if !rd.is_zero() {
                    self.rf.set_busy(w, rd.num() as usize, completion);
                }
            }
            Instr::Store { .. } => {
                self.replay_mem(w, pc, true, now, ctx)?;
            }
            Instr::OpImm { rd, .. } => wb_int!(rd, timing.alu),
            Instr::Op { rd, .. } => {
                let lat = match meta.class {
                    ExecClass::Mul => timing.mul,
                    ExecClass::Div => timing.div,
                    _ => timing.alu,
                };
                wb_int!(rd, lat);
            }
            Instr::Fence => {}
            Instr::Ecall => return Err(SimError::Trap { pc, breakpoint: false }),
            Instr::Ebreak => return Err(SimError::Trap { pc, breakpoint: true }),
            Instr::Csr { rd, .. } => wb_int!(rd, timing.alu),
            Instr::Flw { rd, .. } => {
                let completion = self.replay_mem(w, pc, false, now, ctx)?;
                self.rf.set_busy(w, FP_BASE + rd.num() as usize, completion);
            }
            Instr::Fsw { .. } => {
                self.replay_mem(w, pc, true, now, ctx)?;
            }
            Instr::FpOp { op, rd, .. } => {
                let lat = if matches!(op, FpBinOp::Div) { timing.fdiv } else { timing.fpu };
                wb_fp!(rd, lat);
            }
            Instr::FpFma { rd, .. } => wb_fp!(rd, timing.fpu),
            Instr::FpSqrt { rd, .. } => wb_fp!(rd, timing.fsqrt),
            Instr::FpCmp { rd, .. }
            | Instr::FpCvtToInt { rd, .. }
            | Instr::FpMvToInt { rd, .. }
            | Instr::FpClass { rd, .. } => wb_int!(rd, timing.fpu),
            Instr::FpCvtFromInt { rd, .. } | Instr::FpMvFromInt { rd, .. } => {
                wb_fp!(rd, timing.fpu);
            }
            Instr::Tmc { .. } => match self.replay_next(w, pc, ctx)? {
                WarpEvent::Halt => {
                    self.warps[w].halt();
                    self.warp_next[w] = NEVER;
                    halted = true;
                }
                &WarpEvent::Ctl { next_pc: npc, tmask: tm } => {
                    self.warps[w].tmask = tm;
                    next_pc = npc;
                }
                _ => return Err(SimError::ReplayDiverged { core: self.id, warp: w, pc }),
            },
            Instr::Wspawn { .. } => match self.replay_next(w, pc, ctx)? {
                &WarpEvent::Wspawn { count, target } => {
                    self.activate_round(w, count as usize, target, now + timing.wspawn);
                }
                _ => return Err(SimError::ReplayDiverged { core: self.id, warp: w, pc }),
            },
            Instr::Bar { .. } => match self.replay_next(w, pc, ctx)? {
                &WarpEvent::Bar { id, count } => {
                    let count = count as usize;
                    let state = self.barriers.entry(id).or_default();
                    state.arrived.push(w);
                    if state.arrived.len() >= count {
                        let released = self.barriers.remove(&id).expect("just inserted");
                        for rw in released.arrived {
                            self.warps[rw].at_barrier = None;
                            self.warps[rw].ready_at = now + timing.barrier;
                            self.warp_next[rw] = now + timing.barrier;
                            self.next_issue[rw].valid = false;
                        }
                        // `self` (warp w) is among the released warps.
                        self.warps[w].pc = next_pc;
                        return Ok(());
                    } else {
                        self.warps[w].at_barrier = Some(id);
                        self.warps[w].ready_at = NEVER;
                        self.warp_next[w] = NEVER;
                        self.warps[w].pc = next_pc;
                        return Ok(());
                    }
                }
                _ => return Err(SimError::ReplayDiverged { core: self.id, warp: w, pc }),
            },
            Instr::Vote { rd, .. } => wb_int!(rd, timing.alu),
        }

        if !halted {
            let taken = next_pc != pc.wrapping_add(4);
            let gap = if taken && meta.is_control { 1 + timing.branch_bubble } else { 1 };
            self.warps[w].pc = next_pc;
            self.warps[w].ready_at = now + gap;
            self.warp_next[w] = now + gap;
        }
        Ok(())
    }

    /// The next recorded event of warp `w`, re-emitted to an attached
    /// recording sink (so replay-under-record reproduces the trace
    /// byte-for-byte — the idempotence half of the format tests).
    ///
    /// # Errors
    ///
    /// [`SimError::ReplayDiverged`] when the stream is exhausted.
    fn replay_next<'e, S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        pc: u32,
        ctx: &mut CoreCtx<'e, S>,
    ) -> Result<&'e WarpEvent, SimError> {
        let ev = ctx
            .replay
            .as_mut()
            .expect("issue_replay runs only with a replay context")
            .next(self.id, w)
            .ok_or(SimError::ReplayDiverged { core: self.id, warp: w, pc })?;
        if let Some(sink) = ctx.trace.as_mut() {
            if sink.wants_warp_events() {
                sink.on_warp_event(self.id, w, ev);
            }
        }
        Ok(ev)
    }

    /// Consumes a [`WarpEvent::Ctl`] record, returning `(next_pc, tmask)`.
    fn replay_ctl<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        pc: u32,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Result<(u32, u32), SimError> {
        match self.replay_next(w, pc, ctx)? {
            &WarpEvent::Ctl { next_pc, tmask } => Ok((next_pc, tmask)),
            _ => Err(SimError::ReplayDiverged { core: self.id, warp: w, pc }),
        }
    }

    /// Consumes a memory record and re-times it against the *current*
    /// hierarchy: spans via the arithmetic span walk, lane sets by
    /// re-coalescing the recorded pre-coalescing addresses against this
    /// run's line size — so a trace recorded under one cache geometry
    /// replays correctly under another. The memory-system call shape
    /// (span vs batch) is preserved exactly as recorded.
    fn replay_mem<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        pc: u32,
        is_store: bool,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Result<Cycle, SimError> {
        match self.replay_next(w, pc, ctx)? {
            &WarpEvent::MemSpan { addr0, last, store } if store == is_store => {
                let out = ctx.memsys.access_span(self.id, addr0, last, now, is_store);
                self.mem_port_free = now + out.port_slots;
                *ctx.horizon = (*ctx.horizon).max(out.completion);
                Ok(out.completion)
            }
            WarpEvent::MemLanes { addrs, store } if *store == is_store => {
                let lines = coalesce_lines(addrs.iter().copied(), ctx.line_bytes);
                let out = ctx.memsys.access_batch(self.id, lines.as_slice(), now, is_store);
                self.mem_port_free = now + out.port_slots;
                if !lines.is_empty() {
                    *ctx.horizon = (*ctx.horizon).max(out.completion);
                }
                Ok(out.completion)
            }
            _ => Err(SimError::ReplayDiverged { core: self.id, warp: w, pc }),
        }
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
            let mut m = tmask;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
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
        let uni = if full {
            if b[1..].iter().all(|&x| x == b[0]) {
                Some(b[0])
            } else {
                None
            }
        } else {
            let first = tmask.trailing_zeros() as usize;
            let mut m = tmask;
            let mut uni = Some(b[first]);
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                if b[l] != b[first] {
                    uni = None;
                    break;
                }
            }
            uni
        };
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

    /// Coalesces the line requests of one SIMT memory instruction and
    /// hands the whole batch to the hierarchy in **one**
    /// [`MemSystem::access_batch`] call (L1 bank serialisation, L2
    /// bandwidth slots and DRAM queueing all happen inside the walk).
    /// Returns the completion cycle of the last line.
    fn memory_access<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        addrs: &[u32; 32],
        tmask: u32,
        is_store: bool,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Cycle {
        if let Some(sink) = ctx.trace.as_mut() {
            if sink.wants_warp_events() {
                // Record the *pre-coalescing* lane addresses (in lane
                // order): replay re-coalesces against its own line size,
                // so the trace stays valid across cache geometries.
                let mut m = tmask;
                let mut lanes = Vec::with_capacity(m.count_ones() as usize);
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    lanes.push(addrs[l]);
                }
                sink.on_warp_event(
                    self.id,
                    w,
                    &WarpEvent::MemLanes { addrs: lanes, store: is_store },
                );
            }
        }
        // Iterate set bits directly: cost scales with active lanes, not
        // with the 32-lane SIMT width.
        let mut mask = tmask;
        let lanes = std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(addrs[l])
        });
        let lines = coalesce_lines(lanes, ctx.line_bytes);
        let out = ctx.memsys.access_batch(self.id, lines.as_slice(), now, is_store);
        self.mem_port_free = now + out.port_slots;
        if !lines.is_empty() {
            *ctx.horizon = (*ctx.horizon).max(out.completion);
        }
        out.completion
    }

    /// [`memory_access`](Core::memory_access) for a contiguous ascending
    /// span of lane addresses `addr0..=addr_last` (the broadcast and
    /// unit-stride fast paths): the coalesced line sequence of such a span
    /// is exactly the ascending run of line bases it covers, so the
    /// hierarchy generates it arithmetically inside the batched walk
    /// ([`MemSystem::access_span`]) instead of walking 32 lanes through
    /// the dedup buffer.
    fn memory_access_span<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        addr0: u32,
        addr_last: u32,
        is_store: bool,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Cycle {
        if let Some(sink) = ctx.trace.as_mut() {
            if sink.wants_warp_events() {
                sink.on_warp_event(
                    self.id,
                    w,
                    &WarpEvent::MemSpan { addr0, last: addr_last, store: is_store },
                );
            }
        }
        let out = ctx.memsys.access_span(self.id, addr0, addr_last, now, is_store);
        self.mem_port_free = now + out.port_slots;
        *ctx.horizon = (*ctx.horizon).max(out.completion);
        out.completion
    }

    /// Full-mask broadcast / unit-stride word-**load** fast path into the
    /// dense destination row `dense` — the one shared copy of what used to
    /// be four near-identical inline blocks (integer `Load` and `Flw`;
    /// `fast_word_store` is the store dual). Returns `Ok(true)` when the
    /// access was served bulk, with values, coalesced line sequence, port
    /// accounting and misalignment faults identical to the lane loop: a
    /// misaligned *broadcast* faults here (lane 0 is the first lane the
    /// general path would check), while a misaligned *stride* never
    /// classifies and falls back to the lane loop, which raises the same
    /// fault on lane 0.
    #[allow(clippy::too_many_arguments)] // mirrors `issue`'s hot-path locals
    fn fast_word_load<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        dense: usize,
        base: &[u32; 32],
        offset: i32,
        pc: u32,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Result<bool, SimError> {
        let n = self.warps[w].threads();
        match span::classify(&base[..n], offset) {
            Span::Broadcast { addr0 } => {
                if addr0 & 3 != 0 {
                    return Err(SimError::MisalignedAccess { pc, addr: addr0, align: 4 });
                }
                let v = ctx.mem.read_u32(addr0);
                self.rf.row_mut(w, dense).fill(v);
                let completion = self.memory_access_span(w, addr0, addr0, false, now, ctx);
                self.rf.set_busy(w, dense, completion);
                Ok(true)
            }
            Span::UnitStride { addr0, last } => {
                let dst = self.rf.row_mut(w, dense);
                ctx.mem.read_u32_into(addr0, dst);
                let completion = self.memory_access_span(w, addr0, last, false, now, ctx);
                self.rf.set_busy(w, dense, completion);
                Ok(true)
            }
            Span::Irregular => Ok(false),
        }
    }

    /// Unit-stride full-mask word-**store** fast path (the shared copy
    /// behind integer `Store` and `Fsw`). Broadcast rows are deliberately
    /// rejected: overlapping stores must land in lane order, which only
    /// the lane loop preserves. Returns `true` when the store was served
    /// bulk.
    fn fast_word_store<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        base_dense: usize,
        vals_dense: usize,
        offset: i32,
        now: Cycle,
        ctx: &mut CoreCtx<'_, S>,
    ) -> bool {
        let base = self.rf.row(w, base_dense);
        let (addr0, last) = match span::classify(base, offset) {
            Span::UnitStride { addr0, last } => (addr0, last),
            Span::Broadcast { .. } | Span::Irregular => return false,
        };
        let vals = self.rf.row(w, vals_dense);
        ctx.mem.write_u32_from(addr0, vals);
        self.memory_access_span(w, addr0, last, true, now, ctx);
        true
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
        let mut m = tmask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            if row[l] != v {
                return Err(err);
            }
        }
        Ok(v)
    }

    fn read_csr<S: TraceSink + ?Sized>(
        &self,
        csr: Csr,
        w: usize,
        lane: usize,
        now: Cycle,
        ctx: &CoreCtx<'_, S>,
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

fn load_width_bytes(width: LoadWidth) -> (u32, bool) {
    match width {
        LoadWidth::Byte => (1, true),
        LoadWidth::ByteU => (1, false),
        LoadWidth::Half => (2, true),
        LoadWidth::HalfU => (2, false),
        LoadWidth::Word => (4, false),
    }
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
