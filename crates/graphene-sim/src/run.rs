//! Plan execution, and the one block scheduler every CTA engine shares.
//!
//! Executes a [`KernelPlan`] — the compiled form of a kernel (see
//! [`crate::plan`]) — with no hashing, no atomic-spec re-matching, and
//! no per-lane allocation on the hot path: lane addresses are emitted
//! into a reusable scratch buffer, bank conflicts are tallied in a
//! fixed 32-entry [`BankTally`], and register files are flat
//! per-tensor arrays indexed by `thread * len + addr`.
//!
//! `run_grid` schedules the blocks of both the plan engine and the
//! trace replay ([`crate::replay`]). Under [`ExecMode::Parallel`] each
//! worker runs a contiguous chunk of blocks on a private copy of the
//! global buffers, and the merge copies each worker's written global
//! addresses (a `WriteSet`) in worker order. The last worker to write an
//! address ran the last block to write it, so results and counters are
//! bit-identical to [`ExecMode::Sequential`] whenever no CTA reads
//! another CTA's writes (the independence every Graphene grid
//! decomposition expresses, and the golden equivalence test checks for
//! every paper kernel).

use crate::counters::Counters;
use crate::exec::{ExecError, ExecOutcome};
use crate::plan::{BankTally, BufRef, CGuard, COperand, CSpec, CStmt, GroupLanes, KernelPlan};
use graphene_ir::atomic::AtomicSemantics;
use graphene_ir::tensor::TensorId;
use graphene_ir::MemSpace;
use graphene_sym::SlotEnv;
use std::collections::HashMap;
use std::ops::Range;

/// How CTAs (thread blocks) are scheduled — by the plan engine, the
/// trace replay and the graph executor alike. Which engine runs is a
/// separate choice ([`crate::engine::Engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Blocks run one after another on the calling thread.
    Sequential,
    /// Independent blocks run concurrently across OS threads, with a
    /// deterministic in-block-order merge. Falls back to sequential
    /// when the grid (or the machine) offers no parallelism.
    #[default]
    Parallel,
    /// Like [`Parallel`](Self::Parallel) with an explicit worker-thread
    /// count, regardless of the machine's core count (used by the
    /// equivalence tests to force the threaded merge path).
    Workers(usize),
}

impl ExecMode {
    /// Worker threads for a grid of `grid` blocks: never more than the
    /// blocks, and at least one.
    pub(crate) fn workers(self, grid: usize) -> usize {
        let want = match self {
            ExecMode::Sequential => 1,
            ExecMode::Parallel => std::thread::available_parallelism().map_or(1, |n| n.get()),
            ExecMode::Workers(n) => n,
        };
        want.clamp(1, grid.max(1))
    }
}

/// The global addresses one worker wrote: a bitset per global buffer.
#[derive(Debug, Default)]
pub(crate) struct WriteSet(Vec<Vec<u64>>);

impl WriteSet {
    /// An empty set over global buffers of the given lengths.
    pub(crate) fn new(lens: impl IntoIterator<Item = usize>) -> Self {
        WriteSet(lens.into_iter().map(|len| vec![0; len.div_ceil(64)]).collect())
    }

    #[inline]
    pub(crate) fn mark(&mut self, buf: usize, addr: usize) {
        self.0[buf][addr / 64] |= 1 << (addr % 64);
    }

    /// Copies every marked address from `src` into `dst`.
    fn copy(&self, src: &[Vec<f32>], dst: &mut [Vec<f32>]) {
        for ((bits, s), d) in self.0.iter().zip(src).zip(dst) {
            for (w, &word) in bits.iter().enumerate() {
                let base = w * 64;
                if word == u64::MAX {
                    d[base..base + 64].copy_from_slice(&s[base..base + 64]);
                    continue;
                }
                let mut m = word;
                while m != 0 {
                    let a = base + m.trailing_zeros() as usize;
                    d[a] = s[a];
                    m &= m - 1;
                }
            }
        }
    }
}

/// One worker of [`run_grid`]: runs blocks on private buffers and
/// reports the global addresses they wrote.
pub(crate) trait BlockRunner: Send {
    /// Executes block `b`.
    fn run_block(&mut self, b: usize) -> Result<(), ExecError>;
    /// Takes this worker's global buffers, in params order.
    fn take_globals(&mut self) -> Vec<Vec<f32>>;
    /// The global addresses written by `blocks`, the blocks this worker
    /// ran. It must be exact: an address the worker never wrote would
    /// copy its starting value over an earlier worker's write.
    fn written(&mut self, blocks: Range<usize>) -> WriteSet;
}

/// Validates `inputs` against the kernel parameters `params` and
/// produces the initial global buffers, in params order. Missing
/// parameters start zero-filled.
pub(crate) fn bind_inputs(
    params: &[(TensorId, String, usize)],
    inputs: &HashMap<TensorId, Vec<f32>>,
) -> Result<Vec<Vec<f32>>, ExecError> {
    params
        .iter()
        .map(|(p, name, want)| match inputs.get(p) {
            Some(b) if b.len() != *want => Err(ExecError::BadInput(format!(
                "param %{} expects {} scalars, got {}",
                name,
                want,
                b.len()
            ))),
            Some(b) => Ok(b.clone()),
            None => Ok(vec![0.0; *want]),
        })
        .collect()
}

/// Splits blocks `0..grid` into one contiguous, ascending chunk per
/// worker of `mode` and runs `f` on each chunk, a lone chunk on the
/// calling thread. Results come back in chunk order, which is block
/// order. This is the one fan-out behind the plan engine, replay,
/// recording and optimization.
pub(crate) fn run_chunks<T: Send>(
    grid: usize,
    mode: ExecMode,
    f: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let chunk = grid.div_ceil(mode.workers(grid)).max(1);
    let chunks: Vec<Range<usize>> =
        (0..grid).step_by(chunk).map(|b| b..(b + chunk).min(grid)).collect();
    if chunks.len() <= 1 {
        return vec![f(0..grid)];
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks.into_iter().map(|blocks| s.spawn(move || f(blocks))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Runs blocks `0..grid` under `mode`, each worker built by `new` from
/// its own copy of the initial globals `init`. Returns the merged
/// globals and the workers, in block order (for their counters).
///
/// Each worker runs one contiguous chunk of blocks ([`run_chunks`]), so
/// merging the workers' write sets in worker order replays every
/// address's last write in block order. When several blocks fail, the
/// failure of the lowest block id is returned, as in sequential
/// execution.
pub(crate) fn run_grid<R: BlockRunner>(
    grid: usize,
    mode: ExecMode,
    init: Vec<Vec<f32>>,
    new: impl Fn(Vec<Vec<f32>>) -> R + Sync,
) -> Result<(Vec<Vec<f32>>, Vec<R>), ExecError> {
    if mode.workers(grid) == 1 {
        let mut r = new(init);
        for b in 0..grid {
            r.run_block(b)?;
        }
        return Ok((r.take_globals(), vec![r]));
    }
    let init_ref = &init;
    let done = run_chunks(grid, mode, |blocks| {
        let mut r = new(init_ref.clone());
        for b in blocks.clone() {
            r.run_block(b)?;
        }
        Ok((r, blocks))
    });
    let mut globals = init;
    let mut runners = Vec::with_capacity(done.len());
    for d in done {
        // Chunks ascend, so the first failing worker holds the lowest
        // failing block.
        let (mut r, blocks) = d?;
        r.written(blocks).copy(&r.take_globals(), &mut globals);
        runners.push(r);
    }
    Ok((globals, runners))
}

/// Reusable per-group address scratch: all lanes' addresses for every
/// operand of one spec execution, segment per operand, lane-major
/// within a segment.
#[derive(Debug, Default)]
pub(crate) struct AddrScratch {
    pub(crate) addrs: Vec<i64>,
    /// Per input operand: `(segment start, addresses per lane)`.
    pub(crate) ins: Vec<(usize, usize)>,
    /// Per output operand: `(segment start, addresses per lane)`.
    pub(crate) outs: Vec<(usize, usize)>,
}

impl AddrScratch {
    #[inline]
    fn lane(&self, seg: (usize, usize), li: usize) -> &[i64] {
        let (start, n) = seg;
        &self.addrs[start + li * n..start + (li + 1) * n]
    }
}

/// Per-worker CTA interpreter state over a shared [`KernelPlan`].
pub(crate) struct CtaRunner<'p> {
    plan: &'p KernelPlan,
    env: SlotEnv,
    global: Vec<Vec<f32>>,
    shared: Vec<Vec<f32>>,
    regs: Vec<Vec<f32>>,
    pub(crate) counters: Counters,
    scratch: AddrScratch,
    tally: BankTally,
    guards: Vec<&'p CGuard>,
    lane_buf: Vec<i64>,
    /// Global addresses written so far, for the parallel merge.
    written: WriteSet,
    /// When `Some`, executed allocs and groups are captured into a
    /// trace ([`crate::trace::record_trace`]).
    pub(crate) rec: Option<crate::trace::Recorder>,
}

impl<'p> CtaRunner<'p> {
    pub(crate) fn new(
        plan: &'p KernelPlan,
        global: Vec<Vec<f32>>,
        bindings: &HashMap<String, i64>,
    ) -> Self {
        let mut env = plan.slots.env();
        env.bind_from(&plan.slots, bindings);
        let shared = plan.shared.iter().map(|&(_, len)| vec![0.0; len]).collect();
        let regs = plan
            .regs
            .iter()
            .map(|&(_, len)| vec![0.0; len * plan.block_threads as usize])
            .collect();
        CtaRunner {
            plan,
            env,
            global,
            shared,
            regs,
            counters: Counters::default(),
            scratch: AddrScratch::default(),
            tally: BankTally::new(),
            guards: Vec::new(),
            lane_buf: Vec::new(),
            written: WriteSet::new(plan.globals.iter().map(|&(_, _, len)| len)),
            rec: None,
        }
    }

    fn exec_stmts(&mut self, stmts: &'p [CStmt]) -> Result<(), ExecError> {
        for s in stmts {
            match s {
                CStmt::Alloc(buf) => {
                    match buf.mem {
                        MemSpace::Shared => self.shared[buf.idx].fill(0.0),
                        MemSpace::Register => self.regs[buf.idx].fill(0.0),
                        MemSpace::Global => unreachable!("plan rejects global allocs"),
                    }
                    if let Some(rec) = &mut self.rec {
                        rec.record_alloc(*buf);
                    }
                }
                CStmt::For { slot, extent, body } => {
                    for i in 0..*extent {
                        self.env.set(*slot, i);
                        self.exec_stmts(body)?;
                    }
                    self.env.clear(*slot);
                }
                CStmt::If { guard, thread_dependent, then } => {
                    if *thread_dependent {
                        // Per-thread guard: push it; specs inside filter
                        // their lanes (partial-tile predication, §3.4).
                        self.guards.push(guard);
                        let r = self.exec_stmts(then);
                        self.guards.pop();
                        r?;
                    } else {
                        let l = guard
                            .lhs
                            .eval_named(&self.env, &self.plan.slots)
                            .map_err(|e| ExecError::Eval(e.to_string()))?;
                        let r = guard
                            .rhs
                            .eval_named(&self.env, &self.plan.slots)
                            .map_err(|e| ExecError::Eval(e.to_string()))?;
                        if l < r {
                            self.exec_stmts(then)?;
                        }
                    }
                }
                CStmt::SyncBlock => self.counters.syncs += 1,
                CStmt::Exec(spec) => self.exec_spec(spec)?,
            }
        }
        Ok(())
    }

    fn exec_spec(&mut self, cs: &'p CSpec) -> Result<(), ExecError> {
        match &cs.lanes {
            GroupLanes::PerThread(ids) => {
                // Per-thread instruction: batch lanes into warps so
                // bank conflicts are accounted per warp, as the
                // hardware serialises them.
                if self.guards.is_empty() {
                    for ci in 0..ids.len().div_ceil(32) {
                        self.exec_group(cs, &ids[ci * 32..((ci + 1) * 32).min(ids.len())])?;
                    }
                } else {
                    let mut buf = std::mem::take(&mut self.lane_buf);
                    buf.clear();
                    buf.extend(ids.iter().copied().filter(|&t| self.lane_active(t)));
                    self.env.clear(self.plan.tid_slot);
                    let mut r = Ok(());
                    for chunk in buf.chunks(32) {
                        r = self.exec_group(cs, chunk);
                        if r.is_err() {
                            break;
                        }
                    }
                    self.lane_buf = buf;
                    r?;
                }
            }
            GroupLanes::Collective(groups) => {
                for lanes in groups {
                    if !self.guards.is_empty() {
                        let active = lanes.iter().filter(|&&t| self.lane_active(t)).count();
                        self.env.clear(self.plan.tid_slot);
                        if active == 0 {
                            continue;
                        }
                        if active != lanes.len() {
                            return Err(ExecError::Eval(format!(
                                "collective spec under a divergent guard: {} of {} lanes active",
                                active,
                                lanes.len()
                            )));
                        }
                    }
                    self.exec_group(cs, lanes)?;
                }
            }
        }
        Ok(())
    }

    /// Does thread `t` pass every active guard predicate?
    #[inline]
    fn lane_active(&mut self, t: i64) -> bool {
        self.env.set(self.plan.tid_slot, t);
        let env = &self.env;
        self.guards.iter().all(|g| match (g.lhs.eval(env), g.rhs.eval(env)) {
            (Ok(l), Ok(r)) => l < r,
            _ => false,
        })
    }

    /// Accounts the traffic of one operand's warp-batch access.
    fn account(&mut self, op: &COperand, addrs: &[i64], is_read: bool) {
        let total = addrs.len() as u64 * op.bytes_per;
        match op.buf.mem {
            MemSpace::Global => {
                if is_read {
                    self.counters.global_read_bytes += total;
                } else {
                    self.counters.global_write_bytes += total;
                }
            }
            MemSpace::Shared => {
                if is_read {
                    self.counters.smem_read_bytes += total;
                } else {
                    self.counters.smem_write_bytes += total;
                }
                for &a in addrs {
                    self.tally.add_addr(a, op.bytes_per);
                }
                let (ideal, transactions) = self.tally.grade();
                self.counters.smem_accesses += ideal;
                self.counters.smem_transactions += transactions;
            }
            MemSpace::Register => {}
        }
    }

    #[inline]
    fn read(&self, buf: BufRef, addr: i64, thread: i64, what: &str) -> Result<f32, ExecError> {
        if addr < 0 || addr as usize >= buf.len {
            return Err(ExecError::OutOfBounds { what: what.into(), addr, len: buf.len });
        }
        Ok(match buf.mem {
            MemSpace::Global => self.global[buf.idx][addr as usize],
            MemSpace::Shared => self.shared[buf.idx][addr as usize],
            MemSpace::Register => self.regs[buf.idx][thread as usize * buf.len + addr as usize],
        })
    }

    #[inline]
    fn write(
        &mut self,
        buf: BufRef,
        addr: i64,
        thread: i64,
        v: f32,
        what: &str,
    ) -> Result<(), ExecError> {
        if addr < 0 || addr as usize >= buf.len {
            return Err(ExecError::OutOfBounds { what: what.into(), addr, len: buf.len });
        }
        match buf.mem {
            MemSpace::Global => {
                self.global[buf.idx][addr as usize] = v;
                self.written.mark(buf.idx, addr as usize);
            }
            MemSpace::Shared => self.shared[buf.idx][addr as usize] = v,
            MemSpace::Register => {
                self.regs[buf.idx][thread as usize * buf.len + addr as usize] = v;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines, clippy::needless_range_loop)]
    fn exec_group(&mut self, cs: &CSpec, lanes: &[i64]) -> Result<(), ExecError> {
        self.counters.instructions += if cs.collective {
            1 // collective: one instruction per group
        } else {
            lanes.len() as u64
        };
        // Emit every lane's addresses for all operands into the scratch
        // (one flat buffer, no per-lane allocation).
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.addrs.clear();
        scratch.ins.clear();
        scratch.outs.clear();
        let filled = emit_ops(
            self.plan,
            lanes,
            &cs.ins,
            &mut scratch.ins,
            &mut scratch.addrs,
            &mut self.env,
        )
        .and_then(|()| {
            emit_ops(
                self.plan,
                lanes,
                &cs.outs,
                &mut scratch.outs,
                &mut scratch.addrs,
                &mut self.env,
            )
        });
        self.env.clear(self.plan.tid_slot);
        if let Err(e) = filled {
            self.scratch = scratch;
            return Err(e);
        }

        // Traffic accounting per operand.
        for (oi, op) in cs.ins.iter().enumerate() {
            let (start, n) = scratch.ins[oi];
            let seg = &scratch.addrs[start..start + lanes.len() * n];
            self.account(op, seg, true);
        }
        for (oi, op) in cs.outs.iter().enumerate() {
            let (start, n) = scratch.outs[oi];
            let seg = &scratch.addrs[start..start + lanes.len() * n];
            self.account(op, seg, false);
        }
        if cs.tensor_core {
            // Tensor instructions execute once per group.
            self.counters.flops_tc += cs.flops;
        } else {
            // Per-thread instructions execute once per lane.
            self.counters.flops_fma += cs.flops * lanes.len() as u64;
        }

        use graphene_ir::atomic::fragments as frag;
        match cs.semantics {
            AtomicSemantics::CopyPerThread
            | AtomicSemantics::UnaryPerThread(_)
            | AtomicSemantics::BinaryPerThread(_)
            | AtomicSemantics::FmaPerThread
            | AtomicSemantics::InitPerThread
            | AtomicSemantics::ReducePerThread(_) => {
                for (li, &t) in lanes.iter().enumerate() {
                    match cs.semantics {
                        AtomicSemantics::CopyPerThread => {
                            let sa = scratch.lane(scratch.ins[0], li);
                            let da = scratch.lane(scratch.outs[0], li);
                            for (s, d) in sa.iter().zip(da) {
                                let v = self.read(cs.ins[0].buf, *s, t, "copy src")?;
                                self.write(cs.outs[0].buf, *d, t, v, "copy dst")?;
                            }
                        }
                        AtomicSemantics::UnaryPerThread(op) => {
                            let sa = scratch.lane(scratch.ins[0], li);
                            let da = scratch.lane(scratch.outs[0], li);
                            for (s, d) in sa.iter().zip(da) {
                                let v = self.read(cs.ins[0].buf, *s, t, "unary src")?;
                                self.write(
                                    cs.outs[0].buf,
                                    *d,
                                    t,
                                    op.apply(v as f64) as f32,
                                    "unary dst",
                                )?;
                            }
                        }
                        AtomicSemantics::BinaryPerThread(op) => {
                            let aa = scratch.lane(scratch.ins[0], li);
                            let ba = scratch.lane(scratch.ins[1], li);
                            let da = scratch.lane(scratch.outs[0], li);
                            for i in 0..aa.len() {
                                let x = self.read(cs.ins[0].buf, aa[i], t, "binary lhs")?;
                                let y = self.read(cs.ins[1].buf, ba[i], t, "binary rhs")?;
                                self.write(
                                    cs.outs[0].buf,
                                    da[i],
                                    t,
                                    op.apply(x as f64, y as f64) as f32,
                                    "binary dst",
                                )?;
                            }
                        }
                        AtomicSemantics::FmaPerThread => {
                            let aa = scratch.lane(scratch.ins[0], li);
                            let ba = scratch.lane(scratch.ins[1], li);
                            let ca = scratch.lane(scratch.outs[0], li);
                            for i in 0..aa.len() {
                                let a = self.read(cs.ins[0].buf, aa[i], t, "fma a")?;
                                let b = self.read(cs.ins[1].buf, ba[i], t, "fma b")?;
                                let c = self.read(cs.outs[0].buf, ca[i], t, "fma c")?;
                                self.write(cs.outs[0].buf, ca[i], t, a * b + c, "fma c")?;
                            }
                        }
                        AtomicSemantics::InitPerThread => {
                            let da = scratch.lane(scratch.outs[0], li);
                            for &d in da {
                                self.write(cs.outs[0].buf, d, t, cs.init_value, "init dst")?;
                            }
                        }
                        AtomicSemantics::ReducePerThread(op) => {
                            let sa = scratch.lane(scratch.ins[0], li);
                            let da = scratch.lane(scratch.outs[0], li);
                            let mut acc = op.identity();
                            for &s in sa {
                                acc = op.combine(
                                    acc,
                                    self.read(cs.ins[0].buf, s, t, "reduce src")? as f64,
                                );
                            }
                            self.write(cs.outs[0].buf, da[0], t, acc as f32, "reduce dst")?;
                        }
                        _ => unreachable!(),
                    }
                }
            }

            AtomicSemantics::LdMatrix { num, trans } => {
                let num = num as usize;
                // Gather the matrices: lanes 8p..8p+8 supply the 8 rows
                // (or columns, pre-transposition the source view is
                // still a row) of matrix p.
                let mut mats = [[[0.0f32; 8]; 8]; 4];
                for p in 0..num {
                    for r in 0..8 {
                        let li = p * 8 + r;
                        let sa = scratch.lane(scratch.ins[0], li);
                        for c in 0..8 {
                            mats[p][r][c] =
                                self.read(cs.ins[0].buf, sa[c], lanes[li], "ldmatrix src")?;
                        }
                    }
                }
                // Scatter fragments: lane l, pair p, element c.
                for (li, &t) in lanes.iter().enumerate() {
                    for p in 0..num {
                        for c in 0..2 {
                            let (row, col) = if trans {
                                (2 * (li % 4) + c, li / 4)
                            } else {
                                (li / 4, 2 * (li % 4) + c)
                            };
                            let v = mats[p][row][col];
                            let d = scratch.lane(scratch.outs[0], li)[2 * p + c];
                            self.write(cs.outs[0].buf, d, t, v, "ldmatrix dst")?;
                        }
                    }
                }
            }

            AtomicSemantics::MmaAmpere16816 => {
                let mut a = [[0.0f32; 16]; 16];
                let mut b = [[0.0f32; 8]; 16];
                let mut c = [[0.0f32; 8]; 16];
                for (li, &t) in lanes.iter().enumerate() {
                    for v in 0..8 {
                        let (m_, k) = frag::mma_16816_a(li, v);
                        let sa = scratch.lane(scratch.ins[0], li)[v];
                        a[m_][k] = self.read(cs.ins[0].buf, sa, t, "mma a")?;
                    }
                    for v in 0..4 {
                        let (k, n) = frag::mma_16816_b(li, v);
                        let sb = scratch.lane(scratch.ins[1], li)[v];
                        b[k][n] = self.read(cs.ins[1].buf, sb, t, "mma b")?;
                    }
                    for v in 0..4 {
                        let (m_, n) = frag::mma_16816_c(li, v);
                        let sc = scratch.lane(scratch.outs[0], li)[v];
                        c[m_][n] = self.read(cs.outs[0].buf, sc, t, "mma c")?;
                    }
                }
                let mut d = c;
                for m_ in 0..16 {
                    for n in 0..8 {
                        let mut acc = 0.0f32;
                        for k in 0..16 {
                            acc += a[m_][k] * b[k][n];
                        }
                        d[m_][n] += acc;
                    }
                }
                for (li, &t) in lanes.iter().enumerate() {
                    for v in 0..4 {
                        let (m_, n) = frag::mma_16816_c(li, v);
                        let da = scratch.lane(scratch.outs[0], li)[v];
                        self.write(cs.outs[0].buf, da, t, d[m_][n], "mma d")?;
                    }
                }
            }

            AtomicSemantics::MmaVolta884 => {
                let mut a = [[0.0f32; 4]; 8];
                let mut b = [[0.0f32; 8]; 4];
                let mut c = [[0.0f32; 8]; 8];
                for (li, &t) in lanes.iter().enumerate() {
                    for v in 0..4 {
                        let (m_, k) = frag::mma_884_a(li, v);
                        let sa = scratch.lane(scratch.ins[0], li)[v];
                        a[m_][k] = self.read(cs.ins[0].buf, sa, t, "mma884 a")?;
                        let (k2, n) = frag::mma_884_b(li, v);
                        let sb = scratch.lane(scratch.ins[1], li)[v];
                        b[k2][n] = self.read(cs.ins[1].buf, sb, t, "mma884 b")?;
                    }
                    for v in 0..8 {
                        let (m_, n) = frag::mma_884_c(li, v);
                        let sc = scratch.lane(scratch.outs[0], li)[v];
                        c[m_][n] = self.read(cs.outs[0].buf, sc, t, "mma884 c")?;
                    }
                }
                for m_ in 0..8 {
                    for n in 0..8 {
                        let mut acc = 0.0f32;
                        for k in 0..4 {
                            acc += a[m_][k] * b[k][n];
                        }
                        c[m_][n] += acc;
                    }
                }
                for (li, &t) in lanes.iter().enumerate() {
                    for v in 0..8 {
                        let (m_, n) = frag::mma_884_c(li, v);
                        let da = scratch.lane(scratch.outs[0], li)[v];
                        self.write(cs.outs[0].buf, da, t, c[m_][n], "mma884 d")?;
                    }
                }
            }

            AtomicSemantics::ShflBfly => {
                if lanes.len() > 32 {
                    return Err(ExecError::Eval(format!(
                        "shuffle over {} lanes exceeds a warp",
                        lanes.len()
                    )));
                }
                let mut vals = [0.0f32; 32];
                for (li, &t) in lanes.iter().enumerate() {
                    let s = scratch.lane(scratch.ins[0], li)[0];
                    vals[li] = self.read(cs.ins[0].buf, s, t, "shfl src")?;
                }
                for (li, &t) in lanes.iter().enumerate() {
                    let peer = li ^ cs.shfl_mask as usize;
                    let v = vals[peer % lanes.len()];
                    let d = scratch.lane(scratch.outs[0], li)[0];
                    self.write(cs.outs[0].buf, d, t, v, "shfl dst")?;
                }
            }
        }
        // Capture the group only after its semantics executed cleanly:
        // every recorded address has passed the bounds checks above, so
        // replay can index without re-validating.
        if let Some(rec) = &mut self.rec {
            rec.record_group(cs, lanes, &scratch);
        }
        self.scratch = scratch;
        Ok(())
    }
}

impl BlockRunner for CtaRunner<'_> {
    fn run_block(&mut self, b: usize) -> Result<(), ExecError> {
        self.env.set(self.plan.block_slot, b as i64);
        self.exec_stmts(&self.plan.body)
    }

    fn take_globals(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.global)
    }

    /// Marked live in `write`, so `blocks` are exactly the ones run.
    fn written(&mut self, _blocks: Range<usize>) -> WriteSet {
        std::mem::take(&mut self.written)
    }
}

/// Emits every lane's addresses for each operand in `ops` into `addrs`
/// (appending), recording one `(start, addrs-per-lane)` segment per
/// operand in `segs`.
fn emit_ops(
    plan: &KernelPlan,
    lanes: &[i64],
    ops: &[COperand],
    segs: &mut Vec<(usize, usize)>,
    addrs: &mut Vec<i64>,
    env: &mut SlotEnv,
) -> Result<(), ExecError> {
    for op in ops {
        let start = addrs.len();
        for &t in lanes {
            env.set(plan.tid_slot, t);
            op.plan
                .emit_into(env, &plan.slots, addrs)
                .map_err(|e| ExecError::Eval(e.to_string()))?;
        }
        segs.push((start, op.plan.addrs_per_lane()));
    }
    Ok(())
}

/// Executes a compiled plan.
///
/// # Errors
///
/// See [`ExecError`]. Error reporting is deterministic in both modes:
/// when several blocks fail, the failure of the lowest block id is
/// returned.
pub fn execute_plan(
    plan: &KernelPlan,
    inputs: &HashMap<TensorId, Vec<f32>>,
    bindings: &HashMap<String, i64>,
    mode: ExecMode,
) -> Result<ExecOutcome, ExecError> {
    let init = bind_inputs(&plan.globals, inputs)?;
    let (globals, runners) =
        run_grid(plan.grid.max(0) as usize, mode, init, |g| CtaRunner::new(plan, g, bindings))?;
    // Fold worker counters in worker order.
    let mut counters = Counters::default();
    for r in &runners {
        counters.merge(&r.counters);
    }
    counters.unique_global_read_bytes = plan.unique_read;
    counters.unique_global_write_bytes = plan.unique_written;
    let globals = plan.globals.iter().map(|(p, _, _)| *p).zip(globals).collect::<HashMap<_, _>>();
    Ok(ExecOutcome { globals, counters })
}
