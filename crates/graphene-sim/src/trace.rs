//! Trace capture: record one compiled-plan execution as a flat
//! straight-line program.
//!
//! The compiled executor ([`crate::run`]) already pays no hashing on
//! the hot path, but every execution still walks the statement tree,
//! re-evaluates guards and loop bounds, re-emits operand addresses per
//! group, and dispatches on [`AtomicSemantics`]. This module is the
//! CUDA-graph analog for the simulator: [`record_trace`] runs a kernel
//! **once** per (kernel, problem, arch) through the instrumented
//! compiled executor and captures everything that cannot change across
//! runs — resolved branches and loops, precomputed operand address
//! segments, op kind and flat buffer operands per step — into an
//! [`OptTrace`] of `OTp` steps. Each operand's address run is
//! classified as it is emitted, by the optimizer's own classifier
//! ([`crate::trace_opt`]): affine and lane-major runs become
//! descriptors and only the irregular residue (e.g. XOR-swizzled shared
//! memory) is stored, in one `u32` gather arena. The optimizer then
//! composes collectives, fuses steps and drops dead fills, and the
//! replay executor ([`crate::replay`]) re-runs the straight-line program
//! against fresh input buffers with no `CSpec` dispatch, no symbolic
//! environment, and no per-group address emission.
//!
//! Recording runs contiguous chunks of blocks on the block scheduler's
//! workers (`run::run_chunks`) and joins their parts in block order,
//! rebasing gather starts and step ranges. Blocks never depend on each
//! other while recording — control flow is index-driven (below) and
//! each block's `Alloc`s refill its buffers — so the joined trace is
//! the sequential one, byte for byte.
//!
//! **Why recording with zero-filled inputs is sound:** control flow in
//! this IR is purely *index-driven*. Guards compare index expressions
//! over `blockIdx.x` / `threadIdx.x` / loop variables, and loop extents
//! are static — no branch ever inspects a tensor *value*. The step
//! sequence and every address are therefore identical for all input
//! valuations; only the data differs, and replay recomputes the data.
//!
//! Register addresses are flattened to `thread * len + addr` at record
//! time, so a replay touches nothing but flat `Vec<f32>` buffers.

use crate::exec::ExecError;
use crate::plan::{BufRef, CSpec, KernelPlan};
use crate::run::{run_chunks, AddrScratch, BlockRunner, CtaRunner, ExecMode};
use crate::trace_opt::{classify, record_opt_trace, OTp, OptTrace, Span, TracePart};
use graphene_ir::atomic::AtomicSemantics;
use graphene_ir::Arch;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Captures [`OTp`] steps during one instrumented [`CtaRunner`] pass.
///
/// Installed on the runner by [`record_trace`]; the runner calls back
/// after each `Alloc` and after each successfully executed group, so a
/// failing execution never leaves a partial step in a published trace.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    /// Steps, residual arena and recorded-address count so far.
    pub(crate) part: TracePart,
    /// The current group's operand addresses, before classification.
    run: Vec<u32>,
    n_globals: usize,
    n_shared: usize,
}

impl Recorder {
    pub(crate) fn new(plan: &KernelPlan) -> Self {
        Recorder {
            part: TracePart::default(),
            run: Vec::new(),
            n_globals: plan.globals.len(),
            n_shared: plan.shared.len(),
        }
    }

    /// Unified buffer-table index of a plan buffer reference.
    fn buf_id(&self, buf: BufRef) -> u32 {
        use graphene_ir::MemSpace;
        (match buf.mem {
            MemSpace::Global => buf.idx,
            MemSpace::Shared => self.n_globals + buf.idx,
            MemSpace::Register => self.n_globals + self.n_shared + buf.idx,
        }) as u32
    }

    /// Appends `k` addresses per lane of one operand segment to the
    /// group's run, flattening register addresses to
    /// `thread * len + addr`. Returns a gather span over the run, which
    /// [`record_group`](Self::record_group) classifies.
    fn push_seg(
        &mut self,
        buf: BufRef,
        lanes: &[i64],
        scratch: &AddrScratch,
        seg: (usize, usize),
        k: usize,
    ) -> Span {
        let start = u32::try_from(self.run.len()).expect("group address run exceeds u32 range");
        let (s0, n) = seg;
        if buf.mem == graphene_ir::MemSpace::Register {
            for (li, &t) in lanes.iter().enumerate() {
                let base = t * buf.len as i64;
                self.run.extend(
                    scratch.addrs[s0 + li * n..s0 + li * n + k].iter().map(|&a| (base + a) as u32),
                );
            }
        } else {
            for li in 0..lanes.len() {
                self.run
                    .extend(scratch.addrs[s0 + li * n..s0 + li * n + k].iter().map(|&a| a as u32));
            }
        }
        Span::Gather { start }
    }

    /// Records a zero-fill of an allocated buffer.
    pub(crate) fn record_alloc(&mut self, buf: BufRef) {
        let buf = self.buf_id(buf);
        self.part.steps.push(OTp::Fill { buf });
    }

    /// Records one successfully executed warp/collective group.
    ///
    /// Per-thread ops are flattened lane-major (the per-lane structure
    /// is irrelevant to their semantics); collective ops keep their
    /// per-lane address strides because their fragment math indexes by
    /// lane.
    ///
    /// Each operand run is classified as it is emitted, with the shape
    /// [`OTp::spans_mut`] reports for it; only the irregular residue
    /// reaches the arena.
    pub(crate) fn record_group(&mut self, cs: &CSpec, lanes: &[i64], sc: &AddrScratch) {
        let nl = lanes.len() as u32;
        self.run.clear();
        let mut step = match cs.semantics {
            AtomicSemantics::CopyPerThread | AtomicSemantics::UnaryPerThread(_) => {
                // The executor zips src/dst per lane, so the effective
                // per-lane count is the shorter of the two segments.
                let k = sc.ins[0].1.min(sc.outs[0].1);
                let sa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], k);
                let da = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], k);
                let (src, dst) = (self.buf_id(cs.ins[0].buf), self.buf_id(cs.outs[0].buf));
                let n = nl * k as u32;
                match cs.semantics {
                    AtomicSemantics::UnaryPerThread(op) => OTp::Unary { op, src, dst, sa, da, n },
                    _ => OTp::Copy { src, dst, sa, da, n },
                }
            }
            AtomicSemantics::BinaryPerThread(op) => {
                let k = sc.ins[0].1;
                let aa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], k);
                let ba = self.push_seg(cs.ins[1].buf, lanes, sc, sc.ins[1], k);
                let da = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], k);
                OTp::Binary {
                    op,
                    a: self.buf_id(cs.ins[0].buf),
                    b: self.buf_id(cs.ins[1].buf),
                    dst: self.buf_id(cs.outs[0].buf),
                    aa,
                    ba,
                    da,
                    n: nl * k as u32,
                }
            }
            AtomicSemantics::FmaPerThread => {
                let k = sc.ins[0].1;
                let aa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], k);
                let ba = self.push_seg(cs.ins[1].buf, lanes, sc, sc.ins[1], k);
                let ca = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], k);
                OTp::Fma {
                    a: self.buf_id(cs.ins[0].buf),
                    b: self.buf_id(cs.ins[1].buf),
                    c: self.buf_id(cs.outs[0].buf),
                    aa,
                    ba,
                    ca,
                    n: nl * k as u32,
                }
            }
            AtomicSemantics::InitPerThread => {
                let k = sc.outs[0].1;
                let da = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], k);
                OTp::Init {
                    value: cs.init_value,
                    dst: self.buf_id(cs.outs[0].buf),
                    da,
                    n: nl * k as u32,
                }
            }
            AtomicSemantics::ReducePerThread(op) => {
                let per = sc.ins[0].1;
                let sa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], per);
                let da = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], 1);
                OTp::Reduce {
                    op,
                    src: self.buf_id(cs.ins[0].buf),
                    dst: self.buf_id(cs.outs[0].buf),
                    sa,
                    da,
                    groups: nl,
                    per: per as u32,
                }
            }
            AtomicSemantics::LdMatrix { num, trans } => {
                let (sper, dper) = (sc.ins[0].1, sc.outs[0].1);
                let sa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], sper);
                let da = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], dper);
                OTp::LdMatrix {
                    num,
                    trans,
                    src: self.buf_id(cs.ins[0].buf),
                    dst: self.buf_id(cs.outs[0].buf),
                    sa,
                    sper: sper as u32,
                    da,
                    dper: dper as u32,
                    lanes: nl,
                }
            }
            AtomicSemantics::MmaAmpere16816 | AtomicSemantics::MmaVolta884 => {
                let (aper, bper, cper) = (sc.ins[0].1, sc.ins[1].1, sc.outs[0].1);
                let aa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], aper);
                let ba = self.push_seg(cs.ins[1].buf, lanes, sc, sc.ins[1], bper);
                let ca = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], cper);
                let (a, b, c) = (
                    self.buf_id(cs.ins[0].buf),
                    self.buf_id(cs.ins[1].buf),
                    self.buf_id(cs.outs[0].buf),
                );
                let (aper, bper, cper) = (aper as u32, bper as u32, cper as u32);
                if cs.semantics == AtomicSemantics::MmaAmpere16816 {
                    OTp::Mma16816 { a, b, c, aa, aper, ba, bper, ca, cper, lanes: nl }
                } else {
                    OTp::Mma884 { a, b, c, aa, aper, ba, bper, ca, cper, lanes: nl }
                }
            }
            AtomicSemantics::ShflBfly => {
                let sa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], 1);
                let da = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], 1);
                OTp::Shfl {
                    mask: cs.shfl_mask,
                    src: self.buf_id(cs.ins[0].buf),
                    dst: self.buf_id(cs.outs[0].buf),
                    sa,
                    da,
                    lanes: nl,
                }
            }
        };
        let Recorder { part, run, .. } = self;
        step.spans_mut(|_, span, lanes, per, _| {
            let Span::Gather { start } = *span else { unreachable!("recorded spans are runs") };
            let n = (lanes * per) as usize;
            part.stats.addrs_before += n;
            *span = classify(
                &run[start as usize..start as usize + n],
                lanes as usize,
                per as usize,
                &mut part.gather,
            );
        });
        part.steps.push(step);
    }
}

/// Records `plan` once into a raw [`OptTrace`]: every operand classified
/// as it was emitted, stats reporting no optimization.
///
/// The recording runs the full grid over zero-filled inputs through the
/// instrumented compiled executor, in contiguous chunks of blocks on
/// parallel workers joined in block order. This is sound because control
/// flow in this IR is purely index-driven (see the module docs): the
/// captured step sequence and addresses are valid for every input
/// valuation, and each block's `Alloc`s refill its buffers, so no block
/// sees another's effect on the trace and the joined trace is the
/// sequential one.
///
/// # Errors
///
/// Any [`ExecError`] the recording run hits (the trace is discarded);
/// when several blocks fail, the lowest block's error.
pub fn record_trace(
    plan: &KernelPlan,
    bindings: &HashMap<String, i64>,
) -> Result<OptTrace, ExecError> {
    record_trace_with(plan, bindings, ExecMode::Parallel)
}

/// [`record_trace`] with the worker count of `mode`.
pub(crate) fn record_trace_with(
    plan: &KernelPlan,
    bindings: &HashMap<String, i64>,
    mode: ExecMode,
) -> Result<OptTrace, ExecError> {
    let grid = plan.grid.max(0) as usize;
    let parts = run_chunks(grid, mode, |blocks| record_blocks(plan, bindings, blocks));
    let part = TracePart::join(parts.into_iter().collect::<Result<_, _>>()?);
    let mut counters = part.counters;
    counters.unique_global_read_bytes = plan.unique_read;
    counters.unique_global_write_bytes = plan.unique_written;
    let mut buf_lens: Vec<usize> = plan.globals.iter().map(|&(_, _, l)| l).collect();
    buf_lens.extend(plan.shared.iter().map(|&(_, l)| l));
    buf_lens.extend(plan.regs.iter().map(|&(_, l)| l * plan.block_threads as usize));
    Ok(OptTrace {
        steps: part.steps,
        gather: part.gather,
        blocks: part.blocks,
        buf_lens,
        n_globals: plan.globals.len(),
        params: plan.globals.clone(),
        counters,
        stats: part.stats,
    }
    .seal_raw())
}

/// Records the blocks `range` on one worker into a part of their own.
fn record_blocks(
    plan: &KernelPlan,
    bindings: &HashMap<String, i64>,
    range: Range<usize>,
) -> Result<TracePart, ExecError> {
    let init: Vec<Vec<f32>> = plan.globals.iter().map(|&(_, _, len)| vec![0.0; len]).collect();
    let mut runner = CtaRunner::new(plan, init, bindings);
    runner.rec = Some(Recorder::new(plan));
    let mut blocks = Vec::with_capacity(range.len());
    let steps = |r: &CtaRunner| {
        let n = r.rec.as_ref().expect("recorder installed").part.steps.len();
        u32::try_from(n).expect("trace exceeds u32 steps")
    };
    for b in range {
        let start = steps(&runner);
        runner.run_block(b)?;
        blocks.push((start, steps(&runner)));
    }
    let mut part = runner.rec.take().expect("recorder installed").part;
    part.blocks = blocks;
    part.counters = runner.counters;
    Ok(part)
}

/// Cache key: one trace per (kernel, problem, arch).
///
/// `problem` is a caller-chosen string naming the problem instance —
/// by convention the kernel's dimension summary (e.g.
/// `"m=1024 n=1024 k=512"`). Dynamic-parameter bindings **must** be
/// folded into it: they change loop trip counts and guard outcomes,
/// i.e. the recorded program itself. Editing the kernel or changing
/// the arch likewise yields a different key, so stale traces are never
/// replayed — invalidation is by construction, not by mutation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Kernel name.
    pub kernel: String,
    /// Problem-instance description (sizes and bindings).
    pub problem: String,
    /// Target architecture.
    pub arch: Arch,
}

/// A capacity-bounded map with least-recently-used eviction, shared by
/// [`TraceCache`] and the graph-trace cache
/// ([`crate::graph_exec::GraphTraceCache`]).
///
/// Recency is a monotone stamp bumped on every get/insert; eviction
/// removes the minimum-stamp entry. The scan is O(len) per eviction,
/// which is irrelevant at trace-cache capacities (tens to hundreds)
/// against the cost of the recording run an eviction forces.
#[derive(Debug)]
pub(crate) struct LruMap<K, V> {
    map: HashMap<K, (V, u64)>,
    capacity: usize,
    tick: u64,
    evicted: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> LruMap<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        LruMap { map: HashMap::new(), capacity: capacity.max(1), tick: 0, evicted: 0 }
    }

    /// Looks up `k`, marking it most-recently-used on a hit.
    pub(crate) fn get(&mut self, k: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(k).map(|e| {
            e.1 = tick;
            e.0.clone()
        })
    }

    /// Inserts `v` under `k`, evicting the least-recently-used entry
    /// if the map is at capacity. First insert wins: if `k` is already
    /// present (a racing caller beat us), the existing value is
    /// returned and `v` is dropped.
    pub(crate) fn insert(&mut self, k: K, v: V) -> V {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.map.get_mut(&k) {
            e.1 = tick;
            return e.0.clone();
        }
        if self.map.len() >= self.capacity {
            if let Some(victim) = self.map.iter().min_by_key(|(_, e)| e.1).map(|(k, _)| k.clone()) {
                self.map.remove(&victim);
                self.evicted += 1;
            }
        }
        self.map.insert(k, (v.clone(), tick));
        v
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterates the resident values without touching recency.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(v, _)| v)
    }

    /// Membership test that does **not** bump recency.
    pub(crate) fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Default [`TraceCache`] capacity, counted in **traces, not bytes**.
/// Each trace holds the unrolled step and address arenas of one kernel
/// instance, from kilobytes for small problems to over a gigabyte at
/// catalog defaults (the 1024³ GEMM's optimized trace is about 1.38 GB).
/// The bound therefore caps how many distinct shapes stay resident in
/// long-lived many-shape traffic (the serve-daemon pattern), but not
/// the memory they use; [`TraceCache::resident_bytes`] reports that.
pub const TRACE_CACHE_CAPACITY: usize = 256;

/// Memoizes recorded traces per [`TraceKey`], in
/// [`crate::plan::PlanCache`] style: record on first request, share
/// the [`Arc`]'d trace on every subsequent one. `Sync`, so one cache
/// can serve the per-CTA parallel fan-out and concurrent tuner
/// workers.
///
/// What the cache keeps resident is the **optimized** form
/// ([`OptTrace`]): recording runs the trace optimizer before insertion,
/// so every cached trace replays on the coalesced fast path and the
/// cache's memory footprint is the post-classification one (see
/// [`resident_bytes`](Self::resident_bytes)).
///
/// The cache is bounded ([`TRACE_CACHE_CAPACITY`] by default, or
/// [`TraceCache::with_capacity`]): inserting past capacity evicts the
/// least-recently-used trace and bumps [`evictions`](Self::evictions).
/// An evicted key simply re-records on next request.
#[derive(Debug)]
pub struct TraceCache {
    traces: Mutex<LruMap<TraceKey, Arc<OptTrace>>>,
    hits: AtomicU64,
    recordings: AtomicU64,
}

impl Default for TraceCache {
    fn default() -> Self {
        Self::with_capacity(TRACE_CACHE_CAPACITY)
    }
}

impl TraceCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` traces (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceCache {
            traces: Mutex::new(LruMap::new(capacity)),
            hits: AtomicU64::new(0),
            recordings: AtomicU64::new(0),
        }
    }

    /// Returns the cached trace for `key`, recording it on first use.
    ///
    /// Recording happens outside the map lock, so requests for
    /// *different* keys never serialize on a recording. Two racing
    /// requests for the same cold key may both record; the first
    /// insert wins and both callers get identical traces.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] from the recording run; nothing is cached.
    pub fn get_or_record(
        &self,
        key: &TraceKey,
        plan: &KernelPlan,
        bindings: &HashMap<String, i64>,
    ) -> Result<Arc<OptTrace>, ExecError> {
        if let Some(t) = self.traces.lock().expect("trace cache poisoned").get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(t);
        }
        let t = Arc::new(record_opt_trace(plan, bindings)?);
        self.recordings.fetch_add(1, Ordering::Relaxed);
        Ok(self.traces.lock().expect("trace cache poisoned").insert(key.clone(), t))
    }

    /// Replays served from an already-recorded trace.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Recording runs performed (interpretations of the full kernel).
    pub fn recordings(&self) -> u64 {
        self.recordings.load(Ordering::Relaxed)
    }

    /// Traces evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.traces.lock().expect("trace cache poisoned").evicted()
    }

    /// Whether a trace for `key` is currently resident. Unlike a
    /// lookup this does not bump the entry's recency, so observers
    /// (request handlers reporting hit-vs-record, tests asserting
    /// eviction behavior) don't perturb the LRU order.
    pub fn contains(&self, key: &TraceKey) -> bool {
        self.traces.lock().expect("trace cache poisoned").contains(key)
    }

    /// Number of distinct traces held.
    pub fn len(&self) -> usize {
        self.traces.lock().expect("trace cache poisoned").len()
    }

    /// Total resident payload bytes across all cached (optimized)
    /// traces: step lists plus residual gather arenas plus metadata.
    pub fn resident_bytes(&self) -> usize {
        self.traces.lock().expect("trace cache poisoned").values().map(|t| t.resident_bytes()).sum()
    }

    /// Whether the cache holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_opt::optimize_trace_with;
    use crate::trace_opt::tests::span_addrs;
    use graphene_ir::Kernel;
    use graphene_kernels::gemm::{build_gemm, Epilogue, GemmConfig};
    use graphene_kernels::layernorm::{build_layernorm, LayernormConfig};

    fn assert_same(a: &OptTrace, b: &OptTrace, what: &str) {
        assert!(a.steps == b.steps, "{what}: steps differ");
        assert!(a.gather == b.gather, "{what}: arenas differ");
        assert_eq!(a.blocks, b.blocks, "{what}: block table");
        assert_eq!(a.buf_lens, b.buf_lens, "{what}: buffer table");
        assert_eq!(a.counters, b.counters, "{what}: counters");
        assert_eq!(a.stats, b.stats, "{what}: stats");
    }

    /// Recording and optimizing in worker chunks (even and uneven)
    /// joins to exactly the sequential trace, and a raw trace's
    /// `addrs_before` counts every operand address, not its arena.
    #[test]
    fn record_and_optimize_are_identical_for_every_worker_count() {
        let gemm = GemmConfig {
            m: 160,
            n: 32,
            k: 32,
            bm: 32,
            bn: 32,
            bk: 16,
            wm: 16,
            wn: 16,
            swizzle: true,
        };
        let kernels: [(&str, Kernel); 2] = [
            ("swizzled gemm", build_gemm(Arch::Sm86, &gemm, Epilogue::None)),
            ("layernorm", build_layernorm(Arch::Sm86, &LayernormConfig::new(20, 256))),
        ];
        let bindings = HashMap::new();
        for (name, kernel) in &kernels {
            let plan = KernelPlan::compile(kernel, Arch::Sm86).expect("plan");
            assert_eq!(plan.grid, 5, "{name}: five blocks split unevenly over 2 and 3 workers");
            let seq = record_trace_with(&plan, &bindings, ExecMode::Sequential).expect("record");
            assert_eq!(seq.stats.addrs_before, span_addrs(&seq), "{name}: addrs_before");
            assert!(seq.gather.len() < seq.stats.addrs_before, "{name}: nothing classified");
            let opt = optimize_trace_with(&seq, ExecMode::Sequential);
            for mode in [ExecMode::Workers(2), ExecMode::Workers(3)] {
                let raw = record_trace_with(&plan, &bindings, mode).expect("record");
                assert_same(&raw, &seq, &format!("{name}: record {mode:?}"));
                let o = optimize_trace_with(&seq, mode);
                assert_same(&o, &opt, &format!("{name}: optimize {mode:?}"));
            }
        }
    }
}
