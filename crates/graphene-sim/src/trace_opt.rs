//! The trace step IR (`OTp` over `Span` operands, held in an
//! [`OptTrace`]) and the trace optimizer over it.
//!
//! Most recorded address runs in the paper's kernels are *affine* —
//! contiguous or constant-stride, often with a regular per-lane (2D)
//! structure. That is not an accident: under the F₂/linear-layout view
//! of addresses, every non-swizzled operand of these kernels is a
//! linear function of `(blockIdx, threadIdx, loop vars)`, so its
//! recorded address slice is an arithmetic progression (or a lane-major
//! grid of them). Classification therefore happens **as the recorder
//! emits each operand** ([`crate::trace::record_trace`] calls
//! `classify` with the `(lanes, per)` shape `OTp::spans_mut` reports):
//! [`Span::Affine`] `(base, stride)` for 1D progressions,
//! [`Span::Lanes`] `(base, lane, stride, per)` for lane-major 2D grids
//! (register files flattened to `thread*len+addr`, strided global loads,
//! mma fragments), and [`Span::Gather`] for the residue (e.g.
//! XOR-swizzled shared memory), the only addresses the recording stores.
//! [`optimize_trace`] runs **once at record time** and:
//!
//! 1. **Composes** full-warp `ldmatrix` and MMA steps with their
//!    fragment permutations into a flat copy and a matrix-order
//!    `OTp::MmaDense`, classifying the composed address vectors, and
//!    reclassifies the remaining gather spans into a compacted arena.
//!    Composition can grow the trace: a composed fragment of a swizzled
//!    operand is one irregular run where the lane-order step had
//!    lane-major ones.
//! 2. **Fuses** adjacent same-shape steps whose descriptors chain
//!    (`base₂ = base₁ + n₁·stride`), within a block only.
//! 3. **Eliminates dead fills**: a recorded `Alloc` zero-fill is
//!    dropped when the first subsequent touch of that buffer inside the
//!    same block is a write that fully overwrites it.
//!
//! Every step is rewritten within its own block, so recording and
//! optimization both run contiguous chunks of blocks on parallel
//! workers and join the `TracePart`s in block order; the result is
//! identical to a sequential pass.
//!
//! One operand visitor, `OTp::spans_mut`, serves classification, the
//! dead-fill query, the part join and the parallel replay's write set.
//! The replay ([`crate::replay::replay_opt`]) then runs
//! contiguous copies as `copy_from_slice`, contiguous element-wise ops
//! as tight auto-vectorizable slice loops, strided/lane spans as
//! stepped loops with no arena traffic, and residual gathers through
//! the compacted arena — bit-identical to the recorded execution by
//! construction (element order and `f64` op semantics are preserved).

use crate::counters::Counters;
use crate::exec::ExecError;
use crate::plan::KernelPlan;
use crate::run::{run_chunks, ExecMode};
use crate::trace::record_trace;
use graphene_ir::ops::{BinaryOp, ReduceOp, UnaryOp};
use graphene_ir::tensor::TensorId;
use std::collections::HashMap;
use std::ops::Range;

/// A classified operand address slice: the compact replacement for a
/// run of arena addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Span {
    /// `addr(i) = base + i·stride`. Contiguous is `stride == 1`,
    /// broadcast is `stride == 0`.
    Affine { base: u32, stride: i32 },
    /// Lane-major 2D progression over `per`-element rows:
    /// `addr(i) = base + (i / per)·lane + (i % per)·stride`.
    Lanes { base: u32, lane: i32, stride: i32, per: u32 },
    /// Irregular slice: `addr(i) = gather[start + i]` in the
    /// [`OptTrace::gather`] arena (every operand of a raw recording).
    Gather { start: u32 },
}

impl Span {
    /// The address of element `i`; `g` is the residual gather arena.
    #[inline]
    pub(crate) fn at(&self, g: &[u32], i: usize) -> usize {
        match *self {
            Span::Affine { base, stride } => {
                (i64::from(base) + i as i64 * i64::from(stride)) as usize
            }
            Span::Lanes { base, lane, stride, per } => {
                let (li, j) = (i / per as usize, i % per as usize);
                (i64::from(base) + li as i64 * i64::from(lane) + j as i64 * i64::from(stride))
                    as usize
            }
            Span::Gather { start } => g[start as usize + i] as usize,
        }
    }

    /// Per-lane accessor for lane-structured (collective) operands:
    /// lane `li` of a span recorded with `per` addresses per lane.
    #[inline]
    pub(crate) fn lane<'g>(&self, g: &'g [u32], li: usize, per: usize) -> LaneRef<'g> {
        match *self {
            Span::Affine { base, stride } => LaneRef::Aff {
                start: i64::from(base) + (li * per) as i64 * i64::from(stride),
                step: i64::from(stride),
            },
            Span::Lanes { base, lane, stride, .. } => LaneRef::Aff {
                start: i64::from(base) + li as i64 * i64::from(lane),
                step: i64::from(stride),
            },
            Span::Gather { start } => {
                let s = start as usize + li * per;
                LaneRef::Gat(&g[s..s + per])
            }
        }
    }
}

/// One lane of a lane-structured operand: an arithmetic progression or
/// a residual gather row.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LaneRef<'g> {
    Aff { start: i64, step: i64 },
    Gat(&'g [u32]),
}

/// One trace step: an op kind over buffer-table indices (globals, then
/// shared, then flattened register files), with one [`Span`] per
/// operand; `sa(i)` below is the span's `i`-th address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum OTp {
    /// Zero-fill buffer `buf` (a recorded `Alloc`).
    Fill { buf: u32 },
    /// `dst[da(i)] = src[sa(i)]` for `i in 0..n`.
    Copy { src: u32, dst: u32, sa: Span, da: Span, n: u32 },
    /// `dst[da(i)] = op(src[sa(i)])`.
    Unary { op: UnaryOp, src: u32, dst: u32, sa: Span, da: Span, n: u32 },
    /// `dst[da(i)] = op(a[aa(i)], b[ba(i)])`.
    Binary { op: BinaryOp, a: u32, b: u32, dst: u32, aa: Span, ba: Span, da: Span, n: u32 },
    /// `c[ca(i)] = a[aa(i)] * b[ba(i)] + c[ca(i)]`.
    Fma { a: u32, b: u32, c: u32, aa: Span, ba: Span, ca: Span, n: u32 },
    /// `dst[da(i)] = value`.
    Init { value: f32, dst: u32, da: Span, n: u32 },
    /// `groups` reductions of `per` elements each:
    /// `dst[da(g)] = fold(op, src[sa(g*per..(g+1)*per)])`.
    Reduce { op: ReduceOp, src: u32, dst: u32, sa: Span, da: Span, groups: u32, per: u32 },
    /// Collective `ldmatrix` over `lanes` lanes, `sper`/`dper`
    /// addresses per lane.
    LdMatrix {
        num: u8,
        trans: bool,
        src: u32,
        dst: u32,
        sa: Span,
        sper: u32,
        da: Span,
        dper: u32,
        lanes: u32,
    },
    /// Collective `mma.m16n8k16` over `lanes` lanes.
    Mma16816 {
        a: u32,
        b: u32,
        c: u32,
        aa: Span,
        aper: u32,
        ba: Span,
        bper: u32,
        ca: Span,
        cper: u32,
        lanes: u32,
    },
    /// Collective `mma.m8n8k4` over `lanes` lanes.
    Mma884 {
        a: u32,
        b: u32,
        c: u32,
        aa: Span,
        aper: u32,
        ba: Span,
        bper: u32,
        ca: Span,
        cper: u32,
        lanes: u32,
    },
    /// Full-warp tensor-core MMA with the fragment shuffle composed
    /// away at optimize time: `am.at(i)` addresses `A[m][k]` at
    /// `i = m*K + k` (row-major), likewise `bm` for `B[k][n]` and `cm`
    /// for the `C[m][n]` accumulator. Replay streams whole matrices
    /// with no per-element lane/fragment arithmetic. `m16` selects
    /// m16n8k16 (true) vs m8n8k4 (false).
    MmaDense { m16: bool, a: u32, b: u32, c: u32, am: Span, bm: Span, cm: Span },
    /// Butterfly shuffle: lane `l` reads `src[sa(l)]`, lane `l` writes
    /// the value read by lane `l ^ mask` to `dst[da(l)]`.
    Shfl { mask: u32, src: u32, dst: u32, sa: Span, da: Span, lanes: u32 },
}

/// How a step uses one operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    Read,
    Write,
    /// Read, then written (an accumulator).
    Update,
}

impl OTp {
    /// Visits every addressed operand as `(buffer, span, lanes, per,
    /// access)`, inputs before outputs. The span covers `lanes × per`
    /// addresses: lane-structured rows when `lanes > 1`, one flat run
    /// when `lanes == 1`.
    pub(crate) fn spans_mut(&mut self, mut f: impl FnMut(u32, &mut Span, u32, u32, Access)) {
        use Access::{Read, Update, Write};
        match self {
            OTp::Fill { .. } => {}
            OTp::Copy { src, dst, sa, da, n } | OTp::Unary { src, dst, sa, da, n, .. } => {
                f(*src, sa, 1, *n, Read);
                f(*dst, da, 1, *n, Write);
            }
            OTp::Binary { a, b, dst, aa, ba, da, n, .. } => {
                f(*a, aa, 1, *n, Read);
                f(*b, ba, 1, *n, Read);
                f(*dst, da, 1, *n, Write);
            }
            OTp::Fma { a, b, c, aa, ba, ca, n } => {
                f(*a, aa, 1, *n, Read);
                f(*b, ba, 1, *n, Read);
                f(*c, ca, 1, *n, Update);
            }
            OTp::Init { dst, da, n, .. } => f(*dst, da, 1, *n, Write),
            OTp::Reduce { src, dst, sa, da, groups, per, .. } => {
                f(*src, sa, *groups, *per, Read);
                f(*dst, da, 1, *groups, Write);
            }
            OTp::LdMatrix { src, dst, sa, sper, da, dper, lanes, .. } => {
                f(*src, sa, *lanes, *sper, Read);
                f(*dst, da, *lanes, *dper, Write);
            }
            OTp::Mma16816 { a, b, c, aa, aper, ba, bper, ca, cper, lanes }
            | OTp::Mma884 { a, b, c, aa, aper, ba, bper, ca, cper, lanes } => {
                f(*a, aa, *lanes, *aper, Read);
                f(*b, ba, *lanes, *bper, Read);
                f(*c, ca, *lanes, *cper, Update);
            }
            OTp::MmaDense { m16, a, b, c, am, bm, cm } => {
                let (m, n, k) = if *m16 { (16, 8, 16) } else { (8, 8, 4) };
                f(*a, am, 1, m * k, Read);
                f(*b, bm, 1, k * n, Read);
                f(*c, cm, 1, m * n, Update);
            }
            OTp::Shfl { src, dst, sa, da, lanes, .. } => {
                f(*src, sa, 1, *lanes, Read);
                f(*dst, da, 1, *lanes, Write);
            }
        }
    }

    /// Read-only [`spans_mut`](Self::spans_mut).
    pub(crate) fn spans(&self, mut f: impl FnMut(u32, Span, u32, u32, Access)) {
        let mut step = *self;
        step.spans_mut(|buf, span, lanes, per, access| f(buf, *span, lanes, per, access));
    }
}

/// What the optimizer did to one trace — surfaced in CLI replay output,
/// the serve daemon's `stats`, and the repository benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptStats {
    /// Steps in the unoptimized trace.
    pub steps_before: usize,
    /// Steps after fusion and dead-fill elimination.
    pub steps_after: usize,
    /// Scalar operand addresses the recording run emitted, whether or
    /// not they reached its arena.
    pub addrs_before: usize,
    /// Addresses that stayed irregular (the residual gather arena).
    pub gather_addrs: usize,
    /// Zero-fill steps proven dead and removed.
    pub dead_fills: usize,
    /// Steps merged into a predecessor by adjacent-step fusion.
    pub fused_steps: usize,
    /// Resident payload bytes of the recorded (unoptimized) trace.
    pub bytes_before: usize,
    /// Resident payload bytes of the optimized trace.
    pub bytes_after: usize,
}

impl OptStats {
    /// Fraction of recorded addresses replaced by affine descriptors
    /// (1.0 when the trace recorded no addresses at all).
    #[must_use]
    pub fn coalesced_fraction(&self) -> f64 {
        if self.addrs_before == 0 {
            1.0
        } else {
            1.0 - self.gather_addrs as f64 / self.addrs_before as f64
        }
    }

    /// Fraction of resident trace bytes eliminated; negative when
    /// optimization grew the trace.
    #[must_use]
    pub fn bytes_saved_fraction(&self) -> f64 {
        if self.bytes_before == 0 {
            0.0
        } else {
            1.0 - self.bytes_after as f64 / self.bytes_before as f64
        }
    }
}

/// A straight-line trace: every branch resolved, every loop unrolled,
/// every operand address precomputed. [`record_trace`] produces the
/// raw form (operands classified, collectives in lane order, stats
/// reporting no optimization); [`optimize_trace`] the composed, fused
/// form the [`crate::trace::TraceCache`] and graph-trace cache keep
/// resident.
/// Either replays through [`crate::replay::replay_opt`].
#[derive(Debug)]
pub struct OptTrace {
    pub(crate) steps: Vec<OTp>,
    /// Irregular addresses ([`Span::Gather`] targets).
    pub(crate) gather: Vec<u32>,
    /// Per-block `(start, end)` step ranges, in block order.
    pub(crate) blocks: Vec<(u32, u32)>,
    /// Unified buffer table lengths: globals, then shared, then
    /// register files (already `len × block_threads` flat).
    pub(crate) buf_lens: Vec<usize>,
    pub(crate) n_globals: usize,
    /// Kernel params `(id, name, scalar length)`: replay input
    /// validation and outcome keying.
    pub(crate) params: Vec<(TensorId, String, usize)>,
    /// Counters captured from the recording run. Counters are
    /// input-independent, so every replay of this trace reports them
    /// unchanged.
    pub(crate) counters: Counters,
    pub(crate) stats: OptStats,
}

impl OptTrace {
    /// Number of steps across all blocks.
    #[must_use]
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of gather addresses held.
    #[must_use]
    pub fn num_addrs(&self) -> usize {
        self.gather.len()
    }

    /// Number of thread blocks in the recorded grid.
    #[must_use]
    pub fn grid_size(&self) -> i64 {
        self.blocks.len() as i64
    }

    /// The profile counters every replay of this trace reports.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// What the optimizer did to this trace.
    #[must_use]
    pub fn stats(&self) -> &OptStats {
        &self.stats
    }

    /// Resident payload bytes: step list, gather arena, block table and
    /// buffer metadata (length-based, so the figure is deterministic).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.steps.len() * std::mem::size_of::<OTp>()
            + self.gather.len() * std::mem::size_of::<u32>()
            + self.blocks.len() * std::mem::size_of::<(u32, u32)>()
            + self.buf_lens.len() * std::mem::size_of::<usize>()
            + self
                .params
                .iter()
                .map(|(_, name, _)| std::mem::size_of::<(TensorId, String, usize)>() + name.len())
                .sum::<usize>()
    }

    /// Sets the `*_after` stats from the trace as it now stands.
    fn seal(mut self) -> Self {
        self.stats.steps_after = self.steps.len();
        self.stats.gather_addrs = self.gather.len();
        self.stats.bytes_after = self.resident_bytes();
        self
    }

    /// Seals a freshly recorded trace: its step and byte `*_before`
    /// stats describe itself; `addrs_before` is the recorder's count.
    pub(crate) fn seal_raw(self) -> Self {
        let mut t = self.seal();
        let st = &mut t.stats;
        (st.steps_before, st.bytes_before) = (st.steps_after, st.bytes_after);
        t
    }
}

/// The steps of a contiguous run of blocks, as one worker of
/// [`record_trace`] or [`optimize_trace`] produces them. Gather starts
/// index this part's own `gather` and block ranges its own `steps`.
#[derive(Debug, Default)]
pub(crate) struct TracePart {
    pub(crate) steps: Vec<OTp>,
    pub(crate) gather: Vec<u32>,
    pub(crate) blocks: Vec<(u32, u32)>,
    pub(crate) counters: Counters,
    /// Only the additive counts are kept: `addrs_before`, `dead_fills`
    /// and `fused_steps`.
    pub(crate) stats: OptStats,
}

impl TracePart {
    /// Joins parts given in block order. The first part's arena grows in
    /// place and each later part is dropped once appended, so no arena
    /// is ever held twice. Identical to the part one worker would have
    /// produced for all the blocks: its arena runs were appended in step
    /// order.
    ///
    /// The step list (tens of MB at catalog sizes, against hundreds for
    /// an arena) is copied once into an exactly sized `Vec` allocated by
    /// the calling thread. The trace outlives the workers; left in a
    /// worker's glibc arena, it made the caller's later large
    /// allocations page-fault afresh on every replay (44 MB per
    /// 4096×1024 layernorm replay in the exec-kernels benchmark).
    pub(crate) fn join(parts: Vec<TracePart>) -> TracePart {
        let n_steps = parts.iter().map(|p| p.steps.len()).sum();
        let mut parts = parts.into_iter();
        let mut acc = parts.next().unwrap_or_default();
        let mut steps = Vec::with_capacity(n_steps);
        steps.append(&mut acc.steps);
        acc.steps = steps;
        for next in parts {
            acc.append(next);
        }
        acc
    }

    fn append(&mut self, next: TracePart) {
        let soff = u32::try_from(self.steps.len()).expect("trace exceeds u32 steps");
        let goff = u32::try_from(self.gather.len()).expect("gather arena exceeds u32 range");
        self.steps.extend(next.steps.into_iter().map(|mut step| {
            step.spans_mut(|_, span, _, _, _| {
                if let Span::Gather { start } = span {
                    *start = start.checked_add(goff).expect("gather arena exceeds u32 range");
                }
            });
            step
        }));
        self.gather.extend_from_slice(&next.gather);
        let rebase = |i: u32| i.checked_add(soff).expect("trace exceeds u32 steps");
        self.blocks.extend(next.blocks.iter().map(|&(s, e)| (rebase(s), rebase(e))));
        self.counters.merge(&next.counters);
        self.stats.addrs_before += next.stats.addrs_before;
        self.stats.dead_fills += next.stats.dead_fills;
        self.stats.fused_steps += next.stats.fused_steps;
    }
}

/// Classifies one address run of `lanes × per` addresses (flat when
/// `lanes == 1`), falling back to the residual gather arena. The
/// recorder calls it on every operand as it is emitted, with the shape
/// [`OTp::spans_mut`] reports.
pub(crate) fn classify(addrs: &[u32], lanes: usize, per: usize, gather: &mut Vec<u32>) -> Span {
    if lanes > 1 {
        classify_lanes(addrs, lanes, per, gather)
    } else {
        classify_flat(addrs, gather)
    }
}

/// Classifies a flat (lane-major flattened) address slice, falling back
/// to the residual gather arena.
fn classify_flat(addrs: &[u32], gather: &mut Vec<u32>) -> Span {
    if let Some(s) = affine_1d(addrs) {
        return s;
    }
    if let Some(s) = affine_periodic(addrs) {
        return s;
    }
    push_gather(addrs, gather)
}

/// Flat ops lose their lane structure when the recorder flattens
/// per-thread work lane-major, so an interleaved access pattern (lane
/// `li` touching `col·lanes + li`) reads as a two-level periodic
/// progression. Recover it: the first stride break fixes the row
/// length, then the implied `(rows, per)` grid is verified exactly.
fn affine_periodic(a: &[u32]) -> Option<Span> {
    if a.len() < 4 {
        return None;
    }
    let stride = i64::from(a[1]) - i64::from(a[0]);
    let per = a.windows(2).position(|w| i64::from(w[1]) - i64::from(w[0]) != stride)? + 1;
    if !a.len().is_multiple_of(per) {
        return None;
    }
    affine_2d(a, a.len() / per, per)
}

/// Classifies a lane-structured slice (`lanes` rows of `per`): 1D
/// affine first (it subsumes the 2D form when `lane == per·stride`),
/// then lane-major 2D, then gather.
fn classify_lanes(addrs: &[u32], lanes: usize, per: usize, gather: &mut Vec<u32>) -> Span {
    if let Some(s) = affine_1d(addrs) {
        return s;
    }
    if let Some(s) = affine_2d(addrs, lanes, per) {
        return s;
    }
    push_gather(addrs, gather)
}

fn push_gather(addrs: &[u32], gather: &mut Vec<u32>) -> Span {
    let start = u32::try_from(gather.len()).expect("gather arena exceeds u32 range");
    gather.extend_from_slice(addrs);
    Span::Gather { start }
}

/// `Some(Affine)` iff the whole slice is one arithmetic progression.
fn affine_1d(a: &[u32]) -> Option<Span> {
    let Some((&first, rest)) = a.split_first() else {
        return Some(Span::Affine { base: 0, stride: 0 });
    };
    let stride = rest.first().map_or(0, |&x| i64::from(x) - i64::from(first));
    let stride32 = i32::try_from(stride).ok()?;
    let mut want = i64::from(first);
    for &x in a {
        if i64::from(x) != want {
            return None;
        }
        want += stride;
    }
    Some(Span::Affine { base: first, stride: stride32 })
}

/// `Some(Lanes)` iff the slice is a lane-major 2D progression:
/// `a[li·per + j] = base + li·lane + j·stride`.
fn affine_2d(a: &[u32], lanes: usize, per: usize) -> Option<Span> {
    if lanes * per != a.len() || per == 0 || lanes < 2 || per < 1 {
        return None;
    }
    let base = i64::from(a[0]);
    let stride = if per > 1 { i64::from(a[1]) - base } else { 0 };
    let lane = i64::from(a[per]) - base;
    let (lane32, stride32) = (i32::try_from(lane).ok()?, i32::try_from(stride).ok()?);
    for li in 0..lanes {
        let row = base + li as i64 * lane;
        for j in 0..per {
            if i64::from(a[li * per + j]) != row + j as i64 * stride {
                return None;
            }
        }
    }
    Some(Span::Lanes { base: a[0], lane: lane32, stride: stride32, per: u32::try_from(per).ok()? })
}

/// Whether span `b` continues span `a` after `n` elements — the fusion
/// precondition. Gather spans chain when their arena runs are adjacent
/// (classification appends them in step order, so this is exact).
fn chains(a: Span, b: Span, n: u32) -> bool {
    match (a, b) {
        (Span::Affine { base: b1, stride: s1 }, Span::Affine { base: b2, stride: s2 }) => {
            s1 == s2 && i64::from(b2) == i64::from(b1) + i64::from(n) * i64::from(s1)
        }
        (Span::Gather { start: g1 }, Span::Gather { start: g2 }) => g2 == g1 + n,
        _ => false,
    }
}

/// Tries to merge `next` into `prev` (adjacent steps of one block).
/// Only flat element-wise shapes fuse; collectives keep their lane
/// structure and `Reduce` its group structure.
fn try_fuse(prev: &mut OTp, next: &OTp) -> bool {
    match (prev, next) {
        (
            OTp::Copy { src, dst, sa, da, n },
            OTp::Copy { src: s2, dst: d2, sa: sa2, da: da2, n: n2 },
        ) if src == s2 && dst == d2 && chains(*sa, *sa2, *n) && chains(*da, *da2, *n) => {
            *n += n2;
            true
        }
        (
            OTp::Unary { op, src, dst, sa, da, n },
            OTp::Unary { op: o2, src: s2, dst: d2, sa: sa2, da: da2, n: n2 },
        ) if op == o2
            && src == s2
            && dst == d2
            && chains(*sa, *sa2, *n)
            && chains(*da, *da2, *n) =>
        {
            *n += n2;
            true
        }
        (
            OTp::Binary { op, a, b, dst, aa, ba, da, n },
            OTp::Binary { op: o2, a: a2, b: b2, dst: d2, aa: aa2, ba: ba2, da: da2, n: n2 },
        ) if op == o2
            && a == a2
            && b == b2
            && dst == d2
            && chains(*aa, *aa2, *n)
            && chains(*ba, *ba2, *n)
            && chains(*da, *da2, *n) =>
        {
            *n += n2;
            true
        }
        (
            OTp::Fma { a, b, c, aa, ba, ca, n },
            OTp::Fma { a: a2, b: b2, c: c2, aa: aa2, ba: ba2, ca: ca2, n: n2 },
        ) if a == a2
            && b == b2
            && c == c2
            && chains(*aa, *aa2, *n)
            && chains(*ba, *ba2, *n)
            && chains(*ca, *ca2, *n) =>
        {
            *n += n2;
            true
        }
        (OTp::Init { value, dst, da, n }, OTp::Init { value: v2, dst: d2, da: da2, n: n2 })
            if value.to_bits() == v2.to_bits() && dst == d2 && chains(*da, *da2, *n) =>
        {
            *n += n2;
            true
        }
        _ => false,
    }
}

/// How one step relates to buffer `buf` — the dead-fill query.
enum Touch {
    /// The step does not reference `buf`.
    None,
    /// The step's **first** effect on `buf` is a write that overwrites
    /// the entire buffer without reading it.
    FullOverwrite,
    /// Anything else: a read, a partial write, or a read-modify-write.
    Other,
}

/// Whether `span` writes exactly `[0, len)` left-to-right.
fn covers(span: Span, n: u32, len: usize) -> bool {
    n as usize == len && span == Span::Affine { base: 0, stride: 1 }
}

fn touch(step: &OTp, buf: u32, len: usize) -> Touch {
    if let OTp::Fill { buf: b } = *step {
        return if b == buf { Touch::FullOverwrite } else { Touch::None };
    }
    let mut t = Touch::None;
    step.spans(|b, span, lanes, per, access| {
        if b == buf {
            t = match (&t, access) {
                (Touch::None, Access::Write) if covers(span, lanes * per, len) => {
                    Touch::FullOverwrite
                }
                _ => Touch::Other,
            };
        }
    });
    t
}

/// A `Fill` at `i` is dead iff the first later step in the block that
/// touches its buffer fully overwrites it without reading it first.
/// (Untouched buffers keep their fill: a later block could read them.)
fn fill_is_dead(steps: &[OTp], i: usize, buf: u32, len: usize) -> bool {
    for step in &steps[i + 1..] {
        match touch(step, buf, len) {
            Touch::None => {}
            Touch::FullOverwrite => return true,
            Touch::Other => return false,
        }
    }
    false
}

/// One fusion sweep over a block's steps, in place.
fn fuse_block(steps: &mut Vec<OTp>, fused: &mut usize) {
    let mut out: Vec<OTp> = Vec::with_capacity(steps.len());
    for step in steps.drain(..) {
        if let Some(last) = out.last_mut() {
            if try_fuse(last, &step) {
                *fused += 1;
                continue;
            }
        }
        out.push(step);
    }
    *steps = out;
}

/// Composes a full-warp MMA's fragment shuffle into matrix-order
/// address vectors and classifies them — `None` for other steps and
/// when the warp is partial (some matrix slot unwritten), which keeps
/// the lane-order step in place. Slots are filled in the raw
/// interpreter's lane-major load order, so a hypothetical duplicate
/// slot resolves to the same last writer.
fn mma_dense(step: &OTp, old: &[u32], g: &mut Vec<u32>) -> Option<OTp> {
    use graphene_ir::atomic::fragments as frag;
    let (m16, a, b, c, aa, aper, ba, bper, ca, cper, lanes) = match *step {
        OTp::Mma16816 { a, b, c, aa, aper, ba, bper, ca, cper, lanes } => {
            (true, a, b, c, aa, aper, ba, bper, ca, cper, lanes)
        }
        OTp::Mma884 { a, b, c, aa, aper, ba, bper, ca, cper, lanes } => {
            (false, a, b, c, aa, aper, ba, bper, ca, cper, lanes)
        }
        _ => return None,
    };
    let (aper, bper, cper) = (aper as usize, bper as usize, cper as usize);
    let (m, n, k, an, bn, cn) = if m16 { (16, 8, 16, 8, 4, 4) } else { (8, 8, 4, 4, 4, 8) };
    // Sized for m16n8k16, the larger shape.
    let (mut av, mut bv, mut cv) = ([u32::MAX; 16 * 16], [u32::MAX; 16 * 8], [u32::MAX; 16 * 8]);
    let (av, bv, cv) = (&mut av[..m * k], &mut bv[..k * n], &mut cv[..m * n]);
    for li in 0..lanes as usize {
        for v in 0..an {
            let (mi, ki) = if m16 { frag::mma_16816_a(li, v) } else { frag::mma_884_a(li, v) };
            av[mi * k + ki] = aa.at(old, li * aper + v) as u32;
        }
        for v in 0..bn {
            let (ki, ni) = if m16 { frag::mma_16816_b(li, v) } else { frag::mma_884_b(li, v) };
            bv[ki * n + ni] = ba.at(old, li * bper + v) as u32;
        }
        for v in 0..cn {
            let (mi, ni) = if m16 { frag::mma_16816_c(li, v) } else { frag::mma_884_c(li, v) };
            cv[mi * n + ni] = ca.at(old, li * cper + v) as u32;
        }
    }
    if av.contains(&u32::MAX) || bv.contains(&u32::MAX) || cv.contains(&u32::MAX) {
        return None;
    }
    Some(OTp::MmaDense {
        m16,
        a,
        b,
        c,
        am: classify_flat(av, g),
        bm: classify_flat(bv, g),
        cm: classify_flat(cv, g),
    })
}

/// The ldmatrix load/shuffle/store is a fixed permutation: store
/// `(li, v)` takes matrix element `(p=v/2, c=v%2, row/col from trans)`,
/// which was loaded from source lane `p*8+row` element `col`. Composing
/// it turns the whole collective into one flat permuted copy the bulk
/// arms (and the classifier) can chew on. `None` for other steps and
/// for same-buffer steps, which keep the two-phase lane form: a fused
/// copy would interleave loads with stores.
fn ldmatrix_copy(step: &OTp, old: &[u32], g: &mut Vec<u32>) -> Option<OTp> {
    let OTp::LdMatrix { num, trans, src, dst, sa, sper, da, dper, lanes } = *step else {
        return None;
    };
    // A warp has at most 32 lanes and an ldmatrix at most 4 matrices.
    if src == dst || lanes > 32 || num > 4 {
        return None;
    }
    let n = lanes as usize * 2 * num as usize;
    let (mut sv, mut dv) = ([0u32; 32 * 8], [0u32; 32 * 8]);
    for li in 0..lanes as usize {
        for v in 0..2 * num as usize {
            let (p, cc) = (v / 2, v % 2);
            let (row, col) =
                if trans { (2 * (li % 4) + cc, li / 4) } else { (li / 4, 2 * (li % 4) + cc) };
            let i = li * 2 * num as usize + v;
            sv[i] = sa.at(old, (p * 8 + row) * sper as usize + col) as u32;
            dv[i] = da.at(old, li * dper as usize + v) as u32;
        }
    }
    Some(OTp::Copy {
        src,
        dst,
        sa: classify_flat(&sv[..n], g),
        da: classify_flat(&dv[..n], g),
        n: u32::try_from(n).expect("ldmatrix width fits u32"),
    })
}

/// Optimizes a trace: classify every gather span (composing full-warp
/// ldmatrix and MMA steps first), fuse adjacent chained steps, drop
/// dead fills. Spans that are already affine are kept, so optimizing an
/// optimized trace is harmless. Contiguous chunks of blocks are
/// optimized on parallel workers and joined in block order; blocks are
/// independent here, so the result is the sequential one.
///
/// The result replays bit-identically to the input trace: descriptors
/// reproduce the exact recorded addresses (classification verifies
/// every element), fusion preserves element order, and a dead fill is
/// only removed when the buffer is fully overwritten before any read.
#[must_use]
pub fn optimize_trace(trace: &OptTrace) -> OptTrace {
    optimize_trace_with(trace, ExecMode::Parallel)
}

/// [`optimize_trace`] with the worker count of `mode`.
pub(crate) fn optimize_trace_with(trace: &OptTrace, mode: ExecMode) -> OptTrace {
    let parts = run_chunks(trace.blocks.len(), mode, |blocks| optimize_blocks(trace, blocks));
    let part = TracePart::join(parts);
    let mut stats = trace.stats;
    stats.dead_fills += part.stats.dead_fills;
    stats.fused_steps += part.stats.fused_steps;
    OptTrace {
        steps: part.steps,
        gather: part.gather,
        blocks: part.blocks,
        buf_lens: trace.buf_lens.clone(),
        n_globals: trace.n_globals,
        params: trace.params.clone(),
        counters: trace.counters,
        stats,
    }
    .seal()
}

/// Optimizes the blocks `range` of `trace` into a part of their own.
fn optimize_blocks(trace: &OptTrace, range: Range<usize>) -> TracePart {
    let blocks = &trace.blocks[range];
    let raw_steps = blocks.last().map_or(0, |l| l.1 - blocks[0].0) as usize;
    let mut out = TracePart { steps: Vec::with_capacity(raw_steps), ..TracePart::default() };
    out.blocks.reserve(blocks.len());
    let old = &trace.gather;
    let mut block_steps: Vec<OTp> = Vec::new();
    for &(bs, be) in blocks {
        block_steps.clear();
        for step in &trace.steps[bs as usize..be as usize] {
            let g = &mut out.gather;
            let ot = match mma_dense(step, old, g).or_else(|| ldmatrix_copy(step, old, g)) {
                Some(ot) => ot,
                None => {
                    let mut ot = *step;
                    ot.spans_mut(|_, span, lanes, per, _| {
                        if let Span::Gather { start } = *span {
                            let run = &old[start as usize..start as usize + (lanes * per) as usize];
                            *span = classify(run, lanes as usize, per as usize, g);
                        }
                    });
                    ot
                }
            };
            block_steps.push(ot);
        }
        fuse_block(&mut block_steps, &mut out.stats.fused_steps);
        // Dead-fill elimination, then one more fusion sweep: removing a
        // fill can make its neighbours adjacent and chainable.
        let dead: Vec<usize> = block_steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match *s {
                OTp::Fill { buf }
                    if fill_is_dead(&block_steps, i, buf, trace.buf_lens[buf as usize]) =>
                {
                    Some(i)
                }
                _ => None,
            })
            .collect();
        if !dead.is_empty() {
            out.stats.dead_fills += dead.len();
            let mut keep = 0usize;
            let mut di = dead.iter().peekable();
            block_steps.retain(|_| {
                let drop = di.peek().is_some_and(|&&d| d == keep);
                if drop {
                    di.next();
                }
                keep += 1;
                !drop
            });
            fuse_block(&mut block_steps, &mut out.stats.fused_steps);
        }
        let start = u32::try_from(out.steps.len()).expect("optimized trace exceeds u32 steps");
        out.steps.extend_from_slice(&block_steps);
        let end = u32::try_from(out.steps.len()).expect("optimized trace exceeds u32 steps");
        out.blocks.push((start, end));
    }
    out
}

/// Records `plan` once and optimizes the trace in the same pass — the
/// cache-facing entry point ([`crate::trace::TraceCache`] keeps only
/// the optimized form resident).
///
/// # Errors
///
/// Any [`ExecError`] the recording run hits.
pub fn record_opt_trace(
    plan: &KernelPlan,
    bindings: &HashMap<String, i64>,
) -> Result<OptTrace, ExecError> {
    Ok(optimize_trace(&record_trace(plan, bindings)?))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::replay::{replay_opt, replay_opt_with};
    use crate::run::ExecMode;
    use graphene_ir::tensor::TensorId;
    use std::collections::HashMap;

    /// A gather span at arena offset `start`, as the recorder emits.
    fn gat(start: u32) -> Span {
        Span::Gather { start }
    }

    /// Operand addresses over all of `t`'s spans: what the recorder
    /// counts into `addrs_before`.
    pub(crate) fn span_addrs(t: &OptTrace) -> usize {
        let mut n = 0;
        for step in &t.steps {
            step.spans(|_, _, lanes, per, _| n += (lanes * per) as usize);
        }
        n
    }

    /// A raw two-buffer trace (global `out` of `len`, scratch of `len`)
    /// with one step list per block over the shared arena `addrs`.
    fn plant_blocks(blocks: Vec<Vec<OTp>>, addrs: Vec<u32>, len: usize) -> OptTrace {
        let mut steps = Vec::new();
        let mut ranges = Vec::new();
        for b in blocks {
            let start = steps.len() as u32;
            steps.extend(b);
            ranges.push((start, steps.len() as u32));
        }
        let mut t = OptTrace {
            steps,
            gather: addrs,
            blocks: ranges,
            buf_lens: vec![len, len],
            n_globals: 1,
            params: vec![(TensorId(0), "out".to_string(), len)],
            counters: Counters::default(),
            stats: OptStats::default(),
        };
        t.stats.addrs_before = span_addrs(&t);
        t.seal_raw()
    }

    /// [`plant_blocks`] as one block.
    fn plant(steps: Vec<OTp>, addrs: Vec<u32>, len: usize) -> OptTrace {
        plant_blocks(vec![steps], addrs, len)
    }

    fn copy(sa: u32, da: u32, n: u32) -> OTp {
        OTp::Copy { src: 0, dst: 1, sa: gat(sa), da: gat(da), n }
    }

    #[test]
    fn fully_affine_trace_drops_its_arena() {
        // scratch[i] = out[i] for i in 0..64 — contiguous both sides.
        let addrs: Vec<u32> = (0..64).chain(0..64).collect();
        let t = plant(vec![copy(0, 64, 64)], addrs, 64);
        let o = optimize_trace(&t);
        assert_eq!(o.gather.len(), 0, "affine slices must not reach the gather arena");
        assert!(matches!(
            o.steps[0],
            OTp::Copy {
                sa: Span::Affine { base: 0, stride: 1 },
                da: Span::Affine { base: 0, stride: 1 },
                ..
            }
        ));
        assert!((o.stats().coalesced_fraction() - 1.0).abs() < 1e-12);
        assert!(o.stats().bytes_saved_fraction() > 0.0, "descriptors must shrink the trace");
    }

    #[test]
    fn pure_gather_trace_keeps_the_old_path() {
        // A swizzle-like permutation on both sides: nothing affine.
        let perm: Vec<u32> = vec![0, 3, 1, 2, 7, 4, 6, 5];
        let mut addrs = perm.clone();
        addrs.extend(&perm);
        let t = plant(vec![copy(0, 8, 8)], addrs.clone(), 8);
        let o = optimize_trace(&t);
        assert_eq!(o.gather, addrs, "irregular slices must be preserved verbatim");
        assert!(matches!(
            o.steps[0],
            OTp::Copy { sa: Span::Gather { start: 0 }, da: Span::Gather { start: 8 }, .. }
        ));
        assert!(o.stats().coalesced_fraction() < 1e-12);
    }

    #[test]
    fn mixed_trace_classifies_per_operand() {
        // Contiguous source, permuted destination.
        let mut addrs: Vec<u32> = (0..8).collect();
        addrs.extend([0u32, 3, 1, 2, 7, 4, 6, 5]);
        let t = plant(vec![copy(0, 8, 8)], addrs, 8);
        let o = optimize_trace(&t);
        assert!(matches!(
            o.steps[0],
            OTp::Copy {
                sa: Span::Affine { base: 0, stride: 1 },
                da: Span::Gather { start: 0 },
                ..
            }
        ));
        assert_eq!(o.gather.len(), 8);
        assert!((o.stats().coalesced_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strided_and_lane_major_slices_classify() {
        // Stride-2 1D progression.
        assert_eq!(affine_1d(&[4, 6, 8, 10]), Some(Span::Affine { base: 4, stride: 2 }));
        // Lane-major 2D: 3 lanes of 2, lane stride 10, element stride 1.
        let a = [0, 1, 10, 11, 20, 21];
        assert_eq!(affine_1d(&a), None);
        assert_eq!(affine_2d(&a, 3, 2), Some(Span::Lanes { base: 0, lane: 10, stride: 1, per: 2 }));
        // Broken tail: not affine in either view.
        assert_eq!(affine_2d(&[0, 1, 10, 11, 20, 99], 3, 2), None);
    }

    #[test]
    fn adjacent_chained_copies_fuse() {
        let addrs: Vec<u32> = (0..4).chain(0..4).chain(4..8).chain(4..8).collect();
        let t = plant(vec![copy(0, 4, 4), copy(8, 12, 4)], addrs, 8);
        let o = optimize_trace(&t);
        assert_eq!(o.steps.len(), 1, "chained copies must fuse");
        assert!(matches!(o.steps[0], OTp::Copy { n: 8, .. }));
        assert_eq!(o.stats().fused_steps, 1);
    }

    #[test]
    fn dead_fill_is_removed_when_fully_overwritten() {
        // Fill scratch; then init fully overwrites it before any read.
        let addrs: Vec<u32> = (0..8).collect();
        let t = plant(
            vec![OTp::Fill { buf: 1 }, OTp::Init { value: 2.5, dst: 1, da: gat(0), n: 8 }],
            addrs,
            8,
        );
        let o = optimize_trace(&t);
        assert_eq!(o.stats().dead_fills, 1);
        assert!(matches!(o.steps[0], OTp::Init { .. }));
    }

    #[test]
    fn live_fill_is_kept_when_read_first() {
        // Fill scratch; copy reads scratch into out: fill is live.
        let addrs: Vec<u32> = (0..8).chain(0..8).collect();
        let t = plant(
            vec![OTp::Fill { buf: 1 }, OTp::Copy { src: 1, dst: 0, sa: gat(0), da: gat(8), n: 8 }],
            addrs,
            8,
        );
        let o = optimize_trace(&t);
        assert_eq!(o.stats().dead_fills, 0);
        assert_eq!(o.steps.len(), 2);
    }

    #[test]
    fn planted_trace_replays_identically_optimized() {
        // out[i] = out[perm[i]] * 2 staged through scratch, with a
        // gather on one side — exercises both span paths end to end.
        let perm: Vec<u32> = vec![3, 1, 0, 2, 6, 7, 5, 4];
        let mut addrs: Vec<u32> = perm.clone();
        addrs.extend(0..8u32); // da of copy: contiguous scratch
        addrs.extend(0..8u32); // sa of binary: scratch
        addrs.extend(0..8u32); // ba of binary: scratch
        addrs.extend(0..8u32); // da of binary: out
        let t = plant(
            vec![
                copy(0, 8, 8),
                OTp::Binary {
                    op: graphene_ir::ops::BinaryOp::Add,
                    a: 1,
                    b: 1,
                    dst: 0,
                    aa: gat(16),
                    ba: gat(24),
                    da: gat(32),
                    n: 8,
                },
            ],
            addrs,
            8,
        );
        let o = optimize_trace(&t);
        let inputs: HashMap<TensorId, Vec<f32>> =
            [(TensorId(0), (0..8).map(|i| i as f32 + 0.5).collect())].into();
        let opt = replay_opt(&o, &inputs).expect("opt replay");
        // Hand-computed: out[i] = 2 * (perm[i] + 0.5).
        let want: Vec<f32> = perm.iter().map(|&p| 2.0 * (p as f32 + 0.5)).collect();
        let got = &opt.globals[&TensorId(0)];
        assert_eq!(want, [7.0, 3.0, 1.0, 5.0, 13.0, 15.0, 11.0, 9.0]);
        assert_eq!(got.len(), want.len());
        for (w, g) in want.iter().zip(got) {
            assert_eq!(w.to_bits(), g.to_bits(), "optimized replay must be bit-exact");
        }
        assert_eq!(opt.counters, t.counters);
    }

    /// Blocks owned by different workers write the same global address,
    /// and a later block writes back the address's starting value: the
    /// merge must keep the last write in block order, not diff workers
    /// against the starting buffers.
    #[test]
    fn workers_merge_overlapping_global_writes_in_block_order() {
        let init = |da: u32, n: u32, value: f32| OTp::Init { value, dst: 0, da: gat(da), n };
        // out starts [1, 2, 3, 4]. Block 0 writes out[0..2], block 2
        // out[1..3], block 3 restores out[0], block 4 restores out[2].
        let t = plant_blocks(
            vec![
                vec![init(0, 2, 7.0)],
                vec![],
                vec![init(2, 2, 9.0)],
                vec![init(4, 1, 1.0)],
                vec![init(5, 1, 3.0)],
                vec![init(6, 1, 5.0)],
            ],
            vec![0, 1, 1, 2, 0, 2, 3],
            4,
        );
        let inputs: HashMap<TensorId, Vec<f32>> = [(TensorId(0), vec![1.0, 2.0, 3.0, 4.0])].into();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for trace in [&t, &optimize_trace(&t)] {
            for mode in [ExecMode::Sequential, ExecMode::Workers(2), ExecMode::Workers(3)] {
                let out = replay_opt_with(trace, &inputs, mode).expect("replay");
                assert_eq!(
                    bits(&out.globals[&TensorId(0)]),
                    bits(&[1.0, 9.0, 3.0, 5.0]),
                    "{mode:?}"
                );
            }
        }
    }
}
