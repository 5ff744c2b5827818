//! Reusable warp-level MMA building blocks.
//!
//! The inner machinery of the optimized GEMM — fragment loads from
//! shared memory plus tensor-core MMAs, and the epilogue/store of the
//! fp32 accumulators — factored out so the fused kernels (MLP, LSTM,
//! FMHA; paper Figures 11/12/14) can run *block-level GEMMs between
//! shared-memory tensors* inside a single kernel. This is precisely what
//! makes Graphene's fusions expressible: the same decomposable specs
//! compose whether their operands live in global or shared memory.
//!
//! [`BlockGemm`] is the one skeleton every tensor-core builder (the GEMM
//! family, fused MLP and LSTM) runs on: it owns the thread tile, the
//! accumulator and the fragment registers, and picks the Ampere or
//! Volta emitters, so a builder states only its grid, operands, staging
//! and epilogue.

use crate::common::{a_frags_type, acc_root_type, b_frags_type, reg_scalar, reg_vec};
use graphene_ir::atomic::quad_pair_layout;
use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::SpecKind;
use graphene_ir::tensor::{Elem, TensorId, TensorType};
use graphene_ir::threads::ThreadId;
use graphene_ir::{Arch, BinaryOp, ScalarType, UnaryOp};
use graphene_layout::{it, Layout, Swizzle};
use graphene_sym::IntExpr;

/// Geometry of a block-level `bm × bn × k_cols` MMA over shared tiles.
#[derive(Debug, Clone, Copy)]
pub struct MmaGeom {
    /// Block tile rows (As has `bm` rows).
    pub bm: i64,
    /// Block tile columns (Bs has `bn` columns).
    pub bn: i64,
    /// Warp tile rows.
    pub wm: i64,
    /// Warp tile columns.
    pub wn: i64,
    /// K extent held in shared memory (As is `[bm, k_cols]`, Bs is
    /// `[k_cols, bn]`).
    pub k_cols: i64,
}

impl MmaGeom {
    /// Warps per block for this geometry.
    pub fn warps(&self) -> i64 {
        (self.bm / self.wm) * (self.bn / self.wn)
    }

    /// Threads per block.
    pub fn threads(&self) -> i64 {
        self.warps() * 32
    }

    /// Checks the tiling rules a [`BlockGemm`] over this geometry needs
    /// on `arch`: positive extents, whole warp tiles that fit the tensor
    /// instruction, 1–8 warps, and A (`bm × k_cols`) and B
    /// (`k_cols × bn`) tiles that stage in 8-wide vectors over the
    /// block's threads.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule as a human-readable message.
    pub fn validate(&self, arch: Arch) -> Result<(), String> {
        let MmaGeom { bm, bn, wm, wn, k_cols } = *self;
        if [bm, bn, wm, wn, k_cols].iter().any(|&v| v <= 0) {
            return Err(format!(
                "tile extents must be positive: {bm}x{bn}x{k_cols}, warp {wm}x{wn}"
            ));
        }
        if bm % wm != 0 || bn % wn != 0 {
            return Err(format!("warp tiling: {bm}x{bn} does not tile by {wm}x{wn}"));
        }
        let (m, n, k, instr) = match arch {
            Arch::Sm86 => (16, 8, 16, "mma.m16n8k16"),
            Arch::Sm70 => (16, 16, 4, "quad-pair mma.m8n8k4"),
        };
        if wm % m != 0 || wn % n != 0 || k_cols % k != 0 {
            return Err(format!(
                "warp tile {wm}x{wn}, K {k_cols} vs {instr} (wm%{m}, wn%{n}, K%{k})"
            ));
        }
        let warps = self.warps();
        if !(1..=8).contains(&warps) {
            return Err(format!("{warps} warps per block (1..=8 supported)"));
        }
        let vectors = self.threads() * 8;
        if (bm * k_cols) % vectors != 0 || (k_cols * bn) % vectors != 0 {
            return Err(format!(
                "staging: {bm}x{k_cols} / {k_cols}x{bn} tiles vs {} threads x8 vectors",
                self.threads()
            ));
        }
        Ok(())
    }
}

/// Per-warp index expressions shared by the emitters.
pub struct WarpCtx {
    /// Lane within the warp.
    pub lane: IntExpr,
    /// Warp-row id.
    pub wm_id: IntExpr,
    /// Warp-column id.
    pub wn_id: IntExpr,
}

impl WarpCtx {
    /// Computes the warp decomposition of the block's threads.
    pub fn new(kb: &KernelBuilder, block: ThreadId, geom: &MmaGeom) -> Self {
        let tid = kb.module()[block].hw_var();
        let lane = tid.clone() % 32;
        let warp_id = tid / 32;
        let wn_cnt = geom.bn / geom.wn;
        WarpCtx { lane, wm_id: warp_id.clone() / wn_cnt, wn_id: warp_id % wn_cnt }
    }
}

/// The block-level GEMM skeleton every tensor-core builder shares: the
/// thread tile the MMA instruction runs on (a warp on Ampere, a
/// quad-pair on Volta), the warp decomposition, the fp32 accumulator and
/// the fragment registers. [`Self::mma`] and [`Self::store`] dispatch to
/// the architecture's emitters, so a builder states only its grid,
/// operands, staging and epilogue.
pub struct BlockGemm {
    arch: Arch,
    grid: ThreadId,
    block: ThreadId,
    /// The MMA's thread tile: a warp (Ampere) or a quad-pair (Volta).
    tile: ThreadId,
    /// The warp decomposition of the block's threads.
    pub(crate) ctx: WarpCtx,
    /// The accumulator registers.
    pub(crate) acc: TensorId,
    a_frags: TensorId,
    b_frags: TensorId,
    geom: MmaGeom,
}

impl BlockGemm {
    /// Allocates the thread tile, the accumulator and the fragment
    /// registers of a block GEMM over the kernel's grid and block; the
    /// accumulator is left for [`Self::zero_acc`].
    pub fn new(kb: &mut KernelBuilder, arch: Arch, geom: &MmaGeom) -> Self {
        Self::alloc(kb, arch, geom, false)
    }

    /// [`Self::new`], zeroing the accumulator right after allocating it
    /// (before the fragment registers).
    pub fn zeroed(kb: &mut KernelBuilder, arch: Arch, geom: &MmaGeom) -> Self {
        Self::alloc(kb, arch, geom, true)
    }

    fn alloc(kb: &mut KernelBuilder, arch: Arch, geom: &MmaGeom, zero: bool) -> Self {
        let (grid, block, mi_cnt) = (kb.grid(), kb.block(), geom.wm / 16);
        let (tile, acc_ty, a_frags, b_frags) = match arch {
            Arch::Sm86 => (
                kb.thread_tile(block, &Layout::contiguous(32)).expect("warp tiling"),
                acc_root_type(mi_cnt, geom.wn / 8),
                ("afrag", a_frags_type(mi_cnt)),
                ("bfrag", b_frags_type(geom.wn / 8)),
            ),
            Arch::Sm70 => (
                kb.thread_tile(block, &quad_pair_layout()).expect("quad-pair tiling"),
                volta_acc_ty(mi_cnt, geom.wn / 16),
                ("areg", reg_vec(4 * mi_cnt, ScalarType::F16)),
                ("breg", reg_vec(4 * (geom.wn / 16), ScalarType::F16)),
            ),
        };
        let ctx = WarpCtx::new(kb, block, geom);
        let acc = kb.alloc_reg("acc", acc_ty);
        if zero {
            emit_zero(kb, grid, block, acc);
        }
        let a_frags = kb.alloc_reg(a_frags.0, a_frags.1);
        let b_frags = kb.alloc_reg(b_frags.0, b_frags.1);
        BlockGemm { arch, grid, block, tile, ctx, acc, a_frags, b_frags, geom: *geom }
    }

    /// Zeroes the accumulator.
    pub fn zero_acc(&self, kb: &mut KernelBuilder) {
        emit_zero(kb, self.grid, self.block, self.acc);
    }

    /// `acc += a_s × b_s` over the geometry's `k_cols`, with the shared
    /// A tile laid out by [`crate::common::a_operand_type`].
    pub fn mma(&self, kb: &mut KernelBuilder, a_s: TensorId, b_s: TensorId) {
        let (grid, ctx, acc, geom) = (self.grid, &self.ctx, self.acc, &self.geom);
        let (af, bf) = (self.a_frags, self.b_frags);
        match self.arch {
            Arch::Sm86 => {
                emit_warp_mma_ampere(kb, grid, self.tile, ctx, a_s, b_s, acc, af, bf, geom)
            }
            Arch::Sm70 => emit_warp_mma_volta(kb, self, a_s, b_s),
        }
    }

    /// Applies `ops` to the accumulator and stores it to `target`.
    pub fn store(&self, kb: &mut KernelBuilder, ops: &EpilogueOps, target: &StoreTarget) {
        let (grid, block, ctx, acc, geom) =
            (self.grid, self.block, &self.ctx, self.acc, &self.geom);
        match self.arch {
            Arch::Sm86 => emit_epilogue_store_ampere(kb, grid, block, ctx, acc, geom, ops, target),
            Arch::Sm70 => emit_epilogue_store_volta(kb, self, ops, target),
        }
    }
}

fn emit_zero(kb: &mut KernelBuilder, grid: ThreadId, block: ThreadId, acc: TensorId) {
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: 0.0 }, vec![grid, ts], vec![], vec![acc]);
}

/// Loads the `width` bias values starting at column `col` from
/// `bias_vec` (the bias tiled into `width`-vectors) into a fresh fp32
/// register `name`.
pub(crate) fn emit_bias_load(
    kb: &mut KernelBuilder,
    (grid, block): (ThreadId, ThreadId),
    bias_vec: TensorId,
    name: String,
    width: i64,
    col: IntExpr,
) -> TensorId {
    let r = kb.alloc_reg(name, reg_vec(width, ScalarType::F32));
    let bsrc = kb.index(bias_vec, &[col / width]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![bsrc], vec![r]);
    r
}

/// Adds the loaded `bias` to the accumulator slice `frag`, then applies
/// the `activation`.
pub(crate) fn emit_pointwise(
    kb: &mut KernelBuilder,
    (grid, block): (ThreadId, ThreadId),
    frag: TensorId,
    bias: Option<TensorId>,
    activation: Option<UnaryOp>,
) {
    let add = bias.map(|br| (SpecKind::BinaryPointwise(BinaryOp::Add), vec![frag, br]));
    let act = activation.map(|a| (SpecKind::UnaryPointwise(a), vec![frag]));
    for (kind, ins) in add.into_iter().chain(act) {
        let ts = kb.thread_scalar(block);
        kb.spec(kind, vec![grid, ts], ins, vec![frag]);
    }
}

/// Emits the Ampere fragment-load + `mma.m16n8k16` sequence computing
/// `acc += As × Bs` over the full `k_cols` of the shared tiles.
///
/// `a_frags`/`b_frags` are reusable per-thread fragment registers
/// (allocated by the caller with [`crate::common::a_frags_type`] /
/// [`crate::common::b_frags_type`] for `wm/16` and `wn/8` fragments).
#[allow(clippy::too_many_arguments)]
pub fn emit_warp_mma_ampere(
    kb: &mut KernelBuilder,
    grid: ThreadId,
    warp: ThreadId,
    ctx: &WarpCtx,
    a_s: TensorId,
    b_s: TensorId,
    acc: TensorId,
    a_frags: TensorId,
    b_frags: TensorId,
    geom: &MmaGeom,
) {
    let (mi_cnt, ni_cnt, kf_cnt) = (geom.wm / 16, geom.wn / 8, geom.k_cols / 16);
    let as_vec8 = kb.tile_c(a_s, &[Some(1), Some(8)]).expect("As rows");
    let bs_vec8 = kb.tile_c(b_s, &[Some(1), Some(8)]).expect("Bs rows");
    let lane = &ctx.lane;

    for kf in 0..kf_cnt {
        for mi in 0..mi_cnt {
            // ldmatrix.x4: 2x2 logical groups arranged column-major over
            // the 16x16 A tile so register pairs line up with the mma
            // A fragment.
            let row = ctx.wm_id.clone() * geom.wm
                + mi * 16
                + ((lane.clone() / 8) % 2) * 8
                + lane.clone() % 8;
            let colgrp = IntExpr::constant(kf * 2) + lane.clone() / 16;
            let src = kb.index(as_vec8, &[row, colgrp]);
            let dst = kb.index(a_frags, &[IntExpr::constant(mi)]);
            kb.spec(SpecKind::Move, vec![grid, warp], vec![src], vec![dst]);
        }
        // B fragments: ldmatrix.x4.trans loads two adjacent 8-column
        // tiles per instruction (all 32 lane addresses useful); an odd
        // trailing tile falls back to ldmatrix.x2.trans.
        let mut ni = 0;
        while ni < ni_cnt {
            if ni + 1 < ni_cnt {
                let row =
                    IntExpr::constant(kf * 16) + ((lane.clone() / 8) % 2) * 8 + lane.clone() % 8;
                let colgrp = ctx.wn_id.clone() * (geom.wn / 8) + ni + lane.clone() / 16;
                let src = kb.index(bs_vec8, &[row, colgrp]);
                let dst = kb.view_as(
                    b_frags,
                    crate::common::frag_b_pair_type(),
                    IntExpr::constant(ni * 4),
                );
                kb.spec(SpecKind::Move, vec![grid, warp], vec![src], vec![dst]);
                ni += 2;
            } else {
                let row = IntExpr::constant(kf * 16) + lane.clone() % 16;
                let colgrp = ctx.wn_id.clone() * (geom.wn / 8) + ni;
                let src = kb.index(bs_vec8, &[row, colgrp]);
                let dst = kb.index(b_frags, &[IntExpr::constant(ni)]);
                kb.spec(SpecKind::Move, vec![grid, warp], vec![src], vec![dst]);
                ni += 1;
            }
        }
        for mi in 0..mi_cnt {
            for ni in 0..ni_cnt {
                let af = kb.index(a_frags, &[IntExpr::constant(mi)]);
                let bf = kb.index(b_frags, &[IntExpr::constant(ni)]);
                let cf = kb.index(acc, &[IntExpr::constant(mi), IntExpr::constant(ni)]);
                kb.spec(SpecKind::MatMul, vec![grid, warp], vec![af, bf], vec![cf]);
            }
        }
    }
}

/// The ablation variant of [`emit_warp_mma_ampere`]: fragment loads use
/// per-thread scalar `ld.shared` instructions instead of the collective
/// `ldmatrix` — the "equivalent but simpler data movements" of the
/// paper's §2, which reports GEMM slowdowns of up to 17% from this
/// substitution. Used by the `ldmatrix_ablation` bench.
pub fn emit_warp_mma_ampere_scalar_loads(
    kb: &mut KernelBuilder,
    sk: &BlockGemm,
    a_s: TensorId,
    b_s: TensorId,
) {
    use graphene_ir::atomic::fragments as frag;
    assert_eq!(sk.arch, Arch::Sm86, "scalar fragment loads feed mma.m16n8k16");
    let (grid, block, warp, ctx, geom) = (sk.grid, sk.block, sk.tile, &sk.ctx, &sk.geom);
    let (acc, a_frags, b_frags) = (sk.acc, sk.a_frags, sk.b_frags);
    let (mi_cnt, ni_cnt, kf_cnt) = (geom.wm / 16, geom.wn / 8, geom.k_cols / 16);
    let lane = &ctx.lane;

    for kf in 0..kf_cnt {
        for mi in 0..mi_cnt {
            // Eight scalar loads per thread, one per fragment value, at
            // the exact positions the mma A fragment prescribes.
            for v in 0..8usize {
                // Fragment position for a generic lane: express row/col
                // as lane expressions mirroring fragments::mma_16816_a.
                let (r0, c0) = frag::mma_16816_a(0, v);
                let row = ctx.wm_id.clone() * geom.wm
                    + mi * 16
                    + lane.clone() / 4
                    + IntExpr::constant(r0 as i64);
                let col = IntExpr::constant(kf * 16)
                    + (lane.clone() % 4) * 2
                    + IntExpr::constant(c0 as i64);
                let src = kb.index(a_s, &[row, col]);
                let dst = kb.view_as(
                    a_frags,
                    reg_scalar(ScalarType::F16),
                    IntExpr::constant(mi * 8 + v as i64),
                );
                let ts = kb.thread_scalar(block);
                kb.spec(SpecKind::Move, vec![grid, ts], vec![src], vec![dst]);
            }
        }
        for ni in 0..ni_cnt {
            for v in 0..4usize {
                let (k0, _n0) = frag::mma_16816_b(0, v);
                let row = IntExpr::constant(kf * 16)
                    + (lane.clone() % 4) * 2
                    + IntExpr::constant(k0 as i64);
                let col = ctx.wn_id.clone() * geom.wn + ni * 8 + lane.clone() / 4;
                let src = kb.index(b_s, &[row, col]);
                let dst = kb.view_as(
                    b_frags,
                    reg_scalar(ScalarType::F16),
                    IntExpr::constant(ni * 4 + v as i64),
                );
                let ts = kb.thread_scalar(block);
                kb.spec(SpecKind::Move, vec![grid, ts], vec![src], vec![dst]);
            }
        }
        for mi in 0..mi_cnt {
            for ni in 0..ni_cnt {
                let af = kb.index(a_frags, &[IntExpr::constant(mi)]);
                let bf = kb.index(b_frags, &[IntExpr::constant(ni)]);
                let cf = kb.index(acc, &[IntExpr::constant(mi), IntExpr::constant(ni)]);
                kb.spec(SpecKind::MatMul, vec![grid, warp], vec![af, bf], vec![cf]);
            }
        }
    }
}

/// Where the epilogue writes the accumulator.
#[derive(Debug, Clone)]
pub enum StoreTarget {
    /// Into a global fp16 tensor at `(row0 + r, col0 + c)`.
    Global {
        /// The destination tensor.
        tensor: TensorId,
        /// Row offset of the block tile.
        row0: IntExpr,
        /// Column offset of the block tile.
        col0: IntExpr,
    },
    /// Into a `[bm, bn]` fp16 shared tensor (fused kernels keep
    /// intermediate activations on-chip — the heart of Figures 11/12/14).
    Shared {
        /// The destination tensor.
        tensor: TensorId,
    },
}

/// Optional pointwise epilogue applied to the accumulator before the
/// store.
#[derive(Debug, Clone)]
pub struct EpilogueOps {
    /// Row-broadcast bias (a 1-D fp16 global tensor) with a column
    /// offset: element `bias[bias_col0 + c]` is added to column `c`.
    pub bias: Option<(TensorId, IntExpr)>,
    /// Activation applied after the bias.
    pub activation: Option<UnaryOp>,
}

impl EpilogueOps {
    /// No epilogue.
    pub fn none() -> Self {
        EpilogueOps { bias: None, activation: None }
    }
}

/// Emits the Ampere epilogue + store of a `wm/16 × wn/8` accumulator:
/// per fragment row-half, a `[2]`-wide fp32 pair is (optionally)
/// biased and activated, then stored converted to fp16.
#[allow(clippy::too_many_arguments)]
pub fn emit_epilogue_store_ampere(
    kb: &mut KernelBuilder,
    grid: ThreadId,
    block: ThreadId,
    ctx: &WarpCtx,
    acc: TensorId,
    geom: &MmaGeom,
    ops: &EpilogueOps,
    target: &StoreTarget,
) {
    let (mi_cnt, ni_cnt) = (geom.wm / 16, geom.wn / 8);
    let lane = &ctx.lane;
    let dst_vec2 = match target {
        StoreTarget::Global { tensor, .. } | StoreTarget::Shared { tensor } => {
            kb.tile_c(*tensor, &[Some(1), Some(2)]).expect("dst pairs")
        }
    };
    let bias_vec2 = ops.bias.as_ref().map(|(b, _)| kb.tile_c(*b, &[Some(2)]).expect("bias pairs"));

    for ni in 0..ni_cnt {
        for vp in 0..2i64 {
            let col_in_block = ctx.wn_id.clone() * geom.wn + ni * 8 + (lane.clone() % 4) * 2;
            let bias_reg = ops.bias.as_ref().map(|(_, bias_col0)| {
                let col = bias_col0.clone() + col_in_block.clone();
                emit_bias_load(
                    kb,
                    (grid, block),
                    bias_vec2.unwrap(),
                    format!("biasr_{ni}_{vp}"),
                    2,
                    col,
                )
            });
            for mi in 0..mi_cnt {
                let pair = kb.view_as(
                    acc,
                    reg_vec(2, ScalarType::F32),
                    IntExpr::constant(mi * ni_cnt * 4 + ni * 4 + vp * 2),
                );
                emit_pointwise(kb, (grid, block), pair, bias_reg, ops.activation);
                let row_in_block =
                    ctx.wm_id.clone() * geom.wm + mi * 16 + lane.clone() / 4 + vp * 8;
                let (row, col) = match target {
                    StoreTarget::Global { row0, col0, .. } => {
                        (row0.clone() + row_in_block, col0.clone() + col_in_block.clone())
                    }
                    StoreTarget::Shared { .. } => (row_in_block, col_in_block.clone()),
                };
                let dst = kb.index(dst_vec2, &[row, col / 2]);
                let ts = kb.thread_scalar(block);
                kb.spec(SpecKind::Move, vec![grid, ts], vec![pair], vec![dst]);
            }
        }
    }
}

/// Emits the Volta fragment-load + quad-pair `mma.m8n8k4` sequence
/// computing `acc += Asᵀ × Bs` over `k_cols` (paper Figure 6 quad-pairs).
///
/// `a_s` holds the A tile **transposed** (`[k_cols, bm]`) so each
/// thread's 4-row A fragment is one vectorised shared-memory load —
/// the standard Volta-era layout trick. Fragments are loaded once per
/// `(mi, kf)` / `(ni, kf)` into the skeleton's `4 * wm/16` and
/// `4 * wn/16` fp16 fragment registers and reused across the warp tile.
fn emit_warp_mma_volta(kb: &mut KernelBuilder, sk: &BlockGemm, a_s: TensorId, b_s: TensorId) {
    let (grid, block, qp, ctx, geom) = (sk.grid, sk.block, sk.tile, &sk.ctx, &sk.geom);
    let (acc, a_regs, b_regs) = (sk.acc, sk.a_frags, sk.b_frags);
    let (mi_cnt, ni_cnt, kf_cnt) = (geom.wm / 16, geom.wn / 16, geom.k_cols / 4);
    let lane = &ctx.lane;
    let qp_id = (lane.clone() % 16) / 4;
    let (qpm, qpn) = (qp_id.clone() % 2, qp_id / 2);
    let as_vec4 = kb.tile_c(a_s, &[Some(1), Some(4)]).expect("As^T quads");
    let bs_vec4 = kb.tile_c(b_s, &[Some(1), Some(4)]).expect("Bs quads");

    for kf in 0..kf_cnt {
        // A fragments: one [4]-wide load per (mi, kf), reused over ni.
        for mi in 0..mi_cnt {
            let m_base = ctx.wm_id.clone() * geom.wm + mi * 16 + qpm.clone() * 8;
            let colk = IntExpr::constant(kf * 4) + lane.clone() % 4;
            let mcol4 = (m_base.clone() + (lane.clone() / 16) * 4) / 4;
            let src = kb.index(as_vec4, &[colk, mcol4]);
            let dst = kb.view_as(a_regs, reg_vec(4, ScalarType::F16), IntExpr::constant(mi * 4));
            let ts = kb.thread_scalar(block);
            kb.spec(SpecKind::Move, vec![grid, ts], vec![src], vec![dst]);
        }
        // B fragments: one [4]-wide load per (ni, kf), reused over mi.
        for ni in 0..ni_cnt {
            let n_base = ctx.wn_id.clone() * geom.wn + ni * 16 + qpn.clone() * 8;
            let brow = IntExpr::constant(kf * 4) + lane.clone() % 4;
            let bcol4 = (n_base.clone() + (lane.clone() / 16) * 4) / 4;
            let src = kb.index(bs_vec4, &[brow, bcol4]);
            let dst = kb.view_as(b_regs, reg_vec(4, ScalarType::F16), IntExpr::constant(ni * 4));
            let ts = kb.thread_scalar(block);
            kb.spec(SpecKind::Move, vec![grid, ts], vec![src], vec![dst]);
        }
        for mi in 0..mi_cnt {
            for ni in 0..ni_cnt {
                let a_op = kb.view_as(a_regs, volta_a_ty(), IntExpr::constant(mi * 4));
                let b_op = kb.view_as(b_regs, volta_b_ty(), IntExpr::constant(ni * 4));
                let cf = kb.index(acc, &[IntExpr::constant(mi), IntExpr::constant(ni)]);
                kb.spec(SpecKind::MatMul, vec![grid, qp], vec![a_op, b_op], vec![cf]);
            }
        }
    }
}

/// The `[4,1].fp16` A-operand view of `mma.m8n8k4` (Table 2).
pub fn volta_a_ty() -> TensorType {
    TensorType {
        layout: Layout::new(it![4, 1], it![1, 0]),
        elem: Elem::Scalar(ScalarType::F16),
        swizzle: Swizzle::identity(),
    }
}

/// The `[1,4].fp16` B-operand view of `mma.m8n8k4` (Table 2).
pub fn volta_b_ty() -> TensorType {
    TensorType {
        layout: Layout::new(it![1, 4], it![0, 1]),
        elem: Elem::Scalar(ScalarType::F16),
        swizzle: Swizzle::identity(),
    }
}

/// The per-thread `[2,4].fp32` C fragment of `mma.m8n8k4` (Table 2).
pub fn volta_frag_c_ty() -> TensorType {
    TensorType::row_major(&[2, 4], ScalarType::F32)
}

/// An accumulator root of `mi × ni` Volta C fragments (8 fp32 each).
pub fn volta_acc_ty(mi: i64, ni: i64) -> TensorType {
    use graphene_layout::IntTuple;
    TensorType {
        layout: Layout::new(
            IntTuple::Tuple(vec![IntTuple::Int(mi), IntTuple::Int(ni)]),
            IntTuple::Tuple(vec![IntTuple::Int(ni * 8), IntTuple::Int(8)]),
        ),
        elem: Elem::Tile(Box::new(volta_frag_c_ty())),
        swizzle: Swizzle::identity(),
    }
}

/// Emits the Volta epilogue + store (each thread owns 2 rows × 4
/// contiguous columns per fragment).
fn emit_epilogue_store_volta(
    kb: &mut KernelBuilder,
    sk: &BlockGemm,
    ops: &EpilogueOps,
    target: &StoreTarget,
) {
    let (grid, block, ctx, acc, geom) = (sk.grid, sk.block, &sk.ctx, sk.acc, &sk.geom);
    let (mi_cnt, ni_cnt) = (geom.wm / 16, geom.wn / 16);
    let lane = &ctx.lane;
    let qp_id = (lane.clone() % 16) / 4;
    let (qpm, qpn) = (qp_id.clone() % 2, qp_id / 2);
    // Global stores are 4-wide row segments; shared stores write the
    // tile *transposed* ([bn, bm], scalar stores) so the next fused GEMM
    // pass can consume it as a Volta A operand.
    let dst_vec4 = match target {
        StoreTarget::Global { tensor, .. } => {
            Some(kb.tile_c(*tensor, &[Some(1), Some(4)]).expect("dst quads"))
        }
        StoreTarget::Shared { .. } => None,
    };
    let bias_vec4 = ops.bias.as_ref().map(|(b, _)| kb.tile_c(*b, &[Some(4)]).expect("bias quads"));

    for mi in 0..mi_cnt {
        for ni in 0..ni_cnt {
            let m_base = ctx.wm_id.clone() * geom.wm + mi * 16 + qpm.clone() * 8;
            let n_base = ctx.wn_id.clone() * geom.wn + ni * 16 + qpn.clone() * 8;
            let col_base = n_base.clone() + (lane.clone() / 16) * 4;
            let bias_reg = ops.bias.as_ref().map(|(_, bias_col0)| {
                let col = bias_col0.clone() + col_base.clone();
                emit_bias_load(
                    kb,
                    (grid, block),
                    bias_vec4.unwrap(),
                    format!("biasr_{mi}_{ni}"),
                    4,
                    col,
                )
            });
            for h in 0..2i64 {
                let quad = kb.view_as(
                    acc,
                    reg_vec(4, ScalarType::F32),
                    IntExpr::constant(mi * ni_cnt * 8 + ni * 8 + h * 4),
                );
                emit_pointwise(kb, (grid, block), quad, bias_reg, ops.activation);
                let row_in_block = m_base.clone() + (lane.clone() % 4) * 2 + h;
                match target {
                    StoreTarget::Global { tensor: _, row0, col0 } => {
                        let row = row0.clone() + row_in_block;
                        let col = col0.clone() + col_base.clone();
                        let dst = kb.index(dst_vec4.unwrap(), &[row, col / 4]);
                        let ts = kb.thread_scalar(block);
                        kb.spec(SpecKind::Move, vec![grid, ts], vec![quad], vec![dst]);
                    }
                    StoreTarget::Shared { tensor } => {
                        for j in 0..4i64 {
                            let slot =
                                kb.view_as(quad, reg_scalar(ScalarType::F32), IntExpr::constant(j));
                            let dst =
                                kb.index(*tensor, &[col_base.clone() + j, row_in_block.clone()]);
                            let ts = kb.thread_scalar(block);
                            kb.spec(SpecKind::Move, vec![grid, ts], vec![slot], vec![dst]);
                        }
                    }
                }
            }
        }
    }
}
