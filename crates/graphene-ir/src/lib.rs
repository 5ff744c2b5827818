//! # graphene-ir
//!
//! A from-scratch Rust implementation of the **Graphene** intermediate
//! representation for optimized GPU tensor computations
//! (Hagedorn et al., ASPLOS '23).
//!
//! Graphene represents both multi-dimensional **data** and the GPU's
//! **threads** as first-class, hierarchically decomposable tensors, and
//! expresses optimized kernels as mappings between data tiles and thread
//! tiles:
//!
//! - [`tensor`]: data tensors `name : [dims:strides] . elemtype . memory`
//!   with recursive shapes (hierarchical dimensions, §3.2) and recursive
//!   element types (tiles, §3.3);
//! - [`threads`]: *logical thread groups* (§4) — warps tiled and reshaped
//!   like data, including Volta's non-contiguous quad-pairs;
//! - [`spec`] / [`body`]: *specifications* (§5) for collective
//!   computations (`Move`, `MatMul`, pointwise, `Reduction`, `Shfl`,
//!   `Init`, `Allocate`, generic fused specs) and their decompositions;
//! - [`atomic`]: the instruction-backed *atomic specs* of Table 2 with
//!   per-architecture registries (Volta SM70, Ampere SM86), matching, and
//!   the register-fragment maps of the tensor instructions;
//! - [`module`]: kernels (the outermost spec) and declaration arenas;
//! - [`builder`]: an ergonomic Rust API for writing decompositions (the
//!   paper generates Graphene IR from a Python API; ours is Rust).

#![warn(missing_docs)]

pub mod atomic;
pub mod body;
pub mod builder;
pub mod diag;
pub mod dtype;
pub mod hash;
pub mod memory;
pub mod module;
pub mod ops;
pub mod printer;
pub mod spec;
pub mod tensor;
pub mod threads;
pub mod transform;
pub mod validate;

pub use atomic::{Arch, AtomicSemantics, AtomicSpec};
pub use body::{Body, Stmt, SyncScope};
pub use diag::{Diagnostic, Severity};
pub use dtype::ScalarType;
pub use hash::Fnv1a;
pub use memory::MemSpace;
pub use module::{Kernel, Module};
pub use ops::{BinaryOp, ReduceOp, UnaryOp};
pub use spec::{Spec, SpecKind};
pub use tensor::{Elem, TensorDecl, TensorId, TensorType};
pub use threads::{ThreadId, ThreadLevel, ThreadTensor};
