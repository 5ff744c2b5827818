//! The execution front door: which engine runs a kernel or graph, the
//! names users select it by, the labels reports print, and the seeded
//! inputs every surface feeds it.
//!
//! The CLI and the serve daemon both go through this module, so a
//! daemon response is bit-identical to the corresponding CLI run — the
//! daemon's resident caches change *when* work happens, never *what*
//! is computed.

use crate::exec::{execute_reference, ExecError, ExecOutcome};
use crate::graph_exec::{execute_graph, replay_graph, ExecGraph, GraphOutcome, GraphTraceCache};
use crate::host::HostTensor;
use crate::plan::KernelPlan;
use crate::replay::replay_opt;
use crate::run::{execute_plan, ExecMode};
use crate::trace::{TraceCache, TraceKey};
use graphene_ir::tensor::TensorId;
use graphene_ir::Kernel;
use std::collections::HashMap;
use std::hash::Hash;

/// A functional-execution engine. All engines produce bit-identical
/// outputs and identical counters for the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The statement-tree reference interpreter — the oracle the
    /// others are tested against.
    Reference,
    /// The compiled-plan interpreter under a CTA schedule.
    Plan(ExecMode),
    /// Record once through a [`TraceCache`], then replay the optimized
    /// trace ([`replay_opt`]).
    Replay,
}

impl Engine {
    /// Parses a kernel `run`'s exec name:
    /// `reference|sequential|parallel|replay`, parallel when absent.
    ///
    /// # Errors
    ///
    /// Names the accepted values for anything else.
    pub fn parse(name: Option<&str>) -> Result<Engine, String> {
        match name {
            None | Some("parallel") => Ok(Engine::Plan(ExecMode::Parallel)),
            Some("sequential") => Ok(Engine::Plan(ExecMode::Sequential)),
            Some("reference") => Ok(Engine::Reference),
            Some("replay") => Ok(Engine::Replay),
            Some(other) => {
                Err(format!("unknown exec mode `{other}` (reference|sequential|parallel|replay)"))
            }
        }
    }

    /// Parses a `run-graph` exec name: `plan` (the parallel plan
    /// engine, also when absent) or `replay`.
    ///
    /// # Errors
    ///
    /// Names the accepted values for anything else.
    pub fn parse_graph(name: Option<&str>) -> Result<Engine, String> {
        match name {
            None | Some("plan") => Ok(Engine::Plan(ExecMode::Parallel)),
            Some("replay") => Ok(Engine::Replay),
            Some(other) => Err(format!("unknown exec mode `{other}` (plan|replay)")),
        }
    }

    /// The engine line of a kernel run report.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Reference => "reference interpreter",
            Engine::Plan(ExecMode::Sequential) => "compiled (sequential) interpreter",
            Engine::Plan(_) => "compiled (parallel) interpreter",
            Engine::Replay => "trace replay",
        }
    }

    /// The `engine` field of a graph run report: `plan` or `replay`.
    pub fn graph_label(self) -> &'static str {
        if self == Engine::Replay {
            "replay"
        } else {
            "plan"
        }
    }

    /// Executes one kernel. The reference interpreter reads `kernel`
    /// (callers may pass `None` for the other engines); the replay
    /// engine records through `traces` under `key` on a miss. Returns
    /// the outcome and, for replay, whether the trace was a cache hit.
    ///
    /// # Errors
    ///
    /// The engine's [`ExecError`]; [`ExecError::BadInput`] when the
    /// reference engine gets no kernel.
    pub fn execute(
        self,
        kernel: Option<&Kernel>,
        plan: &KernelPlan,
        traces: &TraceCache,
        key: &TraceKey,
        inputs: &HashMap<TensorId, Vec<f32>>,
    ) -> Result<(ExecOutcome, Option<bool>), ExecError> {
        let bindings = HashMap::new();
        let mut trace_hit = None;
        let outcome = match self {
            Engine::Reference => {
                let kernel = kernel.ok_or_else(|| {
                    ExecError::BadInput("the reference engine needs the kernel IR".into())
                })?;
                execute_reference(kernel, key.arch, inputs)
            }
            Engine::Plan(mode) => execute_plan(plan, inputs, &bindings, mode),
            Engine::Replay => {
                trace_hit = Some(traces.contains(key));
                let trace = traces.get_or_record(key, plan, &bindings)?;
                replay_opt(&trace, inputs)
            }
        }?;
        Ok((outcome, trace_hit))
    }

    /// Executes one graph: the plan engine under its CTA schedule, or
    /// whole-graph replay from `graphs` (recording on a miss). Returns
    /// the outcome and, for replay, whether the graph trace was a hit.
    ///
    /// # Errors
    ///
    /// The engine's [`ExecError`]; [`ExecError::BadInput`] for the
    /// reference engine, which runs single kernels only.
    pub fn execute_graph(
        self,
        g: &ExecGraph,
        graphs: &GraphTraceCache,
        traces: &TraceCache,
        inputs: &HashMap<String, Vec<f32>>,
    ) -> Result<(GraphOutcome, Option<bool>), ExecError> {
        match self {
            Engine::Reference => {
                Err(ExecError::BadInput("the reference engine runs single kernels only".into()))
            }
            Engine::Plan(mode) => Ok((execute_graph(g, inputs, mode)?, None)),
            Engine::Replay => {
                let hits_before = graphs.hits();
                let gt = graphs.get_or_record(g, traces)?;
                let hit = graphs.hits() > hits_before;
                Ok((replay_graph(&gt, inputs, ExecMode::Parallel)?, Some(hit)))
            }
        }
    }
}

/// Seeded kernel inputs: parameter `i` is `HostTensor::random` with
/// seed `1000 + i` — the inputs every surface runs a kernel on.
pub fn seeded_inputs(params: &[(TensorId, String, usize)]) -> HashMap<TensorId, Vec<f32>> {
    seeded(params.iter().map(|(id, _, len)| (*id, *len)))
}

/// Seeded graph externals: external `i` (in [`ExecGraph::externals`]
/// order) is `HostTensor::random` with seed `1000 + i`.
pub fn seeded_externals(g: &ExecGraph) -> HashMap<String, Vec<f32>> {
    seeded(g.externals())
}

fn seeded<K: Eq + Hash>(items: impl IntoIterator<Item = (K, usize)>) -> HashMap<K, Vec<f32>> {
    items
        .into_iter()
        .enumerate()
        .map(|(i, (k, len))| (k, HostTensor::random(&[len], 1000 + i as u64).as_slice().to_vec()))
        .collect()
}
