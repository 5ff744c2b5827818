//! `exec-kernels`: functional execution of catalog-default schedules on
//! sm86 — GEMM, FMHA, layernorm and the 2-layer encoder graph.
//!
//! Per item: one cold run (build, `KernelPlan::compile`, record,
//! `optimize_trace`, first replay), one pass through the CLI-default
//! plan engine, then warm replay passes on fresh seeded inputs for the
//! rest of the run, with a cold re-run of one item every few passes.
//! Kernels are checked against `graphene_sim::host` math,
//! plan against replay bit for bit, and the fused encoder's replay bit
//! for bit against the plan engine on the default lowering.

use crate::check::{bits_equal, close, Tally};
use crate::gen::tensor;
use crate::trace::Tracer;
use crate::{Config, Output};
use graphene_ir::{Arch, TensorId};
use graphene_kernels::exec_lower::{lower_executable, ExecLowering};
use graphene_kernels::graph::{encoder_graph, Graph};
use graphene_sim::host::{attention_ref, layernorm_ref, matmul_ref, HostTensor};
use graphene_sim::{
    execute_graph, execute_plan, optimize_trace, record_graph, record_trace, replay_graph,
    replay_opt, Counters, ExecGraph, ExecMode, GraphTrace, KernelPlan, OptTrace, TraceCache,
};
use std::collections::{BTreeMap, HashMap};

const ARCH: Arch = Arch::Sm86;
/// Fresh input sets per kernel; warm passes cycle through them.
const KERNEL_SETS: usize = 3;
/// Input sets for the encoder (its reference run is the plan engine).
const GRAPH_SETS: usize = 2;

/// A single-kernel item: catalog name, options, and its math.
#[derive(Debug, Clone, Copy)]
enum Math {
    /// `C = A × B`, `A: [m,k]`, `B: [k,n]`.
    Gemm { m: usize, n: usize, k: usize },
    /// Per-head attention over `[heads*seq, d]` Q, K, V.
    Fmha { heads: usize, seq: usize, d: usize },
    /// Row layernorm with `gamma`, `beta`, eps 1e-5.
    Layernorm { rows: usize, hidden: usize },
}

impl Math {
    fn name(self) -> &'static str {
        match self {
            Math::Gemm { .. } => "gemm",
            Math::Fmha { .. } => "fmha",
            Math::Layernorm { .. } => "layernorm",
        }
    }

    /// Catalog options selecting this problem.
    fn opts(self) -> HashMap<String, String> {
        let kv: Vec<(&str, usize)> = match self {
            Math::Gemm { m, n, k } => vec![("m", m), ("n", n), ("k", k)],
            Math::Fmha { heads, seq, d } => vec![("heads", heads), ("seq", seq), ("d", d)],
            Math::Layernorm { rows, hidden } => vec![("rows", rows), ("hidden", hidden)],
        };
        kv.into_iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    /// Lengths of the input parameters, in parameter order.
    fn input_lens(self) -> Vec<usize> {
        match self {
            Math::Gemm { m, n, k } => vec![m * k, k * n],
            Math::Fmha { heads, seq, d } => vec![heads * seq * d; 3],
            Math::Layernorm { rows, hidden } => vec![rows * hidden, hidden, hidden],
        }
    }

    /// The host reference output.
    fn reference(self, ins: &[Vec<f32>]) -> Vec<f32> {
        let t = |dims: &[usize], v: &[f32]| HostTensor::from_vec(dims, v.to_vec());
        match self {
            Math::Gemm { m, n, k } => {
                matmul_ref(&t(&[m, k], &ins[0]), &t(&[k, n], &ins[1])).as_slice().to_vec()
            }
            Math::Fmha { heads, seq, d } => {
                let head = |x: &[f32], h: usize| t(&[seq, d], &x[h * seq * d..(h + 1) * seq * d]);
                (0..heads)
                    .flat_map(|h| {
                        attention_ref(&head(&ins[0], h), &head(&ins[1], h), &head(&ins[2], h))
                            .as_slice()
                            .to_vec()
                    })
                    .collect()
            }
            Math::Layernorm { rows, hidden } => {
                layernorm_ref(&t(&[rows, hidden], &ins[0]), &ins[1], &ins[2], 1e-5)
                    .as_slice()
                    .to_vec()
            }
        }
    }
}

/// The single-kernel items: the default swizzled `cublas_like` GEMM at
/// a quarter of the default k, the MLPerf-BERT per-head FMHA shape over
/// 24 blocks, and the catalog-default layernorm.
const KERNELS: [Math; 3] = [
    Math::Gemm { m: 1024, n: 1024, k: 256 },
    Math::Fmha { heads: 8, seq: 384, d: 64 },
    Math::Layernorm { rows: 4096, hidden: 1024 },
];

/// The `run-graph` default encoder: 2 layers, batch 1, seq 128,
/// hidden 256, 4 heads, ffn 1024.
fn encoder() -> Graph {
    encoder_graph(2, 1, 128, 256, 4, 1024)
}

/// Seeded inputs and reference outputs of one kernel item.
struct KernelData {
    math: Math,
    sets: Vec<Vec<Vec<f32>>>,
    refs: Vec<Vec<f32>>,
}

/// Seeded inputs and bitwise reference outputs of the encoder.
struct GraphData {
    sets: Vec<HashMap<String, Vec<f32>>>,
    refs: Vec<Vec<Vec<f32>>>,
}

/// What the cold run leaves resident for the later phases.
enum Ready {
    Kernel { plan: KernelPlan, trace: OptTrace, out_id: TensorId, first: Vec<f32> },
    Graph { eg: ExecGraph, trace: GraphTrace, first: Vec<Vec<f32>>, counters: Counters },
}

/// Graph outputs ordered by temp index.
fn sorted_outputs(outputs: &HashMap<usize, Vec<f32>>) -> Vec<Vec<f32>> {
    let mut v: Vec<_> = outputs.iter().collect();
    v.sort_by_key(|(t, _)| **t);
    v.into_iter().map(|(_, x)| x.clone()).collect()
}

fn graph_bits(got: &[Vec<f32>], want: &[Vec<f32>], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} outputs, expected {}", got.len(), want.len()));
    }
    got.iter().zip(want).try_for_each(|(g, w)| bits_equal(g, w, what))
}

fn kernel_inputs(plan: &KernelPlan, set: &[Vec<f32>]) -> HashMap<TensorId, Vec<f32>> {
    plan.params().iter().zip(set).map(|((id, _, _), v)| (*id, v.clone())).collect()
}

/// Generates every input set and reference. Not timed: this is the
/// benchmark's own work, not the program's.
fn prepare(seed: u64) -> Result<(Vec<KernelData>, GraphData), String> {
    let kernels = KERNELS
        .iter()
        .enumerate()
        .map(|(i, &math)| {
            let sets: Vec<Vec<Vec<f32>>> = (0..KERNEL_SETS)
                .map(|s| {
                    let lens = math.input_lens();
                    lens.iter()
                        .enumerate()
                        .map(|(p, &len)| tensor(seed, (i * 64 + s * 8 + p) as u64, len))
                        .collect()
                })
                .collect();
            let refs = sets.iter().map(|ins| math.reference(ins)).collect();
            KernelData { math, sets, refs }
        })
        .collect();
    let default = lower_executable(&encoder(), ARCH, ExecLowering::Default)?;
    let sets: Vec<HashMap<String, Vec<f32>>> = (0..GRAPH_SETS)
        .map(|s| {
            default
                .externals()
                .iter()
                .enumerate()
                .map(|(p, (name, len))| {
                    (name.clone(), tensor(seed, (1024 + s * 64 + p) as u64, *len))
                })
                .collect()
        })
        .collect();
    let refs = sets
        .iter()
        .map(|ins| {
            execute_graph(&default, ins, ExecMode::Parallel)
                .map(|o| sorted_outputs(&o.outputs))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok((kernels, GraphData { sets, refs }))
}

/// Per-item facts from a cold run, for the per-layer counts.
#[derive(Debug, Default, Clone, Copy)]
struct ColdStats {
    steps: usize,
    raw_bytes: usize,
    opt_bytes: usize,
    addrs: usize,
    gathered: usize,
    instructions: u64,
    global_bytes: u64,
    arena_bytes: usize,
}

/// One cold run of item `i` (a kernel, or the encoder when `i` is past
/// the kernels): build or lower, compile, record, optimize and the
/// first replay on input set 0, verified.
fn cold_run(
    tr: &Tracer,
    op: u64,
    i: usize,
    kernels: &[KernelData],
    graph: &GraphData,
) -> (Result<(Ready, ColdStats), String>, f64) {
    let bindings = HashMap::new();
    let Some(kd) = kernels.get(i) else {
        let (res, secs) = tr.op(op, || -> Result<_, String> {
            let eg = tr.span("kernels.lower_graph", || {
                lower_executable(&encoder(), ARCH, ExecLowering::Fused)
            })?;
            let traces = TraceCache::new();
            let gt = tr.span("sim.graph_record", || record_graph(&eg, &traces));
            let gt = gt.map_err(|e| e.to_string())?;
            let o = tr
                .span("sim.graph_replay", || replay_graph(&gt, &graph.sets[0], ExecMode::Parallel));
            Ok((eg, gt, o.map_err(|e| e.to_string())?))
        });
        let res = res.and_then(|(eg, gt, outcome)| {
            let first = sorted_outputs(&outcome.outputs);
            graph_bits(&first, &graph.refs[0], "encoder replay vs default-lowering plan")?;
            let st = gt.opt_stats();
            let c = outcome.counters;
            let stats = ColdStats {
                steps: st.steps_before,
                raw_bytes: st.bytes_before,
                opt_bytes: gt.resident_bytes(),
                addrs: st.addrs_before,
                gathered: st.gather_addrs,
                instructions: c.instructions,
                global_bytes: c.global_read_bytes + c.global_write_bytes,
                arena_bytes: eg.workspace().arena_bytes(),
            };
            Ok((Ready::Graph { eg, trace: gt, first, counters: c }, stats))
        });
        return (res, secs);
    };
    let (res, secs) = tr.op(op, || -> Result<_, String> {
        let nk = tr.span("kernels.build", || {
            graphene_kernels::catalog::build_named(kd.math.name(), ARCH, &kd.math.opts())
        })?;
        let plan = tr.span("sim.plan_compile", || KernelPlan::compile(&nk.kernel, ARCH));
        let plan = plan.map_err(|e| e.to_string())?;
        let raw = tr.span("sim.record", || record_trace(&plan, &bindings));
        let raw = raw.map_err(|e| e.to_string())?;
        let trace = tr.span("sim.optimize", || optimize_trace(&raw));
        let (steps, raw_bytes) = (raw.num_steps(), raw.resident_bytes());
        drop(raw);
        let inputs = kernel_inputs(&plan, &kd.sets[0]);
        let outcome = tr.span("sim.replay", || replay_opt(&trace, &inputs));
        let outcome = outcome.map_err(|e| e.to_string())?;
        let out_id = nk.kernel.params[kd.math.input_lens().len()];
        Ok((plan, trace, out_id, outcome, steps, raw_bytes))
    });
    let res = res.and_then(|(plan, trace, out_id, outcome, steps, raw_bytes)| {
        let first = outcome.globals.get(&out_id).cloned().unwrap_or_default();
        close(&first, &kd.refs[0], kd.math.name())?;
        let st = trace.stats();
        let c = outcome.counters;
        let stats = ColdStats {
            steps,
            raw_bytes,
            opt_bytes: trace.resident_bytes(),
            addrs: st.addrs_before,
            gathered: st.gather_addrs,
            instructions: c.instructions,
            global_bytes: c.global_read_bytes + c.global_write_bytes,
            arena_bytes: 0,
        };
        Ok((Ready::Kernel { plan, trace, out_id, first }, stats))
    });
    (res, secs)
}

/// One pass through the CLI-default engine (compiled plan, parallel
/// CTAs) on input set 0, bit for bit against the first replay.
fn plan_run(
    tr: &Tracer,
    op: u64,
    ready: &Ready,
    kd: Option<&KernelData>,
    graph: &GraphData,
) -> (Result<(), String>, f64) {
    match (ready, kd) {
        (Ready::Kernel { plan, out_id, first, trace }, Some(kd)) => {
            let inputs = kernel_inputs(plan, &kd.sets[0]);
            let (o, secs) = tr.op(op, || {
                tr.span("sim.plan_exec", || {
                    execute_plan(plan, &inputs, &HashMap::new(), ExecMode::Parallel)
                })
            });
            let verdict = o.map_err(|e| e.to_string()).and_then(|o| {
                let got = o.globals.get(out_id).map_or(&[][..], Vec::as_slice);
                bits_equal(got, first, "plan engine vs replay")?;
                same_counters(&o.counters, trace.counters())
            });
            (verdict, secs)
        }
        (Ready::Graph { eg, first, counters, .. }, _) => {
            let (o, secs) = tr.op(op, || {
                tr.span("sim.plan_exec", || execute_graph(eg, &graph.sets[0], ExecMode::Parallel))
            });
            let verdict = o.map_err(|e| e.to_string()).and_then(|o| {
                graph_bits(&sorted_outputs(&o.outputs), first, "encoder plan vs replay")?;
                same_counters(&o.counters, counters)
            });
            (verdict, secs)
        }
        (Ready::Kernel { .. }, None) => (Err("kernel item without data".into()), 0.0),
    }
}

/// One warm replay of an item on input set `set`, verified.
fn warm_run(
    tr: &Tracer,
    op: u64,
    ready: &Ready,
    kd: Option<&KernelData>,
    graph: &GraphData,
    pass: usize,
) -> (Result<(), String>, f64) {
    match (ready, kd) {
        (Ready::Kernel { plan, trace, out_id, .. }, Some(kd)) => {
            let set = 1 + pass % (KERNEL_SETS - 1);
            let (o, secs) = tr.op(op, || {
                let inputs = kernel_inputs(plan, &kd.sets[set]);
                tr.span("sim.replay", || replay_opt(trace, &inputs))
            });
            let verdict = o.map_err(|e| e.to_string()).and_then(|o| {
                let got = o.globals.get(out_id).map_or(&[][..], Vec::as_slice);
                close(got, &kd.refs[set], kd.math.name())
            });
            (verdict, secs)
        }
        (Ready::Graph { trace, .. }, _) => {
            let set = (1 + pass) % GRAPH_SETS;
            let (o, secs) = tr.op(op, || {
                tr.span("sim.graph_replay", || {
                    replay_graph(trace, &graph.sets[set], ExecMode::Parallel)
                })
            });
            let verdict = o.map_err(|e| e.to_string()).and_then(|o| {
                graph_bits(&sorted_outputs(&o.outputs), &graph.refs[set], "encoder replay")
            });
            (verdict, secs)
        }
        (Ready::Kernel { .. }, None) => (Err("kernel item without data".into()), 0.0),
    }
}

/// Warm passes between two cold re-runs.
const COLD_EVERY: usize = 6;

/// Runs the workload.
///
/// `cold_s` sums, over the items, the median of each item's cold runs:
/// the first one in the process, and re-runs from scratch (replacing
/// the item's trace) after every `COLD_EVERY` warm passes, so that one
/// slow moment of the machine does not decide the figure.
pub fn run(cfg: &Config, tally: &mut Tally) -> Result<Output, String> {
    let (kernels, graph) = prepare(cfg.seed)?;
    let tr = Tracer::new(cfg.traced, cfg.epoch, 0);
    let mut out = Output::default();
    let items = kernels.len() + 1;
    let mut op_id = 0u64;
    let mut ready: Vec<Option<Ready>> = Vec::new();
    let mut cold: Vec<Vec<f64>> = vec![Vec::new(); items];
    let mut total = ColdStats::default();

    // Cold: time to the first verified output of every item.
    for (i, samples) in cold.iter_mut().enumerate() {
        cfg.checkpoint();
        op_id += 1;
        let (res, secs) = cold_run(&tr, op_id, i, &kernels, &graph);
        samples.push(secs);
        ready.push(match res {
            Ok((r, st)) => {
                tally.record(Ok(()));
                total.steps += st.steps;
                total.raw_bytes += st.raw_bytes;
                total.opt_bytes += st.opt_bytes;
                total.addrs += st.addrs;
                total.gathered += st.gathered;
                total.instructions += st.instructions;
                total.global_bytes += st.global_bytes;
                total.arena_bytes += st.arena_bytes;
                Some(r)
            }
            Err(e) => {
                tally.record(Err(e));
                None
            }
        });
    }
    let first_run_s: f64 = cold.iter().map(|c| c[0]).sum();

    // One pass through the CLI-default engine.
    let mut plan_run_s = 0.0;
    for (i, r) in ready.iter().enumerate() {
        let Some(r) = r else { continue };
        cfg.checkpoint();
        op_id += 1;
        let (verdict, secs) = plan_run(&tr, op_id, r, kernels.get(i), &graph);
        plan_run_s += secs;
        tally.record(verdict);
    }

    // Warm passes on fresh inputs, with a cold re-run of the next item
    // after every `COLD_EVERY` passes, for the rest of the run.
    let live: Vec<usize> = (0..items).filter(|&i| ready[i].is_some()).collect();
    if live.is_empty() {
        return Err("every exec item failed its cold run".into());
    }
    let mut pass_s = Vec::new();
    let mut rerun = 0usize;
    let window = std::time::Instant::now();
    let mut passes = 0u64;
    while cfg.budget.more(0, passes * live.len() as u64, window) {
        cfg.checkpoint();
        let mut this_pass = 0.0;
        for &i in &live {
            let Some(r) = ready[i].as_ref() else { continue };
            op_id += 1;
            let (verdict, secs) = warm_run(&tr, op_id, r, kernels.get(i), &graph, passes as usize);
            out.op_secs.push(secs);
            this_pass += secs;
            tally.record(verdict);
        }
        pass_s.push(this_pass);
        passes += 1;
        if (passes as usize).is_multiple_of(COLD_EVERY) {
            let i = live[rerun % live.len()];
            rerun += 1;
            ready[i] = None;
            op_id += 1;
            let (res, secs) = cold_run(&tr, op_id, i, &kernels, &graph);
            out.warm_op_s += secs;
            cold[i].push(secs);
            tally.record(res.map(|(r, _)| ready[i] = Some(r)));
        }
    }
    out.ops_done = vec![passes * live.len() as u64];
    let window_op_s: f64 = out.op_secs.iter().sum();
    out.warm_op_s += plan_run_s + window_op_s;
    out.throughput = out.op_secs.len() as f64 / window_op_s;
    out.cold_s = cold.iter().filter_map(|c| crate::stats::median(c)).sum();
    let coalesced =
        if total.addrs == 0 { 1.0 } else { 1.0 - total.gathered as f64 / total.addrs as f64 };
    out.counts = BTreeMap::from([
        ("sim.trace_steps", total.steps as f64),
        ("sim.trace_bytes", total.raw_bytes as f64),
        ("sim.opt_trace_bytes", total.opt_bytes as f64),
        ("sim.coalesced_fraction", coalesced),
        ("sim.instructions", total.instructions as f64),
        ("sim.global_bytes", total.global_bytes as f64),
        ("sim.arena_bytes", total.arena_bytes as f64),
    ]);
    out.spans = tr.into_spans();
    let names = ["gemm", "fmha", "layernorm", "encoder"];
    let per_item: Vec<String> = cold
        .iter()
        .zip(names)
        .map(|(c, n)| format!("{n} {:.3}", crate::stats::median(c).unwrap_or(0.0)))
        .collect();
    out.notes = vec![
        format!("first_run_s {first_run_s:.4} s (the first cold run of every item)"),
        format!(
            "cold runs per item: median {} s over {} runs",
            per_item.join(", "),
            cold.iter().map(Vec::len).sum::<usize>()
        ),
        format!(
            "warm_run_s {:.4} s (median warm replay pass over {} items, {} passes)",
            crate::stats::median(&pass_s).unwrap_or(0.0),
            live.len(),
            pass_s.len()
        ),
        format!("plan_run_s {plan_run_s:.4} s (execute_plan Parallel pass)"),
    ];
    Ok(out)
}

fn same_counters(a: &Counters, b: &Counters) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("plan engine counters {a:?} differ from the recorded {b:?}"))
    }
}
