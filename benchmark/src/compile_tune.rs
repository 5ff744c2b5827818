//! `compile-tune`: the compiler front end with no functional execution.
//!
//! Each round runs the cold fixed-seed tunes from an empty tune db and
//! cost cache (GEMM, FMHA and MLP beam with fixed budgets, layernorm
//! exhaustive), each followed by costing the default point the way the
//! CLI does; then repeats each tune against the saved db; then one
//! compile pass over every catalog kernel × arch at catalog-default
//! sizes: `build_named`, `validate`, lint, `prove_kernel` and CUDA
//! emission, in a seeded order per pass. Rounds repeat until the time
//! is up.
//!
//! Compile latency is taken per catalog entry: each kernel × arch's
//! mean compile time over the run's passes, with `op_p50_ms` and
//! `op_tail_ms` the p50 and p75 over the 12 entries, interpolated
//! between the two nearest entries. Percentiles over all compiles are
//! not steady on a shared host: a compile takes 1x to about 1.6x its
//! uncontended time depending on what else runs on the cores, and the
//! share of slow samples drifts from minute to minute. With only 3–6
//! samples of an entry in a run, a median or an extreme sample jumps
//! the whole gap when that share crosses a half (or every sample is
//! slow); a mean moves only with the share.

use crate::check::Tally;
use crate::gen::Rng;
use crate::trace::Tracer;
use crate::{Config, Output};
use graphene_analysis::prove::BoundsStatus;
use graphene_ir::Arch;
use graphene_sim::{analyze, machine_for, time_kernel, PlanCache};
use graphene_tune::{CostCache, TuneDb, TuneReport};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Every catalog kernel on every arch it supports (FMHA and the
/// double-buffered GEMM are Ampere-only).
const CATALOG: [(&str, Arch); 12] = [
    ("gemm", Arch::Sm86),
    ("gemm-db", Arch::Sm86),
    ("mlp", Arch::Sm86),
    ("lstm", Arch::Sm86),
    ("layernorm", Arch::Sm86),
    ("softmax", Arch::Sm86),
    ("fmha", Arch::Sm86),
    ("gemm", Arch::Sm70),
    ("mlp", Arch::Sm70),
    ("lstm", Arch::Sm70),
    ("layernorm", Arch::Sm70),
    ("softmax", Arch::Sm70),
];

/// The fixed-seed tunes at catalog-default sizes: `(kernel, options)`.
const TUNES: [(&str, &[(&str, &str)]); 4] = [
    ("gemm", &[("search", "beam"), ("seed", "0"), ("budget", "16")]),
    ("fmha", &[("search", "beam"), ("seed", "0"), ("budget", "4")]),
    ("mlp", &[("search", "beam"), ("seed", "0"), ("budget", "12")]),
    ("layernorm", &[("search", "exhaustive")]),
];

fn opts(pairs: &[(&str, &str)]) -> HashMap<String, String> {
    pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

/// One tune as the CLI runs it: load the db, tune through it, and on a
/// miss cost the default point for comparison.
fn tune_once(
    tr: &Tracer,
    kernel: &str,
    pairs: &[(&str, &str)],
    db_path: &Path,
    costs: &CostCache,
) -> Result<(TuneReport, Option<f64>), String> {
    let o = opts(pairs);
    let (space, report) = tr.span("tune.search", || -> Result<_, String> {
        let space = graphene_tune::catalog::space_from_options(kernel, Arch::Sm86, &o)?;
        let topts = graphene_tune::catalog::options_from_options(&o)?;
        let mut db = TuneDb::load(db_path);
        let report = graphene_tune::tune_cached(space.as_ref(), &topts, Some(&mut db), Some(costs))
            .map_err(|e| e.to_string())?;
        Ok((space, report))
    })?;
    if report.stats.db_hit {
        return Ok((report, None));
    }
    let default = tr.span("kernels.build", || space.build(&space.default_point()));
    let time = tr.span("sim.analyze", || {
        analyze(&default, space.arch())
            .map(|c| time_kernel(&c, machine_for(space.arch()), default.grid_size()).time_s)
    });
    Ok((report, Some(time.map_err(|e| e.to_string())?)))
}

/// Verifies one compile operation's products; on its first pass also
/// adds its emitted bytes and proof accounting to `acc`.
fn check_compile(
    name: &str,
    arch: Arch,
    products: Compiled,
    first_hash: &mut Option<u64>,
    acc: Option<&mut (usize, usize, usize)>,
) -> Result<(), String> {
    let (valid, diags, proof, cuda) = products;
    let what = format!("{name} on {arch:?}");
    valid.map_err(|d| format!("{what}: {} validation diagnostics", d.len()))?;
    let errors = graphene_analysis::error_count(&diags);
    if errors > 0 {
        return Err(format!("{what}: lint reports {errors} errors"));
    }
    if !proof.bounds_clean() {
        return Err(format!("{what}: an access site is proven out of bounds"));
    }
    let cuda = cuda.map_err(|e| format!("{what}: codegen failed: {e}"))?;
    if !cuda.contains("__global__") {
        return Err(format!("{what}: emitted CUDA has no kernel entry"));
    }
    let h = fnv1a(cuda.as_bytes());
    if *first_hash.get_or_insert(h) != h {
        return Err(format!("{what}: CUDA emission changed between passes"));
    }
    if let Some((cuda_bytes, sites, proven)) = acc {
        let r = &proof.races;
        *cuda_bytes += cuda.len();
        *sites += proof.conflicts.len() + proof.bounds.len() + r.pairs();
        *proven += proof.conflicts.iter().filter(|s| s.provenance.is_proven()).count()
            + proof.bounds.iter().filter(|b| b.status == BoundsStatus::Proven).count()
            + r.pairs_proven_linear
            + r.pairs_proven_enumerated;
    }
    Ok(())
}

/// What one compile operation produced.
type Compiled = (
    Result<(), Vec<graphene_ir::Diagnostic>>,
    Vec<graphene_ir::Diagnostic>,
    graphene_analysis::prove::ProofReport,
    Result<String, graphene_codegen::CodegenError>,
);

/// Runs the workload in rounds until the time is up: the cold tunes
/// from an empty db and cost cache, the same tunes warm, then one
/// compile pass. `cold_s` sums each tune's median cold time over the
/// rounds.
pub fn run(cfg: &Config, tally: &mut Tally) -> Result<Output, String> {
    let tr = Tracer::new(cfg.traced, cfg.epoch, 0);
    let db_path = crate::out_dir().join(format!("tune-db-{}.json", std::process::id()));
    let mut out = Output::default();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut op_id = 0u64;
    let mut cold: Vec<Vec<f64>> = vec![Vec::new(); TUNES.len()];
    let mut hashes: Vec<Option<u64>> = vec![None; CATALOG.len()];
    let mut entry_s = [0.0f64; CATALOG.len()];
    let mut acc = (0usize, 0usize, 0usize);
    let mut pass_s = Vec::new();
    let window = std::time::Instant::now();
    let mut rounds = 0u64;
    while cfg.budget.more(0, rounds * CATALOG.len() as u64, window) {
        let first = rounds == 0;
        // Cold tunes from an empty db and cost cache.
        let _ = std::fs::remove_file(&db_path);
        let costs = CostCache::new();
        let mut winners: Vec<Option<String>> = Vec::new();
        let (mut proposed, mut simulated) = (0usize, 0usize);
        for (t, (kernel, pairs)) in TUNES.iter().enumerate() {
            cfg.checkpoint();
            op_id += 1;
            let (res, secs) = tr.op(op_id, || tune_once(&tr, kernel, pairs, &db_path, &costs));
            cold[t].push(secs);
            if !first {
                out.warm_op_s += secs;
            }
            let verdict = res.and_then(|(r, default_s)| {
                proposed += r.stats.proposed;
                simulated += r.stats.simulated;
                let default_s = default_s.ok_or(format!("cold {kernel} tune hit an empty db"))?;
                if r.stats.simulated == 0 || !r.best_time_s.is_finite() || r.best_time_s <= 0.0 {
                    return Err(format!("cold {kernel} tune costed nothing: {:?}", r.stats));
                }
                if r.best_time_s > default_s * (1.0 + 1e-9) {
                    return Err(format!(
                        "{kernel} winner {} s is slower than the default {default_s} s",
                        r.best_time_s
                    ));
                }
                Ok(r.best_desc)
            });
            winners.push(verdict.as_ref().ok().cloned());
            tally.record(verdict.map(|_| ()));
        }
        // Warm tunes: db hits with zero simulations and the cold winner.
        let mut hits = 0usize;
        for ((kernel, pairs), winner) in TUNES.iter().zip(&winners) {
            cfg.checkpoint();
            op_id += 1;
            let (res, secs) = tr.op(op_id, || tune_once(&tr, kernel, pairs, &db_path, &costs));
            out.warm_op_s += secs;
            tally.record(res.and_then(|(r, _)| {
                if !r.stats.db_hit || r.stats.simulated != 0 {
                    return Err(format!("warm {kernel} tune was not a pure db hit: {:?}", r.stats));
                }
                hits += 1;
                match winner {
                    Some(w) if *w == r.best_desc => Ok(()),
                    _ => Err(format!(
                        "warm {kernel} winner {} differs from the cold one",
                        r.best_desc
                    )),
                }
            }));
        }
        let _ = std::fs::remove_file(&db_path);
        if first {
            counts.insert("tune.proposed", proposed as f64);
            counts.insert("tune.simulated", simulated as f64);
            counts.insert("tune.useful_fraction", simulated as f64 / proposed.max(1) as f64);
            counts.insert("tune.db_hits", hits as f64);
        }

        // One compile pass over the catalog, in a seeded order.
        let mut this_pass = 0.0;
        for idx in Rng::new(cfg.seed, 100 + rounds).permutation(CATALOG.len()) {
            let (name, arch) = CATALOG[idx];
            cfg.checkpoint();
            op_id += 1;
            let (res, secs) = tr.op(op_id, || -> Result<Compiled, String> {
                let nk = tr.span("kernels.build", || {
                    graphene_kernels::catalog::build_named(name, arch, &HashMap::new())
                })?;
                let valid =
                    tr.span("ir.validate", || graphene_ir::validate::validate(&nk.kernel, arch));
                let mut plans = PlanCache::new();
                let diags = tr.span("analysis.lint", || {
                    graphene_analysis::analyze_kernel_cached(&nk.kernel, arch, &mut plans)
                });
                let proof = tr.span("analysis.prove", || {
                    graphene_analysis::prove::prove_kernel_cached(&nk.kernel, arch, &mut plans)
                });
                let cuda = tr.span("codegen.emit", || graphene_codegen::generate(&nk.kernel, arch));
                Ok((valid, diags, proof, cuda))
            });
            out.op_secs.push(secs);
            entry_s[idx] += secs;
            this_pass += secs;
            let acc = first.then_some(&mut acc);
            tally.record(res.and_then(|p| check_compile(name, arch, p, &mut hashes[idx], acc)));
        }
        pass_s.push(this_pass);
        rounds += 1;
    }
    let (cuda_bytes, sites, proven) = acc;
    counts.insert("codegen.cuda_bytes", cuda_bytes as f64);
    counts.insert("analysis.proven_fraction", proven as f64 / sites.max(1) as f64);
    out.ops_done = vec![rounds * CATALOG.len() as u64];
    let window_op_s: f64 = out.op_secs.iter().sum();
    out.warm_op_s += window_op_s;
    out.throughput = out.op_secs.len() as f64 / window_op_s;
    out.cold_s = cold.iter().filter_map(|c| crate::stats::median(c)).sum();
    let entry_mean: Vec<f64> = entry_s.iter().map(|s| s / rounds as f64).collect();
    let at = |p| crate::stats::interpolated(&entry_mean, p);
    out.latency = at(50.0).zip(at(75.0));
    out.latency_note = format!(
        "interpolated p50 and p75 over the {} kernel x arch of each one's mean over {rounds} compiles",
        CATALOG.len()
    );
    out.counts = counts;
    out.spans = tr.into_spans();
    out.notes = vec![
        format!(
            "tune_s {:.4} s (cold fixed-seed tunes: per-tune median over {rounds} rounds, summed)",
            out.cold_s
        ),
        format!(
            "compile_s {:.4} s (median compile pass over {} kernel x arch, {} passes)",
            crate::stats::median(&pass_s).unwrap_or(0.0),
            CATALOG.len(),
            pass_s.len()
        ),
    ];
    Ok(out)
}

/// FNV-1a over bytes: a cheap fingerprint of emitted code.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
