//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload exec-kernels --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one seeded workload against the public functions of the
//! graphene crates, checks every output, and prints one JSON result
//! line last. `--trace 0` reports the end-to-end metrics, measured with
//! tracing off; `--trace 1` runs the workload traced for half the
//! time, then exactly the same operations untraced, and reports the
//! per-layer split and the tracing overhead. See `README.md` next to
//! this file.

mod check;
mod compile_tune;
mod exec_kernels;
mod gen;
mod metrics;
mod serve_mixed;
mod setup;
mod stats;
mod trace;

use check::Tally;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Span;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["exec-kernels", "compile-tune", "serve-mixed"];

/// How long a workload's measured loop runs.
#[derive(Debug, Clone)]
pub enum Budget {
    /// Until this many seconds have passed (at least one operation).
    Time(f64),
    /// Exactly this many operations per client thread.
    Ops(Vec<u64>),
}

impl Budget {
    /// Whether client `thread`, having done `done` operations since
    /// `start`, goes on.
    pub fn more(&self, thread: usize, done: u64, start: Instant) -> bool {
        match self {
            Budget::Time(s) => done == 0 || start.elapsed().as_secs_f64() < *s,
            Budget::Ops(n) => done < n.get(thread).copied().unwrap_or(0),
        }
    }
}

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Whether layer spans are recorded.
    pub traced: bool,
    /// Length of the measured loop.
    pub budget: Budget,
    /// Time origin of every span.
    pub epoch: Instant,
    /// Set-up probes to run at checkpoints (end-to-end runs only).
    pub probes: Option<Arc<setup::Prober>>,
}

impl Config {
    /// A point between operations where the workload may pause: runs
    /// one set-up probe when probing.
    pub fn checkpoint(&self) {
        if let Some(p) = &self.probes {
            p.probe();
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Output {
    /// Cold phase: time to the first verified output of every distinct
    /// operation, caches empty.
    pub cold_s: f64,
    /// Latency of every operation of the measured loop.
    pub op_secs: Vec<f64>,
    /// Operations per second in the measured loop.
    pub throughput: f64,
    /// Operations done in the measured loop, per client thread.
    pub ops_done: Vec<u64>,
    /// Summed time of the operations after the cold phase (the ones a
    /// traced and an untraced run can compare like for like).
    pub warm_op_s: f64,
    /// The workload's own (p50, tail) operation latency, where
    /// percentiles of `op_secs` would not be steady.
    pub latency: Option<(f64, f64)>,
    /// What `latency` is.
    pub latency_note: String,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Per-layer counts and ratios.
    pub counts: BTreeMap<&'static str, f64>,
    /// Human-readable lines with the workload's own named figures.
    pub notes: Vec<String>,
}

/// Where runs leave their span files and temporary tune db.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The tail percentile reported for a workload's operation latency:
/// the highest of p90 and p99 that keeps about ten samples beyond it at
/// the configured run length (100 kernel executions or 2,500 requests
/// in 25 s). compile-tune reports its own latency (see `compile_tune`).
fn tail_pct(workload: &str) -> f64 {
    match workload {
        "serve-mixed" => 99.0,
        _ => 90.0,
    }
}

fn run_workload(workload: &str, cfg: &Config, tally: &mut Tally) -> Result<Output, String> {
    match workload {
        "exec-kernels" => exec_kernels::run(cfg, tally),
        "compile-tune" => compile_tune::run(cfg, tally),
        "serve-mixed" => serve_mixed::run(cfg, tally),
        other => Err(format!("unknown workload `{other}` ({})", WORKLOADS.join("|"))),
    }
}

/// Peak resident set (`VmHWM`) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics from an untraced run.
fn end_to_end(
    workload: &str,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let probes = Arc::new(setup::Prober::new(workload)?);
    let cfg = Config {
        seed,
        traced: false,
        budget: Budget::Time(seconds),
        epoch: Instant::now(),
        probes: Some(Arc::clone(&probes)),
    };
    cfg.checkpoint();
    let out = run_workload(workload, &cfg, tally)?;
    cfg.checkpoint();
    let (setup_s, probed) = probes.median()?;
    println!("  setup_s: median of {probed} set-ups spread over the run");
    let s = stats::summarize(&out.op_secs, tail_pct(workload)).ok_or("no operations measured")?;
    for n in &out.notes {
        println!("  {n}");
    }
    let (p50, tail) = match out.latency {
        Some((p50, tail)) => {
            println!(
                "  op latency: p50 {:.3} ms, tail {:.3} ms: {} ({} samples)",
                p50 * 1e3,
                tail * 1e3,
                out.latency_note,
                s.n
            );
            (p50, tail)
        }
        None => {
            println!(
                "  op latency: p50 {:.3} ms, p{} {:.3} ms, {} samples ({} beyond the tail)",
                s.p50 * 1e3,
                s.tail_pct,
                s.tail * 1e3,
                s.n,
                s.beyond
            );
            (s.p50, s.tail)
        }
    };
    Ok(vec![setup_s, peak_rss_mb(), out.cold_s, out.throughput, p50 * 1e3, tail * 1e3])
}

/// Per-layer metrics: a traced half-length run (first in the process,
/// like the end-to-end run, so its cold phase pays the same first-touch
/// costs), then the same operations untraced for the overhead.
/// Tracing overhead compares the operations after the cold phase: a
/// second cold phase in one process reuses memory the first one
/// faulted in, so cold phases do not compare like for like.
fn per_layer(
    workload: &str,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let epoch = Instant::now();
    let traced =
        Config { seed, traced: true, budget: Budget::Time(seconds / 2.0), epoch, probes: None };
    let out = run_workload(workload, &traced, tally)?;
    let budget = Budget::Ops(out.ops_done.clone());
    let plain = Config { seed, traced: false, budget, epoch, probes: None };
    let base = run_workload(workload, &plain, tally)?;

    let path = out_dir().join(format!("spans-{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, trace::to_jsonl(&out.spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let self_s = trace::self_times(&out.spans);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(name, _) in metrics::PER_LAYER {
        let v = match name.strip_suffix("_s") {
            Some("bench.unattributed") => self_s.get(trace::OP).copied().unwrap_or(0.0),
            Some("bench.trace_overhead") => out.warm_op_s - base.warm_op_s,
            Some(span) => self_s.get(span).copied().unwrap_or(0.0),
            None => out.counts.get(name).copied().unwrap_or(0.0),
        };
        values.insert(name, v);
    }
    for span in self_s.keys() {
        let known = *span == trace::OP || metrics::unit_of(&format!("{span}_s")).is_some();
        assert!(known, "span `{span}` has no per-layer metric");
    }
    let layers: f64 = values
        .iter()
        .filter(|(n, _)| n.ends_with("_s") && **n != "bench.trace_overhead_s")
        .map(|(_, v)| v)
        .sum();
    println!(
        "  traced operations {:.4} s = layer self-times + bench.unattributed_s {:.4} s ({} spans in {})",
        trace::root_time(&out.spans),
        layers,
        out.spans.len(),
        path.display()
    );
    for n in &out.notes {
        println!("  {n}");
    }
    Ok(values)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !a.seconds.is_finite() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join("|")));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload] = &argv[..] {
        if flag == "--setup-probe" {
            return match setup::run_probe(workload) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("set-up probe: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repo-bench: {e}");
            eprintln!(
                "usage: repo-bench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "repo-bench {} seed={} seconds={} trace={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let (names, values) = if args.trace {
        match per_layer(&args.workload, args.seed, args.seconds, &mut tally) {
            Ok(v) => (metrics::PER_LAYER, v),
            Err(e) => {
                eprintln!("repo-bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match end_to_end(&args.workload, args.seed, args.seconds, &mut tally) {
            Ok(v) => {
                (metrics::END_TO_END, metrics::END_TO_END.iter().map(|(n, _)| *n).zip(v).collect())
            }
            Err(e) => {
                eprintln!("repo-bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    for (name, unit) in names {
        println!("  {name:<28} {:>16.6} {unit}", values[name]);
    }
    println!(
        "  error_rate {} ({} of {} operations failed)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    for note in &tally.notes {
        eprintln!("repo-bench: failed: {note}");
    }
    println!("{}", metrics::result_line(tally.attempted, tally.failed, names, &values));
    ExitCode::SUCCESS
}
