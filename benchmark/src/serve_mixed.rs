//! `serve-mixed`: an in-process `graphene_serve::Server` with one worker
//! per core, driven in a closed loop by two clients on persistent
//! connections.
//!
//! The request stream is a seeded draw over a working set of small
//! problems: ~80% `run exec=replay`, ~8% `run` on the plan engine, ~7%
//! `lint prove=true`, ~3% small `run-graph`, ~2% `tune`. A cold sweep
//! first sends every distinct request once to a fresh daemon, so the
//! trace cache is missed there and hit in the stream. Responses are
//! checked against checksums the benchmark computes itself.

use crate::check::{checksum_close, Tally};
use crate::gen::Rng;
use crate::trace::{Span, Tracer};
use crate::{Budget, Config, Output};
use graphene_ir::Arch;
use graphene_kernels::exec_lower::{lower_executable, ExecLowering};
use graphene_kernels::graph::encoder_graph;
use graphene_serve::client::Connection;
use graphene_serve::{ServeOptions, Server, ServerState};
use graphene_sim::host::{attention_ref, layernorm_ref, matmul_ref, softmax_ref, HostTensor};
use graphene_sim::{execute_graph, ExecMode, KernelPlan};
use graphene_tune::json::{parse, Json};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client threads and connections (the machine has two cores).
pub const CLIENTS: usize = 2;
/// Fresh daemons swept cold per timed run, spread over the run;
/// `cold_s` is their median.
const SWEEPS: usize = 5;
const TIMEOUT: Duration = Duration::from_secs(60);

type Opts = &'static [(&'static str, &'static str)];

/// Kernels `run` draws from: GEMM m,n ∈ {128,256}, k ∈ {64,128}; small
/// layernorm and softmax; FMHA with ≤2 heads at seq 128.
const RUNS: [(&str, Opts); 14] = [
    ("gemm", &[("m", "128"), ("n", "128"), ("k", "64")]),
    ("gemm", &[("m", "128"), ("n", "128"), ("k", "128")]),
    ("gemm", &[("m", "128"), ("n", "256"), ("k", "64")]),
    ("gemm", &[("m", "128"), ("n", "256"), ("k", "128")]),
    ("gemm", &[("m", "256"), ("n", "128"), ("k", "64")]),
    ("gemm", &[("m", "256"), ("n", "128"), ("k", "128")]),
    ("gemm", &[("m", "256"), ("n", "256"), ("k", "64")]),
    ("gemm", &[("m", "256"), ("n", "256"), ("k", "128")]),
    ("layernorm", &[("rows", "64"), ("hidden", "256")]),
    ("layernorm", &[("rows", "128"), ("hidden", "512")]),
    ("softmax", &[("rows", "64"), ("cols", "256")]),
    ("softmax", &[("rows", "128"), ("cols", "512")]),
    ("fmha", &[("heads", "1"), ("seq", "128"), ("d", "64")]),
    ("fmha", &[("heads", "2"), ("seq", "128"), ("d", "64")]),
];
/// `lint prove=true` targets: the kernels whose proofs take real work
/// (tens of ms for GEMM, ~100 ms for FMHA), so lint is a broad slow
/// class that holds the p99 rather than a sliver at its edge.
const LINTS: [(&str, Opts); 4] = [
    ("gemm", &[("m", "256"), ("n", "256"), ("k", "64")]),
    ("gemm", &[("m", "256"), ("n", "128"), ("k", "128")]),
    ("fmha", &[("heads", "1"), ("seq", "128"), ("d", "64")]),
    ("fmha", &[("heads", "2"), ("seq", "128"), ("d", "64")]),
];
/// The small `run-graph` encoder.
const GRAPH: Opts =
    &[("layers", "1"), ("seq", "64"), ("hidden", "256"), ("heads", "4"), ("ffn", "256")];
/// `tune` targets (short enough to answer synchronously).
const TUNES: [(&str, Opts); 2] = [
    ("layernorm", &[("rows", "512"), ("hidden", "512"), ("search", "exhaustive")]),
    ("layernorm", &[("rows", "1024"), ("hidden", "1024"), ("search", "exhaustive")]),
];

/// One request of the stream: a command class and a working-set key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `run exec=replay` of `RUNS[i]`.
    Replay(usize),
    /// `run` on the default plan engine of `RUNS[i]`.
    Plan(usize),
    /// `lint prove=true` of `LINTS[i]`.
    Lint(usize),
    /// `run-graph exec=replay` of the small encoder.
    Graph,
    /// `tune` of `TUNES[i]`.
    Tune(usize),
}

impl Req {
    /// The `i`-th request of the seeded stream.
    pub fn draw(seed: u64, i: u64) -> Req {
        let mut r = Rng::new(seed, 1 << 32 | i);
        match r.below(1000) {
            0..=799 => Req::Replay(r.below(RUNS.len())),
            800..=879 => Req::Plan(r.below(RUNS.len())),
            880..=949 => Req::Lint(r.below(LINTS.len())),
            950..=979 => Req::Graph,
            _ => Req::Tune(r.below(TUNES.len())),
        }
    }

    /// Every distinct request once: the cold sweep.
    fn distinct() -> Vec<Req> {
        let mut v: Vec<Req> = (0..RUNS.len()).map(Req::Replay).collect();
        v.extend((0..RUNS.len()).map(Req::Plan));
        v.extend((0..LINTS.len()).map(Req::Lint));
        v.push(Req::Graph);
        v.extend((0..TUNES.len()).map(Req::Tune));
        v
    }

    /// The wire line.
    pub fn line(self, id: u64) -> String {
        let (cmd, opts, extra): (&str, Opts, &[(&str, &str)]) = match self {
            Req::Replay(i) => ("run", RUNS[i].1, &[("exec", "replay")]),
            Req::Plan(i) => ("run", RUNS[i].1, &[]),
            Req::Lint(i) => ("lint", LINTS[i].1, &[("prove", "true")]),
            Req::Graph => ("run-graph", GRAPH, &[("exec", "replay")]),
            Req::Tune(i) => ("tune", TUNES[i].1, &[]),
        };
        let kernel = match self {
            Req::Replay(i) | Req::Plan(i) => Some(RUNS[i].0),
            Req::Lint(i) => Some(LINTS[i].0),
            Req::Tune(i) => Some(TUNES[i].0),
            Req::Graph => None,
        };
        let mut s = format!("{{\"id\":{id},\"cmd\":\"{cmd}\"");
        if let Some(k) = kernel {
            s.push_str(&format!(",\"kernel\":\"{k}\""));
        }
        for (k, v) in opts.iter().chain(extra) {
            s.push_str(&format!(",\"{k}\":\"{v}\""));
        }
        s.push('}');
        s
    }
}

/// A daemon checksum the benchmark computed itself: the sum of every
/// parameter buffer, and the magnitude that bounds its rounding.
#[derive(Debug, Clone, Copy)]
struct Expected {
    sum: f64,
    scale: f64,
}

fn expect(bufs: &[&[f32]]) -> Expected {
    let vals = || bufs.iter().flat_map(|b| b.iter()).map(|&x| f64::from(x));
    Expected { sum: vals().sum(), scale: vals().map(f64::abs).sum() }
}

fn opt_map(opts: Opts) -> HashMap<String, String> {
    opts.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

fn dim(opts: Opts, key: &str) -> usize {
    opts.iter().find(|(k, _)| *k == key).and_then(|(_, v)| v.parse().ok()).expect("dimension")
}

/// Expected checksums of every `run` key and of the encoder. The daemon
/// seeds parameter `i` with `HostTensor::random(len, 1000 + i)` (its
/// documented contract); the outputs come from host math, and for the
/// encoder from the plan engine on the default lowering.
fn prepare() -> Result<(Vec<Expected>, Expected), String> {
    let runs = RUNS
        .iter()
        .map(|&(name, opts)| -> Result<Expected, String> {
            let nk = graphene_kernels::catalog::build_named(name, Arch::Sm86, &opt_map(opts))?;
            let plan = KernelPlan::compile(&nk.kernel, Arch::Sm86).map_err(|e| e.to_string())?;
            let p: Vec<HostTensor> = plan
                .params()
                .iter()
                .enumerate()
                .map(|(i, (_, _, len))| HostTensor::random(&[*len], 1000 + i as u64))
                .collect();
            let t =
                |dims: &[usize], x: &HostTensor| HostTensor::from_vec(dims, x.as_slice().to_vec());
            let out = match name {
                "gemm" => {
                    let (m, n, k) = (dim(opts, "m"), dim(opts, "n"), dim(opts, "k"));
                    matmul_ref(&t(&[m, k], &p[0]), &t(&[k, n], &p[1]))
                }
                "layernorm" => {
                    let (r, h) = (dim(opts, "rows"), dim(opts, "hidden"));
                    layernorm_ref(&t(&[r, h], &p[0]), p[1].as_slice(), p[2].as_slice(), 1e-5)
                }
                "softmax" => softmax_ref(&t(&[dim(opts, "rows"), dim(opts, "cols")], &p[0])),
                _ => {
                    let (heads, seq, d) = (dim(opts, "heads"), dim(opts, "seq"), dim(opts, "d"));
                    let head = |x: &HostTensor, h: usize| {
                        HostTensor::from_vec(
                            &[seq, d],
                            x.as_slice()[h * seq * d..][..seq * d].to_vec(),
                        )
                    };
                    let o: Vec<f32> = (0..heads)
                        .flat_map(|h| {
                            attention_ref(&head(&p[0], h), &head(&p[1], h), &head(&p[2], h))
                                .as_slice()
                                .to_vec()
                        })
                        .collect();
                    HostTensor::from_vec(&[heads * seq, d], o)
                }
            };
            let mut bufs: Vec<&[f32]> = p[..p.len() - 1].iter().map(HostTensor::as_slice).collect();
            bufs.push(out.as_slice());
            Ok(expect(&bufs))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let g = encoder_graph(1, 1, dim(GRAPH, "seq") as i64, 256, 4, 256);
    let eg = lower_executable(&g, Arch::Sm86, ExecLowering::Default)?;
    let inputs: HashMap<String, Vec<f32>> = eg
        .externals()
        .iter()
        .enumerate()
        .map(|(i, (name, len))| {
            (name.clone(), HostTensor::random(&[*len], 1000 + i as u64).as_slice().to_vec())
        })
        .collect();
    let o = execute_graph(&eg, &inputs, ExecMode::Parallel).map_err(|e| e.to_string())?;
    let mut outs: Vec<_> = o.outputs.iter().collect();
    outs.sort_by_key(|(t, _)| **t);
    let bufs: Vec<&[f32]> = outs.iter().map(|(_, v)| v.as_slice()).collect();
    Ok((runs, expect(&bufs)))
}

/// A running in-process daemon.
pub struct Daemon {
    addr: String,
    state: Arc<ServerState>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds a daemon with one request worker per core and starts it:
    /// the serve workload's set-up.
    pub fn start() -> Result<Daemon, String> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let server = Server::bind(ServeOptions { workers, ..ServeOptions::default() })
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let state = server.state();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, state, thread })
    }

    /// Drains the daemon and waits for its threads.
    pub fn stop(self) -> Result<(), String> {
        self.state.start_drain();
        match self.thread.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// What the clients saw, shared read-only across client threads.
struct Shared {
    runs: Vec<Expected>,
    graph: Expected,
    winners: HashMap<usize, String>,
    instructions: HashMap<usize, f64>,
}

/// One client's observations.
#[derive(Default)]
struct Seen {
    tally: Tally,
    latency: Vec<f64>,
    exec_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    replays: u64,
    trace_hits: u64,
    runs: u64,
    plan_hits: u64,
    winners: Vec<(usize, String)>,
    instructions: Vec<(usize, f64)>,
    done: u64,
}

fn field<'j>(v: &'j Json, path: &[&str]) -> Option<&'j Json> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// The daemon's own account of where a request's time went, as a
/// layer span name and seconds.
fn daemon_time(req: Req, resp: &str) -> Option<(&'static str, f64)> {
    let v = parse(resp).ok()?;
    let wall = field(&v, &["wall_ms"]).and_then(Json::as_f64).map(|ms| ms / 1e3);
    let handler = field(&v, &["elapsed_us"]).and_then(Json::as_f64).map(|us| us / 1e6);
    let hit = |k| field(&v, &[k]) == Some(&Json::Bool(true));
    match req {
        Req::Replay(_) if hit("trace_hit") => Some(("sim.replay", wall?)),
        Req::Replay(_) => Some(("sim.record", wall?)),
        Req::Plan(_) => Some(("sim.plan_exec", wall?)),
        Req::Graph if hit("graph_hit") => Some(("sim.graph_replay", wall?)),
        Req::Graph => Some(("sim.graph_record", wall?)),
        Req::Lint(_) => Some(("analysis.lint", handler?)),
        Req::Tune(_) => Some(("tune.search", handler?)),
    }
}

/// Checks one response and folds it into `seen`. `cold` marks the sweep
/// (fresh daemon, so tunes must miss the db).
fn observe(req: Req, resp: &str, lat: f64, cold: bool, shared: &Shared, seen: &mut Seen) {
    let verdict = (|| -> Result<(), String> {
        let v = parse(resp).map_err(|e| format!("unparsable response: {e}"))?;
        if field(&v, &["ok"]) != Some(&Json::Bool(true)) {
            return Err(format!("request failed: {resp}"));
        }
        let num = |path: &[&str]| field(&v, path).and_then(Json::as_f64);
        let checksum = || num(&["checksum"]).ok_or("response has no checksum");
        match req {
            Req::Replay(i) | Req::Plan(i) => {
                let e = shared.runs[i];
                checksum_close(checksum()?, e.sum, e.scale, RUNS[i].0)?;
                let wall = num(&["wall_ms"]).ok_or("run response has no wall_ms")?;
                if !cold {
                    seen.exec_ms.push(wall);
                    seen.overhead_ms.push(lat * 1e3 - wall);
                }
                seen.runs += 1;
                seen.plan_hits += u64::from(field(&v, &["plan_hit"]) == Some(&Json::Bool(true)));
                if matches!(req, Req::Replay(_)) {
                    seen.replays += 1;
                    seen.trace_hits +=
                        u64::from(field(&v, &["trace_hit"]) == Some(&Json::Bool(true)));
                }
                let ins =
                    num(&["counters", "instructions"]).ok_or("run response has no counters")?;
                match shared.instructions.get(&i) {
                    Some(&want) if want != ins => {
                        return Err(format!(
                            "{}: {ins} instructions, first run had {want}",
                            RUNS[i].0
                        ))
                    }
                    Some(_) => {}
                    None => seen.instructions.push((i, ins)),
                }
            }
            Req::Graph => {
                checksum_close(checksum()?, shared.graph.sum, shared.graph.scale, "run-graph")?;
            }
            Req::Lint(i) => {
                if num(&["errors"]) != Some(0.0) {
                    return Err(format!("lint {} reports errors: {resp}", LINTS[i].0));
                }
                let out = field(&v, &["output"]).and_then(Json::as_str).unwrap_or("");
                if !out.contains("proof (F2 symbolic)") {
                    return Err(format!("lint {} carries no proof report", LINTS[i].0));
                }
            }
            Req::Tune(i) => {
                let hit = field(&v, &["db_hit"]) == Some(&Json::Bool(true));
                let sims = num(&["stats", "simulated"]).unwrap_or(-1.0);
                let winner =
                    field(&v, &["winner"]).and_then(Json::as_str).unwrap_or("").to_string();
                if cold {
                    if hit || sims <= 0.0 {
                        return Err(format!("cold tune {i} did not search: {resp}"));
                    }
                    seen.winners.push((i, winner));
                } else if !hit || sims != 0.0 || shared.winners.get(&i) != Some(&winner) {
                    return Err(format!(
                        "warm tune {i} is not a db hit with the cold winner: {resp}"
                    ));
                }
            }
        }
        Ok(())
    })();
    seen.tally.record(verdict);
}

/// One client: its connection, tracer, position in the stream and
/// what it has seen.
struct Client {
    c: usize,
    conn: Connection,
    tr: Tracer,
    next: u64,
    seen: Seen,
}

impl Client {
    fn connect(cfg: &Config, daemon: &Daemon, c: usize) -> Result<Client, String> {
        let conn = Connection::connect(&daemon.addr, TIMEOUT)
            .map_err(|e| format!("client {c} cannot connect: {e}"))?;
        let tr = Tracer::new(cfg.traced, cfg.epoch, c as u32);
        Ok(Client { c, conn, tr, next: 0, seen: Seen::default() })
    }

    /// Sends one request and checks the response. Returns `false` when
    /// the connection failed.
    fn send(&mut self, req: Req, cold: bool, shared: &Shared) -> bool {
        let id = self.next * CLIENTS as u64 + self.c as u64;
        let (tr, conn) = (&self.tr, &mut self.conn);
        let ((resp, lat), _) = tr.op(id, || {
            tr.span("serve.request", || {
                let t = Instant::now();
                let resp = conn.request(&req.line(id));
                let lat = t.elapsed().as_secs_f64();
                if let (true, Ok(r)) = (tr.is_on(), &resp) {
                    if let Some((name, secs)) = daemon_time(req, r) {
                        tr.child(name, secs);
                    }
                }
                (resp, lat)
            })
        });
        self.next += 1;
        match resp {
            Ok(r) => {
                observe(req, &r, lat, cold, shared, &mut self.seen);
                if !cold {
                    self.seen.latency.push(lat);
                }
                true
            }
            Err(e) => {
                self.seen.tally.record(Err(format!("client {}: {e}", self.c)));
                false
            }
        }
    }
}

/// Runs every client on its own thread until `work` returns, and
/// returns the wall time they took together.
fn together(clients: &mut [Client], work: impl Fn(&mut Client) + Sync) -> f64 {
    let start = Barrier::new(clients.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|cl| {
                let (start, work) = (&start, &work);
                s.spawn(move || {
                    start.wait();
                    work(cl);
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().expect("client thread panicked");
        }
        t0.elapsed().as_secs_f64()
    })
}

/// Stream segments per timed window; the set-up probes and the later
/// cold sweeps run between them, while no stream request is in flight.
const SEGMENTS: u32 = 10;

/// One cold sweep: every distinct request once against a fresh daemon.
/// Returns its wall time with the daemon and its connections.
fn sweep(cfg: &Config, shared: &mut Shared) -> Result<(f64, Daemon, Vec<Client>), String> {
    cfg.checkpoint();
    let daemon = Daemon::start()?;
    let mut clients =
        (0..CLIENTS).map(|c| Client::connect(cfg, &daemon, c)).collect::<Result<Vec<_>, _>>()?;
    let all = Req::distinct();
    let shared_now = &*shared;
    let secs = together(&mut clients, |cl| {
        for &req in all.iter().skip(cl.c).step_by(CLIENTS) {
            if !cl.send(req, true, shared_now) {
                break;
            }
        }
    });
    // Winners and instruction counts from the first sweep are what
    // every later response must match.
    for cl in &mut clients {
        shared.winners.extend(cl.seen.winners.drain(..));
        shared.instructions.extend(cl.seen.instructions.drain(..));
    }
    Ok((secs, daemon, clients))
}

/// Runs the workload: a cold sweep against a fresh daemon, then the
/// closed-loop stream against it, with more cold sweeps against fresh
/// side daemons spread between the stream's segments.
pub fn run(cfg: &Config, tally: &mut Tally) -> Result<Output, String> {
    let (runs, graph) = prepare()?;
    let mut shared = Shared { runs, graph, winners: HashMap::new(), instructions: HashMap::new() };
    let mut out = Output::default();
    let mut spans: Vec<Vec<Span>> = Vec::new();
    let mut seen_all: Vec<Seen> = Vec::new();
    let mut retire = |clients: Vec<Client>, seen_all: &mut Vec<Seen>| {
        for cl in clients {
            spans.push(cl.tr.into_spans());
            seen_all.push(cl.seen);
        }
    };

    // The first cold sweep's daemon and connections serve the stream;
    // later sweeps run against fresh side daemons between segments.
    let (first, daemon, mut clients) = sweep(cfg, &mut shared)?;
    let mut cold = vec![first];

    // The closed-loop stream, in segments when timed.
    let window = Instant::now();
    let segments = if matches!(cfg.budget, Budget::Time(_)) { SEGMENTS } else { 1 };
    let mut wall = 0.0;
    for k in 1..=segments {
        let until = match cfg.budget {
            Budget::Time(secs) => {
                Some(window + Duration::from_secs_f64(secs * f64::from(k) / f64::from(segments)))
            }
            Budget::Ops(_) => None,
        };
        let shared_now = &shared;
        wall += together(&mut clients, |cl| {
            while cfg.budget.more(cl.c, cl.seen.done, window)
                && until.is_none_or(|u| Instant::now() < u)
            {
                let req = Req::draw(cfg.seed, cl.seen.done * CLIENTS as u64 + cl.c as u64);
                if !cl.send(req, false, shared_now) {
                    break;
                }
                cl.seen.done += 1;
            }
        });
        cfg.checkpoint();
        if segments > 1 && k % (segments / (SWEEPS as u32 - 1)) == 0 && cold.len() < SWEEPS {
            let (secs, side, side_clients) = sweep(cfg, &mut shared)?;
            cold.push(secs);
            retire(side_clients, &mut seen_all);
            side.stop()?;
        }
    }
    out.cold_s = crate::stats::median(&cold).expect("at least one sweep");
    let mut exec_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    for cl in &clients {
        out.op_secs.extend(&cl.seen.latency);
        out.ops_done.push(cl.seen.done);
        exec_ms.extend(&cl.seen.exec_ms);
        overhead_ms.extend(&cl.seen.overhead_ms);
    }
    retire(clients, &mut seen_all);
    out.throughput = out.op_secs.len() as f64 / wall;
    out.warm_op_s = out.op_secs.iter().sum();

    // Daemon-side counters, over a fresh connection.
    let stats = graphene_serve::client::request(&daemon.addr, r#"{"cmd":"stats"}"#, TIMEOUT)
        .map_err(|e| format!("stats: {e}"))?;
    daemon.stop()?;
    let v = parse(&stats).map_err(|e| format!("stats: {e}"))?;
    let num = |path: &[&str]| field(&v, path).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let (mut replays, mut trace_hits, mut runs_seen, mut plan_hits) = (0u64, 0u64, 0u64, 0u64);
    for s in seen_all {
        replays += s.replays;
        trace_hits += s.trace_hits;
        runs_seen += s.runs;
        plan_hits += s.plan_hits;
        tally.absorb(s.tally);
    }
    out.counts = BTreeMap::from([
        ("serve.rejections", num(&["busy_rejected"]) + num(&["deadline_rejected"])),
        ("serve.trace_resident_bytes", num(&["caches", "traces", "resident_bytes"])),
        ("serve.trace_hit_ratio", trace_hits as f64 / replays.max(1) as f64),
        ("serve.plan_hit_ratio", plan_hits as f64 / runs_seen.max(1) as f64),
        ("serve.exec_ms", crate::stats::median(&exec_ms).unwrap_or(0.0)),
        ("serve.overhead_ms", crate::stats::median(&overhead_ms).unwrap_or(0.0)),
        ("sim.instructions", shared.instructions.values().sum()),
    ]);
    out.spans = crate::trace::merge(spans);
    let s = crate::stats::summarize(&out.op_secs, 99.0);
    out.notes = vec![
        format!("serve_rps {:.2} 1/s ({} clients, closed loop)", out.throughput, CLIENTS),
        format!(
            "serve_p50_ms {:.3} ms, serve_p99_ms {:.3} ms over {} requests",
            s.map_or(0.0, |s| s.p50 * 1e3),
            s.map_or(0.0, |s| s.tail * 1e3),
            s.map_or(0, |s| s.n)
        ),
        format!("cold sweep {:.4} s (median of {} fresh daemons)", out.cold_s, cold.len()),
    ];
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_seeded_and_mixed_as_specified() {
        let a: Vec<Req> = (0..4000).map(|i| Req::draw(11, i)).collect();
        let b: Vec<Req> = (0..4000).map(|i| Req::draw(11, i)).collect();
        let c: Vec<Req> = (0..4000).map(|i| Req::draw(12, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let share = |f: fn(&Req) -> bool| a.iter().filter(|r| f(r)).count() as f64 / 4000.0;
        assert!((share(|r| matches!(r, Req::Replay(_))) - 0.80).abs() < 0.03);
        assert!((share(|r| matches!(r, Req::Plan(_))) - 0.08).abs() < 0.02);
        assert!((share(|r| matches!(r, Req::Lint(_))) - 0.07).abs() < 0.02);
        assert!((share(|r| matches!(r, Req::Graph)) - 0.03).abs() < 0.015);
        assert!((share(|r| matches!(r, Req::Tune(_))) - 0.02).abs() < 0.01);
        let lines: Vec<String> = a.iter().enumerate().map(|(i, r)| r.line(i as u64)).collect();
        assert!(lines.iter().all(|l| parse(l).is_ok()));
    }

    #[test]
    fn the_sweep_covers_every_distinct_request() {
        let all = Req::distinct();
        assert_eq!(all.len(), 2 * RUNS.len() + LINTS.len() + 1 + TUNES.len());
        let stream: std::collections::HashSet<String> =
            (0..20_000).map(|i| Req::draw(3, i).line(0)).collect();
        let sweep: std::collections::HashSet<String> = all.iter().map(|r| r.line(0)).collect();
        assert_eq!(stream, sweep, "the stream draws exactly the swept working set");
    }
}
