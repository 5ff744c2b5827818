//! Request handlers: one function per wire command, all routed through
//! [`dispatch`].
//!
//! Handlers delegate kernel/space construction to the shared catalogs
//! (`graphene_kernels::catalog`, `graphene_tune::catalog`) and
//! execution to the same front door as the one-shot CLI
//! ([`graphene_sim::Engine`] and its seeded inputs), so a daemon
//! response is bit-identical to the corresponding CLI run.

use crate::jobs::{Job, JobState};
use crate::proto::{err_envelope, ok_envelope, parse_request, Obj, Request};
use crate::state::ServerState;
use graphene_ir::Arch;
use graphene_sim::{seeded_externals, seeded_inputs, Digest, Engine, TraceKey};
use std::sync::atomic::Ordering;

/// Parses one request line, routes it, and renders the response line.
/// Also records per-command latency and the malformed counter — this
/// is the single entry point worker threads call.
pub fn dispatch(state: &ServerState, line: &str) -> String {
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            state.metrics.malformed.fetch_add(1, Ordering::Relaxed);
            return err_envelope(0, &e);
        }
    };
    state.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
    let start = std::time::Instant::now();
    let result = match req.cmd.as_str() {
        "lint" => lint(&req),
        "run" => run(state, &req),
        "run-graph" => run_graph(state, &req),
        "tune" => tune(state, &req),
        "poll" => poll(state, &req),
        "cancel" => cancel(state, &req),
        "stats" => Ok(stats(state)),
        "shutdown" => {
            state.start_drain();
            Ok(Obj::new().bool("draining", true))
        }
        other => Err(format!(
            "unknown cmd `{other}` (lint|run|run-graph|tune|poll|cancel|stats|shutdown)"
        )),
    };
    let us = start.elapsed().as_micros() as u64;
    state.metrics.record(&req.cmd, us);
    state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    match result {
        Ok(fields) => ok_envelope(req.id, fields.num("elapsed_us", us)),
        Err(e) => err_envelope(req.id, &e),
    }
}

fn flag(req: &Request, key: &str) -> bool {
    matches!(req.opt(key), Some("true" | "1" | "yes"))
}

/// `lint`: the full static-analysis pipeline, with `--prove` and
/// `--emit text|json` semantics matching the CLI (the `output` field
/// carries the CLI's exact rendering).
fn lint(req: &Request) -> Result<Obj, String> {
    let name = req.opt("kernel").ok_or("lint needs a `kernel` field")?;
    let arch = Arch::parse(req.opt("arch"))?;
    let nk = graphene_kernels::catalog::build_named(name, arch, &req.opts)?;
    let mut plans = graphene_sim::PlanCache::new();
    let diags = graphene_analysis::analyze_kernel_cached(&nk.kernel, arch, &mut plans);
    let errors = graphene_analysis::error_count(&diags);
    let report = flag(req, "prove")
        .then(|| graphene_analysis::prove::prove_kernel_cached(&nk.kernel, arch, &mut plans));
    let output = match req.opt("emit") {
        None | Some("text") => {
            use std::fmt::Write as _;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "lint {} ({arch}): {} diagnostics, {errors} errors",
                nk.kernel.name,
                diags.len()
            );
            for d in &diags {
                let _ = writeln!(out, "  {d}");
            }
            if let Some(r) = &report {
                out.push_str(&r.render_text());
            }
            out
        }
        Some("json") => {
            let mut json = graphene_analysis::render_json(&nk.kernel.name, &diags);
            if let Some(r) = &report {
                let trimmed = json.trim_end().strip_suffix('}').map(str::to_string);
                json = trimmed.unwrap_or(json);
                json.push_str(&format!(",\"proof\":{}}}\n", r.render_json()));
            }
            json
        }
        Some(other) => return Err(format!("unknown emit `{other}` (text|json)")),
    };
    Ok(Obj::new()
        .str("kernel", &nk.kernel.name)
        .str("problem", &nk.problem)
        .num("diagnostics", diags.len() as u64)
        .num("errors", errors as u64)
        .str("output", &output))
}

/// `run`: execute a kernel. `exec` selects the engine exactly like the
/// CLI; the compiled plan comes from the resident plan cache, and the
/// replay engine serves from the resident trace cache — a repeated
/// request replays without recording (`trace_hit: true`).
fn run(state: &ServerState, req: &Request) -> Result<Obj, String> {
    let name = req.opt("kernel").ok_or("run needs a `kernel` field")?;
    let arch = Arch::parse(req.opt("arch"))?;
    let engine = Engine::parse(req.opt("exec"))?;
    let (entry, plan_hit) = state.plan_for(name, arch, &req.opts)?;
    let inputs = seeded_inputs(entry.plan.params());
    // The reference interpreter needs the kernel IR itself, so that
    // path (the slow oracle) rebuilds rather than caching kernels.
    let kernel = match engine {
        Engine::Reference => Some(graphene_kernels::catalog::build_named(name, arch, &req.opts)?),
        _ => None,
    };
    let key = TraceKey { kernel: entry.kernel_name.clone(), problem: entry.problem.clone(), arch };
    let start = std::time::Instant::now();
    let (outcome, trace_hit) = engine
        .execute(kernel.as_ref().map(|nk| &nk.kernel), &entry.plan, &state.traces, &key, &inputs)
        .map_err(|e| e.to_string())?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut fields = Obj::new()
        .str("kernel", &entry.kernel_name)
        .str("problem", &entry.problem)
        .str("engine", engine.label())
        .str(
            "launch",
            &format!("{} blocks x {} threads", entry.plan.grid_size(), entry.plan.block_size()),
        )
        .bool("plan_hit", plan_hit);
    if let Some(hit) = trace_hit {
        fields = fields.bool("trace_hit", hit);
    }
    Ok(result_fields(fields, wall_ms, &outcome.counters, outcome.digest()))
}

/// The fields every execution response ends with.
fn result_fields(fields: Obj, wall_ms: f64, c: &graphene_sim::Counters, digest: Digest) -> Obj {
    fields
        .raw("wall_ms", &format!("{wall_ms:.3}"))
        .raw(
            "counters",
            &format!(
                "{{\"instructions\":{},\"flops_tc\":{},\"flops_fma\":{},\"syncs\":{}}}",
                c.instructions, c.flops_tc, c.flops_fma, c.syncs
            ),
        )
        .raw("checksum", &format!("{:.6}", digest.checksum))
        .str("hash", &format!("{:016x}", digest.hash))
}

/// `run-graph`: build and execute a whole encoder graph; the replay
/// engine serves from the resident graph-trace cache.
fn run_graph(state: &ServerState, req: &Request) -> Result<Obj, String> {
    use graphene_kernels::exec_lower::{lower_executable, ExecLowering};
    use graphene_kernels::graph::encoder_graph;

    let int = |key: &str, default: i64| graphene_kernels::catalog::opt_int(&req.opts, key, default);
    let (layers, batch, seq) = (int("layers", 2)?, int("batch", 1)?, int("seq", 128)?);
    let (hidden, heads, ffn) = (int("hidden", 256)?, int("heads", 4)?, int("ffn", 1024)?);
    let arch = Arch::parse(req.opt("arch"))?;
    let lowering = match req.opt("lowering") {
        None | Some("fused") => ExecLowering::Fused,
        Some("default") => ExecLowering::Default,
        Some(other) => return Err(format!("unknown lowering `{other}` (default|fused)")),
    };
    let engine = Engine::parse_graph(req.opt("exec"))?;

    let graph = encoder_graph(layers, batch, seq, hidden, heads, ffn);
    let eg = lower_executable(&graph, arch, lowering)?;
    let ws = eg.workspace();
    let inputs = seeded_externals(&eg);

    let start = std::time::Instant::now();
    let (outcome, graph_hit) = engine
        .execute_graph(&eg, &state.graphs, &state.traces, &inputs)
        .map_err(|e| e.to_string())?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut fields = Obj::new()
        .raw(
            "graph",
            &format!(
                "{{\"layers\":{layers},\"batch\":{batch},\"seq\":{seq},\"hidden\":{hidden},\
                 \"heads\":{heads},\"ffn\":{ffn},\"ops\":{}}}",
                graph.ops.len()
            ),
        )
        .str("lowering", lowering.label())
        .num("launches", eg.nodes.len() as u64)
        .raw(
            "arena",
            &format!(
                "{{\"planned_bytes\":{},\"naive_bytes\":{}}}",
                ws.arena_bytes(),
                ws.naive_bytes()
            ),
        )
        .str("engine", engine.graph_label());
    if let Some(hit) = graph_hit {
        fields = fields.bool("graph_hit", hit);
    }
    Ok(result_fields(fields, wall_ms, &outcome.counters, outcome.digest()))
}

/// Renders a finished tune report as response fields — shared by the
/// synchronous path and job workers (`poll` returns the same object).
fn tune_fields(report: &graphene_tune::TuneReport, arch: Arch) -> Obj {
    let s = &report.stats;
    Obj::new()
        .str("space", &report.space)
        .str("problem", &report.problem)
        .str("arch", &format!("{arch:?}"))
        .str("winner", &report.best_desc)
        .raw("best_time_s", &format!("{:e}", report.best_time_s))
        .raw(
            "stats",
            &format!(
                "{{\"proposed\":{},\"pruned_constraint\":{},\"pruned_analysis\":{},\
                 \"simulated\":{},\"cost_replayed\":{},\"db_hit\":{}}}",
                s.proposed,
                s.pruned_constraint,
                s.pruned_analysis,
                s.simulated,
                s.cost_replayed,
                s.db_hit
            ),
        )
        .bool("db_hit", s.db_hit)
}

/// `tune`: short searches run synchronously; searches whose planned
/// proposal count exceeds the server's limit (or that pass
/// `"job":true`) are enqueued and answered with a job id for `poll`.
fn tune(state: &ServerState, req: &Request) -> Result<Obj, String> {
    let arch = Arch::parse(req.opt("arch"))?;
    let kernel = req.opt("kernel").unwrap_or("gemm");
    let space = graphene_tune::catalog::space_from_options(kernel, arch, &req.opts)?;
    let opts = graphene_tune::catalog::options_from_options(&req.opts)?;
    let planned = graphene_tune::planned_proposals(space.as_ref(), &opts.search);
    if flag(req, "job") || planned > state.sync_tune_limit {
        let job = state.jobs.submit(req.clone(), planned);
        return Ok(Obj::new()
            .num("job", job.id)
            .str("state", "queued")
            .num("planned", planned as u64));
    }
    let report = graphene_tune::tune_observed(
        space.as_ref(),
        &opts,
        Some(&state.db),
        Some(&state.costs),
        None,
    )
    .map_err(|e| e.to_string())?;
    if report.stats.db_hit {
        state.db_hits.fetch_add(1, Ordering::Relaxed);
    }
    Ok(tune_fields(&report, arch))
}

/// Runs one dequeued tune job to completion — called by the server's
/// job-worker threads. Progress flows through the job's observer;
/// cancellation aborts between batches.
pub fn run_tune_job(state: &ServerState, req: &Request, job: &Job) {
    let outcome = (|| -> Result<String, String> {
        let arch = Arch::parse(req.opt("arch"))?;
        let kernel = req.opt("kernel").unwrap_or("gemm");
        let space = graphene_tune::catalog::space_from_options(kernel, arch, &req.opts)?;
        let opts = graphene_tune::catalog::options_from_options(&req.opts)?;
        let report = graphene_tune::tune_observed(
            space.as_ref(),
            &opts,
            Some(&state.db),
            Some(&state.costs),
            Some(&job.progress),
        )
        .map_err(|e| e.to_string())?;
        if report.stats.db_hit {
            state.db_hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(tune_fields(&report, arch).finish())
    })();
    state.jobs.finish(job, outcome);
}

fn job_id(req: &Request) -> Result<u64, String> {
    req.opt("job")
        .ok_or("needs a `job` field")?
        .parse()
        .map_err(|_| "`job` must be a job id".to_string())
}

/// `poll`: a job's state and progress; a finished job carries its
/// result object.
fn poll(state: &ServerState, req: &Request) -> Result<Obj, String> {
    let id = job_id(req)?;
    let job = state.jobs.get(id).ok_or_else(|| format!("unknown job id {id}"))?;
    let (done, planned) = job.progress_counts();
    let js = job.state();
    let mut fields = Obj::new().num("job", id).str("state", js.label()).raw(
        "progress",
        &format!(
            "{{\"proposed\":{done},\"planned\":{planned},\"fraction\":{:.4}}}",
            job.fraction()
        ),
    );
    match js {
        JobState::Done(result) => fields = fields.raw("result", &result),
        JobState::Failed(e) => fields = fields.str("job_error", &e),
        _ => {}
    }
    Ok(fields)
}

/// `cancel`: cooperative cancellation; reports the state the job was
/// in when the request arrived.
fn cancel(state: &ServerState, req: &Request) -> Result<Obj, String> {
    let id = job_id(req)?;
    let was = state.jobs.cancel(id).ok_or_else(|| format!("unknown job id {id}"))?;
    let job = state.jobs.get(id).ok_or_else(|| format!("unknown job id {id}"))?;
    Ok(Obj::new().num("job", id).str("was", was.label()).str("state", job.state().label()))
}

/// `stats`: per-cache hit/miss/eviction counters, request latency
/// histograms, and queue gauges.
fn stats(state: &ServerState) -> Obj {
    let (plan_hits, plan_misses, plan_len) = state.plan_stats();
    let (jobs_queued, jobs_running, jobs_finished) = state.jobs.counts();
    let m = &state.metrics;
    Obj::new()
        .raw("requests", &m.render_json())
        .raw(
            "caches",
            &Obj::new()
                .raw(
                    "plans",
                    &format!(
                        "{{\"hits\":{plan_hits},\"misses\":{plan_misses},\"entries\":{plan_len}}}"
                    ),
                )
                .raw(
                    "traces",
                    &format!(
                        "{{\"hits\":{},\"recordings\":{},\"evictions\":{},\"entries\":{},\
                         \"resident_bytes\":{}}}",
                        state.traces.hits(),
                        state.traces.recordings(),
                        state.traces.evictions(),
                        state.traces.len(),
                        state.traces.resident_bytes()
                    ),
                )
                .raw(
                    "graphs",
                    &format!(
                        "{{\"hits\":{},\"recordings\":{},\"evictions\":{},\"entries\":{},\
                         \"resident_bytes\":{}}}",
                        state.graphs.hits(),
                        state.graphs.recordings(),
                        state.graphs.evictions(),
                        state.graphs.len(),
                        state.graphs.resident_bytes()
                    ),
                )
                .raw(
                    "costs",
                    &format!(
                        "{{\"replays\":{},\"recordings\":{}}}",
                        state.costs.replays(),
                        state.costs.recordings()
                    ),
                )
                .raw(
                    "tune_db",
                    &format!(
                        "{{\"hits\":{},\"entries\":{},\"persistent\":{}}}",
                        state.db_hits.load(Ordering::Relaxed),
                        state.db.len(),
                        state.db.is_persistent()
                    ),
                )
                .finish(),
        )
        .raw(
            "jobs",
            &format!(
                "{{\"queued\":{jobs_queued},\"running\":{jobs_running},\
                 \"finished\":{jobs_finished}}}"
            ),
        )
        .num("in_flight", m.in_flight.load(Ordering::Relaxed))
        .num("queued", m.queued.load(Ordering::Relaxed))
        .num("busy_rejected", m.busy_rejected.load(Ordering::Relaxed))
        .num("deadline_rejected", m.deadline_rejected.load(Ordering::Relaxed))
        .num("malformed", m.malformed.load(Ordering::Relaxed))
        .bool("draining", state.is_draining())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_tune::json::{parse, Json};

    fn get<'j>(v: &'j Json, path: &[&str]) -> &'j Json {
        path.iter().fold(v, |v, k| v.get(k).unwrap_or_else(|| panic!("missing field {k}")))
    }

    #[test]
    fn run_twice_hits_plan_and_trace_caches_with_identical_checksums() {
        let state = ServerState::new(None);
        let line = r#"{"id":1,"cmd":"run","kernel":"gemm","m":256,"n":256,"k":64,"exec":"replay"}"#;
        let cold = parse(&dispatch(&state, line)).unwrap();
        assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold:?}");
        assert_eq!(get(&cold, &["trace_hit"]), &Json::Bool(false));
        let warm = parse(&dispatch(&state, line)).unwrap();
        assert_eq!(get(&warm, &["trace_hit"]), &Json::Bool(true));
        assert_eq!(get(&warm, &["plan_hit"]), &Json::Bool(true));
        assert_eq!(
            get(&cold, &["checksum"]).as_f64(),
            get(&warm, &["checksum"]).as_f64(),
            "replayed run must be bit-identical to the recording run"
        );
        assert_eq!(get(&cold, &["hash"]).as_str(), get(&warm, &["hash"]).as_str());
        // And every other engine agrees with replay, to the bit.
        for exec in ["reference", "sequential", "parallel"] {
            let line = format!(
                r#"{{"cmd":"run","kernel":"gemm","m":256,"n":256,"k":64,"exec":"{exec}"}}"#
            );
            let other = parse(&dispatch(&state, &line)).unwrap();
            assert_eq!(get(&other, &["checksum"]).as_f64(), get(&cold, &["checksum"]).as_f64());
            assert_eq!(get(&other, &["hash"]).as_str(), get(&cold, &["hash"]).as_str(), "{exec}");
        }
    }

    #[test]
    fn lint_reports_clean_kernel_and_unknown_kernel_errors() {
        let state = ServerState::new(None);
        let ok = parse(&dispatch(
            &state,
            r#"{"cmd":"lint","kernel":"gemm","m":256,"n":256,"k":64,"prove":true}"#,
        ))
        .unwrap();
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(get(&ok, &["errors"]).as_i64(), Some(0));
        let text = get(&ok, &["output"]).as_str().unwrap();
        assert!(text.contains("0 errors"), "{text}");
        assert!(text.contains("proof (F2 symbolic)"), "{text}");
        let bad = parse(&dispatch(&state, r#"{"cmd":"lint","kernel":"nope"}"#)).unwrap();
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert!(get(&bad, &["error"]).as_str().unwrap().contains("unknown kernel"));
    }

    #[test]
    fn repeat_tune_is_a_db_hit_with_zero_simulations() {
        let state = ServerState::new(None);
        let line = r#"{"cmd":"tune","kernel":"layernorm","rows":512,"hidden":512}"#;
        let cold = parse(&dispatch(&state, line)).unwrap();
        assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold:?}");
        assert_eq!(get(&cold, &["db_hit"]), &Json::Bool(false));
        let warm = parse(&dispatch(&state, line)).unwrap();
        assert_eq!(get(&warm, &["db_hit"]), &Json::Bool(true));
        assert_eq!(get(&warm, &["stats", "simulated"]).as_i64(), Some(0));
        assert_eq!(
            get(&warm, &["winner"]).as_str(),
            get(&cold, &["winner"]).as_str(),
            "the warm winner must be the recorded one"
        );
        // The stats endpoint shows the db hit.
        let st = parse(&dispatch(&state, r#"{"cmd":"stats"}"#)).unwrap();
        assert_eq!(get(&st, &["caches", "tune_db", "hits"]).as_i64(), Some(1));
    }

    #[test]
    fn forced_job_tune_completes_through_poll() {
        let state = ServerState::new(None);
        let resp = parse(&dispatch(
            &state,
            r#"{"cmd":"tune","kernel":"layernorm","rows":512,"hidden":512,"job":true}"#,
        ))
        .unwrap();
        let id = get(&resp, &["job"]).as_i64().unwrap() as u64;
        assert_eq!(get(&resp, &["state"]).as_str(), Some("queued"));
        // Run the job inline (no worker thread in this unit test).
        let (job, req) = state.jobs.pop().unwrap();
        run_tune_job(&state, &req, &job);
        let polled = parse(&dispatch(&state, &format!(r#"{{"cmd":"poll","job":{id}}}"#))).unwrap();
        assert_eq!(get(&polled, &["state"]).as_str(), Some("done"));
        assert_eq!(get(&polled, &["progress", "fraction"]).as_f64(), Some(1.0));
        assert_eq!(get(&polled, &["result", "db_hit"]), &Json::Bool(false));
        assert!(get(&polled, &["result", "stats", "simulated"]).as_i64().unwrap() > 0);
    }

    #[test]
    fn cancel_and_malformed_and_unknown_paths() {
        let state = ServerState::new(None);
        let err = parse(&dispatch(&state, "not json")).unwrap();
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        let unknown = parse(&dispatch(&state, r#"{"cmd":"frobnicate"}"#)).unwrap();
        assert!(get(&unknown, &["error"]).as_str().unwrap().contains("unknown cmd"));
        let resp = parse(&dispatch(
            &state,
            r#"{"cmd":"tune","kernel":"layernorm","rows":512,"hidden":512,"job":true}"#,
        ))
        .unwrap();
        let id = get(&resp, &["job"]).as_i64().unwrap();
        let c = parse(&dispatch(&state, &format!(r#"{{"cmd":"cancel","job":{id}}}"#))).unwrap();
        assert_eq!(get(&c, &["state"]).as_str(), Some("cancelled"));
        let nope = parse(&dispatch(&state, r#"{"cmd":"poll","job":9999}"#)).unwrap();
        assert!(get(&nope, &["error"]).as_str().unwrap().contains("unknown job"));
        let st = parse(&dispatch(&state, r#"{"cmd":"stats"}"#)).unwrap();
        assert_eq!(get(&st, &["malformed"]).as_i64(), Some(1));
    }
}
