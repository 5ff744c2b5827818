//! `setup_s`: the time from starting a fresh process to the system
//! being ready for its first operation.
//!
//! A probe is a fresh copy of this binary started with
//! `--setup-probe <workload>`; it builds the workload's resident state,
//! prints `ready` and exits. The parent times spawn to `ready`. Probes
//! run one at a time at the workload's checkpoints (between operations,
//! never alongside them), so their median samples the whole run rather
//! than one moment of it.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// Spawns set-up probes and keeps their times.
#[derive(Debug)]
pub struct Prober {
    workload: String,
    exe: PathBuf,
    times: Mutex<Vec<f64>>,
    failure: Mutex<Option<String>>,
}

impl Prober {
    /// A prober for `workload`, spawning this executable.
    pub fn new(workload: &str) -> Result<Prober, String> {
        Ok(Prober {
            workload: workload.to_string(),
            exe: std::env::current_exe().map_err(|e| e.to_string())?,
            times: Mutex::new(Vec::new()),
            failure: Mutex::new(None),
        })
    }

    /// Runs one probe to completion and records its set-up time.
    pub fn probe(&self) {
        let t0 = Instant::now();
        let spawned = Command::new(&self.exe)
            .args(["--setup-probe", &self.workload])
            .stdout(Stdio::piped())
            .spawn();
        let result =
            spawned.map_err(|e| format!("spawn set-up probe: {e}")).and_then(|mut child| {
                let mut line = String::new();
                let read = child.stdout.take().map(|o| BufReader::new(o).read_line(&mut line));
                let secs = t0.elapsed().as_secs_f64();
                let status = child.wait().map_err(|e| e.to_string())?;
                match read {
                    Some(Ok(_)) if line.trim() == "ready" && status.success() => Ok(secs),
                    _ => Err(format!("set-up probe failed ({status})")),
                }
            });
        match result {
            Ok(secs) => self.times.lock().expect("probe times poisoned").push(secs),
            Err(e) => *self.failure.lock().expect("probe failure poisoned") = Some(e),
        }
    }

    /// The median set-up time and the number of probes.
    pub fn median(&self) -> Result<(f64, usize), String> {
        if let Some(e) = self.failure.lock().expect("probe failure poisoned").take() {
            return Err(e);
        }
        let times = self.times.lock().expect("probe times poisoned");
        crate::stats::median(&times).map(|m| (m, times.len())).ok_or("no set-up probe ran".into())
    }
}

/// The probe's side: build `workload`'s resident state, say `ready`,
/// and tear it down.
pub fn run_probe(workload: &str) -> Result<(), String> {
    let ready = || -> Result<(), String> {
        let mut o = std::io::stdout();
        writeln!(o, "ready").and_then(|()| o.flush()).map_err(|e| e.to_string())
    };
    match workload {
        "exec-kernels" => {
            let caches = (
                graphene_sim::TraceCache::new(),
                graphene_sim::GraphTraceCache::new(),
                graphene_sim::PlanCache::new(),
            );
            std::hint::black_box(&caches);
            ready()
        }
        "compile-tune" => {
            let path = crate::out_dir().join(format!("tune-db-probe-{}.json", std::process::id()));
            let state = (
                graphene_tune::TuneDb::load(path),
                graphene_tune::CostCache::new(),
                graphene_sim::PlanCache::new(),
            );
            std::hint::black_box(&state);
            ready()
        }
        "serve-mixed" => {
            let daemon = crate::serve_mixed::Daemon::start()?;
            ready()?;
            daemon.stop()
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}
