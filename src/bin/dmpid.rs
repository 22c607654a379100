//! `dmpid` — the resident DataMPI job service.
//!
//! Two modes share one binary:
//!
//! * **worker** (default): a long-running resident rank. Joins the
//!   coordinator once, builds its mesh attachment once, then executes
//!   every dispatched job without re-launching — the paper's
//!   communication-ready resident process.
//! * **coordinator** (`--coordinator`): accepts worker joins and client
//!   submissions (`dmpi submit/status/drain`) on one listener,
//!   schedules jobs concurrently onto the resident mesh under
//!   fair-share admission, and with `--report-dir` writes each job's
//!   `dmpi-job-report/v1` document and Chrome trace.
//!
//! `dmpirun` runs the same two halves for a single job: a one-job
//! coordinator on a thread of the launcher, one worker per rank.
//!
//! A two-rank resident mesh, self-hosted workers and all:
//!
//! ```text
//! dmpid --coordinator --ranks 2 --spawn-workers --port-file /tmp/dmpid.addr &
//! dmpi submit --coord "$(cat /tmp/dmpid.addr)" --tenant alice wordcount
//! dmpi drain  --coord "$(cat /tmp/dmpid.addr)"
//! ```

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;

use datampi::service::{run_resident_worker, serve, AdmissionConfig, ServiceConfig};
use dmpi_workloads::CatalogueResolver;

const USAGE: &str = "\
dmpid — resident DataMPI job service

Worker mode (default):
  dmpid --coord ADDR            join the coordinator at ADDR and serve jobs

Coordinator mode:
  dmpid --coordinator --ranks N [options]
  --ranks N           resident mesh width (required)
  --port-file PATH    write the listener address to PATH once bound
  --report-dir DIR    trace jobs; write each job's report and trace
                      to DIR/job-<id>.json and DIR/job-<id>.trace.json
  --spawn-workers     self-host: spawn N `dmpid --coord …` children
  --slots N           concurrent job slots on the mesh   [default: ranks]
  --queue-limit N     bounded submission queue           [default: 64]
  --tenant-quota N    per-tenant concurrent-job quota    [default: slots]
";

struct Options {
    coordinator: bool,
    coord: Option<SocketAddr>,
    ranks: usize,
    port_file: Option<PathBuf>,
    report_dir: Option<PathBuf>,
    spawn_workers: bool,
    slots: Option<usize>,
    queue_limit: usize,
    tenant_quota: Option<usize>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        coordinator: false,
        coord: None,
        ranks: 0,
        port_file: None,
        report_dir: None,
        spawn_workers: false,
        slots: None,
        queue_limit: 64,
        tenant_quota: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--coordinator" => opts.coordinator = true,
            "--coord" => {
                opts.coord = Some(
                    value("--coord")?
                        .parse()
                        .map_err(|e| format!("--coord: {e}"))?,
                )
            }
            "--ranks" => {
                opts.ranks = value("--ranks")?
                    .parse()
                    .map_err(|e| format!("--ranks: {e}"))?
            }
            "--port-file" => opts.port_file = Some(PathBuf::from(value("--port-file")?)),
            "--report-dir" => opts.report_dir = Some(PathBuf::from(value("--report-dir")?)),
            "--spawn-workers" => opts.spawn_workers = true,
            "--slots" => {
                opts.slots = Some(
                    value("--slots")?
                        .parse()
                        .map_err(|e| format!("--slots: {e}"))?,
                )
            }
            "--queue-limit" => {
                opts.queue_limit = value("--queue-limit")?
                    .parse()
                    .map_err(|e| format!("--queue-limit: {e}"))?
            }
            "--tenant-quota" => {
                opts.tenant_quota = Some(
                    value("--tenant-quota")?
                        .parse()
                        .map_err(|e| format!("--tenant-quota: {e}"))?,
                )
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn run_coordinator(opts: Options) -> Result<(), String> {
    if opts.ranks == 0 {
        return Err("--coordinator requires --ranks N (N ≥ 1)".into());
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind listener: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    if let Some(path) = &opts.port_file {
        std::fs::write(path, addr.to_string())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    eprintln!("dmpid: coordinator listening on {addr}");

    let mut children = Vec::new();
    if opts.spawn_workers {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        for rank in 0..opts.ranks {
            let child = Command::new(&exe)
                .arg("--coord")
                .arg(addr.to_string())
                .spawn()
                .map_err(|e| format!("spawn worker {rank}: {e}"))?;
            children.push(child);
        }
    }

    let slots = opts.slots.unwrap_or(opts.ranks.max(1));
    let config = ServiceConfig {
        ranks: opts.ranks,
        admission: AdmissionConfig {
            mesh_slots: slots,
            queue_limit: opts.queue_limit,
            default_quota: opts.tenant_quota.unwrap_or(slots),
        },
        report_dir: opts.report_dir.clone(),
    };
    let summary = serve(listener, config).map_err(|e| e.to_string())?;
    for mut child in children {
        let _ = child.wait();
    }
    eprintln!(
        "dmpid: drained (completed={} failed={} rejected={})",
        summary.completed, summary.failed, summary.rejected
    );
    if summary.failed > 0 {
        return Err(format!("{} job(s) failed", summary.failed));
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("dmpid: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if opts.coordinator {
        run_coordinator(opts)
    } else {
        match opts.coord {
            Some(coord) => {
                run_resident_worker(coord, Arc::new(CatalogueResolver)).map_err(|e| e.to_string())
            }
            None => Err("worker mode requires --coord ADDR".into()),
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dmpid: {e}");
            ExitCode::FAILURE
        }
    }
}
