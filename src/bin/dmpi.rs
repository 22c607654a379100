//! `dmpi` — client CLI for the resident job service.
//!
//! Talks the service's line protocol to a running `dmpid --coordinator`:
//!
//! * `dmpi submit … WORKLOAD` — submit a job for a tenant and block
//!   until its terminal `jobdone`/`jobfail` line arrives (a `jobfail`'s
//!   error goes to stderr, and the exit code is 1);
//! * `dmpi status` — one-line scheduler snapshot (per-tenant queue and
//!   slot usage included);
//! * `dmpi drain` — graceful shutdown: running jobs finish, new ones
//!   are rejected, workers deregister.

use std::net::SocketAddr;
use std::process::ExitCode;

use datampi::service::{request, submit, JobSpec};

const USAGE: &str = "\
dmpi — client for the dmpid resident job service

  dmpi submit --coord ADDR --tenant NAME [options] WORKLOAD
      --tasks N           O tasks                  [default: 4]
      --bytes-per-task N  split size, bytes        [default: 4096]
      --seed N            input seed               [default: 42]
      --out DIR           write each rank's partition to DIR/part-NNNNN
      --spill-dir DIR     workers seal spill runs to files under
                          DIR/job-<id>/ (removed when the job ends)
  dmpi status --coord ADDR
  dmpi drain  --coord ADDR
";

fn parse_and_run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or_else(|| USAGE.to_string())?;
    let mut coord: Option<SocketAddr> = None;
    let mut spec = JobSpec {
        id: 0,
        tenant: String::new(),
        workload: String::new(),
        tasks: 4,
        bytes_per_task: 4096,
        seed: 42,
        o_parallelism: 1,
        out: None,
        spill_dir: None,
        spill_compress: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--coord" => {
                coord = Some(
                    value("--coord")?
                        .parse()
                        .map_err(|e| format!("--coord: {e}"))?,
                )
            }
            "--tenant" => spec.tenant = value("--tenant")?,
            "--tasks" => {
                spec.tasks = value("--tasks")?
                    .parse()
                    .map_err(|e| format!("--tasks: {e}"))?
            }
            "--bytes-per-task" => {
                spec.bytes_per_task = value("--bytes-per-task")?
                    .parse()
                    .map_err(|e| format!("--bytes-per-task: {e}"))?
            }
            "--seed" => {
                spec.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--out" => spec.out = Some(value("--out")?),
            "--spill-dir" => spec.spill_dir = Some(value("--spill-dir")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            other if !other.starts_with('-') && spec.workload.is_empty() => {
                spec.workload = other.to_string();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let coord = coord.ok_or("--coord ADDR is required")?;
    let reply = match mode.as_str() {
        "submit" => {
            if spec.tenant.is_empty() {
                return Err("submit requires --tenant NAME".into());
            }
            if spec.workload.is_empty() {
                return Err("submit requires a WORKLOAD argument".into());
            }
            let job = submit(coord, &spec)?;
            let accepted = job.accepted.clone();
            format!("{accepted}\n{}", job.outcome()?)
        }
        "status" => request(coord, "status", "status")?,
        "drain" => request(coord, "drain", "drained")?,
        other => return Err(format!("unknown mode {other:?}\n\n{USAGE}")),
    };
    println!("{reply}");
    Ok(())
}

fn main() -> ExitCode {
    match parse_and_run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dmpi: {e}");
            ExitCode::from(1)
        }
    }
}
