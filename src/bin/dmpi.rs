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
//!
//! A usage error exits 2; a failed job or connection exits 1.

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

/// What the command line asks for.
enum Mode {
    Submit(SocketAddr, JobSpec),
    Status(SocketAddr),
    Drain(SocketAddr),
    Help,
}

/// Parses the command line; an `Err` is a usage error.
fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or("a mode is required")?;
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
            "--help" | "-h" => return Ok(Mode::Help),
            other if !other.starts_with('-') && spec.workload.is_empty() => {
                spec.workload = other.to_string();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let coord = || coord.ok_or("--coord ADDR is required");
    match mode.as_str() {
        "submit" if spec.tenant.is_empty() => Err("submit requires --tenant NAME".into()),
        "submit" if spec.workload.is_empty() => Err("submit requires a WORKLOAD argument".into()),
        "submit" => Ok(Mode::Submit(coord()?, spec)),
        "status" => Ok(Mode::Status(coord()?)),
        "drain" => Ok(Mode::Drain(coord()?)),
        other => Err(format!("unknown mode {other:?}")),
    }
}

/// Runs `mode` and prints the coordinator's reply; an `Err` is a failed
/// job or a failed connection.
fn run(mode: Mode) -> Result<(), String> {
    let reply = match mode {
        Mode::Submit(coord, spec) => {
            let job = submit(coord, &spec)?;
            let accepted = job.accepted.clone();
            format!("{accepted}\n{}", job.outcome()?)
        }
        Mode::Status(coord) => request(coord, "status", "status")?,
        Mode::Drain(coord) => request(coord, "drain", "drained")?,
        Mode::Help => {
            print!("{USAGE}");
            return Ok(());
        }
    };
    println!("{reply}");
    Ok(())
}

/// Usage errors exit 2, as `dmpirun`'s do; a failed job or connection
/// exits 1.
fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("dmpi: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(mode) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dmpi: {e}");
            ExitCode::FAILURE
        }
    }
}
