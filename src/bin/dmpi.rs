//! `dmpi` — client CLI for the resident job service.
//!
//! Talks the service's line protocol to a running `dmpid --coordinator`:
//!
//! * `dmpi submit … WORKLOAD` — submit a job for a tenant and block
//!   until its terminal `jobdone`/`jobfail` line arrives;
//! * `dmpi status` — one-line scheduler snapshot (per-tenant queue and
//!   slot usage included);
//! * `dmpi drain` — graceful shutdown: running jobs finish, new ones
//!   are rejected, workers deregister.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;

use datampi::service::protocol::{read_known_line, JobSpec, Line};

const USAGE: &str = "\
dmpi — client for the dmpid resident job service

  dmpi submit --coord ADDR --tenant NAME [options] WORKLOAD
      --tasks N           O tasks                  [default: 4]
      --bytes-per-task N  split size, bytes        [default: 4096]
      --seed N            input seed               [default: 42]
      --o-parallelism N   worker threads per task  [default: 1]
      --out DIR           write each rank's partition to DIR/part-NNNNN
      --spill-dir DIR     workers seal spill runs to files under
                          DIR/job-<id>/ (removed when the job ends)
      --spill-compress    LZ4-compress spill-run blocks
  dmpi status --coord ADDR
  dmpi drain  --coord ADDR
";

fn connect(coord: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(coord).map_err(|e| format!("dial {coord}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// Reads reply lines until `stop` accepts one; unknown verbs skip
/// (forward compatibility with newer coordinators).
fn read_reply(
    reader: &mut BufReader<TcpStream>,
    stop: impl Fn(&str) -> bool,
) -> Result<String, String> {
    let mut line = String::new();
    match read_known_line(reader, &mut line, stop) {
        Ok(0) => Err("coordinator closed the connection".into()),
        Ok(_) => Ok(line.trim_end().to_string()),
        Err(e) => Err(format!("read reply: {e}")),
    }
}

fn submit(coord: SocketAddr, spec: &JobSpec) -> Result<(), String> {
    let (mut stream, mut reader) = connect(coord)?;
    writeln!(stream, "{}", spec.submit_line()).map_err(|e| format!("send submit: {e}"))?;
    let verdict = read_reply(&mut reader, |v| v == "accepted" || v == "rejected")?;
    if let Some(rejected) = Line::of(&verdict, "rejected") {
        let reason = rejected.get("reason").and_then(|r| r.text());
        let reason = reason.unwrap_or_else(|| verdict.clone());
        return Err(format!("submission rejected: {reason}"));
    }
    println!("{verdict}");
    let terminal = read_reply(&mut reader, |v| v == "jobdone" || v == "jobfail")?;
    println!("{terminal}");
    if Line::of(&terminal, "jobfail").is_some() {
        return Err("job failed".into());
    }
    Ok(())
}

fn one_liner(coord: SocketAddr, verb: &str, stop: &str) -> Result<(), String> {
    let (mut stream, mut reader) = connect(coord)?;
    writeln!(stream, "{verb}").map_err(|e| format!("send {verb}: {e}"))?;
    let reply = read_reply(&mut reader, |v| v == stop)?;
    println!("{reply}");
    Ok(())
}

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
            "--o-parallelism" => {
                spec.o_parallelism = value("--o-parallelism")?
                    .parse()
                    .map_err(|e| format!("--o-parallelism: {e}"))?
            }
            "--out" => spec.out = Some(value("--out")?),
            "--spill-dir" => spec.spill_dir = Some(value("--spill-dir")?),
            "--spill-compress" => spec.spill_compress = true,
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
    match mode.as_str() {
        "submit" => {
            if spec.tenant.is_empty() {
                return Err("submit requires --tenant NAME".into());
            }
            if spec.workload.is_empty() {
                return Err("submit requires a WORKLOAD argument".into());
            }
            submit(coord, &spec)
        }
        "status" => one_liner(coord, "status", "status"),
        "drain" => one_liner(coord, "drain", "drained"),
        other => Err(format!("unknown mode {other:?}\n\n{USAGE}")),
    }
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
