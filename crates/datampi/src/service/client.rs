//! The client side of the service protocol: the calls `dmpi` and
//! `dmpirun` make against a coordinator, each on a fresh connection.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use super::protocol::{read_known_line, JobSpec, Line};

/// Sends `line` to the coordinator at `coord` and returns the first
/// reply of verb `until` (`status` → `status`, `drain` → `drained`).
pub fn request(coord: SocketAddr, line: &str, until: &str) -> Result<String, String> {
    reply(&mut client(coord, line)?, [until, "", ""])
}

/// An accepted job, between its `accepted` line and its terminal one.
pub struct Submission {
    /// The coordinator's `accepted job=<id>` line.
    pub accepted: String,
    reader: BufReader<TcpStream>,
}

/// Submits `spec` and returns once it is accepted (`Err`: the rejection),
/// so `dmpirun` can drain its session before `Submission::outcome`.
pub fn submit(coord: SocketAddr, spec: &JobSpec) -> Result<Submission, String> {
    let mut reader = client(coord, &spec.submit_line())?;
    let accepted = reply(&mut reader, ["accepted", "rejected", "reason"]);
    let accepted = accepted.map_err(|why| format!("submission rejected: {why}"))?;
    Ok(Submission { accepted, reader })
}

impl Submission {
    /// Waits for the terminal line: `jobdone`, or the `jobfail` error.
    pub fn outcome(mut self) -> Result<String, String> {
        let terminal = reply(&mut self.reader, ["jobdone", "jobfail", "err"]);
        terminal.map_err(|why| format!("job failed: {why}"))
    }
}

fn client(coord: SocketAddr, line: &str) -> Result<BufReader<TcpStream>, String> {
    let mut stream = TcpStream::connect(coord).map_err(|e| format!("dial {coord}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let sent = stream.write_all(format!("{line}\n").as_bytes());
    sent.map_err(|e| format!("send request: {e}"))?;
    Ok(BufReader::new(stream))
}

/// The next line of verb `yes` (newline trimmed), or of verb `no` (if not
/// `""`): an error with its field `key` un-escaped, else the whole line.
fn reply(reader: &mut impl BufRead, [yes, no, key]: [&str; 3]) -> Result<String, String> {
    let mut line = String::new();
    let read = read_known_line(reader, &mut line, |v| v == yes || v == no);
    if read.map_err(|e| format!("read reply: {e}"))? == 0 {
        return Err("coordinator closed the connection".into());
    }
    let line = line.trim_end();
    match Line::of(line, no).map(|l| l.get(key).and_then(|v| v.text())) {
        Some(why) => Err(why.unwrap_or_else(|| line.to_string())),
        None => Ok(line.to_string()),
    }
}
