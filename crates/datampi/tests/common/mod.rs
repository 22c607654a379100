//! What the resident-service scenarios share: a one-line client and the
//! watchdog that turns a hang into a failed test.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

pub type Outcome<T> = std::result::Result<T, String>;

/// Sends one line on a fresh connection and returns the first reply
/// line `until` accepts; a peer that closes, or stays silent for
/// `patience`, is an error.
pub fn request(
    addr: SocketAddr,
    line: &str,
    until: impl Fn(&str) -> bool,
    patience: Duration,
) -> Outcome<String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("dial: {e}"))?;
    stream
        .set_read_timeout(Some(patience))
        .map_err(|e| e.to_string())?;
    writeln!(stream, "{line}").map_err(|e| format!("send {line}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    loop {
        reply.clear();
        match reader.read_line(&mut reply) {
            Ok(0) => return Err(format!("{line}: peer closed without a reply")),
            Ok(_) if until(&reply) => return Ok(reply),
            Ok(_) => {}
            Err(e) => return Err(format!("{line}: no terminal line within {patience:?}: {e}")),
        }
    }
}

/// Runs `scenario` on its own thread and fails if it is not over in
/// `limit`.
pub fn under_watchdog(limit: Duration, scenario: fn() -> Outcome<()>) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(scenario()));
    match rx.recv_timeout(limit) {
        Ok(verdict) => verdict.unwrap(),
        Err(_) => panic!("scenario hung: still running after {limit:?}"),
    }
}
