//! What the integration tests share: a one-line client and the watchdog
//! that turns a hang into a failed test, for the resident-service
//! scenarios, the snapshot of what a process holds, for the leak test,
//! and a store's records in merge order, for the store's properties.
//! Each test binary uses some of them.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use datampi::store::PartitionStore;
use dmpi_common::Record;

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

/// What a finished job must give back: the process's threads and open
/// file descriptors, and every path under a spill root.
#[derive(Debug, PartialEq, Eq)]
pub struct Residue {
    pub threads: usize,
    pub fds: usize,
    pub spill_entries: Vec<PathBuf>,
}

impl Residue {
    /// Snapshots this process (`/proc/self/task`, `/proc/self/fd`) and
    /// everything under `spill_root`.
    pub fn of(spill_root: &Path) -> Residue {
        let mut spill_entries = Vec::new();
        let mut pending = vec![spill_root.to_path_buf()];
        while let Some(dir) = pending.pop() {
            for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    pending.push(path.clone());
                }
                spill_entries.push(path);
            }
        }
        spill_entries.sort();
        let count = |dir: &str| match std::fs::read_dir(dir) {
            Ok(entries) => entries.count(),
            Err(e) => panic!("{dir}: {e}"),
        };
        Residue {
            threads: count("/proc/self/task"),
            fds: count("/proc/self/fd"),
            spill_entries,
        }
    }

    /// [`of`](Self::of), retaken until it lists `threads` threads or
    /// `patience` has passed. The kernel wakes a thread's joiner before
    /// it drops the thread from `/proc/self/task`, so a thread joined a
    /// moment ago can still be counted; one that leaked stays counted.
    pub fn settled(spill_root: &Path, threads: usize, patience: Duration) -> Residue {
        let deadline = Instant::now() + patience;
        loop {
            let residue = Residue::of(spill_root);
            if residue.threads == threads || Instant::now() >= deadline {
                return residue;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Drains the filled `store` into a flat, key-sorted record vector.
pub fn into_records(store: PartitionStore) -> Vec<Record> {
    let mut stream = store.into_group_stream().unwrap();
    let mut out = Vec::new();
    while let Some(g) = stream.next_group().unwrap() {
        out.extend(g.values.into_iter().map(|value| Record {
            key: g.key.clone(),
            value,
        }));
    }
    out
}
