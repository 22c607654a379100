//! Who derives which split on a mesh. A worker's O function derives its
//! task's split when the task starts, and the runtime hands a rank only
//! the task indices `t` with `t % ranks == rank`. So across a whole job
//! every split is derived exactly once, by the rank that runs its task,
//! and no worker derives the job's whole input. The part files are
//! byte-identical to the in-proc runtime's partitions of the same input.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;

use datampi::service::{
    serve, submit, AdmissionConfig, JobResolver, JobSpec, PreparedJob, Seat, ServiceConfig,
};
use datampi::{run_job, JobConfig};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::{frame_batch, Writable};
use dmpi_common::Result;

use common::{under_watchdog, Outcome};

const RANKS: usize = 3;
const TASKS: usize = 8;

/// Task `t`'s split: a pure function of `t`, as every resolver's must be.
fn split(t: usize) -> Bytes {
    Bytes::from(format!("w{t} shared w{} w{}", t % 3, t * 7 % 5))
}

fn wc_o(_task: usize, split: &[u8], out: &mut dyn Collector) {
    for word in split.split(|&b| b == b' ') {
        out.collect(word, &1u64.to_bytes());
    }
}

fn wc_a(group: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = group
        .values
        .iter()
        .map(|v| u64::from_bytes(v).unwrap())
        .sum();
    out.collect(&group.key, &total.to_bytes());
}

/// `(rank, task)` for every split any worker derived.
type Derivations = Arc<Mutex<Vec<(usize, usize)>>>;

/// WordCount over [`split`], recording each derivation with the rank of
/// the worker that made it.
struct Counting {
    rank: usize,
    log: Derivations,
}

impl JobResolver for Counting {
    fn prepare(&self, _spec: &JobSpec) -> Result<PreparedJob> {
        let (rank, log) = (self.rank, Arc::clone(&self.log));
        Ok(PreparedJob {
            o_fn: Box::new(move |t, out| {
                log.lock().unwrap().push((rank, t));
                wc_o(t, &split(t), out);
            }),
            a_fn: Box::new(wc_a),
        })
    }
}

fn one_job_on_three_ranks() -> Outcome<()> {
    let out = std::env::temp_dir().join(format!("dmpi-service-splits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr: SocketAddr = listener.local_addr().map_err(|e| e.to_string())?;
    let config = ServiceConfig {
        ranks: RANKS,
        admission: AdmissionConfig::default(),
        report_dir: None,
    };
    let coordinator = std::thread::spawn(move || serve(listener, config));
    let log = Derivations::default();
    let workers: Vec<_> = (0..RANKS)
        .map(|_| {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let seat = Seat::join(addr)?;
                let rank = seat.rank;
                seat.serve(Arc::new(Counting { rank, log }))
            })
        })
        .collect();
    let spec = JobSpec {
        id: 0,
        tenant: "t".into(),
        workload: "wordcount".into(),
        tasks: TASKS,
        bytes_per_task: 64,
        seed: 1,
        o_parallelism: 1,
        out: Some(out.display().to_string()),
        spill_dir: None,
        spill_compress: false,
    };
    submit(addr, &spec)?.outcome()?;
    common::request(
        addr,
        "drain",
        |l| l.starts_with("drained"),
        Duration::from_secs(10),
    )?;
    coordinator
        .join()
        .map_err(|_| "coordinator panicked".to_string())?
        .map_err(|e| e.to_string())?;
    for worker in workers {
        worker
            .join()
            .map_err(|_| "worker panicked".to_string())?
            .map_err(|e| e.to_string())?;
    }

    let mut derived = log.lock().unwrap().clone();
    derived.sort_by_key(|&(_, t)| t);
    let owners: Vec<_> = (0..TASKS).map(|t| (t % RANKS, t)).collect();
    if derived != owners {
        return Err(format!(
            "each split must be derived once, by rank t % {RANKS}: {derived:?}"
        ));
    }

    let inputs = (0..TASKS).map(split).collect();
    let inproc = run_job(&JobConfig::new(RANKS), inputs, wc_o, wc_a, None)
        .map_err(|e| format!("in-proc run: {e}"))?;
    for (rank, partition) in inproc.partitions.iter().enumerate() {
        let name = format!("part-{rank:05}");
        let part = std::fs::read(out.join(&name)).map_err(|e| format!("read {name}: {e}"))?;
        if part != frame_batch(partition) {
            return Err(format!("{name} differs from the in-proc partition"));
        }
    }
    let _ = std::fs::remove_dir_all(&out);
    Ok(())
}

#[test]
fn each_split_is_derived_once_by_the_rank_that_runs_it() {
    under_watchdog(Duration::from_secs(60), one_job_on_three_ranks);
}
