//! The simulation loop.
//!
//! [`Simulation`] owns the task graph, slot pools, resource capacities and
//! the virtual clock. [`Simulation::run`] repeatedly:
//!
//! 1. starts every ready task that can obtain its slot (FIFO per pool),
//! 2. computes max-min fair rates for all running activities
//!    ([`crate::fairshare`]),
//! 3. advances the clock to the earliest activity completion,
//! 4. integrates resource usage into the metrics recorder,
//! 5. retires finished activities/tasks, releasing slots and unblocking
//!    dependents,
//!
//! until the graph drains (or reports a deadlock from cyclic dependencies).

use std::collections::{HashMap, VecDeque};

use dmpi_common::{Error, Result};

use crate::failure::{FailureSpec, RecoveryModel, RecoveryStats};
use crate::fairshare::{max_min_rates, Flow};
use crate::metrics::{IntervalRates, MetricsRecorder};
use crate::report::{SimReport, TaskRecord};
use crate::spec::{ClusterSpec, NodeId};
use crate::task::{Activity, IoTag, Resource, SlotKind, TaskId, TaskSpec};

const EPS: f64 = 1e-9;
/// Width of the metrics time-series buckets, seconds.
const BUCKET_SECS: f64 = 1.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Waiting on dependencies.
    Pending,
    /// Dependencies met, waiting for a slot.
    Queued,
    /// Executing activities.
    Running,
    /// All activities complete.
    Done,
}

struct TaskState {
    spec: TaskSpec,
    state: State,
    unmet_deps: usize,
    dependents: Vec<TaskId>,
    /// Index of the current activity.
    activity_idx: usize,
    /// Remaining fraction of the current `Work` activity (1.0 = untouched)
    /// or remaining seconds of the current `Delay`.
    remaining: f64,
    start_time: Option<f64>,
}

/// A configured, runnable simulation.
///
/// # Examples
/// ```
/// use dmpi_dcsim::{Activity, ClusterSpec, NodeId, Simulation, TaskSpec};
///
/// let mut sim = Simulation::new(ClusterSpec::tiny()); // 100 MB/s disk
/// sim.add_task(
///     TaskSpec::builder("read", NodeId(0))
///         .activity(Activity::disk_read(NodeId(0), 200.0 * (1 << 20) as f64))
///         .build(),
/// )
/// .unwrap();
/// let report = sim.run().unwrap();
/// assert!((report.makespan - 2.0).abs() < 1e-6); // 200 MB / 100 MB/s
/// ```
pub struct Simulation {
    spec: ClusterSpec,
    capacities: Vec<f64>,
    tasks: Vec<TaskState>,
    /// FIFO queues of tasks waiting for a slot, per (node, kind).
    slot_queues: HashMap<(NodeId, SlotKind), VecDeque<TaskId>>,
    /// Free slot counts per (node, kind).
    free_slots: HashMap<(NodeId, SlotKind), u32>,
    /// Configured pool sizes (per node) per kind.
    slot_sizes: HashMap<SlotKind, u32>,
    /// Current memory accounting per node (bytes, may not exceed capacity —
    /// engines enforce their own budgets; we only track).
    node_mem: Vec<i64>,
    clock: f64,
    /// Injected node failures, sorted by time, not yet fired.
    failures: Vec<FailureSpec>,
    /// Synthetic reboot tasks in flight -> the node each brings back.
    reboots: HashMap<TaskId, NodeId>,
    /// Recovery accounting, surfaced on the final report.
    recovery: RecoveryStats,
    /// Nodes currently offline (for the metrics time series).
    down_nodes: u32,
}

impl Simulation {
    /// Creates an empty simulation over `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        spec.validate().expect("invalid cluster spec");
        let num_resources = spec.nodes as usize * 4;
        let mut capacities = vec![0.0; num_resources];
        for node in spec.node_ids() {
            capacities[Resource::Cpu(node).dense_index()] = spec.cpu_capacity;
            capacities[Resource::Disk(node).dense_index()] = spec.disk_bw;
            capacities[Resource::NetOut(node).dense_index()] = spec.net_bw;
            capacities[Resource::NetIn(node).dense_index()] = spec.net_bw;
        }
        let node_mem = vec![0i64; spec.nodes as usize];
        Simulation {
            spec,
            capacities,
            tasks: Vec::new(),
            slot_queues: HashMap::new(),
            free_slots: HashMap::new(),
            slot_sizes: HashMap::new(),
            node_mem,
            clock: 0.0,
            failures: Vec::new(),
            reboots: HashMap::new(),
            recovery: RecoveryStats::default(),
            down_nodes: 0,
        }
    }

    /// Cluster spec in use.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Declares `per_node` slots of `kind` on every node. Tasks referencing
    /// an undeclared kind fail at submission.
    pub fn configure_slots(&mut self, kind: SlotKind, per_node: u32) {
        self.slot_sizes.insert(kind, per_node);
        for node in self.spec.node_ids() {
            self.free_slots.insert((node, kind), per_node);
            self.slot_queues.entry((node, kind)).or_default();
        }
    }

    /// Submits a task, returning its id. Dependencies must already have
    /// been submitted.
    pub fn add_task(&mut self, spec: TaskSpec) -> Result<TaskId> {
        let id = TaskId(self.tasks.len() as u32);
        if spec.node.index() >= self.spec.nodes as usize {
            return Err(Error::Config(format!(
                "task {} placed on nonexistent {}",
                spec.name, spec.node
            )));
        }
        if let Some(kind) = spec.slot {
            if !self.slot_sizes.contains_key(&kind) {
                return Err(Error::Config(format!(
                    "task {} uses unconfigured slot kind {:?}",
                    spec.name, kind
                )));
            }
        }
        for dep in &spec.deps {
            if dep.0 as usize >= self.tasks.len() {
                return Err(Error::Config(format!(
                    "task {} depends on not-yet-submitted task {:?}",
                    spec.name, dep
                )));
            }
            self.tasks[dep.0 as usize].dependents.push(id);
        }
        let unmet = spec
            .deps
            .iter()
            .filter(|d| self.tasks[d.0 as usize].state != State::Done)
            .count();
        let mut spec = spec;
        // Invariant relied on by `begin_execution`: every task has at least
        // one schedulable (Delay/Work) activity, so completion always flows
        // through the main loop. Purely-instantaneous tasks get a zero
        // delay appended.
        if !spec.activities.iter().any(|a| {
            matches!(
                a,
                Activity::Delay(_) | Activity::Work(_) | Activity::WorkMulti { .. }
            )
        }) {
            spec.activities.push(Activity::Delay(0.0));
        }
        self.tasks.push(TaskState {
            unmet_deps: unmet,
            dependents: Vec::new(),
            state: State::Pending,
            activity_idx: 0,
            remaining: 0.0,
            start_time: None,
            spec,
        });
        Ok(id)
    }

    /// Schedules a node failure at simulated time `at`: every task running
    /// or queued on `node` loses its progress, the node's slots vanish for
    /// `downtime` seconds, and `recovery` decides the fate of already
    /// completed work on the node (see [`RecoveryModel`]). Failures
    /// scheduled past the end of the run never fire; a failure hitting a
    /// node that is still rebooting from an earlier one is absorbed into
    /// the in-progress recovery.
    pub fn inject_node_failure(
        &mut self,
        node: NodeId,
        at: f64,
        downtime: f64,
        recovery: RecoveryModel,
    ) -> Result<()> {
        if node.index() >= self.spec.nodes as usize {
            return Err(Error::Config(format!("failure on nonexistent {node}")));
        }
        let valid = at.is_finite() && at >= 0.0 && downtime.is_finite() && downtime >= 0.0;
        if !valid {
            return Err(Error::Config(
                "failure time and downtime must be non-negative and finite".into(),
            ));
        }
        let pos = self
            .failures
            .iter()
            .position(|f| f.at > at)
            .unwrap_or(self.failures.len());
        self.failures.insert(
            pos,
            FailureSpec {
                node,
                at,
                downtime,
                recovery,
            },
        );
        Ok(())
    }

    /// Runs the simulation to completion.
    pub fn run(mut self) -> Result<SimReport> {
        let mut recorder = MetricsRecorder::new(&self.spec, BUCKET_SECS);
        let mut records: Vec<TaskRecord> = Vec::with_capacity(self.tasks.len());
        let mut running: Vec<TaskId> = Vec::new();

        // Kick off everything with no dependencies.
        let initial: Vec<TaskId> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.unmet_deps == 0)
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        for id in initial {
            self.try_start(id, &mut running);
        }

        let mut done = 0usize;

        // `self.tasks.len()` is re-read every iteration: firing a failure
        // appends a synthetic reboot task.
        while done < self.tasks.len() {
            // Fire any failure whose time has come. The reboot task it
            // spawns keeps `running` non-empty through the downtime.
            while self
                .failures
                .first()
                .is_some_and(|f| f.at <= self.clock + EPS)
            {
                let f = self.failures.remove(0);
                self.apply_failure(&f, &mut running, &records, &mut done);
            }

            if running.is_empty() {
                let stuck: Vec<&str> = self
                    .tasks
                    .iter()
                    .filter(|t| t.state != State::Done)
                    .map(|t| t.spec.name.as_str())
                    .take(5)
                    .collect();
                return Err(Error::InvalidState(format!(
                    "simulation deadlock at t={:.3}: {} tasks cannot start (e.g. {:?})",
                    self.clock,
                    self.tasks.len() - done,
                    stuck
                )));
            }

            // Build flows for all running tasks' current activities. A
            // task is single-threaded: its CPU consumption rate is capped
            // at one core even when the node is otherwise idle.
            let mut flows: Vec<Flow> = Vec::with_capacity(running.len());
            for &id in &running {
                let t = &self.tasks[id.0 as usize];
                let (demands, threads) = match &t.spec.activities[t.activity_idx] {
                    Activity::Work(demands) => (Some(demands), 1.0),
                    Activity::WorkMulti {
                        demands,
                        cpu_threads,
                    } => (Some(demands), cpu_threads.max(1.0)),
                    Activity::Delay(_) => (None, 1.0),
                    Activity::MemChange { .. } => {
                        unreachable!("MemChange is applied eagerly, never scheduled")
                    }
                };
                match demands {
                    Some(demands) => {
                        let dense: Vec<(usize, f64)> = demands
                            .iter()
                            .map(|d| (d.resource.dense_index(), d.amount))
                            .collect();
                        let cpu = demands
                            .iter()
                            .filter(|d| matches!(d.resource, Resource::Cpu(_)))
                            .map(|d| d.amount)
                            .sum::<f64>();
                        if cpu > 0.0 {
                            flows.push(Flow::with_cap(dense, threads / cpu));
                        } else {
                            flows.push(Flow::new(dense));
                        }
                    }
                    None => flows.push(Flow::new(Vec::new())),
                }
            }
            let rates = max_min_rates(&flows, &self.capacities);

            // Earliest completion among running tasks.
            let mut dt = f64::INFINITY;
            for (slot, &id) in running.iter().enumerate() {
                let t = &self.tasks[id.0 as usize];
                let ttc = match &t.spec.activities[t.activity_idx] {
                    Activity::Delay(_) => t.remaining,
                    Activity::Work(_) | Activity::WorkMulti { .. } => {
                        if rates[slot].is_infinite() {
                            0.0
                        } else if rates[slot] <= EPS {
                            return Err(Error::InvalidState(format!(
                                "task {} starved (zero rate) at t={:.3}",
                                t.spec.name, self.clock
                            )));
                        } else {
                            t.remaining / rates[slot]
                        }
                    }
                    Activity::MemChange { .. } => unreachable!(),
                };
                if ttc < dt {
                    dt = ttc;
                }
            }
            debug_assert!(dt.is_finite(), "no completion candidate");
            let mut dt = dt.max(0.0);
            // Never step past a scheduled failure: stop exactly at its
            // instant so it fires at the top of the next iteration.
            if let Some(f) = self.failures.first() {
                dt = dt.min((f.at - self.clock).max(0.0));
            }
            let dt = dt;

            // Integrate metrics over [clock, clock+dt).
            if dt > 0.0 {
                let rates_summary = self.interval_rates(&running, &flows, &rates);
                recorder.add_interval(self.clock, self.clock + dt, &rates_summary);
            }
            self.clock += dt;

            // Apply progress and collect completions.
            let mut finished_activities: Vec<TaskId> = Vec::new();
            for (slot, &id) in running.iter().enumerate() {
                let t = &mut self.tasks[id.0 as usize];
                match &t.spec.activities[t.activity_idx] {
                    Activity::Delay(_) => {
                        t.remaining -= dt;
                        if t.remaining <= EPS {
                            finished_activities.push(id);
                        }
                    }
                    Activity::Work(_) | Activity::WorkMulti { .. } => {
                        if rates[slot].is_infinite() {
                            t.remaining = 0.0;
                        } else {
                            t.remaining -= rates[slot] * dt;
                        }
                        if t.remaining <= EPS {
                            finished_activities.push(id);
                        }
                    }
                    Activity::MemChange { .. } => unreachable!(),
                }
            }

            for id in finished_activities {
                if self.advance_task(id)? {
                    // Task fully complete.
                    running.retain(|&r| r != id);
                    done += 1;
                    let t = &self.tasks[id.0 as usize];
                    records.push(TaskRecord {
                        id,
                        name: t.spec.name.clone(),
                        phase: t.spec.phase.clone(),
                        node: t.spec.node,
                        start: t.start_time.unwrap_or(0.0),
                        end: self.clock,
                    });
                    self.complete_task(id, &mut running);
                }
            }
        }

        Ok(SimReport {
            makespan: self.clock,
            tasks: records,
            profile: recorder.finish(),
            recovery: self.recovery,
        })
    }

    /// Kills `f.node`: discards in-flight work there, optionally invalidates
    /// completed work ([`RecoveryModel::RerunCompleted`]), zeroes the node's
    /// slot pools, and schedules a synthetic reboot task that all victims
    /// depend on. [`Simulation::restore_node`] undoes the slot outage when
    /// the reboot completes.
    fn apply_failure(
        &mut self,
        f: &FailureSpec,
        running: &mut Vec<TaskId>,
        records: &[TaskRecord],
        done: &mut usize,
    ) {
        if self.reboots.values().any(|&n| n == f.node) {
            // The node is already down; this fault is absorbed into the
            // recovery in progress.
            return;
        }
        self.recovery.failures += 1;
        self.recovery.downtime_secs += f.downtime;
        self.down_nodes += 1;

        // In-flight victims: running or queued on the dead node.
        let victims: Vec<TaskId> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.spec.node == f.node && matches!(t.state, State::Running | State::Queued)
            })
            .map(|(i, _)| TaskId(i as u32))
            .collect();

        // Completed work on the node: under RerunCompleted, any completed
        // task whose output is still needed by an unfinished dependent is
        // invalidated — iterated to a fixpoint, since invalidating a task
        // makes its own completed upstream producers on this node needed
        // again. Under CheckpointRestart every completed task survives.
        let mut resurrected: Vec<TaskId> = Vec::new();
        if f.recovery == RecoveryModel::RerunCompleted {
            loop {
                let mut changed = false;
                for i in 0..self.tasks.len() {
                    let t = &self.tasks[i];
                    if t.spec.node != f.node || t.state != State::Done {
                        continue;
                    }
                    let needed = t
                        .dependents
                        .iter()
                        .any(|d| self.tasks[d.0 as usize].state != State::Done);
                    if needed {
                        self.tasks[i].state = State::Pending;
                        resurrected.push(TaskId(i as u32));
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        let survived = self
            .tasks
            .iter()
            .filter(|t| t.spec.node == f.node && t.state == State::Done)
            .count();
        self.recovery.tasks_recovered += survived as u32;

        // Reset victims, accounting the discarded progress.
        for &id in &victims {
            let t = &self.tasks[id.0 as usize];
            if t.state == State::Running {
                self.recovery.tasks_rerun += 1;
                self.recovery.wasted_secs += self.clock - t.start_time.unwrap_or(self.clock);
            }
            self.reset_task(id);
        }
        for &id in &resurrected {
            self.recovery.tasks_rerun += 1;
            // The task's full runtime was wasted; its latest record (re-runs
            // append duplicates) holds the duration.
            if let Some(r) = records.iter().rev().find(|r| r.id == id) {
                self.recovery.wasted_secs += r.duration();
            }
            self.reset_task(id);
            *done -= 1;
        }
        running.retain(|id| !victims.contains(id));

        // The node's slots vanish for the downtime. Queued tasks on the
        // node are all victims, so the queues simply empty.
        for (key, q) in self.slot_queues.iter_mut() {
            if key.0 == f.node {
                q.clear();
            }
        }
        for (key, free) in self.free_slots.iter_mut() {
            if key.0 == f.node {
                *free = 0;
            }
        }

        // The reboot: a slot-less delay task on the dead node that every
        // victim now depends on.
        let reboot_id = self
            .add_task(
                TaskSpec::builder(format!("reboot-{}", f.node), f.node)
                    .phase("recovery")
                    .delay(f.downtime)
                    .build(),
            )
            .expect("reboot task spec is always valid");
        self.reboots.insert(reboot_id, f.node);
        for &id in victims.iter().chain(&resurrected) {
            self.tasks[id.0 as usize].spec.deps.push(reboot_id);
            self.tasks[reboot_id.0 as usize].dependents.push(id);
        }

        // Resurrection may have re-opened dependencies of tasks far from
        // the failed node: recompute dependency counts for everything not
        // yet running, pulling newly re-blocked tasks out of slot queues.
        for i in 0..self.tasks.len() {
            if !matches!(self.tasks[i].state, State::Pending | State::Queued) {
                continue;
            }
            let unmet = self.tasks[i]
                .spec
                .deps
                .iter()
                .filter(|d| self.tasks[d.0 as usize].state != State::Done)
                .count();
            let state = self.tasks[i].state;
            self.tasks[i].unmet_deps = unmet;
            if state == State::Queued && unmet > 0 {
                self.tasks[i].state = State::Pending;
                let key = (
                    self.tasks[i].spec.node,
                    self.tasks[i].spec.slot.expect("queued implies slotted"),
                );
                if let Some(q) = self.slot_queues.get_mut(&key) {
                    q.retain(|qid| qid.0 as usize != i);
                }
            }
        }

        self.try_start(reboot_id, running);
    }

    /// Returns a task to its pre-execution state, un-applying any memory
    /// accounting its completed activities performed.
    fn reset_task(&mut self, id: TaskId) {
        let t = &mut self.tasks[id.0 as usize];
        let applied = t.activity_idx.min(t.spec.activities.len());
        for a in &t.spec.activities[..applied] {
            if let Activity::MemChange { node, delta } = a {
                self.node_mem[node.index()] -= delta;
            }
        }
        t.state = State::Pending;
        t.activity_idx = 0;
        t.remaining = 0.0;
        t.start_time = None;
    }

    /// Brings a rebooted node back: its slot pools refill to their
    /// configured sizes (the queues were emptied at failure time).
    fn restore_node(&mut self, node: NodeId) {
        self.down_nodes -= 1;
        for (&kind, &per_node) in &self.slot_sizes {
            self.free_slots.insert((node, kind), per_node);
        }
    }

    /// Starts a task if its slot is free, else queues it.
    fn try_start(&mut self, id: TaskId, running: &mut Vec<TaskId>) {
        let (node, slot) = {
            let t = &self.tasks[id.0 as usize];
            debug_assert_eq!(t.unmet_deps, 0);
            (t.spec.node, t.spec.slot)
        };
        if let Some(kind) = slot {
            let free = self
                .free_slots
                .get_mut(&(node, kind))
                .expect("slot pool configured at submission");
            if *free == 0 {
                self.tasks[id.0 as usize].state = State::Queued;
                self.slot_queues
                    .get_mut(&(node, kind))
                    .expect("queue exists")
                    .push_back(id);
                return;
            }
            *free -= 1;
        }
        self.begin_execution(id, running);
    }

    fn begin_execution(&mut self, id: TaskId, running: &mut Vec<TaskId>) {
        {
            let t = &mut self.tasks[id.0 as usize];
            t.state = State::Running;
            t.start_time = Some(self.clock);
        }
        running.push(id);
        // Prime the first schedulable activity (applying leading
        // MemChanges). `add_task` guarantees at least one Delay/Work
        // activity exists, so the pointer always lands on one here.
        let exhausted = self
            .settle_activity_pointer(id)
            .expect("settle cannot fail on start");
        debug_assert!(!exhausted, "add_task guarantees a schedulable activity");
    }

    /// Applies instantaneous activities (MemChange) and positions
    /// `activity_idx` at the next Delay/Work. Returns `true` if the task ran
    /// out of activities.
    fn settle_activity_pointer(&mut self, id: TaskId) -> Result<bool> {
        loop {
            let idx = self.tasks[id.0 as usize].activity_idx;
            if idx >= self.tasks[id.0 as usize].spec.activities.len() {
                return Ok(true);
            }
            let activity = self.tasks[id.0 as usize].spec.activities[idx].clone();
            match activity {
                Activity::MemChange { node, delta } => {
                    self.node_mem[node.index()] += delta;
                    self.tasks[id.0 as usize].activity_idx += 1;
                }
                Activity::Delay(secs) => {
                    let t = &mut self.tasks[id.0 as usize];
                    t.remaining = secs;
                    return Ok(false);
                }
                Activity::Work(_) | Activity::WorkMulti { .. } => {
                    let t = &mut self.tasks[id.0 as usize];
                    t.remaining = 1.0;
                    return Ok(false);
                }
            }
        }
    }

    /// Advances past the just-finished activity. Returns `true` if the task
    /// is now complete.
    fn advance_task(&mut self, id: TaskId) -> Result<bool> {
        self.tasks[id.0 as usize].activity_idx += 1;
        self.settle_activity_pointer(id)
    }

    /// Releases resources of a completed task and unblocks dependents.
    fn complete_task(&mut self, id: TaskId, running: &mut Vec<TaskId>) {
        let (node, slot, dependents) = {
            let t = &mut self.tasks[id.0 as usize];
            t.state = State::Done;
            // Cloned, not taken: a node failure may resurrect this task,
            // and its re-completion must unblock consumers again.
            (t.spec.node, t.spec.slot, t.dependents.clone())
        };
        // A reboot task completing brings its node back online; restore
        // the slot pools before the victims below try to start.
        if self.reboots.remove(&id).is_some() {
            self.restore_node(node);
        }
        // Hand the slot to the next queued task.
        if let Some(kind) = slot {
            let next = self
                .slot_queues
                .get_mut(&(node, kind))
                .and_then(|q| q.pop_front());
            match next {
                Some(next_id) => {
                    self.begin_execution(next_id, running);
                }
                None => {
                    *self.free_slots.get_mut(&(node, kind)).expect("pool") += 1;
                }
            }
        }
        // Unblock dependents. Non-Pending dependents already satisfied this
        // dependency in a previous life of the task (re-completion after a
        // RerunCompleted resurrection) — their counts must not move.
        for dep_id in dependents {
            let t = &mut self.tasks[dep_id.0 as usize];
            if t.state != State::Pending {
                continue;
            }
            t.unmet_deps -= 1;
            if t.unmet_deps == 0 {
                self.try_start(dep_id, running);
            }
        }
    }

    /// Summarizes instantaneous rates for the metrics recorder.
    fn interval_rates(&self, running: &[TaskId], flows: &[Flow], rates: &[f64]) -> IntervalRates {
        let mut out = IntervalRates {
            mem_bytes: self.node_mem.iter().map(|&m| m.max(0) as f64).sum(),
            down_nodes: self.down_nodes as f64,
            ..Default::default()
        };
        let mut cpu_per_node = vec![0.0f64; self.spec.nodes as usize];
        for ((flow, &rate), &id) in flows.iter().zip(rates).zip(running) {
            if !rate.is_finite() {
                continue;
            }
            let t = &self.tasks[id.0 as usize];
            let activity = &t.spec.activities[t.activity_idx];
            // The flow's demand list was built from the activity's demand
            // list in order, so pair them positionally: an activity may
            // carry both a read and a write on the same disk, and a
            // same-index lookup would mis-tag the second one.
            let activity_demands: &[crate::task::Demand] = match activity {
                Activity::Work(demands) | Activity::WorkMulti { demands, .. } => demands,
                _ => &[],
            };
            let mut task_cpu_rate = 0.0;
            for (i, &(dense, amount)) in flow.demands.iter().enumerate() {
                let consumption = rate * amount;
                match Resource::from_dense_index(dense) {
                    Resource::Cpu(n) => {
                        out.cpu_cores += consumption;
                        cpu_per_node[n.index()] += consumption;
                        task_cpu_rate += consumption;
                    }
                    Resource::Disk(_) => {
                        // Split by tag; untagged disk counts as read.
                        let tag = activity_demands
                            .get(i)
                            .map(|d| d.tag)
                            .unwrap_or(IoTag::None);
                        match tag {
                            IoTag::Write => out.disk_write_bps += consumption,
                            _ => out.disk_read_bps += consumption,
                        }
                    }
                    Resource::NetOut(_) => out.net_bps += consumption,
                    Resource::NetIn(_) => {}
                }
            }
            // Wait-I/O: a task in an I/O-demanding activity that is not
            // using a full core is "blocked" for the remainder —
            // approximated as (1 core − its CPU rate), the classic iowait
            // picture.
            if activity.has_io_demand() {
                out.wait_io_cores += (1.0 - task_cpu_rate).max(0.0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Demand;
    use dmpi_common::units::MB;

    fn sim() -> Simulation {
        Simulation::new(ClusterSpec::tiny()) // 2 nodes, 2 cores, 100MB/s disk+net
    }

    #[test]
    fn single_compute_task_runtime() {
        let mut s = sim();
        // 4 core-seconds on an idle 2-core node: a single-threaded task
        // still only uses one core -> 4 s.
        s.add_task(
            TaskSpec::builder("t", NodeId(0))
                .activity(Activity::Work(vec![Demand::new(
                    Resource::Cpu(NodeId(0)),
                    4.0,
                )]))
                .build(),
        )
        .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 4.0).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn two_compute_tasks_use_both_cores() {
        let mut s = sim();
        for i in 0..2 {
            s.add_task(
                TaskSpec::builder(format!("t{i}"), NodeId(0))
                    .activity(Activity::compute(NodeId(0), 4.0))
                    .build(),
            )
            .unwrap();
        }
        let r = s.run().unwrap();
        // Two single-threaded tasks on 2 cores run fully in parallel.
        assert!((r.makespan - 4.0).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn disk_read_is_bandwidth_bound() {
        let mut s = sim();
        s.add_task(
            TaskSpec::builder("rd", NodeId(0))
                .activity(Activity::disk_read(NodeId(0), 200.0 * MB as f64))
                .build(),
        )
        .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 2.0).abs() < 1e-6);
    }

    #[test]
    fn two_tasks_share_disk() {
        let mut s = sim();
        for i in 0..2 {
            s.add_task(
                TaskSpec::builder(format!("rd{i}"), NodeId(0))
                    .activity(Activity::disk_read(NodeId(0), 100.0 * MB as f64))
                    .build(),
            )
            .unwrap();
        }
        let r = s.run().unwrap();
        // Each would take 1 s alone; sharing the 100 MB/s disk -> 2 s.
        assert!((r.makespan - 2.0).abs() < 1e-6);
    }

    #[test]
    fn pipelined_activity_costs_max_not_sum() {
        let mut s = sim();
        // Coupled: 100 MB disk (1 s alone) + 1 core-sec CPU (0.5 s alone).
        s.add_task(
            TaskSpec::builder("pipe", NodeId(0))
                .activity(Activity::Work(vec![
                    Demand::read(NodeId(0), 100.0 * MB as f64),
                    Demand::new(Resource::Cpu(NodeId(0)), 1.0),
                ]))
                .build(),
        )
        .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 1.0).abs() < 1e-6, "bottleneck is the disk");

        // Staged: same demands as two sequential activities cost the sum
        // (1 s of disk, then 1 core-second on one core).
        let mut s = sim();
        s.add_task(
            TaskSpec::builder("staged", NodeId(0))
                .activity(Activity::disk_read(NodeId(0), 100.0 * MB as f64))
                .activity(Activity::Work(vec![Demand::new(
                    Resource::Cpu(NodeId(0)),
                    1.0,
                )]))
                .build(),
        )
        .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 2.0).abs() < 1e-6, "staged = 1 + 1");
    }

    #[test]
    fn network_transfer_uses_both_endpoints() {
        let mut s = sim();
        s.add_task(
            TaskSpec::builder("xfer", NodeId(0))
                .activity(Activity::net_transfer(
                    NodeId(0),
                    NodeId(1),
                    100.0 * MB as f64,
                ))
                .build(),
        )
        .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dependencies_serialize_execution() {
        let mut s = sim();
        let a = s
            .add_task(
                TaskSpec::builder("a", NodeId(0))
                    .activity(Activity::compute(NodeId(0), 2.0))
                    .build(),
            )
            .unwrap();
        s.add_task(
            TaskSpec::builder("b", NodeId(1))
                .dep(a)
                .activity(Activity::compute(NodeId(1), 2.0))
                .build(),
        )
        .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 4.0).abs() < 1e-6);
        assert_eq!(r.tasks[0].name, "a");
        assert!((r.tasks[1].start - 2.0).abs() < 1e-6);
    }

    #[test]
    fn slots_limit_concurrency() {
        let mut s = sim();
        let kind = SlotKind(0);
        s.configure_slots(kind, 1);
        for i in 0..3 {
            s.add_task(
                TaskSpec::builder(format!("t{i}"), NodeId(0))
                    .slot(kind)
                    .activity(Activity::compute(NodeId(0), 2.0)) // 2 s alone
                    .build(),
            )
            .unwrap();
        }
        let r = s.run().unwrap();
        // One at a time despite 2 cores: 6 s total.
        assert!((r.makespan - 6.0).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn delay_is_wall_clock() {
        let mut s = sim();
        s.add_task(TaskSpec::builder("d", NodeId(0)).delay(2.5).build())
            .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 2.5).abs() < 1e-6);
    }

    #[test]
    fn mem_accounting_shows_in_profile() {
        let mut s = sim();
        s.add_task(
            TaskSpec::builder("m", NodeId(0))
                .activity(Activity::MemChange {
                    node: NodeId(0),
                    delta: 2 * (MB as i64) * 1024, // 2 GB
                })
                .delay(2.0)
                .build(),
        )
        .unwrap();
        let r = s.run().unwrap();
        // 2 GB held on node0 for 2 s -> per-node average 1 GB over 2 nodes.
        assert!((r.profile.mem_gb[0] - 1.0).abs() < 1e-6);
        assert!((r.profile.mem_gb[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cyclic_or_impossible_deps_deadlock_cleanly() {
        let mut s = sim();
        // Task depending on a never-submitted id is rejected at add time.
        let bad = TaskSpec::builder("x", NodeId(0))
            .dep(TaskId(5))
            .activity(Activity::compute(NodeId(0), 1.0))
            .build();
        assert!(s.add_task(bad).is_err());
    }

    #[test]
    fn unconfigured_slot_is_rejected() {
        let mut s = sim();
        let t = TaskSpec::builder("t", NodeId(0))
            .slot(SlotKind(9))
            .activity(Activity::compute(NodeId(0), 1.0))
            .build();
        assert!(s.add_task(t).is_err());
    }

    #[test]
    fn task_on_missing_node_is_rejected() {
        let mut s = sim();
        let t = TaskSpec::builder("t", NodeId(9))
            .activity(Activity::compute(NodeId(9), 1.0))
            .build();
        assert!(s.add_task(t).is_err());
    }

    #[test]
    fn empty_work_completes_instantly() {
        let mut s = sim();
        s.add_task(
            TaskSpec::builder("loopback", NodeId(0))
                .activity(Activity::net_transfer(NodeId(0), NodeId(0), 1e9))
                .build(),
        )
        .unwrap();
        let r = s.run().unwrap();
        assert!(r.makespan.abs() < 1e-9);
    }

    #[test]
    fn profile_reports_disk_throughput() {
        let mut s = sim();
        s.add_task(
            TaskSpec::builder("rd", NodeId(0))
                .activity(Activity::disk_read(NodeId(0), 200.0 * MB as f64))
                .activity(Activity::disk_write(NodeId(0), 100.0 * MB as f64))
                .build(),
        )
        .unwrap();
        let r = s.run().unwrap();
        // 2 s reading at 100 MB/s then 1 s writing at 100 MB/s; per-node
        // average over 2 nodes = 50 MB/s.
        assert_eq!(r.profile.len(), 3);
        assert!((r.profile.disk_read_mb_s[0] - 50.0).abs() < 1e-6);
        assert!((r.profile.disk_read_mb_s[1] - 50.0).abs() < 1e-6);
        assert!((r.profile.disk_write_mb_s[2] - 50.0).abs() < 1e-6);
        assert!(r.profile.disk_write_mb_s[0].abs() < 1e-6);
    }

    #[test]
    fn waitio_counts_blocked_io_tasks() {
        let mut s = sim();
        // Pure disk task: no CPU use, so ~1 blocked core on a 2-core node
        // -> wait-io 25% per-node average over 2 nodes (50% on node0 / 2).
        s.add_task(
            TaskSpec::builder("rd", NodeId(0))
                .activity(Activity::disk_read(NodeId(0), 100.0 * MB as f64))
                .build(),
        )
        .unwrap();
        let r = s.run().unwrap();
        assert!((r.profile.wait_io_pct[0] - 25.0).abs() < 1e-6);
    }

    /// A two-stage chain on node 0: `up` produces, `down` consumes.
    fn chain(s: &mut Simulation) -> (TaskId, TaskId) {
        let up = s
            .add_task(
                TaskSpec::builder("up", NodeId(0))
                    .phase("up")
                    .activity(Activity::compute(NodeId(0), 2.0))
                    .build(),
            )
            .unwrap();
        let down = s
            .add_task(
                TaskSpec::builder("down", NodeId(0))
                    .phase("down")
                    .dep(up)
                    .activity(Activity::compute(NodeId(0), 2.0))
                    .build(),
            )
            .unwrap();
        (up, down)
    }

    #[test]
    fn failure_kills_running_task_and_delays_completion() {
        let mut s = sim();
        chain(&mut s);
        // Fail node 0 at t=1: `up` loses 1 s of progress, node down 3 s,
        // then up (2 s) + down (2 s) re-run: makespan = 1 + 3 + 4 = 8.
        s.inject_node_failure(NodeId(0), 1.0, 3.0, RecoveryModel::CheckpointRestart)
            .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 8.0).abs() < 1e-6, "makespan {}", r.makespan);
        assert_eq!(r.recovery.failures, 1);
        assert_eq!(r.recovery.tasks_rerun, 1, "only the running task re-ran");
        assert!((r.recovery.wasted_secs - 1.0).abs() < 1e-6);
        assert!((r.recovery.downtime_secs - 3.0).abs() < 1e-6);
        // The synthetic reboot shows up as a recovery-phase record.
        assert!(r.tasks.iter().any(|t| t.phase == "recovery"));
    }

    #[test]
    fn checkpoint_restart_preserves_completed_work() {
        let mut s = sim();
        chain(&mut s);
        // `up` finishes at t=2. Fail at t=3: under checkpoint/restart its
        // output survives; only `down` (0.5+ s in) re-runs.
        // makespan = 3 + 1 (downtime) + 2 (down re-run) = 6.
        s.inject_node_failure(NodeId(0), 3.0, 1.0, RecoveryModel::CheckpointRestart)
            .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 6.0).abs() < 1e-6, "makespan {}", r.makespan);
        assert_eq!(r.recovery.tasks_rerun, 1);
        assert_eq!(r.recovery.tasks_recovered, 1, "up's checkpoint survived");
        assert!((r.recovery.wasted_secs - 1.0).abs() < 1e-6, "down's 1 s");
        // `up` executed exactly once.
        assert_eq!(r.tasks.iter().filter(|t| t.name == "up").count(), 1);
    }

    #[test]
    fn rerun_completed_invalidates_needed_outputs() {
        let mut s = sim();
        chain(&mut s);
        // Same failure, Hadoop-style: `up`'s output died with the node
        // (still needed by unfinished `down`), so BOTH re-run.
        // makespan = 3 + 1 + 2 + 2 = 8.
        s.inject_node_failure(NodeId(0), 3.0, 1.0, RecoveryModel::RerunCompleted)
            .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 8.0).abs() < 1e-6, "makespan {}", r.makespan);
        assert_eq!(r.recovery.tasks_rerun, 2);
        assert_eq!(r.recovery.tasks_recovered, 0);
        // up's full 2 s + down's 1 s of progress were wasted.
        assert!((r.recovery.wasted_secs - 3.0).abs() < 1e-6);
        // `up` executed twice; both records are present.
        assert_eq!(r.tasks.iter().filter(|t| t.name == "up").count(), 2);
    }

    #[test]
    fn recovery_overhead_vs_failure_free_baseline() {
        let baseline = {
            let mut s = sim();
            chain(&mut s);
            s.run().unwrap()
        };
        for model in [
            RecoveryModel::CheckpointRestart,
            RecoveryModel::RerunCompleted,
        ] {
            let mut s = sim();
            chain(&mut s);
            s.inject_node_failure(NodeId(0), 3.0, 1.0, model).unwrap();
            let r = s.run().unwrap();
            let overhead = r.recovery_overhead_secs(&baseline);
            assert!(overhead > 0.0, "{model:?} overhead {overhead}");
        }
        assert!(baseline.recovery.is_clean());
    }

    #[test]
    fn failure_spares_other_nodes() {
        let mut s = sim();
        s.add_task(
            TaskSpec::builder("t1", NodeId(1))
                .activity(Activity::compute(NodeId(1), 4.0))
                .build(),
        )
        .unwrap();
        s.add_task(
            TaskSpec::builder("t0", NodeId(0))
                .activity(Activity::compute(NodeId(0), 4.0))
                .build(),
        )
        .unwrap();
        s.inject_node_failure(NodeId(1), 1.0, 2.0, RecoveryModel::CheckpointRestart)
            .unwrap();
        let r = s.run().unwrap();
        // t0 untouched (4 s); t1 restarts at t=3 and runs 4 s -> 7 s.
        assert!((r.makespan - 7.0).abs() < 1e-6, "makespan {}", r.makespan);
        let t0 = r.tasks.iter().find(|t| t.name == "t0").unwrap();
        assert!((t0.end - 4.0).abs() < 1e-6, "t0 unaffected");
    }

    #[test]
    fn queued_victims_requeue_after_reboot() {
        let mut s = sim();
        let kind = SlotKind(0);
        s.configure_slots(kind, 1);
        for i in 0..2 {
            s.add_task(
                TaskSpec::builder(format!("t{i}"), NodeId(0))
                    .slot(kind)
                    .activity(Activity::compute(NodeId(0), 2.0))
                    .build(),
            )
            .unwrap();
        }
        // t0 running, t1 queued when the node dies at t=1.
        s.inject_node_failure(NodeId(0), 1.0, 2.0, RecoveryModel::CheckpointRestart)
            .unwrap();
        let r = s.run().unwrap();
        // Reboot ends t=3, then 2+2 s serially through the single slot.
        assert!((r.makespan - 7.0).abs() < 1e-6, "makespan {}", r.makespan);
        // Queued t1 never started: not counted as a re-run.
        assert_eq!(r.recovery.tasks_rerun, 1);
        assert!((r.recovery.wasted_secs - 1.0).abs() < 1e-6);
    }

    #[test]
    fn profile_reports_nodes_down() {
        let mut s = sim();
        chain(&mut s);
        s.inject_node_failure(NodeId(0), 1.0, 3.0, RecoveryModel::CheckpointRestart)
            .unwrap();
        let r = s.run().unwrap();
        // Node 0 dark over [1, 4): seconds 1-3 of the profile show one
        // node down, second 0 shows none.
        assert!(r.profile.nodes_down[0].abs() < 1e-9);
        assert!((r.profile.nodes_down[1] - 1.0).abs() < 1e-9);
        assert!((r.profile.nodes_down[3] - 1.0).abs() < 1e-9);
        assert!(r.profile.nodes_down[4].abs() < 1e-9);
    }

    #[test]
    fn failure_after_completion_never_fires() {
        let mut s = sim();
        chain(&mut s);
        s.inject_node_failure(NodeId(0), 1e6, 5.0, RecoveryModel::RerunCompleted)
            .unwrap();
        let r = s.run().unwrap();
        assert!((r.makespan - 4.0).abs() < 1e-6);
        assert!(r.recovery.is_clean());
    }

    #[test]
    fn failure_on_missing_node_is_rejected() {
        let mut s = sim();
        assert!(s
            .inject_node_failure(NodeId(9), 1.0, 1.0, RecoveryModel::CheckpointRestart)
            .is_err());
        assert!(s
            .inject_node_failure(NodeId(0), -1.0, 1.0, RecoveryModel::CheckpointRestart)
            .is_err());
    }

    #[test]
    fn determinism_two_identical_runs_match() {
        let build = || {
            let mut s = sim();
            let kind = SlotKind(0);
            s.configure_slots(kind, 2);
            let mut prev: Option<TaskId> = None;
            for i in 0..6 {
                let mut b = TaskSpec::builder(format!("t{i}"), NodeId((i % 2) as u16))
                    .slot(kind)
                    .activity(Activity::compute(NodeId((i % 2) as u16), 1.5));
                if let Some(p) = prev {
                    if i % 3 == 0 {
                        b = b.dep(p);
                    }
                }
                prev = Some(s.add_task(b.build()).unwrap());
            }
            s.inject_node_failure(NodeId(1), 2.0, 1.0, RecoveryModel::RerunCompleted)
                .unwrap();
            s.run().unwrap()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.recovery, b.recovery);
        let names =
            |r: &SimReport| -> Vec<String> { r.tasks.iter().map(|t| t.name.clone()).collect() };
        assert_eq!(names(&a), names(&b));
    }

    #[test]
    fn fifo_slot_handoff_order() {
        let mut s = sim();
        let kind = SlotKind(1);
        s.configure_slots(kind, 1);
        let mut ids = Vec::new();
        for i in 0..3 {
            ids.push(
                s.add_task(
                    TaskSpec::builder(format!("q{i}"), NodeId(1))
                        .slot(kind)
                        .activity(Activity::compute(NodeId(1), 0.5))
                        .build(),
                )
                .unwrap(),
            );
        }
        let r = s.run().unwrap();
        let order: Vec<&str> = r.tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(order, ["q0", "q1", "q2"]);
    }
}
