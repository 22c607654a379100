//! Fair-share admission: max-min progressive filling over job slots.
//!
//! The coordinator owns a fixed pool of concurrent job slots (the
//! resident mesh can interleave only so many jobs before memory budgets
//! and send windows stop paying off). Tenants submit at will; admission
//! decides *which queued job dispatches next* so that slot allocation
//! converges to the max-min fair share. Each tenant's fair share comes
//! from the simulator's own progressive filling,
//! [`dmpi_dcsim::fairshare::max_min_rates`], over a single resource
//! (slots) with per-tenant caps (quotas) — kept as a float so fractional
//! shares break discrete-dispatch ties the way the simulator would; the
//! controller then dispatches the queued tenant with the largest
//! *deficit* (fair share minus slots currently held), which is exactly
//! progressive filling executed one discrete slot at a time.
//!
//! The controller is work-conserving: when some tenants are idle, the
//! others may exceed their equal split (never their quota), and the
//! water level rises to hand the spare capacity out.

use std::collections::{BTreeMap, VecDeque};

use dmpi_dcsim::fairshare::{max_min_rates, Flow};

use super::protocol::JobSpec;

/// Static admission knobs, fixed at coordinator start.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Concurrent job slots the mesh offers (global running cap).
    pub mesh_slots: usize,
    /// Queued-job cap across all tenants; submissions past it are
    /// rejected rather than buffered without bound.
    pub queue_limit: usize,
    /// Per-tenant running cap (`rate_cap` in simulator terms).
    pub default_quota: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            mesh_slots: 2,
            queue_limit: 64,
            default_quota: 2,
        }
    }
}

/// Why a submission was turned away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The coordinator is draining: running jobs finish, new ones bounce.
    Draining,
    /// The bounded queue is full.
    QueueFull,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Draining => write!(f, "draining"),
            RejectReason::QueueFull => write!(f, "queue full"),
        }
    }
}

#[derive(Default)]
struct TenantState {
    queued: VecDeque<JobSpec>,
    running: usize,
}

/// The live admission controller: bounded queue, per-tenant quotas,
/// max-min dispatch order, graceful drain.
pub struct FairShareAdmission {
    config: AdmissionConfig,
    /// BTreeMap so iteration (and therefore tie-breaking) is
    /// deterministic: equal deficits resolve to the lexicographically
    /// first tenant, on every run.
    tenants: BTreeMap<String, TenantState>,
    queued_total: usize,
    running_total: usize,
    draining: bool,
}

impl FairShareAdmission {
    /// A controller with no tenants yet.
    pub fn new(config: AdmissionConfig) -> Self {
        FairShareAdmission {
            config,
            tenants: BTreeMap::new(),
            queued_total: 0,
            running_total: 0,
            draining: false,
        }
    }

    /// Offers a job for admission. `Ok` means queued (dispatch happens
    /// later, via [`next_to_dispatch`](Self::next_to_dispatch)).
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), RejectReason> {
        if self.draining {
            return Err(RejectReason::Draining);
        }
        if self.queued_total >= self.config.queue_limit {
            return Err(RejectReason::QueueFull);
        }
        self.tenants
            .entry(spec.tenant.clone())
            .or_default()
            .queued
            .push_back(spec);
        self.queued_total += 1;
        Ok(())
    }

    /// Picks the next job to start, or `None` if every queued tenant is
    /// at quota or the mesh is at capacity. The pick maximises the
    /// tenant's max-min deficit: fair share (one water level rising over
    /// the tenants that currently want slots until the slots are spent
    /// or every tenant is at its cap) minus slots already held.
    pub fn next_to_dispatch(&mut self) -> Option<JobSpec> {
        if self.running_total >= self.config.mesh_slots {
            return None;
        }
        // Demand for each active tenant = what it could use right now,
        // clamped by its quota (the simulator's rate_cap).
        let active: Vec<(&String, f64)> = self
            .tenants
            .iter()
            .filter(|(_, t)| t.queued.len() + t.running > 0)
            .map(|(name, t)| {
                let want = (t.queued.len() + t.running).min(self.config.default_quota);
                (name, want as f64)
            })
            .collect();
        if active.is_empty() {
            return None;
        }
        let flows: Vec<Flow> = active.iter().map(|(_, want)| slot_flow(*want)).collect();
        let shares = max_min_rates(&flows, &[self.config.mesh_slots as f64]);
        let mut best: Option<(&String, f64)> = None;
        for ((name, _), share) in active.iter().zip(shares.iter()) {
            let t = &self.tenants[*name];
            if t.queued.is_empty() || t.running >= self.config.default_quota {
                continue;
            }
            let deficit = share - t.running as f64;
            // Strict `>` keeps the BTreeMap's lexicographic order as the
            // deterministic tie-break.
            if best.map(|(_, d)| deficit > d).unwrap_or(true) {
                best = Some((name, deficit));
            }
        }
        let name = best?.0.clone();
        let t = self.tenants.get_mut(&name).expect("picked tenant exists");
        let spec = t.queued.pop_front().expect("picked tenant has queue");
        t.running += 1;
        self.queued_total -= 1;
        self.running_total += 1;
        Some(spec)
    }

    /// Returns a finished (or failed) job's slot to the pool.
    pub fn release(&mut self, tenant: &str) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.running = t.running.saturating_sub(1);
            self.running_total = self.running_total.saturating_sub(1);
        }
    }

    /// Enters drain: running jobs finish, new submissions are rejected.
    pub fn start_drain(&mut self) {
        self.draining = true;
    }

    /// True once draining and nothing is queued or running.
    pub fn drained(&self) -> bool {
        self.draining && self.queued_total == 0 && self.running_total == 0
    }

    /// Jobs currently executing on the mesh.
    pub fn running_total(&self) -> usize {
        self.running_total
    }

    /// Jobs waiting for a slot.
    pub fn queued_total(&self) -> usize {
        self.queued_total
    }

    /// One `tenant=… queued=… running=…` status fragment per tenant that
    /// has ever submitted, for the `status` verb.
    pub fn status_fragments(&self) -> Vec<String> {
        self.tenants
            .iter()
            .map(|(name, t)| {
                format!(
                    "tenant={} queued={} running={}",
                    super::protocol::esc(name),
                    t.queued.len(),
                    t.running
                )
            })
            .collect()
    }
}

/// One tenant's demand on the slot pool (resource 0), capped at `cap`.
fn slot_flow(cap: f64) -> Flow {
    Flow::with_cap(vec![(0, 1.0)], cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tenant: &str, seed: u64) -> JobSpec {
        JobSpec {
            id: 0,
            tenant: tenant.to_string(),
            workload: "wordcount".to_string(),
            tasks: 2,
            bytes_per_task: 1024,
            seed,
            o_parallelism: 1,
            out: None,
            spill_dir: None,
            spill_compress: false,
        }
    }

    fn fair_shares(caps: &[f64], capacity: f64) -> Vec<f64> {
        let flows: Vec<Flow> = caps.iter().map(|&cap| slot_flow(cap)).collect();
        max_min_rates(&flows, &[capacity])
    }

    #[test]
    fn fair_shares_are_max_min_with_caps() {
        // Uncontended: everyone gets their demand.
        assert_eq!(fair_shares(&[1.0, 2.0], 10.0), vec![1.0, 2.0]);
        // Contended equal demands: even split.
        assert_eq!(fair_shares(&[5.0, 5.0], 4.0), vec![2.0, 2.0]);
        // A small flow frees headroom for the big one.
        let r = fair_shares(&[1.0, 9.0], 4.0);
        assert!((r[0] - 1.0).abs() < 1e-9 && (r[1] - 3.0).abs() < 1e-9);
        // Degenerate inputs.
        assert!(fair_shares(&[], 4.0).is_empty());
        assert_eq!(fair_shares(&[3.0], 0.0), vec![0.0]);
    }

    #[test]
    fn equal_tenants_alternate_under_contention() {
        let mut adm = FairShareAdmission::new(AdmissionConfig {
            mesh_slots: 2,
            queue_limit: 16,
            default_quota: 2,
        });
        for i in 0..3 {
            adm.submit(spec("alice", i)).unwrap();
            adm.submit(spec("bob", i)).unwrap();
        }
        let first = adm.next_to_dispatch().unwrap();
        let second = adm.next_to_dispatch().unwrap();
        assert_eq!(first.tenant, "alice", "lexicographic tie-break");
        assert_eq!(second.tenant, "bob", "deficit now favours bob");
        assert!(adm.next_to_dispatch().is_none(), "mesh at capacity");
        adm.release("alice");
        // alice: 0 running, bob: 1 → alice has the larger deficit.
        assert_eq!(adm.next_to_dispatch().unwrap().tenant, "alice");
    }

    #[test]
    fn idle_tenants_do_not_strand_slots() {
        let mut adm = FairShareAdmission::new(AdmissionConfig {
            mesh_slots: 3,
            queue_limit: 16,
            default_quota: 3,
        });
        adm.submit(spec("solo", 1)).unwrap();
        adm.submit(spec("solo", 2)).unwrap();
        adm.submit(spec("solo", 3)).unwrap();
        // Work conservation: with nobody else demanding, solo takes all
        // three slots.
        assert_eq!(adm.next_to_dispatch().unwrap().tenant, "solo");
        assert_eq!(adm.next_to_dispatch().unwrap().tenant, "solo");
        assert_eq!(adm.next_to_dispatch().unwrap().tenant, "solo");
        assert_eq!(adm.running_total(), 3);
    }

    #[test]
    fn quota_caps_a_greedy_tenant() {
        let mut adm = FairShareAdmission::new(AdmissionConfig {
            mesh_slots: 4,
            queue_limit: 16,
            default_quota: 2,
        });
        for i in 0..4 {
            adm.submit(spec("greedy", i)).unwrap();
        }
        assert!(adm.next_to_dispatch().is_some());
        assert!(adm.next_to_dispatch().is_some());
        assert!(
            adm.next_to_dispatch().is_none(),
            "quota binds before the mesh does"
        );
        assert_eq!(adm.queued_total(), 2);
    }

    #[test]
    fn queue_limit_and_drain_reject() {
        let mut adm = FairShareAdmission::new(AdmissionConfig {
            mesh_slots: 1,
            queue_limit: 2,
            default_quota: 1,
        });
        adm.submit(spec("a", 1)).unwrap();
        adm.submit(spec("a", 2)).unwrap();
        assert_eq!(adm.submit(spec("a", 3)), Err(RejectReason::QueueFull));
        adm.start_drain();
        assert_eq!(adm.submit(spec("b", 1)), Err(RejectReason::Draining));
        assert!(!adm.drained(), "queued work still pending");
        let j = adm.next_to_dispatch().unwrap();
        adm.release(&j.tenant);
        let j = adm.next_to_dispatch().unwrap();
        adm.release(&j.tenant);
        assert!(adm.drained());
    }
}
