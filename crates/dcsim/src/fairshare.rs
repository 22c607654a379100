//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of flows (task activities), each demanding a vector of
//! resources, find rates `x_i` such that resource capacities are respected
//! (`Σ_i x_i·d_ir ≤ C_r`) and the allocation is max-min fair: no flow's rate
//! can be raised without lowering a flow with an equal-or-smaller rate.
//!
//! A rate `x_i` is in "activity fractions per second": a flow with rate `x`
//! finishes its activity in `1/x` seconds and consumes `x·d_ir` units of
//! each demanded resource per second. This is the classic fluid model used
//! by network/datacenter simulators (SimGrid's sharing model, WSS papers).
//!
//! The algorithm is *progressive filling*: raise every unfrozen flow's rate
//! at the same pace until some resource saturates; freeze the flows crossing
//! that resource; repeat. With `R` resources the loop runs at most `R`
//! times.

/// A flow's demand vector, referencing resources by dense index.
#[derive(Clone, Debug)]
pub struct Flow {
    /// `(dense resource index, amount)` pairs; amounts must be positive.
    pub demands: Vec<(usize, f64)>,
    /// Upper bound on the flow's rate, independent of resource capacity.
    /// The engine uses this to encode that a task is single-threaded: its
    /// CPU consumption rate cannot exceed one core even on an idle node.
    pub rate_cap: f64,
}

impl Flow {
    /// An uncapped flow.
    pub fn new(demands: Vec<(usize, f64)>) -> Self {
        Flow {
            demands,
            rate_cap: f64::INFINITY,
        }
    }

    /// A flow capped at `rate_cap` activity-fractions per second.
    pub fn with_cap(demands: Vec<(usize, f64)>, rate_cap: f64) -> Self {
        Flow { demands, rate_cap }
    }
}

/// Numerical tolerance for saturation checks.
const EPS: f64 = 1e-12;

/// Computes max-min fair rates for `flows` against `capacities` (indexed by
/// dense resource index). Returns one rate per flow; flows with empty demand
/// vectors get `f64::INFINITY` (they complete instantly).
pub fn max_min_rates(flows: &[Flow], capacities: &[f64]) -> Vec<f64> {
    let n = flows.len();
    let mut rates = vec![0.0f64; n];
    if n == 0 {
        return rates;
    }

    let mut remaining = capacities.to_vec();
    let mut active: Vec<usize> = Vec::with_capacity(n);
    for (i, f) in flows.iter().enumerate() {
        if f.demands.is_empty() {
            rates[i] = f.rate_cap; // typically INFINITY: completes instantly
        } else {
            debug_assert!(
                f.demands.iter().all(|&(_, a)| a > 0.0),
                "flow demands must be positive"
            );
            if f.rate_cap > 0.0 {
                active.push(i);
            }
        }
    }

    // Scratch: per-resource demand sums of active flows.
    let mut sums = vec![0.0f64; capacities.len()];

    while !active.is_empty() {
        for s in sums.iter_mut() {
            *s = 0.0;
        }
        for &i in &active {
            for &(r, a) in &flows[i].demands {
                sums[r] += a;
            }
        }

        // How far can all active rates rise before some resource saturates
        // or some flow hits its cap?
        let mut delta = f64::INFINITY;
        for (r, &s) in sums.iter().enumerate() {
            if s > EPS {
                let headroom = remaining[r] / s;
                if headroom < delta {
                    delta = headroom;
                }
            }
        }
        for &i in &active {
            let to_cap = flows[i].rate_cap - rates[i];
            if to_cap < delta {
                delta = to_cap;
            }
        }
        if !delta.is_finite() {
            // No active flow touches a constrained resource — cannot happen
            // with non-empty positive demands, but guard against FP drift.
            break;
        }
        let delta = delta.max(0.0);

        for &i in &active {
            rates[i] += delta;
        }
        for (r, &s) in sums.iter().enumerate() {
            if s > EPS {
                remaining[r] -= delta * s;
            }
        }

        // Freeze flows that touch any saturated resource or reached their
        // rate cap.
        let saturated: Vec<bool> = remaining.iter().map(|&r| r <= EPS).collect();
        let before = active.len();
        active.retain(|&i| {
            rates[i] < flows[i].rate_cap - EPS
                && !flows[i].demands.iter().any(|&(r, _)| saturated[r])
        });
        if active.len() == before {
            // Progress guarantee: delta chose a saturating resource or a
            // cap, so at least one flow must freeze; if FP noise prevented
            // that, stop.
            break;
        }
    }
    rates
}

/// Computed allocation summary for metrics: per-resource consumption rate
/// (`Σ_i x_i·d_ir`).
pub fn resource_consumption(flows: &[Flow], rates: &[f64], num_resources: usize) -> Vec<f64> {
    let mut usage = vec![0.0f64; num_resources];
    for (f, &x) in flows.iter().zip(rates) {
        if !x.is_finite() {
            continue;
        }
        for &(r, a) in &f.demands {
            usage[r] += x * a;
        }
    }
    usage
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(demands: &[(usize, f64)]) -> Flow {
        Flow::new(demands.to_vec())
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let flows = vec![flow(&[(0, 100.0)])];
        let rates = max_min_rates(&flows, &[50.0]);
        // rate = 50/100 = 0.5 activity/s -> finishes in 2 s
        assert!((rates[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn equal_flows_share_equally() {
        let flows = vec![flow(&[(0, 10.0)]), flow(&[(0, 10.0)])];
        let rates = max_min_rates(&flows, &[10.0]);
        assert!((rates[0] - 0.5).abs() < 1e-9);
        assert!((rates[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unequal_demands_get_equal_rates_on_shared_bottleneck() {
        // Max-min fairness equalizes *rates*, so the heavier flow consumes
        // more of the resource.
        let flows = vec![flow(&[(0, 30.0)]), flow(&[(0, 10.0)])];
        let rates = max_min_rates(&flows, &[40.0]);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bottlenecked_flow_releases_other_resources() {
        // Flow A uses r0 (tight) and r1 (loose); flow B uses only r1.
        // A is frozen early by r0; B should then soak up the rest of r1.
        let flows = vec![flow(&[(0, 10.0), (1, 10.0)]), flow(&[(1, 10.0)])];
        let rates = max_min_rates(&flows, &[1.0, 100.0]);
        assert!((rates[0] - 0.1).abs() < 1e-9, "A limited by r0");
        // B gets (100 - 0.1*10)/10 = 9.9
        assert!((rates[1] - 9.9).abs() < 1e-9, "B soaks leftover r1");
    }

    #[test]
    fn three_stage_waterfill() {
        // Classic example: three flows, two links.
        // f0 uses link0 only; f1 uses both; f2 uses link1 only.
        // cap(link0)=1, cap(link1)=2.
        let flows = vec![
            flow(&[(0, 1.0)]),
            flow(&[(0, 1.0), (1, 1.0)]),
            flow(&[(1, 1.0)]),
        ];
        let rates = max_min_rates(&flows, &[1.0, 2.0]);
        // link0 saturates first at rate 0.5 for f0,f1; then f2 rises to 1.5.
        assert!((rates[0] - 0.5).abs() < 1e-9);
        assert!((rates[1] - 0.5).abs() < 1e-9);
        assert!((rates[2] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_demand_flows_are_infinite() {
        let flows = vec![flow(&[]), flow(&[(0, 1.0)])];
        let rates = max_min_rates(&flows, &[1.0]);
        assert!(rates[0].is_infinite());
        assert!((rates[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capacities_are_respected() {
        // Random-ish mixed workload; verify feasibility post-hoc.
        let flows: Vec<Flow> = (0..20)
            .map(|i| flow(&[(i % 4, 1.0 + (i as f64)), ((i + 1) % 4, 2.0)]))
            .collect();
        let caps = [10.0, 20.0, 15.0, 5.0];
        let rates = max_min_rates(&flows, &caps);
        let usage = resource_consumption(&flows, &rates, 4);
        for (r, &u) in usage.iter().enumerate() {
            assert!(
                u <= caps[r] * (1.0 + 1e-9),
                "resource {r} over capacity: {u} > {}",
                caps[r]
            );
        }
        // Max-min: every flow should be bottlenecked by some saturated
        // resource (rate can't be zero).
        for (i, &x) in rates.iter().enumerate() {
            assert!(x > 0.0, "flow {i} starved");
        }
    }

    #[test]
    fn consumption_of_no_flows_is_zero() {
        let usage = resource_consumption(&[], &[], 3);
        assert_eq!(usage, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn rate_cap_limits_a_lone_flow() {
        // One task with 4 core-seconds of CPU on an idle 8-core node: a
        // single thread still only gets 1 core -> rate 0.25/s.
        let flows = vec![Flow::with_cap(vec![(0, 4.0)], 0.25)];
        let rates = max_min_rates(&flows, &[8.0]);
        assert!((rates[0] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn capped_flow_releases_capacity_to_others() {
        // Flow A capped low; flow B uncapped on the same resource should
        // soak up the remainder.
        let flows = vec![
            Flow::with_cap(vec![(0, 1.0)], 0.5),
            Flow::new(vec![(0, 1.0)]),
        ];
        let rates = max_min_rates(&flows, &[10.0]);
        assert!((rates[0] - 0.5).abs() < 1e-9);
        assert!((rates[1] - 9.5).abs() < 1e-9);
    }

    // Edge cases hardened before the port into the live service
    // admission controller (`datampi::service::FairShareAdmission`),
    // which runs this algorithm against real tenants instead of
    // simulated flows.

    #[test]
    fn zero_demand_flow_with_finite_cap_completes_at_cap() {
        // An empty demand vector means "consumes nothing": the flow's
        // rate is its cap verbatim, and it must not disturb the flows
        // that do compete.
        let flows = vec![
            Flow::with_cap(vec![], 3.0),
            flow(&[(0, 2.0)]),
            flow(&[(0, 2.0)]),
        ];
        let rates = max_min_rates(&flows, &[8.0]);
        assert!((rates[0] - 3.0).abs() < 1e-9, "cap verbatim, not INFINITY");
        assert!((rates[1] - 2.0).abs() < 1e-9);
        assert!((rates[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_cap_flow_stays_frozen_without_starving_others() {
        let flows = vec![
            Flow::with_cap(vec![(0, 1.0)], 0.0),
            Flow::new(vec![(0, 1.0)]),
        ];
        let rates = max_min_rates(&flows, &[4.0]);
        assert_eq!(rates[0], 0.0, "cap 0 never rises");
        assert!((rates[1] - 4.0).abs() < 1e-9, "capacity flows past it");
    }

    #[test]
    fn rate_cap_binding_exactly_at_the_fair_share_is_stable() {
        // Cap equal to the uncapped fair share: either freeze order
        // (cap first or saturation first) must land on the same rates.
        let flows = vec![
            Flow::with_cap(vec![(0, 1.0)], 5.0),
            Flow::new(vec![(0, 1.0)]),
        ];
        let rates = max_min_rates(&flows, &[10.0]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
        let usage = resource_consumption(&flows, &rates, 1);
        assert!((usage[0] - 10.0).abs() < 1e-9, "no capacity stranded");
    }

    #[test]
    fn single_saturated_resource_splits_exactly() {
        // Many flows, one resource: progressive filling must hand out
        // exactly the capacity (no drift), equally per unit demand.
        let flows: Vec<Flow> = (0..7).map(|_| flow(&[(0, 3.0)])).collect();
        let rates = max_min_rates(&flows, &[21.0]);
        for r in &rates {
            assert!((r - 1.0).abs() < 1e-9, "21 / (7 flows × demand 3) = 1");
        }
        let usage = resource_consumption(&flows, &rates, 1);
        assert!((usage[0] - 21.0).abs() < 1e-9);
    }

    #[test]
    fn empty_capacities_are_not_a_panic() {
        // No resources at all: flows with no demands complete instantly,
        // and there is nothing for anyone else to demand.
        assert!(max_min_rates(&[], &[]).is_empty());
        let rates = max_min_rates(&[flow(&[]), Flow::with_cap(vec![], 2.0)], &[]);
        assert!(rates[0].is_infinite());
        assert!((rates[1] - 2.0).abs() < 1e-9);
        // Zero-capacity resource: demanding flows stay at rate 0.
        let rates = max_min_rates(&[flow(&[(0, 1.0)])], &[0.0]);
        assert_eq!(rates[0], 0.0);
    }

    #[test]
    fn pipelined_vs_staged_intuition() {
        // The core modeling claim of this simulator: one activity demanding
        // disk AND cpu together finishes in max(t_disk, t_cpu); two
        // sequential activities cost the sum. Here we just check the rate
        // math for the coupled case.
        // demand: 100 bytes disk (cap 50/s) + 1 core-sec cpu (cap 4/s).
        let flows = vec![flow(&[(0, 100.0), (1, 1.0)])];
        let rates = max_min_rates(&flows, &[50.0, 4.0]);
        // disk-bound: rate = 0.5/s -> 2 s, while cpu alone would allow 4/s.
        assert!((rates[0] - 0.5).abs() < 1e-9);
    }
}
