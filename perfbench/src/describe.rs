//! `--describe`: the make-up of a workload's generated inputs for a seed,
//! without running anything.

use crate::{campaign, fleet, scenarios};
use hypertap_faultinject::fleet::FleetAttack;
use std::collections::BTreeMap;

fn tally<K: Ord>(keys: impl Iterator<Item = K>) -> BTreeMap<K, usize> {
    let mut m = BTreeMap::new();
    for k in keys {
        *m.entry(k).or_insert(0) += 1;
    }
    m
}

pub fn describe(workload: &str, seed: u64) -> String {
    match workload {
        "scenarios" => {
            let v = scenarios::sample_inputs(seed);
            let sim_s: f64 = v.iter().map(|s| s.duration.as_secs_f64()).sum();
            format!(
                "scenarios seed {seed}: {} scenarios, {sim_s:.1} simulated s; mix {:?}; \
                 vcpus {:?}; with a fault {}; with a rootkit {}",
                v.len(),
                tally(v.iter().map(|s| s.mix.label())),
                tally(v.iter().map(|s| s.vcpus)),
                v.iter().filter(|s| s.fault.is_some()).count(),
                v.iter().filter(|s| s.rootkit.is_some()).count(),
            )
        }
        "campaign" => {
            let v = campaign::slice_specs(seed);
            format!(
                "campaign seed {seed}: {} trials at sites {:?}; workloads {:?}; persistent {}, \
                 preemptible {}",
                v.len(),
                campaign::SITES,
                tally(v.iter().map(|s| format!("{:?}", s.workload))),
                v.iter().filter(|s| s.persistent).count(),
                v.iter().filter(|s| s.preemptible).count(),
            )
        }
        _ => {
            let plan = fleet::Plan::sample(seed, fleet::VMS);
            let v = &plan.scenarios;
            let attack = |s: &hypertap_faultinject::fleet::FleetScenario| match s.attack {
                None => "none",
                Some(FleetAttack::Transient) => "transient",
                Some(FleetAttack::RootkitCombined(_)) => "rootkit-combined",
            };
            format!(
                "fleet seed {seed}: {} VMs; workloads {:?}; attacks {:?}; with a fault {}; \
                 attack and no fault {}",
                v.len(),
                tally(v.iter().map(|s| format!("{:?}", s.workload))),
                tally(v.iter().map(attack)),
                v.iter().filter(|s| s.fault.is_some()).count(),
                v.iter().filter(|s| s.attack.is_some() && s.fault.is_none()).count(),
            )
        }
    }
}
