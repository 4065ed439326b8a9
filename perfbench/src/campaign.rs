//! `campaign`: a fixed slice of the Fig. 4 fault-injection campaign, run
//! one trial at a time with the paper's runner settings (GOSHD at a 4 s
//! threshold). Each trial simulates tens of seconds on context-switch-only
//! engines with one auditor, so the run loop, timers, idle skip and guest
//! kernel do almost all the work; the EM does little and the codec none.

use crate::measure::{median, Round, Tracer, Workload};
use hypertap_faultinject::campaign::default_campaign;
use hypertap_faultinject::runner::{run_trial, RunnerConfig};
use hypertap_faultinject::spec::{Outcome, TrialResult, TrialSpec};
use std::time::Instant;

/// The Fig. 4 grid the slice is cut from (`fig4 --stride 23`).
pub const STRIDE: usize = 23;
/// Sites of that grid the slice keeps: together their 28 trials give
/// full hangs, partial hangs, not-manifested and not-activated outcomes
/// in roughly the proportions of the whole grid.
pub const SITES: [u32; 2] = [299, 368];
/// Untimed warm-up trials run during set-up (the slice's first ones).
const WARMUP: usize = 4;

pub const OUTCOMES: [(Outcome, &str); 5] = [
    (Outcome::NotActivated, "not_activated"),
    (Outcome::NotManifested, "not_manifested"),
    (Outcome::NotDetected, "not_detected"),
    (Outcome::PartialHang, "partial_hang"),
    (Outcome::FullHang, "full_hang"),
];

pub struct Campaign {
    specs: Vec<TrialSpec>,
    runner: RunnerConfig,
    /// The first round's results: every later round must repeat them.
    first: Option<Vec<TrialResult>>,
    /// Traced trials: outcome, host ms, detection latency (simulated ns).
    log: Vec<(Outcome, f64, Option<u64>)>,
}

impl Campaign {
    /// Expands the campaign grid under the workload seed (the seed every
    /// trial's RNG derives from, as `fig4 --seed`), keeps [`SITES`], and
    /// runs the first [`WARMUP`] trials untimed.
    pub fn setup(seed: u64) -> Campaign {
        let specs = slice_specs(seed);
        let runner = RunnerConfig::default();
        for spec in specs.iter().take(WARMUP) {
            std::hint::black_box(run_trial(spec, &runner));
        }
        Campaign { specs, runner, first: None, log: Vec::new() }
    }

    pub fn specs(&self) -> &[TrialSpec] {
        &self.specs
    }
}

/// The slice's trial specs under the workload seed.
pub fn slice_specs(seed: u64) -> Vec<TrialSpec> {
    let mut grid = default_campaign(STRIDE);
    grid.seed = seed;
    grid.specs().into_iter().filter(|s| SITES.contains(&s.site)).collect()
}

/// The ordering properties of GOSHD's verdict on one trial: a fault that
/// never activated raises no alarm, every alarm follows its activation,
/// and a full hang is never declared before the first alarm.
pub fn check_trial(r: &TrialResult) -> Result<(), String> {
    let what = format!("site {} {:?} ({})", r.spec.site, r.spec.workload, r.outcome);
    match (r.activated_at_ns, r.first_alarm_ns) {
        (None, Some(alarm)) => {
            return Err(format!("{what}: alarm at {alarm} ns but the fault never activated"));
        }
        (Some(act), Some(alarm)) if alarm < act => {
            return Err(format!("{what}: alarm at {alarm} ns precedes activation at {act} ns"));
        }
        _ => {}
    }
    if let Some(full) = r.full_hang_at_ns {
        match r.first_alarm_ns {
            Some(alarm) if full >= alarm => {}
            _ => {
                return Err(format!(
                    "{what}: full hang at {full} ns without an earlier alarm ({:?})",
                    r.first_alarm_ns
                ))
            }
        }
    }
    if r.outcome == Outcome::NotActivated && r.activations != 0 {
        return Err(format!(
            "{what}: classified not activated after {} activations",
            r.activations
        ));
    }
    Ok(())
}

impl Workload for Campaign {
    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let mut results = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            let t0 = Instant::now();
            let r = tracer
                .span("faultinject.run_trial", None, i as u64, || run_trial(spec, &self.runner));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            round.item_ms.push(ms);
            if let Err(e) = check_trial(&r) {
                round.violations.push(e);
            }
            if tracer.is_on() {
                self.log.push((r.outcome, ms, r.detection_latency_ns));
            }
            results.push(r);
        }
        // Trials are deterministic: a round must repeat the first exactly.
        match &self.first {
            None => self.first = Some(results),
            Some(first) => {
                for (a, b) in first.iter().zip(&results) {
                    if a != b {
                        round.violations.push(format!(
                            "site {} {:?}: trial result changed between rounds ({} vs {})",
                            a.spec.site, a.spec.workload, a.outcome, b.outcome
                        ));
                    }
                }
            }
        }
        round
    }

    fn layers(&self, _t: &Tracer, rounds: usize) -> Vec<(String, f64, &'static str)> {
        let mut out = Vec::new();
        for (outcome, label) in OUTCOMES {
            let ms: Vec<f64> =
                self.log.iter().filter(|(o, _, _)| *o == outcome).map(|(_, ms, _)| *ms).collect();
            out.push((format!("faultinject.trial_ms.{label}"), median(&ms), "ms"));
            out.push((format!("faultinject.trials.{label}"), (ms.len() / rounds) as f64, "count"));
        }
        let lat: Vec<f64> =
            self.log.iter().filter_map(|(_, _, l)| *l).map(|ns| ns as f64).collect();
        let mean_s =
            if lat.is_empty() { 0.0 } else { lat.iter().sum::<f64>() / lat.len() as f64 / 1e9 };
        out.push(("faultinject.detect_latency_sim_s".to_owned(), mean_s, "s"));
        out
    }

    fn attributed(&self) -> &'static [&'static str] {
        &["faultinject.run_trial"]
    }
}
