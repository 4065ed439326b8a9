//! `--self-test`: every workload at its smallest size, proving each
//! correctness check passes on real output and fails on corrupted output.

use crate::campaign::{check_trial, Campaign};
use crate::fleet::{check_detection, Fleet, Plan};
use crate::measure::Tracer;
use crate::scenarios::{check_item, run_item};
use hypertap_faultinject::fleet::FleetAttack;
use hypertap_faultinject::runner::{run_trial, RunnerConfig};
use hypertap_replay::prelude::*;

const SEED: u64 = 7;

fn expect(ok: &mut bool, what: &str, passed: bool) {
    println!("self-test: {what}: {}", if passed { "ok" } else { "FAILED" });
    *ok &= passed;
}

pub fn run() -> i32 {
    let mut ok = true;
    scenarios(&mut ok);
    campaign(&mut ok);
    fleet(&mut ok);
    println!("self-test: {}", if ok { "all checks bite" } else { "FAILED" });
    if ok {
        0
    } else {
        1
    }
}

fn scenarios(ok: &mut bool) {
    let mut off = Tracer::new(false);
    for i in 0..2 {
        let s = Scenario::sample(SEED, i);
        let mut out = run_item(&s, &BASE, i, &mut off);
        expect(ok, &format!("scenarios {}: live run passes", s.name), check_item(&s, &out).is_ok());

        // A corrupted trace must fail the replay check.
        if let Ok(decoded) = out.decoded.as_mut() {
            decoded.tamper(decoded.records.len() as u64 / 2);
            out.replayed = Some(replay_trace(decoded, |em| register_auditors(em, s.vcpus)));
        }
        let caught = check_item(&s, &out).err().unwrap_or_default();
        let first = caught.lines().next().unwrap_or("not caught");
        expect(
            ok,
            &format!("scenarios {}: tampered trace is caught: {first}", s.name),
            !caught.is_empty(),
        );

        // A clock that stopped short of the deadline must be caught.
        let mut short = run_item(&s, &BASE, i, &mut off);
        short.ended = short.started;
        expect(
            ok,
            &format!("scenarios {}: stopped clock is caught", s.name),
            check_item(&s, &short).is_err(),
        );
    }
}

fn campaign(ok: &mut bool) {
    let slice = Campaign::setup(SEED);
    let runner = RunnerConfig::default();
    let detected = slice
        .specs()
        .iter()
        .map(|spec| run_trial(spec, &runner))
        .find(|r| r.first_alarm_ns.is_some() && r.full_hang_at_ns.is_some())
        .expect("the slice holds a full hang");
    expect(ok, "campaign: full-hang trial passes", check_trial(&detected).is_ok());

    let mut early = detected.clone();
    early.first_alarm_ns = early.activated_at_ns.map(|a| a.saturating_sub(1));
    expect(ok, "campaign: alarm before activation is caught", check_trial(&early).is_err());

    let mut unactivated = detected.clone();
    unactivated.activated_at_ns = None;
    expect(ok, "campaign: alarm without activation is caught", check_trial(&unactivated).is_err());

    let mut premature = detected;
    premature.full_hang_at_ns = premature.first_alarm_ns.map(|a| a.saturating_sub(1));
    expect(
        ok,
        "campaign: full hang before the first alarm is caught",
        check_trial(&premature).is_err(),
    );
}

fn fleet(ok: &mut bool) {
    // The smallest plan that holds both an attack-only VM and a VM with no
    // attack, so both directions of the check are exercised.
    let vms = (2..64)
        .find(|&n| {
            let p = Plan::sample(SEED, n);
            p.scenarios.iter().any(|s| s.attack.is_some() && s.fault.is_none())
                && p.scenarios.iter().any(|s| s.attack.is_none())
        })
        .expect("a small plan covers both cases");
    let fleet = Fleet::with_plan(Plan::sample(SEED, vms));
    let (reports, _, _, _) = fleet.run(&mut Tracer::new(false));
    let truth = Plan::sample(SEED, vms).scenarios;
    let clean = check_detection(&truth, &reports);
    expect(ok, &format!("fleet of {vms}: detection check passes {clean:?}"), clean.is_empty());

    let mut flipped = truth.clone();
    let attacked = flipped.iter_mut().find(|s| s.attack.is_some() && s.fault.is_none());
    attacked.expect("plan holds an attack-only VM").attack = None;
    expect(
        ok,
        "fleet: ground truth with an attack removed is caught",
        !check_detection(&flipped, &reports).is_empty(),
    );

    let mut flipped = truth;
    let quiet = flipped.iter_mut().find(|s| s.attack.is_none() && s.fault.is_none());
    if let Some(s) = quiet {
        s.attack = Some(FleetAttack::Transient);
        expect(
            ok,
            "fleet: ground truth with an attack added is caught",
            !check_detection(&flipped, &reports).is_empty(),
        );
    }
}
