//! `scenarios`: sampled conformance scenarios, each run live with a trace
//! recorder attached, then encoded, compressed, decoded and replayed
//! offline. Exits are dense and short under the fine-grained engines, so
//! the decode, fan-out and codec layers do the most work here.

use crate::measure::{Round, Tracer, Workload};
use hypertap_core::event::VmId;
use hypertap_core::metrics::MetricsRegistry;
use hypertap_hvsim::clock::SimTime;
use hypertap_replay::diff::{diff_traces, DiffPolicy};
use hypertap_replay::prelude::*;
use hypertap_replay::scenario::{WorkloadMix, METRICS_ON};
use std::hint::black_box;
use std::time::Instant;

/// A round's make-up: for each program mix, how many scenarios per vCPU
/// count (one and two) without and with an injected fault (one in three
/// carries a fault, as `Scenario::sample` draws them). A scenario's cost
/// clusters by these three: the make builds exit rarely and take ~2 ms, the
/// writer and Hanoi mixes several times that. With the sampler's even mix the
/// round's median item sat in the sparse gap between the clusters and
/// jumped with the seed; fixed counts, with the make builds at a quarter
/// weight, keep it inside the exit-dense cluster.
const QUOTAS: [(WorkloadMix, usize, usize); 5] = [
    (WorkloadMix::Writer, 42, 21),
    (WorkloadMix::Hanoi, 42, 21),
    (WorkloadMix::WriterPlusHanoi, 42, 21),
    (WorkloadMix::MakeJ1, 10, 5),
    (WorkloadMix::MakeJ2, 10, 5),
];
/// Set-up runs every `WARMUP_STRIDE`-th item of the round untimed.
const WARMUP_STRIDE: usize = 25;

/// Top-level spans of one item, in call order.
const SPANS: [&str; 9] = [
    "harness.build",
    "hvsim.run",
    "replay.verdict",
    "trace.encode",
    "trace.compress",
    "trace.decompress",
    "trace.decode",
    "replay.replay",
    "harness.teardown",
];

pub struct Scenarios {
    inputs: Vec<Scenario>,
}

/// Everything one item produced that the checks look at.
pub struct ItemOutput {
    pub started: SimTime,
    pub ended: SimTime,
    pub live_trace: Trace,
    pub live_verdict: Verdict,
    pub decoded: Result<Trace, TraceError>,
    pub replayed: Option<Verdict>,
}

impl Scenarios {
    /// Generates the round's inputs, constructs every scenario's VM once
    /// and runs every [`WARMUP_STRIDE`]-th item untimed.
    pub fn setup(seed: u64) -> Scenarios {
        let inputs = sample_inputs(seed);
        for s in &inputs {
            black_box(build_scenario_vm(s, &BASE, VmId(0)));
        }
        let mut off = Tracer::new(false);
        for (i, s) in inputs.iter().enumerate().step_by(WARMUP_STRIDE) {
            let out = run_item(s, &BASE, i as u64, &mut off);
            black_box(check_item(s, &out).is_ok());
        }
        Scenarios { inputs }
    }
}

/// The round's inputs: the first scenarios of each cell in
/// `Scenario::sample(seed, 0..)`, in sampling order.
pub fn sample_inputs(seed: u64) -> Vec<Scenario> {
    // Cells indexed by [mix][vCPUs - 1][faulted]; the sampler draws one
    // or two vCPUs.
    let mut taken = [[[0usize; 2]; 2]; QUOTAS.len()];
    let total: usize = QUOTAS.iter().map(|(_, clean, faulted)| 2 * (clean + faulted)).sum();
    let mut inputs = Vec::with_capacity(total);
    for ordinal in 0.. {
        if inputs.len() == total {
            break;
        }
        let s = Scenario::sample(seed, ordinal);
        let mix = QUOTAS.iter().position(|q| q.0 == s.mix).expect("every mix has a quota");
        let faulted = s.fault.is_some();
        let quota = if faulted { QUOTAS[mix].2 } else { QUOTAS[mix].1 };
        let n = &mut taken[mix][s.vcpus - 1][faulted as usize];
        if *n < quota {
            *n += 1;
            inputs.push(s);
        }
    }
    inputs
}

/// One item: build, run live with a recorder, collect the verdict, then
/// encode + compress, decompress + decode, and replay offline.
pub fn run_item(s: &Scenario, variant: &ConfigVariant, item: u64, t: &mut Tracer) -> ItemOutput {
    let mut vm = t.span("harness.build", None, item, || build_scenario_vm(s, variant, VmId(0)));
    let recorder =
        TraceRecorder::new(TraceHeader::new(s.vcpus as u64, s.seed, s.name.clone(), variant.label));
    vm.machine.hypervisor_mut().em.attach_tap(recorder.tap());
    let started = vm.now();
    t.span("hvsim.run", None, item, || vm.run_for(s.duration));
    let ended = vm.now();
    vm.machine.hypervisor_mut().em.detach_tap();
    let (live_trace, live_verdict) = t.span("replay.verdict", None, item, || {
        let trace = recorder.finish();
        let verdict = Verdict::collect(&mut vm.machine.hypervisor_mut().em, &trace);
        (trace, verdict)
    });
    if t.is_on() {
        count_layers(&vm, t);
    }
    let bytes = t.span("trace.encode", None, item, || live_trace.encode());
    let htrz = t.span("trace.compress", None, item, || compress(&bytes));
    t.count("trace.bytes", bytes.len() as f64);
    t.count("trace.htrz_bytes", htrz.len() as f64);
    let raw = t.span("trace.decompress", None, item, || decompress(&htrz));
    let decoded = t.span("trace.decode", None, item, || raw.and_then(|r| Trace::decode(&r)));
    let replayed = t.span("replay.replay", None, item, || {
        decoded.as_ref().ok().map(|d| replay_trace(d, |em| register_auditors(em, s.vcpus)))
    });
    t.span("harness.teardown", None, item, || drop(vm));
    ItemOutput { started, ended, live_trace, live_verdict, decoded, replayed }
}

/// Reads the simulator's, Event Forwarder's and EM's own counters after a
/// traced run (the `METRICS_ON` variant also carries decode and fan-out
/// span totals).
fn count_layers(vm: &hypertap_monitors::harness::TapVm, t: &mut Tracer) {
    let state = vm.machine.vm();
    let hv = vm.machine.hypervisor();
    let tlb = state.tlb_stats();
    let pipe = hv.pipeline_stats();
    let em = hv.em.stats();
    t.count("hvsim.exits", state.stats().total() as f64);
    t.count("hvsim.sim_s", state.now().as_nanos() as f64 / 1e9);
    t.count("hvsim.tlb_hits", tlb.hits as f64);
    t.count("hvsim.tlb_misses", tlb.misses as f64);
    t.count("kvm.events", pipe.events as f64);
    t.count("kvm.batches", pipe.batches as f64);
    t.count("em.events_in", em.events_in as f64);
    t.count("em.sync_delivered", em.sync_delivered as f64);
    t.count("em.fast_skipped", em.fast_skipped as f64);
    let mut reg = MetricsRegistry::new();
    hv.collect_metrics(&mut reg);
    for (stage, key) in [("decode", "kvm.decode_ns"), ("fanout", "em.fanout_ns")] {
        let ns = reg
            .find("hypertap_pipeline_ns", &[("stage", stage)])
            .and_then(|v| v.as_histogram())
            .map(|h| h.sum())
            .unwrap_or(0);
        t.count(key, ns as f64);
    }
}

/// The properties every item must have: the simulated clock reached the
/// scenario's deadline, the trace survives the codec unchanged, the
/// offline replay of the decoded trace reaches the live verdict, and every
/// finding's provenance resolves into the trace.
pub fn check_item(s: &Scenario, out: &ItemOutput) -> Result<(), String> {
    if out.ended < out.started + s.duration {
        return Err(format!(
            "{}: simulated clock stopped at {} before the deadline {}",
            s.name,
            out.ended,
            out.started + s.duration
        ));
    }
    let decoded = out.decoded.as_ref().map_err(|e| format!("{}: decode failed: {e:?}", s.name))?;
    if decoded != &out.live_trace {
        let at = diff_traces(&out.live_trace, decoded, DiffPolicy::Exact)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "header".to_owned());
        return Err(format!("{}: decode(encode(trace)) differs from the trace: {at}", s.name));
    }
    if out.replayed.as_ref() != Some(&out.live_verdict) {
        return Err(format!("{}: offline replay verdict differs from the live verdict", s.name));
    }
    validate_provenance(&out.live_verdict, &out.live_trace)
        .map_err(|e| format!("{}: provenance: {e}", s.name))
}

impl Workload for Scenarios {
    fn round(&mut self, tracer: &mut Tracer) -> Round {
        // The traced run uses the program's own metrics variant, whose
        // decode and fan-out spans split `hvsim.run`.
        let variant = if tracer.is_on() { &METRICS_ON } else { &BASE };
        let mut round = Round::default();
        for (i, s) in self.inputs.iter().enumerate() {
            let t0 = Instant::now();
            let out = run_item(s, variant, i as u64, tracer);
            round.item_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = check_item(s, &out) {
                round.violations.push(e);
            }
        }
        round
    }

    fn layers(&self, t: &Tracer, rounds: usize) -> Vec<(String, f64, &'static str)> {
        let items = (self.inputs.len() * rounds) as f64;
        let c = |k: &str| t.counts().get(k).copied().unwrap_or(0.0);
        let per_round = |k: &str| c(k) / rounds as f64;
        let run_ms = t.total_ms("hvsim.run");
        let decode_ms = c("kvm.decode_ns") / 1e6;
        let fanout_ms = c("em.fanout_ns") / 1e6;
        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put = |n: &str, v: f64, u: &'static str| out.push((n.to_owned(), v, u));
        put("harness.build_ms", t.total_ms("harness.build") / items, "ms");
        put("harness.teardown_ms", t.total_ms("harness.teardown") / items, "ms");
        put("hvsim.run_ms", run_ms / items, "ms");
        put("hvsim.step_ms", (run_ms - decode_ms - fanout_ms) / items, "ms");
        put("hvsim.ns_per_exit", run_ms * 1e6 / c("hvsim.exits").max(1.0), "ns");
        put("hvsim.exits", per_round("hvsim.exits"), "count");
        put("hvsim.sim_s", per_round("hvsim.sim_s"), "s");
        put("hvsim.tlb_hits", per_round("hvsim.tlb_hits"), "count");
        put("hvsim.tlb_misses", per_round("hvsim.tlb_misses"), "count");
        let lookups = (c("hvsim.tlb_hits") + c("hvsim.tlb_misses")).max(1.0);
        put("hvsim.tlb_hit_ratio", c("hvsim.tlb_hits") / lookups, "ratio");
        put("kvm.decode_ms", decode_ms / items, "ms");
        put("em.fanout_ms", fanout_ms / items, "ms");
        put("kvm.events", per_round("kvm.events"), "count");
        put("kvm.batches", per_round("kvm.batches"), "count");
        put("em.events_in", per_round("em.events_in"), "count");
        put("em.sync_delivered", per_round("em.sync_delivered"), "count");
        put("em.fast_skip_ratio", c("em.fast_skipped") / c("em.events_in").max(1.0), "ratio");
        put("replay.verdict_ms", t.total_ms("replay.verdict") / items, "ms");
        put("trace.encode_ms", t.total_ms("trace.encode") / items, "ms");
        put("trace.compress_ms", t.total_ms("trace.compress") / items, "ms");
        put("trace.decompress_ms", t.total_ms("trace.decompress") / items, "ms");
        put("trace.decode_ms", t.total_ms("trace.decode") / items, "ms");
        put("replay.replay_ms", t.total_ms("replay.replay") / items, "ms");
        put("trace.bytes", per_round("trace.bytes"), "bytes");
        put("trace.htrz_bytes", per_round("trace.htrz_bytes"), "bytes");
        out
    }

    fn attributed(&self) -> &'static [&'static str] {
        &SPANS
    }
}
