//! `fleet`: the quick fleet campaign over [`VMS`] guests sharded over at
//! most two worker threads. All three auditors run here — GOSHD, periodic
//! HRKD (VMI page walks) and HT-Ninja on syscall/IO exits — together with
//! slicing, worker sharding and report aggregation.
//!
//! Each VM is built by `build_campaign_vm` from a plan sampled during
//! set-up and enrolled as a `FleetMember`, wrapped in a shim that times
//! every `step_slice` and `finish` on the worker that runs it.

use crate::measure::{quantile, Round, Span, Tracer, Workload};
use hypertap_core::em::DeliveryStats;
use hypertap_core::fleet::{
    run_fleet, FleetConfig, FleetVm, FleetWorkload, SliceOutcome, VmReport,
};
use hypertap_core::kvm::PipelineStats;
use hypertap_core::metrics::MetricsRegistry;
use hypertap_core::prelude::VmId;
use hypertap_faultinject::fleet::{
    build_campaign_vm, summarize, FleetCampaign, FleetCampaignSummary, FleetScenario,
};
use hypertap_hvsim::tlb::TlbStats;
use hypertap_monitors::fleet::FleetMember;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Guests per round.
pub const VMS: usize = 256;
/// The auditor whose verdict the detection check judges.
const HT_NINJA: &str = "ht-ninja";
/// Auditors whose findings are counted per round.
const AUDITORS: [&str; 3] = ["goshd", "hrkd", HT_NINJA];

/// The generated inputs: the campaign timing and one sampled scenario per
/// VM. The program receives these, never the seed.
pub struct Plan {
    pub campaign: FleetCampaign,
    pub scenarios: Vec<FleetScenario>,
}

impl Plan {
    pub fn sample(seed: u64, vms: usize) -> Plan {
        Plan {
            campaign: FleetCampaign::quick(seed),
            scenarios: (0..vms).map(|i| FleetScenario::sample(seed, VmId(i as u32))).collect(),
        }
    }
}

/// What the shim saw of one VM, handed back when the VM finishes.
pub(crate) struct VmRecord {
    vm: u32,
    worker: String,
    build_ns: u64,
    finish_ns: u64,
    /// `(start since the tracer's origin, duration)` of every slice.
    slices: Vec<(u64, u64)>,
    exits: u64,
    sim_ns: u64,
    tlb: TlbStats,
    pipe: PipelineStats,
    em: DeliveryStats,
    decode_ns: u64,
    fanout_ns: u64,
}

/// The fleet workload as `run_fleet` sees it: builds each VM from the
/// plan and wraps it in a [`TimedMember`].
struct TimedFleet {
    plan: Arc<Plan>,
    traced: bool,
    origin: Instant,
    sink: Arc<Mutex<Vec<VmRecord>>>,
}

impl FleetWorkload for TimedFleet {
    fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
        let t0 = Instant::now();
        let scenario = &self.plan.scenarios[vm.0 as usize];
        let mut tap = build_campaign_vm(&self.plan.campaign, scenario);
        if self.traced {
            tap.machine.hypervisor_mut().set_metrics_enabled(true);
        }
        let campaign = &self.plan.campaign;
        let member = FleetMember::new(tap, vm, campaign.duration, campaign.slice);
        let build_ns = t0.elapsed().as_nanos() as u64;
        Box::new(TimedMember {
            inner: member,
            traced: self.traced,
            origin: self.origin,
            build_ns,
            slices: Vec::new(),
            sink: Arc::clone(&self.sink),
        })
    }
}

struct TimedMember {
    inner: FleetMember,
    traced: bool,
    origin: Instant,
    build_ns: u64,
    slices: Vec<(u64, u64)>,
    sink: Arc<Mutex<Vec<VmRecord>>>,
}

impl FleetVm for TimedMember {
    fn step_slice(&mut self) -> SliceOutcome {
        let t0 = Instant::now();
        let out = self.inner.step_slice();
        let dur = t0.elapsed().as_nanos() as u64;
        let start = if self.traced { t0.duration_since(self.origin).as_nanos() as u64 } else { 0 };
        self.slices.push((start, dur));
        out
    }

    fn finish(&mut self) -> VmReport {
        let t0 = Instant::now();
        let report = self.inner.finish();
        let finish_ns = t0.elapsed().as_nanos() as u64;
        let vm = self.inner.vm();
        let state = vm.machine.vm();
        let hv = vm.machine.hypervisor();
        let (mut decode_ns, mut fanout_ns) = (0, 0);
        if self.traced {
            let mut reg = MetricsRegistry::new();
            hv.collect_metrics(&mut reg);
            let sum = |stage: &str| {
                reg.find("hypertap_pipeline_ns", &[("stage", stage)])
                    .and_then(|v| v.as_histogram())
                    .map(|h| h.sum())
                    .unwrap_or(0)
            };
            decode_ns = sum("decode");
            fanout_ns = sum("fanout");
        }
        let record = VmRecord {
            vm: self.inner.id().0,
            worker: std::thread::current().name().unwrap_or("main").to_owned(),
            build_ns: self.build_ns,
            finish_ns,
            slices: std::mem::take(&mut self.slices),
            exits: state.stats().total(),
            sim_ns: state.now().as_nanos(),
            tlb: state.tlb_stats(),
            pipe: hv.pipeline_stats(),
            em: hv.em.stats(),
            decode_ns,
            fanout_ns,
        };
        self.sink.lock().expect("a fleet worker panicked while recording").push(record);
        report
    }

    fn flight_dump(&mut self, reason: &str) -> Option<Vec<u8>> {
        self.inner.flight_dump(reason)
    }
}

pub struct Fleet {
    plan: Arc<Plan>,
    workers: usize,
    /// Rendered findings per VM from the first round; later rounds must
    /// repeat them (the fleet determinism contract).
    first: Option<Vec<Vec<String>>>,
    /// Per traced round: wall of `run_fleet`, the shim's records, and the
    /// findings tally by auditor.
    traced: Vec<(u64, Vec<VmRecord>, BTreeMap<String, u64>)>,
}

impl Fleet {
    /// Samples the plan, then constructs every VM once and steps it one
    /// slice untimed. The VMs are built on as many threads as a round
    /// uses, sharded the same way, so set-up warms the same allocator
    /// arenas the round's workers reuse instead of adding a main-thread
    /// heap to the peak resident memory.
    pub fn setup(seed: u64) -> Fleet {
        let fleet = Fleet::with_plan(Plan::sample(seed, VMS));
        let plan = &fleet.plan;
        std::thread::scope(|scope| {
            for w in 0..fleet.workers {
                scope.spawn(move || {
                    let mut shard: Vec<FleetMember> = (w..plan.scenarios.len())
                        .step_by(fleet.workers)
                        .map(|i| {
                            let s = &plan.scenarios[i];
                            let vm = build_campaign_vm(&plan.campaign, s);
                            FleetMember::new(vm, s.vm, plan.campaign.duration, plan.campaign.slice)
                        })
                        .collect();
                    for vm in &mut shard {
                        std::hint::black_box(vm.step_slice());
                    }
                });
            }
        });
        fleet
    }

    pub fn with_plan(plan: Plan) -> Fleet {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(2);
        Fleet { plan: Arc::new(plan), workers, first: None, traced: Vec::new() }
    }

    /// One `run_fleet` over the whole plan plus the report aggregation.
    /// Returns the per-VM reports, the program's summary of them, the
    /// shim's records and the wall time of `run_fleet` in ns.
    pub(crate) fn run(
        &self,
        tracer: &mut Tracer,
    ) -> (Vec<VmReport>, FleetCampaignSummary, Vec<VmRecord>, u64) {
        let sink = Arc::new(Mutex::new(Vec::with_capacity(self.plan.scenarios.len())));
        let workload = Arc::new(TimedFleet {
            plan: Arc::clone(&self.plan),
            traced: tracer.is_on(),
            origin: tracer.origin(),
            sink: Arc::clone(&sink),
        });
        let t0 = Instant::now();
        let report = tracer.span("fleet.run", None, 0, || {
            run_fleet(workload, FleetConfig::new(self.plan.scenarios.len(), self.workers))
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let summary = tracer.span("fleet.aggregate", None, 0, || {
            std::hint::black_box(report.aggregate());
            summarize(&report)
        });
        let records = std::mem::take(&mut *sink.lock().expect("fleet workers have exited"));
        (report.per_vm, summary, records, wall_ns)
    }
}

/// Judges every VM's HT-Ninja verdict against the plan: a VM that hosts an
/// attack and no fault must be flagged, and a VM without an attack never.
/// (A fault can wedge a guest before its attack runs, so those VMs are
/// left unjudged.)
pub fn check_detection(plan: &[FleetScenario], reports: &[VmReport]) -> Vec<String> {
    let mut bad = Vec::new();
    if reports.len() != plan.len() {
        bad.push(format!("{} VM reports for a plan of {} VMs", reports.len(), plan.len()));
    }
    for (r, s) in reports.iter().zip(plan) {
        if r.vm != s.vm {
            bad.push(format!("report for {} where {} was expected", r.vm, s.vm));
            continue;
        }
        let flagged = r.findings.iter().any(|f| f.auditor == HT_NINJA);
        match (s.attack, s.fault) {
            (Some(a), None) if !flagged => {
                bad.push(format!("{}: attack {a:?} without a fault was not flagged", s.vm))
            }
            (None, _) if flagged => bad.push(format!("{}: flagged without an attack", s.vm)),
            _ => {}
        }
    }
    bad
}

impl Workload for Fleet {
    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let (reports, summary, records, wall_ns) = self.run(tracer);
        let mut round = Round {
            item_ms: records
                .iter()
                .flat_map(|r| r.slices.iter().map(|s| s.1 as f64 / 1e6))
                .collect(),
            ..Round::default()
        };
        round.violations = check_detection(&self.plan.scenarios, &reports);
        let findings: usize = reports.iter().map(|r| r.findings.len()).sum();
        let summarized: u64 = summary.findings_by_auditor.iter().map(|(_, n)| n).sum();
        if summary.vms != reports.len() as u64 || summarized != findings as u64 {
            round.violations.push(format!(
                "summary counts {} VMs and {summarized} findings; \
                 the reports hold {} and {findings}",
                summary.vms,
                reports.len()
            ));
        }
        let rendered: Vec<Vec<String>> =
            reports.iter().map(|r| r.findings.iter().map(|f| f.to_string()).collect()).collect();
        match &self.first {
            None => self.first = Some(rendered),
            Some(first) if *first != rendered => {
                round.violations.push("per-VM findings changed between rounds".to_owned())
            }
            Some(_) => {}
        }
        if tracer.is_on() {
            let tally = summary.findings_by_auditor.into_iter().collect();
            for r in &records {
                for &(start, dur) in &r.slices {
                    tracer.push(Span {
                        name: "fleet.step_slice",
                        parent: Some("fleet.run"),
                        item: r.vm as u64,
                        start_ns: start,
                        dur_ns: dur,
                    });
                }
            }
            self.traced.push((wall_ns, records, tally));
        }
        round
    }

    fn layers(&self, t: &Tracer, rounds: usize) -> Vec<(String, f64, &'static str)> {
        let records = || self.traced.iter().flat_map(|(_, recs, _)| recs);
        let slices: Vec<f64> =
            records().flat_map(|r| r.slices.iter().map(|s| s.1 as f64 / 1e6)).collect();
        let n_slices = slices.len().max(1) as f64;
        let n_vms = records().count().max(1) as f64;
        let sum = |f: &dyn Fn(&VmRecord) -> u64| records().map(f).sum::<u64>() as f64;
        let per_round = |v: f64| v / rounds as f64;
        let run_ms = slices.iter().sum::<f64>();
        let decode_ms = sum(&|r| r.decode_ns) / 1e6;
        let fanout_ms = sum(&|r| r.fanout_ns) / 1e6;
        let exits = sum(&|r| r.exits);
        let (hits, misses) = (sum(&|r| r.tlb.hits), sum(&|r| r.tlb.misses));

        // Busy time per worker per round: build + slices + finish.
        let (mut busy, mut wait, mut imbalance) = (Vec::new(), Vec::new(), Vec::new());
        for (wall_ns, recs, _) in &self.traced {
            let mut per_worker: BTreeMap<&str, u64> = BTreeMap::new();
            for r in recs {
                let b = r.build_ns + r.finish_ns + r.slices.iter().map(|s| s.1).sum::<u64>();
                *per_worker.entry(r.worker.as_str()).or_insert(0) += b;
            }
            let ms: Vec<f64> = per_worker.values().map(|&ns| ns as f64 / 1e6).collect();
            let mean = ms.iter().sum::<f64>() / ms.len().max(1) as f64;
            let max = ms.iter().copied().fold(0.0, f64::max);
            busy.extend(ms.iter().copied());
            wait.extend(ms.iter().map(|b| *wall_ns as f64 / 1e6 - b));
            imbalance.push(if mean > 0.0 { max / mean } else { 0.0 });
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put = |n: &str, v: f64, u: &'static str| out.push((n.to_owned(), v, u));
        put("harness.build_ms", sum(&|r| r.build_ns) / 1e6 / n_vms, "ms");
        put("hvsim.run_ms", run_ms / n_slices, "ms");
        put("hvsim.step_ms", (run_ms - decode_ms - fanout_ms) / n_slices, "ms");
        put("hvsim.ns_per_exit", run_ms * 1e6 / exits.max(1.0), "ns");
        put("hvsim.exits", per_round(exits), "count");
        put("hvsim.sim_s", per_round(sum(&|r| r.sim_ns) / 1e9), "s");
        put("hvsim.tlb_hits", per_round(hits), "count");
        put("hvsim.tlb_misses", per_round(misses), "count");
        put("hvsim.tlb_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
        put("kvm.decode_ms", decode_ms / n_slices, "ms");
        put("em.fanout_ms", fanout_ms / n_slices, "ms");
        put("kvm.events", per_round(sum(&|r| r.pipe.events)), "count");
        put("kvm.batches", per_round(sum(&|r| r.pipe.batches)), "count");
        let events_in = sum(&|r| r.em.events_in);
        put("em.events_in", per_round(events_in), "count");
        put("em.sync_delivered", per_round(sum(&|r| r.em.sync_delivered)), "count");
        put("em.fast_skip_ratio", sum(&|r| r.em.fast_skipped) / events_in.max(1.0), "ratio");
        put("fleet.slice_p50_ms", quantile(&slices, 0.5), "ms");
        put("fleet.slice_p99_ms", quantile(&slices, 0.99), "ms");
        put("fleet.finish_ms", sum(&|r| r.finish_ns) / 1e6 / n_vms, "ms");
        put("fleet.worker_busy_ms", mean(&busy), "ms");
        put("fleet.worker_wait_ms", mean(&wait), "ms");
        put("fleet.imbalance", mean(&imbalance), "ratio");
        put("fleet.aggregate_ms", t.total_ms("fleet.aggregate") / rounds as f64, "ms");
        put("fleet.slices", per_round(slices.len() as f64), "count");
        put("fleet.workers", self.workers as f64, "count");
        for auditor in AUDITORS {
            let n: u64 =
                self.traced.iter().map(|(_, _, t)| t.get(auditor).copied().unwrap_or(0)).sum();
            put(
                &format!("fleet.findings.{}", auditor.replace('-', "_")),
                per_round(n as f64),
                "count",
            );
        }
        out
    }

    fn attributed(&self) -> &'static [&'static str] {
        &["fleet.run", "fleet.aggregate"]
    }
}
