//! End-to-end and per-layer benchmark of HyperTap on the paper's real
//! workloads: sampled conformance scenarios, a slice of the Fig. 4
//! fault-injection campaign, and the fleet campaign.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scenarios|campaign|fleet> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --describe \
//!     --workload <scenarios|campaign|fleet> --seed <n>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` they are the per-layer ones, which
//! are also written with every span to `perfbench/out/`. See README.md.

mod campaign;
mod describe;
mod fleet;
mod measure;
mod scenarios;
mod selftest;

use measure::{median, metrics_json, peak_rss_mb, quantile, Round, Tracer, Workload};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// A workload constructor: generates the inputs, builds the VMs and runs
/// the warm-up (see each workload's `setup`).
type SetUp = dyn Fn() -> Box<dyn Workload>;

/// Every per-layer metric the traced run prints, with its unit. A
/// workload that never calls into a layer reports it as 0.
const PER_LAYER: [(&str, &str); 52] = [
    ("harness.build_ms", "ms"),
    ("hvsim.run_ms", "ms"),
    ("hvsim.step_ms", "ms"),
    ("hvsim.ns_per_exit", "ns"),
    ("hvsim.exits", "count"),
    ("hvsim.sim_s", "s"),
    ("hvsim.tlb_hits", "count"),
    ("hvsim.tlb_misses", "count"),
    ("hvsim.tlb_hit_ratio", "ratio"),
    ("kvm.decode_ms", "ms"),
    ("em.fanout_ms", "ms"),
    ("kvm.events", "count"),
    ("kvm.batches", "count"),
    ("em.events_in", "count"),
    ("em.sync_delivered", "count"),
    ("em.fast_skip_ratio", "ratio"),
    ("replay.verdict_ms", "ms"),
    ("trace.encode_ms", "ms"),
    ("trace.compress_ms", "ms"),
    ("trace.decompress_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("replay.replay_ms", "ms"),
    ("trace.bytes", "bytes"),
    ("trace.htrz_bytes", "bytes"),
    ("faultinject.trial_ms.not_activated", "ms"),
    ("faultinject.trial_ms.not_manifested", "ms"),
    ("faultinject.trial_ms.not_detected", "ms"),
    ("faultinject.trial_ms.partial_hang", "ms"),
    ("faultinject.trial_ms.full_hang", "ms"),
    ("faultinject.trials.not_activated", "count"),
    ("faultinject.trials.not_manifested", "count"),
    ("faultinject.trials.not_detected", "count"),
    ("faultinject.trials.partial_hang", "count"),
    ("faultinject.trials.full_hang", "count"),
    ("faultinject.detect_latency_sim_s", "s"),
    ("fleet.slice_p50_ms", "ms"),
    ("fleet.slice_p99_ms", "ms"),
    ("fleet.finish_ms", "ms"),
    ("fleet.worker_busy_ms", "ms"),
    ("fleet.worker_wait_ms", "ms"),
    ("fleet.imbalance", "ratio"),
    ("fleet.aggregate_ms", "ms"),
    ("fleet.slices", "count"),
    ("fleet.findings.goshd", "count"),
    ("fleet.findings.hrkd", "count"),
    ("fleet.findings.ht_ninja", "count"),
    ("item_p90_ms", "ms"),
    ("item_p99_ms", "ms"),
    ("items", "count"),
    ("unattributed_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" || flag == "--describe" {
            args.self_test |= flag == "--self-test";
            args.describe |= flag == "--describe";
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && !["scenarios", "campaign", "fleet"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be scenarios, campaign or fleet, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// A debug build, or either of the program's fallback switches, would
/// measure a different program than the one users run.
fn refuse_foreign_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built without --release; a debug build measures a different program".into());
    }
    for var in ["HYPERTAP_NO_TLB", "HYPERTAP_NO_BATCH"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it, it switches the program to a fallback path"
            ));
        }
    }
    Ok(())
}

/// Times one set-up and returns the workload it built.
fn set_up(make: &SetUp) -> (f64, Box<dyn Workload>) {
    let t0 = Instant::now();
    let w = make();
    (t0.elapsed().as_secs_f64(), w)
}

/// All rounds of one kind, merged.
#[derive(Default)]
struct Rounds {
    walls_s: Vec<f64>,
    all: Round,
}

impl Rounds {
    fn add(&mut self, wall: f64, r: Round) {
        self.walls_s.push(wall);
        self.all.item_ms.extend(r.item_ms);
        self.all.violations.extend(r.violations);
    }

    fn wall(&self) -> f64 {
        self.walls_s.iter().sum()
    }

    /// Items completed per second of the whole timed phase.
    fn items_per_s(&self) -> f64 {
        self.all.item_ms.len() as f64 / self.wall()
    }
}

fn timed(w: &mut dyn Workload, tracer: &mut Tracer) -> (f64, Round) {
    let t0 = Instant::now();
    let r = w.round(tracer);
    (t0.elapsed().as_secs_f64(), r)
}

/// What one run measured.
struct Run {
    /// Every set-up's time, s.
    setups_s: Vec<f64>,
    plain: Rounds,
    traced: Rounds,
    tracer: Tracer,
}

/// Sets the workload up, then runs whole rounds (an untraced/traced pair
/// of them when tracing) until another one would end past `seconds`;
/// always at least one. The later set-ups are spread between rounds over
/// the run, so `setup_s` samples the host across the run like the rounds
/// do instead of in one burst; the workloads they build are dropped
/// untimed.
fn run(make: &SetUp, seconds: f64, trace: bool) -> (Box<dyn Workload>, Run) {
    let start = Instant::now();
    let (first, mut w) = set_up(make);
    let mut r = Run {
        setups_s: vec![first],
        plain: Rounds::default(),
        traced: Rounds::default(),
        tracer: Tracer::new(true),
    };
    let mut off = Tracer::new(false);
    let resetup = |r: &mut Run| {
        let (t, spare) = set_up(make);
        drop(spare);
        r.setups_s.push(t);
    };
    loop {
        let t0 = Instant::now();
        let (wall, round) = timed(w.as_mut(), &mut off);
        r.plain.add(wall, round);
        if trace {
            let (wall, round) = timed(w.as_mut(), &mut r.tracer);
            r.traced.add(wall, round);
        }
        let last = t0.elapsed().as_secs_f64();
        let done = start.elapsed().as_secs_f64() / seconds;
        if r.setups_s.len() < SETUP_REPEATS
            && done * SETUP_REPEATS as f64 >= r.setups_s.len() as f64
        {
            resetup(&mut r);
        }
        if start.elapsed().as_secs_f64() + last > seconds {
            while r.setups_s.len() < SETUP_REPEATS {
                resetup(&mut r);
            }
            return (w, r);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <scenarios|campaign|fleet> --seed <n> \
                 --seconds <s> --trace <0|1>\n       perfbench --self-test\n       \
                 perfbench --describe --workload <name> --seed <n>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = refuse_foreign_build() {
        eprintln!("perfbench: refusing to run: {e}");
        std::process::exit(2);
    }
    if args.self_test {
        std::process::exit(selftest::run());
    }
    if args.describe {
        println!("{}", describe::describe(&args.workload, args.seed));
        return;
    }

    let seed = args.seed;
    let make: Box<SetUp> = match args.workload.as_str() {
        "scenarios" => Box::new(move || Box::new(scenarios::Scenarios::setup(seed))),
        "campaign" => Box::new(move || Box::new(campaign::Campaign::setup(seed))),
        _ => Box::new(move || Box::new(fleet::Fleet::setup(seed))),
    };
    let (w, Run { setups_s, plain, traced, tracer }) = run(&*make, args.seconds, args.trace);
    let setup_s = median(&setups_s);
    let walls =
        |r: &Rounds| r.walls_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" ");
    eprintln!(
        "perfbench: {} set-ups (s): {}; round walls (s): {}",
        args.workload,
        setups_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" "),
        walls(&plain)
    );
    if args.trace {
        eprintln!("perfbench: traced round walls (s): {}", walls(&traced));
    }

    let mut violations = plain.all.violations.clone();
    violations.extend(traced.all.violations.iter().cloned());
    for v in violations.iter().take(20) {
        eprintln!("perfbench: check failed: {v}");
    }
    let attempted = plain.all.item_ms.len() + traced.all.item_ms.len();
    // An item either completes, and is then checked, or panics and ends
    // the run without a result line: none is counted as failed.
    let failed = 0;

    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        let layers = traced_layers(w.as_ref(), &plain, &traced, &tracer);
        if let Err(e) = write_trace_files(&args, &layers, &tracer) {
            eprintln!("perfbench: could not write the per-layer files: {e}");
        }
        let by_name: BTreeMap<&str, f64> =
            layers.iter().map(|(n, v, _)| (n.as_str(), *v)).collect();
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), by_name.get(n).copied().unwrap_or(0.0), *u))
            .collect()
    } else {
        // Both time figures pool the whole timed phase: the host's speed
        // drifts in phases of seconds to minutes, and a figure taken from
        // a few rounds jumps with whichever phase those rounds fell in.
        vec![
            ("setup_s".to_owned(), setup_s, "s"),
            ("items_per_s".to_owned(), plain.items_per_s(), "1/s"),
            ("item_p50_ms".to_owned(), median(&plain.all.item_ms), "ms"),
            ("peak_rss_mb".to_owned(), peak_rss_mb(), "MB"),
        ]
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        violations.is_empty(),
        metrics_json(&metrics)
    );
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

/// The workload's own layer metrics plus the ones every workload has:
/// item tails from the untraced rounds, the traced wall no span covers,
/// and the cost of tracing.
fn traced_layers(
    w: &dyn Workload,
    plain: &Rounds,
    traced: &Rounds,
    tracer: &Tracer,
) -> Vec<(String, f64, &'static str)> {
    let rounds = traced.walls_s.len();
    let mut layers = w.layers(tracer, rounds);
    let traced_ms = traced.wall() * 1e3;
    let attributed: f64 = w.attributed().iter().map(|n| tracer.total_ms(n)).sum();
    let items = traced.all.item_ms.len().max(1) as f64;
    layers.push(("item_p90_ms".to_owned(), quantile(&plain.all.item_ms, 0.9), "ms"));
    layers.push(("item_p99_ms".to_owned(), quantile(&plain.all.item_ms, 0.99), "ms"));
    layers.push(("items".to_owned(), items / rounds as f64, "count"));
    layers.push(("unattributed_ms".to_owned(), (traced_ms - attributed) / items, "ms"));
    layers.push(("unattributed_share".to_owned(), 1.0 - attributed / traced_ms, "ratio"));
    layers.push(("trace_overhead_ratio".to_owned(), traced.wall() / plain.wall(), "ratio"));
    eprintln!(
        "perfbench: traced wall {:.3} s over {rounds} round(s); unattributed {:.3} ms/item \
         ({:.2}% of the traced wall); tracing overhead {:.3}x the untraced wall",
        traced.wall(),
        (traced_ms - attributed) / items,
        100.0 * (1.0 - attributed / traced_ms),
        traced.wall() / plain.wall()
    );
    layers
}

/// Writes the per-layer metrics and every span to `perfbench/out/`.
fn write_trace_files(
    args: &Args,
    layers: &[(String, f64, &'static str)],
    tracer: &Tracer,
) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let layers_path = dir.join(format!("{stem}-layers.json"));
    std::fs::write(&layers_path, metrics_json(layers) + "\n")?;
    let mut spans =
        std::io::BufWriter::new(std::fs::File::create(dir.join(format!("{stem}-spans.jsonl")))?);
    for s in tracer.spans() {
        writeln!(
            spans,
            "{{\"name\": \"{}\", \"parent\": {}, \"item\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
            s.name,
            s.parent.map(|p| format!("\"{p}\"")).unwrap_or_else(|| "null".to_owned()),
            s.item,
            s.start_ns,
            s.dur_ns
        )?;
    }
    spans.flush()?;
    eprintln!("perfbench: per-layer metrics in {}", layers_path.display());
    Ok(())
}
