//! The repository benchmark: three workloads over the analysis
//! pipeline and the analysis service, end to end and layer by layer.
//! See `README.md` in this directory for why each workload exists and
//! which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_inproc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the full record (machine, noise, every metric), which
//! is also written to `perfbench/results/`.

mod cold;
mod gen;
mod paper;
mod report;
mod stream;
mod trace;

use report::{json_str, num, Machine, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::Tracer;

/// Metrics every workload reports with `--trace 0`, as listed in
/// `BENCHMARK.json`.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "balance_p50_us",
    "balance_p90_us",
    "throughput_rps",
    "served_ratio",
    "peak_rss_mb",
];

/// Metrics every workload reports with `--trace 1`, as listed in
/// `BENCHMARK.json`: the layers of the load-balance report path, which
/// all three workloads serve.
const PER_LAYER: [&str; 6] = [
    "core.rulebase_us",
    "core.facts_us",
    "rules.run_us",
    "rules.firings",
    "core.render_us",
    "trace.overhead_us",
];

const WORKLOADS: [&str; 3] = ["paper_inproc", "serve_cold_large", "serve_stream_mix"];

/// What one workload run produced.
#[derive(Default)]
pub struct Run {
    /// End-to-end metrics: the gated ones plus per-kind detail.
    pub metrics: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs and unexpected outcomes; any makes the run fail.
    pub errors: Vec<String>,
    /// `(wall s, process CPU s, host steal share)` of the measured phase.
    pub phase: (f64, f64, f64),
    pub tracer: Option<Tracer>,
}

impl Run {
    /// Records whether `result` is byte-identical to `golden`.
    pub fn check(&mut self, what: &str, result: Result<String, String>, golden: &str) -> bool {
        let problem = match result {
            Ok(r) if r == golden => return true,
            Ok(r) => format!(
                "{what}: output differs from the golden ({} vs {} bytes)",
                r.len(),
                golden.len()
            ),
            Err(e) => format!("{what}: {e}"),
        };
        self.error(problem);
        false
    }

    pub fn error(&mut self, problem: String) {
        if self.errors.len() < 20 {
            self.errors.push(problem);
        } else if self.errors.len() == 20 {
            self.errors.push("further errors suppressed".into());
        }
    }
}

/// A scratch directory for one run's generated files, removed when the
/// run ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str, seed: u64) -> WorkDir {
        let dir = report::package_dir()
            .join("work")
            .join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the work directory");
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-layer medians from a traced run's spans. Layers under a
/// `request.balance` span are named `<layer>_us`; a layer seen only
/// under another request kind too, `<layer>.<kind>_us`.
pub fn layers_from_spans(layers: &mut Metrics, tr: &Tracer, firings: &[f64]) {
    let self_ns = tr.self_times_ns();
    let mut root_of = vec![0u32; tr.spans.len()];
    let mut groups: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for (i, s) in tr.spans.iter().enumerate() {
        root_of[i] = match s.parent {
            Some(p) => root_of[p as usize],
            None => i as u32,
        };
        if s.parent.is_some() {
            let root = tr.spans[root_of[i] as usize].name;
            let kind = root.trim_start_matches("request.");
            groups
                .entry((kind, s.name))
                .or_default()
                .push(self_ns[i] as f64 / 1e3);
        }
    }
    let on_balance: Vec<&str> = groups
        .keys()
        .filter(|(k, _)| *k == "balance")
        .map(|(_, n)| *n)
        .collect();
    for ((kind, name), v) in &groups {
        let metric = if *kind == "balance" || !on_balance.contains(name) {
            format!("{name}_us")
        } else {
            format!("{name}.{kind}_us")
        };
        if layers.get(&metric).is_none() {
            layers.set(&metric, report::median(v), "us");
        }
    }
    if !firings.is_empty() {
        layers.set(
            "rules.firings",
            firings.iter().sum::<f64>() / firings.len() as f64,
            "count",
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds takes a number in (0, 600]")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let machine = Machine::detect();
    let mut run = match args.workload.as_str() {
        "paper_inproc" => paper::run(args.seed, args.seconds, args.trace),
        "serve_cold_large" => cold::run(args.seed, args.seconds, args.trace),
        _ => stream::run(args.seed, args.seconds, args.trace),
    };
    run.metrics.set("peak_rss_mb", report::peak_rss_mb(), "MB");
    if run.attempted == 0 {
        run.error("no operation was measured".into());
    }
    let correct = run.errors.is_empty();
    for e in &run.errors {
        eprintln!("perfbench: {e}");
    }

    let results = report::package_dir().join("results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::create_dir_all(&results);
    if let Some(tr) = &run.tracer {
        if let Err(e) = tr.write(&results.join(format!("{stem}-spans.json"))) {
            eprintln!("perfbench: writing spans: {e}");
        }
    }
    let (wall, cpu, steal) = run.phase;
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {}, \
         \"measured_phase\": {{\"wall_s\": {}, \"process_cpu_s\": {}, \"host_steal_share\": {}}}, \
         \"correct\": {correct}, \"errors\": [{}], \"end_to_end\": {}, \"per_layer\": {}}}",
        json_str(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace,
        machine.json(),
        num(wall),
        num(cpu),
        num(steal),
        run.errors
            .iter()
            .map(|e| json_str(e))
            .collect::<Vec<_>>()
            .join(", "),
        run.metrics.json_all(),
        run.layers.json_all(),
    );
    let _ = std::fs::write(results.join(format!("{stem}.json")), format!("{record}\n"));
    println!("{record}");

    let metrics = if args.trace {
        run.layers.json_of(&PER_LAYER)
    } else {
        run.metrics.json_of(&END_TO_END)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.attempted, run.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
