//! `paper_inproc`: the paper's three case studies in-process, one
//! caller thread, closed loop. Small inputs, so per-call fixed costs
//! (thread spawn in the parallel shim, rulebase parsing) dominate.

use crate::gen::{self, Rng};
use crate::report::{Completions, Latencies, Sample, StealMonitor};
use crate::trace::Tracer;
use crate::{Run, WorkDir};
use openuh::cost::CostModel;
use perfdmf::{Repository, Trial};
use perfexplorer::facts::{context_fact, MeanEventFact};
use perfexplorer::metrics::{
    derive_inefficiency, memory_analysis, memory_facts, stall_decomposition, stall_facts,
};
use perfexplorer::powerenergy::{power_facts, relative_table, trial_power, TrialPower};
use perfexplorer::recommend::{compiler_feedback, render_report};
use perfexplorer::rulebase::{
    engine_with, engine_with_all, LOAD_BALANCE_RULES, LOCALITY_RULES, POWER_RULES, STALL_RULES,
};
use perfexplorer::scalability::{per_event_total, scaling_facts};
use perfexplorer::{loadbalance, workflow};
use rules::{Engine, Fact};
use simulator::machine::MachineConfig;
use std::hint::black_box;
use std::time::Instant;

/// Closed-loop operations per second of `--seconds`, calibrated so a
/// run measures for about that long on the reference machine. A fixed
/// count keeps the work of a run independent of the program's speed.
const OPS_PER_SECOND: f64 = 1400.0;
/// Operations before the measured phase (excluded).
const WARMUP_OPS: usize = 1400;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// The layer spans of the composed balance requests must cover at
/// least this share of the request spans' time, summed over the run;
/// the rest is glue between the calls and dropping the request's data.
pub const SPAN_COVERAGE: f64 = 0.90;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Balance(usize),
    Locality,
    Power,
}

/// The seeded request order: blocks of one request per case study in a
/// shuffled order, so kinds interleave over the whole run.
fn order(rng: &mut Rng, count: usize) -> Vec<Kind> {
    let mut out = Vec::with_capacity(count + 3);
    while out.len() < count {
        let mut block = [
            Kind::Balance(rng.below(gen::PAPER_DOCS)),
            Kind::Locality,
            Kind::Power,
        ];
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(count);
    out
}

struct Goldens {
    balance: Vec<String>,
    locality: String,
    power: String,
}

/// Trials resident in memory, loaded from the case-study repository.
struct Resident {
    locality: Vec<(usize, Trial)>,
    power: Vec<Trial>,
}

impl Resident {
    fn from(repo: &Repository, inputs: &gen::PaperInputs) -> perfdmf::Result<Resident> {
        let locality = inputs
            .locality
            .iter()
            .map(|(p, t)| {
                let t = repo.trial(gen::LOCALITY_APP, gen::LOCALITY_EXPERIMENT, &t.name)?;
                Ok((*p, t.clone()))
            })
            .collect::<perfdmf::Result<_>>()?;
        let power = inputs
            .power
            .iter()
            .map(|t| {
                repo.trial(gen::LOCALITY_APP, gen::POWER_EXPERIMENT, &t.name)
                    .cloned()
            })
            .collect::<perfdmf::Result<_>>()?;
        Ok(Resident { locality, power })
    }

    fn series(&self) -> Vec<(usize, &Trial)> {
        self.locality.iter().map(|(p, t)| (*p, t)).collect()
    }

    fn power_refs(&self) -> Vec<&Trial> {
        self.power.iter().collect()
    }
}

fn balance(doc: &str) -> Result<String, String> {
    let trial: Trial = serde_json::from_str(doc).map_err(|e| e.to_string())?;
    let report = workflow::analyze_load_balance(&trial, "TIME").map_err(|e| e.to_string())?;
    Ok(report.rendered)
}

fn locality(resident: &Resident, machine: &MachineConfig) -> Result<String, String> {
    workflow::analyze_locality(&resident.series(), machine)
        .map(|r| r.rendered)
        .map_err(|e| e.to_string())
}

fn power(resident: &Resident, machine: &MachineConfig) -> Result<String, String> {
    workflow::analyze_power(&resident.power_refs(), machine)
        .map(|(_, r)| r.rendered)
        .map_err(|e| e.to_string())
}

/// The shared tail of every composed request: rulebase, fact
/// assertion, rule run and render, each in its own span.
pub fn rules_and_render(
    tr: &mut Tracer,
    engine: impl FnOnce() -> perfexplorer::Result<Engine>,
    facts: impl FnOnce() -> Vec<Fact>,
    firings: &mut Vec<f64>,
) -> Result<String, String> {
    let mut engine = tr
        .span("core.rulebase", |_| engine())
        .map_err(|e| e.to_string())?;
    tr.span("core.facts", |_| {
        for fact in facts() {
            engine.assert_fact(fact);
        }
    });
    let report = tr
        .span("rules.run", |_| engine.run())
        .map_err(|e| e.to_string())?;
    firings.push(report.firings.len() as f64);
    Ok(tr.span("core.render", |_| {
        let rendered = render_report(&report);
        black_box(compiler_feedback(&report, &mut CostModel::default()));
        rendered
    }))
}

/// `workflow::analyze_load_balance` composed from its layer calls, in
/// the workflow's order.
pub fn traced_balance(
    tr: &mut Tracer,
    trial: &Trial,
    firings: &mut Vec<f64>,
) -> Result<String, String> {
    let analysis = tr
        .span("core.loadbalance", |_| loadbalance::analyze(trial, "TIME"))
        .map_err(|e| e.to_string())?;
    rules_and_render(
        tr,
        || engine_with(LOAD_BALANCE_RULES),
        || analysis.facts(),
        firings,
    )
}

fn traced_locality(
    tr: &mut Tracer,
    resident: &Resident,
    machine: &MachineConfig,
    firings: &mut Vec<f64>,
) -> Result<String, String> {
    let series = resident.series();
    let target = series.last().expect("series is not empty").1;
    let mut facts = tr
        .span(
            "core.locality_passes",
            |_| -> perfexplorer::Result<Vec<Fact>> {
                // The derivation writes to a private copy, as the workflow's
                // scratch trial does.
                let mut scratch = target.clone();
                derive_inefficiency(&mut scratch)?;
                let mut facts = vec![context_fact(target)];
                facts.extend(MeanEventFact::compare_all_events(
                    &scratch,
                    "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
                    "TIME",
                )?);
                facts.extend(stall_facts(&stall_decomposition(target, machine)?));
                facts.extend(memory_facts(&memory_analysis(target, machine)?));
                let scaling: Vec<_> = target
                    .profile
                    .events()
                    .iter()
                    .filter_map(|e| per_event_total(&series, "TIME", &e.name).ok())
                    .collect();
                facts.extend(scaling_facts(&scaling));
                Ok(facts)
            },
        )
        .map_err(|e| e.to_string())?;
    facts.extend(
        tr.span("core.loadbalance", |_| loadbalance::analyze(target, "TIME"))
            .map_err(|e| e.to_string())?
            .facts(),
    );
    rules_and_render(
        tr,
        || engine_with_all(&[STALL_RULES, LOCALITY_RULES, LOAD_BALANCE_RULES]),
        || facts,
        firings,
    )
}

fn traced_power(
    tr: &mut Tracer,
    resident: &Resident,
    machine: &MachineConfig,
    firings: &mut Vec<f64>,
) -> Result<String, String> {
    let facts = tr
        .span("core.power_table", |_| -> perfexplorer::Result<Vec<Fact>> {
            let readings: Vec<TrialPower> = resident
                .power
                .iter()
                .map(|t| trial_power(t, machine))
                .collect::<perfexplorer::Result<_>>()?;
            Ok(power_facts(&relative_table(&readings)?))
        })
        .map_err(|e| e.to_string())?;
    rules_and_render(tr, || engine_with(POWER_RULES), || facts, firings)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Run {
    let mut out = Run::default();
    let inputs = gen::paper(seed);
    let machine = MachineConfig::altix300();
    let work = WorkDir::new("paper_inproc", seed);
    let repo_path = work.path().join("case_studies.json");
    std::fs::write(&repo_path, &inputs.repository).expect("write the case-study repository");

    // Goldens, rendered once by the strict workflows over the
    // generated trials.
    let goldens = {
        let series: Vec<(usize, &Trial)> = inputs.locality.iter().map(|(p, t)| (*p, t)).collect();
        let power: Vec<&Trial> = inputs.power.iter().collect();
        Goldens {
            balance: inputs
                .msa
                .iter()
                .map(|t| {
                    workflow::analyze_load_balance(t, "TIME")
                        .expect("golden balance")
                        .rendered
                })
                .collect(),
            locality: workflow::analyze_locality(&series, &machine)
                .expect("golden locality")
                .rendered,
            power: workflow::analyze_power(&power, &machine)
                .expect("golden power")
                .1
                .rendered,
        }
    };

    // Set-up: load the repository, then serve the first request of
    // each kind. Repeated; the median is reported.
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut resident = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let repo = Repository::load(&repo_path).expect("load the case-study repository");
        loads.push(start.elapsed().as_secs_f64() * 1e3);
        let r = Resident::from(&repo, &inputs).expect("case-study trials present");
        out.check(
            "setup balance",
            balance(&inputs.docs[0].1),
            &goldens.balance[0],
        );
        out.check("setup locality", locality(&r, &machine), &goldens.locality);
        out.check("setup power", power(&r, &machine), &goldens.power);
        setups.push(start.elapsed().as_secs_f64());
        resident = Some(r);
    }
    let resident = resident.expect("at least one set-up");
    out.metrics
        .set("setup_s", crate::report::median(&setups), "s");

    let count = (OPS_PER_SECOND * seconds).round().max(3.0) as usize;
    let mut rng = Rng::new(seed ^ 0x0de5);
    let ops = order(&mut rng, WARMUP_OPS + count);

    let mut lat = [
        Latencies::default(),
        Latencies::default(),
        Latencies::default(),
    ];
    let mut plain_balance = Latencies::default();
    let mut done = Completions::default();
    let mut tr = Tracer::new();
    let mut firings = Vec::new();
    let mut phase = Sample::now();
    let mut monitor = None;
    for (i, op) in ops.iter().enumerate() {
        if i == WARMUP_OPS {
            phase = Sample::now();
            monitor = Some(StealMonitor::start());
            done = Completions::default();
        }
        let measured = i >= WARMUP_OPS;
        // The traced run also times the plain workflow on the same
        // document, before or after the composed request by turns, so
        // both medians share conditions and neither always runs warm.
        let plain_first = i % 2 == 0;
        if let (Kind::Balance(d), true, true) = (*op, traced, plain_first) {
            plain(
                &mut out,
                &mut plain_balance,
                &inputs.docs[d].1,
                &goldens.balance[d],
                measured,
            );
        }
        let start = Instant::now();
        let (slot, result, golden) = match (*op, traced) {
            (Kind::Balance(d), false) => (0, balance(&inputs.docs[d].1), &goldens.balance[d]),
            (Kind::Locality, false) => (1, locality(&resident, &machine), &goldens.locality),
            (Kind::Power, false) => (2, power(&resident, &machine), &goldens.power),
            (Kind::Balance(d), true) => {
                let doc = &inputs.docs[d].1;
                let r = tr.span("request.balance", |tr| {
                    let trial: Result<Trial, String> = tr
                        .span("perfdmf.decode", |_| serde_json::from_str(doc))
                        .map_err(|e| e.to_string());
                    trial.and_then(|t| traced_balance(tr, &t, &mut firings))
                });
                (0, r, &goldens.balance[d])
            }
            (Kind::Locality, true) => {
                let r = tr.span("request.locality", |tr| {
                    traced_locality(tr, &resident, &machine, &mut Vec::new())
                });
                (1, r, &goldens.locality)
            }
            (Kind::Power, true) => {
                let r = tr.span("request.power", |tr| {
                    traced_power(tr, &resident, &machine, &mut Vec::new())
                });
                (2, r, &goldens.power)
            }
        };
        let elapsed = start.elapsed();
        let ok = out.check(kind_name(slot), result, golden);
        if measured {
            out.attempted += 1;
            if ok {
                lat[slot].push(elapsed);
                done.push();
            } else {
                out.failed += 1;
            }
        }
        if let (Kind::Balance(d), true, false) = (*op, traced, plain_first) {
            plain(
                &mut out,
                &mut plain_balance,
                &inputs.docs[d].1,
                &goldens.balance[d],
                measured,
            );
        }
    }
    out.phase = phase.since();
    let steal = monitor.map(StealMonitor::finish).unwrap_or_default();
    let served = out.attempted - out.failed;
    out.metrics.set("throughput_rps", done.rate(&steal), "1/s");
    out.metrics.set(
        "served_ratio",
        served as f64 / out.attempted as f64,
        "ratio",
    );
    for (slot, l) in lat.iter().enumerate() {
        out.metrics.latency(kind_name(slot), l, &steal);
    }
    out.metrics.set("ops_measured", count as f64, "count");

    out.layers
        .set("perfdmf.repo_load_ms", crate::report::median(&loads), "ms");
    if traced {
        let balance_traced = lat[0].p50_p90().0;
        let balance_plain = plain_balance.p50_p90().0;
        crate::layers_from_spans(&mut out.layers, &tr, &firings);
        out.layers
            .set("trace.overhead_us", balance_traced - balance_plain, "us");
        out.layers
            .set("trace.untraced_balance_p50_us", balance_plain, "us");
        check_span_sums(&mut out, &tr);
        out.tracer = Some(tr);
    }
    out
}

/// One untraced balance request, timed.
fn plain(out: &mut Run, samples: &mut Latencies, doc: &str, golden: &str, measured: bool) {
    let start = Instant::now();
    let r = balance(doc);
    let elapsed = start.elapsed();
    if out.check("balance (untraced)", r, golden) && measured {
        samples.push(elapsed);
    }
}

fn kind_name(slot: usize) -> &'static str {
    ["balance", "locality", "power"][slot]
}

/// The layer spans of each composed balance request must add up to the
/// request's time: summed over the run they cover at least
/// [`SPAN_COVERAGE`] of it.
fn check_span_sums(out: &mut Run, tr: &Tracer) {
    let balance = |i: usize| tr.spans[i].parent.is_none() && tr.spans[i].name == "request.balance";
    let mut root_ns = 0u64;
    let mut child_ns = 0u64;
    for (i, s) in tr.spans.iter().enumerate() {
        match s.parent {
            None if balance(i) => root_ns += s.duration_ns(),
            Some(p) if balance(p as usize) => child_ns += s.duration_ns(),
            _ => {}
        }
    }
    let coverage = child_ns as f64 / root_ns.max(1) as f64;
    out.layers.set("trace.span_coverage", coverage, "ratio");
    if !(SPAN_COVERAGE..=1.0).contains(&coverage) {
        out.errors.push(format!(
            "layer spans cover {coverage:.4} of request time, outside [{SPAN_COVERAGE}, 1]"
        ));
    }
}
