//! `serve_cold_large`: the service over a memory-mapped PDB1 repository
//! of large trials (1057 events x 64 threads), one closed-loop client,
//! read-only skewed `AnalyzeBalance` traffic. The repository holds more
//! trials than the shards' LRUs, so the mapped cold path and the LRU do
//! most of the work, and the parallel shim pays for itself.

use crate::gen::{self, ColdInputs};
use crate::paper::traced_balance;
use crate::report::{median, Completions, Latencies, Sample, StealMonitor};
use crate::trace::Tracer;
use crate::{Run, WorkDir};
use perfdmf::MappedRepository;
use perfexplorer::workflow;
use service::{AnalysisService, Outcome, Request, ServiceConfig, StatsSnapshot};
use std::time::{Duration, Instant};

/// Closed-loop requests per second of `--seconds` (see `paper.rs`).
const OPS_PER_SECOND: f64 = 150.0;
/// Requests before the measured phase; they fill the LRUs.
const WARMUP_OPS: usize = 150;
const SETUP_REPS: usize = 21;
/// Requests the traced run replays through the layer functions.
const REPLAYS: usize = 120;

fn request(inputs: &ColdInputs, target: (usize, usize)) -> Request {
    let (experiment, trial) = &inputs.paths[target.0][target.1];
    Request::AnalyzeBalance {
        app: gen::COLD_APP.into(),
        experiment: experiment.clone(),
        trial: trial.clone(),
        metric: "TIME".into(),
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Run {
    let mut out = Run::default();
    let count = (OPS_PER_SECOND * seconds).round().max(1.0) as usize;
    let mut inputs = gen::cold(seed, WARMUP_OPS + count);
    let work = WorkDir::new("serve_cold_large", seed);
    let path = work.path().join("large.pdb1");
    std::fs::write(&path, std::mem::take(&mut inputs.pdb1)).expect("write the PDB1 repository");

    // Goldens: the strict workflow over each generated trial, which
    // never went through the PDB1 file the service maps.
    let goldens: Vec<Vec<String>> = {
        let repo = std::mem::take(&mut inputs.repo);
        inputs
            .paths
            .iter()
            .map(|shard| {
                shard
                    .iter()
                    .map(|(e, t)| {
                        let trial = repo.trial(gen::COLD_APP, e, t).expect("trial present");
                        workflow::analyze_load_balance(trial, "TIME")
                            .expect("golden balance")
                            .rendered
                    })
                    .collect()
            })
            .collect()
    };

    let config = ServiceConfig {
        shards: gen::COLD_SHARDS,
        cache_capacity: gen::COLD_CACHE,
        ..ServiceConfig::default()
    };
    let mut setups = Vec::new();
    let mut svc = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = svc.take() {
            AnalysisService::shutdown(previous);
        }
        let start = Instant::now();
        let s = AnalysisService::open(config.clone(), &path).expect("open the PDB1 repository");
        setups.push(start.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let svc = svc.expect("at least one set-up");
    out.metrics.set("setup_s", median(&setups), "s");
    let client = svc.client();

    let mut lat = Latencies::default();
    let mut done = Completions::default();
    let mut service_latency = Duration::ZERO;
    let mut client_latency = Duration::ZERO;
    let mut before: Option<StatsSnapshot> = None;
    let mut phase = Sample::now();
    let mut monitor = None;
    for (i, &target) in inputs.requests.iter().enumerate() {
        if i == WARMUP_OPS {
            before = Some(svc.stats());
            phase = Sample::now();
            monitor = Some(StealMonitor::start());
            done = Completions::default();
        }
        let measured = i >= WARMUP_OPS;
        let start = Instant::now();
        let response = client.call(request(&inputs, target));
        let elapsed = start.elapsed();
        let golden = &goldens[target.0][target.1];
        let ok = match response {
            Ok(r) if r.is_clean() => {
                if measured {
                    service_latency += r.latency;
                    client_latency += elapsed;
                }
                match r.outcome {
                    Outcome::Report { rendered, .. } => {
                        out.check("cold balance", Ok(rendered), golden)
                    }
                    other => out.check("cold balance", Err(format!("{other:?}")), golden),
                }
            }
            Ok(r) => out.check("cold balance", Err(format!("unclean: {r:?}")), golden),
            Err(e) => out.check("cold balance", Err(e), golden),
        };
        if measured {
            out.attempted += 1;
            if ok {
                lat.push(elapsed);
                done.push();
            } else {
                out.failed += 1;
            }
        }
    }
    out.phase = phase.since();
    let steal = monitor.map(StealMonitor::finish).unwrap_or_default();
    let after = svc.stats();
    let before = before.unwrap_or_else(|| after.clone());
    let served = out.attempted - out.failed;
    out.metrics.set("throughput_rps", done.rate(&steal), "1/s");
    out.metrics.set(
        "served_ratio",
        served as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.metrics.latency("balance", &lat, &steal);
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    out.metrics.set(
        "cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metrics.set(
        "repository_trials",
        (gen::COLD_SHARDS * gen::COLD_PER_SHARD) as f64,
        "count",
    );
    out.metrics.set(
        "lru_slots",
        (gen::COLD_SHARDS * gen::COLD_CACHE) as f64,
        "count",
    );

    let requests = (after.requests - before.requests).max(1) as f64;
    let handler_us = (after.busy - before.busy).as_secs_f64() * 1e6 / requests;
    out.layers.set("service.handler_us", handler_us, "us");
    out.layers.set(
        "service.queue_wait_us",
        service_latency.as_secs_f64() * 1e6 / requests - handler_us,
        "us",
    );
    out.layers.set(
        "service.lock_wait_us",
        (after.lock_wait - before.lock_wait).as_secs_f64() * 1e6 / requests,
        "us",
    );
    out.layers.set(
        "service.client_overhead_us",
        (client_latency.as_secs_f64() - service_latency.as_secs_f64()) * 1e6 / requests,
        "us",
    );
    out.layers.set(
        "service.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.layers
        .set("service.queue_peak", after.queue_peak as f64, "count");
    out.layers
        .set("service.shed", (after.shed - before.shed) as f64, "count");
    svc.shutdown();

    if traced {
        replay(&mut out, &inputs, &path, &goldens);
    }
    out
}

/// Replays a sample of the measured requests through the layer
/// functions the service calls: open the mapped store, materialize the
/// trial, then the load-balance workflow composed from its layers, and
/// the plain workflow on the same trial by turns for the overhead.
fn replay(out: &mut Run, inputs: &ColdInputs, path: &std::path::Path, goldens: &[Vec<String>]) {
    let mut tr = Tracer::new();
    let mut opens = Vec::new();
    let mut mapped = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        mapped = Some(MappedRepository::open(path).expect("map the repository"));
        opens.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let mapped = mapped.expect("opened");
    out.layers
        .set("perfdmf.mapped_open_ms", median(&opens), "ms");

    let mut firings = Vec::new();
    let mut traced = Latencies::default();
    let mut plain = Latencies::default();
    let stride = (inputs.requests.len() - WARMUP_OPS)
        .div_ceil(REPLAYS)
        .max(1);
    for (i, &(shard, slot)) in inputs.requests[WARMUP_OPS..]
        .iter()
        .step_by(stride)
        .enumerate()
    {
        let (experiment, name) = &inputs.paths[shard][slot];
        let golden = &goldens[shard][slot];
        let mut run_plain = |out: &mut Run| {
            let start = Instant::now();
            let r = mapped
                .view(gen::COLD_APP, experiment, name)
                .and_then(|v| v.to_trial())
                .map_err(|e| e.to_string())
                .and_then(|trial| {
                    workflow::analyze_load_balance(&trial, "TIME")
                        .map(|r| r.rendered)
                        .map_err(|e| e.to_string())
                });
            plain.push(start.elapsed());
            out.check("replayed balance (untraced)", r, golden);
        };
        if i % 2 == 0 {
            run_plain(out);
        }
        let start = Instant::now();
        let r = tr.span("request.balance", |tr| {
            let trial = tr
                .span("perfdmf.materialize", |_| {
                    mapped
                        .view(gen::COLD_APP, experiment, name)
                        .and_then(|v| v.to_trial())
                })
                .map_err(|e| e.to_string())?;
            traced_balance(tr, &trial, &mut firings)
        });
        let elapsed = start.elapsed();
        if out.check("replayed balance", r, golden) {
            traced.push(elapsed);
        }
        if i % 2 == 1 {
            run_plain(out);
        }
    }
    crate::layers_from_spans(&mut out.layers, &tr, &firings);
    out.layers.set(
        "trace.overhead_us",
        traced.p50_p90().0 - plain.p50_p90().0,
        "us",
    );
    out.tracer = Some(tr);
}
