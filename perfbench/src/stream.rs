//! `serve_stream_mix`: the service with write-ahead journals, driven
//! open-loop on a seeded Poisson schedule — chunk flushes to live
//! streams, incremental load-balance polls on them, whole-trial uploads
//! and script sweeps. Writes beside reads, with real queueing; the
//! streaming, journal, incremental and script layers do most of the
//! work.

use crate::gen::{self, Arrival, Op, StreamInputs};
use crate::paper::rules_and_render;
use crate::report::{median, Completions, Latencies, Metrics, Sample, StealMonitor};
use crate::trace::Tracer;
use crate::{Run, WorkDir};
use perfdmf::{ChunkBatch, FsyncPolicy, StreamingTrial, Trial};
use perfexplorer::rulebase::{engine_with, LOAD_BALANCE_RULES};
use perfexplorer::scripting::PerfExplorerScript;
use perfexplorer::{workflow, AnalysisState};
use service::{AnalysisService, Outcome, Request, Response, ServiceClient, ServiceConfig};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 9;
/// Delay from the end of the warm-up to the first scheduled arrival.
const LEAD: Duration = Duration::from_millis(20);
const KINDS: [&str; 4] = ["chunk", "balance", "ingest", "sweep"];

fn kind_of(op: Op) -> usize {
    match op {
        Op::Chunk { .. } => 0,
        Op::Poll { .. } => 1,
        Op::Upload { .. } => 2,
        Op::Sweep { .. } => 3,
    }
}

/// What a correct reply to each operation looks like, beyond the
/// chunk cell counts in the inputs.
struct Expect {
    /// Per stream: the finished trial's report.
    streams: Vec<String>,
    /// Per study: the sweep's value.
    sweeps: Vec<String>,
}

fn request(inputs: &StreamInputs, op: Op) -> Request {
    match op {
        Op::Chunk { stream, chunk } => Request::IngestChunk {
            app: gen::STREAM_APP.into(),
            experiment: gen::stream_experiment(stream),
            trial: gen::STREAM_TRIAL.into(),
            chunk: inputs.chunk_doc(stream, chunk),
        },
        Op::Poll { stream } => Request::AnalyzeBalance {
            app: gen::STREAM_APP.into(),
            experiment: gen::stream_experiment(stream),
            trial: gen::STREAM_TRIAL.into(),
            metric: "TIME".into(),
        },
        Op::Upload { doc, tenant } => Request::Ingest {
            app: gen::UPLOAD_APP.into(),
            experiment: gen::upload_experiment(tenant),
            document: inputs.uploads[doc].1.clone(),
        },
        Op::Sweep { experiment } => Request::RunSweep {
            app: gen::SWEEP_APP.into(),
            experiment: gen::sweep_experiment(experiment),
            source: gen::sweep_source(&gen::sweep_experiment(experiment)),
        },
    }
}

/// Checks one reply; `Err` describes what was wrong with it.
fn verify(inputs: &StreamInputs, expect: &Expect, op: Op, r: &Response) -> Result<(), String> {
    if !r.is_clean() {
        return Err(format!("{op:?}: unclean reply {:?}", r.outcome));
    }
    match (op, &r.outcome) {
        (
            Op::Chunk { chunk, .. },
            Outcome::ChunkIngested {
                seq,
                duplicate,
                applied_cells,
                dropped_cells,
                ..
            },
        ) if *seq == chunk as u64
            && !duplicate
            && *applied_cells == gen::chunk_cells(chunk)
            && *dropped_cells == 0 =>
        {
            Ok(())
        }
        (Op::Poll { .. }, Outcome::Report { rendered, .. }) if !rendered.is_empty() => Ok(()),
        (Op::Upload { doc, .. }, Outcome::Ingested { trial })
            if *trial == inputs.uploads[doc].0 =>
        {
            Ok(())
        }
        (
            Op::Sweep { experiment },
            Outcome::SweepDone {
                value: Some(v),
                bodies,
                failed_bodies: 0,
                ..
            },
        ) if *v == expect.sweeps[experiment] && *bodies == gen::SWEEP_TRIALS as u64 => Ok(()),
        (op, outcome) => Err(format!("{op:?}: wrong reply {outcome:?}")),
    }
}

fn expectations(inputs: &StreamInputs) -> Expect {
    let streams = inputs
        .finished
        .iter()
        .map(|t| {
            workflow::analyze_load_balance(t, "TIME")
                .expect("golden stream report")
                .rendered
        })
        .collect();
    let sweeps = (0..gen::SWEEP_EXPERIMENTS)
        .map(|x| {
            let mut explorer = PerfExplorerScript::new(study_repository(inputs, x));
            explorer
                .run(&gen::sweep_source(&gen::sweep_experiment(x)))
                .expect("the sweep script runs in-process")
                .to_string()
        })
        .collect();
    Expect { streams, sweeps }
}

fn study_repository(inputs: &StreamInputs, x: usize) -> perfdmf::Repository {
    let mut repo = perfdmf::Repository::new();
    for (_, doc) in &inputs.studies[x] {
        let trial: Trial = serde_json::from_str(doc).expect("study documents decode");
        repo.upsert_trial(gen::SWEEP_APP, &gen::sweep_experiment(x), trial);
    }
    repo
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        std::fs::copy(e.path(), to.join(e.file_name()))?;
    }
    Ok(())
}

struct Sent {
    op: Op,
    due: Instant,
    sent: Instant,
    reply: Result<mpsc::Receiver<Response>, String>,
}

/// Per-kind results of the measured phase.
#[derive(Default)]
struct Tally {
    lat: [Latencies; 4],
    lateness: Latencies,
    service_latency: Duration,
    client_latency: Duration,
    served: u64,
    done: Completions,
    /// Chunks the service shed; the drain sends them again.
    shed_chunks: Vec<Op>,
}

/// Sends `schedule` open-loop from one generator thread, starting at
/// `start`; this thread collects the replies in send order.
fn drive(
    client: &ServiceClient,
    inputs: &StreamInputs,
    expect: &Expect,
    schedule: &[Arrival],
    start: Instant,
    out: &mut Run,
) -> Tally {
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut tally = Tally {
        done: Completions::starting(start),
        ..Tally::default()
    };
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for a in schedule {
                // The request is built before its due time, so payload
                // generation never delays a send.
                let req = request(inputs, a.op);
                let due = start + Duration::from_nanos(a.due_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let reply = client.submit(req);
                if tx
                    .send(Sent {
                        op: a.op,
                        due,
                        sent,
                        reply,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });
        for s in rx {
            let response = s.reply.and_then(|r| {
                r.recv()
                    .map_err(|_| "service dropped the request".to_string())
            });
            let received = Instant::now();
            let late = s.sent.saturating_duration_since(s.due);
            tally.lateness.push(late);
            match response {
                Ok(r) => match verify(inputs, expect, s.op, &r) {
                    Ok(()) => {
                        tally.served += 1;
                        tally.done.push();
                        tally.lat[kind_of(s.op)].push(late + r.latency);
                        tally.service_latency += r.latency;
                        tally.client_latency += received - s.sent;
                    }
                    Err(e) => match (r.outcome, s.op) {
                        (Outcome::Overloaded { .. }, Op::Chunk { .. }) => {
                            tally.shed_chunks.push(s.op)
                        }
                        (Outcome::Overloaded { .. }, _) => {}
                        _ => out.error(e),
                    },
                },
                Err(e) => out.error(format!("{:?}: {e}", s.op)),
            }
        }
    });
    tally
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Run {
    let mut out = Run::default();
    let inputs = gen::stream(seed, seconds);
    let expect = expectations(&inputs);
    let work = WorkDir::new("serve_stream_mix", seed);
    let journals = work.path().join("journals");
    let config = ServiceConfig {
        wal_fsync: FsyncPolicy::Never,
        ..ServiceConfig::default()
    };
    gen::write_journals(&journals, &inputs, config.shards).expect("write the journals");

    // Set-up: start over a fresh copy of the journals, which replays
    // them. Repeated; the median is reported.
    let mut setups = Vec::new();
    let mut svc = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = svc.take() {
            AnalysisService::shutdown(previous);
        }
        let dir = work.path().join(format!("wal{rep}"));
        copy_dir(&journals, &dir).expect("copy the journals");
        let config = ServiceConfig {
            wal_dir: Some(dir),
            ..config.clone()
        };
        let start = Instant::now();
        let s = AnalysisService::start(config);
        setups.push(start.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let svc = svc.expect("at least one set-up");
    out.metrics.set("setup_s", median(&setups), "s");
    let replayed = svc.stats();
    let journaled = (gen::STREAMS * gen::JOURNALED_CHUNKS) as u64;
    if replayed.wal_replayed_chunks != journaled {
        out.error(format!(
            "replayed {} journaled chunks, expected {journaled}",
            replayed.wal_replayed_chunks
        ));
    }
    let client = svc.client();

    // Warm-up: the studies' trials, then one poll per stream (builds
    // its incremental state), one sweep per study (fills the script
    // cache) and one upload per tenant.
    for (x, docs) in inputs.studies.iter().enumerate() {
        for (name, doc) in docs {
            let r = client.call(Request::Ingest {
                app: gen::SWEEP_APP.into(),
                experiment: gen::sweep_experiment(x),
                document: doc.clone(),
            });
            match r {
                Ok(r) if matches!(&r.outcome, Outcome::Ingested { trial } if trial == name) => {}
                other => out.error(format!("study upload: {other:?}")),
            }
        }
    }
    let warm = drive(
        &client,
        &inputs,
        &expect,
        &inputs.warmup,
        Instant::now(),
        &mut out,
    );

    let before = svc.stats();
    let phase = Sample::now();
    let monitor = StealMonitor::start();
    let start = Instant::now() + LEAD;
    let tally = drive(&client, &inputs, &expect, &inputs.schedule, start, &mut out);
    let steal = monitor.finish();
    out.phase = phase.since();
    let after = svc.stats();

    out.attempted = inputs.schedule.len() as u64;
    out.failed = out.attempted - tally.served;
    out.metrics
        .set("throughput_rps", tally.done.rate(&steal), "1/s");
    out.metrics.set(
        "served_ratio",
        tally.served as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    for (k, name) in KINDS.iter().enumerate() {
        out.metrics.latency(name, &tally.lat[k], &steal);
    }
    out.metrics
        .latency("generator_lateness", &tally.lateness, &steal);
    out.metrics.set("offered_rps", gen::OFFERED_RPS, "1/s");
    service_layers(&mut out.layers, &before, &after, &replayed, &tally);

    // Drain: chunks the service shed, and those the schedule did not
    // reach, then every stream's final report against the finished
    // trial's.
    let mut sent = [gen::JOURNALED_CHUNKS; gen::STREAMS];
    for a in inputs.warmup.iter().chain(&inputs.schedule) {
        if let Op::Chunk { stream, chunk } = a.op {
            sent[stream] = sent[stream].max(chunk + 1);
        }
    }
    let unsent = sent.iter().enumerate().flat_map(|(stream, from)| {
        (*from..inputs.chunk_counts[stream]).map(move |chunk| Op::Chunk { stream, chunk })
    });
    let shed = warm.shed_chunks.iter().chain(&tally.shed_chunks).copied();
    for op in shed.chain(unsent) {
        match client.call(request(&inputs, op)) {
            Ok(r) => {
                if let Err(e) = verify(&inputs, &expect, op, &r) {
                    out.error(format!("drain: {e}"));
                }
            }
            Err(e) => out.error(format!("drain: {e}")),
        }
    }
    for stream in 0..gen::STREAMS {
        let report = client
            .call(request(&inputs, Op::Poll { stream }))
            .map_err(|e| e.to_string())
            .and_then(|r| match r.outcome {
                Outcome::Report { rendered, .. } if r.degraded.is_empty() => Ok(rendered),
                other => Err(format!("{other:?}")),
            });
        out.check(
            &format!("final report of stream {stream}"),
            report,
            &expect.streams[stream],
        );
    }

    if traced {
        replay(&mut out, &inputs, &expect, &svc);
    }
    svc.shutdown();
    out
}

fn service_layers(
    layers: &mut Metrics,
    before: &service::StatsSnapshot,
    after: &service::StatsSnapshot,
    replayed: &service::StatsSnapshot,
    tally: &Tally,
) {
    let requests = (after.requests - before.requests).max(1) as f64;
    let handler_us = (after.busy - before.busy).as_secs_f64() * 1e6 / requests;
    let served = tally.served.max(1) as f64;
    layers.set("service.handler_us", handler_us, "us");
    layers.set(
        "service.queue_wait_us",
        tally.service_latency.as_secs_f64() * 1e6 / served - handler_us,
        "us",
    );
    layers.set(
        "service.lock_wait_us",
        (after.lock_wait - before.lock_wait).as_secs_f64() * 1e6 / requests,
        "us",
    );
    layers.set(
        "service.client_overhead_us",
        (tally.client_latency.as_secs_f64() - tally.service_latency.as_secs_f64()) * 1e6 / served,
        "us",
    );
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let hits = after.script_cache_hits - before.script_cache_hits;
    let misses = after.script_cache_misses - before.script_cache_misses;
    layers.set(
        "service.script_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    layers.set(
        "service.incremental_ratio",
        ratio(
            after.incremental_analyses - before.incremental_analyses,
            after.analyses - before.analyses,
        ),
        "ratio",
    );
    layers.set(
        "service.state_rebuilds",
        (after.state_rebuilds - before.state_rebuilds) as f64,
        "count",
    );
    layers.set("service.queue_peak", after.queue_peak as f64, "count");
    layers.set("service.shed", (after.shed - before.shed) as f64, "count");
    let appends = after.wal_appends - before.wal_appends;
    layers.set(
        "perfdmf.wal_append_us",
        (after.wal_append - before.wal_append).as_secs_f64() * 1e6 / appends.max(1) as f64,
        "us",
    );
    layers.set(
        "perfdmf.wal_replay_s",
        replayed.wal_replay.as_secs_f64(),
        "s",
    );
    layers.set(
        "perfdmf.wal_replayed_chunks",
        replayed.wal_replayed_chunks as f64,
        "count",
    );
}

/// Mirror of one stream for the replay: the trial and its incremental
/// state, fed the same chunks in the same order as the service.
struct Mirror {
    stream: StreamingTrial,
    state: AnalysisState,
}

/// Replays the measured phase, request by request and in schedule
/// order, through the layer functions the service's handlers call.
fn replay(out: &mut Run, inputs: &StreamInputs, expect: &Expect, svc: &AnalysisService) {
    let mut tr = Tracer::new();
    let mut mirrors: Vec<Mirror> = inputs
        .journaled
        .iter()
        .map(|chunks| {
            let (mut stream, _) = StreamingTrial::from_batch(gen::STREAM_TRIAL, &chunks[0])
                .expect("base chunk applies");
            for c in &chunks[1..] {
                stream.apply_chunk(c).expect("journaled chunk applies");
            }
            let state = AnalysisState::new(stream.trial(), "TIME").expect("state builds");
            Mirror { stream, state }
        })
        .collect();
    for a in &inputs.warmup {
        if let Op::Chunk { stream, chunk } = a.op {
            let m = &mut mirrors[stream];
            let applied = m
                .stream
                .apply_chunk(&inputs.chunk(stream, chunk))
                .expect("warm-up chunk applies");
            m.state
                .update(m.stream.trial(), &applied)
                .expect("warm-up chunk updates");
        }
    }
    let mut firings = Vec::new();
    let mut bodies = Vec::new();
    let mut traced_poll = Latencies::default();
    let mut plain_poll = Latencies::default();
    for (i, a) in inputs.schedule.iter().enumerate() {
        match a.op {
            Op::Chunk { stream, chunk } => {
                let doc = inputs.chunk_doc(stream, chunk);
                let m = &mut mirrors[stream];
                let r = tr.span("request.chunk", |tr| -> Result<(), String> {
                    let batch: ChunkBatch = tr
                        .span("perfdmf.chunk_decode", |_| serde_json::from_str(&doc))
                        .map_err(|e| e.to_string())?;
                    let applied = tr
                        .span("perfdmf.stream_apply", |_| m.stream.apply_chunk(&batch))
                        .map_err(|e| e.to_string())?;
                    tr.span("core.incremental_update", |_| {
                        m.state.update(m.stream.trial(), &applied)
                    })
                    .map_err(|e| e.to_string())?;
                    Ok(())
                });
                if let Err(e) = r {
                    out.error(format!("replayed chunk: {e}"));
                }
            }
            Op::Poll { stream } => {
                let state = &mirrors[stream].state;
                let mut plain = |out: &mut Run| {
                    let start = Instant::now();
                    let r = state
                        .report()
                        .map(|r| r.rendered)
                        .map_err(|e| e.to_string());
                    plain_poll.push(start.elapsed());
                    r.unwrap_or_else(|e| {
                        out.error(format!("replayed poll: {e}"));
                        String::new()
                    })
                };
                let first = (i % 2 == 0).then(|| plain(out));
                let start = Instant::now();
                let composed = tr.span("request.balance", |tr| {
                    let analysis = tr.span("core.incremental_analysis", |_| state.analysis());
                    rules_and_render(
                        tr,
                        || engine_with(LOAD_BALANCE_RULES),
                        || analysis.facts(),
                        &mut firings,
                    )
                });
                traced_poll.push(start.elapsed());
                let reference = first.unwrap_or_else(|| plain(out));
                out.check("replayed poll (composed)", composed, &reference);
            }
            Op::Upload { doc, .. } => {
                let json = &inputs.uploads[doc].1;
                let r = tr.span("request.ingest", |tr| {
                    tr.span("perfdmf.decode", |_| serde_json::from_str::<Trial>(json))
                });
                if let Err(e) = r {
                    out.error(format!("replayed upload: {e}"));
                }
            }
            Op::Sweep { experiment } => {
                let name = gen::sweep_experiment(experiment);
                let source = gen::sweep_source(&name);
                let count = Arc::new(AtomicU64::new(0));
                let r = tr.span("request.sweep", |tr| -> Result<String, String> {
                    let snapshot = tr
                        .span("service.snapshot", |_| {
                            svc.store().snapshot_experiment(gen::SWEEP_APP, &name)
                        })
                        .map_err(|e| e.to_string())?;
                    let mut explorer = PerfExplorerScript::new(snapshot);
                    let counter = Arc::clone(&count);
                    explorer.set_sweep_observer(Arc::new(move |n, _| {
                        counter.fetch_add(n as u64, Ordering::Relaxed);
                    }));
                    let program = tr
                        .span("script.compile", |_| explorer.compile_portable(&source))
                        .map_err(|e| e.to_string())?;
                    tr.span("script.run", |_| explorer.run_portable(&program))
                        .map(|v| v.to_string())
                        .map_err(|e| e.to_string())
                });
                bodies.push(count.load(Ordering::Relaxed) as f64);
                out.check("replayed sweep", r, &expect.sweeps[experiment]);
            }
        }
    }
    crate::layers_from_spans(&mut out.layers, &tr, &firings);
    out.layers
        .set("core.incremental_report_us", plain_poll.p50_p90().0, "us");
    out.layers.set(
        "script.sweep_bodies",
        bodies.iter().sum::<f64>() / bodies.len().max(1) as f64,
        "count",
    );
    out.layers.set(
        "trace.overhead_us",
        traced_poll.p50_p90().0 - plain_poll.p50_p90().0,
        "us",
    );
    out.tracer = Some(tr);
}
