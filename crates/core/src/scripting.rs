//! The analysis API exposed to the embedded scripting language.
//!
//! The paper's Figure 1 drives PerfExplorer from a Jython script:
//! load rules, load a trial, derive a metric, compare events to main,
//! process the rules. [`PerfExplorerScript`] provides the same workflow
//! over the [`script`] interpreter:
//!
//! ```
//! use perfdmf::Repository;
//! use perfexplorer::scripting::PerfExplorerScript;
//! # use apps::msa::{self, MsaConfig};
//! # use simulator::openmp::Schedule;
//! # let mut repo = Repository::new();
//! # let mut config = MsaConfig::paper_400(4, Schedule::Static);
//! # config.sequences = 48;
//! # repo.add_trial("msap", "scheduling", msa::run(&config)).unwrap();
//! let mut session = PerfExplorerScript::new(repo);
//! let out = session
//!     .run(r#"
//!         load_rules("load_balance");
//!         let trial = load_trial("msap", "scheduling", "4_static");
//!         assert_balance_facts(trial, "TIME");
//!         let report = process_rules();
//!         report["diagnoses"]
//!     "#)
//!     .unwrap();
//! # let _ = out;
//! ```
//!
//! # Parallel trial sweeps
//!
//! `par_foreach_trial` fans a script block out over a list, one body
//! per item, on the process's worker budget. Each body runs against a
//! **fresh session** (its own trial handles, rule engine, and report)
//! over the same shared repository, so bodies are order-independent
//! and a failing or panicking body degrades alone — its outcome map
//! records the error while its siblings complete:
//!
//! ```text
//! let names = list_trials("msap", "scheduling");
//! let results = par_foreach_trial t in names {
//!     let trial = load_trial("msap", "scheduling", t);
//!     elapsed(trial, "TIME")
//! };
//! ```
//!
//! Because the bodies cannot see each other, facts asserted inside a
//! sweep body land in the body's private engine: aggregate inside the
//! body (e.g. return the report's diagnosis count) rather than relying
//! on session-level state.

use crate::derive::{derive_metric, DeriveOp};
use crate::facts::MeanEventFact;
use crate::metrics::{
    derive_inefficiency, memory_analysis, memory_facts, stall_decomposition, stall_facts,
};
use crate::result::TrialResult;
use crate::rulebase;
use crate::{loadbalance, Result};
use perfdmf::{Repository, Trial};
use rayon::prelude::*;
use rules::{Engine, Fact, RunReport};
use script::Interpreter;
pub use script::Value;
use simulator::machine::MachineConfig;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Every host function, in registration order. The order is part of
/// the compiled-script contract: portable scripts replay onto
/// interpreters whose name tables were built by registering these in
/// exactly this order, so new hosts are appended at the end.
const HOST_NAMES: &[&str] = &[
    "load_trial",
    "trial_events",
    "trial_metrics",
    "mean_exclusive",
    "mean_inclusive",
    "elapsed",
    "derive_metric",
    "derive_inefficiency",
    "compare_event_to_main",
    "compare_all_events",
    "assert_balance_facts",
    "assert_stall_facts",
    "assert_memory_facts",
    "assert_fact",
    "assert_context_fact",
    "assert_scaling_facts",
    "cluster_threads",
    "compare_trials",
    "load_rules",
    "load_rules_source",
    "process_rules",
    "list_trials",
];

/// Shared session state behind the host functions.
struct SessionState {
    /// The repository is shared (read-only from scripts) so sweep
    /// bodies on other threads can open their own sessions over it.
    repo: Arc<Repository>,
    /// Loaded trials; handles index into this list. Trials are private
    /// copies so scripted derivations do not mutate the repository.
    trials: Vec<Trial>,
    engine: Engine,
    machine: MachineConfig,
    last_report: Option<RunReport>,
}

impl SessionState {
    fn fresh(repo: Arc<Repository>, machine: MachineConfig) -> Self {
        SessionState {
            repo,
            trials: Vec::new(),
            engine: Engine::new(),
            machine,
            last_report: None,
        }
    }
}

/// A scripting session bound to a repository.
pub struct PerfExplorerScript {
    interp: Interpreter,
    state: Rc<RefCell<SessionState>>,
}

/// Outcome of [`PerfExplorerScript::run_supervised`]: the script's
/// value when it completed, plus whatever partial results the session
/// accumulated before a failure.
#[derive(Debug)]
pub struct SupervisedScript {
    /// The script's final value, when it ran to completion.
    pub value: Option<Value>,
    /// The report of the last completed `process_rules()` call, even
    /// if the script failed afterwards.
    pub report: Option<RunReport>,
    /// Everything the script printed before finishing or failing.
    pub printed: Vec<String>,
    /// Why the run is partial; empty on a clean run.
    pub degraded: Vec<crate::supervise::DegradedStage>,
}

impl SupervisedScript {
    /// Whether the script ran to completion.
    pub fn is_complete(&self) -> bool {
        self.degraded.is_empty()
    }
}

fn host_err(msg: impl Into<String>) -> String {
    msg.into()
}

fn trial_handle(id: usize) -> Value {
    Value::Handle {
        tag: "trial".to_string(),
        id: id as u64,
    }
}

fn expect_trial(args: &[Value], i: usize) -> std::result::Result<usize, String> {
    match args.get(i).and_then(Value::as_handle) {
        Some(("trial", id)) => Ok(id as usize),
        _ => Err(host_err(format!("argument {i} must be a trial handle"))),
    }
}

fn expect_str(args: &[Value], i: usize) -> std::result::Result<String, String> {
    args.get(i)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| host_err(format!("argument {i} must be a string")))
}

impl PerfExplorerScript {
    /// Creates a session over a repository, on the Altix 300 machine
    /// model.
    pub fn new(repo: Repository) -> Self {
        Self::with_machine(repo, MachineConfig::altix300())
    }

    /// Creates a session with an explicit machine model.
    pub fn with_machine(repo: Repository, machine: MachineConfig) -> Self {
        Self::with_shared(Arc::new(repo), machine)
    }

    /// Creates a session over an already-shared repository — what a
    /// multi-tenant service uses so its sessions (and their sweep
    /// bodies) read one copy of the data.
    pub fn with_shared(repo: Arc<Repository>, machine: MachineConfig) -> Self {
        let state = Rc::new(RefCell::new(SessionState::fresh(
            Arc::clone(&repo),
            machine.clone(),
        )));
        let mut interp = Interpreter::new();
        Self::register_all(&mut interp, &state);
        interp.set_parallel_executor(sweep_executor(repo, machine));
        PerfExplorerScript { interp, state }
    }

    /// Runs a script, returning its final value.
    ///
    /// Compilation is cached per source string, so driving the same
    /// workflow script repeatedly (the per-trial loop of the paper's
    /// §III workflows) re-executes cached bytecode instead of
    /// re-lexing/re-parsing each time.
    pub fn run(&mut self, source: &str) -> Result<Value> {
        Ok(self.interp.run(source)?)
    }

    /// Compiles a workflow script once for repeated execution.
    pub fn compile(&mut self, source: &str) -> Result<script::Compiled> {
        Ok(self.interp.compile(source)?)
    }

    /// Runs a script previously compiled with
    /// [`PerfExplorerScript::compile`].
    pub fn run_compiled(&mut self, program: &script::Compiled) -> Result<Value> {
        Ok(self.interp.run_compiled(program)?)
    }

    /// Compiles a script into a handle that runs on any session created
    /// with the same registration (i.e. any [`PerfExplorerScript`]):
    /// the service layer compiles once and executes on every worker.
    pub fn compile_portable(&mut self, source: &str) -> Result<script::PortableScript> {
        Ok(self.interp.compile_portable(source)?)
    }

    /// Runs a script compiled by [`PerfExplorerScript::compile_portable`]
    /// on this (or any identically-registered) session.
    pub fn run_portable(&mut self, program: &script::PortableScript) -> Result<Value> {
        Ok(self.interp.run_portable(program)?)
    }

    /// [`PerfExplorerScript::run_portable`] under the same panic
    /// isolation as [`PerfExplorerScript::run_supervised`].
    pub fn run_portable_supervised(
        &mut self,
        program: &script::PortableScript,
    ) -> SupervisedScript {
        use crate::supervise::{panic_message, DegradeCause, DegradedStage};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut degraded = Vec::new();
        let value = match catch_unwind(AssertUnwindSafe(|| self.interp.run_portable(program))) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                degraded.push(DegradedStage {
                    stage: "script".into(),
                    cause: DegradeCause::Failed(e.to_string()),
                });
                None
            }
            Err(payload) => {
                degraded.push(DegradedStage {
                    stage: "script".into(),
                    cause: DegradeCause::Panicked(panic_message(payload)),
                });
                None
            }
        };
        SupervisedScript {
            value,
            report: self.last_report(),
            printed: self.output(),
            degraded,
        }
    }

    /// Observes every completed `par_foreach_trial` sweep on this
    /// session: the callback receives `(bodies, failed_bodies)` after
    /// the sweep's outcomes are collected. The service layer hangs its
    /// sweep counters here.
    pub fn set_sweep_observer(&mut self, observer: Arc<dyn Fn(usize, usize) + Send + Sync>) {
        let (repo, machine) = {
            let st = self.state.borrow();
            (Arc::clone(&st.repo), st.machine.clone())
        };
        let exec = sweep_executor(repo, machine);
        self.interp
            .set_parallel_executor(Arc::new(move |runner, items| {
                let outcomes = exec(runner, items);
                let failed = outcomes.iter().filter(|o| o.result.is_err()).count();
                observer(outcomes.len(), failed);
                outcomes
            }));
    }

    /// Takes the script's printed output.
    pub fn output(&mut self) -> Vec<String> {
        self.interp.take_output()
    }

    /// The report of the most recent `process_rules()` call.
    pub fn last_report(&self) -> Option<RunReport> {
        self.state.borrow().last_report.clone()
    }

    /// Compilation-cache counters of the underlying interpreter.
    pub fn cache_stats(&self) -> script::CacheStats {
        self.interp.cache_stats()
    }

    /// Runs a workflow script under panic isolation: a script error or
    /// a panic inside a host function becomes a [`crate::supervise::DegradedStage`]
    /// record instead of unwinding the caller. The outcome carries
    /// whatever the session produced before the failure — the last
    /// `process_rules()` report and the printed output — so an
    /// unattended pipeline can salvage partial conclusions.
    ///
    /// After a panic the session's interpreter state may be
    /// inconsistent; callers that continue should start a fresh
    /// session.
    pub fn run_supervised(&mut self, source: &str) -> SupervisedScript {
        use crate::supervise::{panic_message, DegradeCause, DegradedStage};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut degraded = Vec::new();
        let value = match catch_unwind(AssertUnwindSafe(|| self.interp.run(source))) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                degraded.push(DegradedStage {
                    stage: "script".into(),
                    cause: DegradeCause::Failed(e.to_string()),
                });
                None
            }
            Err(payload) => {
                degraded.push(DegradedStage {
                    stage: "script".into(),
                    cause: DegradeCause::Panicked(panic_message(payload)),
                });
                None
            }
        };
        SupervisedScript {
            value,
            report: self.last_report(),
            printed: self.output(),
            degraded,
        }
    }

    fn register_all(interp: &mut Interpreter, state: &Rc<RefCell<SessionState>>) {
        for &name in HOST_NAMES {
            let s = state.clone();
            interp.register(name, move |args| call_host(&s, name, args));
        }
    }
}

/// Builds the executor that runs `par_foreach_trial` bodies on the
/// process's worker budget. Each body gets a fresh session over the
/// shared repository; a panicking body is caught and recorded as that
/// body's error outcome, so one corrupt trial cannot take down its
/// siblings or the pool.
fn sweep_executor(repo: Arc<Repository>, machine: MachineConfig) -> Arc<script::ParallelExecutor> {
    Arc::new(move |runner: &script::ParRunner, items: Vec<Value>| {
        let repo = &repo;
        let machine = &machine;
        items
            .into_par_iter()
            .map(|item| {
                use std::panic::{catch_unwind, AssertUnwindSafe};
                let state = RefCell::new(SessionState::fresh(Arc::clone(repo), machine.clone()));
                let mut host = |name: &str, args: &mut Vec<Value>| call_host(&state, name, args);
                catch_unwind(AssertUnwindSafe(|| runner.run_one(item, &mut host))).unwrap_or_else(
                    |payload| script::BodyOutcome {
                        result: Err(script::ScriptError::runtime(
                            0,
                            format!(
                                "panic in sweep body: {}",
                                crate::supervise::panic_message(payload)
                            ),
                        )),
                        output: Vec::new(),
                        steps: 0,
                    },
                )
            })
            .collect()
    })
}

/// Executes one host function against a session. This single dispatch
/// backs both the interpreter's registered closures and the sweep
/// executor's per-thread sessions, so the two paths cannot drift.
fn call_host(
    state: &RefCell<SessionState>,
    name: &str,
    args: &mut [Value],
) -> std::result::Result<Value, String> {
    match name {
        // --- data access ---
        "load_trial" => {
            let app = expect_str(args, 0)?;
            let exp = expect_str(args, 1)?;
            let trial = expect_str(args, 2)?;
            let mut st = state.borrow_mut();
            let t = st
                .repo
                .trial(&app, &exp, &trial)
                .map_err(|e| host_err(e.to_string()))?
                .clone();
            st.trials.push(t);
            Ok(trial_handle(st.trials.len() - 1))
        }
        "list_trials" => {
            let app = expect_str(args, 0)?;
            let exp = expect_str(args, 1)?;
            let st = state.borrow();
            let experiment = st
                .repo
                .experiment(&app, &exp)
                .map_err(|e| host_err(e.to_string()))?;
            Ok(Value::List(
                experiment
                    .trial_names()
                    .map(|n| Value::Str(n.to_string()))
                    .collect(),
            ))
        }
        "trial_events" => {
            let id = expect_trial(args, 0)?;
            let st = state.borrow();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            Ok(Value::List(
                trial
                    .profile
                    .events()
                    .iter()
                    .map(|e| Value::Str(e.name.clone()))
                    .collect(),
            ))
        }
        "trial_metrics" => {
            let id = expect_trial(args, 0)?;
            let st = state.borrow();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            Ok(Value::List(
                trial
                    .profile
                    .metrics()
                    .iter()
                    .map(|m| Value::Str(m.name.clone()))
                    .collect(),
            ))
        }
        "mean_exclusive" => {
            let id = expect_trial(args, 0)?;
            let event = expect_str(args, 1)?;
            let metric = expect_str(args, 2)?;
            let st = state.borrow();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let r = TrialResult::new(trial);
            let values = r
                .exclusive(&event, &metric)
                .map_err(|e| host_err(e.to_string()))?;
            Ok(Value::Num(
                values.iter().sum::<f64>() / values.len().max(1) as f64,
            ))
        }
        "mean_inclusive" => {
            let id = expect_trial(args, 0)?;
            let event = expect_str(args, 1)?;
            let metric = expect_str(args, 2)?;
            let st = state.borrow();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let r = TrialResult::new(trial);
            let values = r
                .inclusive(&event, &metric)
                .map_err(|e| host_err(e.to_string()))?;
            Ok(Value::Num(
                values.iter().sum::<f64>() / values.len().max(1) as f64,
            ))
        }
        "elapsed" => {
            let id = expect_trial(args, 0)?;
            let metric = expect_str(args, 1)?;
            let st = state.borrow();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            TrialResult::new(trial)
                .elapsed(&metric)
                .map(Value::Num)
                .map_err(|e| host_err(e.to_string()))
        }
        // --- derived metrics ---
        "derive_metric" => {
            let id = expect_trial(args, 0)?;
            let lhs = expect_str(args, 1)?;
            let op = match expect_str(args, 2)?.as_str() {
                "add" => DeriveOp::Add,
                "subtract" => DeriveOp::Subtract,
                "multiply" => DeriveOp::Multiply,
                "divide" => DeriveOp::Divide,
                other => return Err(host_err(format!("unknown operation {other:?}"))),
            };
            let rhs = expect_str(args, 3)?;
            let mut st = state.borrow_mut();
            let trial = st
                .trials
                .get_mut(id)
                .ok_or_else(|| host_err("stale handle"))?;
            derive_metric(trial, &lhs, op, &rhs)
                .map(Value::Str)
                .map_err(|e| host_err(e.to_string()))
        }
        "derive_inefficiency" => {
            let id = expect_trial(args, 0)?;
            let mut st = state.borrow_mut();
            let trial = st
                .trials
                .get_mut(id)
                .ok_or_else(|| host_err("stale handle"))?;
            derive_inefficiency(trial)
                .map(Value::Str)
                .map_err(|e| host_err(e.to_string()))
        }
        // --- facts ---
        "compare_event_to_main" => {
            let id = expect_trial(args, 0)?;
            let metric = expect_str(args, 1)?;
            let severity = expect_str(args, 2)?;
            let event = expect_str(args, 3)?;
            let mut st = state.borrow_mut();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let fact = MeanEventFact::compare_event_to_main(trial, &metric, &severity, &event)
                .map_err(|e| host_err(e.to_string()))?;
            st.engine.assert_fact(fact);
            Ok(Value::Null)
        }
        "compare_all_events" => {
            let id = expect_trial(args, 0)?;
            let metric = expect_str(args, 1)?;
            let severity = expect_str(args, 2)?;
            let mut st = state.borrow_mut();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let facts = MeanEventFact::compare_all_events(trial, &metric, &severity)
                .map_err(|e| host_err(e.to_string()))?;
            let n = facts.len();
            for f in facts {
                st.engine.assert_fact(f);
            }
            Ok(Value::Num(n as f64))
        }
        "assert_balance_facts" => {
            let id = expect_trial(args, 0)?;
            let metric = expect_str(args, 1)?;
            let mut st = state.borrow_mut();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let analysis =
                loadbalance::analyze(trial, &metric).map_err(|e| host_err(e.to_string()))?;
            let facts = analysis.facts();
            let n = facts.len();
            for f in facts {
                st.engine.assert_fact(f);
            }
            Ok(Value::Num(n as f64))
        }
        "assert_stall_facts" => {
            let id = expect_trial(args, 0)?;
            let mut st = state.borrow_mut();
            let machine = st.machine.clone();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let facts = stall_facts(
                &stall_decomposition(trial, &machine).map_err(|e| host_err(e.to_string()))?,
            );
            let n = facts.len();
            for f in facts {
                st.engine.assert_fact(f);
            }
            Ok(Value::Num(n as f64))
        }
        "assert_memory_facts" => {
            let id = expect_trial(args, 0)?;
            let mut st = state.borrow_mut();
            let machine = st.machine.clone();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let facts = memory_facts(
                &memory_analysis(trial, &machine).map_err(|e| host_err(e.to_string()))?,
            );
            let n = facts.len();
            for f in facts {
                st.engine.assert_fact(f);
            }
            Ok(Value::Num(n as f64))
        }
        "assert_fact" => {
            // assert_fact(type, { field: value, ... })
            let fact_type = expect_str(args, 0)?;
            let map = args
                .get(1)
                .and_then(Value::as_map)
                .ok_or_else(|| host_err("argument 1 must be a map"))?;
            let mut fact = Fact::new(fact_type);
            for (k, v) in map {
                match v {
                    Value::Num(n) => fact.set(k, *n),
                    Value::Str(sv) => fact.set(k, sv.as_str()),
                    Value::Bool(b) => fact.set(k, *b),
                    other => {
                        return Err(host_err(format!(
                            "field {k:?} has unsupported type {}",
                            other.type_name()
                        )))
                    }
                }
            }
            state.borrow_mut().engine.assert_fact(fact);
            Ok(Value::Null)
        }
        "assert_context_fact" => {
            let id = expect_trial(args, 0)?;
            let mut st = state.borrow_mut();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let fact = crate::facts::context_fact(trial);
            st.engine.assert_fact(fact);
            Ok(Value::Null)
        }
        "assert_scaling_facts" => {
            // assert_scaling_facts([[procs, trial], ...], metric)
            let series_arg = args
                .first()
                .and_then(Value::as_list)
                .ok_or_else(|| host_err("argument 0 must be a list of [procs, trial] pairs"))?;
            let metric = expect_str(args, 1)?;
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for item in series_arg {
                let pair = item
                    .as_list()
                    .ok_or_else(|| host_err("each series item must be [procs, trial]"))?;
                let procs = pair
                    .first()
                    .and_then(Value::as_num)
                    .ok_or_else(|| host_err("procs must be a number"))?
                    as usize;
                let handle = match pair.get(1).and_then(Value::as_handle) {
                    Some(("trial", id)) => id as usize,
                    _ => return Err(host_err("second element must be a trial handle")),
                };
                pairs.push((procs, handle));
            }
            let mut st = state.borrow_mut();
            let trials: Vec<(usize, Trial)> = pairs
                .iter()
                .map(|(p, h)| {
                    st.trials
                        .get(*h)
                        .cloned()
                        .map(|t| (*p, t))
                        .ok_or_else(|| host_err("stale handle"))
                })
                .collect::<std::result::Result<_, String>>()?;
            let refs: Vec<(usize, &Trial)> = trials.iter().map(|(p, t)| (*p, t)).collect();
            let (_, target) = refs
                .last()
                .ok_or_else(|| host_err("series must not be empty"))?;
            let mut count = 0.0;
            let mut series = Vec::new();
            for event in target.profile.events() {
                if let Ok(s) = crate::scalability::per_event_total(&refs, &metric, &event.name) {
                    series.push(s);
                }
            }
            for fact in crate::scalability::scaling_facts(&series) {
                st.engine.assert_fact(fact);
                count += 1.0;
            }
            Ok(Value::Num(count))
        }
        "cluster_threads" => {
            let id = expect_trial(args, 0)?;
            let metric = expect_str(args, 1)?;
            let mut st = state.borrow_mut();
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let clustering = crate::cluster::cluster_threads(trial, &metric, 4)
                .map_err(|e| host_err(e.to_string()))?;
            let mut out = BTreeMap::new();
            out.insert("clusters".to_string(), Value::Num(clustering.k as f64));
            out.insert("silhouette".to_string(), Value::Num(clustering.silhouette));
            out.insert(
                "groups".to_string(),
                Value::List(
                    clustering
                        .groups
                        .iter()
                        .map(|g| {
                            Value::List(g.threads.iter().map(|&t| Value::Num(t as f64)).collect())
                        })
                        .collect(),
                ),
            );
            let facts = clustering.facts();
            for f in facts {
                st.engine.assert_fact(f);
            }
            Ok(Value::Map(out))
        }
        "compare_trials" => {
            let base = expect_trial(args, 0)?;
            let cand = expect_trial(args, 1)?;
            let metric = expect_str(args, 2)?;
            let mut st = state.borrow_mut();
            let baseline = st
                .trials
                .get(base)
                .ok_or_else(|| host_err("stale handle"))?
                .clone();
            let candidate = st
                .trials
                .get(cand)
                .ok_or_else(|| host_err("stale handle"))?
                .clone();
            let cmp = crate::compare::compare(&baseline, &candidate, &metric)
                .map_err(|e| host_err(e.to_string()))?;
            let mut out = BTreeMap::new();
            out.insert("totalRatio".to_string(), Value::Num(cmp.total_ratio));
            out.insert(
                "regressions".to_string(),
                Value::List(
                    cmp.regressions(1.25)
                        .iter()
                        .map(|d| Value::Str(d.event.clone()))
                        .collect(),
                ),
            );
            out.insert(
                "improvements".to_string(),
                Value::List(
                    cmp.improvements(1.25)
                        .iter()
                        .map(|d| Value::Str(d.event.clone()))
                        .collect(),
                ),
            );
            for f in cmp.facts() {
                st.engine.assert_fact(f);
            }
            Ok(Value::Map(out))
        }
        // --- rules ---
        "load_rules" => {
            let which = expect_str(args, 0)?;
            let source = match which.as_str() {
                "load_balance" => rulebase::LOAD_BALANCE_RULES,
                "stalls" => rulebase::STALL_RULES,
                "locality" => rulebase::LOCALITY_RULES,
                "power" => rulebase::POWER_RULES,
                other => return Err(host_err(format!("unknown rulebase {other:?}"))),
            };
            // The shipped text's parse-once template supplies the rules.
            let parsed = rulebase::engine_with(source)
                .map_err(|e| host_err(e.to_string()))?
                .rules()
                .to_vec();
            let n = parsed.len();
            state
                .borrow_mut()
                .engine
                .add_rules(parsed)
                .map_err(|e| host_err(e.to_string()))?;
            Ok(Value::Num(n as f64))
        }
        "load_rules_source" => {
            let source = expect_str(args, 0)?;
            let parsed = rules::drl::parse(&source).map_err(|e| host_err(e.to_string()))?;
            let n = parsed.len();
            state
                .borrow_mut()
                .engine
                .add_rules(parsed)
                .map_err(|e| host_err(e.to_string()))?;
            Ok(Value::Num(n as f64))
        }
        "process_rules" => {
            let mut st = state.borrow_mut();
            let report = st.engine.run().map_err(|e| host_err(e.to_string()))?;
            let mut out = BTreeMap::new();
            out.insert(
                "diagnoses".to_string(),
                Value::Num(report.diagnoses.len() as f64),
            );
            out.insert(
                "firings".to_string(),
                Value::Num(report.firings.len() as f64),
            );
            out.insert(
                "printed".to_string(),
                Value::List(
                    report
                        .printed
                        .iter()
                        .map(|l| Value::Str(l.clone()))
                        .collect(),
                ),
            );
            out.insert(
                "recommendations".to_string(),
                Value::List(
                    report
                        .diagnoses
                        .iter()
                        .filter_map(|d| d.recommendation.clone())
                        .map(Value::Str)
                        .collect(),
                ),
            );
            st.last_report = Some(report);
            Ok(Value::Map(out))
        }
        other => Err(host_err(format!("unregistered host function {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::msa::{self, MsaConfig};
    use simulator::openmp::Schedule;

    fn repo_with_msa() -> Repository {
        let mut repo = Repository::new();
        for schedule in [Schedule::Static, Schedule::Dynamic(1)] {
            let mut config = MsaConfig::paper_400(8, schedule);
            config.sequences = 96;
            repo.add_trial("msap", "scheduling", msa::run(&config))
                .unwrap();
        }
        repo
    }

    #[test]
    fn figure_one_style_script_end_to_end() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session
            .run(
                r#"
                load_rules("load_balance");
                let trial = load_trial("msap", "scheduling", "8_static");
                let n = assert_balance_facts(trial, "TIME");
                print("asserted " + n + " facts");
                let report = process_rules();
                report["diagnoses"]
                "#,
            )
            .unwrap();
        let diagnoses = out.as_num().unwrap();
        assert!(diagnoses >= 1.0, "expected imbalance diagnoses");
        let report = session.last_report().unwrap();
        assert!(report.fired("Load imbalance in nested loops"));
        assert!(session.output()[0].starts_with("asserted "));
    }

    #[test]
    fn supervised_clean_script_matches_plain_run() {
        let source = r#"
            load_rules("load_balance");
            let trial = load_trial("msap", "scheduling", "8_static");
            assert_balance_facts(trial, "TIME");
            let report = process_rules();
            report["diagnoses"]
        "#;
        let mut plain = PerfExplorerScript::new(repo_with_msa());
        let expected = plain.run(source).unwrap();
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session.run_supervised(source);
        assert!(out.is_complete());
        assert_eq!(out.value.unwrap().as_num(), expected.as_num());
        assert!(out.report.unwrap().fired("Load imbalance in nested loops"));
    }

    #[test]
    fn supervised_script_failure_keeps_partial_results() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session.run_supervised(
            r#"
            load_rules("load_balance");
            let trial = load_trial("msap", "scheduling", "8_static");
            assert_balance_facts(trial, "TIME");
            let report = process_rules();
            print("rules done");
            load_trial("msap", "scheduling", "no_such_trial");
            "#,
        );
        assert!(!out.is_complete());
        assert!(out.value.is_none());
        // Everything up to the failure survives.
        assert!(out.report.unwrap().fired("Load imbalance in nested loops"));
        assert_eq!(out.printed, vec!["rules done".to_string()]);
        assert_eq!(out.degraded.len(), 1);
        assert_eq!(out.degraded[0].stage, "script");
    }

    #[test]
    fn derive_and_inspect_from_script() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session
            .run(
                r#"
                let t = load_trial("msap", "scheduling", "8_dynamic,1");
                let name = derive_metric(t, "BACK_END_BUBBLE_ALL", "divide", "CPU_CYCLES");
                let metrics = trial_metrics(t);
                has(metrics, name)
                "#,
            )
            .unwrap();
        assert_eq!(out, Value::Bool(true));
    }

    #[test]
    fn load_rules_adds_the_shipped_rules_in_source_order() {
        // `load_rules` serves the shipped rulebases from their parse-once
        // templates; the session must end up with exactly the rules a
        // fresh parse gives, in the same order, with the same counts.
        let mut session = PerfExplorerScript::new(Repository::new());
        let out = session
            .run(r#"[load_rules("stalls"), load_rules("locality"), load_rules("power")]"#)
            .unwrap();
        let sources = [
            rulebase::STALL_RULES,
            rulebase::LOCALITY_RULES,
            rulebase::POWER_RULES,
        ];
        let parsed: Vec<Vec<rules::Rule>> = sources
            .iter()
            .map(|s| rules::drl::parse(s).unwrap())
            .collect();
        assert_eq!(
            out,
            Value::List(parsed.iter().map(|r| Value::Num(r.len() as f64)).collect())
        );
        let expected: Vec<String> = parsed.iter().flatten().map(|r| format!("{r:?}")).collect();
        let state = session.state.borrow();
        let loaded: Vec<String> = state
            .engine
            .rules()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(loaded, expected);
    }

    #[test]
    fn scripted_custom_rule_and_fact() {
        let mut session = PerfExplorerScript::new(Repository::new());
        let out = session
            .run(
                r#"
                load_rules_source("rule \"t\" when F( x > 1, v : x ) then print(\"got \" + v); end");
                assert_fact("F", { x: 2 });
                assert_fact("F", { x: 0 });
                let r = process_rules();
                r["printed"]
                "#,
            )
            .unwrap();
        assert_eq!(out, Value::List(vec![Value::Str("got 2".to_string())]));
    }

    #[test]
    fn cluster_and_compare_from_script() {
        let mut repo = repo_with_msa();
        // Also add an unoptimized GenIDLEST pair for comparison.
        use apps::genidlest::{self, CodeVersion, GenIdlestConfig, Paradigm, Problem};
        for version in [CodeVersion::Unoptimized, CodeVersion::Optimized] {
            let mut c = GenIdlestConfig::new(Problem::Rib90, Paradigm::OpenMp, version, 8);
            c.timesteps = 1;
            repo.add_trial("Fluid Dynamic", "rib 90", genidlest::run(&c))
                .unwrap();
        }
        let mut session = PerfExplorerScript::new(repo);
        let out = session
            .run(
                r#"
                let unopt = load_trial("Fluid Dynamic", "rib 90", "openmp_unoptimized_8");
                let opt = load_trial("Fluid Dynamic", "rib 90", "openmp_optimized_8");
                let clustering = cluster_threads(unopt, "TIME");
                let cmp = compare_trials(unopt, opt, "TIME");
                [clustering["clusters"] >= 2, cmp["totalRatio"] < 0.5,
                 len(cmp["improvements"]) > 0]
                "#,
            )
            .unwrap();
        assert_eq!(
            out,
            Value::List(vec![
                Value::Bool(true),
                Value::Bool(true),
                Value::Bool(true)
            ])
        );
    }

    #[test]
    fn errors_surface_with_context() {
        let mut session = PerfExplorerScript::new(Repository::new());
        let err = session.run("load_trial(\"a\", \"b\", \"c\")").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("load_trial"), "{text}");
        assert!(text.contains("not found"), "{text}");

        let err2 = session.run("load_rules(\"nope\")").unwrap_err();
        assert!(err2.to_string().contains("unknown rulebase"));

        let err3 = session.run("elapsed(5, \"TIME\")").unwrap_err();
        assert!(err3.to_string().contains("trial handle"));
    }

    #[test]
    fn trial_accessors_from_script() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session
            .run(
                r#"
                let t = load_trial("msap", "scheduling", "8_static");
                let events = trial_events(t);
                let e = elapsed(t, "TIME");
                let m = mean_exclusive(t, "main => distance_matrix => sw_align", "TIME");
                [len(events) >= 5, e > 0, m > 0]
                "#,
            )
            .unwrap();
        assert_eq!(
            out,
            Value::List(vec![
                Value::Bool(true),
                Value::Bool(true),
                Value::Bool(true)
            ])
        );
    }

    // --- parallel trial sweeps ---

    const SWEEP_SOURCE: &str = r#"
        let names = list_trials("msap", "scheduling");
        let results = par_foreach_trial t in names {
            let trial = load_trial("msap", "scheduling", t);
            let n = assert_balance_facts(trial, "TIME");
            process_rules();
            [t, elapsed(trial, "TIME"), n]
        };
        results
    "#;

    #[test]
    fn list_trials_enumerates_experiment() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session.run(r#"list_trials("msap", "scheduling")"#).unwrap();
        let names: Vec<&str> = out
            .as_list()
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(names, vec!["8_dynamic,1", "8_static"]);
        let err = session.run(r#"list_trials("nope", "x")"#).unwrap_err();
        assert!(err.to_string().contains("not found"), "{err}");
    }

    #[test]
    fn sweep_runs_every_trial_and_matches_sequential() {
        // The parallel sweep must produce exactly what running the body
        // by hand per trial produces, in trial order.
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session.run(SWEEP_SOURCE).unwrap();
        let outcomes = out.as_list().unwrap().to_vec();
        assert_eq!(outcomes.len(), 2);

        let mut sequential = PerfExplorerScript::new(repo_with_msa());
        for (i, name) in ["8_dynamic,1", "8_static"].iter().enumerate() {
            let m = outcomes[i].as_map().unwrap();
            assert_eq!(m.get("ok"), Some(&Value::Bool(true)), "outcome {i}: {m:?}");
            let body = m.get("value").unwrap().as_list().unwrap();
            assert_eq!(body[0].as_str(), Some(*name));
            // A fresh sequential session computes the same elapsed time.
            let expected = sequential
                .run(&format!(
                    r#"let t = load_trial("msap", "scheduling", "{name}"); elapsed(t, "TIME")"#
                ))
                .unwrap();
            assert_eq!(body[1], expected);
            assert!(body[2].as_num().unwrap() >= 1.0);
        }
    }

    #[test]
    fn sweep_bodies_cannot_write_session_state() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let err_outcome = session
            .run(
                r#"
                let g = 0;
                let r = par_foreach_trial t in list_trials("msap", "scheduling") { g = 1; };
                r[0]
                "#,
            )
            .unwrap();
        let m = err_outcome.as_map().unwrap();
        assert_eq!(m.get("ok"), Some(&Value::Bool(false)));
        assert!(
            m.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("cannot assign to global"),
            "{m:?}"
        );
    }

    #[test]
    fn sweep_failing_body_degrades_alone() {
        // The first body targets a missing trial and fails; the other
        // body completes with its value.
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session
            .run(
                r#"
                let r = par_foreach_trial t in ["no_such_trial", "8_static"] {
                    let trial = load_trial("msap", "scheduling", t);
                    elapsed(trial, "TIME")
                };
                r
                "#,
            )
            .unwrap();
        let outcomes = out.as_list().unwrap();
        let bad = outcomes[0].as_map().unwrap();
        assert_eq!(bad.get("ok"), Some(&Value::Bool(false)));
        assert!(
            bad.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("not found"),
            "{bad:?}"
        );
        let good = outcomes[1].as_map().unwrap();
        assert_eq!(good.get("ok"), Some(&Value::Bool(true)));
        assert!(good.get("value").unwrap().as_num().unwrap() > 0.0);
    }

    #[test]
    fn sweep_output_is_stitched_in_trial_order() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        session
            .run(
                r#"
                par_foreach_trial t in list_trials("msap", "scheduling") {
                    print("saw " + t);
                };
                "#,
            )
            .unwrap();
        assert_eq!(
            session.output(),
            vec!["saw 8_dynamic,1".to_string(), "saw 8_static".to_string()]
        );
    }

    #[test]
    fn portable_scripts_run_on_sibling_sessions() {
        let repo = Arc::new(repo_with_msa());
        let machine = MachineConfig::altix300();
        let mut a = PerfExplorerScript::with_shared(Arc::clone(&repo), machine.clone());
        let mut b = PerfExplorerScript::with_shared(repo, machine);
        let compiled = a.compile_portable(SWEEP_SOURCE).unwrap();
        let out_a = a.run_portable(&compiled).unwrap();
        let out_b = b.run_portable(&compiled).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(out_a.as_list().unwrap().len(), 2);
    }
}
