//! The parse-once rulebase templates behind `rulebase::engine_with`
//! and `engine_with_all` are pinned against engines built by parsing
//! the DRL text afresh: on the fact sets of the paper's three case
//! studies, both must produce identical run reports (firings, handles,
//! prints and diagnoses), and the template cache must neither keep
//! errors nor share working memory between engines.

use apps::genidlest::{self, CodeVersion, GenIdlestConfig, Paradigm, Problem};
use apps::msa::{self, MsaConfig};
use perfdmf::Trial;
use perfexplorer::facts::{context_fact, MeanEventFact};
use perfexplorer::loadbalance;
use perfexplorer::metrics::{
    derive_inefficiency, memory_analysis, memory_facts, stall_decomposition, stall_facts,
};
use perfexplorer::powerenergy::{power_facts, relative_table, trial_power, TrialPower};
use perfexplorer::rulebase::{
    engine_with, engine_with_all, LOAD_BALANCE_RULES, LOCALITY_RULES, POWER_RULES, STALL_RULES,
};
use perfexplorer::scalability::{per_event_total, scaling_facts};
use rules::{drl, Engine, Fact};
use simulator::machine::MachineConfig;
use simulator::openmp::Schedule;

/// §III-A: balance facts of the imbalanced (static) MSA trial.
fn balance_facts() -> Vec<Fact> {
    let trial = msa::run(&MsaConfig::paper_400(16, Schedule::Static));
    loadbalance::analyze(&trial, "TIME").unwrap().facts()
}

/// §III-B: every fact pass of the locality workflow over a GenIDLEST
/// 90rib OpenMP unoptimized series.
fn locality_facts(machine: &MachineConfig) -> Vec<Fact> {
    let trials: Vec<(usize, Trial)> = [1usize, 4, 16]
        .iter()
        .map(|&p| {
            let mut c = GenIdlestConfig::new(
                Problem::Rib90,
                Paradigm::OpenMp,
                CodeVersion::Unoptimized,
                p,
            );
            c.timesteps = 2;
            (p, genidlest::run(&c))
        })
        .collect();
    let series: Vec<(usize, &Trial)> = trials.iter().map(|(p, t)| (*p, t)).collect();
    let target = series.last().unwrap().1;
    let mut scratch = target.clone();
    derive_inefficiency(&mut scratch).unwrap();
    let mut facts = vec![context_fact(target)];
    facts.extend(
        MeanEventFact::compare_all_events(&scratch, "(BACK_END_BUBBLE_ALL / CPU_CYCLES)", "TIME")
            .unwrap(),
    );
    facts.extend(stall_facts(&stall_decomposition(target, machine).unwrap()));
    facts.extend(memory_facts(&memory_analysis(target, machine).unwrap()));
    let scaling: Vec<_> = target
        .profile
        .events()
        .iter()
        .filter_map(|e| per_event_total(&series, "TIME", &e.name).ok())
        .collect();
    facts.extend(scaling_facts(&scaling));
    facts.extend(loadbalance::analyze(target, "TIME").unwrap().facts());
    facts
}

/// §III-C: power facts of the O0–O3 series.
fn power_fact_set(machine: &MachineConfig) -> Vec<Fact> {
    let trials: Vec<Trial> =
        apps::power_study::run_all(&apps::power_study::PowerStudyConfig::default())
            .into_iter()
            .map(|(_, t)| t)
            .collect();
    let readings: Vec<TrialPower> = trials
        .iter()
        .map(|t| trial_power(t, machine).unwrap())
        .collect();
    power_facts(&relative_table(&readings).unwrap())
}

fn parsed_engine(sources: &[&str]) -> Engine {
    let mut engine = Engine::new();
    for s in sources {
        engine.add_rules(drl::parse(s).unwrap()).unwrap();
    }
    engine
}

fn run(mut engine: Engine, facts: &[Fact]) -> rules::RunReport {
    for fact in facts {
        engine.assert_fact(fact.clone());
    }
    engine.run().unwrap()
}

#[test]
fn templates_match_freshly_parsed_engines_on_the_case_studies() {
    let machine = MachineConfig::altix300();
    let fact_sets = [
        ("balance", balance_facts()),
        ("locality", locality_facts(&machine)),
        ("power", power_fact_set(&machine)),
    ];
    let configurations: [&[&str]; 5] = [
        &[LOAD_BALANCE_RULES],
        &[STALL_RULES],
        &[LOCALITY_RULES],
        &[POWER_RULES],
        &[STALL_RULES, LOCALITY_RULES, LOAD_BALANCE_RULES],
    ];
    let mut fired = 0;
    for sources in configurations {
        for (name, facts) in &fact_sets {
            let expected = run(parsed_engine(sources), facts);
            fired += expected.firings.len();
            // The first call may build the template; later ones clone it.
            for attempt in 0..3 {
                let engine = match sources {
                    [one] => engine_with(one).unwrap(),
                    many => engine_with_all(many).unwrap(),
                };
                assert_eq!(
                    run(engine, facts),
                    expected,
                    "{name} facts, {} rulebase(s), attempt {attempt}",
                    sources.len()
                );
            }
        }
    }
    assert!(fired > 0, "no rule fired: the comparison would be vacuous");
}

#[test]
fn parse_errors_are_never_cached() {
    let malformed = "rule \"broken\" when Fact( x > ) then end";
    for _ in 0..3 {
        assert!(engine_with(malformed).is_err());
        assert!(engine_with_all(&[LOAD_BALANCE_RULES, malformed]).is_err());
        // Shipped rulebases twice over: duplicate rule names.
        assert!(engine_with_all(&[POWER_RULES, POWER_RULES]).is_err());
    }
}

#[test]
fn engines_from_one_template_share_no_working_memory() {
    let mut first = engine_with(LOAD_BALANCE_RULES).unwrap();
    first.assert_fact(
        Fact::new("RegionBalance")
            .with("eventName", "loop")
            .with("stddevMeanRatio", 0.9)
            .with("runtimeFraction", 0.5)
            .with("mean", 1.0),
    );
    let mut second = engine_with(LOAD_BALANCE_RULES).unwrap();
    assert_eq!(second.fact_count(), 0);
    let quiet = second.run().unwrap();
    assert!(quiet.firings.is_empty(), "{quiet:?}");

    second.assert_fact(Fact::new("Unrelated"));
    assert_eq!(first.fact_count(), 1);
    assert!(first.run().unwrap().fired("Unbalanced region"));
    assert_eq!(engine_with(LOAD_BALANCE_RULES).unwrap().fact_count(), 0);
}
