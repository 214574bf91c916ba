//! The inference engine: working memory, agenda, match–resolve–act loop.
//!
//! Matching is incremental and indexed (a "Rete-lite"):
//!
//! * an **alpha layer** buckets working memory per distinct
//!   (fact type, literal constraints) pattern signature, so joins scan
//!   only candidate facts that already passed every constant test;
//! * the **conflict set** is maintained persistently: asserting or
//!   retracting a fact only (re)computes activations for rules whose
//!   patterns reference the affected alpha memories — rules over other
//!   fact types are untouched, and firing a rule whose action leaves
//!   working memory unchanged costs one ordered-set pop;
//! * **negated patterns** are tracked per rule: an assert into a
//!   negatively-referenced alpha memory can *deactivate* pending matches
//!   and a retract can *activate* them, so those rules are recomputed
//!   from their (small) alpha candidate sets.
//!
//! The naive quadratic matcher this replaces lives on as
//! [`crate::reference::ReferenceEngine`], used by differential tests and
//! the `bench_rules` ablation.

use crate::condition::{Operand, Pattern};
use crate::fact::{Fact, FactHandle};
use crate::rule::{Action, RhsContext, RhsStatement, Rule};
use crate::value::Value;
use crate::{Result, RuleError};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A structured conclusion emitted by a rule — the engine's primary
/// output for the analysis layer. Where the paper's rules print their
/// findings ("Event X has a higher than average stall / cycle rate"),
/// this engine additionally captures them as data so downstream
/// consumers (recommendation rendering, compiler feedback) need not
/// parse text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Category tag, e.g. `"load-imbalance"`, `"memory-locality"`.
    pub category: String,
    /// Human-readable explanation.
    pub message: String,
    /// Severity in `[0, 1]` when the rule quantified it.
    pub severity: Option<f64>,
    /// Suggested remedy, if the rule proposes one.
    pub recommendation: Option<String>,
    /// Name of the rule that fired.
    pub rule: String,
    /// Variable bindings at firing time, so consumers can recover which
    /// event/trial the diagnosis is about without parsing the message.
    #[serde(default)]
    pub bindings: BTreeMap<String, Value>,
}

/// Record of one rule firing, for explanation and audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiringRecord {
    /// Rule that fired.
    pub rule: String,
    /// Handles of the matched facts, in pattern order.
    pub matched: Vec<FactHandle>,
    /// Variable environment at firing time.
    pub bindings: BTreeMap<String, Value>,
}

/// The output of an engine run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Lines printed by rule actions, in firing order.
    pub printed: Vec<String>,
    /// Structured diagnoses, in firing order.
    pub diagnoses: Vec<Diagnosis>,
    /// One record per firing, in order.
    pub firings: Vec<FiringRecord>,
    /// Match–act cycles executed.
    pub cycles: usize,
}

impl RunReport {
    /// Diagnoses in one category.
    pub fn diagnoses_in(&self, category: &str) -> Vec<&Diagnosis> {
        self.diagnoses
            .iter()
            .filter(|d| d.category == category)
            .collect()
    }

    /// Whether any rule with the given name fired.
    pub fn fired(&self, rule: &str) -> bool {
        self.firings.iter().any(|f| f.rule == rule)
    }

    /// Merges another report produced by a later run on the same engine.
    pub fn absorb(&mut self, other: RunReport) {
        self.printed.extend(other.printed);
        self.diagnoses.extend(other.diagnoses);
        self.firings.extend(other.firings);
        self.cycles += other.cycles;
    }
}

/// One activation candidate: the matched fact tuple and its bindings.
type Activation = (Vec<FactHandle>, BTreeMap<String, Value>);

/// Agenda ordering key: highest salience first, then rule definition
/// order, then fact recency (newest tuple first). A `BTreeSet` of these
/// keys iterates best-first.
type AgendaKey = (Reverse<i32>, usize, Reverse<Vec<FactHandle>>);

/// One alpha memory: the set of fact handles passing a pattern's
/// environment-independent tests (fact type + literal constraints).
/// Patterns with identical signatures share a memory.
#[derive(Clone)]
struct AlphaMemory {
    /// The shared alpha test: `filter.fact_type` plus only the literal
    /// constraints of the patterns using this memory. Immutable once
    /// built, so engine clones share it.
    filter: Arc<Pattern>,
    /// Facts currently passing the test, in handle (recency) order.
    handles: BTreeSet<FactHandle>,
    /// `(rule index, pattern position)` pairs reading this memory.
    users: Vec<(usize, usize)>,
}

/// A forward-chaining rule engine.
///
/// Cloning shares the rules and copies the alpha network, working
/// memory and the agenda: a clone of an engine with rules loaded and no
/// facts asserted is a ready-to-use template that skips parsing and
/// alpha construction.
#[derive(Clone)]
pub struct Engine {
    /// Shared between clones until one of them adds a rule.
    rules: Arc<Vec<Rule>>,
    wm: BTreeMap<FactHandle, Fact>,
    next_handle: u64,
    /// Refraction memory: activations that already fired.
    fired: BTreeSet<(usize, Vec<FactHandle>)>,
    /// Safety bound on total firings per `run`.
    cycle_limit: usize,
    /// Alpha layer: one memory per distinct pattern signature.
    alphas: Vec<AlphaMemory>,
    /// Fact type → indices into `alphas`, for assert/retract routing.
    type_alphas: BTreeMap<String, Vec<usize>>,
    /// Per rule, per pattern (in order): index into `alphas`.
    rule_alpha: Vec<Vec<usize>>,
    /// Per rule: current unfired activations (the conflict set), keyed
    /// by matched-handle tuple.
    conflict: Vec<BTreeMap<Vec<FactHandle>, BTreeMap<String, Value>>>,
    /// Salience/recency-ordered view over every conflict set.
    agenda: BTreeSet<AgendaKey>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Creates an empty engine with the default cycle limit.
    pub fn new() -> Self {
        Engine {
            rules: Arc::new(Vec::new()),
            wm: BTreeMap::new(),
            next_handle: 0,
            fired: BTreeSet::new(),
            cycle_limit: 100_000,
            alphas: Vec::new(),
            type_alphas: BTreeMap::new(),
            rule_alpha: Vec::new(),
            conflict: Vec::new(),
            agenda: BTreeSet::new(),
        }
    }

    /// Overrides the firing budget (guards against rules that assert
    /// facts in an unbounded loop).
    pub fn with_cycle_limit(mut self, limit: usize) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Adds one rule. Duplicate names are rejected so a knowledge base
    /// cannot silently shadow itself.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        if self.rules.iter().any(|r| r.name == rule.name) {
            return Err(RuleError::DuplicateRule(rule.name));
        }
        let idx = self.rules.len();
        let mut pattern_alphas = Vec::with_capacity(rule.patterns.len());
        for (pos, p) in rule.patterns.iter().enumerate() {
            let a = self.alpha_for(p);
            self.alphas[a].users.push((idx, pos));
            pattern_alphas.push(a);
        }
        self.rule_alpha.push(pattern_alphas);
        Arc::make_mut(&mut self.rules).push(rule);
        self.conflict.push(BTreeMap::new());
        self.recompute_rule(idx);
        Ok(())
    }

    /// Finds or creates the alpha memory for a pattern's signature. A
    /// newly-created memory is populated from current working memory, so
    /// rules may be added after facts.
    fn alpha_for(&mut self, pattern: &Pattern) -> usize {
        let literals: Vec<_> = pattern
            .constraints
            .iter()
            .filter(|c| matches!(c.rhs, Operand::Literal(_)))
            .cloned()
            .collect();
        if let Some(a) = self.alphas.iter().position(|a| {
            a.filter.fact_type == pattern.fact_type && a.filter.constraints == literals
        }) {
            return a;
        }
        let mut filter = Pattern::new(pattern.fact_type.clone());
        filter.constraints = literals;
        let handles = self
            .wm
            .iter()
            .filter(|(_, f)| filter.passes_alpha(f))
            .map(|(h, _)| *h)
            .collect();
        let a = self.alphas.len();
        self.alphas.push(AlphaMemory {
            filter: Arc::new(filter),
            handles,
            users: Vec::new(),
        });
        self.type_alphas
            .entry(pattern.fact_type.clone())
            .or_default()
            .push(a);
        a
    }

    /// Adds many rules; stops at the first duplicate.
    pub fn add_rules(&mut self, rules: Vec<Rule>) -> Result<()> {
        for r in rules {
            self.add_rule(r)?;
        }
        Ok(())
    }

    /// Asserts a fact into working memory, returning its handle. The
    /// conflict set is updated incrementally: only rules whose patterns
    /// read an alpha memory that accepted the fact are reconsidered.
    pub fn assert_fact(&mut self, fact: Fact) -> FactHandle {
        let h = FactHandle(self.next_handle);
        self.next_handle += 1;
        let fact_type = fact.fact_type.clone();
        self.wm.insert(h, fact);

        // Full recompute for rules where the fact feeds a negated
        // pattern (it may *deactivate* pending matches); a cheap delta
        // join for purely positive uses (it can only add activations).
        let mut full: BTreeSet<usize> = BTreeSet::new();
        let mut deltas: Vec<(usize, usize)> = Vec::new();
        if let Some(alpha_ids) = self.type_alphas.get(&fact_type) {
            for &a in alpha_ids.clone().iter() {
                if !self.alphas[a].filter.passes_alpha(&self.wm[&h]) {
                    continue;
                }
                self.alphas[a].handles.insert(h);
                for &(r, pos) in &self.alphas[a].users {
                    if self.rules[r].patterns[pos].negated {
                        full.insert(r);
                    } else {
                        deltas.push((r, pos));
                    }
                }
            }
        }
        for &r in &full {
            self.recompute_rule(r);
        }
        for (r, pos) in deltas {
            if !full.contains(&r) {
                self.delta_add(r, pos, h);
            }
        }
        h
    }

    /// Retracts a fact; returns it if it was present. Activations whose
    /// tuple contains the fact are dropped from the agenda; rules that
    /// test the fact's type negatively are recomputed (a retract can
    /// *activate* previously-blocked matches). Refraction entries naming
    /// the dead handle are purged — handles are never reused, so those
    /// tuples can never match again and would only leak memory.
    pub fn retract(&mut self, handle: FactHandle) -> Option<Fact> {
        let fact = self.wm.remove(&handle)?;
        let mut full: BTreeSet<usize> = BTreeSet::new();
        let mut positive: BTreeSet<usize> = BTreeSet::new();
        if let Some(alpha_ids) = self.type_alphas.get(&fact.fact_type) {
            for &a in alpha_ids.clone().iter() {
                if !self.alphas[a].handles.remove(&handle) {
                    continue;
                }
                for &(r, pos) in &self.alphas[a].users {
                    if self.rules[r].patterns[pos].negated {
                        full.insert(r);
                    } else {
                        positive.insert(r);
                    }
                }
            }
        }
        self.fired.retain(|(_, hs)| !hs.contains(&handle));
        for &r in &full {
            self.recompute_rule(r);
        }
        for &r in &positive {
            if !full.contains(&r) {
                self.remove_activations_containing(r, handle);
            }
        }
        Some(fact)
    }

    /// Read access to working memory, in handle order.
    pub fn facts(&self) -> impl Iterator<Item = (FactHandle, &Fact)> {
        self.wm.iter().map(|(h, f)| (*h, f))
    }

    /// Number of facts in working memory.
    pub fn fact_count(&self) -> usize {
        self.wm.len()
    }

    /// Number of rules loaded.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The loaded rules, in the order they were added.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Clears facts, the agenda and refraction memory, keeping the
    /// rules. The handle counter is *not* reset: handles held from
    /// before the reset stay dead forever instead of silently aliasing
    /// facts asserted afterwards.
    pub fn reset(&mut self) {
        self.wm.clear();
        self.fired.clear();
        self.agenda.clear();
        for alpha in &mut self.alphas {
            alpha.handles.clear();
        }
        for set in &mut self.conflict {
            set.clear();
        }
    }

    /// Number of refraction-memory entries currently retained. Exposed
    /// so long-lived callers (parameter sweeps) can check that retracted
    /// facts do not pin refraction state forever.
    pub fn refraction_len(&self) -> usize {
        self.fired.len()
    }

    /// Finds every activation of `rule` (index `idx`) against current
    /// working memory: all fact tuples matching the pattern conjunction
    /// with consistent bindings. Each pattern scans only its alpha
    /// memory, not all of working memory.
    fn activations_of(&self, idx: usize) -> Vec<Activation> {
        self.join(idx, None)
    }

    /// The indexed join. With `pin = Some((pos, h))`, pattern `pos` is
    /// restricted to the single fact `h` — the delta join used when `h`
    /// was just asserted, producing exactly the activations that involve
    /// it at that position.
    fn join(&self, idx: usize, pin: Option<(usize, FactHandle)>) -> Vec<Activation> {
        let rule = &self.rules[idx];
        let mut partial: Vec<Activation> = vec![(Vec::new(), BTreeMap::new())];
        for (pos, pattern) in rule.patterns.iter().enumerate() {
            let alpha = &self.alphas[self.rule_alpha[idx][pos]];
            let mut next = Vec::new();
            for (handles, env) in &partial {
                if pattern.negated {
                    // Absence test: keep the partial match only if no
                    // candidate satisfies the pattern under these
                    // bindings.
                    let blocked = alpha
                        .handles
                        .iter()
                        .any(|h| pattern.matches_given_alpha(&self.wm[h], env).is_some());
                    if !blocked {
                        next.push((handles.clone(), env.clone()));
                    }
                    continue;
                }
                let pinned;
                let candidates: &BTreeSet<FactHandle> = match pin {
                    Some((p, h)) if p == pos => {
                        pinned = BTreeSet::from([h]);
                        &pinned
                    }
                    _ => &alpha.handles,
                };
                for h in candidates {
                    // A fact participates at most once per activation: the
                    // paper's nested-loop rule matches two *different*
                    // events with the same pattern shape.
                    if handles.contains(h) {
                        continue;
                    }
                    if let Some(new_env) = pattern.matches_given_alpha(&self.wm[h], env) {
                        let mut hs = handles.clone();
                        hs.push(*h);
                        next.push((hs, new_env));
                    }
                }
            }
            partial = next;
            if partial.is_empty() {
                break;
            }
        }
        partial
    }

    /// Rebuilds rule `idx`'s conflict set from scratch (still via the
    /// alpha indexes) and reconciles the agenda. Used when a change may
    /// both add and remove activations — negated patterns, rule loading.
    fn recompute_rule(&mut self, idx: usize) {
        let salience = self.rules[idx].salience;
        let old = std::mem::take(&mut self.conflict[idx]);
        for handles in old.into_keys() {
            self.agenda
                .remove(&(Reverse(salience), idx, Reverse(handles)));
        }
        for (handles, env) in self.activations_of(idx) {
            self.insert_activation(idx, handles, env);
        }
    }

    /// Adds to rule `idx` every activation involving just-asserted fact
    /// `h` at pattern position `pos`. Purely additive — existing
    /// activations of a rule without negated patterns cannot be
    /// invalidated by an assert.
    fn delta_add(&mut self, idx: usize, pos: usize, h: FactHandle) {
        for (handles, env) in self.join(idx, Some((pos, h))) {
            self.insert_activation(idx, handles, env);
        }
    }

    /// Inserts one activation into the conflict set and agenda unless it
    /// already fired (refraction).
    fn insert_activation(
        &mut self,
        idx: usize,
        handles: Vec<FactHandle>,
        env: BTreeMap<String, Value>,
    ) {
        if self.fired.contains(&(idx, handles.clone())) {
            return;
        }
        let salience = self.rules[idx].salience;
        self.agenda
            .insert((Reverse(salience), idx, Reverse(handles.clone())));
        self.conflict[idx].insert(handles, env);
    }

    /// Drops every pending activation of rule `idx` whose matched tuple
    /// contains `h` (used when `h` is retracted).
    fn remove_activations_containing(&mut self, idx: usize, h: FactHandle) {
        let salience = self.rules[idx].salience;
        let dead: Vec<Vec<FactHandle>> = self.conflict[idx]
            .keys()
            .filter(|hs| hs.contains(&h))
            .cloned()
            .collect();
        for hs in dead {
            self.conflict[idx].remove(&hs);
            self.agenda.remove(&(Reverse(salience), idx, Reverse(hs)));
        }
    }

    /// Runs the match–resolve–act cycle to quiescence. If the cycle
    /// limit is hit, the partial report is carried inside the error.
    pub fn run(&mut self) -> Result<RunReport> {
        let mut report = RunReport::default();
        while let Some((Reverse(salience), idx, Reverse(handles))) = self.agenda.first().cloned() {
            if report.firings.len() >= self.cycle_limit {
                return Err(RuleError::CycleLimit {
                    limit: self.cycle_limit,
                    report: Box::new(report),
                });
            }
            self.agenda
                .remove(&(Reverse(salience), idx, Reverse(handles.clone())));
            let env = self.conflict[idx]
                .remove(&handles)
                .expect("agenda and conflict set in sync");
            self.fired.insert((idx, handles.clone()));

            let matched: Vec<(FactHandle, Fact)> = handles
                .iter()
                .map(|h| (*h, self.wm.get(h).expect("matched fact present").clone()))
                .collect();
            let rule_name = self.rules[idx].name.clone();
            let mut ctx = RhsContext::new(&env, &matched, &rule_name);

            // Matched-fact positions skip negated patterns (they match
            // nothing), so the retract lookup must too.
            let fact_bindings: Vec<Option<String>> = self.rules[idx]
                .patterns
                .iter()
                .filter(|p| !p.negated)
                .map(|p| p.fact_binding.clone())
                .collect();
            match &self.rules[idx].action {
                Action::Native(f) => f(&mut ctx),
                Action::Interpreted(stmts) => {
                    let stmts = stmts.clone();
                    Self::execute_interpreted(&mut ctx, &stmts, &rule_name, &fact_bindings)?;
                }
            }

            let printed = std::mem::take(&mut ctx.printed);
            let diagnoses = std::mem::take(&mut ctx.diagnoses);
            let asserts = std::mem::take(&mut ctx.asserts);
            let retracts = std::mem::take(&mut ctx.retracts);
            drop(ctx);

            report.firings.push(FiringRecord {
                rule: rule_name,
                matched: handles,
                bindings: env,
            });
            report.printed.extend(printed);
            report.diagnoses.extend(diagnoses);

            // Apply buffered commands through the incremental paths so
            // the agenda tracks every working-memory change.
            for h in retracts {
                self.retract(h);
            }
            for f in asserts {
                self.assert_fact(f);
            }
            report.cycles += 1;
        }
        Ok(report)
    }

    /// Executes interpreted RHS statements into the context. Shared with
    /// [`crate::reference::ReferenceEngine`] so both engines interpret
    /// rule actions identically.
    pub(crate) fn execute_interpreted(
        ctx: &mut RhsContext,
        statements: &[RhsStatement],
        rule_name: &str,
        fact_bindings: &[Option<String>],
    ) -> Result<()> {
        let unbound = |variable: &str| RuleError::UnboundVariable {
            rule: rule_name.to_string(),
            variable: variable.to_string(),
        };
        let eval = |expr: &crate::rule::RhsExpr, ctx: &RhsContext| -> Result<Value> {
            expr.eval(ctx.env).ok_or_else(|| {
                let mut vars = Vec::new();
                expr.variables(&mut vars);
                let missing = vars
                    .into_iter()
                    .find(|v| !ctx.env.contains_key(v))
                    .unwrap_or_default();
                unbound(&missing)
            })
        };
        for stmt in statements {
            match stmt {
                RhsStatement::Print(parts) => {
                    let mut line = String::new();
                    for p in parts {
                        line.push_str(&eval(p, ctx)?.to_string());
                    }
                    ctx.print(line);
                }
                RhsStatement::Assert { fact_type, fields } => {
                    let mut fact = Fact::new(fact_type.clone());
                    for (name, expr) in fields {
                        let v = eval(expr, ctx)?;
                        fact.set(name, v);
                    }
                    ctx.assert_fact(fact);
                }
                RhsStatement::Retract(var) => {
                    // The variable names a fact binding: find the pattern
                    // that bound it and retract the corresponding fact.
                    let handle = fact_bindings
                        .iter()
                        .position(|name| name.as_deref() == Some(var.as_str()))
                        .and_then(|i| ctx.matched.get(i))
                        .map(|(h, _)| *h);
                    match handle {
                        Some(h) => ctx.retract(h),
                        None => return Err(unbound(var)),
                    }
                }
                RhsStatement::Diagnose {
                    category,
                    message,
                    severity,
                    recommendation,
                } => {
                    let cat = eval(category, ctx)?.to_string();
                    let msg = eval(message, ctx)?.to_string();
                    let sev = match severity {
                        Some(e) => eval(e, ctx)?.as_num(),
                        None => None,
                    };
                    let rec = match recommendation {
                        Some(e) => Some(eval(e, ctx)?.to_string()),
                        None => None,
                    };
                    let rule = ctx.rule_name.to_string();
                    // Attach the firing environment explicitly so the
                    // documented contract — consumers can recover which
                    // event/trial the diagnosis is about — holds for
                    // interpreted rules exactly as for native actions.
                    let bindings = ctx.env.clone();
                    ctx.diagnose(Diagnosis {
                        category: cat,
                        message: msg,
                        severity: sev,
                        recommendation: rec,
                        rule,
                        bindings,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Comparator, Pattern};
    use crate::rule::Rule;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn high_severity_rule() -> Rule {
        Rule::builder("high severity")
            .when(
                Pattern::new("MeanEventFact")
                    .constrain("severity", Comparator::Gt, 0.1)
                    .bind("e", "eventName")
                    .bind("s", "severity"),
            )
            .then(|ctx| {
                let e = ctx.var("e").unwrap().to_string();
                ctx.print(format!("severe: {e}"));
            })
    }

    #[test]
    fn single_rule_fires_per_matching_fact() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "a"),
        );
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.05)
                .with("eventName", "b"),
        );
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.2)
                .with("eventName", "c"),
        );
        let report = engine.run().unwrap();
        assert_eq!(report.firings.len(), 2);
        assert!(report.printed.contains(&"severe: a".to_string()));
        assert!(report.printed.contains(&"severe: c".to_string()));
    }

    #[test]
    fn refraction_prevents_refiring_on_second_run() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "a"),
        );
        let first = engine.run().unwrap();
        assert_eq!(first.firings.len(), 1);
        let second = engine.run().unwrap();
        assert_eq!(second.firings.len(), 0);
        // A new equal fact is a new activation.
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "a"),
        );
        let third = engine.run().unwrap();
        assert_eq!(third.firings.len(), 1);
    }

    #[test]
    fn salience_orders_firing() {
        let order = Arc::new(parking());
        fn parking() -> std::sync::Mutex<Vec<&'static str>> {
            std::sync::Mutex::new(Vec::new())
        }
        let o1 = order.clone();
        let o2 = order.clone();
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("low")
                    .salience(1)
                    .when(Pattern::new("T"))
                    .then(move |_| o1.lock().unwrap().push("low")),
            )
            .unwrap();
        engine
            .add_rule(
                Rule::builder("high")
                    .salience(10)
                    .when(Pattern::new("T"))
                    .then(move |_| o2.lock().unwrap().push("high")),
            )
            .unwrap();
        engine.assert_fact(Fact::new("T"));
        engine.run().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["high", "low"]);
    }

    #[test]
    fn chaining_asserted_facts_trigger_other_rules() {
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("producer")
                    .when(Pattern::new("Input").bind("v", "value"))
                    .then(|ctx| {
                        let v = ctx.var("v").cloned().unwrap();
                        ctx.assert_fact(Fact::new("Derived").with("value", v));
                    }),
            )
            .unwrap();
        engine
            .add_rule(
                Rule::builder("consumer")
                    .when(Pattern::new("Derived").bind("v", "value"))
                    .then(|ctx| {
                        let v = ctx.var("v").unwrap().to_string();
                        ctx.print(format!("derived {v}"));
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Input").with("value", 7.0));
        let report = engine.run().unwrap();
        assert!(report.fired("producer"));
        assert!(report.fired("consumer"));
        assert_eq!(report.printed, vec!["derived 7"]);
    }

    #[test]
    fn join_across_patterns_with_binding() {
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("nested imbalance")
                    .when(
                        Pattern::new("Region")
                            .constrain("imbalanced", Comparator::Eq, true)
                            .bind("outer", "name"),
                    )
                    .when(
                        Pattern::new("Region")
                            .constrain("imbalanced", Comparator::Eq, true)
                            .constrain_var("parent", Comparator::Eq, "outer")
                            .bind("inner", "name"),
                    )
                    .then(|ctx| {
                        let o = ctx.var("outer").unwrap().to_string();
                        let i = ctx.var("inner").unwrap().to_string();
                        ctx.print(format!("{i} nested in {o}"));
                    }),
            )
            .unwrap();
        engine.assert_fact(
            Fact::new("Region")
                .with("name", "outer_loop")
                .with("parent", "main")
                .with("imbalanced", true),
        );
        engine.assert_fact(
            Fact::new("Region")
                .with("name", "inner_loop")
                .with("parent", "outer_loop")
                .with("imbalanced", true),
        );
        engine.assert_fact(
            Fact::new("Region")
                .with("name", "unrelated")
                .with("parent", "main")
                .with("imbalanced", false),
        );
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["inner_loop nested in outer_loop"]);
    }

    #[test]
    fn retraction_removes_fact_from_memory() {
        let mut engine = Engine::new();
        let h = engine.assert_fact(Fact::new("T").with("x", 1.0));
        assert_eq!(engine.fact_count(), 1);
        let f = engine.retract(h).unwrap();
        assert_eq!(f.get_num("x"), Some(1.0));
        assert_eq!(engine.fact_count(), 0);
        assert!(engine.retract(h).is_none());
    }

    #[test]
    fn native_retract_during_firing() {
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("consume")
                    .when(Pattern::new("Token").bind_fact("t"))
                    .then(|ctx| {
                        let (h, _) = ctx.matched[0];
                        ctx.retract(h);
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Token"));
        engine.run().unwrap();
        assert_eq!(engine.fact_count(), 0);
    }

    #[test]
    fn cycle_limit_stops_runaway_rules() {
        let mut engine = Engine::new().with_cycle_limit(25);
        engine
            .add_rule(
                Rule::builder("runaway")
                    .when(Pattern::new("Seed").bind("n", "n"))
                    .then(|ctx| {
                        // Asserts a fresh Seed each firing: never settles.
                        let n = ctx.var("n").and_then(Value::as_num).unwrap_or(0.0);
                        ctx.assert_fact(Fact::new("Seed").with("n", n + 1.0));
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Seed").with("n", 0.0));
        match engine.run() {
            Err(RuleError::CycleLimit { limit, report }) => {
                assert_eq!(limit, 25);
                // The partial report survives the limit: every firing up
                // to the budget is recorded, not discarded.
                assert_eq!(report.firings.len(), 25);
                assert_eq!(report.cycles, 25);
            }
            other => panic!("expected cycle limit, got {other:?}"),
        }
    }

    #[test]
    fn cycle_limit_error_carries_diagnoses() {
        let mut engine = Engine::new().with_cycle_limit(10);
        engine
            .add_rule(
                Rule::builder("diagnosing runaway")
                    .when(Pattern::new("Seed").bind("n", "n"))
                    .then(|ctx| {
                        let n = ctx.var("n").and_then(Value::as_num).unwrap_or(0.0);
                        ctx.diagnose(Diagnosis {
                            category: "loop".into(),
                            message: format!("iteration {n}"),
                            severity: None,
                            recommendation: None,
                            rule: ctx.rule_name.to_string(),
                            bindings: BTreeMap::new(),
                        });
                        ctx.assert_fact(Fact::new("Seed").with("n", n + 1.0));
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Seed").with("n", 0.0));
        let Err(RuleError::CycleLimit { report, .. }) = engine.run() else {
            panic!("expected cycle limit");
        };
        assert_eq!(report.diagnoses.len(), 10);
        assert_eq!(report.diagnoses[0].message, "iteration 0");
        assert_eq!(report.diagnoses[9].message, "iteration 9");
    }

    #[test]
    fn handles_stay_monotonic_across_reset() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        let stale = engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.9)
                .with("eventName", "old"),
        );
        engine.reset();
        let fresh = engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.9)
                .with("eventName", "new"),
        );
        assert_ne!(stale, fresh, "handle counter must not restart");
        // A stale handle held across reset is dead, not an alias: using
        // it must not retract the new fact.
        assert!(engine.retract(stale).is_none());
        assert_eq!(engine.fact_count(), 1);
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["severe: new"]);
    }

    #[test]
    fn retract_purges_refraction_entries() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        // A long-lived engine cycling facts through working memory must
        // not accumulate refraction entries for dead handles.
        for i in 0..50 {
            let h = engine.assert_fact(
                Fact::new("MeanEventFact")
                    .with("severity", 0.9)
                    .with("eventName", format!("e{i}")),
            );
            let report = engine.run().unwrap();
            assert_eq!(report.firings.len(), 1);
            assert_eq!(engine.refraction_len(), 1);
            engine.retract(h);
            assert_eq!(engine.refraction_len(), 0, "stale entry kept after retract");
        }
    }

    #[test]
    fn interpreted_diagnose_carries_bindings() {
        let src = r#"
rule "hot"
when
    MeanEventFact( severity > 0.1, e : eventName, v : severity )
then
    diagnose("hotspot", "region " + e + " is hot", v);
end
"#;
        let mut engine = Engine::new();
        engine.add_rules(crate::drl::parse(src).unwrap()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "pc"),
        );
        let report = engine.run().unwrap();
        let d = &report.diagnoses[0];
        assert_eq!(d.bindings.get("e"), Some(&Value::from("pc")));
        assert_eq!(d.bindings.get("v"), Some(&Value::from(0.5)));
    }

    #[test]
    fn rules_added_after_facts_see_existing_memory() {
        // The alpha memories for a late-loaded rule must be populated
        // from facts asserted before the rule existed.
        let mut engine = Engine::new();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.7)
                .with("eventName", "early"),
        );
        engine.add_rule(high_severity_rule()).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["severe: early"]);
    }

    #[test]
    fn assert_deactivates_pending_negated_match() {
        // An assert into a negatively-referenced alpha memory must
        // remove the pending activation before it fires.
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("quiet")
                    .when(Pattern::new("Probe"))
                    .when(Pattern::new("Noise").negate())
                    .then(|ctx| ctx.print("quiet")),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Probe"));
        // Pending activation exists now; asserting Noise deactivates it.
        engine.assert_fact(Fact::new("Noise"));
        let report = engine.run().unwrap();
        assert!(report.printed.is_empty());
    }

    #[test]
    fn duplicate_rule_name_rejected() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        assert!(matches!(
            engine.add_rule(high_severity_rule()),
            Err(RuleError::DuplicateRule(_))
        ));
    }

    #[test]
    fn reset_clears_memory_but_keeps_rules() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.9)
                .with("eventName", "x"),
        );
        engine.run().unwrap();
        engine.reset();
        assert_eq!(engine.fact_count(), 0);
        assert_eq!(engine.rule_count(), 1);
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.9)
                .with("eventName", "x"),
        );
        let report = engine.run().unwrap();
        assert_eq!(report.firings.len(), 1, "refraction memory was cleared");
    }

    #[test]
    fn firing_records_capture_bindings() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "a"),
        );
        let report = engine.run().unwrap();
        let rec = &report.firings[0];
        assert_eq!(rec.rule, "high severity");
        assert_eq!(rec.bindings.get("e"), Some(&Value::from("a")));
        assert_eq!(rec.bindings.get("s"), Some(&Value::from(0.5)));
        assert_eq!(rec.matched.len(), 1);
    }

    #[test]
    fn same_fact_cannot_fill_two_patterns() {
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("pair")
                    .when(Pattern::new("T"))
                    .when(Pattern::new("T"))
                    .then(move |_| {
                        c.fetch_add(1, Ordering::SeqCst);
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("T"));
        engine.run().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 0, "single fact, two patterns");
        engine.assert_fact(Fact::new("T"));
        engine.run().unwrap();
        // Two facts, ordered pairs (a,b) and (b,a).
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }
}
