//! `live`: writes beside reads. One client drives two cache-enabled sessions
//! — Law Students at 4,000 rows (one table) and TPC-H at 1,000 customers
//! (3,000 orders, a three-table join). Each round applies a small seeded
//! `apply` batch to one session (1–4 updates of the ranking column,
//! sometimes an insert) and then solves one request on it, so every read
//! follows a version bump and the solution cache never hits.
//!
//! The sizes are about a fifth of the paper's (21,790 rows; 5,000
//! customers): at paper scale every round copies and rebuilds tens of
//! megabytes, and run-to-run timing on a shared two-core machine spread by
//! a third, more than any bound the benchmark may set.
//!
//! The correctness gate replays every round on cache-less sessions after the
//! measured window: same batches, same requests, answers compared. An answer
//! that returns the original query is checked without a reference solve
//! ([`layers::check_identity`]); every other answer is compared with one. A
//! traced run instead replays each round through the layers right after it
//! ran, and compares with that.

use crate::layers::{self, Answer, Counters, Traced};
use crate::rng::Rng;
use crate::stats::{Latencies, Metric};
use crate::trace::Tracer;
use crate::{end_to_end, ms, Measured, Outcome, Settings};
use qr_core::{DistanceMeasure, Mutation, RefinementOutcome, RefinementRequest, RefinementSession};
use qr_datagen::Workload;
use qr_provenance::AnnotatedRelation;
use qr_relation::{Database, DatabaseDelta, Value};
use std::time::{Duration, Instant};

const LAW_STUDENTS_ROWS: usize = 4_000;
const TPCH_CUSTOMERS: usize = 1_000;
/// Solution-cache capacity of both sessions (the server's pool uses 64).
const CACHE_CAPACITY: usize = 64;
/// How often set-up is repeated before the measured loop, and again after
/// it; `setup_s` is the median.
const SETUP_REPEATS: usize = 10;
const TAIL_P: f64 = 90.0;
const TIME_LIMIT: Duration = Duration::from_secs(10);
const K: usize = 10;

/// One session target: its data and the column writes change.
struct Target {
    label: &'static str,
    workload: Workload,
    /// The relation writes go to and its ranking column.
    relation: &'static str,
    ranking: &'static str,
    /// Column holding a row's own identifier, renumbered on insert.
    id_column: &'static str,
    /// The ε a read may ask for.
    epsilons: &'static [f64],
}

/// Law Students reads at 4,000 rows whose ε is below the original query's
/// deviation need a search that can stop unproven at the deadline; from 0.4
/// up the original query answers them (the identity fast path).
const LAW_STUDENTS_EPSILONS: &[f64] = &[0.4, 0.45, 0.5];
const TPCH_EPSILONS: &[f64] = &[0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5];

fn targets() -> Vec<Target> {
    vec![
        Target {
            label: "law_students",
            workload: Workload::law_students(LAW_STUDENTS_ROWS, crate::search::DATA_SEED),
            relation: "LawStudents",
            ranking: "LSAT",
            id_column: "ID",
            epsilons: LAW_STUDENTS_EPSILONS,
        },
        Target {
            label: "tpch",
            workload: Workload::tpch(TPCH_CUSTOMERS, crate::search::DATA_SEED),
            relation: "Orders",
            ranking: "Revenue",
            id_column: "OrderID",
            epsilons: TPCH_EPSILONS,
        },
    ]
}

/// One round's inputs.
#[derive(Debug, Clone)]
struct Round {
    target: usize,
    batch: Vec<Mutation>,
    request: RefinementRequest,
}

/// A new value for a ranking cell: LSAT moves by up to ±10 points within
/// 120..=180; revenue scales by a factor in [0.5, 1.5).
fn perturb(value: &Value, rng: &mut Rng) -> Value {
    match value {
        Value::Int(v) => Value::Int((v + rng.below(21) as i64 - 10).clamp(120, 180)),
        Value::Float(v) => Value::Float(((v * (0.5 + rng.unit())) * 100.0).round() / 100.0),
        other => other.clone(),
    }
}

/// Rounds are dealt from a shuffled deck of these (target, distance) slots,
/// reshuffled when it runs out, so every seed sends the same mix: a quarter
/// TPC-H QD and JAC reads (most answered by the identity fast path), half
/// Law Students QD and JAC reads, and a quarter Law Students KEN reads,
/// which cost the most. The median read falls in the middle of the Law
/// Students QD/JAC reads and p90 inside its KEN reads, not between two
/// clusters. TPC-H KEN reads are left out: below ε = 0.4 they search, for
/// 10 to 300 ms depending on what the seed's writes left, and landed on
/// both percentiles.
const DECK: [(usize, DistanceMeasure); 8] = [
    (1, DistanceMeasure::Predicate),
    (1, DistanceMeasure::JaccardTopK),
    (0, DistanceMeasure::Predicate),
    (0, DistanceMeasure::Predicate),
    (0, DistanceMeasure::JaccardTopK),
    (0, DistanceMeasure::JaccardTopK),
    (0, DistanceMeasure::KendallTopK),
    (0, DistanceMeasure::KendallTopK),
];

/// Draw round `n` against the target's current database.
fn draw_round(
    rng: &mut Rng,
    n: usize,
    target: usize,
    distance: DistanceMeasure,
    t: &Target,
    db: &Database,
) -> Round {
    let mut batch = Vec::new();
    if let Ok(rel) = db.get(t.relation) {
        let ranking = rel.schema().index_of(t.ranking).unwrap_or(0);
        let id_column = rel.schema().index_of(t.id_column).unwrap_or(0);
        let mut updates = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let pos = rng.below(rel.len());
            let mut row = rel.rows()[pos].clone();
            row[ranking] = perturb(&row[ranking], rng);
            updates.push((rel.row_ids()[pos], row));
        }
        batch.push(Mutation::update(t.relation, updates));
        if rng.chance(0.25) {
            let mut row = rel.rows()[rng.below(rel.len())].clone();
            row[ranking] = perturb(&row[ranking], rng);
            row[id_column] = Value::Int(10_000_000 + n as i64);
            batch.push(Mutation::insert(t.relation, vec![row]));
        }
    }
    let epsilon = *rng.pick(t.epsilons);
    let request = RefinementRequest::new()
        .with_constraints(t.workload.default_constraints(K))
        .with_epsilon(epsilon)
        .with_distance(distance)
        .with_time_limit(TIME_LIMIT);
    Round {
        target,
        batch,
        request,
    }
}

/// Apply a batch to a database copy the way `RefinementSession::apply`
/// does, returning the composed delta.
fn mutate(db: &mut Database, batch: &[Mutation]) -> qr_relation::Result<DatabaseDelta> {
    let mut delta = DatabaseDelta::new();
    for m in batch.iter().cloned() {
        let step = match m {
            Mutation::Insert { relation, rows } => db.insert_rows(&relation, rows)?,
            Mutation::Delete { relation, ids } => db.delete_rows(&relation, &ids)?,
            Mutation::Update { relation, updates } => db.update_rows(&relation, updates)?,
        };
        delta.merge(step);
    }
    Ok(delta)
}

/// What the measured loop saw of one round.
struct Seen {
    round: Round,
    version: Option<u64>,
    outcome: Option<RefinementOutcome>,
    write_ms: f64,
    read_ms: f64,
    /// Set when the gate finds the read's answer wrong.
    wrong: bool,
}

pub fn run(settings: &Settings) -> Outcome {
    let mut outcome = Outcome::default();
    let targets = targets();

    // Set-up: both sessions annotated, repeated.
    let mut m = Measured::default();
    let set_up = || {
        let inputs: Vec<_> = targets
            .iter()
            .map(|t| (t.workload.db.clone(), t.workload.query.clone()))
            .collect();
        let start = Instant::now();
        let built: Result<Vec<_>, _> = inputs
            .into_iter()
            .map(|(db, query)| {
                RefinementSession::new(db, query).map(|s| s.with_solution_cache(CACHE_CAPACITY))
            })
            .collect();
        (
            start.elapsed().as_secs_f64(),
            built.map_err(|e| e.to_string()),
        )
    };
    let sessions: Vec<RefinementSession> =
        match crate::repeat_set_up(SETUP_REPEATS, &mut m.setups, set_up) {
            Ok(built) => built,
            Err(e) => {
                outcome.attempted += 1;
                outcome.fail(format!("session set-up: {e}"));
                return outcome;
            }
        };

    // The measured loop: closed rounds of one write then one read, until
    // the budget is spent and p90 has ten reads beyond it.
    let budget = if settings.trace {
        settings.seconds / 2.0
    } else {
        settings.seconds
    };
    let min_reads = 100;
    let mut rng = Rng::new(settings.seed, 3);
    let mut deck: Vec<usize> = Vec::new();
    let mut seen: Vec<Seen> = Vec::new();
    let (mut hits, mut warm) = (0usize, 0usize);
    let mut replayer = None;
    if settings.trace {
        match Replayer::new(&targets, &mut outcome) {
            Some(r) => replayer = Some(r),
            None => return outcome,
        }
    }
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= budget && seen.len() >= min_reads) || elapsed >= 2.0 * budget {
            break;
        }
        if deck.is_empty() {
            deck.extend(0..DECK.len());
            rng.shuffle(&mut deck);
        }
        let (target, distance) = DECK[deck.pop().unwrap_or(0)];
        let session = &sessions[target];
        let round = draw_round(
            &mut rng,
            seen.len(),
            target,
            distance,
            &targets[target],
            session.snapshot().db(),
        );

        let write_start = Instant::now();
        let version = session.apply(round.batch.clone());
        let write_ms = ms(write_start.elapsed());
        let read_start = Instant::now();
        let result = session.solve(&round.request);
        let read_ms = ms(read_start.elapsed());

        outcome.attempted += 2;
        eprintln!(
            "live write {:>7.1} ms  read {:>7.1} ms  {} {} eps={}",
            write_ms, read_ms, targets[target].label, round.request.distance, round.request.epsilon
        );
        if let Err(e) = &version {
            outcome.fail(format!("write {}: {e}", seen.len()));
        }
        let solved = match result {
            Ok(r) => {
                hits += r.stats.cache_hits;
                warm += r.stats.cache_warm_starts;
                Some(r.outcome)
            }
            Err(e) => {
                outcome.fail(format!("read {}: {e}", seen.len()));
                None
            }
        };
        seen.push(Seen {
            round,
            version: version.ok(),
            outcome: solved,
            write_ms,
            read_ms,
            wrong: false,
        });
        if let Some(r) = replayer.as_mut() {
            let n = seen.len() - 1;
            r.round(n, &targets, &mut seen[n], &mut outcome);
        }
    }
    m.elapsed_s = start.elapsed().as_secs_f64();
    m.peak_rss_mb = crate::peak_rss_mb();
    if !settings.trace {
        if let Err(e) = crate::repeat_set_up(SETUP_REPEATS, &mut m.setups, set_up) {
            outcome.attempted += 1;
            outcome.fail(format!("session set-up: {e}"));
        }
    }

    let rows: Vec<String> = targets
        .iter()
        .map(|t| format!("\"{}\":{}", t.label, t.workload.main_relation_size()))
        .collect();
    outcome.input("dataset_rows", format!("{{{}}}", rows.join(",")));
    outcome.input("data_seed", crate::search::DATA_SEED);
    outcome.input("rounds", seen.len());
    outcome.input(
        "memo_hit_share",
        crate::stats::ratio(hits as f64, seen.len() as f64),
    );

    if replayer.is_none() {
        check_against_cacheless(&targets, &mut seen, &mut outcome);
    }

    // Latencies, with every failed or wrong operation as a miss.
    let mut writes = Latencies::default();
    for s in &seen {
        match s.version {
            Some(_) => writes.record(s.write_ms),
            None => writes.miss(),
        }
        if s.outcome.is_some() && !s.wrong {
            m.solves.record(s.read_ms);
            m.completed += 1;
        } else {
            m.solves.miss();
        }
        if s.version.is_some() && s.outcome.is_some() && !s.wrong {
            m.rounds.record(s.write_ms + s.read_ms);
        } else {
            m.rounds.miss();
        }
    }

    match replayer {
        Some(Replayer { t, c, .. }) => {
            if let Err(e) = t.write_jsonl(&crate::spans_path(settings)) {
                eprintln!("perfbench: could not write spans: {e}");
            }
            let untraced_ms: f64 = seen.iter().map(|s| s.write_ms + s.read_ms).sum();
            outcome.metrics = layers::per_layer(&Traced {
                tracer: t,
                counters: c,
                first_compared: 1,
                untraced_ms,
                replayed_ms: untraced_ms,
                server_ms: 0.0,
                cache_hit_share: crate::stats::ratio(hits as f64, seen.len() as f64),
                cache_warm_share: crate::stats::ratio(warm as f64, seen.len() as f64),
                server: Default::default(),
            });
        }
        None => {
            end_to_end(&m, TAIL_P, &mut outcome);
            outcome.report_only.extend([
                Metric::new(
                    "write_p50_ms",
                    "ms",
                    writes.median().unwrap_or(0.0),
                    writes.count(),
                ),
                Metric::new(
                    "write_p90_ms",
                    "ms",
                    writes.tail(90.0).unwrap_or(0.0),
                    writes.count(),
                ),
            ]);
        }
    }
    outcome
}

/// The gate: replay every round on a cache-less session per target (same
/// batches, same requests, in the same order) and compare. The targets are
/// independent, so each replays on its own thread.
fn check_against_cacheless(targets: &[Target], seen: &mut [Seen], outcome: &mut Outcome) {
    let seen_now: &[Seen] = seen;
    let failures: Vec<(usize, String)> = std::thread::scope(|scope| {
        let checkers: Vec<_> = targets
            .iter()
            .enumerate()
            .map(|(target, t)| scope.spawn(move || check_target(target, t, seen_now)))
            .collect();
        checkers
            .into_iter()
            .flat_map(|c| {
                c.join()
                    .unwrap_or_else(|_| vec![(usize::MAX, "reference check panicked".to_string())])
            })
            .collect()
    });
    for (n, e) in failures {
        if let Some(s) = seen.get_mut(n) {
            s.wrong = true;
        }
        outcome.fail(format!("round {n}: {e}"));
    }
}

/// Replay the rounds of one target on a cache-less session: every batch is
/// applied, an answer that returns the original query is checked without a
/// solve, every other one against the session's own solve. Returns the
/// failed rounds.
fn check_target(target: usize, t: &Target, seen: &[Seen]) -> Vec<(usize, String)> {
    let mirror = match RefinementSession::new(t.workload.db.clone(), t.workload.query.clone()) {
        Ok(m) => m,
        Err(e) => return vec![(usize::MAX, format!("{} reference set-up: {e}", t.label))],
    };
    let mut failures = Vec::new();
    for (n, s) in seen
        .iter()
        .enumerate()
        .filter(|(_, s)| s.round.target == target)
    {
        let checked = mirror
            .apply(s.round.batch.clone())
            .map_err(|e| e.to_string())
            .and_then(|version| {
                if Some(version) != s.version {
                    return Err(format!(
                        "version {version} but the session saw {:?}",
                        s.version
                    ));
                }
                if let Some(checked) = s.outcome.as_ref().and_then(|seen| {
                    layers::check_identity(
                        mirror.snapshot().annotated(),
                        &t.workload.query,
                        &s.round.request,
                        seen,
                    )
                }) {
                    return checked;
                }
                let reference = mirror.solve(&s.round.request).map_err(|e| e.to_string())?;
                let Some(seen_outcome) = &s.outcome else {
                    return Ok(());
                };
                Answer::of(seen_outcome).check_against(&Answer::of(&reference.outcome))?;
                match seen_outcome.refined() {
                    Some(r) => {
                        layers::check_deviation(mirror.snapshot().annotated(), &s.round.request, r)
                    }
                    None => Ok(()),
                }
            });
        if let Err(e) = checked {
            failures.push((n, format!("{}: {e}", t.label)));
        }
    }
    failures
}

/// The traced replay: each round once more through `Database::clone`, the
/// mutation functions, `apply_delta` and the solve path, with spans. It runs
/// right after the untraced round, so both see the same process state.
struct Replayer {
    t: Tracer,
    c: Counters,
    states: Vec<(Database, AnnotatedRelation)>,
}

impl Replayer {
    fn new(targets: &[Target], outcome: &mut Outcome) -> Option<Self> {
        let mut t = Tracer::new();
        let mut c = Counters::default();
        let mut states = Vec::new();
        for target in targets {
            let w = &target.workload;
            match layers::annotate(&mut t, &mut c, &w.db, &w.query) {
                Ok(a) => states.push((w.db.clone(), a)),
                Err(e) => {
                    outcome.fail(format!("traced set-up: {e}"));
                    return None;
                }
            }
        }
        Some(Replayer { t, c, states })
    }

    /// Replay round `n` and compare its answer with the untraced one.
    fn round(&mut self, n: usize, targets: &[Target], s: &mut Seen, outcome: &mut Outcome) {
        let Replayer { t, c, states } = self;
        let (db, annotated) = &mut states[s.round.target];
        let query = &targets[s.round.target].workload.query;
        t.set_request(2 * n as u64 + 1);
        outcome.attempted += 1;
        // Installing the new state drops the old one, as the session's
        // snapshot swap does; that is part of the write.
        let written = t.span("core.apply", |t| {
            let mut next = t.span("relation.copy", |_| db.clone());
            let delta = t.span("relation.mutate", |_| mutate(&mut next, &s.round.batch))?;
            let repaired = t.span("provenance.repair", |_| {
                annotated.apply_delta(&next, &delta)
            })?;
            *db = next;
            *annotated = repaired.annotated;
            Ok::<_, qr_relation::RelationError>(repaired.rebuilt)
        });
        match written {
            Ok(rebuilt) => {
                c.writes += 1;
                c.rebuilds += usize::from(rebuilt);
            }
            Err(e) => return outcome.fail(format!("traced write {n}: {e}")),
        }
        t.set_request(2 * n as u64 + 2);
        outcome.attempted += 1;
        let replayed = t.span("core.solve", |t| {
            layers::replay_solve(t, c, annotated, query, &s.round.request, None)
        });
        let checked = replayed.and_then(|reference| {
            let Some(seen_outcome) = &s.outcome else {
                return Err("the measured read failed".to_string());
            };
            Answer::of(seen_outcome).check_against(&reference)?;
            match seen_outcome.refined() {
                Some(r) => layers::check_deviation(annotated, &s.round.request, r),
                None => Ok(()),
            }
        });
        if let Err(e) = checked {
            s.wrong = true;
            outcome.fail(format!("traced read {n}: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_rounds() {
        let t = &Target {
            label: "tpch",
            workload: Workload::tpch(40, 1),
            relation: "Orders",
            ranking: "Revenue",
            id_column: "OrderID",
            epsilons: TPCH_EPSILONS,
        };
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            (0..20)
                .map(|n| {
                    format!(
                        "{:?}",
                        draw_round(
                            &mut rng,
                            n,
                            1,
                            DistanceMeasure::JaccardTopK,
                            t,
                            &t.workload.db
                        )
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }
}
