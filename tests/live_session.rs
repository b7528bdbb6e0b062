//! Snapshot-isolation contract of live sessions: a solve pins the snapshot
//! current when it starts, so a mutation applied *mid-flight* cannot change
//! its answer — while the very next request sees the new database version.

use query_refinement::core::paper_example::{paper_database, scholarship_query};
use query_refinement::core::prelude::*;
use query_refinement::datagen::Workload;
use query_refinement::milp::SolverOptions;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Observer that, on the first branch-and-bound node, hands control to the
/// test thread and blocks until it has applied a database mutation — a
/// deterministic way to interleave `apply` with a solve that is provably
/// mid-search.
struct PauseForMutation {
    reached_search: Sender<()>,
    mutation_done: Mutex<Receiver<()>>,
    fired: AtomicBool,
}

impl SolveObserver for PauseForMutation {
    fn node_processed(&self, _progress: &SolveProgress) {
        if !self.fired.swap(true, Ordering::SeqCst) {
            self.reached_search.send(()).expect("test thread alive");
            self.mutation_done
                .lock()
                .unwrap()
                .recv()
                .expect("mutation applied");
        }
    }
}

#[test]
fn mid_flight_mutation_does_not_change_a_pinned_solve() {
    // The fig3 astronaut workload: a real MILP search with enough nodes that
    // the observer reliably fires before the solve finishes.
    let w = Workload::astronauts(100, 20240317);
    let constraints = ConstraintSet::new().with(w.constraint_with_bound(1, 5, Some(2)));
    let session = RefinementSession::new(w.db.clone(), w.query.clone()).unwrap();
    let request = RefinementRequest::new()
        .with_constraints(constraints)
        .with_epsilon(0.5)
        .with_solver_options(SolverOptions {
            max_nodes: 1_000_000,
        })
        .with_time_limit(Duration::from_secs(120));

    // Deterministic reference answer against version 1.
    let pinned = session.snapshot();
    assert_eq!(pinned.version(), 1);
    let baseline = session.solve_on(&pinned, &request).unwrap();

    let (reached_tx, reached_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let observer = Arc::new(PauseForMutation {
        reached_search: reached_tx,
        mutation_done: Mutex::new(done_rx),
        fired: AtomicBool::new(false),
    });
    let observed_request = request.clone().with_observer(observer);

    let inflight = std::thread::scope(|scope| {
        let handle = scope.spawn(|| session.solve(&observed_request).unwrap());

        // Wait until the solver is provably mid-search, then delete a slice
        // of the astronauts out from under it.
        reached_rx.recv().expect("solver reaches the search");
        let victims: Vec<u64> =
            session.snapshot().db().get("Astronauts").unwrap().row_ids()[..10].to_vec();
        let version = session
            .apply(vec![Mutation::delete("Astronauts", victims)])
            .unwrap();
        assert_eq!(version, 2, "the mutation installed a new snapshot");
        done_tx.send(()).expect("observer is waiting");

        handle.join().expect("solve thread")
    });

    // The in-flight solve kept its pinned snapshot: its answer is
    // byte-identical to the pre-mutation baseline, mutation notwithstanding.
    assert_eq!(
        format!("{:?}", inflight.outcome),
        format!("{:?}", baseline.outcome),
        "mid-flight mutation leaked into a pinned solve"
    );

    // A fresh request sees the new version: fewer base rows, fewer annotated
    // tuples, and the session reports the delta repair.
    let fresh = session.snapshot();
    assert_eq!(fresh.version(), 2);
    assert_eq!(
        fresh.annotated().len() + 10,
        pinned.annotated().len(),
        "the single-table workload loses one annotated tuple per deleted row"
    );
    let stats = session.setup_stats();
    assert_eq!(stats.annotation_builds, 1, "repair, not rebuild");
    assert_eq!(stats.delta_annotations, 1);
    assert_eq!(stats.snapshot_version, 2);

    // And the post-mutation solve runs against the new snapshot end to end.
    let after = session.solve(&request).unwrap();
    assert!(!after.outcome.is_interrupted());
}

#[test]
fn clone_during_apply_pairs_a_snapshot_with_its_own_stats() {
    // `apply` holds the stats lock until its new snapshot is installed, so a
    // clone that reads the snapshot outside that lock can pair version v's
    // snapshot with version v + 1's stats. One thread applies one-row updates
    // back to back while this one clones.
    let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
    let snapshot = session.snapshot();
    let students = snapshot.db().get("Students").unwrap();
    let id = students.row_ids()[0];
    let row = students.row_by_id(id).unwrap().clone();
    let stop = AtomicBool::new(false);
    let mismatches = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                let update = Mutation::update("Students", vec![(id, row.clone())]);
                session.apply(vec![update]).unwrap();
            }
        });
        // Clone only once the writer is running.
        while session.version() < 3 && !writer.is_finished() {
            std::thread::yield_now();
        }
        let mismatches = (0..500)
            .map(|_| session.clone())
            .filter(|clone| clone.setup_stats().snapshot_version != clone.version())
            .count();
        stop.store(true, Ordering::SeqCst);
        writer.join().expect("writer thread");
        mismatches
    });
    assert_eq!(mismatches, 0, "clones mixed two versions");
}
