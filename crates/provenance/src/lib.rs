//! # qr-provenance
//!
//! Provenance (lineage) substrate for query refinement.
//!
//! The MILP construction of the paper (Section 3.1) never re-evaluates
//! candidate refinements on the DBMS. Instead it annotates every tuple of the
//! *relaxed* query `~Q(D)` (the query with all selection predicates and
//! `DISTINCT` removed) with its **lineage**: the set of predicate/value
//! combinations that would have to be selected by a refinement for the tuple
//! to appear in its output. This crate computes and stores those annotations:
//!
//! * [`lineage`] — lineage atoms (`Activity = 'SO'`, `GPA >= 3.7`, ...) and
//!   lineage sets,
//! * [`annotate`] — the annotated relation: ranked tuples of `~Q(D)` with
//!   lineage, DISTINCT duplicate sets `S(t)`, and lineage equivalence
//!   classes (used by the optimizations of Section 4),
//! * [`whatif`] — provenance-based what-if evaluation: re-evaluate any
//!   concrete refinement directly over the annotations, without a DBMS
//!   round-trip (used by the `Naive+prov` baseline and to verify MILP
//!   outputs).
//!
//! ## Incremental delta annotation
//!
//! Annotations are expensive to build — a full ranked join of the database —
//! but most database mutations invalidate only a small part of them.
//! [`AnnotatedRelation::apply_delta`] repairs an existing annotation from a
//! typed [`DatabaseDelta`](qr_relation::DatabaseDelta) (produced by the
//! tuple-level mutation API on [`Database`](qr_relation::Database)) instead
//! of rebuilding:
//!
//! 1. **Drop** every tuple of `~Q(D)` whose source trace (the stable
//!    [`RowId`](qr_relation::RowId)s it joins, recorded at annotation time)
//!    contains a removed or changed base row. Surviving tuples are carried
//!    over by reference — their row payload and lineage are behind `Arc`s.
//! 2. **Join** only the delta-relevant slice of the database: for each query
//!    table `Tᵢ` with added/changed rows `Δᵢ`, one filtered traced join
//!    `T₁^{old} ⋈ … ⋈ Δᵢ ⋈ … ⋈ T_k^{all}` (earlier tables restricted to
//!    their *old* rows so the union over `i` counts no tuple twice), and
//!    annotate the resulting fresh tuples.
//! 3. **Merge** survivors and fresh tuples by ranking order. Row ids grow
//!    monotonically in storage order, so comparing (order-by value, source
//!    ids) reproduces exactly the join-order tie-breaking of a full
//!    evaluation.
//! 4. **Repair** ranks, `S(t)` duplicate sets, lineage equivalence classes
//!    (survivors reuse their old class assignment; only fresh lineages are
//!    hashed) and the cached `categorical_domain`/`numeric_domain`/`min_gap`
//!    answers, which are multiplicity-counted maps updated per dropped/added
//!    tuple.
//!
//! The result is guaranteed — and property-tested — to be structurally
//! identical to a fresh [`AnnotatedRelation::build`] against the mutated
//! database. When a delta touches more than
//! [`DEFAULT_REBUILD_FRACTION`] of the
//! base rows, `apply_delta` falls back to a full rebuild, which is faster at
//! that point (threshold measured by the `ablation` figure of `qr-bench`'s
//! `experiments` binary).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod annotate;
pub mod lineage;
pub mod whatif;

pub use annotate::{
    AnnotatedRelation, AnnotatedTuple, DeltaAnnotation, LineageClass, DEFAULT_REBUILD_FRACTION,
};
pub use lineage::{Lineage, LineageAtom};
pub use whatif::{PredicateAssignment, RankedOutput};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::annotate::{
        AnnotatedRelation, AnnotatedTuple, DeltaAnnotation, LineageClass, DEFAULT_REBUILD_FRACTION,
    };
    pub use crate::lineage::{Lineage, LineageAtom};
    pub use crate::whatif::{PredicateAssignment, RankedOutput};
}
