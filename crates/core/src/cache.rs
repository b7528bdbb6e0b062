//! Cross-request solution reuse: a bounded cache of optimal bases,
//! incumbents and proven outcomes, keyed by a canonical model signature.
//!
//! The refinement workload is a *session* workload: the same query and
//! constraint set are solved over and over at different deviation budgets ε
//! (sweeps, interactive tightening) against a slowly mutating database.
//! Consecutive models differ only in the budget row's right-hand side, so
//! the optimal basis of one solve is typically a handful of dual pivots from
//! the next — exactly the warm-start economics the branch-and-bound already
//! exploits *within* a solve, lifted across requests.
//!
//! [`SolutionCache`] holds up to `capacity` [slots](CacheKey), each carrying
//! up to three reusable artifacts from a finished solve:
//!
//! * the **optimal basis** ([`qr_milp::Basis`]) of the winning node — fed
//!   back through [`qr_milp::WarmStart`] to seed the root of a later solve
//!   of a *nearby* model (nearest cached ε of the same family and version),
//! * the **incumbent assignment** — revalidated from scratch by the solver
//!   before use, so a hint can never change an optimum, only speed up
//!   pruning,
//! * a **memoized terminal result** — returned outright on an exact key hit,
//!   skipping even the model build. Only *proven* outcomes are memoized
//!   (optimal refinements and proven infeasibility): they are deterministic
//!   properties of (snapshot, request), independent of solver limits.
//!
//! ## Invalidation
//!
//! Correctness never depends on eviction. The snapshot **version is part of
//! the key**: a solve against version `v` can only ever hit entries recorded
//! at version `v`, so an [`apply`](crate::session::RefinementSession::apply)
//! (which bumps the version) makes every older entry unreachable — the same
//! typed, never-a-wrong-answer discipline as
//! [`CoreError::StaleResume`](crate::error::CoreError::StaleResume) on the
//! resume path. Stale slots are reclaimed lazily: lookups and inserts drop
//! entries older than the version being served, and capacity eviction
//! prefers stale slots before falling back to least-recently-used.

use crate::session::{RefinementRequest, RefinementResult};
use crate::sync::lock_or_recover;
use qr_milp::{Basis, WarmStart};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Canonical signature of one cached solve: *which model family* (query
/// fixed by the session; constraints + distance measure + optimization
/// configuration hashed into [`Self::family`]), *which database*
/// ([`Self::version`]) and *which deviation budget* ([`Self::epsilon`]).
///
/// ε is kept out of the family hash deliberately: it is the axis along which
/// nearby solves share structure, so [`SolutionCache::lookup_warm`] treats
/// it as a distance, not an identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheKey {
    /// Hash of the request's constraint set, distance measure and
    /// optimization configuration. Solver options and control are excluded:
    /// memoized outcomes are proven-terminal (invariant to search limits),
    /// and bases/incumbents are hints the solver revalidates anyway.
    pub family: u64,
    /// Snapshot version the solve was pinned to (see
    /// [`crate::session::AnnotatedSnapshot::version`]).
    pub version: u64,
    /// Deviation budget ε of the solve. Exact hits compare bit patterns;
    /// warm lookups minimise `|ε − ε'|` within a family/version.
    pub epsilon: f64,
}

impl CacheKey {
    /// The signature of `request` against snapshot `version`.
    #[must_use]
    pub fn for_request(version: u64, request: &RefinementRequest) -> Self {
        let mut hasher = DefaultHasher::new();
        // The constraint set, distance measure and optimization config all
        // derive `Debug` with total value coverage; hashing the rendering
        // gives a canonical family id without imposing `Hash` on f64-bearing
        // types. Nothing compares the requests themselves: a hit needs only
        // an equal 64-bit family hash, version and ε. Two families whose
        // renderings collide in the hash would share memos (one would be
        // served the other's answer) and warm hints (which the solver
        // re-validates); for any two distinct families that happens with
        // probability about 2^-64.
        format!("{:?}", request.constraints).hash(&mut hasher);
        format!("{:?}", request.distance).hash(&mut hasher);
        format!("{:?}", request.optimizations).hash(&mut hasher);
        CacheKey {
            family: hasher.finish(),
            version,
            epsilon: request.epsilon,
        }
    }

    /// Whether two keys denote the *same* model (family, version and
    /// bit-identical ε) — the precondition for serving a memoized result.
    fn same_model(&self, other: &CacheKey) -> bool {
        self.family == other.family
            && self.version == other.version
            && self.epsilon.to_bits() == other.epsilon.to_bits()
    }

    /// Whether `other` is a warm-start candidate for this key: same family
    /// and version, any ε.
    fn same_family(&self, other: &CacheKey) -> bool {
        self.family == other.family && self.version == other.version
    }
}

/// One cached solve.
#[derive(Debug)]
struct Slot {
    key: CacheKey,
    warm: WarmStart,
    memo: Option<RefinementResult>,
    /// Logical timestamp of the last hit/insert (LRU ordering).
    last_used: u64,
}

#[derive(Debug, Default)]
struct Store {
    slots: Vec<Slot>,
    tick: u64,
}

impl Store {
    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        self.slots[idx].last_used = self.tick;
    }

    /// Lazily reclaim slots made unreachable by snapshot versioning:
    /// anything strictly older than the version being served can never be
    /// hit again by this or any later request. Newer versions are kept — a
    /// caller solving against an older pinned snapshot must not evict the
    /// entries of concurrent up-to-date solves.
    fn prune_older_than(&mut self, version: u64) {
        self.slots.retain(|s| s.key.version >= version);
    }
}

/// A bounded, thread-safe store of reusable solve artifacts for one
/// [`RefinementSession`](crate::session::RefinementSession). See the
/// [module docs](self) for semantics; constructed via
/// [`RefinementSession::with_solution_cache`](crate::session::RefinementSession::with_solution_cache).
#[derive(Debug)]
pub struct SolutionCache {
    store: Mutex<Store>,
    capacity: usize,
}

impl SolutionCache {
    /// An empty cache holding at most `capacity` entries (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SolutionCache {
            store: Mutex::new(Store::default()),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of entries the cache retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries (stale ones included until lazily pruned).
    #[must_use]
    pub fn len(&self) -> usize {
        lock_or_recover(&self.store).slots.len()
    }

    /// Whether the cache currently holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A memoized terminal result for *exactly* this key (family, version
    /// and bit-identical ε), if one was recorded. Serving it is equivalent
    /// to re-solving: only proven outcomes are ever memoized.
    #[must_use]
    pub fn lookup_exact(&self, key: &CacheKey) -> Option<RefinementResult> {
        let mut store = lock_or_recover(&self.store);
        store.prune_older_than(key.version);
        let idx = store
            .slots
            .iter()
            .position(|s| s.key.same_model(key) && s.memo.is_some())?;
        store.touch(idx);
        store.slots[idx].memo.clone()
    }

    /// The warm start (basis and/or incumbent) of the nearest solved ε in
    /// `key`'s family and version (including an exact-ε entry that carries a
    /// basis but no memo). `None` when nothing in the family has either.
    #[must_use]
    pub fn lookup_warm(&self, key: &CacheKey) -> Option<WarmStart> {
        let mut store = lock_or_recover(&self.store);
        store.prune_older_than(key.version);
        let mut best: Option<(usize, f64)> = None;
        for (i, slot) in store.slots.iter().enumerate() {
            if !key.same_family(&slot.key) || slot.warm.is_empty() {
                continue;
            }
            let gap = (slot.key.epsilon - key.epsilon).abs();
            if best.is_none_or(|(_, g)| gap < g) {
                best = Some((i, gap));
            }
        }
        let (idx, _) = best?;
        store.touch(idx);
        Some(store.slots[idx].warm.clone())
    }

    /// Record the artifacts of a finished solve. An existing slot for the
    /// same model is merged (newer non-empty artifacts win); otherwise a new
    /// slot is inserted, evicting — in order of preference — a slot stale
    /// relative to `key.version`, else the least-recently-used one.
    pub fn insert(
        &self,
        key: CacheKey,
        basis: Option<Arc<Basis>>,
        incumbent: Option<Vec<f64>>,
        memo: Option<RefinementResult>,
    ) {
        if basis.is_none() && incumbent.is_none() && memo.is_none() {
            return;
        }
        let mut store = lock_or_recover(&self.store);
        store.prune_older_than(key.version);
        if let Some(idx) = store.slots.iter().position(|s| s.key.same_model(&key)) {
            let slot = &mut store.slots[idx];
            if basis.is_some() {
                slot.warm.basis = basis;
            }
            if incumbent.is_some() {
                slot.warm.incumbent = incumbent;
            }
            if memo.is_some() {
                slot.memo = memo;
            }
            store.touch(idx);
            return;
        }
        if store.slots.len() >= self.capacity {
            // Stale-first eviction, LRU as the tie-break universe: a stale
            // slot can never be hit again once the session has moved on, so
            // it is always the cheapest seat to free.
            let evict = store
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| (s.key.version >= key.version, s.last_used))
                .map(|(i, _)| i);
            if let Some(i) = evict {
                store.slots.swap_remove(i);
            }
        }
        store.slots.push(Slot {
            key,
            warm: WarmStart { basis, incumbent },
            memo,
            last_used: 0,
        });
        let idx = store.slots.len() - 1;
        store.touch(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{RefinementOutcome, RefinementStats};

    fn key(family: u64, version: u64, epsilon: f64) -> CacheKey {
        CacheKey {
            family,
            version,
            epsilon,
        }
    }

    fn memo() -> RefinementResult {
        RefinementResult {
            outcome: RefinementOutcome::NoRefinement {
                proven_infeasible: true,
            },
            stats: RefinementStats::default(),
            resume: None,
        }
    }

    #[test]
    fn exact_hit_requires_family_version_and_bitwise_epsilon() {
        let cache = SolutionCache::new(4);
        cache.insert(key(1, 1, 0.25), None, None, Some(memo()));
        assert!(cache.lookup_exact(&key(1, 1, 0.25)).is_some());
        assert!(cache.lookup_exact(&key(2, 1, 0.25)).is_none(), "family");
        assert!(cache.lookup_exact(&key(1, 2, 0.25)).is_none(), "version");
        assert!(cache.lookup_exact(&key(1, 1, 0.26)).is_none(), "epsilon");
    }

    #[test]
    fn warm_lookup_picks_the_nearest_epsilon_in_family() {
        let cache = SolutionCache::new(8);
        for eps in [0.1, 0.4, 0.9] {
            cache.insert(key(7, 3, eps), None, Some(vec![eps]), None);
        }
        // A different family must never donate.
        cache.insert(key(8, 3, 0.3), None, Some(vec![-1.0]), None);
        // Each entry's incumbent is its own ε, so the payload names the
        // donor.
        let hit = cache.lookup_warm(&key(7, 3, 0.35)).expect("a donor");
        assert_eq!(hit.incumbent, Some(vec![0.4]));
        assert!(cache.lookup_warm(&key(9, 3, 0.35)).is_none());
    }

    #[test]
    fn entries_older_than_the_served_version_are_pruned_lazily() {
        let cache = SolutionCache::new(8);
        cache.insert(key(1, 1, 0.5), None, Some(vec![1.0]), Some(memo()));
        assert_eq!(cache.len(), 1);
        // Serving version 2 makes the version-1 entry unreachable and
        // reclaims it; it can never satisfy a lookup again.
        assert!(cache.lookup_exact(&key(1, 2, 0.5)).is_none());
        assert!(cache.lookup_warm(&key(1, 2, 0.5)).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_eviction_prefers_stale_then_lru() {
        let cache = SolutionCache::new(2);
        cache.insert(key(1, 1, 0.1), None, Some(vec![0.1]), None);
        cache.insert(key(1, 2, 0.2), None, Some(vec![0.2]), None);
        // Full. Inserting at version 2 must evict the stale version-1 slot,
        // not the version-2 one.
        cache.insert(key(1, 2, 0.3), None, Some(vec![0.3]), None);
        assert!(cache.lookup_warm(&key(1, 2, 0.21)).is_some());
        // Both remaining entries are current; touching ε=0.2 makes ε=0.3
        // the LRU victim of the next insert.
        let hit = cache.lookup_warm(&key(1, 2, 0.2)).expect("donor");
        assert_eq!(hit.incumbent, Some(vec![0.2]));
        cache.insert(key(1, 2, 0.4), None, Some(vec![0.4]), None);
        let survivors: Vec<f64> = [0.2, 0.3, 0.4]
            .into_iter()
            .filter(|&e| {
                cache
                    .lookup_warm(&key(1, 2, e))
                    .is_some_and(|h| h.incumbent == Some(vec![e]))
            })
            .collect();
        assert_eq!(survivors, vec![0.2, 0.4]);
    }

    #[test]
    fn insert_merges_artifacts_for_the_same_model() {
        let cache = SolutionCache::new(2);
        cache.insert(key(1, 1, 0.5), None, Some(vec![1.0]), None);
        cache.insert(key(1, 1, 0.5), None, None, Some(memo()));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup_exact(&key(1, 1, 0.5)).is_some());
        let hit = cache.lookup_warm(&key(1, 1, 0.5)).expect("incumbent kept");
        assert_eq!(hit.incumbent, Some(vec![1.0]));
    }

    #[test]
    fn empty_inserts_are_dropped() {
        let cache = SolutionCache::new(2);
        cache.insert(key(1, 1, 0.5), None, None, None);
        assert!(cache.is_empty());
    }
}
