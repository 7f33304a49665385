//! The orchestration pipeline: fingerprint-group, consult the cache,
//! execute one representative per structure, replicate.
//!
//! Deduplication is sound because fingerprints cover everything the
//! solver sees (see the crate-level canonicalization rules): two checks
//! with equal fingerprints produce bit-identical SMT queries, so one
//! verdict — pass, or fail with a concrete counterexample over the
//! shared attribute universe — is the verdict of all of them.
//!
//! [`run_grouped`] adds a second axis: fingerprint-*distinct* jobs that
//! share an **encoding base** (same router/edge transfer function, same
//! universe — only the assumed/ensured predicates differ) carry an
//! encoding-base key, and the executor hands whole base-groups to
//! workers so the caller can solve each group on one persistent,
//! assumption-based SMT session. The cache still operates per job: every
//! member of a group gets its own fingerprint-keyed entry, and cached
//! answers are re-validated by the caller-supplied `validate` hook
//! before being trusted (stale failures are re-solved, not replayed).

use crate::cache::ResultCache;
use crate::executor::Executor;
use crate::fingerprint::Fingerprint;
use std::collections::HashMap;

/// How to run a batch.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Worker threads (`None`: available parallelism).
    pub jobs: Option<usize>,
    /// Collapse structurally identical jobs to one execution.
    pub dedup: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            jobs: None,
            dedup: true,
        }
    }
}

/// What a batch run did, for dedup-stats reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Jobs submitted (checks generated).
    pub generated: usize,
    /// Distinct structures among them.
    pub unique: usize,
    /// Jobs answered by another job in the same batch.
    pub dedup_hits: usize,
    /// Jobs answered by the cross-run cache.
    pub cache_hits: usize,
    /// Jobs actually executed (solver invocations).
    pub executed: usize,
    /// Cached answers rejected by re-validation (then re-executed).
    pub invalidated: usize,
    /// Encoding-base groups the executed jobs were batched into.
    pub groups: usize,
    /// Executed jobs answered on an already-warm session (assumption
    /// solves after a group's first); `executed - groups` by
    /// construction.
    pub assumption_solves: usize,
    /// Successful steals inside the executor.
    pub steals: u64,
    /// Worker threads used.
    pub threads: usize,
}

impl RunStats {
    /// Executed jobs per generated job; 1.0 means no savings.
    pub fn dedup_ratio(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.executed as f64 / self.generated as f64
        }
    }

    /// The canonical one-line human rendering of a batch (shared by the
    /// CLI and report summaries so the format cannot drift).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "orchestrator: {} checks -> {} solver calls ({} deduped, {} cached, ratio {:.2}, {} threads)",
            self.generated,
            self.executed,
            self.dedup_hits,
            self.cache_hits,
            self.dedup_ratio(),
            self.threads,
        );
        if self.groups > 0 {
            s.push_str(&format!(
                "; incremental: {} groups, {} warm assumption solves",
                self.groups, self.assumption_solves,
            ));
        }
        if self.invalidated > 0 {
            s.push_str(&format!(
                ", {} stale cache entries re-proved",
                self.invalidated
            ));
        }
        s
    }

    /// Fold another batch into this one (thread counts take the max).
    pub fn merge(&mut self, other: &RunStats) {
        self.generated += other.generated;
        self.unique += other.unique;
        self.dedup_hits += other.dedup_hits;
        self.cache_hits += other.cache_hits;
        self.executed += other.executed;
        self.invalidated += other.invalidated;
        self.groups += other.groups;
        self.assumption_solves += other.assumption_solves;
        self.steals += other.steals;
        self.threads = self.threads.max(other.threads);
    }
}

/// Results of a deduplicated batch run.
pub struct Batch<V> {
    /// Per-item results, in submission order.
    pub results: Vec<V>,
    /// Per-item: true iff this item was the representative whose job
    /// actually executed; false for dedup replicas and cache answers.
    /// Lets callers attribute real work (e.g. solver time) exactly once.
    pub fresh: Vec<bool>,
    /// Batch statistics.
    pub stats: RunStats,
}

/// Run `f` once per distinct fingerprint (modulo cache hits) and return
/// per-item results in submission order plus the batch statistics.
///
/// Thin wrapper over [`run_grouped`] where every item is its own
/// encoding-base group and cached results are trusted unconditionally.
pub fn run_deduped<T, V, F>(
    cfg: RunConfig,
    cache: Option<&ResultCache<V>>,
    items: &[(Fingerprint, T)],
    f: F,
) -> Batch<V>
where
    T: Sync,
    V: Clone + Send + Sync,
    F: Fn(&T) -> V + Sync,
{
    let keyed: Vec<(Fingerprint, u64, &T)> = items
        .iter()
        .enumerate()
        .map(|(i, (fp, t))| (*fp, i as u64, t))
        .collect();
    let mut batch = run_grouped(
        cfg,
        cache,
        &keyed,
        |_, _| true,
        |group| group.iter().map(|t| f(t)).collect(),
    );
    debug_assert!(batch.stats.assumption_solves == 0);
    // Singleton groups are an artifact of the wrapper, not a caller
    // decision: do not report them as incremental batching.
    batch.stats.groups = 0;
    batch.stats.assumption_solves = 0;
    batch
}

/// The grouped pipeline: fingerprint-dedup, cache consult (with
/// re-validation), then execute the remaining representatives in
/// encoding-base groups on the work-stealing pool.
///
/// * `items` — `(fingerprint, encoding-base key, payload)` per job. Jobs
///   with equal fingerprints are structurally identical (one is solved,
///   the verdict replicated); jobs with equal base keys share enough
///   encoding that the caller wants them solved together on one
///   persistent session.
/// * `validate` — called on every cache hit with the job and the cached
///   value; returning `false` rejects the entry (it is removed and the
///   job re-executed). Lets callers spill failure results whose
///   counterexamples must be re-checked against live configurations.
///   Hits are validated concurrently on the same work-stealing pool
///   that executes jobs, so expensive re-validation (a pinned solve per
///   spilled failure) does not serialize the dispatch path.
/// * `solve_group` — receives the group's payloads in submission order
///   and must return one result per payload, in order.
pub fn run_grouped<T, V, F, P>(
    cfg: RunConfig,
    cache: Option<&ResultCache<V>>,
    items: &[(Fingerprint, u64, T)],
    validate: P,
    solve_group: F,
) -> Batch<V>
where
    T: Sync,
    V: Clone + Send + Sync,
    P: Fn(&T, &V) -> bool + Sync,
    F: Fn(&[&T]) -> Vec<V> + Sync,
{
    let executor = Executor::with_threads(cfg.jobs);
    let mut stats = RunStats {
        generated: items.len(),
        threads: executor.threads(),
        ..RunStats::default()
    };

    // Group item indices by fingerprint, first occurrence first.
    let mut struct_of: HashMap<u128, usize> = HashMap::new();
    let mut structures: Vec<(Fingerprint, Vec<usize>)> = Vec::new();
    for (i, (fp, _, _)) in items.iter().enumerate() {
        if cfg.dedup {
            match struct_of.entry(fp.0) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    structures[*e.get()].1.push(i);
                    continue;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(structures.len());
                }
            }
        }
        structures.push((*fp, vec![i]));
    }
    stats.unique = structures.len();
    stats.dedup_hits = stats.generated - stats.unique;

    // Answer structures from the cache where possible. Hits are
    // validated on the work-stealing pool — re-validating a spilled
    // failure costs a pinned encode+solve, so a warm run over a
    // heavily-broken network would otherwise serialize those solves on
    // the dispatching thread. Validation failures drop the entry and
    // fall through to execution.
    let mut struct_results: Vec<Option<V>> = (0..structures.len()).map(|_| None).collect();
    let hits: Vec<(usize, V)> = structures
        .iter()
        .enumerate()
        .filter_map(|(si, (fp, _))| cache.and_then(|c| c.get(*fp)).map(|v| (si, v)))
        .collect();
    let (verdicts, _) = executor.run(&hits, |(si, v): &(usize, V)| {
        validate(&items[structures[*si].1[0]].2, v)
    });
    for ((si, v), ok) in hits.into_iter().zip(verdicts) {
        let (fp, members) = &structures[si];
        if ok {
            stats.cache_hits += members.len();
            struct_results[si] = Some(v);
        } else {
            stats.invalidated += members.len();
            if let Some(c) = cache {
                c.remove(*fp);
            }
        }
    }
    let to_run: Vec<(usize, Fingerprint, usize)> = structures
        .iter()
        .enumerate()
        .filter(|(si, _)| struct_results[*si].is_none())
        .map(|(si, (fp, members))| (si, *fp, members[0]))
        .collect();
    stats.executed = to_run.len();

    // Batch the representatives into encoding-base groups, preserving
    // submission order within each group.
    let mut exec_of: HashMap<u64, usize> = HashMap::new();
    let mut exec_groups: Vec<Vec<usize>> = Vec::new(); // indices into to_run
    for (ri, &(_, _, rep)) in to_run.iter().enumerate() {
        let key = items[rep].1;
        match exec_of.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => exec_groups[*e.get()].push(ri),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(exec_groups.len());
                exec_groups.push(vec![ri]);
            }
        }
    }
    stats.groups = exec_groups.len();
    stats.assumption_solves = stats.executed.saturating_sub(stats.groups);

    // Execute whole groups on the pool, stealing as needed.
    let (solved_groups, steals) = executor.run(&exec_groups, |runs: &Vec<usize>| {
        let payloads: Vec<&T> = runs.iter().map(|&ri| &items[to_run[ri].2].2).collect();
        let out = solve_group(&payloads);
        assert_eq!(
            out.len(),
            payloads.len(),
            "solve_group must return one result per payload"
        );
        out
    });
    stats.steals = steals;

    let mut fresh = vec![false; items.len()];
    for (runs, values) in exec_groups.into_iter().zip(solved_groups) {
        for (ri, v) in runs.into_iter().zip(values) {
            let (si, fp, rep) = to_run[ri];
            if let Some(c) = cache {
                c.insert(fp, v.clone());
            }
            fresh[rep] = true;
            struct_results[si] = Some(v);
        }
    }

    // Replicate structure results to every member, in submission order.
    let mut out: Vec<Option<V>> = (0..items.len()).map(|_| None).collect();
    for ((_, members), res) in structures.into_iter().zip(struct_results) {
        let res = res.expect("every structure resolved by cache or execution");
        let (last, rest) = members.split_last().expect("structures are non-empty");
        for i in rest {
            out[*i] = Some(res.clone());
        }
        out[*last] = Some(res);
    }
    if obs::enabled() {
        obs::add("orchestrator.generated", stats.generated as u64);
        obs::add("orchestrator.dedup_hits", stats.dedup_hits as u64);
        obs::add("orchestrator.cache_hits", stats.cache_hits as u64);
        obs::add("orchestrator.invalidated", stats.invalidated as u64);
        obs::add("orchestrator.executed", stats.executed as u64);
        obs::add("orchestrator.groups", stats.groups as u64);
        obs::add("orchestrator.steals", stats.steals);
    }
    Batch {
        results: out.into_iter().map(Option::unwrap).collect(),
        fresh,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FpHasher;
    use std::hash::Hasher;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fp(n: u32) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_u32(n);
        h.finish()
    }

    #[test]
    fn dedup_executes_one_per_structure() {
        let calls = AtomicUsize::new(0);
        // 9 items over 3 structures.
        let items: Vec<(Fingerprint, u32)> = (0..9).map(|i| (fp(i % 3), i % 3)).collect();
        let batch = run_deduped(RunConfig::default(), None, &items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x * 10
        });
        let (out, stats) = (batch.results, batch.stats);
        // Exactly one member per structure is fresh: the representative.
        assert_eq!(batch.fresh.iter().filter(|&&f| f).count(), 3);
        assert!(batch.fresh[0] && batch.fresh[1] && batch.fresh[2]);
        assert_eq!(out, vec![0, 10, 20, 0, 10, 20, 0, 10, 20]);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(stats.generated, 9);
        assert_eq!(stats.unique, 3);
        assert_eq!(stats.dedup_hits, 6);
        assert_eq!(stats.executed, 3);
        assert!(stats.dedup_ratio() < 1.0);
    }

    #[test]
    fn no_dedup_executes_everything() {
        let calls = AtomicUsize::new(0);
        let items: Vec<(Fingerprint, u32)> = (0..6).map(|i| (fp(i % 2), i)).collect();
        let cfg = RunConfig {
            jobs: Some(2),
            dedup: false,
        };
        let batch = run_deduped(cfg, None, &items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        let (out, stats) = (batch.results, batch.stats);
        assert!(batch.fresh.iter().all(|&f| f), "no dedup: every item fresh");
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        assert_eq!(stats.dedup_hits, 0);
        assert_eq!(stats.executed, 6);
    }

    #[test]
    fn grouped_execution_batches_by_base_key() {
        // 6 distinct structures over 2 base keys: each key's group is
        // solved by one call receiving all its members.
        let group_calls = AtomicUsize::new(0);
        let items: Vec<(Fingerprint, u64, u32)> =
            (0..6).map(|i| (fp(i), (i % 2) as u64, i)).collect();
        let batch = run_grouped(
            RunConfig::default(),
            None,
            &items,
            |_, _| true,
            |group| {
                group_calls.fetch_add(1, Ordering::Relaxed);
                group.iter().map(|&&x| x * 10).collect()
            },
        );
        assert_eq!(batch.results, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(group_calls.load(Ordering::Relaxed), 2);
        assert_eq!(batch.stats.groups, 2);
        assert_eq!(batch.stats.executed, 6);
        assert_eq!(batch.stats.assumption_solves, 4);
        assert!(batch.fresh.iter().all(|&f| f));
    }

    #[test]
    fn grouped_dedup_and_cache_cooperate() {
        let cache: ResultCache<u32> = ResultCache::new();
        cache.insert(fp(0), 100);
        // Items: fp0 twice (cached), fp1 twice (dedup), fp2 once; all in
        // one base group.
        let items: Vec<(Fingerprint, u64, u32)> = vec![
            (fp(0), 7, 0),
            (fp(1), 7, 1),
            (fp(0), 7, 0),
            (fp(1), 7, 1),
            (fp(2), 7, 2),
        ];
        let batch = run_grouped(
            RunConfig::default(),
            Some(&cache),
            &items,
            |_, _| true,
            |group| group.iter().map(|&&x| x + 10).collect(),
        );
        assert_eq!(batch.results, vec![100, 11, 100, 11, 12]);
        assert_eq!(batch.stats.cache_hits, 2);
        assert_eq!(batch.stats.dedup_hits, 2);
        assert_eq!(batch.stats.executed, 2);
        assert_eq!(batch.stats.groups, 1);
    }

    #[test]
    fn stale_cache_entries_are_revalidated_and_reexecuted() {
        let cache: ResultCache<u32> = ResultCache::new();
        cache.insert(fp(1), 999); // stale: validator rejects odd payloads' 999
        let items: Vec<(Fingerprint, u64, u32)> = vec![(fp(1), 0, 1), (fp(2), 0, 2)];
        let batch = run_grouped(
            RunConfig::default(),
            Some(&cache),
            &items,
            |_, v| *v != 999,
            |group| group.iter().map(|&&x| x + 10).collect(),
        );
        assert_eq!(batch.results, vec![11, 12]);
        assert_eq!(batch.stats.invalidated, 1);
        assert_eq!(batch.stats.cache_hits, 0);
        assert_eq!(batch.stats.executed, 2);
        // The stale entry was replaced by the fresh verdict.
        assert_eq!(cache.peek(fp(1)), Some(11));
    }

    #[test]
    fn revalidation_runs_concurrently_on_the_pool() {
        // Many cached entries with a validator that records its calling
        // threads: with several workers, validation must not all happen
        // on the dispatching thread.
        use std::sync::Mutex;
        let cache: ResultCache<u32> = ResultCache::new();
        let n = 64u32;
        for i in 0..n {
            cache.insert(fp(i), i);
        }
        let threads: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(std::collections::HashSet::new());
        let items: Vec<(Fingerprint, u64, u32)> = (0..n).map(|i| (fp(i), i as u64, i)).collect();
        let cfg = RunConfig {
            jobs: Some(4),
            dedup: true,
        };
        let batch = run_grouped(
            cfg,
            Some(&cache),
            &items,
            |_, _| {
                threads.lock().unwrap().insert(std::thread::current().id());
                // Simulate pinned-solve cost so workers overlap.
                std::thread::sleep(std::time::Duration::from_micros(300));
                true
            },
            |group| group.iter().map(|&&x| x).collect(),
        );
        assert_eq!(batch.stats.cache_hits as u32, n);
        assert_eq!(batch.stats.executed, 0);
        assert!(
            threads.lock().unwrap().len() > 1,
            "validation must fan out over the pool"
        );
    }

    #[test]
    fn warm_cache_answers_without_executing() {
        let cache: ResultCache<u32> = ResultCache::new();
        let items: Vec<(Fingerprint, u32)> = vec![(fp(1), 1), (fp(2), 2), (fp(1), 1)];
        let b1 = run_deduped(RunConfig::default(), Some(&cache), &items, |&x| x + 100);
        let (out1, s1) = (b1.results, b1.stats);
        assert_eq!(out1, vec![101, 102, 101]);
        assert_eq!(s1.executed, 2);
        assert_eq!(s1.cache_hits, 0);

        let calls = AtomicUsize::new(0);
        let b2 = run_deduped(RunConfig::default(), Some(&cache), &items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + 100
        });
        let (out2, s2) = (b2.results, b2.stats);
        assert!(b2.fresh.iter().all(|&f| !f), "warm run: nothing fresh");
        assert_eq!(out2, out1);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "warm run must not execute"
        );
        assert_eq!(s2.cache_hits, 3);
        assert_eq!(s2.executed, 0);
    }
}
