//! The serving layer: a persistent query engine over the selection
//! algorithms.
//!
//! The paper's algorithms (Sections III–VII) are pure pruning logic; this
//! module supplies the serving-loop machinery a production deployment
//! needs around them:
//!
//! * **[`QueryEngine`]** — owns the index plus reusable per-worker
//!   [`Scratch`] state, so steady-state queries allocate nothing on the
//!   hot path (iNRA/SF/Hybrid are fully allocation-free on a warm
//!   scratch).
//! * **[`SearchRequest`]** — the one public entry point: a builder pairing
//!   a prepared query with a threshold, an [`AlgorithmKind`], an
//!   [`AlgoConfig`] ablation toggle, and a [`Budget`].
//! * **Work-stealing batches** — [`QueryEngine::search_batch`] drains a
//!   request slice through a shared atomic cursor, so one expensive query
//!   never idles a worker's whole chunk (unlike the static chunking of
//!   [`crate::algorithms::parallel`]).
//! * **[`EngineMetrics`]** — latency histograms (p50/p95/p99) and
//!   aggregated pruning power, printed by `setsim-cli bench`.
//!
//! Errors are typed ([`SearchError`]) instead of the legacy panicking
//! `tau` contract, and budget-exceeded queries return an exact-but-partial
//! [`SearchOutcome`] tagged [`SearchStatus::BudgetExceeded`].

mod budget;
mod metrics;
mod paged;
mod scratch;

pub(crate) use budget::ArmedBudget;
pub use budget::Budget;
pub use metrics::{EngineMetrics, MetricsSnapshot};
pub use paged::{PagedEngine, PagedSearchError};
pub use scratch::Scratch;
pub(crate) use scratch::{CandCell, PoolCand, SfCand};

use crate::algorithms::{
    FullScan, HybridAlgorithm, INraAlgorithm, ITaAlgorithm, NraAlgorithm, SelectionAlgorithm,
    SfAlgorithm, SortByIdMerge, TaAlgorithm, MAX_QUERY_LISTS,
};
use crate::index::ListStructures;
use crate::{
    AlgoConfig, InvertedIndex, Match, PreparedQuery, SearchOutcome, SearchStats, SearchStatus, Tau,
};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Everything a selection algorithm needs for one query: the index, the
/// prepared query and threshold, the armed [`Budget`], and the borrowed
/// [`Scratch`]. Constructed by the engine (or by the legacy allocating
/// [`SelectionAlgorithm::search`] wrapper); algorithm implementations
/// receive it in [`SelectionAlgorithm::search_with`].
pub struct SearchCtx<'a, 'i> {
    pub(crate) index: &'a InvertedIndex<'i>,
    pub(crate) query: &'a PreparedQuery,
    pub(crate) tau: f64,
    pub(crate) budget: ArmedBudget,
    pub(crate) scratch: &'a mut Scratch,
}

impl<'a, 'i> SearchCtx<'a, 'i> {
    pub(crate) fn new(
        index: &'a InvertedIndex<'i>,
        query: &'a PreparedQuery,
        tau: f64,
        budget: ArmedBudget,
        scratch: &'a mut Scratch,
    ) -> Self {
        scratch.begin();
        Self {
            index,
            query,
            tau,
            budget,
            scratch,
        }
    }

    /// The index being searched.
    #[must_use]
    pub fn index(&self) -> &'a InvertedIndex<'i> {
        self.index
    }

    /// The prepared query.
    #[must_use]
    pub fn query(&self) -> &'a PreparedQuery {
        self.query
    }

    /// The selection threshold (validated to lie in `(0, 1]`).
    #[must_use]
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Mutable access counters (external algorithm implementations).
    pub fn stats_mut(&mut self) -> &mut SearchStats {
        &mut self.scratch.stats
    }

    /// Emit a qualifying match (external algorithm implementations).
    pub fn emit(&mut self, m: Match) {
        self.scratch.results.push(m);
    }

    /// Check the budget; on exhaustion, tag the outcome
    /// [`SearchStatus::BudgetExceeded`] and return `true` (the
    /// implementation must then stop reading and return, keeping only
    /// fully-scored matches emitted so far).
    pub fn budget_exhausted(&mut self) -> bool {
        if self.budget.exceeded(&self.scratch.stats) {
            self.scratch.status = SearchStatus::BudgetExceeded;
            true
        } else {
            false
        }
    }
}

/// The eight selection strategies, as data. The engine dispatches on this
/// (plus an [`AlgoConfig`]) instead of callers juggling algorithm structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AlgorithmKind {
    /// Exhaustive base-table scan (the correctness oracle).
    Scan,
    /// Sort-by-id multiway merge (Section III-B baseline).
    Merge,
    /// Classic Threshold Algorithm.
    Ta,
    /// Classic No-Random-Access algorithm (Algorithm 1).
    Nra,
    /// Improved TA (Section V).
    ITa,
    /// Improved NRA (Algorithm 2).
    INra,
    /// Shortest-First (Algorithm 3) — the default.
    Sf,
    /// Hybrid (Algorithm 4).
    Hybrid,
}

impl AlgorithmKind {
    /// Every kind, index-list algorithms ordered as in the paper.
    pub const ALL: [AlgorithmKind; 8] = [
        AlgorithmKind::Scan,
        AlgorithmKind::Merge,
        AlgorithmKind::Ta,
        AlgorithmKind::Nra,
        AlgorithmKind::ITa,
        AlgorithmKind::INra,
        AlgorithmKind::Sf,
        AlgorithmKind::Hybrid,
    ];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Scan => "scan",
            AlgorithmKind::Merge => "sort-by-id",
            AlgorithmKind::Ta => "TA",
            AlgorithmKind::Nra => "NRA",
            AlgorithmKind::ITa => "iTA",
            AlgorithmKind::INra => "iNRA",
            AlgorithmKind::Sf => "SF",
            AlgorithmKind::Hybrid => "Hybrid",
        }
    }

    /// Parse a user-facing name (CLI flags). Case-insensitive; accepts
    /// both the paper names and the CLI short forms (`merge` for the
    /// sort-by-id baseline).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scan" | "fullscan" => Some(AlgorithmKind::Scan),
            "merge" | "sort-by-id" => Some(AlgorithmKind::Merge),
            "ta" => Some(AlgorithmKind::Ta),
            "nra" => Some(AlgorithmKind::Nra),
            "ita" => Some(AlgorithmKind::ITa),
            "inra" => Some(AlgorithmKind::INra),
            "sf" => Some(AlgorithmKind::Sf),
            "hybrid" => Some(AlgorithmKind::Hybrid),
            _ => None,
        }
    }

    /// The list structures this algorithm reads beyond the
    /// `(len, id)`-sorted run and its skip layer, which every list
    /// algorithm's sorted access uses. The declaration follows each
    /// algorithm's access pattern in the paper:
    ///
    /// * TA and iTA (Sections IV and V) complete every newly seen set's
    ///   score with random-access probes into the other lists —
    ///   [`ListStructures::random_access`].
    /// * The sort-by-id multiway merge (Section III-B) walks the lists in
    ///   ascending id order — [`ListStructures::id_order`].
    /// * NRA (Algorithm 1), iNRA (Algorithm 2), SF (Algorithm 3), and
    ///   Hybrid (Algorithm 4) read the lists by sorted access only, inside
    ///   the Theorem 1 length window; the full scan reads the base table
    ///   and no list at all — [`ListStructures::SORTED`].
    ///
    /// The paged engine assembles each query's lists with exactly these
    /// structures.
    #[must_use]
    pub(crate) fn list_structures(self) -> ListStructures {
        match self {
            AlgorithmKind::Ta | AlgorithmKind::ITa => ListStructures {
                random_access: true,
                id_order: false,
            },
            AlgorithmKind::Merge => ListStructures {
                random_access: false,
                id_order: true,
            },
            AlgorithmKind::Scan
            | AlgorithmKind::Nra
            | AlgorithmKind::INra
            | AlgorithmKind::Sf
            | AlgorithmKind::Hybrid => ListStructures::SORTED,
        }
    }

    /// True for kinds whose bookkeeping uses per-list bitsets and is
    /// therefore capped at [`MAX_QUERY_LISTS`] query lists.
    #[must_use]
    pub fn width_limited(self) -> bool {
        matches!(
            self,
            AlgorithmKind::Nra | AlgorithmKind::INra | AlgorithmKind::Hybrid
        )
    }
}

/// Why a request was rejected before any search work ran.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SearchError {
    /// The threshold is outside `(0, 1]` (or not finite). The IDF score is
    /// normalized to `[0, 1]`, so such a threshold is meaningless.
    InvalidTau(f64),
    /// The query has more lists than the requested algorithm's candidate
    /// bitsets support.
    QueryTooWide {
        /// Lists in the prepared query.
        lists: usize,
        /// The supported maximum ([`MAX_QUERY_LISTS`]).
        max: usize,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::InvalidTau(tau) => {
                write!(f, "threshold must lie in (0, 1], got {tau}")
            }
            SearchError::QueryTooWide { lists, max } => {
                write!(f, "query has {lists} lists; maximum supported is {max}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// One selection query, fully specified: the single public entry point of
/// the serving layer. Build with [`SearchRequest::new`] plus the setters;
/// the struct is `#[non_exhaustive]` so future knobs are non-breaking.
#[derive(Clone, Copy)]
#[non_exhaustive]
pub struct SearchRequest<'q> {
    /// The prepared query.
    pub query: &'q PreparedQuery,
    /// Selection threshold in `(0, 1]` (validated at execution).
    pub tau: f64,
    /// Which algorithm runs the selection.
    pub algorithm: AlgorithmKind,
    /// Property-ablation toggles for the algorithms that take them.
    pub config: AlgoConfig,
    /// Per-query work limit.
    pub budget: Budget,
}

impl<'q> SearchRequest<'q> {
    /// A request with the defaults: `τ = 0.7`, SF (the paper's
    /// best-overall algorithm), full property config, no budget.
    #[must_use]
    pub fn new(query: &'q PreparedQuery) -> Self {
        Self {
            query,
            tau: 0.7,
            algorithm: AlgorithmKind::Sf,
            config: AlgoConfig::full(),
            budget: Budget::unlimited(),
        }
    }

    /// Set the selection threshold.
    #[must_use]
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Set the algorithm.
    #[must_use]
    pub fn algorithm(mut self, kind: AlgorithmKind) -> Self {
        self.algorithm = kind;
        self
    }

    /// Set the property-ablation config.
    #[must_use]
    pub fn config(mut self, config: AlgoConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the per-query budget.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Borrowed view of a finished query's results, valid until the scratch's
/// next search. The zero-allocation read path: nothing is copied out.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct SearchView<'s> {
    /// All sets with score ≥ τ (order unspecified).
    pub results: &'s [Match],
    /// Access counters for this query.
    pub stats: &'s SearchStats,
    /// Whether the query ran to completion.
    pub status: SearchStatus,
}

/// Validate and run one request against caller-provided scratch, leaving
/// results, stats, and status readable through the scratch accessors.
/// The allocation-free core every engine entry point shares.
pub fn execute_into(
    index: &InvertedIndex<'_>,
    scratch: &mut Scratch,
    req: &SearchRequest<'_>,
) -> Result<SearchStatus, SearchError> {
    let Some(tau) = Tau::new(req.tau) else {
        return Err(SearchError::InvalidTau(req.tau));
    };
    if req.algorithm.width_limited() && req.query.num_lists() > MAX_QUERY_LISTS {
        return Err(SearchError::QueryTooWide {
            lists: req.query.num_lists(),
            max: MAX_QUERY_LISTS,
        });
    }
    let mut ctx = SearchCtx::new(index, req.query, tau.get(), req.budget.arm(), scratch);
    match req.algorithm {
        AlgorithmKind::Scan => FullScan.search_with(&mut ctx),
        AlgorithmKind::Merge => SortByIdMerge.search_with(&mut ctx),
        AlgorithmKind::Ta => TaAlgorithm.search_with(&mut ctx),
        AlgorithmKind::Nra => NraAlgorithm::default().search_with(&mut ctx),
        AlgorithmKind::ITa => ITaAlgorithm::with_config(req.config).search_with(&mut ctx),
        AlgorithmKind::INra => INraAlgorithm::with_config(req.config).search_with(&mut ctx),
        AlgorithmKind::Sf => SfAlgorithm::with_config(req.config).search_with(&mut ctx),
        AlgorithmKind::Hybrid => HybridAlgorithm::with_config(req.config).search_with(&mut ctx),
    }
    Ok(scratch.status())
}

/// Like [`execute_into`], but move the results out into an owned
/// [`SearchOutcome`] (one allocation-sized-move per query; the scratch
/// stays warm otherwise).
pub fn execute(
    index: &InvertedIndex<'_>,
    scratch: &mut Scratch,
    req: &SearchRequest<'_>,
) -> Result<SearchOutcome, SearchError> {
    execute_into(index, scratch, req)?;
    Ok(scratch.take_outcome())
}

/// A persistent executor over one index: reusable scratch, per-query
/// budgets, work-stealing batches, and serving metrics. See the module
/// docs for the architecture.
pub struct QueryEngine<'c> {
    index: InvertedIndex<'c>,
    scratch: Scratch,
    metrics: EngineMetrics,
    /// Warm scratches returned by batch workers, reused by later batches.
    scratch_pool: Mutex<Vec<Scratch>>,
}

impl QueryEngine<'static> {
    /// Cold-start an engine from an index snapshot on disk (written by
    /// [`InvertedIndex::save`]): the `load → serve` path that skips
    /// re-tokenizing and re-indexing the corpus. The loaded index owns
    /// its collection, so the engine has no outstanding borrows and can
    /// be moved anywhere.
    ///
    /// Every failure is a typed [`SnapshotError`](crate::SnapshotError)
    /// — bad magic, unsupported version, checksum mismatch, truncation,
    /// or malformed contents. A file that fails validation never
    /// produces an engine.
    pub fn open(path: &std::path::Path) -> Result<Self, crate::SnapshotError> {
        // open() IS the sanctioned single-file cold-start path; segment
        // directories go through MutableEngine::open. lint: allow
        Ok(QueryEngine::new(InvertedIndex::load(path)?))
    }
}

impl<'c> QueryEngine<'c> {
    /// Wrap an index in an engine.
    #[must_use]
    pub fn new(index: InvertedIndex<'c>) -> Self {
        Self {
            index,
            scratch: Scratch::default(),
            metrics: EngineMetrics::default(),
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped index.
    #[must_use]
    pub fn index(&self) -> &InvertedIndex<'c> {
        &self.index
    }

    /// Give the index back, dropping the engine state.
    #[must_use]
    pub fn into_index(self) -> InvertedIndex<'c> {
        self.index
    }

    /// Tokenize and prepare a query string against the wrapped index.
    #[must_use]
    pub fn prepare_query_str(&self, text: &str) -> PreparedQuery {
        self.index.prepare_query_str(text)
    }

    /// Run one request, returning an owned outcome. Replaces direct
    /// algorithm-struct construction: validation is typed (no panics) and
    /// the candidate structures come from the engine's warm scratch.
    pub fn search(&mut self, req: SearchRequest<'_>) -> Result<SearchOutcome, SearchError> {
        // Serving boundary: feeds the metrics latency histogram, never
        // the algorithm kernels. lint: allow no-wallclock
        let start = Instant::now();
        let out = execute(&self.index, &mut self.scratch, &req)?;
        self.metrics.record(&out.stats, out.status, start.elapsed());
        self.metrics.record_matches(out.results.len() as u64);
        Ok(out)
    }

    /// Run one request and borrow the results out of the scratch — the
    /// zero-allocation serving path (nothing is copied; the view dies at
    /// the next search).
    pub fn search_view(&mut self, req: SearchRequest<'_>) -> Result<SearchView<'_>, SearchError> {
        // Serving boundary, as in `search`. lint: allow no-wallclock
        let start = Instant::now();
        let status = execute_into(&self.index, &mut self.scratch, &req)?;
        self.metrics
            .record(&self.scratch.stats, status, start.elapsed());
        self.metrics
            .record_matches(self.scratch.results.len() as u64);
        Ok(SearchView {
            results: self.scratch.results(),
            stats: self.scratch.stats(),
            status,
        })
    }

    /// Run a batch of requests across `num_threads` workers with **work
    /// stealing**: workers pull the next unclaimed request from a shared
    /// atomic cursor, so a straggler query occupies one worker while the
    /// rest drain the tail (static chunking would idle the straggler's
    /// whole chunk — see `crate::algorithms::parallel::search_batch`).
    ///
    /// Results come back in request order. Each worker keeps one warm
    /// scratch, drawn from (and returned to) the engine's pool, so
    /// repeated batches reuse capacity.
    pub fn search_batch(
        &self,
        reqs: &[SearchRequest<'_>],
        num_threads: usize,
    ) -> Vec<Result<SearchOutcome, SearchError>> {
        let workers = num_threads.max(1).min(reqs.len().max(1));
        let cursor = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Result<SearchOutcome, SearchError>>> =
            (0..reqs.len()).map(|_| OnceLock::new()).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut scratch = self.pool_pop();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        // One bounds check covers both arrays: slots was
                        // built with reqs.len() entries.
                        let (Some(req), Some(slot)) = (reqs.get(i), slots.get(i)) else {
                            break;
                        };
                        // Per-request serving latency for the shared
                        // metrics histogram. lint: allow no-wallclock
                        let start = Instant::now();
                        let res = execute(&self.index, &mut scratch, req);
                        if let Ok(out) = &res {
                            self.metrics.record(&out.stats, out.status, start.elapsed());
                            self.metrics.record_matches(out.results.len() as u64);
                        }
                        // Each index is claimed by exactly one worker.
                        let _ = slot.set(res);
                    }
                    self.pool_push(scratch);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| match slot.into_inner() {
                Some(res) => res,
                // The cursor hands every index to some worker before any
                // worker exits, and scope joins them all.
                None => unreachable!("batch slot left unfilled"),
            })
            .collect()
    }

    /// Point-in-time serving metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Zero the serving metrics (between benchmark phases).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    fn pool_pop(&self) -> Scratch {
        let mut pool = match self.scratch_pool.lock() {
            Ok(g) => g,
            // A worker can only poison the lock by panicking between
            // pop/push; the pool (plain Vecs) stays structurally valid.
            Err(poisoned) => poisoned.into_inner(),
        };
        pool.pop().unwrap_or_default()
    }

    fn pool_push(&self, scratch: Scratch) {
        let mut pool = match self.scratch_pool.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        pool.push(scratch);
    }
}

/// Serving engine over a [`ShardedIndex`](crate::ShardedIndex): resolves
/// the band table, **scatters** the surviving shards across a
/// work-stealing worker pool (the same idiom as
/// [`QueryEngine::search_batch`], stealing shards instead of requests),
/// and **gathers** the per-shard outcomes into one result set that is
/// bit-identical to searching the unsharded index.
///
/// Skipped shards are charged to [`SearchStats::shards_pruned`] /
/// [`SearchStats::shard_pruned_elements`](crate::SearchStats) without a
/// single posting access, which is the whole point of length banding:
/// at high thresholds most shards fall outside the Theorem 1 window
/// `[τ·len(q), len(q)/τ]` and scale-out is nearly free.
///
/// Each shard owns one warm [`Scratch`], whichever worker runs it. A
/// scratch's reused candidate map keeps the capacity its past queries
/// grew, and that capacity sets NRA's scan order; fixing the scratch per
/// shard makes every counter a function of the query sequence alone, not
/// of which worker reached which shard first.
pub struct ShardedEngine {
    index: crate::ShardedIndex,
    metrics: EngineMetrics,
    /// One scratch per shard, indexed like the shard slice.
    scratches: Vec<Mutex<Scratch>>,
}

impl ShardedEngine {
    /// Wrap a sharded index in a serving engine.
    #[must_use]
    pub fn new(index: crate::ShardedIndex) -> Self {
        let scratches = (0..index.num_shards())
            .map(|_| Mutex::new(Scratch::default()))
            .collect();
        Self {
            index,
            metrics: EngineMetrics::default(),
            scratches,
        }
    }

    /// Cold-start from a sharded snapshot directory written by
    /// [`ShardedIndex::save`](crate::ShardedIndex::save). Every shard
    /// file is length- and CRC-verified against the `MANIFEST` before a
    /// byte of it is decoded.
    pub fn open(dir: &std::path::Path) -> Result<Self, crate::SnapshotError> {
        // The sanctioned cold-start path for shard directories, like
        // QueryEngine::open for single files. lint: allow
        Ok(Self::new(crate::ShardedIndex::open(dir)?))
    }

    /// The wrapped sharded index.
    #[must_use]
    pub fn index(&self) -> &crate::ShardedIndex {
        &self.index
    }

    /// Give the sharded index back, dropping the engine state.
    #[must_use]
    pub fn into_index(self) -> crate::ShardedIndex {
        self.index
    }

    /// Tokenize and prepare a query against the global dictionary and
    /// weight table (bit-identical to the unsharded preparation).
    #[must_use]
    pub fn prepare_query_str(&self, text: &str) -> PreparedQuery {
        self.index.prepare_query_str(text)
    }

    /// Run one request, scattering surviving shards across all available
    /// cores.
    pub fn search(&self, req: &SearchRequest<'_>) -> Result<SearchOutcome, SearchError> {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.search_with_threads(req, threads)
    }

    /// [`search`](Self::search) with an explicit worker count. Each shard
    /// runs on its own warm scratch.
    pub fn search_with_threads(
        &self,
        req: &SearchRequest<'_>,
        num_threads: usize,
    ) -> Result<SearchOutcome, SearchError> {
        // Serving boundary: feeds the metrics latency histogram, never
        // the algorithm kernels. lint: allow no-wallclock
        let start = Instant::now();
        crate::ShardedIndex::validate(req)?;
        let plan = self.index.plan(req.query, req.tau);
        let shards = self.index.shards();
        let workers = num_threads.max(1).min(plan.surviving.len().max(1));
        let cursor = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Result<SearchOutcome, SearchError>>> =
            (0..plan.surviving.len()).map(|_| OnceLock::new()).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let (Some((shard, fq)), Some(slot)) = (plan.surviving.get(i), slots.get(i))
                    else {
                        break;
                    };
                    let sreq = SearchRequest {
                        query: fq,
                        tau: req.tau,
                        algorithm: req.algorithm,
                        config: req.config,
                        budget: req.budget,
                    };
                    let res = match (shards.get(*shard), self.scratches.get(*shard)) {
                        (Some(sh), Some(scratch)) => {
                            // A poisoned scratch is still structurally
                            // valid (plain Vecs and maps, reset per query).
                            let mut scratch = match scratch.lock() {
                                Ok(g) => g,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                            execute(&sh.index, &mut scratch, &sreq)
                        }
                        _ => unreachable!("plan indexes its own shard slice"),
                    };
                    // Each slot is claimed by exactly one worker.
                    let _ = slot.set(res);
                });
            }
        });
        let mut outcomes = Vec::with_capacity(plan.surviving.len());
        for (slot, (shard, _)) in slots.into_iter().zip(&plan.surviving) {
            match slot.into_inner() {
                Some(Ok(out)) => outcomes.push((*shard, out)),
                Some(Err(e)) => return Err(e),
                // The cursor hands every slot to some worker before any
                // worker exits, and scope joins them all.
                None => unreachable!("shard slot left unfilled"),
            }
        }
        let out = self.index.gather(&plan, outcomes);
        self.metrics.record(&out.stats, out.status, start.elapsed());
        self.metrics.record_matches(out.results.len() as u64);
        Ok(out)
    }

    /// Point-in-time serving metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Zero the serving metrics (between benchmark phases).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }
}
