//! The closed-loop selection workloads `select-heap` and
//! `select-paged`, and the sharded pass of select-heap's traced run. One
//! client thread replays a fixed list of queries back to back, pass
//! after pass; each query is timed from the start of preparation to the
//! end of the search.
//!
//! The latency figures take each query's fastest time over the run's
//! passes, and throughput the fastest pass. On a shared machine the
//! speed one process gets can swing by a quarter for seconds at a time;
//! replaying the same queries over a long run and keeping the best time
//! of each leaves those stretches out, so that two runs agree on what
//! the program itself costs.

use crate::inputs::{collection, Inputs, Query, Sizes, GATE_QUERIES};
use crate::measure::{disk_bytes, median, peak_rss_mb, percentile, same_within, timed, us_since};
use crate::report::Outcome;
use crate::serve;
use crate::trace::Tracer;
use setsim_core::{
    AlgorithmKind, IndexOptions, InvertedIndex, PagedEngine, PreparedQuery, QueryEngine, Scratch,
    SearchOutcome, SearchRequest, SearchStats, ShardedEngine, ShardedIndex,
};
use setsim_storage::PagedSnapshot;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Index builds per select-heap run, spread over the run; `setup_s` is
/// their median.
const BUILD_REPS: usize = 5;
/// Rounds of `open_paged` calls per select-paged run, spread over the
/// run, and calls per round; `setup_s` is the median of all calls. Fewer
/// rounds than builds, since each round re-warms the pool with a pass
/// of about three seconds.
const OPEN_ROUNDS: usize = 3;
const OPENS_PER_ROUND: usize = 7;
/// Length bands of the sharded pass.
const SHARDS: usize = 8;
/// Most passes of a traced loop; their spans are kept in memory.
const TRACED_PASSES: usize = 4;

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory for snapshots, inside the checkout; removed
    /// after the run.
    pub work: PathBuf,
    /// Path stem of the span files a traced run writes, one per pass.
    pub trace_stem: PathBuf,
}

impl Cfg {
    pub fn trace_path(&self, pass: &str) -> PathBuf {
        let mut p = self.trace_stem.clone().into_os_string();
        p.push(format!("-{pass}.tsv"));
        p.into()
    }
}

/// One engine as the closed loop sees it.
trait Selector {
    /// Span name of the search call.
    const SEARCH: &'static str;
    /// Per-layer metric that reports the search span's self time.
    const SEARCH_METRIC: &'static str;
    fn prepare(&self, text: &str) -> PreparedQuery;
    fn search(&mut self, q: &PreparedQuery, tau: f64) -> Option<SearchOutcome>;
}

fn request(q: &PreparedQuery, tau: f64) -> SearchRequest<'_> {
    SearchRequest::new(q).tau(tau).algorithm(AlgorithmKind::Sf)
}

impl Selector for QueryEngine<'static> {
    const SEARCH: &'static str = "engine.search";
    const SEARCH_METRIC: &'static str = "engine.search_us";
    fn prepare(&self, text: &str) -> PreparedQuery {
        self.prepare_query_str(text)
    }
    fn search(&mut self, q: &PreparedQuery, tau: f64) -> Option<SearchOutcome> {
        QueryEngine::search(self, request(q, tau)).ok()
    }
}

impl Selector for PagedEngine {
    const SEARCH: &'static str = "paged.search";
    const SEARCH_METRIC: &'static str = "paged.search_us";
    fn prepare(&self, text: &str) -> PreparedQuery {
        self.prepare_query_str(text)
    }
    fn search(&mut self, q: &PreparedQuery, tau: f64) -> Option<SearchOutcome> {
        PagedEngine::search(self, request(q, tau)).ok()
    }
}

impl Selector for ShardedEngine {
    const SEARCH: &'static str = "shard.search";
    const SEARCH_METRIC: &'static str = "shard.search_us";
    fn prepare(&self, text: &str) -> PreparedQuery {
        self.prepare_query_str(text)
    }
    fn search(&mut self, q: &PreparedQuery, tau: f64) -> Option<SearchOutcome> {
        ShardedEngine::search(self, &request(q, tau)).ok()
    }
}

struct Passes {
    /// Per query of the list, its fastest time over all passes, µs.
    best_us: Vec<f64>,
    /// Wall time of each pass, seconds.
    pass_s: Vec<f64>,
    /// Every query's time in every pass, summed, µs.
    total_us: f64,
    queries: u64,
    failed: u64,
}

impl Passes {
    fn new(list_len: usize) -> Passes {
        Passes {
            best_us: vec![f64::INFINITY; list_len],
            pass_s: Vec::new(),
            total_us: 0.0,
            queries: 0,
            failed: 0,
        }
    }

    fn mean_us(&self) -> f64 {
        self.total_us / self.queries.max(1) as f64
    }

    /// Replay `list`, closed loop, pass after pass, until `seconds` have
    /// passed (at least one pass) or `max_passes` passes ran.
    fn run<S: Selector>(
        &mut self,
        s: &mut S,
        list: &[Query],
        seconds: f64,
        max_passes: Option<usize>,
        tr: &mut Tracer,
    ) {
        let t0 = Instant::now();
        let mut passes = 0;
        loop {
            let done = match max_passes {
                Some(n) => passes >= n,
                None => passes > 0 && t0.elapsed().as_secs_f64() >= seconds,
            };
            if done {
                break;
            }
            let pass = Instant::now();
            for (j, Query { text, tau }) in list.iter().enumerate() {
                let req = (self.pass_s.len() * list.len() + j) as u64;
                let t = Instant::now();
                let root = tr.begin("query", req, None);
                let q = tr.span("tokenize.prepare", req, root, || s.prepare(text));
                let out = tr.span(S::SEARCH, req, root, || s.search(&q, *tau));
                tr.end(root);
                let us = us_since(t);
                self.best_us[j] = self.best_us[j].min(us);
                self.total_us += us;
                if std::hint::black_box(out).is_none() {
                    self.failed += 1;
                }
            }
            self.pass_s.push(pass.elapsed().as_secs_f64());
            self.queries += list.len() as u64;
            passes += 1;
        }
    }
}

/// The set-up and measured phase of every select workload. `set_up`
/// makes a fresh engine and returns it with its set-up times in
/// seconds. The run sets up `rounds` times, spread over the run: each
/// set-up is followed by one warm-up pass over `list`, then passes for
/// an equal share of the measured time, so that the set-up samples and
/// the best times are drawn from the whole run, not from one stretch of
/// it. Untraced, the passes last `seconds` and give the end-to-end
/// metrics; traced, they last `seconds / 2`, and a few passes with spans
/// follow, giving self times and `trace.overhead_pct`. Returns the last
/// engine and every set-up sample.
fn measure<S: Selector>(
    rounds: usize,
    mut set_up: impl FnMut() -> Result<(S, Vec<f64>), String>,
    list: &[Query],
    cfg: &Cfg,
    out: &mut Outcome,
) -> Result<(S, Vec<f64>), String> {
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut plain = Passes::new(list.len());
    let mut setup = Vec::new();
    let mut engine = None;
    for _ in 0..rounds {
        // Only one engine is alive at a time, so peak memory is one
        // engine's.
        drop(engine.take());
        let (mut s, secs) = set_up()?;
        setup.extend(secs);
        counter_pass(&mut s, list); // warm-up
        let share = seconds / rounds as f64;
        plain.run(&mut s, list, share, None, &mut Tracer::off());
        engine = Some(s);
    }
    let mut s = engine.ok_or("no set-up round ran")?;
    out.set("setup_s", median(&setup));
    out.note("set-up samples s", format!("{setup:.3?}"));
    out.attempted += plain.queries;
    out.failed += plain.failed;
    if !cfg.trace {
        let fastest_pass = plain.pass_s.iter().copied().fold(f64::INFINITY, f64::min);
        out.set("query_p50_us", median(&plain.best_us));
        out.set("query_p99_us", percentile(&plain.best_us, 99.0));
        out.set("throughput_qps", list.len() as f64 / fastest_pass);
        out.note("queries per pass", list.len());
        out.note("passes", plain.pass_s.len());
        out.note(
            "median pass qps",
            format!("{:.1}", list.len() as f64 / median(&plain.pass_s)),
        );
        return Ok((s, setup));
    }
    // Traced passes alternate with untraced ones, so that the overhead
    // compares passes that ran under the same conditions.
    let mut tr = Tracer::new(Instant::now(), true);
    let (mut traced, mut untraced) = (Passes::new(list.len()), Passes::new(list.len()));
    for _ in 0..plain.pass_s.len().min(TRACED_PASSES) {
        untraced.run(&mut s, list, 0.0, Some(1), &mut Tracer::off());
        traced.run(&mut s, list, 0.0, Some(1), &mut tr);
    }
    out.attempted += untraced.queries + traced.queries;
    out.failed += untraced.failed + traced.failed;
    out.set(
        "trace.overhead_pct",
        100.0 * (traced.mean_us() / untraced.mean_us() - 1.0),
    );
    let selfs = tr.self_times_us();
    out.set("tokenize.prepare_us", median(&selfs["tokenize.prepare"]));
    out.set(S::SEARCH_METRIC, median(&selfs[S::SEARCH]));
    out.add_trace("select", &tr, &cfg.trace_path("select"));
    Ok((s, setup))
}

/// Deterministic counters over one pass of a query list.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    pub queries: u64,
    pub tokens: u64,
    pub matches: u64,
    pub stats: SearchStats,
}

fn counter_pass<S: Selector>(s: &mut S, list: &[Query]) -> Counters {
    let mut c = Counters::default();
    for Query { text, tau } in list {
        let q = s.prepare(text);
        if let Some(o) = s.search(&q, *tau) {
            c.queries += 1;
            c.tokens += q.tokens.len() as u64;
            c.matches += o.results.len() as u64;
            c.stats.merge(&o.stats);
        }
    }
    c
}

fn engine_counters(c: &Counters, out: &mut Outcome) {
    let n = c.queries.max(1) as f64;
    let s = &c.stats;
    out.set("tokenize.tokens_per_query", c.tokens as f64 / n);
    out.set("engine.elements_read_per_query", s.elements_read as f64 / n);
    out.set(
        "engine.elements_skipped_per_query",
        s.elements_skipped as f64 / n,
    );
    out.set("engine.random_probes_per_query", s.random_probes as f64 / n);
    out.set(
        "engine.candidates_per_query",
        s.candidates_inserted as f64 / n,
    );
    out.set("engine.pruning_pct", s.pruning_pct());
    out.set(
        "engine.matches_per_candidate",
        c.matches as f64 / s.candidates_inserted.max(1) as f64,
    );
}

/// Results as (id, score bits), sorted: equal keys mean bit-identical
/// result sets.
fn key(o: &SearchOutcome) -> Vec<(u32, u64)> {
    let mut k: Vec<(u32, u64)> = o
        .results
        .iter()
        .map(|m| (m.id.0, m.score.to_bits()))
        .collect();
    k.sort_unstable();
    k
}

/// Compare `s` against the heap engine on the gate sample, bit for bit.
fn gate_against_heap<S: Selector>(
    s: &mut S,
    heap: &mut QueryEngine<'static>,
    inputs: &Inputs,
    cfg: &Cfg,
    out: &mut Outcome,
) {
    for i in inputs.gate_sample(cfg.seed, GATE_QUERIES) {
        let Query { text, tau } = inputs.query(i);
        let q = s.prepare(text);
        let got = s.search(&q, *tau);
        let q = heap.prepare(text);
        let want = Selector::search(heap, &q, *tau);
        out.attempted += 1;
        match (got, want) {
            (Some(g), Some(w)) if key(&g) == key(&w) => {}
            _ => {
                eprintln!("gate mismatch: {text:?} tau={tau}");
                out.mismatches += 1;
            }
        }
    }
}

fn build_heap(words: &[String]) -> (QueryEngine<'static>, f64, f64) {
    let (c, coll_s) = timed(|| collection(words));
    let (index, build_s) =
        timed(|| InvertedIndex::build_owned(Box::new(c), IndexOptions::default()));
    (QueryEngine::new(index), coll_s, build_s)
}

pub fn heap(cfg: &Cfg) -> Result<Outcome, String> {
    let inputs = Inputs::generate(cfg.seed, cfg.sizes);
    let mut out = Outcome::default();
    let (mut coll, mut build) = (Vec::new(), Vec::new());
    let set_up = || {
        let (e, c, b) = build_heap(&inputs.words);
        coll.push(c);
        build.push(b);
        Ok((e, vec![c + b]))
    };
    let (mut engine, _) = measure(BUILD_REPS, set_up, &inputs.queries, cfg, &mut out)?;
    let pool = inputs.queries.len();
    out.set("peak_rss_mb", peak_rss_mb());

    // Correctness gate: SF against the Scan oracle on a seeded sample.
    for i in inputs.gate_sample(cfg.seed, GATE_QUERIES) {
        let Query { text, tau } = inputs.query(i);
        let q = engine.prepare_query_str(text);
        let sf = engine.search(request(&q, *tau));
        let scan = engine.search(request(&q, *tau).algorithm(AlgorithmKind::Scan));
        out.attempted += 1;
        let same = match (sf, scan) {
            (Ok(a), Ok(b)) => same_within(matches(&a), matches(&b)),
            _ => false,
        };
        if !same {
            eprintln!("gate mismatch against Scan: {text:?} tau={tau}");
            out.mismatches += 1;
        }
    }

    let postings = engine.index().total_postings();
    let snap = cfg.work.join("heap.snap");
    let save = engine.index().save(&snap);
    out.set(
        "disk_bytes_per_posting",
        disk_bytes(&snap) as f64 / postings as f64,
    );
    if let Err(e) = save {
        eprintln!("snapshot save failed: {e}");
        out.failed += 1;
    }
    out.note("records", inputs.words.len());
    out.note("query pool", pool);
    out.note("postings", postings);
    if cfg.trace {
        out.set("index.collection_build_s", median(&coll));
        out.set("index.build_s", median(&build));
        out.set("index.postings", postings as f64);
        engine_counters(&counter_pass(&mut engine, &inputs.queries), &mut out);
        // The layers of the design's unlisted workloads, measured here:
        // the sharded engine over the same records, then the server.
        shard_pass(&mut engine, &inputs, cfg, &mut out)?;
        drop(engine);
        serve::serve_pass(&inputs, cfg, &mut out)?;
    }
    Ok(out)
}

/// Results as (id, score) pairs.
fn matches(o: &SearchOutcome) -> Vec<(u64, f64)> {
    o.results
        .iter()
        .map(|m| (u64::from(m.id.0), m.score))
        .collect()
}

/// Build the heap index over the seed's corpus and save it as a
/// snapshot; returns the save time in seconds.
pub fn prep_snapshot(seed: u64, sizes: Sizes, path: &Path) -> Result<f64, String> {
    let inputs = Inputs::generate(seed, sizes);
    let (engine, _, _) = build_heap(&inputs.words);
    let (res, save_s) = timed(|| engine.index().save(path));
    res.map_err(|e| format!("snapshot save failed: {e}"))?;
    Ok(save_s)
}

/// Run [`prep_snapshot`] in a child process of this same binary, so the
/// heap index the snapshot is written from never counts toward the
/// paged run's peak memory.
fn prep_snapshot_isolated(seed: u64, path: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["prep-snapshot", "--seed", &seed.to_string(), "--out"])
        .arg(path)
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "snapshot child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("snapshot child output: {e}"))
}

pub fn paged(cfg: &Cfg) -> Result<Outcome, String> {
    let inputs = Inputs::generate(cfg.seed, cfg.sizes);
    let mut out = Outcome::default();
    let snap = cfg.work.join("paged.snap");
    // A test binary cannot run itself as the snapshot child.
    let save_s = if cfg!(test) {
        prep_snapshot(cfg.seed, cfg.sizes, &snap)?
    } else {
        prep_snapshot_isolated(cfg.seed, &snap)?
    };
    let open = |pool: usize| PagedEngine::open(&snap, pool).map_err(|e| format!("open_paged: {e}"));
    let num_pages = open(1)?.num_pages();
    let pool_pages = usize::try_from(num_pages / 4).unwrap_or(usize::MAX).max(1);
    let set_up = || {
        let (mut secs, mut engine) = (Vec::new(), None);
        for _ in 0..OPENS_PER_ROUND {
            drop(engine.take());
            let (e, s) = timed(|| open(pool_pages));
            secs.push(s);
            engine = Some(e?);
        }
        Ok((engine.ok_or("no open ran")?, secs))
    };
    // The stratified sample, not the pool: a pass over the whole pool
    // would take longer than a run. One pass touches more distinct pages
    // than the buffer pool holds, so under LRU every pass starts from the
    // same pool contents, the ones the warm-up pass leaves.
    let list = &inputs.sample;
    let (mut engine, opens) = measure(OPEN_ROUNDS, set_up, list, cfg, &mut out)?;
    out.set("peak_rss_mb", peak_rss_mb());

    // The reference engine loads the same snapshot fully into the heap.
    let mut heap = QueryEngine::open(&snap).map_err(|e| format!("load snapshot: {e}"))?;
    gate_against_heap(&mut engine, &mut heap, &inputs, cfg, &mut out);
    let bytes = disk_bytes(&snap);
    out.set(
        "disk_bytes_per_posting",
        bytes as f64 / heap.index().total_postings() as f64,
    );

    if cfg.trace {
        // Counters of the steady-state pass, on a fresh pool warmed by
        // one pass, so they repeat exactly.
        let mut fresh = open(pool_pages)?;
        counter_pass(&mut fresh, list);
        let c = counter_pass(&mut fresh, list);
        engine_counters(&c, &mut out);
        let n = c.queries.max(1) as f64;
        let s = &c.stats;
        out.set("paged.pages_touched_per_query", s.pages_touched as f64 / n);
        out.set("paged.pool_hits_per_query", s.page_cache_hits as f64 / n);
        out.set(
            "paged.pool_misses_per_query",
            s.page_cache_misses as f64 / n,
        );
        out.set(
            "paged.hit_ratio",
            s.page_cache_hits as f64 / (s.page_cache_hits + s.page_cache_misses).max(1) as f64,
        );
        // Kernel share: heap search time over paged search time, for the
        // same prepared queries.
        let (mut heap_us, mut paged_us) = (0.0, 0.0);
        for Query { text, tau } in list {
            let q = fresh.prepare_query_str(text);
            let t = Instant::now();
            std::hint::black_box(Selector::search(&mut fresh, &q, *tau));
            paged_us += us_since(t);
            let t = Instant::now();
            std::hint::black_box(Selector::search(&mut heap, &q, *tau));
            heap_us += us_since(t);
        }
        out.set("paged.kernel_share", heap_us / paged_us);
        out.set("paged.open_s", median(&opens));
        let (hit, miss) = page_times(&snap, num_pages)?;
        out.set("storage.page_hit_us", hit);
        out.set("storage.page_miss_us", miss);
        out.set("snapshot.save_s", save_s);
        out.set("snapshot.bytes", bytes as f64);
    }
    out.note("snapshot pages", num_pages);
    out.note("pool pages", pool_pages);
    Ok(out)
}

/// Median `PagedSnapshot::page` time on a cold page (pool miss) and on
/// the same page once resident (pool hit).
fn page_times(snap: &Path, num_pages: u64) -> Result<(f64, f64), String> {
    let pages = u32::try_from(num_pages.min(4096)).unwrap_or(4096);
    let mut ps = PagedSnapshot::open(snap, pages.max(1) as usize).map_err(|e| e.to_string())?;
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for id in 0..pages {
        let t = Instant::now();
        std::hint::black_box(ps.page(id).map_err(|e| e.to_string())?);
        miss.push(us_since(t));
        let t = Instant::now();
        std::hint::black_box(ps.page(id).map_err(|e| e.to_string())?);
        hit.push(us_since(t));
    }
    Ok((median(&hit), median(&miss)))
}

/// Select-heap's traced pass over the sharded engine: its build, its
/// deterministic band-pruning counters, a bit-for-bit gate against the
/// heap engine, and the scattered search timed against the sequential
/// path on the same queries.
fn shard_pass(
    heap: &mut QueryEngine<'static>,
    inputs: &Inputs,
    cfg: &Cfg,
    out: &mut Outcome,
) -> Result<(), String> {
    let c = collection(&inputs.words);
    let (index, build_s) = timed(|| ShardedIndex::build_owned(c, SHARDS, IndexOptions::default()));
    let mut engine = ShardedEngine::new(index.map_err(|e| format!("shard build: {e}"))?);
    out.set("shard.build_s", build_s);
    let pool = inputs.queries.len();
    // The counter pass warms the engine too.
    let c = counter_pass(&mut engine, &inputs.queries);
    let n = c.queries.max(1) as f64;
    let shards = engine.index().num_shards() as f64;
    out.set(
        "shard.visits_per_query",
        shards - c.stats.shards_pruned as f64 / n,
    );
    out.set(
        "shard.pruned_frac",
        c.stats.shards_pruned as f64 / (n * shards),
    );
    out.set(
        "shard.pruned_elements_per_query",
        c.stats.shard_pruned_elements as f64 / n,
    );
    gate_against_heap(&mut engine, heap, inputs, cfg, out);

    let mut tr = Tracer::new(Instant::now(), true);
    let mut scratch = Scratch::default();
    for i in 0..pool {
        let Query { text, tau } = inputs.query(i);
        let q = engine.prepare_query_str(text);
        let req = request(&q, *tau);
        let rid = i as u64;
        let scattered = tr.span(ShardedEngine::SEARCH, rid, None, || engine.search(&req));
        let inline = tr.span("shard.inline", rid, None, || {
            engine.index().search_with_scratch(&mut scratch, &req)
        });
        for res in std::hint::black_box([scattered, inline]) {
            out.attempted += 1;
            out.failed += u64::from(res.is_err());
        }
    }
    let selfs = tr.self_times_us();
    let (search, inline) = (
        median(&selfs[ShardedEngine::SEARCH]),
        median(&selfs["shard.inline"]),
    );
    out.set(ShardedEngine::SEARCH_METRIC, search);
    out.set("shard.inline_us", inline);
    out.set("shard.scatter_overhead_us", search - inline);
    out.note("shards", shards);
    out.add_trace("shard", &tr, &cfg.trace_path("shard"));
    Ok(())
}

/// The counters the determinism self-check compares, per workload.
#[cfg(test)]
pub fn counters(seed: u64, sizes: Sizes, work: &Path) -> Vec<Counters> {
    let inputs = Inputs::generate(seed, sizes);
    let (mut heap, _, _) = build_heap(&inputs.words);
    let heap_c = counter_pass(&mut heap, &inputs.queries);
    let snap = work.join("counters.snap");
    heap.index().save(&snap).expect("save");
    let pool_pages = (PagedEngine::open(&snap, 1).expect("open").num_pages() / 4).max(1);
    let mut paged = PagedEngine::open(&snap, pool_pages as usize).expect("open");
    let paged_c = counter_pass(&mut paged, &inputs.queries);
    let index =
        ShardedIndex::build_owned(collection(&inputs.words), SHARDS, IndexOptions::default())
            .expect("shard build");
    let mut sharded = ShardedEngine::new(index);
    let sharded_c = counter_pass(&mut sharded, &inputs.queries);
    vec![heap_c, paged_c, sharded_c]
}
