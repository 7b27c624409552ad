//! The benchmark's own checks: counters repeat exactly for a seed, and
//! the traced runs of the listed workloads measure every per-layer
//! metric of `BENCHMARK.json`.

use crate::inputs::Sizes;
use crate::layers::{target, Catalogue};
use crate::select::{self, Cfg};
use crate::serve;
use std::path::PathBuf;

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(crate::WORK_DIR).join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[test]
fn select_counters_repeat_with_the_same_seed() {
    let dir = work_dir("counters");
    let first = select::counters(7, Sizes::TEST, &dir);
    let second = select::counters(7, Sizes::TEST, &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(first, second);
    let (heap, paged, sharded) = (&first[0], &first[1], &first[2]);
    assert!(heap.stats.elements_read > 0);
    assert!(paged.stats.pages_touched > 0 && paged.stats.page_cache_misses > 0);
    assert!(sharded.stats.shards_pruned > 0);
    // The three engines answer alike, so their match counts agree.
    assert_eq!(heap.matches, paged.matches);
    assert_eq!(heap.matches, sharded.matches);
}

#[test]
fn compactions_repeat_with_the_same_seed() {
    let first = serve::compactions(7, Sizes::TEST);
    let second = serve::compactions(7, Sizes::TEST);
    assert_eq!(first, second);
    assert!(first.0 > 0, "the write schedule must trip compaction");
    assert_eq!(first.1, Sizes::TEST.writes as u64);
}

#[test]
fn traced_runs_measure_every_layer() {
    let cat = Catalogue::load().expect("catalogue");
    let dir = work_dir("layers");
    let run = |workload: &str| {
        let cfg = Cfg {
            seed: 7,
            seconds: 0.2,
            trace: true,
            sizes: Sizes::TEST,
            work: dir.clone(),
            trace_stem: dir.join(workload),
        };
        let out = match workload {
            "select-heap" => select::heap(&cfg),
            "select-paged" => select::paged(&cfg),
            other => panic!("no runner for {other}"),
        }
        .expect(workload);
        assert!(out.correct(), "{workload} answered wrongly");
        out
    };
    let outs: Vec<_> = cat.workloads.iter().map(|w| run(w)).collect();
    std::fs::remove_dir_all(&dir).ok();
    for m in &cat.per_layer {
        assert!(target(&m.name).is_some(), "{} has no target", m.name);
        assert!(
            outs.iter().any(|o| o.metrics.contains_key(m.name.as_str())),
            "no listed workload measures {}",
            m.name
        );
    }
}
