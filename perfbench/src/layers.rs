//! The metric catalogue. Workload and metric names, units and order come
//! from `BENCHMARK.json`, compiled into the binary; this file adds only
//! what that file cannot carry, since its per-layer entries hold just
//! name, unit and direction: the end-to-end metric each per-layer metric
//! should move, and the workload on which it should move it.

use setsim_bench::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
}

pub struct Catalogue {
    pub workloads: Vec<String>,
    /// Reported by every untraced run, on every workload.
    pub end_to_end: Vec<Metric>,
    /// Reported by every traced run; a layer the workload bypasses
    /// reports 0.
    pub per_layer: Vec<Metric>,
}

impl Catalogue {
    pub fn load() -> Result<Catalogue, String> {
        let json = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<Metric>, String> {
            let items = json
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no list `{key}`"))?;
            Ok(items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    Metric {
                        name: s("name"),
                        unit: s("unit"),
                    }
                })
                .collect())
        };
        Ok(Catalogue {
            workloads: list("workloads")?.into_iter().map(|w| w.name).collect(),
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

const HEAP: &str = "select-heap";
const PAGED: &str = "select-paged";
/// Workloads of the design that `BENCHMARK.json` does not list, because
/// their end-to-end figures do not hold a bound between runs on a shared
/// two-core host; select-heap's traced run measures their layers.
const SHARDED: &str = "select-sharded*";
const SERVE: &str = "serve-rw*";
pub const UNLISTED_NOTE: &str =
    "* not a listed workload: these layers are measured in select-heap's traced run";

const LATENCY: &str = "query_p50_us query_p99_us throughput_qps";
const PAGED_LATENCY: &str = "query_p50_us query_p99_us";
const P50_QPS: &str = "query_p50_us throughput_qps";

/// The end-to-end metric a per-layer metric should move, and the
/// workload on which it should move it; `None` for a name this catalogue
/// does not know.
pub fn target(name: &str) -> Option<(&'static str, &'static str)> {
    Some(match name {
        "index.collection_build_s" | "index.build_s" | "index.postings" => {
            ("setup_s", "select-heap serve-rw*")
        }
        "shard.build_s" => ("setup_s", SHARDED),
        "paged.open_s" | "snapshot.save_s" => ("setup_s", PAGED),
        "snapshot.bytes" => ("disk_bytes_per_posting", PAGED),
        "segment.mutations" => ("write_p50_us", SERVE),
        "segment.compactions" | "segment.compact_ms" => ("write_p99_us query_p99_us", SERVE),
        "server.search_p99_us" => ("query_p99_us", SERVE),
        "server.shed" | "server.queue_depth_max" => ("failed", SERVE),
        "write_p50_us" | "write_p99_us" => ("write latency seen by the writer", SERVE),
        "loadgen.late_p99_us" => ("validity of query_p50_us query_p99_us", SERVE),
        "trace.overhead_pct" => ("validity of the traced run", "all"),
        _ => match name.split_once('.')?.0 {
            "tokenize" => (P50_QPS, HEAP),
            "engine" => (LATENCY, HEAP),
            "shard" => (P50_QPS, SHARDED),
            "paged" | "storage" => (PAGED_LATENCY, PAGED),
            "segment" | "server" | "api" => ("query_p50_us", SERVE),
            _ => return None,
        },
    })
}
