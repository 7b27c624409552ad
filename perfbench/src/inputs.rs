//! Seeded inputs shared by every workload: the word-occurrence corpus,
//! the query pool, and the serve-rw write schedule. Everything here is a
//! pure function of the seed and the scale; the engines only ever see
//! the generated texts.

use setsim_bench::Scale;
use setsim_core::{CollectionBuilder, SetCollection};
use setsim_datagen::{Corpus, LengthBucket, QueryWorkload};
use setsim_prng::{Rng, SliceRandom, StdRng};
use setsim_tokenize::QGramTokenizer;

/// The thresholds of the paper's τ sweep.
pub const TAUS: [f64; 4] = [0.6, 0.7, 0.8, 0.9];
/// Character edits applied to each query (the paper's 0–2 sweep).
pub const EDITS: [usize; 3] = [0, 1, 2];
/// Seed of the one corpus every workload serves (the repository's
/// standard scale seed). The run's `--seed` draws the query stream, the
/// write schedule and the gate sample from it; keeping the database
/// fixed keeps runs with different seeds comparable.
const CORPUS_SEED: u64 = 42;
/// Pool positions each correctness gate checks.
pub const GATE_QUERIES: usize = 48;
/// Queries per (length bucket, edits, τ) cell of [`Inputs::sample`].
const SAMPLE_PER_CELL: usize = 24;

/// Workload size knobs. [`Sizes::BENCH`] is what the command runs; the
/// benchmark's own tests use [`Sizes::TEST`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Corpus scale (word occurrences become records).
    pub scale: Scale,
    /// Queries per (length bucket, edits, τ) cell of the pool.
    pub per_cell: usize,
    /// Held-out words, and mutations issued by the serve-rw writer.
    pub writes: usize,
    /// Length of the traced serve pass, seconds; the writes are spread
    /// over 70% of it.
    pub serve_seconds: f64,
}

impl Sizes {
    /// The benchmark proper: `Scale::Large` (~250k word occurrences).
    pub const BENCH: Sizes = Sizes {
        scale: Scale::Large,
        per_cell: 100,
        writes: 5_800,
        serve_seconds: 15.0,
    };
    /// Small enough for unit tests.
    #[cfg(test)]
    pub const TEST: Sizes = Sizes {
        scale: Scale::Medium,
        per_cell: 2,
        writes: 3_000,
        serve_seconds: 2.0,
    };
}

/// One query of the pool: text plus threshold.
#[derive(Debug, Clone)]
pub struct Query {
    pub text: String,
    pub tau: f64,
}

/// A mutation of the serve-rw writer. Targets of upserts and deletes are
/// picked at run time from the writer's list of live ids, with `pick`
/// as the seeded choice, so the schedule does not depend on the ids the
/// server assigns.
#[derive(Debug, Clone)]
pub enum WriteOp {
    Insert(String),
    Upsert { pick: u64, text: String },
    Delete { pick: u64 },
}

/// Everything a workload needs, generated from one seed.
pub struct Inputs {
    /// Indexed records: every word occurrence of the corpus except the
    /// held-out tail.
    pub words: Vec<String>,
    /// Shuffled query pool; the query stream cycles through it.
    pub queries: Vec<Query>,
    /// A shuffled, stratified sample of the pool: the same number of
    /// queries from every cell, so the mix of lengths, edits and
    /// thresholds does not change with the seed.
    pub sample: Vec<Query>,
    /// The writer's fixed mutation schedule (held-out corpus words).
    pub writes: Vec<WriteOp>,
}

impl Inputs {
    pub fn generate(seed: u64, sizes: Sizes) -> Inputs {
        let corpus = Corpus::generate(&sizes.scale.corpus_config_seeded(CORPUS_SEED));
        let mut words: Vec<String> = corpus.words().map(str::to_owned).collect();
        let held_out = words.split_off(words.len().saturating_sub(sizes.writes));

        let mut queries = Vec::new();
        let mut sample = Vec::new();
        for (b, bucket) in LengthBucket::PAPER.iter().enumerate() {
            for &edits in &EDITS {
                let cell_seed = mix(seed, 1 + (b * EDITS.len() + edits) as u64);
                let wl = QueryWorkload::generate(
                    words.iter().map(String::as_str),
                    *bucket,
                    3,
                    edits,
                    sizes.per_cell * TAUS.len(),
                    cell_seed,
                );
                for (i, text) in wl.queries().iter().enumerate() {
                    let q = Query {
                        text: text.clone(),
                        tau: TAUS[i % TAUS.len()],
                    };
                    if i < SAMPLE_PER_CELL * TAUS.len() {
                        sample.push(q.clone());
                    }
                    queries.push(q);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(mix(seed, 100));
        queries.shuffle(&mut rng);
        sample.shuffle(&mut rng);

        let mut rng = StdRng::seed_from_u64(mix(seed, 200));
        let writes = held_out
            .into_iter()
            .map(|text| match rng.gen_range(0..4u32) {
                0 => WriteOp::Insert(text),
                1 | 2 => WriteOp::Upsert {
                    pick: rng.next_u64(),
                    text,
                },
                _ => WriteOp::Delete {
                    pick: rng.next_u64(),
                },
            })
            .collect();
        Inputs {
            words,
            queries,
            sample,
            writes,
        }
    }

    /// The `i`-th query of the stream (the pool, cycled).
    pub fn query(&self, i: usize) -> &Query {
        &self.queries[i % self.queries.len()]
    }

    /// A seeded sample of pool positions for the correctness gate.
    pub fn gate_sample(&self, seed: u64, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.queries.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(mix(seed, 300)));
        idx.truncate(n);
        idx
    }
}

/// Tokenize the records into a collection: the first half of every
/// workload's set-up.
pub fn collection(words: &[String]) -> SetCollection {
    let mut builder = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for w in words {
        builder.add(w);
    }
    builder.build()
}

fn mix(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}
