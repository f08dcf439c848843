//! # lcdd-testkit
//!
//! Deterministic test support shared by every suite in the workspace,
//! replacing the ad-hoc `tiny_tables()` copies that used to live in each
//! test file:
//!
//! * [`corpus`] / [`corpus_with_dups`] — a seeded corpus generator mixing
//!   sine-like, trend and ECG-like tables with *planted near-duplicates*
//!   at known positions (what shape-based retrieval is supposed to find),
//! * [`tiny_corpus`] / [`tiny_query`] — the classic closed-form sine
//!   corpus the engine unit tests probe (query `i` matches table `i` by
//!   construction),
//! * [`tiny_engine`] — an untrained `FcmConfig::tiny` engine over any
//!   corpus, at any shard count,
//! * [`persisted_image`] — the bytes a store checkpoint persists for an
//!   engine (meta section, live order, every segment), the byte oracle
//!   of the round-trip and mutation suites,
//! * [`assert_same_hits`] — the response comparator the equivalence
//!   suites use: hit-for-hit identity (index, table id, name, order),
//!   scores within `1e-6`, and identical per-stage provenance,
//! * [`concurrent`] — the reader/writer harness for the concurrent
//!   serving engine: N query loops racing a scripted writer, with every
//!   response checked for single-epoch internal consistency and the final
//!   state checked hit-for-hit against a serial replay,
//! * [`crash`] — the crash-injection harness for the durable store:
//!   scripted op sequences, store-directory snapshots as simulated crash
//!   points, torn-write WAL variants, and the recovered-vs-serial-replay
//!   comparator (bit-identical scores),
//! * [`load`] — a pure-`std` keep-alive HTTP client plus a deterministic
//!   mixed read/ingest load driver for the network gateway (testkit does
//!   not depend on `lcdd-server`, so suites exercise the real wire),
//! * [`repl`] — the partition/lag harness for WAL-shipping replication:
//!   scripted fault schedules on the transport, leader-crash /
//!   torn-tail / failover stories, and the follower-equals-leader
//!   bitwise comparator at every shared epoch,
//! * [`scale`] — the streaming synthetic scale-corpus generator: slots
//!   fabricated directly in encoding space as a pure function of
//!   `(seed, index)`, so `lcdd_store::create_bulk` can write
//!   million-table stores one slot at a time — the substrate for the
//!   tiered-corpus suites and the scale benchmark.
//!
//! Everything is a pure function of its seed: two processes building the
//! same spec get byte-identical corpora, so failures reproduce across
//! runs and machines.

pub mod concurrent;
pub mod crash;
pub mod load;
pub mod repl;
pub mod scale;

use lcdd_engine::{persist, Engine, EngineBuilder, Query, SearchResponse};
use lcdd_fcm::{FcmConfig, FcmModel};
use lcdd_table::generators::{generate, SeriesFamily};
use lcdd_table::{Column, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a generated corpus. `Default` is the size the engine suites
/// use: 8 tables of ~90 points with a near-duplicate planted every third
/// table.
#[derive(Clone, Debug)]
pub struct CorpusSpec {
    /// Master seed; every table derives its own RNG stream from it.
    pub seed: u64,
    /// Number of tables.
    pub n_tables: usize,
    /// Points per series.
    pub series_len: usize,
    /// Every `near_dup_every`-th table (when > 0) is a noisy copy of an
    /// earlier one instead of a fresh shape.
    pub near_dup_every: usize,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            seed: 0x5eed,
            n_tables: 8,
            series_len: 90,
            near_dup_every: 3,
        }
    }
}

impl CorpusSpec {
    /// A spec with the given seed and table count (other fields default).
    pub fn sized(seed: u64, n_tables: usize) -> Self {
        CorpusSpec {
            seed,
            n_tables,
            ..Default::default()
        }
    }
}

/// The shape families the generator cycles through — sine-like, trending
/// and quasi-periodic biosignal, the three regimes the paper's corpus
/// statistics stratify by.
const FAMILIES: [SeriesFamily; 3] = [
    SeriesFamily::HarmonicMix,
    SeriesFamily::TrendSeason,
    SeriesFamily::EcgLike,
];

/// Generates a deterministic corpus and the planted near-duplicate pairs
/// `(original, duplicate)` (both corpus indices, `original < duplicate`).
///
/// Table `i` is either a fresh series of family `FAMILIES[i % 3]` (moved
/// into a per-table value range so the interval tree has something to
/// discriminate on), or — every `near_dup_every`-th table — a copy of the
/// table `near_dup_every` positions back with 1% relative noise. Every
/// fourth table carries a second, unrelated column to exercise the
/// multi-column paths. Ids are the corpus positions; names encode the
/// provenance (`harmonic_mix-4`, `dup5-of-2`).
pub fn corpus_with_dups(spec: &CorpusSpec) -> (Vec<Table>, Vec<(usize, usize)>) {
    let mut tables: Vec<Table> = Vec::with_capacity(spec.n_tables);
    let mut dups = Vec::new();
    for i in 0..spec.n_tables {
        // One independent RNG stream per table: corpus prefixes agree
        // across different n_tables, which keeps shrunken repros stable.
        let mut rng =
            StdRng::seed_from_u64(spec.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let dup_of = (spec.near_dup_every > 0 && i > 0 && i % spec.near_dup_every == 0)
            .then(|| i - spec.near_dup_every.min(i));
        let (name, mut columns) = match dup_of {
            Some(base) => {
                let noisy: Vec<f64> = tables[base].columns[0]
                    .values
                    .iter()
                    .map(|&v| v * (1.0 + 0.01 * (rng.gen_range(0.0..1.0) - 0.5)))
                    .collect();
                dups.push((base, i));
                (format!("dup{i}-of-{base}"), vec![Column::new("c0", noisy)])
            }
            None => {
                let family = FAMILIES[i % FAMILIES.len()];
                let scale = 1.0 + (i % 5) as f64;
                let offset = (i % 7) as f64 * 3.0 - 9.0;
                let vals = generate(&mut rng, family, spec.series_len, scale, offset);
                (
                    format!("{}-{i}", family.name()),
                    vec![Column::new("c0", vals)],
                )
            }
        };
        // Near-duplicates stay pure copies (no extra column) so their
        // scores track the original's; fresh tables get the multi-column
        // treatment.
        if i % 4 == 3 && dup_of.is_none() {
            let extra = generate(
                &mut rng,
                SeriesFamily::Ar1,
                spec.series_len,
                0.5 + (i % 3) as f64,
                20.0,
            );
            columns.push(Column::new("c1", extra));
        }
        tables.push(Table::new(i as u64, name, columns));
    }
    (tables, dups)
}

/// [`corpus_with_dups`] without the pair list.
pub fn corpus(spec: &CorpusSpec) -> Vec<Table> {
    corpus_with_dups(spec).0
}

/// Series queries probing a corpus: one per table in `0..n_queries`
/// (cycling), each the table's first column — so query `q` has a known
/// best answer at `q % corpus.len()` plus that table's planted
/// near-duplicates.
pub fn queries_for(tables: &[Table], n_queries: usize) -> Vec<Query> {
    (0..n_queries)
        .map(|q| query_like(&tables[q % tables.len()]))
        .collect()
}

/// A series-sketch query shaped like `table`'s first column.
pub fn query_like(table: &Table) -> Query {
    Query::from_series(vec![table.columns[0].values.clone()])
}

/// The classic closed-form sine corpus the engine unit tests always used:
/// table `i` is `sin((j + 11 i) / 6) * (i + 1)` over 90 points, named
/// `table-{i}` with id `i`. [`tiny_query`] produces the matching probe.
pub fn tiny_corpus(n_tables: usize) -> Vec<Table> {
    (0..n_tables)
        .map(|i| {
            let vals: Vec<f64> = (0..90)
                .map(|j| ((j + i * 11) as f64 / 6.0).sin() * (i + 1) as f64)
                .collect();
            Table::new(i as u64, format!("table-{i}"), vec![Column::new("c", vals)])
        })
        .collect()
}

/// The query matching [`tiny_corpus`] table `i` exactly.
pub fn tiny_query(i: usize) -> Query {
    Query::from_series(vec![(0..90)
        .map(|j| ((j + i * 11) as f64 / 6.0).sin() * (i + 1) as f64)
        .collect()])
}

/// Builds an untrained `FcmConfig::tiny` engine over `tables` with the
/// given shard count. Panics on builder errors (tests want the backtrace).
pub fn tiny_engine(tables: Vec<Table>, n_shards: usize) -> Engine {
    EngineBuilder::new(FcmModel::new(FcmConfig::tiny()))
        .shards(n_shards)
        .ingest_tables(tables)
        .build()
        .expect("testkit: tiny engine must build")
}

/// The engine's persisted image, exactly as a store checkpoint writes its
/// pieces: the meta section, the global order in compacted slot
/// coordinates, then one segment per shard. Only live tables appear, so
/// an engine with pending tombstones has the image of its compacted self.
/// Panics on codec errors (tests want the backtrace).
pub fn persisted_image(engine: &Engine) -> Vec<u8> {
    let state = engine.state();
    let mut image = persist::meta_bytes(engine).expect("testkit: meta section");
    for (shard, slot) in persist::live_order(state).expect("testkit: live order") {
        image.extend_from_slice(&shard.to_le_bytes());
        image.extend_from_slice(&slot.to_le_bytes());
    }
    for shard in 0..engine.n_shards() {
        image.extend(persist::segment_bytes(state, shard).expect("testkit: segment"));
    }
    image
}

/// Score tolerance for cross-layout comparisons. Scores of the *same*
/// table through the *same* cached encodings are bit-identical across
/// shard layouts; the tolerance only absorbs printing/rounding in future
/// scoring backends.
pub const SCORE_TOL: f32 = 1e-6;

/// Asserts two responses carry the same ranked hits — identical order,
/// `index`, `table_id` and `table_name`, scores within [`SCORE_TOL`] —
/// and identical per-stage provenance counts. Panics with a labelled diff
/// on mismatch.
pub fn assert_same_hits(context: &str, a: &SearchResponse, b: &SearchResponse) {
    assert_eq!(
        a.hits.len(),
        b.hits.len(),
        "{context}: hit counts differ ({} vs {})\n  a: {:?}\n  b: {:?}",
        a.hits.len(),
        b.hits.len(),
        a.ranked_indices(),
        b.ranked_indices(),
    );
    for (rank, (ha, hb)) in a.hits.iter().zip(&b.hits).enumerate() {
        assert_eq!(
            ha.index, hb.index,
            "{context}: rank {rank} index differs ({} vs {})",
            ha.index, hb.index
        );
        assert_eq!(
            ha.table_id, hb.table_id,
            "{context}: rank {rank} table id differs"
        );
        assert_eq!(
            ha.table_name, hb.table_name,
            "{context}: rank {rank} table name differs"
        );
        assert!(
            (ha.score - hb.score).abs() <= SCORE_TOL,
            "{context}: rank {rank} score differs beyond {SCORE_TOL}: {} vs {}",
            ha.score,
            hb.score
        );
    }
    assert_eq!(
        a.counts, b.counts,
        "{context}: per-stage provenance counts differ"
    );
}

/// Bitwise-strict variant of [`assert_same_hits`]: hit order, ids, names
/// and provenance must match as usual, and score *bits* must be identical
/// — no tolerance. This is the contract the thread-count and shard-layout
/// invariance suites pin: scoring is a pure function of
/// `(query, candidate, center)`, so changing the worker count must not
/// move a single ulp.
pub fn assert_same_hits_bitwise(context: &str, a: &SearchResponse, b: &SearchResponse) {
    assert_same_hits(context, a, b);
    for (rank, (ha, hb)) in a.hits.iter().zip(&b.hits).enumerate() {
        assert_eq!(
            ha.score.to_bits(),
            hb.score.to_bits(),
            "{context}: rank {rank} score bits differ: {} vs {}",
            ha.score,
            hb.score
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_engine::SearchOptions;

    #[test]
    fn corpus_is_deterministic_and_plants_dups() {
        let spec = CorpusSpec::default();
        let (a, dups_a) = corpus_with_dups(&spec);
        let (b, dups_b) = corpus_with_dups(&spec);
        assert_eq!(dups_a, dups_b);
        assert_eq!(a.len(), spec.n_tables);
        assert!(!dups_a.is_empty(), "default spec must plant duplicates");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.columns[0].values, y.columns[0].values);
        }
        for &(orig, dup) in &dups_a {
            assert!(orig < dup);
            let o = &a[orig].columns[0].values;
            let d = &a[dup].columns[0].values;
            let rel: f64 = o
                .iter()
                .zip(d)
                .map(|(&x, &y)| (x - y).abs() / x.abs().max(1e-9))
                .fold(0.0, f64::max);
            assert!(rel < 0.02, "near-dup must stay within 2% of the original");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = corpus(&CorpusSpec::sized(1, 6));
        let b = corpus(&CorpusSpec::sized(2, 6));
        assert_ne!(a[0].columns[0].values, b[0].columns[0].values);
    }

    #[test]
    fn near_dup_scores_like_its_original() {
        // The retrieval-relevant sense of "near-duplicate": the planted
        // copy's encodings are nearly identical to the original's, so any
        // query scores the two almost equally (model-independent — holds
        // untrained).
        let (tables, dups) = corpus_with_dups(&CorpusSpec::default());
        let (orig, dup) = dups[0];
        let engine = tiny_engine(tables.clone(), 1);
        let resp = engine
            .search(
                &query_like(&tables[orig]),
                &SearchOptions::top_k(tables.len())
                    .with_strategy(lcdd_engine::IndexStrategy::NoIndex),
            )
            .unwrap();
        let score_of = |want: usize| {
            resp.hits
                .iter()
                .find(|h| h.index == want)
                .map(|h| h.score)
                .expect("NoIndex at k = corpus size scores every table")
        };
        let (so, sd) = (score_of(orig), score_of(dup));
        // 1% value noise moves the per-segment min-max normalisation, so
        // the scores are close but not equal; 0.05 bounds the drift while
        // still distinguishing the dup from unrelated tables.
        assert!(
            (so - sd).abs() < 0.05,
            "dup {dup} must score like its original {orig}: {so} vs {sd}"
        );
    }

    #[test]
    fn assert_same_hits_accepts_identical_responses() {
        let engine = tiny_engine(tiny_corpus(5), 1);
        let q = tiny_query(2);
        let a = engine.search(&q, &SearchOptions::top_k(3)).unwrap();
        let b = engine.search(&q, &SearchOptions::top_k(3)).unwrap();
        assert_same_hits("self", &a, &b);
    }

    #[test]
    #[should_panic(expected = "hit counts differ")]
    fn assert_same_hits_rejects_different_responses() {
        let engine = tiny_engine(tiny_corpus(5), 1);
        let q = tiny_query(2);
        let opts = SearchOptions::top_k(3).with_strategy(lcdd_engine::IndexStrategy::NoIndex);
        let a = engine.search(&q, &opts).unwrap();
        let b = engine
            .search(
                &q,
                &SearchOptions::top_k(1).with_strategy(lcdd_engine::IndexStrategy::NoIndex),
            )
            .unwrap();
        assert_same_hits("different-k", &a, &b);
    }
}
