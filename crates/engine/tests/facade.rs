//! Facade behaviour: build → search across strategies, batching, error
//! reporting, sharded construction and live mutation — all on the
//! deterministic `lcdd_testkit` corpus (these tests used to live inline in
//! `src/lib.rs` on ad-hoc `tiny_tables()` copies).

use lcdd_engine::{EngineBuilder, EngineError, HybridConfig, IndexStrategy, Query, SearchOptions};
use lcdd_fcm::{FcmConfig, FcmModel};
use lcdd_testkit::{assert_same_hits, tiny_corpus, tiny_engine, tiny_query};

#[test]
fn build_and_search_series_query() {
    let engine = tiny_engine(tiny_corpus(6), 1);
    assert_eq!(engine.len(), 6);
    let resp = engine
        .search(&tiny_query(2), &SearchOptions::top_k(3))
        .unwrap();
    assert!(resp.hits.len() <= 3);
    for w in resp.hits.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
    assert_eq!(resp.counts.total, 6);
    assert!(resp.timings.total_s > 0.0);
    // Hits carry table identity.
    for h in &resp.hits {
        assert_eq!(h.table_name, format!("table-{}", h.table_id));
    }
}

#[test]
fn per_query_strategy_override_without_rebuild() {
    let engine = tiny_engine(tiny_corpus(6), 1);
    let q = tiny_query(0);
    for strategy in IndexStrategy::ALL {
        let resp = engine
            .search(&q, &SearchOptions::top_k(6).with_strategy(strategy))
            .unwrap();
        assert_eq!(resp.strategy, strategy);
        match strategy {
            IndexStrategy::NoIndex => {
                assert_eq!(resp.counts.scored, 6);
                assert!(resp.counts.after_interval.is_none());
            }
            IndexStrategy::Hybrid => {
                assert!(resp.counts.after_interval.is_some());
                assert!(resp.counts.after_lsh.is_some());
            }
            _ => {}
        }
        assert!(resp.counts.scored <= resp.counts.total);
    }
}

#[test]
fn batch_matches_sequential() {
    let engine = tiny_engine(tiny_corpus(6), 2);
    let queries: Vec<Query> = (0..3).map(tiny_query).collect();
    let opts = SearchOptions::top_k(4);
    let batch = engine.search_batch(&queries, &opts);
    for (q, b) in queries.iter().zip(&batch) {
        let solo = engine.search(q, &opts).unwrap();
        assert_same_hits("batch vs sequential", &solo, b.as_ref().unwrap());
    }
}

#[test]
fn empty_batch_is_a_defined_no_op() {
    // Fixed semantics: an empty query slice returns an empty result
    // vector — no error, no panic.
    let engine = tiny_engine(tiny_corpus(4), 2);
    let out = engine.search_batch(&[], &SearchOptions::default());
    assert!(out.is_empty());
}

#[test]
fn top_k_zero_returns_empty_hits_not_error() {
    // Fixed semantics: k = 0 is a valid request for "no hits, just
    // provenance" — counts and timings are still populated.
    let engine = tiny_engine(tiny_corpus(4), 2);
    for strategy in IndexStrategy::ALL {
        let resp = engine
            .search(
                &tiny_query(1),
                &SearchOptions::top_k(0).with_strategy(strategy),
            )
            .unwrap();
        assert!(
            resp.hits.is_empty(),
            "{strategy:?}: k=0 must return no hits"
        );
        assert_eq!(resp.counts.total, 4);
    }
}

#[test]
fn min_score_threshold_filters_hits() {
    let engine = tiny_engine(tiny_corpus(6), 1);
    let q = tiny_query(0);
    let all = engine.search(&q, &SearchOptions::top_k(6)).unwrap();
    let thresholded = engine
        .search(&q, &SearchOptions::top_k(6).with_min_score(1.1))
        .unwrap();
    assert!(all.hits.len() >= thresholded.hits.len());
    assert!(thresholded.hits.is_empty(), "scores are <= 1.0");
}

#[test]
fn image_query_without_trained_extractor_is_rejected() {
    let engine = tiny_engine(tiny_corpus(6), 1);
    let img = lcdd_chart::RgbImage::new(32, 32, lcdd_chart::Rgb::WHITE);
    match engine.search(&Query::Chart(img), &SearchOptions::default()) {
        Err(EngineError::UnsupportedQuery(_)) => {}
        other => panic!("expected UnsupportedQuery, got {other:?}"),
    }
}

#[test]
fn empty_series_is_an_empty_query() {
    let engine = tiny_engine(tiny_corpus(6), 1);
    match engine.search(&Query::from_series(vec![]), &SearchOptions::default()) {
        Err(EngineError::EmptyQuery) => {}
        other => panic!("expected EmptyQuery, got {other:?}"),
    }
}

#[test]
fn invalid_config_is_reported_not_panicked() {
    let cfg = FcmConfig {
        embed_dim: 33,
        ..FcmConfig::tiny()
    };
    match EngineBuilder::from_config(cfg) {
        Err(EngineError::InvalidConfig(msg)) => assert!(msg.contains("embed_dim")),
        other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn zero_shards_is_reported_not_panicked() {
    let builder = EngineBuilder::new(FcmModel::new(FcmConfig::tiny())).shards(0);
    match builder.build() {
        Err(EngineError::InvalidConfig(msg)) => assert!(msg.contains("shard")),
        other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn out_of_range_lsh_bits_is_reported_not_panicked() {
    for lsh_bits in [0usize, 65] {
        let builder = EngineBuilder::new(FcmModel::new(FcmConfig::tiny()))
            .hybrid_config(HybridConfig {
                lsh_bits,
                ..HybridConfig::default()
            })
            .ingest_tables(tiny_corpus(2));
        match builder.build() {
            Err(EngineError::InvalidConfig(msg)) => assert!(msg.contains("lsh_bits"), "{msg}"),
            other => panic!(
                "lsh_bits {lsh_bits}: expected InvalidConfig, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}

#[test]
fn sharded_build_distributes_round_robin() {
    let engine = tiny_engine(tiny_corpus(7), 3);
    assert_eq!(engine.n_shards(), 3);
    assert_eq!(engine.len(), 7);
    let sizes: Vec<usize> = engine.shards().iter().map(|s| s.live_len()).collect();
    assert_eq!(sizes, vec![3, 2, 2]);
    // Global order and identity survive the layout.
    for i in 0..7 {
        assert_eq!(engine.table_meta(i).id, i as u64);
    }
}

#[test]
fn insert_goes_to_least_loaded_shard_and_remove_tombstones() {
    let mut engine = tiny_engine(tiny_corpus(7), 3);
    // Shard 0 holds 3 tables, shards 1/2 hold 2: the next insert must
    // land on shard 1 (least loaded, lowest id).
    let assigned = engine.insert_tables(tiny_corpus(8).split_off(7));
    assert_eq!(assigned, vec![7]);
    assert_eq!(engine.shards()[1].live_len(), 3);
    assert_eq!(engine.len(), 8);

    assert_eq!(engine.remove_tables(&[7, 999]), 1, "unknown ids ignored");
    assert_eq!(engine.len(), 7);
    assert_eq!(engine.remove_tables(&[7]), 0, "double remove is a no-op");
}

#[test]
fn reshard_preserves_results() {
    let tables = tiny_corpus(9);
    let mut engine = tiny_engine(tables, 1);
    let reference: Vec<_> = (0..3)
        .map(|i| {
            engine
                .search(&tiny_query(i), &SearchOptions::top_k(5))
                .unwrap()
        })
        .collect();
    for n in [2usize, 4, 9, 1] {
        engine.reshard(n).unwrap();
        assert_eq!(engine.n_shards(), n);
        for (i, reference) in reference.iter().enumerate() {
            let resp = engine
                .search(&tiny_query(i), &SearchOptions::top_k(5))
                .unwrap();
            assert_same_hits(&format!("reshard({n}) query {i}"), reference, &resp);
        }
    }
    assert!(matches!(
        engine.reshard(0),
        Err(EngineError::InvalidConfig(_))
    ));
}
