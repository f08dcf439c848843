//! Live corpus mutation: insert/remove round-trips, tombstone + compaction
//! behaviour, and the pooled-mean centering discipline under mutation.

use lcdd_engine::{IndexStrategy, SearchOptions};
use lcdd_table::Table;
use lcdd_testkit::{
    assert_same_hits, corpus, persisted_image, query_like, tiny_engine, CorpusSpec,
};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 3 } else { 10 };

/// A delta batch with ids disjoint from a `0..n` base corpus.
fn delta_batch(seed: u64, n_delta: usize) -> Vec<Table> {
    corpus(&CorpusSpec::sized(seed ^ 0xdead_beef, n_delta))
        .into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            t.id = 1_000 + i as u64;
            t.name = format!("delta-{i}");
            t
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn insert_then_remove_is_a_noop(
        seed in 0u64..1_000_000,
        n_tables in 4usize..9,
        n_delta in 1usize..4,
        n_shards in 1usize..5,
    ) {
        let tables = corpus(&CorpusSpec::sized(seed, n_tables));
        let mut engine = tiny_engine(tables.clone(), n_shards);
        let before_bytes = persisted_image(&engine);
        let q = query_like(&tables[0]);
        let opts = SearchOptions::top_k(n_tables);
        let before_resp = engine.search(&q, &opts).unwrap();

        let delta = delta_batch(seed, n_delta);
        let delta_ids: Vec<u64> = delta.iter().map(|t| t.id).collect();
        let assigned = engine.insert_tables(delta);
        prop_assert_eq!(assigned.len(), n_delta);
        prop_assert_eq!(engine.len(), n_tables + n_delta);

        prop_assert_eq!(engine.remove_tables(&delta_ids), n_delta);
        engine.compact();
        prop_assert_eq!(engine.len(), n_tables);
        for sh in engine.shards() {
            prop_assert_eq!(sh.n_dead(), 0, "compaction must reclaim all tombstones");
        }

        // Search results and snapshot bytes match the pre-insert engine.
        let after_resp = engine.search(&q, &opts).unwrap();
        assert_same_hits(
            &format!("seed {seed}, +{n_delta}/-{n_delta} on {n_shards} shards"),
            &before_resp,
            &after_resp,
        );
        prop_assert_eq!(
            persisted_image(&engine),
            before_bytes,
            "snapshot bytes must match the pre-insert engine after compaction"
        );
    }

    #[test]
    fn inserted_tables_are_immediately_searchable(
        seed in 0u64..1_000_000,
        n_shards in 1usize..5,
    ) {
        let tables = corpus(&CorpusSpec::sized(seed, 5));
        let mut engine = tiny_engine(tables, n_shards);
        let delta = delta_batch(seed, 1);
        let probe = query_like(&delta[0]);
        engine.insert_tables(delta);

        // A fresh engine over the same 6 tables answers identically — the
        // incremental index path must not diverge from the batch path.
        let mut all = corpus(&CorpusSpec::sized(seed, 5));
        all.extend(delta_batch(seed, 1));
        // The fresh engine distributes round-robin while the mutated one
        // used least-loaded assignment; results must not care.
        let fresh = tiny_engine(all, n_shards);
        for strategy in IndexStrategy::ALL {
            let opts = SearchOptions::top_k(6).with_strategy(strategy);
            let a = engine.search(&probe, &opts).unwrap();
            let b = fresh.search(&probe, &opts).unwrap();
            assert_same_hits(
                &format!("seed {seed}, {n_shards} shards, {strategy:?} after insert"),
                &a,
                &b,
            );
        }
    }
}

#[test]
fn removal_past_threshold_compacts_automatically() {
    let tables = corpus(&CorpusSpec::sized(7, 8));
    let ids: Vec<u64> = tables.iter().map(|t| t.id).collect();
    let mut engine = tiny_engine(tables, 2);
    // Default threshold is 0.3: removing 3 of a 4-slot shard crosses it.
    let removed = engine.remove_tables(&ids[..6]);
    assert_eq!(removed, 6);
    assert_eq!(engine.len(), 2);
    for sh in engine.shards() {
        assert_eq!(
            sh.n_dead(),
            0,
            "auto-compaction must have reclaimed the tombstones"
        );
    }

    // With the threshold disabled, tombstones accumulate instead.
    let tables = corpus(&CorpusSpec::sized(7, 8));
    let mut engine = tiny_engine(tables, 2);
    engine.set_compaction_threshold(1.0);
    assert_eq!(engine.remove_tables(&ids[..6]), 6);
    assert_eq!(engine.len(), 2);
    assert!(
        engine.shards().iter().any(|sh| sh.n_dead() > 0),
        "threshold 1.0 must leave tombstones in place"
    );
    engine.compact();
    assert!(engine.shards().iter().all(|sh| sh.n_dead() == 0));
}

#[test]
fn tombstoned_tables_disappear_from_results_before_compaction() {
    let tables = corpus(&CorpusSpec::sized(21, 6));
    let victim = tables[2].id;
    let probe = query_like(&tables[2]);
    let mut engine = tiny_engine(tables, 2);
    engine.set_compaction_threshold(1.0); // keep the tombstone in place

    let opts = SearchOptions::top_k(6).with_strategy(IndexStrategy::NoIndex);
    let before = engine.search(&probe, &opts).unwrap();
    assert!(before.hits.iter().any(|h| h.table_id == victim));

    assert_eq!(engine.remove_tables(&[victim]), 1);
    for strategy in IndexStrategy::ALL {
        let resp = engine
            .search(&probe, &SearchOptions::top_k(6).with_strategy(strategy))
            .unwrap();
        assert!(
            resp.hits.iter().all(|h| h.table_id != victim),
            "{strategy:?}: tombstoned table must not surface"
        );
        assert_eq!(resp.counts.total, 5, "{strategy:?}: live total");
    }
}

#[test]
fn mutation_keeps_global_positions_contiguous() {
    let tables = corpus(&CorpusSpec::sized(33, 7));
    let mut engine = tiny_engine(tables.clone(), 3);
    engine.insert_tables(delta_batch(33, 2));
    engine.remove_tables(&[tables[1].id, tables[4].id]);
    engine.compact();

    // Global positions are 0..len and table_meta agrees with search hits.
    let opts = SearchOptions::top_k(engine.len()).with_strategy(IndexStrategy::NoIndex);
    let resp = engine.search(&query_like(&tables[0]), &opts).unwrap();
    assert_eq!(resp.counts.total, 7);
    for h in &resp.hits {
        assert!(h.index < engine.len());
        let meta = engine.table_meta(h.index);
        assert_eq!(meta.id, h.table_id);
        assert_eq!(meta.name, h.table_name);
    }
}
