//! Cross-crate integration tests: the full pipeline from synthetic corpus
//! through rendering, extraction, training and retrieval — engine-level
//! corpora come from `lcdd_testkit` (seeded, with planted near-duplicates)
//! instead of ad-hoc per-file generators.

use lcdd_testkit::crash::TempDir;
use lcdd_testkit::{assert_same_hits, corpus_with_dups, query_like, tiny_engine, CorpusSpec};
use linechart_discovery::baselines::{DiscoveryMethod, QetchStar};
use linechart_discovery::benchmark::{build_benchmark, evaluate, BenchmarkConfig, FcmMethod};
use linechart_discovery::chart::{render, render_record, ChartStyle};
use linechart_discovery::engine::{Engine, IndexStrategy, SearchOptions, SearchResponse};
use linechart_discovery::fcm::{FcmConfig, FcmModel, TrainConfig};
use linechart_discovery::relevance::{rel_score, RelevanceConfig};
use linechart_discovery::store::{DurableEngine, StoreOptions};
use linechart_discovery::table::series::UnderlyingData;
use linechart_discovery::table::{build_corpus, CorpusConfig};
use linechart_discovery::vision::VisualElementExtractor;

fn tiny_bench_cfg() -> BenchmarkConfig {
    BenchmarkConfig {
        n_train: 10,
        n_distractors: 8,
        n_query_tables: 4,
        noise_copies: 3,
        k_rel: 3,
        train_extractor: false,
        ..Default::default()
    }
}

#[test]
fn render_extract_roundtrip_preserves_line_count() {
    let corpus = build_corpus(&CorpusConfig {
        n_records: 12,
        ..Default::default()
    });
    let style = ChartStyle::default();
    let oracle = VisualElementExtractor::oracle();
    let mut matched = 0usize;
    for r in &corpus {
        let chart = render_record(&r.table, &r.spec, &style);
        let extracted = oracle.extract(&chart);
        if extracted.lines.len() == r.spec.num_lines() {
            matched += 1;
        }
        // The decoded y range must cover the rendered tick range closely.
        if let Some((lo, hi)) = extracted.y_range {
            let span = (chart.meta.y_hi - chart.meta.y_lo).abs().max(1e-9);
            assert!(
                (lo - chart.meta.y_lo).abs() < span * 0.2,
                "{}",
                r.table.name
            );
            assert!(
                (hi - chart.meta.y_hi).abs() < span * 0.2,
                "{}",
                r.table.name
            );
        }
    }
    // Heavily overlapping multi-line charts can merge instances; most must
    // round-trip exactly.
    assert!(
        matched * 10 >= corpus.len() * 7,
        "only {matched}/{} charts round-tripped",
        corpus.len()
    );
}

#[test]
fn ground_truth_relevance_identifies_source_tables() {
    let corpus = build_corpus(&CorpusConfig {
        n_records: 15,
        ..Default::default()
    });
    let cfg = RelevanceConfig::default();
    let mut top1 = 0usize;
    for (qi, r) in corpus.iter().enumerate().take(8) {
        let d = UnderlyingData::from_spec(&r.table, &r.spec);
        let best = corpus
            .iter()
            .enumerate()
            .map(|(ti, t)| (ti, rel_score(&d, &t.table, &cfg)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        top1 += usize::from(best == qi);
    }
    assert!(
        top1 >= 7,
        "Rel(D,T) should almost always point at the source: {top1}/8"
    );
}

#[test]
fn benchmark_evaluation_end_to_end_with_fcm_and_qetch() {
    let bench = build_benchmark(&tiny_bench_cfg());

    // Untrained FCM must run the whole pipeline without panicking.
    let mut fcm = FcmMethod::new(FcmModel::new(FcmConfig::tiny()));
    let s = evaluate(&mut fcm, &bench);
    assert_eq!(s.overall().n_queries, bench.queries.len());

    // Qetch* (no training) should beat chance on plain queries because it
    // matches extracted shapes directly.
    let mut qetch = QetchStar::default();
    let s = evaluate(&mut qetch, &bench);
    let chance = bench.k_rel as f64 / bench.repo.len() as f64;
    assert!(
        s.without_da().prec > chance,
        "Qetch* prec {} should beat chance {chance}",
        s.without_da().prec
    );
}

#[test]
fn trained_fcm_beats_untrained_fcm() {
    let bench = build_benchmark(&tiny_bench_cfg());
    // Hyper-parameters picked for a clear trained-vs-untrained margin under
    // the workspace's deterministic RNG streams (the assertion below is
    // coarse, but at tiny scale a bad seed can land training in the
    // predict-0.5 saddle and make it vacuous).
    let tc = TrainConfig {
        epochs: 8,
        batch_size: 10,
        n_neg: 2,
        seed: 2,
        ..Default::default()
    };

    let mut untrained = FcmMethod::new(FcmModel::new(FcmConfig::tiny()));
    let before = evaluate(&mut untrained, &bench).overall();

    let mut model = FcmModel::new(FcmConfig::tiny());
    linechart_discovery::benchmark::train_fcm_on(&bench, &mut model, &tc, |_, _, _| 0.0);
    let mut trained = FcmMethod::new(model);
    let after = evaluate(&mut trained, &bench).overall();

    assert!(
        after.prec >= before.prec,
        "training must not hurt retrieval: before {} after {}",
        before.prec,
        after.prec
    );
}

#[test]
fn index_candidates_preserve_ground_truth_recall() {
    use linechart_discovery::index::IndexStrategy;
    let bench = build_benchmark(&tiny_bench_cfg());
    let mut fcm = FcmMethod::new(FcmModel::new(FcmConfig::tiny()));
    fcm.prepare(&bench.repo);
    fcm.strategy = IndexStrategy::IntervalOnly;
    // The interval tree must never prune the query's own source table: its
    // columns trivially overlap the chart's value range.
    for q in &bench.queries {
        if q.agg.is_some() {
            continue; // aggregated charts can exceed raw ranges
        }
        if let Some(c) = fcm.candidate_set(&q.input) {
            assert!(
                c.contains(&q.source),
                "interval stage pruned the true source for a plain query"
            );
        }
    }
}

#[test]
fn sharded_engine_full_lifecycle() {
    // The serving story end to end: build sharded, search, mutate live,
    // persist, restore, reshard — identical answers at every step where
    // the corpus is the same.
    let (tables, dups) = corpus_with_dups(&CorpusSpec::sized(0xe2e, 9));
    let mut engine = tiny_engine(tables.clone(), 3);
    assert_eq!(engine.n_shards(), 3);

    // A query shaped like a table with a planted near-duplicate: under
    // the exhaustive strategy both the original and its dup are scored,
    // and the dup scores within a whisker of the original.
    let (orig, dup) = dups[0];
    let opts = SearchOptions::top_k(9).with_strategy(IndexStrategy::NoIndex);
    let resp = engine.search(&query_like(&tables[orig]), &opts).unwrap();
    let score_of = |want: usize| resp.hits.iter().find(|h| h.index == want).unwrap().score;
    assert!((score_of(orig) - score_of(dup)).abs() < 0.05);

    // Live mutation: evict the duplicate, insert a fresh table.
    assert_eq!(engine.remove_tables(&[tables[dup].id]), 1);
    let mut extra = corpus_with_dups(&CorpusSpec::sized(0xbeef, 1)).0;
    extra[0].id = 100;
    engine.insert_tables(extra);
    assert_eq!(engine.len(), 9);
    let resp = engine.search(&query_like(&tables[orig]), &opts).unwrap();
    assert!(resp.hits.iter().all(|h| h.index < 9));
    assert!(resp.hits.iter().all(|h| h.table_id != tables[dup].id));

    // Persist → restore → reshard: identical answers throughout. The
    // store consumes the engine, so its answers are recorded first.
    let q = query_like(&tables[1]);
    let answers = |e: &Engine| -> Vec<SearchResponse> {
        IndexStrategy::ALL
            .iter()
            .map(|&s| {
                e.search(&q, &SearchOptions::top_k(5).with_strategy(s))
                    .unwrap()
            })
            .collect()
    };
    let want = answers(&engine);
    let tmp = TempDir::new("e2e-lifecycle");
    let dir = tmp.subdir("store");
    drop(DurableEngine::create(&dir, engine, StoreOptions::default()).unwrap());
    let (reopened, _) = DurableEngine::open(&dir, StoreOptions::default()).unwrap();
    let mut restored = reopened.into_serving().into_engine();
    for (strategy, (a, b)) in IndexStrategy::ALL
        .iter()
        .zip(want.iter().zip(answers(&restored)))
    {
        assert_same_hits(&format!("restored, {strategy:?}"), a, &b);
    }
    restored.reshard(5).unwrap();
    for (strategy, (a, b)) in IndexStrategy::ALL
        .iter()
        .zip(want.iter().zip(answers(&restored)))
    {
        assert_same_hits(&format!("restored + resharded, {strategy:?}"), a, &b);
    }
}

#[test]
fn chart_styles_roundtrip_through_extractor() {
    // A larger raster must extract as well as the default one.
    let corpus = build_corpus(&CorpusConfig {
        n_records: 3,
        ..Default::default()
    });
    let style = ChartStyle::large();
    let oracle = VisualElementExtractor::oracle();
    let data = UnderlyingData::from_spec(&corpus[0].table, &corpus[0].spec);
    let chart = render(&data, &style);
    let extracted = oracle.extract(&chart);
    assert!(!extracted.lines.is_empty());
    assert!(extracted.y_range.is_some());
}
