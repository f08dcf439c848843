//! The three workloads: how each builds its serving stack (timed as
//! `setup_s`), what traffic it sends, and how its outputs are checked.
//!
//! * `hot-96` — in-memory `ServingEngine` over `tiny_corpus(96)`,
//!   read-only, 16 hot queries: the query cache answers almost
//!   everything, so the gateway itself dominates.
//! * `cold-100k` — `bench_scale`'s 100k-table synthetic store
//!   (fabricated outside the timed window), opened cold, seeded unique
//!   queries with an int8 scan and an exact re-rank of 256 survivors.
//! * `churn-96` — a `DurableEngine` over 96 tables with default store
//!   options (fabricated outside the timed window, then reopened); one
//!   request in [`CHURN_WRITE_EVERY`] is a write alternating
//!   insert/remove, the rest are unique-query searches.
//!
//! The serving side ([`prepare`]) runs in the server process; traffic,
//! reference results and checks run in the load process.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use lcdd_engine::{
    EngineBuilder, IndexStrategy, Query, SearchOptions, SearchResponse, ServingEngine,
};
use lcdd_fcm::{FcmConfig, FcmModel};
use lcdd_server::{Backend, Server, ServerConfig};
use lcdd_store::{create_bulk, DurableEngine, StoreOptions};
use lcdd_testkit::load::{insert_body, remove_body};
use lcdd_testkit::scale::{self, ScaleSpec};

use crate::drive::{gateway_hits, search_body, splitmix, Hits, Kind, Op, Worker};
use crate::metrics::Report;
use crate::Workload;

/// Hits per search on every workload.
pub const K: usize = 10;
/// Tables and shards of the small corpus `hot-96` and `churn-96` serve.
const SMALL_TABLES: usize = 96;
const SMALL_SHARDS: usize = 2;
const HOT_QUERIES: usize = 16;
const COLD_TABLES: u64 = 100_000;
const COLD_SHARDS: usize = 4;
const COLD_RERANK: usize = 256;
/// The 100k corpus `bench_scale` measures, on which its re-rank recall
/// floor was set; the recall check runs on the same corpus and the same
/// probe queries `0..COLD_SAMPLE`.
const COLD_CORPUS_SEED: u64 = 0x5ca1e ^ COLD_TABLES;
const COLD_SAMPLE: u64 = 10;
/// Query-number offsets keeping set-up and warm-up queries apart from the
/// fixed check sample and from the measured stream, which starts at a
/// seeded point at or above `1 << 62`.
const SETUP_Q: u64 = 1 << 40;
const WARM_Q: u64 = 2 << 40;
/// The recall floor `bench_scale` enforces for re-rank at this depth.
pub const RECALL_FLOOR: f64 = 0.95;
/// Each connection of the churn workload sends one write in this many
/// requests. Every write waits on fsyncs whose latency follows the host
/// disk, not the program; keeping writes a small share of the run's time
/// keeps that latency from deciding the run's throughput.
pub const CHURN_WRITE_EVERY: u64 = 8;
/// Ids of tables the churn workload inserts start here, far above the
/// seeded corpus; worker `w` owns `CHURN_IDS * (w + 1) ..`.
const CHURN_IDS: u64 = 1 << 32;

/// The serving stack a workload runs against. A gateway owns its
/// backend, so each one gets a fresh handle to the same engine.
pub struct Live(pub Backend);

impl Live {
    /// Starts a gateway over this stack.
    pub fn start(&self, tracing: bool) -> Server {
        let backend = match &self.0 {
            Backend::Serving(s) => Backend::Serving(Arc::clone(s)),
            Backend::Durable(d) => Backend::Durable(Arc::clone(d)),
            Backend::Replica(f) => Backend::Replica(Arc::clone(f)),
        };
        let cfg = ServerConfig {
            // A closed loop never queues more than one request per
            // connection; the deadline only has to outlast a slow search.
            default_deadline_ms: 30_000,
            tracing,
            ..ServerConfig::default()
        };
        Server::start(backend, cfg).expect("start gateway")
    }
}

/// Drains a gateway and checks that every admitted search was answered.
pub fn stop(server: Server, report: &mut Report) {
    let r = server.shutdown();
    report.servers += 1;
    if r.jobs_enqueued != r.jobs_answered {
        report.undrained += 1;
        eprintln!(
            "[e2ebench] drain lost searches: {} enqueued, {} answered",
            r.jobs_enqueued, r.jobs_answered
        );
    }
}

/// Where a workload keeps its store inside the run's scratch directory.
pub fn store_dir(workload: Workload, work: &Path) -> PathBuf {
    work.join(workload.name())
}

/// The 16 hot series: distinct corpus shapes, each phase-shifted by a
/// seeded amount.
fn hot_series(seed: u64) -> Vec<Vec<f64>> {
    let mut s = splitmix(seed ^ 0x407);
    let mut pool: Vec<usize> = (0..SMALL_TABLES).collect();
    (0..HOT_QUERIES)
        .map(|i| {
            s = splitmix(s);
            let j = i + (s % (SMALL_TABLES - i) as u64) as usize;
            pool.swap(i, j);
            let t = pool[i];
            let phase = (s >> 11) as f64 / (1u64 << 53) as f64;
            (0..90)
                .map(|x| (((x + t * 11) as f64) / 6.0 + phase).sin() * (t + 1) as f64)
                .collect()
        })
        .collect()
}

fn cold_spec() -> ScaleSpec {
    ScaleSpec::tiny(COLD_CORPUS_SEED, COLD_TABLES)
}

fn series_of(q: &Query) -> Vec<f64> {
    match q {
        Query::Series(u) => u.series[0].ys.clone(),
        _ => unreachable!("scale queries are series sketches"),
    }
}

fn cold_body(spec: &ScaleSpec, q: u64) -> String {
    search_body(&series_of(&scale::query(spec, q)), K, Some(COLD_RERANK))
}

/// A random 90-point sine wave from the worker's stream: amplitude,
/// period and phase all drawn, so every wave is distinct.
fn wave(w: &mut Worker) -> Vec<f64> {
    let amp = 0.5 + 2.5 * w.unit();
    let period = 3.0 + 6.0 * w.unit();
    let phase = std::f64::consts::TAU * w.unit();
    (0..90)
        .map(|j| amp * (j as f64 / period + phase).sin())
        .collect()
}

/// Fabricates the inputs a workload needs on disk before its server
/// process starts: the 100k store for `cold-100k`, the 96-table durable
/// store for `churn-96`, nothing for `hot-96`. Creating a store fsyncs
/// every file, so doing it here keeps disk latency out of `setup_s`.
pub fn fabricate(workload: Workload, work: &Path) {
    let dir = store_dir(workload, work);
    match workload {
        Workload::Hot96 => {}
        Workload::Churn96 => {
            let engine =
                lcdd_testkit::tiny_engine(lcdd_testkit::tiny_corpus(SMALL_TABLES), SMALL_SHARDS);
            DurableEngine::create(&dir, engine, StoreOptions::default())
                .expect("fabricate the churn store");
        }
        Workload::Cold100k => {
            let template = EngineBuilder::new(FcmModel::new(FcmConfig::tiny()))
                .build()
                .expect("template engine");
            let spec = cold_spec();
            let t = Instant::now();
            create_bulk(
                dir,
                &template,
                COLD_SHARDS,
                COLD_TABLES,
                scale::generator(&spec),
            )
            .expect("fabricate the 100k store");
            eprintln!(
                "[e2ebench] cold-100k: fabricated in {:.2} s (not timed)",
                t.elapsed().as_secs_f64()
            );
        }
    }
}

/// A serving stack ready to measure, built in the server process.
pub struct Stack {
    pub live: Live,
    /// Seconds from engine build or store open to the first answered
    /// `/search`, once per repetition.
    pub setup_s: Vec<f64>,
    /// Seconds per timed `DurableEngine::open` (stores only).
    pub open_s: Vec<f64>,
}

/// Sends `body` through a fresh gateway over `live`; true on a 200 with
/// a hit list.
fn first_answer(live: &Live, body: &str, report: &mut Report) -> bool {
    let server = live.start(false);
    let ok = gateway_hits(server.addr(), body).is_some();
    stop(server, report);
    ok
}

fn cold_opts() -> StoreOptions {
    StoreOptions {
        cold_open: true,
        ..StoreOptions::default()
    }
}

/// Builds `workload`'s stack `reps` times (keeping the last), timing each
/// from engine build or store open to the first answered search, then
/// warms it up outside any window.
pub fn prepare(
    workload: Workload,
    seed: u64,
    reps: usize,
    work: &Path,
    report: &mut Report,
) -> Stack {
    let dir = store_dir(workload, work);
    let mut probe = Worker::new(usize::MAX, seed ^ 0x5E7);
    let spec = cold_spec();
    let hot = hot_series(seed);
    let mut setup_s = Vec::with_capacity(reps);
    let mut open_s = Vec::new();
    let mut live: Option<Live> = None;
    let mut first_ok = true;
    for r in 0..reps as u64 {
        let body = match workload {
            Workload::Hot96 => search_body(&hot[0], K, None),
            Workload::Cold100k => cold_body(&spec, SETUP_Q + r),
            Workload::Churn96 => search_body(&wave(&mut probe), K, None),
        };
        // Release the previous repetition before building the next.
        drop(live.take());
        let t = Instant::now();
        let l = match workload {
            Workload::Hot96 => {
                let engine = lcdd_testkit::tiny_engine(
                    lcdd_testkit::tiny_corpus(SMALL_TABLES),
                    SMALL_SHARDS,
                );
                Live(Backend::Serving(Arc::new(ServingEngine::new(engine))))
            }
            Workload::Cold100k => {
                let (engine, _) = DurableEngine::open(&dir, cold_opts()).expect("cold open");
                open_s.push(t.elapsed().as_secs_f64());
                Live(Backend::Durable(Arc::new(engine)))
            }
            Workload::Churn96 => {
                let (store, _) =
                    DurableEngine::open(&dir, StoreOptions::default()).expect("open churn store");
                open_s.push(t.elapsed().as_secs_f64());
                Live(Backend::Durable(Arc::new(store)))
            }
        };
        first_ok &= first_answer(&l, &body, report);
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some(l);
    }
    report.check(
        "setup_first_search",
        first_ok,
        "first /search after build or open answered 200",
    );
    let live = live.expect("at least one repetition");

    // Warm-up: fills the hot cache and touches every code path. Searches
    // only, so no store instrument records before the window.
    let warmup: Vec<String> = match workload {
        Workload::Hot96 => hot.iter().map(|v| search_body(v, K, None)).collect(),
        Workload::Cold100k => (0..4).map(|i| cold_body(&spec, WARM_Q + i)).collect(),
        Workload::Churn96 => (0..4)
            .map(|_| search_body(&wave(&mut probe), K, None))
            .collect(),
    };
    let server = live.start(false);
    let answered = warmup
        .iter()
        .filter(|body| gateway_hits(server.addr(), body).is_some())
        .count();
    stop(server, report);
    report.check(
        "warmup_answered",
        answered == warmup.len(),
        format!("{answered} of {} warm-up searches answered", warmup.len()),
    );
    Stack {
        live,
        setup_s,
        open_s,
    }
}

/// What a workload's traffic looks like.
pub enum Traffic {
    /// Searches drawn uniformly from a fixed set of bodies.
    Hot { bodies: Vec<String> },
    /// Unique scale-corpus queries through the re-rank path.
    Cold {
        spec: ScaleSpec,
        connections: u64,
        base: u64,
    },
    /// Unique searches with every [`CHURN_WRITE_EVERY`]th request a write.
    Churn,
}

impl Traffic {
    /// The workload's traffic and one worker per connection.
    pub fn new(workload: Workload, seed: u64, connections: usize) -> (Traffic, Vec<Worker>) {
        let mut workers: Vec<Worker> = (0..connections).map(|w| Worker::new(w, seed)).collect();
        let traffic = match workload {
            Workload::Hot96 => Traffic::Hot {
                bodies: sample_bodies(workload, seed),
            },
            Workload::Cold100k => Traffic::Cold {
                spec: cold_spec(),
                connections: connections as u64,
                base: (1 << 62) | (splitmix(seed) >> 2),
            },
            Workload::Churn96 => {
                // Worker `w` may remove the seeded tables congruent to it,
                // oldest first, and inserts fresh ids from its own range.
                for w in &mut workers {
                    w.live = (0..SMALL_TABLES as u64)
                        .filter(|id| *id as usize % connections == w.id)
                        .collect();
                    w.next_id = CHURN_IDS * (w.id as u64 + 1);
                }
                Traffic::Churn
            }
        };
        (traffic, workers)
    }

    pub fn next(&self, w: &mut Worker) -> Op {
        let n = w.n;
        w.n += 1;
        match self {
            Traffic::Hot { bodies } => {
                let i = (w.rand() % bodies.len() as u64) as usize;
                Op {
                    kind: Kind::Search,
                    body: bodies[i].clone(),
                }
            }
            Traffic::Cold {
                spec,
                connections,
                base,
            } => Op {
                kind: Kind::Search,
                body: cold_body(spec, base + n * connections + w.id as u64),
            },
            Traffic::Churn => {
                if n % CHURN_WRITE_EVERY != CHURN_WRITE_EVERY - 1 {
                    Op {
                        kind: Kind::Search,
                        body: search_body(&wave(w), K, None),
                    }
                } else if w.insert_next || w.live.is_empty() {
                    w.insert_next = false;
                    let id = w.next_id;
                    w.next_id += 1;
                    Op {
                        kind: Kind::Insert(id),
                        body: insert_body(id, &wave(w)),
                    }
                } else {
                    w.insert_next = true;
                    let id = *w.live.front().expect("non-empty");
                    Op {
                        kind: Kind::Remove(id),
                        body: remove_body(&[id]),
                    }
                }
            }
        }
    }
}

/// The search bodies whose gateway hits are checked against an
/// in-process reference (none for `churn-96`, which checks its writes).
/// For `hot-96` these are also the hot set the traffic draws from.
pub fn sample_bodies(workload: Workload, seed: u64) -> Vec<String> {
    match workload {
        Workload::Hot96 => hot_series(seed)
            .iter()
            .map(|v| search_body(v, K, None))
            .collect(),
        Workload::Cold100k => {
            let spec = cold_spec();
            (0..COLD_SAMPLE).map(|q| cold_body(&spec, q)).collect()
        }
        Workload::Churn96 => Vec::new(),
    }
}

fn hits_of(resp: &SearchResponse) -> Hits {
    resp.hits
        .iter()
        .map(|h| (h.table_id, h.score.to_bits()))
        .collect()
}

/// In-process reference for [`sample_bodies`]: the expected hits with
/// the gateway's options, and for `cold-100k` the exact top-K (no
/// re-rank) the recall is measured against.
fn reference(workload: Workload, seed: u64, work: &Path) -> (Vec<Hits>, Option<Vec<Vec<u64>>>) {
    let exact_opts = SearchOptions::top_k(K).with_strategy(IndexStrategy::NoIndex);
    match workload {
        Workload::Hot96 => {
            let engine =
                lcdd_testkit::tiny_engine(lcdd_testkit::tiny_corpus(SMALL_TABLES), SMALL_SHARDS);
            let hits = hot_series(seed)
                .into_iter()
                .map(|v| {
                    let resp = engine
                        .search(&Query::from_series(vec![v]), &exact_opts)
                        .expect("reference search");
                    hits_of(&resp)
                })
                .collect();
            (hits, None)
        }
        Workload::Cold100k => {
            let (engine, _) = DurableEngine::open(store_dir(workload, work), cold_opts())
                .expect("reference open");
            let spec = cold_spec();
            let rerank_opts = exact_opts.clone().with_rerank(COLD_RERANK);
            let mut hits = Vec::new();
            let mut exact = Vec::new();
            for q in 0..COLD_SAMPLE {
                let query = scale::query(&spec, q);
                let truth = engine.search(&query, &exact_opts).expect("exact search");
                exact.push(truth.hits.iter().map(|h| h.table_id).collect());
                let rr = engine.search(&query, &rerank_opts).expect("re-rank search");
                hits.push(hits_of(&rr));
            }
            (hits, Some(exact))
        }
        Workload::Churn96 => (Vec::new(), None),
    }
}

/// Checks the gateway's answers to [`sample_bodies`] against the
/// in-process reference, bit for bit, and on `cold-100k` the re-rank
/// recall@K against the exact ranking.
pub fn verify_hits(
    workload: Workload,
    seed: u64,
    work: &Path,
    got: &[Option<Hits>],
    report: &mut Report,
) {
    let (want, exact) = reference(workload, seed, work);
    let mismatched = want
        .iter()
        .zip(got)
        .filter(|(want, got)| got.as_ref() != Some(*want))
        .count();
    report.check(
        "gateway_hits_match_in_process",
        mismatched == 0 && want.len() == got.len(),
        format!(
            "{mismatched} of {} sample queries differ in table ids or score bits",
            want.len()
        ),
    );
    if let Some(exact) = exact {
        let mut found = 0usize;
        let mut total = 0usize;
        for (truth, got) in exact.iter().zip(got) {
            let ids: BTreeSet<u64> = got.iter().flatten().map(|h| h.0).collect();
            total += truth.len();
            found += truth.iter().filter(|id| ids.contains(id)).count();
        }
        let recall = found as f64 / total.max(1) as f64;
        report.put("recall_at_10", "ratio", recall, total as u64);
        report.check(
            "recall_at_10_floor",
            recall >= RECALL_FLOOR,
            format!(
                "re-rank recall@{K} {recall:.4} over {} queries (floor {RECALL_FLOOR})",
                exact.len()
            ),
        );
    }
}

/// Reopens the churned store and checks every acknowledged write; returns
/// `(recover_s, wal_bytes_per_write)`, the latter over the WAL tail the
/// reopen replayed.
pub fn verify_churn(
    work: &Path,
    workers: &[Worker],
    wal_tail: f64,
    report: &mut Report,
) -> (f64, f64) {
    let t = Instant::now();
    let (reopened, recovery) =
        DurableEngine::open(store_dir(Workload::Churn96, work), StoreOptions::default())
            .expect("reopen churned store");
    let recover_s = t.elapsed().as_secs_f64();
    let state = reopened.snapshot();
    let present: BTreeSet<u64> = (0..state.len()).map(|i| state.table_meta(i).id).collect();

    let mut expected: BTreeSet<u64> = (0..SMALL_TABLES as u64).collect();
    let mut removed = BTreeSet::new();
    for w in workers {
        expected.extend(&w.acked_inserts);
        for id in &w.acked_removes {
            expected.remove(id);
            removed.insert(*id);
        }
    }
    let missing = expected.difference(&present).count();
    let resurrected = removed.intersection(&present).count();
    let unexpected = present.difference(&expected).count();
    let inserts: usize = workers.iter().map(|w| w.acked_inserts.len()).sum();
    report.check(
        "churn_recovered_acked_writes",
        missing == 0 && resurrected == 0 && unexpected == 0,
        format!(
            "{inserts} acked inserts, {} acked removes: {missing} missing, \
             {resurrected} removed-but-present, {unexpected} unexpected after reopen",
            removed.len()
        ),
    );
    let empty: u64 = workers.iter().map(|w| w.empty_removes).sum();
    report.check(
        "churn_removes_removed",
        empty == 0,
        format!("{empty} acknowledged removes reported removing nothing"),
    );
    let per_write = if recovery.replayed_ops > 0 {
        wal_tail / recovery.replayed_ops as f64
    } else {
        0.0
    };
    (recover_s, per_write)
}
