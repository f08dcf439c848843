//! Crash-injection harness for the durable store: scripted op sequences,
//! serial-replay oracles, store-directory snapshots as simulated crash
//! points, and torn-write variants of the WAL tail.
//!
//! The central claim it proves (the recovery-equivalence acceptance bar):
//! for a random script of insert / remove / compact / reshard ops, a
//! process that crashes at **any record boundary** — including
//! mid-checkpoint and with a torn final record — recovers to an engine
//! whose search results are hit-for-hit identical, with **bit-identical
//! scores**, to a serial replay of the op prefix that made it to the log.
//! Recovery replays cached encodings only: the FCM encoder runs zero
//! times during [`lcdd_store::DurableEngine::open`] (asserted via
//! `lcdd_fcm::table_encode_count`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use lcdd_engine::{Engine, IndexStrategy, Query, SearchOptions};
use lcdd_store::{DurableEngine, StoreOptions};
use lcdd_table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{assert_same_hits, corpus, query_like, tiny_engine, CorpusSpec};

/// One scripted corpus mutation — the testkit mirror of the ops the WAL
/// records.
#[derive(Clone, Debug)]
pub enum ScriptedOp {
    Insert(Vec<Table>),
    Remove(Vec<u64>),
    Compact,
    Reshard(usize),
}

impl ScriptedOp {
    /// Short label for failure messages.
    pub fn label(&self) -> String {
        match self {
            ScriptedOp::Insert(t) => format!("insert x{}", t.len()),
            ScriptedOp::Remove(ids) => format!("remove {ids:?}"),
            ScriptedOp::Compact => "compact".into(),
            ScriptedOp::Reshard(n) => format!("reshard {n}"),
        }
    }
}

/// Generates a deterministic op script: ~45% inserts (1–3 fresh tables),
/// ~30% removals of previously inserted or base ids, ~13% compacts, ~12%
/// reshards (1–4 shards). Fresh table ids start at 10_000 and never
/// collide with a `0..n` base corpus.
pub fn random_script(seed: u64, n_ops: usize, base_ids: &[u64]) -> Vec<ScriptedOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5c71_9bd3_0f64_aa21);
    let mut live: Vec<u64> = base_ids.to_vec();
    let mut next_id = 10_000u64;
    let mut ops = Vec::with_capacity(n_ops);
    for k in 0..n_ops {
        let roll: u32 = rng.gen_range(0..100);
        if roll < 45 || live.is_empty() {
            let n: usize = rng.gen_range(1..4);
            let mut tables = corpus(&CorpusSpec {
                seed: seed ^ ((k as u64) << 32),
                n_tables: n,
                series_len: 64,
                near_dup_every: 0,
            });
            for t in &mut tables {
                t.id = next_id;
                t.name = format!("scripted-{next_id}");
                next_id += 1;
                live.push(t.id);
            }
            ops.push(ScriptedOp::Insert(tables));
        } else if roll < 75 {
            let n = rng.gen_range(1..=2usize).min(live.len());
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                let i: usize = rng.gen_range(0..live.len());
                ids.push(live.swap_remove(i));
            }
            ops.push(ScriptedOp::Remove(ids));
        } else if roll < 88 {
            ops.push(ScriptedOp::Compact);
        } else {
            ops.push(ScriptedOp::Reshard(rng.gen_range(1..5usize)));
        }
    }
    ops
}

/// Applies one op to a plain single-process engine — the serial-replay
/// oracle recovery is compared against.
pub fn apply_serial(engine: &mut Engine, op: &ScriptedOp) {
    match op {
        ScriptedOp::Insert(tables) => {
            engine.insert_tables(tables.clone());
        }
        ScriptedOp::Remove(ids) => {
            engine.remove_tables(ids);
        }
        ScriptedOp::Compact => engine.compact(),
        ScriptedOp::Reshard(n) => {
            engine
                .reshard(*n)
                .expect("scripted reshard counts are >= 1");
        }
    }
}

/// Applies one op through the durable (WAL-logged) engine.
pub fn apply_durable(engine: &DurableEngine, op: &ScriptedOp) {
    let outcome = match op {
        ScriptedOp::Insert(tables) => engine.insert_tables(tables.clone()).map(|_| ()),
        ScriptedOp::Remove(ids) => engine.remove_tables(ids).map(|_| ()),
        ScriptedOp::Compact => engine.compact(),
        ScriptedOp::Reshard(n) => engine.reshard(*n),
    };
    outcome.unwrap_or_else(|e| panic!("durable {} failed: {e}", op.label()));
}

// ---- temp dirs + dir snapshots ---------------------------------------------

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique temp directory, removed (best effort) on drop. No
/// external tempfile crate in this workspace, so the testkit provides its
/// own.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `$TMPDIR/lcdd-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "lcdd-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("testkit: temp dir must be creatable");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh subdirectory path inside this temp dir (not yet created).
    pub fn subdir(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Byte-for-byte copy of a flat store directory — the "crash point"
/// snapshot: everything the dying process had on disk, nothing it held in
/// memory.
pub fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("crash copy: create target dir");
    for entry in std::fs::read_dir(from).expect("crash copy: list source dir") {
        let entry = entry.expect("crash copy: read entry");
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("crash copy: copy file");
        }
    }
}

/// Truncates `file` to `len` bytes — simulates a crash that left only a
/// prefix of the final append on disk.
pub fn truncate_file(file: &Path, len: u64) {
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(file)
        .expect("truncate: open");
    f.set_len(len).expect("truncate: set_len");
}

// ---- comparison -------------------------------------------------------------

/// [`assert_same_hits`] plus bit-identical score equality (`f32::to_bits`)
/// — the recovery bar: a recovered engine serves the *same floats*, not
/// merely close ones.
pub fn assert_same_hits_bitwise(
    context: &str,
    a: &lcdd_engine::SearchResponse,
    b: &lcdd_engine::SearchResponse,
) {
    assert_same_hits(context, a, b);
    for (rank, (ha, hb)) in a.hits.iter().zip(&b.hits).enumerate() {
        assert_eq!(
            ha.score.to_bits(),
            hb.score.to_bits(),
            "{context}: rank {rank} score not bit-identical: {} vs {}",
            ha.score,
            hb.score
        );
    }
}

/// A query battery covering the base corpus, scripted inserts and a probe
/// with no planted match.
pub fn battery(base: &[Table], script: &[ScriptedOp], n: usize) -> Vec<Query> {
    let mut queries: Vec<Query> = Vec::new();
    for t in base.iter().take(n) {
        queries.push(query_like(t));
    }
    for op in script {
        if let ScriptedOp::Insert(tables) = op {
            if let Some(t) = tables.first() {
                queries.push(query_like(t));
            }
        }
        if queries.len() >= 2 * n {
            break;
        }
    }
    queries.push(Query::from_series(vec![(0..64)
        .map(|j| ((j * j) as f64).sin() * 40.0 - 17.0)
        .collect()]));
    queries
}

/// Asserts a recovered durable engine answers exactly like the serial
/// oracle: same epoch, same live count, and for every battery query under
/// both `Hybrid` and `NoIndex`, hit-for-hit equality with bit-identical
/// scores.
pub fn assert_recovered_equals_serial(
    context: &str,
    recovered: &DurableEngine,
    serial: &Engine,
    queries: &[Query],
) {
    assert_eq!(
        recovered.epoch(),
        serial.epoch(),
        "{context}: epochs diverged"
    );
    assert_eq!(
        recovered.len(),
        serial.len(),
        "{context}: live table counts diverged"
    );
    let k = serial.len().max(1);
    for (qi, q) in queries.iter().enumerate() {
        for strategy in [IndexStrategy::Hybrid, IndexStrategy::NoIndex] {
            let opts = SearchOptions::top_k(k).with_strategy(strategy);
            let got = recovered.search(q, &opts);
            let want = serial.search(q, &opts);
            match (got, want) {
                (Ok(got), Ok(want)) => assert_same_hits_bitwise(
                    &format!("{context}: query {qi} ({strategy:?})"),
                    &got,
                    &want,
                ),
                (Err(g), Err(w)) => assert_eq!(
                    g.to_string(),
                    w.to_string(),
                    "{context}: query {qi} errors diverged"
                ),
                (got, want) => {
                    panic!("{context}: query {qi} diverged: recovered {got:?} vs serial {want:?}")
                }
            }
        }
    }
}

// ---- the full boundary sweep ------------------------------------------------

/// Shape of one crash-recovery sweep.
#[derive(Clone, Debug)]
pub struct CrashCase {
    pub seed: u64,
    /// Base corpus size (ids `0..n_base`).
    pub n_base: usize,
    /// Shard count the engine is built with.
    pub n_shards: usize,
    /// Scripted ops applied after the store is created.
    pub n_ops: usize,
    /// Auto-checkpoint cadence in ops (0 = only the initial checkpoint),
    /// so sweeps cover recovery both from WAL-heavy and segment-heavy
    /// stores.
    pub checkpoint_every: u64,
}

/// Runs one full sweep: applies the script through a [`DurableEngine`],
/// snapshotting the store directory after creation and after every op
/// (= every record boundary, including post-checkpoint states), then
/// recovers every snapshot — plus torn-tail variants of the final WAL —
/// and asserts equivalence with the serial oracle prefix.
///
/// Returns the number of crash points exercised.
pub fn run_crash_boundary_case(case: &CrashCase) -> usize {
    // The encode counter is process-wide: a case running beside another
    // would see the sibling's encodes as its own recovery's. Cases in one
    // process therefore run one at a time (a panicked case only poisons
    // the lock; the counter it guards stays meaningful).
    static SERIAL: Mutex<()> = Mutex::new(());
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let tmp = TempDir::new(&format!("crash-{:x}", case.seed));
    let live_dir = tmp.subdir("live");
    let base = corpus(&CorpusSpec::sized(case.seed, case.n_base));
    let opts = StoreOptions {
        sync_writes: false, // throughput; crash *consistency* is what's under test
        checkpoint_every_ops: case.checkpoint_every,
        checkpoint_every_bytes: 0,
        keep_checkpoints: 2,
        ..StoreOptions::default()
    };
    let durable = DurableEngine::create(
        &live_dir,
        tiny_engine(base.clone(), case.n_shards),
        opts.clone(),
    )
    .expect("crash case: store creation");

    let base_ids: Vec<u64> = base.iter().map(|t| t.id).collect();
    let script = random_script(case.seed, case.n_ops, &base_ids);
    let queries = battery(&base, &script, 3);

    // Crash point i = store dir after ops[0..i]. `effective` records which
    // ops were actually logged (no-op compacts/removals are not), so the
    // torn-tail sweep can map WAL records back to op indices.
    let mut crash_dirs: Vec<PathBuf> = Vec::with_capacity(case.n_ops + 1);
    let mut effective: Vec<usize> = Vec::with_capacity(case.n_ops);
    let snap = |i: usize| tmp.subdir(&format!("crash-{i}"));
    copy_dir(&live_dir, &snap(0));
    crash_dirs.push(snap(0));
    for (i, op) in script.iter().enumerate() {
        let epoch_before = durable.epoch();
        apply_durable(&durable, op);
        if durable.epoch() != epoch_before {
            effective.push(i);
        }
        copy_dir(&live_dir, &snap(i + 1));
        crash_dirs.push(snap(i + 1));
    }

    let mut crash_points = 0usize;
    let mut serial = tiny_engine(base.clone(), case.n_shards);
    for (i, dir) in crash_dirs.iter().enumerate() {
        if i > 0 {
            apply_serial(&mut serial, &script[i - 1]);
        }
        let ctx = format!(
            "seed {:#x}, {} shards, crash after {} of {} ops",
            case.seed,
            case.n_shards,
            i,
            script.len()
        );
        let before = lcdd_fcm::table_encode_count();
        let (recovered, report) =
            DurableEngine::open(dir, opts.clone()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(
            lcdd_fcm::table_encode_count(),
            before,
            "{ctx}: recovery must not re-encode any table"
        );
        assert!(report.truncated_tail.is_none(), "{ctx}: clean boundary");
        assert_recovered_equals_serial(&ctx, &recovered, &serial, &queries);
        crash_points += 1;
    }

    // Torn tails: cut the final store's active WAL mid-record. Recovery
    // must land exactly on the surviving record prefix.
    crash_points += run_torn_tail_variants(
        &tmp,
        &crash_dirs,
        &script,
        &effective,
        &base,
        case,
        &queries,
    );
    crash_points
}

/// For the final crash dir, produces mid-record truncations of the active
/// WAL and asserts each recovers to the longest surviving op prefix.
fn run_torn_tail_variants(
    tmp: &TempDir,
    crash_dirs: &[PathBuf],
    script: &[ScriptedOp],
    effective: &[usize],
    base: &[Table],
    case: &CrashCase,
    queries: &[Query],
) -> usize {
    let final_dir = crash_dirs.last().expect("at least the creation snapshot");
    let (_, manifest) = lcdd_store::latest_manifest(final_dir)
        .expect("final dir must hold a store")
        .expect("final dir must hold a manifest");
    let wal_path = final_dir.join(&manifest.wal_file);
    let scan =
        lcdd_store::wal::scan(&wal_path, manifest.wal_offset).expect("final WAL must scan clean");
    if scan.records.is_empty() {
        return 0;
    }
    // The active WAL holds the tail of *logged* ops; record j corresponds
    // to scripted op `effective[tail_start + j]`. Cutting inside record j
    // keeps every op strictly before it.
    let tail_start = effective.len() - scan.records.len();
    let mut boundaries = vec![manifest.wal_offset];
    boundaries.extend(scan.records.iter().map(|&(end, _)| end));

    let mut points = 0usize;
    for j in 0..scan.records.len() {
        let start = boundaries[j];
        let end = boundaries[j + 1];
        let survives = effective[tail_start + j];
        // A torn write can leave any strict prefix of the record's frame.
        for cut in [start + 1, start + (end - start) / 2, end - 1] {
            if cut <= start || cut >= end {
                continue;
            }
            let dir = tmp.subdir(&format!("torn-{j}-{cut}"));
            copy_dir(final_dir, &dir);
            truncate_file(&dir.join(&manifest.wal_file), cut);
            let ctx = format!(
                "seed {:#x}, torn record {j} cut at byte {cut} (ops 0..{survives} survive)",
                case.seed,
            );
            let (recovered, report) = DurableEngine::open(
                &dir,
                StoreOptions {
                    sync_writes: false,
                    ..StoreOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(
                report.truncated_tail.is_some(),
                "{ctx}: the torn tail must be reported"
            );
            let mut serial = tiny_engine(base.to_vec(), case.n_shards);
            for op in &script[..survives] {
                apply_serial(&mut serial, op);
            }
            assert_recovered_equals_serial(&ctx, &recovered, &serial, queries);
            points += 1;
        }
    }
    points
}
