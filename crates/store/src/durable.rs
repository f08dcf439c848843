//! [`DurableEngine`]: the serving engine with a durability contract, and
//! the only way an engine is saved or restored. [`DurableEngine::create`]
//! persists an engine as a store directory (meta section + one segment
//! per shard + an empty WAL + a manifest); [`DurableEngine::open`]
//! restores it — eagerly or as a mapped cold tier — and
//! [`DurableEngine::into_serving`] hands the restored engine back for
//! unlogged use. The byte layout itself lives in `lcdd_engine::persist`.
//!
//! Wraps a [`ServingEngine`] so that every corpus mutation is **logged
//! before it is published**: the op (with its already-encoded FCM delta)
//! is appended to the WAL and — under the default [`StoreOptions`] —
//! fsynced *before* the new epoch becomes visible to readers. A process
//! that crashes at any instant recovers its exact corpus from
//! {latest checkpoint segments + WAL tail}, without re-running the
//! encoder on a single resident table.
//!
//! The lock-free read path is untouched: [`DurableEngine::search`] /
//! `search_batch` delegate straight to the serving engine's epoch
//! snapshot machinery and never take the store's writer lock.
//!
//! ## Write path
//!
//! ```text
//! insert/remove/compact/reshard
//!   '- writer lock ─ encode delta (inserts only)
//!        '- WAL append (+ fdatasync)      <- durability point
//!             '- apply + publish epoch    <- visibility point
//!                  '- checkpoint policy (ops/bytes since last)
//! ```
//!
//! No-ops are not logged: an insert of zero tables, a removal matching no
//! live id, a compact with no tombstones all return without touching the
//! WAL, so every logged record bumps the epoch by exactly one — which is
//! what lets each record carry `epoch_after` and recovery reproduce the
//! uncrashed engine's epoch numbering exactly.
//!
//! ## Checkpoints
//!
//! A checkpoint writes **only the shards dirtied since the previous
//! checkpoint** (detected by `Arc` identity — the serving engine's
//! copy-on-write mutation replaces the `Arc` of every shard it touches),
//! plus a fresh WAL file and a small manifest committed by atomic rename.
//! Clean shards are carried forward by file reference, so checkpoint cost
//! is proportional to the write working set, not the corpus.
//!
//! ## Recovery
//!
//! [`DurableEngine::open`] loads the newest valid manifest, reassembles
//! the engine from its segments, replays the WAL tail (pinning each
//! replayed epoch to the logged `epoch_after`), truncates a torn final
//! record if the crash left one, and resumes serving. Corrupt files
//! surface as typed [`EngineError::Wal`] / [`EngineError::Store`] /
//! [`EngineError::Snapshot`] values — never a panic.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lcdd_engine::persist::{
    self, assemble_engine, encode_batch, live_order, meta_bytes, segment_bytes, EncodedTableBatch,
};
use lcdd_engine::{
    CacheStats, EngineError, EngineShard, EngineState, Query, SearchOptions, SearchResponse,
    ServingEngine, DEFAULT_COMPACTION_THRESHOLD,
};
use lcdd_table::Table;

use crate::codec::{read_framed, sync_dir, write_framed, wstr, wu64, SliceReader};
use crate::fault::{FaultHook, FaultPoint};
use crate::instruments;
use crate::manifest::{
    latest_manifest, latest_manifest_impl, read_manifest, write_manifest, Manifest, MANIFEST_PREFIX,
};
use crate::wal::{self, WalOp, WalRecord, WalWriter, WAL_HEADER_LEN};

pub(crate) const META_MAGIC: &[u8; 8] = b"LCDDMET1";
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"LCDDSEG1";
pub(crate) const STORE_FILE_VERSION: u32 = 1;
/// Segment files carry their own version: bumped to 2 when the payload
/// became the memory-mappable `LCDDSEG2` image (fixed-layout summary +
/// aligned f32 blob), which is what makes [`StoreOptions::cold_open`]
/// possible. Meta and manifest files stay at [`STORE_FILE_VERSION`].
pub(crate) const SEGMENT_VERSION: u32 = 2;
pub(crate) const META_FILE: &str = "meta.seg";

/// Durability policy knobs.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// `fdatasync` the WAL after every append (and `fsync` every
    /// checkpoint artifact). `true` — the default — makes an acknowledged
    /// op survive power loss; `false` trades that for append throughput
    /// while keeping *process-crash* consistency (recovery yields a clean
    /// op prefix). Under power loss without fsync, out-of-order page
    /// writeback can instead surface as a typed corruption error at
    /// recovery — never a silently wrong corpus.
    pub sync_writes: bool,
    /// Checkpoint automatically after this many logged ops (0 disables
    /// the op trigger).
    pub checkpoint_every_ops: u64,
    /// Checkpoint automatically once this many WAL bytes accumulate since
    /// the last checkpoint (0 disables the byte trigger).
    pub checkpoint_every_bytes: u64,
    /// How many checkpoints (manifest + referenced files) to retain for
    /// fallback; older ones are garbage-collected. Clamped to at least 1.
    pub keep_checkpoints: usize,
    /// Injected-failure schedule for the robustness suites (see
    /// [`crate::fault::FaultPlan`]): fail or short-write the Nth WAL
    /// append/fsync, segment write or manifest write. `None` — the
    /// default and the only sensible production value — costs one
    /// `Option` test per instrumented operation.
    pub fault: FaultHook,
    /// Open checkpoint segments as memory-mapped cold tiers instead of
    /// decoding them into RAM. Recovery then costs one checksum pass per
    /// segment (after which the pages are handed back to the OS) plus the
    /// summary decode; table payloads page in on demand as queries score
    /// them. Search results are hit-for-hit identical to an eager open —
    /// only residency changes. `false` (the default) preserves the
    /// all-resident behaviour.
    pub cold_open: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            sync_writes: true,
            checkpoint_every_ops: 64,
            checkpoint_every_bytes: 8 << 20,
            keep_checkpoints: 2,
            fault: None,
            cold_open: false,
        }
    }
}

/// What one checkpoint wrote (and avoided writing) — the write-
/// amplification evidence `bench_store` reports.
#[derive(Clone, Debug)]
pub struct CheckpointStats {
    /// Epoch the checkpoint captured.
    pub epoch: u64,
    /// Shards in the captured state.
    pub shards_total: usize,
    /// Shards whose segment was rewritten (dirtied since the previous
    /// checkpoint).
    pub shards_written: usize,
    /// Bytes of segment payload written.
    pub bytes_written: u64,
    /// Bytes of clean segment files carried forward by reference.
    pub bytes_reused: u64,
}

/// What recovery found and did.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_ops: usize,
    /// Epoch the recovered engine serves at (equals the crashed engine's
    /// last acknowledged epoch).
    pub recovered_epoch: u64,
    /// Present when a torn final record was truncated away; describes
    /// what was dropped.
    pub truncated_tail: Option<String>,
    /// True when the newest manifest failed validation and recovery fell
    /// back to an older checkpoint. **Acknowledged ops logged after the
    /// newer (corrupt) checkpoint are NOT recovered** — they live in that
    /// checkpoint's WAL/segment files, which GC deliberately preserves
    /// (never deleting files newer than the retained manifests) so an
    /// operator can attempt manual salvage.
    pub fallback: bool,
}

/// A position in a store's WAL chain: the log file a reader has reached
/// and the byte offset just past the last record frame it consumed.
/// Cursors are handed out by [`DurableEngine::wal_tail_cursor`] /
/// [`DurableEngine::wal_cursor_for_epoch`] and advanced by
/// [`DurableEngine::wal_records_since`] — the leader half of WAL-shipping
/// replication uses them to resume a follower from exactly where it left
/// off.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalCursor {
    /// WAL file name within the store directory (`wal-<epoch>.log`).
    pub file: String,
    /// Byte offset just past the last consumed record frame.
    pub offset: u64,
}

/// Outcome of [`DurableEngine::apply_replicated`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicatedApply {
    /// The record advanced this replica by exactly one epoch (logged to
    /// the replica's own WAL first, then applied and published).
    Applied,
    /// The record's `epoch_after` was at or below the replica's epoch — a
    /// duplicate delivery, skipped idempotently without logging.
    AlreadyApplied,
}

/// A full checkpoint captured for shipping to a follower that cannot be
/// caught up record-by-record (first attach, or a resync after checksum
/// mismatch / WAL-chain truncation). Carries the manifest plus the raw
/// framed bytes of every file it references; each file keeps its own
/// checksum frame, so corruption in transit is caught at install or open
/// time, never served.
#[derive(Clone, Debug)]
pub struct CheckpointPackage {
    /// The checkpoint's manifest, normalized to replay from an empty WAL
    /// (records after the checkpoint arrive through the stream instead).
    pub manifest: Manifest,
    /// `(file name, raw framed contents)` for the meta section and every
    /// segment the manifest references.
    pub files: Vec<(String, Vec<u8>)>,
}

impl CheckpointPackage {
    /// Total payload bytes across the packaged files.
    pub fn payload_bytes(&self) -> u64 {
        self.files.iter().map(|(_, b)| b.len() as u64).sum()
    }

    /// Serializes the package for shipping.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let man = self.manifest.to_payload();
        wu64(&mut p, man.len() as u64);
        p.extend_from_slice(&man);
        wu64(&mut p, self.files.len() as u64);
        for (name, bytes) in &self.files {
            wstr(&mut p, name);
            wu64(&mut p, bytes.len() as u64);
            p.extend_from_slice(bytes);
        }
        p
    }

    /// Parses bytes produced by [`CheckpointPackage::to_bytes`].
    /// Malformed input is [`EngineError::Replication`] — the receiver's
    /// response is to request the package again, not to crash.
    pub fn from_bytes(bytes: &[u8]) -> Result<CheckpointPackage, EngineError> {
        let repl = |e: EngineError| EngineError::Replication(format!("checkpoint package: {e}"));
        let cap = |n: usize, what: &str| {
            if n > crate::codec::MAX_PAYLOAD_BYTES {
                Err(EngineError::Replication(format!(
                    "checkpoint package: implausible {what} length {n}"
                )))
            } else {
                Ok(n)
            }
        };
        let mut r = SliceReader::new(bytes);
        let man_len = cap(r.ru64().map_err(repl)? as usize, "manifest")?;
        let man_bytes = r.take(man_len).map_err(repl)?;
        let manifest = Manifest::from_payload(man_bytes, "shipped manifest").map_err(repl)?;
        let n_files = r.ru64().map_err(repl)? as usize;
        if n_files == 0 || n_files > 65_537 {
            return Err(EngineError::Replication(format!(
                "checkpoint package: implausible file count {n_files}"
            )));
        }
        let mut files = Vec::with_capacity(n_files);
        for _ in 0..n_files {
            let name = r.rstr().map_err(repl)?;
            let len = cap(r.ru64().map_err(repl)? as usize, "file")?;
            files.push((name, r.take(len).map_err(repl)?.to_vec()));
        }
        if r.remaining() != 0 {
            return Err(EngineError::Replication(format!(
                "checkpoint package: {} trailing bytes",
                r.remaining()
            )));
        }
        Ok(CheckpointPackage { manifest, files })
    }
}

struct StoreInner {
    wal: WalWriter,
    /// Ops logged since the last checkpoint.
    ops_since: u64,
    /// WAL bytes appended since the last checkpoint.
    bytes_since: u64,
    /// The authoritative (newest durable) manifest.
    current: Manifest,
    /// The shard `Arc`s as of the last checkpoint — `Arc::ptr_eq` against
    /// the live state identifies dirty shards. `None` forces the next
    /// checkpoint to rewrite everything (recovery with replayed ops).
    ckpt_shards: Option<Vec<Arc<EngineShard>>>,
    /// The failure of the most recent *automatic* checkpoint attempt, if
    /// any. Auto-checkpoints are best-effort: the triggering op is already
    /// logged and durable, so its result must not report a checkpoint
    /// problem as an op failure (see [`DurableEngine::last_checkpoint_error`]).
    checkpoint_error: Option<String>,
}

/// A [`ServingEngine`] whose corpus mutations are durable: WAL-logged
/// before publication, checkpointed incrementally, crash-recoverable via
/// [`DurableEngine::open`].
///
/// All mutation must go through this handle (the wrapped serving engine is
/// deliberately not exposed — a direct mutation would bypass the log and
/// silently void the recovery guarantee). Reads are lock-free exactly as
/// on [`ServingEngine`].
pub struct DurableEngine {
    serving: ServingEngine,
    dir: PathBuf,
    opts: StoreOptions,
    inner: Mutex<StoreInner>,
}

impl DurableEngine {
    // ---- lifecycle -------------------------------------------------------

    /// Initialises a fresh store at `dir` (created if absent) around
    /// `engine`: writes the meta section, a full checkpoint of every
    /// shard, an empty WAL and the first manifest. Fails with
    /// [`EngineError::Store`] if `dir` already holds a store — use
    /// [`DurableEngine::open`] to recover one.
    pub fn create(
        dir: impl AsRef<Path>,
        engine: lcdd_engine::Engine,
        opts: StoreOptions,
    ) -> Result<DurableEngine, EngineError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        if latest_manifest(&dir)?.is_some() {
            return Err(EngineError::Store(format!(
                "{} already holds a store; open it instead of creating over it",
                dir.display()
            )));
        }
        let epoch = engine.epoch();
        write_framed(
            &dir.join(META_FILE),
            META_MAGIC,
            STORE_FILE_VERSION,
            &meta_bytes(&engine)?,
            &opts.fault,
            FaultPoint::SegmentWrite,
        )?;
        let state = engine.state();
        let mut segments = Vec::with_capacity(state.shards().len());
        for i in 0..state.shards().len() {
            let name = segment_file_name(epoch, i);
            write_framed(
                &dir.join(&name),
                SEGMENT_MAGIC,
                SEGMENT_VERSION,
                &segment_bytes(state, i)?,
                &opts.fault,
                FaultPoint::SegmentWrite,
            )?;
            segments.push(name);
        }
        let wal_file = wal_file_name(epoch);
        let mut wal = WalWriter::create(&dir.join(&wal_file), opts.sync_writes)?;
        wal.set_fault(opts.fault.clone());
        let manifest = Manifest {
            epoch,
            meta_file: META_FILE.to_string(),
            segments,
            wal_file,
            wal_offset: WAL_HEADER_LEN,
            order: live_order(state)?,
        };
        write_manifest(&dir, &manifest, &opts.fault)?;
        let serving = ServingEngine::new(engine);
        let ckpt_shards = Some(serving.snapshot().shards().to_vec());
        Ok(DurableEngine {
            serving,
            dir,
            opts,
            inner: Mutex::new(StoreInner {
                wal,
                ops_since: 0,
                bytes_since: 0,
                current: manifest,
                ckpt_shards,
                checkpoint_error: None,
            }),
        })
    }

    /// Recovers the store at `dir`: newest valid manifest → segments →
    /// WAL-tail replay → torn-tail truncation → serving. Replay splices
    /// the logged encodings back in without invoking the FCM encoder
    /// (`lcdd_fcm::table_encode_count` is flat across this call).
    ///
    /// Serving configuration is not corpus state: the recovered engine
    /// uses the oracle extractor and the default compaction threshold.
    pub fn open(
        dir: impl AsRef<Path>,
        opts: StoreOptions,
    ) -> Result<(DurableEngine, RecoveryReport), EngineError> {
        let recovery_start = std::time::Instant::now();
        let dir = dir.as_ref().to_path_buf();
        let (_, manifest, fallback) = latest_manifest_impl(&dir)?.ok_or_else(|| {
            EngineError::Store(format!("{}: no manifest (not a store?)", dir.display()))
        })?;
        let meta = read_framed(
            &dir.join(&manifest.meta_file),
            META_MAGIC,
            STORE_FILE_VERSION,
        )?;
        let mut engine = if opts.cold_open {
            // Cold tier: segments are mapped, checksum-verified and
            // summary-parsed, but no slot payload is decoded here — nor
            // anywhere below: WAL replay splices logged encodings in as
            // *new* resident slots and only an eviction that crosses the
            // compaction threshold materializes a mapped shard.
            let paths: Vec<PathBuf> = manifest.segments.iter().map(|n| dir.join(n)).collect();
            persist::assemble_engine_mapped(
                &meta,
                manifest.order.clone(),
                &paths,
                manifest.epoch,
                SEGMENT_MAGIC,
                SEGMENT_VERSION,
            )?
        } else {
            let segments: Vec<Vec<u8>> = manifest
                .segments
                .iter()
                .map(|name| read_framed(&dir.join(name), SEGMENT_MAGIC, SEGMENT_VERSION))
                .collect::<Result<_, _>>()?;
            assemble_engine(&meta, manifest.order.clone(), &segments, manifest.epoch)?
        };
        // Captured *before* replay: these Arcs mirror the segment files on
        // disk, so the next checkpoint's dirty detection stays exact even
        // for the shards replay is about to touch.
        let ckpt_shards: Vec<Arc<EngineShard>> = engine.state().shards().to_vec();

        let wal_path = dir.join(&manifest.wal_file);
        let scan = wal::scan(&wal_path, manifest.wal_offset)?;
        for (offset, record) in &scan.records {
            apply_record(&mut engine, record).map_err(|e| match e {
                EngineError::Wal(m) => {
                    EngineError::Wal(format!("replay of record ending at {offset}: {m}"))
                }
                other => other,
            })?;
        }
        engine.set_compaction_threshold(DEFAULT_COMPACTION_THRESHOLD);
        let recovered_epoch = engine.epoch();
        let mut wal = WalWriter::open(&wal_path, scan.valid_len, opts.sync_writes)?;
        wal.set_fault(opts.fault.clone());
        let report = RecoveryReport {
            checkpoint_epoch: manifest.epoch,
            replayed_ops: scan.records.len(),
            recovered_epoch,
            truncated_tail: scan.torn.clone(),
            fallback,
        };
        let bytes_since = scan.valid_len - manifest.wal_offset;
        let ops_since = scan.records.len() as u64;
        instruments::recoveries_total().inc();
        instruments::replayed_records().set(report.replayed_ops as u64);
        instruments::recovery_ms().set(recovery_start.elapsed().as_millis() as u64);
        Ok((
            DurableEngine {
                serving: ServingEngine::new(engine),
                dir,
                opts,
                inner: Mutex::new(StoreInner {
                    wal,
                    ops_since,
                    bytes_since,
                    current: manifest,
                    ckpt_shards: Some(ckpt_shards),
                    checkpoint_error: None,
                }),
            },
            report,
        ))
    }

    /// Tears the durable wrapper down to the inner serving engine (the
    /// store files stay on disk and can be [`DurableEngine::open`]ed
    /// again; further mutation through the returned engine is NOT logged).
    pub fn into_serving(self) -> ServingEngine {
        self.serving
    }

    // ---- read side (lock-free, delegating to the serving engine) --------

    /// Answers one typed query against the current published snapshot.
    pub fn search(
        &self,
        query: &Query,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        self.serving.search(query, opts)
    }

    /// Answers a batch of queries from one snapshot (single epoch).
    pub fn search_batch(
        &self,
        queries: &[Query],
        opts: &SearchOptions,
    ) -> Vec<Result<SearchResponse, EngineError>> {
        self.serving.search_batch(queries, opts)
    }

    /// Pins the current corpus snapshot (see [`ServingEngine::snapshot`]).
    pub fn snapshot(&self) -> Arc<EngineState> {
        self.serving.snapshot()
    }

    /// Answers a query against a pinned snapshot (see
    /// [`ServingEngine::search_at`]).
    pub fn search_at(
        &self,
        state: &EngineState,
        query: &Query,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        self.serving.search_at(state, query, opts)
    }

    /// Answers a batch against a pinned snapshot, through the query cache
    /// (see [`ServingEngine::search_batch_at`] — the gateway's coalesced
    /// single-epoch batch path).
    pub fn search_batch_at(
        &self,
        state: &Arc<EngineState>,
        queries: &[Query],
        opts: &SearchOptions,
    ) -> Vec<Result<SearchResponse, EngineError>> {
        self.serving.search_batch_at(state, queries, opts)
    }

    /// Query-cache counters of the underlying serving engine (lock-free
    /// atomics — the gateway's `/metrics` path reads them on every scrape).
    pub fn cache_stats(&self) -> CacheStats {
        self.serving.cache_stats()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.serving.epoch()
    }

    /// Number of live tables in the published state.
    pub fn len(&self) -> usize {
        self.serving.len()
    }

    /// True when the published state holds no live tables.
    pub fn is_empty(&self) -> bool {
        self.serving.is_empty()
    }

    /// Current WAL length in bytes (including the file header).
    pub fn wal_len(&self) -> u64 {
        self.lock().wal.len()
    }

    // ---- write side ------------------------------------------------------

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Logs `record`, applies `apply`, updates the checkpoint policy
    /// counters. The WAL append (with fsync under the default options)
    /// strictly precedes the publish inside `apply` — the crash-
    /// consistency invariant everything else rests on.
    fn log_then_apply<T>(
        &self,
        inner: &mut StoreInner,
        record: WalRecord,
        apply: impl FnOnce() -> T,
    ) -> Result<T, EngineError> {
        let before = inner.wal.len();
        inner.wal.append(&record)?;
        let out = apply();
        inner.ops_since += 1;
        inner.bytes_since += inner.wal.len() - before;
        Ok(out)
    }

    /// Runs the checkpoint policy. Best-effort by design: the op that
    /// triggered it is already logged and durable, so a checkpoint failure
    /// is stashed (read it via [`DurableEngine::last_checkpoint_error`])
    /// instead of being misreported as an op failure — the store keeps
    /// running WAL-heavy and retries at the next trigger.
    fn maybe_checkpoint(&self, inner: &mut StoreInner) {
        let by_ops =
            self.opts.checkpoint_every_ops > 0 && inner.ops_since >= self.opts.checkpoint_every_ops;
        let by_bytes = self.opts.checkpoint_every_bytes > 0
            && inner.bytes_since >= self.opts.checkpoint_every_bytes;
        if by_ops || by_bytes {
            if let Err(e) = self.checkpoint_locked(inner) {
                inner.checkpoint_error = Some(e.to_string());
            }
        }
    }

    /// The failure message of the most recent automatic checkpoint
    /// attempt, if it failed; cleared by the next successful checkpoint.
    pub fn last_checkpoint_error(&self) -> Option<String> {
        self.lock().checkpoint_error.clone()
    }

    /// Ingests new tables durably: encodes the delta, logs the encoded
    /// batch, then splices it in and publishes. Returns the assigned
    /// global positions. On error the corpus is unchanged.
    pub fn insert_tables(&self, tables: Vec<Table>) -> Result<Vec<usize>, EngineError> {
        if tables.is_empty() {
            return Ok(Vec::new());
        }
        // Encode outside the store lock: the encoder reads only the
        // immutable model, and it dominates insert latency — other
        // mutations and wal_len()-style probes need not wait behind it.
        let batch = encode_batch(self.serving.model(), &tables);
        let batch_bytes = batch.to_bytes()?;
        let mut inner = self.lock();
        let record = WalRecord {
            epoch_after: self.serving.epoch() + 1,
            op: WalOp::Insert { batch: batch_bytes },
        };
        let assigned =
            self.log_then_apply(&mut inner, record, || self.serving.insert_encoded(batch))?;
        self.maybe_checkpoint(&mut inner);
        Ok(assigned)
    }

    /// Evicts live tables by id durably. Returns the number removed. A
    /// removal matching no live table is a no-op and is not logged.
    pub fn remove_tables(&self, ids: &[u64]) -> Result<usize, EngineError> {
        let mut inner = self.lock();
        let state = self.serving.snapshot();
        // Liveness pre-check so a no-op removal is never logged (the
        // epoch_after invariant requires every record to bump by one).
        // Short-circuits on the first live hit; only a fully no-op call
        // pays a complete scan on top of the removal's own pass.
        let id_set: HashSet<u64> = ids.iter().copied().collect();
        let any_live = (0..state.len()).any(|i| id_set.contains(&state.table_meta(i).id));
        if !any_live {
            return Ok(0);
        }
        let record = WalRecord {
            epoch_after: state.epoch() + 1,
            op: WalOp::Remove {
                ids: ids.to_vec(),
                threshold: self.serving.compaction_threshold(),
            },
        };
        let removed =
            self.log_then_apply(&mut inner, record, || self.serving.remove_tables(ids))?;
        self.maybe_checkpoint(&mut inner);
        Ok(removed)
    }

    /// Compacts tombstoned shards durably. A compact with nothing to
    /// reclaim is a no-op and is not logged.
    pub fn compact(&self) -> Result<(), EngineError> {
        let mut inner = self.lock();
        let state = self.serving.snapshot();
        if state.shards().iter().all(|sh| sh.n_dead() == 0) {
            return Ok(());
        }
        let record = WalRecord {
            epoch_after: state.epoch() + 1,
            op: WalOp::Compact,
        };
        self.log_then_apply(&mut inner, record, || self.serving.compact())?;
        self.maybe_checkpoint(&mut inner);
        Ok(())
    }

    /// Redistributes the corpus across `n_shards` durably.
    pub fn reshard(&self, n_shards: usize) -> Result<(), EngineError> {
        if n_shards == 0 {
            return Err(EngineError::InvalidConfig(
                "reshard: shard count must be at least 1".into(),
            ));
        }
        let mut inner = self.lock();
        let record = WalRecord {
            epoch_after: self.serving.epoch() + 1,
            op: WalOp::Reshard { n_shards },
        };
        self.log_then_apply(&mut inner, record, || self.serving.reshard(n_shards))??;
        self.maybe_checkpoint(&mut inner);
        Ok(())
    }

    /// Sets the auto-compaction threshold for future removals. Not logged
    /// by itself — each removal record captures the threshold in effect.
    pub fn set_compaction_threshold(&self, frac: f64) {
        let _guard = self.lock();
        self.serving.set_compaction_threshold(frac);
    }

    /// Takes a checkpoint now: writes segments for every shard dirtied
    /// since the last checkpoint, starts a fresh WAL, and commits a new
    /// manifest atomically. Old checkpoints beyond
    /// [`StoreOptions::keep_checkpoints`] are garbage-collected.
    pub fn checkpoint(&self) -> Result<CheckpointStats, EngineError> {
        let mut inner = self.lock();
        self.checkpoint_locked(&mut inner)
    }

    /// Instrumented wrapper around the checkpoint body: counts
    /// successes/failures and records duration and bytes written into the
    /// process-wide registry.
    fn checkpoint_locked(&self, inner: &mut StoreInner) -> Result<CheckpointStats, EngineError> {
        let start = std::time::Instant::now();
        let out = self.checkpoint_body(inner);
        match &out {
            Ok(stats) => {
                instruments::checkpoints_total().inc();
                instruments::checkpoint_bytes_written_total().add(stats.bytes_written);
                instruments::checkpoint_duration_ms().record(start.elapsed().as_millis() as u64);
            }
            Err(_) => instruments::checkpoint_failures_total().inc(),
        }
        out
    }

    fn checkpoint_body(&self, inner: &mut StoreInner) -> Result<CheckpointStats, EngineError> {
        let state = self.serving.snapshot();
        let epoch = state.epoch();
        let shards = state.shards();
        if epoch == inner.current.epoch {
            // Nothing was logged since the last checkpoint captured this
            // epoch; the manifest on disk is already exact.
            inner.ops_since = 0;
            inner.bytes_since = 0;
            inner.checkpoint_error = None;
            return Ok(CheckpointStats {
                epoch,
                shards_total: shards.len(),
                shards_written: 0,
                bytes_written: 0,
                bytes_reused: 0,
            });
        }
        let mut stats = CheckpointStats {
            epoch,
            shards_total: shards.len(),
            shards_written: 0,
            bytes_written: 0,
            bytes_reused: 0,
        };
        let mut segments = Vec::with_capacity(shards.len());
        for (i, sh) in shards.iter().enumerate() {
            let clean = inner.ckpt_shards.as_ref().is_some_and(|old| {
                old.len() == shards.len()
                    && inner.current.segments.len() == shards.len()
                    && Arc::ptr_eq(&old[i], sh)
            });
            if clean {
                let name = inner.current.segments[i].clone();
                stats.bytes_reused += std::fs::metadata(self.dir.join(&name))
                    .map(|m| m.len())
                    .unwrap_or(0);
                segments.push(name);
            } else {
                let name = segment_file_name(epoch, i);
                let payload = segment_bytes(&state, i)?;
                stats.bytes_written += payload.len() as u64;
                stats.shards_written += 1;
                write_framed(
                    &self.dir.join(&name),
                    SEGMENT_MAGIC,
                    SEGMENT_VERSION,
                    &payload,
                    &self.opts.fault,
                    FaultPoint::SegmentWrite,
                )?;
                segments.push(name);
            }
        }
        // Fresh WAL per checkpoint: the new manifest's replay starts at an
        // empty log, and the old WAL file stays untouched for fallback
        // recovery from the previous manifest.
        let wal_file = wal_file_name(epoch);
        let mut new_wal = WalWriter::create(&self.dir.join(&wal_file), self.opts.sync_writes)?;
        new_wal.set_fault(self.opts.fault.clone());
        let manifest = Manifest {
            epoch,
            meta_file: inner.current.meta_file.clone(),
            segments,
            wal_file,
            wal_offset: WAL_HEADER_LEN,
            order: live_order(&state)?,
        };
        write_manifest(&self.dir, &manifest, &self.opts.fault)?;
        inner.wal = new_wal;
        instruments::wal_rotations_total().inc();
        inner.ops_since = 0;
        inner.bytes_since = 0;
        inner.current = manifest;
        inner.ckpt_shards = Some(shards.to_vec());
        inner.checkpoint_error = None;
        self.collect_garbage(inner);
        Ok(stats)
    }

    /// Deletes manifests beyond the retention count and any `seg-` /
    /// `wal-` / temp file no retained manifest references. Only manifests
    /// that *validate* count toward retention — an unreadable manifest
    /// cannot protect its data files, so keeping it would silently evict
    /// an older, still-usable fallback checkpoint. Files from epochs
    /// **newer** than the newest retained manifest are never deleted:
    /// after a manifest-corruption fallback they are the only copy of
    /// acknowledged ops, kept for manual salvage (a later checkpoint
    /// reaching that epoch overwrites them in place). Best effort: GC
    /// failures never fail the checkpoint that triggered them.
    fn collect_garbage(&self, inner: &StoreInner) {
        let keep = self.opts.keep_checkpoints.max(1);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let names: Vec<String> = entries
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .collect();
        let mut valid_manifests: Vec<(String, Manifest)> = names
            .iter()
            .filter(|n| n.starts_with(MANIFEST_PREFIX))
            .filter_map(|n| {
                read_manifest(&self.dir.join(n))
                    .ok()
                    .map(|m| (n.clone(), m))
            })
            .collect();
        // Newest first (names embed the epoch in fixed-width hex).
        valid_manifests.sort_by(|a, b| b.0.cmp(&a.0));
        let mut referenced: HashSet<String> = HashSet::new();
        referenced.insert(inner.current.meta_file.clone());
        let mut retained: HashSet<&String> = HashSet::new();
        let mut newest_retained_epoch = 0u64;
        for (name, man) in valid_manifests.iter().take(keep) {
            retained.insert(name);
            newest_retained_epoch = newest_retained_epoch.max(man.epoch);
            referenced.insert(man.meta_file.clone());
            referenced.insert(man.wal_file.clone());
            referenced.extend(man.segments.iter().cloned());
        }
        let superseded = |name: &str| file_epoch(name).is_some_and(|e| e <= newest_retained_epoch);
        for name in &names {
            let stale_manifest =
                name.starts_with(MANIFEST_PREFIX) && !retained.contains(name) && superseded(name);
            let stale_data = (name.starts_with("seg-") || name.starts_with("wal-"))
                && !referenced.contains(name)
                && superseded(name);
            let stale_tmp = name.starts_with(".tmp-");
            if stale_manifest || stale_data || stale_tmp {
                let _ = std::fs::remove_file(self.dir.join(name));
            }
        }
        sync_dir(&self.dir);
    }

    // ---- replication side ------------------------------------------------
    //
    // The leader half of WAL shipping (`lcdd_repl`) tails this store's own
    // log files through the cursor APIs below; the follower half applies
    // shipped records through [`DurableEngine::apply_replicated`], so a
    // replica is itself a fully crash-recoverable store. Errors meaning
    // "this cursor or stream is unusable as-is — resync" are typed
    // [`EngineError::Replication`]; the shipping layer reacts with
    // resume-from-offset or a full checkpoint transfer, never a panic.

    /// The cursor one past the last durable record — where a freshly
    /// attached follower that is already at [`DurableEngine::epoch`]
    /// starts tailing.
    pub fn wal_tail_cursor(&self) -> WalCursor {
        let inner = self.lock();
        WalCursor {
            file: inner.current.wal_file.clone(),
            offset: inner.wal.len(),
        }
    }

    /// Every record logged after `cursor`, in log order, with the cursor
    /// just past the last one. Walks the chain of rotated WAL files
    /// (checkpoints start a fresh log), holding the store lock so
    /// rotation and GC cannot race the read. A cursor the chain no longer
    /// covers (its file was garbage-collected, or its offset does not lie
    /// on a record boundary) is [`EngineError::Replication`] — the
    /// follower needs a checkpoint transfer instead.
    pub fn wal_records_since(
        &self,
        cursor: &WalCursor,
    ) -> Result<(Vec<WalRecord>, WalCursor), EngineError> {
        let inner = self.lock();
        self.collect_chain(&inner, cursor.clone(), None)
    }

    /// The cursor just past the record that produced `target` — where a
    /// follower already at epoch `target` resumes tailing. Starts from
    /// the newest on-disk checkpoint at or below `target` and walks
    /// forward. [`EngineError::Replication`] when the history needed is
    /// gone (garbage-collected) or `target` is beyond this store's
    /// durable epoch.
    pub fn wal_cursor_for_epoch(&self, target: u64) -> Result<WalCursor, EngineError> {
        let inner = self.lock();
        let mut base: Option<Manifest> = None;
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| EngineError::Replication(format!("cannot list store dir: {e}")))?;
        for entry in entries.flatten() {
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if !name.starts_with(MANIFEST_PREFIX) {
                continue;
            }
            let Ok(m) = read_manifest(&self.dir.join(&name)) else {
                continue;
            };
            if m.epoch <= target && base.as_ref().is_none_or(|b| m.epoch > b.epoch) {
                base = Some(m);
            }
        }
        let Some(base) = base else {
            return Err(EngineError::Replication(format!(
                "no checkpoint at or below epoch {target} (history garbage-collected)"
            )));
        };
        let cursor = WalCursor {
            file: base.wal_file.clone(),
            offset: base.wal_offset,
        };
        if base.epoch == target {
            return Ok(cursor);
        }
        let (records, cursor) = self.collect_chain(&inner, cursor, Some(target))?;
        match records.last() {
            Some(r) if r.epoch_after == target => Ok(cursor),
            _ => Err(EngineError::Replication(format!(
                "epoch {target} is beyond this store's durable history"
            ))),
        }
    }

    /// Walks the WAL chain from `cursor`, collecting records until the
    /// live log is exhausted or (with `stop_at`) a record reaches that
    /// epoch. Caller holds the store lock (`inner` witnesses it), so the
    /// chain is stable underneath.
    fn collect_chain(
        &self,
        inner: &StoreInner,
        mut cursor: WalCursor,
        stop_at: Option<u64>,
    ) -> Result<(Vec<WalRecord>, WalCursor), EngineError> {
        let mut out = Vec::new();
        loop {
            let path = self.dir.join(&cursor.file);
            if !path.exists() {
                return Err(EngineError::Replication(format!(
                    "WAL file {} no longer exists (chain garbage-collected past the cursor)",
                    cursor.file
                )));
            }
            let scan = wal::scan(&path, cursor.offset)
                .map_err(|e| EngineError::Replication(format!("tailing {}: {e}", cursor.file)))?;
            for (end, record) in scan.records {
                let epoch = record.epoch_after;
                out.push(record);
                cursor.offset = end;
                if stop_at == Some(epoch) {
                    return Ok((out, cursor));
                }
            }
            if cursor.file == inner.current.wal_file {
                return Ok((out, cursor));
            }
            // This file was rotated out by a checkpoint; move to the
            // next log in the chain (smallest epoch above this file's).
            let cur_epoch = file_epoch(&cursor.file).ok_or_else(|| {
                EngineError::Replication(format!("unparseable WAL file name {}", cursor.file))
            })?;
            cursor = WalCursor {
                file: self.next_wal_file(cur_epoch)?,
                offset: WAL_HEADER_LEN,
            };
        }
    }

    /// The WAL file with the smallest embedded epoch above `after`, or
    /// [`EngineError::Replication`] if the chain is broken there.
    fn next_wal_file(&self, after: u64) -> Result<String, EngineError> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| EngineError::Replication(format!("cannot list store dir: {e}")))?;
        let mut best: Option<(u64, String)> = None;
        for entry in entries.flatten() {
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if !name.starts_with("wal-") {
                continue;
            }
            let Some(epoch) = file_epoch(&name) else {
                continue;
            };
            if epoch > after && best.as_ref().is_none_or(|(b, _)| epoch < *b) {
                best = Some((epoch, name));
            }
        }
        best.map(|(_, name)| name).ok_or_else(|| {
            EngineError::Replication(format!(
                "WAL chain broken: no successor log after epoch {after}"
            ))
        })
    }

    /// Captures the current checkpoint for shipping to a follower: the
    /// authoritative manifest plus the raw bytes of every file it
    /// references, read under the store lock so a concurrent checkpoint
    /// or GC cannot swap files out mid-read. The shipped manifest is
    /// normalized to replay from an empty WAL — records logged after the
    /// checkpoint travel through the record stream instead.
    pub fn export_checkpoint(&self) -> Result<CheckpointPackage, EngineError> {
        let inner = self.lock();
        let manifest = Manifest {
            wal_offset: WAL_HEADER_LEN,
            ..inner.current.clone()
        };
        let mut names: Vec<String> = Vec::with_capacity(manifest.segments.len() + 1);
        names.push(manifest.meta_file.clone());
        names.extend(manifest.segments.iter().cloned());
        names.dedup();
        let mut files = Vec::with_capacity(names.len());
        for name in names {
            let bytes = std::fs::read(self.dir.join(&name)).map_err(|e| {
                EngineError::Store(format!("export checkpoint: cannot read {name}: {e}"))
            })?;
            files.push((name, bytes));
        }
        Ok(CheckpointPackage { manifest, files })
    }

    /// Materializes a shipped checkpoint into `dir` (created if absent).
    /// Write order is crash-safe: data files first, then a fresh empty
    /// WAL, then the manifest — the commit point. A crash at any earlier
    /// instant leaves no manifest, so the directory is simply not (yet) a
    /// store; after this returns, [`DurableEngine::open`] on `dir`
    /// recovers exactly the packaged epoch.
    pub fn install_checkpoint(
        dir: impl AsRef<Path>,
        package: &CheckpointPackage,
    ) -> Result<(), EngineError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let have = |name: &String| package.files.iter().any(|(n, _)| n == name);
        for name in
            std::iter::once(&package.manifest.meta_file).chain(package.manifest.segments.iter())
        {
            if !have(name) {
                return Err(EngineError::Replication(format!(
                    "checkpoint package does not carry {name}, which its manifest references"
                )));
            }
        }
        for (name, bytes) in &package.files {
            // File names come off the wire: only bare names may touch
            // the target directory.
            if name.is_empty() || name.contains('/') || name.contains('\\') || name.contains("..") {
                return Err(EngineError::Replication(format!(
                    "checkpoint package file name {name:?} is not a bare file name"
                )));
            }
            let mut f = std::fs::File::create(dir.join(name))?;
            std::io::Write::write_all(&mut f, bytes)?;
            f.sync_all()?;
        }
        WalWriter::create(&dir.join(&package.manifest.wal_file), true)?;
        write_manifest(dir, &package.manifest, &None)?;
        Ok(())
    }

    /// Applies one record shipped from a leader. The replica logs the
    /// record to its **own** WAL first (so it is itself crash-
    /// recoverable), then applies and publishes — the same
    /// log-before-publish discipline as local mutation, and replay never
    /// re-runs the encoder because insert records carry the leader's
    /// already-encoded batch.
    ///
    /// Sequencing by `epoch_after` (every logged record bumps the epoch
    /// by exactly one): a duplicate delivery is skipped idempotently, a
    /// gap is [`EngineError::Replication`] — the caller resumes from its
    /// real offset or requests a checkpoint transfer.
    pub fn apply_replicated(&self, record: &WalRecord) -> Result<ReplicatedApply, EngineError> {
        let mut inner = self.lock();
        let current = self.serving.epoch();
        if record.epoch_after <= current {
            return Ok(ReplicatedApply::AlreadyApplied);
        }
        if record.epoch_after != current + 1 {
            return Err(EngineError::Replication(format!(
                "sequence gap: replica at epoch {current}, record jumps to {}",
                record.epoch_after
            )));
        }
        // Validate before logging: a record that cannot apply must never
        // enter this replica's WAL (replay would hit the same wall).
        let parsed_batch = match &record.op {
            WalOp::Insert { batch } => Some(EncodedTableBatch::from_bytes(batch).map_err(|e| {
                EngineError::Replication(format!("shipped insert batch does not parse: {e}"))
            })?),
            WalOp::Reshard { n_shards } if *n_shards == 0 => {
                return Err(EngineError::Replication(
                    "shipped reshard to zero shards".into(),
                ));
            }
            _ => None,
        };
        self.log_then_apply(&mut inner, record.clone(), || -> Result<(), EngineError> {
            match &record.op {
                WalOp::Insert { .. } => {
                    if let Some(batch) = parsed_batch {
                        self.serving.insert_encoded(batch);
                    }
                }
                WalOp::Remove { ids, threshold } => {
                    self.serving.set_compaction_threshold(*threshold);
                    self.serving.remove_tables(ids);
                }
                WalOp::Compact => {
                    self.serving.compact();
                }
                WalOp::Reshard { n_shards } => self.serving.reshard(*n_shards)?,
            }
            // Apply semantics can differ benignly from the leader's (a
            // logged compact that finds nothing to reclaim here); the
            // published epoch must not.
            self.serving.pin_epoch(record.epoch_after);
            Ok(())
        })??;
        self.maybe_checkpoint(&mut inner);
        Ok(ReplicatedApply::Applied)
    }
}

/// Applies one replayed record to a recovering engine, then pins the
/// epoch to the logged value (replay semantics can differ benignly — e.g.
/// a logged `compact` that is a no-op on the already-compacted recovered
/// state — but epochs must not).
fn apply_record(engine: &mut lcdd_engine::Engine, record: &WalRecord) -> Result<(), EngineError> {
    match &record.op {
        WalOp::Insert { batch } => {
            let batch = EncodedTableBatch::from_bytes(batch)?;
            engine.insert_encoded(batch);
        }
        WalOp::Remove { ids, threshold } => {
            engine.set_compaction_threshold(*threshold);
            engine.remove_tables(ids);
        }
        WalOp::Compact => {
            engine.compact();
        }
        WalOp::Reshard { n_shards } => {
            engine
                .reshard(*n_shards)
                .map_err(|e| EngineError::Wal(format!("reshard({n_shards}): {e}")))?;
        }
    }
    persist::force_epoch(engine, record.epoch_after);
    Ok(())
}

pub(crate) fn segment_file_name(epoch: u64, shard: usize) -> String {
    format!("seg-{epoch:016x}-{shard:04}.seg")
}

pub(crate) fn wal_file_name(epoch: u64) -> String {
    format!("wal-{epoch:016x}.log")
}

/// Extracts the 16-hex-digit epoch every store data file embeds
/// (`seg-<epoch>-<shard>.seg`, `wal-<epoch>.log`, `MANIFEST-<epoch>`).
fn file_epoch(name: &str) -> Option<u64> {
    let hex = name
        .strip_prefix("seg-")
        .or_else(|| name.strip_prefix("wal-"))
        .or_else(|| name.strip_prefix(MANIFEST_PREFIX))?;
    u64::from_str_radix(hex.get(..16)?, 16).ok()
}
