//! The engine's byte layout — the one module that knows it. The
//! `lcdd_store` crate persists an engine only through these codecs (meta
//! section, WAL insert batches, segments), and this module turns those
//! pieces back into an [`Engine`]; there is no other on-disk format.
//!
//! Three kinds of bytes leave this module, all little-endian (strings are
//! `u32` length + UTF-8, matrices `u32 rows, u32 cols, f32*rows*cols`);
//! batches and the meta section are built from the primitives below,
//! while segments use the memory-mappable `LCDDSEG2` image of
//! [`crate::mapped`]:
//!
//! * **Encoded table batches** ([`EncodedTableBatch`]) — the output of the
//!   FCM dataset encoder for an ingest delta, opaque to callers. A WAL
//!   records these instead of raw tables, so crash replay *never re-runs
//!   the encoder* (`lcdd_fcm::table_encode_count` stays flat during
//!   recovery, asserted by the store's recovery suite).
//! * **The meta section** ([`meta_bytes`]) — FCM config (13 `u64` fields,
//!   2 bool bytes, `f64` slack, `u64` seed) + hybrid-index config (`u64`
//!   bits, `u32` radius, `f64` slack, `u64` seed, `u64` reserved = 0) +
//!   model weights (`lcdd_tensor::io::write_params`). Immutable for the
//!   lifetime of a store (the serving model never mutates), so it is
//!   written once.
//! * **Shard segments** ([`segment_bytes`]) — one shard's live slots, the
//!   unit of incremental checkpointing: a checkpoint rewrites only the
//!   shards dirtied since the previous one and reuses the rest by file
//!   reference. Segment files double as the cold tier: a store opened
//!   cold serves them via [`assemble_engine_mapped`] without decoding.
//!
//! Only live tables are written: [`segment_bytes`] and [`live_order`]
//! skip tombstones, so a tombstoned engine persists exactly like its
//! compacted self. [`assemble_engine`] is the inverse: meta + global
//! order + one segment per shard + the epoch to resume from. The interval
//! tree, LSH and the pooled-mean centering reference are deterministic
//! functions of the restored bytes and are rebuilt, so a recovered engine
//! answers queries bit-identically to the engine that wrote the segments.

use std::io::{Read, Write};
use std::sync::Arc;

use lcdd_chart::ChartStyle;
use lcdd_fcm::input::ProcessedTable;
use lcdd_fcm::persist::{read_model_into, write_model};
use lcdd_fcm::{encode_tables, EngineError, FcmConfig, FcmModel};
use lcdd_index::HybridConfig;
use lcdd_table::Table;
use lcdd_tensor::Matrix;
use lcdd_vision::VisualElementExtractor;

use crate::builder::check_hybrid_config;
use crate::engine::{Engine, TableMeta};
use crate::mapped::{parse_segment_slots, write_segment_image, MappedSegment};
use crate::shard::{EngineShard, SlotData};
use crate::state::{EngineShared, EngineState};

// ---- primitive writers / readers -----------------------------------------

fn wu32<W: Write>(w: &mut W, v: u32) -> Result<(), EngineError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn wu64<W: Write>(w: &mut W, v: u64) -> Result<(), EngineError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn wusize<W: Write>(w: &mut W, v: usize) -> Result<(), EngineError> {
    wu64(w, v as u64)
}

fn wf64<W: Write>(w: &mut W, v: f64) -> Result<(), EngineError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn wbool<W: Write>(w: &mut W, v: bool) -> Result<(), EngineError> {
    w.write_all(&[u8::from(v)])?;
    Ok(())
}

fn wstr<W: Write>(w: &mut W, s: &str) -> Result<(), EngineError> {
    wu32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

fn wmat<W: Write>(w: &mut W, m: &Matrix) -> Result<(), EngineError> {
    wu32(w, m.rows() as u32)?;
    wu32(w, m.cols() as u32)?;
    let mut buf = Vec::with_capacity(m.len() * 4);
    for &x in m.as_slice() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    w.write_all(&buf)?;
    Ok(())
}

fn ru32<R: Read>(r: &mut R) -> Result<u32, EngineError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn ru64<R: Read>(r: &mut R) -> Result<u64, EngineError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn rusize<R: Read>(r: &mut R) -> Result<usize, EngineError> {
    Ok(ru64(r)? as usize)
}

fn rf64<R: Read>(r: &mut R) -> Result<f64, EngineError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn rbool<R: Read>(r: &mut R) -> Result<bool, EngineError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0] != 0)
}

/// Upper bound on any single variable-length field read from a meta
/// section, batch or segment. Header fields are untrusted: without a cap, corrupt dimensions would
/// either overflow the size arithmetic or trigger multi-GB allocations
/// before `read_exact` ever fails. 256 MiB is orders of magnitude above
/// any real segment/encoding matrix.
pub(crate) const MAX_FIELD_BYTES: usize = 256 << 20;

fn rstr<R: Read>(r: &mut R) -> Result<String, EngineError> {
    let len = ru32(r)? as usize;
    if len > MAX_FIELD_BYTES {
        return Err(EngineError::Snapshot(format!(
            "string length {len} exceeds the {MAX_FIELD_BYTES}-byte cap"
        )));
    }
    let mut b = vec![0u8; len];
    r.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|e| EngineError::Snapshot(format!("non-UTF-8 string: {e}")))
}

fn rmat<R: Read>(r: &mut R) -> Result<Matrix, EngineError> {
    let rows = ru32(r)? as usize;
    let cols = ru32(r)? as usize;
    let bytes = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(4))
        .filter(|&n| n <= MAX_FIELD_BYTES)
        .ok_or_else(|| EngineError::Snapshot(format!("implausible matrix shape {rows}x{cols}")))?;
    let mut buf = vec![0u8; bytes];
    r.read_exact(&mut buf)?;
    let data: Vec<f32> = buf
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(Matrix::from_vec(rows, cols, data))
}

/// FNV-1a over a byte slice — the integrity hash shared by WAL records,
/// segments, manifests and framed store files. Not cryptographic; the
/// threat model is truncation and accidental corruption.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ---- config sections -----------------------------------------------------

fn write_fcm_config<W: Write>(w: &mut W, c: &FcmConfig) -> Result<(), EngineError> {
    for v in [
        c.embed_dim,
        c.n_heads,
        c.n_layers,
        c.ff_mult,
        c.chart_width,
        c.line_image_height,
        c.p1,
        c.trace_dim,
        c.column_len,
        c.p2,
        c.beta,
        c.moe_hidden,
        c.matcher_hidden,
    ] {
        wusize(w, v)?;
    }
    wbool(w, c.da_enabled)?;
    wbool(w, c.hcman_enabled)?;
    wf64(w, c.range_slack)?;
    wu64(w, c.seed)?;
    Ok(())
}

fn read_fcm_config<R: Read>(r: &mut R) -> Result<FcmConfig, EngineError> {
    let mut f = [0usize; 13];
    for v in f.iter_mut() {
        *v = rusize(r)?;
    }
    let da_enabled = rbool(r)?;
    let hcman_enabled = rbool(r)?;
    let range_slack = rf64(r)?;
    let seed = ru64(r)?;
    Ok(FcmConfig {
        embed_dim: f[0],
        n_heads: f[1],
        n_layers: f[2],
        ff_mult: f[3],
        chart_width: f[4],
        line_image_height: f[5],
        p1: f[6],
        trace_dim: f[7],
        column_len: f[8],
        p2: f[9],
        beta: f[10],
        moe_hidden: f[11],
        matcher_hidden: f[12],
        da_enabled,
        hcman_enabled,
        range_slack,
        seed,
    })
}

fn write_hybrid_config<W: Write>(w: &mut W, c: &HybridConfig) -> Result<(), EngineError> {
    wusize(w, c.lsh_bits)?;
    wu32(w, c.lsh_radius)?;
    wf64(w, c.range_slack)?;
    wu64(w, c.seed)?;
    // Reserved: the retired IVF tier's `ivf_nprobe`. Written as 0 and
    // skipped on read, so files from earlier builds still open.
    wu64(w, 0)
}

fn read_hybrid_config<R: Read>(r: &mut R) -> Result<HybridConfig, EngineError> {
    let cfg = HybridConfig {
        lsh_bits: rusize(r)?,
        lsh_radius: ru32(r)?,
        range_slack: rf64(r)?,
        seed: ru64(r)?,
    };
    ru64(r)?; // reserved, see `write_hybrid_config`
    Ok(cfg)
}

// ---- slots and order ------------------------------------------------------

/// One table's identity and processed columns, as an insert batch
/// records it.
fn write_slot<W: Write>(
    w: &mut W,
    meta: &TableMeta,
    pt: &ProcessedTable,
) -> Result<(), EngineError> {
    wu64(w, meta.id)?;
    wstr(w, &meta.name)?;
    wusize(w, pt.column_segments.len())?;
    for (seg, &(lo, hi)) in pt.column_segments.iter().zip(&pt.column_ranges) {
        wmat(w, seg)?;
        wf64(w, lo)?;
        wf64(w, hi)?;
    }
    Ok(())
}

/// Checks a restored order is a bijection onto the restored shard slots.
fn validate_order(order: &[(u32, u32)], shards: &[EngineShard]) -> Result<(), EngineError> {
    let total: usize = shards.iter().map(|sh| sh.len()).sum();
    if order.len() != total {
        return Err(EngineError::Snapshot(format!(
            "order lists {} tables but shards hold {total}",
            order.len()
        )));
    }
    let mut seen: Vec<Vec<bool>> = shards.iter().map(|sh| vec![false; sh.len()]).collect();
    for &(s, l) in order {
        let slot = seen
            .get_mut(s as usize)
            .and_then(|v| v.get_mut(l as usize))
            .ok_or_else(|| {
                EngineError::Snapshot(format!("order references missing slot ({s}, {l})"))
            })?;
        if std::mem::replace(slot, true) {
            return Err(EngineError::Snapshot(format!(
                "order references slot ({s}, {l}) twice"
            )));
        }
    }
    Ok(())
}

// ---- store pieces ---------------------------------------------------------

/// An ingest delta after the FCM dataset encoder ran: everything the
/// engine needs to splice the tables in without touching the encoder
/// again. Produced by [`encode_batch`], persisted via
/// [`EncodedTableBatch::to_bytes`], consumed by
/// [`Engine::insert_encoded`] / [`crate::ServingEngine::insert_encoded`].
pub struct EncodedTableBatch {
    pub(crate) slots: Vec<SlotData>,
}

/// Maps low-level read errors inside a batch record to
/// [`EngineError::Wal`]: batch bytes only ever come out of WAL records
/// whose frame checksum already passed, so a malformed interior is log
/// corruption, not an I/O condition.
fn batch_err(e: EngineError) -> EngineError {
    match e {
        EngineError::Io(e) => EngineError::Wal(format!("insert batch ended early: {e}")),
        EngineError::Snapshot(m) => EngineError::Wal(format!("insert batch: {m}")),
        other => other,
    }
}

impl EncodedTableBatch {
    /// Number of tables in the batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the batch holds no tables.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The ids of the batched tables, in batch order.
    pub fn table_ids(&self) -> Vec<u64> {
        self.slots.iter().map(|s| s.meta.id).collect()
    }

    /// Serializes the batch (tables, cached encodings, index intervals).
    pub fn to_bytes(&self) -> Result<Vec<u8>, EngineError> {
        let mut w = Vec::new();
        wusize(&mut w, self.slots.len())?;
        for s in &self.slots {
            write_slot(&mut w, &s.meta, &s.table)?;
            wusize(&mut w, s.encodings.len())?;
            for m in &s.encodings {
                wmat(&mut w, m)?;
            }
            wusize(&mut w, s.intervals.len())?;
            for &(lo, hi) in &s.intervals {
                wf64(&mut w, lo)?;
                wf64(&mut w, hi)?;
            }
        }
        Ok(w)
    }

    /// Parses a batch previously written by [`EncodedTableBatch::to_bytes`].
    /// Malformed bytes surface as [`EngineError::Wal`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EngineError> {
        Self::parse(bytes).map_err(batch_err)
    }

    fn parse(bytes: &[u8]) -> Result<Self, EngineError> {
        let mut r = bytes;
        let n_tables = rusize(&mut r)?;
        if n_tables > MAX_FIELD_BYTES / 8 {
            return Err(EngineError::Snapshot(format!(
                "implausible batch table count {n_tables}"
            )));
        }
        let mut slots = Vec::with_capacity(n_tables.min(65_536));
        for _ in 0..n_tables {
            let id = ru64(&mut r)?;
            let name = rstr(&mut r)?;
            let n_cols = rusize(&mut r)?;
            if n_cols > MAX_FIELD_BYTES / 8 {
                return Err(EngineError::Snapshot(format!(
                    "implausible column count {n_cols}"
                )));
            }
            let mut column_segments = Vec::with_capacity(n_cols.min(65_536));
            let mut column_ranges = Vec::with_capacity(n_cols.min(65_536));
            for _ in 0..n_cols {
                column_segments.push(rmat(&mut r)?);
                let lo = rf64(&mut r)?;
                let hi = rf64(&mut r)?;
                column_ranges.push((lo, hi));
            }
            let n_enc = rusize(&mut r)?;
            if n_enc != n_cols {
                return Err(EngineError::Snapshot(format!(
                    "{n_enc} encodings for {n_cols} columns"
                )));
            }
            let mut encodings = Vec::with_capacity(n_enc.min(65_536));
            for _ in 0..n_enc {
                encodings.push(rmat(&mut r)?);
            }
            let n_iv = rusize(&mut r)?;
            if n_iv > MAX_FIELD_BYTES / 16 {
                return Err(EngineError::Snapshot(format!(
                    "implausible interval count {n_iv}"
                )));
            }
            let mut intervals = Vec::with_capacity(n_iv.min(65_536));
            for _ in 0..n_iv {
                let lo = rf64(&mut r)?;
                let hi = rf64(&mut r)?;
                intervals.push((lo, hi));
            }
            slots.push(SlotData {
                meta: TableMeta { id, name },
                table: ProcessedTable {
                    table_id: id,
                    column_segments,
                    column_ranges,
                },
                encodings,
                intervals,
            });
        }
        if !r.is_empty() {
            return Err(EngineError::Snapshot(format!(
                "{} trailing bytes in batch",
                r.len()
            )));
        }
        Ok(EncodedTableBatch { slots })
    }
}

/// Runs the FCM dataset encoder over `tables` (in parallel, exactly like
/// live ingest) and packages the result for WAL logging + splice-in.
pub fn encode_batch(model: &FcmModel, tables: &[Table]) -> EncodedTableBatch {
    let (processed, encodings) = encode_tables(model, tables);
    EncodedTableBatch {
        slots: tables
            .iter()
            .zip(processed)
            .zip(encodings)
            .map(|((table, pt), enc)| SlotData::from_encoded(table, pt, enc))
            .collect(),
    }
}

/// Serializes the engine's immutable serving configuration: FCM config +
/// hybrid-index config + model weights. Written once per store.
pub fn meta_bytes(engine: &Engine) -> Result<Vec<u8>, EngineError> {
    let mut w = Vec::new();
    write_fcm_config(&mut w, &engine.shared.model.config)?;
    write_hybrid_config(&mut w, &engine.shared.hybrid_cfg)?;
    write_model(&engine.shared.model, &mut w)?;
    Ok(w)
}

/// Serializes shard `shard` of `state` as a self-contained segment: its
/// live slots in slot order as a memory-mappable `LCDDSEG2` image (see
/// [`crate::mapped`]) — fixed-layout summary up front, aligned f32 blob
/// behind, so the store can later serve the file without decoding it.
/// Slots are cloned out one at a time (cold slots materialize from their
/// mapping transiently), so peak memory is the image plus one slot.
pub fn segment_bytes(state: &EngineState, shard: usize) -> Result<Vec<u8>, EngineError> {
    let sh = state
        .shards
        .get(shard)
        .ok_or_else(|| EngineError::Store(format!("segment_bytes: no shard {shard}")))?;
    let live = (0..sh.len()).filter(|&s| !sh.is_dead(s));
    write_segment_image(live.map(|s| sh.clone_slot(s)), sh.embed_dim)
}

/// One pre-encoded table, public shape: what external corpus generators
/// (e.g. the testkit's synthetic scale corpus) hand the engine / store
/// instead of raw tables, bypassing the FCM encoder entirely.
pub struct EncodedSlot {
    pub id: u64,
    pub name: String,
    pub table: ProcessedTable,
    pub encodings: Vec<Matrix>,
    /// `[lo, hi]` index intervals of the table's columns.
    pub intervals: Vec<(f64, f64)>,
}

impl EncodedSlot {
    fn into_slot(self) -> SlotData {
        SlotData {
            meta: TableMeta {
                id: self.id,
                name: self.name,
            },
            table: self.table,
            encodings: self.encodings,
            intervals: self.intervals,
        }
    }
}

impl EncodedTableBatch {
    /// Packages externally encoded slots as an insertable batch — the
    /// synthetic-corpus twin of [`encode_batch`].
    pub fn from_encoded_parts(slots: Vec<EncodedSlot>) -> Self {
        EncodedTableBatch {
            slots: slots.into_iter().map(EncodedSlot::into_slot).collect(),
        }
    }
}

/// Builds an `LCDDSEG2` segment image directly from externally encoded
/// slots, streaming: the iterator is consumed one slot at a time, so a
/// generator can emit a million-table corpus without ever materializing
/// a shard's worth of slots. Pair with the store's bulk-creation path to
/// fabricate an openable corpus at scales live ingest can't hold.
pub fn segment_image_bytes(
    slots: impl Iterator<Item = EncodedSlot>,
    embed_dim: usize,
) -> Result<Vec<u8>, EngineError> {
    write_segment_image(slots.map(EncodedSlot::into_slot), embed_dim)
}

/// The global ingest order of `state`, re-expressed in the compacted slot
/// coordinates segments restore into — what a manifest persists.
/// Fails if the order references a dead slot — a state invariant
/// violation.
pub fn live_order(state: &EngineState) -> Result<Vec<(u32, u32)>, EngineError> {
    // Per shard: slot -> its position among the shard's live slots.
    let remap: Vec<Vec<Option<u32>>> = state
        .shards
        .iter()
        .map(|sh| {
            let mut m = vec![None; sh.len()];
            for (compact, slot) in (0..sh.len()).filter(|&s| !sh.is_dead(s)).enumerate() {
                m[slot] = Some(compact as u32);
            }
            m
        })
        .collect();
    state
        .order
        .iter()
        .map(|&(s, l)| {
            remap[s as usize][l as usize]
                .map(|compact| (s, compact))
                .ok_or_else(|| EngineError::Snapshot("order references a dead slot".into()))
        })
        .collect()
}

/// Rebuilds an [`Engine`] from store pieces: the meta section, one segment
/// per shard, the persisted global order, and the epoch to resume
/// counting from. The inverse of [`meta_bytes`] + [`segment_bytes`] +
/// [`live_order`]; corrupt input surfaces as typed [`EngineError`]s,
/// never a panic.
///
/// The assembled engine uses the oracle extractor, default chart style and
/// default compaction threshold — serving configuration is not corpus
/// state.
pub fn assemble_engine(
    meta: &[u8],
    order: Vec<(u32, u32)>,
    segments: &[Vec<u8>],
    epoch: u64,
) -> Result<Engine, EngineError> {
    let (model, hybrid_cfg) = parse_meta(meta)?;
    if segments.is_empty() {
        return Err(EngineError::Store(
            "assemble_engine: no segments (an engine always has at least one shard)".into(),
        ));
    }
    let embed_dim = model.config.embed_dim;
    let shards: Vec<EngineShard> = segments
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            parse_segment_slots(bytes)
                .map_err(|e| segment_err(i, e))
                .map(|slots| EngineShard::from_slots(slots, embed_dim, hybrid_cfg.clone()))
        })
        .collect::<Result<_, _>>()?;
    finish_assembly(model, hybrid_cfg, shards, order, epoch)
}

/// [`assemble_engine`]'s cold-tier twin: instead of decoding segment
/// payloads, each segment file is memory-mapped (`MappedSegment`) and
/// its shard assembled from the summary alone — identity, index and
/// corpus statistics come up immediately, while every f32 blob stays on
/// disk until a query's exact-scoring stage (or a mutation that
/// restructures the shard) demands specific slots. `magic` / `version`
/// name the store's segment framing, verified — checksum included — at
/// open.
pub fn assemble_engine_mapped(
    meta: &[u8],
    order: Vec<(u32, u32)>,
    segment_paths: &[std::path::PathBuf],
    epoch: u64,
    magic: &[u8; 8],
    version: u32,
) -> Result<Engine, EngineError> {
    let (model, hybrid_cfg) = parse_meta(meta)?;
    if segment_paths.is_empty() {
        return Err(EngineError::Store(
            "assemble_engine_mapped: no segments (an engine always has at least one shard)".into(),
        ));
    }
    let embed_dim = model.config.embed_dim;
    let shards: Vec<EngineShard> = segment_paths
        .iter()
        .map(|path| {
            let seg = MappedSegment::open_framed(path, magic, version)?;
            if seg.embed_dim() != embed_dim {
                return Err(EngineError::Store(format!(
                    "{}: segment embed_dim {} does not match the model's {embed_dim}",
                    path.display(),
                    seg.embed_dim()
                )));
            }
            Ok(EngineShard::from_mapped(Arc::new(seg), hybrid_cfg.clone()))
        })
        .collect::<Result<_, _>>()?;
    finish_assembly(model, hybrid_cfg, shards, order, epoch)
}

fn parse_meta(meta: &[u8]) -> Result<(FcmModel, HybridConfig), EngineError> {
    let mut r = meta;
    let config = read_fcm_config(&mut r).map_err(meta_err)?;
    config.validated()?;
    let hybrid_cfg = read_hybrid_config(&mut r).map_err(meta_err)?;
    check_hybrid_config(&hybrid_cfg)
        .map_err(|m| EngineError::Store(format!("meta section: {m}")))?;
    let mut model = FcmModel::new(config);
    read_model_into(&mut model, &mut r).map_err(meta_err)?;
    Ok((model, hybrid_cfg))
}

fn finish_assembly(
    model: FcmModel,
    hybrid_cfg: HybridConfig,
    shards: Vec<EngineShard>,
    order: Vec<(u32, u32)>,
    epoch: u64,
) -> Result<Engine, EngineError> {
    validate_order(&order, &shards)?;
    let mut state = EngineState::from_shards(shards, order, model.config.embed_dim);
    state.set_epoch(epoch);
    let shared = EngineShared {
        model,
        hybrid_cfg,
        extractor: VisualElementExtractor::oracle(),
        style: ChartStyle::default(),
    };
    Ok(Engine::from_parts(shared, state))
}

fn segment_err(shard: usize, e: EngineError) -> EngineError {
    match e {
        EngineError::Store(m) => EngineError::Store(format!("segment {shard}: {m}")),
        other => other,
    }
}

/// Overrides the engine's epoch counter. Recovery-only: after replaying a
/// WAL record, the store pins the epoch to the one the crashed process
/// recorded, so recovered and uncrashed engines agree epoch-for-epoch even
/// where replay semantics differ benignly (e.g. a `compact` that was a
/// no-op on the already-compacted recovered state).
pub fn force_epoch(engine: &mut Engine, epoch: u64) {
    engine.state.set_epoch(epoch);
}

fn meta_err(e: EngineError) -> EngineError {
    match e {
        EngineError::Io(e) => EngineError::Store(format!("meta section ended early: {e}")),
        other => other,
    }
}
