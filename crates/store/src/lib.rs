//! # lcdd-store
//!
//! Durability for the serving engine: a write-ahead log, a segmented
//! checkpoint store with incremental checkpoints, and crash recovery — so
//! a crashed or restarted discovery server recovers its **exact** corpus
//! (hit-for-hit, bit-identical scores) without re-encoding a single
//! table. A store directory is the engine's only on-disk format:
//! [`DurableEngine::create`] saves an engine, [`DurableEngine::open`]
//! restores it.
//!
//! ```text
//! store-dir/
//!   meta.seg              configs + model weights   (written once)
//!   MANIFEST-<epoch>      checkpoint commit point   (atomic rename)
//!   seg-<epoch>-<shard>   one shard's live slots    (dirty shards only)
//!   wal-<epoch>.log       ops since that checkpoint (append + fsync)
//! ```
//!
//! Three layers, bottom up:
//!
//! * [`wal`] — an append-only log of corpus mutations, each record
//!   length-prefixed and FNV-1a-checksummed. Insert records carry the
//!   *already-encoded* FCM delta, so replay never re-runs the encoder.
//!   A torn final record (crash mid-append) is truncated on recovery;
//!   anything else malformed is a typed [`EngineError::Wal`].
//! * [`manifest`] — small framed files mapping a checkpoint epoch to its
//!   {meta section, per-shard segment files, WAL file + replay offset,
//!   global table order}, committed by atomic rename. Recovery takes the
//!   newest manifest that validates.
//! * [`DurableEngine`] — the serving facade: every mutation is WAL-logged
//!   (and fsynced, under default [`StoreOptions`]) **before** its epoch
//!   is published; a background checkpoint policy (ops/bytes since last)
//!   rewrites only the shards dirtied since the previous checkpoint. The
//!   lock-free read path of [`lcdd_engine::ServingEngine`] is untouched.
//!
//! The codecs live in [`lcdd_engine::persist`]. Segments carry the
//! memory-mappable `LCDDSEG2` image (summary + aligned f32 blob), so they
//! restore bit-identically whether decoded eagerly or served as a mapped
//! cold tier ([`StoreOptions::cold_open`]) — the recovery equivalence
//! suite asserts recovered == uncrashed at every record-boundary crash
//! point, and [`bulk::create_bulk`] fabricates million-table stores by
//! streaming slots straight into segment images.
//!
//! Production code in this crate is `unwrap`-free (lint enforced in CI):
//! corrupt stores surface as [`EngineError`] values, never panics.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bulk;
pub mod durable;
pub mod fault;
pub mod manifest;
pub mod wal;

mod codec;
mod instruments;

pub use bulk::create_bulk;
pub use durable::{
    CheckpointPackage, CheckpointStats, DurableEngine, RecoveryReport, ReplicatedApply,
    StoreOptions, WalCursor,
};
pub use fault::{FaultPlan, FaultPoint};
pub use lcdd_fcm::EngineError;
pub use manifest::{latest_manifest, read_manifest, Manifest};
pub use wal::{WalOp, WalRecord, WalScan, WalWriter, WAL_HEADER_LEN};
