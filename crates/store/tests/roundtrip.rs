//! Store round trips: `DurableEngine::create` followed by
//! `DurableEngine::open` is the only way an engine is persisted and
//! restored, so this suite pins what that path must preserve.
//!
//! * Hits and score bits are identical after create → open, eager and
//!   cold, for every index strategy (with and without the int8 re-rank)
//!   and for 1 and 3 shards.
//! * The persisted image (meta section + live order + segments) of a
//!   restored engine equals the image it was created from, byte for byte.
//! * A tombstoned engine persists exactly like its compacted self.
//! * A meta section whose checksum is valid but whose `lsh_bits` is out of
//!   range opens as a typed `Store` error, never an index-construction
//!   panic.

use lcdd_engine::persist::fnv1a64;
use lcdd_engine::{Engine, IndexStrategy, SearchOptions};
use lcdd_fcm::EngineError;
use lcdd_store::{latest_manifest, DurableEngine, StoreOptions};
use lcdd_testkit::crash::TempDir;
use lcdd_testkit::{
    assert_same_hits_bitwise, corpus, persisted_image, queries_for, tiny_engine, CorpusSpec,
};

fn test_corpus() -> Vec<lcdd_table::Table> {
    corpus(&CorpusSpec::sized(0x70, 8))
}

fn opts(cold_open: bool) -> StoreOptions {
    StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: 0,
        checkpoint_every_bytes: 0,
        cold_open,
        ..StoreOptions::default()
    }
}

/// Persists `engine` at `dir`, then restores it as a plain engine.
fn round_trip(dir: &std::path::Path, engine: Engine, cold_open: bool) -> Engine {
    drop(DurableEngine::create(dir, engine, opts(cold_open)).expect("store creation"));
    let (reopened, report) = DurableEngine::open(dir, opts(cold_open)).expect("store open");
    assert_eq!(report.replayed_ops, 0, "a fresh store has an empty WAL");
    reopened.into_serving().into_engine()
}

#[test]
fn create_then_open_reproduces_hits_and_score_bits() {
    let tmp = TempDir::new("rt-hits");
    let queries = queries_for(&test_corpus(), 4);
    for n_shards in [1usize, 3] {
        let oracle = tiny_engine(test_corpus(), n_shards);
        for cold_open in [false, true] {
            let dir = tmp.subdir(&format!("s{n_shards}-cold{cold_open}"));
            let restored = round_trip(&dir, tiny_engine(test_corpus(), n_shards), cold_open);
            assert_eq!(restored.len(), oracle.len());
            assert_eq!(restored.n_shards(), n_shards);
            assert_eq!(restored.epoch(), oracle.epoch());
            for strategy in IndexStrategy::ALL {
                for rerank in [None, Some(3)] {
                    let mut opts = SearchOptions::top_k(5).with_strategy(strategy);
                    opts.rerank = rerank;
                    for (qi, q) in queries.iter().enumerate() {
                        assert_same_hits_bitwise(
                            &format!(
                                "{n_shards} shards, cold {cold_open}, {strategy:?}, \
                                 rerank {rerank:?}, query {qi}"
                            ),
                            &oracle.search(q, &opts).unwrap(),
                            &restored.search(q, &opts).unwrap(),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn persisted_image_round_trips_bit_identically() {
    let tmp = TempDir::new("rt-image");
    for n_shards in [1usize, 3] {
        let want = persisted_image(&tiny_engine(test_corpus(), n_shards));
        for cold_open in [false, true] {
            let dir = tmp.subdir(&format!("s{n_shards}-cold{cold_open}"));
            let restored = round_trip(&dir, tiny_engine(test_corpus(), n_shards), cold_open);
            assert!(
                persisted_image(&restored) == want,
                "{n_shards}-shard image must round-trip bit-identically (cold {cold_open})"
            );
        }
    }
}

#[test]
fn tombstoned_engine_persists_like_its_compacted_self() {
    let extra = || corpus(&CorpusSpec::sized(99, 11)).split_off(8);
    let mut with_tombstones = tiny_engine(test_corpus(), 2);
    with_tombstones.insert_tables(extra());
    // Keep auto-compaction away: persistence itself must drop the dead
    // slots.
    with_tombstones.set_compaction_threshold(1.0);
    assert_eq!(with_tombstones.remove_tables(&[8, 9, 10]), 3);
    assert!(with_tombstones.shards().iter().any(|s| s.n_dead() > 0));

    let mut compacted = tiny_engine(test_corpus(), 2);
    compacted.insert_tables(extra());
    compacted.remove_tables(&[8, 9, 10]);
    compacted.compact();

    assert!(
        persisted_image(&with_tombstones) == persisted_image(&compacted),
        "the persisted image must be tombstone-independent"
    );

    // The same holds for the files a store writes: meta section, segments
    // and the manifest's order compare equal.
    let tmp = TempDir::new("rt-tomb");
    let (a, b) = (tmp.subdir("tombstoned"), tmp.subdir("compacted"));
    drop(DurableEngine::create(&a, with_tombstones, opts(false)).expect("create a"));
    drop(DurableEngine::create(&b, compacted, opts(false)).expect("create b"));
    let (_, ma) = latest_manifest(&a).unwrap().expect("manifest a");
    let (_, mb) = latest_manifest(&b).unwrap().expect("manifest b");
    assert_eq!(ma.order, mb.order);
    let files = |dir: &std::path::Path, m: &lcdd_store::Manifest| -> Vec<Vec<u8>> {
        std::iter::once(&m.meta_file)
            .chain(&m.segments)
            .map(|name| std::fs::read(dir.join(name)).expect("store file"))
            .collect()
    };
    assert!(
        files(&a, &ma) == files(&b, &mb),
        "meta and segment files must be tombstone-independent"
    );
}

/// Byte offset of `lsh_bits` inside a framed meta file: the 28-byte frame
/// header (magic, version, length, hash), then the FCM config (13 `u64`
/// fields, 2 bool bytes, `f64` slack, `u64` seed).
const LSH_BITS_AT: usize = 28 + 13 * 8 + 2 + 8 + 8;

#[test]
fn out_of_range_lsh_bits_in_meta_is_a_typed_store_error() {
    let tmp = TempDir::new("rt-lsh");
    let golden = tmp.subdir("golden");
    drop(DurableEngine::create(&golden, tiny_engine(test_corpus(), 2), opts(false)).unwrap());
    let (_, manifest) = latest_manifest(&golden).unwrap().expect("manifest");
    let meta = std::fs::read(golden.join(&manifest.meta_file)).unwrap();
    let stored = u64::from_le_bytes(meta[LSH_BITS_AT..LSH_BITS_AT + 8].try_into().unwrap());
    assert_eq!(stored, 12, "the offset must land on lsh_bits");

    for lsh_bits in [0u64, 65] {
        // Re-frame with a valid checksum so only the value is wrong.
        let mut bad = meta.clone();
        bad[LSH_BITS_AT..LSH_BITS_AT + 8].copy_from_slice(&lsh_bits.to_le_bytes());
        let hash = fnv1a64(&bad[28..]);
        bad[20..28].copy_from_slice(&hash.to_le_bytes());
        for cold_open in [false, true] {
            let dir = tmp.subdir(&format!("lsh{lsh_bits}-cold{cold_open}"));
            lcdd_testkit::crash::copy_dir(&golden, &dir);
            std::fs::write(dir.join(&manifest.meta_file), &bad).unwrap();
            match DurableEngine::open(&dir, opts(cold_open)) {
                Err(EngineError::Store(msg)) => assert!(msg.contains("lsh_bits"), "{msg}"),
                Err(other) => panic!("lsh_bits {lsh_bits}: expected Store error, got {other}"),
                Ok(_) => panic!("lsh_bits {lsh_bits}: out-of-range meta accepted"),
            }
        }
    }
}
