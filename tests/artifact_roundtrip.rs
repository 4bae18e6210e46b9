//! Model artifact round-trip contract: a saved-and-loaded artifact serves
//! bit-identically to the in-memory models it was created from, and
//! corrupted or configuration-mismatched artifacts are rejected with clear
//! typed errors instead of being mis-served — and so are a state
//! checkpoint and a write-ahead log of another kind, version or config.
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 77.
//! Expected runtime: ~20 s in debug (one training run, two serve runs).

use ltee_core::prelude::*;
use ltee_store::wal::encode_wal_header;
use ltee_store::{scan_wal, KbStore, StoreError};

fn setup() -> (World, GeneratedCorpus, PipelineConfig, TrainedModels) {
    let config =
        PipelineConfig { parallelism: Parallelism::Threads(1), ..PipelineConfig::fast() };
    let TrainedWorld { world, corpus, config, models, .. } = TrainedWorld::train_with(77, config);
    (world, corpus, config, models)
}

#[test]
fn save_load_round_trip_serves_bit_identically() {
    let (world, corpus, config, models) = setup();
    let artifact = ModelArtifact::new(models.clone(), &config);

    // Through a real file, like a serving process would load it.
    let path = std::env::temp_dir().join(format!("ltee-artifact-{}.model", std::process::id()));
    artifact.save(&path).expect("writable temp dir");
    let loaded = ModelArtifact::load(&path).expect("valid artifact file");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.fingerprint, artifact.fingerprint);

    // detect_new outcomes (and every other output) of the loaded models
    // must match the in-memory models bit for bit.
    let in_memory =
        Pipeline::new(world.kb(), models, config.clone()).run_streaming(&corpus).unwrap();
    let from_disk = Pipeline::new(world.kb(), loaded.models, config.clone())
        .run_streaming(&corpus)
        .unwrap();
    assert_eq!(in_memory.classes.len(), from_disk.classes.len());
    for (a, b) in in_memory.classes.iter().zip(from_disk.classes.iter()) {
        assert_eq!(a.clusters, b.clusters, "{}: clusters", a.class);
        assert_eq!(a.entities, b.entities, "{}: entities", a.class);
        assert_eq!(a.outcomes(), b.outcomes(), "{}: outcomes", a.class);
        for (ra, rb) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(ra.best_score.to_bits(), rb.best_score.to_bits(), "{}: score bits", a.class);
        }
    }

    // The batch pipeline accepts the artifact's models just the same.
    let batch = Pipeline::new(world.kb(), loaded_models_clone(&artifact), config)
        .run(&corpus)
        .expect("non-empty corpus");
    assert!(!batch.classes.is_empty());
}

fn loaded_models_clone(artifact: &ModelArtifact) -> TrainedModels {
    ModelArtifact::decode(&artifact.encode()).expect("self-encoded artifact decodes").models
}

#[test]
fn encoding_is_deterministic() {
    let (_, _, config, models) = setup();
    let artifact = ModelArtifact::new(models, &config);
    assert_eq!(artifact.encode(), artifact.encode(), "encoding must be byte-stable");
}

#[test]
fn corrupted_artifacts_are_rejected() {
    let (_, _, config, models) = setup();
    let artifact = ModelArtifact::new(models, &config);
    let bytes = artifact.encode();

    // Bad magic.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xff;
    assert!(matches!(ModelArtifact::decode(&bad_magic), Err(CodecError::BadMagic(_))));

    // Unknown future version.
    let mut bad_version = bytes.clone();
    bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        ModelArtifact::decode(&bad_version),
        Err(CodecError::UnsupportedVersion { found: 99, .. })
    ));

    // Truncation.
    let truncated = &bytes[..bytes.len() - 7];
    assert!(matches!(ModelArtifact::decode(truncated), Err(CodecError::Corrupted(_))));

    // A single flipped payload byte fails the checksum.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    match ModelArtifact::decode(&flipped) {
        Err(CodecError::Corrupted(msg)) => {
            assert!(msg.contains("checksum"), "unexpected message: {msg}")
        }
        other => panic!("expected checksum failure, got {other:?}"),
    }

    // The untouched bytes still decode.
    assert!(ModelArtifact::decode(&bytes).is_ok());
}

#[test]
fn config_fingerprint_mismatch_is_rejected_with_a_clear_error() {
    let (world, _, config, models) = setup();
    let artifact = ModelArtifact::new(models, &config);

    // Serving with a different inference config must be refused…
    let mut other = config.clone();
    other.newdetect.candidates = 3;
    let err = IncrementalPipeline::from_artifact(world.kb(), &artifact, other).unwrap_err();
    match err {
        CodecError::ConfigMismatch { stored: a, expected: c, .. } => assert_ne!(a, c),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    assert!(format!("{err}").contains("different configuration"), "error should explain itself");

    // …while execution placement (thread and shard counts) is accepted.
    let placed =
        PipelineConfig { parallelism: Parallelism::Threads(4), shards: ShardPlan::Shards(3), ..config.clone() };
    assert!(IncrementalPipeline::from_artifact(world.kb(), &artifact, placed).is_ok());
}

/// Every stored format refuses another file's magic, an intact file of
/// another version and a file minted under another config, each with its
/// typed variant, and every refusal's message names the kind of file.
#[test]
fn every_stored_format_names_itself_when_refused() {
    let (world, _, config, models) = setup();
    let mut other = config.clone();
    other.newdetect.candidates = 3;
    let fingerprint = ltee_core::config_fingerprint(&config);
    // A file with its first magic byte flipped, and the intact file
    // declaring the next version (the checksum covers the payload only).
    let mutants = |bytes: Vec<u8>| {
        let mut foreign = bytes.clone();
        foreign[0] ^= 0xff;
        let mut newer = bytes;
        let version = u32::from_le_bytes(newer[8..12].try_into().unwrap());
        newer[8..12].copy_from_slice(&(version + 1).to_le_bytes());
        [foreign, newer]
    };
    let wal_refusal = |refused: Result<(), StoreError>| match refused {
        Err(StoreError::Wal(error)) => error,
        other => panic!("expected a refused log, got {other:?}"),
    };

    let artifact = ModelArtifact::new(models.clone(), &config);
    let [foreign, newer] = mutants(artifact.encode());
    let artifact_refusals = [
        ModelArtifact::decode(&foreign).unwrap_err(),
        ModelArtifact::decode(&newer).unwrap_err(),
        IncrementalPipeline::from_artifact(world.kb(), &artifact, other.clone()).unwrap_err(),
    ];

    let pipeline = IncrementalPipeline::new(world.kb(), models.clone(), config.clone());
    let [foreign, newer] = mutants(pipeline.checkpoint(0).encode());
    let checkpoint = PipelineCheckpoint::decode(&pipeline.checkpoint(0).encode()).unwrap();
    let checkpoint_refusals = [
        PipelineCheckpoint::decode(&foreign).unwrap_err(),
        PipelineCheckpoint::decode(&newer).unwrap_err(),
        checkpoint.restore(world.kb(), models, other).map(|_| ()).unwrap_err(),
    ];

    let [foreign, newer] = mutants(encode_wal_header(fingerprint));
    let dir = std::env::temp_dir().join(format!("ltee-refusals-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(KbStore::wal_path(&dir), encode_wal_header(fingerprint)).unwrap();
    let wal_refusals = [
        wal_refusal(scan_wal(&foreign).map(|_| ())),
        wal_refusal(scan_wal(&newer).map(|_| ())),
        wal_refusal(KbStore::open(&dir, fingerprint ^ 1).map(|_| ())),
    ];
    std::fs::remove_dir_all(&dir).unwrap();

    for (kind, [foreign, newer, mismatched]) in [
        ("model artifact", artifact_refusals),
        ("state checkpoint", checkpoint_refusals),
        ("write-ahead log", wal_refusals),
    ] {
        assert!(matches!(foreign, CodecError::BadMagic(format) if format.name == kind), "{kind}: {foreign:?}");
        assert!(
            matches!(newer, CodecError::UnsupportedVersion { format, found } if format.name == kind && found == format.version + 1),
            "{kind}: {newer:?}"
        );
        assert!(
            matches!(mismatched, CodecError::ConfigMismatch { format, stored, expected } if format.name == kind && stored != expected),
            "{kind}: {mismatched:?}"
        );
        let [foreign, newer, mismatched] = [foreign, newer, mismatched].map(|refusal| refusal.to_string());
        assert_eq!(foreign, format!("not an LTEE {kind} (bad magic header)"));
        assert!(newer.starts_with(&format!("unsupported {kind} format version")), "{newer}");
        assert!(mismatched.starts_with(&format!("{kind} was written under a different configuration")), "{mismatched}");
    }
}
