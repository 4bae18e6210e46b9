//! Model artifact round-trip contract: a saved-and-loaded artifact serves
//! bit-identically to the in-memory models it was created from, and
//! corrupted or configuration-mismatched artifacts are rejected with clear
//! typed errors instead of being mis-served.
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 77.
//! Expected runtime: ~20 s in debug (one training run, two serve runs).

use ltee_core::prelude::*;

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
    assert!(matches!(ModelArtifact::decode(&bad_magic), Err(ArtifactError::BadMagic)));

    // Unknown future version.
    let mut bad_version = bytes.clone();
    bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        ModelArtifact::decode(&bad_version),
        Err(ArtifactError::UnsupportedVersion(99))
    ));

    // Truncation.
    let truncated = &bytes[..bytes.len() - 7];
    assert!(matches!(ModelArtifact::decode(truncated), Err(ArtifactError::Corrupted(_))));

    // A single flipped payload byte fails the checksum.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    match ModelArtifact::decode(&flipped) {
        Err(ArtifactError::Corrupted(msg)) => {
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
        ArtifactError::ConfigMismatch { artifact: a, config: c } => assert_ne!(a, c),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    assert!(format!("{err}").contains("different configuration"), "error should explain itself");

    // …while execution placement (thread and shard counts) is accepted.
    let placed =
        PipelineConfig { parallelism: Parallelism::Threads(4), shards: ShardPlan::Shards(3), ..config.clone() };
    assert!(IncrementalPipeline::from_artifact(world.kb(), &artifact, placed).is_ok());
}
