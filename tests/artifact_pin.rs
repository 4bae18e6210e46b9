//! Byte pin of a *trained* model artifact.
//!
//! `tests/format_pin.rs` pins the on-disk layout with hand-written bytes;
//! this test pins what training writes into it: the FNV-1a64 of the encoded
//! `ModelArtifact` trained on the tiny world / tiny corpus with
//! `PipelineConfig::fast()`, at 1 and at 4 threads. The models behind the
//! constant date from before the O(n log n) split search and the
//! prepared-value scoring kernels landed; the constant itself is their
//! artifact version 4 encoding, re-pinned when the format changed after
//! checking that the decoded models rendered identically under both
//! versions (for version 3, whose change was the block codec alone, that
//! the raw stream inside the block was byte-identical). So any rewrite of forest fitting, of the pairwise feature
//! kernels or of the training-set construction that moves a single tree,
//! gain, tie-break or weight fails here — next to `kbbench/expected.json`,
//! which pins the same property at benchmark scale.
//!
//! Unlike `format_pin.rs` this runs float arithmetic, including the
//! genetic weight search's `ln` / `cos` (Box-Muller), so the constant is
//! tied to the platform's libm as well as to the source; it is equal in
//! debug and release builds. On one platform, a change to it is a
//! behaviour change.
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 77.
//! Expected runtime: ~10 s in debug (two training runs).

use ltee_core::prelude::*;
use ltee_intern::fnv1a64;

const TRAINED_ARTIFACT_FNV: u64 = 0xde20c847e76d68a9;

fn trained_artifact_fnv(threads: usize) -> u64 {
    let config =
        PipelineConfig { parallelism: Parallelism::Threads(threads), ..PipelineConfig::fast() };
    let trained = TrainedWorld::train_with(77, config);
    fnv1a64(&ModelArtifact::new(trained.models, &trained.config).encode())
}

#[test]
fn trained_artifact_bytes_are_pinned_at_one_thread() {
    assert_eq!(trained_artifact_fnv(1), TRAINED_ARTIFACT_FNV);
}

#[test]
fn trained_artifact_bytes_are_pinned_at_four_threads() {
    assert_eq!(trained_artifact_fnv(4), TRAINED_ARTIFACT_FNV);
}
