//! Scenario building shared by the integration tests and the runnable
//! examples.
//!
//! Before this module existed, every example body and several tests
//! repeated the same setup (generate a world, render the training corpus,
//! build per-class gold standards, train the models). [`TrainedWorld`] is
//! that boilerplate, once; the corpus-level scenario machinery
//! ([`Scenario`], [`ScenarioSeed`], [`with_exotic_labels`]) is re-exported
//! from [`ltee_webtables::scenario`] so both consumers import one path.

pub use ltee_webtables::scenario::{
    novel_row_share, with_exotic_labels, with_long_labels, Scenario, ScenarioSeed,
};

use ltee_core::prelude::*;
use ltee_serve::ServePipeline;

/// A trained setup: the synthetic world, the corpus the models were
/// trained on, the per-class gold standards, and the trained models —
/// everything needed to run the batch pipeline or open a serve pipeline.
///
/// Entirely deterministic in `(world_seed, corpus config, pipeline
/// config)`: two `TrainedWorld`s built from the same inputs serve
/// bit-identical results at any thread count.
#[derive(Debug)]
pub struct TrainedWorld {
    /// The synthetic world (KB + long-tail ground truth).
    pub world: World,
    /// The corpus the models were trained on, with its ground truth.
    pub corpus: GeneratedCorpus,
    /// Per-class gold standards derived from the generator's ground truth.
    pub golds: Vec<GoldStandard>,
    /// The pipeline configuration used for training (and later runs).
    pub config: PipelineConfig,
    /// The trained matcher / clustering / detection models.
    pub models: TrainedModels,
}

impl TrainedWorld {
    /// Train on a `Scale::tiny()` world with [`CorpusConfig::tiny`] and
    /// [`PipelineConfig::fast`] — the examples' standard setup.
    pub fn train(world_seed: u64) -> Self {
        Self::train_with(world_seed, &CorpusConfig::tiny(), PipelineConfig::fast())
    }

    /// Train with explicit corpus and pipeline configurations.
    pub fn train_with(
        world_seed: u64,
        corpus_config: &CorpusConfig,
        config: PipelineConfig,
    ) -> Self {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), world_seed));
        let corpus = generate_corpus(&world, corpus_config);
        let golds: Vec<GoldStandard> =
            CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
        let models =
            train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");
        Self { world, corpus, golds, config, models }
    }

    /// Run the two-iteration batch pipeline over the training corpus.
    pub fn run_batch(&self) -> PipelineOutput {
        Pipeline::new(self.world.kb(), self.models.clone(), self.config.clone())
            .run(&self.corpus)
            .expect("non-empty corpus")
    }

    /// Open a fresh serve pipeline over this world's knowledge base (no
    /// tables ingested yet; version 0 published).
    pub fn serve(&self) -> ServePipeline<'_> {
        ServePipeline::new(self.world.kb(), self.models.clone(), self.config.clone())
    }

    /// Generate a scenario corpus for this world (see [`Scenario`]).
    pub fn scenario_corpus(&self, scenario: Scenario, seed: u64) -> GeneratedCorpus {
        scenario.generate(&self.world, seed)
    }

    /// The gold standard of one class.
    pub fn gold(&self, class: ClassKey) -> &GoldStandard {
        self.golds.iter().find(|g| g.class == class).expect("gold standard built per class")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trained_world_is_deterministic() {
        let a = TrainedWorld::train(7);
        let b = TrainedWorld::train(7);
        assert_eq!(a.corpus.tables(), b.corpus.tables());
        assert_eq!(a.golds.len(), CLASS_KEYS.len());
        // Serving both setups returns identical version-0 stats.
        assert_eq!(a.serve().snapshot().stats(), b.serve().snapshot().stats());
    }
}
