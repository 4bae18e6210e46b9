//! Knowledge base profiling: the statistics reported in paper Tables 1 and 2.

use crate::model::KnowledgeBase;
use crate::schema::{class_schema, ClassKey};

/// Per-property density information (paper Table 2 rows).
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyDensity {
    /// Property name.
    pub property: &'static str,
    /// Number of facts for the property.
    pub facts: usize,
    /// Fraction of class instances with a fact for the property.
    pub density: f64,
}

/// Per-class profile (paper Table 1 rows plus Table 2 density breakdown).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassProfile {
    /// The class.
    pub class: ClassKey,
    /// Number of instances of the class.
    pub instances: usize,
    /// Number of facts over all instances of the class.
    pub facts: usize,
    /// Densities per property, ordered from densest to sparsest (as in the
    /// paper's Table 2).
    pub densities: Vec<PropertyDensity>,
}

impl ClassProfile {
    /// Compute the profile of a class from the knowledge base.
    pub fn compute(kb: &KnowledgeBase, class: ClassKey) -> Self {
        let instances = kb.class_instance_count(class);
        let facts = kb.class_fact_count(class);
        let mut densities = Vec::new();
        for spec in class_schema(class) {
            if let Some(prop) = kb.property_by_name(class, spec.name) {
                let count = kb.property_values(prop.id).len();
                let density = if instances == 0 { 0.0 } else { count as f64 / instances as f64 };
                densities.push(PropertyDensity { property: spec.name, facts: count, density });
            }
        }
        densities.sort_by(|a, b| b.density.partial_cmp(&a.density).unwrap_or(std::cmp::Ordering::Equal));
        Self { class, instances, facts, densities }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_world, GeneratorConfig, Scale};

    #[test]
    fn profile_counts_match_kb() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 1));
        for class in crate::schema::CLASS_KEYS {
            let profile = ClassProfile::compute(world.kb(), class);
            assert_eq!(profile.instances, world.kb().class_instance_count(class));
            assert_eq!(profile.facts, world.kb().class_fact_count(class));
            let sum: usize = profile.densities.iter().map(|d| d.facts).sum();
            assert_eq!(sum, profile.facts, "per-property facts must sum to class facts");
        }
    }

    #[test]
    fn densities_are_sorted_descending() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 2));
        let profile = ClassProfile::compute(world.kb(), ClassKey::GridironFootballPlayer);
        for w in profile.densities.windows(2) {
            assert!(w[0].density >= w[1].density);
        }
    }

    #[test]
    fn densities_within_unit_interval() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 3));
        for class in crate::schema::CLASS_KEYS {
            let profile = ClassProfile::compute(world.kb(), class);
            for d in &profile.densities {
                assert!((0.0..=1.0).contains(&d.density));
            }
        }
    }

    #[test]
    fn generated_densities_track_schema_densities() {
        // At gold scale the empirical density should be within ±0.15 of the
        // schema density for every property.
        let world = generate_world(&GeneratorConfig::new(Scale::gold(), 4));
        for class in crate::schema::CLASS_KEYS {
            let profile = ClassProfile::compute(world.kb(), class);
            for spec in class_schema(class) {
                let observed = profile
                    .densities
                    .iter()
                    .find(|d| d.property == spec.name)
                    .map(|d| d.density)
                    .unwrap_or(0.0);
                assert!(
                    (observed - spec.kb_density).abs() < 0.15,
                    "{class}/{}: observed {observed:.2} vs schema {:.2}",
                    spec.name,
                    spec.kb_density
                );
            }
        }
    }

    #[test]
    fn empty_kb_profile_is_zero() {
        let kb = KnowledgeBase::new();
        let profile = ClassProfile::compute(&kb, ClassKey::Song);
        assert_eq!(profile.instances, 0);
        assert_eq!(profile.facts, 0);
    }
}
