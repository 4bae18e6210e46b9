//! Strongly typed identifiers for knowledge base and world objects.

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u64);

        impl $name {
            /// The raw numeric value.
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        ltee_intern::heap_size!($name {});

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a property of a knowledge base class.
    PropertyId
);
id_type!(
    /// Identifier of an instance in the knowledge base.
    InstanceId
);
id_type!(
    /// Identifier of an entity in the synthetic world (the full universe,
    /// of which the knowledge base covers only the head portion).
    EntityId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types() {
        let i = InstanceId(1);
        let p = PropertyId(1);
        // Compiles only because they are different types with equal raw values.
        assert_eq!(i.raw(), p.raw());
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(InstanceId(3) < InstanceId(10));
    }

    #[test]
    fn from_u64_roundtrip() {
        let e: EntityId = 42u64.into();
        assert_eq!(e.raw(), 42);
    }

    #[test]
    fn display_includes_type_name() {
        assert_eq!(PropertyId(7).to_string(), "PropertyId(7)");
    }
}
