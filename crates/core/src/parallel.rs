//! Thread-count control for pipeline runs.
//!
//! Every hot path in the workspace executes on the vendored rayon shim's
//! work-stealing pool, whose determinism contract guarantees bit-identical
//! results at every thread count (fixed chunking, ordered collection,
//! chunk-wise reductions). [`Parallelism`] lets experiments, examples,
//! tests and benchmarks pin the thread count programmatically instead
//! of via the `LTEE_NUM_THREADS` / `RAYON_NUM_THREADS` environment variables.

/// How many worker threads the pipeline's parallel stages use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Resolve from the environment: `LTEE_NUM_THREADS`, then
    /// `RAYON_NUM_THREADS`, then the machine's available parallelism.
    #[default]
    Auto,
    /// Pin the pool to exactly this many worker threads (minimum 1).
    Threads(usize),
}

impl Parallelism {
    /// The pinned thread count, or `None` for environment resolution.
    pub fn thread_count(self) -> Option<usize> {
        match self {
            Parallelism::Auto => None,
            Parallelism::Threads(n) => Some(n.max(1)),
        }
    }

    /// Install this setting as the process-global thread count. `Auto`
    /// clears any previous pin so the environment resolution applies again.
    ///
    /// With the vendored shim this always succeeds and may be called
    /// repeatedly (e.g. once per pipeline run); with registry rayon the
    /// underlying `build_global` only takes effect before the global pool's
    /// first use, so pin the count once at startup there.
    pub fn install(self) {
        let builder = rayon::ThreadPoolBuilder::new().num_threads(self.thread_count().unwrap_or(0));
        let _ = builder.build_global();
    }

    /// The number of threads parallel stages would use right now if this
    /// setting were installed.
    pub fn resolve(self) -> usize {
        self.thread_count().unwrap_or_else(rayon::current_num_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_resolve() {
        assert_eq!(Parallelism::Auto.thread_count(), None);
        assert_eq!(Parallelism::Threads(4).thread_count(), Some(4));
        // Zero threads makes no sense; clamp to one.
        assert_eq!(Parallelism::Threads(0).thread_count(), Some(1));
        assert_eq!(Parallelism::Threads(1).resolve(), 1);
    }

    #[test]
    fn install_paths_are_exercisable() {
        // The process-global override is shared with every other test in
        // this binary (train_models/Pipeline::run install it too), so only
        // exercise both install paths here without asserting on the global —
        // the pin/unpin behaviour itself is asserted under a lock in
        // vendor/rayon/tests/pool.rs, and results are thread-count
        // independent by the determinism contract anyway.
        Parallelism::Threads(3).install();
        Parallelism::Auto.install();
        assert!(Parallelism::Auto.resolve() >= 1);
    }
}
