//! What a run reports: named metrics with units and sample counts, the
//! digests that prove the inputs and outputs, and the host it ran on.

use std::path::Path;
use std::process::Command;

use crate::json::{obj, Json};
use crate::stats::{percentile, sorted};

/// The end-to-end metrics every untraced run hands the driver: `(name,
/// unit)`. `BENCHMARK.json` lists the same names with their bounds. Only
/// what repeats on a shared host is gated; the timings are in [`TIMINGS`].
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("disk_bytes_per_row", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// The timings of the whole stack, measured at the public API of
/// `ltee-serve`. Every run prints them — the untraced run as its
/// `timings`, the traced run among its per-layer metrics — but no bound
/// gates them: between runs minutes apart the reference host changes speed
/// by up to 1.4x (see `README.md`), so they are compared in alternating
/// pairs, not against a fixed bound.
pub const TIMINGS: &[(&str, &str)] = &[
    ("ingest_rows_per_s", "rows/s"),
    ("ingest_visible_p50_ms", "ms"),
    ("recover_s", "s"),
    ("query_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
];

/// The per-layer metrics every traced run prints: `(name, unit)`, after
/// the [`TIMINGS`]. The layer is the part of the name before the first
/// dot — a crate name.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("matching.match_s", "s"),
    ("matching.ms_per_table", "ms"),
    ("matching.tables", "count"),
    ("matching.mapped_row_share", "ratio"),
    ("clustering.context_s", "s"),
    ("clustering.ingest_s", "s"),
    ("clustering.us_per_row", "us"),
    ("clustering.rows", "count"),
    ("clustering.new_clusters", "count"),
    ("clustering.updated_clusters", "count"),
    ("clustering.late_over_early", "ratio"),
    ("fusion.create_s", "s"),
    ("fusion.us_per_cluster", "us"),
    ("fusion.clusters_fused", "count"),
    ("newdetect.context_s", "s"),
    ("newdetect.detect_s", "s"),
    ("newdetect.entities_classified", "count"),
    ("newdetect.new_share", "ratio"),
    ("core.ingest_s", "s"),
    ("core.stage_sum_over_ingest", "ratio"),
    ("core.encode_corpus_s", "s"),
    ("core.encode_bytes", "bytes"),
    ("core.checkpoint_encode_s", "s"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.restore_s", "s"),
    ("core.train_s", "s"),
    ("store.wal_append_s", "s"),
    ("store.wal_append_p50_us", "us"),
    ("store.wal_bytes", "bytes"),
    ("store.wal_appends", "count"),
    ("store.checkpoint_s", "s"),
    ("store.checkpoint_p50_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.open_s", "s"),
    ("serve.durable_ingest_s", "s"),
    ("serve.publish_s", "s"),
    ("serve.publish_p50_ms", "ms"),
    ("serve.publish_us_per_entity", "us"),
    ("serve.replay_s", "s"),
    ("serve.snapshot_load_ns", "ns"),
    ("serve.versions_retained", "count"),
    ("serve.versions_reclaimed", "count"),
    ("serve.exact.ns_per_op", "ns"),
    ("serve.fuzzy_class.p50_us", "us"),
    ("serve.fuzzy_class.p99_us", "us"),
    ("serve.fuzzy_all.p50_us", "us"),
    ("serve.fuzzy_all.p99_us", "us"),
    ("serve.fuzzy_all.p999_us", "us"),
    ("serve.fetch.ns_per_op", "ns"),
    ("serve.paging.ns_per_op", "ns"),
    ("serve.stats.ns_per_op", "ns"),
    ("serve.fanout_us", "us"),
    ("index.lookup_p50_us", "us"),
    ("index.lookup_p99_us", "us"),
    ("index.edit_calls_per_query", "count"),
    ("index.candidates_scored_per_query", "count"),
    ("index.candidates_skipped_per_query", "count"),
    ("index.skip_ratio", "ratio"),
    ("index.exact_ns_per_op", "ns"),
    ("index.build_s", "s"),
    ("text.myers_ns_per_call", "ns"),
    ("text.normalize_ns_per_label", "ns"),
    ("trace_overhead_pct", "%"),
];

/// Figures printed for the reader but not part of the contract.
pub const EXTRA: &[(&str, &str)] = &[
    ("cycles", "count"),
    ("stream_batches", "count"),
    ("stream_rows", "count"),
    // The stream's wall time with every batch taken from its quietest cycle.
    ("stream_wall_s", "s"),
    // How much longer the median cycle's stream took than that: what the
    // host's other tenants cost this run.
    ("host_disturbance_pct", "%"),
    ("served_entities", "count"),
    ("disk_bytes", "bytes"),
    ("query_rounds", "count"),
    ("ingest_visible_p90_ms", "ms"),
    ("ingest_visible_max_ms", "ms"),
    ("spans", "count"),
];

/// The unit the tables above give `name`. Every metric the benchmark
/// prints is listed there, so an unknown name is a bug in the benchmark.
pub fn unit_of(name: &str) -> &'static str {
    [END_TO_END, TIMINGS, PER_LAYER, EXTRA]
        .into_iter()
        .flatten()
        .find(|(listed, _)| *listed == name)
        .map(|&(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is in none of the metric tables"))
}

/// The work counters that are pure functions of the inputs: they must
/// repeat exactly between runs of one seed and are pinned in
/// `expected.json`.
pub const EXACT_COUNTERS: &[&str] = &[
    "index.edit_calls_per_query",
    "index.candidates_scored_per_query",
    "index.candidates_skipped_per_query",
    "index.skip_ratio",
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value, with every digit it was measured with.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for totals and gauges).
    pub samples: usize,
    /// False when a percentile has fewer than ten samples beyond it.
    pub supported: bool,
}

impl Metric {
    /// A total, gauge or ratio. The unit comes from the metric tables.
    pub fn new(name: &'static str, value: f64) -> Self {
        Self::of(name, value, 1)
    }

    /// A statistic over `samples` samples.
    pub fn of(name: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            value,
            unit: unit_of(name),
            samples,
            supported: true,
        }
    }

    /// Nearest-rank percentile `p` of `samples`; `supported` is false when
    /// fewer than ten samples lie beyond it (0.0 on an empty sample).
    pub fn percentile(name: &'static str, samples: &[f64], p: f64) -> Self {
        Self::percentile_of_sorted(name, &sorted(samples.to_vec()), p)
    }

    /// [`Metric::percentile`] of an already ascending sample.
    pub fn percentile_of_sorted(name: &'static str, sorted: &[f64], p: f64) -> Self {
        let found = percentile(sorted, p);
        Self {
            name,
            value: found.map_or(0.0, |f| f.value),
            unit: unit_of(name),
            samples: found.map_or(0, |f| f.samples),
            supported: found.is_some_and(|f| f.supported),
        }
    }

    fn json(&self) -> (String, Json) {
        let mut members = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), self.unit.into()),
            ("n".to_string(), self.samples.into()),
        ];
        if !self.supported {
            members.push(("low_n".to_string(), true.into()));
        }
        (self.name.to_string(), Json::Obj(members))
    }
}

/// Where and with what a run was made.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the host reports.
    pub nproc: usize,
    /// Worker threads of the program's pool.
    pub threads: usize,
    /// Closed-loop query clients of a round.
    pub clients: usize,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `rustc --version`.
    pub rustc: String,
}

impl Host {
    /// Describe this host.
    pub fn probe(nproc: usize, threads: usize, clients: usize) -> Self {
        let ask = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
        };
        Self {
            nproc,
            threads,
            clients,
            git_rev: ask("git", &["rev-parse", "HEAD"]),
            rustc: ask("rustc", &["--version"]),
        }
    }

    fn json(&self) -> Json {
        obj([
            ("nproc", self.nproc.into()),
            ("threads", self.threads.into()),
            ("clients", self.clients.into()),
            ("git_rev", self.git_rev.as_str().into()),
            ("rustc", self.rustc.as_str().into()),
            ("os", std::env::consts::OS.into()),
            ("arch", std::env::consts::ARCH.into()),
        ])
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed`.
    pub seed: u64,
    /// The `--seconds`.
    pub seconds: u32,
    /// Scale name.
    pub scale: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Host metadata.
    pub host: Host,
    /// Digest of the generated inputs.
    pub schedule_digest: u64,
    /// Digest of the final knowledge base.
    pub kb_digest: u64,
    /// Digest of the schedule's responses on the final knowledge base.
    pub result_digest: u64,
    /// Batches + queries + recoveries + verification lookups issued.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// One line per kind of failure.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or timings followed by per-layer
    /// metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The untraced run's [`TIMINGS`]; empty in the traced run, which has
    /// them among its `metrics`.
    pub timings: Vec<Metric>,
    /// Figures printed for the reader but not part of the contract.
    pub extra: Vec<Metric>,
}

impl RunResult {
    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj([("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect();
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    /// The full record kept in result files and baselines.
    pub fn json(&self) -> Json {
        obj([
            ("workload", self.workload.into()),
            ("seed", self.seed.into()),
            ("seconds", u64::from(self.seconds).into()),
            ("scale", self.scale.into()),
            ("traced", self.traced.into()),
            ("host", self.host.json()),
            ("schedule_digest", hex(self.schedule_digest)),
            ("kb_digest", hex(self.kb_digest)),
            ("result_digest", hex(self.result_digest)),
            ("ops_attempted", self.attempted.into()),
            ("ops_failed", self.failed.into()),
            ("correct", self.correct().into()),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| f.as_str().into()).collect()),
            ),
            (
                "metrics",
                Json::Obj(self.metrics.iter().map(Metric::json).collect()),
            ),
            (
                "timings",
                Json::Obj(self.timings.iter().map(Metric::json).collect()),
            ),
            (
                "extra",
                Json::Obj(self.extra.iter().map(Metric::json).collect()),
            ),
        ])
    }

    /// Print every metric by name with its unit and sample count.
    pub fn print(&self) {
        println!(
            "kbbench {} seed={} seconds={} scale={} traced={}",
            self.workload, self.seed, self.seconds, self.scale, self.traced
        );
        let h = &self.host;
        println!(
            "host: nproc={} threads={} clients={} rustc=\"{}\" git={}",
            h.nproc, h.threads, h.clients, h.rustc, h.git_rev
        );
        println!(
            "digests: schedule={:016x} kb={:016x} result={:016x}",
            self.schedule_digest, self.kb_digest, self.result_digest
        );
        for (title, metrics) in [
            ("metrics", &self.metrics),
            (
                "timings (no bound: compare in alternating pairs)",
                &self.timings,
            ),
            ("extra", &self.extra),
        ] {
            if metrics.is_empty() {
                continue;
            }
            println!("{title}:");
            for m in metrics.iter() {
                let low = if m.supported {
                    ""
                } else {
                    "  (fewer than 10 samples beyond)"
                };
                println!(
                    "  {:<40} {:>16.4} {:<7} n={}{low}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        println!("ops: attempted={} failed={}", self.attempted, self.failed);
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
    }

    /// Append this result to the JSON array in `path` (creating it).
    pub fn append_to(&self, path: &Path) -> Result<(), String> {
        let mut runs = match std::fs::read_to_string(path) {
            Ok(text) => match Json::parse(&text)? {
                Json::Arr(runs) => runs,
                single => vec![single],
            },
            Err(_) => Vec::new(),
        };
        runs.push(self.json());
        std::fs::write(path, Json::Arr(runs).pretty())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

/// `VmHWM` of this process in MiB (0.0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
