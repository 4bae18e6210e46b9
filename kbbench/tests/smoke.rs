//! Every workload and the traced path at `--scale smoke`, with every
//! verification on: keeps the benchmark compiling against the product
//! crates and its contract with `BENCHMARK.json` honest. Seconds to run.

use std::path::{Path, PathBuf};

use kbbench::compare::{compare, Verdict};
use kbbench::json::Json;
use kbbench::plan::{ScaleKind, Workload};
use kbbench::report::{RunResult, END_TO_END, PER_LAYER, TIMINGS};
use kbbench::run::{run, RunArgs};

fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"))
}

fn smoke(workload: Workload, seed: u64, trace: bool, tag: &str) -> RunResult {
    run(&RunArgs {
        workload,
        seed,
        seconds: 1,
        trace,
        scale: ScaleKind::Smoke,
        out_dir: out_dir(tag),
    })
}

fn names(result: &RunResult) -> Vec<&str> {
    result.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_verifies() {
    for workload in Workload::ALL {
        let result = smoke(workload, 42, false, "plain");
        assert!(
            result.correct(),
            "{}: {:?}",
            workload.name(),
            result.failures
        );
        assert_eq!(result.failed, 0);
        assert!(result.attempted > 0);
        assert_eq!(
            names(&result),
            END_TO_END.iter().map(|e| e.0).collect::<Vec<_>>()
        );
        assert_eq!(
            result.timings.iter().map(|m| m.name).collect::<Vec<_>>(),
            TIMINGS.iter().map(|t| t.0).collect::<Vec<_>>()
        );
        for m in result.metrics.iter().chain(&result.timings) {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        // The driver's line: exactly four keys, every metric with value + unit.
        let line = Json::parse(&result.driver_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_match_the_pipeline() {
    for workload in [Workload::StreamIngest, Workload::IngestUnderRead] {
        let result = smoke(workload, 42, true, "traced");
        // `correct` covers the shadow-driver equality check.
        assert!(
            result.correct(),
            "{}: {:?}",
            workload.name(),
            result.failures
        );
        assert_eq!(
            names(&result),
            TIMINGS
                .iter()
                .chain(PER_LAYER)
                .map(|e| e.0)
                .collect::<Vec<_>>()
        );
        assert!(result.timings.is_empty());
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(value("matching.tables") > 0.0 && value("clustering.rows") > 0.0);
        assert!(value("store.checkpoints") >= 1.0 && value("core.checkpoint_bytes") > 0.0);
        assert!(value("index.edit_calls_per_query") > 0.0);
        // Millisecond batches on a busy test host are noisy; the committed
        // full-scale baselines hold this within 0.9-1.1.
        let fidelity = value("core.stage_sum_over_ingest");
        assert!(
            (0.5..2.0).contains(&fidelity),
            "stage sum / real ingest = {fidelity}"
        );

        let trace = out_dir("traced").join(format!("trace-{}-42.json", workload.name()));
        let doc = Json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        assert!(doc
            .get("spans")
            .and_then(Json::as_arr)
            .is_some_and(|s| !s.is_empty()));
        assert!(doc
            .get("summary")
            .and_then(|s| s.get("serve.durable_ingest"))
            .is_some());
    }
}

#[test]
fn one_seed_gives_the_same_inputs_and_outputs_and_compare_agrees() {
    let a = smoke(Workload::FuzzyScan, 7, false, "repeat-a");
    let b = smoke(Workload::FuzzyScan, 7, false, "repeat-b");
    let other = smoke(Workload::FuzzyScan, 8, false, "repeat-c");
    let digests = |r: &RunResult| (r.schedule_digest, r.kb_digest, r.result_digest);
    assert_eq!(digests(&a), digests(&b));
    assert_ne!(a.schedule_digest, other.schedule_digest);
    let bytes = |r: &RunResult| {
        r.metrics
            .iter()
            .find(|m| m.name == "disk_bytes_per_row")
            .unwrap()
            .value
    };
    assert_eq!(bytes(&a), bytes(&b));

    // Digest rows must come out identical; timing rows at this size are
    // noise, so only the deterministic verdicts are asserted.
    let benchmark = Json::parse(&std::fs::read_to_string(benchmark_path()).unwrap()).unwrap();
    let verdicts = compare(
        &Json::Arr(vec![a.json()]),
        &Json::Arr(vec![b.json()]),
        &benchmark,
    )
    .unwrap();
    // Every metric, ops_failed, three digests and the exact disk bytes.
    assert_eq!(verdicts.len(), END_TO_END.len() + 5);
    assert!(!verdicts.contains(&Verdict::Differs));
    let verdicts = compare(
        &Json::Arr(vec![a.json()]),
        &Json::Arr(vec![a.json()]),
        &benchmark,
    )
    .unwrap();
    assert!(verdicts.iter().all(|&v| v == Verdict::Ok));
}

fn benchmark_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_binary_prints() {
    let doc = Json::parse(&std::fs::read_to_string(benchmark_path()).unwrap()).unwrap();
    let listed = |section: &str| -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), [own(TIMINGS), own(PER_LAYER)].concat());
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths, [Json::Str("kbbench".into())]);
}
