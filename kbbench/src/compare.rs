//! `kbbench compare <a.json> <b.json>`: hold a second set of runs against
//! a first, metric by metric, with the bounds `BENCHMARK.json` fixes. The
//! timings no bound gates are shown beside them, judged against
//! [`TIMING_THRESHOLD`] for the reader and never for the exit status.

use crate::json::Json;
use crate::stats::{median, spread};

/// What the ungated timings are held against: the 10 % the benchmark's
/// issue wanted as their bound, and could not have on a host whose speed
/// steps by 1.4x between runs.
pub const TIMING_THRESHOLD: f64 = 0.10;

/// Verdict on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// `a`'s own run-to-run spread is wider than the bound, so neither
    /// "unchanged" nor "regressed" can be claimed.
    Unresolved,
    /// A deterministic output differs between runs of one seed.
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }
}

/// Bound and direction of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when larger values are better.
    pub higher_is_better: bool,
    /// Share of `a`'s median by which `b` may be worse.
    pub bound: f64,
}

/// The `end_to_end` bounds of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end array")?;
    metrics
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).ok_or(format!("end_to_end metric without {key}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("metric name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Judge one metric from the runs of each side.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let noisy = spread(a).is_some_and(|s| s > bound.bound);
    if noisy {
        // Only "every run of b beats every run of a" survives a spread
        // wider than the bound.
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(med_a, med_b, bound.higher_is_better) > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn runs_of(set: &Json) -> Vec<&Json> {
    match set {
        Json::Arr(runs) => runs.iter().collect(),
        single => vec![single],
    }
}

fn workload_of(run: &Json) -> Option<&str> {
    run.get("workload").and_then(Json::as_str)
}

fn runs_matching<'j>(runs: &[&'j Json], workload: &str, traced: bool) -> Vec<&'j Json> {
    runs.iter()
        .copied()
        .filter(|r| {
            workload_of(r) == Some(workload)
                && matches!(r.get("traced"), Some(Json::Bool(t)) if *t == traced)
        })
        .collect()
}

fn values(runs: &[&Json], metric: &str) -> Vec<f64> {
    values_in(runs, "metrics", metric)
}

fn values_in(runs: &[&Json], section: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get(section)?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Operations that failed in `runs`; a run marked incorrect counts at
/// least once even if it lost its count.
fn failed_ops(runs: &[&Json]) -> f64 {
    runs.iter()
        .map(|r| {
            let failed = r.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
            let correct = matches!(r.get("correct"), Some(Json::Bool(true)));
            failed.max(if correct { 0.0 } else { 1.0 })
        })
        .sum()
}

/// The outputs of `run` that are pure functions of its inputs.
fn exact_fields(run: &Json, traced: bool) -> Vec<(&'static str, Option<String>)> {
    let mut fields: Vec<_> = ["schedule_digest", "kb_digest", "result_digest"]
        .into_iter()
        .map(|f| (f, run.get(f).and_then(Json::as_str).map(str::to_string)))
        .collect();
    let counters: &[&'static str] = if traced {
        crate::report::EXACT_COUNTERS
    } else {
        &["disk_bytes_per_row"]
    };
    for &name in counters {
        fields.push((name, values(&[run], name).first().map(|v| format!("{v}"))));
    }
    fields
}

fn row(workload: &str, what: &str, a: &str, b: &str, ratio: &str, bound: &str, verdict: &str) {
    println!("{workload:<18} {what:<34} {a:>14} {b:>14} {ratio:>8} {bound:>7}  {verdict}");
}

/// Compare set `b` against set `a`; prints one row per (workload, metric)
/// and returns the verdicts, in print order. A workload or metric that
/// only one side has, and any failed operation in `b`, is a regression.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<Vec<Verdict>, String> {
    let bounds = bounds(benchmark)?;
    let (runs_a, runs_b) = (runs_of(a), runs_of(b));
    let mut workloads: Vec<&str> = Vec::new();
    for run in runs_a.iter().chain(&runs_b) {
        let name = workload_of(run).ok_or("run without a workload")?;
        if !workloads.contains(&name) {
            workloads.push(name);
        }
    }
    let mut verdicts = Vec::new();
    row(
        "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict",
    );
    for workload in workloads {
        let (plain_a, plain_b) = (
            runs_matching(&runs_a, workload, false),
            runs_matching(&runs_b, workload, false),
        );
        for bound in &bounds {
            let (va, vb) = (values(&plain_a, &bound.name), values(&plain_b, &bound.name));
            let percent = format!("{:.1}%", bound.bound * 100.0);
            if va.is_empty() || vb.is_empty() {
                let side = |v: &[f64]| if v.is_empty() { "missing" } else { "present" };
                let verdict = Verdict::Regressed;
                row(
                    workload,
                    &bound.name,
                    side(&va),
                    side(&vb),
                    "-",
                    &percent,
                    verdict.label(),
                );
                verdicts.push(verdict);
                continue;
            }
            let verdict = judge(&va, &vb, bound);
            let (ma, mb) = (median(&va), median(&vb));
            row(
                workload,
                &bound.name,
                &format!("{ma:.4}"),
                &format!("{mb:.4}"),
                &format!("{:.4}", mb / ma),
                &percent,
                &format!("{} (n={}/{})", verdict.label(), va.len(), vb.len()),
            );
            verdicts.push(verdict);
        }
        // The ungated timings: shown, judged for the reader, not returned.
        for &(name, _) in crate::report::TIMINGS {
            let (va, vb) = (
                values_in(&plain_a, "timings", name),
                values_in(&plain_b, "timings", name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let threshold = Bound {
                name: name.to_string(),
                higher_is_better: name.ends_with("_per_s"),
                bound: TIMING_THRESHOLD,
            };
            let (ma, mb) = (median(&va), median(&vb));
            row(
                workload,
                name,
                &format!("{ma:.4}"),
                &format!("{mb:.4}"),
                &format!("{:.4}", mb / ma),
                "none",
                &format!(
                    "info: {} at {:.0}% (spread a {:.1}%, b {:.1}%, n={}/{})",
                    judge(&va, &vb, &threshold).label(),
                    TIMING_THRESHOLD * 100.0,
                    spread(&va).unwrap_or(0.0) * 100.0,
                    spread(&vb).unwrap_or(0.0) * 100.0,
                    va.len(),
                    vb.len()
                ),
            );
        }

        for traced in [false, true] {
            let (side_a, side_b) = (
                runs_matching(&runs_a, workload, traced),
                runs_matching(&runs_b, workload, traced),
            );
            if side_a.is_empty() && side_b.is_empty() {
                continue;
            }
            let tag = if traced { ", traced" } else { "" };
            let (failed_a, failed_b) = (failed_ops(&side_a), failed_ops(&side_b));
            let verdict = if failed_b > 0.0 {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            row(
                workload,
                "ops_failed",
                &format!("{failed_a}"),
                &format!("{failed_b}"),
                "-",
                "0",
                &format!(
                    "{} ({}/{} runs{tag})",
                    verdict.label(),
                    side_a.len(),
                    side_b.len()
                ),
            );
            verdicts.push(verdict);

            // Deterministic outputs must repeat exactly: every run of one
            // seed, on both sides, holds the same value.
            let mut seeds: Vec<f64> = Vec::new();
            for run in side_a.iter().chain(&side_b) {
                let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(-1.0);
                if !seeds.contains(&seed) {
                    seeds.push(seed);
                }
            }
            for seed in seeds {
                let of_seed = |side: &[&'_ Json]| -> Vec<Vec<(&'static str, Option<String>)>> {
                    side.iter()
                        .filter(|r| r.get("seed").and_then(Json::as_f64).unwrap_or(-1.0) == seed)
                        .map(|r| exact_fields(r, traced))
                        .collect()
                };
                let (fields_a, fields_b) = (of_seed(&side_a), of_seed(&side_b));
                let Some(reference) = fields_a.first().or(fields_b.first()) else {
                    continue;
                };
                for (n, (field, want)) in reference.iter().enumerate() {
                    let same = |side: &[Vec<(&str, Option<String>)>]| {
                        !side.is_empty() && side.iter().all(|run| run[n].1 == *want)
                    };
                    let verdict = if want.is_some() && same(&fields_a) && same(&fields_b) {
                        Verdict::Ok
                    } else {
                        Verdict::Differs
                    };
                    let shown = |side: &[Vec<(&str, Option<String>)>]| {
                        let mut distinct: Vec<&Option<String>> = Vec::new();
                        for run in side {
                            if !distinct.contains(&&run[n].1) {
                                distinct.push(&run[n].1);
                            }
                        }
                        match distinct.as_slice() {
                            [] => "missing".to_string(),
                            [one] => short(one),
                            many => format!("{} values", many.len()),
                        }
                    };
                    row(
                        workload,
                        field,
                        &shown(&fields_a),
                        &shown(&fields_b),
                        "-",
                        "exact",
                        &format!(
                            "{} (seed {seed}{tag}, {}/{} runs)",
                            if verdict == Verdict::Ok {
                                "identical"
                            } else {
                                verdict.label()
                            },
                            fields_a.len(),
                            fields_b.len()
                        ),
                    );
                    verdicts.push(verdict);
                }
            }
        }
    }
    Ok(verdicts)
}

fn short(value: &Option<String>) -> String {
    match value {
        Some(v) if v.len() > 14 => format!("..{}", &v[v.len() - 12..]),
        Some(v) => v.clone(),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn single_runs_are_judged_by_the_bound() {
        assert_eq!(judge(&[100.0], &[109.0], &lower(0.1)), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[111.0], &lower(0.1)), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[50.0], &lower(0.1)), Verdict::Ok);
        let higher = Bound {
            name: "rate".into(),
            higher_is_better: true,
            bound: 0.1,
        };
        assert_eq!(judge(&[100.0], &[89.0], &higher), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[95.0], &higher), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            judge(&noisy, &[100.0, 101.0], &lower(0.1)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[200.0, 210.0], &lower(0.1)),
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &[70.0, 75.0], &lower(0.1)), Verdict::Ok);
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(
            judge(&steady, &[120.0, 121.0], &lower(0.1)),
            Verdict::Regressed
        );
    }

    fn run_json(workload: &str, digest: &str, rate: f64, failed: u64) -> String {
        format!(
            r#"{{"workload":"{workload}","seed":7,"traced":false,"schedule_digest":"s",
                "kb_digest":"{digest}","result_digest":"r","ops_failed":{failed},
                "correct":{},"metrics":{{"rate":{{"value":{rate}}},
                "disk_bytes_per_row":{{"value":300.5}}}}}}"#,
            failed == 0
        )
    }

    fn set(runs: &[String]) -> Json {
        Json::parse(&format!("[{}]", runs.join(","))).unwrap()
    }

    fn rate_benchmark() -> Json {
        Json::parse(
            r#"{"end_to_end":[{"name":"rate","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn every_run_of_both_sides_is_checked_not_just_the_first_of_b() {
        let a = set(&[run_json("w", "k1", 100.0, 0), run_json("w", "k1", 101.0, 0)]);
        let same = set(&[run_json("w", "k1", 99.0, 0), run_json("w", "k1", 100.0, 0)]);
        let verdicts = compare(&a, &same, &rate_benchmark()).unwrap();
        // rate, ops_failed, three digests, disk_bytes_per_row.
        assert_eq!(verdicts.len(), 6);
        assert!(verdicts.iter().all(|&v| v == Verdict::Ok));
        // b's *second* run built another knowledge base.
        let drifted = set(&[run_json("w", "k1", 99.0, 0), run_json("w", "k2", 100.0, 0)]);
        let verdicts = compare(&a, &drifted, &rate_benchmark()).unwrap();
        assert_eq!(
            verdicts.iter().filter(|&&v| v == Verdict::Differs).count(),
            1
        );
    }

    #[test]
    fn failed_or_absent_runs_in_b_do_not_pass() {
        let a = set(&[run_json("w", "k1", 100.0, 0), run_json("v", "k1", 100.0, 0)]);
        // A failed operation in b.
        let failing = set(&[run_json("w", "k1", 100.0, 2), run_json("v", "k1", 100.0, 0)]);
        let verdicts = compare(&a, &failing, &rate_benchmark()).unwrap();
        assert_eq!(
            verdicts
                .iter()
                .filter(|&&v| v == Verdict::Regressed)
                .count(),
            1
        );
        // Workload v missing from b: its metric row regresses and its
        // digests have nothing to agree with.
        let partial = set(&[run_json("w", "k1", 100.0, 0)]);
        let verdicts = compare(&a, &partial, &rate_benchmark()).unwrap();
        assert!(verdicts.contains(&Verdict::Regressed));
        assert!(verdicts.contains(&Verdict::Differs));
        // A metric b does not report.
        let other = Json::parse(
            r#"{"end_to_end":[{"name":"latency","unit":"s","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let verdicts = compare(&a, &a, &other).unwrap();
        assert_eq!(
            verdicts
                .iter()
                .filter(|&&v| v == Verdict::Regressed)
                .count(),
            2
        );
    }

    #[test]
    fn bounds_come_from_the_benchmark_file() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"x","unit":"s","better":"lower","bound":0.1},
                               {"name":"y","unit":"1/s","better":"higher","bound":0.25}]}"#,
        )
        .unwrap();
        let parsed = bounds(&doc).unwrap();
        assert_eq!(
            parsed[0],
            Bound {
                name: "x".into(),
                higher_is_better: false,
                bound: 0.1
            }
        );
        assert!(parsed[1].higher_is_better);
        assert!(bounds(&Json::Null).is_err());
    }
}
