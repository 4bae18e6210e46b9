//! `kbbench run` / `kbbench compare` — see `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use kbbench::compare::{compare, Verdict};
use kbbench::json::Json;
use kbbench::plan::{ScaleKind, Workload};
use kbbench::run::{run, RunArgs};

const USAGE: &str = "usage:
  kbbench run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
              [--scale full|smoke] [--out <results.json>] [--out-dir <dir>]
  kbbench compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]
              exits 0 when every row is ok, 1 on a regressed or differing
              row, 3 when the worst row is unresolved

workloads: stream-ingest, lookup-hot, fuzzy-scan, ingest-under-read";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let mut parsed = RunArgs {
        workload: Workload::StreamIngest,
        seed: 42,
        seconds: 10,
        trace: false,
        scale: ScaleKind::Full,
        out_dir: PathBuf::from("kbbench/out"),
    };
    let mut workload = None;
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}\n{USAGE}"))?);
            }
            "--seed" => {
                parsed.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--scale" => {
                let name = value("full or smoke")?;
                parsed.scale = ScaleKind::parse(name).ok_or(format!("unknown scale {name}"))?;
            }
            "--out" => out = Some(PathBuf::from(value("a file")?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value("a directory")?),
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    parsed.workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;

    let result = run(&parsed);
    result.print();
    if let Some(path) = out {
        result.append_to(&path)?;
    }
    // The driver reads the last line of standard output.
    println!("{}", result.driver_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut benchmark = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = Some(it.next().ok_or("--benchmark needs a file")?.clone());
        } else {
            files.push(arg.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(USAGE.to_string());
    };
    let benchmark = match benchmark {
        Some(path) => path,
        None => ["BENCHMARK.json", "../BENCHMARK.json"]
            .into_iter()
            .find(|p| std::path::Path::new(p).exists())
            .ok_or("no BENCHMARK.json here or one level up; pass --benchmark")?
            .to_string(),
    };
    let verdicts = compare(&read_json(a)?, &read_json(b)?, &read_json(&benchmark)?)?;
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    println!(
        "{} rows: {} ok, {} regressed, {} unresolved, {} differing",
        verdicts.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Differs),
    );
    // An unresolved row is not agreement: only "every row ok" exits 0.
    Ok(if count(Verdict::Regressed) + count(Verdict::Differs) > 0 {
        ExitCode::FAILURE
    } else if count(Verdict::Unresolved) > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}
