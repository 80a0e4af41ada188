//! The repository's benchmark: end-to-end and per-layer metrics of the
//! mdmp workspace on three closed-loop workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload compute_modes --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` there and
//! writes its run record (and, with `--trace 1`, a Chrome trace) under
//! `perfbench/out/`. The last line of standard output is the result
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A failed correctness or name check makes the exit code non-zero.

mod cluster;
mod compute;
mod layers;
mod replay;
mod report;
mod serve;
mod trace;
mod util;

use mdmp_service::Json;
use report::Metrics;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

/// Version of the run-record layout under `perfbench/out/`.
const SCHEMA_VERSION: u32 = 1;

/// The benchmark's workloads and why each exists.
const WORKLOADS: [(&str, &str); 3] = [
    ("compute_modes", compute::WHY),
    ("serve_mix", serve::WHY),
    ("cluster_shard", cluster::WHY),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The names and units `BENCHMARK.json` declares.
struct Declared {
    workloads: Vec<String>,
    end_to_end: BTreeMap<String, String>,
    per_layer: BTreeMap<String, String>,
}

fn declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Json>, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or(format!("BENCHMARK.json has no '{key}' list"))
    };
    let field = |entry: &Json, key: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json entry lacks '{key}'"))
    };
    let metrics = |key: &str| -> Result<BTreeMap<String, String>, String> {
        list(key)?
            .iter()
            .map(|e| Ok((field(e, "name")?, field(e, "unit")?)))
            .collect()
    };
    Ok(Declared {
        workloads: list("workloads")?
            .iter()
            .map(|e| field(e, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Names (and units) printed must equal names declared, both ways.
fn name_check(declared: &Declared, printed: &Metrics, trace: bool) -> Result<(), String> {
    let mut problems = Vec::new();
    let ours: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
    for w in &ours {
        if !declared.workloads.iter().any(|d| d == w) {
            problems.push(format!("workload {w} is not declared"));
        }
    }
    for w in &declared.workloads {
        if !ours.contains(&w.as_str()) {
            problems.push(format!("declared workload {w} does not exist"));
        }
    }
    let want = if trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    for (name, (_, unit)) in &printed.0 {
        match want.get(name) {
            None => problems.push(format!("metric {name} is not declared")),
            Some(u) if u != unit => {
                problems.push(format!("metric {name}: unit {unit}, declared {u}"))
            }
            Some(_) => {}
        }
    }
    for name in want.keys() {
        if !printed.0.contains_key(name) {
            problems.push(format!("declared metric {name} was not measured"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(
        m.0.iter()
            .map(|(k, (v, unit))| {
                (
                    k.clone(),
                    Json::obj(vec![("value", Json::num(*v)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let declared = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(workload, why)) = WORKLOADS.iter().find(|(w, _)| *w == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let tracer = Tracer::new(args.trace);
    let result = match workload {
        "compute_modes" => compute::run(args.seed, args.seconds, args.trace, &tracer),
        "serve_mix" => serve::run(args.seed, args.seconds, args.trace, &tracer),
        _ => cluster::run(args.seed, args.seconds, args.trace, &tracer),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload} could not run: {e}");
            return ExitCode::from(1);
        }
    };
    let printed = std::mem::take(if args.trace {
        &mut report.per_layer
    } else {
        &mut report.end_to_end
    });
    let named = name_check(&declared, &printed, args.trace);
    report.check(
        "printed metric and workload names equal BENCHMARK.json",
        named,
    );

    let out_dir = Path::new("perfbench/out");
    let stem = format!("{workload}-seed{}-trace{}", args.seed, u8::from(args.trace));
    if args.trace {
        let path = out_dir.join(format!("{stem}.trace.json"));
        match tracer.write_chrome(&path) {
            Ok(()) => report.note("trace_file", path.display()),
            Err(e) => report.check("trace written", Err(e.to_string())),
        }
        report.note("trace_spans", tracer.span_count());
    }

    let attempted = report.attempted.max(1);
    let failed = report.failed;
    let failed_ratio = failed as f64 / attempted as f64;
    let correct = report.checks.iter().all(|c| c.ok) && failed == 0;
    let record = Json::obj(vec![
        ("schema_version", Json::num(f64::from(SCHEMA_VERSION))),
        ("workload", Json::str(workload)),
        ("why", Json::str(why)),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host_cores", Json::num(util::host_cores() as f64)),
        ("git_revision", Json::str(util::git_revision())),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("failed_ratio", Json::num(failed_ratio)),
        ("correct", Json::Bool(correct)),
        (
            "checks",
            Json::Arr(
                report
                    .checks
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", Json::str(c.name.clone())),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Obj(
                report
                    .notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(&printed)),
    ]);
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), format!("{record}\n")))
    {
        eprintln!("perfbench: could not write the run record: {e}");
    }

    for c in report.checks.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check failed: {}: {}", c.name, c.detail);
    }
    println!("# {workload} seed={} host_cores={} git={} schema={SCHEMA_VERSION} failed_ratio={failed_ratio}", args.seed, util::host_cores(), util::git_revision());
    for (k, v) in &report.notes {
        println!("# {k}: {v}");
    }
    for (name, (value, unit)) in &printed.0 {
        println!("# {name} = {value} {unit}");
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", metrics_json(&printed)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
