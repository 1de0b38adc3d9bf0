//! `meshcoll-benchmark`: the end-to-end and per-layer benchmark of the
//! meshcoll simulator stack.
//!
//! ```text
//! meshcoll-benchmark [--workload <name>] [--seed <n>] [--seconds <n>]
//!                    [--trace <0|1> | --traced] [--out <dir>]
//! meshcoll-benchmark compare <parent.json>... -- <change.json>...
//! ```
//!
//! With `--workload`, one workload runs in this process: set-up (three
//! times; the median is `setup_s`), the timed closed loop of one client
//! for about `--seconds`, then untimed checks of a seeded sample. With
//! `--trace 1` a traced pass over every point follows one timed pass and
//! the per-layer metrics are reported instead. The last line of standard
//! output is the run's JSON result. Without `--workload`, every workload
//! runs in a fresh child process and a summary table follows.
//! See `benchmark/README.md`.

mod compare;
mod points;
mod probe;
mod report;
mod run;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use meshcoll_util::json::{self, Value};

use points::Workload;
use report::{result_line, END_TO_END, PER_LAYER};
use run::{Bench, CacheDelta};

const USAGE: &str = "usage: meshcoll-benchmark [--workload <name>] [--seed <n>] [--seconds <n>] \
                     [--trace <0|1> | --traced] [--out <dir>]\n       \
                     meshcoll-benchmark compare <parent.json>... -- <change.json>...";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed points per run, so `point_ms_p90` has ten beyond it.
const MIN_POINTS: usize = 100;

/// A parsed invocation.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        traced: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--traced" => args.traced = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(w) if args.traced => traced_run(w, &args),
        Some(w) => e2e_run(w, &args),
        None => return run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set-up, timed phase and sampled checks; prints the end-to-end metrics.
fn e2e_run(w: Workload, args: &Args) -> Result<(), String> {
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        bench = Some(Bench::setup(w, args.seed)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");
    let timed = bench.timed_phase(args.seconds, MIN_POINTS, usize::MAX);
    let peak_rss = probe::peak_rss_mib().unwrap_or(f64::NAN);

    let point_ms: Vec<f64> = timed.point_secs.iter().map(|&(_, s)| s * 1e3).collect();
    let ops: Vec<u64> = (0..bench.points.len()).map(|i| bench.ops(i)).collect();
    let total_ops: u64 = timed.point_secs.iter().map(|&(i, _)| ops[i]).sum();
    let timed_secs: f64 = timed.pass_secs.iter().sum();
    let gbps = stats::geomean(bench.points.iter().zip(&timed.first).filter_map(|(p, r)| {
        let o = r.as_ref().ok()?;
        (!p.spec.is_online()).then_some(p.spec.bytes() as f64 / o.makespan_ns?)
    }));
    let p90 = stats::percentile(&point_ms, 90.0).ok_or("fewer than 100 timed points")?;
    let values = vec![
        ("setup_s", stats::median(&setup_secs)),
        ("sweep_s", stats::median(&timed.pass_secs)),
        (
            "point_ms_p50",
            stats::percentile(&point_ms, 50.0).unwrap_or(f64::NAN),
        ),
        ("point_ms_p90", p90),
        ("sim_ops_per_s", total_ops as f64 / timed_secs),
        ("peak_rss_mb", peak_rss),
        ("sim_gbps_geomean", gbps),
    ];

    let (checked, check_failed) = bench.check_sample(&timed, args.seed);
    let timed_failed = timed.failed.iter().filter(|&&f| f).count();
    let failed = timed
        .point_secs
        .iter()
        .filter(|&&(i, _)| timed.failed[i])
        .count()
        + check_failed;
    println!(
        "{} seed {}: {} points a pass, {} passes, {} timed points, {} checked untimed",
        w.name(),
        args.seed,
        bench.points.len(),
        timed.pass_secs.len(),
        point_ms.len(),
        checked
    );
    for (name, value) in &values {
        let unit = END_TO_END
            .iter()
            .find(|d| d.name == *name)
            .map_or("", |d| d.unit);
        println!("  {name:<18} {value:>14.4} {unit}");
    }
    if timed_failed + check_failed > 0 {
        println!("  FAILED: {timed_failed} points erred or changed, {check_failed} failed checks");
    }
    let line = result_line(failed == 0, point_ms.len(), failed, &END_TO_END, &values)?;
    save(
        &args.out,
        &format!("{}-s{}-e2e.json", w.name(), args.seed),
        &tagged(w, args, &line),
    )?;
    println!("{line}");
    Ok(())
}

/// One timed pass, then the traced pass; prints the per-layer metrics and
/// writes the spans.
fn traced_run(w: Workload, args: &Args) -> Result<(), String> {
    let bench = Bench::setup(w, args.seed)?;
    let before = bench.ctx.route_cache_stats();
    let timed = bench.timed_phase(0.0, 0, 1);
    let cache = CacheDelta::between(&before, &bench.ctx.route_cache_stats());
    let t0 = Instant::now();
    let (layers, spans, failed) = bench.traced_pass(&timed);
    let values = layers.values(&spans, &cache);
    println!(
        "{} seed {} traced: {} points ({:.1} s timed pass, {:.1} s traced), {} reference-checked, \
         peak RSS {:.0} MiB",
        w.name(),
        args.seed,
        bench.points.len(),
        timed.pass_secs[0],
        t0.elapsed().as_secs_f64(),
        layers.referenced(),
        probe::peak_rss_mib().unwrap_or(f64::NAN)
    );
    println!("  self time by span (ms):");
    for (name, ms) in spans.self_times() {
        println!("    {name:<24} {ms:>12.2}");
    }
    for (name, value) in &values {
        let unit = PER_LAYER
            .iter()
            .find(|d| d.name == *name)
            .map_or("", |d| d.unit);
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    let line = result_line(failed == 0, bench.points.len(), failed, &PER_LAYER, &values)?;
    save(
        &args.out,
        &format!("{}-s{}-spans.json", w.name(), args.seed),
        &spans.to_json(|i| format!("{:?}", bench.points[i].spec)),
    )?;
    save(
        &args.out,
        &format!("{}-s{}-trace.json", w.name(), args.seed),
        &tagged(w, args, &line),
    )?;
    println!("{line}");
    Ok(())
}

/// A result line wrapped with the run's workload, seed and mode: the input
/// format of `compare`.
fn tagged(w: Workload, args: &Args, line: &str) -> String {
    let result = json::parse(line).expect("result lines are valid JSON");
    Value::Object(vec![
        ("workload".into(), Value::String(w.name().into())),
        ("seed".into(), Value::Number(args.seed as f64)),
        ("traced".into(), Value::Bool(args.traced)),
        ("result".into(), result),
    ])
    .to_string()
}

fn save(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs every workload in its own child process. A child that panics or
/// prints no result counts as `failed_frac = 1` for its workload; the
/// others still run.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows: Vec<Option<Value>> = Vec::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .output();
        let result = child.ok().filter(|o| o.status.success()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            print!("{text}");
            json::parse(text.lines().last()?).ok()
        });
        if result.is_none() {
            println!("{}: no result (the process failed)", w.name());
        }
        rows.push(result);
    }

    println!(
        "\n{:<34}{}",
        "metric",
        Workload::ALL.map(|w| format!("{:>16}", w.name())).concat()
    );
    let print_row = |label: &str, cell: &dyn Fn(&Option<Value>) -> Option<f64>| {
        let cells: String = rows
            .iter()
            .map(|r| cell(r).map_or_else(|| format!("{:>16}", "-"), |v| format!("{v:>16.4}")))
            .collect();
        println!("{label:<34}{cells}");
    };
    // A workload whose process died ran no point successfully.
    print_row("failed_frac", &|r| match r {
        None => Some(1.0),
        Some(v) => Some(v.get("failed")?.as_f64()? / v.get("attempted")?.as_f64()?),
    });
    let decls = if args.traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for d in decls {
        print_row(&format!("{} ({})", d.name, d.unit), &|r| {
            r.as_ref()?
                .get("metrics")?
                .get(d.name)?
                .get("value")?
                .as_f64()
        });
    }
    let all_correct = rows.iter().all(|r| {
        r.as_ref()
            .and_then(|v| v.get("correct"))
            .is_some_and(|c| *c == Value::Bool(true))
    });
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn run_flags_parse() {
        let a = parse(&[
            "--workload",
            "ring-scaling",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::RingScaling));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 20.0, true));
        let a = parse(&["--traced", "--out", "x"]).unwrap();
        assert!(a.traced && a.workload.is_none() && a.seed == 1);
        assert_eq!(a.out, PathBuf::from("x"));
        for bad in [
            &["--trace", "2"][..],
            &["--workload", "nope"],
            &["--seed"],
            &["--frob"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
