//! `compare <parent.json>... -- <change.json>...`: judges a change against
//! its parent from saved end-to-end results, metric by metric and workload
//! by workload, with the bounds `BENCHMARK.json` fixes.
//!
//! Runs pair up by seed order. A change *improved* a metric when it wins at
//! least nine tenths of the pairs (ties count for neither) and the medians
//! differ by more than the parent's quartile spread. When either side's
//! relative quartile spread exceeds the bound, the metric is *unresolved*
//! unless every change run beats every parent run. Otherwise it is *worse*
//! when the change median is worse than the parent median by more than the
//! bound, and *no worse* if not.

use std::collections::BTreeMap;
use std::process::ExitCode;

use meshcoll_util::json::{self, Value};

use crate::report::{BENCHMARK_JSON, END_TO_END};
use crate::stats::{median, quartiles};

/// The judgement on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of pairs the change won, and the verdict. `parent[i]` and
/// `change[i]` form pair `i`; `bound` is the allowed relative worsening.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins =
        (0..pairs).filter(|&i| better(change[i], parent[i])).count() as f64 / pairs.max(1) as f64;
    let (pm, cm) = (median(parent), median(change));
    let (pq1, pq3) = quartiles(parent);
    let (cq1, cq3) = quartiles(change);
    let spread = ((pq3 - pq1) / pm.abs()).max((cq3 - cq1) / cm.abs());
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse_by = if lower_is_better { cm - pm } else { pm - cm } / pm.abs();
    let verdict = if wins >= 0.9 && better(cm, pm) && (cm - pm).abs() > pq3 - pq1 {
        Verdict::Improved
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    };
    (wins, verdict)
}

/// One saved end-to-end run.
struct Run {
    workload: String,
    seed: f64,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if v.get("traced") != Some(&Value::Bool(false)) {
        return Err(format!("{path}: not an end-to-end result"));
    }
    let workload = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or(format!("{path}: no workload"))?;
    let metrics = v
        .get("result")
        .and_then(|r| r.get("metrics"))
        .ok_or(format!("{path}: no metrics"))?;
    let Value::Object(pairs) = metrics else {
        return Err(format!("{path}: metrics is not an object"));
    };
    Ok(Run {
        workload: workload.to_string(),
        seed: v.get("seed").and_then(Value::as_f64).unwrap_or(0.0),
        metrics: pairs
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// `(lower is better, bound)` per end-to-end metric of `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, (bool, f64)> {
    let spec = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end metrics")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("name");
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            (name.to_string(), (lower, bound))
        })
        .collect()
}

/// `v` with five significant digits.
fn sig(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (4 - digits).max(0) as usize)
}

/// The runs of workload `w`, in seed order.
fn of_workload<'a>(runs: &'a [Run], w: &str) -> Vec<&'a Run> {
    let mut v: Vec<&Run> = runs.iter().filter(|r| r.workload == w).collect();
    v.sort_by(|a, b| a.seed.total_cmp(&b.seed));
    v
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: meshcoll-benchmark compare <parent.json>... -- <change.json>...");
        return ExitCode::from(2);
    };
    let load_all = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (parent, change) = match (load_all(&args[..split]), load_all(&args[split + 1..])) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let bounds = bounds();
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut any_worse = false;
    for w in workloads {
        let (p, c) = (of_workload(&parent, w), of_workload(&change, w));
        println!("\n{w}: {} parent runs, {} change runs", p.len(), c.len());
        println!(
            "  {:<18} {:>30} {:>30} {:>6}  verdict",
            "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
        );
        for d in &END_TO_END {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(d.name).copied())
                    .collect()
            };
            let (pv, cv) = (values(&p), values(&c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let (lower, bound) = bounds[d.name];
            let (wins, verdict) = judge(&pv, &cv, lower, bound);
            any_worse |= verdict == Verdict::Worse;
            let show = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{} [{}, {}]", sig(median(v)), sig(q1), sig(q3))
            };
            println!(
                "  {:<18} {:>30} {:>30} {:>5.0}%  {} (bound {bound})",
                d.name,
                show(&pv),
                show(&cv),
                wins * 100.0,
                verdict.label()
            );
        }
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 10] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99];

    fn scaled(f: f64) -> Vec<f64> {
        BASE.iter().map(|v| v * f).collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        assert_eq!(
            judge(&BASE, &scaled(0.8), true, 0.1),
            (1.0, Verdict::Improved)
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            judge(&BASE, &scaled(1.2), false, 0.1),
            (1.0, Verdict::Improved)
        );
        assert_eq!(judge(&BASE, &scaled(0.8), false, 0.1).1, Verdict::Worse);
    }

    #[test]
    fn worsening_past_the_bound_is_worse() {
        assert_eq!(judge(&BASE, &scaled(1.3), true, 0.1), (0.0, Verdict::Worse));
        // Within the bound it is no worse.
        assert_eq!(judge(&BASE, &scaled(1.05), true, 0.1).1, Verdict::NoWorse);
    }

    #[test]
    fn identical_runs_are_no_worse_with_no_wins() {
        assert_eq!(judge(&BASE, &BASE, true, 0.05), (0.0, Verdict::NoWorse));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&wide, &wide, true, 0.1).1, Verdict::Unresolved);
        let far_better: Vec<f64> = wide.iter().map(|v| v * 0.1).collect();
        assert_eq!(judge(&wide, &far_better, true, 0.1).1, Verdict::Improved);
        // Every run better, but the medians differ by less than the
        // parent's quartile spread (median 11, [7.5, 17.5]): resolved, and
        // not a gain.
        let wider = [5.0, 20.0, 8.0, 17.0, 10.0, 6.0, 19.0, 9.0, 16.0, 12.0];
        let barely: Vec<f64> = (0..10).map(|i| 4.9 - 0.01 * f64::from(i)).collect();
        assert_eq!(judge(&wider, &barely, true, 0.1), (1.0, Verdict::NoWorse));
    }
}
