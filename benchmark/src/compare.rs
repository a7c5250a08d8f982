//! `compare <a.json> <b.json>`: two result files of `all`, `a` the parent
//! and `b` the change (or two sets of runs of one commit, to see whether
//! the benchmark repeats). One row per workload × end-to-end metric.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// `a` and `b` hold one value per untraced run. The change regresses when
/// its median is worse than the parent's by more than `bound` (a share of
/// the parent's median). Where either set's own interquartile spread
/// exceeds the bound the two medians cannot be told apart: the row is
/// unresolved, unless every run of the change reads better than every run
/// of the parent.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (med_a, med_b) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let verdict = if widest > bound {
        let all_better = a.iter().all(|x| {
            b.iter().all(|y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn runs_of<'a>(file: &'a Json, workload: &'a str) -> impl Iterator<Item = &'a Json> {
    let runs = file.get("runs").and_then(Json::as_arr).unwrap_or_default();
    runs.iter().filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload))
}

/// Values of `metric` over the untraced runs of `workload` in a result file.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(file, workload)
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failed(file: &Json, workload: &str) -> f64 {
    runs_of(file, workload).filter_map(|r| r.get("failed")?.as_f64()).sum()
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [path_a, path_b] = args else { return Err("usage: compare <a.json> <b.json>".into()) };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (read(path_a)?, read(path_b)?);
    println!(
        "{:<14} {:<12} {:>5} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "unit", "a median", "b median", "worse by", "spread", "bound"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(&a, w.name, m.name), values(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, verdict) = judge(&va, &vb, m.better, m.bound);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{:<14} {:<12} {:>5} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {}  (n = {} / {})",
                w.name,
                m.name,
                m.unit,
                median(&mut va.clone()),
                median(&mut vb.clone()),
                100.0 * worse_by,
                100.0 * spread(&va).unwrap_or(0.0).max(spread(&vb).unwrap_or(0.0)),
                100.0 * m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                va.len(),
                vb.len(),
            );
        }
        // more failed operations is a regression whatever the timings say
        let (fa, fb) = (failed(&a, w.name), failed(&b, w.name));
        if fb > fa {
            regressed = true;
            println!("{:<14} failed operations {fa} -> {fb}  regressed", w.name);
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [88.0, 89.0, 87.0, 88.5, 87.5];
        assert_eq!(judge(&steady, &steady, Better::Higher, 0.08).1, Verdict::Ok);
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.08).1, Verdict::Regressed);
        // the same numbers as a latency: lower is better, so no regression
        assert_eq!(judge(&steady, &slower, Better::Lower, 0.08).1, Verdict::Ok);
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(judge(&steady, &noisy, Better::Higher, 0.08).1, Verdict::Unresolved);
        // noisy, but every run of the change beats every run of the parent
        let faster = [200.0, 260.0, 160.0, 240.0, 180.0];
        assert_eq!(judge(&steady, &faster, Better::Higher, 0.08).1, Verdict::Ok);
    }
}
