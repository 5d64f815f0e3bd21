//! `perf compare <a> <b>`: applies the `BENCHMARK.json` bounds to two
//! sets of result files (each a `--out` file, a JSON array of them, or a
//! directory of them) and prints a verdict per (workload, end-to-end
//! metric). Exits nonzero when any verdict is `worse`.

use std::process::ExitCode;

use crate::json::Json;
use crate::schema::{declared_bounds, Better};

/// The verdict for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// A run-internal spread exceeds the bound: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A measured value with its run-internal spread (a share).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value.
    pub value: f64,
    /// IQR of block statistics ÷ value.
    pub spread: f64,
}

/// Compares `b` against the baseline `a`.
pub fn verdict(a: Measured, b: Measured, better: Better, bound: f64) -> Verdict {
    if a.spread > bound || b.spread > bound {
        return Verdict::Unresolved;
    }
    let change = (b.value - a.value) / a.value.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Every result object in `path`: a file holding one result or an array
/// of results, or a directory of such `.json` files.
fn load(path: &str) -> Result<Vec<Json>, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
    let files = if meta.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.into()]
    };
    let mut results = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        match Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))? {
            Json::Arr(items) => results.extend(items),
            single => results.push(single),
        }
    }
    Ok(results)
}

/// `(value, spread)` of `metric` in the result for `workload`.
fn measured(results: &[Json], workload: &str, metric: &str) -> Option<Measured> {
    let result = results
        .iter()
        .rev()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))?;
    let entry = result.get("metrics")?.get(metric)?;
    Some(Measured {
        value: entry.get("value")?.as_f64()?,
        spread: entry.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// One line per (workload, end-to-end metric) both sets measured.
pub fn table(a: &[Json], b: &[Json], bounds: &[(String, Better, f64)]) -> Vec<(String, Verdict)> {
    let mut workloads: Vec<&str> = a
        .iter()
        .filter_map(|r| r.get("workload").and_then(Json::as_str))
        .filter(|w| {
            b.iter()
                .any(|r| r.get("workload").and_then(Json::as_str) == Some(w))
        })
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut lines = Vec::new();
    for workload in workloads {
        for (metric, better, bound) in bounds {
            let (Some(old), Some(new)) =
                (measured(a, workload, metric), measured(b, workload, metric))
            else {
                continue;
            };
            let verdict = verdict(old, new, *better, *bound);
            lines.push((
                format!(
                    "{workload} {metric} {} -> {} ({:+.1}%, spreads {:.1}%/{:.1}%, bound {:.0}%) {}",
                    old.value,
                    new.value,
                    100.0 * (new.value - old.value) / old.value.abs(),
                    100.0 * old.spread,
                    100.0 * new.spread,
                    100.0 * bound,
                    verdict.as_str()
                ),
                verdict,
            ));
        }
    }
    lines
}

/// The `compare` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_owned();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--benchmark" => match args.next() {
                Some(path) => benchmark = path.clone(),
                None => return usage("--benchmark needs a path"),
            },
            path => paths.push(path.to_owned()),
        }
    }
    let [a, b] = paths.as_slice() else {
        return usage("compare takes two result sets");
    };
    let run = || -> Result<Vec<(String, Verdict)>, String> {
        let text = std::fs::read_to_string(&benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
        let bounds =
            declared_bounds(&Json::parse(&text).map_err(|e| format!("{benchmark}: {e}"))?)?;
        Ok(table(&load(a)?, &load(b)?, &bounds))
    };
    match run() {
        Ok(lines) if lines.is_empty() => usage("the two sets share no measured (workload, metric)"),
        Ok(lines) => {
            for (line, _) in &lines {
                println!("{line}");
            }
            if lines.iter().any(|(_, v)| *v == Verdict::Worse) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => usage(&message),
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("perf compare: {message}");
    eprintln!("usage: perf compare <a.json|dir> <b.json|dir> [--benchmark BENCHMARK.json]");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, spread: f64) -> Measured {
        Measured { value, spread }
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        assert_eq!(
            verdict(m(10.0, 0.01), m(10.5, 0.01), Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            verdict(m(10.0, 0.01), m(11.5, 0.01), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(m(10.0, 0.01), m(8.0, 0.01), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(m(10.0, 0.01), m(8.0, 0.01), Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(m(10.0, 0.2), m(10.0, 0.01), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(m(10.0, 0.01), m(30.0, 0.11), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn table_pairs_results_by_workload() {
        let a = Json::parse(
            r#"[{"workload": "catalog_cold", "metrics": {"p50_ms": {"value": 1.0, "spread": 0.01}}},
                {"workload": "large_plate", "metrics": {"p50_ms": {"value": 2000.0, "spread": 0.0}}}]"#,
        )
        .expect("valid");
        let b = Json::parse(
            r#"[{"workload": "catalog_cold", "metrics": {"p50_ms": {"value": 1.2, "spread": 0.02}}}]"#,
        )
        .expect("valid");
        let bounds = vec![
            ("p50_ms".to_owned(), Better::Lower, 0.1),
            ("ops_per_s".to_owned(), Better::Higher, 0.1),
        ];
        let a = a.as_array().expect("array").to_vec();
        let b = b.as_array().expect("array").to_vec();
        let lines = table(&a, &b, &bounds);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].0.starts_with("catalog_cold p50_ms 1 -> 1.2"));
        assert_eq!(lines[0].1, Verdict::Worse);
    }
}
