//! Parsing and comparison of `BENCH_*.json` baselines.
//!
//! The criterion shim persists every bench run as a flat JSON file (see
//! `crates/shims/criterion`). This module reads two such files — a
//! committed baseline and a fresh run — matches entries by name, and
//! aggregates fresh/base ratios **per pipeline stage** (the second path
//! segment of `pipeline/<stage>/<variant>` labels; other labels group
//! under their full name). The aggregate is a geometric mean of median
//! ratios: robust to one noisy variant, sensitive to a stage-wide slide.
//!
//! The files are read with [`graphserve::json::Json`], the workspace's
//! one JSON parser (the workspace has no serde).

use graphserve::json::Json;

/// One parsed benchmark entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Full bench label, e.g. `pipeline/build/l24`.
    pub name: String,
    /// Median sample time in nanoseconds (falls back to `mean_ns` when the
    /// file predates the `median_ns` field).
    pub median_ns: f64,
}

/// Parses the shim's baseline JSON: one `results` array of flat objects
/// with a string `name` and numeric stats. Returns an empty vector for
/// text that is not JSON or has no `results` array; entries missing a
/// name or any usable duration are skipped.
pub fn parse_baseline(text: &str) -> Vec<BenchEntry> {
    let Ok(doc) = Json::parse(text) else {
        return Vec::new();
    };
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    results
        .iter()
        .filter_map(|entry| {
            let Some(Json::Str(name)) = entry.get("name") else {
                return None;
            };
            let stat = |key| entry.get(key).and_then(Json::as_f64);
            Some(BenchEntry {
                name: name.clone(),
                median_ns: stat("median_ns").or_else(|| stat("mean_ns"))?,
            })
        })
        .collect()
}

/// The stage key of a bench label: the second segment of
/// `group/stage/variant` labels, the whole label otherwise.
pub fn stage_of(name: &str) -> &str {
    let mut parts = name.splitn(3, '/');
    let _group = parts.next();
    match (parts.next(), parts.next()) {
        // group/stage/variant → stage
        (Some(stage), Some(_)) => stage,
        // group/variant or bare label → whole thing
        _ => name,
    }
}

/// Per-stage comparison of a fresh run against a baseline.
#[derive(Debug, Clone)]
pub struct StageComparison {
    /// Stage key (see [`stage_of`]).
    pub stage: String,
    /// Number of benchmark entries present in both files for this stage.
    pub matched: usize,
    /// Geometric mean of `fresh_median / base_median` over matched entries.
    pub geomean_ratio: f64,
}

/// Names of the baseline entries that have no entry of the same name in
/// the fresh run, in baseline order. A renamed or deleted bench shows up
/// here; the gate refuses to pass over it.
pub fn missing<'a>(base: &'a [BenchEntry], fresh: &[BenchEntry]) -> Vec<&'a str> {
    base.iter()
        .filter(|b| !fresh.iter().any(|f| f.name == b.name))
        .map(|b| b.name.as_str())
        .collect()
}

/// Matches entries by full name and aggregates median ratios per stage.
/// Entries present in only one file have no ratio and are skipped here
/// (see [`missing`] for the baseline side); stages appear in first-seen
/// (baseline) order.
pub fn compare(base: &[BenchEntry], fresh: &[BenchEntry]) -> Vec<StageComparison> {
    let mut stages: Vec<StageComparison> = Vec::new();
    let mut log_sums: Vec<f64> = Vec::new();
    for b in base {
        let Some(f) = fresh.iter().find(|f| f.name == b.name) else {
            continue;
        };
        if b.median_ns <= 0.0 || f.median_ns <= 0.0 {
            continue;
        }
        let ratio = f.median_ns / b.median_ns;
        let stage = stage_of(&b.name);
        match stages
            .iter_mut()
            .zip(&mut log_sums)
            .find(|(s, _)| s.stage == stage)
        {
            Some((s, ls)) => {
                s.matched += 1;
                *ls += ratio.ln();
            }
            None => {
                stages.push(StageComparison {
                    stage: stage.to_string(),
                    matched: 1,
                    geomean_ratio: 1.0,
                });
                log_sums.push(ratio.ln());
            }
        }
    }
    for (s, ls) in stages.iter_mut().zip(&log_sums) {
        s.geomean_ratio = (ls / s.matched as f64).exp();
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "results": [
    {"name": "pipeline/build/l24", "min_ns": 90, "mean_ns": 100, "median_ns": 100, "max_ns": 120, "samples": 10},
    {"name": "pipeline/build/l48", "min_ns": 180, "mean_ns": 210, "median_ns": 200, "max_ns": 240, "samples": 10},
    {"name": "pipeline/fit/full", "min_ns": 900, "mean_ns": 1100, "median_ns": 1000, "max_ns": 1300, "samples": 10}
  ]
}
"#;

    #[test]
    fn parses_shim_output() {
        let entries = parse_baseline(SAMPLE);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].name, "pipeline/build/l24");
        assert_eq!(entries[0].median_ns, 100.0);
        assert_eq!(entries[2].median_ns, 1000.0);
    }

    #[test]
    fn falls_back_to_mean_for_old_files() {
        let old = r#"{"results": [
            {"name": "g/s/v", "min_ns": 1, "mean_ns": 5, "max_ns": 9, "samples": 3}
        ]}"#;
        let entries = parse_baseline(old);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].median_ns, 5.0);
    }

    #[test]
    fn tolerates_garbage() {
        assert!(parse_baseline("").is_empty());
        assert!(parse_baseline("{}").is_empty());
        assert!(parse_baseline("not json at all").is_empty());
        assert!(parse_baseline("{\"results\": [ {\"nope\": 1} ]}").is_empty());
    }

    #[test]
    fn stage_extraction() {
        assert_eq!(stage_of("pipeline/build/l24"), "build");
        assert_eq!(stage_of("pipeline/fit/full"), "fit");
        assert_eq!(stage_of("distances/euclidean"), "distances/euclidean");
        assert_eq!(stage_of("bare"), "bare");
    }

    #[test]
    fn compare_geomean_per_stage() {
        let base = parse_baseline(SAMPLE);
        // build/l24 doubled, build/l48 halved → geomean exactly 1; fit 1.5x.
        let fresh = vec![
            BenchEntry {
                name: "pipeline/build/l24".into(),
                median_ns: 200.0,
            },
            BenchEntry {
                name: "pipeline/build/l48".into(),
                median_ns: 100.0,
            },
            BenchEntry {
                name: "pipeline/fit/full".into(),
                median_ns: 1500.0,
            },
        ];
        let cmp = compare(&base, &fresh);
        assert_eq!(cmp.len(), 2);
        let build = cmp.iter().find(|c| c.stage == "build").unwrap();
        assert_eq!(build.matched, 2);
        assert!((build.geomean_ratio - 1.0).abs() < 1e-12);
        let fit = cmp.iter().find(|c| c.stage == "fit").unwrap();
        assert_eq!(fit.matched, 1);
        assert!((fit.geomean_ratio - 1.5).abs() < 1e-12);
    }

    #[test]
    fn missing_names_baseline_entries_the_fresh_run_lacks() {
        let entry = |name: &str| BenchEntry {
            name: name.into(),
            median_ns: 1.0,
        };
        let base = vec![entry("g/a/1"), entry("g/b/1"), entry("g/c/1")];
        // Fresh-only entries are informational, never "missing".
        let fresh = vec![entry("g/b/1"), entry("g/new/1")];
        assert_eq!(missing(&base, &fresh), ["g/a/1", "g/c/1"]);
        assert!(missing(&base, &base).is_empty());
        assert!(missing(&[], &fresh).is_empty());
    }

    #[test]
    fn compare_skips_unmatched_and_degenerate() {
        let base = vec![
            BenchEntry {
                name: "only/in/base".into(),
                median_ns: 10.0,
            },
            BenchEntry {
                name: "g/zero/v".into(),
                median_ns: 0.0,
            },
        ];
        let fresh = vec![BenchEntry {
            name: "g/zero/v".into(),
            median_ns: 5.0,
        }];
        assert!(compare(&base, &fresh).is_empty());
    }
}
