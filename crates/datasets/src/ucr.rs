//! UCR archive TSV loader.
//!
//! UCR distributes datasets as `<Name>_TRAIN.tsv` / `<Name>_TEST.tsv` with
//! one series per line: the class label first, then the values, separated
//! by tabs. When a local copy of the archive exists, this loader lets the
//! harness run on real data instead of the synthetic collection.

use std::collections::HashMap;
use std::io::BufReader;
use std::path::Path;
use tscore::{Dataset, DatasetKind, TimeSeries, TsError};

/// Parses UCR TSV content: `label \t v1 \t v2 …` per line.
///
/// Labels may be arbitrary integers (UCR uses 1-based and sometimes −1/1);
/// they are compacted to `0..k` in first-appearance order.
pub fn parse_ucr_tsv(content: &str, name: &str, kind: DatasetKind) -> Result<Dataset, TsError> {
    let mut series = Vec::new();
    let mut raw_labels: Vec<i64> = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(['\t', ',', ' ']).filter(|f| !f.is_empty());
        let label: i64 = fields
            .next()
            .ok_or_else(|| TsError::Parse(format!("line {}: empty", lineno + 1)))?
            .parse()
            .map_err(|e| TsError::Parse(format!("line {}: bad label: {e}", lineno + 1)))?;
        let values: Result<Vec<f64>, _> = fields.map(str::parse::<f64>).collect();
        let values =
            values.map_err(|e| TsError::Parse(format!("line {}: bad value: {e}", lineno + 1)))?;
        if values.is_empty() {
            return Err(TsError::Parse(format!("line {}: no values", lineno + 1)));
        }
        series.push(TimeSeries::new(values));
        raw_labels.push(label);
    }
    // Compact labels in first-appearance order.
    let mut map: HashMap<i64, usize> = HashMap::new();
    let mut labels = Vec::with_capacity(raw_labels.len());
    for l in raw_labels {
        let next = map.len();
        labels.push(*map.entry(l).or_insert(next));
    }
    Dataset::with_labels(name, kind, series, labels)
}

/// Loads a UCR TSV file from disk.
pub fn load_ucr_file(path: &Path, kind: DatasetKind) -> Result<Dataset, TsError> {
    let file = std::fs::File::open(path)
        .map_err(|e| TsError::Parse(format!("{}: {e}", path.display())))?;
    let mut content = String::new();
    let mut reader = BufReader::new(file);
    use std::io::Read;
    reader
        .read_to_string(&mut content)
        .map_err(|e| TsError::Parse(format!("{}: {e}", path.display())))?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("ucr")
        .to_string();
    parse_ucr_tsv(&content, &name, kind)
}

/// Loads and concatenates `<dir>/<name>/<name>_TRAIN.tsv` and `_TEST.tsv`
/// (the usual layout of an extracted UCR archive); either file alone works.
pub fn load_ucr_dataset(archive_dir: &Path, name: &str) -> Result<Dataset, TsError> {
    let base = archive_dir.join(name);
    let train = base.join(format!("{name}_TRAIN.tsv"));
    let test = base.join(format!("{name}_TEST.tsv"));
    let mut content = String::new();
    let mut found = false;
    for p in [&train, &test] {
        if p.exists() {
            content.push_str(
                &std::fs::read_to_string(p)
                    .map_err(|e| TsError::Parse(format!("{}: {e}", p.display())))?,
            );
            content.push('\n');
            found = true;
        }
    }
    if !found {
        return Err(TsError::Parse(format!(
            "no TRAIN/TEST tsv found under {}",
            base.display()
        )));
    }
    parse_ucr_tsv(&content, name, DatasetKind::Other)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tab_separated() {
        let content = "1\t0.5\t0.6\t0.7\n2\t1.5\t1.6\t1.7\n1\t0.1\t0.2\t0.3\n";
        let d = parse_ucr_tsv(content, "toy", DatasetKind::Other).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.labels(), Some(&[0, 1, 0][..]));
        assert_eq!(d.series()[1].values(), &[1.5, 1.6, 1.7]);
    }

    #[test]
    fn parses_negative_and_sparse_labels() {
        let content = "-1 0.5 0.6\n1 1.5 1.6\n-1 0.0 0.1\n";
        let d = parse_ucr_tsv(content, "toy", DatasetKind::Other).unwrap();
        assert_eq!(d.labels(), Some(&[0, 1, 0][..]));
    }

    #[test]
    fn skips_blank_lines() {
        let content = "1\t0.5\t0.6\n\n2\t1.5\t1.6\n";
        let d = parse_ucr_tsv(content, "toy", DatasetKind::Other).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_ucr_tsv("abc\t1.0\n", "bad", DatasetKind::Other).is_err());
        assert!(parse_ucr_tsv("1\tnotanumber\n", "bad", DatasetKind::Other).is_err());
        assert!(parse_ucr_tsv("1\n", "bad", DatasetKind::Other).is_err());
    }

    /// A scratch directory named by the process id, so concurrent
    /// `cargo test` runs never share it; removed on drop, also when the
    /// test fails.
    struct TempDir(std::path::PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn file_roundtrip() {
        let tmp = TempDir(std::env::temp_dir().join(format!(
            "graphint-ucr-file-roundtrip-{}",
            std::process::id()
        )));
        let dir = &tmp.0;
        std::fs::create_dir_all(dir.join("Toy")).unwrap();
        std::fs::write(dir.join("Toy/Toy_TRAIN.tsv"), "1\t0.1\t0.2\n2\t0.9\t1.0\n").unwrap();
        std::fs::write(dir.join("Toy/Toy_TEST.tsv"), "2\t0.8\t0.9\n").unwrap();
        let d = load_ucr_dataset(dir, "Toy").unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_classes(), 2);
        let single = load_ucr_file(&dir.join("Toy/Toy_TRAIN.tsv"), DatasetKind::Other).unwrap();
        assert_eq!(single.len(), 2);
        assert!(load_ucr_dataset(dir, "Missing").is_err());
    }
}
