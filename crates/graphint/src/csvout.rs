//! Tiny CSV writer (no external dependency).

/// Quotes a CSV field when needed (RFC 4180 style).
pub fn quote_field(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serialises rows (first row = header) into CSV text.
pub fn to_csv(rows: &[Vec<String>]) -> String {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|f| quote_field(f))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// Writes CSV rows to a file, creating parent directories as needed.
pub fn write_csv(path: &std::path::Path, rows: &[Vec<String>]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_csv(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_untouched() {
        assert_eq!(quote_field("abc"), "abc");
        assert_eq!(quote_field("1.5"), "1.5");
    }

    #[test]
    fn special_fields_quoted() {
        assert_eq!(quote_field("a,b"), "\"a,b\"");
        assert_eq!(quote_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(quote_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn csv_assembly() {
        let rows = vec![
            vec!["name".to_string(), "value".to_string()],
            vec!["a,b".to_string(), "1".to_string()],
        ];
        let csv = to_csv(&rows);
        assert_eq!(csv, "name,value\n\"a,b\",1\n");
    }

    #[test]
    fn file_roundtrip() {
        let dir = crate::testdir::TempDir::new("csv-file-roundtrip");
        let path = dir.path().join("out.csv");
        write_csv(&path, &[vec!["x".into()], vec!["1".into()]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x\n1\n");
    }
}
