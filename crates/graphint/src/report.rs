//! Self-contained HTML report assembly.
//!
//! The demo's Streamlit app is interactive; the reproduction renders each
//! frame into a static HTML report (SVGs inlined, no external assets) that
//! shows the same content.

use std::path::Path;

/// A report being assembled: titled sections of HTML blocks.
#[derive(Debug, Clone, Default)]
pub struct Report {
    title: String,
    sections: Vec<(String, Vec<String>)>,
}

impl Report {
    /// Creates a report with a page title.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// Starts a new section.
    pub fn section(&mut self, heading: impl Into<String>) -> &mut Self {
        self.sections.push((heading.into(), Vec::new()));
        self
    }

    /// Appends an inline SVG to the current section.
    pub fn add_svg(&mut self, svg: &str) -> &mut Self {
        self.push_block(format!("<div class=\"chart\">{svg}</div>"));
        self
    }

    /// Appends a paragraph of (escaped) text.
    pub fn add_text(&mut self, text: &str) -> &mut Self {
        self.push_block(format!("<p>{}</p>", crate::svg::escape(text)));
        self
    }

    /// Appends preformatted text (tables from [`crate::ascii`]).
    pub fn add_pre(&mut self, text: &str) -> &mut Self {
        self.push_block(format!("<pre>{}</pre>", crate::svg::escape(text)));
        self
    }

    fn push_block(&mut self, block: String) {
        if self.sections.is_empty() {
            self.sections.push(("".to_string(), Vec::new()));
        }
        self.sections.last_mut().expect("non-empty").1.push(block);
    }

    /// Renders the full HTML document.
    pub fn to_html(&self) -> String {
        let mut body = String::new();
        for (heading, blocks) in &self.sections {
            if !heading.is_empty() {
                body.push_str(&format!("<h2>{}</h2>\n", crate::svg::escape(heading)));
            }
            for b in blocks {
                body.push_str(b);
                body.push('\n');
            }
        }
        format!(
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
             <title>{title}</title>\
             <style>\
             body{{font-family:sans-serif;max-width:1200px;margin:24px auto;color:#222}}\
             h1{{border-bottom:2px solid #1f77b4}}\
             h2{{margin-top:32px;border-bottom:1px solid #ddd}}\
             pre{{background:#f7f7f7;padding:8px;overflow-x:auto;font-size:12px}}\
             .chart{{margin:12px 0}}\
             </style></head><body>\n<h1>{title}</h1>\n{body}</body></html>\n",
            title = crate::svg::escape(&self.title),
            body = body
        )
    }

    /// Writes the report to disk, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_html())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_sections() {
        let mut r = Report::new("Graphint report");
        r.section("Benchmark");
        r.add_text("hello & <world>");
        r.add_svg("<svg></svg>");
        r.section("Graph");
        r.add_pre("| a | b |");
        let html = r.to_html();
        assert!(html.contains("<h1>Graphint report</h1>"));
        assert!(html.contains("<h2>Benchmark</h2>"));
        assert!(html.contains("hello &amp; &lt;world&gt;"));
        assert!(html.contains("<svg></svg>"));
        assert!(html.contains("<pre>| a | b |</pre>"));
        assert_eq!(r.sections.len(), 2);
    }

    #[test]
    fn blocks_without_section_get_default() {
        let mut r = Report::new("t");
        r.add_text("orphan");
        assert_eq!(r.sections.len(), 1);
        assert!(r.to_html().contains("orphan"));
    }

    #[test]
    fn writes_to_disk() {
        let dir = crate::testdir::TempDir::new("report-writes-to-disk");
        let path = dir.path().join("report.html");
        let mut r = Report::new("t");
        r.add_text("content");
        r.write(&path).unwrap();
        let html = std::fs::read_to_string(&path).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
    }
}
