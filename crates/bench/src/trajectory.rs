//! Performance trajectory file: appends timing/counter entries to a
//! `results/BENCH_*.json` record (today `serve_shards` writes
//! `results/BENCH_serve_shards.json`).
//!
//! The file mirrors the `BENCH_kernels.json` layout — a schema header
//! plus one entry object per line — so entries stay diff-friendly and
//! greppable. Entries accumulate across runs: each change appends
//! `label`-tagged rows, and the file becomes the before/after record.
//!
//! The writer renders JSON by hand and the appender preserves existing
//! entry lines textually rather than round-tripping through a parser.

use std::fmt::Write as _;
use std::path::Path;

/// Schema tag written to the file header.
pub const SCHEMA: &str = "preqr-bench-pipeline-v1";

/// One timed pipeline phase under one configuration.
#[derive(Clone, Debug)]
pub struct PipelineEntry {
    /// Row label naming the probe that wrote it, e.g. `serve_shards`.
    pub label: String,
    /// Configuration within the probe, e.g. `shards4`.
    pub phase: String,
    /// Worker-thread setting the phase ran under.
    pub threads: usize,
    /// Whether a trace sink was installed during the run.
    pub trace: bool,
    /// Best-of-N wall-clock seconds for the phase.
    pub seconds: f64,
    /// Metric counters captured after the run (empty when tracing off).
    pub counters: Vec<(String, u64)>,
}

impl PipelineEntry {
    /// Renders the entry as a single JSON object line (no trailing comma).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"label\": \"{}\", \"phase\": \"{}\", \"threads\": {}, \"trace\": {}, \"seconds\": {:.6}",
            escape(&self.label),
            escape(&self.phase),
            self.threads,
            self.trace,
            self.seconds
        );
        if !self.counters.is_empty() {
            s.push_str(", \"counters\": {");
            for (i, (k, v)) in self.counters.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\": {}", escape(k), v);
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Extracts the existing entry lines (raw JSON objects, commas stripped)
/// from a trajectory file's text.
fn existing_entries(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_entries = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("\"entries\"") {
            in_entries = true;
            continue;
        }
        if !in_entries {
            continue;
        }
        if t == "]" || t == "]," {
            break;
        }
        if t.starts_with('{') {
            out.push(t.trim_end_matches(',').to_string());
        }
    }
    out
}

/// Renders the full trajectory file from entry lines.
fn render(entries: &[String]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(s, "    {e}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

/// Appends entries to the trajectory file, preserving existing rows.
///
/// # Errors
/// Propagates I/O failures reading or writing the file.
pub fn append(path: &Path, new: &[PipelineEntry]) -> std::io::Result<()> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => existing_entries(&text),
        Err(_) => Vec::new(),
    };
    entries.extend(new.iter().map(PipelineEntry::to_json));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render(&entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, secs: f64) -> PipelineEntry {
        PipelineEntry {
            label: label.to_string(),
            phase: "pretrain".to_string(),
            threads: 1,
            trace: false,
            seconds: secs,
            counters: vec![],
        }
    }

    #[test]
    fn entry_renders_flat_json() {
        let mut e = entry("serve_shards", 0.5);
        e.counters.push(("nn.matmul.calls".to_string(), 42));
        let j = e.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"label\": \"serve_shards\""));
        assert!(j.contains("\"seconds\": 0.500000"));
        assert!(j.contains("\"counters\": {\"nn.matmul.calls\": 42}"));
    }

    #[test]
    fn render_then_reextract_round_trips() {
        let lines = vec![entry("a", 1.0).to_json(), entry("b", 2.0).to_json()];
        let text = render(&lines);
        assert_eq!(existing_entries(&text), lines);
        assert!(text.contains(SCHEMA));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
