//! Statistics, process readings and the JSON lines the benchmark prints.

use std::fmt::Write as _;
use std::path::Path;

pub use seldel_sim::percentile;

/// A JSON object under construction, keys in insertion order.
#[derive(Debug, Default)]
pub struct Json(Vec<(String, String)>);

impl Json {
    /// Adds `key` with an already rendered JSON value.
    pub fn raw(&mut self, key: &str, json: String) -> &mut Json {
        self.0.push((key.to_string(), json));
        self
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Json {
        self.raw(key, value.to_string())
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Json {
        self.raw(key, json_num(value))
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Json {
        self.raw(key, json_str(value))
    }

    /// Adds a metric as the benchmark prints it: `{"value": .., "unit": ..}`.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) -> &mut Json {
        let rendered = Json::default()
            .num("value", value)
            .str("unit", unit)
            .render();
        self.raw(name, rendered)
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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
    out.push('"');
    out
}

/// A JSON number with every digit the float has (`null` if not finite).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Median of `values` (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes this process has passed to write-like syscalls (`wchar`).
pub fn write_chars() -> f64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0.0)
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    let path = path.to_string_lossy();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?;
            let fstype = fields.next()?;
            let inside = path == mount
                || mount == "/"
                || path.starts_with(&format!("{}/", mount.trim_end_matches('/')));
            inside.then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}
