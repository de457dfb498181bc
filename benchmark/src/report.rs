//! What a run hands back: metrics by name, named correctness checks,
//! attempt counts — and how they are printed. The last stdout line is
//! the one JSON object the driver reads.

use crate::manifest::{Metric, END_TO_END, PER_LAYER};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Values for one of the two metric tables, in table order.
pub struct Metrics {
    table: &'static [Metric],
    values: Vec<f64>,
}

impl Metrics {
    /// Every end-to-end metric must be set before printing: unset ones
    /// are `NaN` and fail the finite-value check.
    pub fn end_to_end() -> Self {
        Metrics {
            table: END_TO_END,
            values: vec![f64::NAN; END_TO_END.len()],
        }
    }

    /// Per-layer metrics start at 0: a workload that never enters a
    /// layer reports 0 for it, which is the "predicted flat" reading.
    pub fn per_layer() -> Self {
        Metrics {
            table: PER_LAYER,
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    /// Panics on a name the manifest does not list, so the runner cannot
    /// print a metric `BENCHMARK.json` does not declare.
    fn index(&self, name: &str) -> usize {
        self.table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the manifest"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        self.values[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[self.index(name)]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.table.iter().zip(self.values.iter().copied())
    }
}

/// Named pass/fail verdicts with a one-line detail each.
#[derive(Default)]
pub struct Checks(Vec<(&'static str, bool, String)>);

impl Checks {
    pub fn record(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.0.push((name, ok, detail.into()));
    }

    pub fn first_failure(&self) -> Option<String> {
        self.0
            .iter()
            .find(|c| !c.1)
            .map(|(name, _, detail)| format!("{name}: {detail}"))
    }
}

pub struct Report {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Steps (or jobs, or campaigns) tried and errored.
    pub attempted: u64,
    pub failed: u64,
    /// Timed rounds behind each median.
    pub rounds: usize,
    /// Free-form context lines (sizes, host facts, paper anchors).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(metrics: Metrics) -> Self {
        Report {
            metrics,
            checks: Checks::default(),
            attempted: 0,
            failed: 0,
            rounds: 0,
            notes: Vec::new(),
        }
    }

    /// Print the readable report; then, if every check passed and every
    /// metric is finite, the JSON line. Returns the failure otherwise.
    pub fn print(&self, out: &mut impl Write) -> Result<(), String> {
        let w = |r: std::io::Result<()>| r.map_err(|e| format!("stdout: {e}"));
        for n in &self.notes {
            w(writeln!(out, "# {n}"))?;
        }
        w(writeln!(
            out,
            "rounds = {}  attempted = {}  failed = {}",
            self.rounds, self.attempted, self.failed
        ))?;
        for (m, v) in self.metrics.iter() {
            w(writeln!(out, "{} = {} {}", m.name, v, m.unit))?;
        }
        for (name, ok, detail) in &self.checks.0 {
            let verdict = if *ok { "ok" } else { "FAILED" };
            w(writeln!(out, "check {name}: {verdict} ({detail})"))?;
        }
        if let Some(f) = self.checks.first_failure() {
            return Err(format!("check {f}"));
        }
        if let Some((m, v)) = self.metrics.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("metric {} is not finite ({v})", m.name));
        }
        if self.attempted == 0 {
            return Err("nothing was attempted".into());
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        w(writeln!(
            out,
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where run artefacts go: `benchmark/scratch` under the checkout. Kept
/// relative when run from the checkout root, so Unix socket paths stay
/// inside `sun_path`'s ~100 bytes however deep the checkout sits.
pub fn scratch_root() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/scratch")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("scratch")
    }
}

/// A fresh directory under [`scratch_root`], removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let n = SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir = scratch_root().join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The last file in `dir`, by name, called `<prefix>…<suffix>`:
/// checkpoint generations are numbered, so this is the newest.
pub fn newest_file(dir: &Path, prefix: &str, suffix: &str) -> Result<PathBuf, String> {
    std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
        })
        .max()
        .ok_or_else(|| format!("no {prefix}*{suffix} in {}", dir.display()))
}

/// FNV-1a 64 over everything written: a state fingerprint taken while a
/// dump streams through, without holding the dump in memory.
pub struct HashWriter(pub u64);

impl Default for HashWriter {
    fn default() -> Self {
        HashWriter(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = HashWriter::default();
    h.write_all(bytes).expect("hashing cannot fail");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_prints_every_declared_metric_and_nothing_else() {
        for (mut metrics, table) in [
            (Metrics::end_to_end(), END_TO_END),
            (Metrics::per_layer(), PER_LAYER),
        ] {
            for m in table {
                metrics.set(m.name, 1.5);
            }
            let mut report = Report::new(metrics);
            report.attempted = 3;
            let mut out = Vec::new();
            report.print(&mut out).expect("a complete report prints");
            let text = String::from_utf8(out).unwrap();
            let last = text.lines().last().unwrap();
            assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
            assert_eq!(last.matches("\"value\"").count(), table.len());
            for m in table {
                assert!(last.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)));
            }
        }
    }

    #[test]
    fn unset_metric_or_failed_check_withholds_the_json_line() {
        let mut out = Vec::new();
        let mut r = Report::new(Metrics::end_to_end());
        r.attempted = 1;
        assert!(r.print(&mut out).unwrap_err().contains("not finite"));
        let mut r = Report::new(Metrics::per_layer());
        r.attempted = 1;
        r.checks.record("fields-finite", false, "3 NaN");
        out.clear();
        assert_eq!(r.print(&mut out).unwrap_err(), "check fields-finite: 3 NaN");
        assert!(!String::from_utf8(out).unwrap().contains("\"correct\""));
    }

    #[test]
    #[should_panic(expected = "not in the manifest")]
    fn undeclared_metric_name_panics() {
        Metrics::per_layer().set("core.made_up", 1.0);
    }

    #[test]
    fn fingerprint_sees_order_and_content() {
        assert_ne!(fingerprint(b"ab"), fingerprint(b"ba"));
        assert_eq!(fingerprint(b""), HashWriter::default().0);
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 1.0);
    }
}
