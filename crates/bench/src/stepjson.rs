//! Machine-readable step-throughput records (`BENCH_step.json`).
//!
//! Every perf-oriented PR lands with one of these files so the whole-step
//! particle rate and the serial-phase share form a trajectory over time
//! instead of a one-off claim. The schema is flat on purpose: a writer, a
//! reader and a validator live here so `scripts/ci.sh` can smoke-test the
//! file without any external JSON tooling.

use std::fmt::Write as _;
use std::path::Path;
use vpic_core::cadence::CoherenceCounters;
use vpic_core::sim::StepTimings;

/// Schema identifier embedded in every record: one file
/// ([`write_set`]) carries several measurements side by side, each with
/// the `layout`, `kernel`, sort `cadence` + `coherence` block and `diag`
/// mode the step ran with, so the file captures *why* a rate came out the
/// way it did, not just the rate.
pub const SCHEMA: &str = "vpic-bench/step/v5";

/// One whole-step throughput measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct StepBench {
    /// Live grid dimensions.
    pub grid: (usize, usize, usize),
    /// Particles per cell at load time.
    pub ppc: usize,
    /// Timed steps (warm-up excluded).
    pub steps: u64,
    /// Push pipelines (accumulator arrays).
    pub pipelines: usize,
    /// Width of the worker-thread pool that executed the run
    /// (`vpic_core::worker_threads()` at run time).
    pub threads: usize,
    /// Particle storage layout (`aos` or `aosoa`).
    pub layout: String,
    /// Push body (`scalar` or `lane`). AoS always runs the scalar body,
    /// so `layout = "aos"` records must carry `kernel = "scalar"`.
    pub kernel: String,
    /// Sort policy the run used (`auto` or `fixed-N`).
    pub cadence: String,
    /// Diagnostics-pipeline mode the step paid for (`off`, `sync` or
    /// `async`). `sync` computes spectra inline on the step path; `async`
    /// publishes snapshots to the worker thread and pays only the
    /// publication cost here.
    pub diag: String,
    /// Counting sorts actually performed during the timed steps.
    pub sorts: u64,
    /// Cadence-due sorts skipped as provably coherent.
    pub skipped_sorts: u64,
    /// Crossers per particle-step (cell-crossing rate).
    pub crosser_rate: f64,
    /// Lanes spilled per lane-kernel lane pushed.
    pub spill_rate: f64,
    /// Fraction of lane-kernel blocks spanning more than one voxel.
    pub mixed_block_fraction: f64,
    /// Total macroparticles.
    pub particles: u64,
    /// Whole-step particle advance rate.
    pub particles_per_sec: f64,
    /// Share of wall time spent in the particle inner loop.
    pub inner_loop_fraction: f64,
    /// Per-phase wall seconds.
    pub sort: f64,
    pub interpolate: f64,
    pub push: f64,
    pub current: f64,
    pub field: f64,
    pub other: f64,
    pub total: f64,
}

impl StepBench {
    /// Build a record from accumulated step timings.
    #[allow(clippy::too_many_arguments)]
    pub fn from_timings(
        t: &StepTimings,
        grid: (usize, usize, usize),
        ppc: usize,
        pipelines: usize,
        threads: usize,
        particles: u64,
        layout: &str,
        kernel: &str,
    ) -> Self {
        let total = t.total();
        StepBench {
            grid,
            ppc,
            steps: t.steps,
            pipelines,
            threads,
            layout: layout.to_string(),
            kernel: kernel.to_string(),
            cadence: "fixed-25".to_string(),
            diag: "off".to_string(),
            sorts: 0,
            skipped_sorts: 0,
            crosser_rate: 0.0,
            spill_rate: 0.0,
            mixed_block_fraction: 0.0,
            particles,
            particles_per_sec: if total > 0.0 {
                t.particle_steps as f64 / total
            } else {
                0.0
            },
            inner_loop_fraction: t.inner_loop_fraction(),
            sort: t.sort,
            interpolate: t.interpolate,
            push: t.push,
            current: t.current,
            field: t.field,
            // Probe sampling + snapshot publication (and a serial step's
            // empty halo phases) ride the catch-all phase so the breakdown
            // still sums to `total`.
            other: t.other + t.diag + t.migrate + t.exchange,
            total,
        }
    }

    /// What makes two records "the same measurement, taken again": a
    /// `--json` run replaces the record with its key and keeps the rest,
    /// so variants — and `RAYON_NUM_THREADS=1` beside `=2` runs of one
    /// variant — sit side by side in one file.
    pub fn merge_key(&self) -> (&str, &str, &str, &str, usize) {
        (
            &self.layout,
            &self.kernel,
            &self.cadence,
            &self.diag,
            self.threads,
        )
    }

    /// Attach the diagnostics-pipeline mode the timed steps ran with.
    pub fn with_diag(mut self, diag: &str) -> Self {
        self.diag = diag.to_string();
        self
    }

    /// Attach the sort policy and realized coherence telemetry of the
    /// timed window (counter deltas over the timed steps, so the rates
    /// describe what this record measured, not the warm-up).
    pub fn with_coherence(mut self, cadence: &str, coh: &CoherenceCounters) -> Self {
        self.cadence = cadence.to_string();
        self.sorts = coh.sorts;
        self.skipped_sorts = coh.skipped_sorts;
        self.crosser_rate = coh.crosser_rate();
        self.spill_rate = coh.spill_rate();
        self.mixed_block_fraction = coh.mixed_block_fraction();
        self
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(
            s,
            "  \"grid\": {{\"nx\": {}, \"ny\": {}, \"nz\": {}}},",
            self.grid.0, self.grid.1, self.grid.2
        );
        let _ = writeln!(s, "  \"ppc\": {},", self.ppc);
        let _ = writeln!(s, "  \"steps\": {},", self.steps);
        let _ = writeln!(s, "  \"pipelines\": {},", self.pipelines);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"layout\": \"{}\",", self.layout);
        let _ = writeln!(s, "  \"kernel\": \"{}\",", self.kernel);
        let _ = writeln!(s, "  \"cadence\": \"{}\",", self.cadence);
        let _ = writeln!(s, "  \"diag\": \"{}\",", self.diag);
        let _ = writeln!(s, "  \"coherence\": {{");
        let _ = writeln!(s, "    \"sorts\": {},", self.sorts);
        let _ = writeln!(s, "    \"skipped_sorts\": {},", self.skipped_sorts);
        let _ = writeln!(s, "    \"crosser_rate\": {:e},", self.crosser_rate);
        let _ = writeln!(s, "    \"spill_rate\": {:e},", self.spill_rate);
        let _ = writeln!(
            s,
            "    \"mixed_block_fraction\": {:e}",
            self.mixed_block_fraction
        );
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"particles\": {},", self.particles);
        let _ = writeln!(s, "  \"particles_per_sec\": {:e},", self.particles_per_sec);
        let _ = writeln!(
            s,
            "  \"inner_loop_fraction\": {:.6},",
            self.inner_loop_fraction
        );
        let _ = writeln!(s, "  \"phase_seconds\": {{");
        let _ = writeln!(s, "    \"sort\": {:e},", self.sort);
        let _ = writeln!(s, "    \"interpolate\": {:e},", self.interpolate);
        let _ = writeln!(s, "    \"push\": {:e},", self.push);
        let _ = writeln!(s, "    \"current\": {:e},", self.current);
        let _ = writeln!(s, "    \"field\": {:e},", self.field);
        let _ = writeln!(s, "    \"other\": {:e},", self.other);
        let _ = writeln!(s, "    \"total\": {:e}", self.total);
        let _ = writeln!(s, "  }}");
        let _ = write!(s, "}}");
        s
    }

    /// Write the record to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }

    /// Parse a record previously written by [`StepBench::write`]. The
    /// parser only understands this writer's output (flat `"key": value`
    /// pairs), which is all the CI smoke lane needs.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Parse from JSON text (see [`StepBench::read`]); only the current
    /// schema is understood.
    pub fn parse(text: &str) -> Result<Self, String> {
        let schema = scan_string(text, "schema")?;
        if schema != SCHEMA {
            return Err(format!("schema mismatch: got {schema:?}, want {SCHEMA:?}"));
        }
        Ok(StepBench {
            grid: (
                scan_number(text, "nx")? as usize,
                scan_number(text, "ny")? as usize,
                scan_number(text, "nz")? as usize,
            ),
            ppc: scan_number(text, "ppc")? as usize,
            steps: scan_number(text, "steps")? as u64,
            pipelines: scan_number(text, "pipelines")? as usize,
            threads: scan_number(text, "threads")? as usize,
            layout: scan_string(text, "layout")?,
            kernel: scan_string(text, "kernel")?,
            cadence: scan_string(text, "cadence")?,
            diag: scan_string(text, "diag")?,
            sorts: scan_number(text, "sorts")? as u64,
            skipped_sorts: scan_number(text, "skipped_sorts")? as u64,
            crosser_rate: scan_number(text, "crosser_rate")?,
            spill_rate: scan_number(text, "spill_rate")?,
            mixed_block_fraction: scan_number(text, "mixed_block_fraction")?,
            particles: scan_number(text, "particles")? as u64,
            particles_per_sec: scan_number(text, "particles_per_sec")?,
            inner_loop_fraction: scan_number(text, "inner_loop_fraction")?,
            sort: scan_number(text, "sort")?,
            interpolate: scan_number(text, "interpolate")?,
            push: scan_number(text, "push")?,
            current: scan_number(text, "current")?,
            field: scan_number(text, "field")?,
            other: scan_number(text, "other")?,
            total: scan_number(text, "total")?,
        })
    }

    /// Schema + sanity validation: all rates finite and nonzero, phase
    /// times finite and non-negative. Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let (nx, ny, nz) = self.grid;
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(format!("degenerate grid {:?}", self.grid));
        }
        if self.steps == 0 {
            return Err("zero steps timed".into());
        }
        if self.particles == 0 {
            return Err("zero particles".into());
        }
        if self.pipelines == 0 || self.threads == 0 {
            return Err("zero pipelines/threads".into());
        }
        if self.layout != "aos" && self.layout != "aosoa" {
            return Err(format!("unknown layout {:?}", self.layout));
        }
        if self.kernel != "scalar" && self.kernel != "lane" {
            return Err(format!("unknown kernel {:?}", self.kernel));
        }
        if self.layout == "aos" && self.kernel != "scalar" {
            return Err("aos layout always runs the scalar kernel".into());
        }
        let cadence_ok = self.cadence == "auto"
            || self
                .cadence
                .strip_prefix("fixed-")
                .is_some_and(|n| n.parse::<u32>().is_ok());
        if !cadence_ok {
            return Err(format!("unknown cadence {:?}", self.cadence));
        }
        if !matches!(self.diag.as_str(), "off" | "sync" | "async") {
            return Err(format!("unknown diag mode {:?}", self.diag));
        }
        for (name, v) in [
            ("crosser_rate", self.crosser_rate),
            ("spill_rate", self.spill_rate),
            ("mixed_block_fraction", self.mixed_block_fraction),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} out of range: {v}"));
            }
        }
        if !self.particles_per_sec.is_finite() || self.particles_per_sec <= 0.0 {
            return Err(format!("bad particle rate {}", self.particles_per_sec));
        }
        if !self.inner_loop_fraction.is_finite() || !(0.0..=1.0).contains(&self.inner_loop_fraction)
        {
            return Err(format!(
                "inner_loop_fraction out of range: {}",
                self.inner_loop_fraction
            ));
        }
        for (name, v) in [
            ("sort", self.sort),
            ("interpolate", self.interpolate),
            ("push", self.push),
            ("current", self.current),
            ("field", self.field),
            ("other", self.other),
            ("total", self.total),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("phase {name} has bad time {v}"));
            }
        }
        if self.total <= 0.0 {
            return Err("zero total time".into());
        }
        Ok(())
    }
}

/// Serialize several records as a JSON array (one per layout, say).
pub fn set_to_json(benches: &[StepBench]) -> String {
    let mut s = String::from("[\n");
    for (i, b) in benches.iter().enumerate() {
        s.push_str(&b.to_json());
        s.push_str(if i + 1 < benches.len() { ",\n" } else { "\n" });
    }
    s.push(']');
    s
}

/// Write a multi-record file (see [`set_to_json`]).
pub fn write_set(benches: &[StepBench], path: &Path) -> std::io::Result<()> {
    std::fs::write(path, set_to_json(benches) + "\n")
}

/// Parse one or many records: a bare object or a [`set_to_json`] array.
/// Records are located by their embedded `"schema"` keys, so the parser
/// stays a flat scanner.
pub fn parse_set(text: &str) -> Result<Vec<StepBench>, String> {
    let starts: Vec<usize> = text.match_indices("\"schema\"").map(|(i, _)| i).collect();
    if starts.is_empty() {
        return Err("no records found".into());
    }
    let mut out = Vec::new();
    for (n, &at) in starts.iter().enumerate() {
        let end = starts.get(n + 1).copied().unwrap_or(text.len());
        out.push(StepBench::parse(&text[at..end])?);
    }
    Ok(out)
}

/// Read a single- or multi-record file.
pub fn read_set(path: &Path) -> Result<Vec<StepBench>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_set(&text)
}

/// Find `"key": "value"` and return `value`.
fn scan_string(text: &str, key: &str) -> Result<String, String> {
    let rest = after_key(text, key)?;
    let rest = rest
        .strip_prefix('"')
        .ok_or_else(|| format!("{key}: expected string"))?;
    let end = rest
        .find('"')
        .ok_or_else(|| format!("{key}: unterminated"))?;
    Ok(rest[..end].to_string())
}

/// Find `"key": <number>` and return the parsed number.
fn scan_number(text: &str, key: &str) -> Result<f64, String> {
    let rest = after_key(text, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|e| format!("{key}: {e}"))
}

fn after_key<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let at = text
        .find(&pat)
        .ok_or_else(|| format!("missing key {key}"))?;
    Ok(text[at + pat.len()..].trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StepBench {
        StepBench {
            grid: (64, 64, 64),
            ppc: 8,
            steps: 10,
            pipelines: 8,
            threads: 8,
            layout: "aos".into(),
            kernel: "scalar".into(),
            cadence: "fixed-25".into(),
            diag: "off".into(),
            sorts: 1,
            skipped_sorts: 0,
            crosser_rate: 0.02,
            spill_rate: 0.03,
            mixed_block_fraction: 0.1,
            particles: 2_097_152,
            particles_per_sec: 1.25e7,
            inner_loop_fraction: 0.62,
            sort: 0.1,
            interpolate: 0.2,
            push: 1.0,
            current: 0.15,
            field: 0.12,
            other: 0.01,
            total: 1.58,
        }
    }

    #[test]
    fn json_roundtrip() {
        let b = sample();
        let parsed = StepBench::parse(&b.to_json()).unwrap();
        assert_eq!(b, parsed);
        parsed.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_rates() {
        let mut b = sample();
        b.particles_per_sec = 0.0;
        assert!(b.validate().is_err());
        let mut b = sample();
        b.particles_per_sec = f64::NAN;
        assert!(b.validate().is_err());
        let mut b = sample();
        b.push = f64::INFINITY;
        assert!(b.validate().is_err());
        let mut b = sample();
        b.steps = 0;
        assert!(b.validate().is_err());
    }

    #[test]
    fn set_roundtrip_carries_both_layouts() {
        let a = sample();
        let mut b = sample();
        b.layout = "aosoa".into();
        b.particles_per_sec = 2.5e7;
        let parsed = parse_set(&set_to_json(&[a.clone(), b.clone()])).unwrap();
        assert_eq!(parsed, vec![a.clone(), b]);
        // A bare single record also parses as a one-element set.
        assert_eq!(parse_set(&a.to_json()).unwrap(), vec![a]);
    }

    #[test]
    fn validation_rejects_unknown_layout() {
        let mut b = sample();
        b.layout = "soa".into();
        assert!(b.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_kernel_combinations() {
        let mut b = sample();
        b.kernel = "avx".into();
        assert!(b.validate().is_err());
        // The AoS path ignores the kernel knob and always runs the scalar
        // body — an "aos"+"lane" record would be claiming a run that
        // cannot happen.
        let mut b = sample();
        b.kernel = "lane".into();
        assert!(b.validate().is_err());
        b.layout = "aosoa".into();
        b.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_cadence_and_rates() {
        let mut b = sample();
        b.cadence = "sometimes".into();
        assert!(b.validate().is_err());
        let mut b = sample();
        b.cadence = "fixed-".into();
        assert!(b.validate().is_err());
        let mut b = sample();
        b.cadence = "auto".into();
        b.validate().unwrap();
        b.spill_rate = 1.5;
        assert!(b.validate().is_err());
        let mut b = sample();
        b.crosser_rate = f64::NAN;
        assert!(b.validate().is_err());
    }

    #[test]
    fn coherence_rides_the_roundtrip() {
        use vpic_core::cadence::{CoherenceCounters, PushTally};
        let coh = CoherenceCounters {
            tally: PushTally {
                pushed: 1000,
                crossers: 20,
                lane_blocks: 100,
                lane_spills: 16,
                mixed_blocks: 10,
                straddle_lanes: 8,
            },
            sorts: 3,
            skipped_sorts: 1,
        };
        let mut b = sample();
        b.layout = "aosoa".into();
        b.kernel = "lane".into();
        let b = b.with_coherence("auto", &coh);
        let parsed = StepBench::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.cadence, "auto");
        assert_eq!(parsed.sorts, 3);
        assert_eq!(parsed.skipped_sorts, 1);
        assert!((parsed.crosser_rate - 0.02).abs() < 1e-12);
        parsed.validate().unwrap();
    }

    #[test]
    fn diag_mode_roundtrips_and_validates() {
        let b = sample().with_diag("async");
        let parsed = StepBench::parse(&b.to_json()).unwrap();
        assert_eq!(parsed.diag, "async");
        parsed.validate().unwrap();
        let mut bad = sample();
        bad.diag = "lazy".into();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        for other in ["other/v0", "vpic-bench/step/v4"] {
            let text = sample().to_json().replace(SCHEMA, other);
            assert!(StepBench::parse(&text).is_err(), "{other}");
        }
    }

    #[test]
    fn from_timings_computes_rate() {
        let t = StepTimings {
            push: 2.0,
            interpolate: 1.0,
            particle_steps: 3_000_000,
            steps: 10,
            ..Default::default()
        };
        let b = StepBench::from_timings(&t, (16, 16, 16), 4, 2, 1, 300_000, "aosoa", "lane");
        assert_eq!(b.total, 3.0);
        assert!((b.particles_per_sec - 1e6).abs() < 1e-6);
        b.validate().unwrap();
    }
}
