//! Exactly-once curve aggregation and the sweep's machine-readable
//! artifacts: `reflectivity_curve.json` (the physics deliverable) and
//! the `vpic-bench/sweep/v1` service-level record.
//!
//! A [`PointResult`] is the opaque payload of a `Done` journal record —
//! a fixed little-endian encoding of the end-state digest the campaign
//! runtime reports. Floats are carried as raw bits (and printed with
//! their bit pattern alongside the decimal value), so "the killed and
//! restarted sweep produced the same curve" is checkable byte-for-byte
//! on the JSON artifact itself.

use std::fmt::Write as _;
use std::path::Path;

use vpic_core::queue::QueueStats;

use super::grid::SweepPoint;

/// Schema identifier for the sweep service bench record.
pub const SWEEP_BENCH_SCHEMA: &str = "vpic-bench/sweep/v1";

/// Schema identifier for the reflectivity curve artifact.
pub const CURVE_SCHEMA: &str = "vpic-lpi/reflectivity-curve/v1";

/// Schema identifier for the *progressive* curve artifact the sweep
/// service streams while jobs are still running.
pub const PARTIAL_CURVE_SCHEMA: &str = "vpic-lpi/reflectivity-curve-partial/v1";

/// End-state digest of one completed sweep job (the `Done` payload).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointResult {
    /// Spec fingerprint of the job that produced this result; decode
    /// cross-checks it against the queue so a payload can never be
    /// folded into the wrong grid point.
    pub fingerprint: u64,
    /// Time-averaged power reflectivity at the probe plane.
    pub reflectivity: f64,
    /// Total field + kinetic energy at the end state.
    pub energy: f64,
    pub n_particles: u64,
    /// `vpic_core::checkpoint::state_hash` of the end state: its fields
    /// and particles, independent of the dump format.
    pub state_hash: u32,
}

impl PointResult {
    /// Fixed-width little-endian encoding (36 bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(36);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.reflectivity.to_bits().to_le_bytes());
        out.extend_from_slice(&self.energy.to_bits().to_le_bytes());
        out.extend_from_slice(&self.n_particles.to_le_bytes());
        out.extend_from_slice(&self.state_hash.to_le_bytes());
        out
    }

    /// Decode a `Done` payload; anything but exactly 36 bytes is a
    /// malformed record, reported as `Err(reason)`.
    pub fn decode(bytes: &[u8]) -> Result<PointResult, String> {
        if bytes.len() != 36 {
            return Err(format!(
                "point result payload is {} bytes, expected 36",
                bytes.len()
            ));
        }
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        Ok(PointResult {
            fingerprint: u64_at(0),
            reflectivity: f64::from_bits(u64_at(8)),
            energy: f64::from_bits(u64_at(16)),
            n_particles: u64_at(24),
            state_hash: u32::from_le_bytes(bytes[32..36].try_into().unwrap()),
        })
    }
}

/// One aggregated grid point: either a result or a quarantine record.
#[derive(Clone, Debug, PartialEq)]
pub struct CurvePoint {
    pub point: SweepPoint,
    /// Failed attempts charged against the job (0 for a job whose only
    /// lost attempts died with a killed orchestrator — those are free).
    pub attempts: u32,
    /// `Some` iff the job reached `Done`.
    pub result: Option<PointResult>,
    /// Quarantine cause for poisoned jobs.
    pub quarantined: Option<String>,
}

/// The aggregated sweep deliverable, in job-id order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReflectivityCurve {
    /// Steps each point was driven for.
    pub steps: u64,
    pub points: Vec<CurvePoint>,
}

impl ReflectivityCurve {
    /// Points that finished.
    pub fn done(&self) -> usize {
        self.points.iter().filter(|p| p.result.is_some()).count()
    }

    /// Points that were quarantined.
    pub fn quarantined(&self) -> usize {
        self.points
            .iter()
            .filter(|p| p.quarantined.is_some())
            .count()
    }

    /// Serialize to pretty-printed JSON. The output is a pure function
    /// of the curve contents — no clocks, no paths — so bit-identical
    /// sweeps produce byte-identical artifacts.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{CURVE_SCHEMA}\",");
        let _ = writeln!(s, "  \"steps\": {},", self.steps);
        let _ = writeln!(s, "  \"points_done\": {},", self.done());
        let _ = writeln!(s, "  \"points_quarantined\": {},", self.quarantined());
        let _ = writeln!(s, "  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            let comma = if i + 1 < self.points.len() { "," } else { "" };
            let _ = write!(
                s,
                "    {{\"job\": {}, \"a0\": {:e}, \"n_over_ncr\": {:e}, \"vth\": {:e}, \
                 \"attempts\": {}, ",
                p.point.job_id, p.point.a0, p.point.n_over_ncr, p.point.vth, p.attempts
            );
            match (&p.result, &p.quarantined) {
                (Some(r), _) => {
                    let _ = write!(
                        s,
                        "\"status\": \"done\", \"reflectivity\": {:e}, \
                         \"reflectivity_bits\": \"{:#018x}\", \"energy\": {:e}, \
                         \"n_particles\": {}, \"state_hash\": \"{:#010x}\"",
                        r.reflectivity,
                        r.reflectivity.to_bits(),
                        r.energy,
                        r.n_particles,
                        r.state_hash
                    );
                }
                (None, Some(cause)) => {
                    let _ = write!(
                        s,
                        "\"status\": \"quarantined\", \"cause\": \"{}\"",
                        json_escape(cause)
                    );
                }
                (None, None) => {
                    let _ = write!(s, "\"status\": \"unsettled\"");
                }
            }
            let _ = writeln!(s, "}}{comma}");
        }
        let _ = writeln!(s, "  ]");
        let _ = write!(s, "}}");
        s
    }
}

/// Where one grid point stands while the sweep is still in flight.
#[derive(Clone, Debug, PartialEq)]
pub enum PartialStatus {
    /// Not started, or failed and waiting for its retry.
    Pending,
    /// An attempt is running; `certified_step` is its last durable
    /// checkpoint and `reflectivity` the provisional value read from the
    /// job's streaming `progress.json` (absent when `diag = off`).
    Running {
        certified_step: u64,
        reflectivity: Option<f64>,
    },
    /// Settled with a result.
    Done { reflectivity: f64 },
    /// Settled by quarantine.
    Quarantined { cause: String },
}

/// One grid point of the progressive artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct PartialPoint {
    pub point: SweepPoint,
    pub attempts: u32,
    pub status: PartialStatus,
}

/// The progressive sweep deliverable: a best-effort snapshot of the
/// curve-in-progress, written atomically to
/// `reflectivity_curve.partial.json` at every job transition and every
/// certified checkpoint of the running job. Purely observational — the
/// WAL stays the source of truth, and the settled
/// `reflectivity_curve.json` is still aggregated exactly-once from
/// `Done` records.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartialCurve {
    pub steps: u64,
    pub points: Vec<PartialPoint>,
}

impl PartialCurve {
    pub fn done(&self) -> usize {
        self.points
            .iter()
            .filter(|p| matches!(p.status, PartialStatus::Done { .. }))
            .count()
    }

    /// Serialize to pretty-printed JSON. Like the settled curve this is
    /// a pure function of its contents, so two observers of the same
    /// queue state write byte-identical files.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{PARTIAL_CURVE_SCHEMA}\",");
        let _ = writeln!(s, "  \"steps\": {},", self.steps);
        let _ = writeln!(s, "  \"points_total\": {},", self.points.len());
        let _ = writeln!(s, "  \"points_done\": {},", self.done());
        let _ = writeln!(s, "  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            let comma = if i + 1 < self.points.len() { "," } else { "" };
            let _ = write!(
                s,
                "    {{\"job\": {}, \"a0\": {:e}, \"n_over_ncr\": {:e}, \"vth\": {:e}, \
                 \"attempts\": {}, ",
                p.point.job_id, p.point.a0, p.point.n_over_ncr, p.point.vth, p.attempts
            );
            match &p.status {
                PartialStatus::Pending => {
                    let _ = write!(s, "\"status\": \"pending\"");
                }
                PartialStatus::Running {
                    certified_step,
                    reflectivity,
                } => {
                    let _ = write!(
                        s,
                        "\"status\": \"running\", \"certified_step\": {certified_step}, \
                         \"reflectivity\": "
                    );
                    match reflectivity {
                        Some(r) => {
                            let _ = write!(s, "{r:e}");
                        }
                        None => {
                            let _ = write!(s, "null");
                        }
                    }
                }
                PartialStatus::Done { reflectivity } => {
                    let _ = write!(
                        s,
                        "\"status\": \"done\", \"reflectivity\": {:e}, \
                         \"reflectivity_bits\": \"{:#018x}\"",
                        reflectivity,
                        reflectivity.to_bits()
                    );
                }
                PartialStatus::Quarantined { cause } => {
                    let _ = write!(
                        s,
                        "\"status\": \"quarantined\", \"cause\": \"{}\"",
                        json_escape(cause)
                    );
                }
            }
            let _ = writeln!(s, "}}{comma}");
        }
        let _ = writeln!(s, "  ]");
        let _ = write!(s, "}}");
        s
    }
}

/// Service-level counters for the `vpic-bench/sweep/v1` record: how the
/// sweep *ran*, as opposed to what it measured. Wall-clock lives here —
/// never in the curve — so the physics artifact stays bit-comparable.
#[derive(Clone, Debug)]
pub struct SweepBench {
    pub jobs: usize,
    pub done: usize,
    pub quarantined: usize,
    /// Failed attempts across all jobs (retries + quarantines).
    pub retries: u64,
    /// Earlier incarnations of this sweep (killed or finished) whose
    /// records the journal replayed.
    pub restarts: u64,
    /// Simulation steps executed by this invocation.
    pub steps_executed: u64,
    /// Wall-clock seconds this invocation spent.
    pub wall_seconds: f64,
    /// Completed grid points per wall-clock hour, extrapolated from
    /// this invocation.
    pub points_per_hour: f64,
}

impl SweepBench {
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{SWEEP_BENCH_SCHEMA}\",");
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"done\": {},", self.done);
        let _ = writeln!(s, "  \"quarantined\": {},", self.quarantined);
        let _ = writeln!(s, "  \"retries\": {},", self.retries);
        let _ = writeln!(s, "  \"restarts\": {},", self.restarts);
        let _ = writeln!(s, "  \"steps_executed\": {},", self.steps_executed);
        let _ = writeln!(s, "  \"wall_seconds\": {:e},", self.wall_seconds);
        let _ = writeln!(s, "  \"points_per_hour\": {:e}", self.points_per_hour);
        let _ = write!(s, "}}");
        s
    }

    /// Build from queue stats plus this invocation's counters.
    pub fn from_stats(
        stats: &QueueStats,
        jobs: usize,
        restarts: u64,
        steps_executed: u64,
        wall_seconds: f64,
        done_this_run: usize,
    ) -> SweepBench {
        SweepBench {
            jobs,
            done: stats.done,
            quarantined: stats.quarantined,
            retries: stats.total_failures,
            restarts,
            steps_executed,
            wall_seconds,
            points_per_hour: if wall_seconds > 0.0 {
                done_this_run as f64 * 3_600.0 / wall_seconds
            } else {
                0.0
            },
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Used by `e5_reflectivity --from-curve`: parse the `"reflectivity":`
/// values back out of a curve artifact without a JSON dependency, in
/// file order. Quarantined points contribute nothing.
pub fn parse_curve_reflectivities(json: &str) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(a0_idx) = line.find("\"a0\": ") else {
            continue;
        };
        let a0 = line[a0_idx + 6..]
            .split(&[',', '}'][..])
            .next()
            .and_then(|v| v.trim().parse::<f64>().ok());
        let refl = line.find("\"reflectivity\": ").and_then(|i| {
            line[i + 16..]
                .split(&[',', '}'][..])
                .next()
                .and_then(|v| v.trim().parse::<f64>().ok())
        });
        if let (Some(a0), Some(r)) = (a0, refl) {
            out.push((a0, r));
        }
    }
    out
}

/// Atomic JSON artifact write (tmp + fsync + rename), shared with the
/// scheduler.
pub(crate) fn write_json_atomic(path: &Path, json: &str) -> std::io::Result<()> {
    vpic_core::checkpoint::write_bytes_atomic(path, json.as_bytes(), None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> PointResult {
        PointResult {
            fingerprint: 0x1122_3344_5566_7788,
            reflectivity: 1.25e-4,
            energy: 42.0625,
            n_particles: 123_456,
            state_hash: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn point_result_roundtrips() {
        let r = result();
        let bytes = r.encode();
        assert_eq!(bytes.len(), 36);
        assert_eq!(PointResult::decode(&bytes).unwrap(), r);
        assert!(PointResult::decode(&bytes[..32]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(PointResult::decode(&long).is_err());
    }

    #[test]
    fn curve_json_is_deterministic_and_parseable() {
        let curve = ReflectivityCurve {
            steps: 100,
            points: vec![
                CurvePoint {
                    point: SweepPoint {
                        job_id: 0,
                        a0: 0.01,
                        n_over_ncr: 0.1,
                        vth: 0.07,
                    },
                    attempts: 0,
                    result: Some(result()),
                    quarantined: None,
                },
                CurvePoint {
                    point: SweepPoint {
                        job_id: 1,
                        a0: 0.02,
                        n_over_ncr: 0.1,
                        vth: 0.07,
                    },
                    attempts: 3,
                    result: None,
                    quarantined: Some("out of attempts: \"boom\"".into()),
                },
            ],
        };
        let json = curve.to_json();
        assert_eq!(json, curve.to_json(), "serialization must be pure");
        assert!(json.contains("\"schema\": \"vpic-lpi/reflectivity-curve/v1\""));
        assert!(json.contains("\"points_done\": 1"));
        assert!(json.contains("\"points_quarantined\": 1"));
        let expected_bits = format!("\"reflectivity_bits\": \"{:#018x}\"", 1.25e-4f64.to_bits());
        assert!(json.contains(&expected_bits), "{json}");
        assert!(json.contains("\\\"boom\\\""), "cause must be escaped");
        let vals = parse_curve_reflectivities(&json);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].0, 0.01);
        assert_eq!(vals[0].1.to_bits(), 1.25e-4f64.to_bits());
    }

    #[test]
    fn partial_curve_json_covers_every_status() {
        let point = |job_id| SweepPoint {
            job_id,
            a0: 0.01,
            n_over_ncr: 0.1,
            vth: 0.07,
        };
        let curve = PartialCurve {
            steps: 100,
            points: vec![
                PartialPoint {
                    point: point(0),
                    attempts: 0,
                    status: PartialStatus::Pending,
                },
                PartialPoint {
                    point: point(1),
                    attempts: 0,
                    status: PartialStatus::Running {
                        certified_step: 40,
                        reflectivity: Some(2.5e-3),
                    },
                },
                PartialPoint {
                    point: point(2),
                    attempts: 1,
                    status: PartialStatus::Running {
                        certified_step: 10,
                        reflectivity: None,
                    },
                },
                PartialPoint {
                    point: point(3),
                    attempts: 0,
                    status: PartialStatus::Done {
                        reflectivity: 1.25e-4,
                    },
                },
                PartialPoint {
                    point: point(4),
                    attempts: 3,
                    status: PartialStatus::Quarantined {
                        cause: "boom \"quoted\"".into(),
                    },
                },
            ],
        };
        let json = curve.to_json();
        assert_eq!(json, curve.to_json(), "serialization must be pure");
        assert!(json.contains("\"schema\": \"vpic-lpi/reflectivity-curve-partial/v1\""));
        assert!(json.contains("\"points_total\": 5"));
        assert!(json.contains("\"points_done\": 1"));
        assert!(json.contains("\"status\": \"pending\""));
        assert!(json.contains("\"certified_step\": 40, \"reflectivity\": 2.5e-3"));
        assert!(json.contains("\"certified_step\": 10, \"reflectivity\": null"));
        let bits = format!("\"reflectivity_bits\": \"{:#018x}\"", 1.25e-4f64.to_bits());
        assert!(json.contains(&bits), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "cause must be escaped");
        assert_eq!(curve.done(), 1);
    }

    #[test]
    fn bench_record_has_service_counters() {
        let stats = QueueStats {
            done: 5,
            quarantined: 1,
            total_failures: 4,
            ..Default::default()
        };
        let b = SweepBench::from_stats(&stats, 6, 2, 1_200, 60.0, 5);
        let json = b.to_json();
        assert!(json.contains("\"schema\": \"vpic-bench/sweep/v1\""));
        assert!(json.contains("\"retries\": 4"));
        assert!(json.contains("\"restarts\": 2"));
        assert!((b.points_per_hour - 300.0).abs() < 1e-9);
    }
}
