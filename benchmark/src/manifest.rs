//! The names this benchmark is judged by: workloads, end-to-end metrics
//! and per-layer metrics, each with its unit and direction. The runner
//! can only print a metric that is listed here (`report::Metrics::set`
//! panics otherwise), and `BENCHMARK.json` at the repo root is this
//! table rendered by [`render`] — a unit test keeps the two identical.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`). The
/// driver makes 4 + 22 × workloads runs inside 3420 s, so workloads ×
/// seconds is a fixed budget: three workloads leave each run 40 s (70
/// runs of at most 44 s, two builds: about 3000 s), five left 20 s,
/// which the shared host's slow spells outlast.
pub const RUN_SECONDS: u64 = 40;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads the driver runs and gates on (`BENCHMARK.json`).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "uniform-push",
        why: "periodic 64^3 box, 2.1M electrons, push >= 75% of the step: the paper's inner-loop regime; kernel, layout and sort-cadence work shows here",
    },
    Workload {
        name: "halo-socket",
        why: "2 ranks over CRC-framed Unix sockets on thin slabs with 64x64 ghost planes: ghost exchange and migration carry the step; no serial workload runs them",
    },
    Workload {
        name: "srs-sweep",
        why: "a generated 4-point SRS intensity sweep through the WAL-backed service with async diagnostics: time to the reflectivity curve, the paper's science product",
    },
];

/// Workloads the same command runs by name but `BENCHMARK.json` does not
/// list, so the driver neither runs nor gates on them: each is a second
/// walk of layers a gated workload covers, and the time budget does not
/// stretch to five runs long enough to be steady. `slab-field` also sets
/// up in 25 ms of page faults, a time that follows the kernel's memory
/// state (it halved over 20 minutes on a quiet host), and
/// `campaign-local` is the least steady of the five on every metric.
/// They are for a person's A/B runs (`aa.sh 10 slab-field`).
pub const EXTRA_WORKLOADS: &[Workload] = &[
    Workload {
        name: "slab-field",
        why: "160x48x48 box with plasma in a fifth of it: the grid walk (field, interpolator, accumulator) dominates, so a push gain moves it far less than uniform-push",
    },
    Workload {
        name: "campaign-local",
        why: "a generated 2-rank campaign deck under the rollback driver (v3 dumps, sentinel allreduce, laser, sponge) over in-process channels: the distributed driver's overhead",
    },
];

pub const END_TO_END: &[Metric] = &[
    e2e("particle_steps_per_s", "1/s", "higher", 0.25),
    e2e("time_to_solution_s", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
];

pub const PER_LAYER: &[Metric] = &[
    // core: the PIC step, by phase.
    layer("core.sort.busy_s", "s", "lower"),
    layer("core.sort.count", "count", "lower"),
    layer("core.interp.busy_s", "s", "lower"),
    layer("core.interp.voxels_per_s", "1/s", "higher"),
    layer("core.push.busy_s", "s", "lower"),
    layer("core.push.particles_per_s", "1/s", "higher"),
    layer("core.push.ns_per_particle", "ns", "lower"),
    layer("core.push.gflops_computed", "Gflop/s", "higher"),
    layer("core.push.bytes_per_flop_computed", "B/flop", "lower"),
    layer("core.push.crosser_rate", "ratio", "lower"),
    layer("core.push.spill_rate", "ratio", "lower"),
    layer("core.push.mixed_block_fraction", "ratio", "lower"),
    layer("core.accum.busy_s", "s", "lower"),
    layer("core.field.busy_s", "s", "lower"),
    layer("core.field.voxels_per_s", "1/s", "higher"),
    layer("core.inner_loop_fraction", "ratio", "higher"),
    layer("core.step.ms_p50", "ms", "lower"),
    layer("core.step.ms_p95", "ms", "lower"),
    layer("core.step.residual_share", "ratio", "lower"),
    // core: the durability pieces campaigns and sweeps lean on.
    layer("core.checkpoint.save_s", "s", "lower"),
    layer("core.checkpoint.load_s", "s", "lower"),
    layer("core.checkpoint.bytes", "B", "lower"),
    layer("core.checkpoint.compress_ratio", "ratio", "higher"),
    layer("core.sentinel.check_ms", "ms", "lower"),
    layer("core.journal.append_us_p50", "us", "lower"),
    // nanompi: message substrate.
    layer("nanompi.msgs_per_step", "count", "lower"),
    layer("nanompi.bytes_per_step", "B", "lower"),
    layer("nanompi.top_tag_bytes_share", "ratio", "lower"),
    layer("nanompi.pingpong_us_p50", "us", "lower"),
    layer("nanompi.halo_msg_mb_per_s", "MB/s", "higher"),
    layer("nanompi.allreduce_us_p50", "us", "lower"),
    // parallel: domain decomposition on top of it.
    layer("parallel.exchange.busy_s", "s", "lower"),
    layer("parallel.migrate.busy_s", "s", "lower"),
    layer("parallel.migrated_per_step", "count", "lower"),
    layer("parallel.comm_fraction", "ratio", "lower"),
    layer("parallel.wait_share", "ratio", "lower"),
    layer("parallel.push_imbalance", "ratio", "lower"),
    layer("parallel.speedup_2r_vs_1r", "ratio", "higher"),
    layer("parallel.dcheckpoint.dump_s", "s", "lower"),
    layer("parallel.dcheckpoint.bytes_per_rank", "B", "lower"),
    layer("parallel.campaign.overhead_share", "ratio", "lower"),
    // diag: in-situ diagnostics pipeline.
    layer("diag.publish.busy_s", "s", "lower"),
    layer("diag.published", "count", "higher"),
    layer("diag.dropped", "count", "lower"),
    layer("diag.max_queue_depth", "count", "lower"),
    layer("diag.stall_s", "s", "lower"),
    layer("diag.engine.ingest_us_p50", "us", "lower"),
    layer("diag.overhead_share", "ratio", "lower"),
    // lpi: laser-plasma runs, campaigns and the sweep service.
    layer("lpi.build_s", "s", "lower"),
    layer("lpi.step.ms_p50", "ms", "lower"),
    layer("lpi.campaign.overhead_share", "ratio", "lower"),
    layer("lpi.sweep.job_s_p50", "s", "lower"),
    layer("lpi.sweep.scheduler_share", "ratio", "lower"),
    layer("lpi.sweep.points_per_hour", "1/h", "higher"),
    layer("lpi.sweep.wal_bytes", "B", "lower"),
    // deck: input parsing and run assembly.
    layer("deck.parse_build_ms", "ms", "lower"),
    // roadrunner-model: context, moves with core.push.particles_per_s.
    layer("model.projected_inner_pflops", "Pflop/s", "higher"),
    layer("model.projected_sustained_pflops", "Pflop/s", "higher"),
    // the tracing itself.
    layer("trace.spans", "count", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn render_metric(m: &Metric) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        json_str(m.name),
        json_str(m.unit),
        json_str(m.better)
    );
    if let Some(b) = m.bound {
        s.push_str(&format!(", \"bound\": {b}"));
    }
    s.push('}');
    s
}

fn render_list(items: Vec<String>) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

/// The text of `BENCHMARK.json`.
pub fn render() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let command: Vec<String> = command.iter().map(|s| json_str(s)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        render_list(workloads),
        render_list(END_TO_END.iter().map(render_metric).collect()),
        render_list(PER_LAYER.iter().map(render_metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, render(), "regenerate with `--manifest`");
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS.iter().chain(EXTRA_WORKLOADS) {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(m.better == "higher" || m.better == "lower", "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
    }
}
