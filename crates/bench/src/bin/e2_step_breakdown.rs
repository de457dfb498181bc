//! E2 — Whole-step phase breakdown (paper anchor: sustained 0.374 Pflop/s
//! vs inner loop 0.488 Pflop/s → the inner loop is ~77% of the step).
//!
//! Runs the full single-domain step loop and prints where the time goes,
//! plus the sustained-vs-inner-loop flop-rate ratio on this host.
//!
//! This binary doubles as the step-throughput bench: `--nx/--ny/--nz`,
//! `--ppc`, `--steps`, `--pipelines`, `--layout aos|aosoa`,
//! `--kernel scalar|lane` and `--sort auto|N` size the run, and
//! `--json <path>` writes a machine-readable `BENCH_step.json` record
//! (schema in `vpic_bench::stepjson`), including the realized sort
//! cadence and the coherence telemetry (spill rate, mixed-block
//! fraction) measured over the timed window. Writing into an existing
//! file *merges by (layout, kernel, cadence, diag, threads)* — run once
//! per variant, and once per `RAYON_NUM_THREADS` for a thread-scaling
//! pair, and the file carries all the records side by side. The CI smoke lane
//! re-invokes it as `--validate <path>` to check every record in a
//! previously written file for schema problems and NaN/zero rates, and
//! then cross-checks the lane kernel against the scalar AoS oracle on a
//! shrunk bench grid — a record is only as trustworthy as the kernel
//! that produced it. `--assert-speedup <path>` compares the file's two
//! AoSoA records at the same cadence and fails unless the lane kernel is
//! at least as fast as the scalar body; `--assert-auto <path>` compares
//! the file's aosoa-lane `auto` record against its `fixed-25` record and
//! fails unless the controller is at least on par (3% noise guard).
//! `--sentinel` arms the numerical-integrity sentinel at its default
//! 10-step cadence so the health-monitoring overhead can be compared
//! against a plain run.
//!
//! `--diag off|sync|async` runs the probe-plane observation + snapshot
//! publication of the diagnostics pipeline on the step path (a real
//! `DiagSink`, including streaming `progress.json` artifacts), so the
//! record captures what in-situ diagnostics cost the step under each
//! mode. `--assert-diag <path>` compares the file's `async` record
//! against its `off` record at the same configuration and fails unless
//! the pipeline costs at most 3% of step throughput — the tentpole's
//! off-the-hot-path gate.

use roadrunner_model::flops;
use vpic_bench::stepjson::{read_set, write_set, StepBench};
use vpic_bench::{parse_flag, parse_opt, print_table, uniform_plasma};
use vpic_core::cadence::{CoherenceCounters, SortPolicy};
use vpic_core::push::PushKernel;
use vpic_core::store::Layout;
use vpic_diag::{DiagConfig, DiagMode, DiagSink, DiagSnapshot, ReflectivityProbe};

/// Counter delta over the timed window (`end` and `start` are lifetime
/// totals snapshotted around the measured steps).
fn coh_delta(end: &CoherenceCounters, start: &CoherenceCounters) -> CoherenceCounters {
    let mut d = *end;
    d.tally.pushed -= start.tally.pushed;
    d.tally.crossers -= start.tally.crossers;
    d.tally.lane_blocks -= start.tally.lane_blocks;
    d.tally.lane_spills -= start.tally.lane_spills;
    d.tally.mixed_blocks -= start.tally.mixed_blocks;
    d.tally.straddle_lanes -= start.tally.straddle_lanes;
    d.sorts -= start.sorts;
    d.skipped_sorts -= start.skipped_sorts;
    d
}

fn main() {
    let validate_path = parse_opt::<String>("validate", String::new());
    if !validate_path.is_empty() {
        std::process::exit(validate(&validate_path));
    }
    let speedup_path = parse_opt::<String>("assert-speedup", String::new());
    if !speedup_path.is_empty() {
        std::process::exit(assert_speedup(&speedup_path));
    }
    let auto_path = parse_opt::<String>("assert-auto", String::new());
    if !auto_path.is_empty() {
        std::process::exit(assert_auto(&auto_path));
    }
    let diag_path = parse_opt::<String>("assert-diag", String::new());
    if !diag_path.is_empty() {
        std::process::exit(assert_diag(&diag_path));
    }

    let full = parse_flag("full");
    let def = if full { 32 } else { 16 };
    let nx = parse_opt("nx", def);
    let ny = parse_opt("ny", nx);
    let nz = parse_opt("nz", nx);
    let n = (nx, ny, nz);
    let ppc = parse_opt("ppc", if full { 128 } else { 64 });
    let steps = parse_opt("steps", if full { 60 } else { 25 });
    let pipelines = parse_opt("pipelines", vpic_core::worker_threads());
    let json = parse_opt::<String>("json", String::new());
    let sentinel = parse_flag("sentinel");
    let layout_str = parse_opt::<String>("layout", "aos".into());
    let Some(layout) = Layout::parse(&layout_str) else {
        eprintln!("--layout must be aos or aosoa, got {layout_str}");
        std::process::exit(2);
    };
    let kernel_str = parse_opt::<String>("kernel", "lane".into());
    let kernel = match kernel_str.as_str() {
        "scalar" => PushKernel::Scalar,
        "lane" => PushKernel::Lane,
        _ => {
            eprintln!("--kernel must be scalar or lane, got {kernel_str}");
            std::process::exit(2);
        }
    };
    // The AoS path ignores the kernel knob and always runs the scalar
    // body; record what actually executed.
    let kernel_name = if layout == Layout::Aos {
        "scalar"
    } else {
        match kernel {
            PushKernel::Scalar => "scalar",
            PushKernel::Lane => "lane",
        }
    };
    let sort_str = parse_opt::<String>("sort", "25".into());
    let Some(sort_policy) = SortPolicy::parse(&sort_str) else {
        eprintln!("--sort must be auto or a step count, got {sort_str}");
        std::process::exit(2);
    };
    let cadence_name = sort_policy.name();
    let diag_str = parse_opt::<String>("diag", "off".into());
    let Some(diag_mode) = DiagMode::parse(&diag_str) else {
        eprintln!("--diag must be off, sync or async, got {diag_str}");
        std::process::exit(2);
    };
    let diag_name = diag_mode.as_str();

    let mut sim = uniform_plasma(n, ppc, pipelines, 7);
    sim.set_layout(layout);
    sim.set_kernel(kernel);
    sim.species[0].set_sort_policy(sort_policy);
    if sentinel {
        // Arm the numerical-integrity sentinel at its default 10-step
        // cadence; its sweeps land in the "other" phase so the overhead
        // of health monitoring shows up in the same breakdown.
        sim.set_config(&vpic_core::sentinel::SimConfig {
            sentinel: vpic_core::sentinel::SentinelConfig::enabled(),
            ..Default::default()
        });
    }
    // The diagnostics workload mirrors the LPI run's observation: a
    // reflectivity probe sampled inline every step, plus a heavy
    // field-slab + decimated-particle snapshot on the cadence. Artifacts
    // go to a scratch dir so the sync mode pays the real FFT +
    // progress.json cost the async worker is supposed to absorb.
    let dcfg = DiagConfig {
        mode: diag_mode,
        cadence: 8,
        ..Default::default()
    };
    let mut sink = DiagSink::new(&dcfg, sim.grid.dt as f64);
    if !sink.is_off() {
        let dir = std::env::temp_dir().join(format!("vpic_e2_diag_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        sink.set_out_dir(dir);
    }
    let mut probe = ReflectivityProbe::new(nx / 2);

    for _ in 0..3 {
        sim.step(); // warm-up, excluded from the report
    }
    sim.timings = Default::default();
    let coh_start = *sim.species[0].coherence();
    for _ in 0..steps {
        if sink.is_off() {
            sim.step();
        } else {
            let sink = &mut sink;
            let probe = &mut probe;
            sim.step_with_observed(
                |_, _, _| {},
                |f, g, species, step| {
                    probe.sample(f, g);
                    let v = g.voxel(probe.plane, 1, 1);
                    let backward = 0.5 * (f.ey[v] - f.cbz[v]);
                    let heavy = step.is_multiple_of(dcfg.cadence);
                    let (slab, particles) = if heavy {
                        let mut slab = sink.slab_buffer();
                        for k in 1..=g.nz {
                            for j in 1..=g.ny {
                                let v = g.voxel(probe.plane, j, k);
                                slab.extend_from_slice(&[
                                    f.ey[v] as f64,
                                    f.ez[v] as f64,
                                    f.cby[v] as f64,
                                    f.cbz[v] as f64,
                                ]);
                            }
                        }
                        let parts: Vec<f32> = species[0]
                            .iter()
                            .step_by(dcfg.decimation)
                            .map(|p| (p.ux * p.ux + p.uy * p.uy + p.uz * p.uz).sqrt())
                            .collect();
                        (Some(slab), Some(parts))
                    } else {
                        (None, None)
                    };
                    sink.publish(DiagSnapshot {
                        step,
                        time: step as f64 * g.dt as f64,
                        backward: backward as f64,
                        probe_raw: probe.raw_state(),
                        slab,
                        particles,
                    });
                },
            );
        }
    }
    let t = sim.timings;
    let (_engine, dstats) = sink.finish();
    let total = t.total();
    let coh = coh_delta(sim.species[0].coherence(), &coh_start);
    let realized_interval = sim.species[0].cadence().interval;

    let row = |name: &str, secs: f64| {
        vec![
            name.to_string(),
            format!("{:.4}", secs),
            format!("{:.1}%", 100.0 * secs / total),
        ]
    };
    print_table(
        &format!(
            "E2: step breakdown, grid {n:?}, ppc {ppc}, {steps} steps, \
             {pipelines} pipelines, {} rayon threads, {layout} layout, \
             {kernel_name} kernel ({} lanes), {cadence_name} cadence, {diag_name} diag{}",
            vpic_core::worker_threads(),
            vpic_core::lanes::BACKEND,
            if sentinel { ", sentinel armed" } else { "" }
        ),
        &["phase", "seconds", "share"],
        &[
            row("particle push + deposit (inner loop)", t.push),
            row("interpolator load", t.interpolate),
            row("current reduce/unload/sync", t.current),
            row("field solve (B/E/B)", t.field),
            row("particle sort", t.sort),
            row("probe sample + snapshot publish (diag)", t.diag),
            row("other (sponge/cleaning/hooks)", t.other),
            row("TOTAL", total),
        ],
    );
    if diag_mode != DiagMode::Off {
        println!(
            "diag [{}]: {} snapshot(s) published, {} consumed, {} dropped, max queue depth {}, \
             publisher stalled {:.1} ms",
            diag_name,
            dstats.published,
            dstats.consumed,
            dstats.dropped,
            dstats.max_depth,
            dstats.stall_seconds * 1e3
        );
    }

    let particle_flops = t.particle_steps as f64 * flops::particle::TOTAL as f64;
    let voxel_flops = t.voxel_steps as f64 * flops::voxel::TOTAL as f64;
    let inner_rate = particle_flops / t.push / 1e9;
    let sustained_rate = (particle_flops + voxel_flops) / total / 1e9;
    print_table(
        "E2: sustained vs inner loop",
        &["metric", "this host", "paper (Roadrunner)"],
        &[
            vec![
                "inner loop rate".into(),
                format!("{inner_rate:.2} Gflop/s"),
                "488,000 Gflop/s".into(),
            ],
            vec![
                "sustained rate".into(),
                format!("{sustained_rate:.2} Gflop/s"),
                "374,000 Gflop/s".into(),
            ],
            vec![
                "sustained / inner".into(),
                format!("{:.3}", sustained_rate / inner_rate),
                "0.766".into(),
            ],
            vec![
                "inner-loop time share".into(),
                format!("{:.3}", t.inner_loop_fraction()),
                "~0.77 (implied)".into(),
            ],
        ],
    );
    println!(
        "\nwhole-step throughput: {:.4e} particles/s ({} particles, {} pipelines, {} threads, \
         {} layout, {} kernel)",
        t.particle_steps as f64 / total,
        sim.n_particles(),
        pipelines,
        vpic_core::worker_threads(),
        layout,
        kernel_name
    );
    print_table(
        &format!("E2: sort cadence & lane coherence over the timed window ({cadence_name})"),
        &["metric", "value"],
        &[
            vec![
                "realized sort interval (steps)".into(),
                realized_interval.to_string(),
            ],
            vec!["sorts performed".into(), coh.sorts.to_string()],
            vec![
                "sorts skipped (coherent)".into(),
                coh.skipped_sorts.to_string(),
            ],
            vec![
                "crosser rate (per particle-step)".into(),
                format!("{:.5}", coh.crosser_rate()),
            ],
            vec![
                "lane spill rate (per lane)".into(),
                format!("{:.5}", coh.spill_rate()),
            ],
            vec![
                "mixed-voxel block fraction".into(),
                format!("{:.5}", coh.mixed_block_fraction()),
            ],
        ],
    );
    println!("shape check: the inner loop dominates the step and the sustained/inner");
    println!("ratio sits in the same ~0.7-0.9 band the paper reports.");

    if !json.is_empty() {
        let bench = StepBench::from_timings(
            &t,
            n,
            ppc,
            pipelines,
            vpic_core::worker_threads(),
            sim.n_particles() as u64,
            layout.name(),
            kernel_name,
        )
        .with_coherence(&cadence_name, &coh)
        .with_diag(diag_name);
        if let Err(e) = bench.validate() {
            eprintln!("refusing to write {json}: {e}");
            std::process::exit(1);
        }
        // Merge by (layout, kernel, cadence, diag, threads): an existing
        // readable file keeps its other-variant records, so one run per
        // variant — and per worker-thread count — accumulates a complete
        // set.
        let path = std::path::Path::new(&json);
        let mut set = read_set(path).unwrap_or_default();
        set.retain(|b| b.merge_key() != bench.merge_key());
        set.push(bench);
        set.sort_by(|a, b| a.merge_key().cmp(&b.merge_key()));
        if let Err(e) = write_set(&set, path) {
            eprintln!("write {json}: {e}");
            std::process::exit(1);
        }
        println!("wrote {json} ({} records)", set.len());
    }
}

/// `--validate <path>`: load + check every record in a BENCH_step.json,
/// exit nonzero on any schema problem or NaN/zero rate. Then run the
/// lane kernel against the scalar AoS oracle on a shrunk bench grid and
/// require bit-identical particles and fields — the same differential
/// contract `tests/kernel_oracle.rs` pins, re-checked in the binary that
/// writes the perf records.
fn validate(path: &str) -> i32 {
    match read_set(std::path::Path::new(path))
        .and_then(|set| set.iter().try_for_each(StepBench::validate).map(|()| set))
    {
        Ok(set) => {
            for b in &set {
                println!(
                    "{path} OK [{} {} {} diag-{}]: {:.4e} particles/s, grid {:?}, {} threads, \
                     inner-loop share {:.3}, spill rate {:.4}",
                    b.layout,
                    b.kernel,
                    b.cadence,
                    b.diag,
                    b.particles_per_sec,
                    b.grid,
                    b.threads,
                    b.inner_loop_fraction,
                    b.spill_rate
                );
            }
        }
        Err(e) => {
            eprintln!("{path} INVALID: {e}");
            return 1;
        }
    }
    match oracle_cross_check() {
        Ok(msg) => {
            println!("{msg}");
            0
        }
        Err(e) => {
            eprintln!("lane kernel DIVERGES from scalar oracle: {e}");
            1
        }
    }
}

/// Run the bench deck (same plasma factory and sort cadence the records
/// come from) on a shrunk grid under all three variants and demand the
/// AoSoA scalar and lane runs land bit-for-bit on the AoS scalar oracle.
fn oracle_cross_check() -> Result<String, String> {
    let n = (8, 8, 8);
    let (ppc, steps) = (8, 6);
    let pipelines = vpic_core::worker_threads().max(2);
    let mut sims = [
        (Layout::Aos, PushKernel::Scalar),
        (Layout::Aosoa, PushKernel::Scalar),
        (Layout::Aosoa, PushKernel::Lane),
    ]
    .map(|(layout, kernel)| {
        let mut sim = uniform_plasma(n, ppc, pipelines, 7);
        sim.set_layout(layout);
        sim.set_kernel(kernel);
        // A short sort interval so the lane kernel sees both freshly
        // sorted single-voxel blocks and drifted mixed-voxel blocks.
        sim.species[0].set_sort_policy(SortPolicy::Fixed(3));
        sim
    });
    for _ in 0..steps {
        for sim in sims.iter_mut() {
            sim.step();
        }
    }
    let [oracle, aosoa_scalar, aosoa_lane] = sims;
    for (sim, which) in [(&aosoa_scalar, "aosoa scalar"), (&aosoa_lane, "aosoa lane")] {
        if sim.n_particles() != oracle.n_particles() {
            return Err(format!(
                "{which}: {} particles vs oracle {}",
                sim.n_particles(),
                oracle.n_particles()
            ));
        }
        for (sa, sb) in oracle.species.iter().zip(sim.species.iter()) {
            for (k, (p, q)) in sa.iter().zip(sb.iter()).enumerate() {
                if p != q {
                    return Err(format!(
                        "{which}: particle {k} differs after {steps} steps:\n  oracle {p:?}\n  \
                         kernel {q:?}"
                    ));
                }
            }
        }
        let fields = [
            ("ex", &oracle.fields.ex, &sim.fields.ex),
            ("ey", &oracle.fields.ey, &sim.fields.ey),
            ("ez", &oracle.fields.ez, &sim.fields.ez),
            ("cbx", &oracle.fields.cbx, &sim.fields.cbx),
            ("cby", &oracle.fields.cby, &sim.fields.cby),
            ("cbz", &oracle.fields.cbz, &sim.fields.cbz),
            ("jx", &oracle.fields.jx, &sim.fields.jx),
            ("jy", &oracle.fields.jy, &sim.fields.jy),
            ("jz", &oracle.fields.jz, &sim.fields.jz),
        ];
        for (name, a, b) in fields {
            for (v, (p, q)) in a.iter().zip(b.iter()).enumerate() {
                if p.to_bits() != q.to_bits() {
                    return Err(format!("{which}: field {name}[{v}] differs: {p} vs {q}"));
                }
            }
        }
    }
    Ok(format!(
        "oracle cross-check OK: aosoa scalar+lane bit-identical to aos scalar over {steps} steps \
         on {n:?} ppc {ppc} ({} particles)",
        oracle.n_particles()
    ))
}

/// `--assert-diag <path>`: the file must carry records for both
/// `diag = off` and `diag = async` on the same configuration (layout,
/// kernel, cadence), and the async pipeline must cost at most 3% of
/// step throughput — the snapshot handoff is supposed to be off the hot
/// path, so its residual step cost is probe sampling + publication only.
fn assert_diag(path: &str) -> i32 {
    let set = match read_set(std::path::Path::new(path)) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 1;
        }
    };
    let off = set.iter().find(|b| b.diag == "off");
    let asy = off.and_then(|o| {
        set.iter().find(|b| {
            b.diag == "async"
                && b.layout == o.layout
                && b.kernel == o.kernel
                && b.cadence == o.cadence
                && b.threads == o.threads
        })
    });
    let (Some(off), Some(asy)) = (off, asy) else {
        eprintln!("{path}: need records for both diag=off and diag=async on one configuration");
        return 1;
    };
    if off.grid != asy.grid || off.ppc != asy.ppc || off.pipelines != asy.pipelines {
        eprintln!(
            "{path}: records not comparable (off grid {:?} ppc {} pipes {} vs async grid {:?} \
             ppc {} pipes {})",
            off.grid, off.ppc, off.pipelines, asy.grid, asy.ppc, asy.pipelines
        );
        return 1;
    }
    let ratio = asy.particles_per_sec / off.particles_per_sec;
    println!(
        "{path}: diag async {:.4e} p/s vs diag off {:.4e} p/s ({ratio:.3}x)",
        asy.particles_per_sec, off.particles_per_sec
    );
    if ratio >= 0.97 {
        0
    } else {
        eprintln!("async diagnostics cost more than 3% of step throughput");
        1
    }
}

/// `--assert-speedup <path>`: the file must carry AoSoA records for both
/// kernels on the same configuration and sort cadence, and the lane
/// kernel must be at least as fast — the regression gate for the lane
/// rewrite.
fn assert_speedup(path: &str) -> i32 {
    let set = match read_set(std::path::Path::new(path)) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 1;
        }
    };
    let scalar = set
        .iter()
        .find(|b| b.layout == "aosoa" && b.kernel == "scalar");
    let lane = scalar.and_then(|s| {
        set.iter().find(|b| {
            b.layout == "aosoa"
                && b.kernel == "lane"
                && b.cadence == s.cadence
                && b.threads == s.threads
        })
    });
    let (Some(scalar), Some(lane)) = (scalar, lane) else {
        eprintln!("{path}: need aosoa records for both scalar and lane kernels at one cadence");
        return 1;
    };
    if scalar.grid != lane.grid || scalar.ppc != lane.ppc || scalar.pipelines != lane.pipelines {
        eprintln!(
            "{path}: records not comparable (scalar grid {:?} ppc {} pipes {} vs lane grid {:?} \
             ppc {} pipes {})",
            scalar.grid, scalar.ppc, scalar.pipelines, lane.grid, lane.ppc, lane.pipelines
        );
        return 1;
    }
    let ratio = lane.particles_per_sec / scalar.particles_per_sec;
    println!(
        "{path}: aosoa lane {:.4e} p/s vs aosoa scalar {:.4e} p/s ({ratio:.2}x)",
        lane.particles_per_sec, scalar.particles_per_sec
    );
    if lane.particles_per_sec >= scalar.particles_per_sec {
        0
    } else {
        eprintln!("lane kernel is SLOWER than the scalar body it replaced");
        1
    }
}

/// `--assert-auto <path>`: the file must carry aosoa-lane records for
/// both the `auto` and `fixed-25` cadences on the same configuration,
/// and the controller must be at least on par with the historical fixed
/// cadence. A 3% guard absorbs run-to-run timing noise in CI; the
/// committed BENCH_step.json is expected to clear 1.0x outright.
fn assert_auto(path: &str) -> i32 {
    let set = match read_set(std::path::Path::new(path)) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 1;
        }
    };
    let is_lane = |b: &&StepBench, cadence: &str| {
        b.layout == "aosoa" && b.kernel == "lane" && b.cadence == cadence
    };
    let auto = set.iter().find(|b| is_lane(b, "auto"));
    let fixed = auto.and_then(|a| {
        set.iter()
            .find(|b| is_lane(b, "fixed-25") && b.threads == a.threads)
    });
    let (Some(auto), Some(fixed)) = (auto, fixed) else {
        eprintln!("{path}: need aosoa lane records for both auto and fixed-25 cadences");
        return 1;
    };
    if auto.grid != fixed.grid || auto.ppc != fixed.ppc || auto.pipelines != fixed.pipelines {
        eprintln!(
            "{path}: records not comparable (auto grid {:?} ppc {} pipes {} vs fixed grid {:?} \
             ppc {} pipes {})",
            auto.grid, auto.ppc, auto.pipelines, fixed.grid, fixed.ppc, fixed.pipelines
        );
        return 1;
    }
    let ratio = auto.particles_per_sec / fixed.particles_per_sec;
    println!(
        "{path}: aosoa lane auto {:.4e} p/s ({} sorts, {} skipped) vs fixed-25 {:.4e} p/s \
         ({ratio:.3}x)",
        auto.particles_per_sec, auto.sorts, auto.skipped_sorts, fixed.particles_per_sec
    );
    if ratio >= 0.97 {
        0
    } else {
        eprintln!("auto cadence is SLOWER than the fixed-25 default it replaces");
        1
    }
}
