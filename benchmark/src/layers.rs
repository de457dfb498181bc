//! Per-layer metrics shared by several workloads: the `core` phase table
//! read off a traced run's spans, and the small side measurements
//! (checkpoint, sentinel, journal, model projection) taken with direct
//! calls into the layer's public functions.

use crate::drivers::StepCounts;
use crate::report::{fingerprint, Metrics, Report, TempDir};
use crate::stats::{median, percentile};
use crate::trace::{busy_s, self_times_ns, Span};
use std::time::Instant;
use vpic::core::cadence::CoherenceCounters;
use vpic::core::checkpoint::{self, compress_delta_rle, encode_fields, encode_species};
use vpic::core::sentinel::{local_sample, SentinelConfig};
use vpic::core::{AccumulatorSet, FieldArray, Grid, Journal, Simulation, Species};
use vpic::roadrunner::{flops, KernelRates, Machine, NodeLoad, PerfModel};

/// Mean over ranks of the rank's summed time in spans called `name`:
/// ranks run side by side, so this is the phase's share of wall time.
pub fn mean_busy_s(ranks: &[Vec<Span>], name: &str) -> f64 {
    ranks.iter().map(|s| busy_s(s, name)).sum::<f64>() / ranks.len() as f64
}

/// Fill the `core.*` phase metrics (and `trace.spans`) from the spans of
/// the timed traced rounds. `counts` are summed over ranks.
pub fn core_phases(m: &mut Metrics, ranks: &[Vec<Span>], counts: &StepCounts) {
    let step_s = mean_busy_s(ranks, "step");
    let push_s = mean_busy_s(ranks, "core.push");
    let interp_s = mean_busy_s(ranks, "core.interp");
    let field_s = mean_busy_s(ranks, "core.field");
    m.set("core.sort.busy_s", mean_busy_s(ranks, "core.sort"));
    m.set("core.sort.count", counts.sorts as f64);
    m.set("core.interp.busy_s", interp_s);
    m.set(
        "core.interp.voxels_per_s",
        counts.voxel_steps as f64 / interp_s,
    );
    m.set("core.push.busy_s", push_s);
    let pps = counts.particle_steps as f64 / push_s;
    m.set("core.push.particles_per_s", pps);
    m.set("core.push.ns_per_particle", 1e9 / pps);
    m.set(
        "core.push.gflops_computed",
        flops::particle_flops(pps) / 1e9,
    );
    m.set("core.push.bytes_per_flop_computed", flops::bytes_per_flop());
    let coherence = CoherenceCounters {
        tally: counts.tally,
        ..Default::default()
    };
    m.set("core.push.crosser_rate", coherence.crosser_rate());
    m.set("core.push.spill_rate", coherence.spill_rate());
    m.set(
        "core.push.mixed_block_fraction",
        coherence.mixed_block_fraction(),
    );
    m.set("core.accum.busy_s", mean_busy_s(ranks, "core.accum"));
    m.set("core.field.busy_s", field_s);
    m.set(
        "core.field.voxels_per_s",
        counts.voxel_steps as f64 / field_s,
    );
    m.set("core.inner_loop_fraction", push_s / step_s);

    let step_ms: Vec<f64> = ranks[0]
        .iter()
        .filter(|s| s.name == "step")
        .map(|s| s.seconds() * 1e3)
        .collect();
    m.set("core.step.ms_p50", median(&step_ms));
    m.set("core.step.ms_p95", percentile(&step_ms, 95.0));

    let (mut uncovered, mut total) = (0u64, 0u64);
    for spans in ranks {
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            if s.name == "step" {
                uncovered += own;
                total += s.end_ns - s.start_ns;
            }
        }
    }
    m.set("core.step.residual_share", uncovered as f64 / total as f64);
    m.set(
        "trace.spans",
        ranks.iter().map(Vec::len).sum::<usize>() as f64,
    );
}

/// `model.*`: what this host's measured push rate would deliver on the
/// paper's machine at the paper's headline load (one rank's thread taken
/// as one SPE-equivalent, as `e7_machine_projection` does; `ranks`
/// brings a world's aggregate rates back to one thread). Printed beside
/// the paper's 0.488 / 0.374 Pflop/s.
pub fn model_projection(m: &mut Metrics, notes: &mut Vec<String>, ranks: usize) {
    let pps = m.get("core.push.particles_per_s") / ranks as f64;
    let vps = m.get("core.field.voxels_per_s") / ranks as f64;
    let machine = Machine::roadrunner();
    let model = PerfModel {
        machine,
        rates: KernelRates::from_measured_host_rate(&machine, pps, vps, machine.spe_gflops_sp),
    };
    let load = NodeLoad::paper_headline(&machine);
    let (inner, sustained) = (
        model.inner_loop_pflops(&load),
        model.sustained_pflops(&load),
    );
    m.set("model.projected_inner_pflops", inner);
    m.set("model.projected_sustained_pflops", sustained);
    notes.push(format!(
        "model: projected inner loop {inner:.3} Pflop/s (paper 0.488), sustained {sustained:.3} Pflop/s (paper 0.374)"
    ));
}

/// Serial v2 dump of `sim` to memory and back, timed; returns whether
/// the restored state re-dumps to the same bytes (`checkpoint-roundtrip`).
pub fn serial_checkpoint(m: &mut Metrics, sim: &Simulation) -> Result<bool, String> {
    let pipelines = sim.accumulators.n_pipelines();
    let t = Instant::now();
    let mut bytes = Vec::new();
    checkpoint::save(sim, &mut bytes).map_err(|e| format!("checkpoint save: {e}"))?;
    m.set("core.checkpoint.save_s", t.elapsed().as_secs_f64());
    m.set("core.checkpoint.bytes", bytes.len() as f64);
    let t = Instant::now();
    let back = checkpoint::load(&mut bytes.as_slice(), pipelines)
        .map_err(|e| format!("checkpoint load: {e}"))?;
    m.set("core.checkpoint.load_s", t.elapsed().as_secs_f64());
    let want = fingerprint(&bytes);
    drop(bytes);
    m.set(
        "core.checkpoint.compress_ratio",
        compress_ratio(&sim.fields, &sim.species),
    );
    let mut again = Vec::new();
    checkpoint::save(&back, &mut again).map_err(|e| format!("checkpoint re-save: {e}"))?;
    Ok(fingerprint(&again) == want)
}

/// Raw over delta+RLE-compressed size of the two big dump sections, as
/// the v3 dump writer would encode them.
pub fn compress_ratio(fields: &FieldArray, species: &[Species]) -> f64 {
    let (f, s) = (encode_fields(fields), encode_species(species));
    (f.len() + s.len()) as f64
        / (compress_delta_rle(&f).len() + compress_delta_rle(&s).len()) as f64
}

/// Median wall time of one sentinel health sample (every monitor at its
/// armed default) over this domain's state, in ms. The Gauss monitor's
/// `rho` refresh is the caller's job and is left out: it needs a
/// deposit, which the step loop does not.
pub fn sentinel_check_ms(
    fields: &FieldArray,
    grid: &Grid,
    species: &[Species],
    accums: &AccumulatorSet,
    step: u64,
) -> f64 {
    let cfg = SentinelConfig::enabled();
    let mut scratch = Vec::new();
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(local_sample(
                step,
                fields,
                grid,
                species,
                accums,
                &cfg,
                &mut scratch,
            ));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// Median microseconds of one durable 64-byte append to a fresh journal
/// in the run's scratch space.
pub fn journal_append_us_p50() -> Result<f64, String> {
    let dir = TempDir::new("wal").map_err(|e| format!("scratch: {e}"))?;
    let mut j =
        Journal::create(dir.path().join("probe.wal")).map_err(|e| format!("journal: {e}"))?;
    let payload = [0x5au8; 64];
    let mut us = Vec::with_capacity(64);
    for _ in 0..64 {
        let t = Instant::now();
        j.append(&payload).map_err(|e| format!("journal: {e}"))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

/// Set `trace.overhead_share` and record the two checks every traced run
/// ends with: the phases account for the step, and looking was cheap.
pub fn trace_checks(report: &mut Report, overhead: f64) {
    report.metrics.set("trace.overhead_share", overhead);
    let residual = report.metrics.get("core.step.residual_share");
    report.checks.record(
        "phases-add-up",
        residual <= 0.10,
        format!("core.step.residual_share = {residual:.4}"),
    );
    report.checks.record(
        "trace-overhead",
        overhead <= 0.05,
        format!("trace.overhead_share = {overhead:.4}"),
    );
}

/// Overhead of tracing from alternating plain and traced steps: the
/// median over pairs of `traced_i / plain_i − 1`. Pairing cancels host
/// drift, which on a shared 2-core VM is larger than the overhead being
/// measured, and lines up the steps on which a sort fires.
pub fn paired_overhead(plain: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = plain.iter().zip(traced).map(|(p, t)| t / p - 1.0).collect();
    median(&ratios)
}
