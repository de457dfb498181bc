//! Input decks: plain-text run descriptions in the spirit of VPIC's input
//! decks (which are C++ there; here a simple INI-like format), so a
//! simulation can be configured, launched and post-processed without
//! writing Rust. Used by the `vpic-run` binary.
//!
//! ```text
//! # two_stream.deck
//! kind = plasma
//! steps = 500
//!
//! [grid]
//! cells = 64 2 2
//! dx = 0.2
//! courant = 0.9
//! boundary = periodic
//!
//! [species.electron]
//! charge = -1
//! mass = 1
//! density = 1
//! ppc = 64
//! loader = two_stream      # or: thermal, juttner
//! drift = 0.1
//! vth = 0.005
//!
//! [output]
//! energy_interval = 10
//! ```
//!
//! `kind = lpi` decks instead carry a `[laser]` section (`a0`,
//! `n_over_ncr`, `vth`, `flat`, `ppc`, `seed_frac`, …) and build a seeded
//! SRS run.
//!
//! A `kind = plasma` deck with a `[campaign]` section instead builds a
//! fault-tolerant multi-rank campaign (see [`CampaignSetup`]): the box is
//! domain-decomposed over `ranks`, checkpointed every
//! `checkpoint_interval` steps (or on the Young/Daly optimum with
//! `checkpoint_interval = auto`, tuned by `mtbi_seconds` and
//! `auto_min_interval`/`auto_max_interval`), health-checked, and
//! automatically recovered on failure by whole-world rollback. Dumps
//! honour `compress = true|false` and an optional
//! `checkpoint_write_mbps` throttle. Fault-injection knobs
//! (`kill_rank`/`kill_step`, `drop_prob`, `fault_seed`) exercise the
//! recovery path on purpose.
//!
//! A `kind = lpi` deck with a `[campaign]` section runs the LPI run on
//! the same campaign runtime as a one-rank world (`checkpoint_interval`,
//! `keep_checkpoints`, `max_recoveries`, `kill_step`).
//!
//! A `kind = lpi` deck with a `[sweep]` section runs the crash-proof
//! reflectivity-sweep service (see [`SweepSetup`]): the `[laser]`
//! section is the base deck, templated over comma-separated `a0` /
//! `n_over_ncr` / `vth` axis lists, each grid point driven as a
//! WAL-journaled job whose failed attempts are retried after every
//! pending point and quarantined at `max_attempts`, aggregated
//! exactly-once into `reflectivity_curve.json`. Re-running the same deck
//! against the same directory resumes the sweep instead of restarting
//! it. The retired keys `lease_ms`, `base_backoff_ms`, `max_backoff_ms`
//! and `jitter_seed` are ignored, like every key the deck does not read.
//!
//! Either campaign kind also honours a `[sentinel]` section
//! (numerical-integrity thresholds: `health_interval`,
//! `max_energy_growth`, `max_div_e_rms`, `max_div_b_rms`, `max_momentum`,
//! `max_particle_drift`, `marder_passes`, `max_marder_bursts`,
//! `recorder_len`, plus the periodic Marder-cleaning cadence
//! `clean_div_e_interval` / `clean_div_b_interval`) and a `[fault]` section injecting a seeded one-shot
//! field corruption (`corrupt_step`, `corrupt_count`,
//! `corrupt_mode = nan|huge`, `corrupt_rank`, `seed`) that the sentinel
//! must catch and recover from.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use nanompi::{FaultPlan, TransportKind};
use vpic_core::queue::RetryPolicy;
use vpic_core::sentinel::{
    CorruptionEvent, CorruptionMode, CorruptionPlan, SentinelConfig, SimConfig,
};
use vpic_core::{
    load_juttner, load_two_stream, load_uniform, FieldArray, Grid, Momentum, ParticleBc, Rng,
    Simulation, SortPolicy, Species, Sponge,
};
use vpic_diag::{DiagConfig, DiagMode};
use vpic_lpi::{
    LaserAntenna, LpiCampaignConfig, LpiParams, LpiRun, Polarization, SweepConfig, SweepGrid,
};
use vpic_parallel::campaign::{CampaignConfig, CheckpointPolicy};
use vpic_parallel::{DistributedSim, DomainSpec};

/// A parsed deck: sections of key → value.
#[derive(Clone, Debug, Default)]
pub struct Deck {
    /// Top-level (section-less) keys.
    pub globals: BTreeMap<String, String>,
    /// `[section]` keys, in file order.
    pub sections: Vec<(String, BTreeMap<String, String>)>,
}

/// Deck parsing/validation error.
#[derive(Debug)]
pub struct DeckError(pub String);

impl std::fmt::Display for DeckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deck error: {}", self.0)
    }
}

impl std::error::Error for DeckError {}

fn err(msg: impl Into<String>) -> DeckError {
    DeckError(msg.into())
}

impl Deck {
    /// Parse deck text. `#` starts a comment; blank lines are ignored.
    pub fn parse(text: &str) -> Result<Deck, DeckError> {
        let mut deck = Deck::default();
        let mut current: Option<usize> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| err(format!("line {}: unterminated section", lineno + 1)))?
                    .trim()
                    .to_string();
                deck.sections.push((name, BTreeMap::new()));
                current = Some(deck.sections.len() - 1);
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("line {}: expected key = value", lineno + 1)))?;
            let (key, value) = (key.trim().to_string(), value.trim().to_string());
            match current {
                Some(s) => {
                    deck.sections[s].1.insert(key, value);
                }
                None => {
                    deck.globals.insert(key, value);
                }
            }
        }
        Ok(deck)
    }

    /// First section with this exact name.
    pub fn section(&self, name: &str) -> Option<&BTreeMap<String, String>> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, kv)| kv)
    }

    /// All sections whose name starts with `prefix.` — returns
    /// `(suffix, keys)` pairs (e.g. `species.electron` → `electron`).
    pub fn sections_with_prefix(&self, prefix: &str) -> Vec<(&str, &BTreeMap<String, String>)> {
        let p = format!("{prefix}.");
        self.sections
            .iter()
            .filter_map(|(n, kv)| n.strip_prefix(&p).map(|suffix| (suffix, kv)))
            .collect()
    }

    /// Global `steps` (default 100) and `seed` (default 1).
    pub fn steps(&self) -> u64 {
        self.globals
            .get("steps")
            .and_then(|v| v.parse().ok())
            .unwrap_or(100)
    }

    /// Run seed.
    pub fn seed(&self) -> u64 {
        self.globals
            .get("seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1)
    }
}

fn get_f32(kv: &BTreeMap<String, String>, key: &str) -> Result<Option<f32>, DeckError> {
    match kv.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| err(format!("bad float for {key}: {v}"))),
    }
}

fn req_f32(kv: &BTreeMap<String, String>, key: &str, default: f32) -> Result<f32, DeckError> {
    Ok(get_f32(kv, key)?.unwrap_or(default))
}

fn get_usize(kv: &BTreeMap<String, String>, key: &str, default: usize) -> Result<usize, DeckError> {
    match kv.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("bad integer for {key}: {v}"))),
    }
}

/// The count at `path` (`pipelines`, `laser.ppc`, `species.<name>.ppc`)
/// in `kv`, the keys of its section: at least 1.
fn get_count(
    kv: &BTreeMap<String, String>,
    path: &str,
    default: usize,
) -> Result<usize, DeckError> {
    let key = path.rsplit('.').next().unwrap_or(path);
    match get_usize(kv, key, default)? {
        0 => Err(err(format!("{path} must be at least 1"))),
        n => Ok(n),
    }
}

/// `m` if it is a usable mass (positive, so not NaN); else an error
/// naming `path`.
fn positive_mass(m: f32, path: &str) -> Result<f32, DeckError> {
    if m > 0.0 {
        Ok(m)
    } else {
        Err(err(format!("{path} must be positive, got {m}")))
    }
}

/// What [`parse_grid`] reads: the section, `cells`, `dx` and `dt`.
type GridKeys<'a> = (&'a BTreeMap<String, String>, [usize; 3], f32, f32);

/// The `[grid]` section with its `cells` (three counts, each at least 1),
/// `dx` and the `courant`-limited `dt`.
fn parse_grid(deck: &Deck) -> Result<GridKeys<'_>, DeckError> {
    let gkv = deck
        .section("grid")
        .ok_or_else(|| err("missing [grid] section"))?;
    let cells_str = gkv.get("cells").ok_or_else(|| err("grid.cells required"))?;
    let cells: Vec<usize> = cells_str
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| err(format!("bad cells: {cells_str}")))
        })
        .collect::<Result<_, _>>()?;
    let cells: [usize; 3] = cells
        .try_into()
        .map_err(|_| err("grid.cells wants three integers"))?;
    if cells.contains(&0) {
        return Err(err(format!(
            "grid.cells must be at least 1 per axis, got {cells_str}"
        )));
    }
    let dx = req_f32(gkv, "dx", 0.25)?;
    let courant = req_f32(gkv, "courant", 0.9)?;
    Ok((gkv, cells, dx, Grid::courant_dt(1.0, (dx, dx, dx), courant)))
}

/// What a deck builds.
pub enum BuiltRun {
    /// A periodic/walled plasma box.
    Plasma(Box<Simulation>),
    /// A laser–plasma interaction run.
    Lpi(Box<LpiRun>),
    /// A fault-tolerant multi-rank campaign.
    Campaign(Box<CampaignSetup>),
    /// A fault-tolerant one-rank LPI campaign (`kind = lpi` + `[campaign]`).
    LpiCampaign(Box<LpiCampaignSetup>),
    /// A crash-proof reflectivity sweep (`kind = lpi` + `[sweep]`).
    Sweep(Box<SweepSetup>),
}

/// Build the run a deck describes.
pub fn build(deck: &Deck) -> Result<BuiltRun, DeckError> {
    // `Deck::steps` and `Deck::seed` fall back to their defaults on a
    // value that does not parse, and so does `vpic-run`'s reading of
    // `[output] energy_interval`; a deck that sets one must set it right.
    for key in ["steps", "seed"] {
        get_u64(&deck.globals, key, 0)?;
    }
    if let Some(output) = deck.section("output") {
        get_u64(output, "energy_interval", 0)?;
    }
    match deck.globals.get("kind").map(String::as_str) {
        Some("plasma") | None if deck.section("campaign").is_some() => {
            build_campaign(deck).map(|c| BuiltRun::Campaign(Box::new(c)))
        }
        Some("plasma") | None => build_plasma(deck).map(|s| BuiltRun::Plasma(Box::new(s))),
        Some("lpi") if deck.section("sweep").is_some() => {
            build_sweep(deck).map(|s| BuiltRun::Sweep(Box::new(s)))
        }
        Some("lpi") if deck.section("campaign").is_some() => {
            build_lpi_campaign(deck).map(|c| BuiltRun::LpiCampaign(Box::new(c)))
        }
        Some("lpi") => build_lpi(deck).map(|r| BuiltRun::Lpi(Box::new(r))),
        Some(other) => Err(err(format!("unknown kind: {other}"))),
    }
}

/// Parse the optional `[sentinel]` section into a full [`SimConfig`]:
/// thresholds for the numerical-integrity monitors, starting from the
/// armed defaults ([`SentinelConfig::enabled`]), plus the periodic
/// Marder-cleaning cadence (`clean_div_e_interval` /
/// `clean_div_b_interval`, 0 = never). Returns `None` when the section
/// is absent (a `kind = plasma` campaign then checks on its `[campaign]`
/// `health_interval` with the campaign's default thresholds).
fn parse_sentinel(deck: &Deck) -> Result<Option<SimConfig>, DeckError> {
    let Some(kv) = deck.section("sentinel") else {
        return Ok(None);
    };
    let d = SentinelConfig::enabled();
    let f =
        |key: &str, dv: f64| -> Result<f64, DeckError> { Ok(req_f32(kv, key, dv as f32)? as f64) };
    Ok(Some(SimConfig {
        clean_div_e_interval: get_usize(kv, "clean_div_e_interval", 0)?,
        clean_div_b_interval: get_usize(kv, "clean_div_b_interval", 0)?,
        sentinel: SentinelConfig {
            health_interval: get_u64(kv, "health_interval", d.health_interval)?,
            max_energy_growth: f("max_energy_growth", d.max_energy_growth)?,
            max_div_e_rms: f("max_div_e_rms", d.max_div_e_rms)?,
            max_div_b_rms: f("max_div_b_rms", d.max_div_b_rms)?,
            max_momentum: f("max_momentum", d.max_momentum)?,
            max_particle_drift: f("max_particle_drift", d.max_particle_drift)?,
            marder_passes: get_u32(kv, "marder_passes", d.marder_passes)?,
            max_marder_bursts: get_u32(kv, "max_marder_bursts", d.max_marder_bursts)?,
            recorder_len: get_usize(kv, "recorder_len", d.recorder_len)?,
        },
    }))
}

/// Parse the optional `[fault]` section into a seeded one-shot
/// [`CorruptionPlan`] (transient-upset injection; kills stay on the
/// `[campaign]` section's `kill_rank`/`kill_step` knobs).
fn parse_corruption(deck: &Deck) -> Result<Option<CorruptionPlan>, DeckError> {
    let Some(kv) = deck.section("fault") else {
        return Ok(None);
    };
    let step = match kv.get("corrupt_step") {
        None => return Ok(None),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("bad integer for corrupt_step: {v}")))?,
    };
    let mode = match kv.get("corrupt_mode").map(String::as_str) {
        None | Some("nan") => CorruptionMode::Nan,
        Some("huge") => CorruptionMode::Huge,
        Some(other) => {
            return Err(err(format!(
                "fault.corrupt_mode must be nan or huge, got {other}"
            )))
        }
    };
    let rank = match kv.get("corrupt_rank") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| err(format!("bad integer for corrupt_rank: {v}")))?,
        ),
    };
    let seed = get_u64(kv, "seed", deck.seed())?;
    Ok(Some(CorruptionPlan::new(seed).with_event(
        CorruptionEvent {
            step,
            rank,
            mode,
            count: get_usize(kv, "corrupt_count", 8)?,
        },
    )))
}

/// A campaign deck's optional `[laser]` section: a current-sheet antenna
/// at a *global* live x-plane. Each rank builds a local drive from it
/// ([`CampaignSetup::drive_for`]); only the plane's owner injects current.
#[derive(Clone, Copy, Debug)]
pub struct CampaignLaser {
    /// Global live x index of the antenna sheet (1-based).
    pub plane: usize,
    pub a0: f32,
    pub omega: f32,
    pub ramp_steps: u64,
    pub polarization: Polarization,
}

/// One species' loading recipe for a campaign deck. Campaign decks load
/// per-rank with [`DistributedSim::load_uniform`], so only uniform thermal
/// (optionally drifting) loading is available.
#[derive(Clone, Debug)]
pub struct CampaignSpecies {
    pub name: String,
    pub charge: f32,
    pub mass: f32,
    pub density: f32,
    pub ppc: usize,
    pub vth: f32,
    pub drift: f32,
}

/// Everything a deck's `[campaign]` section describes: the decomposed
/// problem, how to (re)build any rank's local simulation, the campaign
/// runtime knobs, and an optional fault-injection plan.
#[derive(Clone, Debug)]
pub struct CampaignSetup {
    /// World size.
    pub ranks: usize,
    /// Decomposed global problem.
    pub spec: DomainSpec,
    /// Species loading recipes (applied identically on every rank, with
    /// rank-decorrelated RNG streams).
    pub species: Vec<CampaignSpecies>,
    /// Run seed (also the per-rank loader seed base).
    pub seed: u64,
    /// Pipelines per rank (keep at 1 for bit-exact rollback replay).
    pub pipelines: usize,
    /// Sort cadence on every rank's species. Cadence decisions feed only
    /// on deterministic counters, so `auto` keeps rollback replay exact.
    pub sort: SortPolicy,
    /// Total campaign steps.
    pub steps: u64,
    /// Checkpoint schedule: a fixed step interval or the Young/Daly
    /// auto mode.
    pub checkpoint: CheckpointPolicy,
    /// Allow delta+RLE compression of dump sections.
    pub compress: bool,
    /// Checkpoint write throttle, bytes/second.
    pub checkpoint_write_bps: Option<u64>,
    /// Explicit checkpoint directory (else `<out>/checkpoints`).
    pub dir: Option<PathBuf>,
    /// Checkpoint generations kept on disk.
    pub keep_checkpoints: usize,
    /// Recovery budget.
    pub max_recoveries: u32,
    /// Health-check cadence in steps: the campaign's
    /// `sentinel.health_interval` unless a `[sentinel]` section sets one.
    pub health_interval: u64,
    /// Per-operation communication timeout override, in milliseconds.
    pub op_timeout_ms: Option<u64>,
    /// Injected faults (kill / drop), if any.
    pub fault_plan: Option<FaultPlan>,
    /// Run config (cleaning cadence + sentinel thresholds) from a
    /// `[sentinel]` section, if present. Applied to every built rank so
    /// it rides the dump's config section.
    pub sentinel: Option<SimConfig>,
    /// Seeded field corruption from a `[fault]` section, if present.
    pub corruption: Option<CorruptionPlan>,
    /// Which substrate the world runs over (`transport` deck global).
    pub transport: TransportKind,
    /// Optional laser antenna driven through the campaign loop.
    pub laser: Option<CampaignLaser>,
    /// Optional open-boundary damping layers (`[sponge]` section),
    /// evaluated in global x coordinates on every rank.
    pub sponge: Option<Sponge>,
}

impl CampaignSetup {
    /// Build rank `rank`'s local simulation (also used by rollback, which
    /// must reconstruct state from checkpoints, not from this builder).
    pub fn build_rank(&self, rank: usize) -> DistributedSim {
        let mut sim = DistributedSim::new(self.spec.clone(), rank, self.pipelines);
        for sp in &self.species {
            let si = sim.add_species(
                Species::new(&sp.name, sp.charge, sp.mass).with_sort_policy(self.sort),
            );
            sim.load_uniform(
                si,
                self.seed.wrapping_add(si as u64),
                sp.density,
                sp.ppc,
                Momentum::drifting_x(sp.vth, sp.drift),
            );
        }
        if let Some(c) = self.sentinel {
            sim.config = c;
        }
        sim.sponge = self.sponge;
        sim
    }

    /// The per-rank current drive for the deck's `[laser]` section: ranks
    /// whose x-slab contains the global antenna plane inject through a
    /// local [`LaserAntenna`] (each covers its own y–z patch); every other
    /// rank's drive is a no-op (but the closure still runs every step,
    /// keeping the call pattern uniform).
    pub fn drive_for(&self, rank: usize) -> impl Fn(&mut FieldArray, &Grid, u64) + Sync {
        let antenna = self.laser.and_then(|l| {
            let lx = self.spec.local_cells().0;
            let cx = self.spec.topo.coords_of(rank)[0];
            let lo = cx * lx; // global index of the plane left of this slab
            (l.plane > lo && l.plane <= lo + lx).then(|| LaserAntenna {
                plane: l.plane - lo,
                a0: l.a0,
                omega: l.omega,
                ramp_steps: l.ramp_steps,
                polarization: l.polarization,
            })
        });
        move |f: &mut FieldArray, g: &Grid, step: u64| {
            if let Some(a) = &antenna {
                a.drive(f, g, step);
            }
        }
    }

    /// The campaign runtime configuration, checkpointing into the deck's
    /// `dir` if set, else `<fallback>/checkpoints`.
    pub fn config(&self, fallback: &Path) -> CampaignConfig {
        let dir = self
            .dir
            .clone()
            .unwrap_or_else(|| fallback.join("checkpoints"));
        let mut cfg = CampaignConfig {
            checkpoint: self.checkpoint,
            keep_checkpoints: self.keep_checkpoints,
            max_recoveries: self.max_recoveries,
            op_timeout: self.op_timeout_ms.map(Duration::from_millis),
            compress: self.compress,
            write_throttle_bps: self.checkpoint_write_bps,
            corruption: self.corruption.clone(),
            ..CampaignConfig::new(self.steps, 0, dir)
        };
        cfg.sentinel.health_interval = self.health_interval;
        match self.sentinel {
            Some(s) => cfg.with_sentinel(s.sentinel),
            None => cfg,
        }
    }
}

/// Everything a `kind = lpi` deck's `[campaign]` section describes: the
/// LPI run parameters plus the campaign runtime knobs
/// (checkpoints, sentinel, seeded kills/corruption).
#[derive(Clone, Debug)]
pub struct LpiCampaignSetup {
    pub params: LpiParams,
    pub steps: u64,
    pub checkpoint_interval: u64,
    pub keep_checkpoints: usize,
    pub max_recoveries: u32,
    /// Explicit checkpoint directory (else `<out>/checkpoints`).
    pub dir: Option<PathBuf>,
    pub sentinel: Option<SimConfig>,
    pub corruption: Option<CorruptionPlan>,
    pub fault_plan: Option<FaultPlan>,
}

impl LpiCampaignSetup {
    /// The campaign runtime configuration, checkpointing into the deck's
    /// `dir` if set, else `<fallback>/checkpoints`.
    pub fn config(&self, fallback: &Path) -> LpiCampaignConfig {
        let dir = self
            .dir
            .clone()
            .unwrap_or_else(|| fallback.join("checkpoints"));
        let mut cfg = LpiCampaignConfig::new(self.steps, self.checkpoint_interval, dir);
        cfg.keep_checkpoints = self.keep_checkpoints;
        cfg.max_recoveries = self.max_recoveries;
        if let Some(s) = self.sentinel {
            cfg.sentinel = s.sentinel;
        }
        cfg.corruption = self.corruption.clone();
        cfg.fault_plan = self.fault_plan.clone();
        cfg
    }
}

fn build_lpi_campaign(deck: &Deck) -> Result<LpiCampaignSetup, DeckError> {
    let run = build_lpi(deck)?;
    let ckv = deck.section("campaign").expect("caller checked");
    let interval = get_u64(ckv, "checkpoint_interval", 50)?;
    let fault_seed = get_u64(ckv, "fault_seed", deck.seed())?;
    let fault_plan = match ckv.get("kill_step") {
        None => None,
        Some(v) => {
            let step: u64 = v
                .parse()
                .map_err(|_| err(format!("bad integer for kill_step: {v}")))?;
            Some(FaultPlan::new(fault_seed).kill(0, step))
        }
    };
    Ok(LpiCampaignSetup {
        params: run.params,
        steps: deck.steps(),
        checkpoint_interval: interval,
        keep_checkpoints: get_usize(ckv, "keep_checkpoints", 2)?.max(1),
        max_recoveries: get_u32(ckv, "max_recoveries", 3)?,
        dir: ckv.get("dir").map(PathBuf::from),
        sentinel: parse_sentinel(deck)?,
        corruption: parse_corruption(deck)?,
        fault_plan,
    })
}

/// Everything a `kind = lpi` deck's `[sweep]` section describes: the
/// base LPI parameters, the `(a0, n/ncr, vth)` grid templated over
/// them, and the sweep-service knobs (WAL-backed queue, retries,
/// quarantine). Axes are comma-separated lists; an absent axis degenerates
/// to the base deck's single value.
#[derive(Clone, Debug)]
pub struct SweepSetup {
    pub params: LpiParams,
    pub grid: SweepGrid,
    pub steps: u64,
    pub checkpoint_interval: u64,
    /// Explicit sweep directory (else `<out>/sweep`).
    pub dir: Option<PathBuf>,
    pub retry: RetryPolicy,
    pub campaign_max_recoveries: u32,
    pub sentinel: Option<SimConfig>,
    /// `[fault]` corruption plan, aimed at `corrupt_job`'s attempts.
    pub corruption: Option<CorruptionPlan>,
    pub corrupt_job: u64,
    /// Restrict the corruption to one attempt (1-based); `None` poisons
    /// every attempt of `corrupt_job` until it quarantines.
    pub corrupt_attempt: Option<u32>,
}

impl SweepSetup {
    /// The sweep-service configuration, journaling and checkpointing
    /// into the deck's `dir` if set, else `<fallback>/sweep`.
    pub fn config(&self, fallback: &Path) -> SweepConfig {
        let dir = self.dir.clone().unwrap_or_else(|| fallback.join("sweep"));
        let mut cfg = SweepConfig::new(self.params, self.steps, self.checkpoint_interval, dir);
        cfg.retry = self.retry.clone();
        cfg.campaign_max_recoveries = self.campaign_max_recoveries;
        if let Some(s) = self.sentinel {
            cfg.sentinel = s.sentinel;
        }
        if let Some(plan) = &self.corruption {
            cfg.corruption_for = vec![(self.corrupt_job, self.corrupt_attempt, plan.clone())];
        }
        cfg
    }
}

fn build_sweep(deck: &Deck) -> Result<SweepSetup, DeckError> {
    let run = build_lpi(deck)?;
    let skv = deck.section("sweep").expect("caller checked");
    let mut grid = SweepGrid::single(&run.params);
    if let Some(v) = get_f64_list(skv, "a0")? {
        grid.a0 = v;
    }
    if let Some(v) = get_f64_list(skv, "n_over_ncr")? {
        grid.n_over_ncr = v;
    }
    if let Some(v) = get_f64_list(skv, "vth")? {
        grid.vth = v;
    }
    if grid.is_empty() {
        return Err(err("sweep grid has an empty axis"));
    }
    let fkv = deck.section("fault");
    let corrupt_attempt = match fkv.and_then(|kv| kv.get("attempt")) {
        None => None,
        Some(v) => Some(
            v.parse::<u32>()
                .map_err(|_| err(format!("bad integer for fault.attempt: {v}")))?,
        ),
    };
    Ok(SweepSetup {
        params: run.params,
        grid,
        steps: deck.steps(),
        checkpoint_interval: get_u64(skv, "checkpoint_interval", 50)?,
        dir: skv.get("dir").map(PathBuf::from),
        retry: RetryPolicy {
            max_attempts: get_u32(skv, "max_attempts", RetryPolicy::default().max_attempts)?.max(1),
        },
        campaign_max_recoveries: get_u32(skv, "max_recoveries", 1)?,
        sentinel: parse_sentinel(deck)?,
        corruption: parse_corruption(deck)?,
        corrupt_job: fkv.map_or(Ok(0), |kv| get_u64(kv, "job", 0))?,
        corrupt_attempt,
    })
}

/// Comma-separated list of floats (`a0 = 0.01, 0.02, 0.05`).
fn get_f64_list(kv: &BTreeMap<String, String>, key: &str) -> Result<Option<Vec<f64>>, DeckError> {
    let Some(v) = kv.get(key) else {
        return Ok(None);
    };
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| err(format!("bad number in {key} list: {s}")))
        })
        .collect::<Result<Vec<f64>, DeckError>>()
        .map(Some)
}

/// Global `transport = local|socket` knob (default local): which
/// substrate a campaign world runs over.
fn parse_transport(deck: &Deck) -> Result<TransportKind, DeckError> {
    match deck.globals.get("transport") {
        None => Ok(TransportKind::default()),
        Some(v) => TransportKind::parse(v)
            .ok_or_else(|| err(format!("transport must be local or socket, got {v}"))),
    }
}

/// Global `sort_interval = auto|<n>` knob selecting the per-species sort
/// cadence (default the historical fixed 25; `0` disables sorting;
/// `auto` arms the coherence-driven controller). Accepts both
/// `sort_interval = auto` and `= "auto"`, like `checkpoint_interval`.
fn parse_sort_policy(deck: &Deck) -> Result<SortPolicy, DeckError> {
    match deck.globals.get("sort_interval") {
        None => Ok(SortPolicy::default()),
        Some(v) => SortPolicy::parse(v).ok_or_else(|| {
            err(format!(
                "sort_interval must be auto or a step count, got {v}"
            ))
        }),
    }
}

/// Diagnostics knobs: a bare global `diag = off|sync` shorthand for just
/// the mode, plus an optional `[diag]` section (`mode`, `decimation`,
/// `series_cap`). `sync` runs the engine inline on the step thread.
/// `async` is a retired spelling of `sync` (`benchmark/`'s generated
/// sweep deck names it); the retired `[diag]` keys `cadence`,
/// `queue_depth` and `backpressure` are ignored, like any unknown key.
fn parse_diag(deck: &Deck) -> Result<DiagConfig, DeckError> {
    let mut cfg = DiagConfig::default();
    if let Some(v) = deck.globals.get("diag") {
        cfg.mode =
            DiagMode::parse(v).ok_or_else(|| err(format!("diag must be off or sync, got {v}")))?;
    }
    let Some(kv) = deck.section("diag") else {
        return Ok(cfg);
    };
    if let Some(v) = kv.get("mode") {
        cfg.mode = DiagMode::parse(v)
            .ok_or_else(|| err(format!("diag.mode must be off or sync, got {v}")))?;
    }
    cfg.decimation = get_usize(kv, "decimation", cfg.decimation)?.max(1);
    cfg.series_cap = get_usize(kv, "series_cap", cfg.series_cap)?;
    Ok(cfg)
}

fn get_u64(kv: &BTreeMap<String, String>, key: &str, default: u64) -> Result<u64, DeckError> {
    match kv.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("bad integer for {key}: {v}"))),
    }
}

/// A `u32` key: a value that does not fit is an error naming the key,
/// never a truncation.
fn get_u32(kv: &BTreeMap<String, String>, key: &str, default: u32) -> Result<u32, DeckError> {
    let v = get_u64(kv, key, default.into())?;
    u32::try_from(v).map_err(|_| err(format!("{key} must be at most {}, got {v}", u32::MAX)))
}

fn build_campaign(deck: &Deck) -> Result<CampaignSetup, DeckError> {
    let (gkv, cells, dx, dt) = parse_grid(deck)?;
    if let Some(b) = gkv.get("boundary") {
        if b != "periodic" {
            return Err(err("campaign runs support only boundary = periodic"));
        }
    }

    let ckv = deck.section("campaign").expect("caller checked");
    let ranks = get_usize(ckv, "ranks", 4)?;
    if ranks == 0 {
        return Err(err("campaign.ranks must be at least 1"));
    }
    let spec = DomainSpec::periodic((cells[0], cells[1], cells[2]), (dx, dx, dx), dt, ranks);
    for (axis, &g) in cells.iter().enumerate() {
        if !g.is_multiple_of(spec.topo.dims[axis]) {
            return Err(err(format!(
                "grid.cells axis {axis} ({g}) not divisible by the {ranks}-rank topology \
                 ({}x{}x{})",
                spec.topo.dims[0], spec.topo.dims[1], spec.topo.dims[2]
            )));
        }
    }

    let mut species = Vec::new();
    for (name, kv) in deck.sections_with_prefix("species") {
        match kv.get("loader").map(String::as_str).unwrap_or("thermal") {
            "thermal" => {}
            other => {
                return Err(err(format!(
                    "campaign species only support loader = thermal, got {other}"
                )))
            }
        }
        species.push(CampaignSpecies {
            name: name.to_string(),
            charge: req_f32(kv, "charge", -1.0)?,
            mass: positive_mass(req_f32(kv, "mass", 1.0)?, &format!("species.{name}.mass"))?,
            density: req_f32(kv, "density", 1.0)?,
            ppc: get_count(kv, &format!("species.{name}.ppc"), 32)?,
            vth: req_f32(kv, "vth", 0.05)?,
            drift: req_f32(kv, "drift", 0.0)?,
        });
    }
    if species.is_empty() {
        return Err(err("at least one [species.<name>] section required"));
    }

    // Fault-injection knobs: a deterministic kill and/or random drops.
    let fault_seed = get_u64(ckv, "fault_seed", deck.seed())?;
    let mut plan = FaultPlan::new(fault_seed);
    let mut any_fault = false;
    match (ckv.get("kill_rank"), ckv.get("kill_step")) {
        (None, None) => {}
        (Some(r), Some(s)) => {
            let rank: usize = r
                .parse()
                .map_err(|_| err(format!("bad integer for kill_rank: {r}")))?;
            let step: u64 = s
                .parse()
                .map_err(|_| err(format!("bad integer for kill_step: {s}")))?;
            if rank >= ranks {
                return Err(err(format!(
                    "kill_rank {rank} out of range for {ranks} ranks"
                )));
            }
            plan = plan.kill(rank, step);
            any_fault = true;
        }
        _ => return Err(err("kill_rank and kill_step must be given together")),
    }
    if let Some(p) = get_f32(ckv, "drop_prob")? {
        if !(0.0..=1.0).contains(&p) {
            return Err(err(format!("drop_prob must be in [0, 1], got {p}")));
        }
        if p > 0.0 {
            for rank in 0..ranks {
                plan = plan.drop_messages(rank, p as f64);
            }
            any_fault = true;
        }
    }

    let steps = deck.steps();
    // Accept both `checkpoint_interval = auto` and `= "auto"`.
    let checkpoint = match ckv.get("checkpoint_interval").map(|v| v.trim_matches('"')) {
        Some("auto") => {
            let mtbi = req_f32(ckv, "mtbi_seconds", 3600.0)?;
            if mtbi <= 0.0 {
                return Err(err("campaign.mtbi_seconds must be positive"));
            }
            let min_interval = get_u64(ckv, "auto_min_interval", 1)?.max(1);
            let max_interval = get_u64(ckv, "auto_max_interval", steps.max(1))?;
            if max_interval < min_interval {
                return Err(err(format!(
                    "campaign.auto_max_interval ({max_interval}) below auto_min_interval \
                     ({min_interval})"
                )));
            }
            CheckpointPolicy::Auto {
                mtbi: Duration::from_secs_f64(mtbi as f64),
                min_interval,
                max_interval,
            }
        }
        _ => {
            let interval = get_u64(ckv, "checkpoint_interval", 10)?;
            if interval == 0 {
                return Err(err("campaign.checkpoint_interval must be at least 1"));
            }
            CheckpointPolicy::Fixed(interval)
        }
    };
    let compress = match ckv.get("compress").map(String::as_str) {
        None | Some("true") => true,
        Some("false") => false,
        Some(other) => return Err(err(format!("bad boolean for compress: {other}"))),
    };
    let checkpoint_write_bps = match get_f32(ckv, "checkpoint_write_mbps")? {
        None => None,
        Some(mbps) if mbps > 0.0 => Some((mbps as f64 * 1e6) as u64),
        Some(mbps) => {
            return Err(err(format!(
                "campaign.checkpoint_write_mbps must be positive, got {mbps}"
            )))
        }
    };
    // Optional antenna at a global x-plane (SRS-style drive) and
    // open-boundary damping layers, both applied identically whichever
    // rank topology or transport the world runs on.
    let laser = match deck.section("laser") {
        None => None,
        Some(kv) => {
            let plane = get_usize(kv, "plane", 1)?;
            if plane == 0 || plane > cells[0] {
                return Err(err(format!(
                    "laser.plane {plane} outside the global x range 1..={}",
                    cells[0]
                )));
            }
            let polarization = match kv.get("polarization").map(String::as_str) {
                None | Some("y") => Polarization::Y,
                Some("z") => Polarization::Z,
                Some(other) => {
                    return Err(err(format!(
                        "laser.polarization must be y or z, got {other}"
                    )))
                }
            };
            Some(CampaignLaser {
                plane,
                a0: req_f32(kv, "a0", 0.05)?,
                omega: req_f32(kv, "omega", 1.2)?,
                ramp_steps: get_u64(kv, "ramp_steps", 0)?,
                polarization,
            })
        }
    };
    let sponge = match deck.section("sponge") {
        None => None,
        Some(kv) => {
            let strength = req_f32(kv, "strength", 0.1)?;
            if !(0.0..=1.0).contains(&strength) {
                return Err(err(format!(
                    "sponge.strength must be in [0, 1], got {strength}"
                )));
            }
            Some(Sponge {
                lo_cells: get_usize(kv, "lo_cells", 0)?,
                hi_cells: get_usize(kv, "hi_cells", 0)?,
                strength,
            })
        }
    };
    Ok(CampaignSetup {
        ranks,
        spec,
        species,
        seed: deck.seed(),
        pipelines: get_count(&deck.globals, "pipelines", 1)?,
        sort: parse_sort_policy(deck)?,
        steps,
        checkpoint,
        compress,
        checkpoint_write_bps,
        dir: ckv.get("dir").map(PathBuf::from),
        keep_checkpoints: get_usize(ckv, "keep_checkpoints", 2)?.max(1),
        max_recoveries: get_u32(ckv, "max_recoveries", 3)?,
        health_interval: get_u64(ckv, "health_interval", 1)?,
        op_timeout_ms: match ckv.get("op_timeout_ms") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| err(format!("bad integer for op_timeout_ms: {v}")))?,
            ),
        },
        fault_plan: any_fault.then_some(plan),
        sentinel: parse_sentinel(deck)?,
        corruption: parse_corruption(deck)?,
        transport: parse_transport(deck)?,
        laser,
        sponge,
    })
}

fn build_plasma(deck: &Deck) -> Result<Simulation, DeckError> {
    let (gkv, cells, dx, dt) = parse_grid(deck)?;
    let bc = match gkv
        .get("boundary")
        .map(String::as_str)
        .unwrap_or("periodic")
    {
        "periodic" => [ParticleBc::Periodic; 6],
        "reflecting" => [
            ParticleBc::Reflect,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
            ParticleBc::Reflect,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
        ],
        other => return Err(err(format!("unknown boundary: {other}"))),
    };
    let grid = Grid::new((cells[0], cells[1], cells[2]), (dx, dx, dx), dt, bc);
    let pipelines = get_count(&deck.globals, "pipelines", 1)?;
    let mut sim = Simulation::new(grid, pipelines);
    let sort = parse_sort_policy(deck)?;

    let species = deck.sections_with_prefix("species");
    if species.is_empty() {
        return Err(err("at least one [species.<name>] section required"));
    }
    let mut rng = Rng::seeded(deck.seed());
    for (name, kv) in species {
        let q = req_f32(kv, "charge", -1.0)?;
        let m = positive_mass(req_f32(kv, "mass", 1.0)?, &format!("species.{name}.mass"))?;
        let n0 = req_f32(kv, "density", 1.0)?;
        let ppc = get_count(kv, &format!("species.{name}.ppc"), 32)?;
        let vth = req_f32(kv, "vth", 0.05)?;
        let mut sp = Species::new(name, q, m).with_sort_policy(sort);
        match kv.get("loader").map(String::as_str).unwrap_or("thermal") {
            "thermal" => {
                let drift = req_f32(kv, "drift", 0.0)?;
                load_uniform(
                    &mut sp,
                    &sim.grid,
                    &mut rng,
                    n0,
                    ppc,
                    Momentum::drifting_x(vth, drift),
                );
            }
            "two_stream" => {
                let drift = req_f32(kv, "drift", 0.1)?;
                load_two_stream(&mut sp, &sim.grid, &mut rng, n0, ppc, drift, vth);
            }
            "juttner" => {
                let theta = req_f32(kv, "theta", 0.1)? as f64;
                load_juttner(&mut sp, &sim.grid, &mut rng, n0, ppc, theta, 1.0);
            }
            other => return Err(err(format!("unknown loader: {other}"))),
        }
        sim.add_species(sp);
    }
    Ok(sim)
}

fn build_lpi(deck: &Deck) -> Result<LpiRun, DeckError> {
    let kv = deck
        .section("laser")
        .ok_or_else(|| err("missing [laser] section"))?;
    let defaults = LpiParams::default();
    let params = LpiParams {
        n_over_ncr: req_f32(kv, "n_over_ncr", defaults.n_over_ncr as f32)? as f64,
        vth: req_f32(kv, "vth", defaults.vth as f32)? as f64,
        a0: req_f32(kv, "a0", defaults.a0 as f32)? as f64,
        dx: req_f32(kv, "dx", defaults.dx)?,
        vacuum: req_f32(kv, "vacuum", defaults.vacuum)?,
        ramp: req_f32(kv, "ramp", defaults.ramp)?,
        flat: req_f32(kv, "flat", defaults.flat)?,
        ppc: get_count(kv, "laser.ppc", defaults.ppc)?,
        sponge_cells: get_usize(kv, "sponge_cells", defaults.sponge_cells)?,
        seed: deck.seed(),
        pipelines: get_count(&deck.globals, "pipelines", defaults.pipelines)?,
        ramp_periods: req_f32(kv, "ramp_periods", defaults.ramp_periods)?,
        seed_frac: req_f32(kv, "seed_frac", defaults.seed_frac as f32)? as f64,
        ion_mass: get_f32(kv, "ion_mass")?
            .map(|m| positive_mass(m, "laser.ion_mass"))
            .transpose()?,
        ti_over_te: req_f32(kv, "ti_over_te", defaults.ti_over_te)?,
        sort: parse_sort_policy(deck)?,
        diag: parse_diag(deck)?,
        ..defaults
    };
    Ok(LpiRun::new(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_STREAM_DECK: &str = r#"
# classic two-stream setup
kind = plasma
steps = 42
seed = 9

[grid]
cells = 16 2 2
dx = 0.2
boundary = periodic

[species.electron]
charge = -1
mass = 1
ppc = 16
loader = two_stream
drift = 0.1
vth = 0.005
"#;

    #[test]
    fn parses_sections_and_globals() {
        let deck = Deck::parse(TWO_STREAM_DECK).unwrap();
        assert_eq!(deck.steps(), 42);
        assert_eq!(deck.seed(), 9);
        assert_eq!(deck.globals.get("kind").unwrap(), "plasma");
        assert!(deck.section("grid").is_some());
        let sp = deck.sections_with_prefix("species");
        assert_eq!(sp.len(), 1);
        assert_eq!(sp[0].0, "electron");
        assert_eq!(sp[0].1.get("loader").unwrap(), "two_stream");
    }

    #[test]
    fn builds_a_runnable_plasma() {
        let deck = Deck::parse(TWO_STREAM_DECK).unwrap();
        let BuiltRun::Plasma(mut sim) = build(&deck).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(sim.grid.nx, 16);
        assert_eq!(sim.species.len(), 1);
        assert_eq!(sim.n_particles(), 16 * 2 * 2 * 16);
        sim.step();
        assert_eq!(sim.step_count, 1);
    }

    #[test]
    fn builds_an_lpi_run() {
        let text = r#"
kind = lpi
steps = 10

[laser]
a0 = 0.05
n_over_ncr = 0.1
vth = 0.06
flat = 4
ppc = 4
seed_frac = 0.1
"#;
        let deck = Deck::parse(text).unwrap();
        let BuiltRun::Lpi(run) = build(&deck).unwrap() else {
            panic!("wrong kind")
        };
        assert!((run.params.a0 - 0.05).abs() < 1e-9);
        assert!(run.seed_antenna.is_some());
    }

    #[test]
    fn builds_a_sweep() {
        let text = r#"
kind = lpi
steps = 40
seed = 3

[laser]
a0 = 0.05
n_over_ncr = 0.1
vth = 0.06
flat = 4
ppc = 4

[sweep]
a0 = 0.01, 0.02, 0.05
vth = 0.04, 0.06
checkpoint_interval = 10
max_attempts = 2
# Retired keys, still accepted and ignored:
lease_ms = 500
base_backoff_ms = 100
max_backoff_ms = 1000
jitter_seed = 7
"#;
        let deck = Deck::parse(text).unwrap();
        let BuiltRun::Sweep(setup) = build(&deck).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(setup.grid.a0, vec![0.01, 0.02, 0.05]);
        // Degenerate axis inherited from the base deck (which parses
        // the key as f32, hence the widened comparison).
        assert_eq!(setup.grid.n_over_ncr.len(), 1);
        assert!((setup.grid.n_over_ncr[0] - 0.1).abs() < 1e-6);
        assert_eq!(setup.grid.vth, vec![0.04, 0.06]);
        assert_eq!(setup.grid.len(), 6);
        assert_eq!(setup.steps, 40);
        assert_eq!(setup.retry.max_attempts, 2);
        let cfg = setup.config(Path::new("/tmp/out"));
        assert_eq!(cfg.checkpoint_interval, 10);
        assert_eq!(cfg.retry.max_attempts, 2);
        assert_eq!(cfg.sweep_dir, Path::new("/tmp/out").join("sweep"));
    }

    #[test]
    fn sweep_rejects_malformed_axes() {
        let base = "kind = lpi\nsteps = 10\n[laser]\na0 = 0.05\n";
        let bad = format!("{base}[sweep]\na0 = 0.01, zap\n");
        assert!(build(&Deck::parse(&bad).unwrap()).is_err());
        let empty = format!("{base}[sweep]\na0 = ,\n");
        assert!(build(&Deck::parse(&empty).unwrap()).is_err());
    }

    #[test]
    fn error_reporting() {
        assert!(Deck::parse("[unterminated").is_err());
        assert!(Deck::parse("no_equals_here").is_err());
        let deck = Deck::parse("kind = plasma").unwrap();
        match build(&deck) {
            Err(e) => assert!(e.to_string().contains("[grid]")),
            Ok(_) => panic!("missing [grid] accepted"),
        }
        let deck = Deck::parse("kind = warp_drive").unwrap();
        assert!(build(&deck).is_err());
        let bad_loader = "kind = plasma\n[grid]\ncells = 2 2 2\n[species.e]\nloader = magic";
        assert!(build(&Deck::parse(bad_loader).unwrap()).is_err());
    }

    /// A `u32` key set past `u32::MAX`, and a `steps` or `seed` that does
    /// not parse, are errors that name the key — not a truncated count
    /// or a silent default.
    #[test]
    fn bad_integers_are_errors_that_name_the_key() {
        let names_key = |text: &str, key: &str| match build(&Deck::parse(text).unwrap()) {
            Err(e) => assert!(e.to_string().contains(key), "{key}: {e}"),
            Ok(_) => panic!("{key}: accepted in\n{text}"),
        };
        let too_big = "4294967296";
        names_key(
            &CAMPAIGN_DECK.replace("max_recoveries = 2", &format!("max_recoveries = {too_big}")),
            "max_recoveries",
        );
        for key in ["marder_passes", "max_marder_bursts"] {
            names_key(
                &format!("{CAMPAIGN_DECK}\n[sentinel]\n{key} = {too_big}\n"),
                key,
            );
        }
        let lpi = "kind = lpi\nsteps = 10\n[laser]\na0 = 0.05\n";
        names_key(
            &format!("{lpi}[campaign]\nmax_recoveries = {too_big}\n"),
            "max_recoveries",
        );
        for key in ["max_attempts", "max_recoveries"] {
            names_key(&format!("{lpi}[sweep]\n{key} = {too_big}\n"), key);
        }
        names_key(&CAMPAIGN_DECK.replace("steps = 12", "steps = 1e3"), "steps");
        names_key(&CAMPAIGN_DECK.replace("seed = 5", "seed = five"), "seed");
        names_key(
            "kind = plasma\nsteps = 10\n[grid]\ncells = 2 2 2\n[output]\nenergy_interval = 1e2\n",
            "energy_interval",
        );
        names_key(
            "kind = plasma\nsteps = -1\n[grid]\ncells = 2 2 2\n",
            "steps",
        );
        // The accessors keep their fallbacks; `build` is the gate.
        let deck = Deck::parse("steps = 1e3\nseed = five").unwrap();
        assert_eq!((deck.steps(), deck.seed()), (100, 1));
    }

    const CAMPAIGN_DECK: &str = r#"
kind = plasma
steps = 12
seed = 5

[grid]
cells = 8 4 4
dx = 0.25

[species.electron]
charge = -1
mass = 1
ppc = 8
vth = 0.08

[campaign]
ranks = 4
checkpoint_interval = 4
max_recoveries = 2
health_interval = 2
op_timeout_ms = 500
kill_rank = 2
kill_step = 6
"#;

    #[test]
    fn builds_a_campaign_with_fault_plan() {
        let deck = Deck::parse(CAMPAIGN_DECK).unwrap();
        let BuiltRun::Campaign(setup) = build(&deck).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(setup.ranks, 4);
        assert_eq!(setup.steps, 12);
        assert_eq!(setup.checkpoint, CheckpointPolicy::Fixed(4));
        assert!(setup.compress);
        assert_eq!(setup.checkpoint_write_bps, None);
        assert_eq!(setup.max_recoveries, 2);
        assert_eq!(setup.health_interval, 2);
        assert_eq!(setup.op_timeout_ms, Some(500));
        let plan = setup.fault_plan.as_ref().expect("kill knobs make a plan");
        assert_eq!(plan.rules.len(), 1);

        // Any rank's simulation is reconstructible and non-trivial.
        let sim = setup.build_rank(1);
        assert_eq!(sim.species.len(), 1);
        assert!(!sim.species[0].is_empty());

        // Config lands in the fallback directory when dir is unset.
        let cfg = setup.config(std::path::Path::new("out"));
        assert_eq!(
            cfg.checkpoint_dir,
            std::path::Path::new("out").join("checkpoints")
        );
        assert_eq!(cfg.op_timeout, Some(std::time::Duration::from_millis(500)));
    }

    #[test]
    fn campaign_auto_interval_and_dump_knobs() {
        let auto = CAMPAIGN_DECK
            .replace("checkpoint_interval = 4", "checkpoint_interval = auto")
            .replace(
                "max_recoveries = 2",
                "max_recoveries = 2\nmtbi_seconds = 1800\nauto_min_interval = 2\n\
                 auto_max_interval = 50\ncompress = false\n\
                 checkpoint_write_mbps = 8",
            );
        let BuiltRun::Campaign(setup) = build(&Deck::parse(&auto).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert!(!setup.compress);
        assert_eq!(setup.checkpoint_write_bps, Some(8_000_000));
        let CheckpointPolicy::Auto {
            mtbi,
            min_interval,
            max_interval,
        } = setup.checkpoint
        else {
            panic!("expected auto policy, got {:?}", setup.checkpoint)
        };
        assert_eq!(mtbi, std::time::Duration::from_secs(1800));
        assert_eq!((min_interval, max_interval), (2, 50));
        // The deck's auto mode resolves exactly to the Young/Daly model
        // prediction (clamped into the configured window).
        for (delta, step) in [(0.004, 0.02), (0.5, 0.01), (1e-6, 1.0)] {
            let expect = roadrunner_model::young_daly_interval_steps(delta, 1800.0, step)
                .clamp(min_interval, max_interval);
            assert_eq!(setup.checkpoint.resolve(delta, step), expect);
        }
        // Quoted form parses the same way.
        let quoted =
            CAMPAIGN_DECK.replace("checkpoint_interval = 4", "checkpoint_interval = \"auto\"");
        let BuiltRun::Campaign(q) = build(&Deck::parse(&quoted).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert!(matches!(q.checkpoint, CheckpointPolicy::Auto { .. }));

        // Bad knobs are rejected loudly.
        for (from, to) in [
            ("max_recoveries = 2", "max_recoveries = 2\ncompress = maybe"),
            (
                "max_recoveries = 2",
                "max_recoveries = 2\ncheckpoint_write_mbps = -3",
            ),
            (
                "checkpoint_interval = 4",
                "checkpoint_interval = auto\nmtbi_seconds = 0",
            ),
            (
                "checkpoint_interval = 4",
                "checkpoint_interval = auto\nauto_min_interval = 9\nauto_max_interval = 3",
            ),
        ] {
            let bad = CAMPAIGN_DECK.replace(from, to);
            assert!(
                build(&Deck::parse(&bad).unwrap()).is_err(),
                "accepted: {to}"
            );
        }
    }

    #[test]
    fn transport_global_parses_and_rejects_junk() {
        // Default is local.
        let BuiltRun::Campaign(setup) = build(&Deck::parse(CAMPAIGN_DECK).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(setup.transport, TransportKind::Local);

        let socket = format!("transport = socket\n{CAMPAIGN_DECK}");
        let BuiltRun::Campaign(setup) = build(&Deck::parse(&socket).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(setup.transport, TransportKind::Socket);

        let junk = format!("transport = carrier_pigeon\n{CAMPAIGN_DECK}");
        assert!(build(&Deck::parse(&junk).unwrap()).is_err());
    }

    #[test]
    fn campaign_laser_and_sponge_sections_parse() {
        let text = format!(
            "{CAMPAIGN_DECK}\n[laser]\nplane = 3\na0 = 0.1\nomega = 1.5\nramp_steps = 4\n\
             polarization = z\n\n[sponge]\nlo_cells = 1\nhi_cells = 2\nstrength = 0.2\n"
        );
        let BuiltRun::Campaign(setup) = build(&Deck::parse(&text).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        let l = setup.laser.expect("laser section parsed");
        assert_eq!((l.plane, l.ramp_steps), (3, 4));
        assert!((l.a0 - 0.1).abs() < 1e-7 && (l.omega - 1.5).abs() < 1e-7);
        let s = setup.sponge.expect("sponge section parsed");
        assert_eq!((s.lo_cells, s.hi_cells), (1, 2));

        // The sponge lands on every built rank; the antenna only on ranks
        // whose x-slab contains global plane 3 — each drives its own local
        // y–z patch of the plane, so one rank per x-column fires.
        let expected = setup.ranks / setup.spec.topo.dims[0];
        let mut driven = 0;
        for rank in 0..setup.ranks {
            assert!(setup.build_rank(rank).sponge.is_some());
            let drive = setup.drive_for(rank);
            let mut sim = setup.build_rank(rank);
            let before = sim.fields.jz.clone();
            let g = sim.grid.clone();
            // Step 5 is past the 4-step ramp, so the owner's amplitude is
            // guaranteed non-zero.
            drive(&mut sim.fields, &g, 5);
            if sim.fields.jz != before {
                driven += 1;
            }
        }
        assert_eq!(driven, expected, "one driving rank per x-column");

        // Out-of-range plane is a parse error.
        let bad = format!("{CAMPAIGN_DECK}\n[laser]\nplane = 9\n");
        assert!(build(&Deck::parse(&bad).unwrap()).is_err());
        // So is an out-of-range sponge strength.
        let bad = format!("{CAMPAIGN_DECK}\n[sponge]\nstrength = 1.5\n");
        assert!(build(&Deck::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn campaign_validation_errors() {
        // Cells not divisible by the rank topology.
        let bad_grid = CAMPAIGN_DECK.replace("cells = 8 4 4", "cells = 9 4 4");
        assert!(build(&Deck::parse(&bad_grid).unwrap()).is_err());
        // kill_rank out of range.
        let bad_kill = CAMPAIGN_DECK.replace("kill_rank = 2", "kill_rank = 7");
        assert!(build(&Deck::parse(&bad_kill).unwrap()).is_err());
        // kill_rank without kill_step.
        let half_kill = CAMPAIGN_DECK.replace("kill_step = 6", "");
        assert!(build(&Deck::parse(&half_kill).unwrap()).is_err());
        // Campaign decks reject exotic loaders.
        let bad_loader = CAMPAIGN_DECK.replace("vth = 0.08", "loader = juttner");
        assert!(build(&Deck::parse(&bad_loader).unwrap()).is_err());
        // No faults requested: no plan.
        let clean = CAMPAIGN_DECK
            .replace("kill_rank = 2", "")
            .replace("kill_step = 6", "");
        let BuiltRun::Campaign(setup) = build(&Deck::parse(&clean).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert!(setup.fault_plan.is_none());
    }

    #[test]
    fn sentinel_and_fault_sections_parse() {
        let text = format!(
            "{CAMPAIGN_DECK}\n[sentinel]\nhealth_interval = 5\nmax_div_e_rms = 0.02\n\
             marder_passes = 8\n\n[fault]\ncorrupt_step = 7\ncorrupt_count = 3\n\
             corrupt_mode = huge\ncorrupt_rank = 1\n"
        );
        let BuiltRun::Campaign(setup) = build(&Deck::parse(&text).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        let s = setup.sentinel.expect("sentinel section parsed").sentinel;
        assert_eq!(s.health_interval, 5);
        assert!((s.max_div_e_rms - 0.02).abs() < 1e-7);
        assert_eq!(s.marder_passes, 8);
        // Unset keys keep the armed defaults.
        assert_eq!(
            s.max_marder_bursts,
            SentinelConfig::enabled().max_marder_bursts
        );
        let plan = setup.corruption.as_ref().expect("fault section parsed");
        assert_eq!(plan.events.len(), 1);
        let ev = &plan.events[0];
        assert_eq!((ev.step, ev.count, ev.rank), (7, 3, Some(1)));
        assert_eq!(ev.mode, CorruptionMode::Huge);
        // The sentinel/corruption land in the campaign config.
        let cfg = setup.config(std::path::Path::new("out"));
        assert_eq!(cfg.sentinel.health_interval, 5);
        assert!(cfg.corruption.is_some());
        // Bad knobs are rejected.
        let bad = format!("{CAMPAIGN_DECK}\n[fault]\ncorrupt_step = 2\ncorrupt_mode = gamma\n");
        assert!(build(&Deck::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn lpi_campaign_deck_builds() {
        let text = r#"
kind = lpi
steps = 80
seed = 3

[laser]
a0 = 0.01
flat = 4
ppc = 4

[campaign]
checkpoint_interval = 20
max_recoveries = 2
kill_step = 35

[sentinel]
health_interval = 10
max_energy_growth = 100

[fault]
corrupt_step = 25
corrupt_count = 4
"#;
        let BuiltRun::LpiCampaign(setup) = build(&Deck::parse(text).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(setup.steps, 80);
        assert_eq!(setup.checkpoint_interval, 20);
        assert_eq!(setup.max_recoveries, 2);
        assert!(setup.fault_plan.is_some());
        assert!(setup.corruption.is_some());
        let cfg = setup.config(std::path::Path::new("out"));
        assert_eq!(cfg.sentinel.health_interval, 10);
        assert_eq!(
            cfg.checkpoint_dir,
            std::path::Path::new("out").join("checkpoints")
        );
        // Without [campaign] the same deck is a plain LPI run.
        let plain = text.replace("[campaign]", "[not_campaign]");
        assert!(matches!(
            build(&Deck::parse(&plain).unwrap()).unwrap(),
            BuiltRun::Lpi(_)
        ));
    }

    #[test]
    fn shipped_srs_deck_is_a_campaign() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("decks/srs_backscatter.deck"),
        )
        .unwrap();
        let BuiltRun::LpiCampaign(setup) = build(&Deck::parse(&text).unwrap()).unwrap() else {
            panic!("srs_backscatter.deck must build an LPI campaign")
        };
        assert_eq!(setup.steps, 3000);
        assert!(setup.fault_plan.is_some(), "kill_step expected");
        assert!(setup.corruption.is_some(), "corrupt_step expected");
        let s = setup.sentinel.expect("[sentinel] expected");
        assert_eq!(s.sentinel.health_interval, 50);
    }

    /// `layout` is no longer a key: a deck that still says `layout = aos`
    /// builds the one layout there is and steps, like any unknown global.
    #[test]
    fn layout_key_is_ignored_and_the_deck_steps() {
        let text = "kind = plasma\nlayout = aos\n[grid]\ncells = 4 2 2\n[species.e]\nppc = 8";
        let BuiltRun::Plasma(mut sim) = build(&Deck::parse(text).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        sim.step();
        assert_eq!((sim.step_count, sim.n_particles()), (1, 4 * 2 * 2 * 8));
    }

    /// Degenerate sizes are deck errors naming their key, not panics deep
    /// in the grid, loader, accumulator or species constructors.
    #[test]
    fn degenerate_sizes_and_masses_are_deck_errors() {
        let plasma = |globals: &str, grid: &str, species: &str| {
            format!("kind = plasma\n{globals}\n[grid]\ncells = {grid}\n[species.e]\n{species}")
        };
        for (text, key) in [
            (plasma("", "0 2 2", "ppc = 2"), "grid.cells"),
            (plasma("", "2 2 2", "ppc = 0"), "species.e.ppc"),
            (
                "kind = lpi\n[laser]\na0 = 0.01\nppc = 0".into(),
                "laser.ppc",
            ),
            (plasma("pipelines = 0", "2 2 2", "ppc = 2"), "pipelines"),
            (plasma("", "2 2 2", "ppc = 2\nmass = 0"), "species.e.mass"),
        ] {
            match build(&Deck::parse(&text).unwrap()) {
                Err(e) => assert!(e.to_string().contains(key), "{key}: {e}"),
                Ok(_) => panic!("accepted: {text}"),
            }
        }
    }

    #[test]
    fn sort_interval_knob_selects_cadence_and_rejects_junk() {
        let text =
            "kind = plasma\nsort_interval = auto\n[grid]\ncells = 4 2 2\n[species.e]\nppc = 8";
        let BuiltRun::Plasma(sim) = build(&Deck::parse(text).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert!(sim
            .species
            .iter()
            .all(|sp| sp.sort_policy == SortPolicy::Auto));

        // Quoted form and explicit step counts both parse; the default
        // stays the historical fixed 25.
        let text =
            "kind = plasma\nsort_interval = \"auto\"\n[grid]\ncells = 2 2 2\n[species.e]\nppc = 1";
        let BuiltRun::Plasma(sim) = build(&Deck::parse(text).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(sim.species[0].sort_policy, SortPolicy::Auto);
        let text = "kind = plasma\nsort_interval = 7\n[grid]\ncells = 2 2 2\n[species.e]\nppc = 1";
        let BuiltRun::Plasma(sim) = build(&Deck::parse(text).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(sim.species[0].sort_policy, SortPolicy::Fixed(7));
        let text = "kind = plasma\n[grid]\ncells = 2 2 2\n[species.e]\nppc = 1";
        let BuiltRun::Plasma(sim) = build(&Deck::parse(text).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(sim.species[0].sort_policy, SortPolicy::Fixed(25));

        // LPI decks honour the knob on every species.
        let text = "kind = lpi\nsort_interval = auto\n[laser]\na0 = 0.01\nion_mass = 100";
        let BuiltRun::Lpi(run) = build(&Deck::parse(text).unwrap()).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(run.params.sort, SortPolicy::Auto);
        assert!(run
            .sim
            .species
            .iter()
            .all(|sp| sp.sort_policy == SortPolicy::Auto));

        let bad = "kind = plasma\nsort_interval = -3\n[grid]\ncells = 2 2 2\n[species.e]\nppc = 1";
        assert!(build(&Deck::parse(bad).unwrap()).is_err());
        let bad =
            "kind = plasma\nsort_interval = fast\n[grid]\ncells = 2 2 2\n[species.e]\nppc = 1";
        assert!(build(&Deck::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn diag_knob_and_section_parse_and_reject_junk() {
        use vpic_diag::{DiagMode, DiagSink};

        let lpi = |text: &str| {
            let BuiltRun::Lpi(run) = build(&Deck::parse(text).unwrap()).unwrap() else {
                panic!("wrong kind")
            };
            run
        };

        // Bare global shorthand selects just the mode.
        let run = lpi("kind = lpi\ndiag = sync\n[laser]\na0 = 0.01");
        assert_eq!(run.params.diag.mode, DiagMode::Sync);
        assert!(matches!(run.sink, DiagSink::Inline { .. }));

        // Default is off; the [diag] section sets mode and tuning knobs,
        // and clamps a degenerate zero decimation to 1.
        let run = lpi("kind = lpi\n[laser]\na0 = 0.01");
        assert_eq!(run.params.diag.mode, DiagMode::Off);
        assert!(run.sink.is_off());
        let run = lpi(
            "kind = lpi\n[laser]\na0 = 0.01\n[diag]\nmode = sync\ndecimation = 32\n\
             series_cap = 4096",
        );
        let d = run.params.diag;
        assert_eq!(d.mode, DiagMode::Sync);
        assert_eq!(d.decimation, 32);
        assert_eq!(d.series_cap, 4096);
        let run = lpi("kind = lpi\n[laser]\na0 = 0.01\n[diag]\nmode = sync\ndecimation = 0");
        assert_eq!(run.params.diag.decimation, 1); // clamped

        // The section's mode wins over the global shorthand.
        let run = lpi("kind = lpi\ndiag = sync\n[laser]\na0 = 0.01\n[diag]\nmode = off");
        assert_eq!(run.params.diag.mode, DiagMode::Off);

        // Retired spellings still parse, and each runs the inline sink:
        // `async` (the removed worker-thread mode, which `benchmark/`'s
        // generated sweep deck names) and the removed `queue_depth` and
        // `cadence` knobs, ignored whatever their value.
        for retired in [
            "kind = lpi\ndiag = async\n[laser]\na0 = 0.01",
            "kind = lpi\n[laser]\na0 = 0.01\n[diag]\nmode = async",
            "kind = lpi\ndiag = sync\n[laser]\na0 = 0.01\n[diag]\nqueue_depth = 8",
            "kind = lpi\ndiag = sync\n[laser]\na0 = 0.01\n[diag]\ncadence = 0",
            "kind = lpi\ndiag = sync\n[laser]\na0 = 0.01\n[diag]\ncadence = many",
        ] {
            let run = lpi(retired);
            assert_eq!(run.params.diag.mode, DiagMode::Sync, "{retired}");
            assert_eq!(run.params.diag.cadence, DiagConfig::default().cadence);
            assert!(matches!(run.sink, DiagSink::Inline { .. }), "{retired}");
        }

        for bad in [
            "kind = lpi\ndiag = eager\n[laser]\na0 = 0.01",
            "kind = lpi\n[laser]\na0 = 0.01\n[diag]\nmode = turbo",
        ] {
            assert!(build(&Deck::parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn juttner_loader_from_deck() {
        let text = "kind = plasma\n[grid]\ncells = 2 2 2\n[species.hot]\nloader = juttner\ntheta = 0.5\nppc = 50";
        let BuiltRun::Plasma(sim) = build(&Deck::parse(text).unwrap()).unwrap() else {
            panic!()
        };
        // Relativistic: mean γ well above 1.
        let mean_gamma: f64 =
            sim.species[0].iter().map(|p| p.gamma() as f64).sum::<f64>() / sim.n_particles() as f64;
        assert!(mean_gamma > 1.4, "γ = {mean_gamma}");
    }
}
