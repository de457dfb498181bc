//! Shared measurement and reporting utilities for the experiment binaries.

use std::time::Instant;
use vpic_core::{load_uniform, Grid, Momentum, Rng, Simulation, Species};

/// Print `msg` under the binary's name and exit 2 (a usage error).
fn usage_exit(msg: &str) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = bin.rsplit('/').next().unwrap_or_default();
    eprintln!("{bin}: {msg}");
    std::process::exit(2);
}

/// The first `--flag` in `args` that is not in `known`.
fn unknown_flag<'a>(args: &'a [String], known: &[&str]) -> Option<&'a str> {
    args.iter()
        .filter_map(|a| a.strip_prefix("--"))
        .find(|name| !known.contains(name))
}

/// Value of `--<name> <v>` in `args`: `Ok(None)` when the flag is absent,
/// an error when its value is missing (end of line, or another `--flag`)
/// or does not parse as `T`.
fn opt_value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let want = format!("--{name}");
    let Some(at) = args.iter().position(|a| *a == want) else {
        return Ok(None);
    };
    let usage = format!("usage: {want} <value>");
    match args.get(at + 1).filter(|v| !v.starts_with("--")) {
        None => Err(format!("{want} needs a value ({usage})")),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("cannot read {want} from '{v}' ({usage})")),
    }
}

/// Declare the flags this binary reads (names without the `--`): any
/// other `--flag` on the command line exits 2 with a one-line usage, so
/// a script calling a flag that no longer exists fails instead of
/// running the default configuration.
pub fn known_flags(known: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = unknown_flag(&args, known) {
        let usage: Vec<String> = known.iter().map(|k| format!("[--{k}]")).collect();
        usage_exit(&format!(
            "unknown flag --{flag} (usage: {})",
            usage.join(" ")
        ));
    }
}

/// True when `--<name>` is on the command line.
pub fn parse_flag(name: &str) -> bool {
    let want = format!("--{name}");
    std::env::args().any(|a| a == want)
}

/// Value of `--<name> <v>` on the command line, or `default` when the
/// flag is absent; a missing or unparsable value exits 2.
pub fn parse_opt<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match opt_value(&args, name) {
        Ok(v) => v.unwrap_or(default),
        Err(e) => usage_exit(&e),
    }
}

/// Wall-time a closure.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Print a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Standard uniform thermal plasma test case (density 1, vth = 0.05c).
pub fn uniform_plasma(
    n: (usize, usize, usize),
    ppc: usize,
    pipelines: usize,
    seed: u64,
) -> Simulation {
    let dx = 0.25f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.9);
    let g = Grid::periodic(n, (dx, dx, dx), dt);
    let mut sim = Simulation::new(g, pipelines);
    let mut e = Species::new("electron", -1.0, 1.0);
    let mut rng = Rng::seeded(seed);
    load_uniform(
        &mut e,
        &sim.grid,
        &mut rng,
        1.0,
        ppc,
        Momentum::thermal(0.05),
    );
    sim.add_species(e);
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plasma_factory_loads_expected_count() {
        let sim = uniform_plasma((4, 4, 4), 8, 2, 1);
        assert_eq!(sim.n_particles(), 64 * 8);
        assert_eq!(sim.accumulators.n_pipelines(), 2);
    }

    #[test]
    fn timing_returns_result() {
        let (t, v) = time_it(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }

    #[test]
    fn opt_default_when_missing() {
        assert_eq!(parse_opt("definitely-not-set", 7u32), 7);
        assert!(!parse_flag("definitely-not-set"));
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unparsable_or_missing_value_is_an_error_not_the_default() {
        let a = args("--nx 8 --layout aosoa --full");
        assert_eq!(opt_value::<usize>(&a, "nx"), Ok(Some(8)));
        assert_eq!(opt_value(&a, "layout"), Ok(Some("aosoa".to_string())));
        assert_eq!(opt_value::<usize>(&a, "ppc"), Ok(None));
        for bad in ["--nx 6x4", "--nx", "--nx --ppc 4", "--ppc 4 --nx"] {
            let e = opt_value::<usize>(&args(bad), "nx").unwrap_err();
            assert!(e.contains("usage: --nx <value>"), "{bad}: {e}");
        }
        // A flag as a string option's value is a missing value too.
        assert!(opt_value::<String>(&args("--layout --kernel lane"), "layout").is_err());
    }

    #[test]
    fn unknown_flag_is_found_and_values_are_not_flags() {
        let known = ["nx", "full"];
        assert_eq!(unknown_flag(&args("--nx 8 --full"), &known), None);
        assert_eq!(unknown_flag(&args("--nx -8 stray"), &known), None);
        assert_eq!(
            unknown_flag(&args("--nx 8 --json f.json"), &known),
            Some("json")
        );
    }
}
