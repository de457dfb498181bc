//! The repo benchmark's one command. Driven as
//! `<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (see `../BENCHMARK.json`); `--manifest` prints `BENCHMARK.json`.

mod drivers;
mod hostspeed;
mod layers;
mod manifest;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::Args;

const USAGE: &str = "usage: vpic-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       vpic-benchmark --manifest";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}\n{USAGE}")),
        }
    }
    let names: Vec<&str> = manifest::WORKLOADS
        .iter()
        .chain(manifest::EXTRA_WORKLOADS)
        .map(|w| w.name)
        .collect();
    if !names.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            names.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // The step loop's parallel phases size themselves from this; pinned
    // to the reference host's two cores before any thread starts.
    std::env::set_var("RAYON_NUM_THREADS", "2");

    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome =
        workloads::run(&args).and_then(|report| report.print(&mut std::io::stdout().lock()));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => {
            eprintln!("vpic-benchmark: {}: FAILED: {reason}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&argv(
            "--workload halo-socket --seed 7 --seconds 18 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("halo-socket", 7, 18.0, true)
        );
        // The two workloads BENCHMARK.json does not list run by name too.
        assert!(parse(&argv("--workload campaign-local --seed 1")).is_ok());
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload srs-sweep --trace 2")).is_err());
        assert!(parse(&argv("--workload srs-sweep --seconds 0")).is_err());
        assert!(parse(&argv("--workload")).is_err());
    }
}
