//! `e2_step_breakdown` driven as a user would: the built binary, its
//! real flags, its stdout and exit status.

use std::process::{Command, Output};

fn e2(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_e2_step_breakdown"))
        .args(args)
        .output()
        .expect("spawn e2_step_breakdown")
}

/// A small production-variant run exits 0 and prints a phase table whose
/// `TOTAL` row is a finite positive time, whose rows are exactly the terms
/// `StepTimings::total()` sums, and whose shares add up.
#[test]
fn small_run_prints_a_phase_table_that_adds_up() {
    let flags = "--nx 8 --ppc 4 --steps 2 --kernel lane --sort auto";
    let out = e2(&flags.split(' ').collect::<Vec<_>>());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");

    // Rows of the first table: "<phase name>  <seconds>  <share>%".
    let rows: Vec<(String, f64, f64)> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("=== E2: step breakdown"))
        .skip(3)
        .map_while(|l| {
            let mut cells = l.split_whitespace().rev();
            let share = cells.next()?.strip_suffix('%')?.parse().ok()?;
            let secs = cells.next()?.parse().ok()?;
            let name = cells.rev().collect::<Vec<_>>().join(" ");
            Some((name, secs, share))
        })
        .collect();
    let (total_row, phases) = rows.split_last().expect("a TOTAL row");
    let &(ref total_name, total, total_share) = total_row;
    assert_eq!(total_name, "TOTAL", "{stdout}");
    assert!(total.is_finite() && total > 0.0, "TOTAL {total}");
    assert_eq!(total_share, 100.0);
    // A phase `total()` sums but the table leaves out would make the
    // shares fall short of 100 % by its share.
    let printed: Vec<&str> = phases.iter().map(|(name, _, _)| name.as_str()).collect();
    let terms = vpic_core::StepTimings::default()
        .phases()
        .map(|(name, _)| name);
    assert_eq!(printed, terms, "{stdout}");
    // Each share is printed to one decimal.
    let sum: f64 = phases.iter().map(|&(_, _, share)| share).sum();
    assert!(
        (sum - 100.0).abs() <= 0.05 * phases.len() as f64 + 1e-9,
        "{sum}"
    );
}

/// The record/gate/diag/layout flags this binary used to take are usage
/// errors now, as is a value that does not parse: a stale script must not
/// run the default bench and exit 0.
#[test]
fn removed_flags_and_bad_values_exit_2() {
    let mut stale = ["--json", "--validate", "--layout"]
        .map(String::from)
        .to_vec();
    stale.extend(["speedup", "auto", "diag"].map(|gate| format!("--assert-{gate}")));
    for stale in &stale {
        let out = e2(&[stale, "f.json"]);
        assert_eq!(out.status.code(), Some(2), "{stale}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(stale) && stderr.contains("usage"),
            "{stderr}"
        );
    }
    assert_eq!(e2(&["--diag", "async"]).status.code(), Some(2));
    assert_eq!(e2(&["--nx", "6x4"]).status.code(), Some(2));
    assert_eq!(e2(&["--steps"]).status.code(), Some(2));
}
