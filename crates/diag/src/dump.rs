//! Text dumps for post-processing: VPIC writes an `energies` file (one
//! row per sampled step: field and per-species kinetic energies) and
//! periodic field dumps that LPI papers turn into figures. These
//! writers produce plain TSV any plotting tool ingests.

use std::io::{self, Write};
use vpic_core::field::FieldArray;
use vpic_core::grid::Grid;
use vpic_core::sim::{EnergySnapshot, Simulation};

/// Streaming energy-history writer (VPIC's `energies` file).
pub struct EnergyLogger<W: Write> {
    out: W,
    species_names: Vec<String>,
    wrote_header: bool,
}

impl<W: Write> EnergyLogger<W> {
    /// New logger for the given species names.
    pub fn new(out: W, species_names: Vec<String>) -> Self {
        EnergyLogger {
            out,
            species_names,
            wrote_header: false,
        }
    }

    /// Append one sample row (`time` in simulation units).
    pub fn log(&mut self, time: f64, e: &EnergySnapshot) -> io::Result<()> {
        if !self.wrote_header {
            write!(self.out, "# time\tfield_E\tfield_B")?;
            for name in &self.species_names {
                write!(self.out, "\tke_{name}")?;
            }
            writeln!(self.out, "\ttotal")?;
            self.wrote_header = true;
        }
        write!(self.out, "{time:.6e}\t{:.6e}\t{:.6e}", e.field_e, e.field_b)?;
        for ke in &e.kinetic {
            write!(self.out, "\t{ke:.6e}")?;
        }
        writeln!(self.out, "\t{:.6e}", e.total())
    }

    /// Convenience: sample a simulation directly.
    pub fn log_sim(&mut self, sim: &Simulation) -> io::Result<()> {
        let t = sim.step_count as f64 * sim.grid.dt as f64;
        self.log(t, &sim.energies())
    }
}

/// Write a transverse-averaged x line-out of the six field components as
/// TSV (`x  ex  ey  ez  cbx  cby  cbz`).
pub fn write_field_line_x(f: &FieldArray, g: &Grid, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "# x\tex\tey\tez\tcbx\tcby\tcbz")?;
    let mean = |arr: &[f32], i: usize| {
        let mut s = 0.0f64;
        for k in 1..=g.nz {
            for j in 1..=g.ny {
                s += arr[g.voxel(i, j, k)] as f64;
            }
        }
        s / (g.ny * g.nz) as f64
    };
    for i in 1..=g.nx {
        let x = g.x0 as f64 + (i as f64 - 0.5) * g.dx as f64;
        writeln!(
            out,
            "{x:.6e}\t{:.6e}\t{:.6e}\t{:.6e}\t{:.6e}\t{:.6e}\t{:.6e}",
            mean(&f.ex, i),
            mean(&f.ey, i),
            mean(&f.ez, i),
            mean(&f.cbx, i),
            mean(&f.cby, i),
            mean(&f.cbz, i),
        )?;
    }
    Ok(())
}

/// Write a `(x, value)` series as TSV with a named header.
pub fn write_series(name: &str, xs: &[f64], ys: &[f64], out: &mut impl Write) -> io::Result<()> {
    assert_eq!(xs.len(), ys.len());
    writeln!(out, "# x\t{name}")?;
    for (x, y) in xs.iter().zip(ys) {
        writeln!(out, "{x:.6e}\t{y:.6e}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpic_core::sim::EnergySnapshot;

    #[test]
    fn energy_log_format() {
        let mut buf = Vec::new();
        let mut log = EnergyLogger::new(&mut buf, vec!["electron".into(), "ion".into()]);
        let snap = EnergySnapshot {
            field_e: 1.0,
            field_b: 2.0,
            kinetic: vec![3.0, 4.0],
        };
        log.log(0.5, &snap).unwrap();
        log.log(1.0, &snap).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("# time\tfield_E\tfield_B\tke_electron\tke_ion\ttotal"));
        assert!(lines[1].starts_with("5.000000e-1\t1.000000e0"));
        assert!(lines[1].ends_with("1.000000e1")); // total = 10
    }

    #[test]
    fn field_line_dump_shape() {
        let g = Grid::periodic((4, 2, 2), (0.5, 0.5, 0.5), 0.1);
        let mut f = FieldArray::new(&g);
        for i in 1..=4 {
            for k in 1..=2 {
                for j in 1..=2 {
                    f.ey[g.voxel(i, j, k)] = i as f32;
                }
            }
        }
        let mut buf = Vec::new();
        write_field_line_x(&f, &g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5); // header + 4 cells
        let cols: Vec<&str> = lines[2].split('\t').collect();
        assert_eq!(cols.len(), 7);
        let ey: f64 = cols[2].parse().unwrap();
        assert!((ey - 2.0).abs() < 1e-9);
    }

    #[test]
    fn series_writer_roundtrip() {
        let mut buf = Vec::new();
        write_series("R", &[1.0, 2.0], &[0.1, 0.2], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("# x\tR\n"));
        assert_eq!(text.lines().count(), 3);
    }
}
