//! Plain-text table rendering for the repro binary.

/// Renders a table: header row plus data rows, columns padded to fit.
#[must_use]
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats a normalized value like the paper's bar charts (3 decimals).
#[must_use]
pub fn norm(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage with 2 decimals.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

/// Renders per-disk power-state timelines as ASCII: one row per disk,
/// `width` buckets over the run. `#` = servicing, `.` = idle at full
/// speed, digits = dwelling at that RPM level (0 = slowest), `_` =
/// standby.
#[must_use]
pub fn disk_timeline(report: &sdpm_sim::SimReport, width: usize) -> String {
    assert!(width > 0);
    let total = report.exec_secs.max(1e-9);
    let mut out = String::new();
    for (i, disk) in report.per_disk.iter().enumerate() {
        let mut row = vec!['#'; width]; // non-gap time is service/busy
        for g in &disk.gaps {
            let b0 = ((g.start / total) * width as f64) as usize;
            let b1 = (((g.end / total) * width as f64).ceil() as usize).min(width);
            let c = if g.standby {
                '_'
            } else if g.level.0 >= 10 {
                '.'
            } else {
                char::from_digit(u32::from(g.level.0), 10).unwrap_or('?')
            };
            for cell in row.iter_mut().take(b1).skip(b0) {
                *cell = c;
            }
        }
        out.push_str(&format!("disk{i:<2} "));
        out.extend(row);
        out.push('\n');
    }
    out.push_str("       (# busy, . idle@full, 0-9 dwell level, _ standby)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["name".into(), "x".into()],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "22.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].ends_with("x"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = render_table(&["a".into()], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(norm(0.7391), "0.739");
        assert_eq!(pct(0.0514), "5.14");
    }

    #[test]
    fn timeline_marks_states() {
        use sdpm_disk::{EnergyBreakdown, RpmLevel};
        use sdpm_sim::{GapRecord, PerDiskReport, SimReport};
        let r = SimReport {
            policy: "CMDRPM".into(),
            exec_secs: 10.0,
            energy: EnergyBreakdown::default(),
            per_disk: vec![PerDiskReport {
                requests: 1,
                energy: EnergyBreakdown::default(),
                spin_downs: 0,
                spin_ups: 0,
                rpm_shifts: 2,
                gaps: vec![
                    GapRecord {
                        start: 0.0,
                        end: 4.0,
                        level: RpmLevel(0),
                        standby: false,
                    },
                    GapRecord {
                        start: 5.0,
                        end: 8.0,
                        level: RpmLevel(10),
                        standby: false,
                    },
                    GapRecord {
                        start: 8.0,
                        end: 10.0,
                        level: RpmLevel(3),
                        standby: true,
                    },
                ],
            }],
            requests: 1,
            stall_secs: 0.0,
            mean_slowdown: 1.0,
            misfire_causes: sdpm_sim::MisfireCauses::default(),
            faults: sdpm_fault::FaultCounts::default(),
        };
        let t = disk_timeline(&r, 10);
        let row = t.lines().next().unwrap();
        assert!(row.contains("0000"), "deep dwell rendered: {row}");
        assert!(row.contains('#'), "busy slice rendered: {row}");
        assert!(row.contains('_'), "standby rendered: {row}");
        assert!(row.contains('.'), "full-speed idle rendered: {row}");
    }
}
