//! Rendering every table and figure of the paper's evaluation from
//! collected statistics.
//!
//! Each `figure*`/`table*` function consumes [`MatrixResult`]s (or base-run
//! statistics) and produces a [`Table`] whose rows mirror what the paper
//! plots; `hpa-bench`'s `reproduce_all` assembles them into
//! `EXPERIMENTS.md`.

use crate::runner::MatrixResult;
use crate::scheme::Scheme;
use hpa_obs::CpiCategory;
use hpa_sim::SimStats;
use std::fmt;

/// A simple aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Title line, e.g. `Figure 6: wakeup slack`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table from a title and headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row arity does not match the headers.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch in `{}`", self.title);
        self.rows.push(row);
    }

    /// Renders as GitHub-flavored Markdown (used by `EXPERIMENTS.md`).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:>w$} ")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", num as f64 / den as f64 * 100.0)
    }
}

/// Base-machine statistics per workload, the input for the
/// characterization figures.
pub type BaseRuns<'a> = &'a [(&'a str, &'a SimStats)];

/// Table 2: committed instructions and base IPC per benchmark at both
/// widths.
#[must_use]
pub fn table2(four: BaseRuns<'_>, eight: BaseRuns<'_>) -> Table {
    let mut t = Table::new(
        "Table 2: benchmarks, instruction counts and base IPC",
        &["bench", "insts", "IPC 4-wide", "IPC 8-wide"],
    );
    for ((name, s4), (_, s8)) in four.iter().zip(eight) {
        t.push_row(vec![
            (*name).to_string(),
            s4.committed.to_string(),
            format!("{:.2}", s4.ipc()),
            format!("{:.2}", s8.ipc()),
        ]);
    }
    t
}

/// Figure 2: percentage of 2-source-format instructions (stores split
/// out).
#[must_use]
pub fn figure2(base: BaseRuns<'_>) -> Table {
    let mut t = Table::new(
        "Figure 2: 2-source-format instructions (% of dynamic instructions)",
        &["bench", "2-src format", "stores", "0/1-src", "nops"],
    );
    for (name, s) in base {
        let f = &s.format;
        let total = f.total();
        t.push_row(vec![
            (*name).to_string(),
            pct(f.two_src, total),
            pct(f.stores, total),
            pct(f.zero_src + f.one_src, total),
            pct(f.nops, total),
        ]);
    }
    t
}

/// Figure 3: breakdown of 2-source-format instructions by unique sources.
#[must_use]
pub fn figure3(base: BaseRuns<'_>) -> Table {
    let mut t = Table::new(
        "Figure 3: 2-source-format breakdown (% of dynamic instructions)",
        &["bench", "2 unique srcs (2-source insts)", "1 unique (zero-reg/dup)", "nops"],
    );
    for (name, s) in base {
        let f = &s.format;
        let total = f.total();
        t.push_row(vec![
            (*name).to_string(),
            pct(f.two_src_two_unique, total),
            pct(f.two_src_one_unique, total),
            pct(f.nops, total),
        ]);
    }
    t
}

/// Figure 4: 2-source instructions by number of ready operands at insert.
#[must_use]
pub fn figure4(base: BaseRuns<'_>) -> Table {
    let mut t = Table::new(
        "Figure 4: ready operands of 2-source insts at scheduler insert",
        &["bench", "0 ready (2 pending)", "1 ready", "2 ready"],
    );
    for (name, s) in base {
        let total: u64 = s.ready_at_insert.iter().sum();
        t.push_row(vec![
            (*name).to_string(),
            pct(s.ready_at_insert[0], total),
            pct(s.ready_at_insert[1], total),
            pct(s.ready_at_insert[2], total),
        ]);
    }
    t
}

/// Figure 6: wakeup slack between the two operand wakeups of
/// 2-pending-source instructions.
#[must_use]
pub fn figure6(base: BaseRuns<'_>) -> Table {
    let mut t = Table::new(
        "Figure 6: slack between two operand wakeups (2-pending-source insts)",
        &["bench", "0 cycles (simultaneous)", "1 cycle", "2 cycles", "3+ cycles"],
    );
    for (name, s) in base {
        let total: u64 = s.wakeup_slack.iter().sum();
        t.push_row(vec![
            (*name).to_string(),
            pct(s.wakeup_slack[0], total),
            pct(s.wakeup_slack[1], total),
            pct(s.wakeup_slack[2], total),
            pct(s.wakeup_slack[3], total),
        ]);
    }
    t
}

/// Table 3: wakeup-order stability and last-arriving operand side.
#[must_use]
pub fn table3(four: BaseRuns<'_>, eight: BaseRuns<'_>) -> Table {
    let mut t = Table::new(
        "Table 3: wakeup order (same/diff vs last) and last-arriving side (left/right)",
        &["bench", "4w same/diff", "4w left/right", "8w same/diff", "8w left/right"],
    );
    for ((name, s4), (_, s8)) in four.iter().zip(eight) {
        let fmt_w = |s: &SimStats| {
            let o = &s.wakeup_order;
            let hist = o.same_as_last + o.diff_from_last;
            let side = o.last_left + o.last_right;
            (
                format!("{} / {}", pct(o.same_as_last, hist), pct(o.diff_from_last, hist)),
                format!("{} / {}", pct(o.last_left, side), pct(o.last_right, side)),
            )
        };
        let (s4a, s4b) = fmt_w(s4);
        let (s8a, s8b) = fmt_w(s8);
        t.push_row(vec![(*name).to_string(), s4a, s4b, s8a, s8b]);
    }
    t
}

/// Figure 7: last-arriving operand predictor accuracy by table size.
#[must_use]
pub fn figure7(base: BaseRuns<'_>) -> Table {
    let sizes: Vec<usize> = base
        .first()
        .map(|(_, s)| s.last_arrival.iter().map(|(n, _)| *n).collect())
        .unwrap_or_default();
    let mut headers: Vec<String> = vec!["bench".into()];
    headers.extend(sizes.iter().map(|n| format!("{n}-entry")));
    headers.push("simultaneous".into());
    let mut t = Table {
        title: "Figure 7: last-arriving operand prediction accuracy".into(),
        headers,
        rows: Vec::new(),
    };
    for (name, s) in base {
        let mut row = vec![(*name).to_string()];
        let mut simultaneous = "-".to_string();
        for (_, la) in &s.last_arrival {
            row.push(format!("{:.1}%", la.accuracy() * 100.0));
            simultaneous = pct(la.simultaneous, la.total());
        }
        row.push(simultaneous);
        t.push_row(row);
    }
    t
}

/// Figure 10: register-read categorization of 2-source instructions
/// (% of all committed instructions).
#[must_use]
pub fn figure10(base: BaseRuns<'_>) -> Table {
    let mut t = Table::new(
        "Figure 10: register accesses of 2-source insts (% of committed insts)",
        &[
            "bench",
            "back-to-back issue (<=1 read)",
            "2 ready at insert",
            "non-back-to-back",
            "needs 2 ports",
        ],
    );
    for (name, s) in base {
        let c = s.committed;
        t.push_row(vec![
            (*name).to_string(),
            pct(s.rf_back_to_back, c),
            pct(s.rf_two_ready, c),
            pct(s.rf_non_back_to_back, c),
            format!("{:.1}%", s.two_port_fraction() * 100.0),
        ]);
    }
    t
}

/// A normalized-IPC figure (14, 15 or 16): one column per scheme, values
/// relative to the base machine.
#[must_use]
pub fn normalized_ipc_figure(title: &str, matrix: &MatrixResult, schemes: &[Scheme]) -> Table {
    let mut headers = vec!["bench".to_string(), "base IPC".to_string()];
    headers.extend(schemes.iter().map(|s| s.label().to_string()));
    let mut t = Table { title: title.to_string(), headers, rows: Vec::new() };
    for row in &matrix.rows {
        let Some(base) = row.iter().find(|r| r.scheme == Scheme::Base) else { continue };
        let mut cells = vec![base.workload.to_string(), format!("{:.3}", base.stats.ipc())];
        for &scheme in schemes {
            match row.iter().find(|r| r.scheme == scheme) {
                Some(r) => cells.push(format!("{:.3}", r.stats.ipc() / base.stats.ipc())),
                None => cells.push("-".to_string()),
            }
        }
        t.push_row(cells);
    }
    // Averages row.
    let mut cells = vec!["average".to_string(), "-".to_string()];
    for &scheme in schemes {
        cells.push(format!("{:.3}", 1.0 - matrix.average_degradation(scheme)));
    }
    t.push_row(cells);
    t
}

/// CPI-stack table from an *observed* matrix (see
/// [`crate::run_matrix`] with `observe` set): one row per (workload,
/// scheme) cell, one column per [`CpiCategory`], each the percentage of
/// the machine's issue slots attributed to that cause. The per-scheme
/// deltas against the base rows are the paper's Figures 10–14 degradation
/// sources, measured directly instead of inferred from end-to-end IPC.
///
/// Cells without counters (unobserved runs) are skipped.
#[must_use]
pub fn cpi_stack_table(title: &str, matrix: &MatrixResult, schemes: &[Scheme]) -> Table {
    let mut headers = vec!["bench".to_string(), "scheme".to_string()];
    headers.extend(CpiCategory::ALL.iter().map(|c| c.key().to_string()));
    let mut t = Table { title: title.to_string(), headers, rows: Vec::new() };
    for row in &matrix.rows {
        for &scheme in schemes {
            let Some(r) = row.iter().find(|r| r.scheme == scheme) else { continue };
            let Some(c) = r.counters.as_ref() else { continue };
            let mut cells = vec![r.workload.to_string(), scheme.key().to_string()];
            cells.extend(
                CpiCategory::ALL.iter().map(|&cat| format!("{:.2}", 100.0 * c.cpi.fraction(cat))),
            );
            t.push_row(cells);
        }
    }
    t
}

/// The circuit-delay claims of §3.3 and §4 (wakeup 466→374 ps, register
/// file 1.71→1.36 ns), regenerated from the analytic models.
#[must_use]
pub fn circuit_claims() -> Table {
    let wakeup = hpa_circuits::WakeupDelayModel::calibrated_018um();
    let rf = hpa_circuits::RegFileDelayModel::calibrated_018um();
    let mut t = Table::new(
        "Circuit claims (paper section 3.3 & 4)",
        &["structure", "conventional", "half-price", "improvement"],
    );
    t.push_row(vec![
        "wakeup logic, 4-wide 64-entry".into(),
        format!("{:.0} ps", wakeup.conventional(64, 4)),
        format!("{:.0} ps", wakeup.sequential_wakeup(64, 4)),
        format!("{:.1}% speedup", wakeup.speedup(64, 4) * 100.0),
    ]);
    t.push_row(vec![
        "register file, 160 entries, 8-wide".into(),
        format!("{:.2} ns", rf.conventional(160, 8) / 1000.0),
        format!("{:.2} ns", rf.sequential_access(160, 8) / 1000.0),
        format!("{:.1}% faster access", rf.reduction(160, 8) * 100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> SimStats {
        SimStats {
            cycles: 1000,
            committed: 1500,
            fetched: 1600,
            ready_at_insert: [10, 60, 30],
            wakeup_slack: [2, 50, 30, 18],
            rf_back_to_back: 300,
            rf_two_ready: 20,
            rf_non_back_to_back: 10,
            ..SimStats::default()
        }
    }

    #[test]
    fn tables_render_text_and_markdown() {
        let s = sample_stats();
        let base: Vec<(&str, &SimStats)> = vec![("gcc", &s)];
        for t in [figure2(&base), figure3(&base), figure4(&base), figure6(&base), figure10(&base)] {
            let text = t.to_string();
            assert!(text.contains("gcc"), "{text}");
            let md = t.to_markdown();
            assert!(md.starts_with("### "));
            assert!(md.contains("| gcc |"));
        }
    }

    #[test]
    fn figure4_percentages_sum_to_100() {
        let s = sample_stats();
        let base: Vec<(&str, &SimStats)> = vec![("x", &s)];
        let t = figure4(&base);
        let row = &t.rows[0];
        let total: f64 =
            row[1..].iter().map(|c| c.trim_end_matches('%').parse::<f64>().unwrap()).sum();
        assert!((total - 100.0).abs() < 0.3, "{total}");
    }

    #[test]
    fn circuit_claims_match_the_paper() {
        let t = circuit_claims();
        let text = t.to_string();
        assert!(text.contains("466 ps"));
        assert!(text.contains("374 ps"));
        assert!(text.contains("1.71 ns"));
        assert!(text.contains("1.36 ns"));
        assert!(text.contains("24.6%"));
        assert!(text.contains("20.5%"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }
}

#[cfg(test)]
mod matrix_report_tests {
    use super::*;
    use crate::runner::run_matrix;
    use crate::scheme::MachineWidth;
    use hpa_workloads::Scale;

    #[test]
    fn normalized_figure_from_a_real_matrix() {
        let m = run_matrix(
            &["gcc"],
            Scale::Tiny,
            MachineWidth::Four,
            &[Scheme::Base, Scheme::SeqRegAccess, Scheme::Combined],
            1,
            false,
            |_| {},
        )
        .expect("runs");
        let t = normalized_ipc_figure("test", &m, &[Scheme::SeqRegAccess, Scheme::Combined]);
        assert_eq!(t.headers.len(), 4);
        assert_eq!(t.rows.len(), 2, "gcc + average row");
        // Normalized values are close to (and at most slightly above) 1.
        for cell in &t.rows[0][2..] {
            let v: f64 = cell.parse().unwrap();
            assert!(v > 0.8 && v <= 1.01, "{v}");
        }
        assert_eq!(t.rows[1][0], "average");
        // Markdown renders a table for EXPERIMENTS.md.
        assert!(t.to_markdown().contains("| gcc |"));
    }

    #[test]
    fn missing_scheme_renders_a_dash() {
        let m = run_matrix(
            &["gcc"],
            Scale::Tiny,
            MachineWidth::Four,
            &[Scheme::Base],
            1,
            false,
            |_| {},
        )
        .expect("runs");
        let t = normalized_ipc_figure("test", &m, &[Scheme::Combined]);
        assert_eq!(t.rows[0][2], "-");
    }
}
