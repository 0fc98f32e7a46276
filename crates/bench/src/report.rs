//! The one table writer: every `results/<name>.{md,csv}` is a [`Table`]
//! built from a column list over its rows.

use std::fmt::Display;

use sim_core::sweep::parallel_sweep;
use workloads::Run;

use crate::write_result;

/// One column of a table: its header and the cell it reads off a row.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// A titled, column-aligned table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A row per element of `rows`, a cell per column.
    pub fn new<R>(title: impl Into<String>, rows: &[R], columns: &[Column<R>]) -> Table {
        Table {
            title: title.into(),
            headers: columns.iter().map(|(h, _)| h.to_string()).collect(),
            rows: (rows.iter())
                .map(|r| columns.iter().map(|(_, cell)| cell(r)).collect())
                .collect(),
        }
    }

    /// Render as markdown: the title, then right-aligned cells.
    pub fn render(&self) -> String {
        let widths: Vec<usize> = (0..self.headers.len())
            .map(|i| self.lines().map(|cells| cells[i].len()).max().unwrap_or(0))
            .collect();
        let line = |cells: &[String]| {
            let cells: String = (cells.iter().zip(&widths))
                .map(|(c, w)| format!(" {c:>w$} |"))
                .collect();
            format!("|{cells}\n")
        };
        let rule: String = widths.iter().map(|w| "-".repeat(w + 2) + "|").collect();
        let mut out = format!("## {}\n{}|{rule}\n", self.title, line(&self.headers));
        out.extend(self.rows.iter().map(|row| line(row)));
        out
    }

    /// Render as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        self.lines().map(|cells| cells.join(",") + "\n").collect()
    }

    /// The header line, then the rows.
    fn lines(&self) -> impl Iterator<Item = &Vec<String>> {
        std::iter::once(&self.headers).chain(&self.rows)
    }

    /// Write the table to stdout and `results/<name>.{md,csv}`.
    pub fn emit(&self, name: &str) {
        let md = self.render();
        println!("{md}");
        write_result(&format!("{name}.md"), &md);
        write_result(&format!("{name}.csv"), &self.to_csv());
    }
}

/// A cell: `run`'s whole-run count of `series`.
pub(crate) fn count<T>(run: &Run<T>, series: &str) -> String {
    run.metric(series).to_string()
}

/// Format a bandwidth cell.
pub fn mb(v: f64) -> String {
    format!("{v:.0}")
}

/// Format a percentage cell.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// One column of an axis × series figure: its header, the index of the
/// point whose runs it reads (columns showing different measures of one
/// point share its runs), and the cell read off each run.
pub type Series<'a, R> = (&'a str, usize, fn(&R) -> String);

/// Write one figure of the paper's common shape to stdout and
/// `results/<name>.{md,csv}`: `run` every point at every value of the
/// x axis (in parallel), then a row per axis value, a column per
/// series. Returns the runs, point-major.
pub fn axis_table<X, P, R>(
    (name, title): (&str, &str),
    (axis_header, axis): (&str, &[X]),
    points: &[P],
    run: impl Fn(P, X) -> R + Sync,
    series: &[Series<R>],
) -> Vec<R>
where
    X: Copy + Display + Send,
    P: Copy + Send,
    R: Send,
{
    let runs: Vec<(P, X)> = points
        .iter()
        .flat_map(|&p| axis.iter().map(move |&x| (p, x)))
        .collect();
    let results = parallel_sweep(runs, |(p, x)| run(p, x));

    let mut headers = vec![axis_header.to_string()];
    headers.extend(series.iter().map(|(column, ..)| column.to_string()));
    let rows = (axis.iter().enumerate())
        .map(|(row, x)| {
            let cell =
                |(_, point, measure): &Series<R>| measure(&results[point * axis.len() + row]);
            let mut cells = vec![x.to_string()];
            cells.extend(series.iter().map(cell));
            cells
        })
        .collect();
    let title = title.to_string();
    Table {
        title,
        headers,
        rows,
    }
    .emit(name);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let columns: [Column<f64>; 2] = [
            ("threads", |&v| (v / 100.0).to_string()),
            ("MB/s", |&v| mb(v)),
        ];
        let t = Table::new("Demo", &[100.0, 800.0], &columns);
        assert_eq!(
            t.render(),
            "## Demo\n| threads | MB/s |\n|---------|------|\n|       1 |  100 |\n|       8 |  800 |\n"
        );
        assert_eq!(t.to_csv(), "threads,MB/s\n1,100\n8,800\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mb(123.4), "123");
        assert_eq!(pct(0.256), "25.6%");
    }
}
