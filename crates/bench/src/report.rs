//! The figure layer's one output surface.
//!
//! A [`Report`] owns where a row's text goes (stdout, a log file, a test
//! buffer) and where its artifacts go (`<root>/results/`). A table is
//! declared once as a list of typed [`Col`]umns — stdout title, CSV name,
//! width, key-vs-measured, formatter — and every [`Table::row`] call emits
//! both the aligned stdout line and the CSV line from the same cells, so the
//! two can never drift apart.
//!
//! *Key* cells identify a row or are deterministic (sizes, labels, counts);
//! *measured* cells depend on timing or on the host. A [`Report::masked`]
//! report prints `#` for every measured cell, which is what the golden test
//! pins: everything except the measurements, byte for byte.

use crate::harness::{banner_text, fmt_bytes, fmt_si};
use std::fmt::Display;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;

/// How a column renders a numeric cell on stdout and in the CSV. Text cells
/// pass through unchanged on both.
#[derive(Clone, Copy)]
pub enum Fmt {
    /// `Display` of the value, the same on both (integers, labels).
    Plain,
    /// A tagged id: `Q3` on stdout, `3` in the CSV.
    Tagged(&'static str),
    /// `1.9 MiB` on stdout, the byte count in the CSV.
    Bytes,
    /// A rate: `431.4 M` on stdout, rounded to an integer in the CSV.
    Si,
    /// Fixed decimals (stdout, CSV) and a unit suffix shown on stdout only.
    Fixed(usize, usize, &'static str),
}

/// One table cell; build with `.into()` from text or any number.
pub enum Cell {
    Text(String),
    Num(f64),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

macro_rules! cell_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell::Num(v as f64)
            }
        }
    )*};
}
cell_from_num!(f64, usize, u64, u32);

/// `row!(table, report, a, b, ...)`: one [`Table::row`] from values of mixed
/// types, each turned into a [`Cell`].
#[macro_export]
macro_rules! row {
    ($table:expr, $report:expr, $($cell:expr),+ $(,)?) => {
        $table.row($report, &[$($crate::report::Cell::from($cell)),+])
    };
}

/// One declared column.
#[derive(Clone, Copy)]
pub struct Col {
    /// Stdout header.
    pub title: &'static str,
    /// CSV header; `""` keeps the column out of the CSV.
    pub csv: &'static str,
    /// Stdout width: positive right-aligns, negative left-aligns, `0` keeps
    /// the column off stdout.
    pub width: i8,
    /// Measured cells are masked in goldens; key cells are pinned.
    pub measured: bool,
    pub fmt: Fmt,
}

impl Col {
    /// A key column: identifies the row or is deterministic.
    pub const fn key(title: &'static str, csv: &'static str, width: i8, fmt: Fmt) -> Col {
        Col {
            title,
            csv,
            width,
            measured: false,
            fmt,
        }
    }

    /// A measured column: timing- or host-dependent.
    pub const fn val(title: &'static str, csv: &'static str, width: i8, fmt: Fmt) -> Col {
        Col {
            measured: true,
            ..Col::key(title, csv, width, fmt)
        }
    }

    /// The cell as (stdout text, CSV text).
    fn render(&self, cell: &Cell, mask: bool) -> (String, String) {
        if mask && self.measured {
            return ("#".into(), "#".into());
        }
        let v = match cell {
            Cell::Text(s) => return (s.clone(), s.clone()),
            Cell::Num(v) => *v,
        };
        match self.fmt {
            Fmt::Plain => (format!("{v}"), format!("{v}")),
            Fmt::Tagged(tag) => (format!("{tag}{v}"), format!("{v}")),
            Fmt::Bytes => (fmt_bytes(v as usize), format!("{v}")),
            Fmt::Si => (fmt_si(v), format!("{v:.0}")),
            Fmt::Fixed(out, csv, unit) => (format!("{v:.out$}{unit}"), format!("{v:.csv$}")),
        }
    }

    fn pad(&self, text: &str) -> String {
        let width = self.width.unsigned_abs() as usize;
        if self.width < 0 {
            format!("{text:<width$}")
        } else {
            format!("{text:>width$}")
        }
    }
}

/// Where one repro row writes: text to `out`, artifacts under
/// `<root>/results/` (always *shown* as `results/<file>`).
pub struct Report {
    out: Box<dyn Write>,
    root: PathBuf,
    mask: bool,
}

impl Report {
    pub fn new(out: Box<dyn Write>, root: impl Into<PathBuf>) -> Report {
        Report {
            out,
            root: root.into(),
            mask: false,
        }
    }

    /// Golden mode: every measured cell and every [`Report::m`] value prints
    /// as `#`.
    pub fn masked(mut self) -> Report {
        self.mask = true;
        self
    }

    /// One line of free text (section headers, notes).
    pub fn line(&mut self, text: impl AsRef<str>) {
        writeln!(self.out, "{}", text.as_ref()).expect("write report");
    }

    /// The standard experiment banner.
    pub fn banner(&mut self, what: &str, detail: &str) {
        self.line(banner_text(what, detail));
    }

    /// A measured value inside free text: itself, or `#` when masked.
    pub fn m(&self, value: impl Display) -> String {
        if self.mask {
            "#".into()
        } else {
            value.to_string()
        }
    }

    /// Create `results/<file>` and return it with the path to show.
    fn create(&self, file: &str) -> (File, String) {
        let dir = self.root.join("results");
        std::fs::create_dir_all(&dir).expect("create results dir");
        let f = File::create(dir.join(file)).expect("create results file");
        (f, format!("results/{file}"))
    }

    /// How every row ends: where its CSV went, then its closing note.
    pub fn footer(&mut self, table: &Table, note: &str) {
        self.line(format!("\nCSV: {}\n{note}", table.path()));
    }

    /// Write a whole artifact (`results/<file>`); returns the path to show.
    pub fn write_file(&mut self, file: &str, content: &str) -> String {
        let (mut f, shown) = self.create(file);
        f.write_all(content.as_bytes()).expect("write artifact");
        shown
    }

    /// Declare a table. When any column has a CSV name, `results/<name>.csv`
    /// is created with its header line; the stdout header is printed by
    /// [`Table::header`] (sectioned figures repeat it).
    pub fn table(&mut self, name: &str, cols: &[Col]) -> Table {
        let csv_header: Vec<&str> = cols
            .iter()
            .map(|c| c.csv)
            .filter(|c| !c.is_empty())
            .collect();
        let csv = (!csv_header.is_empty()).then(|| {
            let (mut f, shown) = self.create(&format!("{name}.csv"));
            writeln!(f, "{}", csv_header.join(",")).expect("write csv");
            (f, shown)
        });
        Table {
            cols: cols.to_vec(),
            csv,
            layout: None,
        }
    }
}

/// A declared table: one column list feeding stdout and the CSV.
pub struct Table {
    cols: Vec<Col>,
    csv: Option<(File, String)>,
    layout: Option<&'static str>,
}

impl Table {
    /// Print stdout rows through a template instead of space-joined
    /// columns: each `{}` takes the next visible (padded) cell.
    pub fn layout(mut self, template: &'static str) -> Table {
        self.layout = Some(template);
        self
    }

    /// The stdout header line.
    pub fn header(&self, r: &mut Report) {
        let visible = self.cols.iter().filter(|c| c.width != 0);
        let titles: Vec<String> = visible.map(|c| c.pad(c.title)).collect();
        r.line(titles.join(" "));
    }

    /// One row: the aligned stdout line and the CSV line, from one cell list.
    pub fn row(&mut self, r: &mut Report, cells: &[Cell]) {
        assert_eq!(cells.len(), self.cols.len(), "one cell per declared column");
        let mut shown = Vec::new();
        let mut csv = Vec::new();
        for (col, cell) in self.cols.iter().zip(cells) {
            let (out_text, csv_text) = col.render(cell, r.mask);
            if col.width != 0 {
                shown.push(col.pad(&out_text));
            }
            if !col.csv.is_empty() {
                csv.push(csv_text);
            }
        }
        match self.layout {
            Some(template) => {
                let mut cells = shown.iter();
                let mut text = String::new();
                for (i, piece) in template.split("{}").enumerate() {
                    if i > 0 {
                        text.push_str(cells.next().expect("layout has a cell per {}"));
                    }
                    text.push_str(piece);
                }
                r.line(text);
            }
            None if !shown.is_empty() => r.line(shown.join(" ")),
            None => {}
        }
        if let Some((f, _)) = &mut self.csv {
            writeln!(f, "{}", csv.join(",")).expect("write csv");
        }
    }

    /// The CSV's path as shown to the user (`results/<name>.csv`).
    pub fn path(&self) -> &str {
        self.csv.as_ref().map_or("", |(_, shown)| shown)
    }
}
