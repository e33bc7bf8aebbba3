//! Pins what every `repro` row prints and writes — banner, section lines,
//! headers, key columns, row counts, CSV headers, footer — byte for byte,
//! with only the measured cells masked (`#`). The column's key-vs-measured
//! flag decides what is masked, so a cell cannot silently change sides.
//!
//! Regenerate after an intended output change with
//! `REPRO_GOLDEN=write cargo test -p joinstudy-bench --test repro_golden`.

use joinstudy_bench::figures::{select, Host, Params, FIGURES};
use joinstudy_bench::report::Report;
use joinstudy_bench::row;
use std::path::{Path, PathBuf};

/// A pinned machine: two threads, a 256 KiB "LLC" (so Table 4's build-size
/// sweep and Figure 7's regimes land on both sides of it at tiny scale) and
/// no PMU.
const HOST: Host = Host {
    threads: 2,
    llc_bytes: 256 << 10,
    pmu: false,
};

/// Tiny-scale values for every flag any row declares; each row gets the
/// ones it declares.
const TINY: &[(&str, &str)] = &[
    ("build", "2048"),
    ("sf", "0.01"),
    ("sfs", "0.01"),
    ("queries", "3,21,22"),
    ("reps", "1"),
    ("threads", "2"),
    ("threads-list", "1,2"),
    ("ratio", "1"),
    ("quick", ""),
    ("dim", "1024"),
    ("fact", "4096"),
    ("depth", "2"),
];

const NAMES: [&str; 24] = [
    "fig01",
    "fig02",
    "table1",
    "table2",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "table3",
    "fig16",
    "fig17",
    "fig18",
    "table4",
    "table5",
    "ext_skew",
    "ablations",
    "scan_filter",
    "adaptive",
    "calibrate",
];

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"))
}

/// Run one row masked into a scratch directory; return its stdout followed
/// by every file it wrote under `results/`.
fn run_masked(name: &str) -> String {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("repro_golden")
        .join(name);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let figure = FIGURES.iter().find(|f| f.name == name).unwrap();
    let mut argv = vec![name.to_string()];
    for (flag, value) in TINY {
        if figure.flags.iter().any(|f| f.0 == *flag) {
            argv.push(format!("--{flag}"));
            argv.extend((!value.is_empty()).then(|| value.to_string()));
        }
    }
    let (rows, args) = select(&argv).unwrap();
    let stdout = std::fs::File::create(root.join("stdout.txt")).unwrap();
    let mut report = Report::new(Box::new(stdout), &root).masked();
    (rows[0].run)(&mut report, &Params::new(&args, rows[0], HOST));
    drop(report);

    let mut text = std::fs::read_to_string(root.join("stdout.txt")).unwrap();
    let mut files: Vec<PathBuf> = std::fs::read_dir(root.join("results"))
        .map(|dir| dir.map(|entry| entry.unwrap().path()).collect())
        .unwrap_or_default();
    files.sort();
    for file in files {
        let shown = file.file_name().unwrap().to_string_lossy().into_owned();
        text += &format!("--- results/{shown} ---\n");
        text += &std::fs::read_to_string(&file).unwrap();
    }
    text
}

/// One test, rows in sequence: they share process-global switches (the join
/// log, byte accounting, the PMU gate).
#[test]
fn every_row_matches_its_golden() {
    let write = std::env::var_os("REPRO_GOLDEN").is_some_and(|v| v == "write");
    let mut mismatched = Vec::new();
    for name in NAMES {
        let got = run_masked(name);
        if write {
            std::fs::write(golden_path(name), &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(golden_path(name)).unwrap_or_default();
        if got != want {
            let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
            let line = line.unwrap_or(got.lines().count().min(want.lines().count()));
            eprintln!(
                "{name}: first difference at line {}:\n  got:  {:?}\n  want: {:?}",
                line + 1,
                got.lines().nth(line),
                want.lines().nth(line)
            );
            mismatched.push(name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "rows differ from tests/golden: {mismatched:?}"
    );
}

#[test]
fn list_names_exactly_the_24_rows() {
    let table: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(table, NAMES);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .unwrap();
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = listed
        .lines()
        .filter(|line| !line.starts_with(' '))
        .map(|line| line.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(names, NAMES);
}

/// One `Report` over a scratch root, run through `body`; returns what it
/// printed and the root it wrote under.
fn report_into(name: &str, mask: bool, body: impl FnOnce(&mut Report)) -> (String, PathBuf) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("report")
        .join(name);
    std::fs::create_dir_all(&root).unwrap();
    let stdout = std::fs::File::create(root.join("stdout.txt")).unwrap();
    let mut report = Report::new(Box::new(stdout), &root);
    if mask {
        report = report.masked();
    }
    body(&mut report);
    drop(report);
    (
        std::fs::read_to_string(root.join("stdout.txt")).unwrap(),
        root,
    )
}

/// One row of a five-column table: key and measured, stdout-only and both.
fn unit_table(r: &mut Report) {
    use joinstudy_bench::report::{Col, Fmt};
    let cols = [
        Col::key("query", "query", 6, Fmt::Tagged("Q")),
        Col::key("side", "", -8, Fmt::Plain),
        Col::key("build", "build_bytes", 10, Fmt::Bytes),
        Col::val("tput[T/s]", "tps", 10, Fmt::Si),
        Col::val("Δ[%]", "delta_pct", 7, Fmt::Fixed(1, 2, "%")),
    ];
    let mut t = r.table("unit", &cols);
    t.header(r);
    row!(t, r, 3u32, "probe", 2048usize, 431.4e6, -12.345);
    assert_eq!(t.path(), "results/unit.csv");
}

#[test]
fn one_column_list_renders_the_same_cells_to_stdout_and_csv() {
    let (out, root) = report_into("plain", false, unit_table);
    assert_eq!(
        out,
        " query side          build  tput[T/s]    Δ[%]\n\
         \x20   Q3 probe       2.0 KiB    431.4 M  -12.3%\n"
    );
    // Same cells, CSV renderings; the stdout-only column is absent.
    let csv = std::fs::read_to_string(root.join("results/unit.csv")).unwrap();
    assert_eq!(
        csv,
        "query,build_bytes,tps,delta_pct\n3,2048,431400000,-12.35\n"
    );
}

#[test]
fn masking_hides_measured_cells_only() {
    let (out, root) = report_into("masked", true, unit_table);
    assert!(
        out.ends_with("    Q3 probe       2.0 KiB          #       #\n"),
        "{out:?}"
    );
    let csv = std::fs::read_to_string(root.join("results/unit.csv")).unwrap();
    assert_eq!(csv, "query,build_bytes,tps,delta_pct\n3,2048,#,#\n");
}

#[test]
fn layout_places_visible_cells_and_csv_only_tables_print_nothing() {
    use joinstudy_bench::report::{Col, Fmt};
    let (out, root) = report_into("layout", false, |r| {
        let cols = [
            Col::key("", "join", 1, Fmt::Plain),
            Col::key("", "rows", 5, Fmt::Plain),
        ];
        let mut t = r.table("layout", &cols).layout("  ({}) has ({} rows)");
        row!(t, r, 1u32, 42u32);
        let mut hidden = r.table("hidden", &[Col::key("", "x", 0, Fmt::Plain)]);
        row!(hidden, r, 7u32);
    });
    assert_eq!(out, "  (1) has (   42 rows)\n");
    let csv = std::fs::read_to_string(root.join("results/hidden.csv")).unwrap();
    assert_eq!(csv, "x\n7\n");
}
