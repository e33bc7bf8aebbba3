//! dbgen-style TPC-H data export: writes the eight relations as
//! pipe-separated `.tbl` files (the classic dbgen format), so the generated
//! data can be loaded into any other system for cross-validation.
//!
//! `cargo run --release -p joinstudy-bench --bin tpch_dbgen --
//!  [--sf 0.1] [--seed 42] [--out tpch-data] [--zipf 1.5]`

use joinstudy_bench::harness::{banner, fmt_bytes, Args};
use joinstudy_storage::table::Table;
use joinstudy_tpch::{generate, generate_skewed};
use std::io::{BufWriter, Write};

fn dump(table: &Table, path: &std::path::Path) -> std::io::Result<usize> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for r in 0..table.num_rows() {
        let row: Vec<String> = table.row(r).iter().map(|v| v.to_string()).collect();
        writeln!(w, "{}|", row.join("|"))?;
    }
    w.flush()?;
    Ok(table.num_rows())
}

fn main() {
    let args = Args::parse(&["sf", "seed", "out", "zipf"]);
    let sf = args.f64("sf", 0.1);
    let seed = args.usize("seed", 42) as u64;
    let out = args.str("out", "tpch-data");
    let zipf = args.f64("zipf", 0.0);

    banner(
        "TPC-H .tbl export",
        &format!(
            "SF {sf}, seed {seed}, output {out}/{}",
            if zipf > 0.0 {
                format!(", Zipf-skewed FKs (z={zipf})")
            } else {
                String::new()
            }
        ),
    );

    let data = if zipf > 0.0 {
        generate_skewed(sf, seed, zipf)
    } else {
        generate(sf, seed)
    };
    let dir = std::path::PathBuf::from(&out);
    std::fs::create_dir_all(&dir).expect("create output dir");

    for name in [
        "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
    ] {
        let table = data.table(name);
        let path = dir.join(format!("{name}.tbl"));
        let rows = dump(table, &path).expect("write tbl");
        println!(
            "  {name:<10} {rows:>9} rows  {:>10}  -> {}",
            fmt_bytes(table.byte_size()),
            path.display()
        );
    }
    println!("\ntotal: {}", fmt_bytes(data.byte_size()));
}
