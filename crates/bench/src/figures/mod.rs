//! The paper's evaluation as one table: every figure and table of §5–§6 is
//! a row of [`FIGURES`] — a name, a title, the flags it takes and a function
//! over a shared [`Report`] — driven by the one `repro` binary.
//!
//! The method is the same twenty times (fix Workload A or TPC-H, vary one
//! characteristic, swap the join under test, report tuples/s), so the loops
//! exist once: [`micro`] holds the Workload-A point functions the §5.4 rows
//! sweep and `table4` re-reads at fewer points, [`tpch`] the query × config
//! loops over one cached data set per scale factor.

mod adaptive;
mod micro;
mod tpch;

use crate::harness::Args;
use crate::report::Report;
use joinstudy_core::cost::detect_llc_bytes;
use std::str::FromStr;

/// One flag a row accepts. An empty default marks a switch; a default that
/// does not parse (`"16x --build"`) documents one derived in the row.
pub struct Flag(pub &'static str, pub &'static str);

const BUILD: Flag = Flag("build", "131072");
const PROBE: Flag = Flag("probe", "16x --build");
const THREADS: Flag = Flag("threads", "all hardware threads");
const REPS: Flag = Flag("reps", "3");
const SF: Flag = Flag("sf", "0.1");
const QUERIES: Flag = Flag("queries", "all");

/// One row of the evaluation.
pub struct Figure {
    pub name: &'static str,
    pub title: &'static str,
    pub flags: &'static [Flag],
    pub run: fn(&mut Report, &Params),
}

impl Figure {
    /// `name — title` and the row's flags with their defaults.
    pub fn usage(&self) -> String {
        let show = |Flag(name, default): &Flag| match *default {
            "" => format!("[--{name}]"),
            default => format!("[--{name} <{default}>]"),
        };
        let flags: Vec<String> = self.flags.iter().map(show).collect();
        let (name, title, flags) = (self.name, self.title, flags.join(" "));
        format!("{name:<10} {title}\n{:<10} {flags}", "")
    }
}

/// The 19 paper rows, Figure 7's counter profile and the design-choice
/// ablations, in the paper's order of appearance, then the scan-and-filter
/// reading, Table 4 asked at plan time and the cost model's fit to the host.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig01",
        title: "Figure 1: BRJ vs BHJ per TPC-H join (build x probe size scatter)",
        flags: &[SF, QUERIES, THREADS, REPS],
        run: tpch::fig01,
    },
    Figure {
        name: "fig02",
        title: "Figure 2: tuple sizes and join partners — TPC-H vs prior work",
        flags: &[SF, THREADS],
        run: tpch::fig02,
    },
    Figure {
        name: "table1",
        title: "Table 1: workloads from prior work",
        flags: &[BUILD],
        run: micro::table1,
    },
    Figure {
        name: "table2",
        title: "Table 2: hardware platforms",
        flags: &[],
        run: micro::table2,
    },
    Figure {
        name: "fig07",
        title: "Figure 7 / Table 4: per-phase hardware counters (perf_event_open)",
        flags: &[Flag("ratio", "8"), THREADS, Flag("quick", "")],
        run: micro::fig07,
    },
    Figure {
        name: "fig08",
        title: "Figure 8: scalability and comparison to Balkesen et al.",
        flags: &[
            BUILD,
            Flag("threads-list", "1,2,4.. to 2x hardware threads"),
            REPS,
        ],
        run: micro::fig08,
    },
    Figure {
        name: "fig09",
        title: "Figure 9: scalability under oversubscription (NUMA substitution)",
        flags: &[BUILD, REPS],
        run: micro::fig09,
    },
    Figure {
        name: "fig10",
        title: "Figure 10: memory bandwidth per radix-join phase (24 B tuples)",
        flags: &[
            Flag("build", "65536"),
            Flag("probe", "30x --build"),
            THREADS,
            Flag("hw", ""),
        ],
        run: micro::fig10,
    },
    Figure {
        name: "fig11",
        title: "Figure 11: TPC-H throughput per query, SF sweep, join under test",
        flags: &[
            Flag("sfs", "0.05,0.1,0.2"),
            QUERIES,
            THREADS,
            REPS,
            Flag("lm", ""),
        ],
        run: tpch::fig11,
    },
    Figure {
        name: "fig12",
        title: "Figure 12: relative impact per join (BHJ vs BRJ), selected queries",
        flags: &[SF, THREADS, REPS],
        run: tpch::fig12,
    },
    Figure {
        name: "fig13",
        title: "Figure 13: Q21 join tree with build/probe sizes",
        flags: &[SF, THREADS],
        run: tpch::fig13,
    },
    Figure {
        name: "fig14",
        title: "Figure 14: impact of pre-filtering the probe side (Bloom early probe)",
        flags: &[BUILD, PROBE, THREADS, REPS],
        run: micro::fig14,
    },
    Figure {
        name: "fig15",
        title: "Figure 15: impact of probe payload size",
        flags: &[BUILD, PROBE, THREADS, REPS],
        run: micro::fig15,
    },
    Figure {
        name: "table3",
        title: "Table 3: throughput with and without Late Materialization",
        flags: &[BUILD, THREADS, REPS],
        run: micro::table3,
    },
    Figure {
        name: "fig16",
        title: "Figure 16: impact of pipeline depth (star schema)",
        flags: &[
            Flag("dim", "65536"),
            Flag("fact", "1048576"),
            Flag("depth", "9"),
            THREADS,
            REPS,
        ],
        run: micro::fig16,
    },
    Figure {
        name: "fig17",
        title: "Figure 17: impact of Zipf skew (vs. original-style PRJ/NPJ)",
        flags: &[BUILD, THREADS, REPS],
        run: micro::fig17,
    },
    Figure {
        name: "fig18",
        title: "Figure 18: speedup over the optimized RJ",
        flags: &[SF, BUILD, THREADS, REPS],
        run: tpch::fig18,
    },
    Figure {
        name: "table4",
        title: "Table 4: workload ranges where partitioned joins work / pay off",
        flags: &[BUILD, THREADS, REPS],
        run: micro::table4,
    },
    Figure {
        name: "table5",
        title: "Table 5: workloads for join processing",
        flags: &[SF, THREADS],
        run: tpch::table5,
    },
    Figure {
        name: "ext_skew",
        title: "Extension: TPC-H with JCC-H-style foreign-key skew (footnote 11)",
        flags: &[SF, THREADS, REPS],
        run: tpch::ext_skew,
    },
    Figure {
        name: "ablations",
        title: "Ablations: SWWCB, NT stores, BHJ prefetch, adaptive Bloom (Workload A')",
        flags: &[BUILD, PROBE, THREADS, REPS],
        run: micro::ablations,
    },
    Figure {
        name: "scan_filter",
        title: "Scan and filter: Q19's lineitem scan, filtered, unfiltered and by hand",
        flags: &[Flag("sf", "0.05"), Flag("reps", "11")],
        run: tpch::scan_filter,
    },
    Figure {
        name: "adaptive",
        title:
            "Table 4 at plan time: predicted regime boundary vs measured crossover, TPC-H regret",
        flags: &[SF, QUERIES, THREADS, REPS],
        run: adaptive::adaptive,
    },
    Figure {
        name: "calibrate",
        title: "Cost-model calibration: the per-tuple constants fitted on this host",
        flags: &[THREADS, REPS],
        run: adaptive::calibrate,
    },
];

/// What the rows need to know about the machine, gathered once so a test
/// can pin it.
#[derive(Clone, Copy)]
pub struct Host {
    /// Hardware threads: the `--threads` default and the sweeps' ceiling.
    pub threads: usize,
    /// Last-level cache size (cache-relative workload sizing, regimes).
    pub llc_bytes: usize,
    /// Whether `perf_event_open` counters work from this process.
    pub pmu: bool,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            llc_bytes: detect_llc_bytes(),
            pmu: joinstudy_exec::pmu::probe(),
        }
    }
}

/// One row's view of the command line: only the flags it declared, with the
/// declared defaults.
pub struct Params<'a> {
    args: &'a Args,
    figure: &'static Figure,
    pub host: Host,
}

impl<'a> Params<'a> {
    pub fn new(args: &'a Args, figure: &'static Figure, host: Host) -> Params<'a> {
        Params { args, figure, host }
    }

    /// The row's banner: its title over this run's parameters.
    pub fn banner(&self, r: &mut Report, detail: &str) {
        r.banner(self.figure.title, detail);
    }

    fn declared(&self, name: &str) -> Option<&'static str> {
        let flag = self.figure.flags.iter().find(|f| f.0 == name);
        flag.map(|f| f.1)
    }

    fn parse<T: FromStr>(name: &str, text: &str) -> T {
        text.trim()
            .parse()
            .unwrap_or_else(|_| panic!("--{name}: cannot read {text:?}"))
    }

    /// The value the user gave, if this row declares the flag.
    pub fn given<T: FromStr>(&self, name: &str) -> Option<T> {
        self.declared(name)?;
        self.args.value(name).map(|v| Params::parse(name, v))
    }

    /// The value the user gave, else the declared default.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        let default = self
            .declared(name)
            .unwrap_or_else(|| panic!("row reads undeclared flag --{name}"));
        self.given(name)
            .unwrap_or_else(|| Params::parse(name, default))
    }

    fn parse_list<T: FromStr>(name: &str, text: &str) -> Vec<T> {
        text.split(',').map(|s| Params::parse(name, s)).collect()
    }

    /// A comma-separated list the user gave.
    pub fn given_list<T: FromStr>(&self, name: &str) -> Option<Vec<T>> {
        Some(Params::parse_list(name, &self.given::<String>(name)?))
    }

    /// A comma-separated list: given, else the declared default.
    pub fn list<T: FromStr>(&self, name: &str) -> Vec<T> {
        Params::parse_list(name, &self.get::<String>(name))
    }

    pub fn switch(&self, name: &str) -> bool {
        self.declared(name).is_some() && self.args.flag(name)
    }

    pub fn threads(&self) -> usize {
        self.given("threads").unwrap_or(self.host.threads)
    }

    pub fn reps(&self) -> usize {
        self.get("reps")
    }

    /// `N threads, median of R`, as most banners end.
    pub fn run_line(&self) -> String {
        format!("{} threads, median of {}", self.threads(), self.reps())
    }

    /// `--probe`, else `ratio` probe tuples per build tuple.
    pub fn probe(&self, build_n: usize, ratio: usize) -> usize {
        self.given("probe").unwrap_or(ratio * build_n)
    }
}

/// Resolve `repro`'s command line: the chosen rows (`all` = every row, in
/// order) and the parsed flags. An unknown flag, `--reps 0`, `--threads 0`
/// and an unknown row are errors; so are a flag no chosen row declares and a
/// switch given a value (or the reverse), whose text ends with the chosen
/// rows' usage.
pub fn select(argv: &[String]) -> Result<(Vec<&'static Figure>, Args), String> {
    let mut every: Vec<&str> = FIGURES.iter().flat_map(|f| f.flags).map(|f| f.0).collect();
    every.sort_unstable();
    every.dedup();
    let args = Args::parse_from(argv, &every)?;
    let rows: Vec<&Figure> = if args.words == ["all"] {
        FIGURES.iter().collect()
    } else {
        args.words
            .iter()
            .map(|w| {
                FIGURES
                    .iter()
                    .find(|f| f.name == w)
                    .ok_or_else(|| format!("no such row {w:?} (see `repro list`)"))
            })
            .collect::<Result<_, _>>()?
    };
    if rows.is_empty() {
        return Err("usage: repro <row>... [--flag value]... | all | list".into());
    }
    let problem = args.given().find_map(|(name, has_value)| {
        let mut declared = rows.iter().flat_map(|f| f.flags).filter(|f| f.0 == name);
        match declared.next() {
            None => Some(format!("--{name} is not a flag of the chosen row(s)")),
            Some(Flag(_, "")) if has_value => Some(format!("--{name} takes no value")),
            Some(Flag(_, default)) if !default.is_empty() && !has_value => {
                Some(format!("--{name} needs a value"))
            }
            Some(_) => None,
        }
    });
    match problem {
        Some(why) => {
            let usage: Vec<String> = rows.iter().map(|f| f.usage()).collect();
            Err(format!("{why}\n{}", usage.join("\n")))
        }
        None => Ok((rows, args)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_flag_the_row_does_not_declare_is_rejected_with_the_rows_usage() {
        // `--rep`/`--thread` used to run silently with the defaults.
        let err = select(&argv("fig14 --rep 5")).err().unwrap();
        assert!(err.starts_with("unknown flag --rep"), "{err}");
        // A real flag of *another* row is rejected too, listing this row's.
        let err = select(&argv("fig14 --sf 0.1")).err().unwrap();
        assert!(
            err.contains("--sf is not a flag of the chosen row(s)"),
            "{err}"
        );
        assert!(
            err.contains("[--build <131072>] [--probe <16x --build>]"),
            "{err}"
        );
        assert!(select(&argv("fig14 fig18 --sf 0.1 --probe 64")).is_ok());
        assert!(select(&argv("all --sf 0.1 --reps 2")).is_ok());
    }

    #[test]
    fn reps_zero_switch_values_and_unknown_rows_are_rejected_at_parse_time() {
        assert!(select(&argv("fig14 --reps 0")).is_err());
        assert!(select(&argv("table5 --threads 0 --sf 0.01")).is_err());
        assert!(select(&argv("fig14 --reps two")).is_err());
        assert!(select(&argv("fig14 --reps")).is_err());
        assert!(
            select(&argv("fig11 --lm fig12")).is_err(),
            "a switch swallowed a row name"
        );
        assert!(select(&argv("fig99")).is_err());
        assert!(select(&argv("")).is_err());
        let (rows, args) = select(&argv("fig11 --lm --reps 1")).unwrap();
        let p = Params::new(
            &args,
            rows[0],
            Host {
                threads: 2,
                llc_bytes: 1 << 20,
                pmu: false,
            },
        );
        assert!(p.switch("lm"));
        assert_eq!((p.get::<usize>("reps"), p.threads()), (1, 2));
        assert_eq!(p.list::<f64>("sfs"), [0.05, 0.1, 0.2]);
    }

    #[test]
    fn a_row_sees_only_the_flags_it_declares() {
        let (rows, args) = select(&argv("fig14 table4 --probe 64 --build 8")).unwrap();
        let host = Host {
            threads: 1,
            llc_bytes: 1 << 20,
            pmu: false,
        };
        assert_eq!(Params::new(&args, rows[0], host).probe(8, 16), 64);
        assert_eq!(Params::new(&args, rows[1], host).probe(8, 16), 128);
    }
}
