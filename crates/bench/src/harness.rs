//! Shared benchmark plumbing: flags, repeated timing, formatting.

use joinstudy_exec::registry::json_string;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Minimal `--key value` / `--flag` argument parser (no external deps).
/// Every caller names the flags it knows, so a typo (`--rep 5`) is an error
/// instead of a silent run with the defaults.
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    /// Positional words, in order (`repro`'s row names; nothing else takes any).
    pub words: Vec<String>,
}

impl Args {
    /// Parse the process arguments; on a flag outside `known`, a positional
    /// word, `--reps 0` or `--threads 0`, print the reason and exit with
    /// status 2.
    pub fn parse(known: &[&str]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let parsed = Args::parse_from(&argv, known).and_then(|args| match args.words.first() {
            Some(word) => Err(format!("unexpected argument {word:?}")),
            None => Ok(args),
        });
        parsed.unwrap_or_else(|why| {
            eprintln!("{why}");
            std::process::exit(2);
        })
    }

    /// A `--key` followed by a token that is not itself a `--flag` takes it
    /// as its value; otherwise it is a switch.
    pub fn parse_from(argv: &[String], known: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            values: HashMap::new(),
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut i = 0;
        while i < argv.len() {
            let Some(key) = argv[i].strip_prefix("--") else {
                args.words.push(argv[i].clone());
                i += 1;
                continue;
            };
            if !known.contains(&key) {
                let known: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                return Err(format!("unknown flag --{key} (known: {})", known.join(" ")));
            }
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                args.values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                args.flags.push(key.to_string());
                i += 1;
            }
        }
        for key in ["reps", "threads"] {
            if let Some(Ok(0) | Err(_)) = args.values.get(key).map(|v| v.parse::<usize>()) {
                return Err(format!("--{key} must be a positive integer"));
            }
        }
        Ok(args)
    }

    /// The value given for `key`, if any.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Every flag on the command line, with whether it came with a value.
    pub fn given(&self) -> impl Iterator<Item = (&str, bool)> {
        let valued = self.values.keys().map(|k| (k.as_str(), true));
        valued.chain(self.flags.iter().map(|k| (k.as_str(), false)))
    }

    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.values
            .get(key)
            .map(|v| v.parse().expect(key))
            .unwrap_or(default)
    }

    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .map(|v| v.parse().expect(key))
            .unwrap_or(default)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    pub fn str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Default thread count: all available cores unless overridden.
    pub fn threads(&self) -> usize {
        self.usize(
            "threads",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

/// Run `f` `reps` times; return the median duration and the last result.
pub fn measure<R>(reps: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = f();
        times.push(start.elapsed());
        last = Some(r);
    }
    times.sort();
    (times[times.len() / 2], last.unwrap())
}

/// Tuples per second.
pub fn throughput(tuples: usize, d: Duration) -> f64 {
    tuples as f64 / d.as_secs_f64()
}

/// Format a rate as the paper's axes do ("0.62 G", "431 M").
pub fn fmt_si(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1} M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1} k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Format a byte count ("256 MiB").
pub fn fmt_bytes(b: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// JSONL sidecar for [`QueryProfile`](joinstudy_exec::profile::QueryProfile)
/// exports, targeting `results/<name>.profiles.jsonl`. One line per profiled
/// run: `{"tag":"...","profile":{...}}`.
pub struct ProfileLog {
    file: std::fs::File,
    path: PathBuf,
}

impl ProfileLog {
    pub fn create(name: &str) -> ProfileLog {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{name}.profiles.jsonl"));
        let file = std::fs::File::create(&path).expect("create profile log");
        ProfileLog { file, path }
    }

    /// Append one profile under a caller-chosen tag. `profile_json` must be
    /// the output of `QueryProfile::to_json` (already valid JSON).
    pub fn row(&mut self, tag: &str, profile_json: &str) {
        writeln!(
            self.file,
            "{{\"tag\":{},\"profile\":{profile_json}}}",
            json_string(tag)
        )
        .unwrap();
    }

    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

/// The standard experiment banner: title and parameters between two rules.
pub fn banner_text(what: &str, detail: &str) -> String {
    let rule = "================================================================";
    format!("{rule}\n{what}\n{detail}\n{rule}")
}

/// Print a standard experiment banner.
pub fn banner(what: &str, detail: &str) {
    println!("{}", banner_text(what, detail));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_flags_and_reps_zero_are_errors_not_silent_defaults() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let known = ["reps", "threads", "quick"];
        let err = Args::parse_from(&argv("--rep 5"), &known).err().unwrap();
        assert!(
            err.contains("unknown flag --rep") && err.contains("--reps"),
            "{err}"
        );
        assert!(Args::parse_from(&argv("--thread 8"), &known).is_err());
        assert!(Args::parse_from(&argv("--reps 0"), &known).is_err());
        let err = Args::parse_from(&argv("--threads 0"), &known)
            .err()
            .unwrap();
        assert!(
            err.contains("--threads must be a positive integer"),
            "{err}"
        );
        assert!(Args::parse_from(&argv("--threads two"), &known).is_err());
        let args = Args::parse_from(&argv("fig14 --reps 5 --quick"), &known).unwrap();
        assert_eq!(
            (args.usize("reps", 3), args.flag("quick"), args.words.len()),
            (5, true, 1)
        );
    }

    #[test]
    fn fmt_si_ranges() {
        assert_eq!(fmt_si(1.62e9), "1.62 G");
        assert_eq!(fmt_si(431.4e6), "431.4 M");
        assert_eq!(fmt_si(12_345.0), "12.3 k");
        assert_eq!(fmt_si(3.2), "3.2");
    }

    #[test]
    fn fmt_bytes_ranges() {
        assert_eq!(fmt_bytes(42), "42 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(256 * 1024 * 1024), "256.0 MiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.0 GiB");
    }

    #[test]
    fn measure_returns_median_and_result() {
        let mut calls = 0;
        let (d, r) = measure(5, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 5);
        assert_eq!(r, 5);
        assert!(d.as_nanos() > 0 || d.as_nanos() == 0); // duration is valid
    }

    #[test]
    fn throughput_math() {
        let d = Duration::from_millis(500);
        assert!((throughput(1_000_000, d) - 2_000_000.0).abs() < 1.0);
    }
}
