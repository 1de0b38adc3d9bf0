//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper:
//! it prints the same rows/series the paper reports and writes a JSON record
//! file under `results/`. Pass `--quick` (or set `MESHCOLL_QUICK=1`) for a
//! reduced sweep that finishes in seconds; pass `--full` for the paper's
//! complete parameter ranges.

use std::fmt;
use std::path::PathBuf;

pub use meshcoll_collectives::{Algorithm, ScheduleOptions};
pub use meshcoll_models::DnnModel;
pub use meshcoll_noc::NocConfig;
pub use meshcoll_sim::experiment::{write_json, Record};
pub use meshcoll_sim::{SimContext, SimEngine, SweepRunner};
pub use meshcoll_topo::Mesh;

/// Sweep size selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepSize {
    /// Seconds-scale sanity sweep.
    Quick,
    /// Default: every qualitative feature of the figure, minutes-scale.
    Default,
    /// The paper's complete ranges.
    Full,
}

/// A malformed figure-binary invocation: the offending knob and value are
/// carried so callers (and the unit tests) can match on exactly what was
/// rejected, instead of parse failures silently collapsing to a default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The thread-count knob (`--jobs`/`MESHCOLL_JOBS`) received `0`, a
    /// non-integer, or an out-of-range value. Thread counts must be
    /// `>= 1`; omit the knob entirely for its default.
    InvalidThreadCount {
        /// The flag or environment variable that was set.
        knob: &'static str,
        /// The rejected value, verbatim.
        value: String,
    },
    /// A synthesis knob (`--seed`, `--beam-width`, `--anneal-iters`)
    /// received `0`, a non-integer, or an out-of-range value. Like the
    /// thread counts, a literal `0` is rejected rather than reinterpreted:
    /// a zero-width beam or zero-iteration search is a misconfiguration,
    /// and the seed's default is expressed by omitting the knob.
    InvalidSearchKnob {
        /// The flag that was set.
        knob: &'static str,
        /// The rejected value, verbatim.
        value: String,
    },
    /// A flag that requires a value was the last argument.
    MissingValue {
        /// The flag missing its operand.
        flag: &'static str,
    },
    /// An argument no figure binary accepts.
    UnknownArgument {
        /// The argument, verbatim.
        arg: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::InvalidThreadCount { knob, value }
            | CliError::InvalidSearchKnob { knob, value } => write!(
                f,
                "{knob} must be an integer >= 1, got {value:?} \
                 (omit the knob for its default)"
            ),
            CliError::MissingValue { flag } => write!(f, "{flag} needs a value"),
            CliError::UnknownArgument { arg } => write!(
                f,
                "unknown argument {arg}; accepted: --quick --full --out <dir> \
                 --jobs <n> --gate <file> --seed <n> \
                 --beam-width <n> --anneal-iters <n>"
            ),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses a thread-count knob: an integer `>= 1`. `0` is rejected rather
/// than treated as "auto" — auto is expressed by omitting the knob, so a
/// literal `0` (or garbage) in a CI file is surfaced instead of silently
/// becoming machine parallelism.
fn thread_count(knob: &'static str, value: &str) -> Result<usize, CliError> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(CliError::InvalidThreadCount {
            knob,
            value: value.to_string(),
        }),
    }
}

/// Parses a synthesis knob: an integer `>= 1`, same contract as
/// [`thread_count`]. The `--seed` default is a fixed constant, not entropy,
/// so searches are reproducible unless a seed is given explicitly.
fn search_knob(knob: &'static str, value: &str) -> Result<u64, CliError> {
    match value.trim().parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(CliError::InvalidSearchKnob {
            knob,
            value: value.to_string(),
        }),
    }
}

/// Command-line context shared by all figure binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Selected sweep size.
    pub sweep: SweepSize,
    /// Output directory for JSON records (default `results/`).
    pub out_dir: PathBuf,
    /// Worker threads for sweep execution (`0` = machine parallelism,
    /// the default when the knob is omitted; an explicit `0` is rejected
    /// at parse time).
    pub jobs: usize,
    /// Committed baseline to gate against (`--gate <file>`); used by
    /// `perf_baseline` to fail CI on wall-clock regressions.
    pub gate: Option<PathBuf>,
    /// Master RNG seed for the schedule-synthesis search (`--seed <n>`,
    /// `>= 1`; the default is a fixed constant so runs reproduce).
    pub seed: u64,
    /// Beam width for the schedule-synthesis search (`--beam-width <n>`).
    pub beam_width: usize,
    /// Annealing iterations for the schedule-synthesis search
    /// (`--anneal-iters <n>`).
    pub anneal_iters: usize,
}

impl Cli {
    /// Parses `--quick` / `--full` / `--out <dir>` / `--jobs <n>` /
    /// `--gate <file>` from `std::env::args`, plus the `MESHCOLL_QUICK`
    /// and `MESHCOLL_JOBS` environment variables. Exits with status 2 on a
    /// malformed invocation (see [`Cli::try_parse_from`] for the typed
    /// form).
    pub fn parse() -> Self {
        let env = |k: &str| std::env::var(k).ok();
        Cli::try_parse_from(
            std::env::args().skip(1),
            env("MESHCOLL_QUICK").is_some(),
            env("MESHCOLL_JOBS"),
        )
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// The testable core of [`Cli::parse`]: arguments and environment are
    /// passed explicitly, malformed input comes back as a typed
    /// [`CliError`] instead of a process exit.
    ///
    /// # Errors
    ///
    /// [`CliError::InvalidThreadCount`] when `--jobs`/`MESHCOLL_JOBS` is
    /// `0` or not an integer, [`CliError::MissingValue`] when a
    /// value-taking flag ends the argument list, and
    /// [`CliError::UnknownArgument`] otherwise.
    pub fn try_parse_from<I>(
        args: I,
        env_quick: bool,
        env_jobs: Option<String>,
    ) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut sweep = if env_quick {
            SweepSize::Quick
        } else {
            SweepSize::Default
        };
        let mut out_dir = PathBuf::from("results");
        let mut jobs = match env_jobs {
            Some(v) => thread_count("MESHCOLL_JOBS", &v)?,
            None => 0,
        };
        let mut gate = None;
        let mut seed = DEFAULT_SEED;
        let mut beam_width = DEFAULT_BEAM_WIDTH;
        let mut anneal_iters = DEFAULT_ANNEAL_ITERS;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => sweep = SweepSize::Quick,
                "--full" => sweep = SweepSize::Full,
                "--gate" => {
                    gate = Some(PathBuf::from(
                        args.next()
                            .ok_or(CliError::MissingValue { flag: "--gate" })?,
                    ));
                }
                "--out" => {
                    out_dir = PathBuf::from(
                        args.next()
                            .ok_or(CliError::MissingValue { flag: "--out" })?,
                    );
                }
                "--jobs" => {
                    let v = args
                        .next()
                        .ok_or(CliError::MissingValue { flag: "--jobs" })?;
                    jobs = thread_count("--jobs", &v)?;
                }
                "--seed" => {
                    let v = args
                        .next()
                        .ok_or(CliError::MissingValue { flag: "--seed" })?;
                    seed = search_knob("--seed", &v)?;
                }
                "--beam-width" => {
                    let v = args.next().ok_or(CliError::MissingValue {
                        flag: "--beam-width",
                    })?;
                    beam_width = search_knob("--beam-width", &v)? as usize;
                }
                "--anneal-iters" => {
                    let v = args.next().ok_or(CliError::MissingValue {
                        flag: "--anneal-iters",
                    })?;
                    anneal_iters = search_knob("--anneal-iters", &v)? as usize;
                }
                _ => return Err(CliError::UnknownArgument { arg: a }),
            }
        }
        Ok(Cli {
            sweep,
            out_dir,
            jobs,
            gate,
            seed,
            beam_width,
            anneal_iters,
        })
    }

    /// A [`SweepRunner`] honoring this invocation's `--jobs` selection.
    pub fn runner(&self) -> SweepRunner {
        SweepRunner::new(self.jobs)
    }

    /// Writes this figure's records to `<out_dir>/<name>.json`.
    ///
    /// # Panics
    ///
    /// Panics on filesystem errors (acceptable in a figure binary).
    pub fn save(&self, name: &str, records: &[Record]) {
        let path = self.out_dir.join(format!("{name}.json"));
        write_json(&path, records).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("\n[saved {} records to {}]", records.len(), path.display());
    }
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            sweep: SweepSize::Default,
            out_dir: PathBuf::from("results"),
            jobs: 0,
            gate: None,
            seed: DEFAULT_SEED,
            beam_width: DEFAULT_BEAM_WIDTH,
            anneal_iters: DEFAULT_ANNEAL_ITERS,
        }
    }
}

/// Default `--seed`: a fixed constant, matching
/// [`meshcoll_sim::synth::SynthConfig::quick`], so searches reproduce.
pub const DEFAULT_SEED: u64 = 0xC0_FFEE;
/// Default `--beam-width`.
pub const DEFAULT_BEAM_WIDTH: usize = 8;
/// Default `--anneal-iters`.
pub const DEFAULT_ANNEAL_ITERS: usize = 12;

/// Mebibytes to bytes.
pub const fn mib(x: u64) -> u64 {
    x << 20
}

/// Kibibytes to bytes.
pub const fn kib(x: u64) -> u64 {
    x << 10
}

/// Human-readable byte size for row labels.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{}GB", b >> 30)
    } else if b >= 1 << 20 {
        format!("{}MB", b >> 20)
    } else {
        format!("{}KB", b >> 10)
    }
}

/// Prints a separator line sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// The algorithms applicable to `mesh`, in the paper's figure order.
pub fn applicable_benchmarks(mesh: &Mesh) -> Vec<Algorithm> {
    Algorithm::BENCHMARKS
        .into_iter()
        .filter(|a| a.applicability(mesh) != meshcoll_collectives::Applicability::Inapplicable)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(kib(12)), "12KB");
        assert_eq!(fmt_bytes(mib(64)), "64MB");
        assert_eq!(fmt_bytes(1 << 30), "1GB");
    }

    #[test]
    fn applicable_benchmarks_follow_parity() {
        let even = Mesh::square(4).unwrap();
        let odd = Mesh::square(5).unwrap();
        let names =
            |m: &Mesh| -> Vec<&str> { applicable_benchmarks(m).iter().map(|a| a.name()).collect() };
        assert!(names(&even).contains(&"RingBiEven"));
        assert!(!names(&even).contains(&"RingBiOdd"));
        assert!(names(&odd).contains(&"RingBiOdd"));
        assert!(!names(&odd).contains(&"RingBiEven"));
        // HDRM never appears.
        assert!(!names(&even).contains(&"HDRM"));
    }

    #[test]
    fn default_cli_targets_results_dir() {
        let cli = Cli::default();
        assert_eq!(cli.sweep, SweepSize::Default);
        assert_eq!(cli.out_dir, std::path::PathBuf::from("results"));
        assert_eq!(cli.jobs, 0, "default = machine parallelism");
        assert!(cli.runner().jobs() >= 1);
    }

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        Cli::try_parse_from(args.iter().map(|s| (*s).to_string()), false, None)
    }

    #[test]
    fn thread_knobs_parse_valid_values() {
        let cli = parse(&["--jobs", "4"]).expect("valid");
        assert_eq!(cli.jobs, 4);
        let cli =
            Cli::try_parse_from(std::iter::empty(), true, Some("3".into())).expect("valid env");
        assert_eq!(cli.sweep, SweepSize::Quick);
        assert_eq!(cli.jobs, 3);
    }

    #[test]
    fn thread_knobs_reject_zero_and_garbage() {
        for bad in ["0", "-1", "two", "", "1.5"] {
            assert_eq!(
                parse(&["--jobs", bad]),
                Err(CliError::InvalidThreadCount {
                    knob: "--jobs",
                    value: bad.to_string(),
                }),
                "--jobs {bad:?} must be rejected"
            );
            assert!(matches!(
                Cli::try_parse_from(std::iter::empty(), false, Some(bad.to_string())),
                Err(CliError::InvalidThreadCount {
                    knob: "MESHCOLL_JOBS",
                    ..
                })
            ));
        }
    }

    #[test]
    fn cli_rejects_trailing_flags_and_unknown_args() {
        assert_eq!(
            parse(&["--jobs"]),
            Err(CliError::MissingValue { flag: "--jobs" })
        );
        assert_eq!(
            parse(&["--frobnicate"]),
            Err(CliError::UnknownArgument {
                arg: "--frobnicate".to_string(),
            })
        );
        let msg = parse(&["--jobs", "0"]).expect_err("rejected").to_string();
        assert!(msg.contains("--jobs"), "error names the knob: {msg}");
    }

    #[test]
    fn search_knobs_parse_valid_values() {
        let cli =
            parse(&["--seed", "7", "--beam-width", "12", "--anneal-iters", "30"]).expect("valid");
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.beam_width, 12);
        assert_eq!(cli.anneal_iters, 30);
        // Omitted knobs keep their reproducible defaults.
        let cli = parse(&[]).expect("valid");
        assert_eq!(cli.seed, DEFAULT_SEED);
        assert_eq!(cli.beam_width, DEFAULT_BEAM_WIDTH);
        assert_eq!(cli.anneal_iters, DEFAULT_ANNEAL_ITERS);
    }

    #[test]
    fn search_knobs_reject_zero_and_garbage() {
        for knob in ["--seed", "--beam-width", "--anneal-iters"] {
            for bad in ["0", "-1", "wide", "", "2.5"] {
                assert_eq!(
                    parse(&[knob, bad]),
                    Err(CliError::InvalidSearchKnob {
                        knob,
                        value: bad.to_string(),
                    }),
                    "{knob} {bad:?} must be rejected"
                );
            }
            assert!(
                matches!(parse(&[knob]), Err(CliError::MissingValue { flag }) if flag == knob),
                "trailing {knob} must be rejected"
            );
            let msg = parse(&[knob, "0"]).expect_err("rejected").to_string();
            assert!(msg.contains(knob), "error names the knob: {msg}");
        }
    }
}
