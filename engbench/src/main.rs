//! End-to-end and per-layer benchmark of the MaxNVM fault-injection
//! engine.
//!
//! ```sh
//! cargo run --release --manifest-path engbench/Cargo.toml -- \
//!     --workload lenet5_dse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root: the run checks the metric names it
//! reports against `BENCHMARK.json` and keeps its scratch files under
//! `.bench_work/`. With `--trace 0` it drives the workload through the
//! engine's entry points and prints every end-to-end metric; with
//! `--trace 1` it makes one engine call untraced, through timing
//! wrappers, and untraced again, replays a sample of its trials on one
//! thread layer by layer, and prints every per-layer metric, writing the
//! spans to
//! `.bench_work/trace/`. Either way it checks the engine's outputs and
//! exits non-zero on any mismatch. See `engbench/README.md`.

mod campaign;
mod dse;
mod mirror;
mod per_layer;
mod report;
mod stats;
mod streams;
mod sys;
mod trace;
mod vgg12;
mod wrappers;

use rand::{Rng, SeedableRng};
use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage: engbench --workload <vgg12_campaign|lenet_streams|lenet5_dse> \
                     --seed <n> --seconds <n> --trace <0|1>";

const WORKLOADS: [&str; 3] = ["vgg12_campaign", "lenet_streams", "lenet5_dse"];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    /// Drives every campaign, stream and sweep seed of the run.
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 20.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err(format!("--seconds must be positive, not {}", args.seconds));
        }
        Ok(args)
    }
}

/// The run's scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(args: &Args) -> Self {
        let dir =
            Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Self(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where a traced run writes its spans.
pub fn span_file(args: &Args) -> PathBuf {
    Path::new(".bench_work")
        .join("trace")
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed))
}

/// Builds the workload's model repeatedly — at least three times and
/// until a second has passed, at most nine — and returns the last build
/// with the median build time.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut model = None;
    while times.len() < 3 || (times.len() < 9 && start.elapsed().as_secs_f64() < 1.0) {
        drop(model.take()); // free the previous build before timing the next
        let t = Instant::now();
        model = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (model.expect("built at least once"), stats::median(&times))
}

/// Runs `call(i)` for i = 0, 1, … until `seconds` have passed and at
/// least `min_calls` calls were made.
pub fn repeat_calls(seconds: f64, min_calls: usize, mut call: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_calls || start.elapsed().as_secs_f64() < seconds {
        call(i);
        i += 1;
    }
}

/// The base seed of call `call` of a run seeded `seed`, spaced so no two
/// calls share a trial seed.
pub fn call_seed(seed: u64, call: usize) -> u64 {
    seed.wrapping_mul(1 << 32).wrapping_add((call as u64) << 16)
}

/// `k` distinct indices below `n`, ascending, drawn from `seed`.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed_5a3b_1e5a_0001);
    let mut all: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        all.swap(i, j);
    }
    let mut out = all[..k].to_vec();
    out.sort_unstable();
    out
}

/// The tail timing the percentile rule allows for `values`: the highest
/// ladder percentile with ten samples beyond it, or the median when even
/// the median has fewer.
pub fn tail(values: &[f64]) -> f64 {
    match stats::reportable_percentile(values.len()) {
        Some(p) => stats::percentile(values, p),
        None => stats::median(values),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("engbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = match report::declared_metrics(Path::new("BENCHMARK.json"), section) {
        Ok(names) if !names.is_empty() => names,
        _ => {
            eprintln!(
                "engbench: no {section} metrics in ./BENCHMARK.json; run from the repository root"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "engbench: workload {} seed {} seconds {} trace {} ({} cpus)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc()
    );
    let work = WorkDir::new(&args);
    let mut report: Report = match args.workload.as_str() {
        "vgg12_campaign" => vgg12::run(&args, &work.0),
        "lenet_streams" => streams::run(&args, &work.0),
        _ => dse::run(&args, &work.0),
    };
    if !args.trace {
        report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
        let failed_ratio = report.tally.failed_ratio();
        println!(
            "failed_ratio = {failed_ratio} ({} of {} trials)",
            report.tally.failed, report.tally.attempted
        );
        report.metric("completed_ratio", 1.0 - failed_ratio, "ratio");
    }
    report.check_names(&declared, section);
    drop(work);
    report.print_table();
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a = parse("--workload lenet5_dse --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "lenet5_dse".into(),
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload lenet5_dse --trace 2").is_err());
        assert!(parse("--workload lenet5_dse --seconds 0").is_err());
        assert!(parse("--workload lenet5_dse --seed").is_err());
    }

    #[test]
    fn samples_are_distinct_sorted_and_seeded() {
        let a = sample_indices(3, 100, 10);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[9] < 100);
        assert_eq!(a, sample_indices(3, 100, 10));
        assert_ne!(a, sample_indices(4, 100, 10));
        assert_eq!(sample_indices(1, 3, 10), vec![0, 1, 2]);
    }

    #[test]
    fn tail_follows_the_percentile_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), 90.0);
        assert_eq!(tail(&v[..4]), 2.5);
    }

    #[test]
    fn call_seeds_do_not_overlap() {
        assert_ne!(call_seed(1, 0), call_seed(1, 1));
        assert_ne!(call_seed(1, 0), call_seed(2, 0));
        assert!(call_seed(1, 1) - call_seed(1, 0) >= 1 << 16);
    }
}
