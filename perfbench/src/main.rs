//! The repository benchmark: four workloads (two hierarchical fits, two
//! serving mixes) driven only through the workspace's public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit-l1-census --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every answer against a reference, and prints one JSON object as
//! its last stdout line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from benchmark-side spans, exported as a Chrome
//! trace) with `--trace 1`. See `perfbench/README.md`.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads /proc/self and getrusage(2): Linux only");

mod fit;
mod layers;
mod probe;
mod report;
mod serve;
mod stats;

use report::Metrics;
use std::time::{Duration, Instant};

/// An untraced run measures in this many equal segments, with a slot of
/// set-ups after each, so `setup_s` samples the same host phases as the
/// latency samples instead of only the run's ends. `peak_rss_mb` is read
/// after the first segment, before any repeated set-up: the repeats exist
/// only to time set-up, and the buffers they free leave the heap
/// fragmented, which raised the high-water mark by up to 30 MB over a run.
pub const SEGMENTS: u32 = 16;
/// How long one set-up slot repeats the set-up (at least once).
pub const SETUP_SLOT: Duration = Duration::from_millis(150);

/// One set-up slot: run `setup` (returning its wall seconds) for
/// `SETUP_SLOT`, at least once, appending every wall time to `times`.
pub fn setup_slot(times: &mut Vec<f64>, mut setup: impl FnMut() -> f64) {
    let start = Instant::now();
    loop {
        times.push(setup());
        if start.elapsed() >= SETUP_SLOT {
            break;
        }
    }
}

/// One benchmark invocation's settings.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Self-test hook: corrupt the verified reference so every checked op
    /// must fail (proves the checks are not vacuous).
    pub corrupt_reference: bool,
}

/// What a workload run hands back to `main` for the result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when the reference itself failed verification.
    pub reference_ok: bool,
    pub metrics: Metrics,
    /// Raw latency samples behind the reported quantiles.
    pub samples: usize,
    /// Path of the exported Chrome trace (traced runs only).
    pub trace_file: Option<String>,
}

enum Workload {
    Fit(&'static fit::FitWorkload),
    Serve(&'static serve::ServeWorkload),
}

const WORKLOADS: [Workload; 4] = [
    Workload::Fit(&fit::L1_CENSUS),
    Workload::Fit(&fit::L3_CENSUS),
    Workload::Serve(&serve::LONE),
    Workload::Serve(&serve::SCAN_SWAP),
];

impl Workload {
    fn name(&self) -> &'static str {
        match self {
            Workload::Fit(w) => w.name,
            Workload::Serve(w) => w.name,
        }
    }

    /// Threads the load generation runs: fit ranks or serve clients.
    fn load_threads(&self) -> usize {
        match self {
            Workload::Fit(w) => w.ranks,
            Workload::Serve(w) => w.clients,
        }
    }

    fn run(&self, args: &RunArgs) -> Outcome {
        match self {
            Workload::Fit(w) => fit::run(w, args),
            Workload::Serve(w) => serve::run(w, args),
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <1..=60> --trace <0|1> \
         [--corrupt-reference]",
        WORKLOADS.map(|w| w.name()).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (&'static Workload, RunArgs) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: u64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(1..=60).contains(&s) {
                    usage("--seconds must be 1..=60");
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let run = RunArgs {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        corrupt_reference,
    };
    (workload, run)
}

/// The commit the checkout was made from, read straight from `.git` (no
/// `git` process, nothing read outside the checkout); `unknown` in an
/// exported tree.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{refname}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(refname)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let (workload, run) = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = workload.load_threads();
    // Load-shape guard: more ranks or clients than cores measures the
    // scheduler, not the program (an 8-rank fit on 2 cores inflated the
    // update phase 4x).
    if threads > nproc {
        eprintln!(
            "perfbench: {} needs {threads} load threads but the host has {nproc} cores; \
             refusing to measure an oversubscribed configuration",
            workload.name()
        );
        std::process::exit(3);
    }
    let out = workload.run(&run);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} \
         load_threads={threads} rustc=\"{}\" commit={} samples={} attempted={} failed={}{}",
        workload.name(),
        run.seed,
        run.seconds.as_secs(),
        u8::from(run.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
        commit(),
        out.samples,
        out.attempted,
        out.failed,
        out.trace_file
            .as_ref()
            .map(|f| format!(" trace_file={f}"))
            .unwrap_or_default(),
    );
    let declared = if run.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let correct = out.reference_ok && out.failed == 0;
    println!(
        "{}",
        report::result_json(correct, out.attempted, out.failed, out.metrics, declared)
    );
}
