//! Training workloads: one op is one whole `HierKMeans::fit` of about a
//! second at a scaled paper shape, with two ranks (one per core).

use crate::layers::{self, span_median};
use crate::probe::{peak_rss_mb, self_ms, usage, Probe, ThreadSampler};
use crate::report::Metrics;
use crate::stats::{median, quantile, sorted};
use crate::{Outcome, RunArgs, SEGMENTS};
use datasets::us_census_1990;
use hier_kmeans::{label_checksum, HierKMeans, HierResult, IterTiming, Level};
use kmeans_core::{
    assign_step, init_centroids, AssignKernel, BoundsMode, InitMethod, KMeansConfig, Lloyd, Matrix,
};
use msg::OpKind;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swkm_obs::TraceBuffer;

pub struct FitWorkload {
    pub name: &'static str,
    pub level: Level,
    /// SPMD ranks (virtual CPEs for L1, CGs for L3).
    pub ranks: usize,
    pub group_units: usize,
    pub cpes_per_cg: usize,
    /// Samples of the US Census 1990 stand-in (d = 68).
    pub n: usize,
    pub k: usize,
    /// Fixed iteration count (`tol = 0`).
    pub iters: usize,
    pub bounds: BoundsMode,
}

/// L1 n-partition (Fig 3 scaled): kernel and bounds filter dominate.
pub const L1_CENSUS: FitWorkload = FitWorkload {
    name: "fit-l1-census",
    level: Level::L1,
    ranks: 2,
    group_units: 1,
    cpes_per_cg: 1,
    n: 32_768,
    k: 64,
    iters: 30,
    bounds: BoundsMode::Auto,
};

/// L3 nkd-partition on the same data: k split over both ranks, so every
/// iteration runs the dimension exchange and a min-loc merge of n keys.
/// (The ImageNet shape, d = 3072, was too unsteady on a shared host: its
/// fit latency spread 13-39% of the median across runs.)
pub const L3_CENSUS: FitWorkload = FitWorkload {
    name: "fit-l3-census",
    level: Level::L3,
    ranks: 2,
    group_units: 2,
    cpes_per_cg: 8,
    n: 32_768,
    k: 64,
    iters: 50,
    bounds: BoundsMode::None,
};

const KERNEL: AssignKernel = AssignKernel::Gemm;

impl FitWorkload {
    fn fitter(&self, trace: Option<&Arc<TraceBuffer>>) -> HierKMeans {
        let f = HierKMeans::new(self.level)
            .with_units(self.ranks)
            .with_group_units(self.group_units)
            .with_cpes_per_cg(self.cpes_per_cg)
            .with_kernel(KERNEL)
            .with_bounds(self.bounds)
            .with_max_iters(self.iters)
            .with_tol(0.0);
        match trace {
            Some(buf) => f.with_trace(Arc::clone(buf)),
            None => f,
        }
    }
}

/// What every op must reproduce bit for bit.
struct Expected {
    checksum: u32,
    objective_bits: u64,
    iterations: usize,
}

/// Fit once and verify the result against serial Lloyd at the same init,
/// kernel and iteration count: labels, centroid bits and objective bits.
fn reference(w: &FitWorkload, data: &Matrix<f32>, init: &Matrix<f32>) -> Result<Expected, String> {
    let fit = w
        .fitter(None)
        .fit(data, init.clone())
        .map_err(|e| format!("reference fit: {e}"))?;
    let config = KMeansConfig::new(w.k)
        .with_max_iters(w.iters)
        .with_tol(0.0)
        .with_kernel(KERNEL);
    let lloyd = Lloyd::run_from(data, init.clone(), &config).map_err(|e| format!("lloyd: {e}"))?;
    let bits = |m: &Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if fit.labels != lloyd.labels
        || bits(&fit.centroids) != bits(&lloyd.centroids)
        || fit.objective.to_bits() != lloyd.objective.to_bits()
        || fit.iterations != lloyd.iterations
    {
        return Err("reference fit differs from serial Lloyd".into());
    }
    Ok(Expected {
        checksum: label_checksum(&fit.labels),
        objective_bits: fit.objective.to_bits(),
        iterations: fit.iterations,
    })
}

/// Timed fits, each checked against `expect`, accumulated over the
/// measured segments.
#[derive(Default)]
struct Ops {
    walls_s: Vec<f64>,
    results: Vec<HierResult<f32>>,
    failed: u64,
    /// Wall time of the fits (set-up slots between them excluded).
    window_s: f64,
}

impl Ops {
    /// Fit until the fits so far have taken `until` (at least once).
    fn measure(
        &mut self,
        fitter: &HierKMeans,
        data: &Matrix<f32>,
        init: &Matrix<f32>,
        expect: Option<&Expected>,
        until: Duration,
        probe: &Probe,
    ) {
        while self.walls_s.is_empty() || self.window_s < until.as_secs_f64() {
            let start = Instant::now();
            let init = init.clone();
            let (fit, wall) = probe.time("hier-kmeans.fit", || fitter.fit(data, init));
            self.walls_s.push(wall);
            match (fit, expect) {
                (Ok(r), Some(e))
                    if label_checksum(&r.labels) == e.checksum
                        && r.objective.to_bits() == e.objective_bits
                        && r.iterations == e.iterations =>
                {
                    self.results.push(r)
                }
                (Ok(r), _) => {
                    self.failed += 1;
                    self.results.push(r);
                }
                (Err(e), _) => {
                    eprintln!("perfbench: fit failed: {e}");
                    self.failed += 1;
                }
            }
            self.window_s += start.elapsed().as_secs_f64();
        }
    }
}

/// Critical-path per-iteration walls of one fit, in ms, ascending.
fn iteration_walls_ms(r: &HierResult<f32>) -> Vec<f64> {
    sorted(
        (0..r.trace.iterations())
            .map(|i| r.trace.iter_critical(i).wall * 1e3)
            .collect(),
    )
}

/// The fit tail: each fit's `q`-quantile iteration wall, median over the
/// fits. (Pooling all iterations instead swings with host phases that
/// slow a few whole fits.)
fn iteration_tail_ms(results: &[HierResult<f32>], q: f64) -> f64 {
    median(
        &results
            .iter()
            .map(|r| quantile(&iteration_walls_ms(r), q))
            .collect::<Vec<_>>(),
    )
}

/// Generate the data and the k-means++ init; returns them with the wall
/// time in seconds.
fn setup(w: &FitWorkload, seed: u64, probe: &Probe) -> (Matrix<f32>, Matrix<f32>, f64) {
    let t0 = Instant::now();
    let (data, _) = probe.time("datasets.generate", || us_census_1990().generate(w.n));
    let (init, _) = probe.time("kmeans-core.init_centroids", || {
        init_centroids(&data, w.k, InitMethod::KMeansPlusPlus, seed)
    });
    (data, init, t0.elapsed().as_secs_f64())
}

pub fn run(w: &FitWorkload, args: &RunArgs) -> Outcome {
    let probe = Probe::new(args.trace);
    // The first set-up's inputs are the measured ones; the rest of the
    // slots only time the set-up again.
    let (data, init, first_s) = setup(w, args.seed, &probe);
    let mut setup_s = vec![first_s];
    let mut setup_slot = || crate::setup_slot(&mut setup_s, || setup(w, args.seed, &probe).2);

    // The reference fit doubles as the warm-up.
    let expect = match reference(w, &data, &init) {
        Ok(mut e) => {
            if args.corrupt_reference {
                e.checksum ^= 1;
            }
            Some(e)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            None
        }
    };

    let mut m = Metrics::default();
    let outcome = |ops_failed: u64, ops: usize, m: Metrics, trace_file| Outcome {
        attempted: ops as u64,
        // Without a verified reference no op can be shown correct.
        failed: if expect.is_some() {
            ops_failed
        } else {
            ops as u64
        },
        reference_ok: expect.is_some(),
        metrics: m,
        samples: ops,
        trace_file,
    };

    if !args.trace {
        let fitter = w.fitter(None);
        let mut ops = Ops::default();
        for segment in 1..=SEGMENTS {
            let until = args.seconds * segment / SEGMENTS;
            ops.measure(&fitter, &data, &init, expect.as_ref(), until, &probe);
            if segment == 1 {
                m.set("peak_rss_mb", peak_rss_mb());
            }
            setup_slot();
        }
        m.set("setup_s", median(&setup_s));
        m.set("latency_p50_ms", median(&ops.walls_s) * 1e3);
        return outcome(ops.failed, ops.walls_s.len(), m, None);
    }

    // Traced run: untraced half (overhead baseline and process counters),
    // then the traced half, then the layer probes.
    let buf = probe.buffer().expect("traced run has a buffer");
    let half = args.seconds / 2;
    let (mut plain, mut traced) = (Ops::default(), Ops::default());
    probe.set_recording(false);
    let u0 = usage();
    plain.measure(&w.fitter(None), &data, &init, expect.as_ref(), half, &probe);
    let u1 = usage();
    // Polled during the traced half only, so the poller's own CPU time and
    // wake-ups stay out of the process counters above.
    let threads = ThreadSampler::start();
    probe.set_recording(true);
    let fitter = w.fitter(Some(buf));
    traced.measure(&fitter, &data, &init, expect.as_ref(), half, &probe);
    m.set("proc.threads_peak", threads.finish());
    setup_slot();
    let plain_ops = plain.walls_s.len() as f64;
    m.set(
        "proc.cpu_ms_per_op",
        (u1.cpu_s - u0.cpu_s) * 1e3 / plain_ops,
    );
    m.set(
        "proc.ctx_switches_per_op",
        (u1.ctx_switches - u0.ctx_switches) as f64 / plain_ops,
    );
    let p50_plain = median(&plain.walls_s) * 1e3;
    let p50_traced = median(&traced.walls_s) * 1e3;
    m.set("trace.latency_p50_ms", p50_traced);
    m.set("trace.overhead_pct", (p50_traced / p50_plain - 1.0) * 100.0);
    let samples = plain.walls_s.len() + traced.walls_s.len();
    m.set("bench.latency_samples", samples as f64);
    m.set(
        "bench.latency_p90_ms",
        iteration_tail_ms(&plain.results, 0.9),
    );
    m.set(
        "bench.latency_p99_ms",
        iteration_tail_ms(&plain.results, 0.99),
    );
    let sample_iters: usize = plain.results.iter().map(|r| w.n * r.iterations).sum();
    m.set(
        "bench.throughput_per_s",
        sample_iters as f64 / plain.window_s,
    );

    let results = &traced.results;
    let fit = results.first().or(plain.results.first());
    let fit = fit.expect("at least one fit completed");
    let per_fit =
        |f: &dyn Fn(&HierResult<f32>) -> f64| median(&results.iter().map(f).collect::<Vec<_>>());
    type Phase = fn(&IterTiming) -> f64;
    let phases: [(&'static str, Phase); 5] = [
        ("hier-kmeans.iter_ms", |t| t.wall),
        ("hier-kmeans.assign_ms", |t| t.assign),
        ("hier-kmeans.merge_ms", |t| t.merge),
        ("hier-kmeans.update_ms", |t| t.update),
        ("hier-kmeans.exchange_ms", |t| t.exchange),
    ];
    for (name, phase) in phases {
        // Mean per iteration of the critical path, median over the fits.
        m.set(
            name,
            per_fit(&|r| {
                let it = r.trace.iterations();
                (0..it)
                    .map(|i| phase(&r.trace.iter_critical(i)))
                    .sum::<f64>()
                    * 1e3
                    / it as f64
            }),
        );
    }
    m.set(
        "hier-kmeans.assign_imbalance",
        per_fit(&|r| r.trace.assign_imbalance()),
    );
    m.set("kmeans-core.bounds_savings", fit.bounds.savings());
    m.set(
        "kmeans-core.distance_evals",
        fit.bounds.distance_evals as f64,
    );
    let iters = fit.iterations as f64;
    let comm = &fit.comm;
    let (ar, ml) = (OpKind::AllReduce, OpKind::MinLoc);
    for (bytes_name, messages_name, bytes, messages) in [
        (
            "msg.bytes_per_iter.allreduce",
            "msg.messages_per_iter.allreduce",
            comm.bytes_of(ar),
            comm.messages_of(ar),
        ),
        (
            "msg.bytes_per_iter.minloc",
            "msg.messages_per_iter.minloc",
            comm.bytes_of(ml),
            comm.messages_of(ml),
        ),
        (
            "msg.bytes_per_iter.total",
            "msg.messages_per_iter.total",
            comm.total_bytes(),
            comm.total_messages(),
        ),
    ] {
        m.set(bytes_name, bytes as f64 / iters);
        m.set(messages_name, messages as f64 / iters);
    }

    // Layer probes at this workload's shape.
    let centroids = &fit.centroids;
    let (n, k, d) = (w.n, w.k, data.cols());
    // One rank's panel: L1 stripes samples over the ranks; L3 with one
    // group splits the centroids instead.
    let groups = (w.ranks / w.group_units).max(1);
    let (srows, crows) = match w.level {
        Level::L1 => (0..n / w.ranks, 0..k),
        _ => (0..n / groups, 0..k / w.group_units),
    };
    let gflops: Vec<f64> = (0..5)
        .map(|_| {
            layers::assign_probe(
                &probe,
                KERNEL,
                &data,
                srows.clone(),
                centroids,
                crows.clone(),
                3,
            )
        })
        .collect();
    m.set("kmeans-core.assign_gflops", median(&gflops));
    let mut labels = vec![0u32; n];
    for _ in 0..3 {
        probe.time("kmeans-core.assign_step", || {
            assign_step(&data, centroids, &mut labels)
        });
    }
    layers::msg_probe(&probe, k * d + k, n, 20);

    let events = probe.events();
    m.set(
        "datasets.generate_ms",
        span_median(&events, "datasets.generate", 1.0),
    );
    m.set(
        "kmeans-core.init_ms",
        span_median(&events, "kmeans-core.init_centroids", 1.0),
    );
    m.set(
        "kmeans-core.assign_step_ms",
        span_median(&events, "kmeans-core.assign_step", 1.0),
    );
    m.set(
        "hier-kmeans.outside_loop_ms",
        median(&self_ms(
            &events,
            "hier-kmeans.fit",
            "train",
            "iteration",
            0,
        )),
    );
    layers::msg_metrics(&mut m, &events);
    m.bypass(&[
        "serve.scan_us",
        "serve.kernel_us",
        "serve.plumbing_us",
        "serve.batch_rows_mean",
        "serve.queue_wait_p50_us",
        "serve.execute_p50_us",
        "serve.steals",
        "serve.shed",
        "serve.failed",
        "serve.stranded",
    ]);
    m.bypass(layers::SWAP_METRICS);
    let trace_file = probe.export(w.name, args.seed);
    let failed = plain.failed + traced.failed;
    outcome(failed, samples, m, trace_file)
}
