//! Serving workloads: closed-loop clients (each sends its next `predict`
//! only after the previous reply) against a sharded index served by the
//! event-driven core with default settings.

use crate::layers::{self, span_median, Swapper};
use crate::probe::{peak_rss_mb, usage, Probe, ThreadSampler};
use crate::report::Metrics;
use crate::stats::{median, quantile, sorted};
use crate::{Outcome, RunArgs, SEGMENTS};
use datasets::GaussianMixture;
use kmeans_core::{assign_step, init_centroids, InitMethod, Matrix};
use std::time::{Duration, Instant};
use swkm_obs::MetricsRegistry;
use swkm_serve::{ModelArtifact, PipelineConfig, ServeTracing, Server, ShardedIndex, Snapshot};

/// Distinct queries; clients cycle through them in a seeded order.
const POOL: usize = 2_048;
/// Samples the models' centroids are drawn from.
const TRAIN_N: usize = 8_192;
const COMPONENTS: usize = 64;
/// Unmeasured (but checked) traffic before the clock starts.
const WARMUP: Duration = Duration::from_millis(300);

pub struct ServeWorkload {
    pub name: &'static str,
    /// Closed-loop client threads.
    pub clients: usize,
    pub k: usize,
    pub d: usize,
    /// Centroid partitions of the `ShardedIndex`.
    pub shards: usize,
    /// Models cycled through by hot swaps.
    pub models: usize,
    /// Client 0 hot-swaps the model every this many of its requests.
    pub swap_every: Option<u64>,
}

/// Dispatch plumbing dominates: a 1-row scan is a few µs of a round trip
/// of hundreds; the store is bypassed.
pub const LONE: ServeWorkload = ServeWorkload {
    name: "serve-lone",
    clients: 1,
    k: 256,
    d: 64,
    shards: 4,
    models: 1,
    swap_every: None,
};

/// The scan is about half the round trip, two clients let batches form,
/// and the store-and-swap path runs about twice a second.
pub const SCAN_SWAP: ServeWorkload = ServeWorkload {
    name: "serve-scan-swap",
    clients: 2,
    k: 2_048,
    d: 128,
    shards: 4,
    models: 4,
    swap_every: Some(500),
};

/// SplitMix64 step, for the seeded query order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of the query pool (Fisher–Yates).
fn query_order(seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut order: Vec<usize> = (0..POOL).collect();
    for i in (1..POOL).rev() {
        order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    order
}

struct Setup {
    server: Server<f32>,
    pool: Matrix<f32>,
    models: Vec<ModelArtifact<f32>>,
    swapper: Option<Swapper>,
}

/// Models, store, index, server and query pool; returns them with the wall
/// time in seconds.
fn setup(w: &ServeWorkload, seed: u64, probe: &Probe) -> (Setup, f64) {
    let t0 = Instant::now();
    let (data, _) = probe.time("datasets.generate", || {
        GaussianMixture::new(TRAIN_N + POOL, w.d, COMPONENTS)
            .with_seed(seed)
            .generate::<f32>()
            .data
    });
    let train = data.slice_rows(0..TRAIN_N);
    let pool = data.slice_rows(TRAIN_N..TRAIN_N + POOL);
    let models: Vec<ModelArtifact<f32>> = (0..w.models as u64)
        .map(|m| {
            let (c, _) = probe.time("kmeans-core.init_centroids", || {
                init_centroids(&train, w.k, InitMethod::Forgy, seed.wrapping_add(m))
            });
            ModelArtifact::from_centroids(c)
        })
        .collect();
    let swapper = w.swap_every.map(|_| Swapper::new(models.clone(), w.shards));
    let index = ShardedIndex::from_artifact(&models[0], w.shards);
    let tracing = match probe.buffer() {
        Some(buf) => ServeTracing::new(buf.clone(), None),
        None => ServeTracing::default(),
    };
    let (server, _) = probe.time("serve.server_start", || {
        Server::start_traced(
            index,
            PipelineConfig::default(),
            MetricsRegistry::shared(),
            tracing,
        )
    });
    let setup = Setup {
        server,
        pool,
        models,
        swapper,
    };
    (setup, t0.elapsed().as_secs_f64())
}

/// Shared, read-only inputs of the client threads.
struct Load<'a> {
    server: &'a Server<f32>,
    pool: &'a Matrix<f32>,
    order: &'a [usize],
    /// `tables[m][q]`: model `m`'s nearest centroid for query `q`.
    tables: &'a [Vec<u32>],
    swap_every: Option<u64>,
}

#[derive(Default)]
struct Drive {
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    window_s: f64,
}

impl Drive {
    fn absorb(&mut self, other: Drive) {
        self.latencies_us.extend(other.latencies_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.window_s += other.window_s;
    }
}

/// One closed-loop client until `deadline`; `sent` counts its requests
/// over the whole run, so the query order and the swap cadence carry on
/// across segments. Client 0 also performs the workload's hot swaps
/// inline, between its own requests.
fn client_loop(
    load: &Load,
    c: usize,
    sent: &mut u64,
    deadline: Instant,
    mut swapper: Option<&mut Swapper>,
    probe: &Probe,
) -> Drive {
    let client = load.server.client();
    let mut out = Drive::default();
    let offset = c * POOL / 2;
    while Instant::now() < deadline {
        if let (Some(sw), Some(every)) = (swapper.as_deref_mut(), load.swap_every) {
            if *sent > 0 && sent.is_multiple_of(every) {
                out.attempted += 1;
                if let Err(e) = sw.swap(load.server, probe) {
                    eprintln!("perfbench: swap failed: {e}");
                    out.failed += 1;
                }
            }
        }
        let q = load.order[(offset + *sent as usize) % POOL];
        let sample = load.pool.row(q).to_vec();
        let before = load.server.generation();
        let (reply, secs) = probe.time("serve.predict", || client.predict(sample));
        let after = load.server.generation();
        out.attempted += 1;
        *sent += 1;
        match reply {
            Ok(p) => {
                out.latencies_us.push(secs * 1e6);
                // The answer must match the model live before or after the
                // request (a swap may land while it is in flight).
                let models = load.tables.len();
                let expected = (before..=after)
                    .any(|g| load.tables[Swapper::model_of(g, models)][q] == p.label);
                if p.degraded || !expected {
                    out.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("perfbench: predict failed: {e}");
                out.failed += 1;
            }
        }
    }
    out
}

/// All clients for `budget`; `sent` holds each client's request count.
fn drive(
    load: &Load,
    budget: Duration,
    swapper: Option<&mut Swapper>,
    probe: &Probe,
    sent: &mut [u64],
) -> Drive {
    let start = Instant::now();
    let deadline = start + budget;
    let mut total = Drive::default();
    std::thread::scope(|s| {
        let mut swapper = swapper;
        let handles: Vec<_> = sent
            .iter_mut()
            .enumerate()
            .map(|(c, sent)| {
                let sw = if c == 0 { swapper.take() } else { None };
                let track = probe.on_track(c as u32 + 1);
                s.spawn(move || client_loop(load, c, sent, deadline, sw, &track))
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("client thread panicked"));
        }
    });
    total.window_s = start.elapsed().as_secs_f64();
    total
}

pub fn run(w: &ServeWorkload, args: &RunArgs) -> Outcome {
    let probe = Probe::new(args.trace);
    // The first set-up is the measured one; the rest of the slots build
    // everything again and shut the extra server down.
    let (built, first_s) = setup(w, args.seed, &probe);
    let Setup {
        server,
        pool,
        models,
        mut swapper,
    } = built;
    let mut setup_s = vec![first_s];
    let mut setup_slot = || {
        crate::setup_slot(&mut setup_s, || {
            let (s, secs) = setup(w, args.seed, &probe);
            s.server.shutdown();
            secs
        })
    };

    // Reference answers: the exact serial scan (what the default scalar
    // index must reproduce bit for bit). Not part of set-up.
    let mut tables: Vec<Vec<u32>> = models
        .iter()
        .map(|m| {
            let mut labels = vec![0u32; POOL];
            probe.time("kmeans-core.assign_step", || {
                assign_step(&pool, &m.centroids, &mut labels)
            });
            labels
        })
        .collect();
    if args.corrupt_reference {
        for label in tables.iter_mut().flatten() {
            *label = (*label + 1) % w.k as u32;
        }
    }
    let order = query_order(args.seed);
    let mut sent = vec![0u64; w.clients];
    let load = Load {
        server: &server,
        pool: &pool,
        order: &order,
        tables: &tables,
        swap_every: w.swap_every,
    };

    let mut m = Metrics::default();
    if !args.trace {
        let warm = drive(&load, WARMUP, None, &probe, &mut sent);
        let mut ops = Drive::default();
        for segment in 0..SEGMENTS {
            let budget = args.seconds / SEGMENTS;
            ops.absorb(drive(&load, budget, swapper.as_mut(), &probe, &mut sent));
            if segment == 0 {
                m.set("peak_rss_mb", peak_rss_mb());
            }
            setup_slot();
        }
        server.shutdown();
        m.set("setup_s", median(&setup_s));
        m.set("latency_p50_ms", median(&ops.latencies_us) / 1e3);
        return Outcome {
            attempted: warm.attempted + ops.attempted,
            failed: warm.failed + ops.failed,
            reference_ok: true,
            metrics: m,
            samples: ops.latencies_us.len(),
            trace_file: None,
        };
    }

    // Traced run: untraced half (overhead baseline, process counters and
    // server counters), traced half, then the layer probes.
    let half = args.seconds / 2;
    probe.set_recording(false);
    let warm = drive(&load, WARMUP, None, &probe, &mut sent);
    let s0 = server.snapshot();
    let u0 = usage();
    let plain = drive(&load, half, swapper.as_mut(), &probe, &mut sent);
    let u1 = usage();
    let s1 = server.snapshot();
    // Polled during the traced half only, so the poller's own CPU time and
    // wake-ups stay out of the process counters above.
    let threads = ThreadSampler::start();
    probe.set_recording(true);
    let traced = drive(&load, half, swapper.as_mut(), &probe, &mut sent);
    m.set("proc.threads_peak", threads.finish());
    let plain_ops = plain.latencies_us.len() as f64;
    m.set(
        "proc.cpu_ms_per_op",
        (u1.cpu_s - u0.cpu_s) * 1e3 / plain_ops,
    );
    m.set(
        "proc.ctx_switches_per_op",
        (u1.ctx_switches - u0.ctx_switches) as f64 / plain_ops,
    );
    let p50_plain_us = median(&plain.latencies_us);
    let p50_traced_us = median(&traced.latencies_us);
    m.set("trace.latency_p50_ms", p50_traced_us / 1e3);
    m.set(
        "trace.overhead_pct",
        (p50_traced_us / p50_plain_us - 1.0) * 100.0,
    );
    let samples = plain.latencies_us.len() + traced.latencies_us.len();
    m.set("bench.latency_samples", samples as f64);
    let plain_lat = sorted(plain.latencies_us.clone());
    m.set("bench.latency_p90_ms", quantile(&plain_lat, 0.9) / 1e3);
    m.set("bench.latency_p99_ms", quantile(&plain_lat, 0.99) / 1e3);
    m.set("bench.throughput_per_s", plain_ops / plain.window_s);
    server_metrics(&mut m, &s0, &s1);

    let index = server.current_index();
    layers::scan_probe(&probe, &index, &pool, 500);
    let k_shard = w.k / w.shards;
    let gflops: Vec<f64> = (0..5)
        .map(|_| {
            layers::assign_probe(
                &probe,
                index.kernel(),
                &pool,
                0..64,
                index.centroids(),
                0..k_shard,
                20,
            )
        })
        .collect();
    m.set("kmeans-core.assign_gflops", median(&gflops));
    let last = server.shutdown();
    m.set("serve.stranded", last.stranded as f64);
    setup_slot();

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
    let scan_us = span_median(&events, "serve.assign_batch", 1e3);
    m.set("serve.scan_us", scan_us);
    m.set("serve.kernel_us", span_median(&events, "serve.kernel", 1e3));
    m.set("serve.plumbing_us", p50_plain_us - scan_us);
    if swapper.is_some() {
        layers::swap_metrics(&mut m, &events);
    } else {
        m.bypass(layers::SWAP_METRICS);
    }
    m.bypass(layers::MSG_PROBE_METRICS);
    m.bypass(&[
        "kmeans-core.bounds_savings",
        "kmeans-core.distance_evals",
        "hier-kmeans.iter_ms",
        "hier-kmeans.assign_ms",
        "hier-kmeans.merge_ms",
        "hier-kmeans.update_ms",
        "hier-kmeans.exchange_ms",
        "hier-kmeans.assign_imbalance",
        "hier-kmeans.outside_loop_ms",
        "msg.bytes_per_iter.allreduce",
        "msg.bytes_per_iter.minloc",
        "msg.bytes_per_iter.total",
        "msg.messages_per_iter.allreduce",
        "msg.messages_per_iter.minloc",
        "msg.messages_per_iter.total",
    ]);
    Outcome {
        attempted: warm.attempted + plain.attempted + traced.attempted,
        failed: warm.failed + plain.failed + traced.failed,
        reference_ok: true,
        metrics: m,
        samples,
        trace_file: probe.export(w.name, args.seed),
    }
}

/// Pipeline counters over the untraced half, from `Server::snapshot()`.
fn server_metrics(m: &mut Metrics, s0: &Snapshot, s1: &Snapshot) {
    let batches = s1.batches.saturating_sub(s0.batches).max(1);
    let completed = s1.completed.saturating_sub(s0.completed);
    m.set("serve.batch_rows_mean", completed as f64 / batches as f64);
    m.set("serve.queue_wait_p50_us", s1.queue_wait_p50_ns as f64 / 1e3);
    m.set("serve.execute_p50_us", s1.execute_p50_ns as f64 / 1e3);
    m.set("serve.steals", s1.steals.saturating_sub(s0.steals) as f64);
    m.set("serve.shed", s1.rejected.saturating_sub(s0.rejected) as f64);
    m.set("serve.failed", s1.failed.saturating_sub(s0.failed) as f64);
}
