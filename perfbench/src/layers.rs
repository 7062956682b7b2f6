//! Per-layer probes shared by the workloads: each times one public call
//! at the workload's own shape, recorded as a `bench` span.

use crate::probe::{span_ms, Probe};
use crate::report::Metrics;
use crate::stats::median;
use kmeans_core::{AssignKernel, AssignPlan, Matrix};
use msg::{pack_min_loc, World};
use swkm_obs::TraceEvent;
use swkm_serve::{ModelArtifact, Server, ShardedIndex};
use swkm_store::{MemVfs, ModelStore};

/// Ranks of the collective probes: the fits' rank count.
const PROBE_RANKS: usize = 2;
const MODEL: &str = "bench-model";

/// Median duration in `unit_scale`-scaled milliseconds of the spans named
/// `name` (1.0 → ms, 1e3 → µs).
pub fn span_median(events: &[TraceEvent], name: &str, unit_scale: f64) -> f64 {
    let v = span_ms(events, name);
    assert!(!v.is_empty(), "no {name} spans recorded");
    median(&v) * unit_scale
}

/// `msg` collectives at the workload's payloads: a sum AllReduce of
/// `payload` f64s (the dense centroid merge, k·d + k), a packed min-loc
/// AllReduce of `keys` u64s (one per sample), and an empty `World::run`.
pub fn msg_probe(probe: &Probe, payload: usize, keys: usize, reps: usize) {
    World::run(PROBE_RANKS, |comm| {
        let rank = comm.rank();
        // Rank 0 records; every rank takes part in every collective.
        let timed = |name, f: &mut dyn FnMut()| {
            if rank == 0 {
                probe.time(name, f);
            } else {
                f();
            }
        };
        let mut sums = vec![1.0f64; payload];
        for _ in 0..reps {
            comm.barrier();
            timed("msg.allreduce_sum_f64", &mut || {
                comm.allreduce_sum_f64(&mut sums)
            });
        }
        let local: Vec<u64> = (0..keys)
            .map(|i| pack_min_loc(((i * 31 + rank * 17) % 1009) as f32, rank as u32))
            .collect();
        for _ in 0..reps {
            let mut k = local.clone();
            comm.barrier();
            timed("msg.allreduce_min_loc_packed", &mut || {
                comm.allreduce_min_loc_packed(&mut k)
            });
        }
    });
    for _ in 0..reps {
        probe.time("msg.world_run", || World::run(PROBE_RANKS, |_| ()));
    }
}

/// What [`msg_metrics`] reports; 0 on workloads that run no collectives.
pub const MSG_PROBE_METRICS: &[&str] =
    &["msg.allreduce_sum_us", "msg.minloc_us", "msg.world_run_us"];

pub fn msg_metrics(m: &mut Metrics, events: &[TraceEvent]) {
    m.set(
        "msg.allreduce_sum_us",
        span_median(events, "msg.allreduce_sum_f64", 1e3),
    );
    m.set(
        "msg.minloc_us",
        span_median(events, "msg.allreduce_min_loc_packed", 1e3),
    );
    m.set(
        "msg.world_run_us",
        span_median(events, "msg.world_run", 1e3),
    );
}

/// `kmeans-core.assign_gflops`: the assign kernel over one rank's (or
/// one shard's) panel — samples `srows` against centroids `crows`.
pub fn assign_probe(
    probe: &Probe,
    kernel: AssignKernel,
    data: &Matrix<f32>,
    srows: std::ops::Range<usize>,
    centroids: &Matrix<f32>,
    crows: std::ops::Range<usize>,
    reps: usize,
) -> f64 {
    let plan = AssignPlan::new(kernel, centroids);
    let mut out = Vec::with_capacity(srows.len());
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        out.clear();
        let ((), s) = probe.time("kmeans-core.assign_batch_into", || {
            plan.assign_batch_into(data, srows.clone(), centroids, crows.clone(), 0, &mut out)
        });
        std::hint::black_box(&out);
        secs.push(s);
    }
    let flops = 2.0 * srows.len() as f64 * crows.len() as f64 * data.cols() as f64;
    flops / median(&secs) / 1e9
}

/// `serve.scan_us` vs `serve.kernel_us`: one query row through the sharded
/// index (fan-out and vote merge) and through the bare kernel.
pub fn scan_probe(probe: &Probe, index: &ShardedIndex<f32>, queries: &Matrix<f32>, reps: usize) {
    let plan = AssignPlan::new(index.kernel(), index.centroids());
    let mut out = Vec::with_capacity(1);
    for r in 0..reps {
        let i = r % queries.rows();
        let row = queries.slice_rows(i..i + 1);
        let (labels, _) = probe.time("serve.assign_batch", || index.assign_batch(&row));
        std::hint::black_box(labels);
        out.clear();
        probe.time("serve.kernel", || {
            plan.assign_batch_into(&row, 0..1, index.centroids(), 0..index.k(), 0, &mut out)
        });
        std::hint::black_box(&out);
    }
}

/// The hot-swap path: publish to an in-memory store, load the live
/// generation back, build the sharded index, install it, and compact the
/// store so it holds only the live generation (memory stays flat however
/// many swaps a run makes).
///
/// The store's first generation holds `models[0]`, which the server
/// starts on as its generation 0; swap `s` (1-based) installs
/// `models[s % len]` as store and server generation `s + 1`.
pub struct Swapper {
    store: ModelStore<MemVfs>,
    models: Vec<ModelArtifact<f32>>,
    shards: usize,
    swaps: u64,
}

impl Swapper {
    pub fn new(models: Vec<ModelArtifact<f32>>, shards: usize) -> Swapper {
        let mut store = ModelStore::open(MemVfs::new()).expect("open an empty in-memory store");
        let first = store
            .publish(MODEL, &models[0])
            .expect("publish the first model");
        assert_eq!(first, 1);
        Swapper {
            store,
            models,
            shards,
            swaps: 0,
        }
    }

    /// Which model a server generation serves.
    pub fn model_of(generation: u64, models: usize) -> usize {
        (generation.max(1) - 1) as usize % models
    }

    /// One hot swap; an error is a failed op.
    pub fn swap(&mut self, server: &Server<f32>, probe: &Probe) -> Result<(), String> {
        let s = self.swaps + 1;
        let model = &self.models[s as usize % self.models.len()];
        let (published, _) = probe.time("store.publish", || self.store.publish(MODEL, model));
        let generation = published.map_err(|e| format!("publish: {e}"))?;
        let (loaded, _) = probe.time("store.load_live", || self.store.load_live::<f32>(MODEL));
        let (live, artifact) = loaded.map_err(|e| format!("load_live: {e}"))?;
        if generation != s + 1 || live != generation {
            return Err(format!(
                "store generations out of step: swap {s} published {generation}, live {live}"
            ));
        }
        let (installed, _) = probe.time("serve.swap", || {
            server.swap_model(ShardedIndex::from_artifact(&artifact, self.shards), live)
        });
        installed.map_err(|e| format!("swap_model: {e}"))?;
        let (compacted, _) = probe.time("store.compact", || self.store.compact());
        compacted.map_err(|e| format!("compact: {e}"))?;
        self.swaps = s;
        Ok(())
    }
}

/// What [`swap_metrics`] reports; 0 on workloads that never swap.
pub const SWAP_METRICS: &[&str] = &[
    "serve.swap_ms",
    "store.publish_ms",
    "store.load_ms",
    "store.compact_ms",
];

/// `serve.swap_ms` and the `store.*` times from the spans.
pub fn swap_metrics(m: &mut Metrics, events: &[TraceEvent]) {
    m.set("serve.swap_ms", span_median(events, "serve.swap", 1.0));
    m.set(
        "store.publish_ms",
        span_median(events, "store.publish", 1.0),
    );
    m.set("store.load_ms", span_median(events, "store.load_live", 1.0));
    m.set(
        "store.compact_ms",
        span_median(events, "store.compact", 1.0),
    );
}
