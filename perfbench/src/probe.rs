//! Benchmark-side spans around public calls, and process counters.
//!
//! With tracing on, every timed call is recorded as a `bench` span in a
//! `swkm_obs::TraceBuffer` (the library's own spans land in the same
//! buffer), and the per-layer numbers are read back from those spans.
//! With tracing off the same calls are timed with `Instant` alone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swkm_obs::{EventKind, TraceBuffer, TraceEvent, Tracer};

/// Events a traced run keeps: enough for every span of a 60 s run at the
/// serve workloads' request rates (sampled 1 in 8 inside the server).
const TRACE_CAPACITY: usize = 1 << 19;
/// The server traces one admitted request in this many.
pub const SERVE_TRACE_SAMPLE_EVERY: u64 = 8;

/// Timer that doubles as a span recorder when tracing is on.
#[derive(Clone)]
pub struct Probe {
    tracer: Option<Tracer>,
}

impl Probe {
    pub fn new(trace: bool) -> Probe {
        let tracer = trace.then(|| {
            Tracer::new(
                Arc::new(TraceBuffer::with_sampling(
                    TRACE_CAPACITY,
                    SERVE_TRACE_SAMPLE_EVERY,
                )),
                "bench",
                0,
            )
        });
        Probe { tracer }
    }

    /// The same recorder on another timeline row (one per client thread).
    pub fn on_track(&self, track: u32) -> Probe {
        Probe {
            tracer: self.tracer.as_ref().map(|t| t.on_track(track)),
        }
    }

    pub fn buffer(&self) -> Option<&Arc<TraceBuffer>> {
        self.tracer.as_ref().map(Tracer::buffer)
    }

    /// Turn recording on or off (a disabled buffer records nothing, for
    /// the benchmark and the library alike).
    pub fn set_recording(&self, on: bool) {
        if let Some(buf) = self.buffer() {
            buf.set_enabled(on);
        }
    }

    /// Run `f`, returning its result and wall time in seconds; recorded as
    /// a span named `name` when tracing is on.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start_ns = self.tracer.as_ref().map(Tracer::begin);
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        if let (Some(t), Some(start_ns)) = (&self.tracer, start_ns) {
            t.complete_at(name, start_ns, dur.as_nanos() as u64, 0, "", 0);
        }
        (out, dur.as_secs_f64())
    }

    /// Snapshot of every recorded event (empty when untraced).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buffer().map(|b| b.snapshot()).unwrap_or_default()
    }

    /// Export the buffer as Chrome-trace JSON into `out/` under the current
    /// directory; returns the file's path.
    pub fn export(&self, workload: &str, seed: u64) -> Option<String> {
        let buf = self.buffer()?;
        let json = swkm_obs::chrome::to_chrome_json(&buf.snapshot(), buf.stats().dropped);
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir).expect("create perfbench/out for the trace export");
        let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
        std::fs::write(&path, json).expect("write the trace export");
        Some(path.display().to_string())
    }
}

/// Durations in milliseconds of every `bench` span named `name`.
pub fn span_ms(events: &[TraceEvent], name: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.proc == "bench" && e.name == name && e.kind == EventKind::Complete)
        .map(|e| e.dur_ns as f64 / 1e6)
        .collect()
}

/// Self time in milliseconds of each `bench` span named `parent`: its
/// duration minus the part covered by `child` spans of `(child_proc,
/// child_track)` that lie inside it.
pub fn self_ms(
    events: &[TraceEvent],
    parent: &str,
    child_proc: &str,
    child_name: &str,
    child_track: u32,
) -> Vec<f64> {
    let children: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.proc == child_proc && e.name == child_name && e.track == child_track)
        .collect();
    events
        .iter()
        .filter(|e| e.proc == "bench" && e.name == parent)
        .map(|p| {
            let (lo, hi) = (p.ts_ns, p.ts_ns + p.dur_ns);
            let covered: u64 = children
                .iter()
                .map(|c| (c.ts_ns + c.dur_ns).min(hi).saturating_sub(c.ts_ns.max(lo)))
                .sum();
            p.dur_ns.saturating_sub(covered) as f64 / 1e6
        })
        .collect()
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss … nivcsw: 14 `long`s; voluntary and involuntary context
    /// switches are the last two.
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Process-wide CPU seconds and context switches, terminated threads
/// included (`getrusage(RUSAGE_SELF)`).
#[derive(Clone, Copy)]
pub struct Usage {
    pub cpu_s: f64,
    pub ctx_switches: u64,
}

pub fn usage() -> Usage {
    const _: () = assert!(std::mem::size_of::<RUsage>() == 144);
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: on 64-bit Linux `struct rusage` is two `timeval`s (two `i64`
    // each) followed by 14 `long`s — 144 bytes, the layout of `RUsage`
    // (size asserted above). `u` is a valid, aligned, writable instance
    // and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Usage {
        cpu_s: secs(u.utime) + secs(u.stime),
        ctx_switches: (u.rest[12] + u.rest[13]) as u64,
    }
}

/// A numeric field of `/proc/self/status` (e.g. `VmHWM` in kB, `Threads`).
pub fn status_field(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no numeric {key}"))
}

/// Peak resident set size so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Polls the process's thread count while alive. Only traced runs start
/// it, and only for their traced half: its wake-ups would otherwise count
/// in the end-to-end numbers and in the untraced half's `getrusage` deltas.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: std::thread::JoinHandle<()>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let handle = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak.fetch_max(status_field("Threads"), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        ThreadSampler { stop, peak, handle }
    }

    /// Stop polling; returns the peak thread count, the poller excluded.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked");
        self.peak.load(Ordering::Relaxed).saturating_sub(1) as f64
    }
}
