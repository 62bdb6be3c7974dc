//! End-to-end host-speed benchmark of the MemPod simulator.
//!
//! One run measures one workload (a generated trace plus a migration
//! manager) at the paper's full geometry: it generates the trace, builds a
//! [`Simulator`] and calls [`Simulator::run`] back to back for a fixed wall
//! budget — a closed loop with one client — and reports medians over the
//! timed repetitions. Host speed is normalised: each repetition's run time
//! is divided by the time of a fixed memory-bound [`Reference`] kernel run
//! right after it, so that minutes-long slowdowns of a shared host cancel.
//! Every repetition's [`SimReport`] is checked: its
//! digest must equal every other repetition's, the pinned digest for the
//! (workload, seed) if one is committed in `pins.txt`, and, for the sharded
//! workload, the one-shard run of the same trace.
//!
//! A traced run (`--trace 1`) additionally splits the host time by layer
//! (crate) from *outside* the program: it replays the trace through a fresh
//! manager's `on_access` (the `core` layer) and the resulting demand and
//! migration line operations through `MemorySystem::submit_with_priority` /
//! `drain_until` (the `dram` layer), times a telemetry-enabled run, and
//! records every phase as a span. See `README.md` for the metric table.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mempod_core::{build_manager, ManagerKind, Migration};
use mempod_dram::{MemLayout, MemorySystem, Priority, ReqToken};
use mempod_sim::{SimConfig, SimReport, Simulator};
use mempod_telemetry::{EventSink, PhaseClock, SpanConfig, Telemetry};
use mempod_trace::{Trace, TraceGenerator, WorkloadSpec};
use mempod_types::{AccessKind, FrameId, Picos, SystemConfig};
use serde_json::{json, Value};

/// Requests per trace at full scale: short enough (about 0.1 s of host
/// time) that a run makes a few hundred repetitions, each paired with a
/// [`Reference`] kernel time.
pub const FULL_REQUESTS: usize = 50_000;
/// Requests per trace under `--smoke`.
pub const SMOKE_REQUESTS: usize = 20_000;
/// Timed repetitions an untraced run makes even when the wall budget is
/// spent (a traced run makes at least one).
const MIN_REPS: usize = 3;

/// One benchmark workload: a trace, a manager and a shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Trace generator workload (`mempod_trace` homogeneous name or mix).
    pub trace: &'static str,
    /// Migration manager simulated.
    pub manager: ManagerKind,
    /// Shards requested with `Simulator::with_shards`.
    pub shards: u32,
}

/// The benchmark's workloads (why each was chosen: `README.md`).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mix1-mempod",
        trace: "mix1",
        manager: ManagerKind::MemPod,
        shards: 1,
    },
    Workload {
        name: "mix1-tlm",
        trace: "mix1",
        manager: ManagerKind::NoMigration,
        shards: 1,
    },
    Workload {
        name: "lbm-cameo",
        trace: "lbm",
        manager: ManagerKind::Cameo,
        shards: 1,
    },
    Workload {
        name: "mix1-mempod-2sh",
        trace: "mix1",
        manager: ManagerKind::MemPod,
        shards: 2,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A metric's name and unit.
pub type MetricSpec = (&'static str, &'static str);

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: [MetricSpec; 5] = [
    ("norm_req_per_s", "1/s"),
    ("norm_ns_per_line_op", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ammat_ns", "ns"),
];

/// Manager telemetry counters reported as `core.<name>` (0 for managers
/// that do not expose the counter).
const CORE_COUNTERS: [&str; 6] = [
    "mempod.epochs",
    "mea.evictions",
    "mea.insertions",
    "mea.increments",
    "mea.decrement_sweeps",
    "cameo.wasted_migrations",
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: [MetricSpec; 28] = [
    ("trace.gen_s", "s"),
    ("sim.new_s", "s"),
    ("core.on_access_ns", "ns"),
    ("core.share", "ratio"),
    ("core.migrations", "count"),
    ("core.migration_lines_per_req", "lines/req"),
    ("core.mempod.epochs", "count"),
    ("core.mea.evictions", "count"),
    ("core.mea.insertions", "count"),
    ("core.mea.increments", "count"),
    ("core.mea.decrement_sweeps", "count"),
    ("core.cameo.wasted_migrations", "count"),
    ("dram.submit_ns", "ns"),
    ("dram.drain_ns_per_op", "ns"),
    ("dram.drain_calls_per_req", "calls/req"),
    ("dram.empty_drain_ratio", "ratio"),
    ("dram.share", "ratio"),
    ("dram.scans_per_decision", "scans/decision"),
    ("dram.max_queue_depth", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("sim.self_s", "s"),
    ("sim.admission_share", "ratio"),
    ("sim.critical_path_speedup", "x"),
    ("sim.shard_imbalance", "ratio"),
    ("sim.barriers", "count"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.events", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// Experiment scale: the paper's geometry, or the 256x smaller smoke one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Tiny geometry (`SystemConfig::tiny`) instead of the paper's.
    pub smoke: bool,
    /// Requests per generated trace.
    pub requests: usize,
}

impl Scale {
    /// The default scale for the mode.
    pub fn new(smoke: bool) -> Self {
        Scale {
            smoke,
            requests: if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS },
        }
    }

    /// `"smoke"` or `"full"` (the pin-file scale column).
    pub fn label(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// The simulated machine at this scale.
    pub fn system(&self) -> SystemConfig {
        if self.smoke {
            SystemConfig::tiny()
        } else {
            SystemConfig::paper_default()
        }
    }

    /// The simulation config, as `mempod_bench::Opts::sim_config` builds
    /// it (Table 2 timings; HMA's interval set to 20 ms at full scale).
    pub fn sim_config(&self, kind: ManagerKind) -> SimConfig {
        let mut cfg = SimConfig::new(self.system(), kind);
        if !self.smoke {
            cfg.mgr.hma_interval = Picos::from_ms(20);
            cfg.mgr.hma_sort_penalty = Picos::from_us(1400);
        }
        cfg
    }

    /// Generates the workload's trace for `seed`.
    pub fn trace(&self, w: &Workload, seed: u64) -> Trace {
        let spec = WorkloadSpec::homogeneous(w.trace)
            .or_else(|| WorkloadSpec::mix(w.trace))
            .expect("every benchmark workload names a known trace");
        TraceGenerator::new(spec, seed).take_requests(self.requests, &self.system().geometry)
    }
}

/// Committed `SimReport` digests, keyed by (workload, scale, requests,
/// seed).
#[derive(Debug, Clone, Default)]
pub struct Pins(BTreeMap<(String, String, usize, u64), u64>);

impl Pins {
    /// Parses `workload scale requests seed digest-hex` lines (`#` starts
    /// a comment).
    ///
    /// # Errors
    ///
    /// Returns the offending line on a malformed entry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let parsed = match f.as_slice() {
                [w, scale, n, seed, d] => {
                    n.parse().ok().zip(seed.parse().ok()).and_then(|(n, seed)| {
                        u64::from_str_radix(d, 16)
                            .ok()
                            .map(|d| ((w.to_string(), scale.to_string(), n, seed), d))
                    })
                }
                _ => None,
            };
            let (key, digest) = parsed.ok_or_else(|| format!("bad pin line: {line}"))?;
            map.insert(key, digest);
        }
        Ok(Pins(map))
    }

    /// The pins committed beside this benchmark.
    pub fn committed() -> Self {
        Self::parse(include_str!("../pins.txt")).expect("pins.txt is well formed")
    }

    /// The pinned digest for a run, if any.
    pub fn get(&self, w: &Workload, scale: &Scale, seed: u64) -> Option<u64> {
        let key = (
            w.name.to_string(),
            scale.label().to_string(),
            scale.requests,
            seed,
        );
        self.0.get(&key).copied()
    }

    /// Pins `digest` for a run (tests use this to corrupt a pin).
    pub fn insert(&mut self, w: &Workload, scale: &Scale, seed: u64, digest: u64) {
        let key = (
            w.name.to_string(),
            scale.label().to_string(),
            scale.requests,
            seed,
        );
        self.0.insert(key, digest);
    }
}

/// FNV-1a digest of a report's JSON form, without the telemetry-only
/// parts (`timeline`, `provenance`), so plain and telemetry-enabled runs
/// of the same trace digest alike.
fn digest(report: &SimReport) -> u64 {
    let mut r = report.clone();
    r.timeline.clear();
    r.provenance = None;
    let text = serde_json::to_string(&r).expect("reports serialize");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest of one simulation of `w` at `scale` for `seed` (the value
/// `pins.txt` records).
///
/// # Panics
///
/// Panics if the workload's configuration is rejected by the simulator.
pub fn pin_digest(w: &Workload, scale: &Scale, seed: u64) -> u64 {
    let sim = Simulator::new(scale.sim_config(w.manager))
        .expect("benchmark workloads have valid configs")
        .with_shards(w.shards);
    digest(&sim.run(&scale.trace(w, seed)))
}

/// Simulated DRAM line operations of a run: demand, migration and
/// metadata accesses.
fn line_ops(r: &SimReport) -> u64 {
    r.requests + r.injected_migration_requests + r.injected_meta_requests
}

/// One recorded span: a timed phase of the benchmark.
#[derive(Debug)]
pub struct Span {
    /// Phase name (`rep`, `trace.gen`, `sim.run`, `core.replay`, ...).
    pub name: &'static str,
    /// Non-zero span id.
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Repetition the span belongs to (shared by all its spans).
    pub run: u64,
    /// Start, microseconds since the log was created.
    pub start_us: f64,
    /// End, microseconds since the log was created.
    pub end_us: f64,
}

/// In-memory span log, written out once at the end of a traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log that records spans only when `enabled` (timing is always
    /// returned).
    fn new(enabled: bool) -> Self {
        SpanLog {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`SpanLog::close`].
    fn open(&mut self, name: &'static str, parent: u64, run: u64) -> (usize, Instant) {
        let start = Instant::now();
        if !self.enabled {
            return (usize::MAX, start);
        }
        let at = self.us(start);
        self.spans.push(Span {
            name,
            id: self.spans.len() as u64 + 1,
            parent,
            run,
            start_us: at,
            end_us: at,
        });
        (self.spans.len() - 1, start)
    }

    /// Closes a span, returning its duration.
    fn close(&mut self, open: (usize, Instant)) -> Duration {
        let end = Instant::now();
        let end_us = self.us(end);
        if let Some(s) = self.spans.get_mut(open.0) {
            s.end_us = end_us;
        }
        end - open.1
    }

    /// Id of an open span (0 when recording is off).
    fn id(&self, open: &(usize, Instant)) -> u64 {
        self.spans.get(open.0).map_or(0, |s| s.id)
    }

    /// Times `f` as a span named `name`.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(name, parent, run);
        let out = f();
        (out, self.close(open))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn us(&self, t: Instant) -> f64 {
        (t - self.origin).as_secs_f64() * 1e6
    }

    /// Chrome trace-event form: one `"X"` complete event per span, on
    /// track (`tid`) = repetition, with id/parent/run in `args` (ids as
    /// hex strings, the form `tracelens` reads).
    pub fn to_chrome(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "ph": "X",
                        "ts": s.start_us,
                        "dur": s.end_us - s.start_us,
                        "pid": 1,
                        "tid": s.run,
                        "args": {
                            "id": format!("0x{:x}", s.id),
                            "parent": format!("0x{:x}", s.parent),
                            "run": s.run
                        }
                    })
                })
                .collect(),
        )
    }
}

/// Counts the event lines telemetry renders, then drops them (the
/// counting twin of `mempod_telemetry::DiscardSink`).
#[derive(Debug, Clone, Default)]
struct CountingSink(Arc<AtomicU64>);

impl EventSink for CountingSink {
    fn emit(&mut self, _line: &str) {
        // A statistic read after the run; it publishes nothing else.
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// What the core replay recorded for one trace request.
#[derive(Debug, Clone, Copy)]
struct DemandOp {
    arrival: Picos,
    issue: Picos,
    frame: FrameId,
    line: u32,
    write: bool,
}

/// The `core` layer replay: the trace through a fresh manager.
#[derive(Debug)]
struct CoreReplay {
    ops: Vec<DemandOp>,
    /// Migrations, with the index of the request that triggered them.
    migrations: Vec<(usize, Migration)>,
    on_access: Duration,
    counters: Vec<(&'static str, u64)>,
}

fn core_replay(cfg: &SimConfig, trace: &Trace) -> CoreReplay {
    let mut mgr = build_manager(cfg.manager, &cfg.mgr);
    let mut ops = Vec::with_capacity(trace.len());
    let mut migrations = Vec::new();
    let start = Instant::now();
    for (i, req) in trace.requests().iter().enumerate() {
        let out = mgr.on_access(req);
        ops.push(DemandOp {
            arrival: req.arrival,
            issue: req.arrival + out.stall,
            frame: out.frame,
            line: out.line_in_page,
            write: req.kind.is_write(),
        });
        migrations.extend(out.migrations.into_iter().map(|m| (i, m)));
    }
    let on_access = start.elapsed();
    let mut counters = Vec::new();
    mgr.telemetry_counters(&mut counters);
    CoreReplay {
        ops,
        migrations,
        on_access,
        counters,
    }
}

/// Who a replayed DRAM token belongs to.
#[derive(Debug, Clone, Copy)]
enum Owner {
    Demand,
    MigRead(usize),
    MigWrite(usize),
}

/// The `dram` layer replay's counts and host times.
#[derive(Debug, Default)]
struct DramReplay {
    submits: u64,
    submit: Duration,
    drain: Duration,
    completed: u64,
    passes: u64,
    empty_passes: u64,
}

/// A replayed swap: its line ops still outstanding in the current phase
/// and the latest completion so far.
#[derive(Debug)]
struct Swap {
    m: Migration,
    pending: u32,
    latest: Picos,
}

/// Replays the core replay's demand and migration line operations through
/// the memory system, reproducing the engine's submission pattern: each
/// arrival drains to its time until a pass completes nothing; a swap's
/// writes launch when its last read completes; page swaps of one pod run
/// one at a time. Unlike the engine it does not delay demand accesses to
/// pages in flight, so its schedule approximates the simulated one.
struct DramReplayer {
    mem: MemorySystem,
    owners: Vec<Owner>,
    migs: Vec<Swap>,
    lanes: BTreeMap<u32, VecDeque<usize>>,
    stats: DramReplay,
}

impl DramReplayer {
    fn submit(&mut self, frame: FrameId, line: u32, write: bool, at: Picos, p: Priority, o: Owner) {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let t = Instant::now();
        let tok: ReqToken = self.mem.submit_with_priority(frame, line, kind, at, p);
        self.stats.submit += t.elapsed();
        self.stats.submits += 1;
        let slot = usize::try_from(tok.0).expect("token fits usize");
        if self.owners.len() <= slot {
            self.owners.resize(slot + 1, Owner::Demand);
        }
        self.owners[slot] = o;
    }

    fn swap_phase(&mut self, mig: usize, write: bool, at: Picos) {
        let m = self.migs[mig].m;
        for line in m.line_start..m.line_start + m.line_count {
            for frame in [m.frame_a, m.frame_b] {
                let owner = if write {
                    Owner::MigWrite(mig)
                } else {
                    Owner::MigRead(mig)
                };
                self.submit(frame, line, write, at, Priority::Background, owner);
            }
        }
        self.migs[mig].pending = 2 * m.line_count;
        self.migs[mig].latest = at;
    }

    fn pump(&mut self, horizon: Picos) {
        loop {
            let t = Instant::now();
            let done = self.mem.drain_until(horizon);
            self.stats.drain += t.elapsed();
            self.stats.passes += 1;
            if done.is_empty() {
                self.stats.empty_passes += 1;
                return;
            }
            self.stats.completed += done.len() as u64;
            for c in done {
                let slot = usize::try_from(c.token.0).expect("token fits usize");
                match self.owners[slot] {
                    Owner::Demand => {}
                    Owner::MigRead(mig) | Owner::MigWrite(mig) => {
                        let e = &mut self.migs[mig];
                        e.pending -= 1;
                        e.latest = e.latest.max(c.completion);
                        if e.pending > 0 {
                            continue;
                        }
                        let at = e.latest;
                        if matches!(self.owners[slot], Owner::MigRead(_)) {
                            self.swap_phase(mig, true, at);
                        } else if let Some(pod) = lane_of(&self.migs[mig].m) {
                            let q = self.lanes.get_mut(&pod).expect("laned swap has a lane");
                            q.pop_front();
                            if let Some(&next) = q.front() {
                                self.swap_phase(next, false, at);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Page swaps serialize per pod (the pod's single migration engine; pod
/// `u32::MAX` for pod-less managers); line swaps are unlaned.
fn lane_of(m: &Migration) -> Option<u32> {
    m.is_page_swap().then(|| m.pod.unwrap_or(u32::MAX))
}

fn dram_replay(layout: MemLayout, core: &CoreReplay) -> DramReplay {
    let mut r = DramReplayer {
        mem: MemorySystem::new(layout),
        owners: Vec::new(),
        migs: Vec::with_capacity(core.migrations.len()),
        lanes: BTreeMap::new(),
        stats: DramReplay::default(),
    };
    let mut next_mig = core.migrations.iter().peekable();
    for (i, op) in core.ops.iter().enumerate() {
        r.pump(op.arrival);
        while let Some(&(_, m)) = next_mig.next_if(|(at, _)| *at == i) {
            let mig = r.migs.len();
            r.migs.push(Swap {
                m,
                pending: 0,
                latest: op.arrival,
            });
            let start = match lane_of(&m) {
                None => true,
                Some(pod) => {
                    let q = r.lanes.entry(pod).or_default();
                    q.push_back(mig);
                    q.len() == 1
                }
            };
            if start {
                r.swap_phase(mig, false, op.arrival);
            }
        }
        r.submit(
            op.frame,
            op.line,
            op.write,
            op.issue,
            Priority::Demand,
            Owner::Demand,
        );
    }
    r.pump(Picos::MAX);
    r.stats
}

/// Table size of the [`Reference`] kernel: 32 MB of `u32`, more than the
/// last-level cache a shared host leaves one process, so the kernel slows
/// with the same memory-system contention that slows the simulator.
const REF_WORDS: usize = 1 << 23;
/// Random read-modify-writes per [`Reference`] run (0.025 s to 0.05 s).
const REF_ACCESSES: usize = 3_000_000;
/// The [`Reference`] kernel's time on the quiet 2-vCPU host the benchmark
/// was tuned on: normalised times read as host time on that host.
const REF_QUIET_S: f64 = 0.025;

/// A fixed memory-bound computation, timed after every timed repetition of
/// an untraced run. On the tuning host, over 20 s windows of a 4-minute
/// trace, the simulator's median run time spread 20% (IQR/median) and its
/// ratio to this kernel's time 6.5%.
#[derive(Debug)]
struct Reference {
    table: Vec<u32>,
    state: u64,
}

impl Reference {
    fn new() -> Self {
        Reference {
            table: vec![1; REF_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Size of the table in MB (10^6 bytes): resident for the whole run.
    fn mb(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u32>()) as f64 / 1e6
    }

    /// Runs the kernel once and returns its wall time in seconds.
    fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = self.state;
        for _ in 0..REF_ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & mask];
            *slot = if *slot & 1 == 0 {
                slot.wrapping_add(3)
            } else {
                *slot >> 1
            };
        }
        self.state = x;
        std::hint::black_box(&self.table);
        start.elapsed().as_secs_f64()
    }
}

/// Host-time and check results of one repetition.
#[derive(Debug, Clone, Default)]
struct Rep {
    gen_s: f64,
    new_s: f64,
    run_s: f64,
    /// [`Reference`] kernel time after this repetition (timed repetitions
    /// of untraced runs only).
    ref_s: f64,
    line_ops: u64,
    ammat_ns: f64,
    /// Peak RSS of the process so far, less the [`Reference`] table (read
    /// after the first timed repetition only; see [`run`]).
    peak_rss_mb: f64,
    failures: Vec<String>,
    /// Per-layer values (traced repetitions only).
    layers: BTreeMap<&'static str, f64>,
}

/// How one benchmark run is set up.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload measured.
    pub workload: Workload,
    /// Trace generation seed.
    pub seed: u64,
    /// Wall budget of the timed repetitions, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics and spans instead of end-to-end ones.
    pub traced: bool,
    /// Geometry and trace length.
    pub scale: Scale,
    /// Digests the reports must match.
    pub pins: Pins,
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct RunResult {
    /// Repetitions made (the warm-up included).
    pub attempted: u64,
    /// Repetitions that failed an output check.
    pub failed: u64,
    /// Each failed check, prefixed by its repetition.
    pub failures: Vec<String>,
    /// Reported metrics: name -> (value, unit), in the declared order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The run's `SimReport` digest.
    pub digest: u64,
    /// Raw per-repetition samples, for the result file.
    pub samples: Value,
    /// Spans recorded (traced runs only).
    pub spans: SpanLog,
}

impl RunResult {
    /// `{"correct", "attempted", "failed", "metrics"}`, the benchmark's
    /// last output line.
    pub fn summary(&self) -> Value {
        let mut metrics = serde_json::Map::new();
        for (name, value, unit) in &self.metrics {
            metrics.insert(name.to_string(), json!({"value": *value, "unit": *unit}));
        }
        json!({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics)
        })
    }
}

/// Median of `xs` (0 for an empty slice).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Runs one workload: a warm-up repetition, then timed repetitions until
/// `seconds` have passed (at least [`MIN_REPS`]), checking every report.
///
/// Peak RSS is read once, after the first timed repetition, less the
/// [`Reference`] table: by then the process has run the workload (the
/// warm-up, then the timed shard count). Read at the end, it would also
/// hold heap fragmentation from the benchmark's own bookkeeping, which
/// grows with the number of repetitions a run happens to make
/// (`mix1-mempod`: 42 MB, jumping to 61 or 80 MB late in some runs).
///
/// # Panics
///
/// Panics if the workload's configuration is rejected by the simulator
/// (a bug in the workload table).
pub fn run(rc: &RunConfig) -> RunResult {
    let w = rc.workload;
    let cfg = rc.scale.sim_config(w.manager);
    let pinned = rc.pins.get(&w, &rc.scale, rc.seed);
    let mut log = SpanLog::new(rc.traced);
    let mut reps: Vec<Rep> = Vec::new();
    let mut expected = pinned;
    let mut failures = Vec::new();
    let budget = Duration::from_secs_f64(rc.seconds);
    let min_reps = if rc.traced { 1 } else { MIN_REPS };
    let mut timed_since: Option<Instant> = None;
    let mut run_id = 0u64;
    // Allocated before the first simulation: allocated later, its 32 MB
    // changed where the allocator placed the simulator's tables and made
    // `Simulator::new` 3-4x slower.
    let mut reference = (!rc.traced).then(Reference::new);
    loop {
        if let Some(t) = timed_since {
            if reps.len() > min_reps && t.elapsed() >= budget {
                break;
            }
        }
        // Repetition 0 warms caches and the allocator and is not timed; on
        // the sharded workload it runs one shard, the reference the
        // sharded reports must equal.
        let warmup = timed_since.is_none();
        let rep_span = log.open("rep", 0, run_id);
        let parent = log.id(&rep_span);
        let (trace, gen) = log.time("trace.gen", parent, run_id, || rc.scale.trace(&w, rc.seed));
        let shards = if warmup { 1 } else { w.shards };
        let (sim, new) = log.time("sim.new", parent, run_id, || {
            Simulator::new(cfg.clone())
                .expect("benchmark workloads have valid configs")
                .with_shards(shards)
        });
        let (report, run_t) = log.time("sim.run", parent, run_id, || sim.run(&trace));
        let d = digest(&report);
        let mut rep = Rep {
            gen_s: gen.as_secs_f64(),
            new_s: new.as_secs_f64(),
            run_s: run_t.as_secs_f64(),
            line_ops: line_ops(&report),
            ammat_ns: report.ammat_ns().unwrap_or(0.0),
            ..Rep::default()
        };
        let want = *expected.get_or_insert(d);
        if d != want {
            rep.failures.push(format!(
                "digest {d:016x} differs from the expected {want:016x}{}",
                if pinned.is_some() { " (pinned)" } else { "" }
            ));
        }
        if report.ammat_ns().is_none() {
            rep.failures.push("report has no AMMAT".to_string());
        }
        if rep.line_ops != report.mem_stats.total().requests() {
            rep.failures.push(format!(
                "line ops {} != DRAM requests serviced {}",
                rep.line_ops,
                report.mem_stats.total().requests()
            ));
        }
        if reps.len() == 1 {
            rep.peak_rss_mb = peak_rss_mb() - reference.as_ref().map_or(0.0, Reference::mb);
        }
        if let (Some(r), false) = (reference.as_mut(), warmup) {
            rep.ref_s = r.time();
        }
        if rc.traced && !warmup {
            traced_layers(
                rc, &cfg, &trace, &report, &mut rep, &mut log, parent, run_id,
            );
        }
        log.close(rep_span);
        failures.extend(rep.failures.iter().map(|f| {
            format!(
                "rep {run_id}{}: {f}",
                if warmup { " (warm-up)" } else { "" }
            )
        }));
        reps.push(rep);
        run_id += 1;
        if warmup {
            timed_since = Some(Instant::now());
        }
    }
    finish(rc, reps, failures, expected.unwrap_or(0), log)
}

/// The traced repetition's extra passes: a run with the phase clock
/// attached, the core and dram replays, and a telemetry-enabled run.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    rc: &RunConfig,
    cfg: &SimConfig,
    trace: &Trace,
    plain: &SimReport,
    rep: &mut Rep,
    log: &mut SpanLog,
    parent: u64,
    run_id: u64,
) {
    let w = rc.workload;
    let want = digest(plain);
    let reqs = trace.len().max(1) as f64;
    let l = &mut rep.layers;

    // Traced run: the same simulation with the phase clock attached.
    let clock = Arc::new(PhaseClock::new(w.shards as usize));
    let sim = Simulator::new(cfg.clone())
        .expect("benchmark workloads have valid configs")
        .with_shards(w.shards)
        .with_phase_clock(Arc::clone(&clock));
    let (traced, traced_t) = log.time("sim.run.traced", parent, run_id, || sim.run(trace));
    if digest(&traced) != want {
        rep.failures
            .push("traced run report differs from the plain run".to_string());
    }
    l.insert(
        "bench.trace_overhead_pct",
        (traced_t.as_secs_f64() / rep.run_s - 1.0) * 100.0,
    );
    let busy = clock.shard_busy_ns();
    let busy_sum: u64 = busy.iter().sum();
    let crit = clock.critical_path_ns();
    let sharded = w.shards > 1 && crit > 0;
    let (adm_share, speedup, imbalance) = if sharded {
        let mean = busy_sum as f64 / busy.len() as f64;
        let max = busy.iter().copied().max().unwrap_or(0) as f64;
        (
            clock.admission_ns() as f64 / traced_t.as_nanos() as f64,
            (clock.admission_ns() + busy_sum) as f64 / crit as f64,
            if mean > 0.0 { max / mean } else { 0.0 },
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    l.insert("sim.admission_share", adm_share);
    l.insert("sim.critical_path_speedup", speedup);
    l.insert("sim.shard_imbalance", imbalance);
    l.insert("sim.barriers", clock.barriers() as f64);

    // Core layer.
    let (core, _) = log.time("core.replay", parent, run_id, || core_replay(cfg, trace));
    let core_s = core.on_access.as_secs_f64();
    let mig_lines: u64 = core
        .migrations
        .iter()
        .map(|(_, m)| 4 * u64::from(m.line_count))
        .sum();
    l.insert("core.on_access_ns", core_s * 1e9 / reqs);
    l.insert("core.share", core_s / rep.run_s);
    l.insert("core.migrations", core.migrations.len() as f64);
    l.insert("core.migration_lines_per_req", mig_lines as f64 / reqs);
    for name in CORE_COUNTERS {
        let v = core
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |c| c.1);
        l.insert(core_counter_metric(name), v as f64);
    }
    if core.migrations.len() as u64 != plain.migration.migrations {
        rep.failures.push(format!(
            "core replay made {} migrations, the report {}",
            core.migrations.len(),
            plain.migration.migrations
        ));
    }
    // No benchmark workload has a metadata cache, so there are no
    // metadata fetches to replay; if one appeared, this check fails.
    let replay_ops = trace.len() as u64 + mig_lines;
    if replay_ops != rep.line_ops {
        rep.failures.push(format!(
            "core replay implies {replay_ops} line ops, the report {}",
            rep.line_ops
        ));
    }

    // DRAM layer.
    let (dram, _) = log.time("dram.replay", parent, run_id, || {
        dram_replay(cfg.layout(), &core)
    });
    drop(core);
    if dram.submits != replay_ops || dram.completed != dram.submits {
        rep.failures.push(format!(
            "dram replay submitted {} and completed {} of {replay_ops} line ops",
            dram.submits, dram.completed
        ));
    }
    let dram_s = (dram.submit + dram.drain).as_secs_f64();
    let total = plain.mem_stats.total();
    l.insert(
        "dram.submit_ns",
        dram.submit.as_secs_f64() * 1e9 / dram.submits.max(1) as f64,
    );
    l.insert(
        "dram.drain_ns_per_op",
        dram.drain.as_secs_f64() * 1e9 / dram.completed.max(1) as f64,
    );
    l.insert("dram.drain_calls_per_req", dram.passes as f64 / reqs);
    l.insert(
        "dram.empty_drain_ratio",
        dram.empty_passes as f64 / dram.passes.max(1) as f64,
    );
    l.insert("dram.share", dram_s / rep.run_s);
    l.insert("dram.scans_per_decision", total.scans_per_decision());
    l.insert("dram.max_queue_depth", total.max_queue_depth as f64);
    l.insert("dram.row_hit_rate", total.row_hit_rate());
    l.insert("sim.self_s", rep.run_s - core_s - dram_s);

    // Telemetry: a DiscardSink-equivalent sink with default span sampling.
    let events = Arc::new(AtomicU64::new(0));
    let tel = Telemetry::with_sink(Box::new(CountingSink(Arc::clone(&events))))
        .with_spans(SpanConfig::default());
    let sim = Simulator::new(cfg.clone())
        .expect("benchmark workloads have valid configs")
        .with_shards(w.shards)
        .with_telemetry(tel);
    let (with_tel, tel_t) = log.time("sim.run.telemetry", parent, run_id, || sim.run(trace));
    if digest(&with_tel) != want {
        rep.failures
            .push("telemetry run report differs from the plain run".to_string());
    }
    l.insert(
        "telemetry.overhead_pct",
        (tel_t.as_secs_f64() / rep.run_s - 1.0) * 100.0,
    );
    l.insert("telemetry.events", events.load(Ordering::Relaxed) as f64);
}

/// `core.<counter>` metric name for a manager counter.
fn core_counter_metric(counter: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_prefix("core.") == Some(counter))
        .expect("every core counter has a per-layer metric")
}

fn finish(
    rc: &RunConfig,
    reps: Vec<Rep>,
    failures: Vec<String>,
    digest: u64,
    spans: SpanLog,
) -> RunResult {
    let attempted = reps.len() as u64;
    let failed = reps.iter().filter(|r| !r.failures.is_empty()).count() as u64;
    // reps[0] is the warm-up: checked, but not in the medians.
    let timed = &reps[1..];
    let col = |f: &dyn Fn(&Rep) -> f64| median(&timed.iter().map(f).collect::<Vec<_>>());
    let best = |f: &dyn Fn(&Rep) -> f64| timed.iter().map(f).fold(f64::INFINITY, f64::min);
    // A repetition's host time at the quiet host's speed: a shared host
    // slows the simulator by up to 1.8x for minutes at a time, and the
    // reference kernel timed beside it by about as much.
    let norm = |r: &Rep, s: f64| s / r.ref_s * REF_QUIET_S;
    let requests = rc.scale.requests as f64;
    let metrics: Vec<(&'static str, f64, &'static str)> = if rc.traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "trace.gen_s" => col(&|r| r.gen_s),
                    "sim.new_s" => col(&|r| r.new_s),
                    _ => col(&|r| r.layers.get(name).copied().unwrap_or(f64::NAN)),
                };
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "norm_req_per_s" => requests / col(&|r| norm(r, r.run_s)),
                    "norm_ns_per_line_op" => col(&|r| norm(r, r.run_s) * 1e9 / r.line_ops as f64),
                    "setup_s" => col(&|r| norm(r, r.gen_s + r.new_s)),
                    "peak_rss_mb" => timed[0].peak_rss_mb,
                    "ammat_ns" => col(&|r| r.ammat_ns),
                    _ => unreachable!("END_TO_END lists only these"),
                };
                (name, v, unit)
            })
            .collect()
    };
    let samples = json!({
        "median_sim_req_per_s": requests / col(&|r| r.run_s),
        "best_sim_req_per_s": requests / best(&|r| r.run_s),
        "run_s": timed.iter().map(|r| r.run_s).collect::<Vec<_>>(),
        "ref_s": timed.iter().map(|r| r.ref_s).collect::<Vec<_>>(),
        "gen_s": timed.iter().map(|r| r.gen_s).collect::<Vec<_>>(),
        "new_s": timed.iter().map(|r| r.new_s).collect::<Vec<_>>()
    });
    RunResult {
        attempted,
        failed,
        failures,
        metrics,
        digest,
        samples,
        spans,
    }
}
