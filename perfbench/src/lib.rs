//! Wall-clock benchmark of the SKYPEER workspace.
//!
//! One client, one thread, closed loop: the next query is issued when the
//! previous one returns. Each workload is built from a seed, timed through
//! the public API with tracing off, and every answer is checked outside
//! the timed region. A separate traced pass over the same inputs times the
//! layers one by one (see `layers.rs` and `README.md`).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use skypeer_core::churn::{ChurnEvent, ChurnQueryReport, ChurnRunner};
use skypeer_core::preprocess::SuperPeerStore;
use skypeer_core::verify::{exact_skyline_ids, global_dataset};
use skypeer_core::{EngineConfig, SkypeerEngine, Variant};
use skypeer_data::{DatasetKind, InitiatorMix, KMix, MixedWorkloadSpec, Query, WorkloadSpec};
use skypeer_skyline::{PointSet, Subspace};

mod layers;

/// The four SKYPEER variants the engine workloads cycle through.
const VARIANTS: [Variant; 4] = [Variant::Ftfm, Variant::Ftpm, Variant::Rtfm, Variant::Rtpm];

/// Byte budget of every subspace result cache the benchmark builds.
pub(crate) const CACHE_BYTES: u64 = 4 << 20;

/// Child timeout of the churn runner. Nothing crashes in these workloads,
/// so it only has to outlast any failure-free query.
const CHILD_TIMEOUT_NS: u64 = 3_600_000_000_000;

/// Below this many points the exactness oracle is the quadratic brute
/// force; above it, Algorithm 1 over the raw (unpreprocessed) data.
const ORACLE_BRUTE_CUTOFF: usize = 2_000;

/// Mixes the command-line seed into the query stream's seed, so that data
/// and queries come from independent streams.
const QUERY_SEED_SALT: u64 = 0x005E_ED0F_C1E7;

/// Salt of the data stream of peers that join during a run.
const JOIN_SEED_SALT: u64 = 0x0001_0E55_7A12;

/// The workloads, each stressing a different layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Section 6 default network: kernel-bound.
    PaperUniform,
    /// Many super-peers with tiny correlated stores: protocol-bound.
    BackboneWide,
    /// A growing network behind the subspace cache: reads beside writes.
    ZipfChurnCached,
}

impl Workload {
    /// Every workload this benchmark can run (`BENCHMARK.json` gates a
    /// subset).
    pub const ALL: [Workload; 3] =
        [Workload::PaperUniform, Workload::BackboneWide, Workload::ZipfChurnCached];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperUniform => "paper-uniform",
            Workload::BackboneWide => "backbone-wide",
            Workload::ZipfChurnCached => "zipf-churn-cached",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one workload. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] keeps the self-test fast.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Peers of the network (the cached workload: peers joined at set-up).
    pub n_peers: usize,
    /// Points per peer.
    pub points_per_peer: usize,
    /// Distinct queries the engine workloads cycle through; the prefix of
    /// the cached workload's stream that the deterministic metrics and
    /// the traced pass cover.
    pub queries: usize,
    /// Times the set-up runs (at least; fast ones repeat for a second);
    /// `setup_s` is the median.
    pub setup_reps: usize,
    /// Queries between two peer joins.
    pub queries_per_join: usize,
}

impl Scale {
    /// The measured configuration.
    pub fn full(w: Workload) -> Scale {
        match w {
            Workload::PaperUniform => Scale {
                n_peers: 800,
                points_per_peer: 250,
                queries: 256,
                setup_reps: 4,
                queries_per_join: 20,
            },
            Workload::BackboneWide => Scale {
                n_peers: 4000,
                points_per_peer: 3,
                queries: 256,
                setup_reps: 2,
                queries_per_join: 20,
            },
            Workload::ZipfChurnCached => Scale {
                n_peers: 400,
                points_per_peer: 250,
                queries: 2000,
                setup_reps: 3,
                // At one join per 20 queries about half the queries hit,
                // and `query_ms.p50` sat on the edge between hits
                // (~0.01–1 ms) and misses (~2–20 ms), moving by a quarter
                // from seed to seed; with more joins it falls among the
                // misses.
                queries_per_join: 10,
            },
        }
    }

    /// A toy configuration with the same shape, for the self-test.
    pub fn tiny(w: Workload) -> Scale {
        let full = Scale::full(w);
        Scale {
            n_peers: 60,
            points_per_peer: full.points_per_peer.min(30),
            queries: 12,
            setup_reps: 2,
            queries_per_join: 4,
        }
    }
}

/// One benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// `false`: end-to-end metrics, untraced. `true`: the traced per-layer
    /// pass.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What a run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Operations whose answer was checked.
    pub attempted: u64,
    /// Operations that panicked, came back incomplete or were inexact.
    pub failed: u64,
    /// Deterministic values (simulated times, byte and operation counts,
    /// cache counters): a pure function of the seed.
    pub deterministic: Vec<(&'static str, f64)>,
}

impl Report {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// `put` for a value that must repeat exactly under the same seed.
    fn put_det(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.put(name, unit, value);
        self.deterministic.push((name, value));
    }
}

/// Runs one workload.
pub fn run(spec: &RunSpec) -> Report {
    if spec.trace {
        return layers::traced_pass(spec);
    }
    match spec.workload {
        Workload::PaperUniform | Workload::BackboneWide => run_engine_workload(spec),
        Workload::ZipfChurnCached => run_churn_workload(spec),
    }
}

/// The engine configuration of a workload: the paper default at the
/// workload's size, with only the data fields overridden.
pub fn engine_config(w: Workload, scale: &Scale, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::paper_default(scale.n_peers, seed);
    cfg.dataset.points_per_peer = scale.points_per_peer;
    if w == Workload::BackboneWide {
        cfg.dataset.kind = DatasetKind::Correlated;
    }
    cfg
}

/// The engine workloads' query list: uniform `k = 3` subspaces, uniform
/// initiators, cycling the four variants.
pub(crate) fn engine_queries(
    cfg: &EngineConfig,
    scale: &Scale,
    seed: u64,
) -> Vec<(Query, Variant)> {
    WorkloadSpec {
        dim: cfg.dataset.dim,
        k: 3,
        queries: scale.queries,
        n_superpeers: cfg.n_superpeers,
        seed: seed ^ QUERY_SEED_SALT,
    }
    .generate()
    .into_iter()
    .zip(VARIANTS.iter().copied().cycle())
    .collect()
}

/// The cached workload's query stream: Zipf `k ∈ [1, 3]` and Zipf
/// initiators, both with exponent 1. With `k` up to 5, the rare `k = 4, 5`
/// misses (100–500 ms each, memory-bound) set both `query_ms.p95` and most
/// of the run time, and those swung by 25–35% between runs of one seed.
pub fn churn_queries(cfg: &EngineConfig, len: usize, seed: u64) -> Vec<Query> {
    MixedWorkloadSpec {
        dim: cfg.dataset.dim,
        queries: len,
        n_superpeers: cfg.n_superpeers,
        seed: seed ^ QUERY_SEED_SALT,
        k_mix: KMix::Zipf { k_min: 1, k_max: 3, exponent: 1.0 },
        initiator_mix: InitiatorMix::Zipf { exponent: 1.0 },
    }
    .generate()
}

/// The data of peer `peer`, joining super-peer `sp` at run time. Ids
/// past `cfg.n_peers` never collide with a set-up peer's.
pub(crate) fn joining_peer(cfg: &EngineConfig, peer: usize, sp: usize) -> PointSet {
    let mut spec = cfg.dataset;
    spec.seed ^= JOIN_SEED_SALT;
    spec.generate_peer(peer, sp)
}

/// A cached churn network grown by `cfg.n_peers` joins, every peer at the
/// super-peer `Topology::assign_peers` would give it.
pub(crate) fn grow_churn_network(cfg: &EngineConfig) -> ChurnRunner {
    let topology = cfg.topology.generate();
    let homes = topology.assign_peers(cfg.n_peers);
    let mut runner = ChurnRunner::new(
        topology,
        cfg.dataset.dim,
        cfg.index,
        cfg.cost,
        cfg.link,
        CHILD_TIMEOUT_NS,
    )
    .with_cache(CACHE_BYTES);
    for (peer, &sp) in homes.iter().enumerate() {
        let points = cfg.dataset.generate_peer(peer, sp);
        runner.apply(ChurnEvent::PeerJoin { superpeer: sp, points });
    }
    runner
}

/// Step `i` of the cached workload's stream: a peer join every
/// `scale.queries_per_join` queries, then query `i` under FTPM. Returns
/// the join's time in ms (when one happened), the query's time in ms and
/// its report (`None` when it panicked).
pub(crate) fn churn_step(
    runner: &mut ChurnRunner,
    cfg: &EngineConfig,
    scale: &Scale,
    stream: &[Query],
    i: usize,
) -> (Option<f64>, f64, Option<ChurnQueryReport>) {
    let mut join_ms = None;
    if i > 0 && i.is_multiple_of(scale.queries_per_join) {
        let peer = cfg.n_peers + i / scale.queries_per_join - 1;
        let superpeer = peer % cfg.n_superpeers;
        let points = joining_peer(cfg, peer, superpeer);
        let t0 = Instant::now();
        runner.apply(ChurnEvent::PeerJoin { superpeer, points });
        join_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
    }
    let query = stream[i % stream.len()];
    let t0 = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        runner.apply(ChurnEvent::Query { query, variant: Variant::Ftpm })
    }))
    .ok()
    .flatten();
    (join_ms, t0.elapsed().as_secs_f64() * 1e3, report)
}

/// The exact answers of one engine network, from its raw data, and the
/// tally of checked operations.
pub(crate) struct Oracle {
    all: PointSet,
    answers: HashMap<Subspace, Vec<u64>>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
}

impl Oracle {
    pub(crate) fn new(engine: &SkypeerEngine) -> Self {
        let cfg = engine.config();
        let peer_home = engine.topology().assign_peers(cfg.n_peers);
        Oracle {
            all: global_dataset(&cfg.dataset, &peer_home),
            answers: HashMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks one answer on `u`; `got` is `None` when the operation
    /// panicked or came back incomplete.
    pub(crate) fn check(&mut self, u: Subspace, got: Option<&[u64]>) {
        let all = &self.all;
        let want =
            self.answers.entry(u).or_insert_with(|| exact_skyline_ids(all, u, ORACLE_BRUTE_CUTOFF));
        let ok = got == Some(want.as_slice());
        self.record(ok);
    }

    /// Records one checked operation.
    pub(crate) fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Times at least `reps` runs of `build`, and as many as fit in
/// `min_total_s`, keeping only the last result alive; each earlier result is
/// dropped before the next build. The workloads build once before the
/// timed phase and repeat the set-up after it, once `peak_rss_mb` is
/// read, so the repetitions neither fragment the heap the timed phase
/// runs on nor count towards its peak.
fn timed_setups<T>(reps: usize, min_total_s: f64, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    const MAX_REPS: usize = 200;
    let mut times: Vec<f64> = Vec::with_capacity(reps);
    let mut last = None;
    while times.len() < reps.max(1)
        || (times.iter().sum::<f64>() < min_total_s && times.len() < MAX_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(std::hint::black_box(build()));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Fast set-ups repeat after the timed phase until this much time has
/// passed, so their median rests on enough samples to be steady.
const SETUP_MIN_TOTAL_S: f64 = 1.0;

/// What one timed engine query left for the checks.
/// Only the answer's ids are kept, so that memory does not grow with the
/// number of queries the timed phase fits.
struct EngineAnswer {
    slot: usize,
    /// `None` when the query panicked or came back incomplete.
    ids: Option<Vec<u64>>,
    total_time_ns: u64,
    volume_bytes: u64,
}

fn run_engine_workload(spec: &RunSpec) -> Report {
    let scale = &spec.scale;
    let cfg = engine_config(spec.workload, scale, spec.seed);
    let queries = engine_queries(&cfg, scale, spec.seed);
    let build = || SkypeerEngine::build(cfg);
    let (engine, mut setup_times) = timed_setups(1, 0.0, build);

    // Warm-up: one untimed query per variant.
    for &(q, v) in queries.iter().take(VARIANTS.len()) {
        let _ = catch_unwind(AssertUnwindSafe(|| engine.run_query(q, v)));
    }

    let deadline = Duration::from_secs_f64(spec.seconds);
    let mut lat_ms: Vec<f64> = Vec::new();
    let mut join_ms: Vec<f64> = Vec::new();
    let mut answers: Vec<EngineAnswer> = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < queries.len() || start.elapsed() < deadline {
        if i > 0 && i.is_multiple_of(scale.queries_per_join) {
            join_ms.push(time_replica_join(&engine, i / scale.queries_per_join - 1));
        }
        let slot = i % queries.len();
        let (q, v) = queries[slot];
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| engine.run_query(q, v))).ok();
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        answers.push(match out {
            Some(o) => EngineAnswer {
                slot,
                ids: o.complete.then_some(o.result_ids),
                total_time_ns: o.total_time_ns,
                volume_bytes: o.volume_bytes,
            },
            None => EngineAnswer { slot, ids: None, total_time_ns: 0, volume_bytes: 0 },
        });
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    setup_times.extend(timed_setups(scale.setup_reps - 1, SETUP_MIN_TOTAL_S, build).1);
    let setup_s = median(&mut setup_times);

    // Checks, outside the timed region: every answer against the exact
    // skyline of the raw global dataset.
    let mut oracle = Oracle::new(&engine);
    for a in &answers {
        oracle.check(queries[a.slot].0.subspace, a.ids.as_deref());
    }

    // Deterministic metrics: the first pass over the query list.
    let first_pass = &answers[..queries.len()];
    let n = first_pass.len() as f64;
    let sim_ms = first_pass.iter().map(|a| a.total_time_ns as f64).sum::<f64>() / n / 1e6;
    let vol_kb = first_pass.iter().map(|a| a.volume_bytes as f64).sum::<f64>() / n / 1e3;

    let mut r = Report { attempted: oracle.attempted, failed: oracle.failed, ..Report::default() };
    let join_p50 = median(&mut join_ms);
    put_end_to_end(&mut r, setup_s, &mut lat_ms, wall_s, join_p50, sim_ms, vol_kb, peak_rss_mb);
    r
}

/// The engine workloads' side of a `PeerJoin`: the engine cannot change,
/// so join `j` goes into a fresh copy of one super-peer's store (round
/// robin), doing the incremental store maintenance of Section 5.3 that
/// `ChurnEvent::PeerJoin` does. Returns the join's time in ms.
fn time_replica_join(engine: &SkypeerEngine, j: usize) -> f64 {
    let cfg = engine.config();
    let sp = j % cfg.n_superpeers;
    let points = joining_peer(cfg, cfg.n_peers + j, sp);
    let mut replica = SuperPeerStore {
        store: engine.store(sp).clone(),
        raw_points: 0,
        uploaded_points: 0,
        uploaded_bytes: 0,
    };
    let t0 = Instant::now();
    replica.join_peer(&points, cfg.index);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&replica);
    ms
}

fn run_churn_workload(spec: &RunSpec) -> Report {
    let scale = &spec.scale;
    let cfg = engine_config(spec.workload, scale, spec.seed);
    // Long enough for any run; the loop wraps around if it is not.
    let stream = churn_queries(&cfg, 10_000, spec.seed);
    let build = || grow_churn_network(&cfg);
    let (mut runner, mut setup_times) = timed_setups(1, 0.0, build);

    let deadline = Duration::from_secs_f64(spec.seconds);
    let mut lat_ms: Vec<f64> = Vec::new();
    let mut join_ms: Vec<f64> = Vec::new();
    // Per query: whether it was complete and exact (`false` when it
    // panicked), its simulated time and its bytes. Only these are kept, so
    // that memory does not grow with the number of queries.
    let mut reports: Vec<(bool, u64, u64)> = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < scale.queries || start.elapsed() < deadline {
        let (join, query_ms, report) = churn_step(&mut runner, &cfg, scale, &stream, i);
        join_ms.extend(join);
        lat_ms.push(query_ms);
        reports.push(report.map_or((false, 0, 0), |r| {
            (r.complete && r.exact_for_live_data, r.total_time_ns, r.volume_bytes)
        }));
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    drop(runner);
    setup_times.extend(timed_setups(scale.setup_reps - 1, SETUP_MIN_TOTAL_S, build).1);
    let setup_s = median(&mut setup_times);

    let failed = reports.iter().filter(|r| !r.0).count() as u64;
    let prefix = &reports[..scale.queries];
    let n = prefix.len() as f64;
    let sim_ms = prefix.iter().map(|r| r.1 as f64).sum::<f64>() / n / 1e6;
    let vol_kb = prefix.iter().map(|r| r.2 as f64).sum::<f64>() / n / 1e3;

    let mut r = Report { attempted: reports.len() as u64, failed, ..Report::default() };
    let join_p50 = median(&mut join_ms);
    put_end_to_end(&mut r, setup_s, &mut lat_ms, wall_s, join_p50, sim_ms, vol_kb, peak_rss_mb);
    r
}

#[allow(clippy::too_many_arguments)]
fn put_end_to_end(
    r: &mut Report,
    setup_s: f64,
    lat_ms: &mut [f64],
    wall_s: f64,
    join_ms: f64,
    sim_ms: f64,
    vol_kb: f64,
    peak_rss_mb: f64,
) {
    lat_ms.sort_by(f64::total_cmp);
    r.put("setup_s", "s", setup_s);
    r.put("query_ms.p50", "ms", quantile_sorted(lat_ms, 0.5));
    r.put("query_ms.p95", "ms", quantile_sorted(lat_ms, 0.95));
    r.put("qps", "1/s", lat_ms.len() as f64 / wall_s);
    r.put("join_ms.p50", "ms", join_ms);
    r.put_det("sim_response_ms.mean", "ms", sim_ms);
    r.put_det("volume_kb.mean", "kB", vol_kb);
    r.put("peak_rss_mb", "MB", peak_rss_mb);
}

/// Linear-interpolated quantile of ascending `sorted` (0 when empty).
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorted in place).
pub(crate) fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, 0.5)
}

/// The process's peak resident set, in MB (`VmHWM`; 0 where `/proc` is
/// missing).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed integer workload independent of the program under test: its
/// time tells host drift apart from a change in the program. It sorts a
/// 512 KiB array 32 times, so it stays out of `peak_rss_mb`. Returns
/// milliseconds.
pub fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut v = vec![0u64; 1 << 16];
    for _ in 0..32 {
        for x in v.iter_mut() {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *x = z ^ (z >> 31);
        }
        v.sort_unstable();
        std::hint::black_box(&v);
    }
    t0.elapsed().as_secs_f64() * 1e3
}
