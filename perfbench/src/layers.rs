//! The traced pass: per-layer metrics over the same inputs as the timed
//! run. Every number is taken from this file's own timers around calls
//! into public functions, or read from public counters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use skypeer_core::cached::CachedEngine;
use skypeer_core::msg::Msg;
use skypeer_core::{preprocess_network, EngineConfig, SkypeerEngine, Variant};
use skypeer_data::Query;
use skypeer_obs::{prof, ClockMode, MemTracer};
use skypeer_skyline::merge::merge_sorted;
use skypeer_skyline::sorted::{threshold_skyline, KernelStats};
use skypeer_skyline::{Dominance, DominanceIndex, SortedDataset};

use crate::{
    churn_queries, churn_step, engine_config, engine_queries, grow_churn_network, median, Oracle,
    Report, RunSpec, Workload, CACHE_BYTES,
};

/// Queries of the layer replay (the first of the workload's queries).
const LAYER_QUERIES: usize = 64;

fn ids(set: &SortedDataset) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..set.len()).map(|i| set.points().id(i)).collect();
    ids.sort_unstable();
    ids
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs the traced pass of `spec.workload`.
pub fn traced_pass(spec: &RunSpec) -> Report {
    let scale = &spec.scale;
    let cfg = engine_config(spec.workload, scale, spec.seed);
    let mut r = Report::default();

    // Set-up, layer by layer: the same steps `SkypeerEngine::build` takes.
    let t0 = Instant::now();
    let topology = cfg.topology.generate();
    let homes = topology.assign_peers(cfg.n_peers);
    let peer_sets: Vec<_> =
        homes.iter().enumerate().map(|(p, &sp)| cfg.dataset.generate_peer(p, sp)).collect();
    r.put("data.gen_s", "s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let (stores, report) =
        preprocess_network(&peer_sets, &homes, cfg.n_superpeers, cfg.dataset.dim, cfg.index);
    r.put("preprocess.s", "s", t0.elapsed().as_secs_f64());
    r.put_det("preprocess.stored_points", "count", report.stored_points as f64);
    drop((stores, peer_sets));

    // On the cached workload the engine holds the network as set up, the
    // state its first queries run against.
    let engine = SkypeerEngine::build(cfg);
    let mut oracle = Oracle::new(&engine);
    let queries: Vec<(Query, Variant)> = match spec.workload {
        Workload::PaperUniform | Workload::BackboneWide => engine_queries(&cfg, scale, spec.seed),
        Workload::ZipfChurnCached => churn_queries(&cfg, scale.queries, spec.seed)
            .into_iter()
            .map(|q| (q, Variant::Ftpm))
            .collect(),
    };
    let replay = &queries[..queries.len().min(LAYER_QUERIES)];

    kernel_and_codec_layers(&mut r, &engine, replay, &mut oracle);
    engine_layers(&mut r, &engine, replay, &mut oracle);
    match spec.workload {
        Workload::PaperUniform | Workload::BackboneWide => {
            cache_layer_engine(&mut r, &engine, &queries, &mut oracle)
        }
        Workload::ZipfChurnCached => cache_layer_churn(&mut r, &cfg, spec, &mut oracle),
    }
    r.attempted = oracle.attempted;
    r.failed = oracle.failed;
    r
}

/// Algorithm 1, Algorithm 2 and the wire codec, replayed FT-style over
/// the engine's stores: the initiator's local threshold seeds every other
/// store, as in the `FT*` variants.
fn kernel_and_codec_layers(
    r: &mut Report,
    engine: &SkypeerEngine,
    replay: &[(Query, Variant)],
    oracle: &mut Oracle,
) {
    let index = engine.config().index;
    let stores: Vec<&SortedDataset> =
        (0..engine.topology().len()).map(|sp| engine.store(sp)).collect();
    let ft_replay = |q: &Query, index: DominanceIndex| -> (Vec<SortedDataset>, f64, KernelStats) {
        let u = q.subspace;
        let first =
            threshold_skyline(stores[q.initiator], u, Dominance::Standard, f64::INFINITY, index);
        let mut stats = first.stats;
        let mut results = vec![first.result];
        for (sp, store) in stores.iter().enumerate() {
            if sp != q.initiator {
                let out = threshold_skyline(store, u, Dominance::Standard, first.threshold, index);
                stats.absorb(out.stats);
                results.push(out.result);
            }
        }
        (results, first.threshold, stats)
    };

    let (mut alg1_ms, mut linear_ms, mut alg2_ms) = (0.0, 0.0, 0.0);
    let mut stats = KernelStats::default();
    let mut result_points = 0u64;
    let (mut enc_ns, mut dec_ns, mut bytes) = (0.0, 0.0, 0u64);
    for (q, _) in replay {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| ft_replay(q, DominanceIndex::Linear)));
        linear_ms += ms_since(t0);
        drop(out);
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| ft_replay(q, index)));
        alg1_ms += ms_since(t0);
        let Ok((results, threshold, s)) = out else {
            oracle.check(q.subspace, None);
            continue;
        };
        stats.absorb(s);
        result_points += results.iter().map(|s| s.len() as u64).sum::<u64>();

        let refs: Vec<&SortedDataset> = results.iter().collect();
        let t0 = Instant::now();
        let merged = catch_unwind(AssertUnwindSafe(|| {
            merge_sorted(&refs, q.subspace, Dominance::Standard, threshold, index)
        }));
        alg2_ms += ms_since(t0);
        oracle.check(q.subspace, merged.ok().map(|m| ids(&m.result)).as_deref());

        // Wire codec: each store's result as the `Answer` its super-peer
        // would send.
        let msgs: Vec<Msg> = results
            .into_iter()
            .map(|points| Msg::Answer { qid: 1, done: true, complete: true, points })
            .collect();
        let t0 = Instant::now();
        let frames: Vec<Vec<u8>> = msgs.iter().map(Msg::encode).collect();
        enc_ns += t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let decoded: Vec<Option<Msg>> = frames.iter().map(|f| Msg::decode(f)).collect();
        dec_ns += t0.elapsed().as_nanos() as f64;
        bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        oracle.record(decoded.into_iter().zip(&msgs).all(|(d, m)| d.as_ref() == Some(m)));
    }
    let n = replay.len().max(1) as f64;
    r.put("skyline.alg1_ms", "ms", alg1_ms / n);
    r.put("skyline.alg1_linear_ms", "ms", linear_ms / n);
    r.put_det("skyline.dominance_tests", "count", stats.dominance_tests as f64);
    r.put_det("skyline.points_scanned", "count", stats.points_scanned as f64);
    r.put("skyline.ns_per_test", "ns", alg1_ms * 1e6 / stats.dominance_tests.max(1) as f64);
    r.put_det(
        "skyline.useful_ratio",
        "ratio",
        result_points as f64 / stats.points_scanned.max(1) as f64,
    );
    r.put("skyline.alg2_ms", "ms", alg2_ms / n);
    r.put("msg.encode_ns_per_byte", "ns/B", enc_ns / bytes.max(1) as f64);
    r.put("msg.decode_ns_per_byte", "ns/B", dec_ns / bytes.max(1) as f64);
    r.put_det("msg.bytes", "B", bytes as f64);
}

/// The DES and the engine around it: one simulation
/// (`run_query_observed`) against the full `run_query` (two simulations),
/// untraced against traced and profiled. The four calls alternate per
/// query so host drift hits each alike. The profiled call's calltree also
/// gives the kernel's and the codec's self-time shares of a query.
fn engine_layers(
    r: &mut Report,
    engine: &SkypeerEngine,
    replay: &[(Query, Variant)],
    oracle: &mut Oracle,
) {
    let (mut des_ms, mut run_ms, mut traced_ms, mut prof_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut messages, mut rounds, mut comp_ns) = (0u64, 0u64, 0u64);
    let (mut prof_total_ns, mut prof_skyline_ns, mut prof_codec_ns) = (0u64, 0u64, 0u64);
    for &(q, v) in replay {
        let t0 = Instant::now();
        let observed = catch_unwind(AssertUnwindSafe(|| engine.run_query_observed(q, v, None)));
        des_ms += ms_since(t0);
        let t0 = Instant::now();
        let full = catch_unwind(AssertUnwindSafe(|| engine.run_query(q, v)));
        run_ms += ms_since(t0);
        let tracer = Arc::new(MemTracer::new());
        let t0 = Instant::now();
        let traced = catch_unwind(AssertUnwindSafe(|| engine.run_query_traced(q, v, tracer)));
        traced_ms += ms_since(t0);
        prof::start(ClockMode::Monotonic);
        let t0 = Instant::now();
        let profiled = catch_unwind(AssertUnwindSafe(|| engine.run_query(q, v)));
        prof_ms += ms_since(t0);
        let tree = prof::stop().tree;
        prof_total_ns += tree.root_total_ns();
        for i in 0..tree.len() {
            let label = tree.labels[tree.nodes[i].label as usize].as_str();
            if label.starts_with("skyline::") || label.starts_with("rtree::") {
                prof_skyline_ns += tree.self_ns(i);
            } else if label.starts_with("wire::") {
                prof_codec_ns += tree.self_ns(i);
            }
        }

        for out in [&observed, &full, &traced, &profiled] {
            let got = out.as_ref().ok().filter(|o| o.complete).map(|o| o.result_ids.as_slice());
            oracle.check(q.subspace, got);
        }
        if let Ok(o) = &observed {
            messages += o.messages;
            rounds += o.rounds;
        }
        if let Ok(o) = &full {
            comp_ns += o.comp_time_ns;
        }
    }
    let n = replay.len().max(1) as f64;
    r.put("netsim.des_ms", "ms", des_ms / n);
    r.put_det("netsim.messages", "count", messages as f64);
    r.put_det("netsim.rounds", "count", rounds as f64);
    r.put_det("netsim.sim_comp_ms", "ms", comp_ns as f64 / n / 1e6);
    r.put("engine.second_run_share", "ratio", 1.0 - des_ms / run_ms);
    r.put("obs.tracer_overhead", "ratio", traced_ms / run_ms);
    r.put("obs.prof_overhead", "ratio", prof_ms / run_ms);
    let total = prof_total_ns.max(1) as f64;
    r.put("prof.skyline_share", "ratio", prof_skyline_ns as f64 / total);
    r.put("prof.codec_share", "ratio", prof_codec_ns as f64 / total);
}

fn put_cache(
    r: &mut Report,
    stats: skypeer_cache::CacheStats,
    hit_ms: &mut [f64],
    miss_ms: &mut [f64],
) {
    r.put_det("cache.hit_rate", "ratio", stats.hits() as f64 / stats.lookups.max(1) as f64);
    r.put_det("cache.stale_rejects", "count", stats.stale_rejects as f64);
    r.put_det("cache.evictions", "count", stats.evictions as f64);
    r.put("cache.hit_ms.p50", "ms", median(hit_ms));
    r.put("cache.miss_ms.p50", "ms", median(miss_ms));
}

/// The engine workloads' query list through a cache-fronted engine.
fn cache_layer_engine(
    r: &mut Report,
    engine: &SkypeerEngine,
    queries: &[(Query, Variant)],
    oracle: &mut Oracle,
) {
    let mut cached = CachedEngine::new(engine, CACHE_BYTES);
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for &(q, v) in queries {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| cached.run_query(q, v)));
        let ms = ms_since(t0);
        match &out {
            Ok(o) if o.served_from_cache() => hit_ms.push(ms),
            _ => miss_ms.push(ms),
        }
        oracle.check(q.subspace, out.as_ref().ok().map(|o| o.outcome.result_ids.as_slice()));
    }
    put_cache(r, cached.stats(), &mut hit_ms, &mut miss_ms);
}

/// The cached workload's stream prefix, joins included, on a freshly
/// grown churn network.
fn cache_layer_churn(r: &mut Report, cfg: &EngineConfig, spec: &RunSpec, oracle: &mut Oracle) {
    let scale = &spec.scale;
    let stream = churn_queries(cfg, scale.queries, spec.seed);
    let mut runner = grow_churn_network(cfg);
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for i in 0..stream.len() {
        let (_, ms, report) = churn_step(&mut runner, cfg, scale, &stream, i);
        match &report {
            Some(rep) if rep.served_from_cache => hit_ms.push(ms),
            _ => miss_ms.push(ms),
        }
        oracle.record(report.is_some_and(|rep| rep.complete && rep.exact_for_live_data));
    }
    let stats = runner.cache_stats().expect("the churn network is cached");
    put_cache(r, stats, &mut hit_ms, &mut miss_ms);
}
