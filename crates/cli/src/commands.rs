//! CLI subcommand implementations.

use crate::args::{ArgError, Args};
use skypeer_core::engine::{EngineConfig, QueryMetrics, RunOptions, SkypeerEngine};
use skypeer_core::Variant;
use skypeer_data::{DatasetKind, DatasetSpec, Query, WorkloadSpec};
use skypeer_netsim::cost::CostModel;
use skypeer_netsim::des::LinkModel;
use skypeer_netsim::topology::TopologySpec;
use skypeer_skyline::{DominanceIndex, Subspace};

/// Builds an engine from the shared network flags:
/// `--peers`, `--superpeers`, `--dim`, `--points`, `--degree`, `--data`,
/// `--seed`, `--routing`.
fn engine_from(args: &Args) -> Result<SkypeerEngine, ArgError> {
    let n_peers: usize = args.get_or("peers", 400)?;
    let default_sp = EngineConfig::paper_superpeers(n_peers);
    let n_superpeers: usize = args.get_or("superpeers", default_sp)?;
    let dim: usize = args.get_or("dim", 8)?;
    let points_per_peer: usize = args.get_or("points", 250)?;
    let degree: f64 = args.get_or("degree", 4.0)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let kind = match args.str_or("data", "uniform").as_str() {
        "uniform" => DatasetKind::Uniform,
        "clustered" => DatasetKind::Clustered { centroids_per_superpeer: 2 },
        "correlated" => DatasetKind::Correlated,
        "anticorrelated" => DatasetKind::Anticorrelated,
        other => return Err(ArgError(format!("unknown --data '{other}'"))),
    };
    if n_superpeers == 0 || n_peers == 0 {
        return Err(ArgError("need at least one peer and one super-peer".into()));
    }
    // Small networks cannot host the default degree; clamp like the bench
    // harness does rather than bothering the user.
    let degree = degree.min(n_superpeers.saturating_sub(1) as f64);
    let index = if args.flag("linear")? { DominanceIndex::Linear } else { DominanceIndex::RTree };
    let routing = match args.str_or("routing", "flood").as_str() {
        "flood" => skypeer_core::engine::RoutingMode::Flood,
        "tree" => skypeer_core::engine::RoutingMode::SpanningTree,
        other => return Err(ArgError(format!("unknown --routing '{other}' (flood|tree)"))),
    };
    let mut topology = TopologySpec::paper_default(n_superpeers, seed ^ 0xD1CE);
    topology.avg_degree = degree;
    Ok(SkypeerEngine::build(EngineConfig {
        n_peers,
        n_superpeers,
        dataset: DatasetSpec { dim, points_per_peer, kind, seed },
        topology,
        index,
        cost: CostModel::default(),
        link: LinkModel::paper_4kbps(),
        routing,
    }))
}

fn parse_variant(name: &str) -> Result<Variant, ArgError> {
    match name.to_lowercase().as_str() {
        "ftfm" => Ok(Variant::Ftfm),
        "ftpm" => Ok(Variant::Ftpm),
        "rtfm" => Ok(Variant::Rtfm),
        "rtpm" => Ok(Variant::Rtpm),
        "naive" => Ok(Variant::Naive),
        other => Err(ArgError(format!(
            "unknown --variant '{other}' (expected ftfm|ftpm|rtfm|rtpm|naive)"
        ))),
    }
}

fn variant_from(args: &Args) -> Result<Variant, ArgError> {
    parse_variant(&args.str_or("variant", "ftpm"))
}

/// Parses the shared `--backend` flag (default `skypeer`). The unknown-
/// backend error text is pinned in [`skypeer_core::parse_backend`] so
/// every subcommand and the soak binary report it identically.
fn backend_from(args: &Args) -> Result<skypeer_core::BackendKind, ArgError> {
    skypeer_core::parse_backend(&args.str_or("backend", "skypeer")).map_err(ArgError)
}

/// Parses and validates the shared query flags (`--dims`, `--initiator`)
/// against an already-built engine. Shared by `query`/`trace`/`explain`
/// (and, per workload query, by `soak`'s replay digest).
fn query_from(args: &Args, engine: &SkypeerEngine) -> Result<Query, ArgError> {
    let dims: Vec<usize> = args.list_or("dims", &[0usize, 1, 2])?;
    let initiator: usize = args.get_or("initiator", 0)?;
    if dims.iter().any(|&d| d >= engine.config().dataset.dim) {
        return Err(ArgError("--dims index out of range for --dim".into()));
    }
    if initiator >= engine.config().n_superpeers {
        return Err(ArgError("--initiator out of range".into()));
    }
    Ok(Query { subspace: Subspace::from_dims(&dims), initiator })
}

/// Network/query flags that a pinned `--figure` fixes; giving both is a
/// conflict worth failing fast on rather than silently ignoring one side.
const FIGURE_FIXED_FLAGS: &[&str] = &[
    "peers",
    "superpeers",
    "dim",
    "points",
    "degree",
    "data",
    "seed",
    "routing",
    "linear",
    "dims",
    "initiator",
];

/// Builds the engine + query either from `--figure NAME` (a pinned
/// bench-regression figure) or from the shared network/query flags.
/// Shared by `query`, `trace`, `explain`, and `profile` so the figure
/// resolution — and its error text — is identical across subcommands.
fn setup_from(args: &Args) -> Result<(SkypeerEngine, Query), ArgError> {
    if !args.present("figure") {
        let engine = engine_from(args)?;
        let q = query_from(args, &engine)?;
        return Ok((engine, q));
    }
    let name = args.str_or("figure", "");
    if let Some(flag) = FIGURE_FIXED_FLAGS.iter().find(|f| args.present(f)) {
        return Err(ArgError(format!(
            "--{flag} conflicts with --figure (a pinned figure fixes the network and query)"
        )));
    }
    let p = skypeer_bench::regress::pinned_figure(&name).ok_or_else(|| {
        ArgError(format!(
            "unknown figure '{name}' (known: {})",
            skypeer_bench::regress::pinned_figure_names().join(", ")
        ))
    })?;
    Ok((SkypeerEngine::build(p.config), p.query))
}

/// `skypeer-cli stats` — preprocessing selectivities of a generated
/// network (the Figure 3(a) quantities).
pub fn stats(args: &Args) -> Result<(), ArgError> {
    let engine = engine_from(args)?;
    let per_node = args.flag("per-node")?;
    args.reject_unknown()?;
    let r = engine.preprocess_report();
    let cfg = engine.config();
    println!(
        "network: {} peers / {} super-peers / d={}",
        cfg.n_peers, cfg.n_superpeers, cfg.dataset.dim
    );
    println!("raw points        : {}", r.raw_points);
    println!("uploaded (ext-sky): {}  (SEL_p  = {:.2}%)", r.uploaded_points, 100.0 * r.sel_p());
    println!("stored at SPs     : {}  (SEL_sp = {:.2}%)", r.stored_points, 100.0 * r.sel_sp());
    println!("survivor rate     : {:.2}%", 100.0 * r.sel_ratio());
    println!("upload volume     : {:.1} KB", r.uploaded_bytes as f64 / 1024.0);
    if per_node {
        println!("per super-peer stores:");
        println!("{:>6}  {:>9}  {:>9}", "node", "points", "share");
        let total = r.stored_points.max(1);
        for sp in 0..cfg.n_superpeers {
            let len = engine.store(sp).len();
            println!(
                "{:>6}  {:>9}  {:>8.2}%",
                format!("SP{sp}"),
                len,
                100.0 * len as f64 / total as f64
            );
        }
    }
    Ok(())
}

/// `skypeer-cli query` — run one subspace skyline query.
pub fn query(args: &Args) -> Result<(), ArgError> {
    let (engine, q) = setup_from(args)?;
    let variant = variant_from(args)?;
    let backend = backend_from(args)?;
    let show: usize = args.get_or("show", 10)?;
    args.reject_unknown()?;
    let out =
        engine.run(q, variant, &RunOptions { backend, comp_time: true, ..RunOptions::default() });
    println!("query     : skyline on {} from SP{} via {variant}", q.subspace, q.initiator);
    if backend != skypeer_core::BackendKind::default() {
        println!("backend   : {backend} ({} rounds)", out.rounds);
    }
    println!("result    : {} points (exact)", out.result_ids.len());
    println!("comp time : {:.3} ms", out.comp_time_ns as f64 / 1e6);
    println!("total time: {:.3} ms (4 KB/s links)", out.total_time_ns as f64 / 1e6);
    println!("volume    : {:.1} KB in {} messages", out.volume_bytes as f64 / 1024.0, out.messages);
    println!("dropped   : {} messages", out.dropped);
    for i in 0..out.result.len().min(show) {
        let p = out.result.points().point(i);
        let rounded: Vec<f64> = p.iter().map(|v| (v * 1000.0).round() / 1000.0).collect();
        println!("  #{:<10} {:?}", out.result.points().id(i), rounded);
    }
    if out.result.len() > show {
        println!("  ... {} more (raise --show)", out.result.len() - show);
    }
    Ok(())
}

/// Parses a `--perturb-link FROM:TO:LATENCY_NS[:NS_PER_BYTE]` spec into a
/// directed-link override via the shared netsim parser, wrapping its
/// (pinned) error text into an [`ArgError`].
fn parse_perturb_link(spec: &str, base: LinkModel) -> Result<(usize, usize, LinkModel), ArgError> {
    skypeer_netsim::des::parse_perturb_spec(spec, base).map_err(ArgError)
}

/// `skypeer-cli trace` — run one query with full tracing: metrics
/// registry, per-node work table, hottest node/link, and the critical
/// path that determined the response time. Optionally exports the raw
/// event log (`--jsonl`) and a Perfetto/chrome://tracing file
/// (`--perfetto`). `--perturb-link` re-runs the same deterministic query
/// with one directed link degraded — capture both logs and feed them to
/// `skypeer-cli diff` to see the attribution name that link.
pub fn trace(args: &Args) -> Result<(), ArgError> {
    use skypeer_netsim::obs::{self, MemTracer, MetricsRegistry, Tracer};
    use std::sync::Arc;

    let (engine, q) = setup_from(args)?;
    let variant = variant_from(args)?;
    let backend = backend_from(args)?;
    let jsonl_path = args.str_or("jsonl", "");
    let perfetto_path = args.str_or("perfetto", "");
    let perturb_spec = args.str_or("perturb-link", "");
    args.reject_unknown()?;
    let overrides = if perturb_spec.is_empty() {
        Vec::new()
    } else {
        let (from, to, link) = parse_perturb_link(&perturb_spec, engine.config().link)?;
        if from >= engine.config().n_superpeers || to >= engine.config().n_superpeers {
            return Err(ArgError("--perturb-link node out of range".into()));
        }
        vec![(from, to, link)]
    };

    let tracer = Arc::new(MemTracer::new());
    let opts = RunOptions {
        backend,
        tracer: Some(Arc::clone(&tracer) as Arc<dyn Tracer>),
        link_overrides: overrides,
        ..RunOptions::default()
    };
    let out = engine.run(q, variant, &opts);
    let events = tracer.take();

    println!("query     : skyline on {} from SP{} via {variant}", q.subspace, q.initiator);
    if backend != skypeer_core::BackendKind::default() {
        println!("backend   : {backend} ({} rounds)", out.rounds);
    }
    for (from, to, link) in &opts.link_overrides {
        println!(
            "perturbed : SP{from} -> SP{to} latency {} ns, {} ns/byte",
            link.latency_ns, link.ns_per_byte
        );
    }
    println!("result    : {} points (exact)", out.result_ids.len());
    println!("total time: {:.3} ms (4 KB/s links)", out.total_time_ns as f64 / 1e6);
    println!("events    : {}", events.len());

    let m = MetricsRegistry::from_events(&events);
    println!("\ncounters:");
    for (name, value) in &m.counters {
        println!("  {name:<22} {value}");
    }
    println!("\nhistograms:");
    println!("  service time (ns)    {}", m.service_ns.summary());
    println!("  message size (bytes) {}", m.msg_bytes.summary());
    println!("  hop latency (ns)     {}", m.hop_latency_ns.summary());
    println!("  dominance tests/span {}", m.dominance_tests.summary());

    println!("\nper-node work:");
    println!(
        "{:>6}  {:>6}  {:>11}  {:>7}  {:>7}  {:>10}  {:>10}  {:>10}",
        "node", "spans", "service ms", "msg in", "msg out", "bytes in", "bytes out", "dom tests"
    );
    for (node, nm) in m.per_node.iter().enumerate() {
        if nm.spans == 0 && nm.msgs_in == 0 && nm.msgs_out == 0 {
            continue;
        }
        println!(
            "{:>6}  {:>6}  {:>11.3}  {:>7}  {:>7}  {:>10}  {:>10}  {:>10}",
            format!("SP{node}"),
            nm.spans,
            nm.service_ns as f64 / 1e6,
            nm.msgs_in,
            nm.msgs_out,
            nm.bytes_in,
            nm.bytes_out,
            nm.dominance_tests
        );
    }
    if let Some((node, ns)) = m.hottest_node() {
        println!("hottest node: SP{node} ({:.3} ms service time)", ns as f64 / 1e6);
    }
    if let Some(((a, b), bytes)) = m.hottest_link() {
        println!("hottest link: SP{a} -> SP{b} ({bytes} bytes)");
    }
    if !m.thresholds.is_empty() {
        println!("\nthreshold samples (sim-time ms, node, value):");
        for s in &m.thresholds {
            println!("  {:>10.3}  SP{:<4}  {:.6}", s.at as f64 / 1e6, s.node, s.value);
        }
    }

    match obs::critical_path(&events) {
        Some(path) => println!("\n{}", obs::critical::render(&path)),
        None => println!("\nno critical path (no finish event recorded)"),
    }

    if !jsonl_path.is_empty() {
        std::fs::write(&jsonl_path, obs::jsonl(&events))
            .map_err(|e| ArgError(format!("cannot write {jsonl_path}: {e}")))?;
        println!("wrote event log: {jsonl_path}");
    }
    if !perfetto_path.is_empty() {
        std::fs::write(&perfetto_path, obs::chrome_trace(&events))
            .map_err(|e| ArgError(format!("cannot write {perfetto_path}: {e}")))?;
        println!("wrote Perfetto trace: {perfetto_path} (open at https://ui.perfetto.dev)");
    }
    Ok(())
}

/// `skypeer-cli explain` — EXPLAIN/ANALYZE one query: plan and execution
/// tree (variant, fan-out, threshold timeline, per-super-peer prune
/// effectiveness, bytes per link vs. the naive baseline, annotated
/// critical path). `--json` emits the byte-deterministic machine form.
pub fn explain(args: &Args) -> Result<(), ArgError> {
    let (engine, q) = setup_from(args)?;
    let variant = variant_from(args)?;
    let backend = backend_from(args)?;
    let json = args.flag("json")?;
    args.reject_unknown()?;
    if backend != skypeer_core::BackendKind::default() {
        return Err(ArgError(format!(
            "explain supports only the skypeer backend (the {backend} protocol has no \
             threshold/merge plan to explain)"
        )));
    }
    let report = engine.explain_query(q, variant);
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

/// `skypeer-cli compare` — run the pinned bench figures (or one, via
/// `--figure`) under every distributed-skyline backend and emit a
/// head-to-head report of rounds / total bytes / simulated time /
/// dominance tests per figure. Everything derives from the deterministic
/// DES, so the report is byte-deterministic and golden-testable; the
/// answers are asserted identical across backends before anything is
/// printed. `--variant` picks the SKYPEER side's variant (default FTPM);
/// `--json` emits the machine form.
pub fn compare(args: &Args) -> Result<(), ArgError> {
    use skypeer_core::BackendKind;
    use skypeer_netsim::obs::{json, MemTracer, MetricsRegistry, Tracer};
    use std::sync::Arc;

    let variant = variant_from(args)?;
    let json_out = args.flag("json")?;
    let figures = if args.present("figure") {
        let name = args.str_or("figure", "");
        vec![skypeer_bench::regress::pinned_figure(&name).ok_or_else(|| {
            ArgError(format!(
                "unknown figure '{name}' (known: {})",
                skypeer_bench::regress::pinned_figure_names().join(", ")
            ))
        })?]
    } else {
        skypeer_bench::regress::pinned_figures()
    };
    args.reject_unknown()?;

    struct Measured {
        backend: BackendKind,
        rounds: u64,
        total_bytes: u64,
        sim_time_ns: u64,
        dominance_tests: u64,
        result_ids: Vec<u64>,
    }
    let mut blocks = Vec::new();
    for p in figures {
        let engine = SkypeerEngine::build(p.config);
        let runs: Vec<Measured> = BackendKind::ALL
            .iter()
            .map(|&backend| {
                let tracer = Arc::new(MemTracer::new());
                let opts = RunOptions {
                    backend,
                    tracer: Some(Arc::clone(&tracer) as Arc<dyn Tracer>),
                    ..RunOptions::default()
                };
                let out = engine.run(p.query, variant, &opts);
                let m = MetricsRegistry::from_events(&tracer.take());
                Measured {
                    backend,
                    rounds: out.rounds,
                    total_bytes: out.volume_bytes,
                    sim_time_ns: out.total_time_ns,
                    dominance_tests: m.counters.get("dominance_tests").copied().unwrap_or(0),
                    result_ids: out.result_ids,
                }
            })
            .collect();
        for r in &runs[1..] {
            if r.result_ids != runs[0].result_ids {
                return Err(ArgError(format!(
                    "{}: backend {} disagrees with {} on the answer ({} vs {} points)",
                    p.figure,
                    r.backend,
                    runs[0].backend,
                    r.result_ids.len(),
                    runs[0].result_ids.len()
                )));
            }
        }
        blocks.push((p.figure, p.query, runs));
    }

    type Metric = (&'static str, fn(&Measured) -> u64);
    // For every metric here, lower is better.
    const METRICS: [Metric; 4] = [
        ("rounds", |r| r.rounds),
        ("total_bytes", |r| r.total_bytes),
        ("sim_time_ns", |r| r.sim_time_ns),
        ("dominance_tests", |r| r.dominance_tests),
    ];
    let winner = |runs: &[Measured], get: fn(&Measured) -> u64| -> String {
        let best = runs.iter().map(&get).min().expect("at least one backend");
        let winners: Vec<&Measured> = runs.iter().filter(|r| get(r) == best).collect();
        if winners.len() == 1 {
            winners[0].backend.to_string()
        } else {
            "tie".to_string()
        }
    };

    if json_out {
        let doc = json::arr(blocks.iter().map(|(figure, q, runs)| {
            let backends = json::arr(runs.iter().map(|r| {
                json::Obj::new()
                    .str("backend", &r.backend.to_string())
                    .u64("rounds", r.rounds)
                    .u64("total_bytes", r.total_bytes)
                    .u64("sim_time_ns", r.sim_time_ns)
                    .u64("dominance_tests", r.dominance_tests)
                    .build()
            }));
            let winners = METRICS
                .iter()
                .fold(json::Obj::new(), |o, (name, get)| o.str(name, &winner(runs, *get)));
            json::Obj::new()
                .str("figure", figure)
                .str("variant", variant.mnemonic())
                .u64("result_points", runs[0].result_ids.len() as u64)
                .u64("initiator", q.initiator as u64)
                .raw("backends", &backends)
                .raw("winners", &winners.build())
                .build()
        }));
        println!("{doc}");
        return Ok(());
    }

    for (figure, q, runs) in &blocks {
        println!(
            "== {figure}: skyline on {} from SP{}, skypeer variant {} ==",
            q.subspace,
            q.initiator,
            variant.mnemonic()
        );
        println!("answers agree: {} points (exact)", runs[0].result_ids.len());
        print!("{:<16}", "metric");
        for r in runs {
            print!(" {:>12}", r.backend.to_string());
        }
        println!(" {:>10}", "winner");
        for (name, get) in METRICS {
            print!("{name:<16}");
            for r in runs {
                print!(" {:>12}", get(r));
            }
            println!(" {:>10}", winner(runs, get));
        }
        println!();
    }
    Ok(())
}

/// Shared implementation of `why` / `why-not`: resolve the positional
/// point id's full lineage against the query's subspace and render it
/// deterministically (text, or single-line JSON with `--json`). The two
/// subcommands differ only in which outcome they expect, so each adds a
/// redirect note when the point landed on the other side.
fn lineage_command(args: &Args, expect_in_answer: bool) -> Result<(), ArgError> {
    use skypeer_netsim::obs::LineageStage;

    let [id_str] = args.positional() else {
        unreachable!("main.rs enforces exactly one positional");
    };
    let id: u64 = id_str.parse().map_err(|_| ArgError(format!("bad point id '{id_str}'")))?;
    let (engine, q) = setup_from(args)?;
    let json = args.flag("json")?;
    args.reject_unknown()?;
    let resolver = skypeer_core::LineageResolver::new(&engine);
    let lineage = resolver.lineage(id, q.subspace);
    if json {
        println!("{}", lineage.to_json());
        return Ok(());
    }
    print!("{}", lineage.render_text());
    let in_answer = matches!(lineage.stage, LineageStage::InSkyline);
    if expect_in_answer && !in_answer {
        println!("note      : the point is NOT in this answer — see `why-not {id}`");
    } else if !expect_in_answer && in_answer {
        println!("note      : the point IS in this answer — see `why {id}`");
    }
    Ok(())
}

/// `skypeer-cli why <point>` — why a point is in the subspace skyline
/// answer: origin peer, owning super-peer, and the ext-skyline store
/// entry it survived through.
pub fn why(args: &Args) -> Result<(), ArgError> {
    lineage_command(args, true)
}

/// `skypeer-cli why-not <point>` — why a point is absent from the
/// answer: where the pipeline pruned it (its own peer, the super-peer
/// merge, or query-time dominance) and the dominance witness that
/// killed it.
pub fn why_not(args: &Args) -> Result<(), ArgError> {
    lineage_command(args, false)
}

/// `skypeer-cli profile` — in-process CPU profile of one query run as a
/// scoped calltree: ranked self-time table by default, byte-deterministic
/// JSON (`--json`), and folded-stack lines for flamegraph tooling
/// (`--folded FILE`). `--clock logical` swaps the monotonic clock for a
/// deterministic logical counter, making both exports byte-stable across
/// hosts — the form the committed goldens pin. `--overhead` instead
/// measures what observability costs: `--repeat` untraced runs are timed
/// against the same runs with profiling + tracing on and the ratio is
/// reported (advisory unless `--max-ratio` is set above zero).
pub fn profile(args: &Args) -> Result<(), ArgError> {
    use skypeer_netsim::obs::{prof, ClockMode, MemTracer, OverheadReport, Tracer};
    use std::sync::Arc;

    let figure_label =
        if args.present("figure") { args.str_or("figure", "") } else { "adhoc".to_string() };
    // Build the engine before any profiling session starts so the calltree
    // covers only the query run, not bulk-load/preprocessing — that keeps
    // the logical-clock goldens independent of construction details.
    let (engine, q) = setup_from(args)?;
    let variant = variant_from(args)?;
    let clock = match args.str_or("clock", "monotonic").as_str() {
        "monotonic" => ClockMode::Monotonic,
        "logical" => ClockMode::Logical,
        other => return Err(ArgError(format!("unknown --clock '{other}' (logical|monotonic)"))),
    };
    let overhead = args.flag("overhead")?;
    let repeat: u32 = args.get_or("repeat", 3)?;
    let max_ratio: f64 = args.get_or("max-ratio", 0.0)?;
    let json = args.flag("json")?;
    let folded_path = args.str_or("folded", "");
    args.reject_unknown()?;

    if overhead {
        if repeat == 0 {
            return Err(ArgError("--repeat must be at least 1".into()));
        }
        // Warm-up run outside both timers so one-time costs (allocator
        // growth, lazy inits) do not land on either side of the ratio.
        engine.run_query(q, variant);
        let t0 = std::time::Instant::now();
        for _ in 0..repeat {
            engine.run_query(q, variant);
        }
        let baseline_ns = t0.elapsed().as_nanos() as u64;
        prof::start(ClockMode::Monotonic);
        let t1 = std::time::Instant::now();
        for _ in 0..repeat {
            let tracer = Arc::new(MemTracer::new());
            engine.run_query_traced(q, variant, Arc::clone(&tracer) as Arc<dyn Tracer>);
        }
        let instrumented_ns = t1.elapsed().as_nanos() as u64;
        let p = prof::stop();
        let report = OverheadReport {
            figure: figure_label,
            repeats: repeat,
            baseline_ns,
            instrumented_ns,
            scope_enters: p.tree.total_calls(),
            distinct_scopes: p.tree.len() as u64,
        };
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.render());
        }
        if max_ratio > 0.0 && report.ratio() > max_ratio {
            return Err(ArgError(format!(
                "observability overhead ratio {:.3}x exceeds --max-ratio {max_ratio}",
                report.ratio()
            )));
        }
        return Ok(());
    }

    let (p, out) = prof::profiled(clock, || engine.run_query(q, variant));
    if json {
        println!("{}", p.to_json());
    } else {
        print!("{}", p.render_table());
        println!(
            "query: skyline on {} from SP{} via {variant} -> {} points",
            q.subspace,
            q.initiator,
            out.result_ids.len()
        );
    }
    if !folded_path.is_empty() {
        std::fs::write(&folded_path, p.folded())
            .map_err(|e| ArgError(format!("cannot write {folded_path}: {e}")))?;
        println!("wrote folded stacks to {folded_path} (flamegraph.pl / inferno input)");
    }
    Ok(())
}

/// What a capture file holds, detected from its first JSON object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CaptureKind {
    /// A trace event log (`trace --jsonl`): lines starting `{"type":`.
    TraceJsonl,
    /// A soak summary (`soak --out` / `--json`): one object with a
    /// `workload` key.
    SoakSummary,
}

fn capture_kind(path: &str, text: &str) -> Result<CaptureKind, ArgError> {
    let head = text.trim_start();
    if head.starts_with("{\"type\":") {
        Ok(CaptureKind::TraceJsonl)
    } else if head.starts_with('{') {
        Ok(CaptureKind::SoakSummary)
    } else {
        Err(ArgError(format!(
            "{path}: not a capture (expected trace JSONL from `trace --jsonl` or a soak summary from `soak --out`)"
        )))
    }
}

/// `skypeer-cli diff` — root-cause the difference between two captures.
///
/// Accepts either two trace event logs (`trace --jsonl F`) or two soak
/// summaries (`soak --out F`); the kind is auto-detected and must match.
/// Trace diffs decompose the `sim_time_ns` / `total_bytes` /
/// `dominance_tests` / queue-depth deltas down to phase, node, and link,
/// and `--what-if-factor F` additionally ranks counterfactual
/// interventions (scale each critical-path node/link by `F`) by predicted
/// nanoseconds saved. Soak diffs report per-variant percentile drift,
/// cache hit-rate movement, and SLO margin movement. `--json` emits the
/// byte-deterministic machine form of either.
pub fn diff(args: &Args) -> Result<(), ArgError> {
    use skypeer_netsim::obs::{self, diff as tdiff};

    let [baseline_path, candidate_path] = args.positional() else {
        return Err(ArgError(format!(
            "diff needs exactly two capture paths, got {}",
            args.positional().len()
        )));
    };
    let json = args.flag("json")?;
    let what_if_factor: f64 = args.get_or("what-if-factor", 0.0f64)?;
    args.reject_unknown()?;
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))
    };
    let base_text = read(baseline_path)?;
    let cand_text = read(candidate_path)?;
    let kind = capture_kind(baseline_path, &base_text)?;
    let cand_kind = capture_kind(candidate_path, &cand_text)?;
    if kind != cand_kind {
        return Err(ArgError(format!(
            "cannot diff a {kind:?} against a {cand_kind:?} (both captures must be the same kind)"
        )));
    }

    match kind {
        CaptureKind::TraceJsonl => {
            let parse = |path: &str, text: &str| {
                obs::parse_jsonl(text).map_err(|e| ArgError(format!("{path}: {e}")))
            };
            let base_events = parse(baseline_path, &base_text)?;
            let cand_events = parse(candidate_path, &cand_text)?;
            let report = tdiff::AttributionReport::attribute(
                &tdiff::TraceDigest::from_events(&base_events),
                &tdiff::TraceDigest::from_events(&cand_events),
            );
            let ranked = (what_if_factor > 0.0)
                .then(|| obs::critical_path(&cand_events))
                .flatten()
                .map(|path| tdiff::rank_interventions(&path, what_if_factor));
            if json {
                let mut o = skypeer_netsim::obs::json::Obj::new()
                    .str("kind", "trace")
                    .raw("attribution", &report.to_json());
                if let Some(r) = &ranked {
                    o = o.raw("what_if", &tdiff::what_if_json(r));
                }
                println!("{}", o.build());
            } else {
                print!("{}", report.render());
                if let Some(r) = &ranked {
                    print!("{}", tdiff::render_what_if(r));
                }
            }
        }
        CaptureKind::SoakSummary => {
            let d = skypeer_bench::diff_soak_summaries(&base_text, &cand_text).map_err(ArgError)?;
            if json {
                println!(
                    "{}",
                    skypeer_netsim::obs::json::Obj::new()
                        .str("kind", "soak")
                        .raw("diff", &d.to_json())
                        .build()
                );
            } else {
                print!("{}", d.render());
            }
        }
    }
    Ok(())
}

/// `skypeer-cli workload` — averaged metrics over a random workload, all
/// variants side by side.
pub fn workload(args: &Args) -> Result<(), ArgError> {
    let engine = engine_from(args)?;
    let k: usize = args.get_or("k", 3)?;
    let queries: usize = args.get_or("queries", 10)?;
    let wl_seed: u64 = args.get_or("workload-seed", 1)?;
    args.reject_unknown()?;
    let cfg = engine.config();
    if k == 0 || k > cfg.dataset.dim {
        return Err(ArgError(format!("--k {k} out of range for d={}", cfg.dataset.dim)));
    }
    let wl = WorkloadSpec {
        dim: cfg.dataset.dim,
        k,
        queries,
        n_superpeers: cfg.n_superpeers,
        seed: wl_seed,
    }
    .generate();
    println!(
        "{} queries, k={k}, {} peers / {} super-peers",
        queries, cfg.n_peers, cfg.n_superpeers
    );
    println!(
        "{:>7}  {:>11}  {:>12}  {:>10}  {:>8}",
        "variant", "comp (ms)", "total (ms)", "vol (KB)", "msgs"
    );
    for variant in Variant::ALL {
        let m = QueryMetrics::from_outcomes(&engine.run_workload(&wl, variant));
        println!(
            "{:>7}  {:>11.3}  {:>12.3}  {:>10.1}  {:>8.1}",
            variant.mnemonic(),
            m.avg_comp_time_ns / 1e6,
            m.avg_total_time_ns / 1e6,
            m.avg_volume_bytes / 1024.0,
            m.avg_messages,
        );
    }
    Ok(())
}

/// `skypeer-cli topology` — inspect a generated super-peer backbone.
pub fn topology(args: &Args) -> Result<(), ArgError> {
    let n: usize = args.get_or("superpeers", 20)?;
    let degree: f64 = args.get_or("degree", 4.0)?;
    let seed: u64 = args.get_or("seed", 42)?;
    args.reject_unknown()?;
    let mut spec = TopologySpec::paper_default(n, seed);
    spec.avg_degree = degree;
    let topo = spec.generate();
    println!("super-peers : {}", topo.len());
    println!("edges       : {}", topo.edge_count());
    println!("avg degree  : {:.2} (target {degree})", topo.avg_degree());
    println!("connected   : {}", topo.is_connected());
    let ecc: Vec<usize> = (0..topo.len()).map(|i| topo.eccentricity(i)).collect();
    println!("diameter    : {}", ecc.iter().max().unwrap_or(&0));
    println!("radius      : {}", ecc.iter().min().unwrap_or(&0));
    let mut hist = std::collections::BTreeMap::new();
    for sp in 0..topo.len() {
        *hist.entry(topo.neighbors(sp).len()).or_insert(0usize) += 1;
    }
    println!("degree histogram:");
    for (deg, count) in hist {
        println!("  {deg:>3}: {}", "#".repeat(count.min(70)));
    }
    Ok(())
}

/// `skypeer-cli faults` — a degraded query: crash super-peers mid-run and
/// rely on child timeouts.
pub fn faults(args: &Args) -> Result<(), ArgError> {
    let engine = engine_from(args)?;
    let variant = variant_from(args)?;
    let dims: Vec<usize> = args.list_or("dims", &[0usize, 1, 2])?;
    let fail: Vec<usize> = args.list_or("fail", &[1usize])?;
    let fail_at_ms: u64 = args.get_or("fail-at-ms", 0)?;
    let timeout_s: u64 = args.get_or("timeout-s", 120)?;
    args.reject_unknown()?;
    let q = Query { subspace: Subspace::from_dims(&dims), initiator: 0 };
    if fail.contains(&0) {
        return Err(ArgError("cannot fail the initiator (SP0)".into()));
    }
    let failures: Vec<(usize, u64)> = fail.iter().map(|&sp| (sp, fail_at_ms * 1_000_000)).collect();
    let healthy = engine.run_query(q, variant);
    let opts = RunOptions {
        failures,
        child_timeout_ns: Some(timeout_s * 1_000_000_000),
        ..RunOptions::default()
    };
    let degraded = engine.run(q, variant, &opts);
    println!(
        "query: skyline on {} via {variant}; failing SPs {fail:?} at t={fail_at_ms}ms",
        q.subspace
    );
    println!(
        "healthy : {} points, complete={}, total {:.1} ms, {} msgs dropped",
        healthy.result_ids.len(),
        healthy.complete,
        healthy.total_time_ns as f64 / 1e6,
        healthy.dropped
    );
    println!(
        "degraded: {} points, complete={}, total {:.1} ms, {} msgs dropped",
        degraded.result_ids.len(),
        degraded.complete,
        degraded.total_time_ns as f64 / 1e6,
        degraded.dropped
    );
    let missing: Vec<u64> =
        healthy.result_ids.iter().copied().filter(|id| !degraded.result_ids.contains(id)).collect();
    let extra: Vec<u64> =
        degraded.result_ids.iter().copied().filter(|id| !healthy.result_ids.contains(id)).collect();
    println!("missing vs exact: {} points; spurious: {} points", missing.len(), extra.len());
    Ok(())
}

/// `skypeer-cli estimate` — expected skyline sizes from independence
/// theory, for capacity planning.
pub fn estimate(args: &Args) -> Result<(), ArgError> {
    let n: usize = args.get_or("n", 100_000)?;
    let max_d: usize = args.get_or("max-dim", 10)?;
    args.reject_unknown()?;
    if max_d == 0 || max_d > 20 {
        return Err(ArgError("--max-dim must be in 1..=20".into()));
    }
    println!("expected skyline size of {n} independent points (uniform theory):");
    println!("{:>3}  {:>14}  {:>14}  {:>9}", "d", "exact E(n,d)", "asymptotic", "% of n");
    for d in 1..=max_d {
        let exact = skypeer_skyline::estimate::expected_skyline_size(n, d);
        let approx = skypeer_skyline::estimate::asymptotic_skyline_size(n, d);
        println!("{d:>3}  {exact:>14.1}  {approx:>14.1}  {:>8.3}%", 100.0 * exact / n as f64);
    }
    Ok(())
}

/// `skypeer-cli soak` — run a seeded (optionally skewed) query workload
/// through the DES across variants: HDR latency/bytes percentiles, a
/// top-K tail-latency flight recorder with an `explain` replay digest,
/// and per-variant SLO verdicts. While running on a terminal, a live
/// stderr line shows progress and sliding-window throughput; the final
/// stdout report (or `--json` summary) is byte-deterministic.
pub fn soak(args: &Args) -> Result<(), ArgError> {
    use skypeer_bench::soak::{run_soak, SoakAudit, SoakPerturb, SoakSpec, TelemetrySpec};
    use skypeer_data::{InitiatorMix, KMix, MixedWorkloadSpec};
    use skypeer_netsim::obs::SloSpec;
    use std::collections::VecDeque;
    use std::io::{IsTerminal, Write};
    use std::time::Instant;

    let engine = engine_from(args)?;
    let cfg = *engine.config();
    let queries: usize = args.get_or("queries", 100)?;
    let wl_seed: u64 = args.get_or("workload-seed", 1)?;
    let backend = backend_from(args)?;
    let variants_spec = args.str_or("variants", "all");
    let variants: Vec<Variant> = if variants_spec == "all" {
        Variant::ALL.to_vec()
    } else {
        variants_spec.split(',').map(|v| parse_variant(v.trim())).collect::<Result<_, _>>()?
    };
    let k_min: usize = args.get_or("k-min", 0)?;
    let k_max: usize = args.get_or("k-max", 0)?;
    let k_mix = match (k_min, k_max) {
        (0, 0) => KMix::Fixed(args.get_or("k", 3)?),
        (a, b) if a >= 1 && b >= a => {
            KMix::Zipf { k_min: a, k_max: b, exponent: args.get_or("k-theta", 1.0f64)? }
        }
        _ => return Err(ArgError("--k-min and --k-max need 1 <= min <= max".into())),
    };
    let max_k = match k_mix {
        KMix::Fixed(k) => k,
        KMix::Zipf { k_max, .. } => k_max,
    };
    if max_k == 0 || max_k > cfg.dataset.dim {
        return Err(ArgError(format!("query k {max_k} out of range for d={}", cfg.dataset.dim)));
    }
    let initiator_mix = match args.get_or("initiator-theta", 0.0f64)? {
        t if t > 0.0 => InitiatorMix::Zipf { exponent: t },
        _ => InitiatorMix::Uniform,
    };
    let ms_budget = |name: &str| -> Result<Option<u64>, ArgError> {
        let ms: f64 = args.get_or(name, -1.0f64)?;
        Ok((ms >= 0.0).then_some((ms * 1e6) as u64))
    };
    // Any `--slo-p<digits>-ms` is accepted: 50/99/999 land in the pinned
    // SloSpec fields (golden-stable check names), everything else becomes
    // an arbitrary-percentile budget. Negative budgets mean "unset".
    let mut pinned_ms = [None, None, None]; // p50, p99, p999
    let mut latency_quantiles = Vec::new();
    for (digits, value) in args.matching("slo-p", "-ms") {
        let ms: f64 = value
            .parse()
            .map_err(|_| ArgError(format!("invalid value '{value}' for --slo-p{digits}-ms")))?;
        let budget = (ms >= 0.0).then_some((ms * 1e6) as u64);
        match digits.as_str() {
            "50" => pinned_ms[0] = budget,
            "99" => pinned_ms[1] = budget,
            "999" => pinned_ms[2] = budget,
            _ => {
                if skypeer_netsim::obs::quantile_from_digits(&digits).is_none() {
                    return Err(ArgError(format!(
                        "--slo-p{digits}-ms: '{digits}' is not a percentile in (0, 100)"
                    )));
                }
                if let Some(b) = budget {
                    latency_quantiles.push((digits, b));
                }
            }
        }
    }
    let slo = SloSpec {
        p50_latency_ns: pinned_ms[0],
        p99_latency_ns: pinned_ms[1],
        p999_latency_ns: pinned_ms[2],
        max_latency_ns: ms_budget("slo-max-ms")?,
        p99_bytes: {
            let b: i64 = args.get_or("slo-p99-bytes", -1i64)?;
            (b >= 0).then_some(b as u64)
        },
        latency_quantiles,
    };
    let tail_k: usize = args.get_or("top-k", 8)?;
    let jsonl_path = args.str_or("jsonl", "");
    let out_path = args.str_or("out", "");
    let prom_path = args.str_or("prom", "");
    let json = args.flag("json")?;
    let gate = args.flag("gate")?;
    let cache = args.flag("cache")?;
    let cache_bytes_arg: u64 = args.get_or("cache-bytes", 0u64)?;
    let quiet = args.flag("quiet")?;
    let telemetry_flag = args.flag("telemetry")?;
    let history_out = args.str_or("history-out", "");
    let fail_on_incident = args.flag("fail-on-incident")?;
    let perturb_spec = args.str_or("perturb-link", "");
    let perturb_after: usize = args.get_or("perturb-after", 0)?;
    let hdr_precision: u32 = args.get_or("precision", 7u32)?;
    let audit_sample: f64 = args.get_or("audit-sample", -1.0f64)?;
    let audit_seed: u64 = args.get_or("audit-seed", SoakAudit::default().seed)?;
    let fail_on_violation = args.flag("fail-on-violation")?;
    let inject_drop_ext = args.flag("inject-drop-ext")?;
    args.reject_unknown()?;
    let audit = if args.present("audit-sample") {
        if !(0.0..=1.0).contains(&audit_sample) {
            return Err(ArgError(format!("--audit-sample {audit_sample} not in [0, 1]")));
        }
        Some(SoakAudit { sample_rate: audit_sample, seed: audit_seed, inject_drop_ext })
    } else {
        for (on, name) in [
            (fail_on_violation, "--fail-on-violation"),
            (inject_drop_ext, "--inject-drop-ext"),
            (args.present("audit-seed"), "--audit-seed"),
        ] {
            if on {
                return Err(ArgError(format!("{name} requires --audit-sample")));
            }
        }
        None
    };
    let cache_bytes: Option<u64> = if cache_bytes_arg > 0 {
        Some(cache_bytes_arg)
    } else if cache {
        Some(4 << 20) // 4 MiB default budget
    } else {
        None
    };
    if backend != skypeer_core::BackendKind::default() && cache_bytes.is_some() {
        return Err(ArgError("--backend sampling and --cache are incompatible".into()));
    }
    let perturb = if perturb_spec.is_empty() {
        if args.present("perturb-after") {
            return Err(ArgError("--perturb-after requires --perturb-link".into()));
        }
        None
    } else {
        if cache_bytes.is_some() {
            return Err(ArgError("--perturb-link and --cache are incompatible".into()));
        }
        let (from, to, link) = parse_perturb_link(&perturb_spec, cfg.link)?;
        if from >= cfg.n_superpeers || to >= cfg.n_superpeers {
            return Err(ArgError("--perturb-link node out of range".into()));
        }
        Some(SoakPerturb { after: perturb_after, overrides: vec![(from, to, link)] })
    };
    // Any flag that needs telemetry turns it on.
    let telemetry =
        (telemetry_flag || !history_out.is_empty() || fail_on_incident || perturb.is_some())
            .then(TelemetrySpec::default);

    let spec = SoakSpec {
        variants,
        workload: MixedWorkloadSpec {
            dim: cfg.dataset.dim,
            queries,
            n_superpeers: cfg.n_superpeers,
            seed: wl_seed,
            k_mix,
            initiator_mix,
        },
        slo,
        tail_k,
        hdr_precision,
        cache_bytes,
        telemetry,
        perturb,
        audit,
        backend,
    };

    let mut jsonl = match jsonl_path.as_str() {
        "" => None,
        path => Some(std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| ArgError(format!("cannot create {path}: {e}")))?,
        )),
    };
    // Live dashboard only when a human is watching (and not silenced
    // with --quiet for CI logs); deterministic output stays on stdout
    // either way.
    let dashboard = !quiet && std::io::stderr().is_terminal();
    let total_rows = queries * spec.variants.len();
    let mut done = 0usize;
    let mut cache_lookups = 0u64;
    let mut cache_hits = 0u64;
    let mut window: VecDeque<Instant> = VecDeque::with_capacity(64);
    let outcome = run_soak(&engine, &spec, |row| {
        if let Some(w) = &mut jsonl {
            let _ = writeln!(w, "{}", row.to_json());
        }
        done += 1;
        if let Some(hit) = row.served_from_cache {
            cache_lookups += 1;
            cache_hits += u64::from(hit);
        }
        if dashboard {
            let now = Instant::now();
            window.push_back(now);
            if window.len() > 64 {
                window.pop_front();
            }
            if done.is_multiple_of(10) || done == total_rows {
                let span = now.duration_since(*window.front().expect("nonempty")).as_secs_f64();
                let qps = if span > 0.0 { (window.len() - 1) as f64 / span } else { 0.0 };
                let hit_rate = if cache_lookups > 0 {
                    format!(" | hit {:5.1}%", 100.0 * cache_hits as f64 / cache_lookups as f64)
                } else {
                    String::new()
                };
                eprint!(
                    "\r{done}/{total_rows} queries | {qps:6.1} q/s{hit_rate} | {} q{} {:9.1} ms{}   ",
                    row.variant,
                    row.query,
                    row.latency_ns as f64 / 1e6,
                    if row.over_slo { " OVER SLO" } else { "" },
                );
                let _ = std::io::stderr().flush();
            }
        }
    });
    if dashboard {
        eprintln!();
    }
    if let Some(mut w) = jsonl {
        w.flush().map_err(|e| ArgError(format!("flushing {jsonl_path}: {e}")))?;
    }

    if json {
        println!("{}", outcome.summary_json());
    } else {
        print!("{}", outcome.render_table());
        print!("{}", outcome.worst_digest());
        if !spec.slo.is_empty() {
            print!("{}", outcome.render_slo());
        }
        if spec.telemetry.is_some() {
            println!("incidents: {}", outcome.incident_count());
            for v in &outcome.variants {
                if let Some(tel) = &v.telemetry {
                    for inc in tel.incidents() {
                        println!("  {} {}", v.variant.mnemonic(), inc.render());
                    }
                }
            }
        }
        if let Some(report) = outcome.audit_report() {
            print!("{report}");
        }
    }
    if !history_out.is_empty() {
        let history = outcome.history_text().expect("telemetry implied by --history-out");
        std::fs::write(&history_out, history)
            .map_err(|e| ArgError(format!("cannot write {history_out}: {e}")))?;
        if !json {
            println!("wrote telemetry history to {history_out}");
        }
    }
    if !out_path.is_empty() {
        std::fs::write(&out_path, outcome.summary_json())
            .map_err(|e| ArgError(format!("cannot write {out_path}: {e}")))?;
        if !json {
            println!("wrote summary to {out_path}");
        }
    }
    if !prom_path.is_empty() {
        std::fs::write(&prom_path, outcome.prometheus())
            .map_err(|e| ArgError(format!("cannot write {prom_path}: {e}")))?;
        if !json {
            println!("wrote Prometheus exposition to {prom_path}");
        }
    }
    if gate && !outcome.pass() {
        let failing: Vec<&str> = outcome
            .variants
            .iter()
            .filter(|v| !v.slo.pass())
            .map(|v| v.variant.mnemonic())
            .collect();
        return Err(ArgError(format!("SLO gate failed for {}", failing.join(", "))));
    }
    if fail_on_incident && outcome.incident_count() > 0 {
        return Err(ArgError(format!(
            "incident gate failed: {} incident(s) flagged",
            outcome.incident_count()
        )));
    }
    if fail_on_violation && outcome.violation_count() > 0 {
        return Err(ArgError(format!(
            "audit gate failed: {} violation(s) detected",
            outcome.violation_count()
        )));
    }
    Ok(())
}

/// `skypeer-cli top` — the live telemetry dashboard. Runs a seeded query
/// stream with per-query series retained in an embedded time-series
/// store ([`Tsdb`](skypeer_netsim::obs::Tsdb)) and watched by the
/// anomaly detector; while stderr is a terminal the frame redraws in
/// place, and the final frame always lands on stdout. `--replay FILE`
/// skips execution and renders a recorded history file (from `soak
/// --history-out` or the live example) byte-identically — the form the
/// goldens pin. `--json` emits the store and incidents as deterministic
/// JSON instead of a frame.
pub fn top(args: &Args) -> Result<(), ArgError> {
    use skypeer_data::{KMix, MixedWorkloadSpec};
    use skypeer_netsim::obs::tsdb::{history_line, DEFAULT_SERIES_CAP};
    use skypeer_netsim::obs::{
        self, dash, AnomalyDetector, MemTracer, MetricsRegistry, Tracer, Tsdb,
    };
    use std::io::IsTerminal;
    use std::sync::Arc;

    let replay = args.str_or("replay", "");
    let json = args.flag("json")?;
    let series_cap: usize = args.get_or("series-cap", DEFAULT_SERIES_CAP)?;

    let render = |db: &Tsdb, det: &AnomalyDetector, title: &str| {
        if json {
            skypeer_netsim::obs::json::Obj::new()
                .raw("tsdb", &db.to_json())
                .raw("incidents", &det.incidents_json())
                .build()
                + "\n"
        } else {
            dash::render_frame(db, det.incidents(), title)
        }
    };

    if !replay.is_empty() {
        args.reject_unknown()?;
        let text = std::fs::read_to_string(&replay)
            .map_err(|e| ArgError(format!("cannot read {replay}: {e}")))?;
        let samples = obs::parse_history(&text).map_err(|e| ArgError(format!("{replay}: {e}")))?;
        let mut db = Tsdb::new(series_cap);
        let mut det = AnomalyDetector::default();
        for s in &samples {
            db.record(&s.series, s.tick, s.value);
            det.observe(&s.series, s.tick, s.value);
        }
        // Title carries only the file name, never the directory, so a
        // replay of the same bytes renders identically anywhere.
        let name = std::path::Path::new(&replay)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| replay.clone());
        print!("{}", render(&db, &det, &format!("replay {name}")));
        return Ok(());
    }

    let engine = engine_from(args)?;
    let cfg = *engine.config();
    let variant = variant_from(args)?;
    let queries: usize = args.get_or("queries", 60)?;
    let wl_seed: u64 = args.get_or("workload-seed", 1)?;
    let k: usize = args.get_or("k", 3)?;
    let interval: usize = args.get_or("interval", 10)?;
    let history_out = args.str_or("history-out", "");
    let perturb_spec = args.str_or("perturb-link", "");
    let perturb_after: usize = args.get_or("perturb-after", 0)?;
    args.reject_unknown()?;
    if k == 0 || k > cfg.dataset.dim {
        return Err(ArgError(format!("--k {k} out of range for d={}", cfg.dataset.dim)));
    }
    let overrides = if perturb_spec.is_empty() {
        if args.present("perturb-after") {
            return Err(ArgError("--perturb-after requires --perturb-link".into()));
        }
        Vec::new()
    } else {
        let (from, to, link) = parse_perturb_link(&perturb_spec, cfg.link)?;
        if from >= cfg.n_superpeers || to >= cfg.n_superpeers {
            return Err(ArgError("--perturb-link node out of range".into()));
        }
        vec![(from, to, link)]
    };

    let workload = MixedWorkloadSpec {
        dim: cfg.dataset.dim,
        queries,
        n_superpeers: cfg.n_superpeers,
        seed: wl_seed,
        k_mix: KMix::Fixed(k),
        initiator_mix: skypeer_data::InitiatorMix::Uniform,
    };
    let live = std::io::stderr().is_terminal();
    let mut db = Tsdb::new(series_cap);
    let mut det = AnomalyDetector::default();
    let mut history: Vec<String> = Vec::new();
    let title = format!("{} x{queries} (seed {wl_seed})", variant.mnemonic());
    for (i, q) in workload.generate().into_iter().enumerate() {
        let tracer = Arc::new(MemTracer::new());
        let opts = RunOptions {
            tracer: Some(Arc::clone(&tracer) as Arc<dyn Tracer>),
            link_overrides: if i >= perturb_after { overrides.clone() } else { Vec::new() },
            ..RunOptions::default()
        };
        let out = engine.run(q, variant, &opts);
        let m = MetricsRegistry::from_events(&tracer.take());
        let tick = i as u64;
        let mut samples = vec![
            ("latency_ns".to_string(), out.total_time_ns as f64),
            ("volume_bytes".to_string(), out.volume_bytes as f64),
            ("messages".to_string(), out.messages as f64),
            (
                "dominance_tests".to_string(),
                m.counters.get("dominance_tests").copied().unwrap_or(0) as f64,
            ),
            ("queue_depth".to_string(), m.max_queue_depth() as f64),
        ];
        for (node, nm) in m.per_node.iter().enumerate() {
            if nm.spans == 0 && nm.msgs_in == 0 && nm.msgs_out == 0 {
                continue;
            }
            samples.push((format!("SP{node}/bytes_out"), nm.bytes_out as f64));
            samples.push((format!("SP{node}/msgs_out"), nm.msgs_out as f64));
        }
        for (series, value) in &samples {
            db.record(series, tick, *value);
            det.observe(series, tick, *value);
            history.push(history_line(tick, series, *value));
        }
        if live && interval > 0 && (i + 1) % interval == 0 {
            // In-place redraw: clear screen + cursor home, then a frame.
            eprint!("\x1b[2J\x1b[H{}", dash::render_frame(&db, det.incidents(), &title));
        }
    }
    print!("{}", render(&db, &det, &title));
    if !history_out.is_empty() {
        let mut text = String::new();
        for line in &history {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(&history_out, text)
            .map_err(|e| ArgError(format!("cannot write {history_out}: {e}")))?;
        if !json {
            println!("wrote telemetry history to {history_out}");
        }
    }
    Ok(())
}

/// `skypeer-cli csv-query` — run a SKYPEER query over a CSV dataset
/// distributed across a generated super-peer network.
pub fn csv_query(args: &Args) -> Result<(), ArgError> {
    use skypeer_core::node::{InitQuery, SuperPeerNode};
    use skypeer_core::preprocess::SuperPeerStore;
    use skypeer_data::csv::{invert_column, read_points, CsvOptions};
    use skypeer_data::partition::partition_shuffled;
    use skypeer_netsim::des::Sim;
    use std::sync::Arc;

    let file = args.str_or("file", "");
    if file.is_empty() {
        return Err(ArgError("--file is required".into()));
    }
    let n_superpeers: usize = args.get_or("superpeers", 6)?;
    let degree: f64 = args.get_or("degree", 4.0)?;
    let peers_per_sp: usize = args.get_or("peers-per-superpeer", 4)?;
    let variant = variant_from(args)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let show: usize = args.get_or("show", 10)?;
    let no_header = args.flag("no-header")?;
    let separator = args.str_or("separator", ",");
    let id_column: i64 = args.get_or("id-column", -1)?;
    let columns: Vec<usize> = args.list_or("columns", &[])?;
    let invert: Vec<usize> = args.list_or("invert", &[])?;
    let dims: Vec<usize> = args.list_or("dims", &[])?;
    args.reject_unknown()?;

    let sep = separator.chars().next().unwrap_or(',');
    let opts = CsvOptions {
        separator: sep,
        has_header: !no_header,
        columns,
        id_column: (id_column >= 0).then_some(id_column as usize),
    };
    let f = std::fs::File::open(&file).map_err(|e| ArgError(format!("cannot open {file}: {e}")))?;
    let mut set = read_points(std::io::BufReader::new(f), &opts)
        .map_err(|e| ArgError(format!("{file}: {e}")))?;
    for &col in &invert {
        if col >= set.dim() {
            return Err(ArgError(format!("--invert column {col} out of range")));
        }
        set = invert_column(&set, col);
    }
    println!("loaded {} points × {} attributes from {file}", set.len(), set.dim());

    let subspace = if dims.is_empty() {
        Subspace::full(set.dim())
    } else {
        if dims.iter().any(|&d| d >= set.dim()) {
            return Err(ArgError("--dims index out of range".into()));
        }
        Subspace::from_dims(&dims)
    };

    // Distribute across peers, preprocess per super-peer.
    let mut topo_spec = TopologySpec::paper_default(n_superpeers, seed);
    topo_spec.avg_degree = degree.min(n_superpeers.saturating_sub(1) as f64);
    let topo = topo_spec.generate();
    let parts = partition_shuffled(&set, n_superpeers * peers_per_sp, seed);
    let dim = set.dim();
    let stores: Vec<Arc<skypeer_skyline::SortedDataset>> = (0..n_superpeers)
        .map(|sp| {
            let mine: Vec<_> = parts[sp * peers_per_sp..(sp + 1) * peers_per_sp].to_vec();
            Arc::new(SuperPeerStore::preprocess(&mine, dim, DominanceIndex::RTree).store)
        })
        .collect();
    let stored: usize = stores.iter().map(|s| s.len()).sum();
    println!(
        "distributed over {n_superpeers} super-peers × {peers_per_sp} peers; {stored} points stored after preprocessing ({:.1}%)",
        100.0 * stored as f64 / set.len() as f64
    );

    let nodes: Vec<SuperPeerNode> = (0..n_superpeers)
        .map(|sp| {
            let init = (sp == 0).then_some(InitQuery::standard(1, subspace, variant));
            SuperPeerNode::new(
                sp,
                topo.neighbors(sp).to_vec(),
                Arc::clone(&stores[sp]),
                DominanceIndex::RTree,
                init,
            )
        })
        .collect();
    let out = Sim::new(nodes, LinkModel::paper_4kbps(), CostModel::default()).run(0);
    let answer =
        out.nodes.into_iter().next().expect("initiator").into_outcome().expect("query completes");
    println!(
        "\nskyline on {subspace} via {variant}: {} points | {:.1} ms total | {:.1} KB",
        answer.result.len(),
        out.stats.finished_at.unwrap_or(0) as f64 / 1e6,
        out.stats.bytes as f64 / 1024.0,
    );
    for i in 0..answer.result.len().min(show) {
        let p = answer.result.points().point(i);
        let rounded: Vec<f64> = p.iter().map(|v| (v * 100.0).round() / 100.0).collect();
        println!("  #{:<10} {:?}", answer.result.points().id(i), rounded);
    }
    if answer.result.len() > show {
        println!("  ... {} more (raise --show)", answer.result.len() - show);
    }
    Ok(())
}
