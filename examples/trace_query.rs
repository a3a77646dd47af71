//! Traces every protocol message of one SKYPEER query through the DES:
//! which super-peer talked to which, how big, and when (simulated time),
//! interleaved with the protocol's own notes (threshold installs and
//! refinements, prunes, phase changes). A compact way to *see* the
//! spanning tree form, the threshold travel, and the results flow home.
//!
//! ```text
//! cargo run --release --example trace_query [variant]
//! ```

use skypeer::core::engine::{EngineConfig, RoutingMode, RunOptions};
use skypeer::data::Query;
use skypeer::netsim::cost::CostModel;
use skypeer::netsim::des::LinkModel;
use skypeer::netsim::obs::{MemTracer, ProtoEvent, TraceEvent, Tracer};
use skypeer::netsim::topology::TopologySpec;
use skypeer::prelude::*;
use skypeer::skyline::DominanceIndex;
use std::sync::Arc;

fn main() {
    let variant = match std::env::args().nth(1).as_deref() {
        Some("ftfm") => Variant::Ftfm,
        Some("ftpm") | None => Variant::Ftpm,
        Some("rtfm") => Variant::Rtfm,
        Some("rtpm") => Variant::Rtpm,
        Some("naive") => Variant::Naive,
        Some(other) => {
            eprintln!("unknown variant '{other}', expected ftfm|ftpm|rtfm|rtpm|naive");
            std::process::exit(2);
        }
    };

    // A small, readable network: 6 super-peers, 2 peers each.
    let n_sp = 6;
    let engine = SkypeerEngine::build(EngineConfig {
        n_peers: 2 * n_sp,
        n_superpeers: n_sp,
        dataset: DatasetSpec { dim: 4, points_per_peer: 50, kind: DatasetKind::Uniform, seed: 3 },
        topology: TopologySpec::paper_default(n_sp, 7),
        index: DominanceIndex::Linear,
        cost: CostModel::default(),
        link: LinkModel::paper_4kbps(),
        routing: RoutingMode::Flood,
    });
    println!("topology:");
    for sp in 0..n_sp {
        let store = engine.store(sp);
        println!(
            "  SP{sp} ↔ {:?}  (store: {} points)",
            engine.topology().neighbors(sp),
            store.len()
        );
    }

    let query = Query { subspace: Subspace::from_dims(&[0, 2]), initiator: 0 };
    println!(
        "\nquery: skyline on {}, initiator SP{}, variant {variant}\n",
        query.subspace, query.initiator
    );
    let tracer = Arc::new(MemTracer::new());
    let opts = RunOptions {
        tracer: Some(Arc::clone(&tracer) as Arc<dyn Tracer>),
        ..RunOptions::default()
    };
    let out = engine.run(query, variant, &opts);

    let ms = |t: u64| t as f64 / 1e6;
    for ev in tracer.take() {
        match ev {
            TraceEvent::Send { from, to, bytes, sent_at, arrive_at, .. } => println!(
                "t={:>9.3}ms  SP{from} → SP{to:<2} {bytes:>5}B  send, arrives t={:.3}ms",
                ms(sent_at),
                ms(arrive_at),
            ),
            TraceEvent::Deliver { at, from, to, .. } => {
                println!("t={:>9.3}ms  SP{from} → SP{to:<2}         delivered", ms(at))
            }
            TraceEvent::Proto { node, at, event, .. } => {
                let what = match event {
                    ProtoEvent::ThresholdInstall { value, .. } => {
                        format!("threshold installed: {value:.3}")
                    }
                    ProtoEvent::ThresholdRefine { old, new, .. } => {
                        format!("threshold refined: {old:.3} → {new:.3}")
                    }
                    ProtoEvent::Prune { pruned, .. } => format!("pruned {pruned} points"),
                    ProtoEvent::Phase { phase, .. } => format!("phase {phase:?}"),
                };
                println!("t={:>9.3}ms  SP{node:<12} {what}", ms(at));
            }
            _ => {}
        }
    }
    println!(
        "\nfinished at t={:.3}ms: {} skyline points, {} messages, {} bytes",
        out.total_time_ns as f64 / 1e6,
        out.result_ids.len(),
        out.messages,
        out.volume_bytes,
    );
}
