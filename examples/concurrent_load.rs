//! Concurrent query load: several subspace skyline queries in flight at
//! once, sharing super-peer compute and 4 KB/s links. Compares the batch
//! makespan against running the same queries back-to-back, and profiles
//! where the work concentrated.
//!
//! ```text
//! cargo run --release --example concurrent_load [batch_size]
//! ```

use skypeer::core::engine::{EngineConfig, RunOptions, SkypeerEngine};
use skypeer::core::Variant;
use skypeer::data::Query;
use skypeer::netsim::obs::{MemTracer, MetricsRegistry, Tracer};
use skypeer::prelude::*;
use std::sync::Arc;

fn main() {
    let max_batch: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(8);
    let engine = SkypeerEngine::build(EngineConfig::paper_default(400, 11));
    let n_sp = engine.config().n_superpeers;
    println!(
        "network: {} peers / {n_sp} super-peers; variant FTPM; batch sizes 1..={max_batch}\n",
        engine.config().n_peers
    );
    println!("{:>6}  {:>14}  {:>12}  {:>8}", "batch", "makespan (ms)", "serial (ms)", "speedup");
    let mut size = 1;
    while size <= max_batch {
        let wl = WorkloadSpec {
            dim: engine.config().dataset.dim,
            k: 3,
            queries: size,
            n_superpeers: n_sp,
            seed: size as u64,
        }
        .generate();
        let batch: Vec<(Query, Variant)> = wl.iter().map(|q| (*q, Variant::Ftpm)).collect();
        let out = engine.run_concurrent(&batch);
        let serial: u64 =
            wl.iter().map(|q| engine.run_query(*q, Variant::Ftpm).total_time_ns).sum();
        println!(
            "{:>6}  {:>14.1}  {:>12.1}  {:>7.2}x",
            size,
            out.makespan_ns as f64 / 1e6,
            serial as f64 / 1e6,
            serial as f64 / out.makespan_ns as f64,
        );
        size *= 2;
    }

    // Where does one query's work actually land? Fixed merging funnels
    // everything into the initiator; progressive merging spreads it.
    println!("\nper-query profile (initiator = SP0):");
    let q = Query { subspace: Subspace::from_dims(&[1, 3, 5]), initiator: 0 };
    for variant in [Variant::Ftfm, Variant::Ftpm] {
        let tracer = Arc::new(MemTracer::new());
        let opts = RunOptions {
            tracer: Some(Arc::clone(&tracer) as Arc<dyn Tracer>),
            ..RunOptions::default()
        };
        engine.run(q, variant, &opts);
        let m = MetricsRegistry::from_events(&tracer.take());
        let compute: u64 = m.per_node.iter().map(|n| n.service_ns).sum();
        let inbound: u64 =
            m.link_bytes.iter().filter(|(&(_, to), _)| to == q.initiator).map(|(_, b)| b).sum();
        let total: u64 = m.link_bytes.values().sum();
        let (hot_node, hot_ns) = m.hottest_node().expect("nodes exist");
        let ((from, to), hot_bytes) = m.hottest_link().expect("links used");
        println!(
            "  {}: initiator does {:.1}% of all compute, takes {:.1} KB inbound of {:.1} KB total; hottest node SP{hot_node} ({:.2} ms), hottest link SP{from}→SP{to} ({:.1} KB)",
            variant.mnemonic(),
            100.0 * m.per_node[q.initiator].service_ns as f64 / compute as f64,
            inbound as f64 / 1024.0,
            total as f64 / 1024.0,
            hot_ns as f64 / 1e6,
            hot_bytes as f64 / 1024.0,
        );
    }
}
