//! A churn scenario end to end: peers join over time, a super-peer
//! crashes mid-service, queries run throughout (with child timeouts
//! keeping them terminating), and the crashed node eventually recovers.
//!
//! ```text
//! cargo run --release --example churn_simulation
//! ```

use skypeer::core::churn::{ChurnEvent, ChurnRunner};
use skypeer::core::Variant;
use skypeer::data::{DatasetKind, DatasetSpec, Query};
use skypeer::netsim::cost::CostModel;
use skypeer::netsim::des::LinkModel;
use skypeer::netsim::topology::TopologySpec;
use skypeer::prelude::*;
use skypeer::skyline::DominanceIndex;

fn main() {
    let n_sp = 8;
    let topo = TopologySpec::paper_default(n_sp, 5).generate();
    let mut runner = ChurnRunner::new(
        topo,
        5,
        DominanceIndex::RTree,
        CostModel::default(),
        LinkModel::paper_4kbps(),
        120_000_000_000, // 2-minute child timeout
    );
    let spec = DatasetSpec { dim: 5, points_per_peer: 100, kind: DatasetKind::Uniform, seed: 8 };
    let u = Subspace::from_dims(&[0, 2, 4]);
    let q = Query { subspace: u, initiator: 0 };

    let mut peer_no = 0usize;
    let mut join_wave = |runner: &mut ChurnRunner, how_many: usize| {
        for _ in 0..how_many {
            let sp = peer_no % n_sp;
            if runner.is_alive(sp) {
                runner.apply(ChurnEvent::PeerJoin {
                    superpeer: sp,
                    points: spec.generate_peer(peer_no, sp),
                });
            }
            peer_no += 1;
        }
    };
    let ask = |runner: &mut ChurnRunner, label: &str| {
        let r = runner
            .apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm })
            .expect("query report");
        println!(
            "{label:<28} {:>3} skyline points | complete={} exact-for-live={} | {:>8.1} ms, {:>6.1} KB",
            r.result_ids.len(),
            r.complete,
            r.exact_for_live_data,
            r.total_time_ns as f64 / 1e6,
            r.volume_bytes as f64 / 1024.0,
        );
    };

    println!("scenario: skyline on {u}, initiator SP0, FTPM, 8 super-peers\n");
    join_wave(&mut runner, 8);
    ask(&mut runner, "after first join wave (8)");
    join_wave(&mut runner, 16);
    ask(&mut runner, "after second wave (24 total)");

    println!("\n!! SP5 crashes\n");
    runner.apply(ChurnEvent::SuperPeerCrash { superpeer: 5 });
    ask(&mut runner, "degraded (SP5 down)");
    join_wave(&mut runner, 8); // joins continue on the survivors
    ask(&mut runner, "degraded + more joins");

    println!("\n!! SP5 recovers\n");
    runner.apply(ChurnEvent::SuperPeerRecover { superpeer: 5 });
    ask(&mut runner, "after recovery");

    println!("\nper-super-peer stores now:");
    for sp in 0..n_sp {
        println!(
            "  SP{sp}: {} raw points from peers → {} stored ({} alive)",
            runner.raw_points(sp),
            runner.store(sp).len(),
            runner.is_alive(sp),
        );
    }
}
