//! Concurrent-query batches: many queries in flight through one
//! simulation, sharing node compute and link bandwidth.

use skypeer::core::engine::{EngineConfig, RunOptions, SkypeerEngine};
use skypeer::core::Variant;
use skypeer::data::{DatasetKind, DatasetSpec, Query, WorkloadSpec};
use skypeer::netsim::cost::CostModel;
use skypeer::netsim::des::LinkModel;
use skypeer::netsim::topology::TopologySpec;
use skypeer::skyline::{DominanceIndex, Subspace};

fn engine(seed: u64) -> SkypeerEngine {
    let n_superpeers = 8;
    SkypeerEngine::build(EngineConfig {
        n_peers: 24,
        n_superpeers,
        dataset: DatasetSpec { dim: 5, points_per_peer: 40, kind: DatasetKind::Uniform, seed },
        topology: TopologySpec::paper_default(n_superpeers, seed ^ 0xC0),
        index: DominanceIndex::RTree,
        cost: CostModel::default(),
        link: LinkModel::paper_4kbps(),
        routing: skypeer_core::engine::RoutingMode::Flood,
    })
}

#[test]
fn concurrent_answers_equal_serial_answers() {
    let engine = engine(1);
    let workload = WorkloadSpec { dim: 5, k: 3, queries: 6, n_superpeers: 8, seed: 5 }.generate();
    let batch: Vec<(Query, Variant)> = workload.iter().map(|q| (*q, Variant::Ftpm)).collect();
    let concurrent = engine.run_concurrent(&batch);
    assert_eq!(concurrent.result_ids.len(), 6);
    for (i, q) in workload.iter().enumerate() {
        let serial = engine.run(*q, Variant::Ftpm, &RunOptions::default());
        assert_eq!(concurrent.result_ids[i], serial.result_ids, "query {i} diverged");
    }
}

#[test]
fn mixed_variants_in_one_batch() {
    let engine = engine(2);
    let u1 = Subspace::from_dims(&[0, 2]);
    let u2 = Subspace::from_dims(&[1, 3, 4]);
    let batch = vec![
        (Query { subspace: u1, initiator: 0 }, Variant::Ftfm),
        (Query { subspace: u2, initiator: 3 }, Variant::Rtpm),
        (Query { subspace: u1, initiator: 5 }, Variant::Naive),
    ];
    let out = engine.run_concurrent(&batch);
    assert_eq!(out.result_ids[0], engine.centralized_skyline(u1));
    assert_eq!(out.result_ids[1], engine.centralized_skyline(u2));
    assert_eq!(out.result_ids[2], engine.centralized_skyline(u1));
}

#[test]
fn several_queries_from_one_initiator() {
    let engine = engine(3);
    let batch = vec![
        (Query { subspace: Subspace::from_dims(&[0]), initiator: 2 }, Variant::Ftpm),
        (Query { subspace: Subspace::from_dims(&[1, 2]), initiator: 2 }, Variant::Ftpm),
        (Query { subspace: Subspace::full(5), initiator: 2 }, Variant::Rtfm),
    ];
    let out = engine.run_concurrent(&batch);
    for (i, (q, _)) in batch.iter().enumerate() {
        assert_eq!(out.result_ids[i], engine.centralized_skyline(q.subspace), "query {i}");
    }
}

#[test]
fn contention_makes_batches_slower_than_one_query_but_faster_than_serial_sum() {
    let engine = engine(4);
    let u = Subspace::from_dims(&[0, 1, 2]);
    let queries: Vec<(Query, Variant)> =
        (0..4).map(|i| (Query { subspace: u, initiator: i * 2 }, Variant::Ftpm)).collect();
    let lone = engine.run(queries[0].0, Variant::Ftpm, &RunOptions::default());
    let batch = engine.run_concurrent(&queries);
    assert!(
        batch.makespan_ns >= lone.total_time_ns,
        "a loaded network cannot beat an idle one ({} < {})",
        batch.makespan_ns,
        lone.total_time_ns
    );
    let serial_sum: u64 =
        queries.iter().map(|(q, v)| engine.run(*q, *v, &RunOptions::default()).total_time_ns).sum();
    assert!(
        batch.makespan_ns < serial_sum,
        "concurrency must beat running the batch back-to-back ({} >= {serial_sum})",
        batch.makespan_ns
    );
}

#[test]
fn batch_of_one_equals_single_query() {
    let engine = engine(5);
    let q = Query { subspace: Subspace::from_dims(&[2, 4]), initiator: 1 };
    let single = engine.run(q, Variant::Rtpm, &RunOptions::default());
    let batch = engine.run_concurrent(&[(q, Variant::Rtpm)]);
    assert_eq!(batch.result_ids[0], single.result_ids);
    assert_eq!(batch.makespan_ns, single.total_time_ns);
    assert_eq!(batch.volume_bytes, single.volume_bytes);
    assert_eq!(batch.finish_times_ns, vec![single.total_time_ns]);
}

#[test]
fn live_runtime_handles_a_concurrent_batch() {
    use skypeer::core::node::{InitQuery, SuperPeerNode};
    use skypeer::netsim::live::run_live_multi;
    use std::sync::Arc;
    use std::time::Duration;

    let engine = engine(6);
    let n_sp = engine.config().n_superpeers;
    let stores: Vec<Arc<_>> = (0..n_sp).map(|sp| Arc::new(engine.store(sp).clone())).collect();
    let u1 = Subspace::from_dims(&[0, 1]);
    let u2 = Subspace::from_dims(&[2, 3]);
    let u3 = Subspace::full(5);

    let mut nodes: Vec<SuperPeerNode> = (0..n_sp)
        .map(|sp| {
            SuperPeerNode::new(
                sp,
                engine.topology().neighbors(sp).to_vec(),
                Arc::clone(&stores[sp]),
                engine.config().index,
                None,
            )
        })
        .collect();
    nodes[0].push_init_query(InitQuery::standard(1, u1, Variant::Ftpm));
    nodes[0].push_init_query(InitQuery::standard(2, u2, Variant::Rtfm));
    nodes[4].push_init_query(InitQuery::standard(3, u3, Variant::Naive));

    let out =
        run_live_multi(nodes, &[0, 4], 3, Duration::from_secs(30)).expect("live batch completes");
    let sorted_ids = |qid: u32, node: usize| {
        let a = out.nodes[node].outcome_for(qid).expect("answer present");
        let mut ids: Vec<u64> = (0..a.result.len()).map(|i| a.result.points().id(i)).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(sorted_ids(1, 0), engine.centralized_skyline(u1));
    assert_eq!(sorted_ids(2, 0), engine.centralized_skyline(u2));
    assert_eq!(sorted_ids(3, 4), engine.centralized_skyline(u3));
}
