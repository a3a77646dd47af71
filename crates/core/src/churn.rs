//! Churn scenarios: a dynamic network where peers join, super-peers
//! crash, and queries interleave.
//!
//! The paper handles peer *joins* incrementally (Section 5.3) and names
//! churn/peer failure as future work. This module makes both executable:
//! a [`ChurnRunner`] owns the evolving network state and applies a
//! sequence of [`ChurnEvent`]s, answering queries against whatever data is
//! alive at that moment — with the child-timeout fault-tolerance extension
//! keeping queries terminating while super-peers are down.
//!
//! The runner also maintains the ground truth (which points are currently
//! reachable), so every query report carries an exactness verdict.

use std::sync::Arc;

use skypeer_cache::{CacheConfig, CacheStats, SubspaceCache};
use skypeer_data::Query;
use skypeer_netsim::cost::{CostModel, WorkReport};
use skypeer_netsim::des::LinkModel;
use skypeer_netsim::topology::Topology;
use skypeer_skyline::extended::refine_from_ext;
use skypeer_skyline::merge::merge_sorted;
use skypeer_skyline::{Dominance, DominanceIndex, PointSet, SortedDataset, Subspace};

use crate::engine::{run_legs, sorted_ids, superpeer_nodes, QueryOutcome, RunOptions};
use crate::node::{InitQuery, SuperPeerNode};
use crate::planner::IndexPolicy;
use crate::preprocess::join_peer;
use crate::variants::Variant;

/// One step of a churn scenario.
pub enum ChurnEvent {
    /// A peer joins `superpeer`, bringing its local dataset (the store is
    /// updated incrementally, per Section 5.3).
    PeerJoin {
        /// Hosting super-peer.
        superpeer: usize,
        /// The joining peer's local data.
        points: PointSet,
    },
    /// A super-peer crashes: its stored data (and its attached peers')
    /// becomes unreachable until [`ChurnEvent::SuperPeerRecover`].
    SuperPeerCrash {
        /// The crashing super-peer.
        superpeer: usize,
    },
    /// A crashed super-peer comes back, with its store intact.
    SuperPeerRecover {
        /// The recovering super-peer.
        superpeer: usize,
    },
    /// A subspace skyline query.
    Query {
        /// The query (subspace + initiator).
        query: Query,
        /// Execution strategy.
        variant: Variant,
    },
}

/// What a query executed during churn returned.
#[derive(Clone, Debug)]
pub struct ChurnQueryReport {
    /// Sorted global ids of the returned skyline.
    pub result_ids: Vec<u64>,
    /// Whether every *reachable, alive* super-peer contributed.
    pub complete: bool,
    /// Whether the answer equals the exact skyline of all currently-alive
    /// stores (always true when `complete`; checked independently).
    pub exact_for_live_data: bool,
    /// Simulated response time (ns). For a cache-served answer this is the
    /// local refinement cost alone — no network round trip happened.
    pub total_time_ns: u64,
    /// Bytes moved.
    pub volume_bytes: u64,
    /// Whether the answer came from the runner's [`SubspaceCache`] without
    /// touching the backbone (always `false` without
    /// [`ChurnRunner::with_cache`]).
    pub served_from_cache: bool,
}

/// The evolving network state of a churn scenario.
pub struct ChurnRunner {
    topology: Topology,
    /// Each super-peer's store, shared with the nodes of every query's
    /// simulation; a join swaps in the merged store.
    stores: Vec<Arc<SortedDataset>>,
    /// Raw points held by each super-peer's attached peers.
    raw_points: Vec<usize>,
    alive: Vec<bool>,
    dim: usize,
    index: DominanceIndex,
    cost: CostModel,
    link: LinkModel,
    /// Child timeout for query execution while peers may be down.
    child_timeout_ns: u64,
    next_qid: u32,
    /// Optional result cache. Every membership event bumps its epoch, so a
    /// query issued after a join/crash/recovery can never be served a
    /// result computed against the previous network.
    cache: Option<SubspaceCache>,
}

impl ChurnRunner {
    /// Creates an empty network over `topology`: every super-peer starts
    /// with no data and alive.
    pub fn new(
        topology: Topology,
        dim: usize,
        index: DominanceIndex,
        cost: CostModel,
        link: LinkModel,
        child_timeout_ns: u64,
    ) -> Self {
        let n = topology.len();
        ChurnRunner {
            topology,
            stores: (0..n).map(|_| Arc::new(SortedDataset::empty(dim))).collect(),
            raw_points: vec![0; n],
            alive: vec![true; n],
            dim,
            index,
            cost,
            link,
            child_timeout_ns,
            next_qid: 1,
            cache: None,
        }
    }

    /// Enables the subsumption-aware result cache with the given byte
    /// budget. Queries then first consult the cache; misses execute an
    /// **Extended**-flavour backbone query whose global `ext-SKY_U` result
    /// is admitted (when complete) and refined locally — so later queries
    /// for the same or any contained subspace are answered without
    /// touching the network. Every churn event invalidates the cache by
    /// bumping its epoch.
    pub fn with_cache(mut self, max_bytes: u64) -> Self {
        self.cache = Some(SubspaceCache::new(CacheConfig { max_bytes, index: self.index }));
        self
    }

    /// Cache counters, when the cache is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The merged ext-skyline currently stored at super-peer `sp`.
    pub fn store(&self, sp: usize) -> &SortedDataset {
        &self.stores[sp]
    }

    /// Raw points held by the peers attached to super-peer `sp`.
    pub fn raw_points(&self, sp: usize) -> usize {
        self.raw_points[sp]
    }

    /// Whether super-peer `sp` is currently up.
    pub fn is_alive(&self, sp: usize) -> bool {
        self.alive[sp]
    }

    /// The exact skyline of all data reachable *right now* (alive stores).
    pub fn live_skyline(&self, u: Subspace) -> Vec<u64> {
        let lists: Vec<&SortedDataset> = self
            .stores
            .iter()
            .zip(&self.alive)
            .filter(|(_, &alive)| alive)
            .map(|(s, _)| s.as_ref())
            .collect();
        if lists.is_empty() {
            return Vec::new();
        }
        sorted_ids(&merge_sorted(&lists, u, Dominance::Standard, f64::INFINITY, self.index).result)
    }

    /// Applies one event. Query events return a report; the others return
    /// `None`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range super-peer indices, on a query from a dead
    /// initiator, and on data dimensionality mismatches.
    pub fn apply(&mut self, event: ChurnEvent) -> Option<ChurnQueryReport> {
        match event {
            ChurnEvent::PeerJoin { superpeer, points } => {
                assert!(self.alive[superpeer], "cannot join a dead super-peer");
                // No simulation holds the store between queries, so this
                // merges in place instead of copying.
                join_peer(Arc::make_mut(&mut self.stores[superpeer]), &points, self.index);
                self.raw_points[superpeer] += points.len();
                self.invalidate_cache();
                None
            }
            ChurnEvent::SuperPeerCrash { superpeer } => {
                self.alive[superpeer] = false;
                self.invalidate_cache();
                None
            }
            ChurnEvent::SuperPeerRecover { superpeer } => {
                self.alive[superpeer] = true;
                self.invalidate_cache();
                None
            }
            ChurnEvent::Query { query, variant } => Some(self.run_query(query, variant)),
        }
    }

    /// The reachable data just changed; no cached global result can be
    /// trusted any more.
    fn invalidate_cache(&mut self) {
        if let Some(cache) = self.cache.as_mut() {
            cache.bump_epoch();
        }
    }

    /// Executes one query. With the cache on, a (non-stale) covering
    /// entry answers locally; a miss runs the backbone query with the
    /// **Extended** flavour so its result is admissible for every
    /// contained subspace, then refines locally to the standard skyline.
    /// Incomplete results (super-peers down) are never admitted.
    fn run_query(&mut self, query: Query, variant: Variant) -> ChurnQueryReport {
        assert!(self.alive[query.initiator], "initiator is down");
        let mut report = match self.cache.as_mut().and_then(|c| c.lookup(query.subspace)) {
            Some(ans) => ChurnQueryReport {
                result_ids: ans.result_ids,
                complete: true,
                exact_for_live_data: false,
                total_time_ns: self.cost.service_ns(&WorkReport::from_counts(
                    ans.refine_stats.dominance_tests,
                    ans.refine_stats.points_scanned,
                )),
                volume_bytes: 0,
                served_from_cache: true,
            },
            None => {
                let cached = self.cache.is_some();
                let flavour = if cached { Dominance::Extended } else { Dominance::Standard };
                let run = self.run_distributed(query, variant, flavour);
                let result_ids = if cached {
                    sorted_ids(&refine_from_ext(&run.result, query.subspace, self.index).result)
                } else {
                    run.result_ids
                };
                if let Some(cache) = self.cache.as_mut().filter(|_| run.complete) {
                    cache.admit(query.subspace, run.result, run.volume_bytes);
                }
                ChurnQueryReport {
                    result_ids,
                    complete: run.complete,
                    exact_for_live_data: false,
                    total_time_ns: run.total_time_ns,
                    volume_bytes: run.volume_bytes,
                    served_from_cache: false,
                }
            }
        };
        report.exact_for_live_data = report.result_ids == self.live_skyline(query.subspace);
        report
    }

    fn run_distributed(
        &mut self,
        query: Query,
        variant: Variant,
        flavour: Dominance,
    ) -> QueryOutcome {
        let qid = self.next_qid;
        self.next_qid = self.next_qid.wrapping_add(1);
        let opts = RunOptions {
            flavour,
            failures: (0..self.alive.len())
                .filter(|&sp| !self.alive[sp])
                .map(|sp| (sp, 0))
                .collect(),
            child_timeout_ns: Some(self.child_timeout_ns),
            ..RunOptions::default()
        };
        let init = InitQuery { qid, subspace: query.subspace, variant, flavour };
        let nodes = || {
            let mut nodes = superpeer_nodes(
                &self.topology,
                &self.stores,
                self.index,
                IndexPolicy::Fixed(self.index),
                None,
                opts.child_timeout_ns,
            );
            nodes[query.initiator].push_init_query(init);
            nodes
        };
        run_legs(self.link, self.cost, query.initiator, &opts, nodes, SuperPeerNode::into_outcome)
    }

    /// Convenience: applies a whole scenario, returning the query reports
    /// in order.
    pub fn run_scenario(&mut self, events: Vec<ChurnEvent>) -> Vec<ChurnQueryReport> {
        events.into_iter().filter_map(|e| self.apply(e)).collect()
    }

    /// Dimensionality of the data space.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// A seeded generator of random churn scenarios, for stress tests: waves
/// of joins interleaved with crashes, recoveries, and queries. Crashes
/// never take the designated initiator down, and at most
/// `max_concurrent_failures` super-peers are down at any moment.
pub struct ChurnScenarioSpec {
    /// Number of super-peers in the network.
    pub n_superpeers: usize,
    /// Data dimensionality.
    pub dim: usize,
    /// Points per joining peer.
    pub points_per_peer: usize,
    /// Total events to generate.
    pub events: usize,
    /// Super-peer that initiates every generated query (kept alive).
    pub initiator: usize,
    /// Cap on simultaneously-failed super-peers.
    pub max_concurrent_failures: usize,
    /// Seed.
    pub seed: u64,
}

impl ChurnScenarioSpec {
    /// Generates the event sequence.
    pub fn generate(&self) -> Vec<ChurnEvent> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        assert!(self.initiator < self.n_superpeers, "initiator out of range");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut down: Vec<usize> = Vec::new();
        let mut out = Vec::with_capacity(self.events);
        let mut peer_no = 0usize;
        for _ in 0..self.events {
            let roll = rng.gen_range(0..100);
            if roll < 50 {
                // Join an alive super-peer.
                let alive: Vec<usize> =
                    (0..self.n_superpeers).filter(|sp| !down.contains(sp)).collect();
                let sp = alive[rng.gen_range(0..alive.len())];
                let spec = skypeer_data::DatasetSpec {
                    dim: self.dim,
                    points_per_peer: self.points_per_peer,
                    kind: skypeer_data::DatasetKind::Uniform,
                    seed: self.seed ^ 0xC0FFEE,
                };
                out.push(ChurnEvent::PeerJoin {
                    superpeer: sp,
                    points: spec.generate_peer(peer_no, sp),
                });
                peer_no += 1;
            } else if roll < 65 && down.len() < self.max_concurrent_failures {
                let candidates: Vec<usize> = (0..self.n_superpeers)
                    .filter(|&sp| sp != self.initiator && !down.contains(&sp))
                    .collect();
                if let Some(&sp) = candidates.get(
                    rng.gen_range(0..candidates.len().max(1))
                        .min(candidates.len().saturating_sub(1)),
                ) {
                    down.push(sp);
                    out.push(ChurnEvent::SuperPeerCrash { superpeer: sp });
                }
            } else if roll < 75 && !down.is_empty() {
                let sp = down.swap_remove(rng.gen_range(0..down.len()));
                out.push(ChurnEvent::SuperPeerRecover { superpeer: sp });
            } else {
                let mut dims: Vec<usize> = (0..self.dim).collect();
                use rand::seq::SliceRandom;
                dims.shuffle(&mut rng);
                let k = rng.gen_range(1..=self.dim);
                out.push(ChurnEvent::Query {
                    query: Query {
                        subspace: Subspace::from_dims(&dims[..k]),
                        initiator: self.initiator,
                    },
                    variant: Variant::ALL[rng.gen_range(0..Variant::ALL.len())],
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use skypeer_data::{DatasetKind, DatasetSpec};
    use skypeer_netsim::topology::TopologySpec;

    const HOUR: u64 = 3_600_000_000_000;

    fn runner(n_sp: usize, seed: u64) -> ChurnRunner {
        let mut spec = TopologySpec::paper_default(n_sp, seed);
        spec.avg_degree = spec.avg_degree.min((n_sp.saturating_sub(1)) as f64);
        ChurnRunner::new(
            spec.generate(),
            4,
            DominanceIndex::Linear,
            CostModel::default(),
            LinkModel::zero_delay(),
            HOUR,
        )
    }

    fn peer(spec_seed: u64, peer_idx: usize) -> PointSet {
        DatasetSpec { dim: 4, points_per_peer: 30, kind: DatasetKind::Uniform, seed: spec_seed }
            .generate_peer(peer_idx, 0)
    }

    #[test]
    fn joins_then_query_is_exact_and_complete() {
        let mut r = runner(5, 1);
        for sp in 0..5 {
            for p in 0..2 {
                r.apply(ChurnEvent::PeerJoin { superpeer: sp, points: peer(9, sp * 2 + p) });
            }
        }
        let u = Subspace::from_dims(&[0, 2]);
        let report = r
            .apply(ChurnEvent::Query {
                query: Query { subspace: u, initiator: 3 },
                variant: Variant::Ftpm,
            })
            .expect("query returns a report");
        assert!(report.complete);
        assert!(report.exact_for_live_data);
        assert!(!report.result_ids.is_empty());
    }

    #[test]
    fn empty_network_query_returns_empty() {
        let mut r = runner(4, 2);
        let report = r
            .apply(ChurnEvent::Query {
                query: Query { subspace: Subspace::full(4), initiator: 0 },
                variant: Variant::Rtfm,
            })
            .expect("report");
        assert!(report.result_ids.is_empty());
        assert!(report.complete);
        assert!(report.exact_for_live_data);
    }

    #[test]
    fn crash_degrades_then_recovery_restores() {
        let mut r = runner(5, 3);
        for sp in 0..5 {
            r.apply(ChurnEvent::PeerJoin { superpeer: sp, points: peer(11, sp) });
        }
        let u = Subspace::from_dims(&[1, 3]);
        let q = Query { subspace: u, initiator: 0 };
        let healthy =
            r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        assert!(healthy.complete && healthy.exact_for_live_data);

        r.apply(ChurnEvent::SuperPeerCrash { superpeer: 2 });
        let degraded =
            r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        // The crash may or may not cut off additional super-peers; either
        // way the query terminated and the verdicts are consistent.
        if degraded.complete {
            assert!(degraded.exact_for_live_data, "complete answers must match live data");
        }

        r.apply(ChurnEvent::SuperPeerRecover { superpeer: 2 });
        let recovered =
            r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        assert!(recovered.complete);
        assert_eq!(recovered.result_ids, healthy.result_ids, "recovery restores the answer");
    }

    #[test]
    fn joins_after_crash_land_on_survivors() {
        let mut r = runner(4, 4);
        r.apply(ChurnEvent::SuperPeerCrash { superpeer: 1 });
        r.apply(ChurnEvent::PeerJoin { superpeer: 0, points: peer(5, 0) });
        r.apply(ChurnEvent::PeerJoin { superpeer: 2, points: peer(5, 1) });
        let report = r
            .apply(ChurnEvent::Query {
                query: Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 },
                variant: Variant::Naive,
            })
            .expect("report");
        if report.complete {
            assert!(report.exact_for_live_data);
        }
    }

    #[test]
    #[should_panic(expected = "cannot join a dead super-peer")]
    fn join_on_dead_superpeer_panics() {
        let mut r = runner(3, 5);
        r.apply(ChurnEvent::SuperPeerCrash { superpeer: 1 });
        r.apply(ChurnEvent::PeerJoin { superpeer: 1, points: peer(1, 0) });
    }

    #[test]
    fn cached_repeat_query_is_served_locally_and_exact() {
        let mut r = runner(5, 12).with_cache(4 << 20);
        for sp in 0..5 {
            r.apply(ChurnEvent::PeerJoin { superpeer: sp, points: peer(23, sp) });
        }
        let q = Query { subspace: Subspace::from_dims(&[0, 2, 3]), initiator: 1 };
        let miss = r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        assert!(!miss.served_from_cache);
        assert!(miss.exact_for_live_data, "extended-flavour miss run must still be exact");
        assert!(miss.volume_bytes > 0);

        let hit = r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        assert!(hit.served_from_cache, "repeat query must hit");
        assert_eq!(hit.result_ids, miss.result_ids);
        assert!(hit.exact_for_live_data);
        assert_eq!(hit.volume_bytes, 0, "a hit moves no bytes");

        // Subsumption: a contained subspace is also served from the cache.
        let sub = Query { subspace: Subspace::from_dims(&[0, 3]), initiator: 1 };
        let sub_hit =
            r.apply(ChurnEvent::Query { query: sub, variant: Variant::Ftpm }).expect("report");
        assert!(sub_hit.served_from_cache);
        assert!(sub_hit.exact_for_live_data);
        assert_eq!(sub_hit.result_ids, r.live_skyline(sub.subspace));

        let st = r.cache_stats().expect("cache enabled");
        assert_eq!((st.exact_hits, st.subsumption_hits, st.misses), (1, 1, 1));
    }

    #[test]
    fn post_churn_query_never_serves_a_stale_epoch() {
        let mut r = runner(5, 31).with_cache(4 << 20);
        for sp in 0..5 {
            r.apply(ChurnEvent::PeerJoin { superpeer: sp, points: peer(29, sp) });
        }
        let q = Query { subspace: Subspace::from_dims(&[1, 2]), initiator: 0 };
        let warm = r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        assert!(!warm.served_from_cache);
        let hit = r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        assert!(hit.served_from_cache, "cache is warm before the crash");

        // A crash makes the cached global result untrustworthy: the next
        // query must go back to the network, and whatever it returns is
        // checked against the *current* live data.
        r.apply(ChurnEvent::SuperPeerCrash { superpeer: 3 });
        let after =
            r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        assert!(!after.served_from_cache, "crash must invalidate the cache");
        if after.complete {
            assert!(after.exact_for_live_data);
        }
        let st = r.cache_stats().expect("cache enabled");
        assert!(st.stale_rejects >= 1, "the stale entry was rejected at lookup");

        // Same story for recovery (data grows back) and joins (data grows).
        r.apply(ChurnEvent::SuperPeerRecover { superpeer: 3 });
        let recovered =
            r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        assert!(!recovered.served_from_cache, "recovery must invalidate too");
        assert!(recovered.exact_for_live_data);

        r.apply(ChurnEvent::PeerJoin { superpeer: 2, points: peer(77, 9) });
        let joined =
            r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        assert!(!joined.served_from_cache, "a join must invalidate too");
        assert!(joined.exact_for_live_data);
    }

    #[test]
    fn incomplete_results_are_never_admitted() {
        let mut r = runner(6, 41).with_cache(4 << 20);
        for sp in 0..6 {
            r.apply(ChurnEvent::PeerJoin { superpeer: sp, points: peer(43, sp) });
        }
        r.apply(ChurnEvent::SuperPeerCrash { superpeer: 4 });
        let q = Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 };
        let first =
            r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
        if !first.complete {
            // The partial answer must not have been cached: the repeat
            // query goes to the network again.
            let again =
                r.apply(ChurnEvent::Query { query: q, variant: Variant::Ftpm }).expect("report");
            assert!(!again.served_from_cache);
        }
    }

    #[test]
    fn scenario_runner_collects_reports() {
        let mut r = runner(4, 6);
        let reports = r.run_scenario(vec![
            ChurnEvent::PeerJoin { superpeer: 0, points: peer(7, 0) },
            ChurnEvent::Query {
                query: Query { subspace: Subspace::full(4), initiator: 0 },
                variant: Variant::Ftfm,
            },
            ChurnEvent::PeerJoin { superpeer: 1, points: peer(7, 1) },
            ChurnEvent::Query {
                query: Query { subspace: Subspace::full(4), initiator: 1 },
                variant: Variant::Rtpm,
            },
        ]);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.exact_for_live_data));
        // More data can only grow or reshape the skyline, never shrink it
        // to empty.
        assert!(!reports[1].result_ids.is_empty());
    }
}

#[cfg(test)]
mod scenario_proptests {
    use super::*;
    use proptest::prelude::*;
    use skypeer_netsim::topology::TopologySpec;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random churn scenarios: every query terminates, and whenever a
        /// query reports complete it is exact for the live data.
        #[test]
        fn prop_random_churn_is_safe(seed in 0u64..500, n_sp in 4usize..8) {
            let mut topo_spec = TopologySpec::paper_default(n_sp, seed);
            topo_spec.avg_degree = topo_spec.avg_degree.min((n_sp - 1) as f64);
            let mut runner = ChurnRunner::new(
                topo_spec.generate(),
                3,
                DominanceIndex::Linear,
                skypeer_netsim::cost::CostModel::default(),
                skypeer_netsim::des::LinkModel::zero_delay(),
                3_600_000_000_000,
            );
            let events = ChurnScenarioSpec {
                n_superpeers: n_sp,
                dim: 3,
                points_per_peer: 15,
                events: 25,
                initiator: 0,
                max_concurrent_failures: n_sp / 2,
                seed,
            }
            .generate();
            for report in runner.run_scenario(events) {
                if report.complete {
                    prop_assert!(
                        report.exact_for_live_data,
                        "complete but inexact: {:?}",
                        report.result_ids
                    );
                }
            }
        }
    }
}
