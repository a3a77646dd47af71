//! Pluggable distributed-skyline backends.
//!
//! SKYPEER's threshold protocol is one way to compute a subspace skyline
//! over data partitioned across super-peers — not the only one. This
//! module factors the query lifecycle (plan, per-round message exchange
//! over the DES, answer assembly) behind the
//! [`DistributedSkylineBackend`] trait so alternative protocols run over
//! the **same** network, stores, cost model, tracer, and metrics, and are
//! therefore directly comparable on bytes, rounds, and simulated time.
//!
//! Two implementations ship today:
//!
//! * [`SkypeerBackend`] — the paper's threshold protocol (all five
//!   variants), delegating to the [`SkypeerEngine`]'s own query path.
//!   Rounds scale with backbone diameter (query flood down, answers up).
//! * [`SamplingBackend`] — Zhang & Zhang's sampling-based constant-round
//!   algorithm ("Computing Skylines on Distributed Data",
//!   arXiv 1611.00423), adapted to the super-peer stores: the coordinator
//!   computes its local subspace skyline and broadcasts it as a pruning
//!   filter (round 1); every other super-peer computes its local skyline,
//!   drops filter-dominated points, and ships the survivors straight back
//!   (round 2); the coordinator merges. Exactly **2** communication
//!   rounds regardless of backbone size, at the price of contacting every
//!   super-peer directly instead of riding the backbone topology.
//!
//! Both backends return exact answers (proptested against the brute
//! oracle in [`crate::verify`]); they differ only in *how much* data
//! moves, *how many* sequential rounds it takes, and *where* the work
//! lands.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use skypeer_data::Query;
use skypeer_netsim::cost::WorkReport;
use skypeer_netsim::des::{Behavior, Context};
use skypeer_netsim::obs::{ProtoEvent, QueryPhase};
use skypeer_skyline::merge::merge_sorted;
use skypeer_skyline::{Dominance, PointSet, SortedDataset, Subspace};

use crate::engine::{run_legs, QueryOutcome, RunOptions, SkypeerEngine};
use crate::msg::Msg;
use crate::node::FinalAnswer;
use crate::planner::IndexPolicy;
use crate::variants::Variant;

/// Which distributed-skyline backend executes a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The SKYPEER threshold protocol (the paper's algorithm; default).
    #[default]
    Skypeer,
    /// Zhang & Zhang's sampling-based constant-round algorithm.
    Sampling,
}

impl BackendKind {
    /// Every backend, in comparison-report order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Skypeer, BackendKind::Sampling];

    /// Stable lowercase name — the value `--backend` accepts and the
    /// string reports print.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Skypeer => "skypeer",
            BackendKind::Sampling => "sampling",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a `--backend` value. Every front end routes through this one
/// function so the accepted names — and the error text — cannot drift.
pub fn parse_backend(s: &str) -> Result<BackendKind, String> {
    match s {
        "skypeer" => Ok(BackendKind::Skypeer),
        "sampling" => Ok(BackendKind::Sampling),
        other => Err(format!("unknown --backend '{other}' (expected skypeer|sampling)")),
    }
}

/// A distributed-skyline protocol runnable over a built [`SkypeerEngine`]
/// network: it owns the query lifecycle — planning, per-round message
/// exchange on the DES, and answer assembly — while the engine supplies
/// the shared substrate (topology, per-super-peer stores, link and cost
/// models, index policy) and [`RunOptions`] the run's knobs (tracer, link
/// overrides, answer fault, failures, zero-delay leg).
///
/// Contract every implementation must honor:
///
/// * **Exactness** — the returned [`QueryOutcome::result_ids`] equal the
///   brute-force subspace skyline of the union of all raw data.
/// * **Determinism** — identical inputs produce identical outcomes,
///   byte-for-byte (the DES guarantees this if the behavior is
///   deterministic).
/// * **Honest accounting** — every byte crossing the wire is a real
///   encoded message through [`crate::msg::Msg`]; computation is reported
///   via [`WorkReport`] so the cost model prices it.
/// * **Observability** — tracing must ride the standard
///   [`skypeer_netsim::obs::Tracer`] hooks so trace/explain/soak/audit
///   tools work unmodified; building the simulation through the crate's
///   shared helper applies every [`RunOptions`] knob the same way.
pub trait DistributedSkylineBackend {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Executes one query over `engine`'s network as `opts` says (its
    /// `backend` field is the caller's business). `variant` selects the
    /// SKYPEER strategy; backends without a variant dimension ignore it.
    fn run(
        &self,
        engine: &SkypeerEngine,
        query: Query,
        variant: Variant,
        opts: &RunOptions,
    ) -> QueryOutcome;
}

/// The paper's SKYPEER threshold protocol, behind the backend seam.
pub struct SkypeerBackend;

impl DistributedSkylineBackend for SkypeerBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Skypeer
    }

    fn run(
        &self,
        engine: &SkypeerEngine,
        query: Query,
        variant: Variant,
        opts: &RunOptions,
    ) -> QueryOutcome {
        engine.run_skypeer(query, variant, opts)
    }
}

/// Zhang & Zhang's sampling-based constant-round backend (see the module
/// docs for the protocol). The `variant` argument is ignored: the
/// algorithm has no threshold/merging axes. It has no child timeouts
/// either: with a super-peer crashed through [`RunOptions::failures`] the
/// coordinator never finishes and the run panics.
pub struct SamplingBackend;

impl DistributedSkylineBackend for SamplingBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sampling
    }

    fn run(
        &self,
        engine: &SkypeerEngine,
        query: Query,
        _variant: Variant,
        opts: &RunOptions,
    ) -> QueryOutcome {
        let qid = engine.alloc_qid();
        let stores = engine.shared_stores();
        let n = stores.len();
        let nodes = || {
            (0..n)
                .map(|sp| {
                    let init = (sp == query.initiator).then_some(SamplingInit {
                        qid,
                        subspace: query.subspace,
                        flavour: opts.flavour,
                    });
                    SamplingNode::new(
                        sp,
                        n,
                        Arc::clone(&stores[sp]),
                        engine.current_query_policy(),
                        init,
                    )
                })
                .collect()
        };
        let cfg = engine.config();
        run_legs(cfg.link, cfg.cost, query.initiator, opts, nodes, SamplingNode::into_outcome)
    }
}

/// The statically-known backend for a [`BackendKind`].
pub fn backend_for(kind: BackendKind) -> &'static dyn DistributedSkylineBackend {
    match kind {
        BackendKind::Skypeer => &SkypeerBackend,
        BackendKind::Sampling => &SamplingBackend,
    }
}

/// A query the coordinator starts at t = 0.
#[derive(Clone, Copy, Debug)]
struct SamplingInit {
    qid: u32,
    subspace: Subspace,
    flavour: Dominance,
}

/// Coordinator-side bookkeeping for one in-flight sampling query.
struct CoordState {
    subspace: Subspace,
    flavour: Dominance,
    /// The coordinator's local subspace skyline (also the filter it
    /// broadcast).
    local: SortedDataset,
    /// Candidate lists received so far.
    collected: Vec<SortedDataset>,
    /// Peers whose candidates are still outstanding.
    awaiting: usize,
    complete: bool,
}

/// One super-peer of the sampling backend: stored ext-skyline plus the
/// two-round protocol. The coordinator broadcasts its local skyline as a
/// pruning filter, every other node answers once with its filtered local
/// skyline, and the coordinator merges — no spanning tree, no relaying,
/// no per-hop threshold refinement.
struct SamplingNode {
    id: usize,
    n_superpeers: usize,
    store: Arc<SortedDataset>,
    policy: IndexPolicy,
    init: Option<SamplingInit>,
    states: HashMap<u32, CoordState>,
    outcomes: Vec<(u32, FinalAnswer)>,
}

impl SamplingNode {
    fn new(
        id: usize,
        n_superpeers: usize,
        store: Arc<SortedDataset>,
        policy: IndexPolicy,
        init: Option<SamplingInit>,
    ) -> Self {
        SamplingNode {
            id,
            n_superpeers,
            store,
            policy,
            init,
            states: HashMap::new(),
            outcomes: Vec::new(),
        }
    }

    /// The single final answer of a single-query run, consuming the node.
    fn into_outcome(self) -> Option<FinalAnswer> {
        self.outcomes.into_iter().next().map(|(_, a)| a)
    }

    /// Computes this node's local subspace skyline (no threshold — the
    /// sampling protocol prunes with the filter, not with `t`) and
    /// reports the work.
    fn local_skyline(
        &self,
        qid: u32,
        subspace: Subspace,
        flavour: Dominance,
        ctx: &mut dyn Context,
    ) -> SortedDataset {
        let index = self.policy.resolve(self.store.len(), subspace);
        let started = Instant::now();
        let out = self.store.subspace_skyline(subspace, flavour, f64::INFINITY, index);
        ctx.report_work(WorkReport {
            dominance_tests: out.stats.dominance_tests,
            points_scanned: out.stats.points_scanned,
            measured: Some(started.elapsed()),
        });
        ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::LocalDone });
        out.result
    }

    /// Coordinator start: local skyline → broadcast filter to every other
    /// super-peer (round 1).
    fn start_query(&mut self, init: SamplingInit, ctx: &mut dyn Context) {
        let SamplingInit { qid, subspace, flavour } = init;
        ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::Started });
        let local = self.local_skyline(qid, subspace, flavour, ctx);
        let awaiting = self.n_superpeers - 1;
        if awaiting > 0 {
            let msg = Msg::SampleQuery { qid, subspace, flavour, filter: local.clone() };
            let bytes = msg.wire_bytes();
            let encoded = msg.encode();
            for sp in (0..self.n_superpeers).filter(|&sp| sp != self.id) {
                ctx.send(sp, bytes, encoded.clone());
            }
            ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::Forwarded });
        }
        self.states.insert(
            qid,
            CoordState {
                subspace,
                flavour,
                local,
                collected: Vec::new(),
                awaiting,
                complete: true,
            },
        );
        self.check_finalize(qid, ctx);
    }

    /// Peer side of round 1: local skyline, filter out dominated points,
    /// reply with the survivors (round 2).
    fn on_sample_query(
        &mut self,
        from: usize,
        qid: u32,
        subspace: Subspace,
        flavour: Dominance,
        filter: SortedDataset,
        ctx: &mut dyn Context,
    ) {
        ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::Started });
        let local = self.local_skyline(qid, subspace, flavour, ctx);
        let started = Instant::now();
        let (survivors, tests, pruned) = filter_candidates(&local, &filter, subspace, flavour);
        ctx.report_work(WorkReport {
            dominance_tests: tests,
            points_scanned: local.len() as u64,
            measured: Some(started.elapsed()),
        });
        if pruned > 0 {
            ctx.note(ProtoEvent::Prune { qid, pruned });
        }
        ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::Finalized });
        let msg = Msg::Candidates { qid, complete: true, points: survivors };
        ctx.send(from, msg.wire_bytes(), msg.encode());
    }

    /// Coordinator side of round 2: collect candidates; once every peer
    /// answered, merge and finish.
    fn on_candidates(
        &mut self,
        qid: u32,
        complete: bool,
        points: SortedDataset,
        ctx: &mut dyn Context,
    ) {
        let Some(state) = self.states.get_mut(&qid) else {
            debug_assert!(false, "candidates for unknown query {qid}");
            return;
        };
        debug_assert!(state.awaiting > 0, "more candidate lists than peers");
        state.complete &= complete;
        if !points.is_empty() {
            state.collected.push(points);
        }
        state.awaiting -= 1;
        self.check_finalize(qid, ctx);
    }

    /// Final merge once every peer's candidates are in.
    fn check_finalize(&mut self, qid: u32, ctx: &mut dyn Context) {
        let ready = self.states.get(&qid).is_some_and(|s| s.awaiting == 0);
        if !ready {
            return;
        }
        let state = self.states.remove(&qid).expect("state checked above");
        let started = Instant::now();
        let mut lists: Vec<&SortedDataset> = Vec::with_capacity(state.collected.len() + 1);
        lists.push(&state.local);
        lists.extend(state.collected.iter());
        let index = self.policy.resolve(self.store.len(), state.subspace);
        let merged = merge_sorted(&lists, state.subspace, state.flavour, f64::INFINITY, index);
        ctx.report_work(WorkReport {
            dominance_tests: merged.stats.dominance_tests,
            points_scanned: merged.stats.points_scanned,
            measured: Some(started.elapsed()),
        });
        ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::Finalized });
        self.outcomes.push((qid, FinalAnswer { result: merged.result, complete: state.complete }));
        ctx.finish();
    }
}

impl Behavior for SamplingNode {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let init = self.init.take().expect("on_start on a node without a query");
        self.start_query(init, ctx);
    }

    fn on_message(&mut self, from: usize, msg: Vec<u8>, ctx: &mut dyn Context) {
        match Msg::decode(&msg) {
            Some(Msg::SampleQuery { qid, subspace, flavour, filter }) => {
                self.on_sample_query(from, qid, subspace, flavour, filter, ctx);
            }
            Some(Msg::Candidates { qid, complete, points }) => {
                self.on_candidates(qid, complete, points, ctx);
            }
            Some(other) => debug_assert!(false, "unexpected message for sampling node: {other:?}"),
            None => debug_assert!(false, "undecodable message from {from}"),
        }
    }
}

/// Drops every `local` point dominated (under `flavour`, on `subspace`)
/// by some `filter` point. Returns `(survivors, dominance_tests,
/// pruned)`.
fn filter_candidates(
    local: &SortedDataset,
    filter: &SortedDataset,
    subspace: Subspace,
    flavour: Dominance,
) -> (SortedDataset, u64, u64) {
    let set = local.points();
    let fset = filter.points();
    let mut keep = PointSet::new(set.dim());
    let mut tests = 0u64;
    let mut pruned = 0u64;
    for (_, id, coords) in set.iter() {
        let mut dominated = false;
        for (_, _, f) in fset.iter() {
            tests += 1;
            if flavour.dominates(f, coords, subspace) {
                dominated = true;
                break;
            }
        }
        if dominated {
            pruned += 1;
        } else {
            keep.push(coords, id);
        }
    }
    (SortedDataset::from_set(&keep), tests, pruned)
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::engine::{EngineConfig, RoutingMode};
    use crate::verify::{exact_skyline_ids, global_dataset};
    use skypeer_data::{DatasetKind, DatasetSpec};
    use skypeer_netsim::cost::CostModel;
    use skypeer_netsim::des::LinkModel;
    use skypeer_netsim::topology::TopologySpec;
    use skypeer_skyline::DominanceIndex;
    use std::cell::OnceCell;
    use std::rc::Rc;

    /// Default options on `backend`.
    fn on(backend: BackendKind) -> RunOptions {
        RunOptions { backend, ..RunOptions::default() }
    }

    fn test_config(kind: DatasetKind, seed: u64) -> EngineConfig {
        let n_superpeers = 6;
        EngineConfig {
            n_peers: 12,
            n_superpeers,
            dataset: DatasetSpec { dim: 4, points_per_peer: 25, kind, seed },
            topology: TopologySpec::paper_default(n_superpeers, seed ^ 0xD1CE),
            index: DominanceIndex::Linear,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: RoutingMode::Flood,
        }
    }

    /// Engine + raw-data union, built once per dataset kind and test
    /// thread (engine construction dominates test time; the engine is
    /// not `Sync`, so the cache is thread-local).
    fn fixture(clustered: bool) -> Rc<(SkypeerEngine, PointSet)> {
        thread_local! {
            static UNIFORM: OnceCell<Rc<(SkypeerEngine, PointSet)>> = const { OnceCell::new() };
            static CLUSTERED: OnceCell<Rc<(SkypeerEngine, PointSet)>> = const { OnceCell::new() };
        }
        let build = move || {
            let (kind, seed) = if clustered {
                (DatasetKind::Clustered { centroids_per_superpeer: 2 }, 31u64)
            } else {
                (DatasetKind::Uniform, 17u64)
            };
            let cfg = test_config(kind, seed);
            let engine = SkypeerEngine::build(cfg);
            let peer_home = engine.topology().assign_peers(cfg.n_peers);
            let all = global_dataset(&cfg.dataset, &peer_home);
            Rc::new((engine, all))
        };
        if clustered {
            CLUSTERED.with(|c| Rc::clone(c.get_or_init(build)))
        } else {
            UNIFORM.with(|c| Rc::clone(c.get_or_init(build)))
        }
    }

    #[test]
    fn parse_backend_accepts_names_and_pins_error_text() {
        assert_eq!(parse_backend("skypeer"), Ok(BackendKind::Skypeer));
        assert_eq!(parse_backend("sampling"), Ok(BackendKind::Sampling));
        // Pinned error text: front ends surface this string verbatim.
        assert_eq!(
            parse_backend("gossip").unwrap_err(),
            "unknown --backend 'gossip' (expected skypeer|sampling)"
        );
        for kind in BackendKind::ALL {
            assert_eq!(parse_backend(kind.name()), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn every_backend_is_exact_on_every_subspace() {
        // Exhaustive over all 15 non-empty subspaces of d = 4, both data
        // distributions, both backends.
        for clustered in [false, true] {
            let fx = fixture(clustered);
            let (engine, all) = (&fx.0, &fx.1);
            for mask in 1u32..16 {
                let u = Subspace::from_mask(mask);
                let want = exact_skyline_ids(all, u, usize::MAX);
                let q = Query { subspace: u, initiator: mask as usize % 6 };
                for kind in BackendKind::ALL {
                    let out = engine.run(q, Variant::Ftpm, &on(kind));
                    assert!(out.complete);
                    assert_eq!(out.result_ids, want, "backend {kind} U={u} clustered={clustered}");
                }
            }
        }
    }

    #[test]
    fn sampling_backend_takes_exactly_two_rounds() {
        let fx = fixture(false);
        let engine = &fx.0;
        for initiator in 0..6 {
            let q = Query { subspace: Subspace::from_dims(&[0, 2]), initiator };
            let out = engine.run(q, Variant::Ftpm, &on(BackendKind::Sampling));
            assert_eq!(out.rounds, 2, "sampling is constant-round from initiator {initiator}");
        }
    }

    #[test]
    fn sampling_runs_are_deterministic() {
        let fx = fixture(true);
        let engine = &fx.0;
        let q = Query { subspace: Subspace::from_dims(&[0, 1, 3]), initiator: 4 };
        let a = engine.run(q, Variant::Ftpm, &on(BackendKind::Sampling));
        let b = engine.run(q, Variant::Ftpm, &on(BackendKind::Sampling));
        assert_eq!(a.result_ids, b.result_ids);
        assert_eq!(a.total_time_ns, b.total_time_ns);
        assert_eq!(a.volume_bytes, b.volume_bytes);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn sampling_tracer_observes_the_run_without_perturbing_it() {
        use skypeer_netsim::obs::MemTracer;
        let fx = fixture(false);
        let engine = &fx.0;
        let q = Query { subspace: Subspace::from_dims(&[0, 3]), initiator: 1 };
        let plain = engine.run(q, Variant::Ftpm, &on(BackendKind::Sampling));
        let tracer = Arc::new(MemTracer::new());
        let opts = RunOptions {
            tracer: Some(Arc::clone(&tracer) as Arc<dyn skypeer_netsim::obs::Tracer>),
            ..on(BackendKind::Sampling)
        };
        let traced = engine.run(q, Variant::Ftpm, &opts);
        assert_eq!(plain.result_ids, traced.result_ids);
        assert_eq!(plain.total_time_ns, traced.total_time_ns);
        assert_eq!(plain.volume_bytes, traced.volume_bytes);
        let events = tracer.take();
        assert!(!events.is_empty(), "the sampling run is traced");
        assert!(
            events.iter().any(|e| matches!(
                e,
                skypeer_netsim::obs::TraceEvent::Proto {
                    event: ProtoEvent::Phase { phase: QueryPhase::Finalized, .. },
                    ..
                }
            )),
            "protocol phases ride the standard tracer"
        );
    }

    #[test]
    fn filter_drops_only_dominated_points() {
        let u = Subspace::full(2);
        let mut f = PointSet::new(2);
        f.push(&[1.0, 1.0], 100);
        let filter = SortedDataset::from_set(&f);
        let mut l = PointSet::new(2);
        l.push(&[2.0, 2.0], 1); // dominated
        l.push(&[0.5, 3.0], 2); // incomparable: survives
        l.push(&[1.0, 1.0], 3); // equal: survives under standard dominance
        let local = SortedDataset::from_set(&l);
        let (kept, tests, pruned) = filter_candidates(&local, &filter, u, Dominance::Standard);
        assert_eq!(pruned, 1);
        assert!(tests >= 3);
        let mut ids: Vec<u64> = (0..kept.len()).map(|i| kept.points().id(i)).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Random subspace × initiator × backend: the distributed
            /// answer always equals the brute oracle over the raw data,
            /// on uniform and clustered distributions.
            #[test]
            fn prop_backends_match_brute_oracle(
                mask in 1u32..16,
                initiator in 0usize..6,
                clustered in any::<bool>(),
                backend_idx in 0usize..2,
            ) {
                let fx = fixture(clustered);
            let (engine, all) = (&fx.0, &fx.1);
                let u = Subspace::from_mask(mask);
                let want = exact_skyline_ids(all, u, usize::MAX);
                let q = Query { subspace: u, initiator };
                let kind = BackendKind::ALL[backend_idx];
                let out = engine.run(q, Variant::Rtfm, &on(kind));
                prop_assert!(out.complete);
                prop_assert_eq!(out.result_ids, want);
            }
        }
    }
}
