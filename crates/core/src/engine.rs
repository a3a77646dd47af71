//! Network construction and query execution — the experiment driver.
//!
//! [`SkypeerEngine::build`] generates the synthetic network of the paper's
//! Section 6: `N_p` peers attached evenly to `N_sp` super-peers on a random
//! connected backbone, per-peer data, and the preprocessing phase. Queries
//! then run on the deterministic DES.
//!
//! Every query runs through [`SkypeerEngine::run`], configured by
//! [`RunOptions`]. With [`RunOptions::comp_time`] a query is simulated
//! twice:
//!
//! * with the paper's **4 KB/s** link model — yielding the *total response
//!   time* and the *volume of transferred data*;
//! * with **zero-delay** links — yielding the *computational time* (the
//!   critical path of computation alone, "neglecting network delays" as
//!   the paper puts it for Figure 3(b)).
//!
//! Both runs execute the full protocol and their answers are
//! cross-checked. The spanning tree that duplicate suppression induces can
//! differ between the two link models (first arrival wins), which is fine:
//! each metric is read from the run whose link model defines it.

use std::sync::{Arc, Mutex};

use skypeer_data::{DatasetSpec, Query};
use skypeer_netsim::cost::CostModel;
use skypeer_netsim::des::{Behavior, LinkModel, Sim};
use skypeer_netsim::obs::{TraceEvent, Tracer};
use skypeer_netsim::topology::{Topology, TopologySpec};
use skypeer_skyline::{Dominance, DominanceIndex, SortedDataset, Subspace};

use crate::audit::AnswerFault;
use crate::backend::{backend_for, BackendKind};
use crate::node::{FinalAnswer, InitQuery, SuperPeerNode};
use crate::planner::IndexPolicy;
use crate::preprocess::{preprocess_network, PreprocessReport};
use crate::variants::Variant;

/// Query dissemination strategy (see [`crate::node::Routing`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoutingMode {
    /// The paper's constrained flooding with duplicate suppression.
    #[default]
    Flood,
    /// Precomputed BFS spanning tree per initiator (routing-index style):
    /// no duplicate queries, no dup-acks, at the cost of maintaining
    /// per-root trees.
    SpanningTree,
}

/// Everything needed to build a SKYPEER network.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of peers `N_p`.
    pub n_peers: usize,
    /// Number of super-peers `N_sp`. The paper uses `5% · N_p`, dropping to
    /// `1%` for `N_p ≥ 20000`; see [`EngineConfig::paper_superpeers`].
    pub n_superpeers: usize,
    /// Dataset specification (dimensionality, points per peer, kind, seed).
    pub dataset: DatasetSpec,
    /// Backbone specification (degree `DEG_sp`, model, seed).
    pub topology: TopologySpec,
    /// Dominance index used by every kernel.
    pub index: DominanceIndex,
    /// Computation cost model for the simulator.
    pub cost: CostModel,
    /// Link model for the total-time run (the computational-time run always
    /// uses zero-delay links).
    pub link: LinkModel,
    /// Query dissemination strategy.
    pub routing: RoutingMode,
}

impl EngineConfig {
    /// The paper's super-peer count rule: `N_sp = 5% · N_p`, or `1%` for
    /// `N_p ≥ 20000`, never less than one.
    pub fn paper_superpeers(n_peers: usize) -> usize {
        let frac = if n_peers >= 20_000 { 0.01 } else { 0.05 };
        ((n_peers as f64 * frac).round() as usize).max(1)
    }

    /// The paper's default configuration (Section 6) at a chosen network
    /// size: `d = 8`, 250 points/peer, uniform data, `DEG_sp = 4`, 4 KB/s.
    pub fn paper_default(n_peers: usize, seed: u64) -> Self {
        let n_superpeers = Self::paper_superpeers(n_peers);
        // Tiny backbones cannot host the paper's degree 4; clamp rather
        // than surprise users experimenting at toy scale.
        let mut topology = TopologySpec::paper_default(n_superpeers, seed.wrapping_add(1));
        topology.avg_degree = topology.avg_degree.min(n_superpeers.saturating_sub(1) as f64);
        EngineConfig {
            n_peers,
            n_superpeers,
            dataset: DatasetSpec::paper_default(seed),
            topology,
            index: DominanceIndex::RTree,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: RoutingMode::Flood,
        }
    }
}

/// Metrics of one query execution.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The exact subspace skyline (global point ids, sorted).
    pub result_ids: Vec<u64>,
    /// Whether every super-peer contributed (always `true` without the
    /// fault-tolerance extension / node failures).
    pub complete: bool,
    /// The result points themselves (`f`-ascending).
    pub result: SortedDataset,
    /// Simulated response time with the configured link model, ns.
    pub total_time_ns: u64,
    /// Simulated response time with zero-delay links, ns — the paper's
    /// "computational time".
    pub comp_time_ns: u64,
    /// Bytes transferred (configured-link run).
    pub volume_bytes: u64,
    /// Messages delivered (configured-link run).
    pub messages: u64,
    /// Messages dropped — by dead nodes or injected faults (configured-link
    /// run; always 0 on a failure-free query).
    pub dropped: u64,
    /// Total computation service time across all super-peers, ns.
    pub compute_ns_total: u64,
    /// Sequential communication rounds of the configured-link run — the
    /// maximum causal message depth (see
    /// [`skypeer_netsim::des::SimStats::rounds`]). SKYPEER floods scale
    /// with backbone diameter; the sampling backend is constant at 2.
    pub rounds: u64,
}

/// Averages over a batch of queries (the paper reports averages over 100).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryMetrics {
    /// Number of queries aggregated.
    pub queries: usize,
    /// Mean total response time, ns.
    pub avg_total_time_ns: f64,
    /// Mean computational time, ns.
    pub avg_comp_time_ns: f64,
    /// Mean transferred volume, bytes.
    pub avg_volume_bytes: f64,
    /// Mean delivered messages.
    pub avg_messages: f64,
    /// Mean dropped messages (non-zero only under failure injection).
    pub avg_dropped: f64,
}

impl QueryMetrics {
    /// Folds a batch of outcomes into averages.
    pub fn from_outcomes(outcomes: &[QueryOutcome]) -> Self {
        if outcomes.is_empty() {
            return QueryMetrics::default();
        }
        let n = outcomes.len() as f64;
        QueryMetrics {
            queries: outcomes.len(),
            avg_total_time_ns: outcomes.iter().map(|o| o.total_time_ns as f64).sum::<f64>() / n,
            avg_comp_time_ns: outcomes.iter().map(|o| o.comp_time_ns as f64).sum::<f64>() / n,
            avg_volume_bytes: outcomes.iter().map(|o| o.volume_bytes as f64).sum::<f64>() / n,
            avg_messages: outcomes.iter().map(|o| o.messages as f64).sum::<f64>() / n,
            avg_dropped: outcomes.iter().map(|o| o.dropped as f64).sum::<f64>() / n,
        }
    }
}

/// Result of a concurrent query batch (see
/// [`SkypeerEngine::run_concurrent`]).
#[derive(Clone, Debug)]
pub struct ConcurrentOutcome {
    /// Per-query sorted result ids, in batch order.
    pub result_ids: Vec<Vec<u64>>,
    /// Simulated time until the *last* query completed.
    pub makespan_ns: u64,
    /// Total bytes moved by the whole batch.
    pub volume_bytes: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Simulated completion time of each query, in completion order (one
    /// entry per query; the last equals `makespan_ns`). Read off the
    /// batch's [`TraceEvent::Finish`] events, so a workload driver can
    /// build a latency distribution from a single concurrent batch.
    pub finish_times_ns: Vec<u64>,
}

/// How [`SkypeerEngine::run`] executes one query. The default is one
/// untraced SKYPEER simulation over the configured links with standard
/// dominance; every field switches on one thing.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// The distributed-skyline protocol that executes the query.
    pub backend: BackendKind,
    /// The dominance flavour of every kernel along the way. `Extended`
    /// leaves the global `ext-SKY_U` at the initiator, which refines
    /// locally into the exact `SKY_{U'}` for any `U' ⊆ U` (see
    /// [`skypeer_skyline::extended::refine_from_ext`]) — what a result
    /// cache admits.
    pub flavour: Dominance,
    /// Observes the configured-link simulation — the one whose timings
    /// define the response time.
    pub tracer: Option<Arc<dyn Tracer>>,
    /// Per-directed-link replacements of the configured [`LinkModel`],
    /// `(from, to, model)`: the perturbation hook for regression
    /// root-cause work. They change timings only.
    pub link_overrides: Vec<(usize, usize, LinkModel)>,
    /// In-flight corruption of answer payloads (the audit drill). Wire
    /// sizes are fixed at send time, so bytes and timings do not move.
    pub fault: Option<AnswerFault>,
    /// Super-peers that crash, as `(node, simulated time)`. Pair with
    /// `child_timeout_ns` so the SKYPEER protocol still terminates.
    pub failures: Vec<(usize, u64)>,
    /// The fault-tolerance extension: every SKYPEER super-peer abandons
    /// children silent for this long and flags the answer incomplete.
    /// With it the answer may be incomplete; without it, it must not be.
    pub child_timeout_ns: Option<u64>,
    /// Also runs the query over zero-delay links, untraced and without
    /// the overrides, to measure `comp_time_ns` (the paper's
    /// computational time). Its answer is cross-checked against the
    /// configured-link run. Off, `comp_time_ns` is 0.
    pub comp_time: bool,
}

/// Builds the DES for one run: `nodes` over `link`, with the run's link
/// overrides, tracer, answer fault and node failures applied. Every
/// query path in this crate builds its simulator here.
pub(crate) fn sim_for<B: Behavior>(
    nodes: Vec<B>,
    link: LinkModel,
    cost: CostModel,
    opts: &RunOptions,
) -> Sim<B> {
    let mut sim = Sim::new(nodes, link, cost);
    for &(from, to, model) in &opts.link_overrides {
        sim = sim.with_link_override(from, to, model);
    }
    if let Some(tracer) = &opts.tracer {
        sim = sim.with_tracer(Arc::clone(tracer));
    }
    if let Some(fault) = opts.fault {
        sim = sim.with_tamper_hook(move |_, _, payload| fault.tamper(payload));
    }
    for &(node, at) in &opts.failures {
        sim = sim.with_node_failure(node, at);
    }
    sim
}

/// Runs one single-query simulation started at `initiator` and folds it
/// into a [`QueryOutcome`]: the run over `link` and, with
/// `opts.comp_time`, the zero-delay leg that defines `comp_time_ns`.
/// `nodes` builds a fresh node vector per leg; `answer` pulls the final
/// answer out of the initiator.
///
/// # Panics
///
/// Panics if a leg does not finish, if an answer is incomplete without a
/// child timeout, or if the two legs disagree on a complete answer — all
/// protocol bugs.
pub(crate) fn run_legs<B: Behavior>(
    link: LinkModel,
    cost: CostModel,
    initiator: usize,
    opts: &RunOptions,
    nodes: impl Fn() -> Vec<B>,
    answer: impl Fn(B) -> Option<FinalAnswer>,
) -> QueryOutcome {
    let leg = |link: LinkModel, opts: &RunOptions| {
        let out = sim_for(nodes(), link, cost, opts).run(initiator);
        let answer = out
            .nodes
            .into_iter()
            .nth(initiator)
            .and_then(&answer)
            .expect("initiator must hold the final result after completion");
        assert!(
            answer.complete || opts.child_timeout_ns.is_some(),
            "failure-free runs must be complete"
        );
        let finished_at = out.stats.finished_at.expect("query must complete");
        (out.stats, finished_at, answer)
    };
    let (stats, total_time_ns, answer) = leg(link, opts);
    let result_ids = sorted_ids(&answer.result);
    let comp_time_ns = if opts.comp_time {
        let zero_opts = RunOptions { tracer: None, link_overrides: Vec::new(), ..opts.clone() };
        let (_, comp_time_ns, zero) = leg(LinkModel::zero_delay(), &zero_opts);
        if answer.complete && zero.complete {
            assert_eq!(
                result_ids,
                sorted_ids(&zero.result),
                "link model must not change the query answer"
            );
        }
        comp_time_ns
    } else {
        0
    };
    QueryOutcome {
        result_ids,
        complete: answer.complete,
        result: answer.result,
        total_time_ns,
        comp_time_ns,
        volume_bytes: stats.bytes,
        messages: stats.messages,
        dropped: stats.dropped,
        compute_ns_total: stats.compute_ns_total,
        rounds: stats.rounds,
    }
}

/// The SKYPEER super-peers of one simulation, with no query pushed yet
/// (see [`SuperPeerNode::push_init_query`]): node `sp` holds `stores[sp]`,
/// floods to its backbone neighbours or forwards down `tree`, and
/// abandons children silent for `child_timeout_ns` when set.
pub(crate) fn superpeer_nodes(
    topology: &Topology,
    stores: &[Arc<SortedDataset>],
    index: DominanceIndex,
    policy: IndexPolicy,
    tree: Option<Vec<Vec<usize>>>,
    child_timeout_ns: Option<u64>,
) -> Vec<SuperPeerNode> {
    (0..topology.len())
        .map(|sp| {
            let mut node = SuperPeerNode::new(
                sp,
                topology.neighbors(sp).to_vec(),
                Arc::clone(&stores[sp]),
                index,
                None,
            )
            .with_index_policy(policy);
            if let Some(children) = &tree {
                node = node.with_tree_routing(children[sp].clone());
            }
            if let Some(timeout) = child_timeout_ns {
                node = node.with_child_timeout(timeout);
            }
            node
        })
        .collect()
}

/// The ids of `result`, sorted.
pub(crate) fn sorted_ids(result: &SortedDataset) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..result.len()).map(|i| result.points().id(i)).collect();
    ids.sort_unstable();
    ids
}

/// A tracer that keeps only the time of every [`TraceEvent::Finish`].
#[derive(Default)]
struct FinishTimes(Mutex<Vec<u64>>);

impl Tracer for FinishTimes {
    fn record(&self, ev: TraceEvent) {
        if let TraceEvent::Finish { at, .. } = ev {
            self.0.lock().expect("tracer poisoned").push(at);
        }
    }
}

/// A built SKYPEER network, ready to answer queries.
///
/// ```
/// use skypeer_core::{EngineConfig, SkypeerEngine, Variant};
/// use skypeer_data::Query;
/// use skypeer_skyline::Subspace;
///
/// let engine = SkypeerEngine::build(EngineConfig::paper_default(100, 7));
/// let query = Query { subspace: Subspace::from_dims(&[0, 3]), initiator: 2 };
/// let out = engine.run_query(query, Variant::Ftpm);
/// assert_eq!(out.result_ids, engine.centralized_skyline(query.subspace));
/// assert!(out.complete);
/// ```
pub struct SkypeerEngine {
    config: EngineConfig,
    topology: Topology,
    /// Per-super-peer merged ext-skyline stores, shared with simulator
    /// nodes.
    stores: Vec<Arc<SortedDataset>>,
    preprocess: PreprocessReport,
    /// Per-query dominance-index policy applied at query time (defaults to
    /// `Fixed(config.index)`).
    query_policy: IndexPolicy,
    next_qid: std::cell::Cell<u32>,
}

impl SkypeerEngine {
    /// Generates topology and data and runs the preprocessing phase.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (zero peers/super-peers,
    /// topology/spec size mismatch).
    pub fn build(config: EngineConfig) -> Self {
        assert!(config.n_peers > 0, "need at least one peer");
        assert_eq!(
            config.topology.n_superpeers, config.n_superpeers,
            "topology spec does not match super-peer count"
        );
        let topology = config.topology.generate();
        let peer_home = topology.assign_peers(config.n_peers);
        let peer_sets: Vec<_> =
            (0..config.n_peers).map(|p| config.dataset.generate_peer(p, peer_home[p])).collect();
        let (stores, preprocess) = preprocess_network(
            &peer_sets,
            &peer_home,
            config.n_superpeers,
            config.dataset.dim,
            config.index,
        );
        SkypeerEngine {
            config,
            topology,
            stores: stores.into_iter().map(|s| Arc::new(s.store)).collect(),
            preprocess,
            query_policy: IndexPolicy::Fixed(config.index),
            next_qid: std::cell::Cell::new(1),
        }
    }

    /// Switches the query-time dominance-index policy (preprocessing
    /// always used `config.index`). `IndexPolicy::Auto` picks per query
    /// from the cardinality estimate — see [`crate::planner`].
    pub fn set_query_policy(&mut self, policy: IndexPolicy) {
        self.query_policy = policy;
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The super-peer backbone.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Preprocessing statistics (Figure 3(a) quantities).
    pub fn preprocess_report(&self) -> &PreprocessReport {
        &self.preprocess
    }

    /// The merged ext-skyline stored at super-peer `sp`.
    pub fn store(&self, sp: usize) -> &SortedDataset {
        &self.stores[sp]
    }

    /// All per-super-peer stores, shareable with simulator nodes.
    pub(crate) fn shared_stores(&self) -> &[Arc<SortedDataset>] {
        &self.stores
    }

    /// Allocates the next query id (wrapping).
    pub(crate) fn alloc_qid(&self) -> u32 {
        let qid = self.next_qid.get();
        self.next_qid.set(qid.wrapping_add(1));
        qid
    }

    /// The query-time dominance-index policy.
    pub(crate) fn current_query_policy(&self) -> IndexPolicy {
        self.query_policy
    }

    /// Executes one query on the DES under `variant`, as `opts` says, and
    /// returns its metrics. The answer is asserted complete unless
    /// `opts.child_timeout_ns` is set; when the outcome is then flagged
    /// incomplete, the answer is the exact skyline *of the data that
    /// reached the initiator* — it may miss points held by lost subtrees
    /// and contain points only a lost subtree could have dominated.
    ///
    /// # Panics
    ///
    /// Panics if a simulation does not finish (a protocol bug, or a
    /// crashed initiator), on an incomplete answer without a child
    /// timeout, or if the zero-delay leg disagrees with the real run.
    pub fn run(&self, query: Query, variant: Variant, opts: &RunOptions) -> QueryOutcome {
        backend_for(opts.backend).run(self, query, variant, opts)
    }

    /// [`SkypeerEngine::run`] with `comp_time` on: the paper's response
    /// time, volume and computational time. Kept as a shorthand because
    /// the `perfbench/` harness calls it.
    pub fn run_query(&self, query: Query, variant: Variant) -> QueryOutcome {
        self.run(query, variant, &RunOptions { comp_time: true, ..RunOptions::default() })
    }

    /// [`SkypeerEngine::run_query`] with `tracer` on the configured-link
    /// run. Kept as a shorthand because the `perfbench/` harness calls it.
    pub fn run_query_traced(
        &self,
        query: Query,
        variant: Variant,
        tracer: Arc<dyn Tracer>,
    ) -> QueryOutcome {
        let opts = RunOptions { tracer: Some(tracer), comp_time: true, ..RunOptions::default() };
        self.run(query, variant, &opts)
    }

    /// [`SkypeerEngine::run`] with only a tracer: one simulation, no
    /// zero-delay leg, `comp_time_ns` 0. Kept as a shorthand because the
    /// `perfbench/` harness calls it.
    pub fn run_query_observed(
        &self,
        query: Query,
        variant: Variant,
        tracer: Option<Arc<dyn Tracer>>,
    ) -> QueryOutcome {
        self.run(query, variant, &RunOptions { tracer, ..RunOptions::default() })
    }

    /// The SKYPEER protocol's side of [`SkypeerEngine::run`] (see
    /// [`crate::backend::SkypeerBackend`]).
    pub(crate) fn run_skypeer(
        &self,
        query: Query,
        variant: Variant,
        opts: &RunOptions,
    ) -> QueryOutcome {
        let qid = self.alloc_qid();
        let init = InitQuery { qid, subspace: query.subspace, variant, flavour: opts.flavour };
        let nodes = || {
            let mut nodes = self.make_nodes(Some(query.initiator), opts.child_timeout_ns);
            nodes[query.initiator].push_init_query(init);
            nodes
        };
        run_legs(
            self.config.link,
            self.config.cost,
            query.initiator,
            opts,
            nodes,
            SuperPeerNode::into_outcome,
        )
    }

    /// The engine's super-peers for one run; `initiator` roots the
    /// spanning tree under [`RoutingMode::SpanningTree`].
    fn make_nodes(
        &self,
        initiator: Option<usize>,
        child_timeout_ns: Option<u64>,
    ) -> Vec<SuperPeerNode> {
        let tree = match self.config.routing {
            RoutingMode::Flood => None,
            RoutingMode::SpanningTree => initiator.map(|root| self.topology.bfs_tree(root)),
        };
        superpeer_nodes(
            &self.topology,
            &self.stores,
            self.config.index,
            self.query_policy,
            tree,
            child_timeout_ns,
        )
    }

    /// Runs a whole workload under `variant`, returning per-query outcomes.
    pub fn run_workload(&self, queries: &[Query], variant: Variant) -> Vec<QueryOutcome> {
        queries.iter().map(|q| self.run_query(*q, variant)).collect()
    }

    /// Runs a whole batch of queries **concurrently** in one simulation:
    /// all initiators fire at t = 0, messages of different queries share
    /// nodes and links, and per-node busy time plus per-link bandwidth
    /// capture the queueing between them. Returns the per-query results
    /// (in input order) plus batch metrics.
    ///
    /// The paper runs its 100-query workloads serially; this extension
    /// measures what a loaded network does instead. Flood routing only.
    ///
    /// # Panics
    ///
    /// Panics under [`RoutingMode::SpanningTree`] (a tree is rooted at a
    /// single initiator) or if the batch does not complete.
    pub fn run_concurrent(&self, batch: &[(Query, Variant)]) -> ConcurrentOutcome {
        assert!(
            self.config.routing == RoutingMode::Flood,
            "concurrent batches require flood routing"
        );
        assert!(!batch.is_empty(), "empty batch");
        let base_qid = self.next_qid.get();
        self.next_qid.set(base_qid.wrapping_add(batch.len() as u32));

        let mut nodes = self.make_nodes(None, None);
        let mut starts: Vec<usize> = Vec::new();
        for (i, (q, variant)) in batch.iter().enumerate() {
            let qid = base_qid.wrapping_add(i as u32);
            nodes[q.initiator].push_init_query(InitQuery::standard(qid, q.subspace, *variant));
            if !starts.contains(&q.initiator) {
                starts.push(q.initiator);
            }
        }
        let finishes = Arc::new(FinishTimes::default());
        let opts = RunOptions {
            tracer: Some(Arc::clone(&finishes) as Arc<dyn Tracer>),
            ..RunOptions::default()
        };
        let out = sim_for(nodes, self.config.link, self.config.cost, &opts)
            .run_multi(&starts, batch.len());
        let makespan_ns = out.stats.finished_at.expect("batch must complete");
        let finish_times_ns = std::mem::take(&mut *finishes.0.lock().expect("tracer poisoned"));

        let mut per_query: Vec<Vec<u64>> = Vec::with_capacity(batch.len());
        for (i, (q, _)) in batch.iter().enumerate() {
            let qid = base_qid.wrapping_add(i as u32);
            let answer = out.nodes[q.initiator]
                .outcome_for(qid)
                .unwrap_or_else(|| panic!("query {qid} missing at its initiator"));
            assert!(answer.complete, "failure-free batch must be complete");
            per_query.push(sorted_ids(&answer.result));
        }
        ConcurrentOutcome {
            result_ids: per_query,
            makespan_ns,
            volume_bytes: out.stats.bytes,
            messages: out.stats.messages,
            finish_times_ns,
        }
    }

    /// The exact global subspace skyline, computed centrally from the
    /// super-peer stores (lossless by Observation 4) — the oracle the
    /// distributed answers are verified against.
    pub fn centralized_skyline(&self, u: Subspace) -> Vec<u64> {
        let refs: Vec<&SortedDataset> = self.stores.iter().map(|a| a.as_ref()).collect();
        let merged = skypeer_skyline::merge::merge_sorted(
            &refs,
            u,
            Dominance::Standard,
            f64::INFINITY,
            self.config.index,
        );
        sorted_ids(&merged.result)
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use skypeer_data::DatasetKind;

    fn tiny_config(seed: u64) -> EngineConfig {
        let n_superpeers = 6;
        EngineConfig {
            n_peers: 12,
            n_superpeers,
            dataset: DatasetSpec { dim: 4, points_per_peer: 30, kind: DatasetKind::Uniform, seed },
            topology: TopologySpec::paper_default(n_superpeers, seed),
            index: DominanceIndex::Linear,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: RoutingMode::Flood,
        }
    }

    #[test]
    fn every_variant_returns_the_exact_skyline() {
        let engine = SkypeerEngine::build(tiny_config(3));
        let query = Query { subspace: Subspace::from_dims(&[0, 2]), initiator: 1 };
        let want = engine.centralized_skyline(query.subspace);
        assert!(!want.is_empty());
        for variant in Variant::ALL {
            let out = engine.run_query(query, variant);
            assert_eq!(out.result_ids, want, "variant {variant}");
        }
    }

    #[test]
    fn exactness_across_initiators_and_subspaces() {
        let engine = SkypeerEngine::build(tiny_config(8));
        for initiator in 0..6 {
            for u in [Subspace::from_dims(&[1]), Subspace::from_dims(&[0, 3]), Subspace::full(4)] {
                let want = engine.centralized_skyline(u);
                let query = Query { subspace: u, initiator };
                for variant in [Variant::Ftpm, Variant::Rtfm, Variant::Naive] {
                    let out = engine.run_query(query, variant);
                    assert_eq!(out.result_ids, want, "init {initiator} U {u} {variant}");
                }
            }
        }
    }

    #[test]
    fn skypeer_moves_less_data_than_naive() {
        let engine = SkypeerEngine::build(tiny_config(5));
        let query = Query { subspace: Subspace::from_dims(&[0, 1, 2]), initiator: 0 };
        let naive = engine.run_query(query, Variant::Naive);
        for variant in Variant::SKYPEER {
            let out = engine.run_query(query, variant);
            assert!(
                out.volume_bytes <= naive.volume_bytes,
                "{variant} volume {} > naive {}",
                out.volume_bytes,
                naive.volume_bytes
            );
        }
    }

    #[test]
    fn progressive_merging_moves_less_than_fixed() {
        let engine = SkypeerEngine::build(tiny_config(13));
        let query = Query { subspace: Subspace::from_dims(&[0, 1, 2]), initiator: 2 };
        let ftfm = engine.run_query(query, Variant::Ftfm);
        let ftpm = engine.run_query(query, Variant::Ftpm);
        assert!(
            ftpm.volume_bytes <= ftfm.volume_bytes,
            "FTPM {} should not exceed FTFM {}",
            ftpm.volume_bytes,
            ftfm.volume_bytes
        );
    }

    #[test]
    fn metrics_average_correctly() {
        let engine = SkypeerEngine::build(tiny_config(21));
        let queries = [
            Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 },
            Query { subspace: Subspace::from_dims(&[2, 3]), initiator: 3 },
        ];
        let outcomes = engine.run_workload(&queries, Variant::Ftpm);
        let m = QueryMetrics::from_outcomes(&outcomes);
        assert_eq!(m.queries, 2);
        let manual = (outcomes[0].total_time_ns as f64 + outcomes[1].total_time_ns as f64) / 2.0;
        assert_eq!(m.avg_total_time_ns, manual);
        assert_eq!(QueryMetrics::from_outcomes(&[]), QueryMetrics::default());
    }

    #[test]
    fn traced_query_is_identical_and_critical_path_accounts_response_time() {
        use skypeer_netsim::obs::{critical_path, MemTracer, Tracer};
        let engine = SkypeerEngine::build(tiny_config(9));
        let query = Query { subspace: Subspace::from_dims(&[0, 2]), initiator: 1 };
        let plain = engine.run_query(query, Variant::Ftpm);
        let tracer = Arc::new(MemTracer::new());
        let traced =
            engine.run_query_traced(query, Variant::Ftpm, Arc::clone(&tracer) as Arc<dyn Tracer>);
        assert_eq!(plain.result_ids, traced.result_ids);
        assert_eq!(plain.total_time_ns, traced.total_time_ns);
        assert_eq!(plain.volume_bytes, traced.volume_bytes);
        let events = tracer.take();
        assert!(!events.is_empty());
        let path = critical_path(&events).expect("query finished");
        assert_eq!(path.finish_at, traced.total_time_ns);
        assert_eq!(
            path.total_ns, traced.total_time_ns,
            "critical path must account for the whole response time"
        );
    }

    #[test]
    fn observed_run_matches_the_real_link_leg_of_run_query() {
        use skypeer_netsim::obs::{MemTracer, Tracer};
        let engine = SkypeerEngine::build(tiny_config(17));
        let query = Query { subspace: Subspace::from_dims(&[0, 3]), initiator: 2 };
        let full = engine.run_query(query, Variant::Rtpm);
        let tracer = Arc::new(MemTracer::new());
        let observed = engine.run_query_observed(
            query,
            Variant::Rtpm,
            Some(Arc::clone(&tracer) as Arc<dyn Tracer>),
        );
        assert_eq!(observed.result_ids, full.result_ids);
        assert_eq!(observed.total_time_ns, full.total_time_ns);
        assert_eq!(observed.volume_bytes, full.volume_bytes);
        assert_eq!(observed.messages, full.messages);
        assert_eq!(observed.comp_time_ns, 0, "no zero-delay leg on the observed path");
        assert!(!tracer.take().is_empty(), "the single sim is traced");
    }

    #[test]
    fn concurrent_batch_reports_per_query_finish_times() {
        let engine = SkypeerEngine::build(tiny_config(11));
        let batch = [
            (Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 }, Variant::Ftpm),
            (Query { subspace: Subspace::from_dims(&[2, 3]), initiator: 4 }, Variant::Rtfm),
            (Query { subspace: Subspace::from_dims(&[1, 2]), initiator: 2 }, Variant::Naive),
        ];
        let out = engine.run_concurrent(&batch);
        assert_eq!(out.finish_times_ns.len(), batch.len());
        assert!(out.finish_times_ns.windows(2).all(|w| w[0] <= w[1]), "completion order");
        assert_eq!(*out.finish_times_ns.last().unwrap(), out.makespan_ns);
    }

    #[test]
    fn runs_are_deterministic() {
        let engine = SkypeerEngine::build(tiny_config(30));
        let query = Query { subspace: Subspace::from_dims(&[1, 2]), initiator: 1 };
        let a = engine.run_query(query, Variant::Rtpm);
        let b = engine.run_query(query, Variant::Rtpm);
        assert_eq!(a.result_ids, b.result_ids);
        assert_eq!(a.total_time_ns, b.total_time_ns);
        assert_eq!(a.volume_bytes, b.volume_bytes);
    }

    #[test]
    fn single_superpeer_network_works() {
        let mut cfg = tiny_config(2);
        cfg.n_superpeers = 1;
        cfg.topology = TopologySpec::paper_default(1, 2);
        cfg.n_peers = 3;
        let engine = SkypeerEngine::build(cfg);
        let query = Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 };
        for variant in Variant::ALL {
            let out = engine.run_query(query, variant);
            assert_eq!(out.result_ids, engine.centralized_skyline(query.subspace));
            assert_eq!(out.volume_bytes, 0, "no network traffic with one super-peer");
        }
    }

    #[test]
    fn paper_superpeer_rule() {
        assert_eq!(EngineConfig::paper_superpeers(4000), 200);
        assert_eq!(EngineConfig::paper_superpeers(12000), 600);
        assert_eq!(EngineConfig::paper_superpeers(20000), 200);
        assert_eq!(EngineConfig::paper_superpeers(80000), 800);
        assert_eq!(EngineConfig::paper_superpeers(5), 1);
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use skypeer_data::DatasetKind;

    #[test]
    fn fixed_merging_concentrates_on_the_initiator() {
        let n_superpeers = 10;
        let engine = SkypeerEngine::build(EngineConfig {
            n_peers: 40,
            n_superpeers,
            dataset: DatasetSpec {
                dim: 6,
                points_per_peer: 60,
                kind: DatasetKind::Uniform,
                seed: 3,
            },
            topology: TopologySpec::paper_default(n_superpeers, 4),
            index: DominanceIndex::RTree,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: RoutingMode::Flood,
        });
        let q = Query { subspace: Subspace::from_dims(&[0, 2, 4]), initiator: 0 };
        // (initiator's share of all compute, bytes into the initiator,
        // registry) of one traced run.
        let profile = |variant| {
            use skypeer_netsim::obs::{MemTracer, MetricsRegistry};
            let tracer = Arc::new(MemTracer::new());
            let opts = RunOptions {
                tracer: Some(Arc::clone(&tracer) as Arc<dyn Tracer>),
                ..RunOptions::default()
            };
            engine.run(q, variant, &opts);
            let m = MetricsRegistry::from_events(&tracer.take());
            let total: u64 = m.per_node.iter().map(|n| n.service_ns).sum();
            let share = m.per_node[q.initiator].service_ns as f64 / total as f64;
            let inbound: u64 =
                m.link_bytes.iter().filter(|(&(_, to), _)| to == q.initiator).map(|(_, b)| b).sum();
            (share, inbound, m)
        };
        let (fm_share, fm_inbound, fm) = profile(Variant::Ftfm);
        let (pm_share, pm_inbound, _) = profile(Variant::Ftpm);
        assert!(
            fm_share > pm_share,
            "fixed merging must load the initiator more ({fm_share:.3} vs {pm_share:.3})"
        );
        assert!(fm_inbound > pm_inbound, "fixed merging must funnel more bytes into the initiator");
        assert!(fm.hottest_node().is_some());
        assert!(fm_inbound <= fm.counters["bytes_sent"]);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::planner::IndexPolicy;
    use skypeer_data::DatasetKind;

    #[test]
    fn auto_policy_preserves_answers_through_the_engine() {
        let n_superpeers = 6;
        let cfg = EngineConfig {
            n_peers: 18,
            n_superpeers,
            dataset: DatasetSpec {
                dim: 5,
                points_per_peer: 30,
                kind: DatasetKind::Uniform,
                seed: 77,
            },
            topology: TopologySpec::paper_default(n_superpeers, 78),
            index: DominanceIndex::RTree,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: RoutingMode::Flood,
        };
        let fixed_engine = SkypeerEngine::build(cfg);
        let mut auto_engine = SkypeerEngine::build(cfg);
        auto_engine.set_query_policy(IndexPolicy::Auto);
        let q = Query { subspace: Subspace::from_dims(&[0, 2, 4]), initiator: 2 };
        for variant in Variant::ALL {
            assert_eq!(
                fixed_engine.run_query(q, variant).result_ids,
                auto_engine.run_query(q, variant).result_ids,
                "{variant}"
            );
        }
    }
}
