//! The four workloads. Each builds its inputs from the seed in `setup`,
//! and then runs whole passes: every simulation of the workload, each
//! report serialised (JSON and log file) and digested, as a user of the
//! CLI would get it.
//!
//! Why each workload exists, and which layers it loads, is in
//! `perfbench/README.md`.

use crate::trace::{
    Span, TracedAllocationPolicy, TracedBackend, TracedFederationPolicy, TracedServerPolicy, Tracer,
};
use mapa::campaign::{allocation_policy_by_name, CampaignGrid, GridCell};
use mapa::cluster::{
    federation_policy_by_name, server_policy_by_name, Cluster, DispatchMode, Federation,
    DEFAULT_SHARD_QUEUE_DEPTH,
};
use mapa::core::policy::{AllocationPolicy, BaselinePolicy};
use mapa::core::{MapaAllocator, PreemptionPolicy, ALLOCATION_POLICY_NAMES};
use mapa::isomorph::{MatchOptions, Matcher, WorkerPool};
use mapa::model::EffBwModel;
use mapa::sim::campaign::{crn_seed, CellAccumulator};
use mapa::sim::digest::schedule_digest;
use mapa::sim::{
    logfile, ArrivalProcess, Engine, SchedulerBackend, SimConfig, SimReport, SingleServer,
    Submission,
};
use mapa::topology::{machines, PartitionPlan, Topology};
use mapa::workloads::generator::{self, JobMixConfig};
use mapa::workloads::{jobs, JobGroup, JobSpec};
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Workload names, in documentation order.
pub const NAMES: [&str; 4] = [
    "paper_eval",
    "fleet_poisson",
    "federated_tenants",
    "campaign_grid",
];

/// Job mixes per `paper_eval` pass (each run on 3 machines × 5 policies).
pub const PAPER_MIXES: u64 = 12;
/// `fleet_poisson`: shards, jobs, and mean Poisson gap (s) — about 0.9 of
/// the fleet's ~680 jobs per simulated hour.
pub const FLEET_SHARDS: usize = 64;
pub const FLEET_JOBS: usize = 50_000;
pub const FLEET_MEAN_GAP_S: f64 = 5.9;
/// `federated_tenants`: clusters × shards, jobs, the MIG plan, tenants,
/// their quota, priority classes, and the mean Poisson gap (s) — arrivals
/// well above what the quotas admit, so holds and DRF re-admission run
/// on every pump. Every fifth pair of training jobs is one 2-member gang.
pub const FED_CLUSTERS: usize = 4;
pub const FED_SHARDS: usize = 8;
pub const FED_JOBS: usize = 10_000;
pub const FED_PARTITION: &str = "0:7,1:3";
pub const FED_TENANTS: u64 = 4;
pub const FED_QUOTA_GPUS: usize = 48;
pub const FED_PRIORITY_CLASSES: u8 = 3;
pub const FED_MEAN_GAP_S: f64 = 6.0;
pub const FED_GANG_EVERY: usize = 5;
/// `campaign_grid` replications per cell.
pub const CAMPAIGN_REPLICATIONS: usize = 8;

/// Counters a report carries, summed over the runs of a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Allocation-cache hits and misses.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Blocked dispatch attempts, and those where pooled capacity existed.
    pub dispatch_blocks: u64,
    pub fragmentation_blocks: u64,
    /// Sum over runs of the mean queue depth.
    pub mean_depth_sum: f64,
    /// Jobs evicted, and GPU-seconds of progress they lost.
    pub evictions: u64,
    pub gpu_seconds_lost: f64,
    /// Federation admissions held at a quota, and spillovers.
    pub quota_holds: u64,
    pub spillovers: u64,
    /// Events the engine had to process: one arrival per submission and
    /// one finish per run started (completions plus evictions).
    pub events: u64,
}

impl Counters {
    /// Adds `other` in.
    pub fn add(&mut self, other: &Counters) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.dispatch_blocks += other.dispatch_blocks;
        self.fragmentation_blocks += other.fragmentation_blocks;
        self.mean_depth_sum += other.mean_depth_sum;
        self.evictions += other.evictions;
        self.gpu_seconds_lost += other.gpu_seconds_lost;
        self.quota_holds += other.quota_holds;
        self.spillovers += other.spillovers;
        self.events += other.events;
    }
}

/// One simulation (or one campaign cell), reduced to what the benchmark
/// reports.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Digest key: the allocation policy, or the campaign cell label.
    pub label: String,
    /// Counts toward the simulated-quality metrics (the workload's own
    /// policy).
    pub quality: bool,
    /// Runs the baseline policy: the denominator of `sim_speedup_p75`.
    pub baseline: bool,
    /// Simulations folded in (cell × replication units).
    pub units: u64,
    /// Jobs submitted and completed.
    pub submitted: u64,
    pub completed: u64,
    /// Schedule digest (a campaign cell's chains its replications).
    pub digest: u64,
    /// False when the simulation panicked.
    pub ok: bool,
    /// Execution times of bandwidth-sensitive multi-GPU jobs, s.
    pub exec_sensitive: Vec<f64>,
    /// Queue wait of every job, s.
    pub waits: Vec<f64>,
    /// Makespan of each simulation, s.
    pub makespans: Vec<f64>,
    /// SLO-tagged jobs and how many met their SLO.
    pub slo_jobs: usize,
    pub slo_met: usize,
    /// `JobRecord::scheduling_overhead` of every job, µs.
    pub decision_us: Vec<f64>,
    /// Layer counters.
    pub counters: Counters,
}

impl RunSummary {
    fn failed(label: &str, submitted: u64) -> Self {
        Self {
            label: label.to_string(),
            units: 1,
            submitted,
            ..Self::default()
        }
    }

    /// Serialises and digests `report` the way a user of the program gets
    /// it, and reduces it to a summary.
    fn of(
        label: &str,
        report: &SimReport,
        submitted: u64,
        submissions: u64,
        tracer: Option<&Arc<Tracer>>,
    ) -> Self {
        let timed = |span, f: &mut dyn FnMut() -> u64| match tracer {
            Some(t) => t.span(span, None, f),
            None => f(),
        };
        black_box(timed(Span::ToJson, &mut || {
            mapa::report::to_json(report).len() as u64
        }));
        black_box(timed(Span::WriteLog, &mut || {
            logfile::write_log(report).len() as u64
        }));
        let digest = timed(Span::Digest, &mut || schedule_digest(report));

        let records = &report.records;
        let cache = report.cache.unwrap_or_default();
        let fed = report.federation.as_ref();
        Self {
            label: label.to_string(),
            quality: false,
            baseline: false,
            units: 1,
            submitted,
            completed: records.len() as u64,
            digest,
            ok: true,
            exec_sensitive: report
                .execution_times(|r| r.job.bandwidth_sensitive && r.job.num_gpus() >= 2),
            waits: records.iter().map(|r| r.queue_wait_seconds).collect(),
            makespans: vec![report.makespan_seconds],
            slo_jobs: report.slo.jobs,
            slo_met: report.slo.met,
            decision_us: records
                .iter()
                .map(|r| r.scheduling_overhead.as_secs_f64() * 1e6)
                .collect(),
            counters: Counters {
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                dispatch_blocks: report.queue.dispatch_blocks,
                fragmentation_blocks: report.queue.fragmentation_blocks,
                mean_depth_sum: report.queue.mean_depth,
                evictions: report.preemption.jobs_preempted,
                gpu_seconds_lost: report.preemption.gpu_seconds_lost,
                quota_holds: fed.map_or(0, |f| f.quota_holds),
                spillovers: fed.map_or(0, |f| f.spillovers),
                events: submissions + records.len() as u64 + report.preemption.jobs_preempted,
            },
        }
    }

    /// Drops the per-job samples, keeping counts, counters and digest.
    pub fn drop_samples(&mut self) {
        self.exec_sensitive = Vec::new();
        self.waits = Vec::new();
        self.makespans = Vec::new();
        self.decision_us = Vec::new();
    }

    fn flagged(mut self, policy: &str, own: &str) -> Self {
        self.quality = policy == own;
        self.baseline = policy == "baseline";
        self
    }
}

/// A workload: inputs built from the seed, and passes over them.
pub trait Workload {
    /// One pass: every simulation of the workload. With a tracer, each
    /// layer's entry points run inside forwarding wrappers.
    fn pass(&self, tracer: Option<&Arc<Tracer>>) -> Vec<RunSummary>;

    /// Whether [`Workload::replay`] takes another path than the timed
    /// pass. The campaign's does: its runner builds its clusters
    /// internally and keeps no job records, so its per-job metrics and
    /// its traced run come from the same cells replayed one by one.
    fn replays(&self) -> bool {
        false
    }

    /// The pass through layers the benchmark can read and wrap; the
    /// timed pass itself unless [`Workload::replays`].
    fn replay(&self, tracer: Option<&Arc<Tracer>>) -> Vec<RunSummary> {
        self.pass(tracer)
    }
}

/// Builds workload `name` from `seed`: the matcher worker pool, fitted
/// models, generated inputs, and (for the fleets, whose backends are
/// costly to build) one instance of the backend.
///
/// # Errors
/// Names the workloads when `name` is not one of them.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_eval" => Box::new(PaperEval::new(seed)),
        "fleet_poisson" => Box::new(FleetPoisson::new(seed)),
        "federated_tenants" => Box::new(FederatedTenants::new(seed)),
        "campaign_grid" => Box::new(CampaignWorkload::new(seed)),
        other => {
            return Err(format!(
                "unknown workload '{other}' (choose from: {})",
                NAMES.join(", ")
            ))
        }
    })
}

fn pool() -> Arc<WorkerPool> {
    Arc::new(WorkerPool::new(crate::host::nproc()))
}

/// Fits (or reuses) the EffBW model of `machine` into `models` the way
/// every cluster does.
fn fit(machine: &Topology, pool: &Arc<WorkerPool>, models: &mut HashMap<String, EffBwModel>) {
    let _ = Cluster::with_shared_resources(
        vec![machine.clone()],
        || Box::new(BaselinePolicy),
        server_policy_by_name("round-robin").expect("built-in server policy"),
        Arc::clone(pool),
        models,
    );
}

fn alloc_policy(name: &str, tracer: Option<&Arc<Tracer>>) -> Box<dyn AllocationPolicy> {
    let policy = allocation_policy_by_name(name).expect("built-in allocation policy");
    match tracer {
        Some(t) => TracedAllocationPolicy::boxed(policy, Arc::clone(t)),
        None => policy,
    }
}

fn server_policy(name: &str, tracer: Option<&Arc<Tracer>>) -> Box<dyn mapa::cluster::ServerPolicy> {
    let policy = server_policy_by_name(name).expect("built-in server policy");
    match tracer {
        Some(t) => TracedServerPolicy::boxed(policy, Arc::clone(t)),
        None => policy,
    }
}

/// Runs `submissions` on `backend`, wrapped when tracing; `None` when the
/// engine panicked.
fn simulate<B: SchedulerBackend>(
    backend: B,
    config: SimConfig,
    submissions: &[Submission],
    tracer: Option<&Arc<Tracer>>,
) -> Option<SimReport> {
    let subs = submissions.iter().cloned();
    catch_unwind(AssertUnwindSafe(|| match tracer {
        None => Engine::over(backend)
            .with_config(config)
            .run_submissions(subs),
        Some(t) => t.span(Span::EngineRun, None, || {
            Engine::over(TracedBackend::new(backend, Arc::clone(t)))
                .with_config(config)
                .run_submissions(subs)
        }),
    }))
    .ok()
}

fn jobs_in(submissions: &[Submission]) -> u64 {
    submissions
        .iter()
        .map(|s| match s {
            Submission::Job(_) => 1,
            Submission::Gang(g) => g.members.len() as u64,
        })
        .sum()
}

fn run_and_summarise<B: SchedulerBackend>(
    label: &str,
    backend: B,
    config: SimConfig,
    submissions: &[Submission],
    tracer: Option<&Arc<Tracer>>,
) -> RunSummary {
    let submitted = jobs_in(submissions);
    match simulate(backend, config, submissions, tracer) {
        Some(report) => RunSummary::of(label, &report, submitted, submissions.len() as u64, tracer),
        None => RunSummary::failed(label, submitted),
    }
}

/// The paper's §4 evaluation: [`PAPER_MIXES`] job mixes × three machines
/// × all five allocation policies, batch arrivals, strict FIFO, cache on,
/// every run from an empty cache.
struct PaperEval {
    pool: Arc<WorkerPool>,
    machines: Vec<(Topology, EffBwModel)>,
    mixes: Vec<Vec<Submission>>,
}

impl PaperEval {
    fn new(seed: u64) -> Self {
        let pool = pool();
        let mut models = HashMap::new();
        let machines = [
            machines::dgx1_v100(),
            machines::torus_2d(),
            machines::cube_mesh(),
        ]
        .into_iter()
        .map(|m| {
            fit(&m, &pool, &mut models);
            let model = models[m.name()].clone();
            (m, model)
        })
        .collect();
        let mixes = (0..PAPER_MIXES)
            .map(|i| {
                generator::paper_job_mix(crn_seed(seed, i))
                    .into_iter()
                    .map(Submission::Job)
                    .collect()
            })
            .collect();
        Self {
            pool,
            machines,
            mixes,
        }
    }
}

impl Workload for PaperEval {
    fn pass(&self, tracer: Option<&Arc<Tracer>>) -> Vec<RunSummary> {
        let opts = MatchOptions {
            threads: Some(self.pool.threads()),
            ..MatchOptions::default()
        };
        let mut runs = Vec::new();
        for mix in &self.mixes {
            for (machine, model) in &self.machines {
                for policy in ALLOCATION_POLICY_NAMES {
                    let allocator = MapaAllocator::with_model(
                        machine.clone(),
                        alloc_policy(policy, tracer),
                        model.clone(),
                    );
                    let config = SimConfig {
                        matcher: Some(Matcher::with_pool(opts.clone(), Arc::clone(&self.pool))),
                        ..SimConfig::default()
                    };
                    let backend = SingleServer::from_allocator(allocator);
                    runs.push(
                        run_and_summarise(policy, backend, config, mix, tracer)
                            .flagged(policy, "preserve"),
                    );
                }
            }
        }
        runs
    }
}

/// 64 × DGX-1 V100 behind bounded per-shard queues, least-loaded server
/// selection, Preserve, sequential dispatch, the paper mix arriving as a
/// Poisson stream at about 0.9 of capacity.
struct FleetPoisson {
    pool: Arc<WorkerPool>,
    models: HashMap<String, EffBwModel>,
    machine: Topology,
    submissions: Vec<Submission>,
    seed: u64,
}

impl FleetPoisson {
    fn new(seed: u64) -> Self {
        let pool = pool();
        let machine = machines::dgx1_v100();
        let mut models = HashMap::new();
        fit(&machine, &pool, &mut models);
        let mix = JobMixConfig {
            job_count: FLEET_JOBS,
            ..JobMixConfig::default()
        };
        let w = Self {
            pool,
            models,
            machine,
            submissions: generator::generate_jobs(&mix, seed)
                .into_iter()
                .map(Submission::Job)
                .collect(),
            seed,
        };
        black_box(w.cluster(None));
        w
    }

    fn cluster(&self, tracer: Option<&Arc<Tracer>>) -> Cluster {
        Cluster::with_shared_resources(
            vec![self.machine.clone(); FLEET_SHARDS],
            || alloc_policy("preserve", tracer),
            server_policy("least-loaded", tracer),
            Arc::clone(&self.pool),
            &mut self.models.clone(),
        )
        .with_dispatch(DispatchMode::Sequential)
        .with_shard_queues(DEFAULT_SHARD_QUEUE_DEPTH)
    }
}

impl Workload for FleetPoisson {
    fn pass(&self, tracer: Option<&Arc<Tracer>>) -> Vec<RunSummary> {
        let config = SimConfig {
            arrivals: ArrivalProcess::Poisson {
                mean_gap: FLEET_MEAN_GAP_S,
                seed: self.seed,
            },
            ..SimConfig::default()
        };
        let run = run_and_summarise(
            "preserve",
            self.cluster(tracer),
            config,
            &self.submissions,
            tracer,
        );
        vec![run.flagged("preserve", "preserve")]
    }
}

/// 4 clusters × 8 MIG-partitioned DGX-1 V100 shards: best-score server
/// selection, least-loaded federation routing, quota'd tenants, three
/// priority classes with priority-evict preemption, SLO-tagged inference
/// tenants, and a minority of training jobs submitted as 2-member gangs.
struct FederatedTenants {
    pool: Arc<WorkerPool>,
    models: HashMap<String, EffBwModel>,
    machine: Topology,
    submissions: Vec<Submission>,
    seed: u64,
}

impl FederatedTenants {
    fn new(seed: u64) -> Self {
        let pool = pool();
        let plan = PartitionPlan::parse(FED_PARTITION).expect("valid partition plan");
        let machine = plan.apply(&machines::dgx1_v100()).into_topology();
        let mut models = HashMap::new();
        fit(&machine, &pool, &mut models);
        let mix = JobMixConfig {
            job_count: FED_JOBS,
            inference_fraction: 0.3,
            inference_slices_max: 3,
            inference_slo_ms: Some(50.0),
            ..JobMixConfig::default()
        };
        let mut list = generator::generate_jobs(&mix, seed);
        jobs::assign_priority_classes(&mut list, FED_PRIORITY_CLASSES);
        jobs::assign_tenants(&mut list, FED_TENANTS);
        let w = Self {
            pool,
            models,
            machine,
            submissions: gang_minority(list),
            seed,
        };
        black_box(w.federation(None));
        w
    }

    fn federation(&self, tracer: Option<&Arc<Tracer>>) -> Federation {
        let mut models = self.models.clone();
        let clusters = (0..FED_CLUSTERS)
            .map(|_| {
                Cluster::with_shared_resources(
                    vec![self.machine.clone(); FED_SHARDS],
                    || alloc_policy("preserve", tracer),
                    server_policy("best-score", tracer),
                    Arc::clone(&self.pool),
                    &mut models,
                )
                .with_shard_queues(DEFAULT_SHARD_QUEUE_DEPTH)
            })
            .collect();
        let routing = federation_policy_by_name("least-loaded").expect("built-in policy");
        let routing = match tracer {
            Some(t) => TracedFederationPolicy::boxed(routing, Arc::clone(t)),
            None => routing,
        };
        Federation::new(clusters, routing).with_default_quota(FED_QUOTA_GPUS)
    }
}

/// Submits every [`FED_GANG_EVERY`]-th pair of consecutive training jobs
/// as one 2-member gang; everything else arrives alone.
fn gang_minority(list: Vec<JobSpec>) -> Vec<Submission> {
    let mut out = Vec::with_capacity(list.len());
    let mut training = 0usize;
    let mut lead: Option<JobSpec> = None;
    for job in list {
        if job.is_fractional() {
            out.push(Submission::Job(job));
            continue;
        }
        training += 1;
        match lead.take() {
            Some(first) => {
                let id = out.len() as u64 + 1;
                out.push(Submission::Gang(JobGroup::new(id, vec![first, job])));
            }
            None if (training / 2).is_multiple_of(FED_GANG_EVERY) => lead = Some(job),
            None => out.push(Submission::Job(job)),
        }
    }
    out.extend(lead.map(Submission::Job));
    out
}

impl Workload for FederatedTenants {
    fn pass(&self, tracer: Option<&Arc<Tracer>>) -> Vec<RunSummary> {
        let config = SimConfig {
            arrivals: ArrivalProcess::Poisson {
                mean_gap: FED_MEAN_GAP_S,
                seed: self.seed,
            },
            preemption: PreemptionPolicy::PriorityEvict,
            ..SimConfig::default()
        };
        let run = run_and_summarise(
            "preserve",
            self.federation(tracer),
            config,
            &self.submissions,
            tracer,
        );
        vec![run.flagged("preserve", "preserve")]
    }
}

/// `CampaignGrid` over server policy × allocation policy × shards × jobs,
/// replicated under common random numbers on one worker pool.
struct CampaignWorkload {
    pool: Arc<WorkerPool>,
    models: HashMap<String, EffBwModel>,
    grid: CampaignGrid,
}

impl CampaignWorkload {
    fn new(seed: u64) -> Self {
        let pool = pool();
        let grid = CampaignGrid {
            server_policies: vec!["least-loaded".into(), "best-score".into()],
            alloc_policies: vec!["baseline".into(), "greedy".into(), "preserve".into()],
            shards: vec![1, 8],
            job_counts: vec![300],
            dispatch: vec![DispatchMode::Sequential],
            replications: CAMPAIGN_REPLICATIONS,
            base_seed: seed,
            ..CampaignGrid::new(machines::dgx1_v100())
        };
        grid.validate().expect("the benchmark's grid is valid");
        let mut models = HashMap::new();
        fit(&grid.machine, &pool, &mut models);
        Self { pool, models, grid }
    }

    /// Replays one cell outside the campaign runner, exactly as the
    /// runner builds it, so its records can be read and its layers
    /// wrapped. The chained digest must equal the runner's.
    fn replay_cell(&self, cell: &GridCell, tracer: Option<&Arc<Tracer>>) -> RunSummary {
        let mut acc = CellAccumulator::new();
        let mut merged = RunSummary {
            label: cell.label(),
            ok: true,
            ..RunSummary::default()
        };
        for r in 0..self.grid.replications {
            let seed = crn_seed(self.grid.base_seed, r as u64);
            let cluster = Cluster::with_shared_resources(
                vec![self.grid.machine.clone(); cell.shards],
                || alloc_policy(&cell.alloc_policy, tracer),
                server_policy(&cell.server_policy, tracer),
                Arc::clone(&self.pool),
                &mut self.models.clone(),
            )
            .with_dispatch(cell.dispatch)
            .with_shard_queues(self.grid.shard_queue_depth);
            let mix = JobMixConfig {
                job_count: cell.jobs,
                ..self.grid.mix.clone()
            };
            let submissions: Vec<Submission> = generator::generate_jobs(&mix, seed)
                .into_iter()
                .map(Submission::Job)
                .collect();
            let config = SimConfig {
                arrivals: ArrivalProcess::Batch,
                ..SimConfig::default()
            };
            let submitted = jobs_in(&submissions);
            match simulate(cluster, config, &submissions, tracer) {
                Some(report) => {
                    acc.observe(&report);
                    let run = RunSummary::of(&merged.label, &report, submitted, submitted, tracer);
                    merged.absorb(run);
                }
                None => {
                    merged.ok = false;
                    merged.absorb(RunSummary::failed(&merged.label, submitted));
                }
            }
        }
        merged.digest = acc.finish(merged.label.clone()).schedule_digest;
        merged.flagged(&cell.alloc_policy, "preserve")
    }
}

impl RunSummary {
    fn absorb(&mut self, run: RunSummary) {
        self.units += run.units;
        self.submitted += run.submitted;
        self.completed += run.completed;
        self.exec_sensitive.extend(run.exec_sensitive);
        self.waits.extend(run.waits);
        self.makespans.extend(run.makespans);
        self.slo_jobs += run.slo_jobs;
        self.slo_met += run.slo_met;
        self.decision_us.extend(run.decision_us);
        self.counters.add(&run.counters);
    }
}

impl Workload for CampaignWorkload {
    fn pass(&self, tracer: Option<&Arc<Tracer>>) -> Vec<RunSummary> {
        if tracer.is_some() {
            return self.replay(tracer);
        }
        let per_cell = (self.grid.replications * self.grid.job_counts[0]) as u64;
        match catch_unwind(AssertUnwindSafe(|| self.grid.run(&self.pool))) {
            Ok(Ok(summaries)) => summaries
                .into_iter()
                .map(|s| RunSummary {
                    label: s.label,
                    units: s.replications,
                    submitted: per_cell,
                    completed: s.jobs,
                    digest: s.schedule_digest,
                    ok: true,
                    ..RunSummary::default()
                })
                .collect(),
            _ => self
                .grid
                .cells()
                .iter()
                .map(|c| RunSummary {
                    units: self.grid.replications as u64,
                    ..RunSummary::failed(&c.label(), per_cell)
                })
                .collect(),
        }
    }

    fn replays(&self) -> bool {
        true
    }

    fn replay(&self, tracer: Option<&Arc<Tracer>>) -> Vec<RunSummary> {
        self.grid
            .cells()
            .iter()
            .map(|cell| self.replay_cell(cell, tracer))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_minority_of_training_jobs_form_two_member_gangs() {
        let mix = JobMixConfig {
            job_count: 1000,
            inference_fraction: 0.3,
            inference_slices_max: 3,
            ..JobMixConfig::default()
        };
        let list = generator::generate_jobs(&mix, 1);
        let training = list.iter().filter(|j| !j.is_fractional()).count();
        let subs = gang_minority(list);
        let gangs: Vec<_> = subs
            .iter()
            .filter_map(|s| match s {
                Submission::Gang(g) => Some(g),
                Submission::Job(_) => None,
            })
            .collect();
        assert!(gangs.iter().all(|g| g.members.len() == 2));
        assert!(gangs
            .iter()
            .all(|g| g.members.iter().all(|m| !m.is_fractional())));
        let ganged = 2 * gangs.len();
        assert!(
            ganged * 4 < training && ganged * 6 > training,
            "{ganged} of {training}"
        );
        assert_eq!(jobs_in(&subs), 1000);
    }
}
