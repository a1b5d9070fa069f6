//! The traced run's instruments: forwarding wrappers around each layer's
//! public entry points, and the span recorder they feed.
//!
//! Every wrapper forwards each call unchanged to the wrapped value and
//! records a span (name, start, end, parent, job id) around it. Spans
//! are aggregated per layer as they close (calls and busy time); the raw
//! spans are kept in memory up to [`SPAN_LOG_CAP`] and written out when
//! the run ends — past the cap only the aggregates grow, so a run with
//! millions of calls is not slowed by a growing log.

use mapa::cluster::{ClusterView, FederationPolicy, ServerPolicy, ShardView};
use mapa::core::policy::{AllocationPolicy, PolicyContext};
use mapa::core::{CacheStats, PreemptionPolicy};
use mapa::sim::{
    DispatchReport, DispatchedJob, Eviction, FederationReport, PendingJob, Placement,
    SchedulerBackend, SimConfig,
};
use mapa::topology::Topology;
use mapa::workloads::{JobGroup, JobSpec};
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Raw spans kept per tracer; later spans only update the aggregates.
pub const SPAN_LOG_CAP: usize = 50_000;

/// A traced boundary: one public entry point of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Engine::run_submissions`, timed from outside.
    EngineRun,
    /// `SchedulerBackend::try_place`.
    TryPlace,
    /// `SchedulerBackend::try_place_gang`.
    TryPlaceGang,
    /// `SchedulerBackend::release`.
    Release,
    /// `SchedulerBackend::release_batch`.
    ReleaseBatch,
    /// `SchedulerBackend::admit`.
    Admit,
    /// `SchedulerBackend::admit_gang`.
    AdmitGang,
    /// `SchedulerBackend::pump`.
    Pump,
    /// `SchedulerBackend::preempt_for`.
    PreemptFor,
    /// `SchedulerBackend::preempt_blocked`.
    PreemptBlocked,
    /// `ServerPolicy::rank`.
    ServerRank,
    /// `FederationPolicy::rank`.
    FederationRank,
    /// `AllocationPolicy::select` (matcher and scoring run inside it).
    Select,
    /// `mapa::report::to_json`.
    ToJson,
    /// `mapa::sim::logfile::write_log`.
    WriteLog,
    /// `mapa::sim::digest::schedule_digest`.
    Digest,
}

impl Span {
    /// Every span kind, in reporting order.
    pub const ALL: [Span; 16] = [
        Span::EngineRun,
        Span::TryPlace,
        Span::TryPlaceGang,
        Span::Release,
        Span::ReleaseBatch,
        Span::Admit,
        Span::AdmitGang,
        Span::Pump,
        Span::PreemptFor,
        Span::PreemptBlocked,
        Span::ServerRank,
        Span::FederationRank,
        Span::Select,
        Span::ToJson,
        Span::WriteLog,
        Span::Digest,
    ];

    /// The span's name; `<layer>.<entry point>`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Span::EngineRun => "engine.run",
            Span::TryPlace => "backend.try_place",
            Span::TryPlaceGang => "backend.try_place_gang",
            Span::Release => "backend.release",
            Span::ReleaseBatch => "backend.release_batch",
            Span::Admit => "backend.admit",
            Span::AdmitGang => "backend.admit_gang",
            Span::Pump => "backend.pump",
            Span::PreemptFor => "backend.preempt_for",
            Span::PreemptBlocked => "backend.preempt_blocked",
            Span::ServerRank => "server_policy.rank",
            Span::FederationRank => "federation_policy.rank",
            Span::Select => "alloc_policy.select",
            Span::ToJson => "report.to_json",
            Span::WriteLog => "report.write_log",
            Span::Digest => "report.digest",
        }
    }

    /// Whether this is a `SchedulerBackend` entry point — the spans the
    /// engine's self time is measured against.
    #[must_use]
    pub fn is_backend(self) -> bool {
        !matches!(
            self,
            Span::EngineRun
                | Span::ServerRank
                | Span::FederationRank
                | Span::Select
                | Span::ToJson
                | Span::WriteLog
                | Span::Digest
        )
    }
}

const KINDS: usize = Span::ALL.len();

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Unique within its tracer, starting at 1.
    pub id: u64,
    /// The enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// What was called.
    pub span: Span,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// The job the call was about, when it was about one.
    pub job: Option<u64>,
}

/// Counters the wrappers keep beside the spans, so that ratios are
/// measured where the work happens.
#[derive(Debug, Default)]
struct Outcomes {
    placed: AtomicU64,
    gangs_placed: AtomicU64,
    pumped: AtomicU64,
    selects_empty: AtomicU64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every wrapper of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    calls: [AtomicU64; KINDS],
    busy_ns: [AtomicU64; KINDS],
    outcomes: Outcomes,
    logged: AtomicUsize,
    log: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            busy_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            outcomes: Outcomes::default(),
            logged: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span of kind `span` about `job`.
    pub fn span<R>(&self, span: Span, job: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        let k = span as usize;
        self.calls[k].fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns[k].fetch_add(ns, Ordering::Relaxed);
        if self.logged.fetch_add(1, Ordering::Relaxed) < SPAN_LOG_CAP {
            let at = |t: Instant| u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX);
            self.log
                .lock()
                .expect("span log lock poisoned by a panicking wrapper")
                .push(SpanRecord {
                    id,
                    parent,
                    span,
                    start_ns: at(start),
                    end_ns: at(end),
                    job,
                });
        }
        out
    }

    /// Calls recorded for `span`.
    #[must_use]
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize].load(Ordering::Relaxed)
    }

    /// Busy time recorded for `span`, seconds.
    #[must_use]
    pub fn busy_s(&self, span: Span) -> f64 {
        self.busy_ns[span as usize].load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Busy time of every backend entry point, seconds. Backend spans
    /// never nest (the wrapper sits outside the backend, whose internal
    /// calls do not pass through it), so this is wall time spent in the
    /// backend.
    #[must_use]
    pub fn backend_busy_s(&self) -> f64 {
        Span::ALL
            .iter()
            .filter(|s| s.is_backend())
            .map(|&s| self.busy_s(s))
            .sum()
    }

    /// `try_place` / `try_place_gang` calls that placed, and jobs `pump`
    /// dispatched.
    #[must_use]
    pub fn placements(&self) -> (u64, u64, u64) {
        let o = &self.outcomes;
        (
            o.placed.load(Ordering::Relaxed),
            o.gangs_placed.load(Ordering::Relaxed),
            o.pumped.load(Ordering::Relaxed),
        )
    }

    /// `select` calls that returned no placement.
    #[must_use]
    pub fn selects_empty(&self) -> u64 {
        self.outcomes.selects_empty.load(Ordering::Relaxed)
    }

    /// The recorded spans as JSON lines (at most [`SPAN_LOG_CAP`]), plus
    /// how many spans closed in total.
    #[must_use]
    pub fn spans_jsonl(&self) -> (String, usize) {
        let log = self
            .log
            .lock()
            .expect("span log lock poisoned by a panicking wrapper");
        let mut out = String::with_capacity(log.len() * 96);
        for s in log.iter() {
            let job = s.job.map_or_else(|| "null".to_string(), |j| j.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"job\": {job}}}",
                s.id,
                s.parent,
                s.span.name(),
                s.start_ns,
                s.end_ns
            );
        }
        (out, self.logged.load(Ordering::Relaxed))
    }
}

/// A `SchedulerBackend` that forwards every method — the defaulted ones
/// included, so the wrapped backend's own overrides keep running — and
/// records a span around each placement-path entry point.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B> TracedBackend<B> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl<B: SchedulerBackend> SchedulerBackend for TracedBackend<B> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn policy_label(&self) -> String {
        self.inner.policy_label()
    }

    fn server_count(&self) -> usize {
        self.inner.server_count()
    }

    fn server_topology(&self, server: usize) -> &Topology {
        self.inner.server_topology(server)
    }

    fn server_cache_stats(&self, server: usize) -> Option<CacheStats> {
        self.inner.server_cache_stats(server)
    }

    fn max_job_gpus(&self) -> usize {
        self.inner.max_job_gpus()
    }

    fn total_free_gpus(&self) -> usize {
        self.inner.total_free_gpus()
    }

    fn configure(&mut self, config: &SimConfig) {
        self.inner.configure(config);
    }

    fn try_place(&mut self, job: &JobSpec) -> Option<Placement> {
        let inner = &mut self.inner;
        let out = self
            .tracer
            .span(Span::TryPlace, Some(job.id), || inner.try_place(job));
        if out.is_some() {
            self.tracer.outcomes.placed.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn release(&mut self, server: usize, job: u64) {
        let inner = &mut self.inner;
        self.tracer
            .span(Span::Release, Some(job), || inner.release(server, job));
    }

    fn release_batch(&mut self, released: &[(usize, u64)]) {
        let inner = &mut self.inner;
        self.tracer
            .span(Span::ReleaseBatch, None, || inner.release_batch(released));
    }

    fn try_place_gang(&mut self, members: &[JobSpec]) -> Option<Vec<Placement>> {
        let inner = &mut self.inner;
        let lead = members.first().map(|m| m.id);
        let out = self
            .tracer
            .span(Span::TryPlaceGang, lead, || inner.try_place_gang(members));
        if out.is_some() {
            self.tracer
                .outcomes
                .gangs_placed
                .fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn preempt_for(
        &mut self,
        job: &JobSpec,
        policy: PreemptionPolicy,
        shielded: &HashSet<u64>,
    ) -> Vec<Eviction> {
        let inner = &mut self.inner;
        self.tracer.span(Span::PreemptFor, Some(job.id), || {
            inner.preempt_for(job, policy, shielded)
        })
    }

    fn preempt_blocked(
        &mut self,
        policy: PreemptionPolicy,
        shielded: &HashSet<u64>,
    ) -> Vec<Eviction> {
        let inner = &mut self.inner;
        self.tracer.span(Span::PreemptBlocked, None, || {
            inner.preempt_blocked(policy, shielded)
        })
    }

    fn manages_queues(&self) -> bool {
        self.inner.manages_queues()
    }

    fn admit(&mut self, pending: PendingJob) {
        let inner = &mut self.inner;
        let job = pending.job.id;
        self.tracer
            .span(Span::Admit, Some(job), || inner.admit(pending));
    }

    fn admit_gang(&mut self, gang: JobGroup, submitted_at: f64) {
        let inner = &mut self.inner;
        let lead = gang.members.first().map(|m| m.id);
        self.tracer.span(Span::AdmitGang, lead, || {
            inner.admit_gang(gang, submitted_at)
        });
    }

    fn pump(&mut self, now: f64) -> Vec<DispatchedJob> {
        let inner = &mut self.inner;
        let out = self.tracer.span(Span::Pump, None, || inner.pump(now));
        self.tracer
            .outcomes
            .pumped
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    fn queued_jobs(&self) -> usize {
        self.inner.queued_jobs()
    }

    fn dispatch_report(&self) -> Option<DispatchReport> {
        self.inner.dispatch_report()
    }

    fn federation_report(&self) -> Option<FederationReport> {
        self.inner.federation_report()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
}

/// An `AllocationPolicy` that records a span around `select`.
pub struct TracedAllocationPolicy {
    inner: Box<dyn AllocationPolicy>,
    tracer: Arc<Tracer>,
}

impl TracedAllocationPolicy {
    /// Wraps `inner`, recording into `tracer`.
    #[must_use]
    pub fn boxed(
        inner: Box<dyn AllocationPolicy>,
        tracer: Arc<Tracer>,
    ) -> Box<dyn AllocationPolicy> {
        Box::new(Self { inner, tracer })
    }
}

impl AllocationPolicy for TracedAllocationPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>> {
        let out = self
            .tracer
            .span(Span::Select, Some(job.id), || self.inner.select(job, ctx));
        if out.is_none() {
            self.tracer
                .outcomes
                .selects_empty
                .fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// A `ServerPolicy` that records a span around `rank`.
pub struct TracedServerPolicy {
    inner: Box<dyn ServerPolicy>,
    tracer: Arc<Tracer>,
}

impl TracedServerPolicy {
    /// Wraps `inner`, recording into `tracer`.
    #[must_use]
    pub fn boxed(inner: Box<dyn ServerPolicy>, tracer: Arc<Tracer>) -> Box<dyn ServerPolicy> {
        Box::new(Self { inner, tracer })
    }
}

impl ServerPolicy for TracedServerPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs_scores(&self) -> bool {
        self.inner.needs_scores()
    }

    fn rank(&self, job: &JobSpec, shards: &[ShardView<'_>], seq: u64) -> Vec<usize> {
        self.tracer.span(Span::ServerRank, Some(job.id), || {
            self.inner.rank(job, shards, seq)
        })
    }
}

/// A `FederationPolicy` that records a span around `rank`.
pub struct TracedFederationPolicy {
    inner: Box<dyn FederationPolicy>,
    tracer: Arc<Tracer>,
}

impl TracedFederationPolicy {
    /// Wraps `inner`, recording into `tracer`.
    #[must_use]
    pub fn boxed(
        inner: Box<dyn FederationPolicy>,
        tracer: Arc<Tracer>,
    ) -> Box<dyn FederationPolicy> {
        Box::new(Self { inner, tracer })
    }
}

impl FederationPolicy for TracedFederationPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rank(&self, job: &JobSpec, clusters: &[ClusterView], seq: u64) -> Vec<usize> {
        self.tracer.span(Span::FederationRank, Some(job.id), || {
            self.inner.rank(job, clusters, seq)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let t = Tracer::default();
        let v = t.span(Span::EngineRun, None, || {
            t.span(Span::TryPlace, Some(7), || 1) + t.span(Span::Release, Some(7), || 2)
        });
        assert_eq!(v, 3);
        assert_eq!(t.calls(Span::EngineRun), 1);
        assert_eq!(t.calls(Span::TryPlace), 1);
        let log = t.log.lock().unwrap();
        // Children close first; both name the engine span as parent.
        assert_eq!(log.len(), 3);
        let root = log.iter().find(|s| s.span == Span::EngineRun).unwrap();
        assert_eq!(root.parent, 0);
        for child in log.iter().filter(|s| s.span != Span::EngineRun) {
            assert_eq!(child.parent, root.id);
            assert_eq!(child.job, Some(7));
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
    }

    #[test]
    fn span_names_are_unique() {
        let names: HashSet<_> = Span::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Span::ALL.len());
    }
}
