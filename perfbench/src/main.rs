//! The repository's benchmark: one workload per run, end-to-end metrics
//! with tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_eval --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The lines before it print every metric with its unit and sample count,
//! the host, and the schedule digests. `--bless` prints the digests of the
//! workload's first pass in the format of `perfbench/digests.txt` instead.
//! See `perfbench/README.md` for the workloads and metrics.

mod host;
mod stats;
mod trace;
mod workloads;

use host::Host;
use mapa::sim::digest::Fnv1a;
use stats::{median, quantile, tail, Sampled, Tally};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use workloads::{RunSummary, Workload};

/// Setups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Golden schedule digests: `workload seed label digest`, one per line.
const GOLDEN: &str = include_str!("../digests.txt");
/// Where the traced run writes its spans, relative to the checkout root.
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--bless" => bless = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        bless,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Chains the digests of every run with the same label, in pass order.
fn label_digests(runs: &[RunSummary]) -> BTreeMap<String, u64> {
    let mut chains: BTreeMap<String, Fnv1a> = BTreeMap::new();
    for r in runs {
        chains
            .entry(r.label.clone())
            .or_default()
            .write_u64(if r.ok { r.digest } else { 0 });
    }
    chains.into_iter().map(|(l, h)| (l, h.finish())).collect()
}

fn golden(workload: &str, seed: u64) -> BTreeMap<String, u64> {
    GOLDEN
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (w, s, label, d) = (f.next()?, f.next()?, f.next()?, f.next()?);
            if w != workload || s.parse::<u64>().ok()? != seed {
                return None;
            }
            Some((label.to_string(), u64::from_str_radix(d, 16).ok()?))
        })
        .collect()
}

/// One timed pass and what it produced.
struct Pass {
    runs: Vec<RunSummary>,
    wall_s: f64,
    cpu_s: Option<f64>,
    tracer: Option<Arc<Tracer>>,
}

impl Pass {
    fn run(w: &dyn Workload, traced: bool) -> Self {
        Self::time(traced, |tracer| w.pass(tracer))
    }

    /// Reduces the pass's decision latencies to its p50 and p99 and drops
    /// its per-job samples, so that memory does not grow with the number
    /// of passes a run fits in.
    fn harvest(&mut self, decisions: &mut Decisions) {
        let samples: Vec<f64> = self
            .runs
            .iter()
            .flat_map(|r| r.decision_us.iter().copied())
            .collect();
        if let (Some(p50), Some(p99)) = (median(&samples), tail(&samples, 99)) {
            decisions.p50.push(p50.value);
            decisions.p99.push(p99.value);
            decisions.n += samples.len();
        }
        for r in &mut self.runs {
            r.drop_samples();
        }
    }

    fn time(traced: bool, f: impl FnOnce(Option<&Arc<Tracer>>) -> Vec<RunSummary>) -> Self {
        let tracer = traced.then(|| Arc::new(Tracer::default()));
        let cpu0 = host::process_cpu_s();
        let t = Instant::now();
        let runs = f(tracer.as_ref());
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu0.zip(host::process_cpu_s()).map(|(a, b)| b - a);
        Self {
            runs,
            wall_s,
            cpu_s,
            tracer,
        }
    }

    fn completed(&self) -> u64 {
        self.runs.iter().map(|r| r.completed).sum()
    }

    fn units(&self) -> u64 {
        self.runs.iter().map(|r| r.units).sum()
    }

    /// The rate the workload is judged by: jobs per second, or cell ×
    /// replication units per second for the campaign.
    fn rate(&self, campaign: bool) -> f64 {
        let done = if campaign {
            self.units()
        } else {
            self.completed()
        };
        done as f64 / self.wall_s
    }
}

/// Decision latency per pass. The run reports the median over passes of
/// each pass's p50 and p99, so a burst of host interference during one
/// pass does not set the run's tail.
#[derive(Default)]
struct Decisions {
    p50: Vec<f64>,
    p99: Vec<f64>,
    /// Decisions behind all of them.
    n: usize,
}

impl Decisions {
    fn metric(name: &'static str, per_pass: &[f64], n: usize) -> Result<Metric, String> {
        let m = required(name, median(per_pass))?;
        Ok(metric(name, "us", Sampled { value: m.value, n }))
    }
}

/// A metric as printed: name, value, unit, and its sample count.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
}

fn metric(name: &'static str, unit: &'static str, s: Sampled) -> Metric {
    Metric {
        name,
        value: s.value,
        unit,
        n: s.n,
    }
}

fn required(name: &str, s: Option<Sampled>) -> Result<Sampled, String> {
    s.ok_or_else(|| format!("no samples for {name}"))
}

fn run(args: Args) -> Result<(), String> {
    let host = Host::probe();
    let campaign = args.workload == "campaign_grid";

    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(workloads::setup(&args.workload, args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let w = built.expect("at least one setup");

    // The first pass is a warm-up and the reference every later pass,
    // traced or not, must reproduce digest for digest.
    let reference = Pass::run(w.as_ref(), false);
    let expected = label_digests(&reference.runs);
    if args.bless {
        for (label, d) in &expected {
            println!("{} {} {label} {d:016x}", args.workload, args.seed);
        }
        return Ok(());
    }
    let golden = golden(&args.workload, args.seed);
    let bad_golden: BTreeSet<&String> = golden
        .iter()
        .filter(|(label, d)| expected.get(*label) != Some(d))
        .map(|(label, _)| label)
        .collect();

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    // Untimed replays beside the timed passes, when the workload's
    // per-job records and traced run come from a replay.
    let mut replays: Vec<Pass> = Vec::new();
    let mut first_replay: Option<Vec<RunSummary>> = None;
    let mut decisions = Decisions::default();
    while plain.is_empty() || (args.trace && traced.is_empty()) || Instant::now() < deadline {
        let mut pass = Pass::run(w.as_ref(), false);
        if w.replays() {
            let mut replay = Pass::time(false, |_| w.replay(None));
            first_replay.get_or_insert_with(|| replay.runs.clone());
            replay.harvest(&mut decisions);
            replays.push(replay);
        } else {
            pass.harvest(&mut decisions);
        }
        plain.push(pass);
        if args.trace && (traced.is_empty() || Instant::now() < deadline) {
            let mut pass = Pass::time(true, |t| w.replay(t));
            pass.harvest(&mut Decisions::default());
            traced.push(pass);
        }
    }
    // Simulated quality: the first replay, or else the reference pass.
    let quality = first_replay.as_deref().unwrap_or(&reference.runs);
    let untraced = if w.replays() { &replays } else { &plain };

    // Correctness: every run's label chain must match the reference pass
    // (and the golden digest, where one is recorded for this seed).
    let mut tally = Tally::default();
    let mut mismatches = BTreeSet::new();
    let check = |pass: &[RunSummary], tally: &mut Tally, mismatches: &mut BTreeSet<String>| {
        let got = label_digests(pass);
        for r in pass {
            let matches =
                got.get(&r.label) == expected.get(&r.label) && !bad_golden.contains(&r.label);
            if !matches {
                mismatches.insert(r.label.clone());
            }
            tally.record(r.submitted, r.completed, r.ok && matches);
        }
    };
    check(&reference.runs, &mut tally, &mut mismatches);
    for p in plain.iter().chain(&traced).chain(&replays) {
        check(&p.runs, &mut tally, &mut mismatches);
    }
    let correct = tally.failed == 0 && mismatches.is_empty();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# perfbench {} seed {} | {}s | trace {} | host: nproc {} | {} | {} | calibration {:.3} ms",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.calibration_ms
    );
    for (label, d) in &expected {
        let status = match golden.get(label) {
            Some(g) if g == d => "golden ok",
            Some(_) => "GOLDEN MISMATCH",
            None => "no golden for this seed",
        };
        let _ = writeln!(out, "# digest {label} {d:016x} ({status})");
    }
    for label in &mismatches {
        let _ = writeln!(out, "# FAILED digest check: {label}");
    }

    let metrics = if args.trace {
        layer_metrics(&plain, untraced, &traced, campaign, &host)
    } else {
        end_to_end(&setup_s, &plain, &decisions, quality, &tally)?
    };
    if args.trace {
        write_spans(&args, &traced[0])?;
    }
    for m in &metrics {
        let _ = writeln!(
            out,
            "# {:<36} {:>18.6} {:<6} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    print!("{out}");
    Ok(())
}

/// JSON has no NaN or infinity; an undefined ratio prints as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn end_to_end(
    setup_s: &[f64],
    plain: &[Pass],
    decisions: &Decisions,
    quality: &[RunSummary],
    tally: &Tally,
) -> Result<Vec<Metric>, String> {
    let rates = |f: &dyn Fn(&Pass) -> f64| plain.iter().map(f).collect::<Vec<_>>();
    let jobs_per_s = rates(&|p| p.completed() as f64 / p.wall_s);
    let cells_per_s = rates(&|p| p.units() as f64 / p.wall_s);

    let pooled = |pick: &dyn Fn(&RunSummary) -> bool, field: &dyn Fn(&RunSummary) -> &Vec<f64>| {
        quality
            .iter()
            .filter(|r| pick(r))
            .flat_map(|r| field(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let own = pooled(&|r| r.quality, &|r| &r.exec_sensitive);
    let base = pooled(&|r| r.baseline, &|r| &r.exec_sensitive);
    let waits = pooled(&|r| r.quality, &|r| &r.waits);
    let makespans = pooled(&|r| r.quality, &|r| &r.makespans);
    let own_p75 = required("sim_exec_p75_s", quantile(&own, 75.0))?;
    let exec_max = own.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // The output format needs every metric on every workload. Where a
    // workload has no baseline runs (no speedup to take) or no SLO-tagged
    // jobs (no attainment), the metric reads 1.0 with n = 0: a constant
    // that carries no information and that no change can move.
    let speedup = match quantile(&base, 75.0) {
        Some(b) => Sampled {
            value: b.value / own_p75.value,
            n: base.len().min(own.len()),
        },
        None => Sampled { value: 1.0, n: 0 },
    };
    let (slo_jobs, slo_met) = quality
        .iter()
        .filter(|r| r.quality)
        .fold((0, 0), |(j, m), r| (j + r.slo_jobs, m + r.slo_met));
    let slo = Sampled {
        value: if slo_jobs == 0 {
            1.0
        } else {
            slo_met as f64 / slo_jobs as f64
        },
        n: slo_jobs,
    };

    Ok(vec![
        metric("setup_s", "s", required("setup_s", median(setup_s))?),
        metric(
            "jobs_per_s",
            "1/s",
            required("jobs_per_s", median(&jobs_per_s))?,
        ),
        metric(
            "cells_per_s",
            "1/s",
            required("cells_per_s", median(&cells_per_s))?,
        ),
        Decisions::metric("decision_p50_us", &decisions.p50, decisions.n)?,
        Decisions::metric("decision_p99_us", &decisions.p99, decisions.n)?,
        metric(
            "peak_rss_mb",
            "MiB",
            Sampled {
                value: host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
                n: 1,
            },
        ),
        metric(
            "completed_frac",
            "ratio",
            Sampled {
                value: tally.completed_frac(),
                n: tally.attempted as usize,
            },
        ),
        metric("sim_exec_p75_s", "s", own_p75),
        metric(
            "sim_exec_max_s",
            "s",
            Sampled {
                value: exec_max,
                n: own.len(),
            },
        ),
        metric("sim_speedup_p75", "ratio", speedup),
        metric(
            "sim_wait_p95_s",
            "s",
            required("sim_wait_p95_s", tail(&waits, 95))?,
        ),
        metric(
            "sim_makespan_s",
            "s",
            Sampled {
                value: makespans.iter().sum::<f64>() / makespans.len().max(1) as f64,
                n: makespans.len(),
            },
        ),
        metric("slo_attainment", "ratio", slo),
    ])
}

/// Per-layer metrics: the median over traced passes of each pass's value.
fn layer_metrics(
    plain: &[Pass],
    untraced: &[Pass],
    traced: &[Pass],
    campaign: bool,
    host: &Host,
) -> Vec<Metric> {
    let per_pass: Vec<Vec<Metric>> = traced.iter().map(pass_layers).collect();
    let mut out: Vec<Metric> = (0..per_pass[0].len())
        .map(|i| {
            let values: Vec<f64> = per_pass.iter().map(|p| p[i].value).collect();
            let m = &per_pass[0][i];
            Metric {
                name: m.name,
                unit: m.unit,
                value: median(&values).map_or(0.0, |s| s.value),
                n: values.len(),
            }
        })
        .collect();

    let rate = |passes: &[Pass]| {
        let r: Vec<f64> = passes.iter().map(|p| p.rate(campaign)).collect();
        median(&r).map_or(0.0, |s| s.value)
    };
    let (without, with) = (rate(untraced), rate(traced));
    let cpu: f64 = plain.iter().filter_map(|p| p.cpu_s).sum();
    let wall: f64 = plain.iter().map(|p| p.wall_s).sum();
    out.extend([
        Metric {
            name: "campaign.cpu_per_wall",
            value: cpu / wall,
            unit: "ratio",
            n: plain.len(),
        },
        Metric {
            name: "campaign.units",
            value: plain[0].units() as f64,
            unit: "count",
            n: 1,
        },
        Metric {
            name: "trace.rate_untraced",
            value: without,
            unit: "1/s",
            n: untraced.len(),
        },
        Metric {
            name: "trace.rate_traced",
            value: with,
            unit: "1/s",
            n: traced.len(),
        },
        Metric {
            name: "trace.overhead",
            value: 1.0 - with / without,
            unit: "ratio",
            n: untraced.len().min(traced.len()),
        },
        Metric {
            name: "host.calibration_ms",
            value: host.calibration_ms,
            unit: "ms",
            n: 5,
        },
    ]);
    out
}

/// The layer metrics of one traced pass.
fn pass_layers(p: &Pass) -> Vec<Metric> {
    let t = p.tracer.as_ref().expect("a traced pass has a tracer");
    let mut c = workloads::Counters::default();
    for r in &p.runs {
        c.add(&r.counters);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = |name, value, unit| Metric {
        name,
        value,
        unit,
        n: 1,
    };
    let engine_self = t.busy_s(Span::EngineRun) - t.backend_busy_s();
    let (placed, gangs_placed, pumped) = t.placements();
    let attempts = t.calls(Span::TryPlace) + t.calls(Span::TryPlaceGang);
    let selects = t.calls(Span::Select);
    let lookups = c.cache_hits + c.cache_misses;
    let sims: u64 = p.runs.iter().map(|r| r.units).sum();
    let report_s = t.busy_s(Span::ToJson) + t.busy_s(Span::WriteLog) + t.busy_s(Span::Digest);

    let mut out = vec![
        m("engine.self_s", engine_self, "s"),
        m("engine.events", c.events as f64, "count"),
        m(
            "engine.ns_per_event",
            ratio(engine_self * 1e9, c.events as f64),
            "ns",
        ),
    ];
    for (span, calls, busy) in BACKEND_METRICS {
        out.push(m(calls, t.calls(span) as f64, "count"));
        out.push(m(busy, t.busy_s(span), "s"));
    }
    out.extend([
        m(
            "backend.place_yield",
            ratio((placed + gangs_placed) as f64, attempts as f64),
            "ratio",
        ),
        m(
            "backend.pump.dispatched_per_call",
            ratio(pumped as f64, t.calls(Span::Pump) as f64),
            "ratio",
        ),
        m(
            "server_policy.rank.calls",
            t.calls(Span::ServerRank) as f64,
            "count",
        ),
        m("server_policy.rank.busy_s", t.busy_s(Span::ServerRank), "s"),
        m(
            "federation_policy.rank.calls",
            t.calls(Span::FederationRank) as f64,
            "count",
        ),
        m(
            "federation_policy.rank.busy_s",
            t.busy_s(Span::FederationRank),
            "s",
        ),
        m("federation.quota_holds", c.quota_holds as f64, "count"),
        m("federation.spillovers", c.spillovers as f64, "count"),
        m("alloc_policy.select.calls", selects as f64, "count"),
        m("alloc_policy.select.busy_s", t.busy_s(Span::Select), "s"),
        m(
            "alloc_policy.select.empty",
            t.selects_empty() as f64,
            "count",
        ),
        m(
            "alloc_policy.select_yield",
            ratio((selects - t.selects_empty()) as f64, selects as f64),
            "ratio",
        ),
        m("cache.hits", c.cache_hits as f64, "count"),
        m("cache.misses", c.cache_misses as f64, "count"),
        m(
            "cache.hit_rate",
            ratio(c.cache_hits as f64, lookups as f64),
            "ratio",
        ),
        m("preempt.evictions", c.evictions as f64, "count"),
        m("preempt.gpu_seconds_lost", c.gpu_seconds_lost, "gpu_s"),
        m("queue.dispatch_blocks", c.dispatch_blocks as f64, "count"),
        m(
            "queue.fragmentation_blocks",
            c.fragmentation_blocks as f64,
            "count",
        ),
        m(
            "queue.mean_depth",
            ratio(c.mean_depth_sum, sims as f64),
            "jobs",
        ),
        m("report.to_json_s", t.busy_s(Span::ToJson), "s"),
        m("report.write_log_s", t.busy_s(Span::WriteLog), "s"),
        m("report.digest_s", t.busy_s(Span::Digest), "s"),
        m(
            "trace.coverage",
            ratio(t.busy_s(Span::EngineRun) + report_s, p.wall_s),
            "ratio",
        ),
    ]);
    out
}

const BACKEND_METRICS: [(Span, &str, &str); 9] = [
    (
        Span::TryPlace,
        "backend.try_place.calls",
        "backend.try_place.busy_s",
    ),
    (
        Span::TryPlaceGang,
        "backend.try_place_gang.calls",
        "backend.try_place_gang.busy_s",
    ),
    (
        Span::Release,
        "backend.release.calls",
        "backend.release.busy_s",
    ),
    (
        Span::ReleaseBatch,
        "backend.release_batch.calls",
        "backend.release_batch.busy_s",
    ),
    (Span::Admit, "backend.admit.calls", "backend.admit.busy_s"),
    (
        Span::AdmitGang,
        "backend.admit_gang.calls",
        "backend.admit_gang.busy_s",
    ),
    (Span::Pump, "backend.pump.calls", "backend.pump.busy_s"),
    (
        Span::PreemptFor,
        "backend.preempt_for.calls",
        "backend.preempt_for.busy_s",
    ),
    (
        Span::PreemptBlocked,
        "backend.preempt_blocked.calls",
        "backend.preempt_blocked.busy_s",
    ),
];

/// Writes the first traced pass's spans as JSON lines.
fn write_spans(args: &Args, pass: &Pass) -> Result<(), String> {
    let tracer = pass.tracer.as_ref().expect("a traced pass has a tracer");
    let (jsonl, total) = tracer.spans_jsonl();
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("cannot create {SPAN_DIR}: {e}"))?;
    let path = format!("{SPAN_DIR}/spans-{}-{}.jsonl", args.workload, args.seed);
    std::fs::write(&path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "perfbench: {total} spans closed; the first {} written to {path}",
        total.min(trace::SPAN_LOG_CAP)
    );
    Ok(())
}
