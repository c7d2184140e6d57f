//! Benchmark of the packet-level simulator: end-to-end metrics from
//! untraced repetitions, per-layer metrics from a traced run of the same
//! simulation.  See README.md for the workloads and the metric map.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <star_cbr_churn|tfmcc_churn|aqm_melee> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repetitions run one after another in one thread (a closed loop, one
//! simulation at a time, `domains = 1`), cycling through [`INSTANCES`]
//! inputs drawn from the seed, until `--seconds` have passed.  The last
//! line of standard output is the JSON result.

mod alloc;
mod hist;
mod timing;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use netsim::time::SimTime;

use crate::alloc::mb;
use crate::timing::{Kind, WrapperCost};
use crate::workloads::{Outcome, Spec, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Environment variables that select a different program (scheduler,
/// aggregator, sharding, bottleneck queue, experiment scale).
const PROGRAM_SELECTORS: [&str; 5] = [
    "TFMCC_SCHEDULER",
    "TFMCC_AGGREGATOR",
    "TFMCC_DOMAINS",
    "TFMCC_QUEUE",
    "TFMCC_SCALE",
];

/// Run-until slices of the traced run.
const SLICES: u32 = 100;

/// Seed-derived instances of the workload a run cycles through, so one
/// run's medians do not rest on a single input.
const INSTANCES: usize = 6;

/// Calls the wrapper's own cost is calibrated over.
const CALIBRATION_CALLS: u32 = 1_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("--seconds must be 1..=600, got '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A coarse span, kept in memory and written out when the run ends.
struct Span {
    name: &'static str,
    rep: usize,
    index: u32,
    start: Duration,
    end: Duration,
    /// Live heap (bytes) at the end of the span.
    heap: i64,
}

struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    /// Makes room for `n` more spans, so that pushing them during a
    /// repetition does not show in that repetition's heap figures.
    fn reserve(&mut self, n: usize) {
        self.list.reserve(n);
    }

    fn push(&mut self, name: &'static str, rep: usize, index: u32, start: Instant, end: Instant) {
        self.list.push(Span {
            name,
            rep,
            index,
            start: start - self.origin,
            end: end - self.origin,
            heap: alloc::live(),
        });
    }
}

/// One untraced repetition.
struct Rep {
    instance: usize,
    setup_s: f64,
    run_s: f64,
    heap_peak: i64,
    heap_end: i64,
    outcome: Outcome,
    topology_s: f64,
    agents_s: f64,
    topology_bytes: i64,
    agents_bytes: i64,
}

/// One untraced repetition.  Its set-up sample is the mean build time over
/// `batch` builds of the instance: all but the last are dropped unrun, the
/// last is run.
fn untraced_rep(
    instance: usize,
    spec: &Spec,
    batch: usize,
    spans: &mut Spans,
    rep: usize,
) -> Result<Rep, String> {
    let mut setup_s = 0.0;
    for _ in 1..batch {
        let b = workloads::build(spec, false);
        setup_s += b.topology_s + b.agents_s;
    }
    spans.reserve(2);
    let heap0 = alloc::live();
    alloc::reset_peak();
    let t0 = Instant::now();
    let mut b = workloads::build(spec, false);
    let t1 = Instant::now();
    spans.push("setup", rep, 0, t0, t1);
    setup_s += b.topology_s + b.agents_s;
    b.sim.run_until(SimTime::from_secs(b.horizon));
    let t2 = Instant::now();
    spans.push("run", rep, 0, t1, t2);
    let heap_end = alloc::live() - heap0;
    let heap_peak = alloc::peak() - heap0;
    workloads::check_invariants(spec, &b)?;
    Ok(Rep {
        instance,
        setup_s: setup_s / batch as f64,
        run_s: (t2 - t1).as_secs_f64(),
        heap_peak,
        heap_end,
        outcome: workloads::outcome(&b),
        topology_s: b.topology_s,
        agents_s: b.agents_s,
        topology_bytes: b.topology_bytes,
        agents_bytes: b.agents_bytes,
    })
}

/// One traced repetition: the hand-built, wrapped simulation run in
/// [`SLICES`] `run_until` slices with engine samples between them.
struct TracedRep {
    run_s: f64,
    outcome: Outcome,
    metrics: Vec<(&'static str, String, f64)>,
}

/// `untraced_run_s` is the run time of the untraced repetition of the same
/// instance, against which the traced run's accounting is checked.
fn traced_rep(
    spec: &Spec,
    cost: WrapperCost,
    untraced_run_s: f64,
    spans: &mut Spans,
    rep: usize,
) -> Result<TracedRep, String> {
    timing::reset();
    spans.reserve(SLICES as usize + 1);
    let heap0 = alloc::live();
    let t0 = Instant::now();
    let mut b = workloads::build(spec, true);
    spans.push("setup", rep, 0, t0, Instant::now());
    let mut slice_ns = hist::Histogram::default();
    let mut slice_max = 0f64;
    let (mut queued, mut tombstones, mut timers, mut bottleneck, mut live) = (0, 0, 0, 0, 0i64);
    let mut run_s = 0.0;
    for k in 1..=SLICES {
        let until = if k == SLICES {
            b.horizon
        } else {
            b.horizon * f64::from(k) / f64::from(SLICES)
        };
        let ts = Instant::now();
        b.sim.run_until(SimTime::from_secs(until));
        let te = Instant::now();
        spans.push("slice", rep, k, ts, te);
        let d = (te - ts).as_secs_f64();
        run_s += d;
        slice_ns.record((d * 1e9) as u64);
        slice_max = slice_max.max(d);
        let diag = b.sim.scheduler_diagnostics();
        queued = queued.max(diag.queued_events);
        tombstones = tombstones.max(diag.queue_tombstones);
        timers = timers.max(diag.pending_timers);
        bottleneck = bottleneck.max(b.sim.link_queue_len(b.bottleneck));
        live = live.max(alloc::live() - heap0);
    }
    workloads::check_invariants(spec, &b)?;
    let outcome = workloads::outcome(&b);
    let kinds = timing::snapshot();

    let mut m: Vec<(&'static str, String, f64)> = Vec::new();
    let mut put = |unit: &'static str, name: &str, v: f64| m.push((unit, name.to_string(), v));
    // The recorded call times hold the wrapper's closing clock read, and
    // the time between calls holds the rest of its cost; both are taken
    // out, so engine and agent self times add up to the untraced run.
    let calls: u64 = kinds.iter().map(|k| k.calls()).sum();
    let agents_busy: f64 = kinds.iter().map(|k| k.busy_ns as f64 * 1e-9).sum();
    let engine_s = run_s - agents_busy - calls as f64 * cost.outside_ns * 1e-9;
    let agent_self_s = |k: &timing::KindStats| {
        (k.busy_ns as f64 - k.calls() as f64 * cost.inside_ns).max(0.0) * 1e-9
    };
    let agents_s: f64 = kinds.iter().map(agent_self_s).sum();
    put("s", "trace.run_s", run_s);
    put("s", "netsim.run.self_s", engine_s);
    put(
        "ratio",
        "trace.accounted_ratio",
        ratio(engine_s + agents_s, untraced_run_s),
    );
    put("count", "netsim.events.count", outcome.events as f64);
    put(
        "events/delivery",
        "netsim.events.per_delivery",
        ratio(outcome.events as f64, outcome.deliveries as f64),
    );
    put("count", "netsim.events.queued_peak", queued as f64);
    put("count", "netsim.events.tombstones_peak", tombstones as f64);
    put("count", "netsim.timers.pending_peak", timers as f64);
    put(
        "ms",
        "netsim.run.slice_ms_p50",
        slice_ns.quantile(0.5) * 1e-6,
    );
    put("ms", "netsim.run.slice_ms_max", slice_max * 1e3);
    let links = workloads::link_totals(&b.sim, &b.links);
    put("count", "netsim.link.enqueued", links.enqueued as f64);
    put("count", "netsim.link.delivered", links.delivered as f64);
    put(
        "count",
        "netsim.link.dropped_queue",
        links.dropped_queue as f64,
    );
    put(
        "count",
        "netsim.link.dropped_loss",
        links.dropped_loss as f64,
    );
    put(
        "ratio",
        "netsim.link.delivered_ratio",
        ratio(
            links.delivered as f64,
            (links.enqueued + links.dropped_queue + links.dropped_loss) as f64,
        ),
    );
    put(
        "packets",
        "netsim.queue.bottleneck_len_peak",
        bottleneck as f64,
    );
    let fan_in = b.sim.link_stats(b.fanout_in).delivered;
    let fan_out = workloads::link_totals(&b.sim, &b.fanout_out).enqueued;
    put(
        "replicas/packet",
        "netsim.fanout.replicas_per_packet",
        ratio(fan_out as f64, fan_in as f64),
    );
    let stats = b.sim.stats();
    put(
        "count",
        "netsim.multicast.joins",
        stats.counter("multicast.agent_joins"),
    );
    put(
        "count",
        "netsim.multicast.leaves",
        stats.counter("multicast.agent_leaves"),
    );
    put(
        "count",
        "netsim.stats.counter_names",
        stats.counter_names().len() as f64,
    );
    for kind in Kind::ALL {
        let k = &kinds[kind.index()];
        let name = kind.name();
        put("count", &format!("agents.{name}.calls"), k.calls() as f64);
        put("s", &format!("agents.{name}.self_s"), agent_self_s(k));
        put(
            "ns",
            &format!("agents.{name}.call_ns_p50"),
            k.calls_ns.quantile(0.5),
        );
        put(
            "ns",
            &format!("agents.{name}.call_ns_p99"),
            k.calls_ns.quantile(0.99),
        );
    }
    let r = workloads::receiver_stats(&b);
    let s = workloads::sender_stats(&b);
    put(
        "count",
        "proto.receiver.feedback_sent",
        r.feedback_sent as f64,
    );
    put(
        "count",
        "proto.receiver.feedback_suppressed",
        r.feedback_suppressed as f64,
    );
    put(
        "ratio",
        "proto.receiver.suppression_ratio",
        ratio(
            r.feedback_suppressed as f64,
            (r.feedback_sent + r.feedback_suppressed) as f64,
        ),
    );
    put(
        "count",
        "proto.sender.feedback_received",
        s.feedback_received as f64,
    );
    put("count", "proto.sender.rounds", s.rounds as f64);
    put("count", "proto.sender.clr_changes", s.clr_changes as f64);
    put("count", "proto.sender.data_packets", s.data_packets as f64);
    put("MB", "heap.sampled_peak_mb", mb(live));
    drop(b);
    // A delivery is a data packet handed to a receiving agent; the wrappers
    // count every packet callback, so they can only see more.
    let packet_calls: u64 = kinds.iter().map(|k| k.packets).sum();
    if packet_calls < outcome.deliveries {
        return Err(format!(
            "agents saw {packet_calls} packet callbacks but {} deliveries",
            outcome.deliveries
        ));
    }
    Ok(TracedRep {
        run_s,
        outcome,
        metrics: m,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median and quartiles (linear interpolation between order statistics).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[derive(Debug, Clone, Copy)]
enum Stat {
    Median,
    Mean,
}

impl Stat {
    fn of(self, values: &[f64]) -> f64 {
        match self {
            Stat::Median => median(values),
            Stat::Mean => values.iter().sum::<f64>() / values.len() as f64,
        }
    }
}

/// Runs one repetition, turning a panic into a failure.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())),
    }
}

/// Checks a repetition's outcome against the first one of the run.
fn same_run(reference: &mut Option<Outcome>, got: Outcome, what: &str) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(got);
            Ok(())
        }
        Some(r) if *r == got => Ok(()),
        Some(r) => Err(format!(
            "{what} differs from the first run: {got:?} vs {r:?}"
        )),
    }
}

fn write_spans(args: &Args, spans: &Spans) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.jsonl",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let mut out = String::new();
    for s in &spans.list {
        let _ = writeln!(
            out,
            "{{\"span\":\"{}\",\"rep\":{},\"index\":{},\"start_ns\":{},\"end_ns\":{},\"heap_bytes\":{}}}",
            s.name,
            s.rep,
            s.index,
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.heap
        );
    }
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("warning: could not write spans to {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let set: Vec<&str> = PROGRAM_SELECTORS
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "error: {} select(s) a different program; unset before benchmarking",
            set.join(", ")
        );
        std::process::exit(2);
    }

    let instances = Spec::instances(args.workload, args.seed, INSTANCES);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut spans = Spans {
        origin: started,
        list: Vec::new(),
    };
    // Repetitions cycle through the instances; in a traced run each
    // untraced repetition is followed by a traced one of the same instance.
    let mut references: Vec<Option<Outcome>> = vec![None; instances.len()];
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let min_reps = if args.trace { 2 } else { 1 };
    let cost = args.trace.then(|| timing::wrapper_cost(CALIBRATION_CALLS));
    let batch = args.workload.setup_batch();
    let mut rep = 0;
    while rep < min_reps || started.elapsed() < budget {
        let (instance, trace_this) = if args.trace {
            ((rep / 2) % instances.len(), rep % 2 == 1)
        } else {
            (rep % instances.len(), false)
        };
        let spec = &instances[instance];
        let reference = &mut references[instance];
        attempted += 1;
        let result = if trace_this {
            let cost = cost.expect("calibrated in a traced run");
            let untraced_run_s = reps
                .iter()
                .rev()
                .find(|r| r.instance == instance)
                .map_or(0.0, |r| r.run_s);
            guarded(|| traced_rep(spec, cost, untraced_run_s, &mut spans, rep)).and_then(|t| {
                same_run(reference, t.outcome, "traced run")?;
                traced.push(t);
                Ok(())
            })
        } else {
            guarded(|| untraced_rep(instance, spec, batch, &mut spans, rep)).and_then(|r| {
                same_run(reference, r.outcome, "repetition")?;
                reps.push(r);
                Ok(())
            })
        };
        if let Err(e) = result {
            failed += 1;
            eprintln!("repetition {rep} (instance {instance}) failed: {e}");
        }
        rep += 1;
    }
    write_spans(&args, &spans);
    if reps.is_empty() || (args.trace && traced.is_empty()) {
        eprintln!("error: no repetition succeeded");
        std::process::exit(1);
    }

    let scheduler = netsim::sim::Simulator::new(0)
        .scheduler_diagnostics()
        .scheduler;
    println!(
        "workload={} seed={} scheduler={scheduler:?} domains=1 instances={}",
        args.workload.name(),
        args.seed,
        instances.len()
    );
    for (i, o) in references.iter().enumerate() {
        if let Some(o) = o {
            println!(
                "  instance {i}: events={} deliveries={} digest={:016x}",
                o.events, o.deliveries, o.digest
            );
        }
    }
    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let per_instance = |f: fn(&Rep) -> f64| {
        (0..instances.len())
            .filter_map(|i| reps.iter().find(|r| r.instance == i).map(f))
            .collect::<Vec<f64>>()
    };
    // Timings are medians over the repetitions (robust to bursts of host
    // noise).  Heap figures repeat exactly for one instance and vary only
    // between instances, so they are means over the distinct instances.
    let end_to_end: Vec<(&str, &str, Stat, Vec<f64>)> = vec![
        ("setup_s", "s", Stat::Median, col(|r| r.setup_s)),
        ("run_s", "s", Stat::Median, col(|r| r.run_s)),
        (
            "deliveries_per_s",
            "1/s",
            Stat::Median,
            reps.iter()
                .map(|r| r.outcome.deliveries as f64 / r.run_s)
                .collect(),
        ),
        (
            "heap_peak_mb",
            "MB",
            Stat::Mean,
            per_instance(|r| mb(r.heap_peak)),
        ),
    ];
    for (name, unit, stat, values) in &end_to_end {
        let (q1, med, q3) = quartiles(values);
        println!(
            "{name:<18} {:>14.6} {unit:<4} {stat:?} (median {med:.6}, q1 {q1:.6}, q3 {q3:.6}, n={})",
            stat.of(values),
            values.len()
        );
    }
    println!("failed_runs        {failed}/{attempted}");
    let end = per_instance(|r| mb(r.heap_end));
    println!(
        "heap_end_mb        {:>14.6} MB   Mean over {} instances (per-layer heap.end_mb)",
        Stat::Mean.of(&end),
        end.len()
    );

    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    if args.trace {
        metrics.push((
            "setup.topology_s".into(),
            "s",
            median(&col(|r| r.topology_s)),
        ));
        metrics.push(("setup.agents_s".into(), "s", median(&col(|r| r.agents_s))));
        metrics.push((
            "heap.topology_mb".into(),
            "MB",
            median(&col(|r| mb(r.topology_bytes))),
        ));
        metrics.push((
            "heap.agents_mb".into(),
            "MB",
            median(&col(|r| mb(r.agents_bytes))),
        ));
        metrics.push(("heap.end_mb".into(), "MB", Stat::Mean.of(&end)));
        let traced_run = median(&traced.iter().map(|t| t.run_s).collect::<Vec<_>>());
        metrics.push((
            "trace.overhead_s".into(),
            "s",
            traced_run - median(&col(|r| r.run_s)),
        ));
        metrics.push((
            "trace.clock_ns".into(),
            "ns",
            timing::clock_pair_ns(CALIBRATION_CALLS),
        ));
        metrics.push((
            "trace.call_ns".into(),
            "ns",
            cost.expect("calibrated in a traced run").per_call_ns(),
        ));
        for (i, (unit, name, _)) in traced[0].metrics.iter().enumerate() {
            let values: Vec<f64> = traced.iter().map(|t| t.metrics[i].2).collect();
            metrics.push((name.clone(), unit, median(&values)));
        }
        for (name, unit, v) in &metrics {
            println!("{name:<36} {v:>18.6} {unit}");
        }
    } else {
        for (name, unit, stat, values) in &end_to_end {
            metrics.push((name.to_string(), unit, stat.of(values)));
        }
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_inclusive_method() {
        // statistics.quantiles([1..=5], n=4, method="inclusive") → 2, 3, 4.
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// A small star through both build paths; the traced one wraps every
    /// agent in `Timed`.
    fn tiny_star(traced: bool) -> (Outcome, u64) {
        let spec = Spec::StarCbrChurn {
            sim_seed: 7,
            churn: (0..40).map(|i| (i % 10 == 1).then_some(0.3)).collect(),
            horizon: 3.0,
        };
        timing::reset();
        let mut b = workloads::build(&spec, traced);
        b.sim.run_until(SimTime::from_secs(1.5));
        b.sim.run_until(SimTime::from_secs(b.horizon));
        workloads::check_invariants(&spec, &b).expect("invariants hold");
        let calls = timing::snapshot().iter().map(|k| k.calls()).sum();
        (workloads::outcome(&b), calls)
    }

    #[test]
    fn wrapping_is_transparent() {
        let (plain, plain_calls) = tiny_star(false);
        let (wrapped, wrapped_calls) = tiny_star(true);
        assert_eq!(plain, wrapped, "digest, events and agent state must match");
        assert!(plain.deliveries > 0);
        assert_eq!(plain_calls, 0, "the untraced build records nothing");
        assert!(wrapped_calls >= plain.deliveries);
    }

    #[test]
    fn traced_and_untraced_agree_on_every_workload_shape() {
        // The hand-built sessions (TFMCC, TFRC, PGMCC, TCP) against the
        // program's builders, on shortened horizons.
        let specs = [
            Spec::TfmccChurn {
                sim_seed: 3,
                leg_delays: vec![0.01, 0.02, 0.03, 0.04, 0.05, 0.015],
                members: (0..6)
                    .map(|i| workloads::Member {
                        join_at: 0.1 * i as f64,
                        churn: (i % 5 == 1).then_some((1.0, 0.5)),
                    })
                    .collect(),
                horizon: 8.0,
            },
            Spec::AqmMelee {
                sim_seed: 5,
                horizon: 20.0,
            },
        ];
        for spec in specs {
            let mut plain = workloads::build(&spec, false);
            plain.sim.run_until(SimTime::from_secs(plain.horizon));
            let mut wrapped = workloads::build(&spec, true);
            wrapped.sim.run_until(SimTime::from_secs(wrapped.horizon));
            assert_eq!(
                workloads::outcome(&plain),
                workloads::outcome(&wrapped),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn same_run_flags_a_changed_outcome() {
        let o = Outcome {
            digest: 1,
            events: 2,
            deliveries: 3,
            fingerprint: 4,
        };
        let mut reference = None;
        assert!(same_run(&mut reference, o, "x").is_ok());
        assert!(same_run(&mut reference, o, "x").is_ok());
        let changed = Outcome { events: 5, ..o };
        assert!(same_run(&mut reference, changed, "x").is_err());
    }
}
