//! The measured phase shared by every workload, and the two modes built
//! on it: the untraced run that gives the end-to-end metrics and the
//! traced run that gives the per-layer ones.

use crate::answer::Oracle;
use crate::detect::{detect_once, detect_traced, runner_pass, DetectRun};
use crate::load::{run_load, Answer, LoadResult, LoadSpec, Op, Record};
use crate::replay::replay;
use crate::stats::{
    highest_tail, median, percentile, quartiles, slice_percentiles, sorted, windowed_percentile,
    Outcomes, Tail,
};
use crate::trace::Tracer;
use crate::workload::{
    detect_options, reads_server, setup, Prepared, Workload, DETECT_SEED, SETUP_REPS,
};
use oca::{initial_set, local_search, ticket_seed, AscentStop, CommunityState, SearchConfig};
use oca::{CStrategy, LocalConfig, SeedStrategy};
use oca_graph::NodeId;
use oca_metrics::{extended_modularity, theta};
use oca_serve::{ServeReport, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Foreground detections per run at the least.
const MIN_DETECTS: usize = 3;
/// The refresh part lasts until the probe has seen this epoch, so
/// `refresh_s` always has five intervals between recomputed epochs (2→3
/// to 6→7) to take a median of.
const MIN_EPOCH: u64 = 7;
/// Longest the refresh part may wait for [`MIN_EPOCH`].
const MAX_REFRESH: Duration = Duration::from_secs(90);
/// Requests per second of the probe that watches the epochs.
const PROBE_RATE: f64 = 50.0;
/// Open-loop rate of the timed reads, requests per second: an eighth of
/// the highest rate a two-core host kept up with for [`MIX`] (32 000/s;
/// see [`capacity`]).
const RATE: f64 = 4000.0;
/// Weights of `query`, `local` and `topk` requests in the timed reads:
/// the read-heavy mix of the repository's `query_latency` bench (one
/// `local` in 16), with a `topk` in place of one more `query`.
const MIX: [u32; 3] = [14, 1, 1];
/// Requests due in the first second of the timed reads are sent and
/// checked but not timed.
const WARMUP: Duration = Duration::from_secs(1);

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Sample counts and tails, for the detail line.
    pub samples: BTreeMap<String, String>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Operations attempted and failed.
    pub outcomes: Outcomes,
    /// Warnings to print.
    pub warnings: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn sample(&mut self, name: &str, value: impl ToString) {
        self.samples.insert(name.to_string(), value.to_string());
    }
}

/// What the measured phase produced.
struct Phase {
    /// The timed reads, served with no recompute running.
    reads: LoadResult,
    /// The light probe that watches the recompute publish epochs.
    refresh: LoadResult,
    /// Foreground detections (detect-lfr).
    detects: Vec<DetectRun>,
    /// Background recompute rounds that succeeded.
    recomputes: Vec<f64>,
    /// Recompute rounds that failed.
    recompute_failures: u64,
    /// Wall seconds of the three parts: reads, detections, refreshes.
    wall_s: [f64; 3],
    /// Peak RSS in MiB at the end of each part, to show which set it.
    peak_mib: [f64; 3],
}

impl Phase {
    /// Seconds of each detection behind `detect_s`: the foreground runs
    /// on detect-lfr, the background recompute on serve-mix.
    fn detect_times(&self) -> Vec<f64> {
        if self.detects.is_empty() {
            self.recomputes.clone()
        } else {
            self.detects.iter().map(|d| d.seconds).collect()
        }
    }

    /// Request outcomes of both serving parts.
    fn request_outcomes(&self) -> Outcomes {
        request_outcomes(self.reads.records.iter().chain(&self.refresh.records))
    }
}

/// Runs `spec`'s open loop against `server` until `done(elapsed)` holds
/// (or the spec's cap passes), then shuts the server down.
fn serve_open_loop(
    server: &Server,
    spec: &LoadSpec,
    done: impl Fn(Duration) -> bool,
) -> Result<(LoadResult, ServeReport), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local address: {e}"))?;
    let stop = AtomicBool::new(false);
    let (load, report) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(listener));
        let loading = scope.spawn(|| run_load(addr, spec, &stop));
        let start = Instant::now();
        while !done(start.elapsed()) && !loading.is_finished() {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        let load = loading.join().expect("load generator panicked");
        server.cancel_token().cancel();
        let report = serving.join().expect("server thread panicked");
        (load, report)
    });
    Ok((load?, report.map_err(|e| format!("serving: {e}"))?))
}

/// Runs the workload's measured phase on a prepared set-up, in three
/// parts:
///
/// 1. the timed reads: the server answers the open loop for `seconds`,
///    with no recompute running;
/// 2. on detect-lfr, back-to-back `detect --graph --checkpoint` runs on
///    a quiet host for another `seconds`;
/// 3. the refreshes: the server's background recompute republishes the
///    cover while a light `query` probe watches the epochs, until the
///    probe has seen [`MIN_EPOCH`].
///
/// Every workload reports every end-to-end metric, so both time the same
/// reads and refreshes, for as long.
fn measure(
    workload: &Workload,
    prepared: &Prepared,
    seed: u64,
    seconds: u64,
    dir: &Path,
) -> Result<Phase, String> {
    let run = Duration::from_secs(seconds);
    let node_count = prepared.loaded.graph.node_count() as u32;
    let t = Instant::now();
    let reads_spec = LoadSpec {
        rate: RATE,
        warmup: WARMUP,
        windows: LATENCY_WINDOWS,
        max_duration: WARMUP + run,
        mix: MIX,
        node_count,
        seed: seed ^ 0x10AD_6E4E,
    };
    let (reads, _) = serve_open_loop(&prepared.server, &reads_spec, |_| false)?;
    let reads_wall = t.elapsed().as_secs_f64();
    let reads_peak = peak_rss_mib();

    let t = Instant::now();
    let detects = if workload.foreground_detects {
        foreground_detects(workload, prepared, run, dir)?
    } else {
        Vec::new()
    };
    let detect_wall = t.elapsed().as_secs_f64();
    let detect_peak = peak_rss_mib();

    let t = Instant::now();
    let probe_spec = LoadSpec {
        rate: PROBE_RATE,
        warmup: Duration::ZERO,
        windows: 1,
        max_duration: MAX_REFRESH,
        mix: [1, 0, 0],
        node_count,
        seed: seed ^ 0x9E0B_E000,
    };
    let refreshing = &prepared.refreshing;
    let (refresh, report) = serve_open_loop(refreshing, &probe_spec, |_| {
        refreshing.store().epoch() >= MIN_EPOCH
    })?;
    let recomputes = prepared
        .recompute_times
        .lock()
        .expect("recompute timer lock")
        .clone();
    Ok(Phase {
        reads,
        refresh,
        detects,
        recomputes,
        recompute_failures: report.recompute_failures,
        wall_s: [reads_wall, detect_wall, t.elapsed().as_secs_f64()],
        peak_mib: [reads_peak, detect_peak, peak_rss_mib()],
    })
}

/// Back-to-back `detect --graph` runs for at least `measured` and at
/// least [`MIN_DETECTS`] times.
fn foreground_detects(
    workload: &Workload,
    prepared: &Prepared,
    measured: Duration,
    dir: &Path,
) -> Result<Vec<DetectRun>, String> {
    let opts = detect_options(workload, dir);
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < MIN_DETECTS || start.elapsed() < measured {
        runs.push(detect_once(
            &prepared.ocg,
            &opts,
            &dir.join("detect.cover"),
        )?);
    }
    Ok(runs)
}

/// Latency in µs of every timed request of `op`, with its due time; a
/// request that failed, was refused or never came back counts as slower
/// than any limit (the whole phase plus the drain).
fn timed_latencies_us(load: &LoadResult, op: Op) -> Vec<(u64, f64)> {
    let ceiling = load.sent_for.as_nanos() as u64 + 10_000_000_000;
    load.records
        .iter()
        .filter(|r| r.op == op && r.measured)
        .map(|r| {
            let ns = match r.answer {
                Answer::Ok => r.timing(ceiling).latency_ns(),
                _ => ceiling.saturating_sub(r.due),
            };
            (r.due, ns as f64 / 1e3)
        })
        .collect()
}

/// The latencies of [`timed_latencies_us`] alone, ascending.
fn latencies_us(load: &LoadResult, op: Op) -> Vec<f64> {
    sorted(
        timed_latencies_us(load, op)
            .into_iter()
            .map(|(_, v)| v)
            .collect(),
    )
}

/// Slices of the timed reads the latency percentiles are taken over (see
/// [`windowed_percentile`]).
const LATENCY_WINDOWS: usize = 10;

/// The `p`-th latency percentile of `op` in µs: the median over the
/// slices of the timed period of each slice's percentile.
fn latency_percentile(load: &LoadResult, op: Op, p: f64) -> f64 {
    let (start, end, windows) = load.timed;
    windowed_percentile(&timed_latencies_us(load, op), start, end, windows, p).unwrap_or(0.0)
}

/// Each slice's `p`-th latency percentile of `op` in µs, in time order,
/// for the detail line: it shows when host interference hit.
fn latency_slices(load: &LoadResult, op: Op, p: f64) -> String {
    let (start, end, windows) = load.timed;
    slice_percentiles(&timed_latencies_us(load, op), start, end, windows, p)
        .iter()
        .map(|v| format!("{v:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn tail_text(tail: Option<Tail>, n: usize) -> String {
    match tail {
        Some(t) => format!(
            "n={n} p{}={:.1} ({} beyond)",
            t.percentile, t.value, t.beyond
        ),
        None => format!("n={n} (too few for a tail)"),
    }
}

/// Outcomes of `records`.
fn request_outcomes<'a>(records: impl IntoIterator<Item = &'a Record>) -> Outcomes {
    let mut o = Outcomes::default();
    for r in records {
        match r.answer {
            Answer::Ok => o.ok += 1,
            Answer::Partial => o.partial += 1,
            Answer::Refused => o.refused += 1,
            Answer::Failed => o.failed += 1,
            Answer::TimedOut => o.timed_out += 1,
        }
    }
    o
}

/// Intervals, in seconds, between the first sightings of consecutive
/// epochs after the warm start, as the client saw them.
fn refresh_intervals(records: &[Record]) -> Vec<f64> {
    let mut first_seen: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if let (Some(done), true) = (r.done, r.epoch >= 2) {
            let at = first_seen.entry(r.epoch).or_insert(done);
            *at = (*at).min(done);
        }
    }
    first_seen
        .iter()
        .zip(first_seen.iter().skip(1))
        .filter(|((e0, _), (e1, _))| **e1 == **e0 + 1)
        .map(|((_, t0), (_, t1))| (t1 - t0) as f64 / 1e9)
        .collect()
}

/// The correctness check on served answers: every `query` answered from
/// the warm-start epoch must match an index built in-process over the
/// warm-start cover. (Later epochs hold recomputed covers.)
fn check_answers(report: &mut Report, prepared: &Prepared, phase: &Phase) {
    let oracle = Oracle::new(&prepared.warm.compact, prepared.loaded.relabeling.as_ref());
    let mut checked = 0u64;
    let mut wrong = 0u64;
    let mut example = None;
    for r in phase.reads.records.iter().chain(&phase.refresh.records) {
        if r.op != Op::Query || r.answer != Answer::Ok || r.epoch != 1 {
            continue;
        }
        checked += 1;
        if r.digest != Some(oracle.answer(r.epoch, r.node).digest()) {
            wrong += 1;
            example.get_or_insert((r.node, r.epoch));
        }
    }
    report.sample("query_answers_checked", checked);
    report.check(wrong == 0, || {
        format!(
            "{wrong} of {checked} query answers say something other than the \
             in-process index (first: node {:?})",
            example
        )
    });
    report.check(checked > 0, || {
        "no query answer could be checked".to_string()
    });
}

/// Adds the end-to-end metrics of a finished phase.
fn end_to_end(
    report: &mut Report,
    prepared: &Prepared,
    phase: &Phase,
    setup_times: &[f64],
    peak_rss_mib: f64,
) -> Result<(), String> {
    let load = &phase.reads;
    let detect_times = phase.detect_times();
    let detect_s = median(&detect_times).ok_or("no detection finished in the phase")?;
    // The cover whose quality the workload reports: the last foreground
    // detection, or the served warm start on serve-mix.
    let (cover, compact) = match phase.detects.last() {
        Some(run) => (&run.cover, &run.compact),
        None => (&prepared.warm.cover, &prepared.warm.compact),
    };
    let theta_value = theta(&prepared.truth, cover);
    let eq = extended_modularity(&prepared.loaded.graph, compact);

    let mut outcomes = phase.request_outcomes();
    outcomes.ok += phase.detects.len() as u64 + phase.recomputes.len() as u64;
    outcomes.failed += phase.recompute_failures;
    report.outcomes = outcomes;

    let query = latencies_us(load, Op::Query);
    let local = latencies_us(load, Op::Local);
    let topk = latencies_us(load, Op::TopK);
    let refresh = refresh_intervals(&phase.refresh.records);
    let refresh_s = median(&refresh).ok_or("fewer than two refreshed epochs were seen")?;
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);

    // Detection and refresh times and the `local` median are on the
    // detail line, not metrics: they follow the host's speed, which
    // drifted by half within ten minutes (see the README).
    report.metric("setup_s", median(setup_times).unwrap_or(0.0), "s");
    report.metric("peak_rss_mib", peak_rss_mib, "MiB");
    report.metric("theta", theta_value, "ratio");
    report.metric("eq", eq, "ratio");
    report.metric("ok_ratio", 1.0 - outcomes.error_ratio(), "ratio");
    // Medians: on a shared host the tail moves tenfold in a noisy spell
    // (see the README); the tails are on the detail line.
    for (name, op) in [("query_p50_us", Op::Query), ("topk_p50_us", Op::TopK)] {
        report.metric(name, latency_percentile(load, op, 50.0), "us");
    }

    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.sample(
        "setup_s",
        format!("n={} [{}]", setup_times.len(), list(setup_times)),
    );
    let [q1, _, q3] = quartiles(&detect_times).unwrap_or([detect_s; 3]);
    report.sample(
        "detect_s",
        format!(
            "median={detect_s:.4} n={} q1={q1:.4} q3={q3:.4}",
            detect_times.len()
        ),
    );
    report.sample(
        "refresh_s",
        format!(
            "median={refresh_s:.4} n={} [{}]",
            refresh.len(),
            list(&refresh)
        ),
    );
    report.sample(
        "local_p50_us",
        format!("{:.1}", latency_percentile(load, Op::Local, 50.0)),
    );
    report.sample("recompute_s", format!("[{}]", list(&phase.recomputes)));
    for (name, op) in [
        ("query_p90_slices_us", Op::Query),
        ("local_p90_slices_us", Op::Local),
        ("topk_p90_slices_us", Op::TopK),
    ] {
        report.sample(name, latency_slices(load, op, 90.0));
    }
    report.sample("query_p50_slices_us", latency_slices(load, Op::Query, 50.0));
    for (name, v) in [
        ("query_us", &query),
        ("local_us", &local),
        ("topk_us", &topk),
    ] {
        report.sample(
            name,
            format!(
                "pooled p50={:.1} p90={:.1} p99={:.1} {}",
                p(v, 50.0),
                p(v, 90.0),
                p(v, 99.0),
                tail_text(highest_tail(v), v.len())
            ),
        );
    }
    report.sample("error_ratio", outcomes.error_ratio());
    report.sample(
        "phase_wall_s",
        format!(
            "reads {:.2} detect {:.2} refresh {:.2}",
            phase.wall_s[0], phase.wall_s[1], phase.wall_s[2]
        ),
    );
    report.sample(
        "peak_rss_after_mib",
        format!(
            "reads {:.1} detect {:.1} refresh {:.1}",
            phase.peak_mib[0], phase.peak_mib[1], phase.peak_mib[2]
        ),
    );
    for (name, op) in [
        ("bytes.query", Op::Query),
        ("bytes.local", Op::Local),
        ("bytes.topk", Op::TopK),
    ] {
        let sizes: Vec<f64> = load
            .records
            .iter()
            .filter(|r| r.op == op)
            .map(|r| r.bytes as f64)
            .collect();
        report.sample(name, format!("median {:.0}", median(&sizes).unwrap_or(0.0)));
    }
    report.sample("ops_attempted", outcomes.attempted());
    Ok(())
}

/// Correctness of the detections: every foreground run writes the cover
/// the plain warm start wrote.
fn check_detects(report: &mut Report, prepared: &Prepared, phase: &Phase) {
    let want = prepared.warm.fingerprint;
    for (i, run) in phase.detects.iter().enumerate() {
        report.check(run.fingerprint == want, || {
            format!(
                "detection {i} wrote cover {:016x}, the plain warm start wrote {want:016x}",
                run.fingerprint
            )
        });
    }
}

/// Resets the peak-RSS high-water mark (`VmHWM`) of this process.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak RSS of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Repeats set-up `reps` times and keeps the last.
fn prepare(workload: &Workload, dir: &Path, reps: usize) -> Result<(Prepared, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..reps.max(1) {
        if let Some(old) = kept.take() {
            drop::<Prepared>(old);
            let _ = std::fs::remove_dir_all(dir.join(format!("setup{}", rep - 1)));
        }
        let prepared = setup(workload, &dir.join(format!("setup{rep}")))?;
        times.push(prepared.total_s);
        kept = Some(prepared);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// The untraced run: the end-to-end metrics.
pub fn run_plain(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    dir: &Path,
) -> Result<Report, String> {
    let (prepared, setup_times) = prepare(workload, dir, SETUP_REPS)?;
    let mut report = Report::default();
    // Without the reset, VmHWM would hold set-up's peak, not the phase's.
    report.check(reset_peak_rss(), || {
        "could not reset the peak RSS through /proc/self/clear_refs, \
         so peak_rss_mib would report set-up's peak"
            .to_string()
    });
    let phase = measure(workload, &prepared, seed, seconds, dir)?;
    let peak = peak_rss_mib();
    let t = Instant::now();
    check_detects(&mut report, &prepared, &phase);
    check_answers(&mut report, &prepared, &phase);
    end_to_end(&mut report, &prepared, &phase, &setup_times, peak)?;
    report.sample("checks_wall_s", format!("{:.2}", t.elapsed().as_secs_f64()));
    Ok(report)
}

/// Rates the capacity sweep tries, requests per second.
const SWEEP_RATES: [f64; 8] = [
    500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16_000.0, 32_000.0, 64_000.0,
];
/// Timed seconds of each rate of the sweep.
const SWEEP_SECONDS: u64 = 5;

/// The capacity sweep, which chose [`RATE`]: the reads server answers
/// the open loop of [`MIX`] at doubling rates, [`SWEEP_SECONDS`] each,
/// until it stops keeping up. A rate is kept up with when every request
/// is answered `ok`, the generator's lag p99 stays under a millisecond,
/// and the p90 latency of the last quarter of the rate is at most twice
/// that of the first quarter, so no queue is building. Returns one JSON
/// line per rate tried.
pub fn capacity(workload: &Workload, seed: u64, dir: &Path) -> Result<Vec<String>, String> {
    let (prepared, _) = prepare(workload, dir, 1)?;
    let node_count = prepared.loaded.graph.node_count() as u32;
    let mut lines = Vec::new();
    for rate in SWEEP_RATES {
        let spec = LoadSpec {
            rate,
            warmup: WARMUP,
            windows: 4,
            max_duration: WARMUP + Duration::from_secs(SWEEP_SECONDS),
            mix: MIX,
            node_count,
            seed: seed ^ rate as u64,
        };
        // A cancelled server cannot be run again: one per rate.
        let server = reads_server(
            &prepared.loaded,
            &prepared.warm.compact,
            prepared.server.store().load().c,
        )?;
        let (load, _) = serve_open_loop(&server, &spec, |_| false)?;
        let (start, end, windows) = load.timed;
        let mut all = Vec::new();
        let mut slices = vec![Vec::new(); windows];
        for op in [Op::Query, Op::Local, Op::TopK] {
            for (due, us) in timed_latencies_us(&load, op) {
                all.push(us);
                if let Some(w) = crate::stats::window_index(due, start, end, windows) {
                    slices[w].push(us);
                }
            }
        }
        let p90_of = |v: &Vec<f64>| percentile(&sorted(v.clone()), 90.0).unwrap_or(0.0);
        let (first, last) = (p90_of(&slices[0]), p90_of(&slices[windows - 1]));
        let all = sorted(all);
        let lag = sorted(
            load.records
                .iter()
                .filter(|r| r.measured)
                .map(|r| r.timing(0).lag_ns() as f64 / 1e3)
                .collect(),
        );
        let outcomes = request_outcomes(&load.records);
        let lag_p99 = percentile(&lag, 99.0).unwrap_or(0.0);
        let kept_up = outcomes.errors() == 0 && lag_p99 < 1000.0 && last <= 2.0 * first;
        lines.push(format!(
            "{{\"rate\":{rate},\"sent\":{},\"errors\":{},\"p50_us\":{:.1},\"p90_us\":{:.1},\
             \"p99_us\":{:.1},\"first_quarter_p90_us\":{first:.1},\"last_quarter_p90_us\":{last:.1},\
             \"lag_p99_us\":{lag_p99:.1},\"kept_up\":{kept_up}}}",
            load.records.len(),
            outcomes.errors(),
            percentile(&all, 50.0).unwrap_or(0.0),
            percentile(&all, 90.0).unwrap_or(0.0),
            percentile(&all, 99.0).unwrap_or(0.0),
        ));
        if !kept_up {
            break;
        }
    }
    Ok(lines)
}

/// The isolated ascent loop of the `search` layer: `local_search` over
/// the first tickets of the run's schedule, on the graph the detector
/// sees, with the tuned preset's move budget.
struct SearchLoop {
    ns_per_move: f64,
    moves: u64,
    budget_stops: u64,
}

fn search_loop(graph: &oca_graph::CsrGraph, c: f64) -> SearchLoop {
    const TICKETS: u64 = 3000;
    let config = SearchConfig {
        budget_factor: 64.0,
        ..Default::default()
    };
    let n = graph.node_count() as u32;
    let mut state = CommunityState::new(graph, c);
    let (mut moves, mut budget_stops) = (0u64, 0u64);
    let start = Instant::now();
    for ticket in 0..TICKETS {
        // Round one of the runner: every node is uncovered, so the seed
        // pick is uniform over all nodes.
        let mut rng = StdRng::seed_from_u64(ticket_seed(DETECT_SEED, ticket));
        let seed = NodeId(rng.random_range(0..n));
        let initial = initial_set(SeedStrategy::default(), graph, seed, &mut rng);
        let outcome = local_search(&mut state, &initial, &config);
        moves += outcome.moves as u64;
        budget_stops += u64::from(outcome.stop == AscentStop::MoveBudget);
    }
    let ns = start.elapsed().as_nanos() as f64;
    SearchLoop {
        ns_per_move: ns / moves.max(1) as f64,
        moves,
        budget_stops,
    }
}

/// The traced run: the per-layer metrics.
pub fn run_traced(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    dir: &Path,
) -> Result<(Report, Tracer), String> {
    let (prepared, _) = prepare(workload, dir, 1)?;
    let mut report = Report::default();
    let phase = measure(workload, &prepared, seed, seconds, dir)?;
    check_detects(&mut report, &prepared, &phase);
    check_answers(&mut report, &prepared, &phase);
    let outcomes = phase.request_outcomes();
    report.outcomes = outcomes;
    let client_query_p50 = latency_percentile(&phase.reads, Op::Query, 50.0);
    let lag: Vec<f64> = sorted(
        phase
            .reads
            .records
            .iter()
            .filter(|r| r.measured)
            .map(|r| r.timing(0).lag_ns() as f64 / 1e3)
            .collect(),
    );

    // Untraced and traced detections, alternating, with the workload's
    // own options (checkpoint armed on detect-lfr).
    let opts = detect_options(workload, dir);
    let mut tracer = Tracer::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..2 {
        untraced.push(detect_once(
            &prepared.ocg,
            &opts,
            &dir.join("untraced.cover"),
        )?);
        traced.push(detect_traced(
            &mut tracer,
            &prepared.ocg,
            &opts,
            &dir.join("traced.cover"),
        )?);
    }
    let want = prepared.warm.fingerprint;
    for (i, t) in traced.iter().enumerate() {
        report.check(t.fingerprint == want, || {
            format!(
                "traced pipeline {i} wrote cover {:016x}, the untraced detect wrote {want:016x}",
                t.fingerprint
            )
        });
    }
    for (i, u) in untraced.iter().enumerate() {
        report.check(u.fingerprint == want, || {
            format!(
                "untraced detect {i} wrote cover {:016x}, expected {want:016x}",
                u.fingerprint
            )
        });
    }
    let last = traced.last().expect("two traced runs");
    let root_secs: Vec<f64> = traced.iter().map(|t| tracer.seconds(t.root)).collect();
    let traced_detect_s = median(&root_secs).unwrap_or(0.0);
    let untraced_detect_s =
        median(&untraced.iter().map(|u| u.seconds).collect::<Vec<_>>()).unwrap_or(0.0);
    // Layer self time over the traced pipelines.
    let mut layer_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut unattributed_ns = 0u64;
    for t in &traced {
        unattributed_ns += tracer.self_ns(t.root);
        for (id, span) in tracer.spans().iter().enumerate() {
            if span.parent == Some(t.root) {
                *layer_ns.entry(span.layer()).or_default() += tracer.self_ns(id);
            }
        }
    }
    let attributed: u64 = layer_ns.values().sum();
    let coverage = attributed as f64 / (attributed + unattributed_ns).max(1) as f64;
    for (layer, ns) in &layer_ns {
        report.sample(
            &format!("share.{layer}"),
            format!(
                "{:.4}",
                *ns as f64 / (attributed + unattributed_ns).max(1) as f64
            ),
        );
    }
    report.sample(
        "share.unattributed",
        format!(
            "{:.4} (between the layer calls inside the detect span: argument set-up and drops)",
            unattributed_ns as f64 / (attributed + unattributed_ns).max(1) as f64
        ),
    );
    if workload.foreground_detects {
        report.check(coverage >= 0.95, || {
            format!("trace coverage {coverage:.4} is below 0.95")
        });
    }

    // Spectral: the estimate the runner uses.
    let spectral = &last.spectral;
    let n = prepared.loaded.graph.node_count() as f64;
    let m = prepared.loaded.graph.edge_count() as f64;
    let matvecs = spectral.power.iterations as f64;
    let spectral_s = tracer.total_seconds("spectral.resolve") / traced.len() as f64;
    if !spectral.power.converged {
        report.warnings.push(format!(
            "spectral c estimate stopped at the iteration cap after {} matvecs \
             (converged: false, c = {}); the recorded c is unconverged",
            spectral.power.iterations, spectral.c
        ));
    }

    // Runner: the fixed-c pass inside the traced pipeline, and a second
    // pass with the checkpoint setting flipped for the checkpoint layer.
    let runner_s = tracer.total_seconds("runner.detect") / traced.len() as f64;
    let mut ckpt = (0.0, 0.0, 0.0, 0.0);
    if workload.foreground_detects {
        let plain_opts = oca_api::DetectorOptions::new()
            .with("threads", &crate::workload::threads().to_string());
        let mut plain_times = Vec::new();
        let mut plain_raw = None;
        for _ in 0..2 {
            let (secs, detection) = runner_pass(&prepared.ocg, &plain_opts, spectral.c)?;
            plain_times.push(secs);
            plain_raw = Some(detection.cover);
        }
        let plain_s = median(&plain_times).unwrap_or(0.0);
        report.check(plain_raw.as_ref() == Some(&last.raw), || {
            "the checkpointed runner pass accepted different communities than the plain pass"
                .to_string()
        });
        ckpt = (
            runner_s - plain_s,
            last.stat::<f64>("ckpt_total_write_ns") / 1e9,
            last.stat::<f64>("ckpt_last_bytes"),
            last.stat::<f64>("ckpt_rounds"),
        );
    }

    let search = search_loop(&prepared.loaded.graph, spectral.c);

    // Serve stages replayed on the warm-start snapshot of the reads server.
    let mut local = LocalConfig {
        search: SearchConfig {
            budget_factor: 64.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let serve_c = if workload.foreground_detects {
        prepared.warm.c_printed
    } else {
        spectral.c
    };
    local.c = CStrategy::Fixed(serve_c);
    let stages = replay(
        prepared.server.store(),
        &prepared.loaded.graph,
        prepared.loaded.relabeling.as_ref(),
        &local,
        serve_c,
        seed ^ 0x5E7E,
    )?;
    let stage_sum_us =
        (stages.parse_ns + stages.pin_ns + stages.probe_ns + stages.serialize_ns) / 1e3;
    let refreshes = phase.recomputes.clone();

    let r = &mut report;
    r.metric("graph.build_s", prepared.build_s, "s");
    r.metric(
        "graph.open_s",
        tracer.total_seconds("graph.open") / traced.len() as f64,
        "s",
    );
    r.metric(
        "graph.cover_write_s",
        tracer.total_seconds("graph.cover_write") / traced.len() as f64,
        "s",
    );
    r.metric("spectral.resolve_s", spectral_s, "s");
    r.metric("spectral.matvecs", matvecs, "count");
    r.metric(
        "spectral.converged",
        f64::from(u8::from(spectral.power.converged)),
        "bool",
    );
    r.metric(
        "spectral.matvec_ns",
        spectral_s * 1e9 / matvecs.max(1.0),
        "ns",
    );
    // Computed, not measured: one reflected matvec streams the CSR
    // offsets (4 B per node) and adjacency (4 B per arc), gathers x (8 B
    // per arc), and reads x and writes y densely (8 B per node each).
    r.metric("spectral.bytes_per_matvec", 20.0 * n + 24.0 * m + 4.0, "B");
    r.metric("runner.s", runner_s, "s");
    r.metric("runner.ascent_s", last.stat::<f64>("ascent_ns") / 1e9, "s");
    r.metric("runner.reduce_s", last.stat::<f64>("dedup_ns") / 1e9, "s");
    r.metric("runner.seeds_tried", last.seeds_tried as f64, "count");
    r.metric("runner.raw_communities", last.raw.len() as f64, "count");
    r.metric("search.ns_per_move", search.ns_per_move, "ns");
    r.metric("search.moves", search.moves as f64, "count");
    r.metric("search.budget_stops", search.budget_stops as f64, "count");
    r.metric(
        "postprocess.merge_s",
        tracer.total_seconds("postprocess.merge") / traced.len() as f64,
        "s",
    );
    r.metric(
        "postprocess.merged_away",
        (last.raw.len() - last.merged_len) as f64,
        "count",
    );
    r.metric("checkpoint.overhead_s", ckpt.0, "s");
    r.metric("checkpoint.write_s", ckpt.1, "s");
    r.metric("checkpoint.last_bytes", ckpt.2, "B");
    r.metric("checkpoint.rounds", ckpt.3, "count");
    r.metric("serve.parse_ns", stages.parse_ns, "ns");
    r.metric("serve.pin_ns", stages.pin_ns, "ns");
    r.metric("serve.probe_ns", stages.probe_ns, "ns");
    r.metric("serve.serialize_ns", stages.serialize_ns, "ns");
    r.metric("serve.transport_us", client_query_p50 - stage_sum_us, "us");
    r.metric("serve.local_us", stages.local_us, "us");
    r.metric("serve.topk_us", stages.topk_us, "us");
    r.metric("serve.index_build_ms", stages.index_build_ms, "ms");
    r.metric("serve.recompute_s", median(&refreshes).unwrap_or(0.0), "s");
    r.metric("loadgen.sent", phase.reads.records.len() as f64, "count");
    r.metric(
        "loadgen.completed",
        phase
            .reads
            .records
            .iter()
            .filter(|x| x.done.is_some())
            .count() as f64,
        "count",
    );
    r.metric("loadgen.refused", outcomes.refused as f64, "count");
    r.metric(
        "loadgen.lag_p99_us",
        percentile(&lag, 99.0).unwrap_or(0.0),
        "us",
    );
    r.metric("trace.coverage", coverage, "ratio");
    r.metric("trace.overhead_s", traced_detect_s - untraced_detect_s, "s");
    r.metric(
        "trace.unattributed_s",
        unattributed_ns as f64 / 1e9 / traced.len() as f64,
        "s",
    );
    r.sample("traced_detect_s", traced_detect_s);
    r.sample("untraced_detect_s", untraced_detect_s);
    r.sample("spectral_c", spectral.c);
    Ok((report, tracer))
}
