//! The named workloads and their set-up: generate the LFR graph, build
//! it into an `.ocg`, run the warm-start detection and start the
//! servers, as `oca graph build`, `oca detect --graph` and
//! `oca serve --graph` would.

use crate::detect::{detect_once, DetectRun};
use oca::{CStrategy, LocalConfig, SearchConfig};
use oca_api::{registry_recompute_with, DetectorOptions, GraphSource, LoadedGraph};
use oca_gen::{lfr, LfrParams};
use oca_graph::{build_ocg_from_edges, BuildOptions, CancelToken, Cover, CsrGraph};
use oca_serve::{RecomputeFn, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The seed every detection runs under: the CLI's `--seed` default.
pub const DETECT_SEED: u64 = 42;

/// The generator seed of every workload's graph. The graph is fixed so
/// that every run detects on the same input and `theta` and `eq` repeat
/// exactly; the run's `--seed` drives the request stream.
pub const GRAPH_SEED: u64 = 1;

/// One named workload. Both run on the LFR graph of [`build_graph`].
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Time back-to-back foreground `detect --graph --checkpoint` runs on
    /// a quiet host before serving (detect-lfr); otherwise `detect_s` is
    /// the server's background recompute (serve-mix).
    pub foreground_detects: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "detect-lfr",
            foreground_detects: true,
        },
        Workload {
            name: "serve-mix",
            foreground_detects: false,
        },
    ]
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 2;

/// The thread count every detection is pinned to: the tuned preset's
/// choice on a two-core host, never more than the host has.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Threads of the server's background recompute: one, so a core is left
/// for the workers and the load generator while the cover is refreshed.
pub const RECOMPUTE_THREADS: usize = 1;

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The `oca detect` options a workload passes on top of the tuned preset:
/// the foreground detections arm the checkpoint.
pub fn detect_options(workload: &Workload, dir: &Path) -> DetectorOptions {
    let mut opts = DetectorOptions::new().with("threads", &threads().to_string());
    if workload.foreground_detects {
        // `--checkpoint PATH` without `--resume`.
        let path = dir.join("detect.ockpt");
        opts.set("checkpoint-path", path.to_str().expect("work dir is UTF-8"));
        opts.set("checkpoint-resume", "fresh");
    }
    opts
}

/// Pause between background recompute rounds.
const RECOMPUTE_INTERVAL: Duration = Duration::from_millis(100);

/// Everything set-up leaves behind for the measured phase.
pub struct Prepared {
    /// The `.ocg` file every detection loads.
    pub ocg: PathBuf,
    /// The planted cover, in input ids.
    pub truth: Cover,
    /// The warm-start detection (plain: never checkpointed).
    pub warm: DetectRun,
    /// The graph the server holds, with its relabeling.
    pub loaded: LoadedGraph,
    /// The server that answers the timed reads: warm-started, no
    /// recompute.
    pub server: Server,
    /// The same server with the background recompute on, for timing
    /// refreshes.
    pub refreshing: Server,
    /// Wall time of each background recompute round that succeeded.
    pub recompute_times: Arc<Mutex<Vec<f64>>>,
    /// Seconds to build the `.ocg`.
    pub build_s: f64,
    /// Seconds from the start of set-up until the server was ready.
    pub total_s: f64,
}

/// A server over `loaded`'s graph, warm-started with `cover` (compact
/// ids) and speaking input ids, like `oca serve --graph`.
fn start_server(
    loaded: &LoadedGraph,
    cover: &Cover,
    config: ServeConfig,
    recompute: Option<Box<RecomputeFn>>,
) -> Result<Server, String> {
    let mut server = Server::new(
        Arc::new(loaded.graph.clone()),
        cover.clone(),
        config,
        recompute,
    )
    .map_err(|e| format!("starting the server: {e}"))?;
    if let Some(relabeling) = loaded.relabeling.clone() {
        server = server
            .with_relabeling(relabeling)
            .map_err(|e| format!("relabeling the server: {e}"))?;
    }
    Ok(server)
}

/// `oca serve --workers 2` with the CLI's seed and `local` settings.
fn serve_config(local: LocalConfig) -> ServeConfig {
    ServeConfig {
        workers: 2,
        seed: DETECT_SEED,
        local,
        ..Default::default()
    }
}

/// The server that answers the timed reads: warm-started with `cover`,
/// no recompute, `local` at the fixed `c`.
pub fn reads_server(loaded: &LoadedGraph, cover: &Cover, c: f64) -> Result<Server, String> {
    let local = LocalConfig {
        c: CStrategy::Fixed(c),
        search: SearchConfig {
            budget_factor: 64.0,
            ..Default::default()
        },
        ..Default::default()
    };
    start_server(loaded, cover, serve_config(local), None)
}

/// Generates the LFR graph of `LfrParams::timing(100_000, 20, 100, _)`
/// (≈2.4 M edges, planted cover) and builds it into `ocg`; returns the
/// planted cover and the build time.
fn build_graph(ocg: &Path) -> Result<(Cover, f64), String> {
    let bench = lfr(&LfrParams::timing(100_000, 20, 100, GRAPH_SEED));
    let t = Instant::now();
    build_ocg_from_edges(
        bench.graph.edges().map(|(u, v)| (u.raw(), v.raw())),
        ocg,
        &BuildOptions::default(),
    )
    .map_err(|e| format!("building {}: {e}", ocg.display()))?;
    Ok((bench.ground_truth, t.elapsed().as_secs_f64()))
}

/// One full set-up in `dir`: graph, `.ocg`, warm-start detection and a
/// server configured like `oca serve --graph G --workers 2`.
pub fn setup(workload: &Workload, dir: &Path) -> Result<Prepared, String> {
    let start = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let ocg = dir.join("graph.ocg");
    let (truth, build_s) = build_graph(&ocg)?;
    // The warm start is a plain `detect --graph`: on detect-lfr it is the
    // un-checkpointed reference the checkpointed runs must reproduce.
    let plain = DetectorOptions::new().with("threads", &threads().to_string());
    let warm = detect_once(&ocg, &plain, &dir.join("warm.cover"))?;
    let loaded = GraphSource::Ocg(ocg.clone())
        .load()
        .map_err(|e| format!("loading {}: {e}", ocg.display()))?;

    let mut local = LocalConfig {
        search: SearchConfig {
            budget_factor: 64.0,
            ..Default::default()
        },
        ..Default::default()
    };
    if workload.foreground_detects {
        // `serve --fixed-c` with the `c` the warm-start detection printed.
        local.c = CStrategy::Fixed(warm.c_printed);
    }
    // Otherwise the `serve` default: spectral `c` for `local`, resolved
    // when the server starts.
    let recompute_times = Arc::new(Mutex::new(Vec::new()));
    let inner = registry_recompute_with(
        "oca",
        DetectorOptions::new().with("threads", &RECOMPUTE_THREADS.to_string()),
    );
    let times = Arc::clone(&recompute_times);
    let recompute = move |g: &CsrGraph, s: u64, cancel: &CancelToken| {
        let t = Instant::now();
        let out = inner(g, s, cancel);
        if out.is_ok() {
            times
                .lock()
                .expect("recompute timer lock")
                .push(t.elapsed().as_secs_f64());
        }
        out
    };
    let refreshing = start_server(
        &loaded,
        &warm.compact,
        ServeConfig {
            recompute_interval: Some(RECOMPUTE_INTERVAL),
            ..serve_config(local)
        },
        Some(Box::new(recompute)),
    )?;
    // The reads server answers with the `c` the first one resolved.
    let server = reads_server(&loaded, &warm.compact, refreshing.store().load().c)?;
    Ok(Prepared {
        ocg,
        truth,
        warm,
        loaded,
        server,
        refreshing,
        recompute_times,
        build_s,
        total_s: start.elapsed().as_secs_f64(),
    })
}
