//! `oca detect --graph` through its public calls: untraced as one
//! operation, and traced as the five calls it splits into.

use crate::trace::Tracer;
use crate::workload::DETECT_SEED;
use oca::merge_similar;
use oca_api::{registry, DetectorOptions, GraphSource};
use oca_graph::{write_cover_path, Cover, DetectContext, Detection};
use oca_spectral::{interaction_strength, InteractionStrength, PowerConfig};
use std::path::Path;
use std::time::Instant;

/// The merge threshold of the tuned preset (`OcaConfig::default`).
const MERGE_THRESHOLD: f64 = 0.5;

/// One finished detection.
#[derive(Debug, Clone)]
pub struct DetectRun {
    /// Wall time from load to cover written, in seconds.
    pub seconds: f64,
    /// The cover in compact (detection) ids.
    pub compact: Cover,
    /// The cover as written, in input ids.
    pub cover: Cover,
    /// FNV-1a of the written cover file.
    pub fingerprint: u64,
    /// The `c` the detection printed (`c = …`, six decimals).
    pub c_printed: f64,
}

fn stat<T: std::str::FromStr + Default>(stats: &[(&'static str, String)], key: &str) -> T {
    stats
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_default()
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fingerprint of a written file.
pub fn file_fingerprint(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|bytes| fnv1a(&bytes))
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// The `oca` registry entry's tuned detector with `opts` layered on top.
fn detector(
    graph: &oca_graph::CsrGraph,
    opts: &DetectorOptions,
) -> Result<oca_api::registry::BoxedDetector, String> {
    let reg = registry();
    let spec = reg.get("oca").map_err(|e| e.to_string())?;
    spec.build_tuned(graph, opts).map_err(|e| e.to_string())
}

fn run(
    detector: &oca_api::registry::BoxedDetector,
    graph: &oca_graph::CsrGraph,
) -> Result<Detection, String> {
    detector
        .detect(graph, &mut DetectContext::new(DETECT_SEED))
        .map_err(|e| format!("detect: {e}"))
}

/// One `oca detect --graph OCG --output OUT` with `opts`: load, the tuned
/// preset, detection, and the cover written in input ids.
pub fn detect_once(ocg: &Path, opts: &DetectorOptions, out: &Path) -> Result<DetectRun, String> {
    let start = Instant::now();
    let loaded = GraphSource::Ocg(ocg.to_path_buf())
        .load()
        .map_err(|e| format!("loading {}: {e}", ocg.display()))?;
    let detection = run(&detector(&loaded.graph, opts)?, &loaded.graph)?;
    let cover = loaded.cover_to_input(&detection.cover);
    write_cover_path(&cover, out).map_err(|e| format!("writing {}: {e}", out.display()))?;
    let seconds = start.elapsed().as_secs_f64();
    Ok(DetectRun {
        seconds,
        fingerprint: file_fingerprint(out)?,
        c_printed: stat(&detection.stats, "c"),
        compact: detection.cover,
        cover,
    })
}

/// What the traced pipeline measured.
#[derive(Debug, Clone)]
pub struct TracedDetect {
    /// Span index of the whole pipeline.
    pub root: usize,
    /// The spectral estimate.
    pub spectral: InteractionStrength,
    /// Statistics of the fixed-`c`, unmerged runner pass.
    pub runner_stats: Vec<(&'static str, String)>,
    /// Seeds the runner tried.
    pub seeds_tried: usize,
    /// Communities before merging.
    pub raw: Cover,
    /// Communities after merging.
    pub merged_len: usize,
    /// FNV-1a of the written cover file.
    pub fingerprint: u64,
}

impl TracedDetect {
    /// A runner statistic parsed as `T`, or 0 when absent.
    pub fn stat<T: std::str::FromStr + Default>(&self, key: &str) -> T {
        stat(&self.runner_stats, key)
    }
}

/// `detect --graph` split into its public calls, each in its own span
/// under one `detect` root: `GraphSource::load`, `interaction_strength`,
/// the tuned detector at that fixed `c` with merging off,
/// `merge_similar(raw, 0.5)`, and the cover written.
pub fn detect_traced(
    tracer: &mut Tracer,
    ocg: &Path,
    opts: &DetectorOptions,
    out: &Path,
) -> Result<TracedDetect, String> {
    let root = tracer.open("detect", None);
    let loaded = tracer
        .span("graph.open", Some(root), || {
            GraphSource::Ocg(ocg.to_path_buf()).load()
        })
        .map_err(|e| format!("loading {}: {e}", ocg.display()))?;
    let spectral = tracer.span("spectral.resolve", Some(root), || {
        interaction_strength(&loaded.graph, &PowerConfig::default())
    });
    let mut fixed = opts.clone();
    // `{}` prints the shortest string that parses back to the same f64.
    fixed.set("fixed-c", &format!("{}", spectral.c));
    fixed.set("merge-threshold", "none");
    let detection = tracer.span("runner.detect", Some(root), || {
        run(&detector(&loaded.graph, &fixed)?, &loaded.graph)
    })?;
    let merged = tracer.span("postprocess.merge", Some(root), || {
        merge_similar(&detection.cover, MERGE_THRESHOLD)
    });
    let cover = tracer.span("graph.cover_to_input", Some(root), || {
        loaded.cover_to_input(&merged)
    });
    tracer
        .span("graph.cover_write", Some(root), || {
            write_cover_path(&cover, out)
        })
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    tracer.close(root);
    Ok(TracedDetect {
        root,
        spectral,
        seeds_tried: detection.iterations,
        runner_stats: detection.stats,
        raw: detection.cover,
        merged_len: merged.len(),
        fingerprint: file_fingerprint(out)?,
    })
}

/// One runner pass at a fixed `c` with merging off, timed from outside:
/// the cost of the `runner` layer (plus `checkpoint` when `opts` arms it).
pub fn runner_pass(ocg: &Path, opts: &DetectorOptions, c: f64) -> Result<(f64, Detection), String> {
    let loaded = GraphSource::Ocg(ocg.to_path_buf())
        .load()
        .map_err(|e| format!("loading {}: {e}", ocg.display()))?;
    let mut fixed = opts.clone();
    fixed.set("fixed-c", &format!("{c}"));
    fixed.set("merge-threshold", "none");
    let t = Instant::now();
    let detection = run(&detector(&loaded.graph, &fixed)?, &loaded.graph)?;
    Ok((t.elapsed().as_secs_f64(), detection))
}
