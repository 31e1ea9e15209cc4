//! Degree-ordered relabeling: permutation round-trips, and detection on a
//! relabeled graph (what a relabeled `.ocg` file holds) mapped back to
//! original ids.
//!
//! Relabeling changes which seeds are drawn (seed picks index the
//! relabeled id space), so covers legitimately differ from a run of the
//! same seed on the original ids; what must *not* differ is the
//! thread-count contract and — within tolerance — the quality metrics
//! against the planted ground truth.

use oca_repro::gen::{lfr, LfrParams};
use oca_repro::graph::relabel::Relabeling;
use oca_repro::metrics::{omega_index, theta};
use oca_repro::prelude::*;

fn lfr_bench(seed: u64) -> oca_repro::gen::LfrBenchmark {
    lfr(&LfrParams::small(600, 0.25, seed))
}

fn oca(max_seeds: &str, stagnation: &str) -> DetectorOptions {
    DetectorOptions::new()
        .with("max-seeds", max_seeds)
        .with("stagnation", stagnation)
}

/// Detects on the degree-ordered copy of `graph` and maps the cover back
/// to original ids — what loading a relabeled `.ocg` file does.
fn detect_relabeled(graph: &CsrGraph, opts: &DetectorOptions, seed: u64) -> Detection {
    let relabeling = Relabeling::degree_descending(graph);
    let compact = graph.relabeled(&relabeling);
    let mut detection = registry()
        .build("oca", opts)
        .expect("valid options")
        .detect(&compact, &mut DetectContext::new(seed))
        .unwrap();
    detection.cover = relabeling.cover_to_original(&detection.cover);
    detection
}

#[test]
fn degree_ordered_relabeling_round_trips_on_generated_graphs() {
    for seed in [1u64, 7, 42] {
        let graph = lfr_bench(seed).graph;
        let relabeling = Relabeling::degree_descending(&graph);
        let compact = graph.relabeled(&relabeling);
        assert!(compact.validate().is_ok(), "seed {seed}");
        assert_eq!(compact.edge_count(), graph.edge_count());
        for v in 0..graph.node_count() as u32 {
            let v = NodeId(v);
            assert_eq!(relabeling.to_compact(relabeling.to_original(v)), v);
            assert_eq!(relabeling.to_original(relabeling.to_compact(v)), v);
            assert_eq!(compact.degree(v), graph.degree(relabeling.to_original(v)));
        }
        // Hubs first: degrees are non-increasing along compact ids.
        for v in 1..compact.node_count() as u32 {
            assert!(compact.degree(NodeId(v)) <= compact.degree(NodeId(v - 1)));
        }
    }
}

/// The threads-determinism contract survives relabeling: for a fixed seed
/// the cover is bit-identical at any thread count.
#[test]
fn relabeled_runs_are_thread_independent() {
    let bench = lfr_bench(3);
    let base = oca("1200", "120");
    let reference = detect_relabeled(&bench.graph, &base.clone().with("threads", "1"), 9);
    for threads in ["2", "4"] {
        let run = detect_relabeled(&bench.graph, &base.clone().with("threads", threads), 9);
        assert_eq!(run.cover, reference.cover, "threads={threads}");
        assert_eq!(run.iterations, reference.iterations, "threads={threads}");
    }
}

/// Fig. 2 protocol: quality against the planted LFR ground truth must not
/// depend on the id space the ascents ran in. Covers differ (different
/// seed draws), so the comparison is on the quality metrics, within a
/// tolerance reflecting seed-to-seed variance at this graph size.
#[test]
fn fig2_quality_metrics_agree_within_tolerance() {
    let bench = lfr_bench(1234);
    let opts = oca("2400", "200").with("target-coverage", "0.99");
    let plain = registry()
        .build("oca", &opts)
        .unwrap()
        .detect(&bench.graph, &mut DetectContext::new(77))
        .unwrap();
    let relabeled = detect_relabeled(&bench.graph, &opts, 77);
    let scores: Vec<(f64, f64)> = [plain.cover, relabeled.cover]
        .iter()
        .map(|cover| {
            (
                theta(cover, &bench.ground_truth),
                omega_index(cover, &bench.ground_truth),
            )
        })
        .collect();
    let (theta_off, omega_off) = scores[0];
    let (theta_on, omega_on) = scores[1];
    assert!(
        theta_off > 0.5 && theta_on > 0.5,
        "both runs should find most of the planted structure \
         (off {theta_off:.3}, on {theta_on:.3})"
    );
    assert!(
        (theta_off - theta_on).abs() < 0.15,
        "theta diverged: off {theta_off:.3} vs on {theta_on:.3}"
    );
    assert!(
        (omega_off - omega_on).abs() < 0.15,
        "omega diverged: off {omega_off:.3} vs on {omega_on:.3}"
    );
}
