//! Detector conformance suite: one shared set of contracts, asserted
//! against **every** entry of the `oca-api` registry. A newly registered
//! backend gets the full battery for free:
//!
//! * determinism under a fixed [`DetectContext`] seed — including, for
//!   any detector that exposes a `threads` option, bit-identical results
//!   at every thread count;
//! * valid covers (member ids in range, no empty communities, matching
//!   node count) on edge-case graphs — empty, singleton, disconnected,
//!   star;
//! * monotone per-stage progress ticks (completed work only);
//! * prompt cooperative cancellation with a partial-result error.

use oca_repro::gen::{lfr, LfrParams};
use oca_repro::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Builds every registered detector in its experiment-grade preset.
fn all_detectors(graph: &CsrGraph) -> Vec<(&'static str, Box<dyn CommunityDetector>)> {
    registry()
        .iter()
        .map(|spec| (spec.name(), spec.experiment(graph)))
        .collect()
}

fn edge_case_graphs() -> Vec<(&'static str, CsrGraph)> {
    let empty = CsrGraph::empty(0);
    let singleton = CsrGraph::empty(1);
    // Two 4-cliques with no connection between them.
    let mut edges = Vec::new();
    for base in [0u32, 4] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push((base + i, base + j));
            }
        }
    }
    let disconnected = oca_repro::graph::from_edges(8, edges);
    // A star: hub 0 with 12 leaves (no triangles at all).
    let star = oca_repro::graph::from_edges(13, (1..13u32).map(|leaf| (0, leaf)));
    vec![
        ("empty", empty),
        ("singleton", singleton),
        ("disconnected", disconnected),
        ("star", star),
    ]
}

/// A cover is valid for a graph when its node count matches, every member
/// id is in range, and no community is empty.
fn assert_valid_cover(name: &str, graph_name: &str, graph: &CsrGraph, cover: &Cover) {
    assert_eq!(
        cover.node_count(),
        graph.node_count(),
        "{name} on {graph_name}: cover node count mismatch"
    );
    for (i, community) in cover.communities().iter().enumerate() {
        assert!(
            !community.is_empty(),
            "{name} on {graph_name}: community #{i} is empty"
        );
        for &v in community.members() {
            assert!(
                v.index() < graph.node_count(),
                "{name} on {graph_name}: member {v:?} out of range"
            );
        }
    }
}

#[test]
fn every_detector_is_deterministic_under_a_fixed_seed() {
    let bench = lfr(&LfrParams::small(300, 0.3, 11));
    for (name, detector) in all_detectors(&bench.graph) {
        let a = detector
            .detect(&bench.graph, &mut DetectContext::new(17))
            .unwrap();
        let b = detector
            .detect(&bench.graph, &mut DetectContext::new(17))
            .unwrap();
        assert_eq!(a.cover, b.cover, "{name}: covers differ across runs");
        assert_eq!(
            a.iterations, b.iterations,
            "{name}: iteration counts differ across runs"
        );
    }
}

/// Every detector that exposes a `threads` option must produce the same
/// detection at any thread count: parallelism buys wall-clock time, never
/// a different answer. Registered via the option key, so a future
/// threaded backend inherits this contract automatically.
#[test]
fn thread_count_never_changes_a_threaded_detectors_output() {
    let bench = lfr(&LfrParams::small(300, 0.3, 41));
    let mut checked = 0;
    for spec in registry().iter() {
        if !spec.option_keys().contains(&"threads") {
            continue;
        }
        checked += 1;
        let mut reference = None;
        for threads in [1usize, 2, 4] {
            let detector = spec
                .build(&DetectorOptions::new().with("threads", &threads.to_string()))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            let detection = detector
                .detect(&bench.graph, &mut DetectContext::new(17))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            match &reference {
                None => reference = Some(detection),
                Some(r) => {
                    assert_eq!(
                        detection.cover,
                        r.cover,
                        "{}: cover differs at threads = {threads}",
                        spec.name()
                    );
                    assert_eq!(
                        detection.iterations,
                        r.iterations,
                        "{}: iteration cutoff differs at threads = {threads}",
                        spec.name()
                    );
                }
            }
        }
    }
    assert!(checked >= 1, "OCA must be covered by this contract");
}

/// Every hub-search option — ascent budgets and covered-hub pruning, alone
/// and combined — must preserve the thread-determinism contract: for a fixed seed the detection is
/// bit-identical at any thread count, because each feature is a pure
/// function of the ticket and the shared round-start coverage snapshot.
#[test]
fn hub_search_options_preserve_thread_determinism() {
    let bench = lfr(&LfrParams::small(300, 0.3, 41));
    let reg = registry();
    let option_sets: [&[(&str, &str)]; 3] = [
        &[("ascent-budget", "4")],
        &[("hub-prune-degree", "8")],
        &[("ascent-budget", "6"), ("hub-prune-degree", "8")],
    ];
    for set in option_sets {
        let mut reference = None;
        for threads in [1usize, 2, 4] {
            let mut opts = DetectorOptions::new().with("threads", &threads.to_string());
            for (key, value) in set {
                opts = opts.with(key, value);
            }
            let detector = reg
                .build("oca", &opts)
                .unwrap_or_else(|e| panic!("{set:?}: {e}"));
            let detection = detector
                .detect(&bench.graph, &mut DetectContext::new(17))
                .unwrap_or_else(|e| panic!("{set:?}: {e}"));
            match &reference {
                None => reference = Some(detection),
                Some(r) => {
                    assert_eq!(
                        detection.cover, r.cover,
                        "{set:?}: cover differs at threads = {threads}"
                    );
                    assert_eq!(
                        detection.iterations, r.iterations,
                        "{set:?}: iteration cutoff differs at threads = {threads}"
                    );
                }
            }
        }
    }
}

/// Progress ticks report *completed* work: per stage, `done` must be
/// monotone non-decreasing, and ticking a count captured before the work
/// ran (the old OCA driver's bug) is a contract violation.
#[test]
fn progress_ticks_are_monotone_per_stage() {
    let bench = lfr(&LfrParams::small(300, 0.3, 37));
    for (name, detector) in all_detectors(&bench.graph) {
        let violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let last_by_stage: Arc<Mutex<Vec<(&'static str, usize)>>> =
            Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&violations);
        let lasts = Arc::clone(&last_by_stage);
        let mut ctx = DetectContext::new(3).with_progress(move |p: Progress| {
            let mut lasts = lasts.lock().unwrap();
            match lasts.iter_mut().find(|(stage, _)| *stage == p.stage) {
                Some((stage, last)) => {
                    if p.done < *last {
                        sink.lock()
                            .unwrap()
                            .push(format!("stage {stage}: {} after {last}", p.done));
                    }
                    *last = p.done;
                }
                None => lasts.push((p.stage, p.done)),
            }
        });
        let detection = detector.detect(&bench.graph, &mut ctx).unwrap();
        let violations = violations.lock().unwrap();
        assert!(
            violations.is_empty(),
            "{name}: non-monotone ticks: {violations:?}"
        );
        // OCA's ascent stage must report every seed, the last one included.
        if name == "oca" {
            let lasts = last_by_stage.lock().unwrap();
            let (_, last) = lasts
                .iter()
                .find(|(stage, _)| *stage == "ascent")
                .expect("oca ticks the ascent stage");
            assert_eq!(
                *last, detection.iterations,
                "oca: final tick must report the last ascent"
            );
        }
    }
}

#[test]
fn every_detector_produces_valid_covers_on_edge_case_graphs() {
    for (graph_name, graph) in edge_case_graphs() {
        for (name, detector) in all_detectors(&graph) {
            let detection = detector
                .detect(&graph, &mut DetectContext::new(5))
                .unwrap_or_else(|e| panic!("{name} failed on {graph_name}: {e}"));
            assert!(
                detection.complete,
                "{name} incomplete on {graph_name} without a cap or cancellation"
            );
            assert_valid_cover(name, graph_name, &graph, &detection.cover);
        }
    }
}

#[test]
fn disconnected_cliques_are_found_separately() {
    let (_, disconnected) = edge_case_graphs().remove(2);
    let mut checked = 0;
    for spec in registry().iter() {
        // Point-query detectors (a `seed-node` option) answer for one
        // node, so one community is the *correct* cover here — the
        // whole-graph contract applies to global detectors only.
        if spec.option_keys().contains(&"seed-node") {
            continue;
        }
        checked += 1;
        let (name, detector) = (spec.name(), spec.experiment(&disconnected));
        let detection = detector
            .detect(&disconnected, &mut DetectContext::new(1))
            .unwrap();
        assert!(
            detection.cover.len() >= 2,
            "{name}: two disjoint cliques should yield at least two communities, got {}",
            detection.cover.len()
        );
        assert_eq!(detection.cover.overlap_node_count(), 0, "{name}");
    }
    assert!(checked >= 5, "the global detectors must stay covered");
}

/// The query-centric entry point: with `seed-node` pinned, every run of
/// `oca-local` answers with exactly one community containing the query,
/// identically across seeds of the surrounding context only when the
/// context seed is fixed (the seed drives the neighborhood expansion).
#[test]
fn oca_local_answers_for_the_pinned_query_node() {
    let (_, disconnected) = edge_case_graphs().remove(2);
    let reg = registry();
    for query in ["0", "5"] {
        let detector = reg
            .build(
                "oca-local",
                &DetectorOptions::new()
                    .with("seed-node", query)
                    .with("fixed-c", "0.9"),
            )
            .unwrap();
        let a = detector
            .detect(&disconnected, &mut DetectContext::new(9))
            .unwrap();
        let b = detector
            .detect(&disconnected, &mut DetectContext::new(9))
            .unwrap();
        assert_eq!(a.cover, b.cover, "query {query}: not deterministic");
        assert_eq!(a.cover.len(), 1, "query {query}: expected one community");
        let q: u32 = query.parse().unwrap();
        let community = &a.cover.communities()[0];
        assert!(community.contains(NodeId(q)), "query {query} not answered");
        // Disjoint cliques: the answer is exactly the query's own clique.
        let base = (q / 4) * 4;
        let members: Vec<u32> = community.members().iter().map(|v| v.raw()).collect();
        assert_eq!(members, (base..base + 4).collect::<Vec<_>>());
    }
}

#[test]
fn pre_cancelled_contexts_fail_promptly_with_a_partial_result() {
    let bench = lfr(&LfrParams::small(2000, 0.3, 23));
    for (name, detector) in all_detectors(&bench.graph) {
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = DetectContext::new(7).with_cancel(token);
        let start = Instant::now();
        let result = detector.detect(&bench.graph, &mut ctx);
        let waited = start.elapsed();
        match result {
            Err(DetectError::Cancelled { partial }) => {
                assert!(!partial.complete, "{name}: partial flagged complete");
                assert_valid_cover(name, "lfr", &bench.graph, &partial.cover);
            }
            other => panic!("{name}: expected Cancelled, got {other:?}"),
        }
        assert!(
            waited < Duration::from_secs(5),
            "{name}: cancellation took {waited:?}"
        );
    }
}

#[test]
fn cancellation_from_a_progress_callback_is_honoured() {
    let bench = lfr(&LfrParams::small(1000, 0.3, 29));
    for (name, detector) in all_detectors(&bench.graph) {
        let token = CancelToken::new();
        let trigger = token.clone();
        let mut ctx = DetectContext::new(7)
            .with_cancel(token)
            .with_progress(move |_: Progress| trigger.cancel());
        match detector.detect(&bench.graph, &mut ctx) {
            Err(DetectError::Cancelled { .. }) => {}
            Ok(detection) => panic!(
                "{name}: completed ({} communities) despite cancellation at first tick",
                detection.cover.len()
            ),
            Err(other) => panic!("{name}: unexpected error {other}"),
        }
    }
}

#[test]
fn detection_telemetry_is_uniform() {
    let bench = lfr(&LfrParams::small(300, 0.3, 31));
    for (name, detector) in all_detectors(&bench.graph) {
        let detection = detector
            .detect(&bench.graph, &mut DetectContext::new(3))
            .unwrap();
        assert!(detection.complete, "{name}");
        assert!(
            detection.iterations > 0,
            "{name}: no outer iterations reported"
        );
        assert!(
            detection.elapsed > Duration::ZERO,
            "{name}: elapsed not measured"
        );
    }
}

#[test]
fn registry_and_display_names_stay_in_sync() {
    let g = CsrGraph::empty(0);
    let reg = registry();
    let mut display: Vec<&str> = Vec::new();
    for spec in reg.iter() {
        let detector = spec.experiment(&g);
        display.push(detector.name());
    }
    let total = display.len();
    display.sort_unstable();
    display.dedup();
    assert_eq!(display.len(), total, "display names must be unique");
    assert_eq!(total, reg.names().len());
}
