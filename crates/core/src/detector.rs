//! [`CommunityDetector`] implementation for OCA.
//!
//! The workspace-wide detection API lives in [`oca_graph::detect`]; this
//! module provides the thin config newtype that plugs OCA into it. The
//! `oca-api` crate registers it under the name `"oca"`.

use crate::config::OcaConfig;
use crate::runner::Oca;
use oca_graph::{CommunityDetector, CsrGraph, DetectContext, DetectError, Detection};

/// OCA behind the common [`CommunityDetector`] interface.
///
/// The context seed overrides [`OcaConfig::rng_seed`], so drivers control
/// determinism uniformly across algorithms. The driver's ticket schedule
/// makes the seed the *whole* contract: for a fixed seed the detection is
/// identical at any [`OcaConfig::threads`] count, so parallel runs are as
/// reproducible as sequential ones.
///
/// ```
/// use oca::{OcaConfig, OcaDetector};
/// use oca_graph::{from_edges, CommunityDetector, DetectContext};
///
/// let g = from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
/// let detector = OcaDetector::new(OcaConfig::default()).unwrap();
/// let detection = detector.detect(&g, &mut DetectContext::new(7)).unwrap();
/// assert!(!detection.cover.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct OcaDetector {
    config: OcaConfig,
}

impl OcaDetector {
    /// Wraps a validated configuration.
    pub fn new(config: OcaConfig) -> Result<Self, DetectError> {
        config.validate()?;
        Ok(OcaDetector { config })
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &OcaConfig {
        &self.config
    }
}

impl CommunityDetector for OcaDetector {
    fn name(&self) -> &'static str {
        "OCA"
    }

    fn detect(&self, graph: &CsrGraph, ctx: &mut DetectContext) -> Result<Detection, DetectError> {
        let mut config = self.config.clone();
        config.rng_seed = ctx.seed();
        let checkpointed = config.checkpoint.is_some();
        let result = Oca::try_new(config)?.run_ctx(graph, ctx)?;
        let mut stats = vec![
            ("c", format!("{:.6}", result.c)),
            ("lambda_min", format!("{:.6}", result.lambda_min)),
            ("raw_communities", result.raw_community_count.to_string()),
            (
                "halt_reason",
                result.halt_reason.map_or("none", |r| r.label()).to_string(),
            ),
            ("ascent_ns", result.phases.ascent_ns.to_string()),
            ("dedup_ns", result.phases.dedup_ns.to_string()),
            ("merge_ns", result.phases.merge_ns.to_string()),
            ("orphan_ns", result.phases.orphan_ns.to_string()),
            (
                "ascents_converged",
                result.ascent_stops.converged.to_string(),
            ),
            (
                "ascents_move_capped",
                result.ascent_stops.move_cap.to_string(),
            ),
            (
                "ascents_budget_stopped",
                result.ascent_stops.move_budget.to_string(),
            ),
            ("tickets_wasted", result.tickets_wasted.to_string()),
        ];
        // The `ckpt_*` namespace only appears on checkpointed runs, so
        // plain detections keep their usual stat set.
        if checkpointed {
            stats.extend(result.checkpoint.stat_entries());
        }
        Ok(Detection {
            cover: result.cover,
            elapsed: result.elapsed,
            complete: true,
            iterations: result.seeds_tried,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CStrategy;
    use oca_graph::{from_edges, CancelToken};

    fn two_triangles() -> CsrGraph {
        from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let err = OcaDetector::new(OcaConfig {
            c: CStrategy::Fixed(2.0),
            ..Default::default()
        })
        .unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }));
    }

    #[test]
    fn context_seed_drives_the_run() {
        let g = two_triangles();
        let detector = OcaDetector::default();
        let a = detector.detect(&g, &mut DetectContext::new(3)).unwrap();
        let b = detector.detect(&g, &mut DetectContext::new(3)).unwrap();
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn thread_count_does_not_change_the_detection() {
        let g = two_triangles();
        let reference = OcaDetector::default()
            .detect(&g, &mut DetectContext::new(9))
            .unwrap();
        for threads in [2, 4] {
            let detector = OcaDetector::new(OcaConfig {
                threads,
                ..Default::default()
            })
            .unwrap();
            let d = detector.detect(&g, &mut DetectContext::new(9)).unwrap();
            assert_eq!(d.cover, reference.cover, "threads = {threads}");
            assert_eq!(d.iterations, reference.iterations, "threads = {threads}");
        }
    }

    #[test]
    fn reports_spectral_stats() {
        let g = two_triangles();
        let d = OcaDetector::default()
            .detect(&g, &mut DetectContext::new(1))
            .unwrap();
        assert!(d.complete);
        assert!(d.stats.iter().any(|(k, _)| *k == "c"));
        assert!(d.stats.iter().any(|(k, _)| *k == "lambda_min"));
        // The per-phase breakdown rides along so harnesses can attribute
        // wall-clock without OCA-specific plumbing.
        for phase in ["ascent_ns", "dedup_ns", "merge_ns", "orphan_ns"] {
            assert!(
                d.stats
                    .iter()
                    .any(|(k, v)| *k == phase && v.parse::<u64>().is_ok()),
                "missing phase stat {phase}"
            );
        }
    }

    /// Cap/budget hits surface in the detection stats, so harnesses can
    /// see when a run's ascents were cut short.
    #[test]
    fn reports_ascent_stop_telemetry() {
        let g = two_triangles();
        let d = OcaDetector::default()
            .detect(&g, &mut DetectContext::new(1))
            .unwrap();
        let stat = |key: &str| -> usize {
            d.stats
                .iter()
                .find(|(k, _)| *k == key)
                .unwrap_or_else(|| panic!("missing stat {key}"))
                .1
                .parse()
                .unwrap()
        };
        assert_eq!(stat("ascents_converged"), d.iterations);
        assert_eq!(stat("ascents_move_capped"), 0);
        assert_eq!(stat("ascents_budget_stopped"), 0);
        // A one-move cap shows up in the tally.
        let detector = OcaDetector::new(OcaConfig {
            search: crate::search::SearchConfig {
                max_moves: 1,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        let d = detector.detect(&g, &mut DetectContext::new(1)).unwrap();
        let capped: usize = d
            .stats
            .iter()
            .find(|(k, _)| *k == "ascents_move_capped")
            .unwrap()
            .1
            .parse()
            .unwrap();
        assert!(capped > 0);
    }

    #[test]
    fn pre_cancelled_context_returns_partial_error() {
        let g = two_triangles();
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = DetectContext::new(1).with_cancel(token);
        let err = OcaDetector::default().detect(&g, &mut ctx).unwrap_err();
        match err {
            DetectError::Cancelled { partial } => assert!(!partial.complete),
            other => panic!("expected Cancelled, got {other}"),
        }
    }

    #[test]
    fn cancel_from_progress_callback_stops_the_run() {
        let g = two_triangles();
        let token = CancelToken::new();
        let trigger = token.clone();
        let mut ctx = DetectContext::new(1)
            .with_cancel(token)
            .with_progress(move |_| trigger.cancel());
        let err = OcaDetector::default().detect(&g, &mut ctx).unwrap_err();
        assert!(matches!(err, DetectError::Cancelled { .. }));
    }
}
