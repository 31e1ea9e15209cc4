//! Configuration of a full OCA run.

use crate::checkpoint::CheckpointConfig;
use crate::halting::HaltingConfig;
use crate::search::SearchConfig;
use crate::seed::SeedStrategy;
use oca_graph::DetectError;
use oca_spectral::PowerConfig;

/// Where the interaction strength `c` comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CStrategy {
    /// The paper's choice: `c = −1/λ_min` via the power method.
    Spectral(PowerConfig),
    /// A fixed value in `(0, 1)`; used by the ablation benches.
    Fixed(f64),
}

impl Default for CStrategy {
    fn default() -> Self {
        CStrategy::Spectral(PowerConfig::default())
    }
}

/// Full configuration of an OCA run.
#[derive(Debug, Clone, PartialEq)]
pub struct OcaConfig {
    /// Interaction-strength source.
    pub c: CStrategy,
    /// Initial-set construction per seed.
    pub seed_strategy: SeedStrategy,
    /// Greedy-ascent tunables.
    pub search: SearchConfig,
    /// Halting criteria for the seed loop.
    pub halting: HaltingConfig,
    /// Merge communities with similarity ≥ threshold (Section IV
    /// postprocessing); `None` disables merging.
    pub merge_threshold: Option<f64>,
    /// Force every node into a community afterwards (Section IV's orphan
    /// rule). Off by default — the paper keeps "just the most relevant
    /// nodes" unless an application needs a full cover.
    pub assign_orphans: bool,
    /// Discard local maxima smaller than this (noise communities).
    pub min_community_size: usize,
    /// Master RNG seed. Runs are fully deterministic: for a fixed seed
    /// (and fixed [`OcaConfig::batch`]) the cover is identical at any
    /// [`OcaConfig::threads`] count.
    pub rng_seed: u64,
    /// Worker threads. Never affects the output, only wall-clock time.
    pub threads: usize,
    /// Tickets (seeded ascents) per scheduling round. All seeds of a round
    /// are drawn against the same coverage snapshot, so `batch` is part of
    /// the deterministic schedule: changing it changes the cover, changing
    /// `threads` does not. Larger rounds refresh the seed-pick snapshot
    /// less often; the ascents wasted past the halting cutoff are bounded
    /// by `threads − 1`, not by `batch`.
    pub batch: usize,
    /// Crash-safe progress: periodically persist the driver's round-start
    /// state to a `.ockpt` file and (per the policy) resume from it. Not
    /// part of the deterministic schedule — a checkpointed run, a plain
    /// run, and a crash/resume chain all produce the identical cover.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for OcaConfig {
    fn default() -> Self {
        OcaConfig {
            c: CStrategy::default(),
            seed_strategy: SeedStrategy::default(),
            search: SearchConfig::default(),
            halting: HaltingConfig::default(),
            merge_threshold: Some(0.5),
            assign_orphans: false,
            min_community_size: 3,
            rng_seed: 0x0CA,
            threads: 1,
            batch: 64,
            checkpoint: None,
        }
    }
}

impl OcaConfig {
    /// Validates parameter ranges, reporting violations as typed errors
    /// (call before a long run).
    pub fn validate(&self) -> Result<(), DetectError> {
        let invalid = |message: String| DetectError::InvalidConfig {
            algorithm: "OCA",
            message,
        };
        if let CStrategy::Fixed(c) = self.c {
            if !(c > 0.0 && c < 1.0) {
                return Err(invalid(format!("fixed c must lie in (0, 1), got {c}")));
            }
        }
        if let Some(t) = self.merge_threshold {
            if !(0.0..=1.0).contains(&t) {
                return Err(invalid(format!(
                    "merge threshold must lie in [0, 1], got {t}"
                )));
            }
        }
        if self.threads < 1 {
            return Err(invalid("need at least one thread".to_string()));
        }
        if self.batch < 1 {
            return Err(invalid("need at least one ticket per round".to_string()));
        }
        if self.halting.max_seeds < 1 {
            return Err(invalid("need at least one seed".to_string()));
        }
        if self.halting.stagnation_streak < 1 {
            return Err(invalid(
                "stagnation streak must be at least one rejected seed".to_string(),
            ));
        }
        if !(self.halting.seeds_per_covered >= 0.0 && self.halting.seeds_per_covered.is_finite()) {
            return Err(invalid(format!(
                "seeds-per-covered budget must be finite and non-negative, got {}",
                self.halting.seeds_per_covered
            )));
        }
        self.search.validate("OCA")?;
        if let Some(ckpt) = &self.checkpoint {
            if ckpt.every_rounds < 1 {
                return Err(invalid(
                    "need at least one round between checkpoints".to_string(),
                ));
            }
            if ckpt.path.as_os_str().is_empty() {
                return Err(invalid("checkpoint path must not be empty".to_string()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        OcaConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_fixed_c() {
        let cfg = OcaConfig {
            c: CStrategy::Fixed(1.5),
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("fixed c"));
    }

    #[test]
    fn rejects_zero_threads() {
        let cfg = OcaConfig {
            threads: 0,
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("thread"));
    }

    #[test]
    fn rejects_zero_stagnation_streak() {
        let cfg = OcaConfig {
            halting: HaltingConfig {
                stagnation_streak: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("streak"));
    }

    #[test]
    fn rejects_negative_efficiency_budget() {
        let cfg = OcaConfig {
            halting: HaltingConfig {
                seeds_per_covered: -0.5,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("seeds-per-covered"));
    }

    #[test]
    fn rejects_non_finite_budget_factor() {
        use crate::search::SearchConfig;
        let cfg = OcaConfig {
            search: SearchConfig {
                budget_factor: f64::NAN,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("budget factor"));
        let cfg = OcaConfig {
            search: SearchConfig {
                budget_factor: -1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        cfg.validate().unwrap_err();
    }

    #[test]
    fn rejects_zero_batch() {
        let cfg = OcaConfig {
            batch: 0,
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("round"));
    }
}
