//! The seeded hunting campaign driver.
//!
//! [`run_campaign`] generates a fixed budget of random topologies (cycling
//! deterministically through the configured families), classifies each
//! through [`crate::verdict::classify_spec`], and files every
//! oscillating / bistable / inconclusive specimen into the corpus
//! directory, deduplicated by canonical structural signature. Stable
//! topologies are counted but not filed.
//!
//! Determinism: with a fixed seed and budget the produced corpus tree is
//! byte-identical across runs (and machines) — generation derives
//! per-index RNG streams, iteration order is fixed, filenames come from
//! the signature, and no timestamps are written to disk. Wall-clock time
//! appears only in the returned [`CampaignReport`].

use crate::corpus;
use crate::generate::{generate_spec, Family, ALL_FAMILIES};
use crate::signature::{file_stem, signature};
use crate::spec::{SpecError, SpecKind};
use crate::verdict::{classify_spec, HuntOptions};
use ibgp_analysis::OscillationClass;
use ibgp_sim::Metrics;
use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every generated topology derives from it.
    pub seed: u64,
    /// Topologies to generate and classify.
    pub budget: usize,
    /// Families to cycle through (round-robin by index).
    pub families: Vec<Family>,
    /// Search knobs applied to every classification.
    pub options: HuntOptions,
    /// Corpus directory to file specimens into.
    pub out_dir: PathBuf,
}

impl CampaignConfig {
    /// A campaign over all families with default search knobs.
    pub fn new(seed: u64, budget: usize, out_dir: PathBuf) -> Self {
        Self {
            seed,
            budget,
            families: ALL_FAMILIES.to_vec(),
            options: HuntOptions::default(),
            out_dir,
        }
    }
}

/// Per-family verdict tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyYield {
    /// The family.
    pub family: Family,
    /// Topologies generated for it.
    pub generated: usize,
    /// Proven persistent oscillations filed.
    pub oscillating: usize,
    /// Transient (bistable-or-cycling) specimens filed.
    pub bistable: usize,
    /// Cap-hit searches filed as inconclusive.
    pub inconclusive: usize,
    /// Stable topologies (counted, never filed).
    pub stable: usize,
    /// Specimens skipped because an isomorphic one was already filed.
    pub duplicates: usize,
}

impl FamilyYield {
    fn new(family: Family) -> Self {
        Self {
            family,
            generated: 0,
            oscillating: 0,
            bistable: 0,
            inconclusive: 0,
            stable: 0,
            duplicates: 0,
        }
    }
}

/// What a campaign did.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Topologies generated.
    pub generated: usize,
    /// Specimens newly written to disk.
    pub filed: usize,
    /// Isomorphic duplicates skipped (incl. collisions with prior runs).
    pub duplicates: usize,
    /// Per-family tallies, in configured family order.
    pub yields: Vec<FamilyYield>,
    /// Aggregated search metrics over every family's explorations
    /// (solver-answered verdicts carry none).
    pub metrics: Metrics,
    /// Wall-clock time the campaign took (not persisted anywhere).
    pub elapsed: Duration,
}

impl CampaignReport {
    /// Specimens filed per generated topology.
    pub fn yield_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.filed as f64 / self.generated as f64
        }
    }
}

/// Errors a campaign can hit.
#[derive(Debug)]
pub enum CampaignError {
    /// Corpus I/O failed.
    Io(io::Error),
    /// A generated spec failed to build — a generator bug, since
    /// generation is supposed to produce only valid specs.
    Spec {
        /// Name of the offending spec.
        name: String,
        /// The underlying validation error.
        error: SpecError,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "{e}"),
            CampaignError::Spec { name, error } => {
                write!(f, "generated spec {name} failed to build: {error}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// The corpus bucket a verdict files under, or `None` for stable.
pub fn bucket_for(class: OscillationClass) -> Option<&'static str> {
    match class {
        OscillationClass::Persistent => Some("oscillating"),
        OscillationClass::Transient => Some("bistable"),
        OscillationClass::Unknown => Some("inconclusive"),
        OscillationClass::Stable => None,
    }
}

/// Run a campaign to completion.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    assert!(
        !cfg.families.is_empty(),
        "campaign needs at least one family"
    );
    let started = std::time::Instant::now();
    let mut seen: BTreeSet<String> = corpus::existing_stems(&cfg.out_dir)?;
    let mut yields: Vec<FamilyYield> = cfg.families.iter().map(|&f| FamilyYield::new(f)).collect();
    let mut metrics = Metrics::default();
    let mut filed = 0usize;
    let mut duplicates = 0usize;
    for index in 0..cfg.budget as u64 {
        let slot = (index as usize) % cfg.families.len();
        let family = cfg.families[slot];
        let mut spec = generate_spec(family, cfg.seed, index);
        // Fold the campaign-wide knob into each reflection spec so the
        // filed `.ibgp` carries a `loop-prevention` directive (the
        // specimen reproduces standalone) and the structural signature
        // separates the two corpora.
        if cfg.options.loop_prevention {
            if let SpecKind::Reflection(r) = &mut spec.kind {
                r.loop_prevention = true;
            }
        }
        let y = &mut yields[slot];
        y.generated += 1;
        let verdict = classify_spec(&spec, &cfg.options).map_err(|error| CampaignError::Spec {
            name: spec.name.clone(),
            error,
        })?;
        if let Some(m) = &verdict.metrics {
            metrics.absorb_campaign(m);
        }
        match verdict.class {
            OscillationClass::Persistent => y.oscillating += 1,
            OscillationClass::Transient => y.bistable += 1,
            OscillationClass::Unknown => y.inconclusive += 1,
            OscillationClass::Stable => y.stable += 1,
        }
        let Some(bucket) = bucket_for(verdict.class) else {
            continue;
        };
        let stem = file_stem(&signature(&spec));
        if !seen.insert(stem) {
            y.duplicates += 1;
            duplicates += 1;
            continue;
        }
        corpus::write_specimen(&cfg.out_dir, bucket, &spec)?;
        filed += 1;
    }
    Ok(CampaignReport {
        seed: cfg.seed,
        generated: cfg.budget,
        filed,
        duplicates,
        yields,
        metrics,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ibgp-hunt-campaign-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn small_campaign_files_specimens_and_tallies_add_up() {
        let dir = tmpdir("small");
        let cfg = CampaignConfig::new(7, 20, dir.clone());
        let report = run_campaign(&cfg).unwrap();
        assert_eq!(report.generated, 20);
        let total: usize = report
            .yields
            .iter()
            .map(|y| y.oscillating + y.bistable + y.inconclusive + y.stable)
            .sum();
        assert_eq!(total, 20, "every topology got exactly one verdict");
        let on_disk = corpus::existing_stems(&dir).unwrap().len();
        assert_eq!(on_disk, report.filed);
        assert!(report.metrics.states_visited > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rerunning_into_the_same_dir_files_nothing_new() {
        let dir = tmpdir("rerun");
        let cfg = CampaignConfig::new(11, 15, dir.clone());
        let first = run_campaign(&cfg).unwrap();
        let second = run_campaign(&cfg).unwrap();
        assert_eq!(second.filed, 0, "all specimens already filed");
        assert_eq!(second.duplicates, first.filed);
        let _ = fs::remove_dir_all(&dir);
    }
}
