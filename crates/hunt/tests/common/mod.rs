//! Shared inputs of the golden re-classification suites: the committed
//! `.ibgp` specimens, and a fixed-seed slice of the five hunt families.

use ibgp_hunt::{generate_spec, parse, ScenarioSpec, ALL_FAMILIES};
use std::path::PathBuf;

/// Campaign seed of [`family_slice`].
const SLICE_SEED: u64 = 5;
/// Instances per family in [`family_slice`].
const SLICE_PER_FAMILY: u64 = 6;

fn corpus_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../corpus/{sub}"))
}

/// Every `.ibgp` file under `corpus/<sub>/`, parsed, by file stem.
pub fn corpus_specs(sub: &str) -> Vec<(String, ScenarioSpec)> {
    let dir = corpus_dir(sub);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing corpus dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ibgp"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .ibgp files under {}", dir.display());
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p)
                .unwrap_or_else(|e| panic!("unreadable {}: {e}", p.display()));
            let spec = parse(&text).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
            (name, spec)
        })
        .collect()
}

/// The five hunt families × indices 0–5 at campaign seed 5, named
/// `family[index]`. Every committed specimen is of kind `reflection`;
/// the slice adds generated reflection, multi-reflector and mesh specs,
/// and the only confederation and hierarchy specs the goldens see.
pub fn family_slice() -> Vec<(String, ScenarioSpec)> {
    ALL_FAMILIES
        .into_iter()
        .flat_map(|family| {
            (0..SLICE_PER_FAMILY).map(move |index| {
                let name = format!("{}[{index}]", family.keyword());
                (name, generate_spec(family, SLICE_SEED, index))
            })
        })
        .collect()
}
