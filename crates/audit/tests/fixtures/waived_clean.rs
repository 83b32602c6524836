//! Fixture: every violation carries a reasoned waiver — scan is clean
//! (scanned under the rel_path `crates/x/src/engine.rs`).

// audit: allow-file(determinism) -- fixture demonstrates a file-level waiver
use std::collections::HashMap;

// audit: hotpath
pub fn probe(keys: &[u32], seen: &HashMap<u32, u32>) -> usize {
    // audit: allow(hotpath) -- fixture demonstrates a next-line waiver
    let copy = keys.to_vec();
    let hits: Vec<u32> = copy.iter().filter_map(|k| seen.get(k).copied()).collect(); // audit: allow(hotpath) -- fixture demonstrates a same-line waiver
    hits.len()
}
