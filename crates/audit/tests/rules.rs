//! Fixture tests: each file under `tests/fixtures/` exercises one rule
//! family end-to-end through [`pi_audit::scan_file`]. The fixtures are
//! real `.rs` sources but live in a `fixtures/` directory, which the
//! workspace walker skips — so the self-scan never sees them.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test helpers: fail loudly

use pi_audit::{scan_file, FileClass, Violation};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn order_sensitive_basename_rejects_hashmap_outside_tests() {
    let src = fixture("order_map_engine.rs");
    // The engine, and the per-packet pod table and its ip index.
    for module in ["engine", "pods", "index"] {
        let path = format!("crates/fx/src/{module}.rs");
        let v = scan_file(&path, FileClass::Lib, &src);
        // `use` + field type fire; the HashSet inside #[cfg(test)] must not.
        assert_eq!(rules_of(&v), ["determinism"; 2], "{module}: {v:?}");
        assert!(v.iter().all(|v| v.message.contains("HashMap")), "{v:?}");
    }

    // Same content under a non-order-sensitive basename: clean.
    let v = scan_file("crates/fx/src/builder.rs", FileClass::Lib, &src);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn hotpath_region_rejects_allocation_but_cold_code_may_allocate() {
    let v = scan_file(
        "crates/fx/src/hot.rs",
        FileClass::Lib,
        &fixture("hotpath_alloc.rs"),
    );
    assert_eq!(rules_of(&v), ["hotpath"], "{v:?}");
    assert!(v[0].message.contains(".to_vec("));
    // Only the annotated fn fires — the identical allocation in
    // `cold_setup` is fine.
    assert_eq!(v.len(), 1);
}

#[test]
fn backend_impl_without_cost_evidence_is_flagged() {
    let v = scan_file(
        "crates/fx/src/free.rs",
        FileClass::Lib,
        &fixture("cost_free_backend.rs"),
    );
    assert_eq!(rules_of(&v), ["cost"], "{v:?}");

    // Calling the one pricing method clears it.
    let charged = format!(
        "{}\nfn price(&self) -> u64 {{ self.cost.cycles_of(&self.work) }}\n",
        fixture("cost_free_backend.rs")
    );
    let v = scan_file("crates/fx/src/free.rs", FileClass::Lib, &charged);
    assert!(v.is_empty(), "{v:?}");

    // Reading a price field by hand is pricing outside `CostModel`, not
    // evidence of charging through it.
    let by_hand = format!(
        "{}\nfn price(&self) -> u64 {{ self.cost.per_rule }}\n",
        fixture("cost_free_backend.rs")
    );
    let v = scan_file("crates/fx/src/free.rs", FileClass::Lib, &by_hand);
    assert_eq!(rules_of(&v), ["cost"], "{v:?}");
}

#[test]
fn reasoned_waivers_silence_violations() {
    let v = scan_file(
        "crates/fx/src/engine.rs",
        FileClass::Lib,
        &fixture("waived_clean.rs"),
    );
    assert!(v.is_empty(), "waived fixture must scan clean: {v:?}");
}

#[test]
fn bad_waivers_are_directive_violations() {
    let v = scan_file(
        "crates/fx/src/bad.rs",
        FileClass::Lib,
        &fixture("bad_waivers.rs"),
    );
    assert_eq!(rules_of(&v), ["directive"; 3], "{v:?}");
    let messages: String = v.iter().map(|v| v.message.as_str()).collect();
    assert!(messages.contains("unused waiver"), "{v:?}");
    assert!(messages.contains("malformed"), "{v:?}");
    assert!(messages.contains("unknown rule"), "{v:?}");
}
