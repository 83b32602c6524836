//! The committed artefacts under `results/` regenerate byte for byte.
//!
//! One test per `pi_bench` experiment: run it in-process, compare every
//! file it returns with the committed one, and require every headline
//! claim to hold. `backends` and `fig3` are left to `make results-check`
//! (the same comparison through `git status`, over all twelve), because
//! they alone take more than a few seconds.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test helpers: fail loudly

use std::path::Path;

fn regenerates(name: &str) {
    let run = pi_bench::experiment(name).expect("registered experiment");
    let output = run().expect("experiment runs");
    for (file, fresh) in &output.files {
        // The 4 MB Chrome trace is git-ignored; its `.prom` twin is the
        // committed witness of the same run.
        if *file == "trace_policy_flap.json" {
            continue;
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(file);
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(
            *fresh == committed,
            "{} no longer regenerates: run `make results` and read the diff",
            path.display()
        );
    }
    for claim in &output.claims {
        assert!(claim.holds, "{name}: {} [{}]", claim.text, claim.value);
    }
}

macro_rules! artefact_tests {
    ($($name:ident),*) => {$(
        #[test]
        fn $name() {
            regenerates(stringify!($name));
        }
    )*};
}

artefact_tests!(
    fig2,
    mask_sweep,
    field_scaling,
    covert,
    ablation,
    upcall,
    detect,
    policy,
    fault,
    trace
);
