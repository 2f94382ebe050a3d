//! Round-trip property tests for the trace text format, plus a pinned
//! golden corpus of scenario traces.
//!
//! The property half proves `read_trace(write_trace(ops)) == ops` for
//! arbitrary op sequences — every `Op` variant, adversarial key values
//! (0 and `u64::MAX` are drawn with extra weight), and degenerate scan
//! limits. Failing seeds pin into `proptest-regressions/trace_roundtrip.txt`
//! and replay before every random sweep.
//!
//! The golden half freezes one trace per E17 scenario at a small geometry:
//! the generators are pure functions of `(scenario, geometry, seed,
//! ops_len)`, so the byte-exact trace is committed under `tests/corpus/`
//! and any drift in generator output — however subtle — fails loudly.
//! Regenerate deliberately with `DSF_UPDATE_CORPUS=1 cargo test -p
//! dsf-workloads --test trace_roundtrip`.

use dsf_workloads::{read_trace, scenario_plan, write_trace, Geometry, Op, Scenario};
use proptest::prelude::*;

/// Key strategy biased toward the values most likely to break a text
/// format: zero, the u64 maximum, and power-of-two boundaries.
fn arb_key() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => any::<u64>(),
        1 => Just(0u64),
        1 => Just(u64::MAX),
        1 => (0u32..64).prop_map(|b| 1u64 << b),
        1 => (0u32..64).prop_map(|b| (1u64 << b).wrapping_sub(1)),
    ]
}

/// Any single op, all four variants reachable.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => arb_key().prop_map(Op::Insert),
        3 => arb_key().prop_map(Op::Remove),
        2 => arb_key().prop_map(Op::Get),
        2 => (arb_key(), 0usize..100_000).prop_map(|(start, limit)| Op::Scan { start, limit }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
    #[test]
    fn trace_round_trips_any_op_sequence(ops in prop::collection::vec(arb_op(), 0..200)) {
        let text = write_trace(&ops);
        prop_assert_eq!(read_trace(&text).unwrap(), ops);
    }

    #[test]
    fn trace_survives_comment_and_blank_injection(ops in prop::collection::vec(arb_op(), 1..50)) {
        // Interleave the noise read_trace documents as ignorable; the op
        // stream must come back untouched.
        let mut noisy = String::from("# injected header\n\n");
        for line in write_trace(&ops).lines() {
            noisy.push_str(line);
            noisy.push_str("\n# inline comment\n\n");
        }
        prop_assert_eq!(read_trace(&noisy).unwrap(), ops);
    }
}

/// The small-geometry twin of `DenseFileConfig::control2(256, 8, 40)`,
/// matching the scenario module's own unit tests.
fn corpus_geom() -> Geometry {
    Geometry {
        slots: 256,
        slot_min: 8,
        slot_max: 40,
        log_slots: 8,
    }
}

const CORPUS_SEED: u64 = 0xC0FFEE;
const CORPUS_OPS: usize = 1024;

#[test]
fn scenario_traces_match_pinned_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let geom = corpus_geom();
    for s in Scenario::ALL {
        let plan = scenario_plan(s, &geom, CORPUS_SEED, CORPUS_OPS);
        let text = write_trace(&plan.ops);
        let path = dir.join(format!("{}.trace", s.name()));
        if std::env::var_os("DSF_UPDATE_CORPUS").is_some() {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &text).unwrap();
            continue;
        }
        let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing pinned trace {} ({e}); regenerate with DSF_UPDATE_CORPUS=1",
                path.display()
            )
        });
        assert_eq!(
            text,
            pinned,
            "generator output for `{}` drifted from the pinned corpus; if \
             intentional, regenerate with DSF_UPDATE_CORPUS=1 and review the diff",
            s.name()
        );
        // The pinned bytes replay to exactly the in-memory plan, so a
        // committed trace file is a complete seed-free reproduction.
        assert_eq!(read_trace(&pinned).unwrap(), plan.ops);
    }
}
