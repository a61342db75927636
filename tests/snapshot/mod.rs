//! The golden-snapshot comparator `tests/golden.rs` and
//! `tests/policy.rs` share: snapshots under `tests/golden/` are
//! compared as parsed JSON, numbers within a relative tolerance.

use serde_json::Value;

/// Tight enough to catch behaviour drift, loose enough to survive
/// benign reassociation of float arithmetic in refactors.
const REL_TOL: f64 = 1e-6;

/// Recursively compares two parsed JSON values with a relative
/// tolerance on numbers, reporting the path of the first mismatch.
fn compare(path: &str, golden: &Value, got: &Value, diffs: &mut Vec<String>) {
    match (golden.as_f64(), got.as_f64()) {
        (Some(a), Some(b)) => {
            let scale = a.abs().max(b.abs()).max(1e-12);
            if (a - b).abs() > REL_TOL * scale {
                diffs.push(format!("{path}: golden {a} vs got {b}"));
            }
            return;
        }
        (None, None) => {}
        _ => {
            diffs.push(format!("{path}: type changed"));
            return;
        }
    }
    match (golden.as_object(), got.as_object()) {
        (Some(a), Some(b)) => {
            if a.len() != b.len() {
                diffs.push(format!("{path}: {} keys vs {}", a.len(), b.len()));
                return;
            }
            for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                if ka != kb {
                    diffs.push(format!("{path}: key {ka:?} vs {kb:?}"));
                    return;
                }
                compare(&format!("{path}.{ka}"), va, vb, diffs);
            }
            return;
        }
        (None, None) => {}
        _ => {
            diffs.push(format!("{path}: type changed"));
            return;
        }
    }
    match (golden.as_array(), got.as_array()) {
        (Some(a), Some(b)) => {
            if a.len() != b.len() {
                diffs.push(format!("{path}: {} elements vs {}", a.len(), b.len()));
                return;
            }
            for (i, (va, vb)) in a.iter().zip(b.iter()).enumerate() {
                compare(&format!("{path}[{i}]"), va, vb, diffs);
            }
        }
        _ => {
            if golden != got {
                diffs.push(format!("{path}: golden {golden:?} vs got {got:?}"));
            }
        }
    }
}

/// Compares `current` against the snapshot at `golden_path`, or — under
/// `GOLDEN_UPDATE=1` — rewrites the snapshot instead.
pub fn assert_or_update_golden(golden_path: &str, current: &str, what: &str) {
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::write(golden_path, current).expect("write golden snapshot");
        eprintln!("golden snapshot regenerated at {golden_path}");
        return;
    }
    assert_matches_golden(golden_path, current, what);
}

pub fn assert_matches_golden(golden_path: &str, current: &str, what: &str) {
    let golden_text = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {golden_path} ({e}); run GOLDEN_UPDATE=1 cargo test")
    });
    let golden: Value = serde_json::from_str(&golden_text).expect("golden parses");
    let got: Value = serde_json::from_str(current).expect("snapshot parses");
    let mut diffs = Vec::new();
    compare("$", &golden, &got, &mut diffs);
    assert!(
        diffs.is_empty(),
        "{what} drifted from golden snapshot {golden_path} (if intentional, regenerate \
         with GOLDEN_UPDATE=1):\n{}",
        diffs.join("\n")
    );
}
