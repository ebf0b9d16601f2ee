//! Shared by the golden-fixture test targets: compare a rendered
//! transcript with its committed fixture, or rewrite the fixture when
//! `GOLDEN_BLESS` is set.

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `GOLDEN_BLESS` is set.
pub fn assert_golden(rel_path: &str, committed: &str, actual: &str) {
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        let path = format!("{}/../../{rel_path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("blessing {path}: {e}"));
        return;
    }
    assert_eq!(
        committed, actual,
        "golden mismatch for {rel_path}; if intentional, re-bless with \
         GOLDEN_BLESS=1 and review the fixture diff"
    );
}
