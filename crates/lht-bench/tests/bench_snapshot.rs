//! Exact pin of `BENCH_lht.json`: `lht-exp bench-snapshot` re-measures
//! every field and must print the committed file byte for byte.
//!
//! It lives in a test binary of its own because the naming-cache
//! saving diffs the process-wide SHA-1 compression counter, which any
//! test hashing on another thread would move.

const COMMITTED: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lht.json"));

#[test]
fn bench_snapshot_reproduces_the_committed_file() {
    // The command rewrites BENCH_lht.json in the working directory and
    // names on stderr every field that moved against the file there.
    std::env::set_current_dir(env!("CARGO_TARGET_TMPDIR")).expect("scratch directory");
    std::fs::write("BENCH_lht.json", COMMITTED).expect("seed the old snapshot");
    let mut stdout = Vec::new();
    assert_eq!(lht_bench::cli::run(&["bench-snapshot"], &mut stdout), 0);
    let fresh = String::from_utf8(stdout).expect("utf-8 output");
    assert!(
        fresh == COMMITTED,
        "BENCH_lht.json moved (the `moved` lines above name each field); \
         if that is intended, run `lht-exp bench-snapshot` from the repo \
         root and name every moved field in CHANGES.md:\n{fresh}"
    );
}
