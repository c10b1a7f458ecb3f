//! Golden pin of every deterministic command CI runs: exit status and
//! SHA-1 of stdout, recorded from the 21 per-experiment binaries at
//! `3d6e583` (each run from a shell, stdout digested after the same
//! masking) before their bodies moved behind one dispatcher. The
//! figure rows were recorded later, at `--threads 1`, before the
//! threaded growth driver and its flag were deleted.
//!
//! Masked before digesting: wall-clock text (`in 0.3s`) and, in a
//! `replay:` line, the spelling of the command in front of its first
//! flag — everything a run decides stays in the digest.

use lht_id::sha1;

/// `(lht-exp arguments, exit status, SHA-1 of masked stdout)`.
#[rustfmt::skip]
const PINS: &[(&[&str], i32, &str)] = &[
    // The paper's figures, grown from one client.
    (&["fig6", "--trials", "1"], 0, "a2b13a2f4062f664be050840e32354aee214f34c"),
    (&["fig7", "--trials", "1"], 0, "90e965a6c8cc49df6f04d722ad56d007dce9c505"),
    (&["fig8", "--trials", "1"], 0, "514e8353d8f9f8272a6705714f4abdf01ad338f8"),
    (&["fig9", "--trials", "1"], 0, "805d002117801534ed54ca8913c2204019dab673"),
    (&["fig10", "--trials", "1"], 0, "631266186aee84e9b50789057368787265b84ae8"),
    (&["saving-ratio", "--trials", "1"], 0, "320ad8c589fa88fb97a0c09857d620be907cabf7"),
    // The three clean sim seeds.
    (&["sim-explore", "--seed", "1"], 0, "afbe21451635e15cfa67852247becb74529f5938"),
    (&["sim-explore", "--seed", "42"], 0, "17142bd04beafad7210e9cddd8ebb5399a30f797"),
    (&["sim-explore", "--seed", "2008"], 0, "0cbba84f94504bf9946fa779cd6eed0631d1aa66"),
    // The seven armed-mutant proofs.
    (&["sim-explore", "--seed", "1", "--stale-replica", "--expect-violation"], 0, "27f081d9e6eac7e57afa97ecd4b0301017d2d3d9"),
    (&["sim-explore", "--seed", "1", "--torn-split", "3", "--expect-violation"], 0, "c1dfa6383a2a3cbe22f46c5ce9e2821e5e624d34"),
    (&["sim-explore", "--seed", "2", "--sloppy-quorum-read", "--expect-violation"], 0, "57d23dcdc50bf4c626018eb77cd52323bd507af8"),
    (&["sim-explore", "--seed", "3", "--lost-write-ack", "--expect-violation"], 0, "7792640c5a94dfd9fba649af9e3937543c2cd822"),
    (&["sim-explore", "--seed", "0", "--stale-cache-read", "--expect-violation"], 0, "38d45d0963785990befe055d3b025026fcb697b1"),
    (&["sim-explore", "--seed", "2", "--corrupt-fragment", "--expect-violation"], 0, "53b8042f6c737ed4ef924db3b911fcbc0dcdf1a4"),
    (&["sim-explore", "--seed", "1", "--lazy-regen", "--churn", "8", "--expect-violation"], 0, "1e96716f162cdfb0986bd1fa70611c30f063d107"),
    // Quorum and erasure sim cells.
    (&["sim-explore", "--seed", "0", "--quorum", "3,2,2"], 0, "42056df811f149d8dcd5d2628fa23c594bb08010"),
    (&["sim-explore", "--seed", "1", "--quorum", "3,1,3"], 0, "afbe21451635e15cfa67852247becb74529f5938"),
    (&["sim-explore", "--seed", "2", "--quorum", "3,2,2", "--drop", "0.1"], 0, "ffd9a719145511e521fa4365d5357d9edda98cc1"),
    (&["sim-explore", "--seed", "0", "--erasure", "2,5"], 0, "42056df811f149d8dcd5d2628fa23c594bb08010"),
    (&["sim-explore", "--seed", "1", "--erasure", "4,6"], 0, "afbe21451635e15cfa67852247becb74529f5938"),
    (&["sim-explore", "--seed", "2", "--erasure", "2,5", "--drop", "0.1"], 0, "ffd9a719145511e521fa4365d5357d9edda98cc1"),
    // Differential soaks: plain, PHT, cached + lossy, quorum, erasure.
    (&["audit-soak", "--substrate", "both", "--seed", "1", "--ops", "10000", "--churn"], 0, "65f0e833e5b4b0a00de7a8777462d794e51a6898"),
    // Re-pinned when the table gained its first_fails and repairs
    // columns; the rows themselves were recorded on the commit
    // before the PHT mirror was removed from the LHT soak.
    (&["audit-soak", "--substrate", "direct", "--index", "pht", "--seed", "1", "--ops", "10000"], 0, "c334de4ab5bef8114427bb031856e6a56327dc0f"),
    // The repairs column tells a built tier from an ignored one: a
    // Direct soak without its quorum tier would print 0 there.
    (&["audit-soak", "--substrate", "direct", "--seed", "1", "--ops", "10000", "--churn", "--drop", "0.1", "--quorum", "3,2,2"], 0, "fc427cdaf2546cfeb4d1c9aa7fea11e2898e91cb"),
    (&["audit-soak", "--substrate", "chord", "--seed", "1", "--ops", "5000", "--churn", "--cache", "256", "--drop", "0.1", "--mloss", "0.15"], 0, "0181cc8f4c93f0684f988cc280d4bfc2e3cac8cf"),
    (&["audit-soak", "--substrate", "chord", "--seed", "1", "--ops", "5000", "--churn", "--drop", "0.1", "--quorum", "3,2,2"], 0, "5136df70f8a9038ca136858e8ba73921c230ec05"),
    (&["audit-soak", "--substrate", "chord", "--seed", "1", "--ops", "5000", "--churn", "--drop", "0.1", "--mloss", "0.15", "--erasure", "2,4"], 0, "d8b77b91831caac981d4f4864a8cdcaff98e7f7b"),
    // Seeded smoke grids.
    (&["fault-sweep", "--smoke"], 0, "c0cb817d91ec2800beeb29d7ee6599d23d874943"),
    (&["batch-speedup", "--smoke"], 0, "0b913dbb498baca93075aaa3603edc1eb5b8fe2e"),
    (&["quorum", "--smoke"], 0, "bffd704ff9b342e5001d1b8fbc50a57618023b16"),
];

/// `" in 12.3s"` → `" in #s"`.
fn mask_seconds(line: &str) -> String {
    let mut masked = String::new();
    let mut rest = line;
    while let Some(i) = rest.find(" in ") {
        let (head, tail) = rest.split_at(i + 4);
        masked.push_str(head);
        let number = tail.len()
            - tail
                .trim_start_matches(|c: char| c.is_ascii_digit() || c == '.')
                .len();
        rest = if number > 0 && tail[number..].starts_with('s') {
            masked.push('#');
            &tail[number..]
        } else {
            tail
        };
    }
    masked + rest
}

fn mask(stdout: &str) -> String {
    let lines: Vec<String> = stdout
        .split('\n')
        .map(|line| match line.find(" --seed") {
            Some(flags) if line.starts_with("  replay:") => {
                format!("  replay: <lht-exp>{}", &line[flags..])
            }
            _ => mask_seconds(line),
        })
        .collect();
    lines.join("\n")
}

#[test]
fn every_deterministic_ci_command_prints_its_pinned_output() {
    // `batch-speedup` writes its CSV under the working directory.
    std::env::set_current_dir(env!("CARGO_TARGET_TMPDIR")).expect("scratch directory");
    for (args, status, digest) in PINS {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut stdout = Vec::new();
        let got = lht_bench::cli::run(&argv, &mut stdout);
        let stdout = String::from_utf8(stdout).expect("utf-8 output");
        assert_eq!(got, *status, "exit status of {args:?}\n{stdout}");
        assert_eq!(
            sha1(mask(&stdout).as_bytes()).to_hex(),
            *digest,
            "stdout of {args:?} moved:\n{stdout}"
        );
    }
}

/// The pins are the CI manifest minus what cannot be pinned here:
/// rows that print wall-clock measurements, the seed sweeps (minutes
/// in a debug build) and the full E20 grid, which CI holds to its
/// tracked CSVs instead.
#[test]
fn the_pins_cover_the_ci_manifest() {
    let unpinned = |args: &[&str]| {
        let measured = ["route-cache", "threaded", "paper-scale"];
        measured.contains(&args[0]) || args.contains(&"--explore") || args == ["quorum"]
    };
    for (_, args) in lht_bench::cli::CI_SMOKE {
        let pinned = PINS.iter().any(|(pin, _, _)| pin == args);
        assert_ne!(pinned, unpinned(args), "{args:?}");
    }
    for (pin, _, _) in PINS {
        let listed = lht_bench::cli::CI_SMOKE.iter().any(|(_, args)| args == pin);
        assert!(listed, "{pin:?} is not a ci-smoke row");
    }
}
