//! The `lht-exp` command line: every experiment is one row of
//! `EXPERIMENTS` — subcommand, EXPERIMENTS.md id, flag tables, CSVs
//! written, entry point — and parsing, `--help`, the bad-usage exit
//! and dispatch are written once over the rows. [`CI_SMOKE`] is the
//! manifest of invocations CI runs (`lht-exp ci-smoke [group]`).

use std::io::{self, Write};

use lht::harness::args::{parse, usage, Flags, Parsed, Stop};
use lht::harness::SoakOptions;
use lht_sim::SimConfig;

use crate::experiments::common::{FULL, GROWTH};
use crate::experiments::*;

/// One `lht-exp` subcommand.
pub(crate) struct Experiment {
    /// The subcommand.
    pub name: &'static str,
    /// Its section in EXPERIMENTS.md (`—` for a harness tool).
    pub id: &'static str,
    /// What it reproduces, in one line.
    pub about: &'static str,
    /// The flags it accepts.
    pub flags: Flags,
    /// The `results/<name>.csv` files a default run writes. Only the
    /// tests read it: they hold EXPERIMENTS.md and `results/` to it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub csv: &'static [&'static str],
    /// Runs it over checked arguments, printing tables to the writer;
    /// returns the exit status.
    pub run: fn(&Parsed, &mut dyn Write) -> io::Result<i32>,
}

/// Every experiment, in EXPERIMENTS.md order.
#[rustfmt::skip]
pub(crate) const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "fig6", id: "Fig. 6", about: "average α vs data size and vs θ_split", flags: &[GROWTH], csv: &["fig6a_alpha_vs_size", "fig6b_alpha_vs_theta"], run: fig6::cmd },
    Experiment { name: "fig7", id: "Fig. 7", about: "cumulative maintenance cost, LHT vs PHT", flags: &[GROWTH], csv: &["fig7a_moved_uniform", "fig7b_lookups_uniform", "fig7a_moved_gaussian", "fig7b_lookups_gaussian"], run: fig7::cmd },
    Experiment { name: "fig8", id: "Fig. 8", about: "DHT-lookups per lookup vs data size", flags: &[GROWTH], csv: &["fig8a_lookup_uniform", "fig8b_lookup_gaussian"], run: fig8::cmd },
    Experiment { name: "fig9", id: "Fig. 9", about: "range-query bandwidth vs data size and span", flags: &[GROWTH], csv: &["fig9a_bandwidth_uniform", "fig9a_bandwidth_gaussian", "fig9b_bandwidth_uniform", "fig9b_bandwidth_gaussian"], run: fig9_10::cmd_bandwidth },
    Experiment { name: "fig10", id: "Fig. 10", about: "range-query latency vs data size and span", flags: &[GROWTH], csv: &["fig10a_latency_uniform", "fig10a_latency_gaussian", "fig10b_latency_uniform", "fig10b_latency_gaussian"], run: fig9_10::cmd_latency },
    Experiment { name: "saving-ratio", id: "§8 / Eq. 3", about: "maintenance saving ratio vs γ, model vs measured", flags: &[GROWTH], csv: &["eq3_saving_uniform", "eq3_saving_gaussian"], run: saving::cmd },
    Experiment { name: "baselines", id: "E10", about: "LHT vs PHT vs DST vs RST on identical datasets", flags: &[&[FULL]], csv: &["e10_insert_uniform", "e10_moved_uniform", "e10_range_uniform", "e10_insert_gaussian", "e10_moved_gaussian", "e10_range_gaussian"], run: baselines::cmd },
    Experiment { name: "churn", id: "E11", about: "exact-match availability under Chord churn", flags: &[&[FULL]], csv: &["e11_churn"], run: churn::cmd },
    Experiment { name: "load-balance", id: "E12", about: "records per peer, raw hashing vs LHT buckets", flags: &[&[FULL]], csv: &["e12_load_balance"], run: balance::cmd },
    Experiment { name: "bulk-load", id: "E13", about: "incremental growth vs one put per leaf", flags: &[&[FULL]], csv: &["e13_bulk_uniform", "e13_bulk_gaussian"], run: bulk::cmd },
    Experiment { name: "hops", id: "E14", about: "physical hops per operation over routed rings", flags: &[&[FULL]], csv: &["e14_hops"], run: hops::cmd },
    Experiment { name: "deletion", id: "E15", about: "merge maintenance while draining, LHT vs PHT", flags: &[&[FULL]], csv: &["e15_deletion_uniform", "e15_deletion_gaussian"], run: deletion::cmd },
    Experiment { name: "fault-sweep", id: "E16", about: "availability and cost inflation vs drop rate", flags: &[fault_sweep::FLAGS], csv: &["e16_fault_sweep"], run: fault_sweep::cmd },
    Experiment { name: "batch-speedup", id: "E17", about: "batched rounds vs sequential steps", flags: &[batch_speedup::FLAGS], csv: &["e17_batch_speedup"], run: batch_speedup::cmd },
    Experiment { name: "route-cache", id: "E18", about: "location cache vs churn, LHT vs PHT", flags: &[&[FULL]], csv: &["e18_route_cache"], run: route_cache::cmd },
    Experiment { name: "threaded", id: "E19", about: "checked throughput of real client threads over the ring", flags: &[threaded::FLAGS], csv: &[], run: threaded::cmd },
    Experiment { name: "quorum", id: "E20", about: "quorum and erasure tiers: availability vs bandwidth and bytes", flags: &[quorum::FLAGS], csv: &["e20_quorum", "e20_erasure"], run: quorum::cmd },
    Experiment { name: "paper-scale", id: "E21", about: "throughput and peak RSS over a keys x peers grid", flags: &[paper_scale::FLAGS], csv: &["e21_paper_scale"], run: paper_scale::cmd },
    Experiment { name: SoakOptions::COMMAND, id: "—", about: "differential soak against the shadow oracle, every invariant audited", flags: &[SoakOptions::FLAGS], csv: &[], run: audit_soak::cmd },
    Experiment { name: SimConfig::COMMAND, id: "—", about: "deterministic-simulation explorer with a linearizability checker", flags: &[SimConfig::FLAGS, sim_explore::FLAGS], csv: &[], run: sim_explore::cmd },
    Experiment { name: "bench-snapshot", id: "—", about: "rewrite BENCH_lht.json, the exact headline counters", flags: &[], csv: &[], run: snapshot::cmd },
];

/// What CI runs, as `(group, lht-exp arguments)`; a group is one step
/// of `ci.yml`. Every row must exit 0 — the mutant proofs invert
/// their own status with `--expect-violation`.
#[rustfmt::skip]
pub const CI_SMOKE: &[(&str, &[&str])] = &[
    // The paper's figures at default scale, one seeded trial each;
    // they write default-scale results/*.csv under the working
    // directory, so run them away from the tracked --full artifacts.
    ("figures", &["fig6", "--trials", "1"]),
    ("figures", &["fig7", "--trials", "1"]),
    ("figures", &["fig8", "--trials", "1"]),
    ("figures", &["fig9", "--trials", "1"]),
    ("figures", &["fig10", "--trials", "1"]),
    ("figures", &["saving-ratio", "--trials", "1"]),
    ("audit-soak", &["audit-soak", "--substrate", "both", "--seed", "1", "--ops", "10000", "--churn"]),
    // The PHT baseline through the same trace, spec and audits (§9).
    ("audit-soak", &["audit-soak", "--substrate", "direct", "--index", "pht", "--seed", "1", "--ops", "10000"]),
    // A tier over the one-hop substrate, through loss.
    ("audit-soak", &["audit-soak", "--substrate", "direct", "--seed", "1", "--ops", "10000", "--churn", "--drop", "0.1", "--quorum", "3,2,2"]),
    ("fault-sweep", &["fault-sweep", "--smoke"]),
    // Pinned clean seeds must replay byte-identically and pass.
    ("sim", &["sim-explore", "--seed", "1"]),
    ("sim", &["sim-explore", "--seed", "42"]),
    ("sim", &["sim-explore", "--seed", "2008"]),
    // Both armed mutants must be flagged non-linearizable.
    ("sim", &["sim-explore", "--seed", "1", "--stale-replica", "--expect-violation"]),
    ("sim", &["sim-explore", "--seed", "1", "--torn-split", "3", "--expect-violation"]),
    // Quorum-stack clean seeds; the quorum mutant proofs run in the
    // quorum group.
    ("sim", &["sim-explore", "--seed", "0", "--quorum", "3,2,2"]),
    ("sim", &["sim-explore", "--seed", "1", "--quorum", "3,1,3"]),
    ("sim", &["sim-explore", "--seed", "2", "--quorum", "3,2,2", "--drop", "0.1"]),
    // Unmutated sweep: >= 1000 explored schedules stay clean, then a
    // 2-minute random-exploration budget.
    ("sim", &["sim-explore", "--explore", "1200"]),
    ("sim", &["sim-explore", "--seed", "10000", "--explore", "1000000", "--budget-secs", "120"]),
    ("batch-speedup", &["batch-speedup", "--smoke"]),
    // E18 self-asserts hops/hit-rate targets and zero divergence; then
    // the cached production stack through a lossy, churning soak; then
    // the unverified-probe mutant must be flagged non-linearizable.
    ("route-cache", &["route-cache"]),
    ("route-cache", &["audit-soak", "--substrate", "chord", "--seed", "1", "--ops", "5000", "--churn", "--cache", "256", "--drop", "0.1", "--mloss", "0.15"]),
    ("route-cache", &["sim-explore", "--seed", "0", "--stale-cache-read", "--expect-violation"]),
    // 2 real client threads x 500 ops over one shared 8-peer ring must
    // pass the checker; the torn-split mutant, recorded through the
    // same path, must be caught.
    ("threaded", &["threaded", "--smoke"]),
    ("threaded", &["threaded", "--mutant-proof"]),
    // E20 small grid (self-asserts quorum(3,2,2) beats the primary
    // owner at 20% drop + churn), the quorum production stack through
    // a lossy, churning soak, and both armed quorum mutants.
    ("quorum", &["quorum", "--smoke"]),
    ("quorum", &["audit-soak", "--substrate", "chord", "--seed", "1", "--ops", "5000", "--churn", "--drop", "0.1", "--quorum", "3,2,2"]),
    ("quorum", &["sim-explore", "--seed", "2", "--sloppy-quorum-read", "--expect-violation"]),
    ("quorum", &["sim-explore", "--seed", "3", "--lost-write-ack", "--expect-violation"]),
    // The full seeded grid rewrites both tiers' tracked CSVs.
    ("e20-frozen", &["quorum"]),
    // The erasure production stack through a lossy, churning soak,
    // clean coded seeds of both geometries plus a lossy cell, and both
    // armed erasure mutants.
    ("erasure", &["audit-soak", "--substrate", "chord", "--seed", "1", "--ops", "5000", "--churn", "--drop", "0.1", "--mloss", "0.15", "--erasure", "2,4"]),
    ("erasure", &["sim-explore", "--seed", "0", "--erasure", "2,5"]),
    ("erasure", &["sim-explore", "--seed", "1", "--erasure", "4,6"]),
    ("erasure", &["sim-explore", "--seed", "2", "--erasure", "2,5", "--drop", "0.1"]),
    ("erasure", &["sim-explore", "--seed", "2", "--corrupt-fragment", "--expect-violation"]),
    ("erasure", &["sim-explore", "--seed", "1", "--lazy-regen", "--churn", "8", "--expect-violation"]),
    ("paper-scale", &["paper-scale", "--smoke"]),
];

/// The error an experiment returns for arguments that parsed but do
/// not go together; [`run`] turns it into the bad-usage exit.
pub(crate) fn bad_usage(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, why)
}

/// `--help` of one experiment, generated from its row.
pub(crate) fn help(exp: &Experiment) -> String {
    format!(
        "usage: lht-exp {} [flags]    ({}: {})\n{}",
        exp.name,
        exp.id,
        exp.about,
        usage(exp.flags)
    )
}

/// `--help` of `lht-exp` itself: one line per experiment.
fn overview() -> String {
    let mut text = String::from(
        "usage: lht-exp <experiment> [flags]    (lht-exp <experiment> --help lists its flags)\n",
    );
    for exp in EXPERIMENTS {
        text += &format!("  {:<14}  {}: {}\n", exp.name, exp.id, exp.about);
    }
    text + "  ci-smoke [group]  every invocation CI runs, or one step's\n"
}

/// Runs every [`CI_SMOKE`] row of `group` (all rows without one) and
/// stops at the first that does not exit 0, like the shell step it
/// replaces.
fn ci_smoke(group: Option<&str>, out: &mut dyn Write) -> i32 {
    let rows: Vec<_> = CI_SMOKE
        .iter()
        .filter(|(g, _)| group.is_none_or(|want| want == *g))
        .collect();
    if rows.is_empty() {
        let mut groups: Vec<&str> = CI_SMOKE.iter().map(|(g, _)| *g).collect();
        groups.dedup();
        eprintln!("error: ci-smoke groups are {}", groups.join(", "));
        return 2;
    }
    for (_, args) in rows {
        eprintln!("$ lht-exp {}", args.join(" "));
        let status = run(args, out);
        if status != 0 {
            eprintln!("ci-smoke: `lht-exp {}` exited {status}", args.join(" "));
            return status;
        }
    }
    0
}

/// `lht-exp`: runs `argv[0]` over the remaining arguments, printing
/// its tables to `out`; returns the process exit status (2 on bad
/// usage, with the offending flag named on stderr).
pub fn run<S: AsRef<str>>(argv: &[S], out: &mut dyn Write) -> i32 {
    let argv: Vec<&str> = argv.iter().map(AsRef::as_ref).collect();
    let (name, args) = match argv.split_first() {
        None => {
            eprint!("{}", overview());
            return 2;
        }
        Some((&("--help" | "-h"), _)) => {
            eprint!("{}", overview());
            return 0;
        }
        Some((&"ci-smoke", rest)) if rest.len() <= 1 => {
            return ci_smoke(rest.first().copied(), out)
        }
        Some((name, args)) => (*name, args),
    };
    let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        eprintln!("error: unknown experiment {name:?}");
        eprint!("{}", overview());
        return 2;
    };
    let outcome = match parse(exp.flags, args) {
        Ok(parsed) => (exp.run)(&parsed, out),
        Err(Stop::Help) => {
            eprint!("{}", help(exp));
            return 0;
        }
        Err(Stop::Bad(why)) => Err(bad_usage(why)),
    };
    match outcome {
        Ok(status) => status,
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
            eprintln!("error: {e}");
            eprint!("{}", help(exp));
            2
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use lht::harness::args::rows;

    use super::*;

    /// The id → subcommand → flags → CSV table EXPERIMENTS.md carries,
    /// generated from [`EXPERIMENTS`] (a test holds the document to it).
    fn doc_table() -> String {
        // Space-separated code spans; a literal `|` would end the cell.
        fn ticked(items: impl Iterator<Item = String>) -> String {
            let spans: Vec<String> = items
                .map(|item| format!("`{}`", item.replace('|', "\\|")))
                .collect();
            if spans.is_empty() {
                return "—".to_string();
            }
            spans.join(" ")
        }
        let mut table =
            String::from("| id | `lht-exp` | flags | `results/*.csv` |\n|---|---|---|---|\n");
        for exp in EXPERIMENTS {
            let flags = rows(exp.flags);
            table += &format!(
                "| {} | `{}` | {} | {} |\n",
                exp.id,
                exp.name,
                ticked(flags.map(|f| f.synopsis())),
                ticked(exp.csv.iter().map(|csv| csv.to_string()))
            );
        }
        table
    }

    fn exp(name: &str) -> &'static Experiment {
        EXPERIMENTS
            .iter()
            .find(|e| e.name == name)
            .expect("experiment")
    }

    /// The bad-usage message for `args`, which must also exit 2.
    fn refused(name: &str, args: &[&str]) -> String {
        let argv: Vec<&str> = std::iter::once(name).chain(args.iter().copied()).collect();
        assert_eq!(run(&argv, &mut Vec::new()), 2, "{argv:?}");
        match parse(exp(name).flags, args) {
            Err(Stop::Bad(why)) => why,
            other => panic!("{argv:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn every_subcommand_refuses_unknown_flags_and_missing_values() {
        for e in EXPERIMENTS {
            assert!(refused(e.name, &["--no-such-flag"]).contains("--no-such-flag"));
            for flag in rows(e.flags) {
                if flag.synopsis() != flag.name {
                    let why = refused(e.name, &[flag.name]);
                    assert!(why.starts_with(flag.name), "{}: {why}", e.name);
                }
            }
        }
        assert_eq!(run(&["no-such-experiment"], &mut Vec::new()), 2);
        assert_eq!(run::<&str>(&[], &mut Vec::new()), 2);
        assert_eq!(run(&["ci-smoke", "no-such-group"], &mut Vec::new()), 2);
    }

    #[test]
    fn out_of_range_values_name_the_offending_flag() {
        for (name, args, flag) in [
            ("audit-soak", &["--drop", "1.5"][..], "--drop"),
            ("sim-explore", &["--drop", "1.5"], "--drop"),
            ("audit-soak", &["--mloss", "-0.1"], "--mloss"),
            ("audit-soak", &["--quorum", "3,1,1"], "--quorum"),
            ("sim-explore", &["--quorum", "3,1,1"], "--quorum"),
            ("audit-soak", &["--erasure", "4,3"], "--erasure"),
            ("sim-explore", &["--erasure", "4,3"], "--erasure"),
            ("sim-explore", &["--schedule", "1,x"], "--schedule"),
            ("audit-soak", &["--substrate", "kad"], "--substrate"),
            ("fig6", &["--trials", "0"], "--trials"),
            ("saving-ratio", &["--trials", "0"], "--trials"),
            ("threaded", &["--ops", "many"], "--ops"),
        ] {
            assert!(refused(name, args).starts_with(flag), "{name} {args:?}");
        }
    }

    #[test]
    fn layers_a_run_cannot_hold_are_refused_by_both_harness_commands() {
        let both = ["--quorum", "3,2,2", "--erasure", "2,4"];
        for name in ["audit-soak", "sim-explore"] {
            let argv: Vec<&str> = std::iter::once(name).chain(both).collect();
            assert_eq!(run(&argv, &mut Vec::new()), 2, "{name}");
        }
        // A mutant implies its tier.
        let implied = ["sim-explore", "--erasure", "2,5", "--lost-write-ack"];
        assert_eq!(run(&implied, &mut Vec::new()), 2);
        // One mutant per run.
        for two in [
            &["--stale-replica", "--torn-split", "2"][..],
            &["--sloppy-quorum-read", "--lost-write-ack"],
        ] {
            let argv: Vec<&str> = std::iter::once("sim-explore")
                .chain(two.iter().copied())
                .collect();
            assert_eq!(run(&argv, &mut Vec::new()), 2, "{two:?}");
        }
        // A soak's replay line names no layer its index or its
        // substrate never runs.
        for layer in [
            &["--index", "pht", "--quorum", "3,2,2"][..],
            &["--index", "dst", "--erasure", "2,4"],
            &["--index", "rst", "--cache", "16"],
            &["--index", "dst", "--substrate", "chord", "--cache", "16"],
            &["--substrate", "direct", "--cache", "16"],
            &["--substrate", "direct", "--mloss", "0.1"],
        ] {
            let argv: Vec<&str> = std::iter::once("audit-soak")
                .chain(layer.iter().copied())
                .collect();
            assert_eq!(run(&argv, &mut Vec::new()), 2, "{layer:?}");
        }
        // A tier over Direct is a layer Direct holds.
        let tiered = [
            "audit-soak",
            "--substrate",
            "direct",
            "--quorum",
            "3,2,2",
            "--ops",
            "50",
        ];
        assert_eq!(run(&tiered, &mut Vec::new()), 0);
    }

    #[test]
    fn help_is_generated_from_the_table_and_lists_exactly_its_flags() {
        for e in EXPERIMENTS {
            assert_eq!(run(&[e.name, "--help"], &mut Vec::new()), 0);
            let text = help(e);
            let listed: Vec<&str> = text
                .lines()
                .skip(1)
                .map(|l| l.split_whitespace().next().expect("flag"))
                .collect();
            let table: Vec<&str> = e
                .flags
                .iter()
                .flat_map(|t| t.iter())
                .map(|f| f.name)
                .collect();
            assert_eq!(listed, table, "{}", e.name);
            let unique: BTreeSet<&str> = table.iter().copied().collect();
            assert_eq!(unique.len(), table.len(), "{} repeats a flag", e.name);
        }
    }

    #[test]
    fn growth_defaults() {
        let p = parse::<&str>(exp("fig6").flags, &[]).unwrap();
        assert_eq!(common::growth_args(&p), (3, false));
    }

    #[test]
    fn growth_parses_trials_and_full() {
        let args = ["--trials", "10", "--full"];
        let p = parse(exp("fig7").flags, &args).unwrap();
        assert_eq!(common::growth_args(&p), (10, true));
    }

    #[test]
    fn every_ci_row_and_both_replay_lines_are_lht_exp_commands() {
        let replays = [
            SoakOptions::default().replay_line(),
            SimConfig::small(7).replay_line(&[0, 2, 1]),
        ];
        let replays = replays.iter().map(|line| {
            let words = line.strip_prefix("cargo run --release -p lht-bench -- ");
            words.expect("an lht-exp command").split(' ').collect()
        });
        let smoke = CI_SMOKE.iter().map(|(_, args)| args.to_vec());
        for argv in smoke.chain(replays) {
            let parsed = parse(exp(argv[0]).flags, &argv[1..]);
            assert!(parsed.is_ok(), "{argv:?}: {parsed:?}");
        }
    }

    #[test]
    fn experiments_md_carries_the_generated_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
        assert!(
            doc.contains(&doc_table()),
            "EXPERIMENTS.md must carry this table verbatim:\n{}",
            doc_table()
        );
        for e in EXPERIMENTS.iter().filter(|e| e.id != "—") {
            assert!(
                doc.contains(&format!("{} —", e.id)),
                "no section for {}",
                e.id
            );
        }
    }

    #[test]
    fn declared_csvs_are_the_artifacts_under_results() {
        // Wall-clock or smoke-sized outputs are gitignored, not tracked.
        let untracked = [
            "e16_fault_sweep",
            "e17_batch_speedup",
            "e18_route_cache",
            "e21_paper_scale",
        ];
        let declared: BTreeSet<String> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.csv.iter())
            .filter(|csv| !untracked.contains(csv))
            .map(|csv| format!("{csv}.csv"))
            .collect();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let tracked: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("results/")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .filter(|name| {
                name.ends_with(".csv") && !untracked.contains(&name.trim_end_matches(".csv"))
            })
            .collect();
        assert_eq!(declared, tracked);
    }
}
