//! Differential-testing soak — drives the index under test (LHT or
//! PHT), the mirrored PHT baseline and a shadow oracle through one
//! deterministic trace, diffing every answer and auditing every
//! structural invariant (Theorem 1 bijectivity, partition coverage,
//! record conservation, θ-occupancy, PHT trie/chain consistency,
//! Chord ring well-formedness).
//!
//! Exits non-zero on the first divergence or invariant violation,
//! printing the failing op and the one-line replay command. The
//! `--drop/--net-seed/--mloss` flags replay chaos-test failures: they
//! wrap the substrate in the seeded lossy network the failing soak
//! ran under.

use std::io::{self, Write};

use lht::harness::{run_soak, IndexKind, SoakOptions, SoakReport, SubstrateKind};
use lht::NetProfile;

use crate::Table;

struct SoakArgs {
    seed: u64,
    ops: usize,
    theta: usize,
    churn: bool,
    nodes: usize,
    replicas: usize,
    direct: bool,
    chord: bool,
    index: IndexKind,
    drop_prob: f64,
    net_seed: u64,
    maintenance_loss: f64,
    route_cache: Option<usize>,
    quorum: Option<(usize, usize, usize)>,
    erasure: Option<(usize, usize)>,
}

impl Default for SoakArgs {
    fn default() -> Self {
        SoakArgs {
            seed: 1,
            ops: 10_000,
            theta: 4,
            churn: false,
            nodes: 16,
            replicas: 2,
            direct: true,
            chord: true,
            index: IndexKind::Lht,
            drop_prob: 0.0,
            net_seed: 1,
            maintenance_loss: 0.0,
            route_cache: None,
            quorum: None,
            erasure: None,
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: exp_audit_soak [--substrate direct|chord|both] [--index lht|pht|dst|rst] \
         [--seed N] [--ops N] [--theta N] [--churn] [--nodes N] [--replicas N] \
         [--drop P] [--net-seed N] [--mloss P] [--cache N] [--quorum N,R,W] \
         [--erasure K,M]"
    );
    eprintln!("  --substrate  which DHT to soak (default both)");
    eprintln!("  --index      which index scheme is primary (default lht)");
    eprintln!("  --seed N     trace seed; the whole run replays from it (default 1)");
    eprintln!("  --ops N      operations per soak (default 10000)");
    eprintln!("  --theta N    LHT split threshold (default 4)");
    eprintln!("  --churn      interleave ring join/leave/stabilize (chord only)");
    eprintln!("  --nodes N    initial chord ring size (default 16)");
    eprintln!("  --replicas N copies per key on chord (default 2)");
    eprintln!("  --drop P     per-RPC drop probability of the lossy network (default 0 = off)");
    eprintln!("  --net-seed N fault-layer seed (default 1)");
    eprintln!("  --mloss P    chord maintenance-RPC loss probability (default 0)");
    eprintln!("  --cache N    wrap the chord stack in a location cache of capacity N");
    eprintln!(
        "  --quorum N,R,W  replicate via a strict-quorum tier over chord (lht only, R+W > N)"
    );
    eprintln!("  --erasure K,M   erasure-code via k-of-m fragment groups over chord (lht only)");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_args(argv: &[String]) -> SoakArgs {
    let mut args = SoakArgs::default();
    let mut it = argv.iter().cloned();
    let num = |it: &mut dyn Iterator<Item = String>, what: &str| -> u64 {
        it.next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage(&format!("{what} needs an unsigned integer")))
    };
    let prob = |it: &mut dyn Iterator<Item = String>, what: &str| -> f64 {
        it.next()
            .and_then(|s| s.parse().ok())
            .filter(|p| (0.0..=1.0).contains(p))
            .unwrap_or_else(|| usage(&format!("{what} needs a probability in [0, 1]")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--substrate" => match it.next().as_deref() {
                Some("direct") => (args.direct, args.chord) = (true, false),
                Some("chord") => (args.direct, args.chord) = (false, true),
                Some("both") => (args.direct, args.chord) = (true, true),
                _ => usage("--substrate needs direct, chord or both"),
            },
            "--index" => match it.next().as_deref() {
                Some("lht") => args.index = IndexKind::Lht,
                Some("pht") => args.index = IndexKind::Pht,
                Some("dst") => args.index = IndexKind::Dst,
                Some("rst") => args.index = IndexKind::Rst,
                _ => usage("--index needs lht, pht, dst or rst"),
            },
            "--seed" => args.seed = num(&mut it, "--seed"),
            "--ops" => args.ops = num(&mut it, "--ops") as usize,
            "--theta" => args.theta = (num(&mut it, "--theta") as usize).max(2),
            "--churn" => args.churn = true,
            "--nodes" => args.nodes = (num(&mut it, "--nodes") as usize).max(1),
            "--replicas" => args.replicas = (num(&mut it, "--replicas") as usize).max(1),
            "--drop" => args.drop_prob = prob(&mut it, "--drop"),
            "--net-seed" => args.net_seed = num(&mut it, "--net-seed"),
            "--mloss" => args.maintenance_loss = prob(&mut it, "--mloss"),
            "--cache" => args.route_cache = Some(num(&mut it, "--cache") as usize),
            "--quorum" => {
                let spec = it.next().unwrap_or_else(|| usage("--quorum needs N,R,W"));
                let parts: Option<Vec<usize>> =
                    spec.split(',').map(|s| s.trim().parse().ok()).collect();
                match parts.as_deref() {
                    Some([n, r, w]) if r + w > *n && *r >= 1 && *w >= 1 && r.max(w) <= n => {
                        args.quorum = Some((*n, *r, *w));
                    }
                    _ => usage("--quorum needs N,R,W with 1 <= R,W <= N and R+W > N"),
                }
            }
            "--erasure" => {
                let spec = it.next().unwrap_or_else(|| usage("--erasure needs K,M"));
                let parts: Option<Vec<usize>> =
                    spec.split(',').map(|s| s.trim().parse().ok()).collect();
                match parts.as_deref() {
                    Some([k, m]) if *k >= 2 && k < m && *m <= 32 => {
                        args.erasure = Some((*k, *m));
                    }
                    _ => usage("--erasure needs K,M with 2 <= K < M <= 32"),
                }
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if args.quorum.is_some() && args.erasure.is_some() {
        usage("the quorum and erasure tiers are mutually exclusive");
    }
    args
}

/// `lht-exp audit-soak`: soaks each selected substrate and prints one
/// verdict row per soak; exits 1 if any soak diverged.
///
/// # Errors
///
/// Propagates write errors from `out`.
pub fn cmd(argv: &[String], out: &mut dyn Write) -> io::Result<i32> {
    let args = parse_args(argv);
    let mut runs: Vec<(SubstrateKind, bool)> = Vec::new();
    if args.direct {
        runs.push((SubstrateKind::Direct, false));
    }
    if args.chord {
        runs.push((
            SubstrateKind::Chord {
                nodes: args.nodes,
                replicas: args.replicas,
            },
            args.churn,
        ));
    }
    let net = if args.drop_prob > 0.0 {
        Some(NetProfile::lossy(args.net_seed, args.drop_prob))
    } else {
        None
    };

    let mut t = Table::new(
        format!(
            "audit soak — {}, seed {}, {} ops, theta {}, drop {}",
            args.index, args.seed, args.ops, args.theta, args.drop_prob
        ),
        &[
            "substrate",
            "ops",
            "mutations",
            "queries",
            "churn",
            "audits",
            "records",
            "drops",
            "retries",
            "verdict",
        ],
    );
    let mut failed = false;
    for (substrate, churn) in runs {
        let opts = SoakOptions {
            seed: args.seed,
            ops: args.ops,
            theta: args.theta,
            substrate,
            index: args.index,
            mirror_pht: matches!(substrate, SubstrateKind::Direct) && args.index == IndexKind::Lht,
            churn,
            net,
            maintenance_loss: args.maintenance_loss,
            route_cache: args.route_cache,
            quorum: args.quorum,
            erasure: args.erasure,
            audit_every: (args.ops / 10).max(1),
            ..SoakOptions::default()
        };
        eprintln!(
            "soaking {} over {substrate} ({} ops)…",
            args.index, args.ops
        );
        match run_soak(&opts) {
            Ok(report) => push_report(&mut t, substrate, &report),
            Err(failure) => {
                failed = true;
                eprintln!("{failure}");
                t.push_row(vec![
                    substrate.to_string(),
                    failure.op_index.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "FAILED".into(),
                ]);
            }
        }
    }
    write!(out, "{}", t.render())?;
    Ok(failed as i32)
}

fn push_report(t: &mut Table, substrate: SubstrateKind, r: &SoakReport) {
    t.push_row(vec![
        substrate.to_string(),
        r.applied.to_string(),
        r.mutations.to_string(),
        r.queries.to_string(),
        r.churn_events.to_string(),
        r.audits.to_string(),
        r.final_records.to_string(),
        (r.drops + r.timeouts).to_string(),
        r.retries.to_string(),
        "ok".into(),
    ]);
}
