//! `lht-exp <experiment> [flags]` — see [`lht_bench::cli`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(lht_bench::cli::run(&argv, &mut std::io::stdout()))
}
