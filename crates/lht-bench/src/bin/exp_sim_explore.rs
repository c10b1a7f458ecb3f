//! `lht-exp sim-explore` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("sim-explore")
}
