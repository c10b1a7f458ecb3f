//! `lht-exp fig10` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("fig10")
}
