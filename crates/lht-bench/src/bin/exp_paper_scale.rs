//! `lht-exp paper-scale` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("paper-scale")
}
