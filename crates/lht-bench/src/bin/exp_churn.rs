//! `lht-exp churn` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("churn")
}
