//! `lht-exp fig6` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("fig6")
}
