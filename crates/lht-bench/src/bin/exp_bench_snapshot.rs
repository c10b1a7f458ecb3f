//! `lht-exp bench-snapshot` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("bench-snapshot")
}
