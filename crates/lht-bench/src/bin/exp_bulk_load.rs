//! `lht-exp bulk-load` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("bulk-load")
}
