//! `lht-exp route-cache` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("route-cache")
}
