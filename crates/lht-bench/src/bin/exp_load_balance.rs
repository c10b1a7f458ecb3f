//! `lht-exp load-balance` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("load-balance")
}
