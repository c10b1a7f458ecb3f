//! `lht-exp audit-soak` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("audit-soak")
}
