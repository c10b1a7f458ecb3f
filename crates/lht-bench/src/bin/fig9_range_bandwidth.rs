//! `lht-exp fig9` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("fig9")
}
