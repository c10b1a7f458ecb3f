//! `lht-exp batch-speedup` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("batch-speedup")
}
