//! `lht-exp fault-sweep` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("fault-sweep")
}
