//! `lht-exp saving-ratio` under its historical binary name.

fn main() {
    lht_bench::cli::main_of("saving-ratio")
}
