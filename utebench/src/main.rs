//! The `utebench` binary; the benchmark lives in the library (lib.rs).

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(utebench::main(&argv));
}
