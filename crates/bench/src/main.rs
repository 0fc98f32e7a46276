//! `bench <name>... [--smoke]`: run experiments of the catalogue by name
//! (`bench::CATALOGUE`; the crate doc has the table).

use std::process::ExitCode;

fn main() -> ExitCode {
    match bench::parse(std::env::args().skip(1)) {
        Ok(runs) => {
            for run in runs {
                run();
            }
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprint!("bench: {why}\n{}", bench::usage());
            ExitCode::from(2)
        }
    }
}
