//! `figures [NAME...] [--scale N]` — print the paper's figures as
//! tables; every figure when no name is given. See the `das_bench`
//! crate docs for the list of names.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (named, scale) = match das_bench::parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("figures: {e}\n{}", das_bench::USAGE);
            return ExitCode::from(2);
        }
    };
    for (name, figure) in named {
        println!("# {name} (scale 1/{scale})");
        for table in figure(scale) {
            print!("{table}");
        }
        println!();
    }
    ExitCode::SUCCESS
}
