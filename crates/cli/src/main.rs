//! `snoop` — command-line interface to the MVA / GTPN / simulation suite.
//!
//! ```text
//! snoop solve    --protocol WO+1 --sharing 5 --n 10
//! snoop sweep    --protocol dragon --sharing 20 --n 100
//! snoop table    --panel a|b|c|util [--sim]
//! snoop figure   [--csv]
//! snoop validate --n 8 [--protocol WO] [--sharing 5]
//! snoop gtpn     --n 2 [--protocol WO] [--sharing 5]
//! snoop stress   [--n 10]
//! snoop trace    --n 4 [--protocol berkeley]
//! snoop protocol [--protocol illinois]
//! snoop asymptote
//! snoop calibrate --trace FILE --validate
//! ```
//!
//! `snoop help` lists all 19 subcommands and their flags.

use std::process::ExitCode;

mod args;
mod commands;
mod top;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("snoop: {message}");
            eprintln!("run `snoop help` for usage");
            ExitCode::FAILURE
        }
    }
}
