//! `paper <name|all>`: prints one of the paper's tables or figures, or all
//! ten in order (see [`ebv_bench::paper`]). `EBV_SCALE=small|full` selects
//! the dataset sizes; small is the default.

use std::process::ExitCode;

use ebv_bench::paper::{usage, Experiments};
use ebv_bench::Scale;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let rendered = match (args.next(), args.next()) {
        (Some(name), None) => Scale::from_env()
            .map_err(Into::into)
            .and_then(|scale| Experiments::new(scale).render(&name)),
        _ => Err(format!("usage: paper <{}>", usage()).into()),
    };
    match rendered {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("paper: {error}");
            ExitCode::FAILURE
        }
    }
}
