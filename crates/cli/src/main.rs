//! The `smith85` command-line tool.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match smith85_cli::run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            if let smith85_cli::CliError::ClaimFailed(output) = &err {
                print!("{output}");
            }
            eprintln!("smith85: {err}");
            eprintln!("run `smith85 help` for usage");
            ExitCode::FAILURE
        }
    }
}
