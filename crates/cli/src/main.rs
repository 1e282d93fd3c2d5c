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
            use smith85_cli::CliError;
            if let CliError::ClaimFailed(output) = &err {
                print!("{output}");
            }
            eprintln!("smith85: {err}");
            // Only a mistyped command line is fixed by reading the usage.
            if matches!(
                err,
                CliError::Usage(_) | CliError::UnknownTrace(_) | CliError::UnknownExperiment(_)
            ) {
                eprintln!("run `smith85 help` for usage");
            }
            ExitCode::FAILURE
        }
    }
}
