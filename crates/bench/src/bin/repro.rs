//! Reproduces the paper's tables and figures: `repro [artifact…]`.
//!
//! Writes each named artifact (every one when none is named) to
//! `results/<id>.txt` under the current directory, with progress on
//! stderr. One context serves the whole run, so each distinct model
//! configuration is pre-trained once. `PREQR_SCALE=full` selects the
//! larger sizes; an unknown artifact id or `PREQR_SCALE` value exits 2
//! before any work.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

use preqr_bench::{read_scale, repro, Ctx};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let artifacts = match read_scale().and_then(|_| repro::select(&names)) {
        Ok(artifacts) => artifacts,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx::build();
    let written = artifacts.into_iter().try_for_each(|artifact| -> io::Result<()> {
        let (path, t0) = (format!("results/{}.txt", artifact.id), Instant::now());
        eprintln!("[repro] {} → {path}", artifact.id);
        std::fs::create_dir_all("results")?;
        let mut out = BufWriter::new(File::create(&path)?);
        (artifact.run)(&ctx, &mut out)?;
        out.flush()?;
        eprintln!("[repro] {} done in {:.1}s", artifact.id, t0.elapsed().as_secs_f64());
        Ok(())
    });
    preqr_obs::flush_metrics();
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}
