//! The paper's tables and figures (§4) as artifacts of one driver.
//!
//! Each artifact is a function of the run's shared [`Ctx`] that writes its
//! table to `out` (the driver points it at `results/<id>.txt`) and its
//! progress to stderr. Artifacts share the context's pre-trained models
//! read-only and never change them.

use std::io::{self, Write};

use crate::Ctx;

mod clustering;
mod estimation;
mod update;
mod workloads;

/// One reproduced table or figure.
pub struct Artifact {
    /// Artifact id, also the stem of its results file.
    pub id: &'static str,
    /// Writes the artifact's output.
    pub run: fn(&Ctx, &mut dyn Write) -> io::Result<()>,
}

/// Every artifact, in the order a full run writes them.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact { id: "table03", run: workloads::table03 },
    Artifact { id: "table05", run: update::table05 },
    Artifact { id: "table06", run: workloads::table06 },
    Artifact { id: "table07", run: clustering::table07 },
    Artifact { id: "table08", run: estimation::table08 },
    Artifact { id: "table09", run: estimation::table09 },
    Artifact { id: "table10", run: estimation::table10 },
    Artifact { id: "table11", run: estimation::table11 },
    Artifact { id: "table12", run: estimation::table12 },
    Artifact { id: "table13", run: estimation::table13 },
    Artifact { id: "fig07", run: clustering::fig07 },
    Artifact { id: "fig08", run: estimation::fig08 },
    Artifact { id: "fig09", run: estimation::fig09 },
];

/// The artifacts `names` ask for, in that order; all of them when
/// `names` is empty. An unknown name is an error that lists the valid
/// ones.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<&'static Artifact>, String> {
    if names.is_empty() {
        return Ok(ARTIFACTS.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            ARTIFACTS.iter().find(|a| a.id == name).ok_or_else(|| {
                let valid: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
                format!("unknown artifact `{name}`; valid artifacts: {}", valid.join(" "))
            })
        })
        .collect()
}
