//! One module per paper artifact. See `DESIGN.md`'s experiment index.

pub mod common;

pub mod ablation;
mod fig10;
mod fig11;
mod fig12;
pub mod fig13;
mod fig14a;
mod fig14b;
mod fig14cd;
pub mod fig15;
mod fig16;
mod fig2;
mod fig4;
mod fig5;
pub mod fig6;
mod fig8;
mod tab1;
mod tab2;
pub mod tab3;
pub mod tab4;

use crate::{ExperimentReport, RunMode};

/// Every experiment id, in paper order.
pub const ALL_IDS: &[&str] = &[
    "fig2", "fig4", "fig5", "fig6", "fig8", "fig10", "fig11", "fig12", "fig13", "tab1", "tab2",
    "fig14a", "fig14b", "fig14cd", "fig15", "fig16", "tab3", "tab4",
    // Extensions beyond the paper's artifacts:
    "ablation",
];

/// Runs one experiment by id, offering it an event journal.
///
/// Only experiments that replay a full control-loop scenario narrate
/// into the journal (currently `fig13`, whose 30 s-interval run is the
/// paper's headline migration timeline); the rest return the journal
/// untouched. Returns `None` for unknown ids.
pub fn run(
    id: &str,
    mode: RunMode,
    journal: Option<bass_obs::Journal>,
) -> Option<(ExperimentReport, Option<bass_obs::Journal>)> {
    if id == "fig13" {
        return Some(fig13::run(mode, journal));
    }
    let report = match id {
        "fig2" => fig2::run(mode),
        "fig4" => fig4::run(mode),
        "fig5" => fig5::run(mode),
        "fig6" => fig6::run(mode),
        "fig8" => fig8::run(mode),
        "fig10" => fig10::run(mode),
        "fig11" => fig11::run(mode),
        "fig12" => fig12::run(mode),
        "tab1" => tab1::run(mode),
        "tab2" => tab2::run(mode),
        "fig14a" => fig14a::run(mode),
        "fig14b" => fig14b::run(mode),
        "fig14cd" => fig14cd::run(mode),
        "fig15" => fig15::run(mode),
        "fig16" => fig16::run(mode),
        "tab3" => tab3::run(mode),
        "tab4" => tab4::run(mode),
        "ablation" => ablation::run(mode),
        _ => return None,
    };
    Some((report, journal))
}
