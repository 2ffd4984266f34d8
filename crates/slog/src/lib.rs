//! # ute-slog — the SLOG scalable log format (§4)
//!
//! SLOG is the visualization-facing format Jumpshot reads. It solves the
//! two challenges §4 names for "large files of events that may result
//! from a long run on a large parallel machine":
//!
//! 1. **Rapid access to a time interval far into the run** — the run's
//!    time is divided into frames and a *frame index based on time* lets
//!    a viewer binary-search straight to the frame containing any chosen
//!    instant ([`file::SlogFile::frame_at`]). A reader opens the index
//!    without touching frame bodies and decodes only the frames a view
//!    shows ([`file::SlogReader`]).
//! 2. **Accurate portrayal using data logged outside the window** —
//!    states that span frame boundaries and message arrows whose send
//!    happened long before the receive are duplicated into every frame
//!    they overlap as **pseudo-interval records** ([`record::SlogRecord`]
//!    with the `pseudo` flag), so a single frame renders standalone.
//!
//! The builder also accumulates the **preview** data: state counters and
//! "proportional allocation of event durations to a fixed number of time
//! bins", which is what Jumpshot's whole-run preview window draws
//! ([`preview::Preview`]).

pub mod builder;
pub mod file;
pub mod preview;
pub mod record;

pub use builder::{BuildOptions, SlogBuilder};
pub use file::{SlogFile, SlogFrame, SlogReader};
pub use preview::Preview;
pub use record::{SlogArrow, SlogRecord, SlogState};
