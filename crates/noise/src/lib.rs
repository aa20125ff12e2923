//! Program success-rate estimation (paper §V).
//!
//! Full density-matrix simulation of 50–100 qubit programs is
//! impossible, so the paper predicts program success as the product of
//! two factors:
//!
//! * **gate success** — `Π_i p_{gate,i}^{n_i}` over gate arities `i`,
//!   where `n_i` counts compiled gates of arity `i` (router SWAPs price
//!   as three two-qubit gates);
//! * **ground-state coherence** — `e^{-Δg/T1,g - Δg/T2,g}` where `Δg`
//!   is the aggregate qubit-time spent idle in the ground state. Gate
//!   fidelities already include excited-state decoherence, so only the
//!   ground-state term appears.
//!
//! [`NoiseParams`] packages a hardware point: sweepable neutral-atom
//! parameters ([`NoiseParams::neutral_atom`]) and an IBM-Rome-era
//! superconducting baseline ([`NoiseParams::superconducting`]). The
//! Rome calibration snapshot the paper used (accessed 2020-11-19) is
//! not public; the constants here are a substitution representative of
//! that device generation.

pub mod crosstalk;
pub mod params;
pub mod success;
pub mod sweep;

pub use crosstalk::{
    crosstalk_exposures, crosstalk_success, success_with_crosstalk, CrosstalkParams,
};
pub use params::NoiseParams;
pub use success::{schedule_duration, success_probability, SuccessBreakdown};
pub use sweep::{largest_passing_size, log_spaced_errors};
