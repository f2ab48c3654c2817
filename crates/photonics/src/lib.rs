//! # trident-photonics
//!
//! Silicon-photonic device substrate for the Trident reproduction.
//!
//! This crate models the optical devices that the Trident paper composes
//! into a photonic neural-network accelerator:
//!
//! * [`units`] — strongly-typed physical quantities (wavelength, power,
//!   energy, time, area) with explicit unit conversions.
//! * [`calib`] — the power-law PCM drift decay factor and the
//!   reference-column readout that turns it into a global scale
//!   calibration at inference time.
//! * [`wdm`] — wavelength-division-multiplexing channel grids and
//!   multi-channel optical signals carried on one waveguide.
//! * [`mrr`] — add-drop microring resonator transfer functions (through and
//!   drop port), detuning behaviour, free spectral range, and Q factor.
//! * [`waveguide`] — propagation loss and group delay of routing waveguides.
//! * [`laser`] — CW laser sources and electro-optic modulators that encode
//!   analog values onto channel amplitudes.
//! * [`detector`] — balanced photodetectors (BPDs) and transimpedance
//!   amplifiers (TIAs), including shot/thermal noise models.
//! * [`crosstalk`] — inter-channel crosstalk analysis of a WDM ring bank and
//!   the effective bit resolution it permits (the paper's 6-bit thermal
//!   limit vs 8-bit PCM operation).
//! * [`tuning`] — the three MRR tuning technologies compared in Table I of
//!   the paper (thermal, electro-optic, GST/PCM).
//! * [`ledger`] — energy/power bookkeeping used by every higher-level crate
//!   to roll up per-device contributions into totals.
//! * [`noise`] — seeded stochastic noise sources for reproducible
//!   Monte-Carlo experiments.
//!
//! The physics here is deliberately *behavioural*: device responses follow
//! the standard analytic ring-resonator equations with parameters taken
//! from the publications the paper cites, which is exactly the level of
//! modelling the original study used.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless))]

pub mod calib;
pub mod crosstalk;
pub mod detector;
pub mod laser;
pub mod ledger;
pub mod link;
pub mod mrr;
pub mod mzm;
pub mod noise;
pub mod spectrum;
pub mod thermal;
pub mod tuning;
pub mod units;
pub mod waveguide;
pub mod wdm;

pub use crosstalk::{effective_bit_resolution, BankOperatingPoint, CrosstalkReport};
pub use calib::{drift_decay_factor, ReferenceColumn};
pub use detector::{BalancedPhotodetector, Photodetector, TransimpedanceAmplifier};
pub use laser::{EoModulator, LaserSource};
pub use ledger::{EnergyLedger, PowerLedger};
pub use link::{LinkBudget, LinkReport};
pub use mrr::{AddDropMrr, MrrDrive, MrrGeometry};
pub use mzm::MachZehnder;
pub use thermal::ThermalTunerArray;
pub use noise::NoiseModel;
pub use spectrum::{drop_extinction_db, find_resonances, sweep as sweep_spectrum, SpectrumPoint};
pub use tuning::{TuningMethod, TuningProfile};
pub use units::{AreaUm2, EnergyPj, Nanoseconds, PowerMw, Wavelength};
pub use wdm::{WdmGrid, WdmSignal};

/// Speed of light in vacuum, metres per second.
pub const SPEED_OF_LIGHT_M_S: f64 = 299_792_458.0;

/// Default C-band anchor wavelength used throughout the paper's devices
/// (the GST activation cell in Fig. 3 is characterised at 1553.4 nm).
pub const C_BAND_ANCHOR_NM: f64 = 1550.0;

/// Minimum WDM channel spacing used by the broadcast-and-weight bank
/// (the paper spaces resonances "at least 1.6 nm apart").
pub const MIN_CHANNEL_SPACING_NM: f64 = 1.6;
